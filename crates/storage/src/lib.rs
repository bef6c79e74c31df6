//! External storage for the shape base (§4).
//!
//! The paper's Figures 7 and 8 measure **I/O operations per query** for a
//! shape base stored in 1 KB disk blocks behind an internal-memory buffer.
//! This crate reproduces that machinery exactly as a counting simulation:
//!
//! - [`disk`] — the block device with read/write accounting;
//! - [`buffer`] — an LRU buffer pool of configurable capacity;
//! - [`record`] — the fixed binary shape-record codec (~200 bytes per
//!   shape at the paper's ~20 vertices, ~5 records per 1 KB block);
//! - [`layout`] — the four placement policies of §4.1–4.2 (mean /
//!   lexicographic / median characteristic-curve sorts, and greedy local
//!   optimization of the average measure);
//! - [`store`] — the packed store mapping copies to blocks, plus the
//!   trace replay used by the experiments.
//!
//! Beyond the paper's simulation, the crate carries the durability
//! layer `geosir-serve` acks writes against:
//!
//! - [`wal`] — append-only write-ahead log (length-prefixed records,
//!   per-record CRC-32, monotonic LSNs, configurable fsync policy,
//!   torn-tail-tolerant replay, and a tail that reads only what was
//!   appended since its last poll);
//! - [`checkpoint`] — whole-base snapshots in the WAL's own framing (a
//!   header frame, then one insert record per live shape), named by the
//!   LSN they cover, installed by atomic rename; only the newest is kept;
//! - [`faults`] — I/O fault injection and `crash_if_armed` crash hooks
//!   (the latter compiled under `--features failpoints`) for the
//!   crash-recovery and degraded-mode tests.

#![forbid(unsafe_code)]

pub mod buffer;
pub mod checkpoint;
pub mod disk;
pub mod extindex;
pub mod faults;
pub mod layout;
pub mod record;
pub mod shipping;
pub mod slowlog;
pub mod store;
pub mod wal;

pub use buffer::BufferPool;
pub use checkpoint::CheckpointData;
pub use disk::{DiskSim, BLOCK_SIZE};
pub use extindex::ExternalVertexIndex;
pub use layout::LayoutPolicy;
pub use record::ShapeRecord;
pub use store::ShapeStore;
pub use wal::{FsyncPolicy, Lsn, Wal, WalRecord};
