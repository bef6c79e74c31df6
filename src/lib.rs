//! # GeoSIR-RS
//!
//! A Rust reproduction of *"Geometric-Similarity Retrieval in Large Image
//! Bases"* (Fudos, Palios, Pitoura — ICDE 2002): shape-based image retrieval
//! built on the average-point-distance similarity criterion `h_avg`, the
//! paper's incremental envelope-fattening matching algorithm backed by
//! simplex range search with fractional cascading, geometric hashing over
//! the lune of normalized vertices, external-storage layout policies, and a
//! topological query processor.
//!
//! One retrieval engine answers every product surface: a dynamic base's
//! [`Snapshot`](geosir_core::Snapshot) — the hash tier's seed, then every
//! stored copy scanned against its cutoff, exact on every rank. The
//! [`system`] façade, the [`cli`] shell, the §5 query engine and the TCP
//! server all query it; the paper's matcher and static shape base stay as
//! the §2.5 algorithm the figure harnesses measure and the tests check the
//! scan against.
//!
//! This umbrella crate re-exports the workspace crates:
//!
//! - [`geom`] — computational-geometry substrate (primitives, hulls,
//!   envelopes, range search, nearest-feature indexes, topology predicates);
//! - [`core`] — the paper's contribution (similarity, normalization, the
//!   matcher, geometric hashing, selectivity, baselines);
//! - [`storage`] — simulated external storage (block device, LRU buffer
//!   pool, layout policies);
//! - [`query`] — topological operators, the query language and the planner;
//! - [`imaging`] — raster front end and synthetic corpus generators;
//! - [`serve`] — the concurrent TCP retrieval server (wire protocol,
//!   snapshot-isolated live updates, backpressure; `geosir serve`).
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![forbid(unsafe_code)]

pub mod cli;
pub mod cluster_cmd;
pub mod health_cmd;
pub mod server_cmd;
pub mod system;
pub mod top_cmd;

pub use geosir_core as core;
pub use geosir_geom as geom;
pub use geosir_imaging as imaging;
pub use geosir_query as query;
pub use geosir_serve as serve;
pub use geosir_storage as storage;
