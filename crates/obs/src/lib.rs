//! geosir-obs: self-contained observability for the retrieval pipeline.
//!
//! Three pieces, all std-only:
//!
//! 1. **Metrics registry** ([`registry`]) — atomic counters, gauges,
//!    and log-linear histograms behind named, labeled series; lock-free
//!    record path; mergeable, wire-encodable [`Snapshot`]s.
//! 2. **Rings** ([`ring`]) — one bounded ring type, the last 256
//!    entries with at most one line sink, used twice by every registry:
//!    the request ring ([`request`]: whoever answers a request describes
//!    it once in a [`RequestRecord`] — trace id, timings, stages, work
//!    counts — and calls [`Registry::record_request`]) and the lifecycle
//!    [`journal`]. The trace ids flow client → wire → worker → writer →
//!    WAL; the request ring is dumped to disk on a crash, and its sink,
//!    when the server arms one, is the slow-query log.
//! 3. **Exposition** ([`expo`]) — Prometheus text format on
//!    `/metrics`, the request ring on `/debug/last_queries` and the
//!    journal on `/debug/journal`, served by the workspace's one HTTP
//!    server, whose route table the embedding program extends.
//!
//! A registry is a value its owner passes around: nothing here is
//! ambient. The libraries below the server record nothing; each call
//! reports its work in what it returns, and the server, which owns the
//! registry, records it through handles it resolved once.

#![forbid(unsafe_code)]

pub mod expo;
pub mod journal;
pub mod registry;
pub mod request;
pub mod ring;
pub mod slo;

pub use journal::{JournalEvent, Severity};
pub use registry::{
    bucket_index, bucket_upper_bound, merged_quantile, Counter, Gauge, GaugePolicy, Histogram,
    Registry, SnapEntry, SnapHistogram, SnapValue, Snapshot, HISTOGRAM_BUCKETS,
};
pub use request::{RequestKind, RequestRecord};
pub use ring::{Entry, Ring, RING_CAP};
pub use slo::{alerting, BurnRate, Objective, ObjectiveKind, SloEngine};
