//! # geosir-serve — concurrent retrieval server
//!
//! A standalone TCP service exposing the GeoSIR dynamic shape base over
//! a length-prefixed binary protocol, built on `std::net`:
//!
//! - [`wire`] — checksummed frame codec ([`wire::Frame`]): one layout,
//!   every frame tagged with a correlation id.
//! - `engine` (private, Linux) — the epoll connection engine: one
//!   readiness loop parameterised by a frame handler. The node and the
//!   cluster router both serve from it and from nothing else; off Linux
//!   [`server::serve`] and [`cluster::Router::start`] answer
//!   `Unsupported`.
//! - [`server`] — the node: listener / worker-pool / single-writer
//!   architecture with snapshot-isolated queries and bounded-queue
//!   backpressure ([`server::serve`]), plus the durable variant
//!   ([`server::serve_durable`]): WAL-before-ack writes, background
//!   checkpoints, crash recovery, and read-only degradation on
//!   persistent I/O failure, and the replica
//!   ([`server::serve_follower`]). By role: `server.rs` (config, shared state,
//!   assembly), `server/admission.rs` (queues, `Busy` hint, the engine
//!   handler), `server/worker.rs` (read workers), `server/writer.rs`
//!   (writer, follower slot, checkpointer), `server/watchdog.rs`
//!   (health routes).
//! - [`health`] — probes, verdicts and the watchdog's configuration.
//! - `sinks` (private) — what node and router write to disk: rotating
//!   JSONL logs (slow queries, the journal) and the request-ring dump.
//! - [`durable`] — durability configuration and startup recovery
//!   ([`durable::DurabilityConfig`], [`durable::RecoveryReport`]).
//! - [`client`] — blocking request/reply client ([`client::Client`])
//!   with connect/read/write deadlines and idempotent retries.
//! - [`metrics`] — per-server handles into a [`geosir_obs::Registry`]:
//!   counters, gauges, and log-linear histograms surfaced through the
//!   `Stats` frame, the `MetricsDump` frame, and (with
//!   [`server::ServeConfig::metrics_addr`]) the HTTP plane of
//!   [`geosir_obs::expo`] — Prometheus text at `/metrics`, the
//!   request ring at `/debug/last_queries` — to which the node
//!   adds `/healthz` and `/readyz`, the router its federated view.
//! - [`cluster`] — sharded scale-out: the fault-tolerant scatter-gather
//!   [`cluster::Router`] with hedged retries, circuit breakers, and
//!   partial results. By role: `cluster.rs` (config, state, breakers,
//!   start), `cluster/route.rs` (the routing state machine),
//!   `cluster/placement.rs` (ring, id tags, merge), `cluster/plane.rs`
//!   (records, federation, readiness, topology), `cluster/boot.rs` (the
//!   in-process [`cluster::start_cluster`]).
//! - `repl` (private) — the replica's follower: the primary's newest
//!   checkpoint, then its WAL, applied as recovery applies it,
//!   publishing `geosir_replication_lag_*` gauges.
//!
//! See `DESIGN.md` §6 (file map), §7 (serving), §8 (durability &
//! recovery), §9 (observability), and §12 (cluster).

pub mod client;
pub mod cluster;
#[cfg(target_os = "linux")]
mod conn;
pub mod durable;
#[cfg(target_os = "linux")]
mod engine;
pub mod health;
pub mod metrics;
#[cfg(target_os = "linux")]
mod poll;
mod repl;
pub mod server;
mod sinks;
pub mod wire;

pub use client::{
    ApproxReply, Backoff, BatchReply, Client, ExplainReply, PipelinedClient, QueryReply,
};
pub use cluster::{
    merge_topk, start_cluster, tag_id, untag_id, Cluster, ClusterConfig, Router, RouterConfig,
    RouterHandle, ShardSpec,
};
pub use durable::{BaseTemplate, DurabilityConfig, RecoveryReport};
#[cfg(target_os = "linux")]
pub use engine::MAX_IN_FLIGHT;
pub use geosir_obs as obs;
pub use health::{HealthConfig, Verdict};
pub use server::{serve, serve_durable, serve_follower, ServeConfig, ServerHandle};
pub use wire::{
    Frame, ServerStats, ShardInfo, WireError, WireMatch, WireShape, WireShardStatus,
    PROTOCOL_VERSION,
};
