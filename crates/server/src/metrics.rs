//! Server metrics, registered on a per-server [`geosir_obs::Registry`].
//!
//! Earlier versions kept a private power-of-two histogram here; it has
//! been folded into the shared `geosir-obs` registry, whose log-linear
//! buckets (four sub-buckets per octave) resolve sub-millisecond
//! latencies instead of collapsing 600 µs and 1 ms into one bucket.
//! Every series below is also visible on the `--metrics-addr`
//! Prometheus endpoint and in the [`crate::wire::Frame::MetricsReport`]
//! snapshot; [`crate::wire::ServerStats`] is now just a fixed-layout
//! projection of the registry for the `Stats` frame.
//!
//! Series registered here:
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `geosir_requests_total` | counter | requests admitted and answered |
//! | `geosir_queries_total` | counter | query shapes evaluated |
//! | `geosir_explains_total` | counter | `Explain` requests served |
//! | `geosir_slow_queries_total` | counter | queries landed in the slow-query log |
//! | `geosir_slow_query_log_errors_total` | counter | slow-query log append failures |
//! | `geosir_inserts_total` / `geosir_deletes_total` | counter | write frames seen |
//! | `geosir_busy_rejects_total` | counter | requests shed with `Busy` |
//! | `geosir_protocol_errors_total` | counter | connections dropped on bad frames |
//! | `geosir_request_latency_us{type=…}` | histogram | admission → reply per request type: the `total_us` of the request's record, the number its reply trailer carries |
//! | `geosir_snapshot_publishes_total` | counter | snapshot swaps |
//! | `geosir_snapshot_publish_us` | histogram | snapshot build + swap time |
//! | `geosir_snapshot_age_us` | gauge | age of the published snapshot |
//! | `geosir_queue_depth{queue=…}` | gauge | read / write queue depth |
//! | `geosir_worker_busy_us_total{worker=…}` | counter | per-worker time spent on jobs |
//! | `geosir_wal_appended_records` / `geosir_wal_synced_batches` | gauge | WAL absolute positions |
//! | `geosir_fsync_wait_us` | histogram | writer-observed commit fsync latency |
//! | `geosir_checkpoints_total` / `geosir_checkpoint_failures_total` | counter | checkpointer outcomes |
//! | `geosir_recovery_us` | gauge | wall time of the last startup recovery |
//! | `geosir_io_errors_total` | counter | persistent-path I/O errors |
//! | `geosir_poll_wakeups_total` | counter | event-loop epoll returns |
//! | `geosir_poll_events_per_wake` | histogram | readiness events delivered per wakeup |
//! | `geosir_conns_open` | gauge | connections currently registered with the event loop |
//! | `geosir_coalesced_batch` | histogram | read-queue jobs per worker pop (answered one by one; a trace's `coalesced` note is its pop's size) |
//! | `geosir_approx_buckets` | gauge | occupied signature buckets across level indexes |
//! | `geosir_approx_avg_bucket_size_x1000` | gauge | mean copies per occupied bucket, ×1000 |
//!
//! The per-query approximate-tier series (`geosir_approx_queries_total`,
//! probe radius / candidate histograms, …) are recorded inside
//! `geosir-core` through the worker threads' registry binding and need
//! no handles here.

use std::sync::Arc;

use geosir_obs as obs;

/// Handles into the server's registry, resolved once at startup so the
/// hot path is plain relaxed atomics — no name lookups, no locks.
pub struct Metrics {
    /// The registry every handle lives in; server threads install it as
    /// their thread registry so core/storage instrumentation lands here.
    pub registry: Arc<obs::Registry>,

    pub requests: Arc<obs::Counter>,
    pub queries: Arc<obs::Counter>,
    pub explains: Arc<obs::Counter>,
    pub slow_queries: Arc<obs::Counter>,
    pub slow_log_errors: Arc<obs::Counter>,
    pub inserts: Arc<obs::Counter>,
    pub deletes: Arc<obs::Counter>,
    pub busy_rejects: Arc<obs::Counter>,
    pub protocol_errors: Arc<obs::Counter>,
    pub io_errors: Arc<obs::Counter>,

    /// Admission → reply by request type (`stats`: every admin read).
    pub latency_query: Arc<obs::Histogram>,
    pub latency_write: Arc<obs::Histogram>,
    pub latency_stats: Arc<obs::Histogram>,

    pub snapshots_published: Arc<obs::Counter>,
    pub publish: Arc<obs::Histogram>,
    pub snapshot_age_us: Arc<obs::Gauge>,

    pub read_queue_depth: Arc<obs::Gauge>,
    pub write_queue_depth: Arc<obs::Gauge>,

    pub wal_appends: Arc<obs::Gauge>,
    pub wal_syncs: Arc<obs::Gauge>,
    pub fsync: Arc<obs::Histogram>,
    pub checkpoints: Arc<obs::Counter>,
    pub checkpoint_failures: Arc<obs::Counter>,
    pub last_recovery_us: Arc<obs::Gauge>,

    pub read_only: Arc<obs::Gauge>,
    pub epoch: Arc<obs::Gauge>,
    pub live_shapes: Arc<obs::Gauge>,
    /// Tombstoned shapes the published snapshot's levels still hold.
    pub dead_shapes: Arc<obs::Gauge>,
    /// What the published snapshot's levels and buffer hold on the heap
    /// (`Snapshot::heap_bytes`).
    pub base_heap_bytes: Arc<obs::Gauge>,

    pub poll_wakeups: Arc<obs::Counter>,
    pub poll_events: Arc<obs::Histogram>,
    pub conns_open: Arc<obs::Gauge>,
    pub coalesced_batch: Arc<obs::Histogram>,

    /// Signature-index shape of the published snapshot: occupied buckets
    /// and (gauges are integral) mean bucket size ×1000.
    pub approx_buckets: Arc<obs::Gauge>,
    pub approx_avg_bucket_size_x1000: Arc<obs::Gauge>,

    /// Journal lines that failed to reach the rotating file (counted
    /// and dropped — the journal never blocks or panics on a dead disk).
    pub journal_errors: Arc<obs::Counter>,
    /// 1 when `/readyz` would answer 200, 0 otherwise. Min policy: a
    /// merged cluster snapshot is ready only if every shard is.
    pub ready: Arc<obs::Gauge>,
    /// Per-watchdog verdicts, 0 = ok / 1 = degraded / 2 = unhealthy
    /// (`component` ∈ wal_writer, event_loop, queues, slo). Max policy:
    /// the merged value is the worst shard's.
    pub health_wal: Arc<obs::Gauge>,
    pub health_loop: Arc<obs::Gauge>,
    pub health_queues: Arc<obs::Gauge>,
    pub health_slo: Arc<obs::Gauge>,
}

impl Metrics {
    pub fn new(registry: Arc<obs::Registry>) -> Metrics {
        let r = &registry;
        Metrics {
            requests: r.counter("geosir_requests_total", &[]),
            queries: r.counter("geosir_queries_total", &[]),
            explains: r.counter("geosir_explains_total", &[]),
            slow_queries: r.counter("geosir_slow_queries_total", &[]),
            slow_log_errors: r.counter("geosir_slow_query_log_errors_total", &[]),
            inserts: r.counter("geosir_inserts_total", &[]),
            deletes: r.counter("geosir_deletes_total", &[]),
            busy_rejects: r.counter("geosir_busy_rejects_total", &[]),
            protocol_errors: r.counter("geosir_protocol_errors_total", &[]),
            io_errors: r.counter("geosir_io_errors_total", &[]),
            latency_query: r.histogram("geosir_request_latency_us", &[("type", "query")]),
            latency_write: r.histogram("geosir_request_latency_us", &[("type", "write")]),
            latency_stats: r.histogram("geosir_request_latency_us", &[("type", "stats")]),
            snapshots_published: r.counter("geosir_snapshot_publishes_total", &[]),
            publish: r.histogram("geosir_snapshot_publish_us", &[]),
            // Ages, epochs, recovery times, and the read-only flag are
            // worst-of readings: summing them across merged shard
            // snapshots would report a staleness no shard ever saw.
            snapshot_age_us: r.gauge_with_policy(
                "geosir_snapshot_age_us",
                &[],
                obs::GaugePolicy::Max,
            ),
            read_queue_depth: r.gauge("geosir_queue_depth", &[("queue", "read")]),
            write_queue_depth: r.gauge("geosir_queue_depth", &[("queue", "write")]),
            wal_appends: r.gauge("geosir_wal_appended_records", &[]),
            wal_syncs: r.gauge("geosir_wal_synced_batches", &[]),
            fsync: r.histogram("geosir_fsync_wait_us", &[]),
            checkpoints: r.counter("geosir_checkpoints_total", &[]),
            checkpoint_failures: r.counter("geosir_checkpoint_failures_total", &[]),
            last_recovery_us: r.gauge_with_policy(
                "geosir_recovery_us",
                &[],
                obs::GaugePolicy::Max,
            ),
            read_only: r.gauge_with_policy("geosir_read_only", &[], obs::GaugePolicy::Max),
            epoch: r.gauge_with_policy("geosir_snapshot_epoch", &[], obs::GaugePolicy::Max),
            live_shapes: r.gauge("geosir_live_shapes", &[]),
            dead_shapes: r.gauge("geosir_dead_shapes", &[]),
            base_heap_bytes: r.gauge("geosir_base_heap_bytes", &[]),
            poll_wakeups: r.counter("geosir_poll_wakeups_total", &[]),
            poll_events: r.histogram("geosir_poll_events_per_wake", &[]),
            conns_open: r.gauge("geosir_conns_open", &[]),
            coalesced_batch: r.histogram("geosir_coalesced_batch", &[]),
            approx_buckets: r.gauge("geosir_approx_buckets", &[]),
            // A mean, not a total: max is the honest cross-shard fold.
            approx_avg_bucket_size_x1000: r.gauge_with_policy(
                "geosir_approx_avg_bucket_size_x1000",
                &[],
                obs::GaugePolicy::Max,
            ),
            journal_errors: r.counter("geosir_journal_errors_total", &[]),
            ready: r.gauge_with_policy("geosir_ready", &[], obs::GaugePolicy::Min),
            health_wal: r.gauge_with_policy(
                "geosir_health_status",
                &[("component", "wal_writer")],
                obs::GaugePolicy::Max,
            ),
            health_loop: r.gauge_with_policy(
                "geosir_health_status",
                &[("component", "event_loop")],
                obs::GaugePolicy::Max,
            ),
            health_queues: r.gauge_with_policy(
                "geosir_health_status",
                &[("component", "queues")],
                obs::GaugePolicy::Max,
            ),
            health_slo: r.gauge_with_policy(
                "geosir_health_status",
                &[("component", "slo")],
                obs::GaugePolicy::Max,
            ),
            registry,
        }
    }

    /// Quantile over *all* request types merged — what `ServerStats`
    /// reports as overall request latency.
    pub fn latency_quantile(&self, q: f64) -> u64 {
        obs::merged_quantile(&[&self.latency_query, &self.latency_write, &self.latency_stats], q)
    }
}

impl Default for Metrics {
    /// A metrics set on a fresh private registry (each server gets its
    /// own, so several servers in one test process stay isolated).
    fn default() -> Metrics {
        Metrics::new(Arc::new(obs::Registry::new()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_series_split_by_type_and_merge_for_overall_quantile() {
        let m = Metrics::default();
        for _ in 0..99 {
            m.latency_query.record(100);
        }
        m.latency_write.record(8_000);
        assert!(m.latency_query.quantile(0.99) < 150);
        // the single slow write dominates the merged tail
        assert!(m.latency_quantile(0.999) >= 8_000);
        // and the registry sees both labeled series
        let snap = m.registry.snapshot();
        assert_eq!(
            snap.histogram("geosir_request_latency_us", &[("type", "query")]).unwrap().count(),
            99
        );
        assert_eq!(
            snap.histogram("geosir_request_latency_us", &[("type", "write")]).unwrap().count(),
            1
        );
    }

    #[test]
    fn sub_millisecond_percentiles_stay_distinct() {
        // the old power-of-two buckets collapsed 600 µs and 1 ms into
        // neighbouring octaves; the log-linear registry buckets must
        // keep p50 and p99 clearly apart
        let m = Metrics::default();
        for _ in 0..90 {
            m.latency_query.record(310);
        }
        for _ in 0..10 {
            m.latency_query.record(950);
        }
        let p50 = m.latency_quantile(0.5);
        let p99 = m.latency_quantile(0.99);
        assert!(p50 < p99, "p50 {p50} must stay below p99 {p99}");
        assert!((250..=400).contains(&p50), "p50 {p50} out of bucket range");
        assert!((800..=1200).contains(&p99), "p99 {p99} out of bucket range");
    }

    #[test]
    fn default_metrics_use_private_registries() {
        let a = Metrics::default();
        let b = Metrics::default();
        a.requests.inc();
        assert_eq!(a.registry.snapshot().counter("geosir_requests_total", &[]), 1);
        assert_eq!(b.registry.snapshot().counter("geosir_requests_total", &[]), 0);
    }
}
