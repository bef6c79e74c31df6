//! A node's metrics, registered on its own [`geosir_obs::Registry`].
//!
//! The libraries below the server record nothing: a query reports its
//! work in its [`RetrieveStats`] / [`ApproxStats`], the WAL, checkpoint
//! and repair calls in what they return, the base its carries
//! and compactions in [`DynamicBase::last_rebuild`]. The worker, writer,
//! checkpointer and recovery record each of those once, here, where they
//! already describe the request or the event. This table is the one
//! catalogue of a node's series (DESIGN §9.1 adds the router's). Every
//! series is also in the [`crate::wire::Frame::MetricsReport`] snapshot;
//! [`crate::wire::ServerStats`] is a fixed-layout projection of some of
//! them for the `Stats` frame.
//!
//! | name | kind | meaning |
//! |------|------|---------|
//! | `geosir_requests_total` | counter | requests admitted and answered |
//! | `geosir_queries_total` | counter | query shapes evaluated |
//! | `geosir_explains_total` | counter | `Explain` requests served |
//! | `geosir_slow_queries_total` | counter | queries landed in the slow-query log |
//! | `geosir_slow_query_log_errors_total` | counter | slow-query log append failures |
//! | `geosir_inserts_total` / `geosir_deletes_total` | counter | write frames seen (a replica: records applied) |
//! | `geosir_busy_rejects_total` | counter | requests shed with `Busy` |
//! | `geosir_protocol_errors_total` | counter | connections dropped on bad frames |
//! | `geosir_request_latency_us{type=…}` | histogram | admission → reply per request type: the `total_us` of the request's record, the number its reply trailer carries |
//! | `geosir_stage_duration_us{stage=…}` | histogram | a stage's µs as its request's record holds them: `retrieve`, `similar_approx`, `retrieve_batch` (workers), `wal`, `publish` (writer) |
//! | `geosir_snapshot_publishes_total` | counter | snapshot swaps |
//! | `geosir_snapshot_publish_us` | histogram | snapshot build + swap time |
//! | `geosir_snapshot_age_us` | gauge | age of the published snapshot |
//! | `geosir_queue_depth{queue=…}` | gauge | read / write queue depth |
//! | `geosir_worker_busy_us_total{worker=…}` | counter | per-worker time spent on jobs |
//! | `geosir_dynamic_queries_total` | counter | exact retrievals (an approximate query's exact fallback included) |
//! | `geosir_exact_queries_total{seeded=…}` | counter | those whose cutoff the seed's k-th score set, and the rest |
//! | `geosir_exact_seed_reranked_total` | counter | candidates the seeds reranked |
//! | `geosir_exact_seed_tightness_permille` | histogram | a seeded query's k-th score ÷ its seed's cutoff, ‰ |
//! | `geosir_exact_scan_copies_total` / `geosir_exact_scan_survivors_total` | counter | level copies the scans scored, and those the cutoff did not cut short |
//! | `geosir_exact_scan_bound_rejects_total` | counter | copies the seed, scans and buffer pass rejected from the raster alone |
//! | `geosir_dynamic_buffer_scored_total` | counter | buffered shapes scored brute force |
//! | `geosir_dynamic_scratch_pool_hits_total` / `…_misses_total` | counter | exact retrievals that found their worker's scratch warm / grew it |
//! | `geosir_dynamic_compactions_total` | counter | levels (or chunks) rewritten without their dead |
//! | `geosir_approx_queries_total` / `geosir_approx_exact_fallbacks_total` | counter | `QueryApprox` answered, and those the exact tier answered |
//! | `geosir_approx_bound_rejects_total` | counter | rerank candidates the raster rejected |
//! | `geosir_approx_probe_radius`, `…_candidates_per_query`, `…_reduction_ratio` | histogram | the probe's funnel per `QueryApprox` |
//! | `geosir_approx_buckets_probed` | histogram | buckets a `QueryApprox`'s probe examined: each level's table once where its plan scans, its hash lookups where it enumerates |
//! | `geosir_approx_buckets` | gauge | occupied signature buckets across level indexes |
//! | `geosir_approx_avg_bucket_size_x1000` | gauge | mean copies per occupied bucket, ×1000 |
//! | `geosir_wal_appends_total` / `geosir_wal_append_us` | counter / histogram | records the writer appended, and each append's time |
//! | `geosir_wal_syncs_total` / `geosir_wal_fsync_us` | counter / histogram | commit and shutdown fsyncs, and their time |
//! | `geosir_wal_rotations_total` / `geosir_wal_pruned_segments_total` | counter | the checkpointer's segment rotations (each fsyncs the closing segment) and removals |
//! | `geosir_wal_repairs_total` | counter | torn segments recovery truncated |
//! | `geosir_checkpoints_total` / `geosir_checkpoint_failures_total` | counter | checkpointer outcomes |
//! | `geosir_checkpoint_writes_total` / `geosir_checkpoint_write_us` / `geosir_checkpoint_last_shapes` | counter / histogram / gauge | checkpoint files written, their time, the last one's shapes |
//! | `geosir_recovery_us` | gauge | wall time of the last startup recovery |
//! | `geosir_recovery_{replayed_records,checkpoint_shapes,truncated_tail,dropped_bytes}` | gauge | what it found |
//! | `geosir_io_errors_total` | counter | persistent-path I/O errors |
//! | `geosir_poll_wakeups_total` | counter | event-loop epoll returns |
//! | `geosir_poll_events_per_wake` | histogram | readiness events delivered per wakeup |
//! | `geosir_conns_open` | gauge | connections currently registered with the event loop |
//! | `geosir_coalesced_batch` | histogram | read-queue jobs per worker pop (answered one by one; a trace's `coalesced` note is its pop's size) |
//! | `geosir_read_only`, `geosir_snapshot_epoch`, `geosir_live_shapes`, `geosir_dead_shapes`, `geosir_base_heap_bytes` | gauge | the published snapshot and the degraded-mode flag |
//! | `geosir_journal_errors_total` | counter | journal lines that missed the rotating file |
//! | `geosir_ready`, `geosir_health_status{component=…}` | gauge | `/readyz`'s verdict and the watchdogs' |
//! | `geosir_slo_burn_milli{objective=…,window=…}` | gauge | the watchdog's SLO burn rates, ×1000 |
//!
//! A series of the per-query, WAL, checkpoint and stage families is
//! registered when it is first recorded, so a node exposes the series
//! its traffic has moved — an exact-only node no `geosir_approx_*`, an
//! in-memory one no `geosir_wal_*` (a `Stats` request reads the WAL's
//! series only once they exist).

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use geosir_core::dynamic::{DynMatch, Rebuild, RetrieveStats};
use geosir_core::ApproxStats;
use geosir_obs as obs;

/// Handles into the server's registry, resolved once (at startup, or at
/// their family's first record) so the hot path is plain relaxed
/// atomics — no name lookups, no locks.
pub struct Metrics {
    /// The registry every handle lives in.
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

    exact: OnceLock<ExactSeries>,
    approx: OnceLock<ApproxSeries>,
    wal: OnceLock<WalSeries>,
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
            exact: OnceLock::new(),
            approx: OnceLock::new(),
            wal: OnceLock::new(),
            registry,
        }
    }

    /// The exact tier's series (and the compaction count).
    pub fn exact(&self) -> &ExactSeries {
        self.exact.get_or_init(|| ExactSeries::new(&self.registry))
    }

    /// The WAL's series: the writer's appends and fsyncs, the
    /// checkpointer's rotations and prunes, recovery's repairs.
    pub fn wal(&self) -> &WalSeries {
        self.wal.get_or_init(|| WalSeries::new(&self.registry))
    }

    /// The WAL's series if anything has recorded one — what a `Stats`
    /// request reads, without registering them on an in-memory node.
    pub fn wal_recorded(&self) -> Option<&WalSeries> {
        self.wal.get()
    }

    /// One `QueryApprox`: its funnel, and the exact tier's scan when that
    /// answered instead (an exact query like any other). `grew`: the
    /// query grew its worker's scratch.
    pub fn record_approx(&self, stats: &ApproxStats, hits: &[DynMatch], grew: bool) {
        let a = self.approx.get_or_init(|| ApproxSeries::new(&self.registry));
        a.queries.inc();
        a.bound_rejects.add(stats.bound_rejects);
        a.probe_radius.record(stats.radius as u64);
        a.candidates.record(stats.candidates);
        a.buckets_probed.record(stats.buckets_probed);
        if stats.candidates > 0 {
            a.reduction.record(stats.reduction() as u64);
        }
        if let Some(scan) = &stats.fallback {
            a.fallbacks.inc();
            self.exact().record(scan, hits, grew);
        }
    }

    /// A stage's µs, as its request's record holds them.
    pub fn record_stage(&self, stage: &'static str, us: u64) {
        self.registry.histogram("geosir_stage_duration_us", &[("stage", stage)]).record(us);
    }

    /// A carry or compaction the writer (or recovery's replay) ran: a
    /// journal line, and a compaction counted.
    pub fn record_rebuild(&self, rebuild: Rebuild) {
        let event = match rebuild {
            Rebuild::Carry { slot, shapes } => obs::JournalEvent::new(obs::Severity::Info, "cascade.level")
                .with("slot", slot)
                .with("shapes", shapes),
            Rebuild::Compact { slot, shapes, shed } => {
                self.exact().compactions.inc();
                obs::JournalEvent::new(obs::Severity::Info, "compact.level")
                    .with("slot", slot)
                    .with("shapes", shapes)
                    .with("shed", shed)
            }
        };
        self.registry.journal().emit(event);
    }

    /// One checkpoint file written: `shapes` of them, in `took`.
    pub fn record_checkpoint(&self, shapes: u64, took: Duration) {
        let r = &self.registry;
        r.counter("geosir_checkpoint_writes_total", &[]).inc();
        r.histogram("geosir_checkpoint_write_us", &[]).record_duration(took);
        r.gauge("geosir_checkpoint_last_shapes", &[]).set(shapes as i64);
    }

    /// Quantile over *all* request types merged — what `ServerStats`
    /// reports as overall request latency.
    pub fn latency_quantile(&self, q: f64) -> u64 {
        obs::merged_quantile(&[&self.latency_query, &self.latency_write, &self.latency_stats], q)
    }
}

/// The exact tier's per-query series — one [`RetrieveStats`] each — and
/// the base's compactions, registered together at the first of either.
/// The shell records its queries through the same handles.
pub struct ExactSeries {
    queries: Arc<obs::Counter>,
    buffer_scored: Arc<obs::Counter>,
    pool_hits: Arc<obs::Counter>,
    pool_misses: Arc<obs::Counter>,
    seeded: Arc<obs::Counter>,
    unseeded: Arc<obs::Counter>,
    seed_reranked: Arc<obs::Counter>,
    scan_copies: Arc<obs::Counter>,
    scan_survivors: Arc<obs::Counter>,
    bound_rejects: Arc<obs::Counter>,
    compactions: Arc<obs::Counter>,
    seed_tightness: Arc<obs::Histogram>,
}

impl ExactSeries {
    pub fn new(reg: &obs::Registry) -> ExactSeries {
        ExactSeries {
            queries: reg.counter("geosir_dynamic_queries_total", &[]),
            buffer_scored: reg.counter("geosir_dynamic_buffer_scored_total", &[]),
            pool_hits: reg.counter("geosir_dynamic_scratch_pool_hits_total", &[]),
            pool_misses: reg.counter("geosir_dynamic_scratch_pool_misses_total", &[]),
            seeded: reg.counter("geosir_exact_queries_total", &[("seeded", "true")]),
            unseeded: reg.counter("geosir_exact_queries_total", &[("seeded", "false")]),
            seed_reranked: reg.counter("geosir_exact_seed_reranked_total", &[]),
            scan_copies: reg.counter("geosir_exact_scan_copies_total", &[]),
            scan_survivors: reg.counter("geosir_exact_scan_survivors_total", &[]),
            bound_rejects: reg.counter("geosir_exact_scan_bound_rejects_total", &[]),
            compactions: reg.counter("geosir_dynamic_compactions_total", &[]),
            seed_tightness: reg.histogram("geosir_exact_seed_tightness_permille", &[]),
        }
    }

    /// One exact retrieval: its stats, its answer (a seeded query's holds
    /// k shapes, the last of them its k-th best), and whether it grew its
    /// scratch (a pool miss: a cold or outgrown scratch).
    pub fn record(&self, stats: &RetrieveStats, hits: &[DynMatch], grew: bool) {
        self.queries.inc();
        self.buffer_scored.add(stats.buffer_scored);
        self.seed_reranked.add(stats.seed_reranked);
        self.scan_copies.add(stats.scan_copies);
        self.scan_survivors.add(stats.scan_survivors);
        self.bound_rejects.add(stats.bound_rejects);
        match stats.seed_cutoff {
            Some(tau) => {
                self.seeded.inc();
                if let Some(kth) = hits.last() {
                    let tight = if tau > 0.0 { kth.score / tau * 1000.0 } else { 1000.0 };
                    self.seed_tightness.record(tight.round() as u64);
                }
            }
            None => self.unseeded.inc(),
        }
        if grew { &self.pool_misses } else { &self.pool_hits }.inc();
    }
}

/// The approximate tier's per-query series, registered at the first
/// `QueryApprox`.
struct ApproxSeries {
    queries: Arc<obs::Counter>,
    fallbacks: Arc<obs::Counter>,
    bound_rejects: Arc<obs::Counter>,
    probe_radius: Arc<obs::Histogram>,
    candidates: Arc<obs::Histogram>,
    buckets_probed: Arc<obs::Histogram>,
    reduction: Arc<obs::Histogram>,
}

impl ApproxSeries {
    fn new(reg: &obs::Registry) -> ApproxSeries {
        ApproxSeries {
            queries: reg.counter("geosir_approx_queries_total", &[]),
            fallbacks: reg.counter("geosir_approx_exact_fallbacks_total", &[]),
            bound_rejects: reg.counter("geosir_approx_bound_rejects_total", &[]),
            probe_radius: reg.histogram("geosir_approx_probe_radius", &[]),
            candidates: reg.histogram("geosir_approx_candidates_per_query", &[]),
            buckets_probed: reg.histogram("geosir_approx_buckets_probed", &[]),
            reduction: reg.histogram("geosir_approx_reduction_ratio", &[]),
        }
    }
}

/// The WAL's series, registered at the first WAL event.
pub struct WalSeries {
    pub appends: Arc<obs::Counter>,
    pub append_us: Arc<obs::Histogram>,
    pub syncs: Arc<obs::Counter>,
    pub fsync_us: Arc<obs::Histogram>,
    pub rotations: Arc<obs::Counter>,
    pub pruned_segments: Arc<obs::Counter>,
    pub repairs: Arc<obs::Counter>,
}

impl WalSeries {
    fn new(reg: &obs::Registry) -> WalSeries {
        WalSeries {
            appends: reg.counter("geosir_wal_appends_total", &[]),
            append_us: reg.histogram("geosir_wal_append_us", &[]),
            syncs: reg.counter("geosir_wal_syncs_total", &[]),
            fsync_us: reg.histogram("geosir_wal_fsync_us", &[]),
            rotations: reg.counter("geosir_wal_rotations_total", &[]),
            pruned_segments: reg.counter("geosir_wal_pruned_segments_total", &[]),
            repairs: reg.counter("geosir_wal_repairs_total", &[]),
        }
    }

    /// One fsync of `took`.
    pub fn synced(&self, took: Duration) {
        self.syncs.inc();
        self.fsync_us.record_duration(took);
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
