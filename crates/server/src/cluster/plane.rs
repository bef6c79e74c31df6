//! The router is the cluster's single pane of glass (see DESIGN §13):
//!
//! - **Federated metrics.** A `MetricsDump` frame (or `GET /metrics` on
//!   the router's own `metrics_addr` endpoint) pulls every backend's
//!   registry snapshot over the wire and merges them: each shard
//!   contributes once relabeled `shard="N"` (per-shard series) and once
//!   unlabeled into the cluster totals, where counters and histogram
//!   buckets sum and gauges follow their declared merge policy
//!   ([`obs::GaugePolicy`]). Router-native series (`geosir_router_*`,
//!   replication lag) ride along from the router's own registry.
//! - **Cross-shard traces.** Routed reads carry a cluster-wide trace id
//!   (client-minted, or minted here when the client sent zero) into
//!   every shard sub-request; the router records a per-shard
//!   timeline — submit failovers, hedges, router-clock gather time, and
//!   the shard's own stage timings echoed in the reply trailer —
//!   and which backend answered it, hedged or not — into the router's
//!   request ring (`/debug/last_queries`, dumped on panic), whose sink
//!   writes a routed read that crossed the threshold to the rotating
//!   slow-query JSONL as that same record.
//! - **`geosir top`** renders the federated endpoint as a live terminal
//!   dashboard (`src/top_cmd.rs` in the CLI crate).

use std::sync::Arc;
use std::time::Instant;

use geosir_obs as obs;

use super::RouterState;
use crate::wire::{Frame, StageTrailer, WireShardStatus};

/// One shard's timeline inside a routed query, on the router's clock.
#[derive(Debug, Clone, Copy)]
pub(super) struct ShardSpan {
    /// Backend that produced the accepted reply (its index in
    /// `RouterState::backend_addrs`); `None` if the shard was dropped
    /// from the result.
    pub(super) backend: Option<usize>,
    /// Request admitted → this shard's reply accepted (or given up on),
    /// µs: when the shard stopped holding the merge up.
    pub(super) gather_us: u64,
    pub(super) hedged: bool,
    /// Submit-time plus hedge-time failovers for this shard.
    pub(super) failovers: u32,
    /// The shard's own stage timings, echoed in the reply trailer.
    pub(super) server: Option<StageTrailer>,
}

/// Server-side timings of a reply frame, if the backend echoed them.
pub(super) fn reply_trailer(f: &Frame) -> Option<StageTrailer> {
    match f {
        Frame::Matches { trailer, .. } | Frame::ApproxMatches { trailer, .. } => *trailer,
        _ => None,
    }
}

/// Stage and note names are `&'static str` by design (zero allocation
/// on the hot path), so per-shard stages and notes draw from fixed
/// tables; clusters wider than the tables pool the overflow into the
/// last row.
static SHARD_STAGES: [&str; 8] =
    ["shard0", "shard1", "shard2", "shard3", "shard4", "shard5", "shard6", "shard7"];
/// One row per shard, beside the router-clock gather stage of the same
/// index: the total and queue wait its reply's trailer echoed, the
/// backend that answered (its index within the shard, 0 = primary),
/// whether the shard was hedged, and its failovers.
#[rustfmt::skip]
static SHARD_NOTES: [[&str; 5]; 8] = [
    ["shard0_srv_us", "shard0_srv_queue_us", "shard0_backend", "shard0_hedged", "shard0_failovers"],
    ["shard1_srv_us", "shard1_srv_queue_us", "shard1_backend", "shard1_hedged", "shard1_failovers"],
    ["shard2_srv_us", "shard2_srv_queue_us", "shard2_backend", "shard2_hedged", "shard2_failovers"],
    ["shard3_srv_us", "shard3_srv_queue_us", "shard3_backend", "shard3_hedged", "shard3_failovers"],
    ["shard4_srv_us", "shard4_srv_queue_us", "shard4_backend", "shard4_hedged", "shard4_failovers"],
    ["shard5_srv_us", "shard5_srv_queue_us", "shard5_backend", "shard5_hedged", "shard5_failovers"],
    ["shard6_srv_us", "shard6_srv_queue_us", "shard6_backend", "shard6_hedged", "shard6_failovers"],
    ["shard7_srv_us", "shard7_srv_queue_us", "shard7_backend", "shard7_hedged", "shard7_failovers"],
];

/// Describe one routed read once and hand the record to the router's
/// request ring — and so to its sink, the router's slow-query log. This
/// is the router-side half of cross-shard trace assembly: the
/// shard-side half lives in each server's own ring under the same
/// `trace_id`.
pub(super) fn record_routed<'a>(
    state: &RouterState,
    trace_id: u64,
    kind: obs::RequestKind,
    started: Instant,
    spans: impl Iterator<Item = &'a ShardSpan> + Clone,
    shards_ok: u16,
    epoch: u64,
) {
    let total_us = started.elapsed().as_micros() as u64;
    // Downstream queueing attribution: the worst queue wait any shard
    // reported for this query.
    let queue_us = spans.clone().filter_map(|s| s.server.map(|t| t.queue_us)).max().unwrap_or(0);

    let mut rec =
        obs::RequestRecord { trace_id, kind, total_us, queue_us, epoch, ..Default::default() };
    for (i, span) in spans.clone().enumerate() {
        rec.stage(SHARD_STAGES[i.min(SHARD_STAGES.len() - 1)], span.gather_us);
        let [srv_us, srv_queue_us, backend, hedged, failovers] =
            SHARD_NOTES[i.min(SHARD_NOTES.len() - 1)];
        if let Some(t) = span.server {
            rec.note(srv_us, t.total_us).note(srv_queue_us, t.queue_us);
        }
        if let Some(b) = span.backend {
            rec.note(backend, (b - state.base[i]) as u64);
        }
        rec.note(hedged, span.hedged as u64).note(failovers, span.failovers as u64);
    }
    rec.note("shards_ok", shards_ok as u64)
        .note("shards_total", spans.clone().count() as u64)
        .note("hedges", spans.clone().filter(|s| s.hedged).count() as u64)
        .note("failovers", spans.clone().map(|s| s.failovers as u64).sum());
    state.registry.record_request(&mut rec);
}

/// Merge every shard's `MetricsDump` reply (`replies`, in shard order;
/// `None` = the shard was dropped) with the router's own registry into
/// one cluster view. Each shard contributes twice: once relabeled
/// `shard="N"` (per-shard series) and once unlabeled (cluster totals —
/// counters and histogram buckets sum, gauges follow their declared
/// [`obs::GaugePolicy`]). A shard with no usable reply is skipped and
/// counted in `geosir_router_scrape_misses_total`, so merged totals can
/// undercount during an outage — the per-shard series make the gap
/// visible.
pub(super) fn federate<'a>(
    state: &RouterState,
    scrape_start: Instant,
    replies: impl Iterator<Item = Option<&'a Frame>>,
) -> obs::Snapshot {
    let mut out = state.registry.snapshot();
    for (shard, reply) in replies.enumerate() {
        let snap = match reply {
            Some(Frame::MetricsReport { snapshot }) => obs::Snapshot::decode(snapshot),
            _ => None,
        };
        match snap {
            Some(snap) => {
                out.merge(&snap.relabeled("shard", &shard.to_string()));
                out.merge(&snap);
            }
            None => {
                state.scrape_misses.inc();
                state.registry.journal().emit(
                    obs::JournalEvent::new(obs::Severity::Warn, "scrape.miss")
                        .with("shard", shard),
                );
            }
        }
    }
    state.scrapes.inc();
    state.scrape_us.record(scrape_start.elapsed().as_micros() as u64);
    out
}

/// What the router adds to the stock HTTP plane of `geosir-obs` (whose
/// `/debug/*` routes serve the router's own registry): the federated
/// `/metrics`, its probes, and `/debug/cluster`. Scrapes are rare next
/// to queries, so the plane's one thread is plenty; whatever needs the
/// shards ([`RouterState::gather`]) runs as a scatter inside the router
/// loop, on the same backend connections queries use, and only the
/// merging and rendering happen here.
pub(super) fn http_routes(state: &Arc<RouterState>) -> obs::expo::Routes {
    let (metrics, readyz, cluster) = (state.clone(), state.clone(), state.clone());
    obs::expo::Routes::new(state.registry.clone())
        .route("/metrics", move || {
            let start = Instant::now();
            let outcomes = metrics.gather(Frame::MetricsDump);
            let snap = federate(&metrics, start, outcomes.iter().map(|(_, f)| f.as_ref()));
            obs::expo::metrics_reply(&snap)
        })
        // The router's liveness is the plane itself: answering at all
        // proves its accept loop runs.
        .route("/healthz", || {
            (200, obs::expo::JSON, "{\"status\":\"ok\",\"role\":\"router\"}".into())
        })
        .route("/readyz", move || router_readyz(&readyz))
        .route("/debug/cluster", move || (200, obs::expo::JSON, cluster_json(&cluster)))
}

/// Cluster-wide readiness: scatter a `MetricsDump` to every shard and
/// fold each reply's health gauges into a per-shard verdict. A shard is
/// ready when some backend answered, its own watchdog published
/// `geosir_ready=1` (absent = health plane disabled = trusted), and the
/// primary's breaker is not open (reads may fail over, writes cannot).
fn router_readyz(state: &RouterState) -> obs::expo::Reply {
    const COMPONENTS: [&str; 4] = ["wal_writer", "event_loop", "queues", "slo"];
    let outcomes = state.gather(Frame::MetricsDump);
    let local = state.registry.snapshot();
    let mut all_ready = true;
    let mut out = String::with_capacity(128 + state.shards.len() * 256);
    out.push_str("\"shards\":[");
    for (shard, (source, reply)) in outcomes.iter().enumerate() {
        let got = match (source, reply) {
            (Some(addr), Some(Frame::MetricsReport { snapshot })) => {
                obs::Snapshot::decode(snapshot).map(|snap| (addr, snap))
            }
            _ => None,
        };
        let breaker = state.breakers[state.base[shard]].code();
        let lbl = shard.to_string();
        let lag_records = local.gauge("geosir_replication_lag_records", &[("shard", &lbl)]);
        let lag_ms = local.gauge("geosir_replication_lag_ms", &[("shard", &lbl)]);
        if shard > 0 {
            out.push(',');
        }
        match got {
            Some((addr, snap)) => {
                // Absent gauge = shard runs without the health plane;
                // reachability is then the only readiness signal.
                let shard_ready = match snap.get("geosir_ready", &[]) {
                    Some(obs::SnapValue::Gauge(v, _)) => *v != 0,
                    _ => true,
                };
                let ready = shard_ready && breaker != 1;
                all_ready &= ready;
                out.push_str(&format!(
                    "{{\"shard\":{shard},\"ready\":{ready},\"source\":\"{addr}\",\
                     \"read_only\":{},\"primary_breaker\":\"{}\",\
                     \"lag_records\":{lag_records},\"lag_ms\":{lag_ms},\"components\":{{",
                    snap.gauge("geosir_read_only", &[]) != 0,
                    breaker_name(breaker),
                ));
                for (i, c) in COMPONENTS.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let status = snap.gauge("geosir_health_status", &[("component", c)]);
                    out.push_str(&format!(
                        "\"{c}\":\"{}\"",
                        crate::health::status_name(status.clamp(0, 255) as u8)
                    ));
                }
                out.push_str("}}");
            }
            None => {
                all_ready = false;
                state.scrape_misses.inc();
                state.registry.journal().emit(
                    obs::JournalEvent::new(obs::Severity::Warn, "scrape.miss")
                        .with("shard", shard)
                        .with("probe", "readyz"),
                );
                out.push_str(&format!(
                    "{{\"shard\":{shard},\"ready\":false,\"source\":null,\
                     \"primary_breaker\":\"{}\",\
                     \"lag_records\":{lag_records},\"lag_ms\":{lag_ms},\
                     \"detail\":\"no backend answered MetricsDump\"}}",
                    breaker_name(breaker),
                ));
            }
        }
    }
    out.push(']');
    let body = format!("{{\"ready\":{all_ready},{out}}}");
    (if all_ready { 200 } else { 503 }, obs::expo::JSON, body)
}

fn breaker_name(code: u8) -> &'static str {
    match code {
        0 => "closed",
        1 => "open",
        2 => "half-open",
        _ => "unknown",
    }
}

/// JSON topology + health for `/debug/cluster`: the wire `Topology`
/// report (breaker states, replication lag) plus the router's own
/// address, rendered for humans and scripts that never speak the
/// binary protocol.
fn cluster_json(state: &RouterState) -> String {
    let shards = topology(state);
    let mut out = String::with_capacity(64 + shards.len() * 192);
    out.push_str(&format!("{{\"router\":\"{}\",\"shards\":[", state.addr));
    for (i, s) in shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"shard\":{},\"primary\":{{\"addr\":\"{}\",\"state\":\"{}\"}},\"replicas\":[",
            s.shard,
            s.primary,
            breaker_name(s.primary_state)
        ));
        for (j, (addr, code)) in s.replicas.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"addr\":\"{addr}\",\"state\":\"{}\"}}", breaker_name(*code)));
        }
        out.push_str(&format!(
            "],\"lag_records\":{},\"lag_ms\":{}}}",
            s.lag_records, s.lag_ms
        ));
    }
    out.push_str("]}");
    out
}

/// Build the [`Frame::TopologyReport`] payload from breaker states and
/// the replication-lag gauges the replicas publish into the shared
/// registry.
pub(super) fn topology(state: &RouterState) -> Vec<WireShardStatus> {
    let snap = state.registry.snapshot();
    state
        .shards
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let l = i.to_string();
            let lbl: &[(&str, &str)] = &[("shard", &l)];
            WireShardStatus {
                shard: i as u16,
                primary: spec.primary.to_string(),
                primary_state: state.breakers[state.base[i]].code(),
                replicas: spec
                    .replicas
                    .iter()
                    .zip(&state.breakers[state.base[i] + 1..])
                    .map(|(r, b)| (r.to_string(), b.code()))
                    .collect(),
                lag_records: snap.gauge("geosir_replication_lag_records", lbl).max(0) as u64,
                lag_ms: snap.gauge("geosir_replication_lag_ms", lbl).max(0) as u64,
            }
        })
        .collect()
}
