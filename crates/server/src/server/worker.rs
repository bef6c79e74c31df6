//! **One body per read, one record per request.** A worker pops up to
//! [`super::ServeConfig::coalesce_max`] queued jobs at once, pins one snapshot
//! for the pop and answers the jobs one by one, each reply leaving the
//! moment it is ready (`run_read_job`). Whoever finishes a request —
//! worker or writer — describes it once in an [`obs::RequestRecord`]:
//! `Registry::record_request` copies it into the request ring (and
//! hands it to the ring's sink, if the node armed one), and the reply's
//! stage trailer and the `geosir_request_latency_us`
//! sample are read off the same record, so what a reply says it took is
//! what its client waited. The stats and the stage
//! time the record is filled from are what the node's per-query series
//! and stage histograms record (`metrics.rs`).

use std::sync::Arc;
use std::time::Instant;

use geosir_core::dynamic::{DynMatch, QueryExplain, RetrieveStats, Snapshot};
use geosir_core::matcher::MatchOutcome;
use geosir_core::scratch::MatcherScratch;
use geosir_core::{ApproxOptions, ApproxScratch, ApproxStats};
use geosir_obs as obs;

use super::{bad_shape, Job, Shared};
use crate::wire::{error_code, Frame, StageTrailer, WireMatch};

/// A worker's long-lived scratch set: after warm-up, answering and
/// describing a read touches the heap only for the reply frame.
#[derive(Default)]
struct ReadScratch {
    matcher: MatcherScratch,
    tmp: MatchOutcome,
    ax: ApproxScratch,
    astats: ApproxStats,
    hits: Vec<DynMatch>,
    rstats: RetrieveStats,
    qx: QueryExplain,
    rec: obs::RequestRecord,
}

pub(super) fn worker_loop(worker: usize, shared: &Arc<Shared>) {
    let worker_label = worker.to_string();
    let busy_us = shared
        .metrics
        .registry
        .counter("geosir_worker_busy_us_total", &[("worker", worker_label.as_str())]);
    let mut ws = ReadScratch::default();
    let mut jobs: Vec<Job> = Vec::new();
    while shared.read_queue.pop_batch(shared.cfg.coalesce_max, &mut jobs) {
        let coalesced = jobs.len() as u64;
        shared.metrics.coalesced_batch.record(coalesced);
        // Everything one pop took runs against one snapshot pin, job by
        // job, each answered the moment it is done. The pin postdates
        // every job's admission, so read-your-writes holds for all.
        let snap = shared.current_snapshot();
        for job in jobs.drain(..) {
            let started = Instant::now();
            run_read_job(shared, &snap, &job, coalesced, &mut ws);
            busy_us.add(started.elapsed().as_micros() as u64);
        }
    }
}

/// The one body of a read: answer `job` against `snap`, describe the
/// finished request once in `ws.rec`, hand that record to the request
/// ring, read the reply's own timing fields off it, record the latency,
/// and send the reply.
fn run_read_job(shared: &Shared, snap: &Snapshot, job: &Job, coalesced: u64, ws: &mut ReadScratch) {
    let queue_us = job.enqueued.elapsed().as_micros() as u64;
    let ReadScratch { matcher, tmp, ax, astats, hits, rstats, qx, rec } = ws;
    let m = &shared.metrics;
    // `described`: the arm answered a query and began its record.
    let (described, mut reply) = match &job.frame {
        Frame::Query { k, shape, .. } | Frame::Explain { k, shape, .. } => {
            match shape.to_polyline() {
                Some(query) => {
                    let explain = matches!(job.frame, Frame::Explain { .. });
                    if explain { &m.explains } else { &m.queries }.inc();
                    let (started, grows) = (Instant::now(), matcher.grow_events());
                    // only an Explain frame captures its plan
                    let k = *k as usize;
                    if explain {
                        snap.explain_with_stats(matcher, tmp, &query, k, hits, rstats, qx);
                    } else {
                        snap.retrieve_with_stats(matcher, tmp, &query, k, hits, rstats);
                    }
                    let retrieve_us = started.elapsed().as_micros() as u64;
                    m.exact().record(rstats, hits, matcher.grow_events() != grows);
                    m.record_stage("retrieve", retrieve_us);
                    let kind =
                        if explain { obs::RequestKind::Explain } else { obs::RequestKind::Query };
                    rec.begin(kind, job.trace())
                        .stage("queue_wait", queue_us)
                        .stage("retrieve", retrieve_us)
                        .note("levels", rstats.levels)
                        .note("scan_copies", rstats.scan_copies)
                        .note("scan_survivors", rstats.scan_survivors)
                        .note("buffer_scored", rstats.buffer_scored)
                        .note("seed_reranked", rstats.seed_reranked)
                        .note("bound_rejects", rstats.bound_rejects)
                        .note("seeded", rstats.seed_cutoff.is_some() as u64)
                        .note("coalesced", coalesced)
                        .note("hits", hits.len() as u64);
                    let (epoch, matches) = (snap.epoch(), to_wire(hits));
                    // a reply's trace id and timings are read off the record, below
                    let reply = if explain {
                        let (trace, total_us, report) = (0, 0, qx.clone());
                        Frame::ExplainReport { epoch, trace, total_us, queue_us: 0, matches, report }
                    } else {
                        Frame::Matches { epoch, shards: Default::default(), trailer: None, matches }
                    };
                    (true, reply)
                }
                None => (false, bad_shape()),
            }
        }
        Frame::QueryApprox { k, max_radius, max_candidates, shape, .. } => {
            match shape.to_polyline() {
                Some(query) => {
                    m.queries.inc();
                    let mut opts = ApproxOptions { k: *k as usize, ..ApproxOptions::default() };
                    if *max_radius != 0 {
                        opts.max_radius = *max_radius;
                    }
                    if *max_candidates != 0 {
                        opts.max_candidates = *max_candidates as usize;
                    }
                    let (started, grows) = (Instant::now(), matcher.grow_events());
                    snap.similar_approx_with(matcher, tmp, ax, &query, &opts, hits, astats);
                    let probe_us = started.elapsed().as_micros() as u64;
                    m.record_approx(astats, hits, matcher.grow_events() != grows);
                    m.record_stage("similar_approx", probe_us);
                    rec.begin(obs::RequestKind::QueryApprox, job.trace())
                        .stage("queue_wait", queue_us)
                        .stage("probe_rerank", probe_us)
                        .note("tier", astats.tier.code() as u64)
                        .note("radius", astats.radius as u64)
                        .note("buckets_probed", astats.buckets_probed)
                        .note("candidates", astats.candidates)
                        .note("reranked", astats.reranked)
                        .note("reduction_x100", (astats.reduction() * 100.0) as u64)
                        .note("hits", hits.len() as u64);
                    let reply = Frame::ApproxMatches {
                        epoch: snap.epoch(),
                        tier: astats.tier.code(),
                        radius: astats.radius,
                        buckets_probed: astats.buckets_probed,
                        candidates: astats.candidates,
                        corpus_copies: astats.corpus_copies,
                        reranked: astats.reranked,
                        shards: Default::default(),
                        trailer: None,
                        matches: to_wire(hits),
                    };
                    (true, reply)
                }
                None => (false, bad_shape()),
            }
        }
        Frame::QueryBatch { k, shapes } => {
            let started = Instant::now();
            let mut results = Vec::with_capacity(shapes.len());
            for shape in shapes {
                match shape.to_polyline() {
                    Some(query) => {
                        m.queries.inc();
                        let grows = matcher.grow_events();
                        snap.retrieve_with_stats(matcher, tmp, &query, *k as usize, hits, rstats);
                        m.exact().record(rstats, hits, matcher.grow_events() != grows);
                        results.push(to_wire(hits));
                    }
                    None => results.push(Vec::new()),
                }
            }
            let batch_us = started.elapsed().as_micros() as u64;
            m.record_stage("retrieve_batch", batch_us);
            rec.begin(obs::RequestKind::Batch, 0)
                .stage("queue_wait", queue_us)
                .stage("retrieve", batch_us)
                .note("queries", shapes.len() as u64);
            (true, Frame::BatchMatches { epoch: snap.epoch(), results })
        }
        Frame::Stats => (false, Frame::StatsReport(shared.stats())),
        Frame::MetricsDump => {
            shared.refresh_gauges();
            let mut bytes = Vec::with_capacity(4096);
            m.registry.snapshot().encode(&mut bytes);
            (false, Frame::MetricsReport { snapshot: bytes })
        }
        // A single-node server is a trivial one-shard cluster: itself
        // as primary, healthy, no replicas, no lag.
        Frame::Topology => {
            let me = crate::wire::WireShardStatus {
                shard: 0,
                primary: shared.addr.to_string(),
                primary_state: 0,
                replicas: Vec::new(),
                lag_records: 0,
                lag_ms: 0,
            };
            (false, Frame::TopologyReport { shards: vec![me] })
        }
        _ => {
            let message = "write frame on read queue".into();
            (false, Frame::Error { code: error_code::UNEXPECTED_FRAME, message })
        }
    };
    // One stopwatch reading is what the client waited, for every view.
    let total_us = job.enqueued.elapsed().as_micros() as u64;
    if described {
        (rec.total_us, rec.queue_us, rec.epoch) = (total_us, queue_us, snap.epoch());
        let trace_id = m.registry.record_request(rec);
        match &mut reply {
            Frame::Matches { trailer, .. } | Frame::ApproxMatches { trailer, .. } => {
                *trailer = Some(StageTrailer { total_us, queue_us });
            }
            Frame::ExplainReport { trace, total_us: total, queue_us: queue, .. } => {
                (*trace, *total, *queue) = (trace_id, total_us, queue_us);
            }
            _ => {}
        }
    }
    let admin = matches!(job.frame, Frame::Stats | Frame::MetricsDump | Frame::Topology);
    if admin { &m.latency_stats } else { &m.latency_query }.record(total_us);
    m.requests.inc();
    job.reply.send(reply);
}

fn to_wire(hits: &[geosir_core::dynamic::DynMatch]) -> Vec<WireMatch> {
    hits.iter().map(|m| WireMatch { shape: m.shape.0, image: m.image.0, score: m.score }).collect()
}
