//! End-to-end observability over a live durable server: under a mixed
//! read/write load the `/metrics` endpoint serves non-zero per-stage
//! series (exact-tier work, request latency, WAL fsync, queue gauges), a
//! query's client-minted trace id shows up in `/debug/last_queries`
//! with non-zero stage durations, and the same registry arrives intact
//! over the wire through `MetricsDump`.

mod common;

use common::{http_get, polygon, series_value, template, tmpdir, tri};

use geosir_core::dynamic::{GlobalShapeId, RetrieveStats, Snapshot};
use geosir_core::matcher::MatchOutcome;
use geosir_core::scratch::MatcherScratch;
use geosir_core::{AnswerTier, ApproxOptions, ApproxScratch, ApproxStats, ImageId};
use geosir_geom::{Point, Polyline};
use geosir_serve::{serve, serve_durable, Client, DurabilityConfig, ServeConfig};
use rand::prelude::*;
use rand::rngs::StdRng;

#[test]
fn live_metrics_and_trace_ids_under_mixed_load() {
    let dir = tmpdir("mixed");
    let cfg = ServeConfig {
        workers: 2,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..Default::default()
    };
    let (handle, _) =
        serve_durable("127.0.0.1:0", &template(), DurabilityConfig::new(&dir), cfg).unwrap();
    let maddr = handle.metrics_addr().expect("metrics endpoint must be bound");

    // --- mixed load: writes interleaved with queries ---
    let mut c = Client::connect(handle.addr()).unwrap();
    for i in 0..16u64 {
        c.insert_retrying(i as u32, &tri(i)).unwrap();
    }
    let mut last_trace = 0u64;
    for i in 0..12u64 {
        let reply = c.query(&tri(i), 2).unwrap();
        assert!(!reply.rejected);
        assert!(!reply.matches.is_empty(), "query {i} found nothing");
        assert_ne!(reply.trace, 0, "client must mint a trace id");
        last_trace = reply.trace;
    }
    // A sketch with no near match among the triangles: its seed's rings
    // stop short of some copies, which the level scan then has to score
    // itself (the triangle queries above are settled by the seed alone).
    let quad = Polyline::closed(vec![
        Point::new(0.0, 0.0),
        Point::new(3.0, 0.2),
        Point::new(2.6, 2.0),
        Point::new(1.0, 2.4),
    ])
    .unwrap();
    let reply = c.query(&quad, 8).unwrap();
    assert!(!reply.rejected);
    assert_eq!(reply.matches.len(), 8);

    // --- /metrics: core series exist and moved ---
    let (status, body) = http_get(maddr, "/metrics");
    assert_eq!(status, 200, "{body}");
    for (series, at_least) in [
        ("geosir_requests_total", 29.0),
        ("geosir_queries_total", 13.0),
        ("geosir_inserts_total", 16.0),
        ("geosir_snapshot_publishes_total", 1.0),
        // an exact query's `h_avg` scorings happen in its seed step or in
        // the level scans (a copy the seed settled is not scored again):
        // both counters must move under this load
        ("geosir_exact_seed_reranked_total", 12.0),
        ("geosir_exact_scan_copies_total", 1.0),
        ("geosir_wal_appends_total", 16.0),
        ("geosir_wal_fsync_us_count", 1.0),
        ("geosir_live_shapes", 16.0),
        ("geosir_request_latency_us_count{type=\"query\"}", 12.0),
        ("geosir_request_latency_us_count{type=\"write\"}", 16.0),
        ("geosir_stage_duration_us_count{stage=\"retrieve\"}", 12.0),
        ("geosir_stage_duration_us_count{stage=\"wal\"}", 1.0),
        ("geosir_stage_duration_us_count{stage=\"publish\"}", 1.0),
    ] {
        let v = series_value(&body, series)
            .unwrap_or_else(|| panic!("series `{series}` missing from /metrics:\n{body}"));
        assert!(v >= at_least, "series `{series}` = {v}, want >= {at_least}");
    }
    // no served query runs the paper's matcher, and nothing exposes a
    // series for it that could only read 0
    assert!(!body.contains("geosir_matcher_"), "{body}");
    // gauges must at least be exported (0 is fine for a drained queue)
    assert!(body.contains("geosir_queue_depth{queue=\"read\"}"), "{body}");
    assert!(body.contains("geosir_queue_depth{queue=\"write\"}"), "{body}");

    // --- /debug/last_queries: the trace id we just got back, with
    // non-zero stage durations ---
    let (status, json) = http_get(maddr, "/debug/last_queries");
    assert_eq!(status, 200, "{json}");
    let needle = format!("\"trace_id\":{last_trace}");
    let at = json.find(&needle).unwrap_or_else(|| {
        panic!("trace id {last_trace} not in /debug/last_queries:\n{json}")
    });
    let event = &json[at..json[at..].find("}}").map(|e| at + e + 2).unwrap_or(json.len())];
    assert!(event.contains("\"kind\":\"query\""), "{event}");
    let retrieve_us: u64 = event
        .split("\"retrieve\":")
        .nth(1)
        .and_then(|s| s.split(&[',', '}'][..]).next())
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no retrieve stage in trace event: {event}"));
    assert!(retrieve_us > 0, "retrieve stage duration must be non-zero: {event}");
    // writes are traced too (server-assigned ids), through the WAL stage
    assert!(json.contains("\"kind\":\"insert\""), "{json}");
    assert!(json.contains("\"wal\":"), "{json}");

    // --- the same registry over the wire: MetricsDump ---
    let snap = c.metrics().expect("metrics dump");
    assert!(snap.counter("geosir_requests_total", &[]) >= 28);
    assert!(snap.counter("geosir_exact_queries_total", &[("seeded", "true")]) >= 12);
    let lat = snap
        .histogram("geosir_request_latency_us", &[("type", "query")])
        .expect("latency histogram over the wire");
    assert!(lat.count() >= 12);
    assert!(lat.quantile(0.99) > 0);

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Two servers in one process must not cross-talk: each registry only
/// sees its own requests.
#[test]
fn per_server_registries_stay_isolated() {
    let dir_a = tmpdir("iso-a");
    let dir_b = tmpdir("iso-b");
    let cfg = ServeConfig { workers: 1, ..Default::default() };
    let (a, _) =
        serve_durable("127.0.0.1:0", &template(), DurabilityConfig::new(&dir_a), cfg.clone())
            .unwrap();
    let (b, _) =
        serve_durable("127.0.0.1:0", &template(), DurabilityConfig::new(&dir_b), cfg).unwrap();

    let mut ca = Client::connect(a.addr()).unwrap();
    for i in 0..5u64 {
        ca.insert_retrying(i as u32, &tri(i)).unwrap();
    }
    let mut cb = Client::connect(b.addr()).unwrap();
    cb.insert_retrying(0, &tri(0)).unwrap();

    let snap_a = ca.metrics().unwrap();
    let snap_b = cb.metrics().unwrap();
    assert_eq!(snap_a.counter("geosir_inserts_total", &[]), 5);
    assert_eq!(snap_b.counter("geosir_inserts_total", &[]), 1);
    assert_eq!(snap_a.gauge("geosir_live_shapes", &[]), 5);
    assert_eq!(snap_b.gauge("geosir_live_shapes", &[]), 1);

    a.shutdown();
    a.join();
    b.shutdown();
    b.join();
    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
}

/// `/metrics` and the request ring agree: on a node run through a fixed
/// mix — a `QueryApprox` on the empty node, which the exact tier
/// answers, then inserts, `Query`, `QueryBatch`, `Explain` and
/// `QueryApprox` — each per-query series is the sum of its field over
/// what the queries reported. An in-process replica of the node's base,
/// fed the same inserts, says what each query reported; the ring's notes
/// and the explain reports say it too.
#[test]
fn metrics_agree_with_the_request_ring() {
    let tpl = template();
    let cfg = ServeConfig {
        workers: 1,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..Default::default()
    };
    let handle = serve("127.0.0.1:0", tpl.empty_base(), cfg).unwrap();
    let maddr = handle.metrics_addr().unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    let mut replica = tpl.empty_base();
    let mut rng = StdRng::seed_from_u64(43);
    let (mut scratch, mut tmp, mut ax) =
        (MatcherScratch::new(), MatchOutcome::default(), ApproxScratch::new());
    let mut hits = Vec::new();
    // what the replica's queries reported, by the series they feed
    let (mut exact, mut approx) = (Vec::<RetrieveStats>::new(), Vec::<ApproxStats>::new());
    let mut run_approx = |snap: &Snapshot, q: &Polyline, approx: &mut Vec<ApproxStats>| {
        let mut stats = ApproxStats::default();
        let opts = ApproxOptions { k: 3, ..ApproxOptions::default() };
        snap.similar_approx_with(&mut scratch, &mut tmp, &mut ax, q, &opts, &mut hits, &mut stats);
        approx.push(stats);
    };

    let q0 = polygon(&mut rng);
    let reply = c.similar_approx(&q0, 3, 0, 0).unwrap();
    assert_eq!(reply.tier, AnswerTier::Exact);
    run_approx(&replica.snapshot(), &q0, &mut approx);

    // 44 shapes over a buffer of 8: levels and 4 buffered shapes
    for i in 0..44u32 {
        let shape = if i % 2 == 0 { polygon(&mut rng) } else { tri(i as u64) };
        let (_, id) = c.insert_retrying(i, &shape).unwrap();
        assert!(replica.insert_with_id(GlobalShapeId(id), ImageId(i), shape));
    }
    let snap = replica.snapshot();
    let queries: Vec<Polyline> = (0..8).map(|_| polygon(&mut rng)).collect();
    let retrieve = |q: &Polyline, k: usize| {
        let (mut scratch, mut out) = (MatcherScratch::new(), Vec::new());
        let mut stats = RetrieveStats::default();
        snap.retrieve_with_stats(&mut scratch, &mut MatchOutcome::default(), q, k, &mut out, &mut stats);
        stats
    };
    let mut ringed = Vec::new();
    for q in &queries[..3] {
        assert!(!c.query(q, 3).unwrap().rejected);
        ringed.push(retrieve(q, 3));
    }
    let batch = c.query_batch(&queries[3..6], 2).unwrap();
    assert_eq!(batch.results.len(), 3);
    exact.extend(queries[3..6].iter().map(|q| retrieve(q, 2)));
    for q in &queries[6..] {
        let reply = c.explain(q, 4).unwrap();
        let stats = retrieve(q, 4);
        let remote = reply.report.stats;
        assert_eq!((remote.levels, remote.scan_copies, remote.buffer_scored), (stats.levels, stats.scan_copies, stats.buffer_scored));
        ringed.push(stats);
    }
    for q in &queries[..3] {
        assert_eq!(c.similar_approx(q, 3, 0, 0).unwrap().tier, AnswerTier::Approx);
        run_approx(&snap, q, &mut approx);
    }
    exact.extend(&ringed);
    exact.extend(approx.iter().filter_map(|a| a.fallback));
    assert_eq!((exact.len(), approx.len()), (9, 4), "the fallback counts once as an exact query");

    // the ring's notes: one per Query / Explain, one per QueryApprox
    let (_, ring) = http_get(maddr, "/debug/last_queries");
    let noted = |name: &str| -> u64 {
        let key = format!("\"{name}\":");
        ring.split(&key).skip(1).map(|rest| {
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse::<u64>().unwrap()
        }).sum()
    };
    let sum = |f: fn(&RetrieveStats) -> u64, of: &[RetrieveStats]| of.iter().map(f).sum::<u64>();
    let asum = |f: fn(&ApproxStats) -> u64| approx.iter().map(f).sum::<u64>();
    assert_eq!(noted("scan_copies"), sum(|s| s.scan_copies, &ringed), "{ring}");
    assert_eq!(noted("buffer_scored"), sum(|s| s.buffer_scored, &ringed), "{ring}");
    assert_eq!(noted("candidates"), asum(|a| a.candidates), "{ring}");
    assert_eq!(noted("reranked"), asum(|a| a.reranked), "{ring}");

    let (_, body) = http_get(maddr, "/metrics");
    let series = |name: &str| -> u64 {
        series_value(&body, name).unwrap_or_else(|| panic!("`{name}` missing:\n{body}")) as u64
    };
    let seeded = exact.iter().filter(|s| s.seed_cutoff.is_some()).count() as u64;
    for (name, want) in [
        ("geosir_dynamic_queries_total", exact.len() as u64),
        ("geosir_exact_queries_total{seeded=\"true\"}", seeded),
        ("geosir_exact_queries_total{seeded=\"false\"}", exact.len() as u64 - seeded),
        ("geosir_exact_seed_tightness_permille_count", seeded),
        ("geosir_exact_seed_reranked_total", sum(|s| s.seed_reranked, &exact)),
        ("geosir_exact_scan_copies_total", sum(|s| s.scan_copies, &exact)),
        ("geosir_exact_scan_survivors_total", sum(|s| s.scan_survivors, &exact)),
        ("geosir_exact_scan_bound_rejects_total", sum(|s| s.bound_rejects, &exact)),
        ("geosir_dynamic_buffer_scored_total", sum(|s| s.buffer_scored, &exact)),
        ("geosir_approx_queries_total", approx.len() as u64),
        ("geosir_approx_exact_fallbacks_total", 1),
        ("geosir_approx_bound_rejects_total", asum(|a| a.bound_rejects)),
        ("geosir_approx_candidates_per_query_sum", asum(|a| a.candidates)),
        ("geosir_approx_buckets_probed_sum", asum(|a| a.buckets_probed)),
    ] {
        assert_eq!(series(name), want, "{name}");
    }
    let pooled = series("geosir_dynamic_scratch_pool_hits_total")
        + series("geosir_dynamic_scratch_pool_misses_total");
    assert_eq!(pooled, exact.len() as u64, "every exact query is a pool hit or miss");
    assert!(series("geosir_exact_scan_copies_total") > 0 && seeded > 0, "the mix proves little");

    handle.shutdown();
    handle.join();
}
