//! End-to-end observability over a live durable server: under a mixed
//! read/write load the `/metrics` endpoint serves non-zero per-stage
//! series (exact-tier work, request latency, WAL fsync, queue gauges), a
//! query's client-minted trace id shows up in `/debug/last_queries`
//! with non-zero stage durations, and the same registry arrives intact
//! over the wire through `MetricsDump`.

mod common;

use common::{http_get, series_value, template, tmpdir, tri};

use geosir_geom::{Point, Polyline};
use geosir_serve::{serve_durable, Client, DurabilityConfig, ServeConfig};

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
        // every query here is seeded, so no level ran the paper's
        // matcher: its series read 0 — exposed, not absent
        ("geosir_matcher_runs_total", 0.0),
        ("geosir_matcher_rings_total", 0.0),
        ("geosir_wal_appends_total", 16.0),
        ("geosir_wal_fsync_us_count", 1.0),
        ("geosir_fsync_wait_us_count", 1.0),
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
