//! End-to-end introspection over a live durable server: an `Explain`
//! request's report must *reconcile* with the registry (the plan is the
//! same work the counters saw, not a parallel estimate), a zero
//! threshold must land every query in the slow-query JSONL with the
//! client-minted trace id, and the request ring must surface recent
//! requests at `/debug/last_queries`.

mod common;

use common::{http_get, ring_object, slow_line, slow_log_text, template, tmpdir, tri};

use geosir_geom::{Point, Polyline};
use geosir_serve::{serve_durable, Client, DurabilityConfig, ServeConfig};
use geosir_serve::{Frame, PipelinedClient, WireShape};

/// The explain report must describe the same work the registry counted:
/// between two `MetricsDump` snapshots bracketing a single `Explain`,
/// the scan counter's delta equals the levels' scorings and no matcher
/// series exists (single worker, single client — no other traffic to
/// blur the deltas). Twice: a seeded explain (k = 2, the level is scanned
/// against τ) and one asking for more shapes than exist (no cutoff: the
/// same scan from ∞, which the wire must carry as it is).
#[test]
fn explain_report_reconciles_with_registry_deltas() {
    let dir = tmpdir("reconcile");
    let cfg = ServeConfig { workers: 1, ..Default::default() };
    let (handle, _) =
        serve_durable("127.0.0.1:0", &template(), DurabilityConfig::new(&dir), cfg).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    // 12 % buffer_cap(8) = 4 shapes stay in the insert buffer, so the
    // report must show brute-force buffer work alongside level scans.
    for i in 0..12u64 {
        c.insert_retrying(i as u32, &tri(i)).unwrap();
    }

    for (k, seeded) in [(2, true), (20, false)] {
        let before = c.metrics().unwrap();
        let reply = c.explain(&tri(3), k).unwrap();
        let after = c.metrics().unwrap();

        assert!(!reply.rejected);
        assert_ne!(reply.trace, 0, "client must mint a trace id");
        assert!(!reply.matches.is_empty(), "explain still answers the query");
        assert!(reply.total_us > 0);

        let report = &reply.report;
        assert!(!report.levels.is_empty(), "12 inserts must have built at least one level");
        assert!(report.stats.buffer_scored > 0, "4 buffered shapes must be brute-force scored");
        for level in &report.levels {
            assert_eq!(level.cutoff.is_finite(), seeded, "k = {k}: {:?}", report.levels);
        }

        // Registry deltas == report sums. The explain ran between the two
        // dumps on the only worker, so the deltas are exactly its work.
        let delta = |name: &str| {
            after.counter(name, &[]).saturating_sub(before.counter(name, &[]))
        };
        assert_eq!(delta("geosir_explains_total"), 1);
        assert_eq!(
            delta("geosir_exact_scan_copies_total"),
            report.levels.iter().map(|l| l.scored).sum::<u64>(),
            "the scan counter must move once per copy a scan scored"
        );
        assert_eq!(delta("geosir_exact_scan_copies_total"), report.stats.scan_copies);
        // no level runs the matcher, and no series for it is exposed
        assert!(after.entries.iter().all(|e| !e.name.starts_with("geosir_matcher_")));
        // The serve path must feed the scratch-pool counters (satellite:
        // they were stuck at zero): exactly one acquisition per query.
        assert_eq!(
            delta("geosir_dynamic_scratch_pool_hits_total")
                + delta("geosir_dynamic_scratch_pool_misses_total"),
            1,
            "one scratch acquisition per explain"
        );

        // And the explain's matches agree with a plain query.
        let plain = c.query(&tri(3), k).unwrap();
        let ids = |ms: &[geosir_serve::WireMatch]| ms.iter().map(|m| m.shape).collect::<Vec<_>>();
        assert_eq!(ids(&reply.matches), ids(&plain.matches));
    }

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// With `slow_query_us = 0` every query is "slow": each one must land
/// in the JSONL log carrying the same trace id the client minted, with
/// the full per-level plan attached.
#[test]
fn threshold_zero_logs_every_query_with_its_trace_id() {
    let dir = tmpdir("slowlog");
    let log_dir = dir.join("slow-queries");
    let cfg = ServeConfig {
        workers: 2,
        slow_query_log: Some(log_dir.clone()),
        slow_query_us: 0,
        ..Default::default()
    };
    let (handle, _) =
        serve_durable("127.0.0.1:0", &template(), DurabilityConfig::new(&dir), cfg).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    for i in 0..10u64 {
        c.insert_retrying(i as u32, &tri(i)).unwrap();
    }
    let mut traces = Vec::new();
    for i in 0..6u64 {
        let reply = c.query(&tri(i), 2).unwrap();
        assert!(!reply.rejected);
        traces.push(reply.trace);
    }
    // explains flow through the same log
    let ex = c.explain(&tri(0), 1).unwrap();
    traces.push(ex.trace);

    let snap = c.metrics().unwrap();
    assert!(
        snap.counter("geosir_slow_queries_total", &[]) >= 7,
        "every query must count as slow at threshold 0"
    );
    assert_eq!(snap.counter("geosir_slow_query_log_errors_total", &[]), 0);

    handle.shutdown();
    handle.join();

    // FileIo appends are unbuffered, but shut the server down first so
    // the log is quiescent before we read it back.
    let mut body = String::new();
    for entry in std::fs::read_dir(&log_dir).expect("slow-query log dir must exist") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "jsonl") {
            body.push_str(&std::fs::read_to_string(&path).unwrap());
        }
    }
    for trace in &traces {
        assert!(
            body.contains(&format!("\"trace_id\":{trace}")),
            "trace {trace} missing from slow-query log:\n{body}"
        );
    }
    for line in body.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "not one-object-per-line: {line}");
        assert!(line.contains("\"scan_copies\":"), "{line}");
        assert!(line.contains("\"seeded\":"), "{line}");
    }
    assert!(body.contains("\"kind\":\"query\""), "{body}");
    assert!(body.contains("\"kind\":\"explain\""), "{body}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Arming the slow-query log changes neither how the worker pops nor
/// what it answers: a pipelined burst at one worker still rides
/// coalesced pops, every query of it is logged under its trace id with
/// its record, and the `(id, score)` lists equal those of a server
/// without the log.
#[test]
fn armed_slow_log_keeps_coalescing_and_changes_no_answer() {
    let burst = |name: &str, armed: bool| {
        let dir = tmpdir(name);
        let log_dir = dir.join("slow-queries");
        let cfg = ServeConfig {
            workers: 1,
            slow_query_log: armed.then(|| log_dir.clone()),
            slow_query_us: 0,
            ..Default::default()
        };
        let (handle, _) =
            serve_durable("127.0.0.1:0", &template(), DurabilityConfig::new(&dir), cfg).unwrap();
        let mut c = Client::connect(handle.addr()).unwrap();
        for i in 0..20u64 {
            c.insert_retrying(i as u32, &tri(i)).unwrap();
        }
        let mut pc = PipelinedClient::connect(handle.addr()).unwrap();
        let sent: Vec<(u64, u64)> = (0..16u64)
            .map(|i| {
                let trace = 7_000 + i;
                let shape = WireShape::from_polyline(&tri(i));
                (pc.submit(&Frame::Query { k: 3, trace, shape }).unwrap(), trace)
            })
            .collect();
        let answers: Vec<Vec<(u64, u64)>> = sent
            .iter()
            .map(|(corr, _)| match pc.recv(*corr).unwrap() {
                Frame::Matches { matches, .. } => {
                    matches.iter().map(|m| (m.shape, m.score.to_bits())).collect()
                }
                other => panic!("expected Matches, got {other:?}"),
            })
            .collect();
        let pops = handle.registry().histogram("geosir_coalesced_batch", &[]);
        handle.shutdown();
        handle.join();
        let mut journal = String::new();
        if armed {
            for entry in std::fs::read_dir(&log_dir).expect("slow-query log dir must exist") {
                journal.push_str(&std::fs::read_to_string(entry.unwrap().path()).unwrap());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
        (answers, pops.sum() > pops.count(), sent, journal)
    };
    let (plain, plain_coalesced, _, _) = burst("burst-plain", false);
    let (logged, logged_coalesced, sent, journal) = burst("burst-logged", true);
    assert!(plain_coalesced, "16 frames in one write must back the queue up");
    assert!(logged_coalesced, "an armed slow-query log must not force pops of one");
    assert!(plain.iter().all(|hits| hits.len() == 3));
    assert_eq!(plain, logged);
    for (_, trace) in sent {
        let line = journal
            .lines()
            .find(|l| l.contains(&format!("\"trace_id\":{trace},")))
            .unwrap_or_else(|| panic!("trace {trace} missing from the slow-query log:\n{journal}"));
        assert!(line.contains("\"kind\":\"query\"") && line.contains("\"seeded\":"), "{line}");
    }
}

/// A slow line is the request's record: at threshold 0, the line of an
/// exact query, an approximate one and an explain is byte for byte the
/// object `/debug/last_queries` shows for the same trace, and the exact
/// record says whether its scan was seeded.
#[test]
fn slow_lines_equal_the_ring_records() {
    let dir = tmpdir("slow-equals-ring");
    let log_dir = dir.join("slow-queries");
    let cfg = ServeConfig {
        workers: 1,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        slow_query_log: Some(log_dir.clone()),
        slow_query_us: 0,
        ..Default::default()
    };
    let (handle, _) =
        serve_durable("127.0.0.1:0", &template(), DurabilityConfig::new(&dir), cfg).unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    for i in 0..12u64 {
        c.insert_retrying(i as u32, &tri(i)).unwrap();
    }
    let query = c.query(&tri(3), 2).unwrap();
    let approx = c.similar_approx(&tri(3), 2, 0, 0).unwrap();
    let explained = c.explain(&tri(3), 2).unwrap();
    let (_, ring) = http_get(handle.metrics_addr().unwrap(), "/debug/last_queries");
    handle.shutdown();
    handle.join();

    let text = slow_log_text(&log_dir);
    let kinds = [(query.trace, "query"), (approx.trace, "query_approx"), (explained.trace, "explain")];
    for (trace, kind) in kinds {
        let line = slow_line(&text, trace);
        assert_eq!(line, ring_object(&ring, trace), "the slow line is the record");
        assert!(line.contains(&format!("\"kind\":\"{kind}\"")), "{line}");
    }
    // a shape of the base is its own nearest: the seed finds k copies
    let exact = slow_line(&text, query.trace);
    assert!(exact.contains("\"seeded\":1") && exact.contains("\"seed_reranked\":"), "{exact}");
    assert!(exact.contains("\"bound_rejects\":"), "{exact}");
    // writes are not reads: no insert reaches the slow log
    assert!(!text.contains("\"kind\":\"insert\""), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The always-on request ring: reads and writes both show up at
/// `/debug/last_queries` keyed by trace id, without any explain/slow-log
/// configuration, and an exact query's record counts its scan.
#[test]
fn request_ring_serves_recent_requests() {
    let dir = tmpdir("ring");
    let cfg = ServeConfig {
        workers: 1,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..Default::default()
    };
    let (handle, _) =
        serve_durable("127.0.0.1:0", &template(), DurabilityConfig::new(&dir), cfg).unwrap();
    let maddr = handle.metrics_addr().unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();
    for i in 0..16u64 {
        c.insert_retrying(i as u32, &tri(i)).unwrap();
    }
    let reply = c.query(&tri(2), 2).unwrap();
    let approx = c.similar_approx(&tri(2), 2, 0, 0).unwrap();
    // a sketch with no near match among the triangles: the seed stops
    // short of some copies, which the level scan then scores itself
    let quad = Polyline::closed(vec![
        Point::new(0.0, 0.0),
        Point::new(3.0, 0.2),
        Point::new(2.6, 2.0),
        Point::new(1.0, 2.4),
    ])
    .unwrap();
    let before = c.metrics().unwrap();
    let explained = c.explain(&quad, 8).unwrap();
    let after = c.metrics().unwrap();
    let delta = |name: &str| after.counter(name, &[]) - before.counter(name, &[]);
    let (copies, survivors) =
        (delta("geosir_exact_scan_copies_total"), delta("geosir_exact_scan_survivors_total"));
    assert!(copies > 0, "the quad's seed settled every copy: nothing to scan");
    assert_eq!(explained.report.stats.scan_copies, copies);

    let (status, json) = http_get(maddr, "/debug/last_queries");
    assert_eq!(status, 200, "{json}");
    // a record is one object whose last member is its `notes{}`
    let profile_of = |trace: u64| {
        let at = json
            .find(&format!("\"trace_id\":{trace},"))
            .unwrap_or_else(|| panic!("trace {trace} not in the request ring:\n{json}"));
        &json[at..json[at..].find("}}").map(|e| at + e + 2).unwrap_or(json.len())]
    };
    let profile = profile_of(reply.trace);
    assert!(profile.contains("\"kind\":\"query\""), "{profile}");
    assert!(profile.contains("\"retrieve\":"), "{profile}");
    // a hash-tier query is its own kind and carries its funnel
    let profile = profile_of(approx.trace);
    assert!(approx.candidates > 0 && approx.reranked > 0);
    assert!(profile.contains("\"kind\":\"query_approx\""), "{profile}");
    assert!(profile.contains(&format!("\"candidates\":{}", approx.candidates)), "{profile}");
    assert!(profile.contains(&format!("\"reranked\":{}", approx.reranked)), "{profile}");
    // an exact one counts the copies its scan scored, and the survivors
    let profile = profile_of(explained.trace);
    assert!(profile.contains("\"kind\":\"explain\"") && profile.contains("\"levels\":1,"), "{profile}");
    let scan = format!("\"scan_copies\":{copies},\"scan_survivors\":{survivors},");
    assert!(profile.contains(&scan), "{profile}");
    // writes are recorded too
    assert!(json.contains("\"kind\":\"insert\""), "{json}");

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}
