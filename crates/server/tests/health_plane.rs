//! The health plane end to end over live durable servers (DESIGN §14):
//! `/healthz`/`/readyz` verdicts, the WAL-writer stall watchdog flipping
//! readiness (and flipping it back without a restart), and the journal
//! surviving a dead journal disk by counting-and-dropping.

mod common;

use common::{http_get, poll_until, series_value, template, tmpdir, tri};

use std::time::Duration;

use geosir_serve::{serve_durable, Client, DurabilityConfig, HealthConfig, ServeConfig};
use geosir_storage::faults::{FaultKind, FaultPlan, FaultyFactory};

/// A 50 ms watchdog: the WAL-stall deadline is 8 × that (400 ms) and
/// the SLO burn windows 40 and 240 × (2 s, 12 s), so a burn from the
/// fault-delayed writes drains from the short window seconds after the
/// stall clears.
fn fast_health() -> HealthConfig {
    HealthConfig { interval: Duration::from_millis(50), ..HealthConfig::default() }
}

#[test]
fn healthy_server_reports_ready_and_journals_lifecycle() {
    let dir = tmpdir("ready");
    let cfg = ServeConfig {
        workers: 2,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        health: fast_health(),
        ..Default::default()
    };
    let (handle, _) =
        serve_durable("127.0.0.1:0", &template(), DurabilityConfig::new(&dir), cfg).unwrap();
    let maddr = handle.metrics_addr().expect("metrics endpoint must be bound");

    // The watchdog's first verdict lands within an interval or two.
    assert!(
        poll_until(Duration::from_secs(5), || http_get(maddr, "/readyz").0 == 200),
        "server never became ready: {}",
        http_get(maddr, "/readyz").1
    );
    let (status, body) = http_get(maddr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"status\":\"ok\""), "{body}");
    let (status, body) = http_get(maddr, "/readyz");
    assert_eq!(status, 200, "{body}");
    for needle in
        ["\"ready\":true", "\"read_only\":false", "wal_writer", "event_loop", "queues", "slo"]
    {
        assert!(body.contains(needle), "missing {needle} in readyz: {body}");
    }

    // Write enough to cascade — the lifecycle journal picks it up — then
    // delete the 16-shape level's majority: half of it stays tombstoned,
    // one more and the level is rebuilt without its dead.
    let mut c = Client::connect(handle.addr()).unwrap();
    let ids: Vec<u64> =
        (0..16u64).map(|i| c.insert_retrying(i as u32, &tri(i)).unwrap().1).collect();
    for id in &ids[..8] {
        assert_eq!(c.delete(*id).unwrap().map(|(_, existed)| existed), Some(true));
    }
    let (_, metrics) = http_get(maddr, "/metrics");
    assert_eq!(series_value(&metrics, "geosir_dead_shapes"), Some(8.0), "{metrics}");
    assert_eq!(c.delete(ids[8]).unwrap().map(|(_, existed)| existed), Some(true));
    let (_, metrics) = http_get(maddr, "/metrics");
    assert_eq!(series_value(&metrics, "geosir_dead_shapes"), Some(0.0), "{metrics}");
    assert_eq!(series_value(&metrics, "geosir_live_shapes"), Some(7.0), "{metrics}");
    assert_eq!(series_value(&metrics, "geosir_dynamic_compactions_total"), Some(1.0), "{metrics}");
    let (status, journal) = http_get(maddr, "/debug/journal");
    assert_eq!(status, 200);
    for code in ["recovery.start", "recovery.done", "cascade.level", "compact.level"] {
        assert!(journal.contains(code), "journal missing {code}: {journal}");
    }
    assert!(journal.contains(r#""shapes":"7","shed":"9""#), "{journal}");

    // Health gauges and SLO burn rates are on the scrape plane.
    let (status, metrics) = http_get(maddr, "/metrics");
    assert_eq!(status, 200);
    assert!(metrics.contains("geosir_ready 1"), "{metrics}");
    assert!(metrics.contains("geosir_health_status{component=\"wal_writer\"} 0"), "{metrics}");
    assert!(metrics.contains("geosir_slo_burn_milli{objective=\"availability\""), "{metrics}");

    // The journal also lands on disk, via the rotating JSONL sink —
    // including the recovery events emitted before the sink existed
    // (the server backfills the ring when it installs the sink).
    let on_disk: String = std::fs::read_dir(dir.join("journal"))
        .expect("journal dir exists")
        .filter_map(|e| e.ok())
        .filter_map(|e| std::fs::read_to_string(e.path()).ok())
        .collect();
    for code in ["recovery.start", "recovery.done", "cascade.level"] {
        assert!(on_disk.contains(code), "on-disk journal missing {code}: {on_disk}");
    }

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_writer_stall_flips_readyz_and_recovers_without_restart() {
    let dir = tmpdir("stall");
    // Every WAL op sleeps 700ms — any write batch is busy far past the
    // 400ms stall deadline, and an idle writer (no ops) is healthy.
    let plan = FaultPlan::new(FaultKind::Delay(Duration::from_millis(700)), 0, true);
    let dcfg = DurabilityConfig {
        io_factory: Some(std::sync::Arc::new(FaultyFactory { plan: plan.clone() })),
        ..DurabilityConfig::new(&dir)
    };
    let cfg = ServeConfig {
        workers: 2,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        health: fast_health(),
        ..Default::default()
    };
    let (handle, _) = serve_durable("127.0.0.1:0", &template(), dcfg, cfg).unwrap();
    let maddr = handle.metrics_addr().unwrap();
    assert!(
        poll_until(Duration::from_secs(5), || http_get(maddr, "/readyz").0 == 200),
        "never ready before the stall"
    );

    // A write stalls in the delayed WAL; the watchdog must notice while
    // the batch is still in flight and name the component.
    let addr = handle.addr();
    let writer = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.insert_retrying(1, &tri(1)).unwrap();
    });
    let flipped = poll_until(Duration::from_secs(10), || {
        let (status, body) = http_get(maddr, "/readyz");
        status == 503 && body.contains("\"wal_writer\"") && body.contains("unhealthy")
    });
    assert!(flipped, "readyz never reported the stalled WAL writer");
    let (_, journal) = http_get(maddr, "/debug/journal");
    assert!(
        journal.contains("watchdog.stall") && journal.contains("wal_writer"),
        "journal must name the stalled component: {journal}"
    );
    assert!(plan.fired() > 0, "the fault plan never fired");

    // The batch eventually clears the delayed disk; readiness must come
    // back on its own — no restart.
    writer.join().unwrap();
    assert!(
        poll_until(Duration::from_secs(20), || http_get(maddr, "/readyz").0 == 200),
        "readyz never recovered after the stall cleared: {}",
        http_get(maddr, "/readyz").1
    );
    let (_, journal) = http_get(maddr, "/debug/journal");
    assert!(journal.contains("watchdog.ok"), "recovery transition missing: {journal}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn journal_disk_failure_is_counted_and_dropped_never_panics() {
    let dir = tmpdir("journal-fail");
    // The journal's own disk is dead from the first appended line; the
    // WAL is healthy. Every emitted event must be counted and dropped.
    let plan = FaultPlan::new(FaultKind::Fail, 0, true);
    let dcfg = DurabilityConfig {
        journal_io: Some(std::sync::Arc::new(FaultyFactory { plan: plan.clone() })),
        ..DurabilityConfig::new(&dir)
    };
    let cfg = ServeConfig {
        workers: 2,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        health: fast_health(),
        ..Default::default()
    };
    let (handle, _) = serve_durable("127.0.0.1:0", &template(), dcfg, cfg).unwrap();
    let maddr = handle.metrics_addr().unwrap();

    // Cascades emit journal events from the writer thread; each append
    // hits the dead journal disk.
    let mut c = Client::connect(handle.addr()).unwrap();
    for i in 0..16u64 {
        c.insert_retrying(i as u32, &tri(i)).unwrap();
    }
    assert!(
        poll_until(Duration::from_secs(5), || {
            let (_, metrics) = http_get(maddr, "/metrics");
            series_value(&metrics, "geosir_journal_errors_total")
                .map(|v| v >= 1.0)
                .unwrap_or(false)
        }),
        "journal append failures were not counted"
    );
    assert!(plan.fired() > 0);

    // The server is unharmed: queries answer, readiness holds, and the
    // in-memory ring still serves /debug/journal.
    let reply = c.query(&tri(3), 2).unwrap();
    assert!(!reply.rejected);
    assert_eq!(http_get(maddr, "/readyz").0, 200);
    let (status, journal) = http_get(maddr, "/debug/journal");
    assert_eq!(status, 200);
    assert!(journal.contains("cascade.level"), "{journal}");

    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

