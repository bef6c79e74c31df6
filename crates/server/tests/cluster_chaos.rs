//! Cluster chaos harness — the robustness invariants under real
//! process death and a stalled primary disk.
//!
//! Gated behind `GEOSIR_CHAOS=1` (CI runs it in a dedicated job; a
//! plain `cargo test` skips instantly). Two scenarios:
//!
//! 1. **SIGKILL a shard primary mid-window.** A child process (this
//!    test binary re-executed) runs shard 0's durable primary; the
//!    parent runs shard 1 in-process and a router over both. While a
//!    write/query workload runs, the child is SIGKILLed. Invariants:
//!    - every query issued after the kill is *answered* — degraded to
//!      `shards_ok < shards_total`, never an error or a hang;
//!    - once the breaker settles, routed p99 stays under 5× the
//!      healthy-window p99 (a dead shard must not poison the tail);
//!    - recovering shard 0's data directory shows every insert the
//!      router acked for that shard — acked ⊆ recovered, the same WAL
//!      contract the single-node crash harness enforces.
//! 2. **Health-plane chaos demo** (DESIGN §14). Kill a replica's server
//!    (its replication thread keeps tailing the primary's log and
//!    applying into the void — the in-process stand-in for SIGKILL) and
//!    stall a primary's WAL with a persistent delay fault, under a write
//!    load. Invariants: the cluster `/readyz` degrades to 503 with
//!    per-shard attribution (the stalled shard not-ready with
//!    `wal_writer` unhealthy, the other shard still ready), the journals
//!    explain both events (`watchdog.stall` naming `wal_writer` on the
//!    shard, `repl.stuck` naming the dead replica on the router), and
//!    once the load stops and the stall drains, readiness flips back
//!    with no restart.
//!
//! A torn final record under a live replica tail is covered by
//! `cluster_integration.rs`, which runs in every `cargo test`.

mod common;

use common::{http_get, poll_until, serve_cfg, template, tmpdir};

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use geosir_geom::{Point, Polyline};
use geosir_serve::cluster::{start_cluster, untag_id, ClusterConfig, Router, RouterConfig, ShardSpec};
use geosir_serve::{serve_durable, Client, DurabilityConfig, HealthConfig, ServeConfig};
use geosir_storage::faults::{FaultKind, FaultPlan, FaultyFactory};
use geosir_storage::wal::FsyncPolicy;

const CHILD_DIR_ENV: &str = "GEOSIR_CHAOS_DIR";

fn chaos_enabled() -> bool {
    std::env::var("GEOSIR_CHAOS").ok().as_deref() == Some("1")
}

fn shape(i: u64) -> Polyline {
    let n = 8;
    let pts: Vec<Point> = (0..n)
        .map(|j| {
            let t = j as f64 / n as f64 * std::f64::consts::TAU;
            let r = 0.7 + 0.25 * (((i.wrapping_mul(2654435761) >> (j % 13)) & 0xff) as f64 / 255.0);
            Point::new(r * t.cos(), r * t.sin())
        })
        .collect();
    Polyline::closed(pts).expect("star polygon is simple")
}

/// The victim shard. A no-op unless re-executed with [`CHILD_DIR_ENV`]
/// set: boots a durable server over the given directory, prints its
/// address (flushed — SIGKILL discards buffers), then parks until
/// killed.
#[test]
fn chaos_child_shard() {
    let Ok(dir) = std::env::var(CHILD_DIR_ENV) else { return };
    let mut durability = DurabilityConfig::new(PathBuf::from(dir));
    durability.fsync = FsyncPolicy::Always;
    // never checkpoint: the WAL stays the full history, as in-process
    // cluster primaries are configured
    durability.checkpoint_every = u64::MAX / 2;
    let (handle, _) = serve_durable("127.0.0.1:0", &template(), durability, serve_cfg())
        .expect("child: serve_durable");
    let out = std::io::stdout();
    {
        let mut o = out.lock();
        writeln!(o, "ADDR {}", handle.addr()).unwrap();
        o.flush().unwrap();
    }
    // park: only SIGKILL ends this process
    loop {
        std::thread::sleep(Duration::from_secs(1));
    }
}

fn spawn_child_shard(dir: &PathBuf) -> (std::process::Child, std::net::SocketAddr) {
    let exe = std::env::current_exe().unwrap();
    let mut child = Command::new(exe)
        .args(["chaos_child_shard", "--exact", "--nocapture", "--test-threads=1"])
        .env(CHILD_DIR_ENV, dir)
        .env_remove("GEOSIR_CHAOS")
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn child shard");
    // read the ADDR line without consuming the rest of stdout
    use std::io::{BufRead as _, BufReader};
    let mut reader = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    let addr = loop {
        line.clear();
        if reader.read_line(&mut line).expect("child stdout") == 0 {
            panic!("child shard died before printing its address");
        }
        // the harness may emit its own "test chaos_child_shard ..."
        // prefix on the same line, so search rather than prefix-match
        if let Some(pos) = line.find("ADDR ") {
            break line[pos + 5..].trim().parse().expect("child address");
        }
    };
    (child, addr)
}

#[test]
fn chaos_sigkill_primary_partial_answers_and_acked_writes_survive() {
    if !chaos_enabled() {
        return;
    }
    let dir0 = tmpdir("sigkill-shard0");
    let dir1 = tmpdir("sigkill-shard1");
    let (mut child, addr0) = spawn_child_shard(&dir0);

    let mut durability = DurabilityConfig::new(&dir1);
    durability.fsync = FsyncPolicy::Always;
    durability.checkpoint_every = u64::MAX / 2;
    let (local, _) = serve_durable("127.0.0.1:0", &template(), durability, serve_cfg())
        .expect("local shard");
    let specs = vec![
        ShardSpec { primary: addr0, replicas: vec![] },
        ShardSpec { primary: local.addr(), replicas: vec![] },
    ];
    let cfg = RouterConfig {
        shard_deadline: Duration::from_millis(1_000),
        hedge_after: Duration::from_millis(100),
        breaker_cooldown: Duration::from_millis(300),
        ..RouterConfig::default()
    };
    let router = Router::start("127.0.0.1:0", specs, cfg, Arc::new(geosir_serve::obs::Registry::new()))
        .expect("router");
    let mut c = Client::connect(router.addr()).expect("connect router");

    // --- healthy window: writes + queries, record acks and latencies
    let mut acked: Vec<(u64, u64)> = Vec::new(); // (i, routed id)
    let mut healthy_lat = Vec::new();
    for i in 0..40u64 {
        if let Ok(Some((_, id))) = c.insert(i as u32, &shape(i)) {
            acked.push((i, id));
        }
        let t = Instant::now();
        let r = c.query(&shape(i), 3).expect("healthy query");
        healthy_lat.push(t.elapsed());
        assert_eq!((r.shards_ok, r.shards_total), (2, 2), "cluster unhealthy before the kill");
    }
    assert!(acked.len() == 40, "all healthy-window inserts must ack");

    // --- chaos: SIGKILL shard 0's primary mid-window
    child.kill().expect("SIGKILL child");
    child.wait().ok();

    // every post-kill query must be answered; after the breaker settles
    // the replies degrade to partial rather than erroring
    let mut answered = 0u32;
    let mut partial = 0u32;
    let mut post_lat = Vec::new();
    for i in 0..60u64 {
        let t = Instant::now();
        let r = c.query(&shape(i), 3).expect("post-kill query errored");
        post_lat.push(t.elapsed());
        answered += 1;
        if r.shards_ok < r.shards_total {
            partial += 1;
            // surviving matches all come from the live shard
            for m in &r.matches {
                assert_eq!(untag_id(m.shape).0, 1, "match from a dead shard");
            }
        }
    }
    assert_eq!(answered, 60, "every post-kill query must be answered");
    assert!(partial > 0, "no reply was flagged partial after the kill");

    // tail latency: once the breaker is open the dead shard is skipped,
    // so the settled p99 stays within 5× the healthy p99 (generous
    // floor — CI timing noise must not fail the invariant)
    healthy_lat.sort();
    let mut settled: Vec<Duration> = post_lat[20..].to_vec();
    settled.sort();
    let p99 = |v: &Vec<Duration>| v[(v.len() * 99 / 100).min(v.len() - 1)];
    let healthy = p99(&healthy_lat).max(Duration::from_millis(5));
    let after = p99(&settled);
    assert!(
        after < healthy * 5,
        "settled post-kill p99 {after:?} exceeds 5x healthy p99 {healthy:?}"
    );

    // --- recovery: acked ⊆ recovered for the killed shard
    let mut durability = DurabilityConfig::new(&dir0);
    durability.fsync = FsyncPolicy::Always;
    durability.checkpoint_every = u64::MAX / 2;
    let (recovered, _report) = serve_durable("127.0.0.1:0", &template(), durability, serve_cfg())
        .expect("recovery of killed shard");
    let mut rc = Client::connect(recovered.addr()).expect("connect recovered");
    for (i, routed) in &acked {
        let (shard, local_id) = untag_id(*routed);
        if shard != 0 {
            continue;
        }
        let r = rc.query(&shape(*i), 3).expect("recovered query");
        assert!(
            r.matches.iter().any(|m| m.shape == local_id),
            "acked insert {i} (local id {local_id}) missing after recovery"
        );
    }

    router.shutdown();
    local.shutdown();
    local.join();
    recovered.shutdown();
    recovered.join();
    std::fs::remove_dir_all(&dir0).ok();
    std::fs::remove_dir_all(&dir1).ok();
}

#[test]
fn chaos_health_plane_attributes_stall_and_dead_replica() {
    if !chaos_enabled() {
        return;
    }
    let dir = tmpdir("health-plane");
    // Shard 0's own WAL disk sleeps 900ms on every op — any write batch
    // stays busy far past the 300ms stall deadline; an idle writer is
    // healthy (the fault only fires on ops).
    let stall = FaultPlan::new(FaultKind::Delay(Duration::from_millis(900)), 0, true);
    let mut cfg = ClusterConfig::new(&dir);
    cfg.shards = 2;
    cfg.replicas = 1;
    cfg.serve = ServeConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        health: HealthConfig {
            interval: Duration::from_millis(50),
            wal_stall: Duration::from_millis(300),
            // The demo's recovery assertion is about the WAL watchdog;
            // keep the latency objective out of the way so the storm's
            // fault-delayed writes cannot hold `slo` degraded (and
            // readiness 503) for a window-length after the stall ends.
            latency_slo_us: 60_000_000,
            slo_windows: vec![Duration::from_secs(1), Duration::from_secs(5)],
            ..HealthConfig::default()
        },
        ..serve_cfg()
    };
    cfg.router = RouterConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        shard_deadline: Duration::from_millis(1_000),
        ..RouterConfig::default()
    };
    cfg.shard_wal_factory = Some((0, Arc::new(FaultyFactory { plan: stall.clone() })));
    let mut cluster = start_cluster("127.0.0.1:0", &template(), cfg).expect("cluster");
    let fed = cluster.metrics_addr().expect("router health plane must be bound");
    let shard0 = cluster.primary_metrics_addr(0).expect("shard 0 health plane must be bound");

    // Healthy first: every shard reports ready through the federation.
    assert!(
        poll_until(Duration::from_secs(10), || http_get(fed, "/readyz").0 == 200),
        "cluster never became ready: {}",
        http_get(fed, "/readyz").1
    );

    // Chaos, part 1: retire shard 1's replica *server* while its
    // replication thread keeps tailing — the drain monitor must notice.
    cluster.kill_replica_server(1, 0);
    // A few writes to shard 1 so its dead replica visibly falls behind.
    let mut c1 = Client::connect(cluster.specs[1].primary).expect("connect shard 1 primary");
    for i in 0..8u64 {
        c1.insert_retrying(i as u32, &shape(i)).expect("shard 1 insert");
    }

    // Chaos, part 2: a write storm against shard 0 keeps its delayed WAL
    // writer permanently mid-batch.
    let stop = Arc::new(AtomicBool::new(false));
    let s0 = cluster.specs[0].primary;
    let stop2 = Arc::clone(&stop);
    let storm = std::thread::spawn(move || {
        let mut c = Client::connect(s0).expect("connect shard 0 primary");
        let mut i = 0u64;
        while !stop2.load(Ordering::SeqCst) {
            let _ = c.insert_retrying(i as u32, &shape(i));
            i += 1;
        }
    });

    // Federated /readyz degrades with per-shard attribution: shard 0
    // not-ready with the WAL writer named, shard 1 still ready (a dead
    // replica is explained, not readiness-gating — reads fail over).
    let degraded = poll_until(Duration::from_secs(20), || {
        let (status, body) = http_get(fed, "/readyz");
        status == 503
            && body.contains("\"shard\":0,\"ready\":false")
            && body.contains("\"wal_writer\":\"unhealthy\"")
            && body.contains("\"shard\":1,\"ready\":true")
    });
    assert!(
        degraded,
        "federated readyz never attributed the stall: {}",
        http_get(fed, "/readyz").1
    );
    assert!(stall.fired() > 0, "the WAL fault plan never fired — harness is vacuous");

    // The journals explain both events: the shard's own journal names
    // the stalled component; the router's names the stuck replica.
    let (_, shard_journal) = http_get(shard0, "/debug/journal");
    assert!(
        shard_journal.contains("watchdog.stall") && shard_journal.contains("wal_writer"),
        "shard 0 journal must name the stalled WAL writer: {shard_journal}"
    );
    assert!(
        poll_until(Duration::from_secs(10), || {
            http_get(fed, "/debug/journal").1.contains("repl.stuck")
        }),
        "router journal never reported the stuck replica: {}",
        http_get(fed, "/debug/journal").1
    );

    // Recovery: stop the storm; the last batch drains through the
    // delayed disk and readiness flips back — no restart anywhere.
    stop.store(true, Ordering::SeqCst);
    storm.join().unwrap();
    assert!(
        poll_until(Duration::from_secs(20), || http_get(fed, "/readyz").0 == 200),
        "federated readyz never recovered after the stall drained: {}",
        http_get(fed, "/readyz").1
    );
    let (_, shard_journal) = http_get(shard0, "/debug/journal");
    assert!(
        shard_journal.contains("watchdog.ok"),
        "shard 0 journal missing the recovery transition: {shard_journal}"
    );

    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}
