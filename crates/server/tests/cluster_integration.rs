//! Cluster integration over real TCP loopback: scatter-gather routing
//! with shard-tagged ids, merge parity against a single-node union
//! oracle, replica catch-up with id parity, a torn final record applied
//! once when its writer completes it, a corrupt primary segment
//! surfacing as errors and a stuck replica, partial results when a
//! whole shard pair is down, and replica failover through the circuit
//! breaker.

mod common;

use common::{exact_template, poll_until, polygon, serve_cfg, tmpdir};

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use geosir_geom::Polyline;
use geosir_serve::cluster::{start_cluster, untag_id, ClusterConfig, RouterConfig};
use geosir_serve::{obs, serve, start_replication, Client, ReplHandle, ReplSpec};
use geosir_storage::wal::{FsyncPolicy, Wal, WalRecord};
use rand::prelude::*;
use rand::rngs::StdRng;

fn cluster_cfg(dir: &PathBuf, shards: usize, replicas: usize) -> ClusterConfig {
    ClusterConfig {
        shards,
        replicas,
        serve: serve_cfg(),
        router: RouterConfig {
            shard_deadline: Duration::from_millis(2_000),
            hedge_after: Duration::from_millis(200),
            breaker_cooldown: Duration::from_millis(200),
            ..RouterConfig::default()
        },
        ..ClusterConfig::new(dir)
    }
}

/// Inserts through the router land on shards, queries come back merged
/// with shard-tagged ids, and those ids route deletes back to the
/// owning shard.
#[test]
fn insert_query_delete_round_trip_through_router() {
    let dir = tmpdir("roundtrip");
    let cluster =
        start_cluster("127.0.0.1:0", &exact_template(), cluster_cfg(&dir, 3, 0)).unwrap();
    let mut client = Client::connect(cluster.addr()).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let shapes: Vec<Polyline> = (0..24).map(|_| polygon(&mut rng)).collect();
    let mut ids = Vec::new();
    for (i, s) in shapes.iter().enumerate() {
        let (_epoch, id) = client.insert_retrying(i as u32, s).unwrap();
        ids.push(id);
    }
    // placement actually spread across shards
    let mut shards_used: Vec<u16> = ids.iter().map(|&id| untag_id(id).0).collect();
    shards_used.sort_unstable();
    shards_used.dedup();
    assert!(shards_used.len() >= 2, "24 inserts should hit >= 2 of 3 shards");
    // all shapes visible through the router
    assert!(poll_until(Duration::from_secs(10), || {
        client.stats().map(|s| s.live_shapes == 24).unwrap_or(false)
    }));
    {
        let direct: Vec<u64> = cluster
            .specs
            .iter()
            .map(|s| Client::connect(s.primary).unwrap().stats().unwrap().live_shapes)
            .collect();
        assert_eq!(direct.iter().sum::<u64>(), 24, "pre-delete per-primary {direct:?}");
    }
    let reply = client.query(&shapes[5], 5).unwrap();
    assert!(!reply.rejected);
    assert_eq!((reply.shards_ok, reply.shards_total), (3, 3));
    assert_eq!(reply.matches.len(), 5);
    assert_eq!(reply.matches[0].image, 5, "nearest neighbour of a base shape is itself");
    assert!(ids.contains(&reply.matches[0].shape), "result ids are the routed ids");
    // scores ascend (lower = better), ties broken deterministically
    for w in reply.matches.windows(2) {
        assert!(w[0].score <= w[1].score);
    }
    // the routed id deletes the shape on its owning shard
    let deleted = client.delete(reply.matches[0].shape).unwrap();
    assert_eq!(deleted.map(|(_, existed)| existed), Some(true));
    let per_primary = || -> Vec<(u64, u64, u64)> {
        cluster
            .specs
            .iter()
            .map(|s| {
                let st = Client::connect(s.primary).unwrap().stats().unwrap();
                (st.live_shapes, st.inserts, st.deletes)
            })
            .collect()
    };
    assert!(
        poll_until(Duration::from_secs(10), || {
            client.stats().map(|s| s.live_shapes == 23).unwrap_or(false)
        }),
        "live_shapes stuck at {:?}, per-primary {:?}",
        client.stats().map(|s| s.live_shapes),
        per_primary()
    );
    let reply = client.query(&shapes[5], 1).unwrap();
    assert_ne!(reply.matches[0].image, 5, "deleted shape must not come back");
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Exact and approximate queries through the router return the same
/// score sequence as a single node holding the union of all shards.
#[test]
fn router_merge_matches_single_node_union_oracle() {
    let dir = tmpdir("oracle");
    let cluster =
        start_cluster("127.0.0.1:0", &exact_template(), cluster_cfg(&dir, 3, 0)).unwrap();
    let mut router = Client::connect(cluster.addr()).unwrap();
    // oracle: one plain server with every shape
    let union = serve("127.0.0.1:0", exact_template().empty_base(), serve_cfg()).unwrap();
    let mut oracle = Client::connect(union.addr()).unwrap();
    let mut rng = StdRng::seed_from_u64(21);
    let shapes: Vec<Polyline> = (0..30).map(|_| polygon(&mut rng)).collect();
    for (i, s) in shapes.iter().enumerate() {
        router.insert_retrying(i as u32, s).unwrap();
        oracle.insert_retrying(i as u32, s).unwrap();
    }
    for c in [&mut router, &mut oracle] {
        assert!(poll_until(Duration::from_secs(10), || {
            c.stats().map(|s| s.live_shapes == 30).unwrap_or(false)
        }));
    }
    let probe = polygon(&mut rng);
    for k in [1u32, 5, 17, 30] {
        let a = router.query(&probe, k).unwrap();
        let b = oracle.query(&probe, k).unwrap();
        let sa: Vec<(u32, u64)> = a.matches.iter().map(|m| (m.image, m.score.to_bits())).collect();
        let sb: Vec<(u32, u64)> = b.matches.iter().map(|m| (m.image, m.score.to_bits())).collect();
        assert_eq!(sa, sb, "exact top-{k} must be bit-identical to the union oracle");
    }
    // approx tier: unbounded radius + candidates is partition-independent
    let a = router.similar_approx(&probe, 10, u16::MAX, u32::MAX).unwrap();
    let b = oracle.similar_approx(&probe, 10, u16::MAX, u32::MAX).unwrap();
    let sa: Vec<(u32, u64)> = a.matches.iter().map(|m| (m.image, m.score.to_bits())).collect();
    let sb: Vec<(u32, u64)> = b.matches.iter().map(|m| (m.image, m.score.to_bits())).collect();
    assert_eq!(sa, sb, "approx top-k must match the union oracle at unbounded budgets");
    union.shutdown();
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A replica converges to the primary's exact id space:
/// same shapes, same ids, zero lag once the insert burst drains.
#[test]
fn replica_catches_up_with_id_parity() {
    let dir = tmpdir("parity");
    let cluster =
        start_cluster("127.0.0.1:0", &exact_template(), cluster_cfg(&dir, 1, 1)).unwrap();
    let mut client = Client::connect(cluster.addr()).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let shapes: Vec<Polyline> = (0..20).map(|_| polygon(&mut rng)).collect();
    let mut routed = Vec::new();
    for (i, s) in shapes.iter().enumerate() {
        routed.push(client.insert_retrying(i as u32, s).unwrap().1);
    }
    // delete a few through the router so tombstones replicate too
    for &id in &routed[0..3] {
        client.delete(id).unwrap();
    }
    let reg = cluster.registry();
    assert!(
        poll_until(Duration::from_secs(20), || {
            let snap = reg.snapshot();
            snap.gauge("geosir_replication_lag_records", &[("shard", "0")]) == 0
                && snap.counter("geosir_repl_applied_records_total", &[("shard", "0")]) >= 23
        }),
        "replica must drain the replication lag"
    );
    let snap = reg.snapshot();
    assert_eq!(
        snap.counter("geosir_repl_id_mismatch_total", &[("shard", "0")]),
        0,
        "replaying the WAL in LSN order must reproduce the primary's ids"
    );
    // replica serves the same surviving shapes as the primary
    let mut primary = Client::connect(cluster.specs[0].primary).unwrap();
    let mut replica = Client::connect(cluster.specs[0].replicas[0]).unwrap();
    for c in [&mut primary, &mut replica] {
        assert!(poll_until(Duration::from_secs(10), || {
            c.stats().map(|s| s.live_shapes == 17).unwrap_or(false)
        }));
    }
    let probe = &shapes[10];
    let p = primary.query(probe, 17).unwrap();
    let r = replica.query(probe, 17).unwrap();
    let sp: Vec<(u64, u32, u64)> =
        p.matches.iter().map(|m| (m.shape, m.image, m.score.to_bits())).collect();
    let sr: Vec<(u64, u32, u64)> =
        r.matches.iter().map(|m| (m.shape, m.image, m.score.to_bits())).collect();
    assert_eq!(sp, sr, "replica reads must be bit-identical to the primary, ids included");
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The primary's first WAL segment.
const FIRST_SEGMENT: &str = "wal-00000000000000000001.log";

/// A primary log in `dir` of `n` inserts with ids `0..n` (the ids a
/// fresh replica assigns in turn); a rotation opens a new segment
/// before LSN `rotate_at`.
fn write_primary_log(dir: &Path, n: u64, rotate_at: u64) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut wal = Wal::open(dir, FsyncPolicy::Never, 1).unwrap();
    for i in 0..n {
        if i + 1 == rotate_at {
            wal.rotate().unwrap();
        }
        let points = polygon(&mut rng).points().iter().map(|p| (p.x, p.y)).collect();
        let rec = WalRecord::Insert { key: 100 + i, id: i, image: i as u32, closed: true, points };
        wal.append(&rec).unwrap();
    }
    wal.sync().unwrap();
}

fn replicate(src: PathBuf, replica: std::net::SocketAddr) -> (Arc<obs::Registry>, ReplHandle) {
    let registry = Arc::new(obs::Registry::new());
    let repl = start_replication(ReplSpec {
        shard: 0,
        src_wal_dir: src,
        replica_addr: replica,
        registry: registry.clone(),
    });
    (registry, repl)
}

const SHARD0: &[(&str, &str)] = &[("shard", "0")];

/// The replica's tail over a primary whose final record is half
/// written — a writer mid-append — applies the five whole records and
/// drains its lag; once the writer completes the frame, the sixth record
/// applies exactly once, with the primary's id.
#[test]
fn torn_final_record_applies_once_completed() {
    let dir = tmpdir("torn-tail");
    let src = dir.join("primary");
    write_primary_log(&src, 6, 0);
    let seg = src.join(FIRST_SEGMENT);
    let whole = std::fs::read(&seg).unwrap();
    write_primary_log(&dir.join("five"), 5, 0);
    let five = std::fs::metadata(dir.join("five").join(FIRST_SEGMENT)).unwrap().len() as usize;
    let cut = five + (whole.len() - five) / 2;
    std::fs::OpenOptions::new().write(true).open(&seg).unwrap().set_len(cut as u64).unwrap();

    let replica = serve("127.0.0.1:0", exact_template().empty_base(), serve_cfg()).unwrap();
    let (registry, repl) = replicate(src, replica.addr());
    let drained = |applied: u64| {
        poll_until(Duration::from_secs(20), || {
            let snap = registry.snapshot();
            snap.counter("geosir_repl_applied_records_total", SHARD0) == applied
                && snap.gauge("geosir_replication_lag_records", SHARD0) == 0
                && snap.gauge("geosir_replication_lag_ms", SHARD0) == 0
        })
    };
    assert!(drained(5), "the five whole records must apply and the lag drain");
    // a few more ticks over the torn frame deliver nothing and err nothing
    std::thread::sleep(Duration::from_millis(100));
    let snap = registry.snapshot();
    assert_eq!(snap.counter("geosir_repl_applied_records_total", SHARD0), 5);
    assert_eq!(snap.counter("geosir_repl_read_errors_total", SHARD0), 0);

    let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
    f.write_all(&whole[cut..]).unwrap();
    drop(f);
    assert!(drained(6), "the completed sixth record must apply");
    std::thread::sleep(Duration::from_millis(100));
    let snap = registry.snapshot();
    assert_eq!(snap.counter("geosir_repl_applied_records_total", SHARD0), 6, "applied once");
    assert_eq!(snap.counter("geosir_repl_id_mismatch_total", SHARD0), 0, "id parity");
    assert_eq!(snap.counter("geosir_repl_apply_errors_total", SHARD0), 0);
    let stats = Client::connect(replica.addr()).unwrap().stats().unwrap();
    assert_eq!((stats.live_shapes, stats.inserts), (6, 6));
    repl.stop();
    replica.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A primary segment corrupt mid-log — a newer segment follows it — is
/// a read error counted every tick, not a silent stall: the records
/// before the flipped byte apply, and since nothing past it ever will,
/// the replica counts as behind until the drain monitor journals it
/// stuck. (The one reader stops its records and its tip at the same
/// place, so the record lag reads 0.)
#[test]
fn corrupt_primary_segment_counts_errors_and_journals_stuck() {
    let dir = tmpdir("corrupt-primary");
    let src = dir.join("primary");
    write_primary_log(&src, 6, 5);
    // the fourth-last byte of segment 1: inside its final record, LSN 4
    let seg = src.join(FIRST_SEGMENT);
    let mut bytes = std::fs::read(&seg).unwrap();
    let at = bytes.len() - 4;
    bytes[at] ^= 0x10;
    std::fs::write(&seg, &bytes).unwrap();

    let replica = serve("127.0.0.1:0", exact_template().empty_base(), serve_cfg()).unwrap();
    let (registry, repl) = replicate(src, replica.addr());
    let journaled_stuck = poll_until(Duration::from_secs(20), || {
        registry.journal().recent().iter().any(|e| e.code == "repl.stuck")
    });
    assert!(journaled_stuck, "a replica stalled on a corrupt primary segment must be journaled");
    let snap = registry.snapshot();
    let errors = snap.counter("geosir_repl_read_errors_total", SHARD0);
    assert!(errors >= 2, "every tick that reads the corrupt segment is a read error");
    assert_eq!(snap.counter("geosir_repl_applied_records_total", SHARD0), 3);
    assert!(snap.gauge("geosir_replication_lag_ms", SHARD0) > 0, "a failing read is behind");
    assert!(
        poll_until(Duration::from_secs(5), || {
            registry.snapshot().counter("geosir_repl_read_errors_total", SHARD0) > errors
        }),
        "the read errors keep rising, tick by tick"
    );
    repl.stop();
    replica.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Killing a shard's primary fails reads over to its replica (full
/// answer, breaker opens); killing a shard with no replica degrades to
/// a partial result instead of an error.
#[test]
fn failover_and_partial_results() {
    let dir = tmpdir("failover");
    let mut cluster =
        start_cluster("127.0.0.1:0", &exact_template(), cluster_cfg(&dir, 2, 1)).unwrap();
    let mut client = Client::connect(cluster.addr()).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let shapes: Vec<Polyline> = (0..16).map(|_| polygon(&mut rng)).collect();
    for (i, s) in shapes.iter().enumerate() {
        client.insert_retrying(i as u32, s).unwrap();
    }
    assert!(poll_until(Duration::from_secs(10), || {
        client.stats().map(|s| s.live_shapes == 16).unwrap_or(false)
    }));
    let reg = cluster.registry();
    // wait for both replicas to fully catch up before any failover
    assert!(poll_until(Duration::from_secs(20), || {
        let snap = reg.snapshot();
        (0..2).all(|s| {
            let l = s.to_string();
            snap.gauge("geosir_replication_lag_records", &[("shard", &l)]) == 0
        })
    }));
    // kill shard 0's primary: reads must fail over to its replica
    cluster.stop_primary(0);
    let probe = &shapes[3];
    let mut full = None;
    for _ in 0..40 {
        let r = client.query(probe, 8).unwrap();
        assert!(!r.rejected);
        // full answer AND the replica's snapshot has every shape visible
        if (r.shards_ok, r.shards_total) == (2, 2) && r.matches.len() == 8 {
            full = Some(r);
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let full = full.expect("replica failover must restore full answers");
    assert_eq!(full.matches.len(), 8);
    let snap = reg.snapshot();
    assert!(
        snap.counter("geosir_router_hedges_total", &[("shard", "0")]) > 0
            || snap.counter("geosir_router_failovers_total", &[("shard", "0")]) > 0,
        "failover must be visible as a hedge or a submit-time failover"
    );
    // now kill the replica too: the shard pair is dead — queries still
    // answer, flagged partial, never an error
    cluster.stop_replica(0, 0);
    let mut partial = None;
    for _ in 0..40 {
        let r = client.query(probe, 8).unwrap();
        assert!(!r.rejected, "a dead shard must degrade, not error");
        if (r.shards_ok, r.shards_total) == (1, 2) {
            partial = Some(r);
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let partial = partial.expect("dead shard pair must yield partial results");
    assert!(!partial.matches.is_empty(), "the surviving shard still contributes");
    for m in &partial.matches {
        assert_eq!(untag_id(m.shape).0, 1, "only shard 1 can contribute now");
    }
    // once the breaker is open the dead shard costs no hedge window:
    // queries should be fast
    let t = Instant::now();
    for _ in 0..5 {
        let _ = client.query(probe, 8).unwrap();
    }
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "open breakers must not pay the full deadline per query"
    );
    let report = client.topology().unwrap();
    assert_eq!(report.len(), 2);
    assert_eq!(report[0].primary_state, 1, "shard 0 primary breaker is open");
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// The router survives a restart of the whole backend set: stats and
/// topology stay serviceable while everything is down.
#[test]
fn topology_reports_all_backends() {
    let dir = tmpdir("topo");
    let cluster =
        start_cluster("127.0.0.1:0", &exact_template(), cluster_cfg(&dir, 2, 2)).unwrap();
    let mut client = Client::connect(cluster.addr()).unwrap();
    let report = client.topology().unwrap();
    assert_eq!(report.len(), 2);
    for (i, shard) in report.iter().enumerate() {
        assert_eq!(shard.shard as usize, i);
        assert_eq!(shard.primary, cluster.specs[i].primary.to_string());
        assert_eq!(shard.replicas.len(), 2);
        assert_eq!(shard.primary_state, 0, "fresh cluster is healthy");
    }
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A wire `Shutdown` frame stops the router AND unblocks
/// [`Cluster::join`] — the foreground path `geosir cluster` parks on.
/// The accept loop sits in a blocking `accept()`, so the shutdown path
/// must wake it or a joiner hangs forever.
#[test]
fn wire_shutdown_unblocks_cluster_join() {
    let dir = tmpdir("joinstop");
    let cluster = start_cluster("127.0.0.1:0", &exact_template(), cluster_cfg(&dir, 2, 1)).unwrap();
    let addr = cluster.addr();
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        cluster.join();
        let _ = tx.send(());
    });
    let mut client = Client::connect(addr).unwrap();
    client.shutdown().unwrap();
    assert!(
        rx.recv_timeout(Duration::from_secs(10)).is_ok(),
        "Cluster::join did not return after a wire Shutdown frame"
    );
    std::fs::remove_dir_all(&dir).ok();
}
