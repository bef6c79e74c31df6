//! Cluster integration over real TCP loopback: scatter-gather routing
//! with shard-tagged ids, merge parity against a single-node union
//! oracle, replica catch-up with id parity, a replica of a primary that
//! has checkpointed and pruned its log, a replica left behind a prune
//! that restarts from the newest checkpoint, a torn final record applied
//! once when its writer completes it, a corrupt primary segment
//! surfacing as errors and a stuck replica, a record the replica refuses
//! as recovery does, partial results when a whole shard pair is down,
//! and replica failover through the circuit breaker.

mod common;

use common::{exact_template, http_get, poll_until, polygon, serve_cfg, tmpdir};

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use geosir_core::dynamic::GlobalShapeId;
use geosir_core::ImageId;
use geosir_geom::Polyline;
use geosir_serve::cluster::{start_cluster, untag_id, ClusterConfig, RouterConfig};
use geosir_serve::wire::error_code;
use geosir_serve::{
    obs, serve, serve_durable, serve_follower, Client, DurabilityConfig, ServeConfig, ServerHandle,
    WireError,
};
use geosir_storage::checkpoint::{self, CheckpointData};
use geosir_storage::wal::{FsyncPolicy, Lsn, Wal, WalRecord};
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

/// The `i`-th shape of the primary logs these tests write.
fn logged_shape(i: u64) -> Polyline {
    polygon(&mut StdRng::seed_from_u64(500 + i))
}

/// The record of a primary that inserted [`logged_shape`]`(i)` as id `i`.
fn logged_insert(i: u64) -> WalRecord {
    let points = logged_shape(i).points().iter().map(|p| (p.x, p.y)).collect();
    WalRecord::Insert { key: 100 + i, id: i, image: i as u32, closed: true, points }
}

/// `records` appended to a log in `dir` from LSN `first`.
fn append_log(dir: &Path, first: Lsn, records: &[WalRecord]) {
    let mut wal = Wal::open(dir, FsyncPolicy::Never, first).unwrap();
    for rec in records {
        wal.append(rec).unwrap();
    }
    wal.sync().unwrap();
}

/// A primary log in `dir` of `n` inserts with ids `0..n`; a rotation
/// opens a new segment before LSN `rotate_at`.
fn write_primary_log(dir: &Path, n: u64, rotate_at: u64) {
    let mut wal = Wal::open(dir, FsyncPolicy::Never, 1).unwrap();
    for i in 0..n {
        if i + 1 == rotate_at {
            wal.rotate().unwrap();
        }
        wal.append(&logged_insert(i)).unwrap();
    }
    wal.sync().unwrap();
}

/// A replica of the primary whose data directory is `src`, as shard 0
/// of its own registry.
fn follow(src: &Path) -> (Arc<obs::Registry>, ServerHandle) {
    let registry = Arc::new(obs::Registry::new());
    let replica =
        serve_follower("127.0.0.1:0", &exact_template(), src, 0, registry.clone(), serve_cfg())
            .unwrap();
    (registry, replica)
}

/// Every shape `c` holds, as the exact top-k for `probe` lists them:
/// (id, image, score bits).
fn answers(c: &mut Client, probe: &Polyline, k: u32) -> Vec<(u64, u32, u64)> {
    let r = c.query(probe, k).unwrap();
    r.matches.iter().map(|m| (m.shape, m.image, m.score.to_bits())).collect()
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

    let (registry, replica) = follow(&src);
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
    assert_eq!(snap.counter("geosir_repl_apply_errors_total", SHARD0), 0);
    let mut c = Client::connect(replica.addr()).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!((stats.live_shapes, stats.inserts), (6, 6));
    // id parity: each shape answers to the id its record carried
    for i in 0..6 {
        assert_eq!(answers(&mut c, &logged_shape(i), 1)[0].0, i, "id of record {}", i + 1);
    }
    replica.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A primary segment corrupt mid-log — a newer segment follows it — is
/// a read error counted every tick, not a silent stall: the records
/// before the flipped byte apply, and since nothing past it ever will,
/// the replica counts as behind until the drain monitor journals it
/// stuck. Its record lag is not 0: the tip reaches the record before the
/// newest segment's first, past the one the reader stopped at.
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

    let (registry, replica) = follow(&src);
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
        snap.gauge("geosir_replication_lag_records", SHARD0) > 0,
        "a replica stuck short of the newest segment lags by records too"
    );
    assert!(
        poll_until(Duration::from_secs(5), || {
            registry.snapshot().counter("geosir_repl_read_errors_total", SHARD0) > errors
        }),
        "the read errors keep rising, tick by tick"
    );
    replica.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A CRC-valid insert whose points make no shape — a record recovery
/// refuses — stops the replica at its LSN: the records before it apply,
/// it and the one after it never do, every tick that retries it is an
/// apply error, and the drain monitor journals the replica stuck.
#[test]
fn replica_stops_at_a_record_recovery_refuses() {
    let dir = tmpdir("refused-record");
    let src = dir.join("primary");
    let bad = WalRecord::Insert { key: 0, id: 3, image: 3, closed: true, points: vec![(0.0, 0.0)] };
    append_log(&src, 1, &[logged_insert(0), logged_insert(1), logged_insert(2), bad]);
    append_log(&src, 5, &[logged_insert(4)]);
    let (registry, replica) = follow(&src);
    assert!(
        poll_until(Duration::from_secs(20), || {
            registry.journal().recent().iter().any(|e| e.code == "repl.stuck")
        }),
        "a replica stopped at a refused record must be journaled stuck"
    );
    let snap = registry.snapshot();
    assert_eq!(snap.counter("geosir_repl_applied_records_total", SHARD0), 3);
    assert!(snap.counter("geosir_repl_apply_errors_total", SHARD0) >= 2, "retried, tick by tick");
    assert_eq!(snap.counter("geosir_repl_read_errors_total", SHARD0), 0);
    assert_eq!(snap.gauge("geosir_replication_lag_records", SHARD0), 2, "LSN 4 and 5 wait");
    let stats = Client::connect(replica.addr()).unwrap().stats().unwrap();
    assert_eq!(stats.live_shapes, 3, "nothing past the refused record applies");
    replica.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A replica started after its primary checkpointed and pruned the head
/// of its log starts from the checkpoint, follows the primary through
/// more checkpoints, and converges: the same live shapes, bit-identical
/// exact answers with the primary's ids, lag 0. It refuses writes at
/// admission and stays ready.
#[test]
fn replica_of_a_pruned_primary_converges() {
    let dir = tmpdir("pruned-primary");
    let src = dir.join("primary");
    let dcfg = DurabilityConfig {
        fsync: FsyncPolicy::Never,
        checkpoint_every: 8,
        ..DurabilityConfig::new(&src)
    };
    let (primary, _) = serve_durable("127.0.0.1:0", &exact_template(), dcfg, serve_cfg()).unwrap();
    let mut pc = Client::connect(primary.addr()).unwrap();
    let mut rng = StdRng::seed_from_u64(17);
    let mut shapes = Vec::new();
    let mut insert = |pc: &mut Client, rng: &mut StdRng| {
        let s = polygon(rng);
        let id = pc.insert_retrying(shapes.len() as u32, &s).unwrap().1;
        shapes.push((id, s));
    };
    // batches of 8 until a checkpoint has pruned the first segment
    for _ in 0..50 {
        if !src.join(FIRST_SEGMENT).exists() {
            break;
        }
        for _ in 0..8 {
            insert(&mut pc, &mut rng);
        }
        std::thread::sleep(Duration::from_millis(60));
    }
    assert!(!src.join(FIRST_SEGMENT).exists(), "the primary never pruned its first segment");

    let registry = Arc::new(obs::Registry::new());
    let cfg = ServeConfig { metrics_addr: Some("127.0.0.1:0".into()), ..serve_cfg() };
    let replica =
        serve_follower("127.0.0.1:0", &exact_template(), &src, 0, registry.clone(), cfg).unwrap();
    // more writes, through another checkpoint and prune, while it follows
    let checkpoints = pc.stats().unwrap().checkpoints;
    for _ in 0..24 {
        insert(&mut pc, &mut rng);
    }
    let gone: Vec<u64> = shapes.iter().step_by(3).map(|(id, _)| *id).collect();
    for &id in &gone {
        pc.delete(id).unwrap();
    }
    let live = (shapes.len() - gone.len()) as u64;
    assert!(
        poll_until(Duration::from_secs(10), || pc.stats().unwrap().checkpoints > checkpoints),
        "the primary checkpoints as it goes"
    );

    let mut rc = Client::connect(replica.addr()).unwrap();
    assert!(
        poll_until(Duration::from_secs(20), || {
            let snap = registry.snapshot();
            snap.gauge("geosir_replication_lag_records", SHARD0) == 0
                && snap.gauge("geosir_replication_lag_ms", SHARD0) == 0
                && rc.stats().map(|s| s.live_shapes == live).unwrap_or(false)
        }),
        "the replica must converge: live {:?} of {live}",
        rc.stats().map(|s| s.live_shapes)
    );
    assert_eq!(pc.stats().unwrap().live_shapes, live);
    for (_, probe) in shapes.iter().step_by(5) {
        let k = live as u32;
        assert_eq!(answers(&mut rc, probe, k), answers(&mut pc, probe, k), "ids included");
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter("geosir_repl_read_errors_total", SHARD0), 0);
    assert_eq!(snap.counter("geosir_repl_apply_errors_total", SHARD0), 0);

    // a replica is read-only by construction, and that is not a fault
    match rc.insert(0, &shapes[0].1) {
        Err(WireError::Server { code, .. }) => assert_eq!(code, error_code::READ_ONLY),
        other => panic!("a write to a replica must answer READ_ONLY, got {other:?}"),
    }
    match rc.delete(shapes[1].0) {
        Err(WireError::Server { code, .. }) => assert_eq!(code, error_code::READ_ONLY),
        other => panic!("a delete on a replica must answer READ_ONLY, got {other:?}"),
    }
    assert_eq!(rc.stats().unwrap().live_shapes, live);
    let http = replica.metrics_addr().unwrap();
    assert!(
        poll_until(Duration::from_secs(10), || http_get(http, "/readyz").0 == 200),
        "a replica stays ready: {}",
        http_get(http, "/readyz").1
    );
    replica.shutdown();
    primary.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// A replica left behind a prune — the primary checkpoints through LSN
/// 11 and drops the segment the replica was reading, records 6..11
/// unread — restarts from the newest checkpoint, journals it and
/// converges; it never applies across the gap. The checkpoint it first
/// lists is gone when it reads it (retired: a newer one was installed),
/// and it reads the newest instead, without a read error.
#[test]
fn replica_left_behind_a_prune_restarts_from_the_newest_checkpoint() {
    let dir = tmpdir("behind-prune");
    let src = dir.join("primary");
    append_log(&src, 1, &(0..5).map(logged_insert).collect::<Vec<_>>());
    let (registry, replica) = follow(&src);
    let applied = |n: u64| {
        poll_until(Duration::from_secs(20), || {
            let snap = registry.snapshot();
            snap.counter("geosir_repl_applied_records_total", SHARD0) == n
                && snap.gauge("geosir_replication_lag_records", SHARD0) == 0
        })
    };
    assert!(applied(5));

    // LSN 6..9 insert ids 5..8, 10 deletes id 0, 11 inserts id 9: the
    // replica never sees them in the log. The checkpoint through 10 is
    // listed but unreadable; then the next segment, from LSN 12, and
    // the prune of the first.
    let ckpt10 = checkpoint::path(&src, 10);
    std::os::unix::fs::symlink(dir.join("retired"), &ckpt10).unwrap();
    append_log(&src, 12, &[logged_insert(10)]);
    std::fs::remove_file(src.join(FIRST_SEGMENT)).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let shapes = (1..10).map(|i| (GlobalShapeId(i), ImageId(i as u32), logged_shape(i))).collect();
    let data = CheckpointData { epoch: 11, next_id: 10, shapes };
    checkpoint::write(&checkpoint::path(&src, 11), &data).unwrap();
    std::fs::remove_file(&ckpt10).unwrap();

    assert!(applied(6), "the replica must converge past the gap");
    let events = registry.journal().recent();
    let restart = events
        .iter()
        .find(|e| e.code == "repl.bootstrap" && e.fields.iter().any(|(k, _)| *k == "gap_from"))
        .expect("the restart from a checkpoint must be journaled");
    let field = |k: &str| restart.fields.iter().find(|(f, _)| *f == k).map(|(_, v)| v.as_str());
    assert_eq!(field("gap_from"), Some("6"));
    assert_eq!(field("gap_to"), Some("12"));
    assert_eq!(field("checkpoint_lsn"), Some("11"), "the newest checkpoint");
    let snap = registry.snapshot();
    assert_eq!(snap.counter("geosir_repl_applied_records_total", SHARD0), 6, "5, then LSN 12");
    assert_eq!(snap.counter("geosir_repl_read_errors_total", SHARD0), 0, "the vanished one retried");
    assert_eq!(snap.counter("geosir_repl_apply_errors_total", SHARD0), 0);

    // what recovery makes of the same files
    let copy = dir.join("copy");
    std::fs::create_dir_all(&copy).unwrap();
    for name in ["ckpt-00000000000000000011.gsir", "wal-00000000000000000012.log"] {
        std::fs::copy(src.join(name), copy.join(name)).unwrap();
    }
    let (recovered, report) =
        serve_durable("127.0.0.1:0", &exact_template(), DurabilityConfig::new(&copy), serve_cfg())
            .unwrap();
    assert_eq!((report.checkpoint_lsn, report.replayed), (11, 1));
    let (mut rc, mut oc) =
        (Client::connect(replica.addr()).unwrap(), Client::connect(recovered.addr()).unwrap());
    assert_eq!(rc.stats().unwrap().live_shapes, 10);
    assert_eq!(oc.stats().unwrap().live_shapes, 10);
    for i in 0..11 {
        let probe = logged_shape(i);
        assert_eq!(answers(&mut rc, &probe, 10), answers(&mut oc, &probe, 10), "probe {i}");
    }
    recovered.shutdown();
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
