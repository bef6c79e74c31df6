//! Durable-server integration tests over real TCP loopback: acked
//! writes survive a restart (WAL replay and checkpoint paths),
//! idempotency keys deduplicate resent inserts, and a dead disk flips
//! the server into advertised read-only mode instead of killing it.

mod common;

use common::{poll_until, template, tmpdir, tri};

use std::sync::Arc;
use std::time::Duration;

use geosir_serve::wire::{error_code, Frame, WireError, WireShape};
use geosir_serve::{serve_durable, Client, DurabilityConfig, ServeConfig};
use geosir_storage::faults::{FaultKind, FaultPlan, FaultyFactory};
use geosir_storage::wal::FsyncPolicy;

use common::http_get;
use geosir_storage::faults::{FaultyIo, FileFactory, Io, IoFactory};

/// Acked writes survive shutdown + restart purely via WAL replay, and a
/// later restart goes through a checkpoint once enough records accrue.
#[test]
fn acked_writes_survive_restart_via_wal_and_checkpoint() {
    let dir = tmpdir("restart");
    let cfg = ServeConfig { workers: 1, ..Default::default() };
    let mut dcfg = DurabilityConfig::new(&dir);
    dcfg.fsync = FsyncPolicy::Always;
    dcfg.checkpoint_every = 20;

    // generation 1: fresh dir, insert 8 shapes and delete one.
    // `acked` holds (tri index, assigned id) for every write the server acked.
    let mut acked: Vec<(u64, u64)> = Vec::new();
    let deleted_id;
    {
        let (handle, report) =
            serve_durable("127.0.0.1:0", &template(), dcfg.clone(), cfg.clone()).unwrap();
        assert_eq!(report.replayed, 0);
        assert_eq!(report.checkpoint_shapes, 0);
        let mut c = Client::connect(handle.addr()).unwrap();
        for i in 0..8u64 {
            let (_, id) = c.insert_retrying(i as u32, &tri(i)).unwrap();
            acked.push((i, id));
        }
        deleted_id = acked.remove(3).1;
        assert_eq!(c.delete(deleted_id).unwrap().map(|(_, e)| e), Some(true));
        assert!(handle.stats().wal_appends >= 9);
        assert!(handle.stats().wal_syncs >= 9, "fsync=always must sync per batch");
        handle.shutdown();
        handle.join();
    }

    // generation 2: pure WAL replay (below the checkpoint threshold)
    {
        let (handle, report) =
            serve_durable("127.0.0.1:0", &template(), dcfg.clone(), cfg.clone()).unwrap();
        assert_eq!(report.checkpoint_shapes, 0, "no checkpoint yet");
        assert_eq!(report.replayed, 9, "8 inserts + 1 delete replayed");
        assert!(!report.truncated_tail, "clean shutdown leaves no torn tail");
        let mut c = Client::connect(handle.addr()).unwrap();
        for &(i, id) in &acked {
            let reply = c.query(&tri(i), 1).unwrap();
            assert!(
                reply.matches.iter().any(|m| m.shape == id),
                "shape {id} (tri {i}) lost across restart"
            );
        }
        let stats = c.stats().unwrap();
        assert_eq!(stats.live_shapes, 7);
        assert!(stats.last_recovery_us > 0);

        // push past checkpoint_every so the background checkpointer runs
        for i in 8..40u64 {
            let (_, id) = c.insert_retrying(i as u32, &tri(i)).unwrap();
            acked.push((i, id));
        }
        assert!(
            poll_until(Duration::from_secs(30), || handle.stats().checkpoints >= 1),
            "checkpointer never ran: {:?}",
            handle.stats()
        );
        handle.shutdown();
        handle.join();
    }

    // generation 3: recovery = checkpoint + short WAL tail
    {
        let (handle, report) =
            serve_durable("127.0.0.1:0", &template(), dcfg.clone(), cfg.clone()).unwrap();
        assert!(report.checkpoint_shapes > 0, "restart must load the checkpoint");
        assert!(
            report.replayed < acked.len(),
            "checkpoint must shorten replay ({} replayed)",
            report.replayed
        );
        let mut c = Client::connect(handle.addr()).unwrap();
        let stats = c.stats().unwrap();
        assert_eq!(stats.live_shapes, acked.len() as u64);
        // the tombstoned id must not have resurrected
        let reply = c.query(&tri(3), 5).unwrap();
        assert!(
            reply.matches.iter().all(|m| m.shape != deleted_id),
            "deleted shape came back from recovery"
        );
        // id watermark preserved: a fresh insert gets a brand-new id
        let (_, new_id) = c.insert_retrying(99, &tri(99)).unwrap();
        assert!(
            acked.iter().all(|&(_, id)| id != new_id) && new_id != deleted_id,
            "id {new_id} was reused after recovery"
        );
        handle.shutdown();
        handle.join();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Resending an insert with the same idempotency key must not
/// double-insert: the server re-acks the originally assigned id.
#[test]
fn duplicate_idempotency_key_is_deduplicated() {
    let dir = tmpdir("dedup");
    let (handle, _) = serve_durable(
        "127.0.0.1:0",
        &template(),
        DurabilityConfig::new(&dir),
        ServeConfig { workers: 1, ..Default::default() },
    )
    .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();

    let frame = Frame::Insert {
        image: 7,
        key: 0xDEAD_BEEF,
        trace: 0,
        shape: WireShape::from_polyline(&tri(1)),
    };
    let first = match c.request(&frame).unwrap() {
        Frame::Inserted { id, .. } => id,
        other => panic!("want Inserted, got {other:?}"),
    };
    // the "retry": same key, same payload
    let second = match c.request(&frame).unwrap() {
        Frame::Inserted { id, .. } => id,
        other => panic!("want Inserted, got {other:?}"),
    };
    assert_eq!(first, second, "duplicate key must re-ack the original id");
    assert_eq!(handle.stats().live_shapes, 1, "the shape must exist exactly once");

    // key 0 means "no key": two sends are two shapes
    let unkeyed =
        Frame::Insert { image: 8, key: 0, trace: 0, shape: WireShape::from_polyline(&tri(2)) };
    c.request(&unkeyed).unwrap();
    c.request(&unkeyed).unwrap();
    assert_eq!(handle.stats().live_shapes, 3);

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// A WAL whose disk dies mid-flight must flip the server to advertised
/// read-only mode: writes refused with READ_ONLY, queries still served,
/// process alive.
#[test]
fn dead_wal_disk_degrades_to_read_only_not_a_crash() {
    let dir = tmpdir("deaddisk");
    let mut dcfg = DurabilityConfig::new(&dir);
    // segment creation costs a few ops (magic + syncs); let a handful of
    // appends through, then everything fails persistently
    dcfg.io_factory = Some(Arc::new(FaultyFactory { plan: FaultPlan::dead_disk_from(8) }));
    let (handle, _) = serve_durable(
        "127.0.0.1:0",
        &template(),
        dcfg,
        ServeConfig { workers: 1, ..Default::default() },
    )
    .unwrap();
    let mut c = Client::connect(handle.addr()).unwrap();

    // write until the fault fires
    let mut acked = 0u64;
    let mut refused = false;
    for i in 0..32u64 {
        match c.insert(i as u32, &tri(i)) {
            Ok(Some(_)) => acked += 1,
            Err(WireError::Server { code, .. }) => {
                assert_eq!(code, error_code::READ_ONLY);
                refused = true;
                break;
            }
            other => panic!("unexpected insert outcome: {other:?}"),
        }
    }
    assert!(refused, "the dead disk never surfaced as READ_ONLY ({acked} acked)");
    assert!(handle.is_read_only());

    // queries keep working against the last published snapshot
    let reply = c.query(&tri(0), 1).unwrap();
    assert!(!reply.rejected);
    assert_eq!(reply.matches.is_empty(), acked == 0);
    let stats = c.stats().unwrap();
    assert_eq!(stats.read_only, 1);
    assert!(stats.io_errors >= 1);

    // later writes are refused immediately, still no crash
    match c.insert(500, &tri(500)) {
        Err(WireError::Server { code, .. }) => assert_eq!(code, error_code::READ_ONLY),
        other => panic!("read-only server accepted a write: {other:?}"),
    }

    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Short writes (torn records) from the fault layer surface as a
/// truncated-but-recovered WAL on the next start, at the last acked LSN
/// the disk actually took.
#[test]
fn torn_wal_tail_recovers_to_last_valid_record() {
    let dir = tmpdir("torn");
    // run 1: a disk that starts short-writing persistently partway in
    {
        let mut dcfg = DurabilityConfig::new(&dir);
        dcfg.io_factory =
            Some(Arc::new(FaultyFactory { plan: FaultPlan::new(FaultKind::ShortWrite, 10, true) }));
        let (handle, _) = serve_durable(
            "127.0.0.1:0",
            &template(),
            dcfg,
            ServeConfig { workers: 1, ..Default::default() },
        )
        .unwrap();
        let mut c = Client::connect(handle.addr()).unwrap();
        for i in 0..24u64 {
            // fsync=always: the torn append errors the batch and flips
            // read-only at some point — both outcomes are fine here
            if c.insert(i as u32, &tri(i)).is_err() {
                break;
            }
        }
        handle.shutdown();
        handle.join();
    }
    // run 2: recovery must truncate the torn tail, not refuse to start
    let (handle, report) = serve_durable(
        "127.0.0.1:0",
        &template(),
        DurabilityConfig::new(&dir),
        ServeConfig { workers: 1, ..Default::default() },
    )
    .unwrap();
    assert!(report.truncated_tail, "the short write must appear as a torn tail");
    assert!(report.dropped_bytes > 0);
    let mut c = Client::connect(handle.addr()).unwrap();
    let stats = c.stats().unwrap();
    assert_eq!(stats.live_shapes, report.replayed as u64, "replay and state agree");
    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// The signature index is derived state: it must be rebuilt from the
/// WAL/checkpoint on restart, so approximate queries keep answering —
/// with the approx tier, not the exact fallback — after recovery.
#[test]
fn approx_queries_survive_restart() {
    let dir = tmpdir("approx-restart");
    let cfg = ServeConfig { workers: 1, ..Default::default() };
    let mut dcfg = DurabilityConfig::new(&dir);
    dcfg.fsync = FsyncPolicy::Always;
    dcfg.checkpoint_every = 10;

    let mut acked: Vec<(u64, u64)> = Vec::new();
    {
        let (handle, _) =
            serve_durable("127.0.0.1:0", &template(), dcfg.clone(), cfg.clone()).unwrap();
        let mut c = Client::connect(handle.addr()).unwrap();
        // 24 inserts: enough to overflow the buffer (cap 8) into levels
        // and to cross checkpoint_every, so recovery exercises both the
        // checkpoint load and the WAL tail replay.
        for i in 0..24u64 {
            let (_, id) = c.insert_retrying(i as u32, &tri(i)).unwrap();
            acked.push((i, id));
        }
        // sanity: approx answers before the restart
        let reply = c.similar_approx(&tri(0), 3, 0, 0).unwrap();
        assert!(reply.matches.iter().any(|m| m.shape == acked[0].1));
        assert!(
            poll_until(Duration::from_secs(30), || handle.stats().checkpoints >= 1),
            "checkpointer never ran"
        );
        handle.shutdown();
        handle.join();
    }

    {
        let (handle, report) =
            serve_durable("127.0.0.1:0", &template(), dcfg.clone(), cfg.clone()).unwrap();
        assert!(report.checkpoint_shapes > 0, "restart must load the checkpoint");
        let mut c = Client::connect(handle.addr()).unwrap();
        for &(i, id) in &acked {
            let reply = c.similar_approx(&tri(i), 3, 0, 0).unwrap();
            assert!(!reply.rejected);
            assert!(
                reply.matches.iter().any(|m| m.shape == id),
                "shape {id} (tri {i}) missing from approx results after restart"
            );
            assert_eq!(
                reply.tier,
                geosir_core::AnswerTier::Approx,
                "recovered signature index must answer, not the exact fallback"
            );
        }
        handle.shutdown();
        handle.join();
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Checkpoint pages go through the same `Io` as the WAL. A disk that
/// refuses every checkpoint append, and nothing else, must cost three
/// journaled `checkpoint.fail`s and flip the node read-only — the
/// checkpointer's three strikes — while reads keep working and a
/// restart replays every acked write from the WAL.
#[test]
fn failing_checkpoint_appends_flip_read_only_after_three_strikes() {
    /// Real WAL segments; checkpoint pages (`ckpt-….tmp`) through the plan.
    struct CheckpointsThrough(Arc<FaultPlan>);
    impl IoFactory for CheckpointsThrough {
        fn create(&self, path: &std::path::Path) -> std::io::Result<Box<dyn Io>> {
            let file = FileFactory.create(path)?;
            Ok(match path.extension() {
                Some(ext) if ext == "tmp" => Box::new(FaultyIo::new(file, self.0.clone())),
                _ => file,
            })
        }
    }

    let dir = tmpdir("ckpt-strikes");
    let plan = FaultPlan::dead_disk_from(0);
    let mut dcfg = DurabilityConfig::new(&dir);
    dcfg.checkpoint_every = 4;
    dcfg.io_factory = Some(Arc::new(CheckpointsThrough(plan.clone())));
    let cfg = ServeConfig {
        workers: 1,
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..Default::default()
    };
    let mut acked = Vec::new();
    {
        let (handle, _) = serve_durable("127.0.0.1:0", &template(), dcfg, cfg).unwrap();
        let mut c = Client::connect(handle.addr()).unwrap();
        for i in 0..4u64 {
            acked.push((i, c.insert_retrying(i as u32, &tri(i)).unwrap().1));
        }
        assert!(
            poll_until(Duration::from_secs(30), || handle.is_read_only()),
            "three failed checkpoints never flipped read-only: {:?}",
            handle.stats()
        );
        let (_, journal) = http_get(handle.metrics_addr().unwrap(), "/debug/journal");
        assert_eq!(journal.matches("checkpoint.fail").count(), 3, "{journal}");
        assert!(!journal.contains("checkpoint.done"), "{journal}");
        assert!(plan.fired() >= 3);

        match c.insert(100, &tri(100)) {
            Err(WireError::Server { code, .. }) => assert_eq!(code, error_code::READ_ONLY),
            other => panic!("read-only server accepted a write: {other:?}"),
        }
        for &(i, id) in &acked {
            let reply = c.query(&tri(i), 1).unwrap();
            assert!(reply.matches.iter().any(|m| m.shape == id), "read of shape {id} failed");
        }
        let stats = c.stats().unwrap();
        assert_eq!((stats.read_only, stats.checkpoints), (1, 0));
        handle.shutdown();
        handle.join();
    }

    // no checkpoint was installed, so the WAL alone restores every ack
    let (handle, report) = serve_durable(
        "127.0.0.1:0",
        &template(),
        DurabilityConfig::new(&dir),
        ServeConfig { workers: 1, ..Default::default() },
    )
    .unwrap();
    assert_eq!((report.checkpoint_shapes, report.replayed), (0, acked.len()));
    // each failed write removed its `.tmp`, and recovery removes any left
    let names = dir_names(&dir);
    assert!(names.iter().all(|n| !n.starts_with("ckpt-")), "{names:?}");
    let mut c = Client::connect(handle.addr()).unwrap();
    assert_eq!(c.stats().unwrap().live_shapes, acked.len() as u64);
    for &(i, id) in &acked {
        let reply = c.query(&tri(i), 1).unwrap();
        assert!(reply.matches.iter().any(|m| m.shape == id), "acked shape {id} lost");
    }
    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}

/// Every name in `dir`, sorted.
fn dir_names(dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    names
}

/// Only the newest checkpoint is kept: after six checkpoints the data
/// dir holds one `ckpt-*.gsir` beside the WAL and the journal (no older
/// checkpoint, no `.tmp`, no pointer file), and a restart from it
/// recovers every acked write.
#[test]
fn checkpoints_retire_their_predecessors() {
    let dir = tmpdir("retire");
    let cfg = ServeConfig { workers: 1, ..Default::default() };
    let mut dcfg = DurabilityConfig::new(&dir);
    dcfg.checkpoint_every = 4;
    let mut acked = Vec::new();
    {
        let (handle, _) =
            serve_durable("127.0.0.1:0", &template(), dcfg.clone(), cfg.clone()).unwrap();
        let mut c = Client::connect(handle.addr()).unwrap();
        for round in 1..=6u64 {
            for i in (round - 1) * 5..round * 5 {
                acked.push((i, c.insert_retrying(i as u32, &tri(i)).unwrap().1));
            }
            assert!(
                poll_until(Duration::from_secs(30), || handle.stats().checkpoints >= round),
                "checkpoint {round} never ran: {:?}",
                handle.stats()
            );
        }
        let gone = acked.remove(7).1;
        assert_eq!(c.delete(gone).unwrap().map(|(_, e)| e), Some(true));
        let names = dir_names(&dir);
        let checkpoints: Vec<_> = names.iter().filter(|n| n.starts_with("ckpt-")).collect();
        assert!(
            checkpoints.len() == 1 && checkpoints[0].ends_with(".gsir"),
            "six checkpoints left {names:?}"
        );
        assert!(
            names.iter().all(|n| n.starts_with("ckpt-") || n.starts_with("wal-") || n == "journal"),
            "{names:?}"
        );
        handle.shutdown();
        handle.join();
    }
    let (handle, report) = serve_durable("127.0.0.1:0", &template(), dcfg, cfg).unwrap();
    assert!(report.checkpoint_shapes >= 25, "{report:?}");
    let mut c = Client::connect(handle.addr()).unwrap();
    assert_eq!(c.stats().unwrap().live_shapes, acked.len() as u64);
    for &(i, id) in &acked {
        let reply = c.query(&tri(i), 1).unwrap();
        assert!(reply.matches.iter().any(|m| m.shape == id), "acked shape {id} lost");
    }
    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).ok();
}
