//! The single writer (a replica's follower) and the checkpointer. The
//! writer pops a batch of write jobs, plans it without touching state,
//! logs it (durable nodes), applies it, publishes one snapshot, and only
//! then replies. The checkpointer rotates the log every
//! `checkpoint_every` logged records, serializes the published snapshot
//! that covers the closed segments, and prunes them.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use geosir_core::dynamic::{DynamicBase, GlobalShapeId, Snapshot};
use geosir_core::ImageId;
use geosir_geom::Polyline;
use geosir_obs as obs;
use geosir_storage::checkpoint;
use geosir_storage::wal::{Lsn, WalRecord};

use super::{bad_shape, Job, Published, Shared};
use crate::metrics::Metrics;
use crate::repl::{self, Follower};
use crate::wire::{error_code, Frame};

/// Writer-thread state beyond the base itself.
pub(super) struct WriterCtx {
    /// Next `GlobalShapeId` to assign (pre-assigned so the WAL record
    /// can be written before the base is touched).
    pub(super) next_id: u64,
    /// Idempotency key → assigned id, bounded FIFO eviction.
    pub(super) dedup: HashMap<u64, u64>,
    pub(super) dedup_order: VecDeque<u64>,
}

/// Bound on remembered idempotency keys — enough to cover any plausible
/// retry window without growing without limit.
const DEDUP_CAP: usize = 8192;

impl WriterCtx {
    fn remember(&mut self, key: u64, id: u64) {
        if key == 0 {
            return;
        }
        if self.dedup.insert(key, id).is_none() {
            self.dedup_order.push_back(key);
            while self.dedup_order.len() > DEDUP_CAP {
                if let Some(old) = self.dedup_order.pop_front() {
                    self.dedup.remove(&old);
                }
            }
        }
    }
}

/// One planned mutation (or its immediate refusal).
#[derive(Debug)]
enum Act {
    Reply(Frame),
    /// Duplicate idempotency key: re-ack the original id, no mutation.
    /// `same_batch` marks a duplicate of an Insert planned earlier in
    /// the *current* batch — not yet logged or applied — whose ack must
    /// be withdrawn together with the original's if the batch's WAL
    /// append fails.
    DupInsert { id: u64, same_batch: bool },
    Insert { key: u64, id: u64, image: u32, poly: Polyline },
    Delete { id: u64 },
}

/// Plan a batch of write frames: validate, dedup, and pre-assign ids
/// without touching the base, so every mutation can hit the WAL before
/// any state does. Idempotency keys are checked against the long-lived
/// dedup map **and** the keys planned earlier in this same batch — a
/// retried Insert landing in the same batch as its original becomes a
/// `DupInsert` re-acking the original's pre-assigned id instead of
/// double-inserting.
fn plan_batch<'a>(
    frames: impl Iterator<Item = &'a Frame>,
    ctx: &mut WriterCtx,
    read_only: bool,
    metrics: &Metrics,
) -> Vec<Act> {
    let mut batch_keys: HashMap<u64, u64> = HashMap::new();
    let mut acts = Vec::new();
    for frame in frames {
        let act = match frame {
            Frame::Insert { image, key, shape, .. } => {
                metrics.inserts.inc();
                if read_only {
                    Act::Reply(read_only_reply())
                } else if let Some(&id) = ctx.dedup.get(key).filter(|_| *key != 0) {
                    Act::DupInsert { id, same_batch: false }
                } else if let Some(&id) = batch_keys.get(key).filter(|_| *key != 0) {
                    Act::DupInsert { id, same_batch: true }
                } else {
                    match shape.to_polyline() {
                        Some(poly) => {
                            let id = ctx.next_id;
                            ctx.next_id += 1;
                            if *key != 0 {
                                batch_keys.insert(*key, id);
                            }
                            Act::Insert { key: *key, id, image: *image, poly }
                        }
                        None => Act::Reply(bad_shape()),
                    }
                }
            }
            Frame::Delete { id } => {
                metrics.deletes.inc();
                if read_only {
                    Act::Reply(read_only_reply())
                } else {
                    Act::Delete { id: *id }
                }
            }
            _ => Act::Reply(Frame::Error {
                code: error_code::UNEXPECTED_FRAME,
                message: "read frame on write queue".into(),
            }),
        };
        acts.push(act);
    }
    acts
}

/// After a failed WAL append, withdraw every act that depended on this
/// batch reaching the log: the mutations themselves, plus same-batch
/// duplicates whose original insert was just refused. Cross-batch
/// duplicates keep their re-ack — their original is already durable.
fn refuse_unlogged(acts: &mut [Act]) {
    for act in acts.iter_mut() {
        if matches!(
            act,
            Act::Insert { .. } | Act::Delete { .. } | Act::DupInsert { same_batch: true, .. }
        ) {
            *act = Act::Reply(read_only_reply());
        }
    }
}

fn read_only_reply() -> Frame {
    Frame::Error {
        code: error_code::READ_ONLY,
        message: "server is in degraded read-only mode (persistent I/O failure)".into(),
    }
}

pub(super) fn writer_loop(mut base: DynamicBase, mut ctx: WriterCtx, shared: &Arc<Shared>) {
    let m = &shared.metrics;
    const MAX_BATCH: usize = 64;
    let mut rec = obs::RequestRecord::default();
    let mut batch: Vec<Job> = Vec::with_capacity(MAX_BATCH);
    // batch whatever is already queued (bounded), log, apply, publish
    // once, then reply — so replies always describe durable, published
    // state
    while shared.write_queue.pop_batch(MAX_BATCH, &mut batch) {

        let batch_started = Instant::now();
        // Heartbeat for the WAL-writer watchdog: the busy marker covers
        // log + apply + publish + reply; it is cleared before the next
        // blocking pop, so an idle writer never looks stalled.
        shared.health.wal_begin();
        let read_only = shared.is_read_only();
        let mut acts =
            plan_batch(batch.iter().map(|j| &j.frame), &mut ctx, read_only, &shared.metrics);

        // Log: append every mutation and commit (fsync per policy)
        // BEFORE applying or acking. A failure here flips the server
        // read-only and refuses the whole batch — nothing un-logged is
        // ever acked or published.
        let mut logged = 0u64;
        let mut wal_us = 0u64;
        if let Some(d) = &shared.durable {
            let has_mutation =
                acts.iter().any(|a| matches!(a, Act::Insert { .. } | Act::Delete { .. }));
            if has_mutation {
                let started = Instant::now();
                let mut wal = d.wal.lock().unwrap();
                let res = (|| {
                    for act in &acts {
                        let rec = match act {
                            Act::Insert { key, id, image, poly } => WalRecord::Insert {
                                key: *key,
                                id: *id,
                                image: *image,
                                closed: poly.is_closed(),
                                points: poly.points().iter().map(|p| (p.x, p.y)).collect(),
                            },
                            Act::Delete { id } => WalRecord::Delete { id: *id },
                            Act::Reply(_) | Act::DupInsert { .. } => continue,
                        };
                        let appended = Instant::now();
                        wal.append(&rec)?;
                        m.wal().append_us.record_duration(appended.elapsed());
                        m.wal().appends.inc();
                        logged += 1;
                    }
                    wal.commit()
                })();
                drop(wal);
                wal_us = started.elapsed().as_micros() as u64;
                m.record_stage("wal", wal_us);
                match res {
                    Ok(fsync) => {
                        if let Some(dur) = fsync {
                            m.wal().synced(dur);
                        }
                        d.records_since_ckpt.fetch_add(logged, Ordering::Relaxed);
                    }
                    Err(e) => {
                        // degraded mode: refuse this batch and all future
                        // writes; queries keep serving the last snapshot
                        shared.metrics.io_errors.inc();
                        d.read_only.store(true, Ordering::SeqCst);
                        shared.metrics.registry.journal().emit(
                            obs::JournalEvent::new(obs::Severity::Error, "wal.append_error")
                                .with("error", e)
                                .with("batch", logged),
                        );
                        refuse_unlogged(&mut acts);
                    }
                }
                // acked writes are on the log (fsynced per policy) past
                // this point; a crash here must lose nothing acked
                geosir_storage::faults::crash_if_armed("wal.post-append");
            }
        }

        // Apply + reply.
        let mut applied = false;
        let mut replies = Vec::with_capacity(acts.len());
        for act in acts {
            let reply = match act {
                Act::Reply(f) => f,
                Act::DupInsert { id, .. } => Frame::Inserted { epoch: base.epoch(), id },
                Act::Insert { key, id, image, poly } => {
                    base.insert_with_id(GlobalShapeId(id), ImageId(image), poly);
                    ctx.remember(key, id);
                    applied = true;
                    Frame::Inserted { epoch: base.epoch(), id }
                }
                Act::Delete { id } => {
                    let existed = base.delete(GlobalShapeId(id));
                    applied = true;
                    Frame::Deleted { epoch: base.epoch(), existed }
                }
            };
            if let Some(rebuild) = base.last_rebuild.take() {
                m.record_rebuild(rebuild);
            }
            replies.push(reply);
        }
        let mut publish_us = 0u64;
        if applied {
            let wal_lsn = shared
                .durable
                .as_ref()
                .map(|d| d.wal.lock().unwrap().next_lsn().saturating_sub(1))
                .unwrap_or(0);
            publish_us = publish(shared, &base, wal_lsn);
        }
        let batch_len = batch.len() as u64;
        for (job, reply) in batch.drain(..).zip(replies) {
            let kind = if matches!(job.frame, Frame::Insert { .. }) {
                obs::RequestKind::Insert
            } else {
                obs::RequestKind::Delete
            };
            rec.begin(kind, job.trace());
            rec.total_us = job.enqueued.elapsed().as_micros() as u64;
            rec.queue_us = batch_started.duration_since(job.enqueued).as_micros() as u64;
            rec.epoch = base.epoch();
            // queue_wait is per job; wal and publish are shared by the
            // whole batch (that is what the client actually waited on)
            rec.stage("queue_wait", rec.queue_us)
                .stage("wal", wal_us)
                .stage("publish", publish_us)
                .note("batch", batch_len);
            shared.metrics.registry.record_request(&mut rec);
            shared.metrics.requests.inc();
            shared.metrics.latency_write.record(rec.total_us);
            job.reply.send(reply);
        }
        shared.health.wal_end();
    }
    // graceful shutdown: force the tail to disk whatever the policy
    if let Some(d) = &shared.durable {
        let mut wal = d.wal.lock().unwrap();
        let started = Instant::now();
        if wal.sync().is_ok() {
            m.wal().synced(started.elapsed());
        }
    }
}

/// Publish `base`, which holds the log through `wal_lsn`; returns µs.
fn publish(shared: &Shared, base: &DynamicBase, wal_lsn: Lsn) -> u64 {
    let started = Instant::now();
    let snap = Arc::new(base.snapshot());
    *shared.published.write().unwrap() = Published { snap, wal_lsn };
    *shared.last_publish.lock().unwrap() = Instant::now();
    let us = started.elapsed().as_micros() as u64;
    shared.metrics.record_stage("publish", us);
    shared.metrics.publish.record(us);
    shared.metrics.snapshots_published.inc();
    us
}

/// A replica's writer slot: a follower tick and a publish every 10 ms.
pub(super) fn follow_loop(mut base: DynamicBase, mut follower: Follower, shared: &Arc<Shared>) {
    while !shared.is_shutdown() {
        if let Some(lsn) = follower.tick(&mut base, &shared.metrics) {
            publish(shared, &base, lsn);
        }
        std::thread::sleep(repl::INTERVAL);
    }
}

/// The checkpointer's tick: how often it looks at the count of WAL
/// records since the last checkpoint, and how quickly it notices
/// shutdown.
const CHECKPOINT_POLL: Duration = Duration::from_millis(50);

/// How long the checkpointer waits for the writer to publish the LSN it
/// rotated the WAL at; a writer that has not by then (stalled, or gone
/// read-only) gets the newest published snapshot checkpointed instead.
const ROTATION_WAIT: Duration = Duration::from_millis(500);

/// The published snapshot and the LSN it holds the log through, once
/// that LSN reaches `lsn` — or whatever is published when the writer has
/// not got there within [`ROTATION_WAIT`].
fn published_through(shared: &Shared, lsn: Lsn) -> (Arc<Snapshot>, Lsn) {
    let waited = Instant::now();
    loop {
        {
            let p = shared.published.read().unwrap();
            let gave_up = waited.elapsed() >= ROTATION_WAIT || shared.is_read_only();
            if p.wal_lsn >= lsn || gave_up || shared.is_shutdown() {
                return (p.snap.clone(), p.wal_lsn);
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Background checkpointer: every `checkpoint_every` logged records,
/// rotate the WAL, stream the published snapshot that covers the closed
/// segments into `ckpt-<lsn>.gsir`, retire every other checkpoint and
/// prune the covered segments, so only the active one is left.
/// Persistent failure (3 consecutive) flips the server read-only.
pub(super) fn checkpointer_loop(shared: &Arc<Shared>) {
    let m = &shared.metrics;
    let Some(d) = &shared.durable else { return };
    let mut consecutive_failures = 0u32;
    while !shared.is_shutdown() {
        std::thread::sleep(CHECKPOINT_POLL);
        let pending = d.records_since_ckpt.load(Ordering::Relaxed);
        if pending < d.checkpoint_every || shared.is_read_only() {
            continue;
        }
        // ordering: rotate → install → retire → prune. Rotating first
        // closes the segments at `rotated`, so the records appended while
        // the checkpoint is written land in the active segment and the
        // prune can delete every closed one. A crash between any two
        // steps recovers correctly: before the rename the old checkpoint
        // with the whole WAL; after it the new one (the highest LSN on
        // disk) with not-yet-pruned segments whose covered records replay
        // as no-ops.
        let rotated = {
            let mut wal = d.wal.lock().unwrap();
            wal.rotate().map(|()| wal.next_lsn().saturating_sub(1))
        };
        let mut lsn = 0;
        let result = rotated.and_then(|rotated| {
            m.wal().rotations.inc();
            // consistent pair: this snapshot contains exactly the effects
            // of records ≤ lsn, so replay after it starts at lsn + 1
            let snap;
            (snap, lsn) = published_through(shared, rotated);
            if lsn <= d.last_ckpt_lsn.load(Ordering::Relaxed) {
                return Ok(None);
            }
            // The frames stream straight from the snapshot's shapes,
            // through the WAL's `Io`.
            let shapes = snap.walk_live_shapes();
            let started = Instant::now();
            let path = checkpoint::path(&d.data_dir, lsn);
            let written =
                checkpoint::write_shapes(&path, &*d.io, snap.epoch(), snap.next_id(), shapes)?;
            m.record_checkpoint(written, started.elapsed());
            geosir_storage::faults::crash_if_armed("checkpoint.retire");
            checkpoint::retire(&d.data_dir, lsn)?;
            let pruned = d.wal.lock().unwrap().prune_up_to(lsn)?;
            m.wal().pruned_segments.add(pruned as u64);
            Ok(Some(rotated))
        });
        let journal = shared.metrics.registry.journal();
        match result {
            Ok(None) => {}
            Ok(Some(rotated)) => {
                shared.metrics.checkpoints.inc();
                d.records_since_ckpt.fetch_sub(pending, Ordering::Relaxed);
                d.last_ckpt_lsn.store(lsn, Ordering::Relaxed);
                consecutive_failures = 0;
                journal.emit(
                    obs::JournalEvent::new(obs::Severity::Info, "checkpoint.done")
                        .with("lsn", lsn)
                        .with("records", pending),
                );
                journal.emit(
                    obs::JournalEvent::new(obs::Severity::Info, "wal.rotate")
                        .with("through", rotated),
                );
            }
            Err(e) => {
                shared.metrics.checkpoint_failures.inc();
                shared.metrics.io_errors.inc();
                consecutive_failures += 1;
                journal.emit(
                    obs::JournalEvent::new(obs::Severity::Warn, "checkpoint.fail")
                        .with("lsn", lsn)
                        .with("consecutive", consecutive_failures)
                        .with("error", e),
                );
                if consecutive_failures >= 3 {
                    d.read_only.store(true, Ordering::SeqCst);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_ctx_dedup_is_bounded_fifo() {
        let mut ctx = WriterCtx {
            next_id: 0,
            dedup: HashMap::new(),
            dedup_order: VecDeque::new(),
        };
        ctx.remember(0, 99); // key 0 = "no key": never remembered
        assert!(ctx.dedup.is_empty());
        for k in 1..=(DEDUP_CAP as u64 + 10) {
            ctx.remember(k, k + 1000);
        }
        assert_eq!(ctx.dedup.len(), DEDUP_CAP);
        assert!(!ctx.dedup.contains_key(&1), "oldest keys evicted");
        assert_eq!(ctx.dedup.get(&(DEDUP_CAP as u64 + 10)), Some(&(DEDUP_CAP as u64 + 1010)));
        // re-remembering an existing key must not double-queue it
        let len = ctx.dedup_order.len();
        ctx.remember(DEDUP_CAP as u64 + 10, 7);
        assert_eq!(ctx.dedup_order.len(), len);
    }

    fn fresh_ctx(next_id: u64) -> WriterCtx {
        WriterCtx { next_id, dedup: HashMap::new(), dedup_order: VecDeque::new() }
    }

    fn keyed_insert(key: u64) -> Frame {
        let poly = Polyline::closed(vec![
            geosir_geom::Point::new(0.0, 0.0),
            geosir_geom::Point::new(3.0, 0.2),
            geosir_geom::Point::new(1.5, 2.0),
        ])
        .unwrap();
        Frame::Insert { image: 1, key, trace: 0, shape: crate::wire::WireShape::from_polyline(&poly) }
    }

    /// A retried Insert landing in the same writer batch as its original
    /// must dedup against the original's pre-assigned id — the long-lived
    /// map is only updated at apply time, so the batch itself has to
    /// remember what it planned.
    #[test]
    fn same_batch_duplicate_key_plans_as_dup_insert() {
        let mut ctx = fresh_ctx(5);
        let m = Metrics::default();
        let frames = [keyed_insert(42), keyed_insert(42), keyed_insert(0), keyed_insert(0)];
        let acts = plan_batch(frames.iter(), &mut ctx, false, &m);
        assert!(matches!(acts[0], Act::Insert { id: 5, key: 42, .. }));
        assert!(
            matches!(acts[1], Act::DupInsert { id: 5, same_batch: true }),
            "second occurrence must re-ack the first's pre-assigned id"
        );
        // key 0 means "no key": both are real inserts
        assert!(matches!(acts[2], Act::Insert { id: 6, .. }));
        assert!(matches!(acts[3], Act::Insert { id: 7, .. }));
        assert_eq!(ctx.next_id, 8, "exactly three ids consumed");
    }

    #[test]
    fn cross_batch_duplicate_still_wins_over_batch_scan() {
        let mut ctx = fresh_ctx(10);
        ctx.remember(42, 3); // key 42 already applied as id 3 in an earlier batch
        let m = Metrics::default();
        let acts = plan_batch([keyed_insert(42)].iter(), &mut ctx, false, &m);
        assert!(matches!(acts[0], Act::DupInsert { id: 3, same_batch: false }));
        assert_eq!(ctx.next_id, 10, "no id consumed for a known key");
    }

    /// When the batch's WAL append fails, same-batch duplicates must be
    /// withdrawn with their original (it was never logged or applied),
    /// while cross-batch duplicates keep re-acking their durable original.
    #[test]
    fn refuse_unlogged_withdraws_same_batch_dups_only() {
        let mut acts = vec![
            Act::DupInsert { id: 3, same_batch: false },
            Act::Insert {
                key: 42,
                id: 5,
                image: 1,
                poly: Polyline::closed(vec![
                    geosir_geom::Point::new(0.0, 0.0),
                    geosir_geom::Point::new(3.0, 0.2),
                    geosir_geom::Point::new(1.5, 2.0),
                ])
                .unwrap(),
            },
            Act::DupInsert { id: 5, same_batch: true },
            Act::Delete { id: 1 },
        ];
        refuse_unlogged(&mut acts);
        assert!(
            matches!(acts[0], Act::DupInsert { id: 3, same_batch: false }),
            "a dup of an already-durable insert keeps its ack"
        );
        for (i, act) in acts.iter().enumerate().skip(1) {
            match act {
                Act::Reply(Frame::Error { code, .. }) => assert_eq!(*code, error_code::READ_ONLY),
                other => panic!("act {i} must be withdrawn, got {other:?}"),
            }
        }
    }
}
