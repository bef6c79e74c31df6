//! Durability configuration and startup recovery.
//!
//! The durable server keeps three kinds of state in one data directory:
//!
//! - `wal-<lsn>.log` segments — every acked Insert/Delete, appended (and
//!   fsynced, per policy) **before** the ack ([`geosir_storage::wal`]);
//! - `ckpt-<lsn>.gsir` — whole-base checkpoints through the 1 KB page
//!   store ([`geosir_storage::checkpoint`]);
//! - `MANIFEST` — the crash-safe pointer naming the checkpoint and the
//!   last LSN it covers ([`geosir_storage::manifest`]).
//!
//! [`recover`] inverts that: load the manifest's checkpoint (if any),
//! rebuild the base with one bulk load, replay the WAL tail with
//! `lsn > manifest.last_lsn` idempotently, and open a fresh segment for
//! new writes. A torn WAL tail truncates (the records past the tear were
//! never acked under `fsync=always`) and is then **repaired on disk**
//! ([`wal::repair`]) before the fresh segment opens — otherwise the next
//! restart would stop at the same tear and skip the newer segment's
//! acked records. A corrupt checkpoint, a tear anywhere but the final
//! segment, or a replayed insert that no longer reconstructs a valid
//! shape are real errors — the manifest only ever names fully-fsynced
//! checkpoints and the writer only logs validated shapes, so damage
//! there is bit rot or a logic bug, never a crash artifact, and
//! starting up with silently missing acked data would break the
//! durability contract.

use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use geosir_core::dynamic::{DynamicBase, GlobalShapeId};
use geosir_core::matcher::MatchConfig;
use geosir_core::ImageId;
use geosir_geom::rangesearch::Backend;
use geosir_geom::{Point, Polyline};
use geosir_storage::checkpoint;
use geosir_storage::faults::IoFactory;
use geosir_storage::manifest::Manifest;
use geosir_storage::wal::{self, FsyncPolicy, Lsn, Wal, WalRecord};

/// Where and how hard to persist.
#[derive(Clone)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments, checkpoints, and the manifest.
    pub data_dir: PathBuf,
    /// When acked records are forced to stable storage.
    pub fsync: FsyncPolicy,
    /// WAL records between checkpoints.
    pub checkpoint_every: u64,
    /// Injectable WAL segment-file factory — the fault-injection tests
    /// pass a [`geosir_storage::faults::FaultyFactory`]; `None` uses
    /// real files.
    pub io_factory: Option<Arc<dyn IoFactory>>,
    /// Injectable factory for the lifecycle journal's rotating JSONL
    /// (separate from the WAL's so a stalled log never implies a lost
    /// journal and vice versa); `None` uses real files.
    pub journal_io: Option<Arc<dyn IoFactory>>,
}

impl std::fmt::Debug for DurabilityConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityConfig")
            .field("data_dir", &self.data_dir)
            .field("fsync", &self.fsync)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("io_factory", &self.io_factory.is_some())
            .field("journal_io", &self.journal_io.is_some())
            .finish()
    }
}

impl DurabilityConfig {
    pub fn new(data_dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::Always,
            checkpoint_every: 1024,
            io_factory: None,
            journal_io: None,
        }
    }
}

/// Parameters to construct the (empty) dynamic base — recovery needs
/// them because the base itself is rebuilt from checkpoint + WAL, but
/// its tuning is configuration, not data.
#[derive(Debug, Clone)]
pub struct BaseTemplate {
    pub alpha: f64,
    /// Read by nothing in the product — a dynamic level has no
    /// range-search index to pick a backend for. It stays because
    /// `benchmark/` builds this struct and reads the field for its own
    /// static twin, and goes with the next change to `benchmark/`.
    pub backend: Backend,
    pub config: MatchConfig,
    pub buffer_cap: usize,
}

impl BaseTemplate {
    pub fn empty_base(&self) -> DynamicBase {
        DynamicBase::new(self.alpha, self.config.clone(), self.buffer_cap)
    }
}

/// What startup recovery found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Last LSN the loaded checkpoint covered (0 = started fresh).
    pub checkpoint_lsn: Lsn,
    /// Shapes restored from the checkpoint.
    pub checkpoint_shapes: usize,
    /// WAL records replayed on top of the checkpoint.
    pub replayed: usize,
    /// True when the WAL ended in a torn/corrupt record that was
    /// truncated (the expected shape of a crash).
    pub truncated_tail: bool,
    /// Bytes dropped past the truncation point.
    pub dropped_bytes: usize,
    /// Highest LSN in the recovered state.
    pub last_lsn: Lsn,
    /// Wall time recovery took, microseconds.
    pub recovery_us: u64,
}

/// Everything [`recover`] hands the server.
pub(crate) struct Recovered {
    pub base: DynamicBase,
    pub wal: Wal,
    /// Highest LSN applied to `base` (new appends start above it).
    pub applied_lsn: Lsn,
    /// Idempotency keys re-seeded from replayed inserts: key → assigned id.
    pub dedup: HashMap<u64, u64>,
    pub report: RecoveryReport,
}

fn persist_err(e: geosir_storage::file_disk::PersistError) -> io::Error {
    match e {
        geosir_storage::file_disk::PersistError::Io(e) => e,
        other => io::Error::other(other),
    }
}

/// Rebuild the base from `cfg.data_dir`: manifest → checkpoint → WAL
/// tail, then open a fresh WAL segment for new writes.
pub(crate) fn recover(template: &BaseTemplate, cfg: &DurabilityConfig) -> io::Result<Recovered> {
    let t0 = Instant::now();
    std::fs::create_dir_all(&cfg.data_dir)?;
    let mut report = RecoveryReport::default();

    let manifest = Manifest::load(&cfg.data_dir).map_err(persist_err)?;
    let (mut base, after_lsn) = match &manifest {
        Some(m) => {
            let data = checkpoint::read(&cfg.data_dir.join(&m.checkpoint)).map_err(persist_err)?;
            report.checkpoint_lsn = m.last_lsn;
            report.checkpoint_shapes = data.shapes.len();
            let base = DynamicBase::restore(
                template.alpha,
                template.config.clone(),
                template.buffer_cap,
                data.shapes,
                data.next_id,
                data.epoch,
            );
            (base, m.last_lsn)
        }
        None => (template.empty_base(), 0),
    };

    let (records, tail) = wal::replay(&cfg.data_dir, after_lsn)?;
    // Truncate the tear on disk NOW, before the fresh segment opens:
    // a later restart must walk this segment cleanly and continue into
    // everything appended after it, or acked writes get skipped.
    wal::repair(&cfg.data_dir, &tail)?;
    report.truncated_tail = tail.truncated;
    report.dropped_bytes = tail.dropped_bytes;
    let mut dedup = HashMap::new();
    let mut last_lsn = tail.last_lsn.unwrap_or(after_lsn).max(after_lsn);
    for (lsn, rec) in records {
        match rec {
            WalRecord::Insert { key, id, image, closed, points } => {
                let pts: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
                // The writer validated this shape before logging it and
                // the record's CRC matched, so a construction failure is
                // corruption or a logic bug — refuse to start rather
                // than ack-then-vanish (a retry of `key` would be
                // deduplicated to an id that exists nowhere).
                let shape = if closed { Polyline::closed(pts) } else { Polyline::open(pts) };
                let shape = shape.map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "WAL lsn {lsn}: acked insert (id {id}) does not reconstruct \
                             a valid shape ({e}); refusing to recover with missing acked data"
                        ),
                    )
                })?;
                base.insert_with_id(GlobalShapeId(id), ImageId(image), shape);
                if key != 0 {
                    dedup.insert(key, id);
                }
            }
            WalRecord::Delete { id } => {
                base.delete(GlobalShapeId(id));
            }
        }
        report.replayed += 1;
        last_lsn = lsn;
    }

    let wal = match &cfg.io_factory {
        Some(f) => Wal::open_with(&cfg.data_dir, cfg.fsync, last_lsn + 1, f.clone())?,
        None => Wal::open(&cfg.data_dir, cfg.fsync, last_lsn + 1)?,
    };
    report.last_lsn = last_lsn;
    report.recovery_us = t0.elapsed().as_micros() as u64;
    Ok(Recovered { base, wal, applied_lsn: last_lsn, dedup, report })
}

/// Checkpoint file name for the state up to `lsn`.
pub(crate) fn checkpoint_name(lsn: Lsn) -> String {
    format!("ckpt-{lsn:020}.gsir")
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosir_storage::checkpoint::CheckpointData;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("geosir-durable-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        p
    }

    fn template() -> BaseTemplate {
        BaseTemplate {
            alpha: 0.0,
            backend: Backend::RangeTree,
            config: MatchConfig::default(),
            buffer_cap: 4,
        }
    }

    fn tri(i: u64) -> Polyline {
        Polyline::closed(vec![
            Point::new(0.0, 0.0),
            Point::new(3.0 + i as f64 * 0.01, 0.2),
            Point::new(1.5, 2.0),
        ])
        .unwrap()
    }

    #[test]
    fn recover_from_empty_dir_starts_fresh() {
        let dir = tmpdir("fresh");
        let cfg = DurabilityConfig::new(&dir);
        let r = recover(&template(), &cfg).unwrap();
        assert!(r.base.is_empty());
        assert_eq!(r.applied_lsn, 0);
        assert_eq!(r.report.replayed, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_replays_wal_on_top_of_checkpoint() {
        let dir = tmpdir("ckpt-tail");
        std::fs::create_dir_all(&dir).unwrap();
        // checkpoint covering lsn ≤ 5 with two shapes
        let data = CheckpointData {
            epoch: 9,
            next_id: 2,
            shapes: vec![
                (GlobalShapeId(0), ImageId(0), tri(0)),
                (GlobalShapeId(1), ImageId(1), tri(1)),
            ],
        };
        checkpoint::write(&dir.join(checkpoint_name(5)), &data).unwrap();
        Manifest { checkpoint: checkpoint_name(5), last_lsn: 5, epoch: 9 }.store(&dir).unwrap();
        // WAL tail: insert id 2 (lsn 6), delete id 0 (lsn 7)
        let mut wal = Wal::open(&dir, FsyncPolicy::Always, 6).unwrap();
        wal.append(&WalRecord::Insert {
            key: 77,
            id: 2,
            image: 2,
            closed: true,
            points: tri(2).points().iter().map(|p| (p.x, p.y)).collect(),
        })
        .unwrap();
        wal.append(&WalRecord::Delete { id: 0 }).unwrap();
        wal.sync().unwrap();
        drop(wal);

        let r = recover(&template(), &DurabilityConfig::new(&dir)).unwrap();
        assert_eq!(r.report.checkpoint_shapes, 2);
        assert_eq!(r.report.replayed, 2);
        assert_eq!(r.applied_lsn, 7);
        assert_eq!(r.base.len(), 2, "two from checkpoint + one insert - one delete");
        assert!(r.base.contains(GlobalShapeId(1)));
        assert!(r.base.contains(GlobalShapeId(2)));
        assert!(!r.base.contains(GlobalShapeId(0)));
        assert_eq!(r.dedup.get(&77), Some(&2), "dedup map re-seeded from the WAL");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn insert_rec(i: u64) -> WalRecord {
        WalRecord::Insert {
            key: 0,
            id: i,
            image: i as u32,
            closed: true,
            points: tri(i).points().iter().map(|p| (p.x, p.y)).collect(),
        }
    }

    /// The double-crash scenario from the WAL layer, end to end through
    /// [`recover`]: recovery must repair the torn segment on disk so
    /// writes acked *after* the first recovery survive a second one.
    #[test]
    fn recovery_repairs_torn_tail_so_later_acks_survive_the_next_restart() {
        let dir = tmpdir("repair");
        std::fs::create_dir_all(&dir).unwrap();
        let mut wal = Wal::open(&dir, FsyncPolicy::Never, 1).unwrap();
        for i in 0..4 {
            wal.append(&insert_rec(i)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        // crash: tear the tail mid record 4
        let seg = dir.join(format!("wal-{:020}.log", 1));
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 7]).unwrap();

        // restart 1: truncated to 3 records, tear repaired, 2 new acks
        let cfg = DurabilityConfig::new(&dir);
        let r = recover(&template(), &cfg).unwrap();
        assert!(r.report.truncated_tail);
        assert_eq!(r.base.len(), 3);
        assert_eq!(r.applied_lsn, 3);
        let mut wal = r.wal;
        wal.append(&insert_rec(10)).unwrap();
        wal.append(&insert_rec(11)).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // restart 2: the 3 pre-tear and 2 post-recovery acks all survive
        let r = recover(&template(), &cfg).unwrap();
        assert!(!r.report.truncated_tail, "repaired tear must not resurface");
        assert_eq!(r.base.len(), 5, "acked writes lost across the second restart");
        assert!(r.base.contains(GlobalShapeId(10)));
        assert!(r.base.contains(GlobalShapeId(11)));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Delete the majority of a level, die without a checkpoint, recover:
    /// same shapes, same answers. A compaction is derived state — it
    /// writes nothing to the WAL, the log holds the 16 inserts and the 9
    /// deletes and no more, and replaying them compacts the level again
    /// at the same delete.
    #[test]
    fn compacted_level_recovers_from_the_wal_alone() {
        let dir = tmpdir("compact");
        std::fs::create_dir_all(&dir).unwrap();
        let mut wal = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
        let mut base = template().empty_base();
        // buffer_cap 4: the 16 shapes carry into one level
        for i in 0..16 {
            wal.append(&insert_rec(i)).unwrap();
            assert!(base.insert_with_id(GlobalShapeId(i), ImageId(i as u32), tri(i)));
        }
        for i in (0..16).filter(|i| i % 2 == 0).chain([15]) {
            wal.append(&WalRecord::Delete { id: i }).unwrap();
            assert!(base.delete(GlobalShapeId(i)));
        }
        wal.sync().unwrap();
        assert_eq!((base.num_levels(), base.len(), base.compactions), (1, 7, 1));
        // the kill: no checkpoint, no shutdown, the log as it stands
        drop(wal);

        let r = recover(&template(), &DurabilityConfig::new(&dir)).unwrap();
        assert_eq!((r.report.checkpoint_shapes, r.report.replayed), (0, 25));
        assert_eq!((r.base.num_levels(), r.base.len(), r.base.compactions), (1, 7, 1));
        assert_eq!(r.base.snapshot().dead_shapes(), 0);
        for i in 0..16 {
            let answer = |b: &DynamicBase| -> Vec<(u64, u64)> {
                b.snapshot().retrieve(&tri(i), 0).iter().map(|m| (m.shape.0, m.score.to_bits())).collect()
            };
            assert_eq!(answer(&r.base), answer(&base), "query {i}");
            assert_eq!(r.base.contains(GlobalShapeId(i)), i % 2 == 1 && i != 15);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A CRC-valid WAL insert whose geometry fails shape validation is
    /// corruption (the writer only logs validated shapes): recovery must
    /// refuse to start, not silently drop the acked record while seeding
    /// its idempotency key.
    #[test]
    fn replayed_insert_with_invalid_shape_is_a_recovery_error() {
        let dir = tmpdir("badshape");
        std::fs::create_dir_all(&dir).unwrap();
        let mut wal = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
        wal.append(&WalRecord::Insert {
            key: 55,
            id: 0,
            image: 0,
            closed: true,
            points: vec![(0.0, 0.0), (1.0, 1.0)], // 2 points: no closed shape
        })
        .unwrap();
        wal.commit().unwrap();
        drop(wal);
        let err = recover(&template(), &DurabilityConfig::new(&dir))
            .err()
            .expect("recovery must refuse an acked insert with an invalid shape");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}
