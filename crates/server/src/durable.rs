//! Durability configuration and startup recovery.
//!
//! The durable server keeps two kinds of state in one data directory,
//! both in one framing (`len | crc32 | payload` records):
//!
//! - `wal-<lsn>.log` segments — every acked Insert/Delete, appended (and
//!   fsynced, per policy) **before** the ack ([`geosir_storage::wal`]);
//! - `ckpt-<lsn>.gsir` — the newest whole-base checkpoint, named by the
//!   last LSN it covers ([`geosir_storage::checkpoint`]). Its name is the
//!   pointer: no other file says which checkpoint is current.
//!
//! [`recover`] inverts that: load the highest-LSN checkpoint (if any),
//! rebuild the base with one bulk load, delete what a crash left beside
//! it (an older checkpoint, a `.tmp`), replay the WAL tail with `lsn >`
//! the checkpoint's idempotently, and open a fresh segment for new
//! writes. A torn WAL tail truncates (the records past the tear were
//! never acked under `fsync=always`) and is then **repaired on disk**
//! ([`wal::repair`]) before the fresh segment opens — otherwise the next
//! restart would stop at the same tear and skip the newer segment's
//! acked records. A bad newest checkpoint, a tear anywhere but the final
//! segment, or a replayed insert that no longer reconstructs a valid
//! shape are real errors — a checkpoint is renamed into place only once
//! fsynced, the WAL it covers may be pruned so no older one can stand
//! in, and the writer only logs validated shapes, so damage there is bit
//! rot or a logic bug, never a crash artifact, and starting up with
//! silently missing acked data would break the durability contract.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use geosir_core::dynamic::{DynamicBase, GlobalShapeId};
use geosir_core::matcher::MatchConfig;
use geosir_core::ImageId;
use geosir_geom::rangesearch::Backend;
use geosir_geom::{Point, Polyline};
use geosir_storage::checkpoint;
use geosir_storage::faults::IoFactory;
use geosir_storage::wal::{self, FsyncPolicy, Lsn, Wal, WalRecord};

use crate::metrics::Metrics;

/// Where and how hard to persist.
#[derive(Clone)]
pub struct DurabilityConfig {
    /// Directory holding WAL segments and the checkpoint.
    pub data_dir: PathBuf,
    /// When acked records are forced to stable storage.
    pub fsync: FsyncPolicy,
    /// WAL records between checkpoints.
    pub checkpoint_every: u64,
    /// Injectable factory for WAL segments and checkpoint files — the
    /// fault-injection tests pass a
    /// [`geosir_storage::faults::FaultyFactory`]; `None` uses real files.
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

/// Rebuild the base from `cfg.data_dir`: newest checkpoint → WAL tail,
/// then open a fresh WAL segment for new writes. A repaired tear and the
/// replay's carries and compactions are recorded on `metrics`.
pub(crate) fn recover(
    template: &BaseTemplate,
    cfg: &DurabilityConfig,
    metrics: &Metrics,
) -> io::Result<Recovered> {
    let t0 = Instant::now();
    std::fs::create_dir_all(&cfg.data_dir)?;
    let mut report = RecoveryReport::default();

    let (mut base, after_lsn) = load_newest(template, &cfg.data_dir)?;
    report.checkpoint_lsn = after_lsn;
    report.checkpoint_shapes = base.len();
    // what a crash left beside it: an older checkpoint not yet retired,
    // a `.tmp` never renamed
    checkpoint::retire(&cfg.data_dir, after_lsn)?;

    let (records, tail) = wal::replay(&cfg.data_dir, after_lsn)?;
    // Truncate the tear on disk NOW, before the fresh segment opens:
    // a later restart must walk this segment cleanly and continue into
    // everything appended after it, or acked writes get skipped.
    if wal::repair(&cfg.data_dir, &tail)? {
        metrics.wal().repairs.inc();
    }
    report.truncated_tail = tail.truncated;
    report.dropped_bytes = tail.dropped_bytes;
    let mut dedup = HashMap::new();
    let mut last_lsn = tail.last_lsn.unwrap_or(after_lsn).max(after_lsn);
    for (lsn, rec) in &records {
        // a shape that no longer reconstructs refuses the start rather
        // than ack-then-vanish (a retry of its key would be deduplicated
        // to an id that exists nowhere)
        replay_record(&mut base, *lsn, rec, metrics)?;
        if let WalRecord::Insert { key, id, .. } = rec {
            if *key != 0 {
                dedup.insert(*key, *id);
            }
        }
        report.replayed += 1;
        last_lsn = *lsn;
    }

    let wal = match &cfg.io_factory {
        Some(f) => Wal::open_with(&cfg.data_dir, cfg.fsync, last_lsn + 1, f.clone())?,
        None => Wal::open(&cfg.data_dir, cfg.fsync, last_lsn + 1)?,
    };
    report.last_lsn = last_lsn;
    report.recovery_us = t0.elapsed().as_micros() as u64;
    Ok(Recovered { base, wal, applied_lsn: last_lsn, dedup, report })
}

/// The base `dir`'s newest checkpoint holds and the LSN it covers (an
/// empty base at 0 without one): where recovery starts, and a replica.
pub(crate) fn load_newest(template: &BaseTemplate, dir: &Path) -> io::Result<(DynamicBase, Lsn)> {
    let Some((lsn, path)) = checkpoint::newest(dir)? else {
        return Ok((template.empty_base(), 0));
    };
    let checkpoint::CheckpointData { epoch, next_id, shapes } = checkpoint::read(&path)?;
    let t = template;
    let base = DynamicBase::restore(t.alpha, t.config.clone(), t.buffer_cap, shapes, next_id, epoch);
    Ok((base, lsn))
}

/// Apply one logged record to `base`, as recovery's replay and a
/// replica's follower do: an insert under the id its writer assigned, a
/// delete by id; carries and compactions are recorded on `metrics`. The
/// writer logs only validated shapes and the CRC matched, so an insert
/// whose points make no shape is corruption or a bug: `InvalidData`,
/// and `base` is left as it was.
pub(crate) fn replay_record(
    base: &mut DynamicBase,
    lsn: Lsn,
    rec: &WalRecord,
    metrics: &Metrics,
) -> io::Result<()> {
    match rec {
        WalRecord::Insert { id, image, closed, points, .. } => {
            let pts: Vec<Point> = points.iter().map(|&(x, y)| Point::new(x, y)).collect();
            let shape = if *closed { Polyline::closed(pts) } else { Polyline::open(pts) };
            let shape = shape.map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "WAL lsn {lsn}: acked insert (id {id}) does not reconstruct \
                         a valid shape ({e})"
                    ),
                )
            })?;
            base.insert_with_id(GlobalShapeId(*id), ImageId(*image), shape);
        }
        WalRecord::Delete { id } => {
            base.delete(GlobalShapeId(*id));
        }
    }
    if let Some(rebuild) = base.last_rebuild.take() {
        metrics.record_rebuild(rebuild);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosir_storage::faults::FileFactory;

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
        let r = recover(&template(), &cfg, &Metrics::default()).unwrap();
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
        let (t0, t1) = (tri(0), tri(1));
        let shapes = [(GlobalShapeId(0), ImageId(0), &t0), (GlobalShapeId(1), ImageId(1), &t1)];
        let walk = shapes.iter().map(|&(gid, image, s)| (gid, image, s.points(), s.is_closed()));
        checkpoint::write_shapes(&checkpoint::path(&dir, 5), &FileFactory, 9, 2, walk).unwrap();
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

        let r = recover(&template(), &DurabilityConfig::new(&dir), &Metrics::default()).unwrap();
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

    /// A checkpoint through `lsn` holding `tri(i)` for each of `ids`.
    fn checkpoint_at(dir: &std::path::Path, lsn: Lsn, ids: std::ops::Range<u64>) {
        let shapes = ids.map(|i| (GlobalShapeId(i), ImageId(i as u32), tri(i))).collect();
        let data = checkpoint::CheckpointData { epoch: lsn, next_id: lsn, shapes };
        checkpoint::write(&checkpoint::path(dir, lsn), &data).unwrap();
    }

    fn checkpoints_in(dir: &std::path::Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.starts_with("ckpt-"))
            .collect();
        names.sort();
        names
    }

    /// Two checkpoints on disk, as a crash between installing the newer
    /// and retiring the older leaves them: recovery loads the newer,
    /// replays only above it, and retires the older and any `.tmp`.
    #[test]
    fn recovery_takes_the_newest_of_two_checkpoints() {
        let dir = tmpdir("two-ckpts");
        std::fs::create_dir_all(&dir).unwrap();
        checkpoint_at(&dir, 3, 0..3);
        checkpoint_at(&dir, 6, 0..5);
        std::fs::write(checkpoint::path(&dir, 9).with_extension("tmp"), b"torn").unwrap();
        let mut wal = Wal::open(&dir, FsyncPolicy::Always, 4).unwrap();
        for i in 3..8 {
            wal.append(&insert_rec(i)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        let r = recover(&template(), &DurabilityConfig::new(&dir), &Metrics::default()).unwrap();
        assert_eq!((r.report.checkpoint_lsn, r.report.checkpoint_shapes), (6, 5));
        assert_eq!((r.report.replayed, r.applied_lsn), (2, 8), "lsn 7 and 8 replayed");
        assert_eq!(r.base.len(), 7);
        assert_eq!(checkpoints_in(&dir), ["ckpt-00000000000000000006.gsir"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A corrupt newest checkpoint is an error — never a fallback to an
    /// older one, whose WAL may already be pruned — and recovery deletes
    /// nothing it found.
    #[test]
    fn a_corrupt_newest_checkpoint_is_an_error_beside_a_valid_older_one() {
        let dir = tmpdir("bad-newest");
        std::fs::create_dir_all(&dir).unwrap();
        checkpoint_at(&dir, 3, 0..3);
        checkpoint_at(&dir, 6, 0..5);
        let newest = checkpoint::path(&dir, 6);
        let mut bytes = std::fs::read(&newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x04;
        std::fs::write(&newest, &bytes).unwrap();
        let err = recover(&template(), &DurabilityConfig::new(&dir), &Metrics::default())
            .err()
            .expect("a corrupt newest checkpoint must fail recovery");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        assert_eq!(checkpoints_in(&dir).len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The file name is the LSN replay starts above: a checkpoint whose
    /// header LSN disagrees with its name is refused.
    #[test]
    fn a_checkpoint_whose_header_lsn_disagrees_with_its_name_is_refused() {
        let dir = tmpdir("renamed");
        std::fs::create_dir_all(&dir).unwrap();
        checkpoint_at(&dir, 5, 0..2);
        std::fs::rename(checkpoint::path(&dir, 5), checkpoint::path(&dir, 7)).unwrap();
        let err = recover(&template(), &DurabilityConfig::new(&dir), &Metrics::default())
            .err()
            .expect("a checkpoint under another LSN's name must fail recovery");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
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
        let m = Metrics::default();
        let r = recover(&template(), &cfg, &m).unwrap();
        assert!(r.report.truncated_tail);
        assert_eq!(m.registry.snapshot().counter("geosir_wal_repairs_total", &[]), 1);
        assert_eq!(r.base.len(), 3);
        assert_eq!(r.applied_lsn, 3);
        let mut wal = r.wal;
        wal.append(&insert_rec(10)).unwrap();
        wal.append(&insert_rec(11)).unwrap();
        wal.sync().unwrap();
        drop(wal);

        // restart 2: the 3 pre-tear and 2 post-recovery acks all survive
        let r = recover(&template(), &cfg, &Metrics::default()).unwrap();
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

        let m = Metrics::default();
        let r = recover(&template(), &DurabilityConfig::new(&dir), &m).unwrap();
        assert_eq!((r.report.checkpoint_shapes, r.report.replayed), (0, 25));
        assert_eq!((r.base.num_levels(), r.base.len(), r.base.compactions), (1, 7, 1));
        // the replay's carries and its compaction, recorded as the writer's are
        assert_eq!(m.registry.snapshot().counter("geosir_dynamic_compactions_total", &[]), 1);
        let codes: Vec<&str> = m.registry.journal().recent().iter().map(|e| e.code).collect();
        assert!(codes.contains(&"cascade.level") && codes.contains(&"compact.level"), "{codes:?}");
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
        let err = recover(&template(), &DurabilityConfig::new(&dir), &Metrics::default())
            .err()
            .expect("recovery must refuse an acked insert with an invalid shape");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }
}
