//! WAL segment shipping: the primary→replica half of log-shipped
//! replication.
//!
//! A [`Shipper`] mirrors the primary's WAL directory into a follower
//! directory byte-for-byte, segment-for-segment. It is deliberately a
//! *file* copier, not a record parser: the WAL's own CRCs and the
//! replayer's torn-tail tolerance already make the stream
//! self-validating, so shipping can be dumb, restartable, and cheap —
//! each [`Shipper::ship_once`] reads and copies only the bytes appended
//! since the last call, and a segment whose length has not moved is
//! not opened at all.
//!
//! Crash/fault behaviour is anchored on two invariants:
//!
//! 1. **Byte-offset resume.** After any append error (a short write, a
//!    dead disk, a process restart) the copied-offset is re-read from
//!    the destination file's actual length, so copying resumes exactly
//!    where the bytes stopped — a half-copied record is *completed*,
//!    never duplicated or skipped. The follower's replay sees at worst
//!    a torn final-segment tail, which is the shape it already
//!    tolerates.
//! 2. **Segment order.** Segments are copied in first-LSN order and a
//!    failed copy aborts the pass before any newer segment is touched,
//!    so the follower can never hold a torn *non-final* segment (which
//!    replay would rightly refuse as mid-log corruption).
//!
//! Destination writes go through the [`IoFactory`] abstraction, so the
//! chaos harness can delay, truncate, or kill shipping with the same
//! `FaultPlan`s that starve the WAL itself.

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};

use crate::faults::{FileFactory, Io, IoFactory};
use crate::wal::{list_segments, read_range, segment_path, Lsn};

/// What one [`Shipper::ship_once`] pass did.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShipReport {
    /// Segments present at the source this pass.
    pub segments_seen: usize,
    /// Segments that received new bytes this pass.
    pub segments_advanced: usize,
    /// Source segment bytes read this pass.
    pub bytes_read: u64,
    /// Bytes appended to destination segments this pass.
    pub bytes_copied: u64,
}

/// Incremental WAL-directory mirror; see the module docs.
pub struct Shipper {
    src: PathBuf,
    dst: PathBuf,
    factory: Box<dyn IoFactory>,
    /// Per-segment open destination handle and how many source bytes
    /// have been confirmed copied into it.
    open: HashMap<Lsn, (Box<dyn Io>, u64)>,
}

impl Shipper {
    /// Ship `src`'s segments into `dst` with plain file I/O.
    pub fn new(src: &Path, dst: &Path) -> Shipper {
        Shipper::with_factory(src, dst, Box::new(FileFactory))
    }

    /// [`Shipper::new`] with an injectable destination-file factory —
    /// the chaos harness hands a `FaultyFactory` here to delay or tear
    /// the shipped stream.
    pub fn with_factory(src: &Path, dst: &Path, factory: Box<dyn IoFactory>) -> Shipper {
        Shipper { src: src.to_path_buf(), dst: dst.to_path_buf(), factory, open: HashMap::new() }
    }

    /// Copy every byte present at the source but not yet at the
    /// destination, in segment order. Errors abort the pass *between*
    /// byte writes — after [`Shipper::ship_once`] returns (Ok or Err)
    /// the destination is always a clean prefix of the source plus at
    /// most one torn final segment, and the next call resumes from the
    /// destination's true length.
    pub fn ship_once(&mut self) -> io::Result<ShipReport> {
        std::fs::create_dir_all(&self.dst)?;
        let mut firsts = list_segments(&self.src)?;
        firsts.sort_unstable();
        let mut report = ShipReport { segments_seen: firsts.len(), ..Default::default() };
        for &first in &firsts {
            let src_path = segment_path(&self.src, first);
            let len = match std::fs::metadata(&src_path) {
                Ok(m) => m.len(),
                // pruned between list and stat: the checkpoint already
                // covers it, nothing left to ship
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            let dst_path = segment_path(&self.dst, first);
            if !self.open.contains_key(&first) {
                // First touch this shipper lifetime: creating through the
                // factory truncates, so start the copied-offset at zero
                // (a restart re-copies the segment; replay is idempotent
                // above the follower's applied cursor).
                let io = self.factory.create(&dst_path)?;
                self.open.insert(first, (io, 0));
            }
            let (handle, copied) = self.open.get_mut(&first).expect("just inserted");
            if len < *copied {
                // source shrank (its own torn-tail repair): rebuild the copy
                let io = self.factory.create(&dst_path)?;
                *handle = io;
                *copied = 0;
            }
            if len == *copied {
                continue;
            }
            let delta = match read_range(&src_path, *copied, len - *copied) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                r => r?,
            };
            report.bytes_read += delta.len() as u64;
            if delta.is_empty() {
                continue;
            }
            match handle.append(&delta).and_then(|()| handle.sync()) {
                Ok(()) => {
                    *copied += delta.len() as u64;
                    report.segments_advanced += 1;
                    report.bytes_copied += delta.len() as u64;
                }
                Err(e) => {
                    // a short write may have landed a prefix: trust the
                    // file, not our bookkeeping, and resume there next pass
                    *copied = std::fs::metadata(&dst_path).map(|m| m.len()).unwrap_or(*copied);
                    return Err(e);
                }
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultPlan, FaultyFactory};
    use crate::wal::{replay, FsyncPolicy, Tail, Wal, WalRecord};

    fn tmpdir(name: &str) -> PathBuf {
        let p = std::env::temp_dir().join(format!("geosir-ship-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn insert(i: u64) -> WalRecord {
        WalRecord::Insert {
            key: 500 + i,
            id: i,
            image: i as u32,
            closed: false,
            points: vec![(0.0, i as f64), (1.0, 2.0), (3.0, -(i as f64))],
        }
    }

    fn assert_mirrored(src: &Path, dst: &Path) {
        let (a, ra) = replay(src, 0).unwrap();
        let (b, rb) = replay(dst, 0).unwrap();
        assert_eq!(a, b, "follower must replay the primary's records");
        assert_eq!(ra.last_lsn, rb.last_lsn);
        assert!(!rb.truncated, "a completed ship leaves no torn tail");
    }

    #[test]
    fn ships_incrementally_and_across_rotation() {
        let src = tmpdir("inc-src");
        let dst = tmpdir("inc-dst");
        let mut wal = Wal::open(&src, FsyncPolicy::Never, 1).unwrap();
        let mut shipper = Shipper::new(&src, &dst);
        for i in 0..4 {
            wal.append(&insert(i)).unwrap();
        }
        wal.sync().unwrap();
        let r1 = shipper.ship_once().unwrap();
        assert!(r1.bytes_copied > 0);
        assert_mirrored(&src, &dst);
        // nothing new → nothing copied
        let r2 = shipper.ship_once().unwrap();
        assert_eq!(r2.bytes_copied, 0);
        // appends + a rotation: both the old tail and the new segment ship
        wal.append(&insert(10)).unwrap();
        wal.sync().unwrap();
        wal.rotate().unwrap();
        wal.append(&insert(11)).unwrap();
        wal.sync().unwrap();
        let r3 = shipper.ship_once().unwrap();
        assert_eq!(r3.segments_seen, 2);
        assert_mirrored(&src, &dst);
        assert_eq!(replay(&dst, 0).unwrap().1.last_lsn, Some(6));
        std::fs::remove_dir_all(&src).ok();
        std::fs::remove_dir_all(&dst).ok();
    }

    #[test]
    fn short_write_resumes_from_destination_length() {
        let src = tmpdir("torn-src");
        let dst = tmpdir("torn-dst");
        let mut wal = Wal::open(&src, FsyncPolicy::Never, 1).unwrap();
        for i in 0..6 {
            wal.append(&insert(i)).unwrap();
        }
        wal.sync().unwrap();
        // op 0 is the first delta append: tear it in half
        let plan = FaultPlan::new(FaultKind::ShortWrite, 0, false);
        let mut shipper =
            Shipper::with_factory(&src, &dst, Box::new(FaultyFactory { plan: plan.clone() }));
        let err = shipper.ship_once();
        assert!(err.is_err(), "the injected short write must surface");
        assert_eq!(plan.fired(), 1);
        // the follower holds a torn prefix — replay tolerates it
        let (partial, rep) = replay(&dst, 0).unwrap();
        assert!(partial.len() < 6);
        assert!(rep.truncated || partial.is_empty() || rep.records < 6);
        // next pass completes the copy byte-for-byte
        shipper.ship_once().unwrap();
        assert_mirrored(&src, &dst);
        let a = std::fs::read(segment_path(&src, 1)).unwrap();
        let b = std::fs::read(segment_path(&dst, 1)).unwrap();
        assert_eq!(a, b, "resume must converge to a byte-identical segment");
        std::fs::remove_dir_all(&src).ok();
        std::fs::remove_dir_all(&dst).ok();
    }

    #[test]
    fn failed_pass_never_leaves_torn_nonfinal_segment() {
        let src = tmpdir("order-src");
        let dst = tmpdir("order-dst");
        let mut wal = Wal::open(&src, FsyncPolicy::Never, 1).unwrap();
        for i in 0..3 {
            wal.append(&insert(i)).unwrap();
        }
        wal.sync().unwrap();
        wal.rotate().unwrap();
        for i in 3..6 {
            wal.append(&insert(i)).unwrap();
        }
        wal.sync().unwrap();
        // tear the first segment's copy: the pass must abort before the
        // second segment is created at the destination
        let plan = FaultPlan::new(FaultKind::ShortWrite, 0, false);
        let mut shipper =
            Shipper::with_factory(&src, &dst, Box::new(FaultyFactory { plan: plan.clone() }));
        assert!(shipper.ship_once().is_err());
        assert_eq!(
            list_segments(&dst).unwrap().len(),
            1,
            "a torn segment must be the newest one at the follower"
        );
        // replay of the partial follower works (torn tail, not mid-log)
        let _ = replay(&dst, 0).unwrap();
        shipper.ship_once().unwrap();
        assert_mirrored(&src, &dst);
        std::fs::remove_dir_all(&src).ok();
        std::fs::remove_dir_all(&dst).ok();
    }

    /// Once the backlog is read, an idle pass reads no segment bytes:
    /// neither the shipper (from the primary's log) nor a tail over the
    /// shipped copy nor one over the primary's log, however long the
    /// log is.
    #[test]
    fn idle_passes_read_no_segment_bytes() {
        let src = tmpdir("idle-src");
        let dst = tmpdir("idle-dst");
        let mut wal = Wal::open(&src, FsyncPolicy::Never, 1).unwrap();
        for i in 0..2_000 {
            wal.append(&insert(i)).unwrap();
        }
        wal.sync().unwrap();
        let log_len = std::fs::metadata(segment_path(&src, 1)).unwrap().len();
        let mut shipper = Shipper::new(&src, &dst);
        let (mut shipped, mut primary) = (Tail::new(&dst), Tail::new(&src));
        let mut out = Vec::new();
        let backlog = shipper.ship_once().unwrap();
        assert_eq!((backlog.bytes_read, backlog.bytes_copied), (log_len, log_len));
        shipped.poll(0, &mut out).unwrap();
        primary.poll(Lsn::MAX, &mut Vec::new()).unwrap();
        assert_eq!(out.len(), 2_000);
        assert_eq!((shipped.bytes_read(), primary.bytes_read()), (log_len, log_len));
        for _ in 0..100 {
            let r = shipper.ship_once().unwrap();
            assert_eq!((r.segments_seen, r.bytes_read, r.bytes_copied), (1, 0, 0));
            shipped.poll(0, &mut out).unwrap();
            primary.poll(Lsn::MAX, &mut Vec::new()).unwrap();
        }
        assert_eq!(out.len(), 2_000);
        assert_eq!((shipped.bytes_read(), primary.bytes_read()), (log_len, log_len));
        assert_eq!(primary.last_lsn(), Some(2_000));
        // one more record reads that record's bytes, once each
        wal.append(&insert(2_000)).unwrap();
        wal.sync().unwrap();
        let grown = std::fs::metadata(segment_path(&src, 1)).unwrap().len() - log_len;
        assert_eq!(shipper.ship_once().unwrap().bytes_read, grown);
        shipped.poll(0, &mut out).unwrap();
        assert_eq!(out.len(), 2_001);
        assert_eq!(shipped.bytes_read(), log_len + grown);
        std::fs::remove_dir_all(&src).ok();
        std::fs::remove_dir_all(&dst).ok();
    }
}
