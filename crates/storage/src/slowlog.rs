//! Rotating JSONL writer for the slow-query log.
//!
//! Slow-query records are one JSON object per line, appended through the
//! same [`Io`]/[`IoFactory`] abstraction the WAL writes through — so the
//! fault-injection tests can starve the slow-query log of its disk
//! exactly like they starve the WAL, and the server's degraded-mode
//! rules apply uniformly. Rotation is by byte threshold: when the
//! current segment would exceed `max_bytes`, the writer opens
//! `<prefix>.<seq>.jsonl` and prunes the oldest segments beyond `keep`.
//!
//! The writer never fsyncs per line — a slow-query log is a diagnostic
//! aid, not a durability promise — and a failed append is reported to
//! the caller (who counts it) rather than retried, so a dead disk can
//! never stall the query path behind its own telemetry.

use std::collections::VecDeque;
use std::io;
use std::path::{Path, PathBuf};

use crate::faults::{Io, IoFactory};

/// Append-only, size-rotated, line-oriented log over an [`IoFactory`].
pub struct RotatingJsonl {
    factory: Box<dyn IoFactory>,
    dir: PathBuf,
    prefix: String,
    max_bytes: u64,
    keep: usize,
    current: Option<Box<dyn Io>>,
    current_bytes: u64,
    seq: u64,
    /// Segment paths currently on disk, oldest first.
    segments: VecDeque<PathBuf>,
}

impl RotatingJsonl {
    /// Open (or resume) a rotating log in `dir`. Existing segments with
    /// the same prefix are discovered so sequence numbers and pruning
    /// continue across restarts; the newest existing segment is left
    /// as-is and a fresh one is started (append semantics per process
    /// lifetime keep the Io trait minimal — no reopen-for-append).
    pub fn open(
        dir: &Path,
        prefix: &str,
        max_bytes: u64,
        keep: usize,
        factory: Box<dyn IoFactory>,
    ) -> io::Result<RotatingJsonl> {
        std::fs::create_dir_all(dir)?;
        let mut existing: Vec<(u64, PathBuf)> = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seq) = parse_segment_name(name, prefix) {
                existing.push((seq, entry.path()));
            }
        }
        existing.sort();
        let seq = existing.last().map(|(s, _)| s + 1).unwrap_or(0);
        let segments = existing.into_iter().map(|(_, p)| p).collect();
        let mut log = RotatingJsonl {
            factory,
            dir: dir.to_path_buf(),
            prefix: prefix.to_string(),
            max_bytes: max_bytes.max(1),
            keep: keep.max(1),
            current: None,
            current_bytes: 0,
            seq,
            segments,
        };
        log.rotate()?;
        Ok(log)
    }

    /// Append one line (a `\n` is added; `line` itself must not contain
    /// one — JSONL records are single-line by construction). Rotates
    /// first when the line would push the current segment past the
    /// threshold. Errors are returned, not retried: the caller counts
    /// them and moves on.
    pub fn append_line(&mut self, line: &str) -> io::Result<()> {
        debug_assert!(!line.contains('\n'), "JSONL records are single-line");
        let len = line.len() as u64 + 1;
        if self.current_bytes > 0 && self.current_bytes + len > self.max_bytes {
            self.force_rotate()?;
        }
        let io = self
            .current
            .as_mut()
            .ok_or_else(|| io::Error::other("slow-query log has no open segment"))?;
        io.append(line.as_bytes())?;
        io.append(b"\n")?;
        self.current_bytes += len;
        Ok(())
    }

    /// Force buffered bytes of the current segment to stable storage.
    pub fn sync(&mut self) -> io::Result<()> {
        match self.current.as_mut() {
            Some(io) => io.sync(),
            None => Ok(()),
        }
    }

    /// Start a fresh segment and prune segments beyond `keep` (counting
    /// the fresh one). Called from `open` and on threshold crossings.
    fn rotate(&mut self) -> io::Result<()> {
        if let Some(mut old) = self.current.take() {
            let _ = old.sync();
        }
        let path = segment_path(&self.dir, &self.prefix, self.seq);
        self.current = Some(self.factory.create(&path)?);
        self.current_bytes = 0;
        self.segments.push_back(path);
        while self.segments.len() > self.keep {
            if let Some(dead) = self.segments.pop_front() {
                // Pruning is best-effort; a segment someone else deleted
                // must not poison the writer.
                let _ = std::fs::remove_file(dead);
            }
        }
        Ok(())
    }

    /// Advance to the next segment on the next append. Exposed so tests
    /// can exercise rotation deterministically.
    fn force_rotate(&mut self) -> io::Result<()> {
        self.seq += 1;
        self.rotate()
    }
}

fn segment_path(dir: &Path, prefix: &str, seq: u64) -> PathBuf {
    dir.join(format!("{prefix}.{seq:06}.jsonl"))
}

fn parse_segment_name(name: &str, prefix: &str) -> Option<u64> {
    let rest = name.strip_prefix(prefix)?.strip_prefix('.')?;
    let seq = rest.strip_suffix(".jsonl")?;
    seq.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultKind, FaultPlan, FaultyFactory, FileFactory};

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("geosir-slowlog-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn segment_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn appends_lines_and_rotates_at_threshold() {
        let dir = tmpdir("rotate");
        let mut log =
            RotatingJsonl::open(&dir, "slow", 64, 2, Box::new(FileFactory)).unwrap();
        // 29-byte lines (incl. \n): two fit in a 64-byte segment, the
        // third rotates.
        let line = format!("{{\"n\":{}}}", "9".repeat(22));
        assert_eq!(line.len(), 28);
        for _ in 0..5 {
            log.append_line(&line).unwrap();
        }
        let names = segment_names(&dir);
        assert_eq!(names.len(), 2, "keep=2 must prune older segments: {names:?}");
        // Newest segment holds the most recent line(s), each terminated.
        let data = std::fs::read_to_string(segment_path(&log.dir, &log.prefix, log.seq)).unwrap();
        assert!(data.ends_with('\n'));
        assert!(data.lines().all(|l| l == line));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_continues_sequence_numbers() {
        let dir = tmpdir("reopen");
        {
            let mut log =
                RotatingJsonl::open(&dir, "slow", 1024, 4, Box::new(FileFactory)).unwrap();
            log.append_line("{\"a\":1}").unwrap();
        }
        let log2 = RotatingJsonl::open(&dir, "slow", 1024, 4, Box::new(FileFactory)).unwrap();
        assert_eq!(log2.seq, 1, "second open must not clobber the first segment");
        assert_eq!(segment_names(&dir).len(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_faults_surface_as_errors_without_stalling() {
        let dir = tmpdir("faulty");
        let plan = FaultPlan::new(FaultKind::Fail, 2, false);
        let factory = FaultyFactory { plan: plan.clone() };
        let mut log = RotatingJsonl::open(&dir, "slow", 4096, 2, Box::new(factory)).unwrap();
        assert!(log.append_line("{\"ok\":1}").is_ok()); // ops 0,1 (line + \n)
        assert!(log.append_line("{\"ok\":2}").is_err(), "op 2 is sabotaged");
        assert!(log.append_line("{\"ok\":3}").is_ok(), "writer must keep going");
        assert_eq!(plan.fired(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_hooks_run_in_registration_order() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        static CALLS: AtomicU64 = AtomicU64::new(0);
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = seen.clone();
        crate::faults::on_crash(move || {
            seen2.store(CALLS.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
        });
        crate::faults::run_crash_hooks();
        assert!(seen.load(Ordering::SeqCst) >= 1, "hook must have run");
        // Hooks are Fn, not FnOnce: a second run must work too.
        let before = seen.load(Ordering::SeqCst);
        crate::faults::run_crash_hooks();
        assert!(seen.load(Ordering::SeqCst) > before);
    }
}
