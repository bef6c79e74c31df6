//! Append-only write-ahead log for the dynamic shape base.
//!
//! The server acks an Insert/Delete only after its record is in the log
//! (and fsynced, per policy), so acknowledged mutations survive a crash:
//! restart = load the newest checkpoint, then replay the WAL tail.
//!
//! ## On-disk format
//!
//! Segment files named `wal-<first_lsn:020>.log`, each:
//!
//! ```text
//! magic      8 bytes  "GSWAL" 0 0 1
//! records    *
//! ```
//!
//! and every record:
//!
//! ```text
//! len        u32 LE   payload byte count (≤ MAX_RECORD)
//! crc        u32 LE   CRC-32 (IEEE) over the payload
//! payload    len bytes: lsn u64 | body (see WalRecord)
//! ```
//!
//! That frame — `len | crc | payload`, through [`put_frame`] and
//! [`take_frame`] — is the crate's one durable framing: checkpoints
//! ([`crate::checkpoint`]) are written in it too.
//!
//! A crash mid-write leaves a torn tail: a half-written length prefix,
//! a payload shorter than `len`, or a CRC mismatch. [`replay`] tolerates
//! such a record only in the **final** (highest-LSN) segment, where it
//! treats it as the end of the log — it *truncates* there (reporting how
//! much was dropped) instead of failing, because a torn tail is the
//! expected shape of a crash, not corruption to refuse. Recovery must
//! then call [`repair`] to truncate the torn segment on disk before
//! opening a fresh one; otherwise a later restart would hit the same
//! tear, end replay early, and skip every segment appended since — and
//! acked writes would be lost. A bad record in a *non-final* segment
//! (bit rot, a flipped byte) is a hard error: the newer segments hold
//! acked records that cannot be replayed safely on top of a hole.
//!
//! LSNs are assigned monotonically by [`Wal::append`] and must be
//! strictly increasing within the replayed stream; a violation is
//! treated like corruption.
//!
//! [`replay`] reads a log whole, once, at recovery. A reader that
//! follows a log while it is written (a replica following its primary's
//! log) holds a [`Tail`] instead: each [`Tail::poll`] reads only the
//! bytes appended since the last, through the same record scanner and
//! with the same checks, and reports a [`Gap`] where the writer pruned
//! records it had not read yet.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::{Buf, BufMut};

use crate::faults::{FileFactory, Io, IoFactory};

/// Log sequence number: a global, monotonically increasing record id.
pub type Lsn = u64;

/// Segment header: "GSWAL" + two reserved bytes + format version.
const SEG_MAGIC: [u8; 8] = *b"GSWAL\x00\x00\x01";

/// Ceiling on one record's payload — a garbage length prefix must not
/// provoke a giant allocation during replay.
const MAX_RECORD: usize = 16 << 20;

/// A frame's bytes before its payload: the payload's length and CRC-32.
pub(crate) const FRAME_HEAD: usize = 8;

/// Append one frame to `out`: the payload `body` writes, behind its
/// length and CRC-32.
pub(crate) fn put_frame(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.put_u64_le(0); // length and crc, backpatched
    body(out);
    let len = (out.len() - at - FRAME_HEAD) as u32;
    let crc = crc32(&out[at + FRAME_HEAD..]);
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
}

/// The payload length the frame head at the start of `bytes` declares;
/// `None` when the head is short or the length is past `MAX_RECORD`.
pub(crate) fn frame_len(bytes: &[u8]) -> Option<usize> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().unwrap()) as usize;
    (bytes.len() >= FRAME_HEAD && len <= MAX_RECORD).then_some(len)
}

/// The payload of the frame at the start of `bytes`, when the frame is
/// whole and its CRC matches.
pub(crate) fn take_frame(bytes: &[u8]) -> Option<&[u8]> {
    let payload = bytes.get(FRAME_HEAD..FRAME_HEAD + frame_len(bytes)?)?;
    let crc = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    (crc32(payload) == crc).then_some(payload)
}

/// When appended records are forced to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync before every ack — full durability, slowest.
    Always,
    /// fsync at most once per interval (milliseconds); a crash can lose
    /// up to one interval of *acked* writes, but process kill loses
    /// nothing (the data is in the page cache).
    IntervalMs(u64),
    /// Never fsync; rely on the OS flushing dirty pages.
    Never,
}

impl FsyncPolicy {
    /// Parse a CLI spelling: `always`, `interval` (default 50 ms),
    /// `interval=<ms>`, `never`.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            "interval" => Ok(FsyncPolicy::IntervalMs(50)),
            other => match other.strip_prefix("interval=") {
                Some(ms) => ms
                    .parse()
                    .map(FsyncPolicy::IntervalMs)
                    .map_err(|_| format!("bad fsync interval `{ms}`")),
                None => Err(format!("unknown fsync policy `{other}` (always|interval[=ms]|never)")),
            },
        }
    }
}

/// One logged mutation. Geometry is stored at full f64 fidelity — the
/// log must reproduce exactly what the writer applied.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    Insert {
        /// Client-supplied idempotency key (0 = none); replay re-seeds
        /// the server's dedup table from these.
        key: u64,
        /// The assigned `GlobalShapeId` value.
        id: u64,
        image: u32,
        closed: bool,
        points: Vec<(f64, f64)>,
    },
    Delete {
        id: u64,
    },
}

const REC_INSERT: u8 = 1;
const REC_DELETE: u8 = 2;

impl WalRecord {
    fn encode_body(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Insert { key, id, image, closed, points } => {
                put_insert(out, *key, *id, *image, *closed, points.iter().copied());
            }
            WalRecord::Delete { id } => {
                out.put_u8(REC_DELETE);
                out.put_u64_le(*id);
            }
        }
    }

    pub(crate) fn decode_body(mut buf: &[u8]) -> Option<WalRecord> {
        let buf = &mut buf;
        if buf.is_empty() {
            return None;
        }
        let rec = match buf.get_u8() {
            REC_INSERT => {
                if buf.len() < 8 + 8 + 4 + 1 + 4 {
                    return None;
                }
                let key = buf.get_u64_le();
                let id = buf.get_u64_le();
                let image = buf.get_u32_le();
                let closed = match buf.get_u8() {
                    0 => false,
                    1 => true,
                    _ => return None,
                };
                let n = buf.get_u32_le() as usize;
                if buf.len() < n * 16 {
                    return None;
                }
                let mut points = Vec::with_capacity(n);
                for _ in 0..n {
                    let x = buf.get_f64_le();
                    let y = buf.get_f64_le();
                    points.push((x, y));
                }
                WalRecord::Insert { key, id, image, closed, points }
            }
            REC_DELETE => {
                if buf.len() < 8 {
                    return None;
                }
                WalRecord::Delete { id: buf.get_u64_le() }
            }
            _ => return None,
        };
        if !buf.is_empty() {
            return None; // trailing garbage inside the payload
        }
        Some(rec)
    }
}

/// A [`WalRecord::Insert`] body, its vertices borrowed: what a
/// checkpoint writes per live shape straight from the snapshot.
pub(crate) fn put_insert(
    out: &mut Vec<u8>,
    key: u64,
    id: u64,
    image: u32,
    closed: bool,
    points: impl ExactSizeIterator<Item = (f64, f64)>,
) {
    out.put_u8(REC_INSERT);
    out.put_u64_le(key);
    out.put_u64_le(id);
    out.put_u32_le(image);
    out.put_u8(closed as u8);
    out.put_u32_le(points.len() as u32);
    for (x, y) in points {
        out.put_f64_le(x);
        out.put_f64_le(y);
    }
}

/// CRC-32 (IEEE 802.3), table-driven; the classic log-record checksum.
pub fn crc32(data: &[u8]) -> u32 {
    const fn make_table() -> [u32; 256] {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut c = i as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
                k += 1;
            }
            table[i] = c;
            i += 1;
        }
        table
    }
    static TABLE: [u32; 256] = make_table();
    let mut c = !0u32;
    for &b in data {
        c = TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// The appender. One writer owns it (the server wraps it in a mutex so
/// the checkpointer can rotate); recovery uses the free [`replay`].
pub struct Wal {
    dir: PathBuf,
    factory: Arc<dyn IoFactory>,
    policy: FsyncPolicy,
    seg: Box<dyn Io>,
    seg_first_lsn: Lsn,
    next_lsn: Lsn,
    last_sync: Instant,
    unsynced: bool,
    buf: Vec<u8>,
}

/// Path of the segment whose first record carries `first_lsn`.
fn segment_path(dir: &Path, first_lsn: Lsn) -> PathBuf {
    dir.join(format!("wal-{first_lsn:020}.log"))
}

/// Best-effort directory fsync so renames/creates survive power loss;
/// ignored where the platform refuses to open directories.
pub(crate) fn sync_dir(dir: &Path) {
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
}

/// Create the segment file for `first_lsn` and write its header.
/// Refuses to overwrite an existing segment holding more than a bare
/// header: the appender only ever opens strictly above the recovered
/// LSN range, so a non-empty file at this path means records that would
/// be silently destroyed — a bug upstream, never something to paper
/// over. (A header-only leftover from a crash between segment creation
/// and the first append is recreated harmlessly.)
fn create_segment(factory: &dyn IoFactory, dir: &Path, first_lsn: Lsn) -> io::Result<Box<dyn Io>> {
    let path = segment_path(dir, first_lsn);
    if let Ok(meta) = std::fs::metadata(&path) {
        if meta.len() > SEG_MAGIC.len() as u64 {
            return Err(io::Error::new(
                io::ErrorKind::AlreadyExists,
                format!(
                    "refusing to overwrite WAL segment {} ({} bytes of records)",
                    path.display(),
                    meta.len()
                ),
            ));
        }
    }
    let mut seg = factory.create(&path)?;
    seg.append(&SEG_MAGIC)?;
    seg.sync()?;
    sync_dir(dir);
    Ok(seg)
}

impl Wal {
    /// Open a WAL in `dir`, starting a **fresh** segment whose first
    /// record will carry `next_lsn`. Existing segments are left alone
    /// (recovery replays them; [`Wal::prune_up_to`] removes them after a
    /// checkpoint).
    pub fn open(dir: &Path, policy: FsyncPolicy, next_lsn: Lsn) -> io::Result<Wal> {
        Wal::open_with(dir, policy, next_lsn, Arc::new(FileFactory))
    }

    /// [`Wal::open`] with an injectable segment-file factory (tests).
    pub fn open_with(
        dir: &Path,
        policy: FsyncPolicy,
        next_lsn: Lsn,
        factory: Arc<dyn IoFactory>,
    ) -> io::Result<Wal> {
        std::fs::create_dir_all(dir)?;
        let seg = create_segment(factory.as_ref(), dir, next_lsn)?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            factory,
            policy,
            seg,
            seg_first_lsn: next_lsn,
            next_lsn,
            last_sync: Instant::now(),
            unsynced: false,
            buf: Vec::with_capacity(256),
        })
    }

    /// The LSN the next appended record will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.next_lsn
    }

    /// Append one record; returns its LSN. Durable only after
    /// [`Wal::commit`] (or per the fsync policy).
    pub fn append(&mut self, rec: &WalRecord) -> io::Result<Lsn> {
        let lsn = self.next_lsn;
        self.buf.clear();
        put_frame(&mut self.buf, |out| {
            out.put_u64_le(lsn);
            rec.encode_body(out);
        });
        self.seg.append(&self.buf)?;
        self.next_lsn = lsn + 1;
        self.unsynced = true;
        Ok(lsn)
    }

    /// Make appended records durable per the fsync policy. Called once
    /// per write batch, before those writes are acked. Returns the
    /// fsync duration when one was issued.
    pub fn commit(&mut self) -> io::Result<Option<Duration>> {
        if !self.unsynced {
            return Ok(None);
        }
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::IntervalMs(ms) => self.last_sync.elapsed() >= Duration::from_millis(ms),
            FsyncPolicy::Never => false,
        };
        if !due {
            return Ok(None);
        }
        let t = Instant::now();
        self.seg.sync()?;
        let took = t.elapsed();
        self.last_sync = Instant::now();
        self.unsynced = false;
        Ok(Some(took))
    }

    /// Force an fsync regardless of policy.
    pub fn sync(&mut self) -> io::Result<()> {
        self.seg.sync()?;
        self.last_sync = Instant::now();
        self.unsynced = false;
        Ok(())
    }

    /// Close the current segment (fsynced) and start a new one at the
    /// current `next_lsn`. Called by the checkpointer after a new
    /// checkpoint is installed.
    pub fn rotate(&mut self) -> io::Result<()> {
        self.seg.sync()?;
        crate::faults::crash_if_armed("wal.mid-rotation");
        let seg = create_segment(self.factory.as_ref(), &self.dir, self.next_lsn)?;
        self.seg = seg;
        self.seg_first_lsn = self.next_lsn;
        self.unsynced = false;
        self.last_sync = Instant::now();
        Ok(())
    }

    /// Delete segments whose every record is ≤ `lsn` (covered by a
    /// checkpoint). The active segment is never deleted.
    pub fn prune_up_to(&self, lsn: Lsn) -> io::Result<usize> {
        let mut firsts = list_segments(&self.dir)?;
        firsts.retain(|&f| f != self.seg_first_lsn);
        firsts.sort_unstable();
        let mut removed = 0;
        for (i, &first) in firsts.iter().enumerate() {
            // a segment's records span [first, next segment's first); the
            // active segment bounds the last listed one
            let next_first = firsts.get(i + 1).copied().unwrap_or(self.seg_first_lsn);
            if next_first <= lsn + 1 && next_first > first {
                std::fs::remove_file(segment_path(&self.dir, first))?;
                removed += 1;
            }
        }
        if removed > 0 {
            sync_dir(&self.dir);
        }
        Ok(removed)
    }
}

/// `wal-<lsn>.log` first-LSNs present in `dir`, unsorted.
fn list_segments(dir: &Path) -> io::Result<Vec<Lsn>> {
    let mut firsts = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let name = entry?.file_name();
        let name = name.to_string_lossy();
        if let Some(rest) = name.strip_prefix("wal-") {
            if let Some(num) = rest.strip_suffix(".log") {
                if let Ok(lsn) = num.parse() {
                    firsts.push(lsn);
                }
            }
        }
    }
    Ok(firsts)
}

/// Where [`replay`] hit a torn/corrupt record: the segment (named by
/// its first LSN) and the byte length of its valid prefix. [`repair`]
/// consumes this to truncate the tear on disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornSegment {
    /// First LSN of the segment holding the tear (names the file).
    pub first_lsn: Lsn,
    /// Bytes of valid prefix (header + intact records). Below the
    /// header length the whole file is garbage.
    pub valid_len: u64,
}

/// What [`replay`] found.
#[derive(Debug, Default)]
pub struct ReplayReport {
    /// Segments visited.
    pub segments: usize,
    /// Records decoded and returned.
    pub records: usize,
    /// True when replay stopped at a torn or corrupt record instead of
    /// a clean end of log.
    pub truncated: bool,
    /// Bytes dropped after the truncation point (0 when clean).
    pub dropped_bytes: usize,
    /// The torn final segment, when `truncated`; pass to [`repair`].
    pub torn: Option<TornSegment>,
    /// Highest LSN replayed (`None` when the log held no records).
    pub last_lsn: Option<Lsn>,
}

/// Scan a run of whole records — starting with the segment header when
/// `header` — pushing those with `lsn > after_lsn` onto `out`. LSNs
/// must strictly increase past `prev_lsn`, which is left at the last
/// intact record's. Returns `Some(valid_prefix_len)` when the run ends
/// in a torn or corrupt record (0 when even the header is bad), `None`
/// when it ends cleanly.
fn scan_segment(
    bytes: &[u8],
    header: bool,
    after_lsn: Lsn,
    prev_lsn: &mut Option<Lsn>,
    out: &mut Vec<(Lsn, WalRecord)>,
) -> Option<usize> {
    let mut off = 0;
    if header {
        if bytes.len() < SEG_MAGIC.len() || bytes[..SEG_MAGIC.len()] != SEG_MAGIC {
            return Some(0); // torn segment creation (or not ours)
        }
        off = SEG_MAGIC.len();
    }
    while off < bytes.len() {
        // a torn head, a torn or garbage length, a torn payload, bit rot
        let Some(payload) = take_frame(&bytes[off..]).filter(|p| p.len() >= 8) else {
            return Some(off);
        };
        let lsn = u64::from_le_bytes(payload[0..8].try_into().unwrap());
        let Some(rec) = WalRecord::decode_body(&payload[8..]) else {
            return Some(off); // valid CRC but undecodable body
        };
        if prev_lsn.is_some_and(|p| lsn <= p) {
            return Some(off); // LSN went backwards: corrupt
        }
        *prev_lsn = Some(lsn);
        if lsn > after_lsn {
            out.push((lsn, rec));
        }
        off += FRAME_HEAD + payload.len();
    }
    None
}

/// The error for a torn or corrupt record with newer segments behind it.
fn mid_log_corruption(dir: &Path, first: Lsn, at: u64, newer: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "WAL segment {} is corrupt at byte {at} but {newer} newer \
             segment(s) follow; refusing to recover past mid-log corruption",
            segment_path(dir, first).display()
        ),
    )
}

/// Replay every record with `lsn > after_lsn` from the segments in
/// `dir`, in LSN order. A torn or corrupt record in the **final**
/// segment stops replay without error — everything before it is
/// returned, everything after it is reported as dropped, and the tear's
/// location is reported for [`repair`]. A torn/corrupt record in a
/// *non-final* segment is an `InvalidData` error: the newer segments
/// hold acked records that cannot be applied on top of a hole, and
/// silently skipping either side loses data. I/O errors (unreadable
/// directory/file) are still real errors.
pub fn replay(dir: &Path, after_lsn: Lsn) -> io::Result<(Vec<(Lsn, WalRecord)>, ReplayReport)> {
    let mut report = ReplayReport::default();
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok((out, report));
    }
    let mut firsts = list_segments(dir)?;
    firsts.sort_unstable();
    let mut prev_lsn: Option<Lsn> = None;
    for (si, &first) in firsts.iter().enumerate() {
        let bytes = std::fs::read(segment_path(dir, first))?;
        report.segments += 1;
        if let Some(valid_len) = scan_segment(&bytes, true, after_lsn, &mut prev_lsn, &mut out) {
            let newer = firsts.len() - si - 1;
            if newer > 0 {
                return Err(mid_log_corruption(dir, first, valid_len as u64, newer));
            }
            report.truncated = true;
            report.dropped_bytes = bytes.len() - valid_len;
            report.torn = Some(TornSegment { first_lsn: first, valid_len: valid_len as u64 });
        }
    }
    report.records = out.len();
    report.last_lsn = prev_lsn;
    Ok((out, report))
}

/// Up to `len` bytes of the file at `path` from byte `off` (fewer when
/// the file is shorter by then): what [`Tail::poll`] reads, the bytes
/// appended since its last pass, never the prefix before it.
fn read_range(path: &Path, off: u64, len: u64) -> io::Result<Vec<u8>> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = std::fs::File::open(path)?;
    f.seek(SeekFrom::Start(off))?;
    let mut buf = Vec::new();
    f.take(len).read_to_end(&mut buf)?;
    Ok(buf)
}

/// An incremental reader over a WAL directory someone else appends to.
/// It keeps its place — a segment, the byte offset of the first record
/// in it not yet read, the last LSN read — so each [`Tail::poll`] reads
/// only the bytes appended since the last poll, and a poll with nothing
/// new reads no segment bytes at all (a directory listing, and a `stat`
/// of each segment from the current one on).
///
/// The checks are [`replay`]'s, through the same scanner: every record's
/// CRC and body are verified and LSNs strictly increase. A torn record
/// at the end of the final segment is left unconsumed and read again by
/// the next poll (a writer mid-append); a bad record with newer segments
/// behind it is an `InvalidData` error, returned by every poll from then
/// on. A segment that shrinks below the offset (a torn-tail repair) is
/// read again from its header, and only records above the last one read
/// are delivered: nothing twice.
/// The records delivered are contiguous: where the writer pruned records
/// not yet read (a checkpoint covers them), the poll reports a [`Gap`].
pub struct Tail {
    dir: PathBuf,
    /// First LSN of the segment being read; `None` before any.
    seg: Option<Lsn>,
    /// Bytes of `seg` consumed: its header and the whole records after it.
    off: u64,
    /// LSN of the last record before `seg` — where a re-read of `seg`
    /// from its header checks LSNs from.
    seg_prev: Option<Lsn>,
    /// LSN of the last record before `off` (across segments).
    at_off: Option<Lsn>,
    /// Highest LSN read (`None` while the log held no records); nothing
    /// at or below it is delivered again.
    last: Option<Lsn>,
    /// First LSN of the newest segment listed.
    newest_first: Option<Lsn>,
    /// Segment bytes read over this tail's lifetime.
    bytes_read: u64,
}

/// Records from `expected` up to `found`, where the log resumes, were
/// pruned before a [`Tail`] read them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gap {
    pub expected: Lsn,
    pub found: Lsn,
}

impl Tail {
    /// A tail positioned before the first record of `dir`'s log. The
    /// directory need not exist yet.
    pub fn new(dir: &Path) -> Tail {
        Tail {
            dir: dir.to_path_buf(),
            seg: None,
            off: 0,
            seg_prev: None,
            at_off: None,
            last: None,
            newest_first: None,
            bytes_read: 0,
        }
    }

    /// The highest LSN the log is known to hold: the last one read, or,
    /// when a bad record stops the reading short of newer segments, the
    /// last one before the newest segment. A segment is named by the LSN
    /// of its first record, so every record up to that name − 1 exists;
    /// a freshly rotated, empty segment adds nothing above the last one.
    pub fn tip(&self) -> Option<Lsn> {
        let before_newest = self.newest_first.map(|f| f.saturating_sub(1));
        self.last.max(before_newest)
    }

    /// Push every record appended since the last poll with `lsn >
    /// after_lsn` onto `out`, in LSN order, up to a [`Gap`] (returned by
    /// every poll from then on). On an error, the records before the bad
    /// one are already on `out` and consumed.
    pub fn poll(
        &mut self,
        after_lsn: Lsn,
        out: &mut Vec<(Lsn, WalRecord)>,
    ) -> io::Result<Option<Gap>> {
        let mut firsts = match list_segments(&self.dir) {
            Ok(f) => f,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        self.newest_first = self.newest_first.max(firsts.iter().copied().max());
        // segments before the current one are finished
        firsts.retain(|&f| self.seg.is_none_or(|s| f >= s));
        firsts.sort_unstable();
        for (si, &first) in firsts.iter().enumerate() {
            if self.seg != Some(first) {
                // a segment's name is its first record's LSN
                let expected = self.at_off.unwrap_or(0).max(after_lsn) + 1;
                if first > expected {
                    return Ok(Some(Gap { expected, found: first }));
                }
                self.seg = Some(first);
                self.off = 0;
                self.seg_prev = self.at_off;
            }
            let path = segment_path(&self.dir, first);
            // pruned since the listing: the next segment checks the gap
            let len = match std::fs::metadata(&path) {
                Ok(m) => m.len(),
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                Err(e) => return Err(e),
            };
            if len < self.off {
                self.off = 0;
                self.at_off = self.seg_prev;
            }
            if len == self.off {
                continue;
            }
            let bytes = match read_range(&path, self.off, len - self.off) {
                Err(e) if e.kind() == io::ErrorKind::NotFound => continue,
                r => r?,
            };
            self.bytes_read += bytes.len() as u64;
            let after = after_lsn.max(self.last.unwrap_or(0));
            let torn = scan_segment(&bytes, self.off == 0, after, &mut self.at_off, out);
            self.off += torn.unwrap_or(bytes.len()) as u64;
            self.last = self.last.max(self.at_off);
            if torn.is_some() {
                let newer = firsts.len() - si - 1;
                if newer > 0 {
                    return Err(mid_log_corruption(&self.dir, first, self.off, newer));
                }
            }
        }
        Ok(None)
    }
}

/// One line of the repair audit trail, written beside the WAL in
/// `repair_audit/` whenever [`repair`] touches a segment. Truncating
/// acked bytes is the single most consequential thing this storage
/// layer ever does silently — the JSONL entry plus [`repair`]'s `true`,
/// which a server counts as `geosir_wal_repairs_total`, make it
/// observable after the fact (which file, how much was cut, when).
fn audit_repair(dir: &Path, torn: &TornSegment, report: &ReplayReport, removed: bool) {
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let line = format!(
        "{{\"unix_ms\":{unix_ms},\"segment\":\"wal-{:020}.log\",\"first_lsn\":{},\
         \"valid_len\":{},\"dropped_bytes\":{},\"removed\":{},\"last_lsn\":{}}}",
        torn.first_lsn,
        torn.first_lsn,
        torn.valid_len,
        report.dropped_bytes,
        removed,
        report.last_lsn.unwrap_or(0),
    );
    // Best-effort: a full or dead audit disk must not block the repair
    // itself — recovery correctness beats telemetry.
    let audit = dir.join("repair_audit");
    let _ = crate::slowlog::RotatingJsonl::open(
        &audit,
        "repair",
        1 << 20,
        4,
        Box::new(crate::faults::FileFactory),
    )
    .and_then(|mut log| {
        log.append_line(&line)?;
        log.sync()
    });
}

/// Physically repair the tear [`replay`] reported: truncate the torn
/// segment to its valid prefix (or remove it entirely when not even the
/// header survived), fsyncing the file and directory. Recovery calls
/// this before opening a fresh segment so the *next* replay walks the
/// repaired segment cleanly and continues into everything appended
/// after it — without the repair, the old tear would keep ending replay
/// early, newer segments full of acked records would be skipped, and
/// reopening at the stale LSN would truncate them. Returns true when a
/// repair was performed. Every performed repair leaves a JSONL line in
/// `<dir>/repair_audit/`.
pub fn repair(dir: &Path, report: &ReplayReport) -> io::Result<bool> {
    let Some(torn) = report.torn else { return Ok(false) };
    let path = segment_path(dir, torn.first_lsn);
    let removed = torn.valid_len < SEG_MAGIC.len() as u64;
    if removed {
        std::fs::remove_file(&path)?;
    } else {
        let f = std::fs::OpenOptions::new().write(true).open(&path)?;
        f.set_len(torn.valid_len)?;
        f.sync_all()?;
    }
    sync_dir(dir);
    audit_repair(dir, &torn, report, removed);
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("geosir-wal-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    fn insert(i: u64) -> WalRecord {
        WalRecord::Insert {
            key: 1000 + i,
            id: i,
            image: i as u32,
            closed: true,
            points: vec![(i as f64, 0.5), (0.25, -1.5 * i as f64), (2.0, 2.0)],
        }
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = tmpdir("roundtrip");
        let mut wal = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
        let mut lsns = Vec::new();
        for i in 0..10 {
            let rec =
                if i % 3 == 2 { WalRecord::Delete { id: i } } else { insert(i) };
            lsns.push((wal.append(&rec).unwrap(), rec));
            assert!(wal.commit().unwrap().is_some(), "fsync=always must sync per commit");
        }
        drop(wal);
        let (replayed, report) = replay(&dir, 0).unwrap();
        assert!(!report.truncated);
        assert_eq!(report.last_lsn, Some(10));
        assert_eq!(replayed, lsns);
        // replay after a checkpoint LSN skips the prefix
        let (tail, _) = replay(&dir, 7).unwrap();
        assert_eq!(tail.len(), 3);
        assert_eq!(tail[0].0, 8);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncates_to_last_valid_lsn() {
        let dir = tmpdir("torn");
        let mut wal = Wal::open(&dir, FsyncPolicy::Never, 1).unwrap();
        for i in 0..6 {
            wal.append(&insert(i)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let seg = segment_path(&dir, 1);
        let bytes = std::fs::read(&seg).unwrap();
        // cut the file mid-way through the last record
        std::fs::write(&seg, &bytes[..bytes.len() - 10]).unwrap();
        let (replayed, report) = replay(&dir, 0).unwrap();
        assert!(report.truncated);
        assert!(report.dropped_bytes > 0);
        assert_eq!(replayed.len(), 5, "five intact records survive the torn sixth");
        assert_eq!(report.last_lsn, Some(5));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_byte_stops_replay_at_last_valid_record() {
        let dir = tmpdir("flip");
        let mut wal = Wal::open(&dir, FsyncPolicy::Never, 1).unwrap();
        for i in 0..6 {
            wal.append(&insert(i)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let seg = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&seg).unwrap();
        // flip one byte inside record 4's payload (not its header)
        let rec_len = {
            let rest = &bytes[SEG_MAGIC.len()..];
            8 + u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize
        };
        let off = SEG_MAGIC.len() + 3 * rec_len + 20;
        bytes[off] ^= 0x40;
        std::fs::write(&seg, &bytes).unwrap();
        let (replayed, report) = replay(&dir, 0).unwrap();
        assert!(report.truncated, "a CRC mismatch must stop replay");
        assert_eq!(replayed.len(), 3, "records before the flipped byte survive");
        assert_eq!(report.last_lsn, Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_and_pruning_preserve_the_tail() {
        let dir = tmpdir("rotate");
        let mut wal = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
        for i in 0..4 {
            wal.append(&insert(i)).unwrap();
        }
        wal.commit().unwrap();
        // checkpoint covered lsn ≤ 4: rotate, then prune
        wal.rotate().unwrap();
        for i in 4..7 {
            wal.append(&insert(i)).unwrap();
        }
        wal.commit().unwrap();
        assert_eq!(wal.prune_up_to(4).unwrap(), 1, "the covered segment goes");
        let (tail, report) = replay(&dir, 4).unwrap();
        assert!(!report.truncated);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.first().map(|(l, _)| *l), Some(5));
        // pruning must never touch the active segment
        assert_eq!(wal.prune_up_to(100).unwrap(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The double-crash scenario: a torn tail, a recovery that appends
    /// new acked records, and a second recovery. Without [`repair`],
    /// the second replay hits the old tear first, ends early, and the
    /// reopen truncates the newer segment — losing acked writes.
    #[test]
    fn repair_then_reopen_survives_a_second_restart() {
        let dir = tmpdir("tworestarts");
        let mut wal = Wal::open(&dir, FsyncPolicy::Never, 1).unwrap();
        for i in 0..6 {
            wal.append(&insert(i)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let seg = segment_path(&dir, 1);
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 10]).unwrap(); // crash: torn record 6

        // restart 1: replay truncates to lsn 5, the tear is repaired on
        // disk, and new acked records land in a fresh segment at lsn 6
        let (replayed, report) = replay(&dir, 0).unwrap();
        assert_eq!(replayed.len(), 5);
        assert_eq!(report.torn.map(|t| t.first_lsn), Some(1));
        assert!(repair(&dir, &report).unwrap());
        let mut wal = Wal::open(&dir, FsyncPolicy::Never, report.last_lsn.unwrap() + 1).unwrap();
        for i in 10..13 {
            wal.append(&insert(i)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        // restart 2: all five pre-tear records AND all three post-repair
        // records come back; the repaired tear does not resurface
        let (replayed, report) = replay(&dir, 0).unwrap();
        assert!(!report.truncated, "repaired tear must not resurface");
        assert_eq!(replayed.len(), 8, "acked records lost across the second restart");
        assert_eq!(report.last_lsn, Some(8));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repair_removes_a_segment_with_a_torn_header() {
        let dir = tmpdir("tornmagic");
        let wal = Wal::open(&dir, FsyncPolicy::Never, 1).unwrap();
        drop(wal);
        let seg = segment_path(&dir, 1);
        std::fs::write(&seg, b"GSW").unwrap(); // crash mid segment creation
        let (replayed, report) = replay(&dir, 0).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(report.torn.map(|t| t.valid_len), Some(0));
        assert!(repair(&dir, &report).unwrap());
        assert!(!seg.exists(), "a header-less segment is removed outright");
        let (_, report) = replay(&dir, 0).unwrap();
        assert!(!report.truncated);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Corruption with newer segments behind it cannot be truncated
    /// away — those segments hold acked records that must not be
    /// applied on top of a hole. Replay refuses loudly.
    #[test]
    fn mid_log_corruption_is_an_error_not_silent_truncation() {
        let dir = tmpdir("midlog");
        let mut wal = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
        for i in 0..4 {
            wal.append(&insert(i)).unwrap();
        }
        wal.commit().unwrap();
        wal.rotate().unwrap();
        for i in 4..6 {
            wal.append(&insert(i)).unwrap();
        }
        wal.commit().unwrap();
        drop(wal);
        // flip a byte in the FIRST (non-final) segment
        let seg = segment_path(&dir, 1);
        let mut bytes = std::fs::read(&seg).unwrap();
        let off = bytes.len() - 4;
        bytes[off] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        let err = replay(&dir, 0).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_refuses_to_clobber_a_segment_with_records() {
        let dir = tmpdir("clobber");
        let mut wal = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
        wal.append(&insert(0)).unwrap();
        wal.commit().unwrap();
        drop(wal);
        let err = Wal::open(&dir, FsyncPolicy::Always, 1)
            .err()
            .expect("open must refuse to clobber a segment with records");
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        // ...but a header-only leftover (crash between segment creation
        // and the first append) is recreated harmlessly
        drop(Wal::open(&dir, FsyncPolicy::Always, 2).unwrap());
        drop(Wal::open(&dir, FsyncPolicy::Always, 2).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interval_policy_syncs_lazily() {
        let dir = tmpdir("interval");
        let mut wal = Wal::open(&dir, FsyncPolicy::IntervalMs(10_000), 1).unwrap();
        for i in 0..20 {
            wal.append(&insert(i)).unwrap();
            assert!(wal.commit().unwrap().is_none(), "interval policy must not sync every commit");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_log_replays_to_nothing() {
        let dir = tmpdir("empty");
        let wal = Wal::open(&dir, FsyncPolicy::Always, 1).unwrap();
        drop(wal);
        let (recs, report) = replay(&dir, 0).unwrap();
        assert!(recs.is_empty());
        assert!(!report.truncated);
        assert_eq!(report.last_lsn, None);
        // a directory that never existed is an empty log, not an error
        let (recs, _) = replay(&dir.join("nope"), 0).unwrap();
        assert!(recs.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    fn poll_all(tail: &mut Tail) -> Vec<(Lsn, WalRecord)> {
        let mut out = Vec::new();
        assert_eq!(tail.poll(0, &mut out).unwrap(), None);
        out
    }

    #[test]
    fn tail_tracks_appends_and_rotation() {
        let dir = tmpdir("tail");
        let mut tail = Tail::new(&dir.join("nope"));
        assert!(poll_all(&mut tail).is_empty(), "a missing dir is an empty log");
        assert_eq!(tail.last, None);
        let mut tail = Tail::new(&dir);
        let mut wal = Wal::open(&dir, FsyncPolicy::Never, 1).unwrap();
        assert!(poll_all(&mut tail).is_empty());
        assert_eq!(tail.last, None, "header-only segment, no records");
        for i in 0..5 {
            wal.append(&insert(i)).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(poll_all(&mut tail), replay(&dir, 0).unwrap().0);
        assert_eq!(tail.last, Some(5));
        // rotation opens an empty segment at 6: the last record is still
        // 5, and so is the tip (an idle reader after a rotation has no lag)
        wal.rotate().unwrap();
        assert!(poll_all(&mut tail).is_empty());
        assert_eq!(tail.last, Some(5));
        assert_eq!(tail.tip(), Some(5));
        wal.append(&insert(99)).unwrap();
        wal.sync().unwrap();
        assert_eq!(poll_all(&mut tail), vec![(6, insert(99))]);
        assert_eq!(tail.last, Some(6));
        // a poll with nothing new reads nothing
        let read = tail.bytes_read;
        assert!(poll_all(&mut tail).is_empty());
        assert_eq!(tail.bytes_read, read);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A segment cut back below the tail's offset — mid-record, then to
    /// a record boundary — and grown again over the same records plus
    /// new ones is read again from its header, and delivers each record
    /// once.
    #[test]
    fn tail_rereads_a_shrunk_segment_without_redelivering() {
        let dir = tmpdir("tail-shrink");
        let mut wal = Wal::open(&dir, FsyncPolicy::Never, 1).unwrap();
        for i in 0..6 {
            wal.append(&insert(i)).unwrap();
        }
        wal.sync().unwrap();
        let seg = segment_path(&dir, 1);
        let full = std::fs::read(&seg).unwrap();
        let mut tail = Tail::new(&dir);
        let mut got = poll_all(&mut tail);
        assert_eq!(got.len(), 6);
        let rec_len = (full.len() - SEG_MAGIC.len()) / 6;
        for cut in [full.len() - 10, SEG_MAGIC.len() + 3 * rec_len, 3] {
            std::fs::write(&seg, &full[..cut]).unwrap();
            assert!(poll_all(&mut tail).is_empty(), "cut to {cut}: nothing new");
            assert_eq!(tail.last, Some(6));
            std::fs::write(&seg, &full).unwrap();
            assert!(poll_all(&mut tail).is_empty(), "regrown to {cut}: nothing twice");
        }
        // cut, then regrown past the old end: only the new record
        std::fs::write(&seg, &full[..SEG_MAGIC.len() + rec_len]).unwrap();
        assert!(poll_all(&mut tail).is_empty());
        std::fs::write(&seg, &full).unwrap();
        wal.append(&insert(6)).unwrap();
        wal.sync().unwrap();
        got.extend(poll_all(&mut tail));
        assert_eq!(got, replay(&dir, 0).unwrap().0, "each record exactly once");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// One poll of a reader that holds every record up to `state.len()`
    /// (LSNs start at 1): each record delivered must be the next one due,
    /// as appended. A gap must lie at or below the newest checkpoint,
    /// `ckpt`; the reader then restarts from that checkpoint — the
    /// appended records up to it — with a fresh tail, and polls again.
    fn follow(
        tail: &mut Tail,
        dir: &Path,
        state: &mut Vec<(Lsn, WalRecord)>,
        ckpt: Lsn,
        appended: &[(Lsn, WalRecord)],
    ) {
        let mut got = Vec::new();
        let gap = tail.poll(state.len() as Lsn, &mut got).unwrap();
        for (lsn, rec) in got {
            assert_eq!(lsn, state.len() as Lsn + 1, "a record delivered past a gap");
            assert_eq!(&appended[state.len()], &(lsn, rec.clone()));
            state.push((lsn, rec));
        }
        if let Some(gap) = gap {
            assert_eq!(gap.expected, state.len() as Lsn + 1);
            assert!(gap.found > gap.expected, "{gap:?}");
            assert!(gap.expected <= ckpt, "{gap:?}: records pruned above the checkpoint {ckpt}");
            *state = appended[..ckpt as usize].to_vec();
            *tail = Tail::new(dir);
            follow(tail, dir, state, ckpt, appended);
        }
    }

    proptest::proptest! {
        /// The tail against its oracle: over random schedules of append,
        /// sync, rotate, a prune of what the tail has read, a checkpoint
        /// at any LSN that rotates and prunes up to it (as the
        /// checkpointer does, read or not), a torn write completed after
        /// a poll, and poll, the tail delivers contiguous records, each
        /// as appended, or reports a gap that a checkpoint covers; a
        /// reader that restarts from that checkpoint ends holding every
        /// record appended. `replay`, taken before each prune, saw every
        /// record appended too. Then a byte flipped in a non-final
        /// segment is `InvalidData` for a fresh tail, as it is for
        /// `replay`.
        #[test]
        fn tail_equals_replay_under_random_schedules(seed in 0u64..1_000_000) {
            use rand::prelude::*;
            use std::collections::BTreeMap;
            let mut rng = StdRng::seed_from_u64(seed);
            let dir = tmpdir(&format!("tail-prop-{seed}"));
            let mut wal = Wal::open(&dir, FsyncPolicy::Never, 1).unwrap();
            let mut tail = Tail::new(&dir);
            let (mut state, mut appended) = (Vec::new(), Vec::new());
            let mut ckpt: Lsn = 0;
            let mut oracle: BTreeMap<Lsn, WalRecord> = BTreeMap::new();
            let see = |oracle: &mut BTreeMap<Lsn, WalRecord>| {
                for (lsn, rec) in replay(&dir, 0).unwrap().0 {
                    assert_eq!(oracle.entry(lsn).or_insert_with(|| rec.clone()), &rec);
                }
            };
            let record = |rng: &mut StdRng| {
                let i = rng.random_range(0..1_000u64);
                if rng.random_bool(0.2) { WalRecord::Delete { id: i } } else { insert(i) }
            };
            for _ in 0..rng.random_range(1..40) {
                match rng.random_range(0..11) {
                    0..=3 => {
                        for _ in 0..rng.random_range(1..4) {
                            let rec = record(&mut rng);
                            appended.push((wal.append(&rec).unwrap(), rec));
                        }
                    }
                    4 => wal.sync().unwrap(),
                    5 => wal.rotate().unwrap(),
                    6 => {
                        see(&mut oracle);
                        let upto = tail.last.unwrap_or(0);
                        wal.prune_up_to(rng.random_range(0..=upto)).unwrap();
                    }
                    7 => {
                        see(&mut oracle);
                        ckpt = rng.random_range(ckpt..=appended.len() as Lsn);
                        wal.rotate().unwrap();
                        wal.prune_up_to(ckpt).unwrap();
                    }
                    8 => {
                        // a writer caught mid-append: the poll must leave
                        // the torn record for the poll after the rest lands
                        let rec = record(&mut rng);
                        let lsn = wal.append(&rec).unwrap();
                        let mut body = Vec::new();
                        rec.encode_body(&mut body);
                        appended.push((lsn, rec));
                        let last_seg = *list_segments(&dir).unwrap().iter().max().unwrap();
                        let seg = segment_path(&dir, last_seg);
                        let bytes = std::fs::read(&seg).unwrap();
                        // len | crc | lsn | body: cut anywhere inside it
                        let cut = bytes.len() - rng.random_range(1..16 + body.len());
                        std::fs::OpenOptions::new()
                            .write(true)
                            .open(&seg)
                            .unwrap()
                            .set_len(cut as u64)
                            .unwrap();
                        follow(&mut tail, &dir, &mut state, ckpt, &appended);
                        assert!(state.len() < lsn as usize, "a torn record was delivered");
                        use std::io::Write;
                        let mut f = std::fs::OpenOptions::new().append(true).open(&seg).unwrap();
                        f.write_all(&bytes[cut..]).unwrap();
                    }
                    _ => follow(&mut tail, &dir, &mut state, ckpt, &appended),
                }
            }
            follow(&mut tail, &dir, &mut state, ckpt, &appended);
            see(&mut oracle);
            let oracle: Vec<(Lsn, WalRecord)> = oracle.into_iter().collect();
            assert_eq!(oracle, appended, "replay saw every record appended");
            assert_eq!(state, appended, "the reader must end holding every record, each once");
            // caught up, the tip is the last record, whatever rotations
            // left empty segments behind it
            let last = appended.last().map_or(0, |(lsn, _)| *lsn);
            assert_eq!(tail.tip().unwrap_or(0), last);
            // corruption with a newer segment behind it, read by a tail
            // placed before the oldest segment left
            let mut firsts = list_segments(&dir).unwrap();
            firsts.sort_unstable();
            if firsts.len() >= 2 {
                let seg = segment_path(&dir, firsts[rng.random_range(0..firsts.len() - 1)]);
                let mut bytes = std::fs::read(&seg).unwrap();
                let at = rng.random_range(0..bytes.len());
                bytes[at] ^= 1 << rng.random_range(0..8);
                std::fs::write(&seg, &bytes).unwrap();
                assert_eq!(replay(&dir, 0).unwrap_err().kind(), io::ErrorKind::InvalidData);
                let mut stuck = Tail::new(&dir);
                let err = stuck.poll(firsts[0] - 1, &mut Vec::new()).unwrap_err();
                assert_eq!(err.kind(), io::ErrorKind::InvalidData);
                // stopped short, the tip still reaches the newest segment
                assert!(stuck.tip() >= Some(firsts[firsts.len() - 1] - 1));
            }
            drop(wal);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn repair_writes_audit_line_and_bumps_counter() {
        let dir = tmpdir("repair-audit");
        let mut wal = Wal::open(&dir, FsyncPolicy::Never, 1).unwrap();
        for i in 0..4 {
            wal.append(&insert(i)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let seg = segment_path(&dir, 1);
        let bytes = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &bytes[..bytes.len() - 7]).unwrap();
        let (_, report) = replay(&dir, 0).unwrap();
        assert!(report.truncated);
        // every performed repair says so, for its caller to count
        assert!(repair(&dir, &report).unwrap());
        // exactly one JSONL line naming the torn segment and the cut
        let audit_dir = dir.join("repair_audit");
        let mut lines = String::new();
        for entry in std::fs::read_dir(&audit_dir).unwrap() {
            let p = entry.unwrap().path();
            if p.extension().is_some_and(|e| e == "jsonl") {
                lines.push_str(&std::fs::read_to_string(p).unwrap());
            }
        }
        let audit: Vec<&str> = lines.lines().collect();
        assert_eq!(audit.len(), 1, "one repair, one audit line: {audit:?}");
        let line = audit[0];
        for needle in
            ["\"segment\":\"wal-00000000000000000001.log\"", "\"dropped_bytes\":", "\"removed\":false"]
        {
            assert!(line.contains(needle), "audit line missing {needle}: {line}");
        }
        // a no-op repair (clean log) leaves no trace
        let (_, clean) = replay(&dir, 0).unwrap();
        assert!(!repair(&dir, &clean).unwrap());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn crc32_known_vector() {
        // IEEE CRC-32 of "123456789"
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
    }
}
