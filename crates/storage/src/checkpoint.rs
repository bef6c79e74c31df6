//! Whole-base checkpoints, in the WAL's framing.
//!
//! A checkpoint is the dynamic base's live shapes — global id, image,
//! full-fidelity f64 geometry — plus the LSN it covers, `epoch` and
//! `next_id`, written as frames of the log's own kind (`len u32 | crc32
//! u32 | payload`, through [`crate::wal`]'s frame helpers, with the same
//! CRC-32 and the same length cap):
//!
//! ```text
//! magic    8 bytes  "GSCKPT" 0 2
//! frame    lsn u64 | epoch u64 | next_id u64 | shape count u64
//! frame*   one `WalRecord::Insert` body per live shape (key 0)
//! ```
//!
//! The file is named by its LSN, `ckpt-<lsn:020>.gsir` ([`path`]), and
//! the header repeats it: a reader refuses a file whose header and name
//! disagree (a file under any other name carries LSN 0). The writer
//! walks the live shapes once, encoding each frame straight from the
//! borrowed vertices into one 64 KiB write buffer; it holds no copy of
//! the base. The reader checks each frame's length against the file and
//! its CRC before it decodes a byte of it, and decodes straight into the
//! shape pool `DynamicBase::restore` takes. Any fault — a bad magic, a
//! frame that runs past the file or fails its CRC, fewer frames than the
//! count, bytes after the last, a body that is not an insert — is
//! `InvalidData`.
//!
//! Durability protocol: the frames are written to `<name>.tmp`, fsynced,
//! then renamed into place and the directory fsynced; a failed write
//! removes its `.tmp`. Only the newest checkpoint is kept: once one is
//! installed the checkpointer [`retire`]s every other, then rotates and
//! prunes the WAL. Recovery loads the [`newest`] — a bad one is an
//! error, never a fallback to an older one whose WAL may be pruned.

use std::fs::File;
use std::io::{self, BufReader, Read};
use std::path::{Path, PathBuf};

use bytes::{Buf, BufMut};
use geosir_core::dynamic::GlobalShapeId;
use geosir_core::ids::ImageId;
use geosir_geom::{Point, Polyline};

use crate::faults::{FileFactory, IoFactory};
use crate::wal::{
    frame_len, put_frame, put_insert, sync_dir, take_frame, Lsn, WalRecord, FRAME_HEAD,
};

/// File magic: "GSCKPT" + format version (1 was the paged stream).
const MAGIC: [u8; 8] = *b"GSCKPT\x00\x02";
/// The header frame's payload: LSN, epoch, next id, shape count.
const HEADER: usize = 4 * 8;
/// An insert body before its vertices: tag, key, id, image, closed,
/// vertex count.
const INSERT_HEAD: usize = 1 + 8 + 8 + 4 + 1 + 4;
/// The smallest shape frame: two vertices (an open polyline's least).
const MIN_SHAPE_FRAME: u64 = (FRAME_HEAD + INSERT_HEAD + 2 * 16) as u64;
/// What the writer gathers per append, and the reader buffers per read.
const IO_CHUNK: usize = 64 * 1024;

/// Everything a checkpoint restores, owned.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointData {
    /// Base epoch at capture time.
    pub epoch: u64,
    /// Next `GlobalShapeId` to assign (ids of deleted shapes must never
    /// be reused, so this can exceed every live id).
    pub next_id: u64,
    /// Live shapes, in capture order.
    pub shapes: Vec<(GlobalShapeId, ImageId, Polyline)>,
}

/// Path of the checkpoint covering the log through `lsn`.
pub fn path(dir: &Path, lsn: Lsn) -> PathBuf {
    dir.join(format!("ckpt-{lsn:020}.gsir"))
}

/// The LSN a checkpoint file name carries.
fn name_lsn(name: &str) -> Option<Lsn> {
    name.strip_prefix("ckpt-")?.strip_suffix(".gsir")?.parse().ok()
}

/// The LSN the file at `path` must carry: its name's, else 0.
fn lsn_of(path: &Path) -> Lsn {
    path.file_name().and_then(|n| n.to_str()).and_then(name_lsn).unwrap_or(0)
}

/// `dir`'s checkpoints, each with its LSN, and its `ckpt-*.tmp` files
/// (`None`).
fn listing(dir: &Path) -> io::Result<Vec<(Option<Lsn>, PathBuf)>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
        if let Some(lsn) = name_lsn(name) {
            out.push((Some(lsn), path));
        } else if name.starts_with("ckpt-") && name.ends_with(".tmp") {
            out.push((None, path));
        }
    }
    Ok(out)
}

/// The checkpoint in `dir` with the highest LSN, and its path.
pub fn newest(dir: &Path) -> io::Result<Option<(Lsn, PathBuf)>> {
    Ok(listing(dir)?.into_iter().filter_map(|(lsn, p)| Some((lsn?, p))).max())
}

/// Delete every checkpoint in `dir` but the one through `keep`, and
/// every `ckpt-*.tmp` a failed or interrupted write left; returns how
/// many files went.
pub fn retire(dir: &Path, keep: Lsn) -> io::Result<usize> {
    let mut removed = 0;
    for (lsn, path) in listing(dir)? {
        if lsn != Some(keep) {
            std::fs::remove_file(path)?;
            removed += 1;
        }
    }
    if removed > 0 {
        sync_dir(dir);
    }
    Ok(removed)
}

/// Write `epoch`, `next_id` and `shapes` — `(id, image, vertices,
/// closed)`, walked once — as frames appended through `io`, and
/// atomically install them at `path` (via `path.tmp` + rename + dir
/// fsync; the `.tmp` is removed if any step fails). The header's LSN is
/// the one `path`'s name carries. Returns how many shapes it wrote.
pub fn write_shapes<'a>(
    path: &Path,
    io: &dyn IoFactory,
    epoch: u64,
    next_id: u64,
    shapes: impl ExactSizeIterator<Item = (GlobalShapeId, ImageId, &'a [Point], bool)>,
) -> io::Result<u64> {
    let tmp = path.with_extension("tmp");
    let result = write_frames(&tmp, io, [lsn_of(path), epoch, next_id], shapes).and_then(|n| {
        crate::faults::crash_if_armed("checkpoint.mid");
        std::fs::rename(&tmp, path)?;
        Ok(n)
    });
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    } else if let Some(dir) = path.parent() {
        sync_dir(dir);
    }
    result
}

/// Append the magic, the header frame and one frame per shape to a new
/// file at `tmp`, then sync it (`Io::sync`, an fdatasync on real files,
/// which also makes the new file's length durable).
fn write_frames<'a>(
    tmp: &Path,
    io: &dyn IoFactory,
    [lsn, epoch, next_id]: [u64; 3],
    shapes: impl ExactSizeIterator<Item = (GlobalShapeId, ImageId, &'a [Point], bool)>,
) -> io::Result<u64> {
    let mut file = io.create(tmp)?;
    let count = shapes.len() as u64;
    let mut out = Vec::with_capacity(IO_CHUNK);
    out.put_slice(&MAGIC);
    put_frame(&mut out, |b| {
        for field in [lsn, epoch, next_id, count] {
            b.put_u64_le(field);
        }
    });
    let mut written = 0u64;
    for (gid, image, pts, closed) in shapes {
        if out.len() + FRAME_HEAD + INSERT_HEAD + 16 * pts.len() > IO_CHUNK {
            file.append(&out)?;
            out.clear();
        }
        put_frame(&mut out, |b| {
            put_insert(b, 0, gid.0, image.0, closed, pts.iter().map(|p| (p.x, p.y)));
        });
        written += 1;
    }
    if written != count {
        return Err(io::Error::other(format!("the walk held {written} shapes, not {count}")));
    }
    file.append(&out)?;
    file.sync()?;
    Ok(written)
}

/// [`write_shapes`] over owned shapes, through real files.
pub fn write(path: &Path, data: &CheckpointData) -> io::Result<u64> {
    let shapes =
        data.shapes.iter().map(|(gid, image, s)| (*gid, *image, s.points(), s.is_closed()));
    write_shapes(path, &FileFactory, data.epoch, data.next_id, shapes)
}

/// Load a checkpoint written by [`write_shapes`], checking every frame.
pub fn read(path: &Path) -> io::Result<CheckpointData> {
    let mut shapes = Vec::new();
    let (epoch, next_id) = read_into(path, &mut shapes)
        .map_err(|e| io::Error::new(e.kind(), format!("checkpoint {}: {e}", path.display())))?;
    Ok(CheckpointData { epoch, next_id, shapes })
}

fn invalid(what: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what)
}

/// A checkpoint's frames in file order, each checked before it is
/// handed out.
struct Frames {
    file: BufReader<File>,
    /// File bytes not yet read.
    left: u64,
    /// The frame last read, head and payload.
    buf: Vec<u8>,
}

impl Frames {
    fn next(&mut self) -> io::Result<&[u8]> {
        if self.left < FRAME_HEAD as u64 {
            return Err(invalid("the file ends before its last frame".into()));
        }
        self.buf.resize(FRAME_HEAD, 0);
        self.file.read_exact(&mut self.buf)?;
        let len = frame_len(&self.buf)
            .filter(|&len| (FRAME_HEAD + len) as u64 <= self.left)
            .ok_or_else(|| invalid("a frame's length runs past its cap or the file".into()))?;
        self.left -= (FRAME_HEAD + len) as u64;
        self.buf.resize(FRAME_HEAD + len, 0);
        self.file.read_exact(&mut self.buf[FRAME_HEAD..])?;
        take_frame(&self.buf).ok_or_else(|| invalid("a frame fails its CRC".into()))
    }
}

/// Decode the checkpoint at `path` into `pool`, returning its `epoch`
/// and `next_id`. Every frame is checked before it is decoded, so a
/// failed read leaves in `pool` only shapes from frames before the bad
/// one.
fn read_into(
    path: &Path,
    pool: &mut Vec<(GlobalShapeId, ImageId, Polyline)>,
) -> io::Result<(u64, u64)> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    let mut file = BufReader::with_capacity(IO_CHUNK, file);
    let mut magic = [0u8; MAGIC.len()];
    if len < MAGIC.len() as u64 || file.read_exact(&mut magic).is_err() || magic != MAGIC {
        return Err(invalid("not a checkpoint of this format".into()));
    }
    let mut frames = Frames { file, left: len - MAGIC.len() as u64, buf: Vec::new() };
    let mut head = frames.next()?;
    if head.len() != HEADER {
        return Err(invalid(format!("a {}-byte header frame", head.len())));
    }
    let [lsn, epoch, next_id, count] = [(); 4].map(|()| head.get_u64_le());
    if lsn != lsn_of(path) {
        return Err(invalid(format!("header LSN {lsn} disagrees with the file name")));
    }
    // no more shapes than the file has room for
    pool.reserve(count.min(frames.left / MIN_SHAPE_FRAME) as usize);
    for i in 0..count {
        let Some(WalRecord::Insert { id, image, closed, points, .. }) =
            WalRecord::decode_body(frames.next()?)
        else {
            return Err(invalid(format!("shape frame {i} is not an insert")));
        };
        let pts = points.into_iter().map(|(x, y)| Point::new(x, y)).collect();
        let shape = if closed { Polyline::closed(pts) } else { Polyline::open(pts) }
            .map_err(|e| invalid(format!("shape {id}: {e}")))?;
        pool.push((GlobalShapeId(id), ImageId(image), shape));
    }
    if frames.left != 0 {
        return Err(invalid(format!("{} bytes after the last frame", frames.left)));
    }
    Ok((epoch, next_id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::crc32;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("geosir-ckpt-{}-{name}.gsir", std::process::id()));
        p
    }

    fn sample(n: usize) -> CheckpointData {
        let shapes = (0..n)
            .map(|i| {
                let pts = vec![
                    Point::new(0.0, 0.0),
                    Point::new(3.0 + i as f64 * 0.01, 0.25),
                    Point::new(1.5, 2.0 + i as f64),
                ];
                (
                    GlobalShapeId(i as u64 * 3),
                    ImageId(i as u32),
                    if i % 4 == 0 {
                        Polyline::open(pts).unwrap()
                    } else {
                        Polyline::closed(pts).unwrap()
                    },
                )
            })
            .collect();
        CheckpointData { epoch: 41 + n as u64, next_id: n as u64 * 3 + 7, shapes }
    }

    /// `sample(n)` written to `path`, its bytes.
    fn written(path: &Path, n: usize) -> Vec<u8> {
        write(path, &sample(n)).unwrap();
        std::fs::read(path).unwrap()
    }

    /// Where the header frame's payload starts.
    const HEAD_AT: usize = MAGIC.len() + FRAME_HEAD;

    /// Rewrite the header's shape count and re-seal its CRC.
    fn set_count(bytes: &mut [u8], count: u64) {
        bytes[HEAD_AT + 24..HEAD_AT + 32].copy_from_slice(&count.to_le_bytes());
        let crc = crc32(&bytes[HEAD_AT..HEAD_AT + HEADER]);
        bytes[HEAD_AT - 4..HEAD_AT].copy_from_slice(&crc.to_le_bytes());
    }

    fn assert_invalid(path: &Path, bytes: &[u8]) {
        std::fs::write(path, bytes).unwrap();
        let err = read(path).expect_err("a hostile checkpoint must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn round_trip_empty_base() {
        let path = tmp("empty");
        let data = CheckpointData { epoch: 0, next_id: 0, shapes: Vec::new() };
        write(&path, &data).unwrap();
        assert_eq!(read(&path).unwrap(), data);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), (HEAD_AT + HEADER) as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn round_trip_past_one_write_buffer() {
        let path = tmp("multichunk");
        let data = sample(2000); // ≈ 2000 · 90 B: three 64 KiB appends
        write(&path, &data).unwrap();
        assert_eq!(read(&path).unwrap(), data, "f64 geometry must survive exactly");
        assert!(std::fs::metadata(&path).unwrap().len() > 2 * IO_CHUNK as u64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_byte_is_a_checksum_error() {
        let path = tmp("flipped");
        let mut bytes = written(&path, 50);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert_invalid(&path, &bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn no_tmp_residue_after_write() {
        let path = tmp("restmp");
        write(&path, &sample(3)).unwrap();
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    /// Frames reach the `Io` in appends of at most 64 KiB, not one per
    /// shape.
    #[test]
    fn frames_are_appended_in_64_kib_writes() {
        use crate::faults::Io;
        use std::sync::{Arc, Mutex};
        struct Sizes(Arc<Mutex<Vec<usize>>>);
        impl Io for Sizes {
            fn append(&mut self, buf: &[u8]) -> io::Result<()> {
                self.0.lock().unwrap().push(buf.len());
                Ok(())
            }
            fn sync(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        impl IoFactory for Sizes {
            fn create(&self, _: &Path) -> io::Result<Box<dyn Io>> {
                Ok(Box::new(Sizes(self.0.clone())))
            }
        }
        let sizes = Sizes(Arc::new(Mutex::new(Vec::new())));
        let data = sample(2000);
        let shapes = data.shapes.iter().map(|(g, i, s)| (*g, *i, s.points(), s.is_closed()));
        // the rename fails (nothing was written there): the appends are done
        assert!(write_shapes(&tmp("unwritten"), &sizes, 1, 2, shapes).is_err());
        let sizes = sizes.0.lock().unwrap();
        let total: usize = sizes.iter().sum();
        assert_eq!(total, HEAD_AT + HEADER + 2000 * (FRAME_HEAD + INSERT_HEAD + 48));
        assert!(sizes.iter().all(|&s| s <= IO_CHUNK), "{sizes:?}");
        assert_eq!(sizes.len(), total.div_ceil(IO_CHUNK), "{sizes:?}");
    }

    /// A failed write leaves neither its `.tmp` nor a checkpoint.
    #[test]
    fn a_failed_write_removes_its_tmp() {
        use crate::faults::{FaultPlan, FaultyFactory};
        let path = tmp("failed");
        let data = sample(3);
        let shapes = data.shapes.iter().map(|(g, i, s)| (*g, *i, s.points(), s.is_closed()));
        let io = FaultyFactory { plan: FaultPlan::dead_disk_from(1) };
        assert!(write_shapes(&path, &io, 1, 2, shapes).is_err());
        assert!(!path.with_extension("tmp").exists() && !path.exists());
    }

    /// The name is the LSN: the header repeats it, and a file renamed to
    /// another LSN is refused.
    #[test]
    fn a_header_lsn_must_match_the_name() {
        let dir = std::env::temp_dir().join(format!("geosir-ckpt-{}-names", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        write(&path(&dir, 5), &sample(2)).unwrap();
        assert_eq!(read(&path(&dir, 5)).unwrap(), sample(2));
        std::fs::rename(path(&dir, 5), path(&dir, 7)).unwrap();
        assert_eq!(newest(&dir).unwrap(), Some((7, path(&dir, 7))));
        assert_eq!(read(&path(&dir, 7)).unwrap_err().kind(), io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Retirement keeps the one named and nothing else of the
    /// checkpointer's: other checkpoints and every `.tmp` go, WAL
    /// segments stay.
    #[test]
    fn retire_keeps_only_the_named_checkpoint() {
        let dir = std::env::temp_dir().join(format!("geosir-ckpt-{}-retire", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for lsn in [3, 9, 12] {
            write(&path(&dir, lsn), &sample(1)).unwrap();
        }
        std::fs::write(path(&dir, 15).with_extension("tmp"), b"torn").unwrap();
        std::fs::write(dir.join("wal-00000000000000000013.log"), b"GSWAL").unwrap();
        assert_eq!(newest(&dir).unwrap().map(|(lsn, _)| lsn), Some(12));
        assert_eq!(retire(&dir, 12).unwrap(), 3);
        let mut names: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, ["ckpt-00000000000000000012.gsir", "wal-00000000000000000013.log"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A frame length past `MAX_RECORD` or past the file is refused
    /// before anything is read or reserved for it.
    #[test]
    fn hostile_frame_length_past_max_record_or_the_file() {
        let path = tmp("hostile-len");
        let good = written(&path, 2);
        let mut bytes = good.clone();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&(16u32 << 20 | 1).to_le_bytes());
        assert_invalid(&path, &bytes);
        // the last frame claims one byte more than the file holds
        let last = HEAD_AT + HEADER + (good.len() - HEAD_AT - HEADER) / 2;
        let mut bytes = good.clone();
        let len = u32::from_le_bytes(bytes[last..last + 4].try_into().unwrap());
        assert_eq!(last + FRAME_HEAD + len as usize, good.len(), "two frames of one size");
        bytes[last..last + 4].copy_from_slice(&(len + 1).to_le_bytes());
        assert_invalid(&path, &bytes);
        // and a file cut inside a frame head
        assert_invalid(&path, &good[..HEAD_AT - 3]);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_crc_flip_in_the_last_frame() {
        let path = tmp("hostile-crc");
        let mut bytes = written(&path, 4);
        let last = bytes.len() - 1;
        bytes[last] ^= 0x80;
        assert_invalid(&path, &bytes);
        std::fs::remove_file(&path).ok();
    }

    /// A count past the frames present runs out of file: a header
    /// claiming 2⁴⁰ shapes reserves nothing for them.
    #[test]
    fn hostile_shape_count_past_the_records_is_truncated() {
        let path = tmp("hostile-count");
        let mut bytes = written(&path, 0);
        set_count(&mut bytes, 1 << 40);
        assert_invalid(&path, &bytes);
        let mut bytes = written(&path, 2);
        set_count(&mut bytes, 3);
        assert_invalid(&path, &bytes);
        // the re-sealed header is well formed: the true count loads
        set_count(&mut bytes, 2);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read(&path).unwrap(), sample(2));
        std::fs::remove_file(&path).ok();
    }

    /// An insert frame whose vertex count is past its payload, CRC and
    /// all, is refused before its vertices are reserved.
    #[test]
    fn hostile_vertex_count_past_the_payload_is_truncated() {
        let path = tmp("hostile-vertices");
        let mut head = written(&path, 0);
        set_count(&mut head, 1);
        let frame = |n: u32| {
            let mut bytes = head.clone();
            put_frame(&mut bytes, |b| {
                put_insert(b, 0, 0, 0, true, [(0.0, 0.0), (3.0, 0.2), (1.5, 2.0)].into_iter());
                let at = b.len() - 3 * 16 - 4;
                b[at..at + 4].copy_from_slice(&n.to_le_bytes());
            });
            bytes
        };
        std::fs::write(&path, frame(3)).unwrap();
        assert_eq!(read(&path).unwrap().shapes.len(), 1, "the honest count loads");
        assert_invalid(&path, &frame(u32::MAX));
        assert_invalid(&path, &frame(4));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_trailing_bytes_after_the_last_frame() {
        let path = tmp("hostile-trailing");
        let mut bytes = written(&path, 2);
        bytes.push(0);
        assert_invalid(&path, &bytes);
        // a whole extra frame past the count is trailing too
        let mut bytes = written(&path, 2);
        let mut extra = Vec::new();
        put_frame(&mut extra, |b| {
            put_insert(b, 0, 99, 0, false, [(0.0, 0.0), (1.0, 1.0)].into_iter())
        });
        bytes.extend_from_slice(&extra);
        assert_invalid(&path, &bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_delete_body_inside_a_checkpoint() {
        let path = tmp("hostile-delete");
        let mut bytes = written(&path, 0);
        set_count(&mut bytes, 1);
        put_frame(&mut bytes, |b| {
            b.put_u8(2); // a `WalRecord::Delete` body
            b.put_u64_le(7);
        });
        assert_invalid(&path, &bytes);
        std::fs::remove_file(&path).ok();
    }

    /// A checkpoint of the paged format (magic `GSIR` 0 1 and a page
    /// count, then FNV-1a per 1 KB page) is refused, never misread — also
    /// a 14-byte one whose count claims 2⁴⁰ pages.
    #[test]
    fn hostile_file_in_the_old_page_format() {
        let path = tmp("hostile-paged");
        assert_invalid(&path, include_bytes!("../tests/checkpoints/paged/straddle.gsir"));
        let mut bytes = b"GSIR\x00\x01".to_vec();
        bytes.put_u64_le(1 << 40);
        assert_invalid(&path, &bytes);
        std::fs::remove_file(&path).ok();
    }

    /// A bad frame fails the read before any later shape reaches the
    /// pool; the shapes of earlier frames were decoded as they arrived.
    #[test]
    fn hostile_bad_frame_fails_before_its_shapes() {
        let path = tmp("hostile-mid");
        let data = sample(200);
        let mut bytes = written(&path, 200);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let mut pool = Vec::new();
        let err = read_into(&path, &mut pool).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(!pool.is_empty() && pool.len() < 200, "{} shapes streamed in", pool.len());
        assert_eq!(pool[..], data.shapes[..pool.len()]);
        std::fs::remove_file(&path).ok();
    }
}
