//! Whole-base checkpoints, streamed through the 1 KB page layer.
//!
//! A checkpoint is the dynamic base's live shapes — global id, image,
//! full-fidelity f64 geometry — plus `epoch` and `next_id`, serialized
//! into one stream that [`crate::file_disk`] cuts into the paper's 1 KB
//! pages, each with its checksum. The writer walks the live shapes
//! twice: once to size the stream, whose page count heads the file, and
//! once to encode each record into one reused buffer. It holds that
//! record and a 64 KiB write buffer, never a copy of the base. The
//! reader checks each page's checksum before it decodes a byte of it,
//! and decodes straight into the shape pool `DynamicBase::restore`
//! takes. Restart loads the checkpoint named by the
//! [`crate::manifest::Manifest`], rebuilds the base with one bulk load,
//! and replays the WAL tail on top.
//!
//! Stream layout, little-endian: magic `GSCKPT\0\1`, the stream's length
//! in bytes, `epoch`, `next_id`, the shape count; then per shape its id
//! (u64), image (u32), closed flag (u8), vertex count (u32) and (x, y)
//! f64 pairs. Zero padding fills the last page.
//!
//! Durability protocol: the pages are written to `<name>.tmp`, fsynced,
//! then renamed into place — a crash mid-checkpoint leaves the previous
//! checkpoint (and manifest) untouched.

use std::path::Path;

use bytes::{Buf, BufMut};
use geosir_core::dynamic::GlobalShapeId;
use geosir_core::ids::ImageId;
use geosir_geom::{Point, Polyline};

use crate::disk::BLOCK_SIZE;
use crate::faults::{FileFactory, IoFactory};
use crate::file_disk::{PageReader, PageWriter, PersistError};
use crate::wal::sync_dir;

/// Stream header magic: "GSCKPT" + version.
const MAGIC: [u8; 8] = *b"GSCKPT\x00\x01";
/// Magic, stream length, epoch, next id, shape count.
const HEADER: usize = MAGIC.len() + 4 * 8;
/// A shape record before its vertices: id, image, closed, vertex count.
const RECORD_HEAD: usize = 8 + 4 + 1 + 4;

fn record_len(vertices: usize) -> usize {
    RECORD_HEAD + 16 * vertices
}

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

/// Stream `epoch`, `next_id` and `shapes` — `(id, image, vertices,
/// closed)`, walked twice — into 1 KB pages appended through `io`, and
/// atomically install them at `path` (via `path.tmp` + rename + dir
/// fsync). Returns how many shapes it wrote.
pub fn write_shapes<'a>(
    path: &Path,
    io: &dyn IoFactory,
    epoch: u64,
    next_id: u64,
    shapes: impl Iterator<Item = (GlobalShapeId, ImageId, &'a [Point], bool)> + Clone,
) -> Result<u64, PersistError> {
    let (count, len) = shapes.clone().fold((0u64, HEADER as u64), |(n, len), (.., pts, _)| {
        (n + 1, len + record_len(pts.len()) as u64)
    });
    let tmp = path.with_extension("tmp");
    let mut pages = PageWriter::create(io, &tmp, len)?;
    let mut rec = Vec::with_capacity(HEADER);
    rec.put_slice(&MAGIC);
    rec.put_u64_le(len);
    rec.put_u64_le(epoch);
    rec.put_u64_le(next_id);
    rec.put_u64_le(count);
    pages.write(&rec)?;
    for (gid, image, pts, closed) in shapes {
        rec.clear();
        rec.put_u64_le(gid.0);
        rec.put_u32_le(image.0);
        rec.put_u8(closed as u8);
        rec.put_u32_le(pts.len() as u32);
        for p in pts {
            rec.put_f64_le(p.x);
            rec.put_f64_le(p.y);
        }
        pages.write(&rec)?;
    }
    pages.finish()?;
    crate::faults::crash_if_armed("checkpoint.mid");
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        sync_dir(dir);
    }
    Ok(count)
}

/// [`write_shapes`] over owned shapes, through real files.
pub fn write(path: &Path, data: &CheckpointData) -> Result<u64, PersistError> {
    let shapes =
        data.shapes.iter().map(|(gid, image, s)| (*gid, *image, s.points(), s.is_closed()));
    write_shapes(path, &FileFactory, data.epoch, data.next_id, shapes)
}

/// Load a checkpoint written by [`write_shapes`], verifying every page
/// checksum and the stream structure.
pub fn read(path: &Path) -> Result<CheckpointData, PersistError> {
    let mut shapes = Vec::new();
    let (epoch, next_id) = read_into(path, &mut shapes)?;
    Ok(CheckpointData { epoch, next_id, shapes })
}

/// The checkpoint stream as checked pages, read a field at a time up to
/// the stream's length.
struct Stream {
    pages: PageReader,
    page: [u8; BLOCK_SIZE],
    /// Read position in `page` (`BLOCK_SIZE`: the next page is due).
    at: usize,
    /// Stream bytes not yet read.
    left: u64,
}

impl Stream {
    fn fill(&mut self, out: &mut [u8]) -> Result<(), PersistError> {
        if out.len() as u64 > self.left {
            return Err(PersistError::Truncated);
        }
        self.left -= out.len() as u64;
        let mut done = 0;
        while done < out.len() {
            if self.at == BLOCK_SIZE {
                if !self.pages.next_page(&mut self.page)? {
                    return Err(PersistError::Truncated);
                }
                self.at = 0;
            }
            let n = (out.len() - done).min(BLOCK_SIZE - self.at);
            out[done..done + n].copy_from_slice(&self.page[self.at..self.at + n]);
            (done, self.at) = (done + n, self.at + n);
        }
        Ok(())
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        let mut b = [0u8; 8];
        self.fill(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
}

/// Decode the checkpoint at `path` into `pool`, returning its `epoch`
/// and `next_id`. Every byte is checked by its page's checksum before it
/// is decoded, so a failed read leaves in `pool` only shapes from pages
/// before the bad one.
fn read_into(
    path: &Path,
    pool: &mut Vec<(GlobalShapeId, ImageId, Polyline)>,
) -> Result<(u64, u64), PersistError> {
    let pages = PageReader::open(path)?;
    let left = (pages.pages() * BLOCK_SIZE) as u64;
    let mut s = Stream { pages, page: [0; BLOCK_SIZE], at: BLOCK_SIZE, left };
    let mut magic = [0u8; MAGIC.len()];
    s.fill(&mut magic)?;
    if magic != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let len = s.u64()?;
    if len < HEADER as u64 || len > left {
        return Err(PersistError::Truncated);
    }
    s.left = len - (MAGIC.len() + 8) as u64;
    let epoch = s.u64()?;
    let next_id = s.u64()?;
    let count = s.u64()?;
    // no more shapes than the payload has room for, at two vertices
    // (an open polyline's least) apiece
    pool.reserve(count.min(s.left / record_len(2) as u64) as usize);
    for _ in 0..count {
        let mut head = [0u8; RECORD_HEAD];
        s.fill(&mut head)?;
        let mut head = &head[..];
        let gid = GlobalShapeId(head.get_u64_le());
        let image = ImageId(head.get_u32_le());
        let closed = match head.get_u8() {
            0 => false,
            1 => true,
            _ => return Err(PersistError::Corrupt(0)),
        };
        let n = head.get_u32_le() as u64;
        if n * 16 > s.left {
            return Err(PersistError::Truncated);
        }
        let mut pts = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let mut xy = [0u8; 16];
            s.fill(&mut xy)?;
            let mut xy = &xy[..];
            pts.push(Point::new(xy.get_f64_le(), xy.get_f64_le()));
        }
        let shape = if closed { Polyline::closed(pts) } else { Polyline::open(pts) }
            .map_err(|_| PersistError::Corrupt(0))?;
        pool.push((gid, image, shape));
    }
    if s.left != 0 {
        return Err(PersistError::Corrupt(0));
    }
    // pages past the stream's end are checked too
    while s.pages.next_page(&mut s.page)? {}
    Ok((epoch, next_id))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
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

    /// A page file holding `stream`, as the writer would cut it.
    fn page_file(path: &Path, stream: &[u8]) {
        let mut pages = PageWriter::create(&FileFactory, path, stream.len() as u64).unwrap();
        pages.write(stream).unwrap();
        pages.finish().unwrap();
    }

    /// A stream header claiming `count` shapes and the stream's length.
    fn header(count: u64, records: &[u8]) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.put_u64_le((HEADER + records.len()) as u64);
        out.put_u64_le(1);
        out.put_u64_le(2);
        out.put_u64_le(count);
        out.extend_from_slice(records);
        out
    }

    #[test]
    fn round_trip_empty_base() {
        let path = tmp("empty");
        let data = CheckpointData { epoch: 0, next_id: 0, shapes: Vec::new() };
        write(&path, &data).unwrap();
        assert_eq!(read(&path).unwrap(), data);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn round_trip_multi_page() {
        let path = tmp("multipage");
        let data = sample(200); // ≫ 1 KB of stream
        write(&path, &data).unwrap();
        let loaded = read(&path).unwrap();
        assert_eq!(loaded, data, "f64 geometry must survive exactly");
        let meta = std::fs::metadata(&path).unwrap();
        assert!(meta.len() > 2 * BLOCK_SIZE as u64, "expected a multi-page image");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_byte_is_a_checksum_error() {
        let path = tmp("flipped");
        write(&path, &sample(50)).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            matches!(read(&path), Err(PersistError::Corrupt(_))),
            "a flipped page byte must fail the per-block checksum, not yield shapes"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn no_tmp_residue_after_write() {
        let path = tmp("restmp");
        write(&path, &sample(3)).unwrap();
        assert!(!path.with_extension("tmp").exists());
        std::fs::remove_file(&path).ok();
    }

    /// A 14-byte file whose header claims 2⁴⁰ pages is an error, not an
    /// allocation of them.
    #[test]
    fn hostile_page_count_in_a_fourteen_byte_file_is_truncated() {
        let path = tmp("hostile-header");
        let mut bytes = b"GSIR\x00\x01".to_vec();
        bytes.put_u64_le(1 << 40);
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read(&path), Err(PersistError::Truncated)));
        std::fs::remove_file(&path).ok();
    }

    /// A shape count past the records that follow runs out of stream: a
    /// 40-byte stream claiming 2⁴⁰ shapes reserves nothing for them.
    #[test]
    fn hostile_shape_count_past_the_records_is_truncated() {
        let path = tmp("hostile-count");
        page_file(&path, &header(1 << 40, &[]));
        assert!(matches!(read(&path), Err(PersistError::Truncated)));

        // two real records, three claimed
        let mut records = Vec::new();
        for (gid, image, s) in &sample(2).shapes {
            records.put_u64_le(gid.0);
            records.put_u32_le(image.0);
            records.put_u8(s.is_closed() as u8);
            records.put_u32_le(s.num_vertices() as u32);
            for p in s.points() {
                records.put_f64_le(p.x);
                records.put_f64_le(p.y);
            }
        }
        page_file(&path, &header(3, &records));
        assert!(matches!(read(&path), Err(PersistError::Truncated)));
        page_file(&path, &header(2, &records));
        assert_eq!(read(&path).unwrap().shapes, sample(2).shapes);
        std::fs::remove_file(&path).ok();
    }

    /// A vertex count past the payload is refused before its vertices
    /// are reserved.
    #[test]
    fn hostile_vertex_count_past_the_payload_is_truncated() {
        let path = tmp("hostile-vertices");
        let mut record = Vec::new();
        record.put_u64_le(0);
        record.put_u32_le(0);
        record.put_u8(1);
        record.put_u32_le(u32::MAX);
        record.extend_from_slice(&[0; 48]);
        page_file(&path, &header(1, &record));
        assert!(matches!(read(&path), Err(PersistError::Truncated)));
        std::fs::remove_file(&path).ok();
    }

    /// A bad checksum on page k > 0 fails the read before any shape with
    /// a byte on page k reaches the pool; the shapes of earlier pages
    /// were decoded as their pages arrived.
    #[test]
    fn hostile_bad_checksum_on_a_later_page_fails_before_its_shapes() {
        let path = tmp("hostile-page");
        let data = sample(200);
        write(&path, &data).unwrap();
        let k = 5;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[14 + k * (8 + BLOCK_SIZE) + 8 + 500] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let mut pool = Vec::new();
        assert!(matches!(read_into(&path, &mut pool), Err(PersistError::Corrupt(5))));
        assert!(!pool.is_empty(), "earlier pages' shapes stream in");
        let end = HEADER + pool.iter().map(|(.., s)| record_len(s.num_vertices())).sum::<usize>();
        assert!(end <= k * BLOCK_SIZE, "a shape ending at byte {end} used page {k}");
        assert_eq!(pool[..], data.shapes[..pool.len()]);
        std::fs::remove_file(&path).ok();
    }
}
