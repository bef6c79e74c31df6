//! Whole-base checkpoints through the 1 KB page layer.
//!
//! A checkpoint is the dynamic base's live shapes — global id, image,
//! full-fidelity f64 geometry — plus `epoch` and `next_id`, serialized
//! into a stream that is chunked into the same 1 KB blocks the paper's
//! external shape store uses ([`crate::disk::DiskSim`]) and persisted
//! with [`crate::file_disk`]'s per-block checksums. Restart loads the
//! checkpoint named by the [`crate::manifest::Manifest`], rebuilds the
//! base with one bulk load, and replays the WAL tail on top.
//!
//! Durability protocol: the image is written to `<name>.tmp`, fsynced,
//! then renamed into place — a crash mid-checkpoint leaves the previous
//! checkpoint (and manifest) untouched.

use std::path::Path;

use bytes::{Buf, BufMut};
use geosir_core::dynamic::GlobalShapeId;
use geosir_core::ids::ImageId;
use geosir_geom::{Point, Polyline};

use crate::disk::{DiskSim, BLOCK_SIZE};
use crate::file_disk::{self, PersistError};
use crate::wal::sync_dir;

/// Stream header magic: "GSCKPT" + version.
const MAGIC: [u8; 8] = *b"GSCKPT\x00\x01";

/// Everything a checkpoint restores.
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

fn encode(data: &CheckpointData) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + data.shapes.len() * 256);
    out.put_slice(&MAGIC);
    out.put_u64_le(0); // payload length, backpatched
    out.put_u64_le(data.epoch);
    out.put_u64_le(data.next_id);
    out.put_u64_le(data.shapes.len() as u64);
    for (gid, image, shape) in &data.shapes {
        out.put_u64_le(gid.0);
        out.put_u32_le(image.0);
        out.put_u8(shape.is_closed() as u8);
        out.put_u32_le(shape.num_vertices() as u32);
        for p in shape.points() {
            out.put_f64_le(p.x);
            out.put_f64_le(p.y);
        }
    }
    let len = out.len() as u64;
    out[8..16].copy_from_slice(&len.to_le_bytes());
    out
}

fn decode(bytes: &[u8]) -> Result<CheckpointData, PersistError> {
    let mut buf = bytes;
    let buf = &mut buf;
    if buf.len() < MAGIC.len() + 8 {
        return Err(PersistError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(PersistError::BadMagic);
    }
    buf.advance(MAGIC.len());
    let payload_len = buf.get_u64_le() as usize;
    if payload_len < MAGIC.len() + 8 || payload_len > bytes.len() {
        return Err(PersistError::Truncated);
    }
    // ignore the zero padding the page chunking appended
    let mut buf = &bytes[MAGIC.len() + 8..payload_len];
    let buf = &mut buf;
    if buf.len() < 24 {
        return Err(PersistError::Truncated);
    }
    let epoch = buf.get_u64_le();
    let next_id = buf.get_u64_le();
    let count = buf.get_u64_le() as usize;
    let mut shapes = Vec::with_capacity(count.min(1 << 20));
    for _ in 0..count {
        if buf.len() < 8 + 4 + 1 + 4 {
            return Err(PersistError::Truncated);
        }
        let gid = GlobalShapeId(buf.get_u64_le());
        let image = ImageId(buf.get_u32_le());
        let closed = match buf.get_u8() {
            0 => false,
            1 => true,
            _ => return Err(PersistError::Corrupt(0)),
        };
        let n = buf.get_u32_le() as usize;
        if buf.len() < n * 16 {
            return Err(PersistError::Truncated);
        }
        let mut pts = Vec::with_capacity(n);
        for _ in 0..n {
            let x = buf.get_f64_le();
            let y = buf.get_f64_le();
            pts.push(Point::new(x, y));
        }
        let shape = if closed { Polyline::closed(pts) } else { Polyline::open(pts) }
            .map_err(|_| PersistError::Corrupt(0))?;
        shapes.push((gid, image, shape));
    }
    if !buf.is_empty() {
        return Err(PersistError::Corrupt(0));
    }
    Ok(CheckpointData { epoch, next_id, shapes })
}

/// Serialize `data` into 1 KB pages and atomically install it at
/// `path` (via `path.tmp` + rename + dir fsync).
pub fn write(path: &Path, data: &CheckpointData) -> Result<(), PersistError> {
    let t = std::time::Instant::now();
    let stream = encode(data);
    let blocks = stream.len().div_ceil(BLOCK_SIZE).max(1);
    let mut disk = DiskSim::new(blocks);
    for (b, chunk) in stream.chunks(BLOCK_SIZE).enumerate() {
        disk.write(b, chunk);
    }
    let tmp = path.with_extension("tmp");
    file_disk::dump(&disk, &tmp)?;
    crate::faults::crash_if_armed("checkpoint.mid");
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        sync_dir(dir);
    }
    geosir_obs::with_current(|reg| {
        reg.counter("geosir_checkpoint_writes_total", &[]).inc();
        reg.histogram("geosir_checkpoint_write_us", &[]).record_duration(t.elapsed());
        reg.gauge("geosir_checkpoint_last_shapes", &[]).set(data.shapes.len() as i64);
    });
    Ok(())
}

/// Load a checkpoint written by [`write`], verifying every page
/// checksum and the stream structure.
pub fn read(path: &Path) -> Result<CheckpointData, PersistError> {
    let disk = file_disk::load(path)?;
    let mut stream = Vec::with_capacity(disk.num_blocks() * BLOCK_SIZE);
    for b in 0..disk.num_blocks() {
        stream.extend_from_slice(&disk.read(b));
    }
    decode(&stream)
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
}
