//! The checkpoint format is pinned: the files under `tests/checkpoints/`
//! were written by the whole-stream writer that preceded the streaming
//! one, from the bases built below. The streaming writer must reproduce
//! each byte for byte, and the reader must load each back to the same
//! shapes, epoch and id watermark.

use std::path::{Path, PathBuf};

use geosir_core::dynamic::{DynamicBase, GlobalShapeId, RetrieveStats};
use geosir_core::{ImageId, MatchConfig, MatchOutcome, MatcherScratch};
use geosir_geom::{Point, Polyline};
use geosir_storage::checkpoint;
use geosir_storage::faults::FileFactory;
use geosir_storage::BLOCK_SIZE;

/// Shape `i` with `n` vertices, on coordinates exact in binary (no
/// trigonometry, so every platform builds the same bits); every third
/// is open.
fn shape(i: u64, n: usize) -> Polyline {
    let pts = (0..n)
        .map(|j| {
            let x = j as f64 + (i % 5) as f64 * 0.125;
            let y = ((j as u64 * 7 + i * 3) % 13) as f64 * 0.25;
            Point::new(x, y)
        })
        .collect();
    match i % 3 {
        0 => Polyline::open(pts),
        _ => Polyline::closed(pts),
    }
    .unwrap()
}

fn base(cap: usize) -> DynamicBase {
    DynamicBase::new(0.0, MatchConfig::default(), cap)
}

/// No shapes: the 40-byte header alone, one page.
fn empty() -> DynamicBase {
    base(4)
}

/// Twelve 7-vertex shapes in one bulk-loaded level: 1 588 stream bytes,
/// and the ninth record spans bytes 943..1 072, across the first page
/// boundary.
fn straddle() -> DynamicBase {
    let mut b = base(4);
    b.bulk_load((0..12).map(|i| (ImageId(i as u32), shape(i, 7))));
    b
}

/// Eight shapes of 117 vertices in all, inserted one at a time:
/// 40 + 8 · 17 + 117 · 16 = 2 048 stream bytes, two whole pages and no
/// padding.
fn page_aligned() -> DynamicBase {
    let mut b = base(4);
    for (i, n) in [15, 15, 15, 15, 15, 15, 15, 12].into_iter().enumerate() {
        b.insert(ImageId(i as u32), shape(i as u64, n));
    }
    b
}

/// Thirty inserts into a buffer of 4 (levels of 4, 8 and 16, and 2
/// shapes left buffered), then five deletes that leave tombstones.
fn churned() -> DynamicBase {
    let mut b = base(4);
    for i in 0..30u64 {
        b.insert(ImageId(i as u32 % 7), shape(i, 3 + i as usize % 9));
    }
    for id in [1, 5, 6, 13, 20] {
        assert!(b.delete(GlobalShapeId(id)));
    }
    b
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/checkpoints").join(format!("{name}.gsir"))
}

/// The stream length the file's first page declares.
fn stream_len(file: &[u8]) -> usize {
    u64::from_le_bytes(file[14 + 8 + 8..14 + 8 + 16].try_into().unwrap()) as usize
}

fn check(name: &str, base: DynamicBase) -> Vec<u8> {
    let snap = base.snapshot();
    let want = std::fs::read(fixture(name)).unwrap();
    let mut path = std::env::temp_dir();
    path.push(format!("geosir-format-{}-{name}.gsir", std::process::id()));
    let shapes = snap.walk_live_shapes();
    checkpoint::write_shapes(&path, &FileFactory, snap.epoch(), snap.next_id(), shapes).unwrap();
    let got = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    // not assert_eq: a mismatch would print kilobytes
    assert!(got == want, "{name}: {} bytes written, the fixture holds {}", got.len(), want.len());

    let data = checkpoint::read(&fixture(name)).unwrap();
    assert_eq!((data.epoch, data.next_id), (snap.epoch(), snap.next_id()), "{name}");
    assert_eq!(data.shapes, snap.live_shapes(), "{name}");
    want
}

#[test]
fn empty_base_is_one_page_of_header() {
    let file = check("empty", empty());
    assert_eq!((stream_len(&file), file.len()), (40, 14 + 8 + BLOCK_SIZE));
}

#[test]
fn a_record_straddling_a_page_round_trips() {
    let file = check("straddle", straddle());
    assert_eq!(stream_len(&file), 1588);
    assert_eq!(file.len(), 14 + 2 * (8 + BLOCK_SIZE));
}

#[test]
fn a_stream_ending_on_a_page_boundary_has_no_padding_page() {
    let file = check("page_aligned", page_aligned());
    assert_eq!(stream_len(&file), 2 * BLOCK_SIZE);
    assert_eq!(file.len(), 14 + 2 * (8 + BLOCK_SIZE));
}

#[test]
fn a_churned_base_with_tombstones_and_a_buffer_round_trips() {
    let b = churned();
    let snap = b.snapshot();
    assert!(snap.dead_shapes() > 0, "no tombstones left to skip");
    let (mut scratch, mut tmp) = (MatcherScratch::new(), MatchOutcome::default());
    let (mut out, mut stats) = (Vec::new(), RetrieveStats::default());
    snap.retrieve_with_stats(&mut scratch, &mut tmp, &shape(0, 3), 3, &mut out, &mut stats);
    assert_eq!(stats.buffer_scored, 2, "the insert buffer must hold shapes");
    assert_eq!(snap.len(), 25);
    check("churned", b);
}
