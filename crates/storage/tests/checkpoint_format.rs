//! The checkpoint format is pinned: the files under `tests/checkpoints/`
//! were written by the framed writer from the bases built below. The
//! writer must reproduce each byte for byte, and the reader must load
//! each back to the same shapes, epoch and id watermark. The files under
//! `tests/checkpoints/paged/` are checkpoints of the paged format that
//! came before (1 KB pages, an FNV-1a checksum each); each must be
//! refused as `InvalidData`, never misread.

use std::io;
use std::path::{Path, PathBuf};

use geosir_core::dynamic::{DynamicBase, GlobalShapeId, RetrieveStats};
use geosir_core::{ImageId, MatchConfig, MatchOutcome, MatcherScratch};
use geosir_geom::{Point, Polyline};
use geosir_storage::checkpoint;
use geosir_storage::faults::FileFactory;

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

/// No shapes: the magic and the header frame alone.
fn empty() -> DynamicBase {
    base(4)
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

/// A checked-in checkpoint (cargo runs a package's tests from its root).
fn fixture(name: &str) -> PathBuf {
    Path::new("tests/checkpoints").join(format!("{name}.gsir"))
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
fn empty_base_is_the_header_frame_alone() {
    let file = check("empty", empty());
    // magic, frame head, LSN | epoch | next id | count
    assert_eq!(file.len(), 8 + 8 + 32);
}

#[test]
fn paged_checkpoints_are_refused_not_misread() {
    for name in ["empty", "churned", "straddle", "page_aligned"] {
        let err = checkpoint::read(&fixture(&format!("paged/{name}")))
            .expect_err("a paged checkpoint must not load");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}: {err}");
    }
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
