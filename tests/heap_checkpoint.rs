//! A checkpoint's heap, in `churn_durable`'s world (`small(700, 1)`,
//! α = 0, buffer cap 512, preloaded one `insert` at a time as the
//! benchmark's load generator does):
//!
//! (a) writing one raises the peak of live heap bytes by at most
//!     `MAX_WRITE_BYTES` over what was live before — a record, the 64 KiB
//!     write buffer and the file handle — and by no more at twice the
//!     shapes: the writer streams from the live base, it holds no copy;
//! (b) reading it back peaks at the shape pool it returns (what
//!     `DynamicBase::restore` takes) plus at most `MAX_READ_EXTRA_BYTES`;
//! (c) a header frame claiming 2⁴⁰ shapes is `InvalidData` under the
//!     same bound: the pool's reservation is capped by the file's length.
//!
//! A counting global allocator wraps the system one and tracks the peak
//! of live bytes. Own test binary (one `#[test]`), so no concurrent test
//! can allocate inside the windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

/// Bytes live, and the most that were live since the last reset.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: u64) {
    let now = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size() as u64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // the old block is live until the new one holds its bytes
        grew(new_size as u64);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use std::path::Path;

use geosir::core::dynamic::{DynamicBase, Snapshot};
use geosir::core::matcher::MatchConfig;
use geosir::imaging::synth::{generate, CorpusConfig};
use geosir::storage::checkpoint;
use geosir::storage::faults::FileFactory;
use geosir::storage::wal::crc32;

/// The write buffer (64 KiB), a record (a few hundred bytes at this
/// world's vertex counts), the path and file handle, with room to spare.
const MAX_WRITE_BYTES: u64 = 128 * 1024;
/// The read buffer (64 KiB) and a frame, with room to spare.
const MAX_READ_EXTRA_BYTES: u64 = 96 * 1024;

/// Run `f`, returning its result and how far the live heap peaked above
/// where it started.
fn peak_above<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    (out, PEAK.load(Ordering::Relaxed) - before)
}

fn write(snap: &Snapshot, path: &Path) -> u64 {
    let shapes = snap.walk_live_shapes();
    let (r, peak) = peak_above(|| {
        checkpoint::write_shapes(path, &FileFactory, snap.epoch(), snap.next_id(), shapes)
    });
    r.unwrap();
    peak
}

#[test]
fn a_checkpoint_streams_in_bounded_heap() {
    let corpus = generate(&CorpusConfig::small(700, 1));
    let mut base = DynamicBase::new(0.0, MatchConfig { beta: 0.2, ..Default::default() }, 512);
    for (image, _, shape) in &corpus.shapes {
        base.insert(*image, shape.clone());
    }
    let dir = std::env::temp_dir().join(format!("geosir-heap-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("ckpt.gsir");

    // (a) at the world's size, then at twice its shapes
    let snap = base.snapshot();
    let one = write(&snap, &path);
    let file_bytes = std::fs::metadata(&path).unwrap().len();
    drop(snap);
    for (image, _, shape) in &corpus.shapes {
        base.insert(*image, shape.clone());
    }
    let snap = base.snapshot();
    assert_eq!(snap.len(), 2 * corpus.shapes.len());
    let two = write(&snap, &path);
    eprintln!("write peak: {one} B above the base ({file_bytes} B file), {two} B at 2x the shapes");
    for peak in [one, two] {
        assert!(peak <= MAX_WRITE_BYTES, "a checkpoint write peaked {peak} B above the base");
    }

    // (b) the read holds the pool it returns and O(page) besides
    let held = LIVE.load(Ordering::Relaxed);
    let (data, peak) = peak_above(|| checkpoint::read(&path));
    let data = data.unwrap();
    let pool = LIVE.load(Ordering::Relaxed) - held;
    assert_eq!(data.shapes, snap.live_shapes());
    eprintln!("read peak: {peak} B above the base, {pool} B of it the pool");
    assert!(
        peak <= pool + MAX_READ_EXTRA_BYTES,
        "a checkpoint read peaked {peak} B for a pool of {pool} B"
    );
    drop(data);

    // (c) a hostile shape count reserves nothing it cannot fill: an empty
    // checkpoint whose header frame (magic, len | crc, LSN | epoch |
    // next id | count) is re-sealed around a count of 2⁴⁰
    checkpoint::write_shapes(&path, &FileFactory, 0, 0, std::iter::empty()).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    assert_eq!(bytes.len(), 48);
    bytes[40..48].copy_from_slice(&(1u64 << 40).to_le_bytes());
    let crc = crc32(&bytes[16..48]);
    bytes[12..16].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();
    let (r, peak) = peak_above(|| checkpoint::read(&path));
    assert_eq!(r.unwrap_err().kind(), std::io::ErrorKind::InvalidData);
    assert!(peak <= MAX_WRITE_BYTES, "a hostile count cost {peak} B");
    std::fs::remove_dir_all(&dir).ok();
}
