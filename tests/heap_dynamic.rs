//! The dynamic base's heap budget, in `churn_durable`'s world
//! (`small(700, 1)`, α = 0, buffer cap 512, preloaded one `insert` at a
//! time as the benchmark driver does):
//!
//! (a) `Snapshot::heap_bytes` — the base's own account of its arenas,
//!     tables, buckets and buffered shapes — agrees with what the
//!     allocator says the preload left live, within ±10 %;
//! (b) the base costs at most `MAX_BYTES_PER_COPY` a live copy (the
//!     per-copy layout before the flat arena cost ≈ 690 B, the flat
//!     arena of `f64` vertices 525 B);
//! (c) the insert that triggers a carry allocates a bounded number of
//!     heap blocks, however many shapes the carry moves: a carry sizes
//!     the level exactly, then copies ranges into it.
//!
//! A counting global allocator wraps the system one. Own test binary (one
//! `#[test]`), so no concurrent test can allocate inside the windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

/// Blocks allocated (reallocations included), and bytes live.
static BLOCKS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use geosir::core::dynamic::DynamicBase;
use geosir::core::matcher::MatchConfig;
use geosir::imaging::synth::{generate, CorpusConfig};

/// Measured 327 B a live copy at the preload (3 841 shapes, 7 682
/// copies: 2.51 MB live; 525 B before copies were stored as quantized
/// vertices and a similarity), plus under 10 % headroom.
const MAX_BYTES_PER_COPY: u64 = 355;
/// Measured 32 blocks for every carry of the preload but the first, 512
/// to 2 048 shapes alike: the insert's own normalization and hashing (8),
/// the level's arena and tables (11), its buckets (6) and id table, its
/// slot, and the journal line.
const MAX_CARRY_BLOCKS: u64 = 32;

#[test]
fn churn_durable_base_fits_its_heap_budget() {
    let corpus = generate(&CorpusConfig::small(700, 1));
    let held_before = LIVE.load(Ordering::Relaxed);
    let mut base = DynamicBase::new(0.0, MatchConfig { beta: 0.2, ..Default::default() }, 512);
    // (shapes carried, blocks the insert allocated)
    let mut carries = Vec::new();
    for (image, _, shape) in &corpus.shapes {
        let shape = shape.clone();
        let (rebuilt, blocks) = (base.shapes_rebuilt, BLOCKS.load(Ordering::Relaxed));
        base.insert(*image, shape);
        if base.shapes_rebuilt > rebuilt {
            carries.push((base.shapes_rebuilt - rebuilt, BLOCKS.load(Ordering::Relaxed) - blocks));
        }
    }
    let held = LIVE.load(Ordering::Relaxed) - held_before;
    let snap = base.snapshot();
    assert_eq!(snap.len(), corpus.shapes.len());

    // (a) the base's own account against the allocator's
    let counted = snap.heap_bytes() as f64;
    let ratio = counted / held as f64;
    assert!((0.9..=1.1).contains(&ratio), "heap_bytes {counted} vs {held} B live ({ratio:.3})");

    // (b) bytes a live copy
    let per_copy = held / snap.total_copies() as u64;
    assert!(
        per_copy <= MAX_BYTES_PER_COPY,
        "{per_copy} B a copy ({held} B over {} copies)",
        snap.total_copies()
    );

    // (c) a carry's blocks do not grow with what it carries (the first
    // also makes the slot table and the process's journal, once)
    let steady = &carries[1..];
    let (top, least) = (steady.iter().max().unwrap(), steady.iter().min().unwrap());
    assert!(top.0 >= 2048 && least.0 <= 512, "carries {carries:?}");
    assert!(top.1 <= least.1, "a carry of {} shapes took more blocks than one of {}: {carries:?}", top.0, least.0);
    for (shapes, blocks) in steady {
        assert!(*blocks <= MAX_CARRY_BLOCKS, "a carry of {shapes} shapes allocated {blocks} blocks: {carries:?}");
    }
}
