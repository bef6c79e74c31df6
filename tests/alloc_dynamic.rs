//! The zero-allocation claim extended to the dynamic base: after warm-up,
//! `Snapshot::retrieve_with_stats` (the path every server worker runs) through a
//! reused scratch must not touch the heap — not in the seed probe, not in
//! the level runs, not in the buffer scan. A counting global allocator
//! wraps the system one.
//!
//! First with an exact multiple of `buffer_cap` inserted (empty buffer),
//! then with three levels and a part-filled buffer, where the query used
//! to be re-normalized and re-indexed on the heap once per call.
//!
//! Own test binary (one `#[test]`), so no concurrent test can allocate
//! while the steady-state window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use geosir::core::dynamic::{DynMatch, DynamicBase, RetrieveStats};
use geosir::core::ids::ImageId;
use geosir::core::matcher::{MatchConfig, MatchOutcome};
use geosir::core::scratch::MatcherScratch;
use geosir::geom::Polyline;
use geosir::imaging::synth::{perturb, random_simple_polygon};
use rand::prelude::*;
use rand::rngs::StdRng;

#[test]
fn dynamic_retrieve_with_steady_state_makes_zero_allocations() {
    const BUFFER_CAP: usize = 8;
    let mut rng = StdRng::seed_from_u64(23);
    let mut base = DynamicBase::new(
        0.1,
        MatchConfig { k: 3, beta: 0.25, ..Default::default() },
        BUFFER_CAP,
    );
    let mut queries: Vec<Polyline> = Vec::new();
    // 48 = 6 × BUFFER_CAP inserts: the buffer flushes into levels and ends
    // exactly empty, so retrieval takes only the leveled (plan + scratch)
    // path
    for i in 0..(6 * BUFFER_CAP) {
        let n = rng.random_range(6..16);
        let shape = random_simple_polygon(&mut rng, n, 0.35);
        if i % 5 == 0 {
            queries.push(perturb(&shape, &mut rng, 0.01));
        }
        base.insert(ImageId(i as u32), shape);
    }
    // a few tombstones exercise the filter without touching the buffer
    let deleted = base.delete(geosir::core::dynamic::GlobalShapeId(3));
    assert!(deleted);
    let snapshot = base.snapshot();
    assert!(snapshot.num_levels() >= 1, "inserts never formed a level");

    let mut scratch = MatcherScratch::new();
    let mut tmp = MatchOutcome::default();
    let mut out: Vec<DynMatch> = Vec::new();
    let mut stats = RetrieveStats::default();
    // warm-up: grow every per-level buffer to its high-water mark
    for _ in 0..2 {
        for q in &queries {
            snapshot.retrieve_with_stats(&mut scratch, &mut tmp, q, 0, &mut out, &mut stats);
        }
    }
    assert!(!out.is_empty(), "warm-up produced no matches");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for q in &queries {
        snapshot.retrieve_with_stats(&mut scratch, &mut tmp, q, 0, &mut out, &mut stats);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state Snapshot::retrieve_with_stats allocated {} time(s) across {} queries",
        after - before,
        queries.len()
    );
    assert!(!out.is_empty());

    // three more inserts: the same levels (≥ 2) plus a non-empty buffer
    for _ in 0..3 {
        let n = rng.random_range(6..16);
        base.insert(ImageId(1000), random_simple_polygon(&mut rng, n, 0.35));
    }
    let snapshot = base.snapshot();
    assert!(snapshot.num_levels() >= 2, "test needs at least two levels");
    for _ in 0..2 {
        for q in &queries {
            snapshot.retrieve_with_stats(&mut scratch, &mut tmp, q, 0, &mut out, &mut stats);
        }
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for q in &queries {
        snapshot.retrieve_with_stats(&mut scratch, &mut tmp, q, 0, &mut out, &mut stats);
        assert!(!out.is_empty());
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state retrieval over levels + a non-empty buffer allocated {} time(s)",
        after - before
    );
}
