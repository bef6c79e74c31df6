//! The zero-allocation claim for the approximate tier: after warm-up,
//! `Snapshot::similar_approx_with` — what the server worker runs per
//! `QueryApprox`: in-place normalization, the nearest-edge grid over the
//! query, the signature probe and the exact rerank — through reused
//! scratches must not touch the heap.
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

use geosir::core::dynamic::{DynMatch, DynamicBase};
use geosir::core::ids::ImageId;
use geosir::core::matcher::{MatchConfig, MatchOutcome};
use geosir::core::scratch::MatcherScratch;
use geosir::core::{ApproxOptions, ApproxScratch, ApproxStats};
use geosir::geom::Polyline;
use geosir::imaging::synth::{perturb, random_simple_polygon};
use rand::prelude::*;
use rand::rngs::StdRng;

#[test]
fn approx_probe_and_rerank_steady_state_makes_zero_allocations() {
    const BUFFER_CAP: usize = 8;
    let mut rng = StdRng::seed_from_u64(29);
    let mut base = DynamicBase::new(
        0.1,
        MatchConfig { k: 3, beta: 0.25, ..Default::default() },
        BUFFER_CAP,
    );
    let mut raw_queries: Vec<Polyline> = Vec::new();
    // several buffer flushes so candidates come from multiple levels;
    // leave 3 shapes in the buffer so the buffered probe arm runs too
    for i in 0..(6 * BUFFER_CAP + 3) {
        let n = rng.random_range(6..16);
        let shape = random_simple_polygon(&mut rng, n, 0.35);
        if i % 5 == 0 {
            raw_queries.push(perturb(&shape, &mut rng, 0.01));
        }
        base.insert(ImageId(i as u32), shape);
    }
    let deleted = base.delete(geosir::core::dynamic::GlobalShapeId(3));
    assert!(deleted);
    let snapshot = base.snapshot();
    assert!(snapshot.num_levels() >= 1, "inserts never formed a level");

    let opts = ApproxOptions::default();
    let mut scratch = MatcherScratch::new();
    let mut tmp = MatchOutcome::default();
    let mut ax = ApproxScratch::new();
    let mut stats = ApproxStats::default();
    let mut out: Vec<DynMatch> = Vec::new();
    // the served entry: raw queries (6–15 edges each), normalized and
    // gridded in place inside the window
    let mut served = |out: &mut Vec<DynMatch>| {
        for q in &raw_queries {
            snapshot.similar_approx_with(&mut scratch, &mut tmp, &mut ax, q, &opts, out, &mut stats);
        }
    };
    // warm-up: grow every probe/rerank buffer to its high-water mark
    for _ in 0..2 {
        served(&mut out);
    }
    assert!(!out.is_empty(), "warm-up produced no matches");
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    served(&mut out);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state similar_approx_with allocated {} time(s) across {} queries",
        after - before,
        raw_queries.len()
    );
    assert!(!out.is_empty());
}
