//! The zero-allocation claim, enforced: after a warm-up pass over the
//! query set, `Matcher::retrieve_with` through a reused scratch and
//! out-parameter must not touch the heap at all, on a range-tree base. A
//! counting global allocator wraps the system one; the steady-state pass
//! asserts the counter does not move.
//!
//! This file is its own test binary with a single `#[test]`, so no
//! concurrent test can allocate while the steady-state window is open.

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

use geosir::core::ids::ImageId;
use geosir::core::matcher::{MatchConfig, MatchOutcome, Matcher};
use geosir::core::scratch::MatcherScratch;
use geosir::core::shapebase::ShapeBaseBuilder;
use geosir::geom::rangesearch::Backend;
use geosir::geom::Polyline;
use geosir::imaging::synth::{perturb, random_simple_polygon};
use rand::prelude::*;
use rand::rngs::StdRng;

#[test]
fn retrieve_with_steady_state_makes_zero_allocations() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut shapes: Vec<Polyline> = Vec::new();
    let mut queries: Vec<Polyline> = Vec::new();
    for i in 0..50 {
        let n = rng.random_range(6..16);
        let shape = random_simple_polygon(&mut rng, n, 0.35);
        if i % 4 == 0 {
            queries.push(perturb(&shape, &mut rng, 0.01));
        }
        shapes.push(shape);
    }
    let mut b = ShapeBaseBuilder::new();
    for (i, shape) in shapes.iter().enumerate() {
        b.add_shape(ImageId(i as u32), shape.clone());
    }
    let base = b.build(0.1, Backend::RangeTree);
    let matcher = Matcher::new(&base, MatchConfig { k: 3, beta: 0.25, ..Default::default() });

    let mut scratch = MatcherScratch::for_base(&base);
    let mut out = MatchOutcome::default();
    // warm-up: every buffer reaches the high-water capacity this query
    // set needs (two passes, in case a first-pass growth pattern differs)
    for _ in 0..2 {
        for q in &queries {
            matcher.retrieve_with(&mut scratch, q, &mut out);
        }
    }
    assert!(out.best().is_some(), "warm-up produced no matches");

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for q in &queries {
        matcher.retrieve_with(&mut scratch, q, &mut out);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state retrieve_with allocated {} time(s) across {} queries",
        after - before,
        queries.len()
    );
    assert!(out.best().is_some());
}
