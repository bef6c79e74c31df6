//! The range tree's layout claims, enforced with a counting global
//! allocator: building over n points makes `O(log n)` heap allocations
//! (per-level arrays, not per-node `Vec`s) and owns `O(n log n)` bytes
//! with the documented constants.
//!
//! This file is its own test binary with a single `#[test]`, so no
//! concurrent test can allocate while the counted window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counter is the only addition.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use geosir_geom::rangetree::RangeTree;
use geosir_geom::Point;
use rand::prelude::*;
use rand::rngs::StdRng;

#[test]
fn build_allocates_per_level_and_stays_within_the_byte_budget() {
    let n = 20_000usize;
    let mut rng = StdRng::seed_from_u64(20);
    let pts: Vec<Point> =
        (0..n).map(|_| Point::new(rng.random_range(0.0..1.0), rng.random_range(-0.5..0.5))).collect();
    let log_n = n.next_power_of_two().trailing_zeros() as usize; // ⌈log₂ n⌉

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let tree = RangeTree::build(&pts);
    let allocations = (ALLOCATIONS.load(Ordering::Relaxed) - before) as usize;

    assert_eq!(tree.len(), n);
    assert!(
        allocations <= 4 * log_n + 8,
        "RangeTree::build made {allocations} allocations for n = {n} (budget {})",
        4 * log_n + 8
    );
    let budget = 8 * n * (log_n + 1) + 24 * n;
    assert!(
        tree.heap_bytes() <= budget,
        "RangeTree owns {} bytes for n = {n} (budget {budget})",
        tree.heap_bytes()
    );
    // and not trivially small: every level holds every point once
    assert!(tree.heap_bytes() >= 20 * n);
}
