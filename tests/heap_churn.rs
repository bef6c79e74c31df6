//! The dynamic base's high-water mark under churn, in `churn_durable`'s
//! world (`small(700, 1)`, α = 0, buffer cap 512, preloaded one `insert`
//! at a time as the benchmark's load generator does):
//!
//! (a) a carry allocates at most the buffer's own bytes plus
//!     `MAX_CARRY_BYTES_PER_COPY` a copy of the level it makes — its
//!     index, id table and offsets — whatever the level's size: the
//!     consumed levels' chunks are shared, never copied;
//! (b) over 40 000 ops alternating insert (a corpus shape jittered by
//!     ±0.01 of its diameter) and delete (a random live id), with a
//!     snapshot held across each 16 writes, the live heap never passes
//!     `MAX_PEAK_OVER_BASE` × the largest `Snapshot::heap_bytes` seen, nor
//!     `MAX_PEAK_BYTES`;
//! (c) the base stores at most 2 × its live copies after every op.
//!
//! A counting global allocator wraps the system one. Own test binary (one
//! `#[test]`), so no concurrent test can allocate inside the windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

/// Bytes live, their high-water mark, and bytes ever allocated
/// (reallocations count their new size).
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    ALLOCATED.fetch_add(bytes as u64, Ordering::Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        grew(new_size);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

use geosir::core::dynamic::{DynamicBase, QueryExplain, RetrieveStats, Snapshot};
use geosir::core::matcher::{MatchConfig, MatchOutcome};
use geosir::core::scratch::MatcherScratch;
use geosir::imaging::synth::{generate, perturb, CorpusConfig};
use rand::prelude::*;

/// What a carry may allocate a copy of the level it makes, beyond the
/// buffer it seals: the bucket table and its build (≈ 40 B), the id
/// tables (12 B) and the chunk list. Copying the base instead costs
/// ≈ 314 B a copy.
const MAX_CARRY_BYTES_PER_COPY: u64 = 64;
/// The live heap's high-water mark over the largest base a snapshot
/// counted: 1.63 while a carry copied every live shape into a new level
/// and snapshots held the old ones.
const MAX_PEAK_OVER_BASE: f64 = 1.25;
/// And in bytes (6.14 MB while carries copied the base).
const MAX_PEAK_BYTES: u64 = 4_900_000;

/// Copies held by the smallest level of `snap` — the one a carry just
/// made — as an EXPLAIN counts them: scored plus settled.
fn smallest_level_copies(snap: &Snapshot, query: &geosir::geom::Polyline) -> u64 {
    let (mut scratch, mut tmp, mut explain) = (MatcherScratch::new(), MatchOutcome::default(), QueryExplain::default());
    let (mut out, mut stats) = (Vec::new(), RetrieveStats::default());
    snap.explain_with_stats(&mut scratch, &mut tmp, query, 1, &mut out, &mut stats, &mut explain);
    let level = explain.levels.last().expect("a level");
    level.scored + level.settled as u64
}

#[test]
fn churn_keeps_the_heap_within_a_quarter_of_the_base() {
    let corpus = generate(&CorpusConfig::small(700, 1));
    let mut rng = StdRng::seed_from_u64(1);
    let held_before = LIVE.load(Ordering::Relaxed);
    let mut base = DynamicBase::new(0.0, MatchConfig { beta: 0.2, ..Default::default() }, 512);

    // (a) every carry of the preload: 512 to 2 048 shapes
    let mut since_carry = LIVE.load(Ordering::Relaxed);
    let mut live = Vec::with_capacity(2 * corpus.shapes.len());
    let mut carries = Vec::new();
    for (image, _, shape) in &corpus.shapes {
        let shape = shape.clone();
        let (rebuilt, buffered) = (base.shapes_rebuilt, LIVE.load(Ordering::Relaxed) - since_carry);
        let allocated = ALLOCATED.load(Ordering::Relaxed);
        live.push(base.insert(*image, shape));
        if base.shapes_rebuilt > rebuilt {
            let allocated = ALLOCATED.load(Ordering::Relaxed) - allocated;
            let copies = smallest_level_copies(&base.snapshot(), &corpus.shapes[0].2);
            let per_copy = allocated.saturating_sub(buffered) as f64 / copies as f64;
            carries.push((base.shapes_rebuilt - rebuilt, copies, allocated, buffered));
            assert!(
                allocated <= buffered + MAX_CARRY_BYTES_PER_COPY * copies,
                "a carry into a level of {copies} copies allocated {allocated} B over a buffer of \
                 {buffered} B ({per_copy:.1} B a copy): {carries:?}"
            );
            since_carry = LIVE.load(Ordering::Relaxed);
        }
    }
    assert!(carries.iter().any(|c| c.0 >= 2048), "carries {carries:?}");
    for (shapes, copies, allocated, buffered) in &carries {
        let per_copy = allocated.saturating_sub(*buffered) as f64 / *copies as f64;
        println!("carry of {shapes} shapes: {allocated} B allocated, {buffered} B buffered, {per_copy:.1} B a copy beyond");
    }

    // (b), (c): the churn, its high-water mark against the largest base
    let mut snap = base.snapshot();
    let mut largest = snap.heap_bytes() as u64;
    PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
    for op in 0..40_000 {
        if op % 2 == 0 {
            let (image, _, proto) = &corpus.shapes[rng.random_range(0..corpus.shapes.len())];
            live.push(base.insert(*image, perturb(proto, &mut rng, 0.01)));
        } else {
            let id = live.swap_remove(rng.random_range(0..live.len()));
            assert!(base.delete(id));
        }
        // a reader holds each snapshot across 16 writes
        if op % 16 == 15 {
            snap = base.snapshot();
        }
        let now = base.snapshot();
        largest = largest.max(now.heap_bytes() as u64);
        let (stored, copies) = (now.stored_copies(), now.total_copies());
        assert!(stored <= 2 * copies, "op {op}: {stored} copies stored for {copies} live");
    }
    drop(snap);
    let peak = PEAK.load(Ordering::Relaxed) - held_before;
    let ratio = peak as f64 / largest as f64;
    println!("churn: live heap peak {peak} B, largest base {largest} B ({ratio:.2} ×)");
    assert!(ratio <= MAX_PEAK_OVER_BASE, "peak {peak} B is {ratio:.2} × the largest base, {largest} B");
    assert!(peak <= MAX_PEAK_BYTES, "peak {peak} B");
}
