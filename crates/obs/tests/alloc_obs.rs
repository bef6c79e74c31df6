//! The zero-allocation claim for the metric record path: once a series
//! exists, recording through its handle — counter incs, gauge stores,
//! histogram samples — and looking it up again by name must not touch
//! the heap, and neither may recording a finished request
//! (`Registry::record_request`)
//! once the request ring has wrapped. A counting global
//! allocator wraps the system one, mirroring the workspace-level
//! `tests/alloc_dynamic.rs`.
//!
//! Own test binary (one `#[test]`), so no concurrent test can allocate
//! while the measurement window is open.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

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

use geosir_obs::Registry;
use geosir_obs::{RequestKind, RequestRecord};

#[test]
fn record_path_makes_zero_allocations_once_warm() {
    let reg = Arc::new(Registry::new());

    // Warm-up: register every series, and fault in any lazy lock state.
    let counter = reg.counter("alloc_test_hits_total", &[("path", "hot")]);
    let gauge = reg.gauge("alloc_test_depth", &[]);
    let hist = reg.histogram("alloc_test_latency_us", &[("type", "query")]);
    counter.inc();
    gauge.set(1);
    hist.record(10);

    const ROUNDS: u64 = 1000;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..ROUNDS {
        // direct handles: the per-sample cost hot loops actually pay
        counter.inc();
        counter.add(2);
        gauge.set(i as i64);
        gauge.add(-1);
        hist.record(i % 4096);
        // repeat lookup of an existing series (read lock, no insert)
        let again = reg.counter("alloc_test_hits_total", &[("path", "hot")]);
        again.inc();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "warm record path allocated {} time(s) across {ROUNDS} rounds",
        after - before
    );

    // Sanity: the records landed where they should.
    let snap = reg.snapshot();
    assert_eq!(
        snap.counter("alloc_test_hits_total", &[("path", "hot")]),
        1 + ROUNDS * 4,
    );
    let lat = snap.histogram("alloc_test_latency_us", &[("type", "query")]).unwrap();
    assert_eq!(lat.count(), 1 + ROUNDS);

    // One finished request: refilling a reused record costs nothing, and
    // once the ring has wrapped, copying it into the oldest slot reuses
    // that slot's lists — not one allocation.
    let mut rec = RequestRecord::default();
    let mut describe = |trace_id: u64| {
        rec.begin(RequestKind::Query, trace_id)
            .stage("queue_wait", 20)
            .stage("retrieve", 100)
            .note("levels", 2)
            .note("scan_copies", 40)
            .note("hits", 10);
        (rec.total_us, rec.queue_us, rec.epoch) = (120, 20, 7);
        reg.record_request(&mut rec)
    };
    // warm-up: the record's lists grown, every slot of the ring filled
    for trace_id in 1..=300 {
        assert_eq!(describe(trace_id), trace_id);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let mut last = 0;
    for _ in 0..ROUNDS {
        last = describe(0);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "record_request allocated {} time(s) across {ROUNDS} requests",
        after - before
    );
    let newest = &reg.recent_requests()[0];
    assert_eq!((newest.trace_id, newest.notes.len()), (last, 3), "the last request landed whole");
}
