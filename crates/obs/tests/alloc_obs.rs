//! The zero-allocation claim for the metric record path: once a series
//! exists and the per-thread handle cache is warm, recording — counter
//! incs, gauge stores, histogram samples, cached-set access through
//! `with_metrics`, and span enter/exit — must not touch the heap, and
//! neither may recording a finished request (`Registry::record_request`)
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

use geosir_obs::{set_thread_registry, with_metrics, Counter, Gauge, Histogram, Registry, SpanGuard};
use geosir_obs::{RequestKind, RequestRecord};

/// The kind of cached metric set hot server code builds once per thread.
#[derive(Clone)]
struct HotSet {
    hits: Arc<Counter>,
    depth: Arc<Gauge>,
    lat: Arc<Histogram>,
}

fn build(reg: &Registry) -> HotSet {
    HotSet {
        hits: reg.counter("alloc_test_hits_total", &[("path", "hot")]),
        depth: reg.gauge("alloc_test_depth", &[]),
        lat: reg.histogram("alloc_test_latency_us", &[("type", "query")]),
    }
}

#[test]
fn record_path_makes_zero_allocations_once_warm() {
    let reg = Arc::new(Registry::new());
    set_thread_registry(Some(reg.clone()));

    // Warm-up: register every series, populate the thread-local set
    // cache, resolve the span histogram, and fault in any lazy lock /
    // TLS state.
    let counter = reg.counter("alloc_test_hits_total", &[("path", "hot")]);
    let gauge = reg.gauge("alloc_test_depth", &[]);
    let hist = reg.histogram("alloc_test_latency_us", &[("type", "query")]);
    with_metrics(build, |m| {
        m.hits.inc();
        m.depth.set(1);
        m.lat.record(10);
    });
    {
        let _g = SpanGuard::enter("alloc_test_stage");
    }

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
        // the cached-set path every worker iteration goes through
        with_metrics(build, |m| {
            m.hits.inc();
            m.lat.record(i % 100);
        });
        // span enter/exit: two Instant reads plus one record
        let g = SpanGuard::enter("alloc_test_stage");
        drop(g);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    set_thread_registry(None);

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
        1 + ROUNDS * 5,
    );
    let lat = snap.histogram("alloc_test_latency_us", &[("type", "query")]).unwrap();
    assert_eq!(lat.count(), 1 + 2 * ROUNDS);
    let stage = snap
        .histogram("geosir_stage_duration_us", &[("stage", "alloc_test_stage")])
        .unwrap();
    assert_eq!(stage.count(), 1 + ROUNDS);

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
