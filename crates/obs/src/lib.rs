//! geosir-obs: self-contained observability for the retrieval pipeline.
//!
//! Three pieces, all std-only:
//!
//! 1. **Metrics registry** ([`registry`]) — atomic counters, gauges,
//!    and log-linear histograms behind named, labeled series; lock-free
//!    record path; mergeable, wire-encodable [`Snapshot`]s.
//! 2. **Spans and requests** ([`span`], [`request`]) — `span!("stage")`
//!    guards feeding per-stage duration histograms, and one ring of the
//!    last finished requests: whoever answers a request describes it once
//!    in a [`RequestRecord`] (trace id, timings, stages, work counts) and
//!    calls [`Registry::record_request`]. The trace ids flow client →
//!    wire → worker → writer → WAL, and the ring is dumped to disk on a
//!    crash.
//! 3. **Exposition** ([`expo`]) — Prometheus text format on
//!    `/metrics`, the request ring on `/debug/last_queries` and the
//!    journal on `/debug/journal`, served by the workspace's one HTTP
//!    server, whose route table the embedding program extends.
//!
//! # Registry resolution
//!
//! Instrumented code never names a registry directly: it records
//! against the *current* one — a thread-local override when set (each
//! server instance installs its own registry on the threads it owns,
//! so tests can run several servers in one process without
//! cross-talk), falling back to the process-wide [`global`] registry.
//!
//! # Hot paths
//!
//! Lookup by name takes a read lock; hot code goes through
//! [`with_metrics`], which caches a built metric-set struct per thread
//! and per registry. Steady state is a `TypeId` map hit plus a few
//! `Arc` clones — no locks, no allocation — verified by the counting
//! allocator test in `tests/alloc_obs.rs`.

#![forbid(unsafe_code)]

pub mod expo;
pub mod journal;
pub mod registry;
pub mod request;
pub mod slo;
pub mod span;

pub use journal::{Journal, JournalEvent, Severity};
pub use registry::{
    bucket_index, bucket_upper_bound, merged_quantile, Counter, Gauge, GaugePolicy, Histogram,
    Registry, SnapEntry, SnapHistogram, SnapValue, Snapshot, HISTOGRAM_BUCKETS,
};
pub use request::{RequestKind, RequestRecord};
pub use slo::{alerting, BurnRate, Objective, ObjectiveKind, SloEngine};
pub use span::SpanGuard;

use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();

/// The process-wide registry: the default sink when no thread-local
/// registry is installed.
fn global() -> &'static Arc<Registry> {
    GLOBAL.get_or_init(|| Arc::new(Registry::new()))
}

/// Per-thread cache of built metric sets: `TypeId` of the set type →
/// (registry id it was built against, the boxed set).
type MetricSetCache = HashMap<TypeId, (u64, Box<dyn Any>)>;

thread_local! {
    static CURRENT: RefCell<Option<Arc<Registry>>> = const { RefCell::new(None) };
    static CACHE: RefCell<MetricSetCache> = RefCell::new(HashMap::new());
}

/// Install (or with `None`, clear) this thread's registry override.
/// Long-lived server threads call this once at startup so core and
/// storage instrumentation lands in the owning server's registry.
pub fn set_thread_registry(reg: Option<Arc<Registry>>) {
    CURRENT.with(|c| *c.borrow_mut() = reg);
}

/// Run `f` against the current registry (thread override or global).
pub fn with_current<R>(f: impl FnOnce(&Registry) -> R) -> R {
    CURRENT.with(|c| {
        let cur = c.borrow();
        match cur.as_ref() {
            Some(reg) => f(reg),
            None => f(global()),
        }
    })
}

/// The current registry by value.
pub fn current() -> Arc<Registry> {
    CURRENT.with(|c| c.borrow().clone()).unwrap_or_else(|| global().clone())
}

/// Run `f` with a cached metric-set `M` resolved against the current
/// registry.
///
/// `build` registers/looks up every handle the set needs; the built
/// struct is cached per thread keyed on (`TypeId`, registry id), so the
/// steady-state cost is one map hit and a clone of `M` (metric sets are
/// small structs of `Arc`s — cloning is refcount bumps, no allocation).
/// If the thread's registry changes, the set is rebuilt transparently.
pub fn with_metrics<M, R>(build: fn(&Registry) -> M, f: impl FnOnce(&M) -> R) -> R
where
    M: Clone + 'static,
{
    let set: M = with_current(|reg| {
        let id = reg.id();
        CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            match cache.get(&TypeId::of::<M>()) {
                Some((cached_id, boxed)) if *cached_id == id => {
                    boxed.downcast_ref::<M>().expect("cache type").clone()
                }
                _ => {
                    let built = build(reg);
                    cache.insert(TypeId::of::<M>(), (id, Box::new(built.clone())));
                    built
                }
            }
        })
    });
    f(&set)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone)]
    struct TestSet {
        hits: Arc<Counter>,
    }

    fn build(reg: &Registry) -> TestSet {
        TestSet { hits: reg.counter("obs_test_hits_total", &[]) }
    }

    #[test]
    fn thread_override_routes_records() {
        let mine = Arc::new(Registry::new());
        set_thread_registry(Some(mine.clone()));
        with_metrics(build, |m| m.hits.inc());
        with_metrics(build, |m| m.hits.inc());
        set_thread_registry(None);
        assert_eq!(mine.snapshot().counter("obs_test_hits_total", &[]), 2);

        // After clearing the override the cache rebuilds against the
        // global registry; the private one stops moving.
        with_metrics(build, |m| m.hits.inc());
        assert_eq!(mine.snapshot().counter("obs_test_hits_total", &[]), 2);
        assert!(global().snapshot().counter("obs_test_hits_total", &[]) >= 1);
    }

    #[test]
    fn current_prefers_override() {
        let mine = Arc::new(Registry::new());
        set_thread_registry(Some(mine.clone()));
        assert_eq!(current().id(), mine.id());
        set_thread_registry(None);
        assert_eq!(current().id(), global().id());
    }
}
