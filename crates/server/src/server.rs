//! The concurrent retrieval server.
//!
//! ## Architecture
//!
//! ```text
//!              ┌────────────┐  epoll (ET)  ┌──────────────────────┐
//!   clients ──▶│  listener  │─────────────▶│ event loop (1 thread)│
//!              └────────────┘   nonblock   │  C conns × state     │◀─ waker ─┐
//!                                          └──────────┬───────────┘          │
//!                                     try_push        │       try_push       │
//!                            ┌─────────────────────────┴────────────┐        │
//!                            ▼ (full → Busy inline)                 ▼        │
//!                   ┌────────────────┐                 ┌────────────────┐    │
//!                   │  read queue    │                 │  write queue   │    │
//!                   └───────┬────────┘                 └───────┬────────┘    │
//!                           ▼ pop_batch (coalesce)             ▼             │
//!                   ┌────────────────┐  publish Arc   ┌────────────────┐     │
//!                   │ worker × W     │◀───────────────│ writer thread  │     │
//!                   │ (own scratch)  │   (RwLock swap)│ (owns DynBase) │     │
//!                   └───────┬────────┘                └───────┬────────┘     │
//!                           └────────── completions ──────────┴──────────────┘
//! ```
//!
//! **Readiness-driven I/O.** One event-loop thread owns every
//! connection. The loop itself is the crate's connection engine
//! (`engine.rs`, shared with the cluster router; the node is the
//! `NodeHandler` role below): an edge-triggered epoll poller (raw
//! syscalls, no libc — `poll.rs`) reports readiness, and the loop reads
//! each ready socket to `WouldBlock` into a per-connection arena, peels
//! off complete frames (`conn.rs`), and submits them to the worker
//! queues without ever blocking. Workers reply by encoding into pooled
//! buffers, posting them on a completion list, and waking the loop
//! through an eventfd; the loop matches completions to live connections
//! by generation-checked tokens and writes them out, resuming partial
//! writes on the next `EPOLLOUT` edge. A client keeps up to
//! [`crate::MAX_IN_FLIGHT`] requests outstanding per connection,
//! each tagged with its correlation id, and completions are delivered
//! in whatever order the workers finish. This is the only serve path:
//! where the engine cannot be set up (off Linux, or no descriptors left
//! for epoll + eventfd) [`serve`] and [`serve_durable`] return the
//! error instead of starting.
//!
//! **Snapshot isolation.** Queries never touch the [`DynamicBase`]: each
//! worker clones the published `Arc<Snapshot>` (a pointer bump) and runs
//! the retrieval against that immutable view. The single writer thread
//! applies inserts/deletes, takes a fresh snapshot, and swaps the
//! published `Arc` — readers mid-query keep their old snapshot alive,
//! new queries see the new epoch, and no reader ever blocks on a writer
//! (or vice versa). Write replies are sent only *after* the publish, so a
//! client that saw `Inserted{epoch}` is guaranteed every later query
//! observes `epoch` or newer: read-your-writes across connections.
//!
//! **One body per read, one record per request.** A worker pops up to
//! [`ServeConfig::coalesce_max`] queued jobs at once, pins one snapshot
//! for the pop and answers the jobs one by one, each reply leaving the
//! moment it is ready (`run_read_job`). Whoever finishes a request —
//! worker or writer — describes it once in an [`obs::RequestRecord`]:
//! `Registry::record_request` copies it into the request ring, and the
//! reply's stage trailer, the `geosir_request_latency_us` sample
//! and the slow-query decision are read off the same record, so what a
//! reply says it took is what its client waited.
//!
//! **Backpressure.** Both queues are bounded. The event loop uses
//! `try_push`; when the queue is full the client gets [`Frame::Busy`]
//! immediately instead of the request queueing unboundedly — load is shed
//! at the edge, and an overloaded server stays responsive. Shed requests
//! are counted in [`ServerStats::busy_rejects`].
//!
//! **Graceful shutdown.** A `Shutdown` frame (or
//! [`ServerHandle::shutdown`]) closes both queues: pushes start failing,
//! but workers and the writer drain every already-admitted job and reply
//! before exiting — no accepted request is dropped. A reaper thread joins
//! them and wakes the event loop through its eventfd; the loop flushes
//! the last replies, closes every connection and leaves. The HTTP plane
//! keeps answering until the handle is joined or dropped.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use geosir_core::dynamic::{DynMatch, DynamicBase, GlobalShapeId, QueryExplain, RetrieveStats, Snapshot};
use geosir_core::matcher::MatchOutcome;
use geosir_core::scratch::MatcherScratch;
use geosir_core::{ApproxOptions, ApproxScratch, ApproxStats, ImageId};
use geosir_geom::Polyline;
use geosir_obs as obs;
use geosir_storage::checkpoint::{self, CheckpointData};
use geosir_storage::manifest::Manifest;
use geosir_storage::wal::{Lsn, Wal, WalRecord};

use crate::durable::{self, BaseTemplate, DurabilityConfig, RecoveryReport, Recovered};
use crate::health::{
    self, ComponentHealth, HealthConfig, HealthState, TransitionTracker, Verdict,
};
use crate::metrics::Metrics;
use crate::wire::{error_code, Frame, ServerStats, StageTrailer, WireMatch};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads answering queries (0 = one per available CPU).
    pub workers: usize,
    /// Bounded read-queue capacity; beyond it, queries get `Busy`.
    pub queue_cap: usize,
    /// The background checkpointer's tick: how often it looks at the
    /// count of WAL records since the last checkpoint, and how quickly
    /// it notices shutdown.
    pub poll_interval: Duration,
    /// Bind address for the HTTP plane (`/metrics` Prometheus text,
    /// `/healthz`, `/readyz`, `/debug/last_queries`, `/debug/journal`);
    /// `None` disables it.
    pub metrics_addr: Option<String>,
    /// Directory for the structured slow-query log (JSONL segments,
    /// size-rotated); `None` disables slow-query capture entirely —
    /// queries then run the plain, capture-free retrieval path.
    pub slow_query_log: Option<PathBuf>,
    /// Queries whose admission → reply time meets or exceeds this many
    /// microseconds land in the slow-query log with their full
    /// EXPLAIN report. 0 logs every query (useful for tests and
    /// short traffic captures).
    pub slow_query_us: u64,
    /// Most read-queue jobs a worker coalesces into one pop: jobs that
    /// arrived concurrently cost one queue lock and one snapshot pin,
    /// then are answered one by one. 1 disables coalescing (each job
    /// pops alone).
    pub coalesce_max: usize,
    /// Watchdog deadlines and SLO objectives behind `/healthz`,
    /// `/readyz`, and the `geosir_health_status` gauges.
    pub health: HealthConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_cap: 128,
            poll_interval: Duration::from_millis(50),
            metrics_addr: None,
            slow_query_log: None,
            slow_query_us: 10_000,
            coalesce_max: 16,
            health: HealthConfig::default(),
        }
    }
}

/// Why a push was refused.
enum PushError<T> {
    Full(T),
    Closed(T),
}

/// Rolling-window drain observation feeding the `Busy` retry hint:
/// how many items left the queue over roughly the last
/// [`DRAIN_WINDOW_US`] microseconds. Lazily rotated on read; races
/// between observers only blur the hint, never corrupt state.
struct DrainTracker {
    start: Instant,
    /// Items drained since creation.
    drained: AtomicU64,
    /// µs offset (from `start`) at which the current window began.
    window_start_us: AtomicU64,
    /// `drained` value when the current window began.
    drained_at_start: AtomicU64,
    /// Last completed window, for reads landing right after a rotation.
    last_drained: AtomicU64,
    last_elapsed_us: AtomicU64,
}

/// How much history the drain-rate estimate looks at.
const DRAIN_WINDOW_US: u64 = 200_000;

/// The `Busy` retry-after hint until a drain rate has been observed.
const RETRY_FALLBACK_MS: u32 = 50;

impl DrainTracker {
    fn new() -> Self {
        DrainTracker {
            start: Instant::now(),
            drained: AtomicU64::new(0),
            window_start_us: AtomicU64::new(0),
            drained_at_start: AtomicU64::new(0),
            last_drained: AtomicU64::new(0),
            last_elapsed_us: AtomicU64::new(0),
        }
    }

    fn note_drained(&self) {
        self.drained.fetch_add(1, Ordering::Relaxed);
    }

    /// `(items drained, elapsed µs)` over the recent window; `(0, 0)`
    /// until anything has drained (callers fall back to the config).
    fn recent_rate(&self) -> (u64, u64) {
        let now = self.start.elapsed().as_micros() as u64;
        let ws = self.window_start_us.load(Ordering::Relaxed);
        let elapsed = now.saturating_sub(ws);
        let drained = self.drained.load(Ordering::Relaxed);
        let in_window = drained.saturating_sub(self.drained_at_start.load(Ordering::Relaxed));
        if elapsed >= DRAIN_WINDOW_US {
            // the window is stale: remember it and start a fresh one
            if self
                .window_start_us
                .compare_exchange(ws, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                self.drained_at_start.store(drained, Ordering::Relaxed);
                if in_window > 0 {
                    self.last_drained.store(in_window, Ordering::Relaxed);
                    self.last_elapsed_us.store(elapsed, Ordering::Relaxed);
                }
            }
            (in_window, elapsed)
        } else if in_window > 0 {
            (in_window, elapsed.max(1))
        } else {
            (self.last_drained.load(Ordering::Relaxed), self.last_elapsed_us.load(Ordering::Relaxed))
        }
    }
}

/// Derive the `Busy{retry_after_ms}` hint from observed queue state:
/// the estimated wall time for `depth` queued items to drain at the
/// recently measured rate (`drained` items over `window_us`). Without
/// an observed rate the fallback applies. Clamped to
/// [1 ms, 10 s] so a cold or stalled window cannot produce a zero or
/// an absurd hint. As the queue drains, `depth` falls and the hint
/// shrinks with it.
fn retry_hint_ms(depth: usize, drained: u64, window_us: u64, fallback_ms: u32) -> u32 {
    if drained == 0 || window_us == 0 {
        return fallback_ms.max(1);
    }
    let est_us = (depth as u128 + 1) * window_us as u128 / drained as u128;
    (est_us / 1000).clamp(1, 10_000) as u32
}

/// Write-queue capacity; beyond it, inserts/deletes get `Busy`.
const WRITE_QUEUE_CAP: usize = 256;

/// Bounded MPMC queue: `try_push` (never blocks) + blocking `pop` that
/// drains remaining items after close and only then returns `None`.
/// Tracks its drain rate (for the `Busy` hint) and mirrors its depth
/// into an optional gauge.
struct BoundedQueue<T> {
    inner: Mutex<QueueState<T>>,
    cv: Condvar,
    cap: usize,
    drain: DrainTracker,
    depth_gauge: Option<Arc<obs::Gauge>>,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    fn new(cap: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueState { items: VecDeque::new(), closed: false }),
            cv: Condvar::new(),
            cap: cap.max(1),
            drain: DrainTracker::new(),
            depth_gauge: None,
        }
    }

    fn with_gauge(mut self, gauge: Arc<obs::Gauge>) -> Self {
        self.depth_gauge = Some(gauge);
        self
    }

    fn set_gauge(&self, depth: usize) {
        if let Some(g) = &self.depth_gauge {
            g.set(depth as i64);
        }
    }

    fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut st = self.inner.lock().unwrap();
        if st.closed {
            return Err(PushError::Closed(item));
        }
        if st.items.len() >= self.cap {
            return Err(PushError::Full(item));
        }
        st.items.push_back(item);
        let depth = st.items.len();
        drop(st);
        self.set_gauge(depth);
        self.cv.notify_one();
        Ok(())
    }

    /// Block until an item is available; after [`Self::close`], keep
    /// returning queued items until empty, then `None`.
    fn pop(&self) -> Option<T> {
        let mut st = self.inner.lock().unwrap();
        loop {
            if let Some(item) = st.items.pop_front() {
                let depth = st.items.len();
                drop(st);
                self.drain.note_drained();
                self.set_gauge(depth);
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Blocking pop of at least one item, then up to `max - 1` more
    /// that are already queued — no waiting for stragglers. Appends to
    /// `out` and returns `true`, or returns `false` once the queue is
    /// closed and empty. This is the coalescing pop: everything that
    /// arrived while the worker was busy drains in one lock acquisition
    /// and runs against one snapshot.
    fn pop_batch(&self, max: usize, out: &mut Vec<T>) -> bool {
        let max = max.max(1);
        let mut st = self.inner.lock().unwrap();
        loop {
            if !st.items.is_empty() {
                let take = max.min(st.items.len());
                out.extend(st.items.drain(..take));
                let depth = st.items.len();
                drop(st);
                for _ in 0..take {
                    self.drain.note_drained();
                }
                self.set_gauge(depth);
                return true;
            }
            if st.closed {
                return false;
            }
            st = self.cv.wait(st).unwrap();
        }
    }

    /// Non-blocking pop (used by the writer to batch).
    fn try_pop(&self) -> Option<T> {
        let mut st = self.inner.lock().unwrap();
        let item = st.items.pop_front();
        if item.is_some() {
            let depth = st.items.len();
            drop(st);
            self.drain.note_drained();
            self.set_gauge(depth);
        }
        item
    }

    fn close(&self) {
        self.inner.lock().unwrap().closed = true;
        self.cv.notify_all();
    }

    fn depth(&self) -> usize {
        self.inner.lock().unwrap().items.len()
    }

    /// The live retry hint for this queue right now.
    fn retry_hint(&self) -> u32 {
        let (drained, window_us) = self.drain.recent_rate();
        retry_hint_ms(self.depth(), drained, window_us, RETRY_FALLBACK_MS)
    }
}

/// Where a finished request's reply goes: a client connection of the
/// event loop. The worker encodes the reply with the request's
/// correlation id, posts the bytes on the engine's completion list and
/// wakes the loop, which routes them to the connection by token
/// (generation-checked — a completion for a connection that died in the
/// meantime is quietly recycled).
struct Conn {
    #[cfg(target_os = "linux")]
    io: Arc<crate::engine::Shared>,
    token: u64,
    corr: u64,
}

impl Conn {
    fn send(&self, frame: Frame) {
        #[cfg(target_os = "linux")]
        self.io.complete(self.token, self.corr, &frame);
    }
}

/// One admitted request: the decoded frame plus where its reply goes.
struct Job {
    frame: Frame,
    reply: Conn,
    enqueued: Instant,
}

impl Job {
    /// The client-minted trace id riding in the frame (0 = none).
    fn trace(&self) -> u64 {
        match &self.frame {
            Frame::Query { trace, .. }
            | Frame::Explain { trace, .. }
            | Frame::QueryApprox { trace, .. }
            | Frame::Insert { trace, .. } => *trace,
            _ => 0,
        }
    }
}

/// Rotation of every JSONL log this crate writes — the node's and the
/// router's slow-query logs, the lifecycle journal: a segment rolls over
/// at this size, and this many rolled segments are kept.
pub(crate) const LOG_SEGMENT_BYTES: u64 = 1 << 20;
pub(crate) const LOG_SEGMENTS_KEPT: usize = 4;

/// Slow-query capture state: the threshold plus the rotating JSONL
/// writer behind a mutex (appends are rare — only over-threshold
/// queries reach it — so contention is not a concern).
struct SlowLog {
    threshold_us: u64,
    writer: Mutex<geosir_storage::slowlog::RotatingJsonl>,
}

/// The reader-visible state: the snapshot **and** the WAL position it
/// reflects, swapped together so the checkpointer always captures a
/// consistent (state, lsn) pair.
struct Published {
    snap: Arc<Snapshot>,
    wal_lsn: Lsn,
}

/// Durability state shared between the writer (appends) and the
/// checkpointer (rotates/prunes). The `Mutex<Wal>` is uncontended in
/// steady state — the checkpointer takes it only around rotation.
struct DurableState {
    wal: Mutex<Wal>,
    data_dir: PathBuf,
    checkpoint_every: u64,
    /// Set on persistent WAL/checkpoint I/O failure: writes are refused
    /// with [`error_code::READ_ONLY`], queries keep working.
    read_only: AtomicBool,
    /// WAL records appended since the last completed checkpoint.
    records_since_ckpt: AtomicU64,
    /// LSN the newest on-disk checkpoint covers.
    last_ckpt_lsn: AtomicU64,
    /// Injectable factory for the journal's JSONL file (fault tests).
    journal_io: Option<Arc<dyn geosir_storage::faults::IoFactory>>,
}

/// Adapts the shared (`Arc`) journal fault hook to the
/// `Box<dyn IoFactory>` the rotating JSONL writer owns.
struct SharedJournalFactory(Arc<dyn geosir_storage::faults::IoFactory>);

impl geosir_storage::faults::IoFactory for SharedJournalFactory {
    fn create(
        &self,
        path: &std::path::Path,
    ) -> std::io::Result<Box<dyn geosir_storage::faults::Io>> {
        self.0.create(path)
    }
}

struct Shared {
    published: RwLock<Published>,
    last_publish: Mutex<Instant>,
    read_queue: BoundedQueue<Job>,
    write_queue: BoundedQueue<Job>,
    metrics: Metrics,
    shutdown: AtomicBool,
    addr: SocketAddr,
    cfg: ServeConfig,
    durable: Option<DurableState>,
    slow_log: Option<SlowLog>,
    health: HealthState,
}

impl Shared {
    fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    fn is_read_only(&self) -> bool {
        self.durable.as_ref().is_some_and(|d| d.read_only.load(Ordering::SeqCst))
    }

    fn begin_shutdown(&self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return; // already under way
        }
        // workers and the writer drain what was admitted and exit; the
        // reaper that joins them wakes the event loop
        self.read_queue.close();
        self.write_queue.close();
    }

    fn current_snapshot(&self) -> Arc<Snapshot> {
        self.published.read().unwrap().snap.clone()
    }

    /// Bring the passive gauges up to date: queue depths, snapshot age,
    /// snapshot identity, degraded-mode flag. Called before serving a
    /// metrics scrape or gathering `ServerStats`, so point-in-time
    /// values are fresh without any hot-path cost.
    fn refresh_gauges(&self) {
        let m = &self.metrics;
        m.read_queue_depth.set(self.read_queue.depth() as i64);
        m.write_queue_depth.set(self.write_queue.depth() as i64);
        m.snapshot_age_us
            .set(self.last_publish.lock().unwrap().elapsed().as_micros() as i64);
        m.read_only.set(self.is_read_only() as i64);
        let snap = self.current_snapshot();
        m.epoch.set(snap.epoch() as i64);
        m.live_shapes.set(snap.len() as i64);
        m.dead_shapes.set(snap.dead_shapes() as i64);
        m.base_heap_bytes.set(snap.heap_bytes() as i64);
        m.approx_buckets.set(snap.approx_num_buckets() as i64);
        m.approx_avg_bucket_size_x1000.set((snap.approx_avg_bucket_size() * 1000.0) as i64);
    }

    fn stats(&self) -> ServerStats {
        self.refresh_gauges();
        let snap = self.current_snapshot();
        let m = &self.metrics;
        ServerStats {
            read_only: self.is_read_only() as u64,
            wal_appends: m.wal_appends.get() as u64,
            wal_syncs: m.wal_syncs.get() as u64,
            fsync_p50_us: m.fsync.quantile(0.5),
            fsync_p99_us: m.fsync.quantile(0.99),
            checkpoints: m.checkpoints.get(),
            checkpoint_failures: m.checkpoint_failures.get(),
            last_recovery_us: m.last_recovery_us.get() as u64,
            io_errors: m.io_errors.get(),
            epoch: snap.epoch(),
            live_shapes: snap.len() as u64,
            levels: snap.num_levels() as u64,
            requests: m.requests.get(),
            queries: m.queries.get(),
            inserts: m.inserts.get(),
            deletes: m.deletes.get(),
            busy_rejects: m.busy_rejects.get(),
            protocol_errors: m.protocol_errors.get(),
            latency_p50_us: m.latency_quantile(0.5),
            latency_p99_us: m.latency_quantile(0.99),
            snapshots_published: m.snapshots_published.get(),
            publish_p50_us: m.publish.quantile(0.5),
            publish_p99_us: m.publish.quantile(0.99),
            snapshot_age_us: self.last_publish.lock().unwrap().elapsed().as_micros() as u64,
            queue_depth: self.read_queue.depth() as u64,
        }
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`ServerHandle::shutdown`] (or send a `Shutdown` frame) and then
/// [`ServerHandle::join`].
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// The HTTP plane; stops when the handle is joined or dropped.
    http: Option<obs::expo::MetricsServer>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Bound address of the HTTP metrics endpoint, when
    /// [`ServeConfig::metrics_addr`] was set (useful with port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().map(|h| h.addr())
    }

    /// The server's metrics registry — every series the worker, writer,
    /// WAL, and checkpointer record lands here.
    pub fn registry(&self) -> Arc<obs::Registry> {
        self.shared.metrics.registry.clone()
    }

    /// Begin graceful shutdown: queues close, admitted work drains.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// True once shutdown has begun (requested locally or over the wire).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.is_shutdown()
    }

    /// Current stats, gathered locally (no wire round trip).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// True when the server has degraded to read-only mode after a
    /// persistent WAL or checkpoint I/O failure.
    pub fn is_read_only(&self) -> bool {
        self.shared.is_read_only()
    }

    /// Wait for every server thread to finish. Blocks until shutdown has
    /// been requested (by [`Self::shutdown`] or a `Shutdown` frame).
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Start serving `base` on `addr` (use port 0 for an ephemeral port),
/// in-memory: no WAL, no checkpoints, state dies with the process.
/// Publishes the initial snapshot before returning, so the first query
/// cannot race an empty slot.
pub fn serve(addr: &str, base: DynamicBase, cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let registry = Arc::new(obs::Registry::new());
    serve_inner(addr, base, cfg, None, HashMap::new(), 0, registry)
}

/// Start a **durable** server: recover the base from `dcfg.data_dir`
/// (checkpoint + WAL replay), then serve it with every write logged
/// before its ack and periodic background checkpoints. Returns the
/// handle and a report of what recovery found.
pub fn serve_durable(
    addr: &str,
    template: &BaseTemplate,
    dcfg: DurabilityConfig,
    cfg: ServeConfig,
) -> std::io::Result<(ServerHandle, RecoveryReport)> {
    let registry = Arc::new(obs::Registry::new());
    // route the WAL-replay / checkpoint-read instrumentation inside
    // recovery to this server's registry, not the process global
    obs::set_thread_registry(Some(registry.clone()));
    registry.journal().emit(
        obs::JournalEvent::new(obs::Severity::Info, "recovery.start")
            .with("dir", dcfg.data_dir.display()),
    );
    let recovered = durable::recover(template, &dcfg);
    obs::set_thread_registry(None);
    let Recovered { base, wal, applied_lsn, dedup, report } = recovered?;
    registry.journal().emit(
        obs::JournalEvent::new(obs::Severity::Info, "recovery.done")
            .with("replayed", report.replayed)
            .with("checkpoint_shapes", report.checkpoint_shapes)
            .with("truncated_tail", report.truncated_tail)
            .with("us", report.recovery_us),
    );
    let state = DurableState {
        wal: Mutex::new(wal),
        data_dir: dcfg.data_dir.clone(),
        checkpoint_every: dcfg.checkpoint_every.max(1),
        read_only: AtomicBool::new(false),
        records_since_ckpt: AtomicU64::new(0),
        last_ckpt_lsn: AtomicU64::new(report.checkpoint_lsn),
        journal_io: dcfg.journal_io.clone(),
    };
    let handle = serve_inner(addr, base, cfg, Some(state), dedup, applied_lsn, registry)?;
    let m = &handle.shared.metrics;
    m.last_recovery_us.set(report.recovery_us as i64);
    let r = &m.registry;
    r.gauge("geosir_recovery_replayed_records", &[]).set(report.replayed as i64);
    r.gauge("geosir_recovery_checkpoint_shapes", &[]).set(report.checkpoint_shapes as i64);
    r.gauge("geosir_recovery_truncated_tail", &[]).set(report.truncated_tail as i64);
    r.gauge("geosir_recovery_dropped_bytes", &[]).set(report.dropped_bytes as i64);
    Ok((handle, report))
}

fn serve_inner(
    addr: &str,
    base: DynamicBase,
    cfg: ServeConfig,
    durable: Option<DurableState>,
    dedup: HashMap<u64, u64>,
    applied_lsn: Lsn,
    registry: Arc<obs::Registry>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        cfg.workers
    };
    let snap0 = Arc::new(base.snapshot());
    let next_id = snap0.next_id();
    let metrics = Metrics::new(registry);
    let read_gauge = metrics.read_queue_depth.clone();
    let write_gauge = metrics.write_queue_depth.clone();
    let slow_log = match &cfg.slow_query_log {
        Some(dir) => Some(SlowLog {
            threshold_us: cfg.slow_query_us,
            writer: Mutex::new(geosir_storage::slowlog::RotatingJsonl::open(
                dir,
                "slow",
                LOG_SEGMENT_BYTES,
                LOG_SEGMENTS_KEPT,
                Box::new(geosir_storage::faults::FileFactory),
            )?),
        }),
        None => None,
    };
    let shared = Arc::new(Shared {
        published: RwLock::new(Published { snap: snap0, wal_lsn: applied_lsn }),
        last_publish: Mutex::new(Instant::now()),
        read_queue: BoundedQueue::new(cfg.queue_cap).with_gauge(read_gauge),
        write_queue: BoundedQueue::new(WRITE_QUEUE_CAP).with_gauge(write_gauge),
        metrics,
        shutdown: AtomicBool::new(false),
        addr: local,
        cfg: cfg.clone(),
        durable,
        slow_log,
        health: HealthState::new(),
    });

    // Durable journal: lifecycle events also land in a rotating JSONL
    // file next to the WAL, through the same fault-injectable Io layer.
    // Append failures are counted and dropped — the journal never
    // blocks or panics an emitter on a dead disk.
    if let Some(d) = &shared.durable {
        let factory: Box<dyn geosir_storage::faults::IoFactory> = match &d.journal_io {
            Some(f) => Box::new(SharedJournalFactory(f.clone())),
            None => Box::new(geosir_storage::faults::FileFactory),
        };
        let mut writer = geosir_storage::slowlog::RotatingJsonl::open(
            &d.data_dir.join("journal"),
            "journal",
            LOG_SEGMENT_BYTES,
            LOG_SEGMENTS_KEPT,
            factory,
        )?;
        // Recovery ran before this sink existed, so its events
        // (recovery.start/done, replay instrumentation) are ring-only
        // at this point — backfill them so the on-disk journal explains
        // this boot, not just what happened after it. Nothing else
        // emits concurrently yet: workers and the watchdog start below.
        let journal = shared.metrics.registry.journal();
        let mut failed_backfills = 0u64;
        let mut line = String::new();
        for ev in journal.recent().into_iter().rev() {
            line.clear();
            ev.to_json(&mut line);
            if writer.append_line(&line).is_err() {
                failed_backfills += 1;
            }
        }
        let errors = shared.metrics.journal_errors.clone();
        errors.add(failed_backfills);
        let writer = Mutex::new(writer);
        shared.metrics.registry.journal().set_sink(Some(Arc::new(
            move |_ev: &obs::JournalEvent, line: &str| {
                let failed = match writer.lock() {
                    Ok(mut w) => w.append_line(line).is_err(),
                    Err(_) => true,
                };
                if failed {
                    errors.inc();
                }
            },
        )));
    }

    // The request ring must survive to disk when the process dies
    // abnormally. Two death paths converge on the same dump: armed
    // crash-point crashes abort without unwinding (their hook runs just
    // before the abort), and real panics reach the same hooks through a
    // process-wide chained panic hook. The hook holds only a Weak — a
    // shut-down server's registry can be freed, and test processes that
    // start many servers don't accumulate live ones.
    if let Some(d) = &shared.durable {
        let dump_path = d.data_dir.join("flight.dump.json");
        let reg = Arc::downgrade(&shared.metrics.registry);
        geosir_storage::faults::on_crash(move || {
            if let Some(reg) = reg.upgrade() {
                let _ = std::fs::write(&dump_path, reg.requests_json());
            }
        });
        install_panic_flight_dump();
    }

    // Workers and the writer produce reply completions; the event loop
    // spawned below consumes them, so it must know when the last one
    // has been posted — it gets that signal from a reaper thread that
    // joins exactly this set.
    let mut core = Vec::new();
    for i in 0..workers {
        let shared = shared.clone();
        core.push(
            std::thread::Builder::new()
                .name(format!("geosir-worker-{i}"))
                .spawn(move || worker_loop(i, &shared))?,
        );
    }
    {
        let shared = shared.clone();
        let ctx = WriterCtx { next_id, dedup_order: dedup.keys().copied().collect(), dedup };
        core.push(
            std::thread::Builder::new()
                .name("geosir-writer".into())
                .spawn(move || writer_loop(base, ctx, &shared))?,
        );
    }
    let mut threads = Vec::new();
    if shared.durable.is_some() {
        let shared = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name("geosir-checkpointer".into())
                .spawn(move || checkpointer_loop(&shared))?,
        );
    }
    // without an engine, release the threads already started
    let io_threads = spawn_serve_path(listener, core, &shared);
    threads.extend(io_threads.inspect_err(|_| shared.begin_shutdown())?);
    if cfg.health.enabled {
        let shared = shared.clone();
        threads.push(
            std::thread::Builder::new()
                .name("geosir-watchdog".into())
                .spawn(move || watchdog_loop(&shared))?,
        );
    }
    let http = match &cfg.metrics_addr {
        Some(maddr) => Some(obs::expo::MetricsServer::bind(maddr, http_routes(&shared))?),
        None => None,
    };
    Ok(ServerHandle { addr: local, shared, threads, http })
}

/// Chain the request-ring dump into the process panic hook, once per
/// process: a panicking server thread writes the same
/// `flight.dump.json` an armed crash point would, then the previous
/// hook (backtrace printing) runs as usual. The cluster router reuses
/// this for its own dump.
pub(crate) fn install_panic_flight_dump() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            geosir_storage::faults::run_crash_hooks();
            prev(info);
        }));
    });
}

/// Serialize one slow-query record as a single JSON line: the record's
/// own JSON (identity, timing, and the scan's totals among its notes,
/// under the field names of `RetrieveStats`), then the scan level by level
/// under those of `LevelExplain`.
fn slow_query_json(out: &mut String, rec: &obs::RequestRecord, explain: &QueryExplain) {
    use std::fmt::Write as _;
    rec.to_json_head(out);
    out.push_str(",\"per_level\":[");
    for (i, level) in explain.levels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // an unseeded scan starts from a cutoff of ∞, which JSON cannot spell
        let cutoff =
            if level.cutoff.is_finite() { level.cutoff.to_string() } else { "null".to_string() };
        let _ = write!(
            out,
            "{{\"shapes\":{},\"cutoff\":{cutoff},\"scored\":{},\"settled\":{}}}",
            level.shapes, level.scored, level.settled,
        );
    }
    out.push_str("]}");
}

impl Shared {
    /// The slow-query decision, read off a finished read's record: with
    /// a log armed (only then does `explain` hold the plan), an exact
    /// query that met the threshold is appended to it. Failures are
    /// counted, never retried, and never block the query path —
    /// telemetry must not stall retrievals even on a dead disk.
    fn log_slow_query(&self, rec: &obs::RequestRecord, explain: &QueryExplain) {
        let Some(slow) = &self.slow_log else { return };
        let planned = matches!(rec.kind, obs::RequestKind::Query | obs::RequestKind::Explain);
        if !planned || rec.total_us < slow.threshold_us {
            return;
        }
        let mut line = String::with_capacity(512);
        slow_query_json(&mut line, rec, explain);
        let result = slow.writer.lock().unwrap().append_line(&line);
        match result {
            Ok(()) => self.metrics.slow_queries.inc(),
            Err(_) => self.metrics.slow_log_errors.inc(),
        }
    }
}

/// What the node adds to the stock HTTP plane of `geosir-obs`:
/// `/healthz` and `/readyz` answered from the watchdog's state, and a
/// `/metrics` that brings the passive gauges up to date first. Scrapes
/// are served on the plane's own thread — they are rare, cheap, and
/// must not compete with workers for queue slots.
fn http_routes(shared: &Arc<Shared>) -> obs::expo::Routes {
    let (metrics, healthz, readyz) = (shared.clone(), shared.clone(), shared.clone());
    obs::expo::Routes::new(shared.metrics.registry.clone())
        .route("/metrics", move || {
            metrics.refresh_gauges();
            obs::expo::metrics_reply(&metrics.metrics.registry.snapshot())
        })
        .route("/healthz", move || healthz_reply(&healthz))
        .route("/readyz", move || readyz_reply(&readyz))
}

/// `/healthz`: liveness. 200 while the watchdog thread is ticking (or
/// the health plane is disabled); 503 once its own heartbeat goes
/// stale — a server whose watchdog died cannot vouch for anything.
fn healthz_reply(shared: &Shared) -> obs::expo::Reply {
    let hc = &shared.cfg.health;
    if !hc.enabled {
        return (200, obs::expo::JSON, "{\"status\":\"ok\",\"health\":\"disabled\"}".to_string());
    }
    let age = shared.health.watchdog_age();
    let stale = age > hc.watchdog_deadline();
    let body = format!(
        "{{\"status\":\"{}\",\"uptime_ms\":{},\"watchdog_age_ms\":{}}}",
        if stale { "watchdog_stalled" } else { "ok" },
        shared.health.now_ms(),
        age.as_millis(),
    );
    (if stale { 503 } else { 200 }, obs::expo::JSON, body)
}

/// `/readyz`: the watchdog's last verdict, with a staleness guard — a
/// wedged watchdog fails readiness rather than serving a frozen "ok".
fn readyz_reply(shared: &Shared) -> obs::expo::Reply {
    let hc = &shared.cfg.health;
    if !hc.enabled {
        return (200, obs::expo::JSON, "{\"ready\":true,\"health\":\"disabled\"}".to_string());
    }
    let mut verdict = shared.health.verdict();
    if shared.health.watchdog_age() > hc.watchdog_deadline() {
        verdict.ready = false;
        verdict.status = health::STATUS_UNHEALTHY;
        verdict.components.push(ComponentHealth {
            component: "watchdog",
            status: health::STATUS_UNHEALTHY,
            detail: "watchdog heartbeat stale".into(),
        });
    }
    // read-only is re-checked live: it can flip between watchdog ticks
    // and must never be reported stale in the healthy direction.
    if shared.is_read_only() {
        verdict.ready = false;
        verdict.read_only = true;
    }
    (if verdict.ready { 200 } else { 503 }, obs::expo::JSON, verdict.to_json())
}

/// The watchdog: every `health.interval`, ping the event loop's waker
/// (so an idle epoll loop still proves liveness), read the probes,
/// sample queue saturation, run the SLO burn-rate engine, journal
/// component transitions, drive the health gauges, and publish the
/// verdict `/readyz` serves.
fn watchdog_loop(shared: &Arc<Shared>) {
    obs::set_thread_registry(Some(shared.metrics.registry.clone()));
    let hc = shared.cfg.health.clone();
    let mut engine = obs::SloEngine::new(hc.objectives(), hc.slo_windows.clone());
    let mut transitions = TransitionTracker::new();
    let mut read_sat_since: Option<Instant> = None;
    let mut write_sat_since: Option<Instant> = None;
    let mut was_read_only = false;
    loop {
        shared.health.ping_waker();
        watchdog_tick(
            shared,
            &hc,
            &mut engine,
            &mut transitions,
            &mut read_sat_since,
            &mut write_sat_since,
            &mut was_read_only,
        );
        if shared.is_shutdown() {
            break;
        }
        std::thread::sleep(hc.interval);
        if shared.is_shutdown() {
            break;
        }
    }
}

/// One watchdog evaluation. Split out of the loop so the first tick
/// can run synchronously and tests can drive evaluations directly.
#[allow(clippy::too_many_arguments)]
fn watchdog_tick(
    shared: &Arc<Shared>,
    hc: &HealthConfig,
    engine: &mut obs::SloEngine,
    transitions: &mut TransitionTracker,
    read_sat_since: &mut Option<Instant>,
    write_sat_since: &mut Option<Instant>,
    was_read_only: &mut bool,
) {
    let m = &shared.metrics;
    let journal = m.registry.journal();
    let now = Instant::now();
    let mut components = Vec::with_capacity(4);

    // WAL writer heartbeat: the busy marker is set when a batch starts
    // and cleared when its replies go out; the writer blocking idle on
    // an empty queue is healthy by construction (marker = 0).
    let (wal_status, wal_detail) = match shared.health.wal_busy_for() {
        Some(busy) if busy > hc.wal_stall => {
            (health::STATUS_UNHEALTHY, format!("batch in flight for {}ms", busy.as_millis()))
        }
        Some(busy) => (health::STATUS_OK, format!("batch in flight for {}ms", busy.as_millis())),
        None => (health::STATUS_OK, "idle".to_string()),
    };
    components.push(ComponentHealth {
        component: "wal_writer",
        status: wal_status,
        detail: wal_detail,
    });

    // Event-loop lag: the waker ping above forces a wakeup even on an
    // idle server, so a stale stamp means the loop truly cannot run.
    let loop_age = shared.health.loop_tick_age();
    let loop_status =
        if loop_age > hc.effective_loop_lag() { health::STATUS_UNHEALTHY } else { health::STATUS_OK };
    let loop_detail = format!("last wakeup {}ms ago", loop_age.as_millis());
    components.push(ComponentHealth {
        component: "event_loop",
        status: loop_status,
        detail: loop_detail,
    });

    // Queue saturation: pinned at capacity continuously past the
    // deadline. A full queue that drains between ticks resets.
    let sat = |depth: usize, cap: usize, since: &mut Option<Instant>| -> Option<Duration> {
        if depth >= cap {
            let s = since.get_or_insert(now);
            Some(now.duration_since(*s))
        } else {
            *since = None;
            None
        }
    };
    let read_sat = sat(shared.read_queue.depth(), shared.cfg.queue_cap.max(1), read_sat_since);
    let write_sat = sat(shared.write_queue.depth(), WRITE_QUEUE_CAP, write_sat_since);
    let worst_sat = read_sat.into_iter().chain(write_sat).max();
    let (queue_status, queue_detail) = match worst_sat {
        Some(d) if d > hc.queue_sat => {
            (health::STATUS_DEGRADED, format!("saturated for {}ms", d.as_millis()))
        }
        Some(d) => (health::STATUS_OK, format!("at capacity for {}ms", d.as_millis())),
        None => (health::STATUS_OK, "draining".to_string()),
    };
    components.push(ComponentHealth {
        component: "queues",
        status: queue_status,
        detail: queue_detail,
    });

    // SLO burn rates over the registry's own counters/histograms.
    let reports = engine.observe(now, &m.registry.snapshot());
    for r in &reports {
        let window = format!("{}s", r.window.as_secs());
        m.registry
            .gauge_with_policy(
                "geosir_slo_burn_milli",
                &[("objective", r.objective.as_str()), ("window", window.as_str())],
                obs::GaugePolicy::Max,
            )
            .set((r.burn * 1000.0).min(i64::MAX as f64) as i64);
    }
    let alerting = obs::alerting(&reports, hc.slo_max_burn);
    let (slo_status, slo_detail) = if alerting.is_empty() {
        (health::STATUS_OK, "within budget".to_string())
    } else {
        (health::STATUS_DEGRADED, format!("burning: {}", alerting.join(", ")))
    };
    components.push(ComponentHealth {
        component: "slo",
        status: slo_status,
        detail: slo_detail,
    });

    // Journal transitions (one event per flip, naming the component).
    for c in &components {
        if let Some(prev) = transitions.observe(c.component, c.status) {
            let (sev, code) = if c.status == health::STATUS_OK {
                (obs::Severity::Info, "watchdog.ok")
            } else {
                (obs::Severity::Warn, "watchdog.stall")
            };
            journal.emit(
                obs::JournalEvent::new(sev, code)
                    .with("component", c.component)
                    .with("status", health::status_name(c.status))
                    .with("was", health::status_name(prev))
                    .with("detail", &c.detail),
            );
        }
    }

    // Read-only transitions are journaled here (entry sites flip an
    // atomic; the watchdog owns the edge detection for both
    // directions).
    let read_only = shared.is_read_only();
    if read_only != *was_read_only {
        let (sev, code) = if read_only {
            (obs::Severity::Error, "wal.read_only_enter")
        } else {
            (obs::Severity::Info, "wal.read_only_exit")
        };
        journal.emit(obs::JournalEvent::new(sev, code));
        *was_read_only = read_only;
    }

    m.health_wal.set(wal_status as i64);
    m.health_loop.set(loop_status as i64);
    m.health_queues.set(queue_status as i64);
    m.health_slo.set(slo_status as i64);
    let status = components.iter().map(|c| c.status).max().unwrap_or(health::STATUS_OK);
    let ready = !read_only && status == health::STATUS_OK;
    m.ready.set(ready as i64);
    shared.health.set_verdict(Verdict {
        ready,
        status,
        read_only,
        components,
        slo_alerting: alerting,
    });
    shared.health.stamp_watchdog_tick();
}

/// Spawn the I/O side of the server: the epoll event loop plus a reaper
/// thread that joins the worker/writer set and then tells the loop no
/// further completions can arrive.
#[cfg(target_os = "linux")]
fn spawn_serve_path(
    listener: TcpListener,
    core: Vec<std::thread::JoinHandle<()>>,
    shared: &Arc<Shared>,
) -> std::io::Result<Vec<std::thread::JoinHandle<()>>> {
    let io = Arc::new(crate::engine::Shared::new()?);
    let io_exit = Arc::new(AtomicBool::new(false));
    let mut threads = Vec::new();
    let (io2, exit2) = (io.clone(), io_exit.clone());
    threads.push(
        std::thread::Builder::new().name("geosir-reaper".into()).spawn(move || {
            for t in core {
                let _ = t.join();
            }
            exit2.store(true, Ordering::SeqCst);
            io2.wake();
        })?,
    );
    // Hand the watchdog a handle to the loop's eventfd: an otherwise
    // idle loop (epoll timeout -1) is pinged each watchdog interval so a
    // fresh tick stamp proves it can still run.
    let io3 = io.clone();
    shared.health.set_waker(Box::new(move || io3.wake()));
    let mut handler = NodeHandler { shared: shared.clone(), io: io.clone(), io_exit };
    threads.push(
        std::thread::Builder::new()
            .name("geosir-io".into())
            .spawn(move || crate::engine::run(listener, &io, &mut handler))?,
    );
    Ok(threads)
}

/// The node is a role of the epoll connection engine; there is no
/// second serve path for other platforms.
#[cfg(not(target_os = "linux"))]
fn spawn_serve_path(
    _listener: TcpListener,
    _core: Vec<std::thread::JoinHandle<()>>,
    _shared: &Arc<Shared>,
) -> std::io::Result<Vec<std::thread::JoinHandle<()>>> {
    Err(std::io::Error::new(
        std::io::ErrorKind::Unsupported,
        "the node runs on the epoll connection engine (Linux only)",
    ))
}

/// The node as a role of the connection engine: requests are admitted
/// to the worker queues (or refused on the spot), replies come back
/// from the workers through [`crate::engine::Shared::complete`].
#[cfg(target_os = "linux")]
struct NodeHandler {
    shared: Arc<Shared>,
    io: Arc<crate::engine::Shared>,
    /// Set by the reaper once every worker and the writer have exited:
    /// all completions are posted, the loop flushes and leaves.
    io_exit: Arc<AtomicBool>,
}

#[cfg(target_os = "linux")]
impl crate::engine::Handler for NodeHandler {
    fn on_request(
        &mut self,
        _cx: &mut crate::engine::Ctx<'_>,
        token: u64,
        frame: Frame,
        corr: u64,
    ) -> crate::engine::Admit {
        use crate::engine::Admit;
        let shared = &self.shared;
        let queue = match frame {
            Frame::Query { .. }
            | Frame::Explain { .. }
            | Frame::QueryApprox { .. }
            | Frame::QueryBatch { .. }
            | Frame::Stats
            | Frame::MetricsDump
            | Frame::Topology => &shared.read_queue,
            Frame::Insert { .. } | Frame::Delete { .. } => &shared.write_queue,
            Frame::Shutdown => {
                shared.begin_shutdown();
                return Admit::Close(Frame::Bye);
            }
            _ => {
                return Admit::Reply(Frame::Error {
                    code: error_code::UNEXPECTED_FRAME,
                    message: "response frame sent as request".into(),
                })
            }
        };
        let reply = Conn { io: self.io.clone(), token, corr };
        match submit(queue, shared, Job { frame, reply, enqueued: Instant::now() }) {
            Ok(()) => Admit::Pending,
            Err(immediate) => Admit::Reply(immediate),
        }
    }

    fn shutting_down(&self) -> bool {
        self.shared.is_shutdown()
    }

    fn exit_ready(&self) -> bool {
        self.io_exit.load(Ordering::SeqCst)
    }

    fn on_wakeup(&mut self, events: usize) {
        self.shared.metrics.poll_wakeups.inc();
        self.shared.metrics.poll_events.record(events as u64);
        self.shared.health.stamp_loop_tick();
    }

    fn on_conns_changed(&mut self, delta: i64) {
        self.shared.metrics.conns_open.add(delta);
    }

    fn on_io_error(&mut self) {
        self.shared.metrics.io_errors.inc();
    }

    fn on_protocol_error(&mut self) {
        self.shared.metrics.protocol_errors.inc();
    }
}

/// Submit to a queue, translating refusal into the shed/shutdown reply.
/// The `Err` frame is cold (shed/shutdown only), so its size is fine.
#[allow(clippy::result_large_err)]
fn submit(queue: &BoundedQueue<Job>, shared: &Shared, job: Job) -> Result<(), Frame> {
    match queue.try_push(job) {
        Ok(()) => Ok(()),
        Err(PushError::Full(_)) => {
            shared.metrics.busy_rejects.inc();
            // hint derived from live queue depth + observed drain rate,
            // so a draining queue hands out ever-shorter waits
            Err(Frame::Busy { retry_after_ms: queue.retry_hint() })
        }
        Err(PushError::Closed(_)) => Err(Frame::Error {
            code: error_code::SHUTTING_DOWN,
            message: "server is shutting down".into(),
        }),
    }
}

/// A worker's long-lived scratch set: after warm-up, answering and
/// describing a read touches the heap only for the reply frame.
#[derive(Default)]
struct ReadScratch {
    matcher: MatcherScratch,
    tmp: MatchOutcome,
    ax: ApproxScratch,
    astats: ApproxStats,
    hits: Vec<DynMatch>,
    rstats: RetrieveStats,
    qx: QueryExplain,
    rec: obs::RequestRecord,
}

fn worker_loop(worker: usize, shared: &Arc<Shared>) {
    // Route the matcher/dynamic-base instrumentation recorded deep in
    // geosir-core to this server's registry for the thread's lifetime.
    obs::set_thread_registry(Some(shared.metrics.registry.clone()));
    let worker_label = worker.to_string();
    let busy_us = shared
        .metrics
        .registry
        .counter("geosir_worker_busy_us_total", &[("worker", worker_label.as_str())]);
    let mut ws = ReadScratch::default();
    let mut jobs: Vec<Job> = Vec::new();
    while shared.read_queue.pop_batch(shared.cfg.coalesce_max, &mut jobs) {
        let coalesced = jobs.len() as u64;
        shared.metrics.coalesced_batch.record(coalesced);
        // Everything one pop took runs against one snapshot pin, job by
        // job, each answered the moment it is done. The pin postdates
        // every job's admission, so read-your-writes holds for all.
        let snap = shared.current_snapshot();
        for job in jobs.drain(..) {
            let started = Instant::now();
            run_read_job(shared, &snap, &job, coalesced, &mut ws);
            busy_us.add(started.elapsed().as_micros() as u64);
        }
    }
}

/// The one body of a read: answer `job` against `snap`, describe the
/// finished request once in `ws.rec`, hand that record to every sink —
/// the request ring, latency series, slow-query log, the reply's own timing fields
/// — and send the reply.
fn run_read_job(shared: &Shared, snap: &Snapshot, job: &Job, coalesced: u64, ws: &mut ReadScratch) {
    let queue_us = job.enqueued.elapsed().as_micros() as u64;
    let ReadScratch { matcher, tmp, ax, astats, hits, rstats, qx, rec } = ws;
    let m = &shared.metrics;
    // `described`: the arm answered a query and began its record.
    let (described, mut reply) = match &job.frame {
        Frame::Query { k, shape, .. } | Frame::Explain { k, shape, .. } => {
            match shape.to_polyline() {
                Some(query) => {
                    let explain = matches!(job.frame, Frame::Explain { .. });
                    if explain { &m.explains } else { &m.queries }.inc();
                    let span = obs::SpanGuard::enter("retrieve");
                    // With a slow-query log armed every query captures
                    // its plan: the report must already exist by the
                    // time the query turns out to be slow.
                    let k = *k as usize;
                    if explain || shared.slow_log.is_some() {
                        snap.explain_with_stats(matcher, tmp, &query, k, hits, rstats, qx);
                    } else {
                        snap.retrieve_with_stats(matcher, tmp, &query, k, hits, rstats);
                    }
                    let retrieve_us = span.elapsed_us();
                    drop(span);
                    let kind =
                        if explain { obs::RequestKind::Explain } else { obs::RequestKind::Query };
                    rec.begin(kind, job.trace())
                        .stage("queue_wait", queue_us)
                        .stage("retrieve", retrieve_us)
                        .note("levels", rstats.levels)
                        .note("scan_copies", rstats.scan_copies)
                        .note("scan_survivors", rstats.scan_survivors)
                        .note("buffer_scored", rstats.buffer_scored)
                        .note("coalesced", coalesced)
                        .note("hits", hits.len() as u64);
                    let (epoch, matches) = (snap.epoch(), to_wire(hits));
                    // a reply's trace id and timings are read off the record, below
                    let reply = if explain {
                        let (trace, total_us, report) = (0, 0, qx.clone());
                        Frame::ExplainReport { epoch, trace, total_us, queue_us: 0, matches, report }
                    } else {
                        Frame::Matches { epoch, shards: Default::default(), trailer: None, matches }
                    };
                    (true, reply)
                }
                None => (false, bad_shape()),
            }
        }
        Frame::QueryApprox { k, max_radius, max_candidates, shape, .. } => {
            match shape.to_polyline() {
                Some(query) => {
                    m.queries.inc();
                    let mut opts = ApproxOptions { k: *k as usize, ..ApproxOptions::default() };
                    if *max_radius != 0 {
                        opts.max_radius = *max_radius;
                    }
                    if *max_candidates != 0 {
                        opts.max_candidates = *max_candidates as usize;
                    }
                    let span = obs::SpanGuard::enter("similar_approx");
                    snap.similar_approx_with(matcher, tmp, ax, &query, &opts, hits, astats);
                    let probe_us = span.elapsed_us();
                    drop(span);
                    rec.begin(obs::RequestKind::QueryApprox, job.trace())
                        .stage("queue_wait", queue_us)
                        .stage("probe_rerank", probe_us)
                        .note("tier", astats.tier.code() as u64)
                        .note("radius", astats.radius as u64)
                        .note("buckets_probed", astats.buckets_probed)
                        .note("candidates", astats.candidates)
                        .note("reranked", astats.reranked)
                        .note("reduction_x100", (astats.reduction() * 100.0) as u64)
                        .note("hits", hits.len() as u64);
                    let reply = Frame::ApproxMatches {
                        epoch: snap.epoch(),
                        tier: astats.tier.code(),
                        radius: astats.radius,
                        buckets_probed: astats.buckets_probed,
                        candidates: astats.candidates,
                        corpus_copies: astats.corpus_copies,
                        reranked: astats.reranked,
                        shards: Default::default(),
                        trailer: None,
                        matches: to_wire(hits),
                    };
                    (true, reply)
                }
                None => (false, bad_shape()),
            }
        }
        Frame::QueryBatch { k, shapes } => {
            let span = obs::SpanGuard::enter("retrieve_batch");
            let mut results = Vec::with_capacity(shapes.len());
            for shape in shapes {
                match shape.to_polyline() {
                    Some(query) => {
                        m.queries.inc();
                        snap.retrieve_with_stats(matcher, tmp, &query, *k as usize, hits, rstats);
                        results.push(to_wire(hits));
                    }
                    None => results.push(Vec::new()),
                }
            }
            let batch_us = span.elapsed_us();
            drop(span);
            rec.begin(obs::RequestKind::Batch, 0)
                .stage("queue_wait", queue_us)
                .stage("retrieve", batch_us)
                .note("queries", shapes.len() as u64);
            (true, Frame::BatchMatches { epoch: snap.epoch(), results })
        }
        Frame::Stats => (false, Frame::StatsReport(shared.stats())),
        Frame::MetricsDump => {
            shared.refresh_gauges();
            let mut bytes = Vec::with_capacity(4096);
            m.registry.snapshot().encode(&mut bytes);
            (false, Frame::MetricsReport { snapshot: bytes })
        }
        // A single-node server is a trivial one-shard cluster: itself
        // as primary, healthy, no replicas, no lag.
        Frame::Topology => {
            let me = crate::wire::WireShardStatus {
                shard: 0,
                primary: shared.addr.to_string(),
                primary_state: 0,
                replicas: Vec::new(),
                lag_records: 0,
                lag_ms: 0,
            };
            (false, Frame::TopologyReport { shards: vec![me] })
        }
        _ => {
            let message = "write frame on read queue".into();
            (false, Frame::Error { code: error_code::UNEXPECTED_FRAME, message })
        }
    };
    // One stopwatch reading is what the client waited, for every sink.
    let total_us = job.enqueued.elapsed().as_micros() as u64;
    if described {
        (rec.total_us, rec.queue_us, rec.epoch) = (total_us, queue_us, snap.epoch());
        let trace_id = m.registry.record_request(rec);
        match &mut reply {
            Frame::Matches { trailer, .. } | Frame::ApproxMatches { trailer, .. } => {
                *trailer = Some(StageTrailer { total_us, queue_us });
            }
            Frame::ExplainReport { trace, total_us: total, queue_us: queue, .. } => {
                (*trace, *total, *queue) = (trace_id, total_us, queue_us);
            }
            _ => {}
        }
        shared.log_slow_query(rec, qx);
    }
    let admin = matches!(job.frame, Frame::Stats | Frame::MetricsDump | Frame::Topology);
    if admin { &m.latency_stats } else { &m.latency_query }.record(total_us);
    m.requests.inc();
    job.reply.send(reply);
}

/// Writer-thread state beyond the base itself.
struct WriterCtx {
    /// Next `GlobalShapeId` to assign (pre-assigned so the WAL record
    /// can be written before the base is touched).
    next_id: u64,
    /// Idempotency key → assigned id, bounded FIFO eviction.
    dedup: HashMap<u64, u64>,
    dedup_order: VecDeque<u64>,
}

/// Bound on remembered idempotency keys — enough to cover any plausible
/// retry window without growing without limit.
const DEDUP_CAP: usize = 8192;

impl WriterCtx {
    fn remember(&mut self, key: u64, id: u64) {
        if key == 0 {
            return;
        }
        if self.dedup.insert(key, id).is_none() {
            self.dedup_order.push_back(key);
            while self.dedup_order.len() > DEDUP_CAP {
                if let Some(old) = self.dedup_order.pop_front() {
                    self.dedup.remove(&old);
                }
            }
        }
    }
}

/// One planned mutation (or its immediate refusal).
#[derive(Debug)]
enum Act {
    Reply(Frame),
    /// Duplicate idempotency key: re-ack the original id, no mutation.
    /// `same_batch` marks a duplicate of an Insert planned earlier in
    /// the *current* batch — not yet logged or applied — whose ack must
    /// be withdrawn together with the original's if the batch's WAL
    /// append fails.
    DupInsert { id: u64, same_batch: bool },
    Insert { key: u64, id: u64, image: u32, poly: Polyline },
    Delete { id: u64 },
}

/// Plan a batch of write frames: validate, dedup, and pre-assign ids
/// without touching the base, so every mutation can hit the WAL before
/// any state does. Idempotency keys are checked against the long-lived
/// dedup map **and** the keys planned earlier in this same batch — a
/// retried Insert landing in the same batch as its original becomes a
/// `DupInsert` re-acking the original's pre-assigned id instead of
/// double-inserting.
fn plan_batch<'a>(
    frames: impl Iterator<Item = &'a Frame>,
    ctx: &mut WriterCtx,
    read_only: bool,
    metrics: &Metrics,
) -> Vec<Act> {
    let mut batch_keys: HashMap<u64, u64> = HashMap::new();
    let mut acts = Vec::new();
    for frame in frames {
        let act = match frame {
            Frame::Insert { image, key, shape, .. } => {
                metrics.inserts.inc();
                if read_only {
                    Act::Reply(read_only_reply())
                } else if let Some(&id) = ctx.dedup.get(key).filter(|_| *key != 0) {
                    Act::DupInsert { id, same_batch: false }
                } else if let Some(&id) = batch_keys.get(key).filter(|_| *key != 0) {
                    Act::DupInsert { id, same_batch: true }
                } else {
                    match shape.to_polyline() {
                        Some(poly) => {
                            let id = ctx.next_id;
                            ctx.next_id += 1;
                            if *key != 0 {
                                batch_keys.insert(*key, id);
                            }
                            Act::Insert { key: *key, id, image: *image, poly }
                        }
                        None => Act::Reply(bad_shape()),
                    }
                }
            }
            Frame::Delete { id } => {
                metrics.deletes.inc();
                if read_only {
                    Act::Reply(read_only_reply())
                } else {
                    Act::Delete { id: *id }
                }
            }
            _ => Act::Reply(Frame::Error {
                code: error_code::UNEXPECTED_FRAME,
                message: "read frame on write queue".into(),
            }),
        };
        acts.push(act);
    }
    acts
}

/// After a failed WAL append, withdraw every act that depended on this
/// batch reaching the log: the mutations themselves, plus same-batch
/// duplicates whose original insert was just refused. Cross-batch
/// duplicates keep their re-ack — their original is already durable.
fn refuse_unlogged(acts: &mut [Act]) {
    for act in acts.iter_mut() {
        if matches!(
            act,
            Act::Insert { .. } | Act::Delete { .. } | Act::DupInsert { same_batch: true, .. }
        ) {
            *act = Act::Reply(read_only_reply());
        }
    }
}

fn read_only_reply() -> Frame {
    Frame::Error {
        code: error_code::READ_ONLY,
        message: "server is in degraded read-only mode (persistent I/O failure)".into(),
    }
}

fn writer_loop(mut base: DynamicBase, mut ctx: WriterCtx, shared: &Arc<Shared>) {
    // WAL append/fsync instrumentation inside geosir-storage lands on
    // this server's registry for the thread's lifetime.
    obs::set_thread_registry(Some(shared.metrics.registry.clone()));
    const MAX_BATCH: usize = 64;
    let mut rec = obs::RequestRecord::default();
    while let Some(first) = shared.write_queue.pop() {
        // batch whatever else is already queued (bounded), log, apply,
        // publish once, then reply — so replies always describe durable,
        // published state
        let mut batch = vec![first];
        while batch.len() < MAX_BATCH {
            match shared.write_queue.try_pop() {
                Some(job) => batch.push(job),
                None => break,
            }
        }

        let batch_started = Instant::now();
        // Heartbeat for the WAL-writer watchdog: the busy marker covers
        // log + apply + publish + reply; it is cleared before the next
        // blocking pop, so an idle writer never looks stalled.
        shared.health.wal_begin();
        let read_only = shared.is_read_only();
        let mut acts =
            plan_batch(batch.iter().map(|j| &j.frame), &mut ctx, read_only, &shared.metrics);

        // Log: append every mutation and commit (fsync per policy)
        // BEFORE applying or acking. A failure here flips the server
        // read-only and refuses the whole batch — nothing un-logged is
        // ever acked or published.
        let mut logged = 0u64;
        let mut wal_us = 0u64;
        if let Some(d) = &shared.durable {
            let has_mutation =
                acts.iter().any(|a| matches!(a, Act::Insert { .. } | Act::Delete { .. }));
            if has_mutation {
                let span = obs::SpanGuard::enter("wal");
                let mut wal = d.wal.lock().unwrap();
                let res = (|| {
                    for act in &acts {
                        match act {
                            Act::Insert { key, id, image, poly } => {
                                wal.append(&WalRecord::Insert {
                                    key: *key,
                                    id: *id,
                                    image: *image,
                                    closed: poly.is_closed(),
                                    points: poly.points().iter().map(|p| (p.x, p.y)).collect(),
                                })?;
                                logged += 1;
                            }
                            Act::Delete { id } => {
                                wal.append(&WalRecord::Delete { id: *id })?;
                                logged += 1;
                            }
                            Act::Reply(_) | Act::DupInsert { .. } => {}
                        }
                    }
                    wal.commit()
                })();
                shared.metrics.wal_appends.set(wal.appends as i64);
                shared.metrics.wal_syncs.set(wal.syncs as i64);
                drop(wal);
                wal_us = span.elapsed_us();
                drop(span);
                match res {
                    Ok(fsync) => {
                        if let Some(dur) = fsync {
                            shared.metrics.fsync.record_duration(dur);
                        }
                        d.records_since_ckpt.fetch_add(logged, Ordering::Relaxed);
                    }
                    Err(e) => {
                        // degraded mode: refuse this batch and all future
                        // writes; queries keep serving the last snapshot
                        shared.metrics.io_errors.inc();
                        d.read_only.store(true, Ordering::SeqCst);
                        shared.metrics.registry.journal().emit(
                            obs::JournalEvent::new(obs::Severity::Error, "wal.append_error")
                                .with("error", e)
                                .with("batch", logged),
                        );
                        refuse_unlogged(&mut acts);
                    }
                }
                // acked writes are on the log (fsynced per policy) past
                // this point; a crash here must lose nothing acked
                geosir_storage::faults::crash_if_armed("wal.post-append");
            }
        }

        // Apply + reply.
        let mut applied = false;
        let mut replies = Vec::with_capacity(acts.len());
        for act in acts {
            let reply = match act {
                Act::Reply(f) => f,
                Act::DupInsert { id, .. } => Frame::Inserted { epoch: base.epoch(), id },
                Act::Insert { key, id, image, poly } => {
                    base.insert_with_id(GlobalShapeId(id), ImageId(image), poly);
                    ctx.remember(key, id);
                    applied = true;
                    Frame::Inserted { epoch: base.epoch(), id }
                }
                Act::Delete { id } => {
                    let existed = base.delete(GlobalShapeId(id));
                    applied = true;
                    Frame::Deleted { epoch: base.epoch(), existed }
                }
            };
            replies.push(reply);
        }
        let mut publish_us = 0u64;
        if applied {
            let span = obs::SpanGuard::enter("publish");
            let snap = Arc::new(base.snapshot());
            let wal_lsn = shared
                .durable
                .as_ref()
                .map(|d| d.wal.lock().unwrap().next_lsn().saturating_sub(1))
                .unwrap_or(0);
            *shared.published.write().unwrap() = Published { snap, wal_lsn };
            *shared.last_publish.lock().unwrap() = Instant::now();
            publish_us = span.elapsed_us();
            drop(span);
            shared.metrics.publish.record(publish_us);
            shared.metrics.snapshots_published.inc();
        }
        let batch_len = batch.len() as u64;
        for (job, reply) in batch.into_iter().zip(replies) {
            let kind = if matches!(job.frame, Frame::Insert { .. }) {
                obs::RequestKind::Insert
            } else {
                obs::RequestKind::Delete
            };
            rec.begin(kind, job.trace());
            rec.total_us = job.enqueued.elapsed().as_micros() as u64;
            rec.queue_us = batch_started.duration_since(job.enqueued).as_micros() as u64;
            rec.epoch = base.epoch();
            // queue_wait is per job; wal and publish are shared by the
            // whole batch (that is what the client actually waited on)
            rec.stage("queue_wait", rec.queue_us)
                .stage("wal", wal_us)
                .stage("publish", publish_us)
                .note("batch", batch_len);
            shared.metrics.registry.record_request(&mut rec);
            shared.metrics.requests.inc();
            shared.metrics.latency_write.record(rec.total_us);
            job.reply.send(reply);
        }
        shared.health.wal_end();
    }
    // graceful shutdown: force the tail to disk whatever the policy
    if let Some(d) = &shared.durable {
        let mut wal = d.wal.lock().unwrap();
        let _ = wal.sync();
        shared.metrics.wal_syncs.set(wal.syncs as i64);
    }
}

/// Background checkpointer: every `checkpoint_every` logged records,
/// serialize the published snapshot through the 1 KB page store, point
/// the manifest at it, then rotate the WAL and prune covered segments.
/// Persistent failure (3 consecutive) flips the server read-only.
fn checkpointer_loop(shared: &Arc<Shared>) {
    // checkpoint/manifest instrumentation inside geosir-storage lands
    // on this server's registry
    obs::set_thread_registry(Some(shared.metrics.registry.clone()));
    let Some(d) = &shared.durable else { return };
    let mut consecutive_failures = 0u32;
    while !shared.is_shutdown() {
        std::thread::sleep(shared.cfg.poll_interval);
        let pending = d.records_since_ckpt.load(Ordering::Relaxed);
        if pending < d.checkpoint_every || shared.is_read_only() {
            continue;
        }
        // consistent pair: this snapshot contains exactly the effects of
        // records ≤ wal_lsn, so replay after it starts at wal_lsn + 1
        let (snap, lsn) = {
            let p = shared.published.read().unwrap();
            (p.snap.clone(), p.wal_lsn)
        };
        if lsn <= d.last_ckpt_lsn.load(Ordering::Relaxed) {
            continue;
        }
        let data = CheckpointData {
            epoch: snap.epoch(),
            next_id: snap.next_id(),
            shapes: snap.live_shapes(),
        };
        let name = durable::checkpoint_name(lsn);
        // ordering: checkpoint → manifest → rotate → prune. A crash
        // between any two steps recovers correctly: the old manifest
        // with the old WAL, or the new one with not-yet-pruned segments
        // whose covered records replay as no-ops.
        let result = checkpoint::write(&d.data_dir.join(&name), &data)
            .and_then(|()| Manifest { checkpoint: name, last_lsn: lsn, epoch: snap.epoch() }
                .store(&d.data_dir))
            .map_err(|e| std::io::Error::other(e.to_string()))
            .and_then(|()| {
                let mut wal = d.wal.lock().unwrap();
                wal.rotate()?;
                wal.prune_up_to(lsn)?;
                shared.metrics.wal_syncs.set(wal.syncs as i64);
                Ok(())
            });
        let journal = shared.metrics.registry.journal();
        match result {
            Ok(()) => {
                shared.metrics.checkpoints.inc();
                d.records_since_ckpt.fetch_sub(pending, Ordering::Relaxed);
                d.last_ckpt_lsn.store(lsn, Ordering::Relaxed);
                consecutive_failures = 0;
                journal.emit(
                    obs::JournalEvent::new(obs::Severity::Info, "checkpoint.done")
                        .with("lsn", lsn)
                        .with("records", pending),
                );
                journal.emit(
                    obs::JournalEvent::new(obs::Severity::Info, "wal.rotate").with("through", lsn),
                );
            }
            Err(e) => {
                shared.metrics.checkpoint_failures.inc();
                shared.metrics.io_errors.inc();
                consecutive_failures += 1;
                journal.emit(
                    obs::JournalEvent::new(obs::Severity::Warn, "checkpoint.fail")
                        .with("lsn", lsn)
                        .with("consecutive", consecutive_failures)
                        .with("error", e),
                );
                if consecutive_failures >= 3 {
                    d.read_only.store(true, Ordering::SeqCst);
                }
            }
        }
    }
}

fn bad_shape() -> Frame {
    Frame::Error { code: error_code::BAD_SHAPE, message: "payload is not a valid polyline".into() }
}

fn to_wire(hits: &[geosir_core::dynamic::DynMatch]) -> Vec<WireMatch> {
    hits.iter().map(|m| WireMatch { shape: m.shape.0, image: m.image.0, score: m.score }).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_sheds_when_full_and_drains_after_close() {
        let q: BoundedQueue<u32> = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        match q.try_push(3) {
            Err(PushError::Full(v)) => assert_eq!(v, 3),
            _ => panic!("push into a full queue must refuse"),
        }
        q.close();
        match q.try_push(4) {
            Err(PushError::Closed(_)) => {}
            _ => panic!("push into a closed queue must refuse"),
        }
        // admitted items still drain after close
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bounded_queue_cap_zero_clamps_to_one() {
        let q: BoundedQueue<u32> = BoundedQueue::new(0);
        assert!(q.try_push(1).is_ok());
        assert!(matches!(q.try_push(2), Err(PushError::Full(_))));
    }

    #[test]
    fn writer_ctx_dedup_is_bounded_fifo() {
        let mut ctx = WriterCtx {
            next_id: 0,
            dedup: HashMap::new(),
            dedup_order: VecDeque::new(),
        };
        ctx.remember(0, 99); // key 0 = "no key": never remembered
        assert!(ctx.dedup.is_empty());
        for k in 1..=(DEDUP_CAP as u64 + 10) {
            ctx.remember(k, k + 1000);
        }
        assert_eq!(ctx.dedup.len(), DEDUP_CAP);
        assert!(!ctx.dedup.contains_key(&1), "oldest keys evicted");
        assert_eq!(ctx.dedup.get(&(DEDUP_CAP as u64 + 10)), Some(&(DEDUP_CAP as u64 + 1010)));
        // re-remembering an existing key must not double-queue it
        let len = ctx.dedup_order.len();
        ctx.remember(DEDUP_CAP as u64 + 10, 7);
        assert_eq!(ctx.dedup_order.len(), len);
    }

    fn fresh_ctx(next_id: u64) -> WriterCtx {
        WriterCtx { next_id, dedup: HashMap::new(), dedup_order: VecDeque::new() }
    }

    fn keyed_insert(key: u64) -> Frame {
        let poly = Polyline::closed(vec![
            geosir_geom::Point::new(0.0, 0.0),
            geosir_geom::Point::new(3.0, 0.2),
            geosir_geom::Point::new(1.5, 2.0),
        ])
        .unwrap();
        Frame::Insert { image: 1, key, trace: 0, shape: crate::wire::WireShape::from_polyline(&poly) }
    }

    /// Satellite requirement: the `Busy` hint must be proportional to the
    /// backlog at a fixed drain rate, so it shrinks as the queue drains.
    #[test]
    fn retry_hint_shrinks_as_the_queue_drains() {
        // observed rate: 50 items per 100 ms → 2 ms per item
        let hints: Vec<u32> =
            [100usize, 50, 20, 5, 0].iter().map(|&d| retry_hint_ms(d, 50, 100_000, 50)).collect();
        for pair in hints.windows(2) {
            assert!(pair[0] > pair[1], "hint must shrink with depth: {hints:?}");
        }
        assert!(hints[0] >= 200, "100 queued at 2 ms each is ≥ 200 ms, got {}", hints[0]);
        assert!(hints[4] <= 2, "an empty queue drains immediately, got {}", hints[4]);
    }

    #[test]
    fn retry_hint_falls_back_without_an_observed_rate() {
        assert_eq!(retry_hint_ms(10, 0, 0, 50), 50);
        assert_eq!(retry_hint_ms(10, 0, 100_000, 50), 50);
        // fallback 0 still yields a usable nonzero hint
        assert_eq!(retry_hint_ms(10, 0, 0, 0), 1);
    }

    #[test]
    fn retry_hint_is_clamped_against_stalls() {
        // 1 item drained over 10 s with a deep backlog: clamped to 10 s
        assert_eq!(retry_hint_ms(10_000, 1, 10_000_000, 50), 10_000);
    }

    #[test]
    fn drain_tracker_reports_pops() {
        let q: BoundedQueue<u32> = BoundedQueue::new(8);
        for i in 0..6 {
            assert!(q.try_push(i).is_ok());
        }
        for _ in 0..6 {
            q.pop();
        }
        let (drained, window_us) = q.drain.recent_rate();
        assert_eq!(drained, 6);
        assert!(window_us > 0);
    }

    /// A retried Insert landing in the same writer batch as its original
    /// must dedup against the original's pre-assigned id — the long-lived
    /// map is only updated at apply time, so the batch itself has to
    /// remember what it planned.
    #[test]
    fn same_batch_duplicate_key_plans_as_dup_insert() {
        let mut ctx = fresh_ctx(5);
        let m = Metrics::default();
        let frames = [keyed_insert(42), keyed_insert(42), keyed_insert(0), keyed_insert(0)];
        let acts = plan_batch(frames.iter(), &mut ctx, false, &m);
        assert!(matches!(acts[0], Act::Insert { id: 5, key: 42, .. }));
        assert!(
            matches!(acts[1], Act::DupInsert { id: 5, same_batch: true }),
            "second occurrence must re-ack the first's pre-assigned id"
        );
        // key 0 means "no key": both are real inserts
        assert!(matches!(acts[2], Act::Insert { id: 6, .. }));
        assert!(matches!(acts[3], Act::Insert { id: 7, .. }));
        assert_eq!(ctx.next_id, 8, "exactly three ids consumed");
    }

    #[test]
    fn cross_batch_duplicate_still_wins_over_batch_scan() {
        let mut ctx = fresh_ctx(10);
        ctx.remember(42, 3); // key 42 already applied as id 3 in an earlier batch
        let m = Metrics::default();
        let acts = plan_batch([keyed_insert(42)].iter(), &mut ctx, false, &m);
        assert!(matches!(acts[0], Act::DupInsert { id: 3, same_batch: false }));
        assert_eq!(ctx.next_id, 10, "no id consumed for a known key");
    }

    /// When the batch's WAL append fails, same-batch duplicates must be
    /// withdrawn with their original (it was never logged or applied),
    /// while cross-batch duplicates keep re-acking their durable original.
    #[test]
    fn refuse_unlogged_withdraws_same_batch_dups_only() {
        let mut acts = vec![
            Act::DupInsert { id: 3, same_batch: false },
            Act::Insert {
                key: 42,
                id: 5,
                image: 1,
                poly: Polyline::closed(vec![
                    geosir_geom::Point::new(0.0, 0.0),
                    geosir_geom::Point::new(3.0, 0.2),
                    geosir_geom::Point::new(1.5, 2.0),
                ])
                .unwrap(),
            },
            Act::DupInsert { id: 5, same_batch: true },
            Act::Delete { id: 1 },
        ];
        refuse_unlogged(&mut acts);
        assert!(
            matches!(acts[0], Act::DupInsert { id: 3, same_batch: false }),
            "a dup of an already-durable insert keeps its ack"
        );
        for (i, act) in acts.iter().enumerate().skip(1) {
            match act {
                Act::Reply(Frame::Error { code, .. }) => assert_eq!(*code, error_code::READ_ONLY),
                other => panic!("act {i} must be withdrawn, got {other:?}"),
            }
        }
    }

    #[test]
    fn pop_blocks_until_push() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(4));
        let q2 = q.clone();
        let t = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        assert!(q.try_push(42).is_ok());
        assert_eq!(t.join().unwrap(), Some(42));
    }
}
