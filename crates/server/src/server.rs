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
//! `NodeHandler` role in `server/admission.rs`): an edge-triggered epoll poller (raw
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
//! **Graceful shutdown.** A `Shutdown` frame (or
//! [`ServerHandle::shutdown`]) closes both queues: pushes start failing,
//! but workers and the writer drain every already-admitted job and reply
//! before exiting — no accepted request is dropped. A reaper thread joins
//! them and wakes the event loop through its eventfd; the loop flushes
//! the last replies, closes every connection and leaves. The HTTP plane
//! keeps answering until the handle is joined or dropped.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use geosir_core::dynamic::{DynamicBase, Snapshot};
use geosir_obs as obs;
use geosir_storage::faults::{FileFactory, IoFactory};
use geosir_storage::wal::{Lsn, Wal};

use crate::durable::{self, BaseTemplate, DurabilityConfig, RecoveryReport, Recovered};
use crate::health::{HealthConfig, HealthState};
use crate::metrics::Metrics;
use crate::repl::Follower;
use crate::sinks::{arm_crash_dump, JsonlLog, SlowLog};
use crate::wire::{error_code, Frame, ServerStats};

mod admission;
mod watchdog;
mod worker;
mod writer;

use admission::{spawn_serve_path, BoundedQueue, Job, WRITE_QUEUE_CAP};
use watchdog::{http_routes, watchdog_loop};
use worker::worker_loop;
use writer::{checkpointer_loop, follow_loop, writer_loop, WriterCtx};

/// Server tuning knobs. What no caller tunes is a constant beside the
/// code that uses it: the checkpointer's 50 ms tick (`writer.rs`), the
/// write queue's capacity (`admission.rs`).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads answering queries (0 = one per available CPU).
    pub workers: usize,
    /// Bounded read-queue capacity; beyond it, queries get `Busy`.
    pub queue_cap: usize,
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
    /// The watchdog behind `/healthz`, `/readyz`, and the
    /// `geosir_health_status` gauges: on or off, and the cadence its
    /// deadlines and SLO windows derive from.
    pub health: HealthConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 0,
            queue_cap: 128,
            metrics_addr: None,
            slow_query_log: None,
            slow_query_us: 10_000,
            coalesce_max: 16,
            health: HealthConfig::default(),
        }
    }
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
    /// What checkpoint pages are appended through: the WAL's factory.
    io: Arc<dyn IoFactory>,
}

/// What a node's writer slot applies: clients' writes, deduplicated at
/// first by these idempotency keys (key → id), or a primary's log.
enum Writer {
    Clients(HashMap<u64, u64>),
    Follows(Box<Follower>),
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
    /// A replica refuses clients' writes at admission.
    replica: bool,
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
        let wal = m.wal_recorded();
        ServerStats {
            read_only: self.is_read_only() as u64,
            wal_appends: wal.map_or(0, |w| w.appends.get()),
            wal_syncs: wal.map_or(0, |w| w.syncs.get()),
            fsync_p50_us: wal.map_or(0, |w| w.fsync_us.quantile(0.5)),
            fsync_p99_us: wal.map_or(0, |w| w.fsync_us.quantile(0.99)),
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
    let listener = TcpListener::bind(addr)?;
    let writer = Writer::Clients(HashMap::new());
    serve_inner(listener, base, cfg, None, writer, 0, Metrics::default())
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
    let metrics = Metrics::default();
    let journal = metrics.registry.journal();
    journal.emit(
        obs::JournalEvent::new(obs::Severity::Info, "recovery.start")
            .with("dir", dcfg.data_dir.display()),
    );
    let Recovered { base, wal, applied_lsn, dedup, report } =
        durable::recover(template, &dcfg, &metrics)?;
    journal.emit(
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
        io: dcfg.io_factory.clone().unwrap_or_else(|| Arc::new(FileFactory)),
    };
    let listener = TcpListener::bind(addr)?;
    let writer = Writer::Clients(dedup);
    let handle = serve_inner(listener, base, cfg, Some(state), writer, applied_lsn, metrics)?;
    let m = &handle.shared.metrics;
    m.last_recovery_us.set(report.recovery_us as i64);
    let r = &m.registry;
    r.gauge("geosir_recovery_replayed_records", &[]).set(report.replayed as i64);
    r.gauge("geosir_recovery_checkpoint_shapes", &[]).set(report.checkpoint_shapes as i64);
    r.gauge("geosir_recovery_truncated_tail", &[]).set(report.truncated_tail as i64);
    r.gauge("geosir_recovery_dropped_bytes", &[]).set(report.dropped_bytes as i64);
    Ok((handle, report))
}

/// Start a **replica** of the durable primary whose data directory is
/// `primary_dir`: its newest checkpoint, then its WAL, followed every
/// 10 ms (`repl.rs`). Writes are refused with `READ_ONLY`; the lag
/// series of `shard` and the `repl.*` journal go to `registry`.
pub fn serve_follower(
    addr: &str,
    template: &BaseTemplate,
    primary_dir: &Path,
    shard: u16,
    registry: Arc<obs::Registry>,
    cfg: ServeConfig,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let (follower, base) = Follower::boot(template, primary_dir, shard, local, registry)?;
    let applied = follower.applied;
    let writer = Writer::Follows(Box::new(follower));
    serve_inner(listener, base, cfg, None, writer, applied, Metrics::default())
}

fn serve_inner(
    listener: TcpListener,
    base: DynamicBase,
    cfg: ServeConfig,
    durable: Option<DurableState>,
    writer: Writer,
    applied_lsn: Lsn,
    metrics: Metrics,
) -> std::io::Result<ServerHandle> {
    let local = listener.local_addr()?;
    let workers = if cfg.workers == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        cfg.workers
    };
    let snap0 = Arc::new(base.snapshot());
    let next_id = snap0.next_id();
    let slow_log = SlowLog::open(
        cfg.slow_query_log.as_deref(),
        "slow",
        cfg.slow_query_us,
        metrics.slow_queries.clone(),
        metrics.slow_log_errors.clone(),
    )?;
    let shared = Arc::new(Shared {
        published: RwLock::new(Published { snap: snap0, wal_lsn: applied_lsn }),
        last_publish: Mutex::new(Instant::now()),
        read_queue: BoundedQueue::new(cfg.queue_cap, metrics.read_queue_depth.clone()),
        write_queue: BoundedQueue::new(WRITE_QUEUE_CAP, metrics.write_queue_depth.clone()),
        metrics,
        shutdown: AtomicBool::new(false),
        addr: local,
        cfg: cfg.clone(),
        durable,
        replica: matches!(writer, Writer::Follows(_)),
        slow_log,
        health: HealthState::new(),
    });

    // Durable journal: lifecycle events also land in a rotating JSONL
    // file next to the WAL, through the same fault-injectable Io layer.
    // Append failures are counted and dropped — the journal never
    // blocks or panics an emitter on a dead disk.
    if let Some(d) = &shared.durable {
        let io: Box<dyn IoFactory> = match &d.journal_io {
            Some(f) => Box::new(f.clone()),
            None => Box::new(FileFactory),
        };
        let errors = shared.metrics.journal_errors.clone();
        let log = JsonlLog::open(&d.data_dir.join("journal"), "journal", io, errors)?;
        // Recovery ran before this sink existed, so its events
        // (recovery.start/done, replay instrumentation) are ring-only
        // at this point — backfill them so the on-disk journal explains
        // this boot, not just what happened after it. Nothing else
        // emits concurrently yet: workers and the watchdog start below.
        let journal = shared.metrics.registry.journal();
        let mut line = String::new();
        for ev in journal.recent().into_iter().rev() {
            line.clear();
            ev.to_json(&mut line);
            log.append(&line);
        }
        journal.set_sink(Some(Arc::new(move |_ev: &obs::JournalEvent, line: &str| {
            log.append(line);
        })));
    }

    // The request ring survives an abnormal death next to the data.
    if let Some(d) = &shared.durable {
        arm_crash_dump(d.data_dir.join("flight.dump.json"), &shared.metrics.registry);
    }

    // Workers and the writer produce reply completions; the event loop
    // spawned below consumes them, so it must know when the last one
    // has been posted — it gets that signal from a reaper thread that
    // joins exactly this set.
    let mut core = Vec::new();
    for i in 0..workers {
        let shared = shared.clone();
        core.push(spawn(format!("geosir-worker-{i}"), move || worker_loop(i, &shared))?);
    }
    let shared2 = shared.clone();
    core.push(match writer {
        Writer::Clients(dedup) => {
            let ctx = WriterCtx { next_id, dedup_order: dedup.keys().copied().collect(), dedup };
            spawn("geosir-writer", move || writer_loop(base, ctx, &shared2))?
        }
        Writer::Follows(follower) => {
            spawn("geosir-follower", move || follow_loop(base, *follower, &shared2))?
        }
    });
    let mut threads = Vec::new();
    if shared.durable.is_some() {
        let shared = shared.clone();
        threads.push(spawn("geosir-checkpointer", move || checkpointer_loop(&shared))?);
    }
    // without an engine, release the threads already started
    let io_threads = spawn_serve_path(listener, core, &shared);
    threads.extend(io_threads.inspect_err(|_| shared.begin_shutdown())?);
    if cfg.health.enabled {
        let shared = shared.clone();
        threads.push(spawn("geosir-watchdog", move || watchdog_loop(&shared))?);
    }
    let http = match &cfg.metrics_addr {
        Some(maddr) => Some(obs::expo::MetricsServer::bind(maddr, http_routes(&shared))?),
        None => None,
    };
    Ok(ServerHandle { addr: local, shared, threads, http })
}

/// Start a thread named for its role (`geosir-*`), as every long-lived
/// thread of a node or a router is.
pub(crate) fn spawn(
    name: impl Into<String>,
    f: impl FnOnce() + Send + 'static,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new().name(name.into()).spawn(f)
}

fn bad_shape() -> Frame {
    Frame::Error { code: error_code::BAD_SHAPE, message: "payload is not a valid polyline".into() }
}
