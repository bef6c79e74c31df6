//! Sharded cluster: consistent-hash placement and the fault-tolerant
//! scatter-gather router.
//!
//! A cluster is N independent `geosir-serve` shard primaries (each a
//! durable single-node server owning a disjoint slice of the base, its
//! slice chosen by a consistent-hash ring over the insert payload) plus
//! M WAL-shipped read replicas per shard (see [`crate::repl`]), fronted
//! by a [`Router`] speaking the same wire protocol.
//!
//! ## Routing
//!
//! The router is a role of the connection engine (`engine.rs`, the
//! same readiness loop a node serves from): **one thread** owns
//! every client socket and **one persistent pipelined connection per
//! backend, shared by all clients**. A routed request is an entry in an
//! in-flight table — client connection token, correlation id,
//! per-shard state — and everything below is a state
//! transition on it, driven by socket readiness and by timers (the
//! `epoll_wait` timeout is the nearest pending hedge, deadline or
//! backoff instant). Nothing blocks and nothing spawns: a client that
//! pipelines 16 requests has 16 scatters in progress, replies complete
//! out of order, and a router whose table is full answers `Busy` like a
//! node whose queue is.
//!
//! - **Inserts** hash their payload onto the ring and go to the owning
//!   shard's *primary* (replicas are read-only by convention: the
//!   replication applier is their only writer). The router retries
//!   through `Busy` load-shed with decorrelated-jitter backoff
//!   ([`crate::client::Backoff`]) and once more after a lost
//!   connection (it mints an idempotency key when the client sent
//!   none), but never fails a write over to a replica — a forked
//!   replica is worse than a refused insert.
//! - **Ids** returned to clients are shard-tagged: the top
//!   [`SHARD_ID_BITS`] bits carry the shard index, the rest the shard's
//!   local id ([`tag_id`]/[`untag_id`]). **Deletes** decode the tag and
//!   go straight to the owning primary; match results are retagged the
//!   same way so every id a client ever sees is routable back.
//! - **Queries** (exact, approx, batch) scatter to every shard — each
//!   sub-request to the first candidate whose breaker admits it,
//!   primary first — and merge when the last shard settles. A shard
//!   whose first backend stays silent past the hedge window gets a
//!   **hedged retry** against the next untried candidate (and, if every
//!   other candidate is dead, one last re-submit to the first); a shard
//!   whose every backend fails is *dropped from the result* rather than
//!   failing the query — the [`ShardInfo`] (`shards_ok/shards_total`)
//!   on the reply tells the client the answer is partial.
//!
//! Three rules keep a deep window honest. **Clocks start at the
//! write**: a backend holds at most a bounded window of written
//! sub-requests, the rest wait router-side, and the hedge window, the
//! deadline and the latency histogram all count from the moment a
//! sub-request left — queueing never reads as a slow shard. **A late
//! reply is dropped, a dead connection is one event**: an abandoned
//! correlation id just stops being waited for (framing is intact; only
//! an I/O error, EOF or a malformed frame kills a backend connection),
//! and when a connection does die every sub-request on it moves on
//! together under a single breaker strike. **Ordering is by
//! acknowledgement**, as on a single node: a request may overtake an
//! earlier un-acked one, but once `Inserted`/`Deleted` came back the
//! write is visible to every later read on that shard's primary.
//!
//! ## Failure handling
//!
//! Every backend (primary or replica) has a circuit breaker:
//! `Closed` → (N strikes) → `Open` → (cooldown) → `HalfOpen` → one
//! probe decides. Broken backends are skipped when a sub-request
//! chooses its candidate, so a dead replica costs one hedge window
//! once per cooldown, not per query. `Busy { retry_after_ms }` replies are honored as a
//! floor under the jittered backoff. All of it is observable:
//! per-shard `geosir_router_*` counters plus the replication-lag gauges
//! the repl threads publish into the same registry.
//!
//! ## Observability plane
//!
//! The router is the cluster's single pane of glass (see DESIGN §13):
//!
//! - **Federated metrics.** A `MetricsDump` frame (or `GET /metrics` on
//!   the router's own `metrics_addr` endpoint) pulls every backend's
//!   registry snapshot over the wire and merges them: each shard
//!   contributes once relabeled `shard="N"` (per-shard series) and once
//!   unlabeled into the cluster totals, where counters and histogram
//!   buckets sum and gauges follow their declared merge policy
//!   ([`obs::GaugePolicy`]). Router-native series (`geosir_router_*`,
//!   replication lag) ride along from the router's own registry.
//! - **Cross-shard traces.** Routed reads carry a cluster-wide trace id
//!   (client-minted, or minted here when the client sent zero) into
//!   every shard sub-request; the router records a per-shard
//!   timeline — submit failovers, hedges, router-clock gather time, and
//!   the shard's own stage timings echoed in the reply trailer —
//!   into the router's request ring (`/debug/last_queries`, dumped on
//!   panic), plus a
//!   rotating slow-query JSONL when the routed total crosses the
//!   threshold.
//! - **`geosir top`** renders the federated endpoint as a live terminal
//!   dashboard (`src/top_cmd.rs` in the CLI crate).

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use geosir_obs as obs;

use crate::durable::{BaseTemplate, DurabilityConfig, RecoveryReport};
use crate::server::{serve, serve_durable, ServeConfig, ServerHandle};
use crate::wire::{error_code, Frame, StageTrailer, WireMatch, WireShape, WireShardStatus};

/// Bits of a routed id that carry the shard index.
const SHARD_ID_BITS: u32 = 16;
/// Bits left for the shard-local id.
const LOCAL_ID_BITS: u32 = 64 - SHARD_ID_BITS;
const LOCAL_ID_MASK: u64 = (1u64 << LOCAL_ID_BITS) - 1;

/// Virtual nodes per shard on the consistent-hash ring.
const VNODES_PER_SHARD: usize = 64;

/// Tag a shard-local id with its shard index for the outside world.
#[inline]
pub fn tag_id(shard: u16, local: u64) -> u64 {
    ((shard as u64) << LOCAL_ID_BITS) | (local & LOCAL_ID_MASK)
}

/// Split a routed id back into `(shard, local)`.
#[inline]
pub fn untag_id(id: u64) -> (u16, u64) {
    ((id >> LOCAL_ID_BITS) as u16, id & LOCAL_ID_MASK)
}

/// splitmix64 finalizer: FNV alone avalanches poorly on short inputs
/// (the vnode labels are 10 bytes), which skews the ring badly.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over a byte stream fed in pieces (the hash of the
/// concatenation, whatever the piece boundaries).
struct Fnv1a64(u64);

impl Fnv1a64 {
    fn new() -> Fnv1a64 {
        Fnv1a64(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn fnv1a64(chunks: &[&[u8]]) -> u64 {
    let mut h = Fnv1a64::new();
    for chunk in chunks {
        h.write(chunk);
    }
    h.0
}

/// Ring key of an insert: a hash of its payload, so a client retry
/// (same key, same shape) lands on the same shard. The byte stream —
/// image, closed flag, coordinate bits, then the idempotency key if the
/// client sent one — decides where existing data directories keep
/// their shapes: it must never change (pinned by a unit test).
fn placement_key(image: u32, key: u64, shape: &WireShape) -> u64 {
    let mut h = Fnv1a64::new();
    h.write(&image.to_le_bytes());
    h.write(&[shape.closed as u8]);
    for (x, y) in &shape.points {
        h.write(&x.to_bits().to_le_bytes());
        h.write(&y.to_bits().to_le_bytes());
    }
    if key != 0 {
        h.write(&key.to_le_bytes());
    }
    h.0
}

/// One shard's backends: the write primary and its read replicas.
#[derive(Debug, Clone)]
pub struct ShardSpec {
    pub primary: SocketAddr,
    pub replicas: Vec<SocketAddr>,
}

/// Router knobs. Defaults suit a LAN cluster of small shards.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Total per-shard budget for one query (submit → accepted reply).
    pub shard_deadline: Duration,
    /// How long to wait on the first-choice backend before the hedged
    /// retry goes to the next candidate.
    pub hedge_after: Duration,
    /// Consecutive failures that trip a backend's breaker open.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before allowing a half-open probe.
    pub breaker_cooldown: Duration,
    /// Bind address for the router's HTTP observability plane
    /// (`/metrics` federated over all shards, `/debug/cluster`,
    /// `/debug/last_queries`). `None` disables it.
    pub metrics_addr: Option<String>,
    /// Directory for the router's rotating slow-query JSONL; `None`
    /// disables slow-query logging.
    pub slow_query_log: Option<PathBuf>,
    /// Routed total (scatter → merged reply) above which a query is
    /// written to the slow log. Higher than the single-node default:
    /// a routed query crosses the network and gathers every shard.
    pub slow_query_us: u64,
    /// Where the router's request ring is dumped when the process
    /// panics or an armed crash point fires. `None` disables the hook.
    pub flight_dump_path: Option<PathBuf>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            shard_deadline: Duration::from_millis(500),
            hedge_after: Duration::from_millis(60),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
            metrics_addr: None,
            slow_query_log: None,
            slow_query_us: 100_000,
            flight_dump_path: None,
        }
    }
}

/// Consistent-hash ring: [`VNODES_PER_SHARD`] points per shard, lookup
/// by binary search for the first point at or clockwise of the key.
pub struct Ring {
    points: Vec<(u64, u16)>,
}

impl Ring {
    pub fn new(shards: u16) -> Ring {
        let mut points = Vec::with_capacity(shards as usize * VNODES_PER_SHARD);
        for s in 0..shards {
            for v in 0..VNODES_PER_SHARD as u64 {
                let h = mix64(fnv1a64(&[&s.to_le_bytes(), &v.to_le_bytes()]));
                points.push((h, s));
            }
        }
        points.sort_unstable();
        Ring { points }
    }

    /// Shard owning `key`.
    pub fn route(&self, key: u64) -> u16 {
        let key = mix64(key);
        let i = self.points.partition_point(|&(h, _)| h < key);
        self.points[i % self.points.len()].1
    }
}

#[derive(Debug, Clone, Copy)]
enum BreakerState {
    Closed { strikes: u32 },
    Open { until: Instant },
    HalfOpen,
}

/// Per-backend circuit breaker; see the module docs for the state
/// machine. `allow` is called when a sub-request is about to be routed
/// to the backend, `record` with the outcome: an accepted reply, or one
/// strike per failure *event* (a dead connection, a connect that never
/// finished, a tick's worth of silent timeouts) however many
/// sub-requests the event took down.
struct Breaker {
    state: Mutex<BreakerState>,
    /// Journal context (registry + backend address) when owned by a
    /// router: state transitions become `breaker.*` lifecycle events.
    journal: Option<(Arc<obs::Registry>, SocketAddr)>,
}

impl Breaker {
    /// A journal-less breaker (unit tests exercise the state machine
    /// without a router).
    #[cfg(test)]
    fn new() -> Breaker {
        Breaker { state: Mutex::new(BreakerState::Closed { strikes: 0 }), journal: None }
    }

    fn with_journal(registry: Arc<obs::Registry>, backend: SocketAddr) -> Breaker {
        Breaker {
            state: Mutex::new(BreakerState::Closed { strikes: 0 }),
            journal: Some((registry, backend)),
        }
    }

    fn journal_transition(&self, from: &BreakerState, to: &BreakerState) {
        let Some((reg, backend)) = &self.journal else { return };
        let (sev, code) = match (from, to) {
            (BreakerState::Open { .. }, BreakerState::Open { .. }) => return,
            (BreakerState::Closed { .. }, BreakerState::Closed { .. }) => return,
            (_, BreakerState::Open { .. }) => (obs::Severity::Warn, "breaker.open"),
            (_, BreakerState::HalfOpen) => (obs::Severity::Info, "breaker.half_open"),
            (_, BreakerState::Closed { .. }) => (obs::Severity::Info, "breaker.close"),
        };
        reg.journal().emit(obs::JournalEvent::new(sev, code).with("backend", backend));
    }

    fn allow(&self) -> bool {
        let mut s = self.state.lock().unwrap();
        match *s {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { until } => {
                if Instant::now() >= until {
                    // one caller becomes the half-open probe
                    self.journal_transition(&BreakerState::Open { until }, &BreakerState::HalfOpen);
                    *s = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
            // a probe is already in flight; stay out of its way
            BreakerState::HalfOpen => false,
        }
    }

    /// [`Self::allow`] without its side effect: would a request be
    /// admitted right now? (Deciding whether a hedge has anywhere to go
    /// must not use up the half-open probe.)
    fn would_allow(&self) -> bool {
        match *self.state.lock().unwrap() {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { until } => Instant::now() >= until,
            BreakerState::HalfOpen => false,
        }
    }

    fn record(&self, ok: bool, cfg: &RouterConfig) {
        let mut s = self.state.lock().unwrap();
        let next = if ok {
            BreakerState::Closed { strikes: 0 }
        } else {
            match *s {
                BreakerState::Closed { strikes } if strikes + 1 < cfg.breaker_threshold => {
                    BreakerState::Closed { strikes: strikes + 1 }
                }
                BreakerState::Open { until } => BreakerState::Open { until },
                // threshold reached, or a half-open probe failed
                _ => BreakerState::Open { until: Instant::now() + cfg.breaker_cooldown },
            }
        };
        self.journal_transition(&s, &next);
        *s = next;
    }

    /// Wire health code: 0 closed (healthy), 1 open (down), 2 half-open.
    fn code(&self) -> u8 {
        match *self.state.lock().unwrap() {
            BreakerState::Closed { .. } => 0,
            BreakerState::Open { .. } => 1,
            BreakerState::HalfOpen => 2,
        }
    }
}

/// Per-shard router telemetry, prebuilt so the hot path never touches
/// the registry's interning lock.
struct ShardMetrics {
    queries: Arc<obs::Counter>,
    hedges: Arc<obs::Counter>,
    failovers: Arc<obs::Counter>,
    busy_retries: Arc<obs::Counter>,
    dropped: Arc<obs::Counter>,
    latency_us: Arc<obs::Histogram>,
}

/// Golden-ratio stride for the router's id mint: every `fetch_add`
/// yields a distinct odd-after-`|1` value, and the process-unique seed
/// decorrelates ids across router restarts.
const KEY_MINT_STEP: u64 = 0x9e37_79b9_7f4a_7c15;

/// The router's slow-query log: same rotating JSONL machinery as a
/// shard server's, but each record carries per-shard attribution
/// (which backend answered, hedges, failovers, server-side timings).
struct RouterSlowLog {
    threshold_us: u64,
    writer: Mutex<geosir_storage::slowlog::RotatingJsonl>,
}

/// What one gathered scatter produced, per shard in shard order: the
/// backend whose reply was accepted and that reply, or nothing when the
/// shard was dropped.
type Outcomes = Vec<(Option<SocketAddr>, Option<Frame>)>;

/// A scatter requested from outside the loop (the HTTP plane's scrape
/// and readiness probe): the loop runs it like a routed read and sends
/// the per-shard outcomes back instead of a wire reply.
struct Job {
    frame: Frame,
    reply: mpsc::Sender<Outcomes>,
}

/// Everything the router thread shares with its handle and its HTTP
/// plane. The in-flight table, the backend connections and the timers
/// belong to the loop alone (`route::RouterLoop`).
struct RouterState {
    addr: SocketAddr,
    shards: Vec<ShardSpec>,
    /// Backends as one flat list, shard by shard, primary first:
    /// shard `s` owns `base[s]..base[s + 1]`.
    backend_addrs: Vec<SocketAddr>,
    base: Vec<usize>,
    /// One breaker per backend, same indexing as `backend_addrs`.
    breakers: Vec<Breaker>,
    ring: Ring,
    cfg: RouterConfig,
    registry: Arc<obs::Registry>,
    per_shard: Vec<ShardMetrics>,
    partial_replies: Arc<obs::Counter>,
    inserts: Arc<obs::Counter>,
    deletes: Arc<obs::Counter>,
    /// Routed requests currently in the loop's in-flight table.
    in_flight: Arc<obs::Gauge>,
    /// Client connections dropped over a bad frame (same series a node
    /// counts its own under).
    protocol_errors: Arc<obs::Counter>,
    /// Federated-scrape telemetry: completed scrapes, shards that
    /// answered no `MetricsDump`, and end-to-end scrape latency.
    scrapes: Arc<obs::Counter>,
    scrape_misses: Arc<obs::Counter>,
    scrape_us: Arc<obs::Histogram>,
    slow_queries: Arc<obs::Counter>,
    slow_log_errors: Arc<obs::Counter>,
    slow_log: Option<RouterSlowLog>,
    key_mint: AtomicU64,
    stop: AtomicBool,
    /// Scatters posted by other threads; `None` once the loop is gone
    /// (a late poster must not wait for an answer nobody will send).
    jobs: Mutex<Option<Vec<Job>>>,
    #[cfg(target_os = "linux")]
    io: crate::engine::Shared,
}

impl RouterState {
    fn backends_of(&self, shard: usize) -> std::ops::Range<usize> {
        self.base[shard]..self.base[shard + 1]
    }

    fn mint(&self) -> u64 {
        self.key_mint.fetch_add(KEY_MINT_STEP, Ordering::Relaxed) | 1
    }

    fn wake(&self) {
        #[cfg(target_os = "linux")]
        self.io.wake();
    }

    /// Run `frame` as a scatter inside the loop and wait for every
    /// shard's outcome. All-dropped when the router is stopping.
    fn gather(&self, frame: Frame) -> Outcomes {
        let (tx, rx) = mpsc::channel();
        match self.jobs.lock().unwrap().as_mut() {
            Some(q) => q.push(Job { frame, reply: tx }),
            None => drop(tx),
        }
        self.wake();
        rx.recv().unwrap_or_else(|_| self.shards.iter().map(|_| (None, None)).collect())
    }
}

/// A running router; dropping it does not stop the threads — call
/// [`RouterHandle::shutdown`].
pub struct RouterHandle {
    addr: SocketAddr,
    state: Arc<RouterState>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// The HTTP plane; stops when the handle is joined or dropped.
    http: Option<obs::expo::MetricsServer>,
}

impl RouterHandle {
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The router's own metrics registry (per-shard counters plus
    /// whatever the replication threads publish into it).
    pub fn registry(&self) -> Arc<obs::Registry> {
        self.state.registry.clone()
    }

    /// Bound address of the HTTP observability plane, when
    /// [`RouterConfig::metrics_addr`] was set (resolves port 0).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.http.as_ref().map(|h| h.addr())
    }

    pub fn shutdown(self) {
        self.state.stop.store(true, Ordering::SeqCst);
        self.state.wake();
        self.join();
    }

    /// Block until the router stops on its own — a client sends a wire
    /// `Shutdown` frame. Counterpart of [`RouterHandle::shutdown`] for
    /// foreground use (`geosir cluster` parks here).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// The scatter-gather router. [`Router::start`] binds `addr` and serves
/// the full wire protocol over the given shard layout.
pub struct Router;

impl Router {
    /// The router is a role of the epoll connection engine; there is no
    /// second serve path for other platforms.
    #[cfg(not(target_os = "linux"))]
    pub fn start(
        _addr: &str,
        _shards: Vec<ShardSpec>,
        _cfg: RouterConfig,
        _registry: Arc<obs::Registry>,
    ) -> io::Result<RouterHandle> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the router runs on the epoll connection engine (Linux only)",
        ))
    }

    #[cfg(target_os = "linux")]
    pub fn start(
        addr: &str,
        shards: Vec<ShardSpec>,
        cfg: RouterConfig,
        registry: Arc<obs::Registry>,
    ) -> io::Result<RouterHandle> {
        assert!(!shards.is_empty(), "a router needs at least one shard");
        assert!(shards.len() < (1usize << SHARD_ID_BITS), "shard index must fit the id tag");
        assert!(
            shards.iter().all(|s| s.replicas.len() < 32),
            "a shard's backends must fit the tried-candidates mask"
        );
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let slow_log = match &cfg.slow_query_log {
            Some(dir) => Some(RouterSlowLog {
                threshold_us: cfg.slow_query_us,
                writer: Mutex::new(geosir_storage::slowlog::RotatingJsonl::open(
                    dir,
                    "router-slow",
                    crate::server::LOG_SEGMENT_BYTES,
                    crate::server::LOG_SEGMENTS_KEPT,
                    Box::new(geosir_storage::faults::FileFactory),
                )?),
            }),
            None => None,
        };
        let mut backend_addrs = Vec::new();
        let mut base = vec![0];
        for spec in &shards {
            backend_addrs.push(spec.primary);
            backend_addrs.extend_from_slice(&spec.replicas);
            base.push(backend_addrs.len());
        }
        let breakers =
            backend_addrs.iter().map(|&a| Breaker::with_journal(registry.clone(), a)).collect();
        let per_shard = (0..shards.len())
            .map(|s| {
                let l = s.to_string();
                let lbl: &[(&str, &str)] = &[("shard", &l)];
                ShardMetrics {
                    queries: registry.counter("geosir_router_shard_queries_total", lbl),
                    hedges: registry.counter("geosir_router_hedges_total", lbl),
                    failovers: registry.counter("geosir_router_failovers_total", lbl),
                    busy_retries: registry.counter("geosir_router_busy_retries_total", lbl),
                    dropped: registry.counter("geosir_router_shard_dropped_total", lbl),
                    latency_us: registry.histogram("geosir_router_shard_latency_us", lbl),
                }
            })
            .collect();
        let state = Arc::new(RouterState {
            addr: local,
            ring: Ring::new(shards.len() as u16),
            backend_addrs,
            base,
            breakers,
            per_shard,
            partial_replies: registry.counter("geosir_router_partial_replies_total", &[]),
            inserts: registry.counter("geosir_router_inserts_total", &[]),
            deletes: registry.counter("geosir_router_deletes_total", &[]),
            in_flight: registry.gauge("geosir_router_in_flight", &[]),
            protocol_errors: registry.counter("geosir_protocol_errors_total", &[]),
            scrapes: registry.counter("geosir_router_scrapes_total", &[]),
            scrape_misses: registry.counter("geosir_router_scrape_misses_total", &[]),
            scrape_us: registry.histogram("geosir_router_scrape_us", &[]),
            slow_queries: registry.counter("geosir_router_slow_queries_total", &[]),
            slow_log_errors: registry.counter("geosir_router_slow_log_errors_total", &[]),
            slow_log,
            key_mint: AtomicU64::new(
                fnv1a64(&[addr.as_bytes(), &std::process::id().to_le_bytes()]) | 1,
            ),
            stop: AtomicBool::new(false),
            jobs: Mutex::new(Some(Vec::new())),
            io: crate::engine::Shared::new()?,
            shards,
            cfg,
            registry,
        });
        // Same two death paths as a shard server (armed crash points
        // abort, panics unwind into the chained hook): both converge on
        // dumping the router's request ring next to its data.
        if let Some(path) = &state.cfg.flight_dump_path {
            if let Some(parent) = path.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            let dump_path = path.clone();
            let reg = Arc::downgrade(&state.registry);
            geosir_storage::faults::on_crash(move || {
                if let Some(reg) = reg.upgrade() {
                    let _ = std::fs::write(&dump_path, reg.requests_json());
                }
            });
            crate::server::install_panic_flight_dump();
        }
        let http = match &state.cfg.metrics_addr {
            Some(a) => Some(obs::expo::MetricsServer::bind(a, http_routes(&state))?),
            None => None,
        };
        let loop_state = state.clone();
        let threads = vec![std::thread::Builder::new()
            .name("geosir-router".into())
            .spawn(move || route::run(listener, loop_state))?];
        Ok(RouterHandle { addr: local, state, threads, http })
    }
}

/// One shard's timeline inside a routed query, on the router's clock.
#[derive(Debug, Clone, Copy)]
struct ShardSpan {
    /// Backend that produced the accepted reply; `None` if the shard
    /// was dropped from the result.
    addr: Option<SocketAddr>,
    /// Request admitted → this shard's reply accepted (or given up on),
    /// µs: when the shard stopped holding the merge up.
    gather_us: u64,
    hedged: bool,
    /// Submit-time plus hedge-time failovers for this shard.
    failovers: u32,
    /// The shard's own stage timings, echoed in the reply trailer.
    server: Option<StageTrailer>,
}

/// Server-side timings of a reply frame, if the backend echoed them.
fn reply_trailer(f: &Frame) -> Option<StageTrailer> {
    match f {
        Frame::Matches { trailer, .. } | Frame::ApproxMatches { trailer, .. } => *trailer,
        _ => None,
    }
}

/// The single-node result order: ascending score, ties broken by image
/// id then shape id.
fn match_order(a: &WireMatch, b: &WireMatch) -> std::cmp::Ordering {
    a.score
        .partial_cmp(&b.score)
        .unwrap_or(std::cmp::Ordering::Equal)
        .then(a.image.cmp(&b.image))
        .then(a.shape.cmp(&b.shape))
}

/// K-way merge of per-shard top-k lists into `out` (cleared first),
/// retagging ids with their shard. Shard lists arrive in
/// [`match_order`] already — the single-node retrieval contract — so the
/// merge only ever compares list heads; `cursors` is its scratch. A
/// list that breaks the contract demotes the call to sorting the
/// union: wrong input order must never become wrong output order.
fn merge_sorted<'a, I>(k: usize, lists: I, cursors: &mut Vec<usize>, out: &mut Vec<WireMatch>)
where
    I: Iterator<Item = (u16, &'a [WireMatch])> + Clone,
{
    let tagged = |shard: u16, m: &WireMatch| WireMatch {
        shape: tag_id(shard, m.shape),
        image: m.image,
        score: m.score,
    };
    out.clear();
    // within one list the shard tag is constant, so local order is
    // routed order
    let sorted = lists
        .clone()
        .all(|(_, l)| l.windows(2).all(|w| match_order(&w[0], &w[1]).is_le()));
    if !sorted {
        for (shard, l) in lists {
            out.extend(l.iter().map(|m| tagged(shard, m)));
        }
        out.sort_by(match_order);
        out.truncate(k);
        return;
    }
    cursors.clear();
    cursors.resize(lists.clone().count(), 0);
    while out.len() < k {
        let mut best: Option<(usize, WireMatch)> = None;
        for (i, (shard, l)) in lists.clone().enumerate() {
            if let Some(m) = l.get(cursors[i]) {
                let m = tagged(shard, m);
                if best.as_ref().is_none_or(|(_, b)| match_order(&m, b).is_lt()) {
                    best = Some((i, m));
                }
            }
        }
        let Some((i, m)) = best else { break };
        cursors[i] += 1;
        out.push(m);
    }
}

/// Merge per-shard top-k result lists into the cluster-wide top-k,
/// retagging ids with their shard. Ordering matches the single-node
/// retrieval contract: ascending score, ties broken by image id then
/// routed shape id — so on distinct scores a router merge is
/// bit-identical to a single node holding the union base.
pub fn merge_topk(k: usize, per_shard: &[(u16, Vec<WireMatch>)]) -> Vec<WireMatch> {
    let mut out = Vec::new();
    merge_sorted(k, per_shard.iter().map(|(s, l)| (*s, l.as_slice())), &mut Vec::new(), &mut out);
    out
}

fn unavailable(msg: &str) -> Frame {
    Frame::Error { code: error_code::UNAVAILABLE, message: msg.into() }
}

/// The router as a role of the connection engine (see the *Routing*
/// section of the module doc): the in-flight table, the shared backend
/// connections, the timers, and every state transition between them.
#[cfg(target_os = "linux")]
mod route {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap, VecDeque};
    use std::net::TcpListener;
    use std::sync::atomic::Ordering;
    use std::sync::{mpsc, Arc};
    use std::time::{Duration, Instant};

    use super::{
        federate, merge_sorted, obs, placement_key, record_routed, reply_trailer, tag_id, topology,
        unavailable, untag_id, Outcomes, RouterState, ShardSpan,
    };
    use crate::client::Backoff;
    use crate::engine::{self, Admit, Ctx, Slab};
    use crate::wire::{error_code, Frame, ServerStats, ShardInfo, WireMatch};

    /// Most sub-requests written to one backend and not yet answered;
    /// the rest wait router-side, clocks not yet started. Twice the
    /// node's `coalesce_max`, so a shard worker finishing one coalesced
    /// batch always finds the next one already queued, while a full
    /// window of ≈ 0.6 ms queries still drains well inside
    /// `hedge_after` — queueing inside a shard must never read as a
    /// slow shard. Measured on `cluster_mixed` (DESIGN §12.3): nothing
    /// between 16 and 128 is distinguishable from it.
    const BACKEND_WINDOW: usize = 32;
    /// Most routed requests in the table; beyond it clients get `Busy`.
    const MAX_ROUTED: usize = 1024;
    /// Decorrelated-jitter base and cap of the wait before a sub-request
    /// a backend answered `Busy` is sent again; the cap doubles as the
    /// hint on the router's own `Busy`.
    const BUSY_BASE: Duration = Duration::from_millis(2);
    const BUSY_CAP: Duration = Duration::from_millis(50);
    /// How long a backend connection may take to come up.
    const CONNECT_TIMEOUT: Duration = Duration::from_millis(200);

    /// Where a finished request's answer goes.
    enum ReplyTo {
        /// A client connection of the engine.
        Client { token: u64, corr: u64 },
        /// Another thread waiting on the raw per-shard outcomes.
        Chan(mpsc::Sender<Outcomes>),
    }

    enum SubState {
        /// In a backend's queue: connection not up yet, or window full.
        Queued,
        /// Written; the reply will carry `corr`.
        Sent { corr: u64 },
        /// Backend said `Busy`; a retry timer is pending.
        Backoff,
        Done,
    }

    /// One shard's part of a routed request.
    struct Sub {
        shard: u16,
        state: SubState,
        /// Bumps whenever the sub leaves an attempt; queue entries and
        /// attempt timers carry the value they were made under.
        epoch: u32,
        /// Backends of this shard already attempted (bit = index within
        /// the shard).
        tried: u32,
        /// The current attempt's backend.
        backend: usize,
        /// First backend a request was actually written to: the target
        /// of the last-resort re-submit.
        first: Option<usize>,
        /// The first written attempt was lost or slow; every attempt
        /// since is a hedge.
        hedging: bool,
        resubmitted: bool,
        /// Attempts that failed (writes: the retry budget).
        failed: u8,
        /// When the first sub-request left for a backend. Latency, the
        /// hedge window and the deadline all count from here, never
        /// from admission: time spent queued router-side is the
        /// router's, not the shard's.
        written_at: Option<Instant>,
        hedge_until: Option<Instant>,
        deadline: Instant,
        backoff: Option<Backoff>,
        span: ShardSpan,
        reply: Option<Frame>,
    }

    /// One routed request: an entry of the in-flight table.
    struct Routed {
        reply: ReplyTo,
        /// What every sub-request carries (reads: the request itself
        /// with its trace id; writes: key minted / id untagged).
        frame: Frame,
        /// Primary only, retried, never failed over.
        write: bool,
        trace_id: u64,
        started: Instant,
        subs: Vec<Sub>,
        /// Subs not yet `Done`.
        open: usize,
    }

    /// The router's single connection to one backend, shared by every
    /// client.
    struct Backend {
        /// Engine token of the connection, while one exists.
        peer: Option<u64>,
        up: bool,
        /// Distinguishes this connect attempt's timeout timer.
        conn_epoch: u32,
        next_corr: u64,
        /// Written and unanswered: correlation id → (request, sub). An
        /// abandoned attempt is removed, so its late reply finds
        /// nothing here and is dropped.
        sent: HashMap<u64, (u64, u16)>,
        /// Waiting for the connection or for window room.
        queue: VecDeque<(u64, u16, u32)>,
        /// A timeout already struck the breaker this tick: a stall that
        /// expires a whole window at once is one event.
        struck: bool,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum TimerKind {
        /// `id` = backend: connect did not finish in [`CONNECT_TIMEOUT`].
        Connect,
        /// `id` = request: the first attempt outlived `hedge_after`.
        Hedge,
        /// `id` = request: the sub outlived `shard_deadline`.
        Deadline,
        /// `id` = request: a `Busy` backoff elapsed.
        Retry,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    struct Timer {
        at: Instant,
        kind: TimerKind,
        id: u64,
        sub: u16,
        epoch: u32,
    }

    pub(super) struct RouterLoop {
        st: Arc<RouterState>,
        backends: Vec<Backend>,
        /// The in-flight table. Request tokens are generation-checked,
        /// so timers and queue entries of a finished request resolve
        /// to nothing.
        table: Slab<Routed>,
        /// Min-heap of pending clocks; stale entries are skipped lazily.
        timers: BinaryHeap<Reverse<Timer>>,
        /// Backends with queued work to look at.
        dirty: Vec<usize>,
        /// Requests whose last sub just finished.
        finished: Vec<u64>,
        /// Recycled merge output and k-way cursors.
        merge_buf: Vec<WireMatch>,
        cursors: Vec<usize>,
    }

    /// Whether a backend-queue entry still stands for a waiting sub: the
    /// request may have finished, or the sub moved on, while it waited.
    fn still_queued(table: &mut Slab<Routed>, &(req, si, epoch): &(u64, u16, u32)) -> bool {
        table.get_mut(req).is_some_and(|e| {
            let s = &e.subs[si as usize];
            s.epoch == epoch && matches!(s.state, SubState::Queued)
        })
    }

    /// Serve until stopped, then release everyone who might be waiting
    /// on this thread.
    pub(super) fn run(listener: TcpListener, st: Arc<RouterState>) {
        let mut handler = RouterLoop::new(st.clone());
        engine::run(listener, &st.io, &mut handler);
        // senders still queued or held by table entries drop here, so a
        // thread blocked in `gather` wakes with an all-dropped outcome
        *st.jobs.lock().unwrap() = None;
    }

    impl RouterLoop {
        fn new(st: Arc<RouterState>) -> RouterLoop {
            let backends = st
                .backend_addrs
                .iter()
                .map(|_| Backend {
                    peer: None,
                    up: false,
                    conn_epoch: 0,
                    next_corr: 1, // 0 means "no correlation id" on the wire
                    sent: HashMap::new(),
                    queue: VecDeque::new(),
                    struck: false,
                })
                .collect();
            RouterLoop {
                st,
                backends,
                table: Slab::new(0),
                timers: BinaryHeap::new(),
                dirty: Vec::new(),
                finished: Vec::new(),
                merge_buf: Vec::new(),
                cursors: Vec::new(),
            }
        }

        fn sub(&mut self, req: u64, si: u16) -> Option<&mut Sub> {
            self.table.get_mut(req).map(|e| &mut e.subs[si as usize])
        }

        /// Admit a request into the table and set every sub on its way:
        /// one sub per shard, or the one shard a write belongs to.
        fn start(
            &mut self,
            cx: &mut Ctx<'_>,
            reply: ReplyTo,
            frame: Frame,
            trace_id: u64,
            write_to: Option<u16>,
        ) {
            let now = Instant::now();
            let shards = match write_to {
                Some(s) => s..s + 1,
                None => 0..self.st.shards.len() as u16,
            };
            let new_sub = |shard| Sub {
                shard,
                state: SubState::Queued,
                epoch: 0,
                tried: 0,
                backend: 0,
                first: None,
                hedging: false,
                resubmitted: false,
                failed: 0,
                written_at: None,
                hedge_until: None,
                deadline: now,
                backoff: None,
                span: ShardSpan { addr: None, gather_us: 0, hedged: false, failovers: 0, server: None },
                reply: None,
            };
            let subs: Vec<Sub> = shards.map(new_sub).collect();
            let n = subs.len();
            let write = write_to.is_some();
            let req = self.table.insert(Routed {
                reply,
                frame,
                write,
                trace_id,
                started: now,
                subs,
                open: n,
            });
            self.st.in_flight.set(self.table.len() as i64);
            for si in 0..n as u16 {
                self.first_attempt(req, si);
            }
            self.settle(cx);
        }

        /// Put the sub in `backend`'s queue under its current epoch.
        fn enqueue(&mut self, req: u64, si: u16, backend: usize) {
            let entry = self.table.get_mut(req).expect("caller holds a live sub");
            let sub = &mut entry.subs[si as usize];
            sub.tried |= 1 << (backend - self.st.base[sub.shard as usize]);
            sub.backend = backend;
            sub.state = SubState::Queued;
            self.backends[backend].queue.push_back((req, si, sub.epoch));
            self.dirty.push(backend);
        }

        /// First untried backend of `shard` whose breaker admits a
        /// request, primary first.
        fn pick(&self, shard: u16, tried: u32) -> Option<usize> {
            let range = self.st.backends_of(shard as usize);
            let base = range.start;
            range.into_iter().find(|&b| tried & (1 << (b - base)) == 0 && self.st.breakers[b].allow())
        }

        fn first_attempt(&mut self, req: u64, si: u16) {
            let entry = self.table.get_mut(req).expect("just admitted");
            let shard = entry.subs[si as usize].shard;
            let primary = self.st.base[shard as usize];
            let backend = if entry.write {
                primary // a forked replica is worse than a refused write
            } else {
                self.st.per_shard[shard as usize].queries.inc();
                // every breaker refusing is no reason to drop the shard
                // silently forever: probe the primary
                self.pick(shard, 0).unwrap_or(primary)
            };
            self.enqueue(req, si, backend);
        }

        /// The sub's current attempt is over without an accepted reply
        /// (its correlation id, if any, is already forgotten). Move on:
        /// retry a write on its primary, fail a read over or hedge it
        /// to the next candidate, re-submit to the first backend as a
        /// last resort, or give the shard up.
        fn attempt_failed(&mut self, req: u64, si: u16, written: bool) {
            let now = Instant::now();
            let Some(entry) = self.table.get_mut(req) else { return };
            let write = entry.write;
            let retry_write = matches!(entry.frame, Frame::Insert { .. });
            let sub = &mut entry.subs[si as usize];
            if matches!(sub.state, SubState::Done) {
                return;
            }
            sub.epoch = sub.epoch.wrapping_add(1);
            sub.failed += 1;
            sub.backoff = None;
            let in_time = sub.written_at.is_none() || now < sub.deadline;
            if write {
                // writes retry the primary once (the router-minted key
                // makes a re-sent Insert idempotent), never a replica
                let backend = sub.backend;
                if retry_write && sub.failed < 2 && in_time {
                    self.enqueue(req, si, backend);
                } else {
                    self.sub_done(req, si, now);
                }
                return;
            }
            let m = &self.st.per_shard[sub.shard as usize];
            if sub.hedging || !written {
                // a hedge target failed, or the request never left:
                // plain failover
                m.failovers.inc();
                sub.span.failovers += 1;
            } else {
                sub.hedging = true;
            }
            let (shard, tried, hedging) = (sub.shard, sub.tried, sub.hedging);
            let next = self.pick(shard, tried).or_else(|| {
                // Every other candidate is dead, but the first backend
                // may have been merely slow and its reply abandoned:
                // one fresh submit with whatever deadline remains.
                // Scatter only carries idempotent reads.
                let sub = self.sub(req, si)?;
                let again = sub.first.filter(|_| hedging && !sub.resubmitted && in_time);
                sub.resubmitted |= again.is_some();
                again
            });
            match next {
                Some(backend) => {
                    if hedging {
                        self.st.per_shard[shard as usize].hedges.inc();
                        self.sub(req, si).expect("checked above").span.hedged = true;
                    }
                    self.enqueue(req, si, backend);
                }
                None => self.sub_done(req, si, now),
            }
        }

        /// The sub is settled — `reply` holds the accepted answer, or
        /// nothing when the shard is dropped from the result.
        fn sub_done(&mut self, req: u64, si: u16, now: Instant) {
            let Some(entry) = self.table.get_mut(req) else { return };
            let (write, started) = (entry.write, entry.started);
            let sub = &mut entry.subs[si as usize];
            sub.state = SubState::Done;
            if !write {
                let m = &self.st.per_shard[sub.shard as usize];
                // write → accepted reply (or give-up), this shard's own
                // stopwatch: see DESIGN §12.5 on why not gather order
                if let Some(t) = sub.written_at {
                    m.latency_us.record(now.duration_since(t).as_micros() as u64);
                }
                sub.span.gather_us = now.duration_since(started).as_micros() as u64;
                if sub.reply.is_none() {
                    sub.span.addr = None;
                    m.dropped.inc();
                }
            }
            entry.open -= 1;
            if entry.open == 0 {
                self.finished.push(req);
            }
        }

        /// Forget the sub's written attempt, if it has one: the window
        /// slot frees now, and the reply — should it still come — is
        /// dropped on arrival. The silence is the backend's strike.
        fn abandon(&mut self, req: u64, si: u16) {
            let Some(sub) = self.sub(req, si) else { return };
            let SubState::Sent { corr } = sub.state else { return };
            let b = sub.backend;
            let be = &mut self.backends[b];
            be.sent.remove(&corr);
            self.dirty.push(b);
            if !be.struck {
                be.struck = true;
                self.st.breakers[b].record(false, &self.st.cfg);
            }
        }

        /// Run queued work to quiescence: write what the windows allow,
        /// answer what finished. Failures inside only ever append to the
        /// two work lists, so this is the one loop that drains them.
        fn settle(&mut self, cx: &mut Ctx<'_>) {
            loop {
                if let Some(b) = self.dirty.pop() {
                    self.pump(cx, b);
                } else if let Some(req) = self.finished.pop() {
                    self.finish(cx, req);
                } else {
                    break;
                }
            }
        }

        /// Move backend `b` forward: dial it if work waits and no
        /// connection exists, write queued sub-requests while the
        /// window has room.
        fn pump(&mut self, cx: &mut Ctx<'_>, b: usize) {
            let RouterLoop { st, backends, table, timers, .. } = self;
            let be = &mut backends[b];
            let Some(peer) = be.peer else {
                be.queue.retain(|item| still_queued(table, item));
                if be.queue.is_empty() {
                    return;
                }
                match cx.connect(st.backend_addrs[b]) {
                    Ok(peer) => {
                        be.peer = Some(peer);
                        be.conn_epoch = be.conn_epoch.wrapping_add(1);
                        timers.push(Reverse(Timer {
                            at: Instant::now() + CONNECT_TIMEOUT,
                            kind: TimerKind::Connect,
                            id: b as u64,
                            sub: 0,
                            epoch: be.conn_epoch,
                        }));
                    }
                    Err(_) => self.backend_down(cx, b),
                }
                return;
            };
            if !be.up {
                return;
            }
            while be.sent.len() < BACKEND_WINDOW {
                let Some(item) = be.queue.pop_front() else { break };
                if !still_queued(table, &item) {
                    continue; // the request moved on while this waited
                }
                let (req, si, epoch) = item;
                let entry = table.get_mut(req).expect("still_queued() found it");
                let corr = be.next_corr;
                be.next_corr = be.next_corr.wrapping_add(1).max(1);
                // read before the write: once the bytes are out the
                // backend may run, and answer, before this thread does
                let now = Instant::now();
                if cx.send(peer, &entry.frame, corr).is_err() {
                    be.queue.push_front(item);
                    self.backend_down(cx, b);
                    return;
                }
                be.sent.insert(corr, (req, si));
                let sub = &mut entry.subs[si as usize];
                sub.state = SubState::Sent { corr };
                if sub.written_at.is_some() {
                    continue; // a later attempt runs on the first one's clocks
                }
                sub.written_at = Some(now);
                sub.first = Some(b);
                sub.deadline = now + st.cfg.shard_deadline;
                let timer = |at, kind| Reverse(Timer { at, kind, id: req, sub: si, epoch });
                timers.push(timer(sub.deadline, TimerKind::Deadline));
                // hedge only when there is somewhere to hedge to;
                // otherwise the first backend keeps the whole deadline
                let range = st.backends_of(sub.shard as usize);
                let base = range.start;
                let fallback = !entry.write
                    && range.into_iter().any(|o| {
                        sub.tried & (1 << (o - base)) == 0 && st.breakers[o].would_allow()
                    });
                if fallback {
                    let at = now + st.cfg.hedge_after;
                    sub.hedge_until = Some(at);
                    timers.push(timer(at, TimerKind::Hedge));
                }
            }
        }

        /// Backend `b`'s connection is gone or never came up: one event,
        /// one breaker strike, and every sub-request written to it or
        /// queued for it moves on together.
        fn backend_down(&mut self, cx: &mut Ctx<'_>, b: usize) {
            let be = &mut self.backends[b];
            if let Some(peer) = be.peer.take() {
                cx.close(peer);
            }
            be.up = false;
            self.st.breakers[b].record(false, &self.st.cfg);
            let sent: Vec<(u64, u16)> = be.sent.drain().map(|(_, v)| v).collect();
            let queue: Vec<(u64, u16, u32)> = be.queue.drain(..).collect();
            for (req, si) in sent {
                self.attempt_failed(req, si, true);
            }
            for item in queue {
                if still_queued(&mut self.table, &item) {
                    self.attempt_failed(item.0, item.1, false);
                }
            }
        }

        fn backend_of(&self, peer: u64) -> Option<usize> {
            self.backends.iter().position(|be| be.peer == Some(peer))
        }

        /// `Busy` is load-shed, not death: wait out the jittered
        /// backoff (the server's hint is its floor) and re-send to the
        /// same backend, as long as the wait fits the attempt's window.
        fn on_busy(&mut self, req: u64, si: u16, retry_after_ms: u32) {
            let now = Instant::now();
            let seed = self.st.mint();
            let Some(sub) = self.sub(req, si) else { return };
            let limit = sub.hedge_until.filter(|_| !sub.hedging).unwrap_or(sub.deadline);
            let backoff = sub.backoff.get_or_insert_with(|| {
                Backoff::new(BUSY_BASE, BUSY_CAP, limit.saturating_duration_since(now), seed)
            });
            let (shard, epoch) = (sub.shard, sub.epoch);
            match backoff.next_delay(Duration::from_millis(retry_after_ms as u64)) {
                Some(d) if now + d < limit => {
                    sub.state = SubState::Backoff;
                    let t = Timer { at: now + d, kind: TimerKind::Retry, id: req, sub: si, epoch };
                    self.timers.push(Reverse(t));
                }
                // out of time on this backend — no strike
                _ => self.attempt_failed(req, si, true),
            }
            self.st.per_shard[shard as usize].busy_retries.inc();
        }

        /// Whether `t` still means anything: its request is in the
        /// table and the sub (or connect attempt) has not moved on.
        fn timer_live(&mut self, t: &Timer) -> bool {
            if t.kind == TimerKind::Connect {
                let be = &self.backends[t.id as usize];
                return be.peer.is_some() && !be.up && be.conn_epoch == t.epoch;
            }
            let Some(sub) = self.sub(t.id, t.sub) else { return false };
            match (t.kind, &sub.state) {
                (_, SubState::Done) => false,
                (TimerKind::Deadline, _) => true,
                (TimerKind::Hedge, _) => sub.epoch == t.epoch,
                (TimerKind::Retry, SubState::Backoff) => sub.epoch == t.epoch,
                (TimerKind::Retry | TimerKind::Connect, _) => false,
            }
        }

        fn fire(&mut self, cx: &mut Ctx<'_>, t: Timer, now: Instant) {
            if !self.timer_live(&t) {
                return;
            }
            match t.kind {
                TimerKind::Connect => self.backend_down(cx, t.id as usize),
                TimerKind::Hedge => {
                    self.abandon(t.id, t.sub);
                    self.attempt_failed(t.id, t.sub, true);
                }
                TimerKind::Deadline => {
                    self.abandon(t.id, t.sub);
                    self.sub_done(t.id, t.sub, now);
                }
                TimerKind::Retry => {
                    let backend = self.sub(t.id, t.sub).expect("timer_live found it").backend;
                    self.enqueue(t.id, t.sub, backend);
                }
            }
        }

        /// Every sub is settled: take the entry out of the table and
        /// answer whoever asked.
        fn finish(&mut self, cx: &mut Ctx<'_>, req: u64) {
            let Some(mut entry) = self.table.remove(req) else { return };
            self.st.in_flight.set(self.table.len() as i64);
            match entry.reply {
                ReplyTo::Chan(ref tx) => {
                    let _ = tx.send(entry.subs.drain(..).map(|s| (s.span.addr, s.reply)).collect());
                }
                ReplyTo::Client { token, corr } => {
                    let reply = self.merged_reply(&entry);
                    cx.reply(token, corr, &reply);
                    if let Frame::Matches { matches, .. } | Frame::ApproxMatches { matches, .. } = reply
                    {
                        self.merge_buf = matches;
                    }
                }
            }
        }

        /// Fold the per-shard replies of a finished request into the one
        /// reply its client gets.
        fn merged_reply(&mut self, entry: &Routed) -> Frame {
            let st = &*self.st;
            let subs = &entry.subs;
            let kind = match &entry.frame {
                Frame::Query { .. } => obs::RequestKind::RoutedQuery,
                Frame::QueryApprox { .. } => obs::RequestKind::RoutedQueryApprox,
                Frame::QueryBatch { .. } => obs::RequestKind::RoutedBatch,
                _ => return forwarded_reply(st, entry),
            };
            let epochs = subs.iter().filter_map(|s| match &s.reply {
                Some(
                    Frame::Matches { epoch, .. }
                    | Frame::ApproxMatches { epoch, .. }
                    | Frame::BatchMatches { epoch, .. },
                ) => Some(*epoch),
                _ => None,
            });
            let ok = epochs.clone().count() as u16;
            let epoch = epochs.max().unwrap_or(0);
            let spans = subs.iter().map(|s| &s.span);
            record_routed(st, entry.trace_id, kind, entry.started, spans, ok, epoch);
            if ok == 0 {
                return unavailable("no shard answered the query");
            }
            let shards = ShardInfo { ok, total: st.shards.len() as u16 };
            if shards.is_partial() {
                st.partial_replies.inc();
            }
            let lists = subs.iter().filter_map(|s| match &s.reply {
                Some(Frame::Matches { matches, .. } | Frame::ApproxMatches { matches, .. }) => {
                    Some((s.shard, matches.as_slice()))
                }
                _ => None,
            });
            let mut matches = std::mem::take(&mut self.merge_buf);
            match &entry.frame {
                Frame::Query { k, .. } => {
                    merge_sorted(*k as usize, lists, &mut self.cursors, &mut matches);
                    Frame::Matches { epoch, shards, trailer: None, matches }
                }
                Frame::QueryApprox { k, .. } => {
                    merge_sorted(*k as usize, lists, &mut self.cursors, &mut matches);
                    // the funnel of the whole cluster: work sums, the
                    // deepest tier and widest radius any shard needed
                    let (mut tier, mut radius) = (0u8, 0u16);
                    let (mut probed, mut cands, mut copies, mut rr) = (0u64, 0u64, 0u64, 0u64);
                    for s in subs {
                        if let Some(Frame::ApproxMatches {
                            tier: t,
                            radius: r,
                            buckets_probed,
                            candidates,
                            corpus_copies,
                            reranked,
                            ..
                        }) = &s.reply
                        {
                            tier = tier.max(*t);
                            radius = radius.max(*r);
                            probed += buckets_probed;
                            cands += candidates;
                            copies += corpus_copies;
                            rr += reranked;
                        }
                    }
                    Frame::ApproxMatches {
                        epoch,
                        tier,
                        radius,
                        buckets_probed: probed,
                        candidates: cands,
                        corpus_copies: copies,
                        reranked: rr,
                        shards,
                        trailer: None,
                        matches,
                    }
                }
                Frame::QueryBatch { k, shapes } => {
                    self.merge_buf = matches; // each batch result owns its list
                    let results = (0..shapes.len())
                        .map(|qi| {
                            let lists = subs.iter().filter_map(|s| match &s.reply {
                                Some(Frame::BatchMatches { results, .. }) => {
                                    results.get(qi).map(|l| (s.shard, l.as_slice()))
                                }
                                _ => None,
                            });
                            let mut out = Vec::new();
                            merge_sorted(*k as usize, lists, &mut self.cursors, &mut out);
                            out
                        })
                        .collect();
                    Frame::BatchMatches { epoch, results }
                }
                _ => unreachable!("kind matched a read above"),
            }
        }
    }

    /// The reply to a finished write (the primary's own answer, its id
    /// retagged) or admin scatter (the shards' answers folded together).
    fn forwarded_reply(st: &RouterState, entry: &Routed) -> Frame {
        let subs = &entry.subs;
        match &entry.frame {
            Frame::Insert { .. } => match &subs[0].reply {
                Some(Frame::Inserted { epoch, id }) => {
                    Frame::Inserted { epoch: *epoch, id: tag_id(subs[0].shard, *id) }
                }
                Some(other) => other.clone(),
                None => unavailable("owning shard primary is unreachable"),
            },
            Frame::Delete { .. } => match &subs[0].reply {
                Some(reply) => reply.clone(),
                None => unavailable("owning shard primary is unreachable"),
            },
            Frame::Stats => {
                let mut agg = ServerStats::default();
                let mut any = false;
                for sub in subs {
                    let Some(Frame::StatsReport(s)) = &sub.reply else { continue };
                    any = true;
                    agg.epoch = agg.epoch.max(s.epoch);
                    agg.live_shapes += s.live_shapes;
                    agg.levels = agg.levels.max(s.levels);
                    agg.requests += s.requests;
                    agg.queries += s.queries;
                    agg.inserts += s.inserts;
                    agg.deletes += s.deletes;
                    agg.busy_rejects += s.busy_rejects;
                    agg.protocol_errors += s.protocol_errors;
                    agg.latency_p50_us = agg.latency_p50_us.max(s.latency_p50_us);
                    agg.latency_p99_us = agg.latency_p99_us.max(s.latency_p99_us);
                    agg.snapshots_published += s.snapshots_published;
                    agg.publish_p50_us = agg.publish_p50_us.max(s.publish_p50_us);
                    agg.publish_p99_us = agg.publish_p99_us.max(s.publish_p99_us);
                    agg.snapshot_age_us = agg.snapshot_age_us.max(s.snapshot_age_us);
                    agg.queue_depth += s.queue_depth;
                    agg.read_only = agg.read_only.max(s.read_only);
                    agg.wal_appends += s.wal_appends;
                    agg.wal_syncs += s.wal_syncs;
                    agg.fsync_p50_us = agg.fsync_p50_us.max(s.fsync_p50_us);
                    agg.fsync_p99_us = agg.fsync_p99_us.max(s.fsync_p99_us);
                    agg.checkpoints += s.checkpoints;
                    agg.checkpoint_failures += s.checkpoint_failures;
                    agg.last_recovery_us = agg.last_recovery_us.max(s.last_recovery_us);
                    agg.io_errors += s.io_errors;
                }
                if any {
                    Frame::StatsReport(agg)
                } else {
                    unavailable("no shard answered stats")
                }
            }
            Frame::MetricsDump => {
                let mut bytes = Vec::with_capacity(4096);
                federate(st, entry.started, subs.iter().map(|s| s.reply.as_ref()))
                    .encode(&mut bytes);
                Frame::MetricsReport { snapshot: bytes }
            }
            _ => unreachable!("only routable frames enter the table"),
        }
    }

    impl engine::Handler for RouterLoop {
        fn on_request(
            &mut self,
            cx: &mut Ctx<'_>,
            token: u64,
            mut frame: Frame,
            corr: u64,
        ) -> Admit {
            let st = &*self.st;
            let mut trace_id = 0;
            let write_to = match &mut frame {
                // Routed reads get a cluster-wide trace id before the
                // scatter, so the same key shows up in every shard's
                // request ring, the router's own, and the router's slow
                // log. Client ids pass through
                // untouched; zero means "none", and the router mints
                // from its key mint so ids never collide across restarts.
                Frame::Query { trace, .. } | Frame::QueryApprox { trace, .. } => {
                    if *trace == 0 {
                        *trace = st.mint();
                    }
                    trace_id = *trace;
                    None
                }
                // batch requests carry no trace field on the wire; the
                // router still records a timeline under a minted id
                Frame::QueryBatch { .. } => {
                    trace_id = st.mint();
                    None
                }
                Frame::Stats | Frame::MetricsDump => None,
                Frame::Insert { image, key, shape, .. } => {
                    // placement: hash the payload so client retries
                    // (same key, same shape) land on the same shard
                    let shard = st.ring.route(placement_key(*image, *key, shape));
                    // mint an idempotency key when the client sent
                    // none, so the router's own retry can never
                    // double-insert
                    if *key == 0 {
                        *key = st.mint();
                    }
                    Some(shard)
                }
                Frame::Delete { id } => {
                    let (shard, local) = untag_id(*id);
                    if shard as usize >= st.shards.len() {
                        return Admit::Reply(Frame::Error {
                            code: error_code::MALFORMED,
                            message: format!("id {id:#x} tags unknown shard {shard}"),
                        });
                    }
                    *id = local;
                    Some(shard)
                }
                Frame::Topology => {
                    return Admit::Reply(Frame::TopologyReport { shards: topology(st) })
                }
                Frame::Explain { .. } => {
                    return Admit::Reply(Frame::Error {
                        code: error_code::UNAVAILABLE,
                        message: "EXPLAIN is not routable; run it against a shard directly".into(),
                    })
                }
                Frame::Shutdown => {
                    st.stop.store(true, Ordering::SeqCst);
                    return Admit::Close(Frame::Bye);
                }
                _ => {
                    return Admit::Reply(Frame::Error {
                        code: error_code::UNEXPECTED_FRAME,
                        message: "response frame sent as a request".into(),
                    })
                }
            };
            if self.table.len() >= MAX_ROUTED {
                // shed at the edge like a node with a full queue
                return Admit::Reply(Frame::Busy { retry_after_ms: BUSY_CAP.as_millis() as u32 });
            }
            match frame {
                Frame::Insert { .. } => st.inserts.inc(),
                Frame::Delete { .. } => st.deletes.inc(),
                _ => {}
            }
            self.start(cx, ReplyTo::Client { token, corr }, frame, trace_id, write_to);
            Admit::Pending
        }

        fn shutting_down(&self) -> bool {
            self.st.stop.load(Ordering::SeqCst)
        }

        fn exit_ready(&self) -> bool {
            self.shutting_down()
        }

        fn on_protocol_error(&mut self) {
            self.st.protocol_errors.inc();
        }

        fn on_tick(&mut self, cx: &mut Ctx<'_>) {
            let jobs = match self.st.jobs.lock().unwrap().as_mut() {
                Some(q) if !q.is_empty() => std::mem::take(q),
                _ => Vec::new(),
            };
            for job in jobs {
                self.start(cx, ReplyTo::Chan(job.reply), job.frame, 0, None);
            }
            let now = Instant::now();
            let mut fired = false;
            while self.timers.peek().is_some_and(|t| t.0.at <= now) {
                let Reverse(t) = self.timers.pop().expect("peeked");
                self.fire(cx, t, now);
                fired = true;
            }
            if fired {
                for be in &mut self.backends {
                    be.struck = false;
                }
                self.settle(cx);
            }
        }

        fn next_deadline(&mut self) -> Option<Instant> {
            while let Some(Reverse(t)) = self.timers.peek().copied() {
                if self.timer_live(&t) {
                    return Some(t.at);
                }
                self.timers.pop();
            }
            None
        }

        fn on_peer_up(&mut self, cx: &mut Ctx<'_>, peer: u64) {
            let Some(b) = self.backend_of(peer) else { return };
            self.backends[b].up = true;
            self.dirty.push(b);
            self.settle(cx);
        }

        fn on_peer_frame(&mut self, cx: &mut Ctx<'_>, peer: u64, frame: Frame, corr: u64) {
            let Some(b) = self.backend_of(peer) else { return };
            // a reply nobody waits for any more (its hedge fired, its
            // deadline passed): framing is intact, so drop the frame
            // and keep the connection
            let Some((req, si)) = self.backends[b].sent.remove(&corr) else { return };
            self.dirty.push(b); // a window slot freed
            self.st.breakers[b].record(true, &self.st.cfg);
            let addr = self.st.backend_addrs[b];
            if let Frame::Busy { retry_after_ms } = frame {
                self.on_busy(req, si, retry_after_ms);
            } else if let Some(sub) = self.sub(req, si) {
                sub.span.addr = Some(addr);
                sub.span.server = reply_trailer(&frame);
                sub.reply = Some(frame);
                self.sub_done(req, si, Instant::now());
            }
            self.settle(cx);
        }

        fn on_peer_down(&mut self, cx: &mut Ctx<'_>, peer: u64) {
            let Some(b) = self.backend_of(peer) else { return };
            self.backends[b].peer = None; // the engine already closed it
            self.backend_down(cx, b);
            self.settle(cx);
        }
    }
}

/// Stage and note names are `&'static str` by design (zero allocation
/// on the hot path), so per-shard stages draw from fixed tables;
/// clusters wider than the tables pool the overflow into the last name.
/// `*_srv_us` notes carry each shard's own reply-trailer total next to
/// the router-clock gather stage of the same index.
static SHARD_STAGES: [&str; 8] =
    ["shard0", "shard1", "shard2", "shard3", "shard4", "shard5", "shard6", "shard7"];
static SHARD_SRV_NOTES: [&str; 8] = [
    "shard0_srv_us",
    "shard1_srv_us",
    "shard2_srv_us",
    "shard3_srv_us",
    "shard4_srv_us",
    "shard5_srv_us",
    "shard6_srv_us",
    "shard7_srv_us",
];

/// Describe one routed read once and hand the record to the router's
/// request ring, and to the slow-query log when it crossed the
/// threshold. This is the router-side half of cross-shard trace
/// assembly: the shard-side half lives in each server's own ring under
/// the same `trace_id`.
fn record_routed<'a>(
    state: &RouterState,
    trace_id: u64,
    kind: obs::RequestKind,
    started: Instant,
    spans: impl Iterator<Item = &'a ShardSpan> + Clone,
    shards_ok: u16,
    epoch: u64,
) {
    let total_us = started.elapsed().as_micros() as u64;
    // Downstream queueing attribution: the worst queue wait any shard
    // reported for this query.
    let queue_us = spans.clone().filter_map(|s| s.server.map(|t| t.queue_us)).max().unwrap_or(0);

    let mut rec =
        obs::RequestRecord { trace_id, kind, total_us, queue_us, epoch, ..Default::default() };
    for (i, span) in spans.clone().enumerate() {
        rec.stage(SHARD_STAGES[i.min(SHARD_STAGES.len() - 1)], span.gather_us);
        if let Some(t) = span.server {
            rec.note(SHARD_SRV_NOTES[i.min(SHARD_SRV_NOTES.len() - 1)], t.total_us);
        }
    }
    rec.note("shards_ok", shards_ok as u64)
        .note("shards_total", spans.clone().count() as u64)
        .note("hedges", spans.clone().filter(|s| s.hedged).count() as u64)
        .note("failovers", spans.clone().map(|s| s.failovers as u64).sum());
    state.registry.record_request(&mut rec);

    let Some(sl) = &state.slow_log else { return };
    if total_us < sl.threshold_us {
        return;
    }
    state.slow_queries.inc();
    // The record's own JSON, then the shards one by one; socket
    // addresses are the only strings and contain no characters needing
    // escapes.
    let mut line = String::with_capacity(512);
    rec.to_json_head(&mut line);
    line.push_str(",\"shards\":[");
    for (i, span) in spans.enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!("{{\"shard\":{i},\"addr\":"));
        match span.addr {
            Some(a) => line.push_str(&format!("\"{a}\"")),
            None => line.push_str("null"),
        }
        line.push_str(&format!(
            ",\"gather_us\":{},\"hedged\":{},\"failovers\":{}",
            span.gather_us, span.hedged, span.failovers
        ));
        if let Some(t) = span.server {
            line.push_str(&format!(
                ",\"server_total_us\":{},\"server_queue_us\":{}",
                t.total_us, t.queue_us
            ));
        }
        line.push('}');
    }
    line.push_str("]}");
    if sl.writer.lock().unwrap().append_line(&line).is_err() {
        state.slow_log_errors.inc();
    }
}

/// Merge every shard's `MetricsDump` reply (`replies`, in shard order;
/// `None` = the shard was dropped) with the router's own registry into
/// one cluster view. Each shard contributes twice: once relabeled
/// `shard="N"` (per-shard series) and once unlabeled (cluster totals —
/// counters and histogram buckets sum, gauges follow their declared
/// [`obs::GaugePolicy`]). A shard with no usable reply is skipped and
/// counted in `geosir_router_scrape_misses_total`, so merged totals can
/// undercount during an outage — the per-shard series make the gap
/// visible.
fn federate<'a>(
    state: &RouterState,
    scrape_start: Instant,
    replies: impl Iterator<Item = Option<&'a Frame>>,
) -> obs::Snapshot {
    let mut out = state.registry.snapshot();
    for (shard, reply) in replies.enumerate() {
        let snap = match reply {
            Some(Frame::MetricsReport { snapshot }) => obs::Snapshot::decode(snapshot),
            _ => None,
        };
        match snap {
            Some(snap) => {
                out.merge(&snap.relabeled("shard", &shard.to_string()));
                out.merge(&snap);
            }
            None => {
                state.scrape_misses.inc();
                state.registry.journal().emit(
                    obs::JournalEvent::new(obs::Severity::Warn, "scrape.miss")
                        .with("shard", shard),
                );
            }
        }
    }
    state.scrapes.inc();
    state.scrape_us.record(scrape_start.elapsed().as_micros() as u64);
    out
}

/// What the router adds to the stock HTTP plane of `geosir-obs` (whose
/// `/debug/*` routes serve the router's own registry): the federated
/// `/metrics`, its probes, and `/debug/cluster`. Scrapes are rare next
/// to queries, so the plane's one thread is plenty; whatever needs the
/// shards ([`RouterState::gather`]) runs as a scatter inside the router
/// loop, on the same backend connections queries use, and only the
/// merging and rendering happen here.
fn http_routes(state: &Arc<RouterState>) -> obs::expo::Routes {
    let (metrics, readyz, cluster) = (state.clone(), state.clone(), state.clone());
    obs::expo::Routes::new(state.registry.clone())
        .route("/metrics", move || {
            let start = Instant::now();
            let outcomes = metrics.gather(Frame::MetricsDump);
            let snap = federate(&metrics, start, outcomes.iter().map(|(_, f)| f.as_ref()));
            obs::expo::metrics_reply(&snap)
        })
        // The router's liveness is the plane itself: answering at all
        // proves its accept loop runs.
        .route("/healthz", || {
            (200, obs::expo::JSON, "{\"status\":\"ok\",\"role\":\"router\"}".into())
        })
        .route("/readyz", move || router_readyz(&readyz))
        .route("/debug/cluster", move || (200, obs::expo::JSON, cluster_json(&cluster)))
}

/// Cluster-wide readiness: scatter a `MetricsDump` to every shard and
/// fold each reply's health gauges into a per-shard verdict. A shard is
/// ready when some backend answered, its own watchdog published
/// `geosir_ready=1` (absent = health plane disabled = trusted), and the
/// primary's breaker is not open (reads may fail over, writes cannot).
fn router_readyz(state: &RouterState) -> obs::expo::Reply {
    const COMPONENTS: [&str; 4] = ["wal_writer", "event_loop", "queues", "slo"];
    let outcomes = state.gather(Frame::MetricsDump);
    let local = state.registry.snapshot();
    let mut all_ready = true;
    let mut out = String::with_capacity(128 + state.shards.len() * 256);
    out.push_str("\"shards\":[");
    for (shard, (source, reply)) in outcomes.iter().enumerate() {
        let got = match (source, reply) {
            (Some(addr), Some(Frame::MetricsReport { snapshot })) => {
                obs::Snapshot::decode(snapshot).map(|snap| (addr, snap))
            }
            _ => None,
        };
        let breaker = state.breakers[state.base[shard]].code();
        let lbl = shard.to_string();
        let lag_records = local.gauge("geosir_replication_lag_records", &[("shard", &lbl)]);
        let lag_ms = local.gauge("geosir_replication_lag_ms", &[("shard", &lbl)]);
        if shard > 0 {
            out.push(',');
        }
        match got {
            Some((addr, snap)) => {
                // Absent gauge = shard runs without the health plane;
                // reachability is then the only readiness signal.
                let shard_ready = match snap.get("geosir_ready", &[]) {
                    Some(obs::SnapValue::Gauge(v, _)) => *v != 0,
                    _ => true,
                };
                let ready = shard_ready && breaker != 1;
                all_ready &= ready;
                out.push_str(&format!(
                    "{{\"shard\":{shard},\"ready\":{ready},\"source\":\"{addr}\",\
                     \"read_only\":{},\"primary_breaker\":\"{}\",\
                     \"lag_records\":{lag_records},\"lag_ms\":{lag_ms},\"components\":{{",
                    snap.gauge("geosir_read_only", &[]) != 0,
                    breaker_name(breaker),
                ));
                for (i, c) in COMPONENTS.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let status = snap.gauge("geosir_health_status", &[("component", c)]);
                    out.push_str(&format!(
                        "\"{c}\":\"{}\"",
                        crate::health::status_name(status.clamp(0, 255) as u8)
                    ));
                }
                out.push_str("}}");
            }
            None => {
                all_ready = false;
                state.scrape_misses.inc();
                state.registry.journal().emit(
                    obs::JournalEvent::new(obs::Severity::Warn, "scrape.miss")
                        .with("shard", shard)
                        .with("probe", "readyz"),
                );
                out.push_str(&format!(
                    "{{\"shard\":{shard},\"ready\":false,\"source\":null,\
                     \"primary_breaker\":\"{}\",\
                     \"lag_records\":{lag_records},\"lag_ms\":{lag_ms},\
                     \"detail\":\"no backend answered MetricsDump\"}}",
                    breaker_name(breaker),
                ));
            }
        }
    }
    out.push(']');
    let body = format!("{{\"ready\":{all_ready},{out}}}");
    (if all_ready { 200 } else { 503 }, obs::expo::JSON, body)
}

fn breaker_name(code: u8) -> &'static str {
    match code {
        0 => "closed",
        1 => "open",
        2 => "half-open",
        _ => "unknown",
    }
}

/// JSON topology + health for `/debug/cluster`: the wire `Topology`
/// report (breaker states, replication lag) plus the router's own
/// address, rendered for humans and scripts that never speak the
/// binary protocol.
fn cluster_json(state: &RouterState) -> String {
    let shards = topology(state);
    let mut out = String::with_capacity(64 + shards.len() * 192);
    out.push_str(&format!("{{\"router\":\"{}\",\"shards\":[", state.addr));
    for (i, s) in shards.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"shard\":{},\"primary\":{{\"addr\":\"{}\",\"state\":\"{}\"}},\"replicas\":[",
            s.shard,
            s.primary,
            breaker_name(s.primary_state)
        ));
        for (j, (addr, code)) in s.replicas.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"addr\":\"{addr}\",\"state\":\"{}\"}}", breaker_name(*code)));
        }
        out.push_str(&format!(
            "],\"lag_records\":{},\"lag_ms\":{}}}",
            s.lag_records, s.lag_ms
        ));
    }
    out.push_str("]}");
    out
}

/// Build the [`Frame::TopologyReport`] payload from breaker states and
/// the replication-lag gauges the repl threads publish into the shared
/// registry.
fn topology(state: &RouterState) -> Vec<WireShardStatus> {
    let snap = state.registry.snapshot();
    state
        .shards
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let l = i.to_string();
            let lbl: &[(&str, &str)] = &[("shard", &l)];
            WireShardStatus {
                shard: i as u16,
                primary: spec.primary.to_string(),
                primary_state: state.breakers[state.base[i]].code(),
                replicas: spec
                    .replicas
                    .iter()
                    .zip(&state.breakers[state.base[i] + 1..])
                    .map(|(r, b)| (r.to_string(), b.code()))
                    .collect(),
                lag_records: snap.gauge("geosir_replication_lag_records", lbl).max(0) as u64,
                lag_ms: snap.gauge("geosir_replication_lag_ms", lbl).max(0) as u64,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// In-process cluster boot: N durable primaries + M replicas each +
// replication threads + router, all wired to one registry. The CLI,
// bench harness, and integration tests all boot through here.
// ---------------------------------------------------------------------------

/// Knobs for [`start_cluster`].
pub struct ClusterConfig {
    pub shards: usize,
    pub replicas: usize,
    /// Root data directory; shard `i` persists under `shard-i/`, its
    /// replica `j` ships into `shard-i/replica-j/`.
    pub data_dir: PathBuf,
    pub fsync: geosir_storage::FsyncPolicy,
    /// Per-backend server config (workers, queue caps, ...).
    pub serve: ServeConfig,
    pub router: RouterConfig,
    /// Checkpoint interval for shard primaries. Kept deliberately huge
    /// by default so the WAL retains the full history a replica reads
    /// from LSN 0 — once, when its replication thread starts; each tick
    /// after that reads only the bytes appended since the last (log
    /// shipping has no checkpoint-transfer phase yet).
    pub checkpoint_every: u64,
    /// Replication poll cadence.
    pub repl_interval: Duration,
    /// Fault-injection hook for the *shipping* destination files (the
    /// chaos harness delays/tears the shipped stream here).
    pub ship_factory: Option<Arc<dyn geosir_storage::faults::IoFactory>>,
    /// Per-shard fault-injection hook for a primary's own WAL files:
    /// `(shard, factory)` — the chaos harness stalls shard `shard`'s
    /// writer here to watch federated readiness degrade.
    pub shard_wal_factory: Option<(usize, Arc<dyn geosir_storage::faults::IoFactory>)>,
}

impl ClusterConfig {
    pub fn new(data_dir: impl Into<PathBuf>) -> ClusterConfig {
        ClusterConfig {
            shards: 2,
            replicas: 1,
            data_dir: data_dir.into(),
            fsync: geosir_storage::FsyncPolicy::Never,
            serve: ServeConfig::default(),
            router: RouterConfig::default(),
            checkpoint_every: u64::MAX / 2,
            repl_interval: Duration::from_millis(10),
            ship_factory: None,
            shard_wal_factory: None,
        }
    }
}

/// An in-process cluster. Backends bind ephemeral loopback ports; the
/// router binds the address given to [`start_cluster`].
pub struct Cluster {
    pub router: RouterHandle,
    pub specs: Vec<ShardSpec>,
    pub recovery: Vec<RecoveryReport>,
    primaries: Vec<Option<ServerHandle>>,
    replicas: Vec<Vec<Option<(ServerHandle, crate::repl::ReplHandle)>>>,
}

impl Cluster {
    pub fn addr(&self) -> SocketAddr {
        self.router.addr()
    }

    pub fn registry(&self) -> Arc<obs::Registry> {
        self.router.registry()
    }

    /// Where the router's federated HTTP plane listens, if enabled.
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.router.metrics_addr()
    }

    /// Gracefully stop replica `r` of shard `s` (the failover tests' kill
    /// switch; the chaos harness SIGKILLs real processes instead).
    pub fn stop_replica(&mut self, s: usize, r: usize) {
        if let Some((server, repl)) = self.replicas[s][r].take() {
            repl.stop();
            server.shutdown();
        }
    }

    /// Retire replica `r` of shard `s`'s *server* while its replication
    /// thread keeps shipping — the in-process stand-in for a SIGKILLed
    /// replica: applies start failing, lag builds, and the drain
    /// monitor journals `repl.stuck`.
    pub fn kill_replica_server(&mut self, s: usize, r: usize) {
        if let Some((server, _repl)) = &self.replicas[s][r] {
            server.shutdown();
        }
    }

    /// Shard `s`'s primary health/metrics listener, when the
    /// per-backend [`ServeConfig::metrics_addr`] is set.
    pub fn primary_metrics_addr(&self, s: usize) -> Option<SocketAddr> {
        self.primaries[s].as_ref().and_then(|h| h.metrics_addr())
    }

    /// Gracefully stop shard `s`'s primary.
    pub fn stop_primary(&mut self, s: usize) {
        if let Some(server) = self.primaries[s].take() {
            server.shutdown();
        }
    }

    /// Block until the router stops (a client sends a wire `Shutdown`
    /// frame), then tear down every backend. `geosir cluster` runs the
    /// whole cluster in the foreground through this.
    pub fn join(mut self) {
        for t in self.router.threads.drain(..) {
            let _ = t.join();
        }
        self.shutdown();
    }

    pub fn shutdown(mut self) {
        for row in &mut self.replicas {
            for slot in row.iter_mut() {
                if let Some((server, repl)) = slot.take() {
                    repl.stop();
                    server.shutdown();
                }
            }
        }
        for slot in &mut self.primaries {
            if let Some(server) = slot.take() {
                server.shutdown();
            }
        }
        self.router.shutdown();
    }
}

/// Boot a full cluster: durable primaries, in-memory replicas fed by
/// WAL shipping, and the router in front.
pub fn start_cluster(
    addr: &str,
    template: &BaseTemplate,
    mut cfg: ClusterConfig,
) -> io::Result<Cluster> {
    assert!(cfg.shards >= 1);
    // Router observability artifacts default into the cluster's data
    // dir: the request ring survives a router panic, and slow routed
    // queries land in a rotating JSONL next to the shard data.
    if cfg.router.flight_dump_path.is_none() {
        cfg.router.flight_dump_path = Some(cfg.data_dir.join("router-flight.dump.json"));
    }
    if cfg.router.slow_query_log.is_none() {
        cfg.router.slow_query_log = Some(cfg.data_dir.join("router"));
    }
    let registry = Arc::new(obs::Registry::new());
    let mut specs = Vec::with_capacity(cfg.shards);
    let mut primaries = Vec::with_capacity(cfg.shards);
    let mut replicas = Vec::with_capacity(cfg.shards);
    let mut recovery = Vec::with_capacity(cfg.shards);
    for s in 0..cfg.shards {
        let shard_dir = cfg.data_dir.join(format!("shard-{s}"));
        let wal_factory = match &cfg.shard_wal_factory {
            Some((shard, f)) if *shard == s => Some(f.clone()),
            _ => None,
        };
        let dcfg = DurabilityConfig {
            fsync: cfg.fsync,
            checkpoint_every: cfg.checkpoint_every,
            io_factory: wal_factory,
            ..DurabilityConfig::new(&shard_dir)
        };
        let (primary, report) = serve_durable("127.0.0.1:0", template, dcfg, cfg.serve.clone())?;
        let mut spec = ShardSpec { primary: primary.addr(), replicas: Vec::new() };
        let mut row = Vec::with_capacity(cfg.replicas);
        for r in 0..cfg.replicas {
            let server = serve("127.0.0.1:0", template.empty_base(), cfg.serve.clone())?;
            let repl = crate::repl::start_replication(crate::repl::ReplSpec {
                shard: s as u16,
                src_wal_dir: shard_dir.clone(),
                ship_dir: shard_dir.join(format!("replica-{r}")),
                replica_addr: server.addr(),
                registry: registry.clone(),
                interval: cfg.repl_interval,
                ship_factory: cfg.ship_factory.clone(),
            });
            spec.replicas.push(server.addr());
            row.push(Some((server, repl)));
        }
        specs.push(spec);
        primaries.push(Some(primary));
        replicas.push(row);
        recovery.push(report);
    }
    let router = Router::start(addr, specs.clone(), cfg.router, registry)?;
    Ok(Cluster { router, specs, recovery, primaries, replicas })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_deterministic_and_covers_all_shards() {
        let ring = Ring::new(4);
        let ring2 = Ring::new(4);
        let mut seen = [false; 4];
        for i in 0..10_000u64 {
            let k = fnv1a64(&[&i.to_le_bytes()]);
            let s = ring.route(k);
            assert_eq!(s, ring2.route(k), "placement must be deterministic");
            seen[s as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "every shard owns part of the keyspace");
    }

    #[test]
    fn ring_balance_is_reasonable() {
        let ring = Ring::new(4);
        let mut counts = [0u32; 4];
        for i in 0..40_000u64 {
            counts[ring.route(fnv1a64(&[&i.to_le_bytes()])) as usize] += 1;
        }
        for &c in &counts {
            // 64 vnodes/shard keeps imbalance well under 2x
            assert!(c > 4_000 && c < 20_000, "badly skewed ring: {counts:?}");
        }
    }

    /// Placement decides which shard directory holds a shape: the
    /// streamed hash must keep producing what the byte-buffer version
    /// did, or existing data directories stop matching their ring.
    #[test]
    fn placement_of_known_payloads_is_pinned() {
        let shape = |closed, points: &[(f64, f64)]| WireShape { closed, points: points.to_vec() };
        let cases = [
            (7, 0, shape(true, &[(0.0, 0.0), (3.0, 0.2), (1.5, 2.0)]), 0x78da_944a_a22b_de2d, [0, 2, 6]),
            (31, 0xDEAD_BEEF, shape(false, &[(-1.25, 4.5), (2.0, -0.5)]), 0x36b2_2601_d1e3_b782, [0, 0, 0]),
            (
                0,
                1,
                shape(true, &[(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]),
                0xc081_57c1_2d0f_a8bd,
                [1, 2, 2],
            ),
        ];
        for (image, key, shape, hash, owners) in cases {
            let got = placement_key(image, key, &shape);
            assert_eq!(got, hash, "payload hash of image {image} drifted");
            for (shards, owner) in [2u16, 4, 7].into_iter().zip(owners) {
                assert_eq!(Ring::new(shards).route(got), owner, "image {image} on {shards} shards");
            }
        }
    }

    #[test]
    fn merge_falls_back_to_sorting_when_a_shard_breaks_the_order() {
        let m = |shape, score| WireMatch { shape, image: 0, score };
        let unsorted = vec![m(1, 0.9), m(2, 0.1)];
        let sorted = vec![m(3, 0.5)];
        let merged = merge_topk(2, &[(0, unsorted), (1, sorted)]);
        let scores: Vec<f64> = merged.iter().map(|m| m.score).collect();
        assert_eq!(scores, [0.1, 0.5]);
    }

    #[test]
    fn id_tagging_round_trips() {
        for shard in [0u16, 1, 3, 255] {
            for local in [0u64, 1, 42, LOCAL_ID_MASK] {
                let (s, l) = untag_id(tag_id(shard, local));
                assert_eq!((s, l), (shard, local));
            }
        }
    }

    #[test]
    fn breaker_trips_cools_down_and_probes() {
        let cfg = RouterConfig {
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(20),
            ..RouterConfig::default()
        };
        let b = Breaker::new();
        assert!(b.allow());
        b.record(false, &cfg);
        assert!(b.allow(), "one strike stays closed");
        b.record(false, &cfg);
        assert!(!b.allow(), "threshold trips open");
        assert_eq!(b.code(), 1);
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.allow(), "cooldown elapsed: half-open probe admitted");
        assert_eq!(b.code(), 2);
        assert!(!b.allow(), "only one probe at a time");
        b.record(false, &cfg);
        assert!(!b.allow(), "failed probe re-opens");
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.allow());
        b.record(true, &cfg);
        assert_eq!(b.code(), 0, "successful probe closes");
        assert!(b.allow());
    }

    #[test]
    fn merge_orders_by_score_then_image_then_routed_id() {
        let a = vec![
            WireMatch { shape: 0, image: 5, score: 0.5 },
            WireMatch { shape: 1, image: 1, score: 1.0 },
        ];
        let b = vec![
            WireMatch { shape: 0, image: 2, score: 0.25 },
            WireMatch { shape: 1, image: 1, score: 1.0 },
        ];
        let merged = merge_topk(3, &[(0, a), (1, b)]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].score, 0.25);
        assert_eq!(merged[0].shape, tag_id(1, 0));
        assert_eq!(merged[1].score, 0.5);
        // tie at 1.0: same image, shard 0's routed id is smaller
        assert_eq!(merged[2].shape, tag_id(0, 1));
        let none = merge_topk(0, &[(0, vec![WireMatch { shape: 0, image: 0, score: 0.0 }])]);
        assert!(none.is_empty(), "k = 0 passes the server default through: empty here");
    }
}
