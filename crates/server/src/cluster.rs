//! Sharded cluster: consistent-hash placement and the fault-tolerant
//! scatter-gather router.
//!
//! A cluster is N independent `geosir-serve` shard primaries (each a
//! durable single-node server owning a disjoint slice of the base, its
//! slice chosen by a consistent-hash ring over the insert payload) plus
//! M read replicas per shard, each following its primary's checkpoint
//! and log (`repl.rs`, [`crate::server::serve_follower`]), fronted
//! by a [`Router`] speaking the same wire protocol.
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
//! the replicas publish into the same registry.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use geosir_obs as obs;

use crate::sinks::arm_slow_log;
use crate::wire::Frame;

mod boot;
mod placement;
mod plane;

pub use boot::{start_cluster, Cluster, ClusterConfig};
pub use placement::{merge_topk, tag_id, untag_id, Ring};
use placement::{fnv1a64, SHARD_ID_BITS};
use plane::http_routes;

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
        }
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
    /// A closed breaker; `journal` is `None` only in unit tests, which
    /// exercise the state machine without a router.
    fn new(journal: Option<(Arc<obs::Registry>, SocketAddr)>) -> Breaker {
        Breaker { state: Mutex::new(BreakerState::Closed { strikes: 0 }), journal }
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
    /// whatever the replicas publish into it).
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
        arm_slow_log(
            &registry,
            cfg.slow_query_log.as_deref(),
            "router-slow",
            cfg.slow_query_us,
            registry.counter("geosir_router_slow_queries_total", &[]),
            registry.counter("geosir_router_slow_log_errors_total", &[]),
        )?;
        let mut backend_addrs = Vec::new();
        let mut base = vec![0];
        for spec in &shards {
            backend_addrs.push(spec.primary);
            backend_addrs.extend_from_slice(&spec.replicas);
            base.push(backend_addrs.len());
        }
        let breakers =
            backend_addrs.iter().map(|&a| Breaker::new(Some((registry.clone(), a)))).collect();
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
        let http = match &state.cfg.metrics_addr {
            Some(a) => Some(obs::expo::MetricsServer::bind(a, http_routes(&state))?),
            None => None,
        };
        let loop_state = state.clone();
        let threads = vec![crate::server::spawn("geosir-router", move || {
            route::run(listener, loop_state)
        })?];
        Ok(RouterHandle { addr: local, state, threads, http })
    }
}

#[cfg(target_os = "linux")]
mod route;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breaker_trips_cools_down_and_probes() {
        let cfg = RouterConfig {
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_millis(20),
            ..RouterConfig::default()
        };
        let b = Breaker::new(None);
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
}
