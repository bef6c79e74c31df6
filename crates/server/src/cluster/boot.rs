//! In-process cluster boot: N durable primaries, M replicas each
//! following its primary's checkpoint and WAL from the primary's own
//! data directory, and the router in front, all on one registry, whose
//! journal is also kept in a rotating JSONL under the cluster's data
//! directory. The CLI, the benchmark and the integration tests boot
//! clusters through here.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;

use geosir_obs as obs;
use geosir_storage::faults::FileFactory;

use super::{Router, RouterConfig, RouterHandle, ShardSpec};
use crate::durable::{BaseTemplate, DurabilityConfig, RecoveryReport};
use crate::server::{serve_durable, serve_follower, ServeConfig, ServerHandle};
use crate::sinks::{arm_crash_dump, attach, JsonlLog};

/// Knobs for [`start_cluster`].
pub struct ClusterConfig {
    pub shards: usize,
    pub replicas: usize,
    /// Root data directory; shard `i` persists under `shard-i/`.
    pub data_dir: PathBuf,
    pub fsync: geosir_storage::FsyncPolicy,
    /// Per-backend server config (workers, queue caps, ...).
    pub serve: ServeConfig,
    pub router: RouterConfig,
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
    replicas: Vec<Vec<Option<ServerHandle>>>,
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
        if let Some(server) = self.replicas[s][r].take() {
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
                if let Some(server) = slot.take() {
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

/// Boot a full cluster: durable primaries, replicas that follow their
/// primary's checkpoint and WAL, and the router in front.
pub fn start_cluster(
    addr: &str,
    template: &BaseTemplate,
    mut cfg: ClusterConfig,
) -> io::Result<Cluster> {
    assert!(cfg.shards >= 1);
    // Slow routed queries default into a rotating JSONL next to the
    // shard data.
    if cfg.router.slow_query_log.is_none() {
        cfg.router.slow_query_log = Some(cfg.data_dir.join("router"));
    }
    let registry = Arc::new(obs::Registry::new());
    // The shared journal — each follower's `repl.*` events, the router's
    // breaker transitions and scrape misses — lands in a rotating JSONL
    // under the cluster's data dir, as a durable node's does in its own.
    let errors = registry.counter("geosir_router_journal_errors_total", &[]);
    let log = JsonlLog::open(&cfg.data_dir.join("journal"), "journal", Box::new(FileFactory), errors)?;
    attach(registry.journal(), log, |_| true, None)?;
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
            io_factory: wal_factory,
            ..DurabilityConfig::new(&shard_dir)
        };
        let (primary, report) = serve_durable("127.0.0.1:0", template, dcfg, cfg.serve.clone())?;
        let mut spec = ShardSpec { primary: primary.addr(), replicas: Vec::new() };
        let mut row = Vec::with_capacity(cfg.replicas);
        for _ in 0..cfg.replicas {
            let (shard, reg) = (s as u16, registry.clone());
            let server =
                serve_follower("127.0.0.1:0", template, &shard_dir, shard, reg, cfg.serve.clone())?;
            spec.replicas.push(server.addr());
            row.push(Some(server));
        }
        specs.push(spec);
        primaries.push(Some(primary));
        replicas.push(row);
        recovery.push(report);
    }
    // The router's request ring survives a panic or an armed crash
    // point in the cluster's data dir, as each primary's does in its own.
    arm_crash_dump(cfg.data_dir.join("router-flight.dump.json"), &registry);
    let router = Router::start(addr, specs.clone(), cfg.router, registry)?;
    Ok(Cluster { router, specs, recovery, primaries, replicas })
}
