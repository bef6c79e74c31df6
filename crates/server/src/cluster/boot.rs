//! In-process cluster boot: N durable primaries, M replicas each fed by
//! WAL shipping, and the router in front, all on one registry. The CLI,
//! the benchmark and the integration tests boot clusters through here.

use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use geosir_obs as obs;

use super::{Router, RouterConfig, RouterHandle, ShardSpec};
use crate::durable::{BaseTemplate, DurabilityConfig, RecoveryReport};
use crate::server::{serve, serve_durable, ServeConfig, ServerHandle};

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
