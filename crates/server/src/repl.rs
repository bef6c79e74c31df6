//! Log-tailing replication: the per-replica thread that keeps a read
//! replica converged with its shard primary.
//!
//! Each replica gets one replication thread. Per tick it:
//!
//! 1. **Tails**: one [`geosir_storage::wal::Tail`] over the primary's
//!    own WAL directory reads only the bytes appended since the last
//!    tick and queues their records in LSN order. The whole log is read
//!    once, when the thread starts (the replica's bootstrap), not per
//!    tick.
//! 2. **Applies**: queued records are pushed into the replica *through
//!    the wire protocol* — the replica is a stock `geosir-serve`
//!    instance whose only writer is this thread. A failed apply leaves
//!    its record at the head of the queue for the next tick; inserts
//!    reuse the record's idempotency key, so an apply retried over a
//!    replica hiccup can never double-insert.
//!
//! **Id parity.** The primary assigned ids by its deterministic
//! sequential counter while appending these records; the replica,
//! starting empty and applying the same records in the same order,
//! assigns the *same* ids. The thread asserts this on every insert
//! (`geosir_repl_id_mismatch_total` counts violations — a non-zero
//! value means the replica diverged and its reads cannot be trusted). Delete
//! records therefore apply by primary id directly.
//!
//! **Lag accounting.** After every tick the thread publishes
//! `geosir_replication_lag_records{shard}` (the tail's last LSN minus
//! the applied cursor) and `geosir_replication_lag_ms{shard}` (how long
//! the replica has continuously been behind) into the shared cluster
//! registry — the router's `Topology` reply reads them back out. A tick
//! whose read fails counts as behind: mid-log corruption stops the
//! records and the tip at the same point, so the record lag alone would
//! read 0 while nothing past the corruption ever applies.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use geosir_geom::Polyline;
use geosir_obs as obs;
use geosir_storage::wal::{Lsn, Tail, WalRecord};

use crate::client::{Client, ClientConfig};

/// Poll cadence between tail/apply ticks.
const INTERVAL: Duration = Duration::from_millis(10);

/// Drain monitor: a replica continuously behind for this long is
/// journaled as stuck; catching back up journals the resume.
const STUCK_AFTER: Duration = Duration::from_secs(2);

/// What to replicate and where; see [`start_replication`].
pub struct ReplSpec {
    pub shard: u16,
    /// The primary's WAL directory (its durability `data_dir`).
    pub src_wal_dir: PathBuf,
    /// The replica server this thread applies into.
    pub replica_addr: SocketAddr,
    /// Cluster-shared registry the lag gauges are published into.
    pub registry: Arc<obs::Registry>,
}

/// A running replication thread.
pub struct ReplHandle {
    stop: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ReplHandle {
    /// Signal the thread to exit and wait for it.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.join.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReplHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.join.take() {
            let _ = t.join();
        }
    }
}

/// Spawn the replication thread for one replica.
pub fn start_replication(spec: ReplSpec) -> ReplHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop2 = stop.clone();
    let name = format!("geosir-repl-{}", spec.shard);
    let join = crate::server::spawn(name, move || repl_loop(spec, stop2))
        .expect("spawn replication thread");
    ReplHandle { stop, join: Some(join) }
}

struct ReplMetrics {
    lag_records: Arc<obs::Gauge>,
    lag_ms: Arc<obs::Gauge>,
    applied_records: Arc<obs::Counter>,
    read_errors: Arc<obs::Counter>,
    apply_errors: Arc<obs::Counter>,
    id_mismatch: Arc<obs::Counter>,
}

impl ReplMetrics {
    fn build(reg: &obs::Registry, shard: u16) -> ReplMetrics {
        let l = shard.to_string();
        let lbl: &[(&str, &str)] = &[("shard", &l)];
        ReplMetrics {
            // Lag is a worst-of reading: when lag series from several
            // registries merge into one federated snapshot, the max is
            // the cluster's true staleness, not the sum.
            lag_records: reg.gauge_with_policy(
                "geosir_replication_lag_records",
                lbl,
                obs::GaugePolicy::Max,
            ),
            lag_ms: reg.gauge_with_policy("geosir_replication_lag_ms", lbl, obs::GaugePolicy::Max),
            applied_records: reg.counter("geosir_repl_applied_records_total", lbl),
            read_errors: reg.counter("geosir_repl_read_errors_total", lbl),
            apply_errors: reg.counter("geosir_repl_apply_errors_total", lbl),
            id_mismatch: reg.counter("geosir_repl_id_mismatch_total", lbl),
        }
    }
}

fn repl_loop(spec: ReplSpec, stop: Arc<AtomicBool>) {
    let m = ReplMetrics::build(&spec.registry, spec.shard);
    let mut client: Option<Client> = None;
    let mut behind_since: Option<Instant> = None;
    let mut stuck_reported = false;
    let mut tail = Tail::new(&spec.src_wal_dir);
    // records read but not yet applied, in LSN order
    let mut pending: Vec<(Lsn, WalRecord)> = Vec::new();
    // highest LSN applied into the replica so far
    let mut applied = 0u64;
    while !stop.load(Ordering::SeqCst) {
        // mid-log corruption: the records before it are queued, none
        // past it ever will be; the tick counts as behind below
        let read_ok = tail.poll(applied, &mut pending).is_ok();
        if !read_ok {
            m.read_errors.inc();
        }
        let mut done = 0;
        for (lsn, record) in &pending {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            if apply_record(&spec, &mut client, &m, record) {
                applied = *lsn;
                done += 1;
                m.applied_records.inc();
            } else {
                // keep the record queued: it re-applies next tick
                // (idempotent via its key), the replica just lags
                m.apply_errors.inc();
                break;
            }
        }
        pending.drain(..done);
        let lag = tail.last_lsn().unwrap_or(0).saturating_sub(applied);
        m.lag_records.set(lag as i64);
        if lag == 0 && read_ok {
            behind_since = None;
            m.lag_ms.set(0);
            if stuck_reported {
                stuck_reported = false;
                spec.registry.journal().emit(
                    obs::JournalEvent::new(obs::Severity::Info, "repl.resume")
                        .with("shard", spec.shard)
                        .with("replica", spec.replica_addr),
                );
            }
        } else {
            let since = *behind_since.get_or_insert_with(Instant::now);
            m.lag_ms.set(since.elapsed().as_millis() as i64);
            if !stuck_reported && since.elapsed() > STUCK_AFTER {
                stuck_reported = true;
                spec.registry.journal().emit(
                    obs::JournalEvent::new(obs::Severity::Warn, "repl.stuck")
                        .with("shard", spec.shard)
                        .with("replica", spec.replica_addr)
                        .with("lag_records", lag)
                        .with("behind_ms", since.elapsed().as_millis()),
                );
            }
        }
        std::thread::sleep(INTERVAL);
    }
}

/// Push one WAL record into the replica over the wire. Returns false on
/// any failure (the caller leaves the cursor so the record retries).
fn apply_record(
    spec: &ReplSpec,
    client: &mut Option<Client>,
    m: &ReplMetrics,
    record: &WalRecord,
) -> bool {
    if client.is_none() {
        let cfg = ClientConfig {
            connect_timeout: Some(Duration::from_millis(200)),
            ..ClientConfig::default()
        };
        match Client::connect_with(spec.replica_addr, cfg) {
            Ok(c) => *client = Some(c),
            Err(_) => return false,
        }
    }
    let c = client.as_mut().expect("connected above");
    let ok = match record {
        WalRecord::Insert { key, id, image, closed, points } => {
            let pts: Vec<geosir_geom::Point> =
                points.iter().map(|&(x, y)| geosir_geom::Point { x, y }).collect();
            let poly =
                (if *closed { Polyline::closed(pts) } else { Polyline::open(pts) }).ok();
            let Some(poly) = poly else {
                // the primary accepted it, so this can't happen; skip
                // rather than wedge the stream
                return true;
            };
            match c.insert_retrying_keyed(*image, *key, &poly) {
                Ok((_epoch, got)) => {
                    if got != *id {
                        m.id_mismatch.inc();
                    }
                    true
                }
                Err(_) => false,
            }
        }
        WalRecord::Delete { id } => c.delete(*id).is_ok(),
    };
    if !ok {
        *client = None;
    }
    ok
}
