//! A replica: a read-only node that recovers from its primary's data
//! directory once, then keeps recovering.
//!
//! [`crate::server::serve_follower`] loads the primary's newest
//! checkpoint, the load recovery runs, and the node's writer slot holds
//! a [`Follower`] instead of a write queue. Every 10 ms it tails the
//! primary's WAL above the LSN it has applied (one
//! [`geosir_storage::wal::Tail`] over the primary's own directory: an
//! idle tick is a listing and a `stat` a segment), applies each record
//! through the function recovery's replay calls — an insert takes the id
//! its record carries — and publishes one snapshot, whose `wal_lsn` is
//! the applied LSN. It never writes to the primary's directory.
//!
//! A primary prunes the log its checkpoint covers, read or not: where
//! the tail reports the next record pruned, the follower loads the
//! newest checkpoint again and journals `repl.bootstrap`; it never
//! applies across a gap. A checkpoint retired between the listing and
//! the read is retried from the newest. A record recovery would refuse
//! (its points make no shape) stops the follower at its LSN, retried and
//! counted in `geosir_repl_apply_errors_total` every tick.
//!
//! Every tick sets `geosir_replication_lag_records{shard}` (the tail's
//! tip minus the applied LSN) and `geosir_replication_lag_ms{shard}`
//! (how long it has been behind) in the cluster registry the router's
//! `Topology` reads. A failed read counts as behind, whatever the record
//! lag reads.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use geosir_core::dynamic::DynamicBase;
use geosir_obs as obs;
use geosir_storage::wal::{Lsn, Tail, WalRecord};

use crate::durable::{self, BaseTemplate};
use crate::metrics::Metrics;

/// Poll cadence between tail/apply ticks.
pub(crate) const INTERVAL: Duration = Duration::from_millis(10);

/// Drain monitor: a replica continuously behind for this long is
/// journaled as stuck; catching back up journals the resume. Also how
/// long a checkpoint that vanishes between listing and read is retried.
const STUCK_AFTER: Duration = Duration::from_secs(2);

/// A replica's writer slot: where it is in its primary's log, and the
/// drain monitor's state.
pub(crate) struct Follower {
    template: BaseTemplate,
    /// The primary's data directory.
    dir: PathBuf,
    shard: u16,
    /// This replica's address, for the journal.
    replica: SocketAddr,
    /// Cluster-shared registry the lag series and journal go to.
    registry: Arc<obs::Registry>,
    lag_records: Arc<obs::Gauge>,
    lag_ms: Arc<obs::Gauge>,
    applied_records: Arc<obs::Counter>,
    read_errors: Arc<obs::Counter>,
    apply_errors: Arc<obs::Counter>,
    tail: Tail,
    /// Records read but not yet applied, in LSN order.
    pending: Vec<(Lsn, WalRecord)>,
    /// Highest LSN the base holds.
    pub(crate) applied: Lsn,
    behind_since: Option<Instant>,
    stuck_reported: bool,
}

impl Follower {
    /// The base `dir`'s newest checkpoint holds, and a follower of the
    /// log above it.
    pub(crate) fn boot(
        template: &BaseTemplate,
        dir: &Path,
        shard: u16,
        replica: SocketAddr,
        registry: Arc<obs::Registry>,
    ) -> io::Result<(Follower, DynamicBase)> {
        let l = shard.to_string();
        let lbl: &[(&str, &str)] = &[("shard", &l)];
        // Lag is a worst-of reading: when lag series from several
        // registries merge into one federated snapshot, the max is the
        // cluster's true staleness, not the sum.
        let lag = |name| registry.gauge_with_policy(name, lbl, obs::GaugePolicy::Max);
        let (base, applied) = load(template, dir)?;
        let follower = Follower {
            template: template.clone(),
            dir: dir.to_path_buf(),
            shard,
            replica,
            lag_records: lag("geosir_replication_lag_records"),
            lag_ms: lag("geosir_replication_lag_ms"),
            applied_records: registry.counter("geosir_repl_applied_records_total", lbl),
            read_errors: registry.counter("geosir_repl_read_errors_total", lbl),
            apply_errors: registry.counter("geosir_repl_apply_errors_total", lbl),
            registry,
            tail: Tail::new(dir),
            pending: Vec::new(),
            applied,
            behind_since: None,
            stuck_reported: false,
        };
        Ok((follower, base))
    }

    /// One tick: apply to `base` what the log gained (or, across a gap,
    /// swap in the newest checkpoint), then update the lag series and the
    /// drain monitor. Returns the applied LSN when `base` changed.
    pub(crate) fn tick(&mut self, base: &mut DynamicBase, metrics: &Metrics) -> Option<Lsn> {
        let mut changed = false;
        // a restart moves `applied` past the gap, so this ends
        let read_ok = loop {
            match self.tail.poll(self.applied, &mut self.pending) {
                Ok(None) => break true,
                Ok(Some(gap)) => match load(&self.template, &self.dir) {
                    Ok((newest, lsn)) if lsn >= gap.expected => {
                        self.registry.journal().emit(
                            obs::JournalEvent::new(obs::Severity::Warn, "repl.bootstrap")
                                .with("shard", self.shard)
                                .with("replica", self.replica)
                                .with("gap_from", gap.expected)
                                .with("gap_to", gap.found)
                                .with("checkpoint_lsn", lsn)
                                .with("shapes", newest.len()),
                        );
                        (*base, self.applied, self.tail) = (newest, lsn, Tail::new(&self.dir));
                        self.pending.clear();
                        changed = true;
                    }
                    // no checkpoint covers the hole: nothing to recover from
                    _ => break false,
                },
                // mid-log corruption: the records before it are queued,
                // none past it ever will be
                Err(_) => break false,
            }
        };
        if !read_ok {
            self.read_errors.inc();
        }
        let mut done = 0;
        for (lsn, record) in &self.pending {
            if durable::replay_record(base, *lsn, record, metrics).is_err() {
                self.apply_errors.inc();
                break;
            }
            match record {
                WalRecord::Insert { .. } => metrics.inserts.inc(),
                WalRecord::Delete { .. } => metrics.deletes.inc(),
            }
            self.applied = *lsn;
            self.applied_records.inc();
            done += 1;
        }
        self.pending.drain(..done);

        let lag = self.tail.tip().unwrap_or(0).saturating_sub(self.applied);
        self.lag_records.set(lag as i64);
        let event = if lag == 0 && read_ok {
            self.behind_since = None;
            self.lag_ms.set(0);
            let resumed = std::mem::take(&mut self.stuck_reported);
            resumed.then(|| obs::JournalEvent::new(obs::Severity::Info, "repl.resume"))
        } else {
            let behind = self.behind_since.get_or_insert_with(Instant::now).elapsed();
            self.lag_ms.set(behind.as_millis() as i64);
            (!self.stuck_reported && behind > STUCK_AFTER).then(|| {
                self.stuck_reported = true;
                obs::JournalEvent::new(obs::Severity::Warn, "repl.stuck")
                    .with("lag_records", lag)
                    .with("behind_ms", behind.as_millis())
            })
        };
        if let Some(event) = event {
            let event = event.with("shard", self.shard).with("replica", self.replica);
            self.registry.journal().emit(event);
        }
        (changed || done > 0).then_some(self.applied)
    }
}

/// The newest checkpoint in `dir`, listed again while the one listed is
/// gone by the time it is read (a newer one was installed).
fn load(template: &BaseTemplate, dir: &Path) -> io::Result<(DynamicBase, Lsn)> {
    let started = Instant::now();
    loop {
        match durable::load_newest(template, dir) {
            Err(e) if e.kind() == io::ErrorKind::NotFound && started.elapsed() < STUCK_AFTER => {
                std::thread::sleep(INTERVAL)
            }
            loaded => return loaded,
        }
    }
}
