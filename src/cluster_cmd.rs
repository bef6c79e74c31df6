//! `geosir cluster` — boot a sharded cluster from the command line —
//! plus `geosir topology` (ask a running router how its backends are
//! doing).
//!
//! ```sh
//! geosir cluster [ADDR] [--shards N] [--replicas M] [--data-dir DIR]
//!                [--fsync always|interval=<ms>|never] [--workers W]
//!                [--metrics-addr ADDR] [--slow-query-us T]
//! geosir topology [ADDR]
//! ```
//!
//! `geosir cluster` starts `N` durable shard primaries (each persisting
//! under `DIR/shard-i/`), `M` WAL-shipped read replicas per shard, and
//! the scatter-gather router bound to `ADDR` (default `127.0.0.1:7410`;
//! port 0 picks an ephemeral port, printed on startup). The router
//! speaks the same wire protocol as a single `geosir serve`, so every
//! existing client works unchanged — replies additionally carry
//! `shards_ok/shards_total` so a caller can tell a partial answer from
//! a full one.
//!
//! With `--metrics-addr` the router also serves its HTTP observability
//! plane: `GET /metrics` federates every backend's registry with the
//! router's own (merged cluster totals plus `shard="N"`-labeled
//! series), and `/debug/cluster` returns the JSON topology + health
//! view. `geosir top` renders the same endpoint as a live dashboard.
//! See `DESIGN.md` §13.
//!
//! `geosir topology` sends one `Topology` frame to a router and prints
//! the per-shard backend table: primary and replica addresses, breaker
//! state (closed / open / half-open), and replication lag in records
//! and milliseconds. See `DESIGN.md` §12.

use std::path::PathBuf;

use geosir_core::matcher::MatchConfig;
use geosir_geom::rangesearch::Backend;
use geosir_serve::cluster::ClusterConfig;
use geosir_serve::{start_cluster, BaseTemplate};
use geosir_storage::wal::FsyncPolicy;

fn int_flag(name: &str, value: Option<&String>) -> Result<usize, String> {
    value
        .ok_or_else(|| format!("{name} needs a value"))?
        .parse()
        .map_err(|_| format!("{name} needs an integer value"))
}

/// Parse `args` (everything after the literal `cluster`) and run the
/// cluster until the router receives a `Shutdown` frame.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7410".to_string();
    let mut shards = 2usize;
    let mut replicas = 1usize;
    let mut data_dir: Option<String> = None;
    let mut fsync = FsyncPolicy::Never;
    let mut workers: Option<usize> = None;
    let mut metrics_addr: Option<String> = None;
    let mut slow_query_us: Option<u64> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shards" => shards = int_flag("--shards", it.next())?,
            "--replicas" => replicas = int_flag("--replicas", it.next())?,
            "--data-dir" => {
                data_dir =
                    Some(it.next().ok_or("--data-dir needs a directory path")?.to_string());
            }
            "--fsync" => {
                let v = it.next().ok_or("--fsync needs a policy")?;
                fsync = FsyncPolicy::parse(v).map_err(|e| format!("bad --fsync `{v}`: {e}"))?;
            }
            "--workers" => workers = Some(int_flag("--workers", it.next())?),
            "--metrics-addr" => {
                metrics_addr =
                    Some(it.next().ok_or("--metrics-addr needs an address")?.to_string());
            }
            "--slow-query-us" => {
                slow_query_us = Some(int_flag("--slow-query-us", it.next())? as u64);
            }
            other if !other.starts_with('-') => addr = other.to_string(),
            other => {
                return Err(format!(
                    "unknown flag {other} (usage: geosir cluster [ADDR] [--shards N] \
                     [--replicas M] [--data-dir DIR] [--fsync POLICY] [--workers W] \
                     [--metrics-addr ADDR] [--slow-query-us T])"
                ));
            }
        }
    }
    if shards == 0 {
        return Err("--shards must be at least 1".to_string());
    }
    let dir = match data_dir {
        Some(d) => PathBuf::from(d),
        None => {
            // ephemeral cluster: park the WAL under the system temp dir
            let mut p = std::env::temp_dir();
            p.push(format!("geosir-cluster-{}", std::process::id()));
            p
        }
    };

    // Same template as `geosir serve`: a roomy buffer keeps live inserts
    // out of tiny cascades.
    let template = BaseTemplate {
        alpha: 0.0,
        backend: Backend::RangeTree,
        config: MatchConfig { beta: 0.2, ..Default::default() },
        buffer_cap: 512,
    };
    let mut cfg = ClusterConfig::new(&dir);
    cfg.shards = shards;
    cfg.replicas = replicas;
    cfg.fsync = fsync;
    if let Some(w) = workers {
        cfg.serve.workers = w;
    }
    cfg.router.metrics_addr = metrics_addr;
    if let Some(t) = slow_query_us {
        cfg.router.slow_query_us = t;
    }

    let cluster = start_cluster(&addr, &template, cfg).map_err(|e| format!("bind {addr}: {e}"))?;
    println!(
        "geosir-cluster: router on {} over {} shard(s) x {} replica(s) (data: {}; \
         send a Shutdown frame to stop)",
        cluster.addr(),
        shards,
        replicas,
        dir.display()
    );
    if let Some(m) = cluster.router.metrics_addr() {
        println!(
            "  observability: http://{m}/metrics (federated), /debug/cluster, /debug/last_queries"
        );
    }
    for (i, spec) in cluster.specs.iter().enumerate() {
        let rep = if spec.replicas.is_empty() {
            String::from("no replicas")
        } else {
            spec.replicas.iter().map(|a| a.to_string()).collect::<Vec<_>>().join(", ")
        };
        println!("  shard {i}: primary {}  [{rep}]", spec.primary);
    }
    for (i, r) in cluster.recovery.iter().enumerate() {
        if r.replayed > 0 || r.checkpoint_shapes > 0 {
            println!(
                "  shard {i}: recovered {} checkpointed + {} replayed shapes (last LSN {})",
                r.checkpoint_shapes, r.replayed, r.last_lsn
            );
        }
    }
    cluster.join();
    println!("geosir-cluster drained and stopped");
    Ok(())
}

/// `geosir topology [ADDR]`: print a running router's per-shard backend
/// table.
pub fn topology(args: &[String]) -> Result<(), String> {
    let addr = match args {
        [] => "127.0.0.1:7410".to_string(),
        [a] if !a.starts_with('-') => a.clone(),
        _ => return Err("usage: geosir topology [ADDR]".to_string()),
    };
    let mut client = geosir_serve::Client::connect(&addr)
        .map_err(|e| format!("connect {addr}: {e:?}"))?;
    let shards = client.topology().map_err(|e| format!("topology from {addr}: {e:?}"))?;
    let state = |code: u8| match code {
        0 => "closed",
        1 => "OPEN",
        2 => "half-open",
        _ => "?",
    };
    println!("TOPOLOGY @{addr}  ({} shard(s))", shards.len());
    for s in &shards {
        println!(
            "shard {:>3}: primary {} [{}]  lag {} record(s) / {} ms",
            s.shard,
            s.primary,
            state(s.primary_state),
            s.lag_records,
            s.lag_ms
        );
        for (a, st) in &s.replicas {
            println!("           replica {a} [{}]", state(*st));
        }
    }
    Ok(())
}
