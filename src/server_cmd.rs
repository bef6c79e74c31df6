//! `geosir serve` — boot the retrieval server from the command line —
//! plus `geosir stats` (scrape a running one), `geosir explain`
//! (run one query with full plan capture and pretty-print the report),
//! and `geosir similar-approx` (query through the approximate
//! signature-index tier and print the tier report).
//!
//! ```sh
//! geosir serve [ADDR] [--shapes N] [--workers W] [--queue-cap Q]
//!              [--data-dir DIR] [--fsync always|interval=<ms>|never]
//!              [--checkpoint-every N] [--metrics-addr ADDR]
//!              [--slow-query-log DIR] [--slow-query-us T]
//! geosir stats [ADDR]
//! geosir explain [ADDR] [--k K] [--seed N] [--verts V]
//! geosir similar-approx [ADDR] [--k K] [--seed N] [--verts V]
//!                       [--max-radius R] [--max-candidates C]
//! ```
//!
//! Binds `ADDR` (default `127.0.0.1:7401`; use port 0 for an ephemeral
//! port, printed on startup), optionally bulk-loads a deterministic
//! synthetic corpus of `N` shapes, and serves until a `Shutdown` frame
//! arrives. With `--data-dir` the server runs durably: every write is
//! WAL-logged before it is acked, the base is checkpointed in the
//! background, and a restart over the same directory recovers every
//! acknowledged write. With `--metrics-addr` the server additionally
//! serves Prometheus text on `GET /metrics` and the ring of recent
//! requests on `GET /debug/last_queries` (a durable server dumps that
//! ring to `flight.dump.json` in its data dir when it crashes). With
//! `--slow-query-log` every query slower than `--slow-query-us` (default 10 000; 0 logs everything) is appended to
//! a rotating JSONL log in that directory with its full plan.
//!
//! `geosir stats` connects to a running server, pulls its metrics
//! registry over the wire (`MetricsDump`), and prints the snapshot in
//! Prometheus text form. `geosir explain` sends one `Explain` frame —
//! a deterministic synthetic query shape, same family as the benches —
//! and prints the per-level retrieval plan. See `DESIGN.md`
//! §7–§9 and the `README.md` quickstart.

use geosir_core::ids::ImageId;
use geosir_core::matcher::MatchConfig;
use geosir_geom::rangesearch::Backend;
use geosir_geom::{Point, Polyline};
use geosir_imaging::synth::random_simple_polygon;
use geosir_serve::{serve, serve_durable, BaseTemplate, DurabilityConfig, ServeConfig};
use geosir_storage::wal::FsyncPolicy;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Parse `args` (everything after the literal `serve`) and run the
/// server until shutdown. Returns an error string for the caller to
/// print (keeps this module free of process::exit).
pub fn run(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7401".to_string();
    let mut shapes = 0usize;
    let mut cfg = ServeConfig::default();
    let mut data_dir: Option<String> = None;
    let mut fsync = FsyncPolicy::Always;
    let mut checkpoint_every = 1024u64;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--shapes" => shapes = int_flag("--shapes", it.next())?,
            "--workers" => cfg.workers = int_flag("--workers", it.next())?,
            "--queue-cap" => cfg.queue_cap = int_flag("--queue-cap", it.next())?,
            "--data-dir" => {
                data_dir =
                    Some(it.next().ok_or("--data-dir needs a directory path")?.to_string());
            }
            "--fsync" => {
                let v = it.next().ok_or("--fsync needs a policy")?;
                fsync = FsyncPolicy::parse(v).map_err(|e| format!("bad --fsync `{v}`: {e}"))?;
            }
            "--checkpoint-every" => {
                checkpoint_every = int_flag("--checkpoint-every", it.next())? as u64;
            }
            "--metrics-addr" => {
                cfg.metrics_addr =
                    Some(it.next().ok_or("--metrics-addr needs host:port")?.to_string());
            }
            "--slow-query-log" => {
                cfg.slow_query_log = Some(
                    it.next().ok_or("--slow-query-log needs a directory path")?.into(),
                );
            }
            "--slow-query-us" => {
                cfg.slow_query_us = int_flag("--slow-query-us", it.next())? as u64;
            }
            other if !other.starts_with('-') => addr = other.to_string(),
            other => {
                return Err(format!("unknown flag {other} (usage in README.md quickstart)"));
            }
        }
    }

    // Roomy insert buffer: buffered shapes carry indexes prepared at
    // insert time, so brute-forcing a large buffer is cheaper than the
    // small levels a tight cap would cascade into under live inserts.
    let template = BaseTemplate {
        alpha: 0.0,
        backend: Backend::RangeTree,
        config: MatchConfig { beta: 0.2, ..Default::default() },
        buffer_cap: 512,
    };

    if let Some(dir) = data_dir {
        if shapes > 0 {
            return Err("--shapes cannot be combined with --data-dir: durable state \
                        must arrive through the WAL (insert via a client instead)"
                .to_string());
        }
        let mut dcfg = DurabilityConfig::new(&dir);
        dcfg.fsync = fsync;
        dcfg.checkpoint_every = checkpoint_every;
        let (handle, report) =
            serve_durable(&addr, &template, dcfg, cfg).map_err(|e| format!("bind {addr}: {e}"))?;
        println!(
            "recovered {} checkpointed + {} replayed shapes in {} µs{} (last LSN {})",
            report.checkpoint_shapes,
            report.replayed,
            report.recovery_us,
            if report.truncated_tail {
                format!(" [torn WAL tail: {} bytes dropped]", report.dropped_bytes)
            } else {
                String::new()
            },
            report.last_lsn,
        );
        println!(
            "geosir-serve listening on {} (durable: {dir}, fsync={fsync:?}; \
             send a Shutdown frame to stop)",
            handle.addr()
        );
        if let Some(m) = handle.metrics_addr() {
            println!("metrics: http://{m}/metrics  requests: http://{m}/debug/last_queries");
        }
        handle.join();
    } else {
        let mut base = template.empty_base();
        if shapes > 0 {
            base.bulk_load(synthetic_corpus(shapes));
            println!("loaded {shapes} synthetic shapes (epoch {})", base.epoch());
        }
        let handle = serve(&addr, base, cfg).map_err(|e| format!("bind {addr}: {e}"))?;
        println!("geosir-serve listening on {} (send a Shutdown frame to stop)", handle.addr());
        if let Some(m) = handle.metrics_addr() {
            println!("metrics: http://{m}/metrics  requests: http://{m}/debug/last_queries");
        }
        handle.join();
    }
    println!("geosir-serve drained and stopped");
    Ok(())
}

/// `geosir stats [ADDR]`: pull the registry snapshot from a running
/// server over the wire and print it as Prometheus text, prefixed with
/// a one-line summary of the headline counters.
pub fn stats(args: &[String]) -> Result<(), String> {
    let addr = match args {
        [] => "127.0.0.1:7401".to_string(),
        [a] if !a.starts_with('-') => a.clone(),
        _ => return Err("usage: geosir stats [ADDR]".to_string()),
    };
    let mut client = geosir_serve::Client::connect(&addr)
        .map_err(|e| format!("connect {addr}: {e:?}"))?;
    let snap = client.metrics().map_err(|e| format!("metrics dump from {addr}: {e:?}"))?;
    println!(
        "# {addr}: {} requests ({} queries, {} inserts, {} deletes), {} busy rejects",
        snap.counter("geosir_requests_total", &[]),
        snap.counter("geosir_queries_total", &[]),
        snap.counter("geosir_inserts_total", &[]),
        snap.counter("geosir_deletes_total", &[]),
        snap.counter("geosir_busy_rejects_total", &[]),
    );
    print!("{}", geosir_obs::expo::render_prometheus(&snap));
    Ok(())
}

/// `geosir explain [ADDR] [--k K] [--seed N] [--verts V]`: send one
/// `Explain` frame with a deterministic synthetic query shape and
/// pretty-print the retrieval plan the server captured while answering
/// it — per level, the copies the seed settled, the copies the scan
/// scored and the cutoff it scored them against — so a slow query can be
/// diagnosed from a shell without touching the metrics endpoint.
pub fn explain(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7401".to_string();
    let mut k = 4u32;
    let mut seed = 5u64;
    let mut verts = 16usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--k" => k = int_flag("--k", it.next())? as u32,
            "--seed" => seed = int_flag("--seed", it.next())? as u64,
            "--verts" => verts = int_flag("--verts", it.next())?,
            other if !other.starts_with('-') => addr = other.to_string(),
            other => {
                return Err(format!(
                    "unknown flag {other} (usage: geosir explain [ADDR] [--k K] \
                     [--seed N] [--verts V])"
                ));
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let query = random_simple_polygon(&mut rng, verts.max(3), 0.35);
    let mut client = geosir_serve::Client::connect(&addr)
        .map_err(|e| format!("connect {addr}: {e:?}"))?;
    let reply = client.explain(&query, k).map_err(|e| format!("explain on {addr}: {e:?}"))?;
    if reply.rejected {
        return Err(format!(
            "server busy (retry after {} ms) — plan not captured",
            reply.retry_after_ms
        ));
    }
    print_explain(&addr, k, seed, verts, &reply);
    Ok(())
}

fn print_explain(addr: &str, k: u32, seed: u64, verts: usize, reply: &geosir_serve::ExplainReply) {
    let r = &reply.report;
    let s = &r.stats;
    println!(
        "EXPLAIN @{addr}  trace={}  epoch={}  (k={k}, seed={seed}, {verts} vertices)",
        reply.trace, reply.epoch
    );
    println!(
        "time:    {} µs total ({} µs queued, {} µs retrieving)",
        reply.total_us,
        reply.queue_us,
        reply.total_us.saturating_sub(reply.queue_us)
    );
    match reply.matches.first() {
        Some(best) => println!(
            "matches: {}  (best: shape {} image {} score {:.4})",
            reply.matches.len(),
            best.shape,
            best.image,
            best.score
        ),
        None => println!("matches: 0"),
    }
    println!(
        "totals:  {} levels scanned, {} copies scored, {} buffer-scored",
        s.levels, s.scan_copies, s.buffer_scored
    );
    for (i, level) in r.levels.iter().enumerate() {
        // the seed settled `settled` copies, the scan scored the rest
        // against τ — ∞ when the seed found fewer than k live shapes
        let tau = level.cutoff;
        println!(
            "level {i}: {} shapes  plan=scan copies={} scored={} within τ={}",
            level.shapes,
            level.scored + level.settled as u64,
            level.scored,
            if tau.is_finite() { format!("{tau:.4}") } else { "∞ (no seed)".to_string() },
        );
    }
    if s.buffer_scored > 0 {
        println!("buffer:  {} unmerged shape(s) brute-force scored", s.buffer_scored);
    }
}

/// `geosir similar-approx [ADDR] [--k K] [--seed N] [--verts V]
/// [--max-radius R] [--max-candidates C]`: send one `QueryApprox`
/// frame with a deterministic synthetic query shape (same family as
/// `geosir explain`) and print the matches plus the tier report — which
/// tier answered, how far the signature probe went, and how much the
/// index narrowed the candidate set before the exact rerank.
pub fn similar_approx(args: &[String]) -> Result<(), String> {
    let mut addr = "127.0.0.1:7401".to_string();
    let mut k = 4u32;
    let mut seed = 5u64;
    let mut verts = 16usize;
    let mut max_radius = 0u16;
    let mut max_candidates = 0u32;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--k" => k = int_flag("--k", it.next())? as u32,
            "--seed" => seed = int_flag("--seed", it.next())? as u64,
            "--verts" => verts = int_flag("--verts", it.next())?,
            "--max-radius" => max_radius = int_flag("--max-radius", it.next())? as u16,
            "--max-candidates" => {
                max_candidates = int_flag("--max-candidates", it.next())? as u32;
            }
            other if !other.starts_with('-') => addr = other.to_string(),
            other => {
                return Err(format!(
                    "unknown flag {other} (usage: geosir similar-approx [ADDR] [--k K] \
                     [--seed N] [--verts V] [--max-radius R] [--max-candidates C])"
                ));
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let query = random_simple_polygon(&mut rng, verts.max(3), 0.35);
    let mut client = geosir_serve::Client::connect(&addr)
        .map_err(|e| format!("connect {addr}: {e:?}"))?;
    let reply = client
        .similar_approx(&query, k, max_radius, max_candidates)
        .map_err(|e| format!("similar-approx on {addr}: {e:?}"))?;
    if reply.rejected {
        return Err(format!("server busy (retry after {} ms)", reply.retry_after_ms));
    }
    println!(
        "SIMILAR-APPROX @{addr}  trace={}  epoch={}  (k={k}, seed={seed}, {verts} vertices)",
        reply.trace, reply.epoch
    );
    println!(
        "tier:    {}  (probe radius {}, {} buckets probed)",
        reply.tier.name(),
        reply.radius,
        reply.buckets_probed
    );
    println!(
        "funnel:  {} corpus copies -> {} candidates ({:.1}x reduction) -> {} reranked",
        reply.corpus_copies,
        reply.candidates,
        reply.reduction(),
        reply.reranked
    );
    if reply.matches.is_empty() {
        println!("matches: 0");
    } else {
        println!("matches: {}", reply.matches.len());
        for (i, m) in reply.matches.iter().enumerate() {
            println!("  {:>2}. shape {}  image {}  score {:.4}", i + 1, m.shape, m.image, m.score);
        }
    }
    Ok(())
}

fn int_flag(name: &str, value: Option<&String>) -> Result<usize, String> {
    value
        .ok_or_else(|| format!("{name} needs a value"))?
        .parse()
        .map_err(|_| format!("{name} needs an integer value"))
}

/// The same deterministic corpus family the benches use: varied-aspect
/// simple polygons, seeded so every invocation serves identical data.
fn synthetic_corpus(n: usize) -> Vec<(ImageId, Polyline)> {
    let mut rng = StdRng::seed_from_u64(5);
    (0..n)
        .map(|i| {
            let verts = rng.random_range(10..30);
            let poly = random_simple_polygon(&mut rng, verts, 0.35);
            let stretch = rng.random_range(0.15..1.0);
            (ImageId(i as u32), poly.map_points(|q| Point::new(q.x, q.y * stretch)))
        })
        .collect()
}
