//! One run of one workload: set-up → warm-up → saturated stretches, each
//! between two host calibrations → quality sample at quiesce → teardown.
//! Untraced runs report the end-to-end metrics; traced runs put a
//! 1-in-flight pass bracketed by registry dumps first, two paced phases
//! (one with in-band scrapes) before the stretches of every block and
//! the in-process twin replay last, and report the per-layer metrics.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use geosir_obs::Snapshot;
use geosir_serve::Frame;

use crate::child::{dir_bytes, shipped_template, Server, TempDir};
use crate::json::Json;
use crate::live::Window;
use crate::load::{
    calibrate, frame_of, host_speed, judge, pack_corr, probe_frame, Conn, Driver, Ledger, OpKind,
    Phase, Verdict, REF_CALIB_MOPS,
};
use crate::oracle::{Oracle, Quality};
use crate::stats::{good_decile, median, peak_rss_mb, percentile, quartiles};
use crate::twin;
use crate::workload::{
    stream_fingerprint, Deploy, Op, OpStream, QueryKind, Workload, World, FULL_RUN_SECONDS, K,
    SAT_IN_FLIGHT,
};

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// ≈ 3 s per workload, correctness checks on, numbers not comparable.
    pub smoke: bool,
    /// The shipped `geosir` binary.
    pub bin: PathBuf,
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// Observations behind the value (ops, rounds or set-ups).
    pub samples: u64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64, samples: u64) -> Metric {
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub header: Json,
}

/// Stream inserts one run may make beyond its preload; sizes the ack
/// table (and fits the 24 slot bits of a correlation id).
const MAX_STREAM_INSERTS: usize = 1 << 20;
/// Preload requests kept in flight: under the server's default cap per
/// connection (128) and write queue (256), so no insert is ever shed,
/// and enough to fill the writer's groups of 64: a durable set-up then
/// waits for some sixty fsyncs, not for hundreds, and depends that much
/// less on the host's disk.
const PRELOAD_IN_FLIGHT: usize = 96;
/// Ops of the 1-in-flight pass and of the twin replay.
pub const TRACED_OPS: usize = 300;
/// Live shapes probed by their own geometry after `SIGKILL` + restart.
const RECOVERY_PROBES: usize = 64;

struct Plan {
    /// Set-ups of the run; the last one is measured on. A fixed count
    /// per workload, so `setup_s` is the same statistic of as many
    /// samples every run.
    setups: usize,
    /// Blocks of the measured part. Untraced there is one, of saturated
    /// stretches only; traced, each is [paced, paced with in-band
    /// scrapes, saturated stretches].
    blocks: usize,
    /// Saturated stretches per block, each between two host
    /// calibrations, and rounds of `round_ops` per stretch. A read-only
    /// workload calibrates around every round; under churn the rounds of
    /// a stretch follow one another without a pause, so that work a
    /// round defers (a checkpoint, a merge, write-back) lands in the
    /// next one and is counted. Bounded by ops, not by the clock, so
    /// every run measures the same requests in the same order; slower
    /// code runs longer.
    stretches: usize,
    rounds_per_stretch: usize,
    /// Discarded rounds before the first block.
    warm_rounds: usize,
    /// Traced only: ops of each paced phase.
    n_paced: usize,
}

/// Blocks of a traced run, and stretches of an untraced run under churn.
const TRACED_BLOCKS: usize = 4;
const CHURN_STRETCHES: usize = 8;

impl Plan {
    fn new(o: &Options) -> Plan {
        let w = o.workload;
        let rounds = w.rounds as f64 * o.seconds / FULL_RUN_SECONDS;
        let blocks = match (o.trace, o.smoke) {
            (false, _) => 1,
            (true, false) => TRACED_BLOCKS,
            (true, true) => 2,
        };
        // traced: a third of the time each for the three phases of a block
        let share = if o.trace { 3.0 } else { 1.0 };
        // a median wants two rounds at least, also in a smoke run
        let per_block =
            ((rounds / share / blocks as f64).round() as usize).max(if o.trace { 1 } else { 2 });
        let (stretches, rounds_per_stretch) = if w.write_pct == 0 {
            (per_block, 1)
        } else if o.trace {
            (1, per_block)
        } else {
            let stretches = CHURN_STRETCHES.min(per_block);
            (stretches, per_block / stretches)
        };
        Plan {
            setups: if o.smoke || o.trace { 1 } else { w.setups },
            blocks,
            stretches,
            rounds_per_stretch,
            warm_rounds: ((rounds / 10.0).round() as usize).max(1),
            n_paced: (w.paced_rate_ops_s * 0.9 * o.seconds / (3 * blocks) as f64)
                .round()
                .max(1.0) as usize,
        }
    }
}

/// A started, preloaded program under test.
struct Bed {
    // dropped in this order: the process dies before its directory goes
    server: Server,
    conn: Conn,
    data: TempDir,
    ledger: Ledger,
    /// As measured, and stated at the reference host speed.
    setup_raw_s: f64,
    setup_s: f64,
    requests: u64,
}

fn set_up(o: &Options, world: &World, oracle: &Oracle) -> Result<Bed, String> {
    // the benchmark's own 8 MB table is not part of the program's set-up
    let ledger = Ledger::new(world.corpus.shapes.len() + MAX_STREAM_INSERTS);
    let host_before = calibrate();
    let t0 = Instant::now();
    let data = TempDir::new(&o.out_dir, o.workload.name).map_err(|e| format!("temp dir: {e}"))?;
    let server = Server::spawn(&o.bin, o.workload.deploy, data.path())?;
    let mut conn = Conn::connect(server.addr)?;

    let mut in_flight = 0usize;
    let reap = |conn: &mut Conn| -> Result<(), String> {
        let (reply, corr) = conn.recv()?;
        match (reply, crate::load::unpack_corr(corr)) {
            (Frame::Inserted { id, .. }, Some((_, OpKind::Insert, Some(slot)))) => {
                ledger.ack(slot, id);
                Ok(())
            }
            (other, _) => Err(format!("preload insert answered with {other:?}")),
        }
    };
    for (slot, (image, shape)) in world.preload().enumerate() {
        if in_flight == PRELOAD_IN_FLIGHT {
            reap(&mut conn)?;
            in_flight -= 1;
        }
        let op = Op::Insert {
            slot: slot as u32,
            image: image.0,
            shape: shape.clone(),
        };
        let frame = frame_of(&op, o.workload, world, None);
        conn.send(
            &frame,
            pack_corr(slot as u32, OpKind::Insert, Some(slot as u32)),
        )?;
        in_flight += 1;
    }
    for _ in 0..in_flight {
        reap(&mut conn)?;
    }

    // set-up ends with the first correct reply
    let sketch = &world.sketches[0];
    let reply = conn.call(&frame_of(&Op::Query { sketch: 0 }, o.workload, world, None))?;
    let mut q = Quality::default();
    let slots = slots_by_id(&ledger, world.corpus.shapes.len());
    q.add(oracle, sketch, &matches_of(&reply, &slots)?, K as usize);
    if judge(OpKind::Query, &reply) != Verdict::Ok || q.wrong > 0 {
        return Err(format!(
            "first reply after set-up is not correct: {reply:?}"
        ));
    }
    let setup_raw_s = t0.elapsed().as_secs_f64();
    let host = 0.5 * (host_before + host_speed(server.pid())) / REF_CALIB_MOPS;
    let requests = world.corpus.shapes.len() as u64 + 1;
    Ok(Bed {
        server,
        conn,
        data,
        ledger,
        setup_raw_s,
        setup_s: setup_raw_s * host,
        requests,
    })
}

/// Oracles are keyed by slot; replies name the ids the server acked.
fn slots_by_id(ledger: &Ledger, slots: usize) -> HashMap<u64, u64> {
    (0..slots as u32)
        .filter_map(|slot| Some((ledger.id(slot)?, slot as u64)))
        .collect()
}

/// `(slot, score)` of every hit of a query reply, best first. An id the
/// run never saw acked maps to a slot no oracle holds, which the
/// quality check then counts as wrong.
fn matches_of(reply: &Frame, slots: &HashMap<u64, u64>) -> Result<Vec<(u64, f64)>, String> {
    match reply {
        Frame::Matches { matches, .. } | Frame::ApproxMatches { matches, .. } => Ok(matches
            .iter()
            .map(|m| (slots.get(&m.shape).copied().unwrap_or(u64::MAX), m.score))
            .collect()),
        other => Err(format!("query answered with {other:?}")),
    }
}

/// Sum of counts and worst of flags over phases.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Tally {
    fn add(&mut self, p: &Phase) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        self.wrong += p.wrong;
    }
}

/// Wait until no replica lags its primary; the wait, in ms.
fn drain_replication(conn: &mut Conn) -> Result<f64, String> {
    let t0 = Instant::now();
    loop {
        match conn.call(&Frame::Topology)? {
            Frame::TopologyReport { shards } if shards.iter().all(|s| s.lag_records == 0) => {
                return Ok(t0.elapsed().as_secs_f64() * 1e3);
            }
            Frame::TopologyReport { .. } if t0.elapsed() < Duration::from_secs(30) => {
                std::thread::sleep(Duration::from_millis(2));
            }
            other => return Err(format!("replication never drained: {other:?}")),
        }
    }
}

pub fn run(o: &Options) -> Result<Report, String> {
    let w = o.workload;
    let plan = Plan::new(o);
    let world = World::new(w);
    let preload_oracle = Oracle::new(
        world
            .preload()
            .enumerate()
            .map(|(slot, (_, s))| (slot as u64, s)),
    );

    // set-up, several times: the median is the reported `setup_s`
    let (mut setups, mut setups_raw) = (Vec::new(), Vec::new());
    let mut bed = set_up(o, &world, &preload_oracle)?;
    setups.push(bed.setup_s);
    setups_raw.push(bed.setup_raw_s);
    while setups.len() < plan.setups {
        drop(bed);
        bed = set_up(o, &world, &preload_oracle)?;
        setups.push(bed.setup_s);
        setups_raw.push(bed.setup_raw_s);
    }
    let Bed {
        server,
        mut conn,
        data,
        ledger,
        requests,
        ..
    } = bed;
    let pid = server.pid();
    let mut tally = Tally {
        attempted: requests,
        ..Tally::default()
    };
    let mut stream = OpStream::new(&world, w, o.seed);
    let mut layer: Vec<Metric> = Vec::new();

    let mut d = Driver {
        conn: &mut conn,
        stream: &mut stream,
        ledger: &ledger,
        workload: w,
        world: &world,
        child_pid: pid,
    };

    // traced: the 1-in-flight pass runs first, on the freshly preloaded
    // state, so its counts repeat exactly for a seed
    let boot_dump = if o.trace {
        Some(d.conn.metrics()?)
    } else {
        None
    };
    let mut one_in_flight = None;
    let mut stage_service_p50 = 0.0;
    if let Some(before) = &boot_dump {
        let bytes_before = dir_bytes(data.path());
        let pass = d.closed(1, if o.smoke { 60 } else { TRACED_OPS }, 0)?;
        tally.add(&pass);
        let after = d.conn.metrics()?;
        let win = Window {
            before,
            after: &after,
        };
        layer.extend(counts_per_query(&win, &pass));
        let stage = match w.query {
            QueryKind::Exact => "retrieve",
            QueryKind::Approx => "similar_approx",
        };
        stage_service_p50 = win
            .hist("geosir_stage_duration_us", Some(("stage", stage)))
            .quantile(0.5);
        let written = dir_bytes(data.path()).saturating_sub(bytes_before) as f64;
        let writes = pass.write_ms.len() as u64;
        let per_write = if w.deploy == Deploy::Memory {
            0.0
        } else {
            written / writes.max(1) as f64
        };
        layer.push(metric(
            "storage.wal.bytes_per_write",
            "B",
            per_write,
            writes,
        ));
        one_in_flight = Some(pass);
    }

    tally.add(&d.closed(SAT_IN_FLIGHT, plan.warm_rounds * w.round_ops, 0)?);

    let (mut paced, mut scraped, mut sat) = (Vec::new(), Vec::new(), Vec::new());
    let mut sat_dumps: Vec<(Snapshot, Snapshot)> = Vec::new();
    // host speed around every saturated stretch: the mean of the two
    // goes with the stretch, all of them into `host.calib_mops`
    let (mut sat_host, mut calib) = (Vec::new(), Vec::new());
    for block in 0..plan.blocks as u64 {
        if o.trace {
            let phase_seed = o.seed.wrapping_mul(1000).wrapping_add(block);
            paced.push(d.paced(w.paced_rate_ops_s, plan.n_paced, phase_seed, None)?);
            scraped.push(d.paced(
                w.paced_rate_ops_s,
                plan.n_paced,
                !phase_seed,
                Some(Duration::from_millis(100)),
            )?);
        }
        for _ in 0..plan.stretches {
            let host_before = host_speed(pid);
            let before = if o.trace {
                Some(d.conn.metrics()?)
            } else {
                None
            };
            let ops = plan.rounds_per_stretch * w.round_ops;
            sat.push(d.closed(SAT_IN_FLIGHT, ops, w.round_ops)?);
            if let Some(before) = before {
                sat_dumps.push((before, d.conn.metrics()?));
            }
            let host_after = host_speed(pid);
            sat_host.push(0.5 * (host_before + host_after));
            calib.extend([host_before, host_after]);
        }
    }
    for p in paced.iter().chain(&scraped).chain(&sat) {
        tally.add(p);
    }

    // quiesce, then the quality sample against the tracked live set
    let drain_ms = if w.deploy == Deploy::Cluster {
        drain_replication(&mut conn)?
    } else {
        0.0
    };
    let live: Vec<u32> = stream.live_slots().collect();
    let churned;
    let oracle = if w.write_pct == 0 {
        &preload_oracle
    } else {
        churned = Oracle::new(live.iter().map(|&slot| (slot as u64, stream.shape(slot))));
        &churned
    };
    let slots = slots_by_id(&ledger, stream.slots());
    let mut quality = Quality::default();
    for (i, sketch) in world.sketches.iter().enumerate() {
        let reply = conn.call(&frame_of(&Op::Query { sketch: i as u32 }, w, &world, None))?;
        tally.attempted += 1;
        match judge(OpKind::Query, &reply) {
            Verdict::Ok => quality.add(oracle, sketch, &matches_of(&reply, &slots)?, K as usize),
            Verdict::Failed => tally.failed += 1,
            Verdict::Wrong => tally.wrong += 1,
        }
    }
    tally.wrong += quality.wrong;
    let rss_mb = peak_rss_mb(pid);
    let end_dump = if o.trace { Some(conn.metrics()?) } else { None };
    let dir_bytes_per_shape = dir_bytes(data.path()) as f64 / live.len().max(1) as f64;

    // teardown; the durable workload dies by SIGKILL and must come back
    // with every acked, undeleted insert
    drop(conn);
    let mut recovery_s = 0.0;
    if w.deploy == Deploy::Durable {
        server.kill();
        let t0 = Instant::now();
        let server = Server::spawn(&o.bin, w.deploy, data.path())?;
        let mut conn = Conn::connect(server.addr)?;
        let stats = match conn.call(&Frame::Stats)? {
            Frame::StatsReport(s) => s,
            other => return Err(format!("Stats answered with {other:?}")),
        };
        recovery_s = t0.elapsed().as_secs_f64();
        tally.attempted += 1;
        if stats.live_shapes != live.len() as u64 {
            eprintln!(
                "lost acked writes: {} live after restart, {} acked",
                stats.live_shapes,
                live.len()
            );
            tally.wrong += 1;
        }
        let stride = (live.len() / RECOVERY_PROBES).max(1);
        for &slot in live.iter().step_by(stride).take(RECOVERY_PROBES) {
            let reply = conn.call(&probe_frame(stream.shape(slot)))?;
            tally.attempted += 1;
            let top = matches_of(&reply, &slots)?.first().map(|m| m.0);
            if top != Some(slot as u64) {
                eprintln!(
                    "slot {slot}: acked id {:?} does not answer after restart ({top:?})",
                    ledger.id(slot)
                );
                tally.wrong += 1;
            }
        }
        server.shutdown();
    } else {
        server.shutdown();
    }
    drop(data);

    let per_round = |f: &dyn Fn(&Phase) -> f64, phases: &[Phase]| -> Vec<f64> {
        phases.iter().map(f).collect()
    };
    let p50_all = per_round(&|p| p.p(&p.all_ms, 0.5), &paced);
    let p50_query = per_round(&|p| p.p(&p.query_ms, 0.5), &paced);
    // One value per saturated round, as measured: ops per second of wall
    // time and CPU milliseconds of the child per op.
    let sat_rounds = || sat.iter().flat_map(|p| p.rounds.iter());
    let raw_rate: Vec<f64> = sat_rounds().map(|r| r.ops as f64 / r.wall_s).collect();
    let raw_cpu: Vec<f64> = sat_rounds().map(|r| 1e3 * r.cpu_s / r.ops as f64).collect();
    let sat_ops: u64 = sat_rounds().map(|r| r.ops).sum();
    let sat_wall_s: f64 = sat_rounds().map(|r| r.wall_s).sum();
    let rounds = raw_rate.len() as u64;
    let blocks = plan.blocks as u64;
    // The gated value of a run is the median over its rounds, each round
    // stated at the reference host speed by the calibrations around its
    // stretch: the host's speed drifts by a quarter over minutes, and
    // the program's with it.
    let host_of_round = sat
        .iter()
        .zip(&sat_host)
        .flat_map(|(p, &mops)| p.rounds.iter().map(move |_| mops / REF_CALIB_MOPS));
    let (sat_rate, sat_cpu): (Vec<f64>, Vec<f64>) = raw_rate
        .iter()
        .zip(&raw_cpu)
        .zip(host_of_round)
        .map(|((rate, cpu), host)| (rate / host, cpu * host))
        .unzip();

    let metrics = if !o.trace {
        vec![
            metric("setup_s", "s", median(&setups), setups.len() as u64),
            metric("sat_ops_s", "1/s", median(&sat_rate), sat_ops),
            metric("cpu_ms_per_op", "ms", median(&sat_cpu), sat_ops),
            metric("rss_mb", "MB", rss_mb, 1),
            metric("recall_at_10", "share", quality.recall(), quality.queries),
            metric(
                "top1_agreement",
                "share",
                quality.top1_agreement(),
                quality.queries,
            ),
        ]
    } else {
        let (boot, end) = (
            boot_dump.as_ref().expect("traced"),
            end_dump.as_ref().expect("traced"),
        );
        let pass = one_in_flight.as_ref().expect("traced");
        layer.extend(server_under_load(&sat, &sat_dumps, &scraped));
        layer.extend(whole_run(&Window {
            before: boot,
            after: end,
        }));
        layer.push(metric(
            "storage.dir_bytes_per_shape",
            "B",
            if w.deploy == Deploy::Memory {
                0.0
            } else {
                dir_bytes_per_shape
            },
            live.len() as u64,
        ));
        layer.push(metric(
            "server.durable.recovery_s",
            "s",
            recovery_s,
            (w.deploy == Deploy::Durable) as u64,
        ));
        layer.push(metric(
            "server.repl.drain_ms",
            "ms",
            drain_ms,
            (w.deploy == Deploy::Cluster) as u64,
        ));

        // harness and reconciliation
        let merged = |f: &dyn Fn(&Phase) -> &Vec<f64>, phases: &[Phase]| -> Vec<f64> {
            phases.iter().flat_map(|p| f(p).iter().copied()).collect()
        };
        let n_paced_ops = paced.iter().map(|p| p.attempted).sum();
        layer.push(metric(
            "client.paced_p90_ms",
            "ms",
            percentile(&mut merged(&|p| &p.all_ms, &paced), 0.9),
            n_paced_ops,
        ));
        layer.push(metric(
            "client.paced_p99_ms",
            "ms",
            percentile(&mut merged(&|p| &p.all_ms, &paced), 0.99),
            n_paced_ops,
        ));
        let mut q = merged(&|p| &p.query_ms, &paced);
        layer.push(metric(
            "client.query_p90_ms",
            "ms",
            percentile(&mut q, 0.9),
            q.len() as u64,
        ));
        let mut wr = merged(&|p| &p.write_ms, &paced);
        layer.push(metric(
            "client.write_ack_p50_ms",
            "ms",
            percentile(&mut wr, 0.5),
            wr.len() as u64,
        ));
        let spread = {
            let lo = raw_rate.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = raw_rate.iter().copied().fold(0.0, f64::max);
            (hi - lo) / median(&raw_rate)
        };
        layer.push(metric("client.sat_round_spread", "share", spread, rounds));
        layer.push(metric(
            "client.backlog_at_end",
            "count",
            paced.iter().map(|p| p.backlog_at_end).max().unwrap_or(0) as f64,
            blocks,
        ));
        let mut late = merged(&|p| &p.late_ms, &paced);
        layer.push(metric(
            "loadgen.late_p99_ms",
            "ms",
            percentile(&mut late, 0.99),
            late.len() as u64,
        ));
        let cpu_share = paced.iter().map(|p| p.loadgen_cpu_s).sum::<f64>()
            / paced.iter().map(|p| p.window_s).sum::<f64>();
        layer.push(metric("loadgen.cpu_share", "share", cpu_share, blocks));
        let probes = calib.len() as u64;
        layer.push(metric("host.calib_mops", "1/us", median(&calib), probes));
        // demoted from the end-to-end list (NOISE.md): latency at 40 % load
        let plain = median(&p50_all);
        layer.push(metric("client.paced_p50_ms", "ms", plain, n_paced_ops));
        layer.push(metric(
            "client.query_p50_ms",
            "ms",
            median(&p50_query),
            q.len() as u64,
        ));
        let traced = median(&per_round(&|p| p.p(&p.all_ms, 0.5), &scraped));
        layer.push(metric(
            "trace.overhead_share",
            "share",
            traced / plain - 1.0,
            blocks,
        ));
        let mut scrape_us = merged(&|p| &p.scrape_us, &scraped);
        layer.push(metric(
            "obs.scrape_us",
            "us",
            percentile(&mut scrape_us, 0.5),
            scrape_us.len() as u64,
        ));
        layer.push(metric(
            "corpus.intrinsic_dim",
            "dim",
            preload_oracle.intrinsic_dim(200),
            200,
        ));

        // the traced run's own values of the two headline metrics, to
        // read the layers against, and what they were before the host
        // was taken out: the median as measured, the good-side decile
        // (the rate of a quiet host) and the mean (the only one of them
        // that a stall rarer than once a round moves)
        layer.push(metric(
            "client.sat_ops_s",
            "1/s",
            median(&sat_rate),
            sat_ops,
        ));
        layer.push(metric(
            "client.cpu_ms_per_op",
            "ms",
            median(&sat_cpu),
            sat_ops,
        ));
        layer.push(metric(
            "client.sat_ops_s_raw",
            "1/s",
            median(&raw_rate),
            sat_ops,
        ));
        layer.push(metric(
            "client.cpu_ms_per_op_raw",
            "ms",
            median(&raw_cpu),
            sat_ops,
        ));
        layer.push(metric(
            "client.sat_ops_s_quiet",
            "1/s",
            good_decile(&raw_rate, false),
            sat_ops,
        ));
        layer.push(metric(
            "client.sat_ops_s_mean",
            "1/s",
            sat_ops as f64 / sat_wall_s,
            sat_ops,
        ));

        // the twin replay: same corpus, same first ops, in this process
        let client_p50_us = 1e3 * pass.p(&pass.all_ms, 0.5);
        let replay = twin::replay(w, &world, o.seed, pass.attempted as usize, &o.out_dir)?;
        layer.extend(replay.metrics);
        // a node's reply carries its own stage timings; the router's does
        // not, and the shards' stage histogram (bucketed) stands in
        let queries = pass.query_ms.len() as u64;
        let (service_p50, overhead_p50) = if pass.service_us.is_empty() {
            (
                stage_service_p50,
                (1e3 * pass.p(&pass.query_ms, 0.5) - stage_service_p50).max(0.0),
            )
        } else {
            (
                pass.p(&pass.service_us, 0.5),
                pass.p(&pass.overhead_us, 0.5),
            )
        };
        layer.push(metric(
            "server.worker.service_us_p50",
            "us",
            service_p50,
            queries,
        ));
        layer.push(metric(
            "server.overhead_us_p50",
            "us",
            overhead_p50,
            queries,
        ));
        layer.push(metric(
            "layer_budget.sum_us",
            "us",
            replay.budget_p50_us,
            pass.attempted,
        ));
        layer.push(metric(
            "layer_budget.unaccounted_share",
            "share",
            (client_p50_us - replay.budget_p50_us) / client_p50_us,
            pass.attempted,
        ));
        layer.push(metric(
            "client.one_in_flight_p50_us",
            "us",
            client_p50_us,
            pass.attempted,
        ));
        layer
    };

    let header = Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(o.seed as f64)),
        ("seconds", Json::Num(o.seconds)),
        ("traced", Json::Bool(o.trace)),
        ("comparable", Json::Bool(!o.smoke)),
        (
            "host_cores",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("scaling", Json::str("multi-core scaling unmeasured")),
        ("git_commit", Json::str(git_commit())),
        ("binary", Json::str(o.bin.display().to_string())),
        (
            "backend",
            Json::str(format!("{:?} (CLI default)", shipped_template().backend)),
        ),
        ("paced_rate_ops_s", Json::Num(w.paced_rate_ops_s)),
        ("sat_rounds", Json::Num(rounds as f64)),
        ("ops_per_sat_round", Json::Num(w.round_ops as f64)),
        ("paced_phases", Json::Num(paced.len() as f64)),
        ("ops_per_paced_phase", Json::Num(plan.n_paced as f64)),
        (
            "preload_shapes",
            Json::Num(world.corpus.shapes.len() as f64),
        ),
        ("live_shapes_at_end", Json::Num(live.len() as f64)),
        (
            "stream_fnv",
            Json::str(format!(
                "{:016x}",
                stream_fingerprint(&world, w, o.seed, 1000)
            )),
        ),
        ("host_calib_mops", Json::Num(median(&calib))),
        // min, quartiles, max over the paced phases
        ("paced_p50_ms_phases", five_numbers(&p50_all)),
        ("ref_calib_mops", Json::Num(REF_CALIB_MOPS)),
        // as measured, before the host is taken out: the medians, and
        // min, quartiles, max over the rounds
        ("setup_s_raw", Json::Num(median(&setups_raw))),
        ("sat_ops_s_raw", Json::Num(median(&raw_rate))),
        ("cpu_ms_per_op_raw", Json::Num(median(&raw_cpu))),
        ("sat_ops_s_raw_rounds", five_numbers(&raw_rate)),
        ("cpu_ms_per_op_raw_rounds", five_numbers(&raw_cpu)),
        (
            "backlog_at_end",
            Json::Num(paced.iter().map(|p| p.backlog_at_end).max().unwrap_or(0) as f64),
        ),
        (
            "loadgen_late_p99_ms",
            Json::Num(percentile(
                &mut paced
                    .iter()
                    .flat_map(|p| p.late_ms.iter().copied())
                    .collect::<Vec<_>>(),
                0.99,
            )),
        ),
        ("wrong", Json::Num(tally.wrong as f64)),
    ]);
    Ok(Report {
        correct: tally.wrong == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        header,
    })
}

/// `[min, q1, median, q3, max]`; empty for fewer than two values.
fn five_numbers(values: &[f64]) -> Json {
    if values.len() < 2 {
        return Json::Arr(Vec::new());
    }
    let (q1, q3) = quartiles(values);
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Json::Arr([lo, q1, median(values), q3, hi].map(Json::Num).to_vec())
}

/// `git rev-parse HEAD` when the checkout is a repository; the driver's
/// checkouts are not.
fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Counts of the 1-in-flight pass, per query or per write: these repeat
/// exactly for a seed.
fn counts_per_query(win: &Window, pass: &Phase) -> Vec<Metric> {
    let queries = pass.query_ms.len() as u64;
    let writes = pass.write_ms.len() as u64;
    let per_query = |name: &str| win.counter(name) / queries.max(1) as f64;
    let approx_q = win.counter("geosir_approx_queries_total");
    let buckets = win.hist("geosir_approx_buckets_probed", None);
    let reduction = win.hist("geosir_approx_reduction_ratio", None);
    vec![
        metric(
            "geom.rangesearch.triangles_per_query",
            "count",
            per_query("geosir_matcher_triangles_total"),
            queries,
        ),
        metric(
            "geom.rangesearch.vertices_reported_per_query",
            "count",
            per_query("geosir_matcher_candidates_reported_total"),
            queries,
        ),
        metric(
            "core.matcher.levels_per_query",
            "count",
            per_query("geosir_matcher_runs_total"),
            queries,
        ),
        metric(
            "core.matcher.rings_per_query",
            "count",
            per_query("geosir_matcher_rings_total"),
            queries,
        ),
        metric(
            "core.matcher.processed_share",
            "share",
            win.ratio(
                "geosir_matcher_vertices_processed_total",
                "geosir_matcher_candidates_reported_total",
            ),
            queries,
        ),
        metric(
            "core.matcher.exhausted_share",
            "share",
            win.ratio(
                "geosir_matcher_exhausted_total",
                "geosir_matcher_runs_total",
            ),
            queries,
        ),
        metric(
            "core.similarity.scored_per_result",
            "count",
            win.counter("geosir_matcher_havg_evals_total") / (queries * K as u64).max(1) as f64,
            queries,
        ),
        metric(
            "core.approx.buckets_probed_per_query",
            "count",
            buckets.mean(),
            approx_q as u64,
        ),
        metric(
            "core.approx.reranked_per_query",
            "count",
            win.hist("geosir_approx_candidates_per_query", None).mean(),
            approx_q as u64,
        ),
        metric(
            "core.approx.reduction",
            "ratio",
            reduction.mean(),
            approx_q as u64,
        ),
        metric(
            "core.approx.exact_fallback_share",
            "share",
            win.ratio(
                "geosir_approx_exact_fallbacks_total",
                "geosir_approx_queries_total",
            ),
            approx_q as u64,
        ),
        metric(
            "core.dynamic.buffer_scored_per_query",
            "count",
            per_query("geosir_dynamic_buffer_scored_total"),
            queries,
        ),
        metric(
            "server.poll.wakeups_per_req",
            "count",
            win.counter("geosir_poll_wakeups_total") / pass.attempted.max(1) as f64,
            pass.attempted,
        ),
        metric(
            "storage.wal.records_per_sync",
            "count",
            win.ratio("geosir_wal_appends_total", "geosir_wal_syncs_total"),
            writes,
        ),
    ]
}

/// What the server's own registry says about the saturated phases, and
/// what the in-band scrapes saw of its queues.
fn server_under_load(
    sat: &[Phase],
    dumps: &[(Snapshot, Snapshot)],
    scraped: &[Phase],
) -> Vec<Metric> {
    let windows: Vec<Window> = dumps
        .iter()
        .map(|(b, a)| Window {
            before: b,
            after: a,
        })
        .collect();
    let busy: Vec<f64> = windows
        .iter()
        .zip(sat)
        .map(|(w, p)| w.counter("geosir_worker_busy_us_total") / 1e6 / p.window_s)
        .collect();
    let batch: Vec<f64> = windows
        .iter()
        .map(|w| w.hist("geosir_coalesced_batch", None).quantile(0.5))
        .collect();
    // queue depth and replication lag are gauges: the in-band scrapes
    // of the paced phases are the samples available from outside
    let gauges = |f: &dyn Fn(&Phase) -> &Vec<f64>| {
        scraped
            .iter()
            .flat_map(|p| f(p).iter().copied())
            .fold(0.0, f64::max)
    };
    let scrapes = scraped.iter().map(|p| p.queue_depth.len() as u64).sum();
    vec![
        metric(
            "server.worker.busy_share",
            "share",
            median(&busy),
            busy.len() as u64,
        ),
        metric(
            "server.coalesce.batch_p50",
            "count",
            median(&batch),
            batch.len() as u64,
        ),
        metric(
            "server.queue.depth_max",
            "count",
            gauges(&|p| &p.queue_depth),
            scrapes,
        ),
        metric(
            "server.repl.lag_records_max",
            "count",
            gauges(&|p| &p.repl_lag),
            scrapes,
        ),
    ]
}

/// Deltas over the whole run after preload: background work (merges,
/// checkpoints, replication) has completed several cycles by then.
fn whole_run(win: &Window) -> Vec<Metric> {
    let fsync = win.hist("geosir_wal_fsync_us", None);
    let append = win.hist("geosir_wal_append_us", None);
    let ckpt = win.hist("geosir_checkpoint_write_us", None);
    let publish = win.hist("geosir_snapshot_publish_us", None);
    let shard = win.hist("geosir_router_shard_latency_us", None);
    let writes = win.counter("geosir_inserts_total") + win.counter("geosir_deletes_total");
    vec![
        metric(
            "server.busy_rejects",
            "count",
            win.counter("geosir_busy_rejects_total"),
            1,
        ),
        metric(
            "storage.wal.fsync_us_p50",
            "us",
            fsync.quantile(0.5),
            fsync.count() as u64,
        ),
        metric(
            "storage.wal.append_us_p50",
            "us",
            append.quantile(0.5),
            append.count() as u64,
        ),
        metric(
            "storage.checkpoint.count",
            "count",
            win.counter("geosir_checkpoint_writes_total"),
            writes as u64,
        ),
        metric(
            "storage.checkpoint.write_us_p50",
            "us",
            ckpt.quantile(0.5),
            ckpt.count() as u64,
        ),
        metric(
            "core.dynamic.publishes",
            "count",
            win.counter("geosir_snapshot_publishes_total"),
            writes as u64,
        ),
        metric(
            "core.dynamic.publish_us_p50",
            "us",
            publish.quantile(0.5),
            publish.count() as u64,
        ),
        metric(
            "server.cluster.shard_latency_us_p50",
            "us",
            shard.quantile(0.5),
            shard.count() as u64,
        ),
        metric(
            "server.cluster.hedges",
            "count",
            win.counter("geosir_router_hedges_total"),
            shard.count() as u64,
        ),
        metric(
            "server.cluster.failovers",
            "count",
            win.counter("geosir_router_failovers_total"),
            shard.count() as u64,
        ),
        metric(
            "server.cluster.partial_replies",
            "count",
            win.counter("geosir_router_partial_replies_total"),
            shard.count() as u64,
        ),
    ]
}
