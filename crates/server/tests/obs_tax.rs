//! The three observability taxes: what watching a server may cost the
//! clients it serves. Each gate is an A/B of exact-query throughput over
//! real loopback TCP, each with a budget of [`BUDGET_PCT`] % fewer
//! requests per second on the watched side:
//!
//! - `slow_log_tax` — two in-memory nodes, B with the slow-query log
//!   armed at its default threshold: every request passes the request
//!   ring's sink, and only a slow read is written out;
//! - `federated_scrape_tax` — one 2-shard × 1-replica cluster, idle vs
//!   its router's `/metrics` scraped at `geosir top`'s 1 Hz (each scrape
//!   scatter-gathers a `MetricsDump` through the queues the queries use);
//! - `health_plane_tax` — two durable nodes, health plane off vs on
//!   (watchdog, SLO engine, journal sink) with `/healthz` + `/readyz`
//!   probed at 10 Hz.
//!
//! One window function, one rounds helper: [`ROUNDS`] rounds, each side
//! once per round and the order swapped every round so that whatever the
//! host does over the run is billed to both sides alike; read-only
//! windows, so neither base grows under the comparison. The template is
//! the one the CLI ships. The gates take ≈ 25 s each and want a quiet
//! release build, so they are `#[ignore]`d (CI's `obs-tax` job):
//!
//! ```sh
//! cargo test --release -p geosir-serve --test obs_tax -- --ignored --test-threads=1 --nocapture
//! ```
//!
//! `smoke` runs un-ignored with everything scaled down and judges no
//! number: it keeps the three scenarios booting, serving and being
//! polled, so the gates cannot rot between the runs that judge them.
#![cfg(target_os = "linux")]

mod common;

use common::{http_get, polygon, slow_log_text, template, tmpdir};

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use geosir_geom::{Point, Polyline};
use geosir_serve::cluster::{start_cluster, Cluster, ClusterConfig, RouterConfig};
use geosir_serve::{
    serve, serve_durable, BaseTemplate, Client, DurabilityConfig, HealthConfig, ServeConfig,
    ServerHandle,
};
use rand::prelude::*;
use rand::rngs::StdRng;

const BUDGET_PCT: f64 = 3.0;
const ROUNDS: usize = 4;
const WINDOW: Duration = Duration::from_secs(2);
const SHAPES: usize = 1200;
/// Closed-loop clients per window, one connection each.
const CLIENTS: usize = 4;

/// Two sides to compare, and what an operator does to side B meanwhile.
struct Scenario {
    name: &'static str,
    /// The plane under test off, or idle.
    a: SocketAddr,
    /// The plane on.
    b: SocketAddr,
    /// While a B window runs: GET these paths of this HTTP plane, wait
    /// this long, and again.
    poll: Option<(SocketAddr, &'static [&'static str], Duration)>,
    queries: Vec<Polyline>,
    dir: PathBuf,
    nodes: Vec<ServerHandle>,
    cluster: Option<Cluster>,
}

/// What [`Scenario::run`] saw: requests per second of every window, and
/// the polls of side B that were answered 200.
struct Tax {
    a: Vec<f64>,
    b: Vec<f64>,
    polls: u64,
}

impl Tax {
    fn overhead_pct(&self) -> f64 {
        let (a, b) = (self.a.iter().sum::<f64>(), self.b.iter().sum::<f64>());
        (a - b) / a * 100.0
    }
}

/// The template the CLI ships (`src/server_cmd.rs`).
fn cli_template() -> BaseTemplate {
    BaseTemplate { buffer_cap: 512, ..template() }
}

/// `n` shapes to store — jittered 12-gons squeezed to an aspect ratio
/// in 0.15..1 — and ten of them to ask for again.
fn corpus(n: usize) -> (Vec<Polyline>, Vec<Polyline>) {
    let mut rng = StdRng::seed_from_u64(5);
    let shapes: Vec<Polyline> = (0..n)
        .map(|_| {
            let squeeze = rng.random_range(0.15..1.0);
            polygon(&mut rng).map_points(|p| Point::new(p.x, p.y * squeeze))
        })
        .collect();
    let queries = shapes.iter().step_by((n / 10).max(1)).cloned().collect();
    (shapes, queries)
}

fn load(addr: SocketAddr, shapes: &[Polyline]) {
    let mut client = Client::connect(addr).expect("loader connects");
    for (image, shape) in shapes.iter().enumerate() {
        client.insert_retrying(image as u32, shape).expect("insert");
    }
}

/// One closed-loop window: [`CLIENTS`] connections, each asking its next
/// exact k = 1 query the moment the last is answered. Connection set-up
/// and the first replies stay out of the count (a settle of `len / 4`);
/// returns the requests answered per second over the `len` after it.
fn window(addr: SocketAddr, queries: &[Polyline], len: Duration) -> f64 {
    let (counting, running) = (&AtomicBool::new(false), &AtomicBool::new(true));
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("client connects");
                    let mut answered = 0u64;
                    for q in queries.iter().cycle().skip(c) {
                        if !running.load(Ordering::Relaxed) {
                            break;
                        }
                        let reply = client.query(q, 1).expect("query");
                        assert_eq!(reply.shards_ok, reply.shards_total, "a partial answer");
                        answered += (counting.load(Ordering::Relaxed) && !reply.rejected) as u64;
                    }
                    answered
                })
            })
            .collect();
        std::thread::sleep(len / 4);
        counting.store(true, Ordering::Relaxed);
        let started = Instant::now();
        std::thread::sleep(len);
        counting.store(false, Ordering::Relaxed);
        let secs = started.elapsed().as_secs_f64();
        running.store(false, Ordering::Relaxed);
        clients.into_iter().map(|c| c.join().expect("client thread")).sum::<u64>() as f64 / secs
    })
}

impl Scenario {
    /// `rounds` interleaved rounds of one window per side, after a joint
    /// warm-up; side B's poller runs only while a B window does.
    fn run(&self, rounds: usize, len: Duration) -> Tax {
        let name = self.name;
        for addr in [self.a, self.b] {
            window(addr, &self.queries, len / 2);
        }
        let mut tax = Tax { a: Vec::new(), b: Vec::new(), polls: 0 };
        for round in 0..rounds {
            for watched in if round % 2 == 0 { [false, true] } else { [true, false] } {
                if !watched {
                    tax.a.push(window(self.a, &self.queries, len));
                    continue;
                }
                let (stop, stopped) = mpsc::channel::<()>();
                std::thread::scope(|s| {
                    let poller = self.poll.map(|(plane, paths, every)| {
                        s.spawn(move || {
                            let mut ok = 0u64;
                            loop {
                                ok += paths.iter().filter(|p| http_get(plane, p).0 == 200).count()
                                    as u64;
                                if stopped.recv_timeout(every) != Err(RecvTimeoutError::Timeout) {
                                    return ok;
                                }
                            }
                        })
                    });
                    tax.b.push(window(self.b, &self.queries, len));
                    drop(stop);
                    tax.polls += poller.map_or(0, |p| p.join().expect("poller thread"));
                });
            }
            let (a, b) = (tax.a[round], tax.b[round]);
            println!("{name} round {round}: A {a:.0} B {b:.0} req/s ({:+.2} %)", (a - b) / a * 100.0);
        }
        println!(
            "{name}: overhead_pct {:+.2} over {rounds} rounds of {len:?} windows, {} polls",
            tax.overhead_pct(),
            tax.polls
        );
        tax
    }

    fn stop(self) {
        for node in self.nodes {
            node.shutdown();
            node.join();
        }
        if let Some(cluster) = self.cluster {
            cluster.shutdown();
        }
        std::fs::remove_dir_all(&self.dir).ok();
    }
}

/// Two in-memory nodes on one corpus; B's slow-query log is armed in
/// `dir`, so B writes out the record of every read that took
/// `slow_query_us` or longer.
fn slow_log(n: usize, slow_query_us: u64) -> Scenario {
    let (shapes, queries) = corpus(n);
    let dir = tmpdir("slow-log");
    let armed = ServeConfig { slow_query_log: Some(dir.clone()), slow_query_us, ..Default::default() };
    let nodes: Vec<ServerHandle> = [ServeConfig::default(), armed]
        .into_iter()
        .map(|cfg| serve("127.0.0.1:0", cli_template().empty_base(), cfg).expect("node boots"))
        .collect();
    nodes.iter().for_each(|node| load(node.addr(), &shapes));
    let (a, b) = (nodes[0].addr(), nodes[1].addr());
    Scenario { name: "slow_log", a, b, poll: None, queries, dir, nodes, cluster: None }
}

/// One 2 × 1 cluster, both sides: the scrape of the router's federated
/// `/metrics` is the only difference between an A and a B window.
fn federated_scrape(n: usize) -> Scenario {
    let (shapes, queries) = corpus(n);
    let dir = tmpdir("federated-scrape");
    let router = RouterConfig { metrics_addr: Some("127.0.0.1:0".into()), ..Default::default() };
    let cfg = ClusterConfig { shards: 2, replicas: 1, router, ..ClusterConfig::new(&dir) };
    let cluster = start_cluster("127.0.0.1:0", &cli_template(), cfg).expect("cluster boots");
    load(cluster.addr(), &shapes);
    let plane = cluster.metrics_addr().expect("the router's HTTP plane is on");
    let poll = Some((plane, &["/metrics"][..], Duration::from_secs(1)));
    let (a, b) = (cluster.addr(), cluster.addr());
    let nodes = Vec::new();
    Scenario { name: "federated_scrape", a, b, poll, queries, dir, nodes, cluster: Some(cluster) }
}

/// Two durable nodes on one corpus, A with the health plane off, B with
/// it on and its `/healthz` + `/readyz` probed the way a kubelet would.
fn health_plane(n: usize) -> Scenario {
    let (shapes, queries) = corpus(n);
    let dir = tmpdir("health-plane");
    let off = ServeConfig {
        health: HealthConfig { enabled: false, ..Default::default() },
        ..Default::default()
    };
    let on = ServeConfig { metrics_addr: Some("127.0.0.1:0".into()), ..Default::default() };
    let nodes: Vec<ServerHandle> = [("off", off), ("on", on)]
        .into_iter()
        .map(|(side, cfg)| {
            let durable = DurabilityConfig::new(dir.join(side));
            serve_durable("127.0.0.1:0", &cli_template(), durable, cfg).expect("node boots").0
        })
        .collect();
    nodes.iter().for_each(|node| load(node.addr(), &shapes));
    let plane = nodes[1].metrics_addr().expect("B's HTTP plane is on");
    let poll = Some((plane, &["/healthz", "/readyz"][..], Duration::from_millis(100)));
    let (a, b) = (nodes[0].addr(), nodes[1].addr());
    Scenario { name: "health_plane", a, b, poll, queries, dir, nodes, cluster: None }
}

#[test]
#[ignore = "a throughput A/B: wants a quiet release build (CI job obs-tax)"]
fn slow_log_tax() {
    let s = slow_log(SHAPES, ServeConfig::default().slow_query_us);
    let overhead_pct = s.run(ROUNDS, WINDOW).overhead_pct();
    s.stop();
    assert!(overhead_pct <= BUDGET_PCT, "an armed slow log costs {overhead_pct:.2} % req/s");
}

#[test]
#[ignore = "a throughput A/B: wants a quiet release build (CI job obs-tax)"]
fn federated_scrape_tax() {
    let s = federated_scrape(SHAPES);
    let tax = s.run(ROUNDS, WINDOW);
    s.stop();
    assert!(tax.polls > 0, "no scrape completed: nothing was measured");
    let overhead_pct = tax.overhead_pct();
    assert!(overhead_pct <= BUDGET_PCT, "the federated scrape costs {overhead_pct:.2} % req/s");
}

#[test]
#[ignore = "a throughput A/B: wants a quiet release build (CI job obs-tax)"]
fn health_plane_tax() {
    let s = health_plane(SHAPES);
    let tax = s.run(ROUNDS, WINDOW);
    let ready = http_get(s.poll.expect("B is probed").0, "/readyz").0;
    s.stop();
    assert!(tax.polls > 0, "no probe was answered 200");
    assert_eq!(ready, 200, "B must end the run ready");
    let overhead_pct = tax.overhead_pct();
    assert!(overhead_pct <= BUDGET_PCT, "the health plane costs {overhead_pct:.2} % req/s");
}

/// The three scenarios scaled down: both orders of a round run, both
/// sides serve, B's records reach the slow log (threshold 0 here, so
/// every query is "slow"; 600 shapes, so the 512-shape buffer has
/// spilled into a level for the record to count), the scraper and the
/// prober get answers.
#[test]
fn smoke() {
    let (rounds, len) = (2, Duration::from_millis(150));
    let served = |t: &Tax| t.a.iter().chain(&t.b).all(|&per_s| per_s > 0.0);

    let s = slow_log(600, 0);
    assert!(served(&s.run(rounds, len)), "a window served nothing");
    let logged = slow_log_text(&s.dir);
    assert!(logged.contains("\"levels\":1,"), "no exact record in B's slow log: {logged:.300}");
    s.stop();

    for polled in [federated_scrape as fn(usize) -> Scenario, health_plane] {
        let s = polled(60);
        let tax = s.run(rounds, len);
        assert!(served(&tax), "a window served nothing");
        assert!(tax.polls > 0, "the poller of side B was never answered");
        s.stop();
    }
}
