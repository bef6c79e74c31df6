//! The router as a pipelined scatter-gather state machine, over real
//! TCP loopback: what differs between a 16-deep window and a 1-deep
//! one. The window rule, hostile frames, backpressure, out-of-order
//! completion against a one-at-a-time oracle, thread count under many
//! connections, one breaker strike per connection death, late replies
//! dropped without losing the connection, and the per-shard latency
//! histogram measuring each shard's own write → reply time.
//!
//! Shards are real servers where answers matter and scripted stubs
//! ([`stub_backend`], [`black_hole`]) where the *timing* of a backend
//! is the thing under test.
//!
//! Linux only, like the router itself (`Router::start` answers
//! `Unsupported` elsewhere).
#![cfg(target_os = "linux")]

mod common;

use common::{exact_template, poll_until, polygon, serve_cfg, slow_log_text, tmpdir};

use std::collections::HashMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use geosir_geom::{Point, Polyline};
use geosir_serve::cluster::{
    start_cluster, ClusterConfig, Router, RouterConfig, RouterHandle, ShardSpec,
};
use geosir_serve::{
    serve, Client, Frame, PipelinedClient, ServerHandle, WireMatch, WireShape, MAX_IN_FLIGHT,
    PROTOCOL_VERSION,
};
use rand::prelude::*;
use rand::rngs::StdRng;

fn node() -> ServerHandle {
    serve("127.0.0.1:0", exact_template().empty_base(), serve_cfg()).unwrap()
}

/// A sliver nothing like a [`polygon`]: never in any polygon's top-k.
fn sliver(i: u32) -> Polyline {
    let h = 0.01 + 0.001 * i as f64;
    Polyline::closed(vec![Point::new(0.0, 0.0), Point::new(9.0, h), Point::new(4.0, 3.0 * h)])
        .expect("a triangle is simple")
}

fn router(specs: Vec<ShardSpec>, cfg: RouterConfig) -> RouterHandle {
    Router::start("127.0.0.1:0", specs, cfg, Arc::new(geosir_obs::Registry::new())).unwrap()
}

fn in_flight(r: &RouterHandle) -> i64 {
    r.registry().snapshot().gauge("geosir_router_in_flight", &[])
}

fn solo(primary: SocketAddr) -> ShardSpec {
    ShardSpec { primary, replicas: Vec::new() }
}

/// A backend that accepts connections and swallows every byte without
/// ever replying: a wedged-but-listening shard.
fn black_hole() -> SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    std::thread::spawn(move || {
        let mut held = Vec::new();
        for s in l.incoming() {
            match s {
                Ok(s) => held.push(s),
                Err(_) => break,
            }
        }
    });
    addr
}

/// What a [`stub_backend`] does with one request.
enum Act {
    /// Answer after the given pause (the stub serves one request at a
    /// time, so the pause also delays whatever is queued behind it).
    Reply(Duration),
    /// Read it and say nothing.
    Swallow,
    /// Close the connection.
    Hangup,
}

/// A scripted backend speaking just enough of the protocol:
/// `script(connection index, request index on that connection)` decides
/// each request's fate; answers are empty `Matches`. Returns its
/// address and the number of connections accepted so far.
fn stub_backend(
    script: impl Fn(usize, usize) -> Act + Send + Sync + 'static,
) -> (SocketAddr, Arc<AtomicUsize>) {
    let l = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = l.local_addr().unwrap();
    let accepted = Arc::new(AtomicUsize::new(0));
    let script = Arc::new(script);
    let counter = accepted.clone();
    std::thread::spawn(move || {
        for s in l.incoming() {
            let Ok(mut s) = s else { break };
            let conn = counter.fetch_add(1, Ordering::SeqCst);
            let script = script.clone();
            std::thread::spawn(move || {
                for req in 0.. {
                    let Ok((_frame, corr)) = Frame::read_from_corr(&mut s) else {
                        return;
                    };
                    match script(conn, req) {
                        Act::Reply(pause) => {
                            std::thread::sleep(pause);
                            let reply = Frame::Matches {
                                epoch: 1,
                                shards: Default::default(),
                                trailer: None,
                                matches: Vec::new(),
                            };
                            let mut buf = Vec::new();
                            reply.encode_versioned(PROTOCOL_VERSION, corr, &mut buf);
                            if s.write_all(&buf).is_err() {
                                return;
                            }
                        }
                        Act::Swallow => {}
                        Act::Hangup => return,
                    }
                }
            });
        }
    });
    (addr, accepted)
}

fn query_frame(shape: &Polyline, k: u32) -> Frame {
    Frame::Query { k, trace: 0, shape: WireShape::from_polyline(shape) }
}

fn shards_of(reply: &Frame) -> (u16, u16) {
    match reply {
        Frame::Matches { shards, .. } | Frame::ApproxMatches { shards, .. } => {
            (shards.ok, shards.total)
        }
        other => panic!("not a routed read reply: {other:?}"),
    }
}

/// The per-client-connection window is the engine's, the node's own
/// (`MAX_IN_FLIGHT`): a client that pipelines more finds the rest left
/// unread in its socket, not buffered in the router.
#[test]
fn client_window_is_the_nodes_default_max_in_flight() {
    let window = MAX_IN_FLIGHT as i64;
    let r = router(
        vec![solo(black_hole())],
        RouterConfig { shard_deadline: Duration::from_secs(60), ..RouterConfig::default() },
    );
    let mut c = PipelinedClient::connect(r.addr()).unwrap();
    for _ in 0..window + 72 {
        c.submit(&Frame::Stats).unwrap();
    }
    c.flush().unwrap();
    assert!(poll_until(Duration::from_secs(10), || in_flight(&r) == window), "{}", in_flight(&r));
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(in_flight(&r), window, "the window is a cap, not a high-water mark");
    r.shutdown();
}

/// The router's client side is the node's: another version byte or a
/// checksum-valid payload the decoder must refuse gets one
/// `Error{MALFORMED}` and a close, is counted, and leaves the router
/// thread serving pipelined traffic on the next connection.
#[test]
fn hostile_frames_get_one_malformed_error_then_close() {
    let shard = node();
    let r = router(vec![solo(shard.addr())], RouterConfig::default());

    common::three_hostile_connections(r.addr());
    assert_eq!(r.registry().snapshot().counter("geosir_protocol_errors_total", &[]), 3);

    let mut rng = StdRng::seed_from_u64(5);
    let mut c = PipelinedClient::connect(r.addr()).unwrap();
    let corrs: Vec<u64> =
        (0..8).map(|_| c.submit(&query_frame(&polygon(&mut rng), 3)).unwrap()).collect();
    for corr in corrs {
        let reply = c.recv(corr).unwrap();
        assert_eq!(shards_of(&reply), (1, 1), "got {reply:?}");
    }
    r.shutdown();
    shard.shutdown();
}

/// A router whose in-flight table is full sheds with `Busy` instead of
/// buffering without bound.
#[test]
fn full_in_flight_table_answers_busy() {
    let r = router(
        vec![solo(black_hole())],
        RouterConfig { shard_deadline: Duration::from_secs(60), ..RouterConfig::default() },
    );
    let window = MAX_IN_FLIGHT as usize;
    // fill the table one full client window at a time, until a
    // connection's requests stop being admitted
    let mut held = Vec::new();
    let mut cap = 0;
    for _ in 0..64 {
        let mut c = PipelinedClient::connect(r.addr()).unwrap();
        for _ in 0..window {
            c.submit(&Frame::Stats).unwrap();
        }
        c.flush().unwrap();
        held.push(c);
        let want = cap + window as i64;
        if !poll_until(Duration::from_millis(500), || in_flight(&r) == want) {
            break;
        }
        cap = want;
    }
    assert!(cap > 0 && in_flight(&r) >= cap, "the table filled at {}", in_flight(&r));
    let full = in_flight(&r);
    assert!(full < 64 * window as i64, "the table is bounded");
    // the connection that hit the bound was told so, request by request
    let (_, reply) = held.last_mut().unwrap().recv_any().unwrap();
    match reply {
        Frame::Busy { retry_after_ms } => assert!(retry_after_ms > 0),
        other => panic!("a full router must answer Busy, got {other:?}"),
    }
    assert_eq!(in_flight(&r), full, "shed requests never entered the table");
    r.shutdown();
}

/// A client that disconnects mid-scatter leaks nothing: its entries
/// leave the table when their shards settle, their replies find no
/// connection, and the router keeps serving.
#[test]
fn disconnect_mid_scatter_leaks_no_table_entry() {
    let healthy = node();
    let r = router(
        vec![solo(healthy.addr()), solo(black_hole())],
        RouterConfig { shard_deadline: Duration::from_millis(300), ..RouterConfig::default() },
    );
    let mut rng = StdRng::seed_from_u64(9);
    let probe = polygon(&mut rng);
    {
        let mut c = PipelinedClient::connect(r.addr()).unwrap();
        for _ in 0..16 {
            c.submit(&query_frame(&probe, 3)).unwrap();
        }
        c.flush().unwrap();
        assert!(poll_until(Duration::from_secs(5), || in_flight(&r) == 16));
    } // dropped with all 16 waiting on the silent shard
    assert!(
        poll_until(Duration::from_secs(5), || in_flight(&r) == 0),
        "{} entries outlived their deadline",
        in_flight(&r)
    );
    let mut c = Client::connect(r.addr()).unwrap();
    let reply = c.query(&probe, 3).unwrap();
    assert_eq!((reply.shards_ok, reply.shards_total), (1, 2), "still serving, still partial");
    r.shutdown();
    healthy.shutdown();
}

/// A result list as (routed id, score bits): what two replies must share
/// to count as the same answer.
fn match_key(ms: &[WireMatch]) -> Vec<(u64, u64)> {
    ms.iter().map(|m| (m.shape, m.score.to_bits())).collect()
}

fn read_key(reply: &Frame) -> Vec<(u64, u64)> {
    match reply {
        Frame::Matches { matches, .. } | Frame::ApproxMatches { matches, .. } => match_key(matches),
        other => panic!("not a read reply: {other:?}"),
    }
}

/// 64 mixed requests pipelined through a 2 × 1 cluster complete under
/// their own correlation ids, and every read equals the same request
/// sent alone. The writes in the mix only touch slivers, which no
/// polygon query ranks, so both passes read the same data.
#[test]
fn pipelined_mix_matches_one_at_a_time() {
    let dir = tmpdir("differential");
    let cfg = ClusterConfig {
        shards: 2,
        replicas: 1,
        serve: serve_cfg(),
        // an unoptimised build on a loaded host can take longer over a
        // window of exact queries than the production hedge window; this
        // test is about ordering, not about slow shards
        router: RouterConfig {
            hedge_after: Duration::from_secs(5),
            shard_deadline: Duration::from_secs(20),
            ..RouterConfig::default()
        },
        ..ClusterConfig::new(&dir)
    };
    let cluster = start_cluster("127.0.0.1:0", &exact_template(), cfg).unwrap();
    let mut loader = Client::connect(cluster.addr()).unwrap();
    let mut rng = StdRng::seed_from_u64(64);
    let shapes: Vec<Polyline> = (0..40).map(|_| polygon(&mut rng)).collect();
    for (i, s) in shapes.iter().enumerate() {
        loader.insert_retrying(i as u32, s).unwrap();
    }
    let doomed: Vec<u64> =
        (0..16).map(|i| loader.insert_retrying(1000 + i, &sliver(i)).unwrap().1).collect();

    let requests: Vec<Frame> = (0..64u32)
        .map(|i| {
            let shape = WireShape::from_polyline(&shapes[(i as usize * 7) % shapes.len()]);
            match i % 4 {
                0 => Frame::Query { k: 5, trace: 0, shape },
                1 => Frame::QueryApprox {
                    k: 5,
                    trace: 0,
                    max_radius: u16::MAX,
                    max_candidates: u32::MAX,
                    shape,
                },
                2 => Frame::Insert {
                    image: 2000 + i,
                    key: 0,
                    trace: 0,
                    shape: WireShape::from_polyline(&sliver(100 + i)),
                },
                _ => Frame::Delete { id: doomed[i as usize / 4] },
            }
        })
        .collect();

    let mut piped = PipelinedClient::connect(cluster.addr()).unwrap();
    let corrs: Vec<u64> = requests.iter().map(|f| piped.submit(f).unwrap()).collect();
    piped.flush().unwrap();
    let mut got: HashMap<u64, Frame> = HashMap::new();
    for _ in 0..requests.len() {
        let (corr, reply) = piped.recv_any().unwrap();
        assert!(got.insert(corr, reply).is_none(), "correlation id {corr} answered twice");
    }
    for (i, (corr, request)) in corrs.iter().zip(&requests).enumerate() {
        let reply = got.get(corr).unwrap_or_else(|| panic!("request {i} never answered"));
        match request {
            Frame::Insert { .. } => assert!(matches!(reply, Frame::Inserted { .. }), "{reply:?}"),
            Frame::Delete { .. } => {
                assert!(matches!(reply, Frame::Deleted { existed: true, .. }), "{reply:?}")
            }
            _ => {
                assert_eq!(shards_of(reply), (2, 2), "request {i}");
                let alone = loader.request(request).unwrap();
                assert_eq!(read_key(reply), read_key(&alone), "request {i} differs sent alone");
                assert_eq!(read_key(reply).len(), 5);
            }
        }
    }
    // a routed batch is the same merge, once per query of the batch
    let batch = loader.query_batch(&shapes[..3], 5).unwrap();
    assert_eq!(batch.results.len(), 3);
    for (shape, merged) in shapes.iter().zip(&batch.results) {
        let alone = loader.query(shape, 5).unwrap();
        assert_eq!(match_key(merged), match_key(&alone.matches));
    }
    cluster.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

const CHILD_ENV: &str = "GEOSIR_ROUTER_THREADS_CHILD";

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Soft limit on open files, from `/proc/self/limits`.
fn fd_limit() -> usize {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap();
    let line = limits.lines().find(|l| l.starts_with("Max open files")).unwrap();
    line.split_whitespace().nth(3).and_then(|v| v.parse().ok()).unwrap_or(1024)
}

/// The measurement behind [`router_threads_do_not_grow_with_clients`].
/// A no-op unless re-executed with [`CHILD_ENV`] set, so that nothing
/// else in the process starts or stops threads while it counts.
#[test]
fn router_threads_child() {
    if std::env::var(CHILD_ENV).is_err() {
        return;
    }
    let r = router(
        vec![solo(black_hole()), solo(black_hole())],
        RouterConfig { shard_deadline: Duration::from_secs(60), ..RouterConfig::default() },
    );
    // warm the backend connections so nothing is left to start lazily
    let mut warm = PipelinedClient::connect(r.addr()).unwrap();
    warm.submit(&Frame::Stats).unwrap();
    warm.flush().unwrap();
    assert!(poll_until(Duration::from_secs(5), || in_flight(&r) == 1));
    let before = thread_count();

    // both ends of every connection live in this process
    let idle_n = 512.min((fd_limit().saturating_sub(128)) / 2);
    assert!(idle_n >= 64, "fd limit {} leaves no room for the test", fd_limit());
    let idle: Vec<TcpStream> = (0..idle_n).map(|_| TcpStream::connect(r.addr()).unwrap()).collect();
    let mut busy = PipelinedClient::connect(r.addr()).unwrap();
    for _ in 0..64 {
        busy.submit(&Frame::Stats).unwrap();
    }
    busy.flush().unwrap();
    assert!(poll_until(Duration::from_secs(10), || in_flight(&r) == 65), "{}", in_flight(&r));
    // the idle connections are accepted, not just sitting in the backlog
    let mut probe = &idle[idle_n - 1];
    Frame::Topology.write_to(&mut probe).unwrap();
    assert!(matches!(Frame::read_from(&mut probe).unwrap(), Frame::TopologyReport { .. }));

    assert_eq!(
        thread_count(),
        before,
        "{idle_n} idle connections and 64 requests in flight must not cost a thread"
    );
    drop(idle);
    r.shutdown();
}

/// 512 idle client connections plus 64 requests in flight leave the
/// router's thread count where it was.
#[test]
fn router_threads_do_not_grow_with_clients() {
    let out = std::process::Command::new(std::env::current_exe().unwrap())
        .args(["--exact", "router_threads_child", "--test-threads=1", "--nocapture"])
        .env(CHILD_ENV, "1")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "child failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// One backend connection dies with 16 sub-requests outstanding: all 16
/// fail over and are answered in full, and the breaker takes one strike
/// for the event — not one per request.
#[test]
fn dead_connection_fails_over_together_with_one_strike() {
    // the primary reads 16 requests, then drops the connection; every
    // later connection it drops at the first request
    let (primary, _) = stub_backend(|conn, req| match (conn, req) {
        (0, 0..=14) => Act::Swallow,
        _ => Act::Hangup,
    });
    let replica = node();
    let other = node();
    let r = router(
        vec![ShardSpec { primary, replicas: vec![replica.addr()] }, solo(other.addr())],
        RouterConfig {
            // two strikes open the breaker: one leaves it closed
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(60),
            hedge_after: Duration::from_secs(5),
            shard_deadline: Duration::from_secs(10),
            ..RouterConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(16);
    let probe = polygon(&mut rng);
    let mut c = PipelinedClient::connect(r.addr()).unwrap();
    for _ in 0..16 {
        c.submit(&query_frame(&probe, 3)).unwrap();
    }
    c.flush().unwrap();
    for _ in 0..16 {
        let (_, reply) = c.recv_any().unwrap();
        assert_eq!(shards_of(&reply), (2, 2), "every request failed over to the replica");
    }
    let snap = r.registry().snapshot();
    assert_eq!(snap.counter("geosir_router_partial_replies_total", &[]), 0);
    assert_eq!(snap.counter("geosir_router_hedges_total", &[("shard", "0")]), 16);
    let mut admin = Client::connect(r.addr()).unwrap();
    assert_eq!(
        admin.topology().unwrap()[0].primary_state,
        0,
        "16 requests lost to one dead connection are one strike: the breaker stays closed"
    );
    // ... and it was a strike: one more dead connection opens it
    let reply = admin.query(&probe, 3).unwrap();
    assert_eq!((reply.shards_ok, reply.shards_total), (2, 2));
    assert_eq!(admin.topology().unwrap()[0].primary_state, 1, "second event, second strike");
    r.shutdown();
    replica.shutdown();
    other.shutdown();
}

/// A reply that arrives after its hedge fired is dropped — and only the
/// reply: the connection it came on keeps serving later requests.
#[test]
fn late_reply_is_dropped_and_the_connection_kept() {
    // the primary sits on its first request past the hedge window, then
    // answers it (too late) and everything after it promptly
    let (primary, accepted) = stub_backend(|_, req| {
        Act::Reply(Duration::from_millis(if req == 0 { 250 } else { 0 }))
    });
    let (replica, _) = stub_backend(|_, _| Act::Reply(Duration::ZERO));
    let r = router(
        vec![ShardSpec { primary, replicas: vec![replica] }],
        RouterConfig { hedge_after: Duration::from_millis(50), ..RouterConfig::default() },
    );
    let hedges = || r.registry().snapshot().counter("geosir_router_hedges_total", &[("shard", "0")]);
    let mut rng = StdRng::seed_from_u64(4);
    let probe = polygon(&mut rng);
    let mut c = Client::connect(r.addr()).unwrap();
    let t = Instant::now();
    let first = c.query(&probe, 3).unwrap();
    assert_eq!((first.shards_ok, first.shards_total), (1, 1));
    assert!(t.elapsed() < Duration::from_millis(250), "answered by the hedge, not the straggler");
    assert_eq!(hedges(), 1);
    // let the straggler arrive and be discarded
    std::thread::sleep(Duration::from_millis(400));
    let second = c.query(&probe, 3).unwrap();
    assert_eq!((second.shards_ok, second.shards_total), (1, 1));
    assert_eq!(hedges(), 1, "the primary answered the second query itself");
    assert_eq!(accepted.load(Ordering::SeqCst), 1, "on the connection the late reply came in on");
    r.shutdown();
}

/// `geosir_router_shard_latency_us` is each shard's own sub-request
/// write → accepted reply. With shard 0 held up by a silent primary
/// (every read waits out the hedge) and shard 1 healthy, shard 0's
/// histogram sits at the hedge window and shard 1's stays small — but
/// never below what shard 1's server itself reports having spent, which
/// is what a stopwatch started late (when an in-order gather loop
/// *reached* shard 1, its reply long since waiting) used to read.
#[test]
fn shard_latency_is_each_shards_own() {
    let dir = tmpdir("latency");
    let replica = node();
    let fast = node();
    let hedge = Duration::from_millis(60);
    let r = router(
        vec![
            ShardSpec { primary: black_hole(), replicas: vec![replica.addr()] },
            solo(fast.addr()),
        ],
        RouterConfig {
            hedge_after: hedge,
            // a struck-out silent primary would stop costing the hedge
            breaker_threshold: 100,
            slow_query_log: Some(dir.join("router")),
            slow_query_us: 0,
            ..RouterConfig::default()
        },
    );
    let mut rng = StdRng::seed_from_u64(2);
    let mut c = Client::connect(r.addr()).unwrap();
    const QUERIES: u64 = 6;
    for _ in 0..QUERIES {
        let reply = c.query(&polygon(&mut rng), 3).unwrap();
        assert_eq!((reply.shards_ok, reply.shards_total), (2, 2));
    }
    let snap = r.registry().snapshot();
    let lat = |shard: &str| {
        snap.histogram("geosir_router_shard_latency_us", &[("shard", shard)])
            .unwrap_or_else(|| panic!("no latency histogram for shard {shard}"))
            .clone()
    };
    let (slow, quick) = (lat("0"), lat("1"));
    assert_eq!((slow.count(), quick.count()), (QUERIES, QUERIES));
    let hedge_us = hedge.as_micros() as u64;
    assert!(slow.quantile(0.5) >= hedge_us * 9 / 10, "slow shard p50 {}", slow.quantile(0.5));
    assert!(quick.quantile(0.5) < hedge_us / 2, "fast shard p50 {}", quick.quantile(0.5));

    // the fast shard's own account of the same queries, from the
    // trailer each reply echoed into the router's slow log
    let routed = |text: &str| text.matches("\"kind\":\"routed_query\"").count() as u64;
    assert!(poll_until(Duration::from_secs(5), || {
        routed(&slow_log_text(&dir.join("router"))) == QUERIES
    }));
    let text = slow_log_text(&dir.join("router"));
    let mut server_side = 0u64;
    for line in text.lines().filter(|l| l.contains("\"kind\":\"routed_query\"")) {
        let at = line.find("\"shard1_srv_us\":").expect("trailer joined in") + 16;
        let digits: String = line[at..].chars().take_while(|c| c.is_ascii_digit()).collect();
        server_side += digits.parse::<u64>().unwrap();
    }
    let router_side = (quick.mean() * quick.count() as f64).round() as u64;
    assert!(
        router_side >= server_side,
        "router saw {router_side} us in total where the shard itself spent {server_side} us"
    );
    r.shutdown();
    replica.shutdown();
    fast.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
