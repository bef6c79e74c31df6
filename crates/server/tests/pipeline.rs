//! Socket-level tests for the readiness-driven serve path: fragmented
//! frame delivery (one-byte dribble, many-frames-in-one-write),
//! pipelining with out-of-order reply matching by correlation id,
//! hostile frames against a live server, and the `Busy` hint on the
//! batch path.

mod common;

use common::{poll_until, polygon};

use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use geosir_core::dynamic::DynamicBase;
use geosir_core::ids::ImageId;
use geosir_core::matcher::MatchConfig;
use geosir_geom::Polyline;
use geosir_serve::{serve, Client, ClientConfig, PipelinedClient, ServeConfig};
use geosir_serve::{Frame, WireShape, PROTOCOL_VERSION};
use rand::prelude::*;
use rand::rngs::StdRng;

fn base_with(n: usize, buffer_cap: usize, seed: u64) -> (DynamicBase, Vec<Polyline>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let shapes: Vec<Polyline> = (0..n).map(|_| polygon(&mut rng)).collect();
    let mut base = DynamicBase::new(
        0.0,
        MatchConfig { beta: 0.2, ..Default::default() },
        buffer_cap,
    );
    base.bulk_load(shapes.iter().enumerate().map(|(i, s)| (ImageId(i as u32), s.clone())));
    (base, shapes)
}

/// Satellite: a pipelined request stream dribbled one byte at a time
/// must still be framed correctly — every request gets its reply, in
/// order, on the same connection.
#[test]
fn one_byte_dribble_over_live_socket() {
    let (base, shapes) = base_with(16, 16, 101);
    let handle = serve("127.0.0.1:0", base, ServeConfig::default()).unwrap();

    let mut wire = Vec::new();
    let n = 4usize;
    for (i, shape) in shapes.iter().take(n).enumerate() {
        Frame::Query { k: 1, trace: 0, shape: WireShape::from_polyline(shape) }
            .encode_versioned(PROTOCOL_VERSION, (i + 1) as u64, &mut wire);
    }

    let mut sock = TcpStream::connect(handle.addr()).unwrap();
    sock.set_nodelay(true).unwrap();
    let reader = sock.try_clone().unwrap();
    let writer = std::thread::spawn(move || {
        for b in wire {
            sock.write_all(&[b]).unwrap();
            // tiny stalls force the server through many partial reads
            std::thread::sleep(Duration::from_micros(200));
        }
        sock
    });

    let mut reader = reader;
    let mut seen = vec![false; n];
    for _ in 0..n {
        let (frame, corr) = Frame::read_from_corr(&mut reader).unwrap();
        let i = (corr - 1) as usize;
        assert!(!std::mem::replace(&mut seen[i], true), "duplicate reply for corr {corr}");
        match frame {
            Frame::Matches { matches, .. } => {
                assert_eq!(matches[0].image, i as u32, "query {i} matched the wrong shape");
            }
            other => panic!("expected Matches, got {other:?}"),
        }
    }
    assert!(seen.iter().all(|&s| s), "every dribbled request must be answered");
    drop(writer.join().unwrap());
    handle.shutdown();
    handle.join();
}

/// Satellite: many frames landing in a single `write` must all be
/// answered — the server peels every complete frame out of one read.
#[test]
fn many_frames_in_one_write_over_live_socket() {
    let (base, shapes) = base_with(16, 16, 102);
    let handle = serve("127.0.0.1:0", base, ServeConfig::default()).unwrap();

    let n = 8usize;
    let mut wire = Vec::new();
    for (i, shape) in shapes.iter().take(n).enumerate() {
        Frame::Query { k: 1, trace: 0, shape: WireShape::from_polyline(shape) }
            .encode_versioned(PROTOCOL_VERSION, (100 + i) as u64, &mut wire);
    }

    let mut sock = TcpStream::connect(handle.addr()).unwrap();
    sock.set_nodelay(true).unwrap();
    sock.write_all(&wire).unwrap();

    let mut seen = vec![false; n];
    for _ in 0..n {
        let (frame, corr) = Frame::read_from_corr(&mut sock).unwrap();
        let i = (corr - 100) as usize;
        assert!(!std::mem::replace(&mut seen[i], true), "duplicate reply for corr {corr}");
        match frame {
            Frame::Matches { matches, .. } => assert_eq!(matches[0].image, i as u32),
            other => panic!("expected Matches, got {other:?}"),
        }
    }
    assert!(seen.iter().all(|&s| s), "every pipelined request must be answered");
    handle.shutdown();
    handle.join();
}

/// Satellite: N in-flight queries on one connection, collected in
/// *reverse* submission order — replies are matched purely by
/// correlation id, so out-of-order completion (multiple workers, no
/// coalescing) cannot misdeliver.
#[test]
fn pipelined_replies_match_corr_ids_out_of_order() {
    let (base, shapes) = base_with(24, 16, 103);
    // several workers + no coalescing: jobs scatter and finish in
    // whatever order the scheduler picks
    let cfg = ServeConfig { workers: 4, coalesce_max: 1, ..Default::default() };
    let handle = serve("127.0.0.1:0", base, cfg).unwrap();

    let mut client = PipelinedClient::connect(handle.addr()).unwrap();
    let depth = 16usize;
    let mut corrs = Vec::new();
    for shape in shapes.iter().take(depth) {
        corrs.push(client.submit_query(shape, 1).unwrap());
    }
    assert_eq!(client.in_flight(), depth);

    // collect in reverse submit order: every reply must still be the
    // one for its id, identified by the query's own top match
    for (i, corr) in corrs.iter().enumerate().rev() {
        match client.recv(*corr).unwrap() {
            Frame::Matches { matches, .. } => {
                assert_eq!(
                    matches[0].image, i as u32,
                    "corr {corr} delivered another query's reply"
                );
            }
            other => panic!("expected Matches, got {other:?}"),
        }
    }
    assert_eq!(client.in_flight(), 0);

    // the coalesced-batch histogram sees singleton pops only
    let snap = client_metrics(handle.addr());
    assert!(snap.histogram("geosir_coalesced_batch", &[]).map(|h| h.count()).unwrap_or(0) >= 1);
    handle.shutdown();
    handle.join();
}

/// `recv_any` drains a deep pipeline in completion order without losing
/// or duplicating replies.
#[test]
fn recv_any_accounts_for_every_reply() {
    let (base, shapes) = base_with(16, 16, 104);
    let cfg = ServeConfig { workers: 2, ..Default::default() };
    let handle = serve("127.0.0.1:0", base, cfg).unwrap();

    let mut client = PipelinedClient::connect(handle.addr()).unwrap();
    let mut expected = std::collections::HashMap::new();
    for (i, shape) in shapes.iter().enumerate() {
        expected.insert(client.submit_query(shape, 1).unwrap(), i as u32);
    }
    while client.in_flight() > 0 {
        let (corr, frame) = client.recv_any().unwrap();
        let want = expected.remove(&corr).expect("unknown or duplicated correlation id");
        match frame {
            Frame::Matches { matches, .. } => assert_eq!(matches[0].image, want),
            other => panic!("expected Matches, got {other:?}"),
        }
    }
    assert!(expected.is_empty());
    handle.shutdown();
    handle.join();
}

/// There is one layout, and no payload a checksum vouches for can take
/// the loop thread down: another version byte (the one before, the one
/// after) or a payload the decoder must refuse each get one
/// `Error{MALFORMED}` and a close, are counted, and leave the server
/// serving pipelined traffic on the next connection.
#[test]
fn hostile_frames_get_one_malformed_error_then_close() {
    let (base, shapes) = base_with(8, 8, 105);
    let handle = serve("127.0.0.1:0", base, ServeConfig::default()).unwrap();

    common::three_hostile_connections(handle.addr());
    assert_eq!(handle.stats().protocol_errors, 3);
    assert_eq!(client_metrics(handle.addr()).counter("geosir_protocol_errors_total", &[]), 3);

    let mut client = PipelinedClient::connect(handle.addr()).unwrap();
    let corrs: Vec<u64> = shapes.iter().map(|s| client.submit_query(s, 1).unwrap()).collect();
    for (i, corr) in corrs.iter().enumerate() {
        match client.recv(*corr).unwrap() {
            Frame::Matches { matches, .. } => assert_eq!(matches[0].image, i as u32),
            other => panic!("expected Matches, got {other:?}"),
        }
    }
    handle.shutdown();
    handle.join();
}

/// Satellite: the batch path surfaces the server's `Busy` retry hint
/// (like single queries and inserts do), and `query_batch_retrying`
/// rides the hint to an eventual success.
#[test]
fn query_batch_surfaces_busy_hint_and_retries() {
    let (base, shapes) = base_with(64, 64, 106);
    let cfg = ServeConfig { workers: 1, queue_cap: 1, ..Default::default() };
    let handle = serve("127.0.0.1:0", base, cfg).unwrap();
    let addr = handle.addr();

    // Pin the single worker and fill its size-1 queue for as long as the
    // probe needs them so: two clients, a batch each, over and over —
    // however fast this build answers one (a pin of any fixed length is
    // over before the queue is looked at, in a release build).
    let load: Vec<Polyline> = shapes.iter().cycle().take(100).cloned().collect();
    let shed_seen = Arc::new(AtomicBool::new(false));
    let loaders: Vec<_> = (0..2)
        .map(|_| {
            let (load, shed_seen) = (load.clone(), shed_seen.clone());
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut served = 0;
                while !shed_seen.load(Ordering::SeqCst) {
                    let reply = client.query_batch(&load, 1).unwrap();
                    if reply.rejected {
                        std::thread::sleep(Duration::from_millis(1));
                    } else {
                        assert_eq!(reply.results.len(), load.len());
                        served += 1;
                    }
                }
                served
            })
        })
        .collect();
    assert!(poll_until(Duration::from_secs(30), || handle.stats().queue_depth >= 1));

    // full queue: the batch reply carries the shed flag and a hint
    let mut c = Client::connect(addr).unwrap();
    let probe: Vec<Polyline> = shapes.iter().take(2).cloned().collect();
    let mut hint = 0;
    assert!(
        poll_until(Duration::from_secs(30), || {
            let reply = c.query_batch(&probe, 1).unwrap();
            hint = reply.retry_after_ms;
            reply.rejected
        }),
        "expected Busy on the batch path"
    );
    assert!(hint > 0, "shed batch must carry the retry-after hint");
    // one batch is still being answered and one still queued
    shed_seen.store(true, Ordering::SeqCst);

    // the retrying variant waits the hint out and eventually lands
    let cfg = ClientConfig {
        retries: 200,
        retry_base: Duration::from_millis(20),
        retry_cap: Duration::from_millis(250),
    };
    let mut retrier = Client::connect_with(addr, cfg).unwrap();
    let served = retrier.query_batch_retrying(&probe, 1).unwrap();
    assert!(!served.rejected);
    assert_eq!(served.results.len(), 2);

    let served: u32 = loaders.into_iter().map(|l| l.join().unwrap()).sum();
    assert!(served >= 2, "the load itself was served: {served} batches");
    handle.shutdown();
    handle.join();
}

/// Query coalescing: a burst of concurrent single-shot queries is
/// answered correctly (content-checked) and the coalesced-batch
/// histogram records multi-job pops when the queue backs up.
#[test]
fn coalesced_queries_answer_correctly() {
    let (base, shapes) = base_with(32, 16, 107);
    let cfg = ServeConfig { workers: 1, coalesce_max: 16, ..Default::default() };
    let handle = serve("127.0.0.1:0", base, cfg).unwrap();

    // one pipelined connection bursts 24 queries at a single worker —
    // most pops should coalesce several queued jobs
    let mut client = PipelinedClient::connect(handle.addr()).unwrap();
    let mut corrs = Vec::new();
    for (i, shape) in shapes.iter().take(24).enumerate() {
        corrs.push((client.submit_query(shape, 1).unwrap(), i as u32));
    }
    for (corr, want) in &corrs {
        match client.recv(*corr).unwrap() {
            Frame::Matches { matches, .. } => assert_eq!(matches[0].image, *want),
            other => panic!("expected Matches, got {other:?}"),
        }
    }

    let snap = client_metrics(handle.addr());
    let pops = snap.histogram("geosir_coalesced_batch", &[]).map(|h| h.count()).unwrap_or(0);
    assert!(pops >= 1, "worker must record coalesced pop sizes");
    handle.shutdown();
    handle.join();
}

/// One read body, one record: what a reply's trailer says reconciles
/// with what its client saw. A burst of 16 exact queries at one worker
/// is answered one by one — each reply's `total_us` is its client's own
/// stopwatch less the transport, the last one waited for everybody's
/// service, and the latency series is fed the very number the trailer
/// carries. (The coalesced run this replaces held all 16 replies to the
/// end and reported an equal share of the run: ≈ 2 of 30 ms.)
#[test]
fn burst_trailers_reconcile_with_the_clients_stopwatch() {
    let (base, shapes) = base_with(1500, 1500, 108);
    let cfg = ServeConfig { workers: 1, ..Default::default() };
    let handle = serve("127.0.0.1:0", base, cfg).unwrap();

    let mut client = PipelinedClient::connect(handle.addr()).unwrap();
    let burst = 16usize;
    for shape in shapes.iter().take(burst) {
        client.submit_query(shape, 10).unwrap();
    }
    // the 16 frames leave in one write, so one instant starts them all
    let sent = Instant::now();
    client.flush().unwrap();
    let mut seen = Vec::new(); // (client µs, trailer), in arrival order
    while client.in_flight() > 0 {
        match client.recv_any().unwrap().1 {
            Frame::Matches { trailer, .. } => {
                let t = trailer.expect("a node's reply carries its stage trailer");
                seen.push((sent.elapsed().as_micros() as u64, t));
            }
            other => panic!("expected Matches, got {other:?}"),
        }
    }
    assert_eq!(seen.len(), burst);

    let wall_us = seen.last().unwrap().0;
    for (i, (client_us, t)) in seen.iter().enumerate() {
        assert!(t.queue_us <= t.total_us && t.total_us <= *client_us, "reply {i}: {t:?}");
        assert!(
            client_us - t.total_us <= wall_us / 4,
            "reply {i} reached its client at {client_us} µs saying it took {} µs ({wall_us} µs burst)",
            t.total_us
        );
    }
    let service_us: u64 = seen.iter().map(|(_, t)| t.total_us - t.queue_us).sum();
    let last = seen.iter().map(|(_, t)| t.total_us).max().unwrap();
    assert!(
        2 * last >= service_us,
        "the last reply waited for the whole burst's service: {last} µs vs Σ {service_us} µs"
    );
    let trailers_us: u64 = seen.iter().map(|(_, t)| t.total_us).sum();
    let latency = handle.registry().histogram("geosir_request_latency_us", &[("type", "query")]);
    assert_eq!((latency.count(), latency.sum()), (burst as u64, trailers_us));
    handle.shutdown();
    handle.join();
}

/// Popping jobs together changes no answer: the same 24-query burst
/// against `coalesce_max` 1 and 16 returns identical `(id, score bits)`
/// lists per correlation id.
#[test]
fn coalesced_pops_change_no_answer() {
    let answers = |coalesce_max: usize| {
        let (base, shapes) = base_with(64, 16, 109);
        let cfg = ServeConfig { workers: 1, coalesce_max, ..Default::default() };
        let handle = serve("127.0.0.1:0", base, cfg).unwrap();
        let mut client = PipelinedClient::connect(handle.addr()).unwrap();
        let corrs: Vec<u64> =
            shapes.iter().take(24).map(|s| client.submit_query(s, 5).unwrap()).collect();
        let lists: Vec<(u64, Vec<(u64, u64)>)> = corrs
            .into_iter()
            .map(|corr| match client.recv(corr).unwrap() {
                Frame::Matches { matches, .. } => {
                    (corr, matches.iter().map(|m| (m.shape, m.score.to_bits())).collect())
                }
                other => panic!("expected Matches, got {other:?}"),
            })
            .collect();
        let pops = handle.registry().histogram("geosir_coalesced_batch", &[]);
        handle.shutdown();
        handle.join();
        (lists, pops.sum() > pops.count())
    };
    let (alone, alone_coalesced) = answers(1);
    let (together, coalesced) = answers(16);
    assert!(!alone_coalesced && coalesced, "the two legs must differ in their pops");
    assert!(alone.iter().all(|(_, hits)| hits.len() == 5));
    assert_eq!(alone, together);
}

fn client_metrics(addr: std::net::SocketAddr) -> geosir_serve::obs::Snapshot {
    let mut c = Client::connect(addr).unwrap();
    c.metrics().unwrap()
}

/// Pipelined `QueryApprox` frames interleave with plain queries on one
/// connection: every correlation id gets its matching reply type, with
/// the approx replies carrying a coherent tier report.
#[test]
fn pipelined_query_approx_interleaves_with_plain_queries() {
    let (base, shapes) = base_with(32, 8, 23);
    let handle = serve("127.0.0.1:0", base, ServeConfig::default()).unwrap();
    let mut pc = PipelinedClient::connect(handle.addr()).unwrap();

    let mut approx_corrs = Vec::new();
    let mut plain_corrs = Vec::new();
    for (i, shape) in shapes.iter().take(12).enumerate() {
        if i % 2 == 0 {
            approx_corrs.push((pc.submit_query_approx(shape, 2, 0, 0).unwrap(), i as u64));
        } else {
            plain_corrs.push((pc.submit_query(shape, 2).unwrap(), i as u64));
        }
    }
    pc.flush().unwrap();
    for (corr, want) in approx_corrs {
        match pc.recv(corr).unwrap() {
            Frame::ApproxMatches { candidates, corpus_copies, matches, .. } => {
                assert!(candidates <= corpus_copies);
                assert!(
                    matches.iter().any(|m| m.shape == want),
                    "approx corr {corr} lost shape {want}"
                );
            }
            other => panic!("corr {corr}: want ApproxMatches, got {other:?}"),
        }
    }
    for (corr, want) in plain_corrs {
        match pc.recv(corr).unwrap() {
            Frame::Matches { matches, .. } => {
                assert!(
                    matches.iter().any(|m| m.shape == want),
                    "plain corr {corr} lost shape {want}"
                );
            }
            other => panic!("corr {corr}: want Matches, got {other:?}"),
        }
    }
    assert_eq!(pc.in_flight(), 0);
    handle.shutdown();
    handle.join();
}
