//! End-to-end server tests over real TCP loopback connections:
//! snapshot-epoch monotonicity under concurrent writes, deterministic
//! `Busy` shedding on a full queue (no hang), and graceful shutdown that
//! drains every admitted request.

mod common;

use common::{poll_until, polygon};

use std::time::{Duration, Instant};

use geosir_core::dynamic::DynamicBase;
use geosir_core::ids::ImageId;
use geosir_core::matcher::MatchConfig;
use geosir_geom::{Point, Polyline};
use geosir_serve::wire::error_code;
use geosir_serve::{serve, Client, Frame, PipelinedClient, ServeConfig, WireError, WireShape};
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

/// Queries racing a stream of inserts: every connection must observe a
/// non-decreasing epoch sequence, and a write reply's epoch must be
/// visible to the writer's own next query (read-your-writes).
#[test]
fn epochs_are_monotonic_per_connection_under_concurrent_writes() {
    let (base, shapes) = base_with(32, 8, 11);
    let handle = serve("127.0.0.1:0", base, ServeConfig::default()).unwrap();
    let addr = handle.addr();

    let writer = std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(99);
        let mut client = Client::connect(addr).unwrap();
        let mut last_epoch = 0u64;
        for i in 0..40u32 {
            let shape = polygon(&mut rng);
            if let Some((epoch, _id)) = client.insert(1000 + i, &shape).unwrap() {
                assert!(epoch >= last_epoch, "write epochs regressed: {last_epoch} -> {epoch}");
                // read-your-writes: the same connection's next query must
                // run against the published write (or something newer)
                let reply = client.query(&shape, 1).unwrap();
                if !reply.rejected {
                    assert!(
                        reply.epoch >= epoch,
                        "query epoch {} older than acknowledged write {epoch}",
                        reply.epoch
                    );
                }
                last_epoch = epoch;
            }
        }
        last_epoch
    });

    let mut readers = Vec::new();
    for r in 0..2 {
        let queries = shapes.clone();
        readers.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            let mut last_epoch = 0u64;
            for q in queries.iter().cycle().take(60 + r) {
                let reply = client.query(q, 2).unwrap();
                if reply.rejected {
                    continue;
                }
                assert!(
                    reply.epoch >= last_epoch,
                    "reader saw epoch regress: {last_epoch} -> {}",
                    reply.epoch
                );
                last_epoch = reply.epoch;
            }
            last_epoch
        }));
    }

    let final_write_epoch = writer.join().unwrap();
    assert!(final_write_epoch > 0, "no insert was admitted");
    for r in readers {
        r.join().unwrap();
    }
    let stats = handle.stats();
    assert!(stats.inserts > 0 && stats.queries > 0);
    assert!(stats.snapshots_published > 0);
    handle.shutdown();
    handle.join();
}

/// workers = 1, queue_cap = 1: with the worker pinned on a long batch and
/// one query parked in the queue, the next query must get `Busy`
/// immediately rather than block.
#[test]
fn full_queue_sheds_busy_instead_of_hanging() {
    let (base, shapes) = base_with(64, 64, 22);
    let cfg = ServeConfig { workers: 1, queue_cap: 1, ..Default::default() };
    let handle = serve("127.0.0.1:0", base, cfg).unwrap();
    let addr = handle.addr();

    // A: a batch large enough to pin the single worker for seconds
    let batch: Vec<Polyline> = shapes.iter().cycle().take(400).cloned().collect();
    let pin = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.query_batch(&batch, 1).unwrap()
    });

    // wait until the worker is demonstrably mid-batch (per-query counter)
    assert!(
        poll_until(Duration::from_secs(30), || handle.stats().queries >= 1),
        "worker never started the pinned batch"
    );

    // B: parks one query in the (size-1) queue
    let probe = shapes[0].clone();
    let parked = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        client.query(&probe, 1).unwrap()
    });
    assert!(
        poll_until(Duration::from_secs(30), || handle.stats().queue_depth >= 1),
        "second query never queued"
    );

    // C: the queue is full — this must come back Busy, fast
    let mut c = Client::connect(addr).unwrap();
    let start = Instant::now();
    let reply = c.query(&shapes[1], 1).unwrap();
    assert!(reply.rejected, "expected Busy from a full queue, got a served reply");
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "Busy took {:?} — shedding must not wait on the worker",
        start.elapsed()
    );
    assert!(handle.stats().busy_rejects >= 1);

    // the pinned batch and the parked query still complete normally
    let results = pin.join().unwrap().results;
    assert_eq!(results.len(), 400);
    assert!(!parked.join().unwrap().rejected);

    handle.shutdown();
    handle.join();
}

/// Shutdown must drain: a request admitted before the `Shutdown` frame
/// still gets its real reply; requests after it are refused; `join`
/// returns.
#[test]
fn graceful_shutdown_drains_admitted_requests() {
    let (base, shapes) = base_with(64, 64, 33);
    let cfg = ServeConfig { workers: 1, queue_cap: 4, ..Default::default() };
    let handle = serve("127.0.0.1:0", base, cfg).unwrap();
    let addr = handle.addr();

    // On one connection: two batches to pin the worker, the parked query,
    // and a write as a fence — the writer answers it at once, and its
    // reply proves the three reads before it admitted. The queue is FIFO,
    // so while it holds anything it holds the last read admitted, the
    // parked query. Pin again until it is seen so (a pin of any fixed
    // length can be over first, in a release build).
    let batch: Vec<WireShape> = shapes.iter().cycle().take(300).map(WireShape::from_polyline).collect();
    let mut c = PipelinedClient::connect(addr).unwrap();
    let (pins, parked) = loop {
        let pin = || Frame::QueryBatch { k: 1, shapes: batch.clone() };
        let pins = [c.submit(&pin()).unwrap(), c.submit(&pin()).unwrap()];
        let parked = c.submit_query(&shapes[0], 1).unwrap();
        let fence = c.submit(&Frame::Delete { id: u64::MAX }).unwrap();
        assert!(matches!(c.recv(fence).unwrap(), Frame::Deleted { existed: false, .. }));
        if handle.stats().queue_depth >= 1 {
            break (pins, parked);
        }
        for corr in pins.into_iter().chain([parked]) {
            c.recv(corr).unwrap();
        }
    };

    // shutdown over the wire: Bye acknowledges it
    let mut killer = Client::connect(addr).unwrap();
    killer.shutdown().unwrap();
    assert!(handle.is_shutting_down());

    // every admitted request drains to its real reply
    for pin in pins {
        match c.recv(pin).unwrap() {
            Frame::BatchMatches { results, .. } => assert_eq!(results.len(), 300),
            other => panic!("admitted batch was dropped during drain: {other:?}"),
        }
    }
    match c.recv(parked).unwrap() {
        Frame::Matches { matches, .. } => assert!(!matches.is_empty()),
        other => panic!("admitted request was dropped during drain: {other:?}"),
    }

    // every thread exits
    handle.join();
}

/// A malformed frame gets an `Error` reply and a dropped connection —
/// the server keeps serving everyone else.
#[test]
fn malformed_frame_poisons_only_its_own_connection() {
    use std::io::{Read as _, Write as _};

    let (base, shapes) = base_with(16, 16, 44);
    let handle = serve("127.0.0.1:0", base, ServeConfig::default()).unwrap();
    let addr = handle.addr();

    // hand-rolled garbage: a full header with a bad version byte (exactly
    // header-sized, so the server's close is a clean FIN, not an RST)
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    raw.write_all(&[0xFF, 0, 0, 0, 0, 0]).unwrap();
    let mut reply = Vec::new();
    raw.read_to_end(&mut reply).unwrap(); // server replies Error then closes
    assert!(!reply.is_empty(), "expected an Error frame before the close");

    // a well-behaved client on another connection is unaffected
    let mut client = Client::connect(addr).unwrap();
    let reply = client.query(&shapes[0], 1).unwrap();
    assert!(!reply.rejected);
    assert!(handle.stats().protocol_errors >= 1);

    handle.shutdown();
    handle.join();
}

/// The approximate tier end to end: a corpus shape queried back through
/// `QueryApprox` must come back as the top hit, and the reply's tier
/// report must show the signature index actually narrowing the
/// candidate set (tier=approx, candidates < corpus).
#[test]
fn query_approx_round_trip_reports_tier_and_funnel() {
    let (base, shapes) = base_with(64, 8, 17);
    let handle = serve("127.0.0.1:0", base, ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();

    for (i, shape) in shapes.iter().take(8).enumerate() {
        let reply = client.similar_approx(shape, 3, 0, 0).unwrap();
        assert!(!reply.rejected);
        assert!(
            reply.matches.iter().any(|m| m.shape == i as u64),
            "self-query {i} missing from approx results: {:?}",
            reply.matches
        );
        assert!(reply.corpus_copies > 0);
        assert!(reply.candidates <= reply.corpus_copies);
        assert!(reply.reranked <= reply.candidates);
        if reply.tier == geosir_core::AnswerTier::Approx {
            assert!(reply.buckets_probed > 0, "approx tier must have probed buckets");
        }
    }

    // metrics surface: the bucket gauges and the core-side approx
    // counters must be visible after serving approx queries
    let snap = client.metrics().unwrap();
    assert!(snap.gauge("geosir_approx_buckets", &[]) > 0);
    assert!(snap.counter("geosir_approx_queries_total", &[]) >= 8);
    // the rerank read the query's lower-bound raster, and it rejected
    // candidates past the k-th best self-match
    assert!(snap.counter("geosir_approx_bound_rejects_total", &[]) > 0);

    handle.shutdown();
    handle.join();
}

/// An empty base cannot answer from the signature index: the reply must
/// say the exact tier handled it instead of pretending to probe.
#[test]
fn query_approx_on_empty_base_reports_exact_tier() {
    let base = DynamicBase::new(
        0.0,
        MatchConfig { beta: 0.2, ..Default::default() },
        8,
    );
    let handle = serve("127.0.0.1:0", base, ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let reply = client.similar_approx(&polygon(&mut rng), 3, 0, 0).unwrap();
    assert_eq!(reply.tier, geosir_core::AnswerTier::Exact);
    assert!(reply.matches.is_empty());
    handle.shutdown();
    handle.join();
}

/// Normalizing divides by the squared diameter: a shape whose squared
/// extent is not a finite f64 (coordinates ≈ 1.34e154 apart) would
/// collapse to a point and match whatever is nearest one. An insert and a
/// query at 1e154 get an error reply and change nothing; below that the
/// answer is scale-free — a query scaled by 1e150 returns the ids it
/// returns at scale 1.
#[test]
fn shapes_whose_squared_extent_overflows_are_refused() {
    let (base, shapes) = base_with(40, 8, 23);
    let handle = serve("127.0.0.1:0", base, ServeConfig::default()).unwrap();
    let mut client = Client::connect(handle.addr()).unwrap();
    let scaled = |s: &Polyline, by: f64| {
        Polyline::closed(s.points().iter().map(|p| Point::new(p.x * by, p.y * by)).collect())
            .expect("a scaled polygon is still simple")
    };
    let q = &shapes[7];
    let mut ids = |shape: &Polyline| -> Vec<u64> {
        client.query(shape, 3).unwrap().matches.iter().map(|m| m.shape).collect()
    };
    let unit = ids(q);
    assert_eq!(unit.len(), 3);
    assert_eq!(unit[0], 7, "the query is a stored shape");
    assert_eq!(ids(&scaled(q, 1e150)), unit);

    let huge = scaled(q, 1e154);
    let refused = [client.insert(100, &huge).map(|_| ()), client.query(&huge, 3).map(|_| ())];
    for reply in refused {
        match reply {
            Err(WireError::Server { code, .. }) => assert_eq!(code, error_code::BAD_SHAPE),
            other => panic!("a shape at 1e154 was not refused: {other:?}"),
        }
    }
    assert_eq!(client.stats().unwrap().live_shapes, 40, "the refused insert left no shape");
    handle.shutdown();
    handle.join();
}
