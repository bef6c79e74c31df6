//! Wire-protocol safety net: property round-trips over every frame type
//! plus malformed-input handling. The codec must reject garbage with a
//! clean [`WireError`] — never panic, never over-allocate.

mod common;

use common::{fnv1a_ref, reframe, PAYLOAD_AT};
use proptest::prelude::*;
use rand::prelude::*;

use geosir_serve::wire::{
    Frame, ServerStats, ShardInfo, StageTrailer, WireError, WireMatch, WireShape,
    WireShardStatus, PROTOCOL_VERSION,
};

fn rand_shape(rng: &mut StdRng) -> WireShape {
    let n = rng.random_range(0..12usize);
    WireShape {
        closed: rng.random(),
        points: (0..n)
            .map(|_| (rng.random_range(-100.0..100.0), rng.random_range(-100.0..100.0)))
            .collect(),
    }
}

fn rand_matches(rng: &mut StdRng) -> Vec<WireMatch> {
    let n = rng.random_range(0..8usize);
    (0..n)
        .map(|_| WireMatch {
            shape: rng.random(),
            image: rng.random(),
            score: rng.random_range(0.0..10.0),
        })
        .collect()
}

fn rand_shards(rng: &mut StdRng) -> ShardInfo {
    let total = rng.random_range(1..16u16);
    ShardInfo { ok: rng.random_range(0..=total), total }
}

fn rand_trailer(rng: &mut StdRng) -> Option<StageTrailer> {
    if rng.random() {
        Some(StageTrailer { total_us: rng.random(), queue_us: rng.random() })
    } else {
        None
    }
}

fn rand_addr(rng: &mut StdRng) -> String {
    format!("127.0.0.1:{}", rng.random_range(1024..u16::MAX))
}

fn rand_topology(rng: &mut StdRng) -> Vec<WireShardStatus> {
    (0..rng.random_range(0..5u16))
        .map(|shard| WireShardStatus {
            shard,
            primary: rand_addr(rng),
            primary_state: rng.random_range(0..3),
            replicas: (0..rng.random_range(0..3usize))
                .map(|_| (rand_addr(rng), rng.random_range(0..3)))
                .collect(),
            lag_records: rng.random(),
            lag_ms: rng.random(),
        })
        .collect()
}

fn rand_stats(rng: &mut StdRng) -> ServerStats {
    ServerStats {
        epoch: rng.random(),
        live_shapes: rng.random(),
        levels: rng.random_range(0..32),
        requests: rng.random(),
        queries: rng.random(),
        inserts: rng.random(),
        deletes: rng.random(),
        busy_rejects: rng.random(),
        protocol_errors: rng.random(),
        latency_p50_us: rng.random(),
        latency_p99_us: rng.random(),
        snapshots_published: rng.random(),
        publish_p50_us: rng.random(),
        publish_p99_us: rng.random(),
        snapshot_age_us: rng.random(),
        queue_depth: rng.random(),
        read_only: rng.random_range(0..2),
        wal_appends: rng.random(),
        wal_syncs: rng.random(),
        fsync_p50_us: rng.random(),
        fsync_p99_us: rng.random(),
        checkpoints: rng.random(),
        checkpoint_failures: rng.random(),
        last_recovery_us: rng.random(),
        io_errors: rng.random(),
    }
}

fn rand_explain(rng: &mut StdRng) -> geosir_core::dynamic::QueryExplain {
    use geosir_core::dynamic::{LevelExplain, QueryExplain};
    let mut e = QueryExplain::default();
    // `scan_survivors` stays in-process: the wire has no word for it
    e.stats.levels = rng.random();
    e.stats.scan_copies = rng.random();
    e.stats.buffer_scored = rng.random();
    for _ in 0..rng.random_range(0..4usize) {
        e.levels.push(LevelExplain {
            shapes: rng.random(),
            // ∞ is what an unseeded scan reports as its starting cutoff
            cutoff: if rng.random_bool(0.2) { f64::INFINITY } else { rng.random_range(0.0..10.0) },
            scored: rng.random(),
            settled: rng.random(),
        });
    }
    e
}

/// One random frame of each variant family, chosen by `pick`.
fn rand_frame(pick: u8, rng: &mut StdRng) -> Frame {
    match pick % 22 {
        0 => Frame::Query { k: rng.random_range(0..64), trace: rng.random(), shape: rand_shape(rng) },
        1 => Frame::QueryBatch {
            k: rng.random_range(0..64),
            shapes: (0..rng.random_range(0..5usize)).map(|_| rand_shape(rng)).collect(),
        },
        2 => Frame::Insert {
            image: rng.random(),
            key: rng.random(),
            trace: rng.random(),
            shape: rand_shape(rng),
        },
        3 => Frame::Delete { id: rng.random() },
        4 => Frame::Stats,
        5 => Frame::Shutdown,
        6 => Frame::Matches {
            epoch: rng.random(),
            shards: rand_shards(rng),
            trailer: rand_trailer(rng),
            matches: rand_matches(rng),
        },
        7 => Frame::BatchMatches {
            epoch: rng.random(),
            results: (0..rng.random_range(0..4usize)).map(|_| rand_matches(rng)).collect(),
        },
        8 => Frame::Inserted { epoch: rng.random(), id: rng.random() },
        9 => Frame::Deleted { epoch: rng.random(), existed: rng.random() },
        10 => Frame::StatsReport(rand_stats(rng)),
        11 => Frame::Busy { retry_after_ms: rng.random() },
        12 => Frame::Bye,
        13 => Frame::MetricsDump,
        14 => Frame::MetricsReport {
            snapshot: (0..rng.random_range(0..64usize)).map(|_| rng.random()).collect(),
        },
        15 => Frame::Explain {
            k: rng.random_range(0..64),
            trace: rng.random(),
            shape: rand_shape(rng),
        },
        16 => Frame::ExplainReport {
            epoch: rng.random(),
            trace: rng.random(),
            total_us: rng.random(),
            queue_us: rng.random(),
            matches: rand_matches(rng),
            report: rand_explain(rng),
        },
        17 => Frame::QueryApprox {
            k: rng.random_range(0..64),
            trace: rng.random(),
            max_radius: rng.random(),
            max_candidates: rng.random(),
            shape: rand_shape(rng),
        },
        18 => Frame::ApproxMatches {
            epoch: rng.random(),
            tier: rng.random_range(0..2),
            radius: rng.random(),
            buckets_probed: rng.random(),
            candidates: rng.random(),
            corpus_copies: rng.random(),
            reranked: rng.random(),
            shards: rand_shards(rng),
            trailer: rand_trailer(rng),
            matches: rand_matches(rng),
        },
        19 => Frame::Topology,
        20 => Frame::TopologyReport { shards: rand_topology(rng) },
        _ => Frame::Error {
            code: rng.random(),
            message: String::from_utf8(
                (0..rng.random_range(0..40usize)).map(|_| rng.random_range(32..127u8)).collect(),
            )
            .unwrap(),
        },
    }
}

proptest! {
    #[test]
    fn every_frame_type_round_trips(pick in 0u8..22, seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = rand_frame(pick, &mut rng);
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let (decoded, used) = Frame::decode(&buf).expect("round trip must decode");
        prop_assert_eq!(used, buf.len(), "decode must consume the whole frame");
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn decode_consumes_exactly_one_frame_from_a_stream(seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = rand_frame(rng.random(), &mut rng);
        let b = rand_frame(rng.random(), &mut rng);
        let mut buf = Vec::new();
        a.encode(&mut buf);
        let first_len = buf.len();
        b.encode(&mut buf);
        let (da, used) = Frame::decode(&buf).unwrap();
        prop_assert_eq!(used, first_len);
        prop_assert_eq!(da, a);
        let (db, used_b) = Frame::decode(&buf[used..]).unwrap();
        prop_assert_eq!(used_b, buf.len() - first_len);
        prop_assert_eq!(db, b);
    }

    #[test]
    fn truncation_at_any_point_errors_cleanly(pick in 0u8..22, seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = rand_frame(pick, &mut rng);
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        // every strict prefix must fail without panicking
        for cut in 0..buf.len() {
            prop_assert!(
                Frame::decode(&buf[..cut]).is_err(),
                "prefix of {} / {} bytes decoded successfully", cut, buf.len()
            );
        }
    }

    #[test]
    fn single_byte_corruption_never_panics(seed in 0u64..150) {
        let mut rng = StdRng::seed_from_u64(seed);
        let frame = rand_frame(rng.random(), &mut rng);
        let mut buf = Vec::new();
        frame.encode(&mut buf);
        let idx = rng.random_range(0..buf.len());
        let mut corrupted = buf.clone();
        corrupted[idx] ^= 1 << rng.random_range(0..8u32);
        // outcome may be any error, or (only if the checksum would have to
        // collide) a decode — it must simply not panic or hang
        let _ = Frame::decode(&corrupted);
    }
}

#[test]
fn bad_version_byte_is_rejected() {
    let mut buf = Vec::new();
    Frame::Stats.encode(&mut buf);
    buf[0] = PROTOCOL_VERSION.wrapping_add(1);
    match Frame::decode(&buf) {
        Err(WireError::BadVersion(v)) => assert_eq!(v, PROTOCOL_VERSION.wrapping_add(1)),
        other => panic!("want BadVersion, got {other:?}"),
    }
}

#[test]
fn unknown_frame_type_is_rejected() {
    // integrity check passes (we recompute the checksum), but the
    // discriminant is unassigned
    let mut buf = vec![PROTOCOL_VERSION, 200, 0, 0, 0, 0];
    let sum = fnv1a_ref(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    assert!(matches!(Frame::decode(&buf), Err(WireError::BadType(200))));
}

#[test]
fn corrupted_checksum_is_rejected() {
    let mut buf = Vec::new();
    Frame::Delete { id: 7 }.encode(&mut buf);
    let last = buf.len() - 1;
    buf[last] ^= 0xff;
    assert!(matches!(Frame::decode(&buf), Err(WireError::BadChecksum)));
}

#[test]
fn corrupted_payload_fails_the_checksum() {
    let mut buf = Vec::new();
    Frame::Delete { id: 7 }.encode(&mut buf);
    buf[8] ^= 0xff; // inside the payload
    assert!(matches!(Frame::decode(&buf), Err(WireError::BadChecksum)));
}

#[test]
fn oversized_length_prefix_is_rejected_before_allocation() {
    // header claims a 1 GiB payload; decode must refuse from the 6-byte
    // header alone instead of trying to buffer it
    let mut buf = vec![PROTOCOL_VERSION, 1 /* QUERY */];
    buf.extend_from_slice(&(1u32 << 30).to_le_bytes());
    match Frame::decode(&buf) {
        Err(WireError::Oversized(n)) => assert_eq!(n, 1 << 30),
        other => panic!("want Oversized, got {other:?}"),
    }
}

#[test]
fn oversized_length_prefix_is_rejected_on_read_too() {
    let mut buf = vec![PROTOCOL_VERSION, 1];
    buf.extend_from_slice(&u32::MAX.to_le_bytes());
    let mut cursor = std::io::Cursor::new(buf);
    assert!(matches!(Frame::read_from(&mut cursor), Err(WireError::Oversized(_))));
}

#[test]
fn trailing_garbage_inside_declared_payload_is_malformed() {
    // re-encode Stats (empty payload) with a declared 1-byte payload whose
    // checksum is valid: decode must flag Malformed, not silently ignore
    let mut buf = vec![PROTOCOL_VERSION, 5 /* STATS */];
    buf.extend_from_slice(&1u32.to_le_bytes());
    buf.extend_from_slice(&0u64.to_le_bytes()); // correlation id
    buf.push(0xAB);
    let sum = fnv1a_ref(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    assert!(matches!(Frame::decode(&buf), Err(WireError::Malformed)));
}

#[test]
fn empty_and_tiny_buffers_error() {
    assert!(Frame::decode(&[]).is_err());
    assert!(Frame::decode(&[PROTOCOL_VERSION]).is_err());
    assert!(Frame::decode(&[PROTOCOL_VERSION, 1, 0]).is_err());
}

#[test]
fn read_from_reports_clean_eof() {
    let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
    assert!(matches!(Frame::read_from(&mut cursor), Err(WireError::Io(_))));
}

#[test]
fn non_finite_shape_survives_the_wire_but_fails_polyline_conversion() {
    let shape = WireShape { closed: true, points: vec![(f64::NAN, 0.0), (1.0, 1.0), (0.0, 1.0)] };
    let frame = Frame::Insert { image: 3, key: 41, trace: 9, shape: shape.clone() };
    let mut buf = Vec::new();
    frame.encode(&mut buf);
    let (decoded, _) = Frame::decode(&buf).unwrap();
    match decoded {
        Frame::Insert { shape: s, .. } => {
            // NaN breaks PartialEq, so compare the parts that can be
            assert_eq!(s.points.len(), shape.points.len());
            assert!(s.points[0].0.is_nan());
            assert!(s.to_polyline().is_none(), "NaN vertices must not build a polyline");
        }
        other => panic!("wrong frame {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Hostile payloads under a valid checksum. The truncation and corruption
// properties above stop at the short-buffer and checksum checks; these
// `reframe` the damaged payload so it reaches the payload decoder, which
// any client of a node or a router can do.
// ---------------------------------------------------------------------------

/// Every frame kind over 40 seeds, encoded.
fn every_kind_encoded() -> impl Iterator<Item = Vec<u8>> {
    (0u8..22).flat_map(|pick| {
        (0u64..40).map(move |seed| {
            let mut buf = Vec::new();
            rand_frame(pick, &mut StdRng::seed_from_u64(seed)).encode(&mut buf);
            buf
        })
    })
}

/// A payload cut at any offset is refused, never a panic. The one
/// prefix that is itself a payload — `Matches` / `ApproxMatches` cut
/// where the optional stage trailer begins — must decode to exactly
/// the reply those bytes encode.
#[test]
fn payload_truncation_with_valid_checksum_errors_cleanly() {
    for buf in every_kind_encoded() {
        let payload = &buf[PAYLOAD_AT..buf.len() - 4];
        for cut in 0..payload.len() {
            let hostile = reframe(&buf, &payload[..cut]);
            if let Ok((frame, used)) = Frame::decode(&hostile) {
                let mut canonical = Vec::new();
                frame.encode(&mut canonical);
                assert_eq!(
                    (used, &canonical),
                    (hostile.len(), &hostile),
                    "type {} cut at {cut}/{} decoded to something else: {frame:?}",
                    buf[1],
                    payload.len()
                );
            }
        }
    }
}

/// `original` with one to three bytes changed.
fn mutated(rng: &mut StdRng, original: &[u8]) -> Vec<u8> {
    let mut payload = original.to_vec();
    for _ in 0..rng.random_range(1..=3) {
        let at = rng.random_range(0..payload.len());
        payload[at] = rng.random();
    }
    payload
}

/// One to three payload bytes changed: any error, or a decode (a bit
/// flipped inside a score is still a score) — never a panic.
#[test]
fn payload_mutation_with_valid_checksum_never_panics() {
    let mut rng = StdRng::seed_from_u64(0xBAD);
    for buf in every_kind_encoded() {
        let original = &buf[PAYLOAD_AT..buf.len() - 4];
        if original.is_empty() {
            continue;
        }
        for _ in 0..70 {
            let _ = Frame::decode(&reframe(&buf, &mutated(&mut rng, original)));
        }
    }
}

/// What the `ExplainReport` decoder accepts is what its encoder writes:
/// every payload that decodes re-encodes to the bytes it arrived in —
/// random reports as encoded, and under the mutations above. A changed
/// retired word (a ring, an ε-cap, a termination other than the scan's)
/// is refused, never carried.
#[test]
fn an_accepted_explain_report_re_encodes_to_its_bytes() {
    let mut rng = StdRng::seed_from_u64(0xE7);
    let (mut accepted, mut refused) = (0, 0);
    for seed in 0..200 {
        let mut buf = Vec::new();
        rand_frame(16, &mut StdRng::seed_from_u64(seed)).encode(&mut buf);
        let original = &buf[PAYLOAD_AT..buf.len() - 4];
        for round in 0..70 {
            let payload = if round == 0 { original.to_vec() } else { mutated(&mut rng, original) };
            let hostile = reframe(&buf, &payload);
            match Frame::decode(&hostile) {
                Ok((frame, used)) => {
                    let mut again = Vec::new();
                    frame.encode(&mut again);
                    assert_eq!((used, &again), (hostile.len(), &hostile), "seed {seed} round {round}: {frame:?}");
                    accepted += 1;
                }
                Err(e) => {
                    assert!(round > 0 && matches!(e, WireError::Malformed), "seed {seed} round {round}: {e:?}");
                    refused += 1;
                }
            }
        }
    }
    assert!(accepted > 200 && refused > 0, "{accepted} accepted, {refused} refused");
}

// ---------------------------------------------------------------------------
// The one layout, pinned byte for byte.
// ---------------------------------------------------------------------------

/// One fixed instance of every frame kind (`Matches` / `ApproxMatches`
/// with and without the optional stage trailer).
fn golden_frames() -> Vec<(&'static str, Frame)> {
    use geosir_core::dynamic::{LevelExplain, QueryExplain, RetrieveStats};
    let shape = || WireShape { closed: true, points: vec![(0.0, 0.5), (3.0, 0.25), (1.5, -2.0)] };
    let open = || WireShape { closed: false, points: vec![(1.0, 2.0), (-4.5, 8.0)] };
    let matches = || {
        vec![
            WireMatch { shape: 0x0001_0000_0000_0007, image: 3, score: 0.125 },
            WireMatch { shape: 9, image: 0xFFFF_FFFF, score: 2.5 },
        ]
    };
    let trailer = Some(StageTrailer { total_us: 1234, queue_us: 56 });
    // a query answered by a scan of one level, τ where the envelope's ε was
    let scanned = QueryExplain {
        levels: vec![LevelExplain { shapes: 1000, cutoff: 0.0625, scored: 1950, settled: 50 }],
        stats: RetrieveStats { levels: 1, scan_copies: 1950, buffer_scored: 11, ..Default::default() },
    };
    let stats = {
        let mut w = [0u64; 25];
        for (i, slot) in w.iter_mut().enumerate() {
            *slot = 0x0101_0101_0101_0101 * (i as u64 + 1);
        }
        ServerStats {
            epoch: w[0],
            live_shapes: w[1],
            levels: w[2],
            requests: w[3],
            queries: w[4],
            inserts: w[5],
            deletes: w[6],
            busy_rejects: w[7],
            protocol_errors: w[8],
            latency_p50_us: w[9],
            latency_p99_us: w[10],
            snapshots_published: w[11],
            publish_p50_us: w[12],
            publish_p99_us: w[13],
            snapshot_age_us: w[14],
            queue_depth: w[15],
            read_only: w[16],
            wal_appends: w[17],
            wal_syncs: w[18],
            fsync_p50_us: w[19],
            fsync_p99_us: w[20],
            checkpoints: w[21],
            checkpoint_failures: w[22],
            last_recovery_us: w[23],
            io_errors: w[24],
        }
    };
    vec![
        ("query", Frame::Query { k: 10, trace: 0xA1, shape: shape() }),
        ("query_batch", Frame::QueryBatch { k: 4, shapes: vec![shape(), open()] }),
        ("insert", Frame::Insert { image: 7, key: 0xBEEF, trace: 0xA2, shape: open() }),
        ("delete", Frame::Delete { id: 0x0001_0000_0000_002A }),
        ("stats", Frame::Stats),
        ("metrics_dump", Frame::MetricsDump),
        ("explain", Frame::Explain { k: 3, trace: 0xA3, shape: shape() }),
        (
            "query_approx",
            Frame::QueryApprox { k: 10, trace: 0xA4, max_radius: 2, max_candidates: 512, shape: shape() },
        ),
        ("topology", Frame::Topology),
        ("shutdown", Frame::Shutdown),
        (
            "matches",
            Frame::Matches { epoch: 17, shards: ShardInfo { ok: 1, total: 2 }, trailer: None, matches: matches() },
        ),
        (
            "matches+trailer",
            Frame::Matches { epoch: 17, shards: ShardInfo::default(), trailer, matches: matches() },
        ),
        ("batch_matches", Frame::BatchMatches { epoch: 18, results: vec![matches(), vec![]] }),
        ("inserted", Frame::Inserted { epoch: 19, id: 0x0001_0000_0000_002B }),
        ("deleted", Frame::Deleted { epoch: 20, existed: true }),
        ("stats_report", Frame::StatsReport(stats)),
        ("metrics_report", Frame::MetricsReport { snapshot: (0u8..40).collect() }),
        (
            "approx_matches",
            Frame::ApproxMatches {
                epoch: 22,
                tier: 1,
                radius: 3,
                buckets_probed: 40,
                candidates: 500,
                corpus_copies: 26_000,
                reranked: 120,
                shards: ShardInfo { ok: 2, total: 2 },
                trailer: None,
                matches: matches(),
            },
        ),
        (
            "approx_matches+trailer",
            Frame::ApproxMatches {
                epoch: 22,
                tier: 0,
                radius: 3,
                buckets_probed: 40,
                candidates: 500,
                corpus_copies: 26_000,
                reranked: 120,
                shards: ShardInfo::default(),
                trailer,
                matches: matches(),
            },
        ),
        (
            "topology_report",
            Frame::TopologyReport {
                shards: vec![WireShardStatus {
                    shard: 1,
                    primary: "127.0.0.1:7001".into(),
                    primary_state: 0,
                    replicas: vec![("127.0.0.1:7002".into(), 2)],
                    lag_records: 5,
                    lag_ms: 40,
                }],
            },
        ),
        ("busy", Frame::Busy { retry_after_ms: 250 }),
        ("bye", Frame::Bye),
        ("error", Frame::Error { code: 6, message: "no shard answered".into() }),
        (
            "explain_report+scan",
            Frame::ExplainReport {
                epoch: 21,
                trace: 0xA5,
                total_us: 400,
                queue_us: 30,
                matches: matches(),
                report: scanned,
            },
        ),
    ]
}

fn fnv1a64_ref(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// `(name, frame length, FNV-1a-64 of the whole frame)` for
/// [`golden_frames`], frame `i` encoded with correlation id
/// `0x1122_3344_5566_7700 + i`. Captured from the last build that still
/// spoke v1–v6, before its version ladders were removed: a byte that
/// moves here is a wire break, not a refactor. (The last row came later:
/// a scanned level's report — a new termination code in the same bytes.)
/// Row `explain_report` is [`ENVELOPE_EXPLAIN_REPORT`], which no longer
/// decodes.
const GOLDEN: [(&str, usize, u64); 25] = [
    ("query", 83, 0xc6946f8f1589f3c2),
    ("query_batch", 116, 0x6c463f712b2854e1),
    ("insert", 75, 0x3793f57a1ee64c05),
    ("delete", 26, 0xb14b5fd84d440c3e),
    ("stats", 18, 0x2ed9bfbc9132b0f1),
    ("metrics_dump", 18, 0x7e8cd75c68055678),
    ("explain", 83, 0x3f71635e07143498),
    ("query_approx", 89, 0x37fde51adde4ceb7),
    ("topology", 18, 0x0dd9c33120470151),
    ("shutdown", 18, 0xfefe626570281b24),
    ("matches", 74, 0x4a9a4f35b30b04b4),
    ("matches+trailer", 91, 0x3cbd2ddf250d0ea3),
    ("batch_matches", 78, 0x6f2a571d5b418274),
    ("inserted", 34, 0x9a4f9e3e5a54957b),
    ("deleted", 27, 0x05796c2e4cd92976),
    ("stats_report", 218, 0x78aad9bc3f073029),
    ("metrics_report", 62, 0x22cae84ffa808884),
    ("explain_report", 301, 0x6591b498749f65ad),
    ("approx_matches", 109, 0xe8e8a626bc742fab),
    ("approx_matches+trailer", 126, 0x470447a52a8cb43e),
    ("topology_report", 82, 0x94e410dabe10d9d6),
    ("busy", 22, 0xae48c37f764ceb38),
    ("bye", 18, 0xcc9236915039583d),
    ("error", 41, 0xa6edfcafad5a1474),
    ("explain_report+scan", 245, 0x59060fcb78adaaea),
];

/// The `explain_report` row as captured: a level's envelope run of two
/// rings, certified. No server of this tree can emit one — every level is
/// scanned — and the decoder refuses its envelope words rather than carry
/// what a scan cannot have done.
const ENVELOPE_EXPLAIN_REPORT: &str = "06491b01000011776655443322111500000000000000a50000000000000084030000000000001e00\
    00000000000002000000070000000000010003000000000000000000c03f0900000000000000ffff\
    ffff00000000000004400b00000000000000010000000000000002000000000000002c0100000000\
    00001801000000000000280000000000000018000000000000000b00000000000000000000000000\
    e83f00000000000000000201000000e80300000000000001000000000000e03f0000000000001040\
    000000000000ea3f2c01000000000000180100000000000028000000000000000500000000020000\
    0001000000000000000000d03f0c000000640000005a0000000700000002000000000000000000e0\
    3f0c000000c8000000be00000021000000a0ddd3c3";

#[test]
fn v6_golden_bytes() {
    let frames = golden_frames();
    assert_eq!(frames.len() + 1, GOLDEN.len());
    let mut frames_in_order = frames.iter();
    for (i, (want_name, want_len, want_digest)) in GOLDEN.into_iter().enumerate() {
        let corr = 0x1122_3344_5566_7700 + i as u64;
        if want_name == "explain_report" {
            let h = ENVELOPE_EXPLAIN_REPORT;
            let buf: Vec<u8> =
                (0..h.len()).step_by(2).map(|at| u8::from_str_radix(&h[at..at + 2], 16).unwrap()).collect();
            assert_eq!((buf.len(), fnv1a64_ref(&buf), &buf[6..14]), (want_len, want_digest, &corr.to_le_bytes()[..]));
            assert!(matches!(Frame::decode_corr(&buf), Err(WireError::Malformed)), "an envelope report decoded");
            continue;
        }
        let (name, frame) = frames_in_order.next().unwrap();
        assert_eq!(*name, want_name);
        let mut buf = Vec::new();
        frame.encode_versioned(PROTOCOL_VERSION, corr, &mut buf);
        assert_eq!(
            (buf.len(), fnv1a64_ref(&buf)),
            (want_len, want_digest),
            "{name} moved on the wire: {}",
            hex(&buf)
        );
        let (decoded, got_corr, used) = Frame::decode_corr(&buf).unwrap();
        assert_eq!((&decoded, got_corr, used), (frame, corr, buf.len()), "{name}");
    }
    // one frame spelled out, so the header order is readable here:
    // version, type, payload length, correlation id, payload, checksum
    let mut delete = Vec::new();
    frames[3].1.encode_versioned(PROTOCOL_VERSION, 0x1122_3344_5566_7703, &mut delete);
    assert_eq!(hex(&delete), "06040800000003776655443322112a00000000000100affcb7f3");
}
