//! Cluster observability plane over real TCP loopback: federated
//! metrics (merged totals + `shard="N"` series through one endpoint),
//! cross-shard trace assembly (router request ring + slow-query
//! JSONL under the client's trace id), and hedge attribution to the
//! shard that actually went silent. See DESIGN §13.

mod common;

use common::{http_get, poll_until, polygon, serve_cfg, slow_log_text, template, tmpdir};

use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

use geosir_geom::Polyline;
use geosir_obs::{Registry, RequestKind, RequestRecord};
use geosir_serve::cluster::{start_cluster, ClusterConfig, Router, RouterConfig, ShardSpec};
use geosir_serve::{serve, Client};
use rand::prelude::*;
use rand::rngs::StdRng;

/// A backend that accepts connections and swallows every byte without
/// ever replying: the shape of a wedged-but-listening shard, which is
/// what forces the router down the hedge path (a refused connect would
/// be a submit-time failover instead).
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

/// The router's record of the routed request `trace`.
fn routed_record(reg: &Registry, trace: u64) -> RequestRecord {
    let recent = reg.recent_requests();
    recent.into_iter().find(|r| r.trace_id == trace).expect("routed query in the router's ring")
}

/// The value of `rec`'s note `name`.
fn note(rec: &RequestRecord, name: &str) -> u64 {
    let found = rec.notes.iter().find(|(n, _)| *n == name);
    found.unwrap_or_else(|| panic!("no note {name}: {rec:?}")).1
}

/// One federated endpoint serves merged cluster totals, per-shard
/// labeled series, router-native counters, and replication lag —
/// over the wire (`MetricsDump`) and over HTTP (`/metrics`).
#[test]
fn federated_metrics_merge_totals_and_label_shards() {
    let dir = tmpdir("fed");
    let cfg = ClusterConfig {
        shards: 2,
        replicas: 1,
        serve: serve_cfg(),
        router: RouterConfig {
            metrics_addr: Some("127.0.0.1:0".into()),
            ..RouterConfig::default()
        },
        ..ClusterConfig::new(&dir)
    };
    let cluster = start_cluster("127.0.0.1:0", &template(), cfg).unwrap();
    let maddr = cluster.router.metrics_addr().expect("metrics endpoint enabled");
    let mut client = Client::connect(cluster.addr()).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let shapes: Vec<Polyline> = (0..12).map(|_| polygon(&mut rng)).collect();
    for (i, s) in shapes.iter().enumerate() {
        client.insert_retrying(i as u32, s).unwrap();
    }
    for s in shapes.iter().take(4) {
        let r = client.query(s, 3).unwrap();
        assert!(!r.rejected);
    }

    // Wire-level federation: each shard answers every scattered query,
    // so the merged total is the sum of the per-shard series.
    let snap = client.metrics().unwrap();
    let merged = snap.counter("geosir_queries_total", &[]);
    let s0 = snap.counter("geosir_queries_total", &[("shard", "0")]);
    let s1 = snap.counter("geosir_queries_total", &[("shard", "1")]);
    assert!(merged >= 4, "cluster totals present (got {merged})");
    assert_eq!(s0 + s1, merged, "per-shard series sum to the merged total");
    assert!(s0 >= 4 && s1 >= 4, "both shards served every scattered query");
    assert!(
        snap.counter("geosir_router_shard_queries_total", &[("shard", "0")]) >= 4,
        "router-native series ride along"
    );

    // Replication lag comes from the repl threads' gauges in the
    // router's own registry; give them a tick to publish.
    assert!(
        poll_until(Duration::from_secs(5), || {
            let snap = client.metrics().unwrap();
            snap.entries.iter().any(|e| e.name == "geosir_replication_lag_records")
        }),
        "replication lag series appear in the federated dump"
    );

    // HTTP federation: one curl against the router answers for the
    // whole cluster.
    let (status, body) = http_get(maddr, "/metrics");
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("geosir_queries_total{shard=\"0\"}"), "shard-labeled series");
    assert!(body.contains("geosir_queries_total{shard=\"1\"}"), "shard-labeled series");
    assert!(body.contains("\ngeosir_queries_total "), "merged unlabeled total");
    assert!(body.contains("geosir_replication_lag_records{shard="), "lag series");
    assert!(body.contains("geosir_router_scrapes_total"), "scrape telemetry");

    let (_, topo) = http_get(maddr, "/debug/cluster");
    assert!(topo.contains("\"shard\":0") && topo.contains("\"shard\":1"), "{topo}");
    assert!(topo.contains("\"state\":\"closed\""), "healthy breakers: {topo}");
    assert!(topo.contains("\"lag_records\":"), "{topo}");

    let (status, missing) = http_get(maddr, "/nope");
    assert_eq!(status, 404, "{missing}");

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A traced query through a 2-shard router leaves a joined trail: the
/// client's trace id in the router's request ring (a routed kind, its
/// shard counts and per-shard stages), and a slow-log JSONL line with ≥ 2
/// shard sub-spans carrying server-side stage timings from the v6 reply
/// trailer.
#[test]
fn routed_trace_joins_request_ring_and_slow_log() {
    let dir = tmpdir("trace");
    let cfg = ClusterConfig {
        shards: 2,
        replicas: 0,
        serve: serve_cfg(),
        router: RouterConfig {
            // everything is "slow": one query must produce one record
            slow_query_us: 0,
            ..RouterConfig::default()
        },
        ..ClusterConfig::new(&dir)
    };
    let cluster = start_cluster("127.0.0.1:0", &template(), cfg).unwrap();
    let mut client = Client::connect(cluster.addr()).unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let shapes: Vec<Polyline> = (0..8).map(|_| polygon(&mut rng)).collect();
    for (i, s) in shapes.iter().enumerate() {
        client.insert_retrying(i as u32, s).unwrap();
    }
    let reply = client.query(&shapes[0], 3).unwrap();
    assert!(!reply.rejected);
    assert_eq!((reply.shards_ok, reply.shards_total), (2, 2));
    let trace = reply.trace;
    assert_ne!(trace, 0, "client minted a trace id");

    // Shard servers echo their stage timings in the v6 trailer; a
    // direct query against a primary surfaces them to the client.
    let mut direct = Client::connect(cluster.specs[0].primary).unwrap();
    let dr = direct.query(&shapes[0], 3).unwrap();
    let t = dr.server_timings.expect("v6 trailer carries server timings");
    assert!(t.total_us >= t.queue_us, "total includes queue wait");

    // Router request ring: same trace id, routed kind, both shards
    // asked and both answered.
    let reg = cluster.registry();
    let rec = routed_record(&reg, trace);
    assert_eq!(rec.kind, RequestKind::RoutedQuery);
    assert_eq!(note(&rec, "shards_total"), 2, "shards asked");
    assert_eq!(note(&rec, "shards_ok"), 2, "shards answered");

    // ...and its JSON: per-shard stages under the same id.
    let tj = reg.requests_json();
    assert!(tj.contains(&format!("\"trace_id\":{trace}")), "{tj}");
    assert!(tj.contains("routed_query"), "{tj}");
    assert!(tj.contains("shard0") && tj.contains("shard1"), "{tj}");

    // Slow log: one JSONL record keyed by the client's trace id with a
    // sub-span per shard including server-side attribution.
    let slow_dir = dir.join("router");
    assert!(
        poll_until(Duration::from_secs(5), || {
            slow_log_text(&slow_dir).contains(&format!("\"trace_id\":{trace}"))
        }),
        "router slow log records the traced query"
    );
    let text = slow_log_text(&slow_dir);
    let line = text
        .lines()
        .find(|l| l.contains(&format!("\"trace_id\":{trace}")))
        .expect("slow-log line for the traced query");
    assert!(line.contains("\"kind\":\"routed_query\""), "{line}");
    assert!(line.contains("\"shard\":0") && line.contains("\"shard\":1"), "{line}");
    assert!(line.contains("\"server_total_us\":"), "shard trailer joined in: {line}");
    assert!(line.contains("\"shards_ok\":2"), "{line}");

    cluster.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// When one shard's primary accepts but never replies, the router
/// hedges to that shard's replica — and the timeline pins the hedge on
/// the silent shard, not its healthy neighbour.
#[test]
fn forced_hedge_is_attributed_to_the_silent_shard() {
    let dir = tmpdir("hedge");
    let healthy = serve("127.0.0.1:0", template().empty_base(), serve_cfg()).unwrap();
    let replica = serve("127.0.0.1:0", template().empty_base(), serve_cfg()).unwrap();
    let silent = black_hole();
    let specs = vec![
        ShardSpec { primary: healthy.addr(), replicas: Vec::new() },
        ShardSpec { primary: silent, replicas: vec![replica.addr()] },
    ];
    let registry = Arc::new(Registry::new());
    let router = Router::start(
        "127.0.0.1:0",
        specs,
        RouterConfig {
            hedge_after: Duration::from_millis(50),
            shard_deadline: Duration::from_millis(3_000),
            slow_query_log: Some(dir.join("router")),
            slow_query_us: 0,
            ..RouterConfig::default()
        },
        registry.clone(),
    )
    .unwrap();

    let mut client = Client::connect(router.addr()).unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    let reply = client.query(&polygon(&mut rng), 3).unwrap();
    assert!(!reply.rejected);
    assert_eq!(
        (reply.shards_ok, reply.shards_total),
        (2, 2),
        "the hedge saved the silent shard's answer"
    );

    let snap = registry.snapshot();
    assert!(
        snap.counter("geosir_router_hedges_total", &[("shard", "1")]) >= 1,
        "hedge counted against the silent shard"
    );
    assert_eq!(
        snap.counter("geosir_router_hedges_total", &[("shard", "0")]),
        0,
        "healthy shard never hedged"
    );

    let rec = routed_record(&registry, reply.trace);
    assert!(note(&rec, "hedges") >= 1, "hedge visible in the router's record");
    assert_eq!((note(&rec, "shards_ok"), note(&rec, "shards_total")), (2, 2));

    let text = slow_log_text(&dir.join("router"));
    let line = text
        .lines()
        .find(|l| l.contains(&format!("\"trace_id\":{}", reply.trace)))
        .expect("slow-log line");
    let i0 = line.find("\"shard\":0").expect("shard 0 span");
    let i1 = line.find("\"shard\":1").expect("shard 1 span");
    assert!(!line[i0..i1].contains("\"hedged\":true"), "shard 0 did not hedge: {line}");
    assert!(line[i1..].contains("\"hedged\":true"), "shard 1 hedged: {line}");
    assert!(
        line[i1..].contains(&replica.addr().to_string()),
        "hedged answer attributed to the replica: {line}"
    );

    router.shutdown();
    healthy.shutdown();
    replica.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
