//! Twin spans: the benchmark links the workspace crates, rebuilds the
//! run's corpus in this process and replays the first ops of its stream
//! through the crates' public functions, one span per call. Spans live
//! in memory and are written to `out/<workload>.trace.json` at the end.
//!
//! The program under test is not instrumented by this change, so a span
//! here times the *same function on the same input* next to the server,
//! not inside it. Two kinds of span exist:
//!
//! * **path spans** (`decode → retrieve / approx / wal + apply + publish
//!   → encode`) run the calls a request makes, in order; their sum per
//!   op is the layer budget compared with the client's 1-in-flight p50;
//! * **detail spans** hang under a path span and re-run its inner steps
//!   (normalize, ring cover, simplex report, `h_avg` scoring, signature)
//!   on the inputs the step saw, recovered from the call's own trace
//!   (`triangle_trace`, `access_trace`, EXPLAIN rings). A parent's self
//!   time is its duration minus its detail children.
//!
//! The cluster's twin is one node: scatter, gather and WAL shipping have
//! no in-process twin and show up as `layer_budget.unaccounted_share`.

use std::path::Path;
use std::time::Instant;

use geosir_core::approx::SigBuckets;
use geosir_core::dynamic::{DynMatch, RetrieveStats};
use geosir_core::hashing::signature_of;
use geosir_core::normalize::normalize_about_diameter;
use geosir_core::similarity::{score_bounded_with, PreparedShape, ScoreKind};
use geosir_core::{
    ApproxOptions, ApproxScratch, ApproxStats, GlobalShapeId, ImageId, MatchConfig, MatchOutcome,
    Matcher, MatcherScratch, ShapeBaseBuilder,
};
use geosir_geom::envelope::ring_cover_into;
use geosir_geom::rangesearch::DynSimplexIndex;
use geosir_geom::{Point, Polyline, Triangle};
use geosir_serve::wire::ShardInfo;
use geosir_serve::{Frame, WireMatch, PROTOCOL_VERSION};
use geosir_storage::wal::{self, FsyncPolicy, Wal, WalRecord};
use geosir_storage::{checkpoint, CheckpointData};

use crate::child::{shipped_template, TempDir};
use crate::json::Json;
use crate::load::frame_of;
use crate::run::{metric, Metric};
use crate::stats::percentile;
use crate::workload::{Deploy, Op, OpStream, QueryKind, Workload, World, K};

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    /// Index of the op in the stream; `None` for one-off set-up spans.
    op: Option<usize>,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        op: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.epoch.elapsed();
        let out = std::hint::black_box(f());
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            start_us: start.as_secs_f64() * 1e6,
            end_us: end.as_secs_f64() * 1e6,
            parent,
            op,
        });
        (out, self.spans.len() - 1)
    }

    fn dur(&self, i: usize) -> f64 {
        self.spans[i].end_us - self.spans[i].start_us
    }

    /// Per-call durations of every span of a name, µs.
    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_us - s.start_us)
            .collect()
    }

    /// Duration minus the part covered by child spans, per span of a name.
    fn self_times(&self, name: &str) -> Vec<f64> {
        let mut child_sum = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_sum[p] += s.end_us - s.start_us;
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.end_us - s.start_us - child_sum[i]).max(0.0))
            .collect()
    }

    fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("op", s.op.map_or(Json::Null, |o| Json::Num(o as f64))),
                    ])
                })
                .collect(),
        )
    }
}

pub struct Replay {
    pub metrics: Vec<Metric>,
    /// Median over ops of the sum of an op's path spans, µs.
    pub budget_p50_us: f64,
}

fn wire_matches(hits: &[DynMatch]) -> Vec<WireMatch> {
    hits.iter()
        .map(|m| WireMatch {
            shape: m.shape.0,
            image: m.image.0,
            score: m.score,
        })
        .collect()
}

fn wal_insert(key: u64, id: u64, image: u32, shape: &Polyline) -> WalRecord {
    WalRecord::Insert {
        key,
        id,
        image,
        closed: shape.is_closed(),
        points: shape.points().iter().map(|p| (p.x, p.y)).collect(),
    }
}

pub fn replay(
    w: &Workload,
    world: &World,
    seed: u64,
    n_ops: usize,
    out_dir: &Path,
) -> Result<Replay, String> {
    let mut t = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let io = |e: std::io::Error| format!("twin storage: {e}");

    // the write path of the deployment: WAL with its fsync policy
    let policy = match w.deploy {
        Deploy::Memory => None,
        Deploy::Durable => Some(FsyncPolicy::Always),
        Deploy::Cluster => Some(FsyncPolicy::Never),
    };
    let dir = TempDir::new(out_dir, "twin").map_err(io)?;
    let wal_dir = dir.path().join("wal");
    let mut log = match policy {
        Some(p) => Some(Wal::open(&wal_dir, p, 1).map_err(io)?),
        None => None,
    };

    // the base, loaded as the server's was: one insert at a time, so the
    // same Bentley–Saxe merges happen at the same points
    let template = shipped_template();
    let mut base = template.empty_base();
    let mut ids: Vec<GlobalShapeId> = Vec::new();
    for (image, shape) in world.preload() {
        let (id, _) = t.span("core.dynamic.insert", None, None, || {
            base.insert(image, shape.clone())
        });
        ids.push(id);
    }

    // one static level over the preload: the matcher, range-search and
    // signature-index twins run on it
    let statics = {
        let mut b = ShapeBaseBuilder::new();
        for (image, shape) in world.preload() {
            b.add_shape(image, shape.clone());
        }
        b.build(template.alpha, template.backend)
    };
    let points: Vec<Point> = (0..statics.total_vertices() as u32)
        .map(|v| statics.vertex_point(v))
        .collect();
    let (index, _) = t.span("geom.rangesearch.build", None, None, || {
        DynSimplexIndex::build(template.backend, &points)
    });
    let family = base.snapshot().hash_family().clone();
    t.span("core.approx.build", None, None, || {
        SigBuckets::build(&family, &statics)
    });
    let matcher = Matcher::new(
        &statics,
        MatchConfig {
            k: K as usize,
            ..template.config.clone()
        },
    );

    let mut stream = OpStream::new(world, w, seed);
    let mut snap = base.snapshot();
    let (mut scratch, mut tmp, mut ax) = (
        MatcherScratch::new(),
        MatchOutcome::default(),
        ApproxScratch::new(),
    );
    let mut twin_out = MatchOutcome::default();
    let mut hits: Vec<DynMatch> = Vec::new();
    let (mut bytes, mut tris, mut reported) =
        (Vec::new(), Vec::<Triangle>::new(), Vec::<u32>::new());
    let mut back: Option<PreparedShape> = None;
    let mut budget: Vec<f64> = Vec::with_capacity(n_ops);

    for i in 0..n_ops {
        let op = stream.next_op();
        let op_ix = Some(i);
        let mut path: Vec<usize> = Vec::new();
        let id = match op {
            Op::Delete { slot } => Some(ids[slot as usize].0),
            _ => None,
        };
        bytes.clear();
        frame_of(&op, w, world, id).encode_versioned(PROTOCOL_VERSION, i as u64 + 1, &mut bytes);
        let (decoded, s) = t.span("server.wire.decode", None, op_ix, || {
            Frame::decode_corr(&bytes)
        });
        decoded.map_err(|e| format!("twin decode: {e:?}"))?;
        path.push(s);

        let reply = match &op {
            Op::Query { sketch } => {
                let query = &world.sketches[*sketch as usize];
                match w.query {
                    QueryKind::Exact => {
                        let mut stats = RetrieveStats::default();
                        let (_, s) = t.span("core.dynamic.retrieve", None, op_ix, || {
                            snap.retrieve_with_stats(
                                &mut scratch,
                                &mut tmp,
                                query,
                                K as usize,
                                &mut hits,
                                &mut stats,
                            )
                        });
                        path.push(s);
                        matcher_detail(
                            &mut t,
                            s,
                            op_ix,
                            &matcher,
                            &index,
                            query,
                            &mut twin_out,
                            &mut tris,
                            &mut reported,
                            &mut back,
                        );
                        Frame::Matches {
                            epoch: snap.epoch(),
                            shards: ShardInfo { ok: 1, total: 1 },
                            trailer: None,
                            matches: wire_matches(&hits),
                        }
                    }
                    QueryKind::Approx => {
                        let mut stats = ApproxStats::default();
                        let opts = ApproxOptions {
                            k: K as usize,
                            ..ApproxOptions::default()
                        };
                        let (_, s) = t.span("core.approx.query", None, op_ix, || {
                            snap.similar_approx_with(
                                &mut scratch,
                                &mut tmp,
                                &mut ax,
                                query,
                                &opts,
                                &mut hits,
                                &mut stats,
                            )
                        });
                        path.push(s);
                        let (normalized, _) = t.span("core.normalize", Some(s), op_ix, || {
                            normalize_about_diameter(query)
                        });
                        if let Some((primary, _)) = normalized {
                            t.span("core.hashing.signature", Some(s), op_ix, || {
                                signature_of(&family, &primary.shape)
                            });
                        }
                        Frame::ApproxMatches {
                            epoch: snap.epoch(),
                            tier: stats.tier.code(),
                            radius: stats.radius,
                            buckets_probed: stats.buckets_probed,
                            candidates: stats.candidates,
                            corpus_copies: stats.corpus_copies,
                            reranked: stats.reranked,
                            shards: ShardInfo { ok: 1, total: 1 },
                            trailer: None,
                            matches: wire_matches(&hits),
                        }
                    }
                }
            }
            Op::Insert { slot, image, shape } => {
                if let Some(log) = log.as_mut() {
                    let rec = wal_insert(*slot as u64 + 1, ids.len() as u64, *image, shape);
                    let (r, s) = t.span("storage.wal.append", None, op_ix, || log.append(&rec));
                    r.map_err(io)?;
                    path.push(s);
                    let (r, s) = t.span("storage.wal.commit", None, op_ix, || log.commit());
                    r.map_err(io)?;
                    path.push(s);
                }
                let (id, s) = t.span("core.dynamic.insert", None, op_ix, || {
                    base.insert(ImageId(*image), shape.clone())
                });
                path.push(s);
                ids.push(id);
                let (fresh, s) = t.span("core.dynamic.snapshot", None, op_ix, || base.snapshot());
                path.push(s);
                snap = fresh;
                Frame::Inserted {
                    epoch: snap.epoch(),
                    id: id.0,
                }
            }
            Op::Delete { slot } => {
                let id = ids[*slot as usize];
                if let Some(log) = log.as_mut() {
                    let (r, s) = t.span("storage.wal.append", None, op_ix, || {
                        log.append(&WalRecord::Delete { id: id.0 })
                    });
                    r.map_err(io)?;
                    path.push(s);
                    let (r, s) = t.span("storage.wal.commit", None, op_ix, || log.commit());
                    r.map_err(io)?;
                    path.push(s);
                }
                let (existed, s) = t.span("core.dynamic.delete", None, op_ix, || base.delete(id));
                path.push(s);
                let (fresh, s) = t.span("core.dynamic.snapshot", None, op_ix, || base.snapshot());
                path.push(s);
                snap = fresh;
                Frame::Deleted {
                    epoch: snap.epoch(),
                    existed,
                }
            }
        };
        bytes.clear();
        let (_, s) = t.span("server.wire.encode", None, op_ix, || {
            reply.encode_versioned(PROTOCOL_VERSION, i as u64 + 1, &mut bytes)
        });
        path.push(s);
        budget.push(path.iter().map(|&s| t.dur(s)).sum());
    }

    // storage off the request path: checkpoint cycle and log replay
    if let Some(log) = log.as_mut() {
        log.sync().map_err(io)?;
        let data = CheckpointData {
            epoch: snap.epoch(),
            next_id: snap.next_id(),
            shapes: snap.live_shapes(),
        };
        let path = dir.path().join("twin.ckpt");
        let (r, _) = t.span("storage.checkpoint.write", None, None, || {
            checkpoint::write(&path, &data)
        });
        r.map_err(|e| format!("twin checkpoint: {e:?}"))?;
        let (r, _) = t.span("storage.checkpoint.read", None, None, || {
            checkpoint::read(&path)
        });
        r.map_err(|e| format!("twin checkpoint: {e:?}"))?;
        let (r, _) = t.span("storage.wal.replay", None, None, || {
            wal::replay(&wal_dir, 0)
        });
        r.map_err(io)?;
    }

    let hist = geosir_obs::Histogram::new();
    const RECORDS: u64 = 1_000_000;
    let (_, s) = t.span("obs.histogram.record", None, None, || {
        for v in 0..RECORDS {
            hist.record(std::hint::black_box(v & 0xffff));
        }
    });
    let record_ns = 1e3 * t.dur(s) / RECORDS as f64;

    std::fs::create_dir_all(out_dir).map_err(io)?;
    let file = out_dir.join(format!("{}.trace.json", w.name));
    let doc = Json::obj([
        ("workload", Json::str(w.name)),
        ("seed", Json::Num(seed as f64)),
        ("ops", Json::Num(n_ops as f64)),
        ("note", Json::str("twin spans: public functions timed beside the server, not inside it; detail spans (with a parent) re-run a step after its parent and do not nest in time")),
        ("spans", t.to_json()),
    ]);
    std::fs::write(&file, doc.render()).map_err(io)?;

    let p50 = |name: &str| {
        let mut d = t.durations(name);
        (percentile(&mut d, 0.5), d.len() as u64)
    };
    let max = |name: &str| {
        let d = t.durations(name);
        (d.iter().copied().fold(0.0, f64::max), d.len() as u64)
    };
    let us = |out: &'static str, (v, n): (f64, u64)| metric(out, "us", v, n);
    let mut self_us = t.self_times("core.matcher.retrieve");
    let metrics = vec![
        us("server.wire.decode_us", p50("server.wire.decode")),
        us("server.wire.encode_us", p50("server.wire.encode")),
        us("core.normalize.us", p50("core.normalize")),
        us("core.hashing.signature_us", p50("core.hashing.signature")),
        us("geom.envelope.cover_us", p50("geom.envelope.cover")),
        us("geom.rangesearch.report_us", p50("geom.rangesearch.report")),
        us("geom.rangesearch.build_us", p50("geom.rangesearch.build")),
        us("core.similarity.score_us", p50("core.similarity.score")),
        us("core.matcher.retrieve_us", p50("core.matcher.retrieve")),
        metric(
            "core.matcher.self_us",
            "us",
            percentile(&mut self_us, 0.5),
            self_us.len() as u64,
        ),
        us("core.dynamic.retrieve_us", p50("core.dynamic.retrieve")),
        us("core.dynamic.insert_us_p50", p50("core.dynamic.insert")),
        us("core.dynamic.delete_us_p50", p50("core.dynamic.delete")),
        us("core.dynamic.merge_us_max", max("core.dynamic.insert")),
        us("core.dynamic.snapshot_us_p50", p50("core.dynamic.snapshot")),
        us("core.approx.query_us", p50("core.approx.query")),
        us("core.approx.build_us", p50("core.approx.build")),
        us("storage.wal.append_us", p50("storage.wal.append")),
        us("storage.wal.commit_us", p50("storage.wal.commit")),
        us("storage.wal.replay_us", p50("storage.wal.replay")),
        us(
            "storage.checkpoint.write_us",
            p50("storage.checkpoint.write"),
        ),
        us("storage.checkpoint.read_us", p50("storage.checkpoint.read")),
        metric("obs.histogram.record_ns", "ns", record_ns, RECORDS),
    ];
    Ok(Replay {
        metrics,
        budget_p50_us: percentile(&mut budget, 0.5),
    })
}

/// The exact path's inner steps under `parent`: a static matcher over
/// the preload answers the same query, and its own trace names the
/// triangles it submitted and the copies it scored, which are then
/// re-run one layer at a time.
#[allow(clippy::too_many_arguments)]
fn matcher_detail(
    t: &mut Tracer,
    parent: usize,
    op: Option<usize>,
    matcher: &Matcher,
    index: &DynSimplexIndex,
    query: &Polyline,
    out: &mut MatchOutcome,
    tris: &mut Vec<Triangle>,
    reported: &mut Vec<u32>,
    back: &mut Option<PreparedShape>,
) {
    let mut scratch = MatcherScratch::new();
    out.explain.enabled = true;
    let (_, m) = t.span("core.matcher.retrieve", Some(parent), op, || {
        matcher.retrieve_with(&mut scratch, query, out)
    });
    let (normalized, _) = t.span("core.normalize", Some(m), op, || {
        normalize_about_diameter(query)
    });
    let Some((primary, _)) = normalized else {
        return;
    };
    let mut inner = 0.0;
    for ring in &out.explain.rings {
        if ring.eps > inner {
            t.span("geom.envelope.cover", Some(m), op, || {
                ring_cover_into(&primary.shape, inner, ring.eps, tris)
            });
            inner = ring.eps;
        }
    }
    t.span("geom.rangesearch.report", Some(m), op, || {
        index.report_union(&out.triangle_trace, reported)
    });
    let prepared = PreparedShape::new(primary.shape);
    let cutoff = out.matches.last().map_or(f64::INFINITY, |m| m.score);
    let base = matcher.base();
    t.span("core.similarity.score", Some(m), op, || {
        for &copy in &out.access_trace {
            std::hint::black_box(score_bounded_with(
                ScoreKind::DiscreteSymmetric,
                &base.copy(copy).normalized,
                &prepared,
                back,
                cutoff,
            ));
        }
    });
}
