//! Per-phase cost decomposition of one retrieval: where does a query's
//! time actually go? Re-times each phase of the matcher pipeline in
//! isolation (query preparation, envelope/ring cover generation,
//! simplex-index reporting, candidate scoring) against the full
//! `retrieve_with` wall time on the same corpus, so kernel-level
//! optimisations can be aimed at the phase that dominates. The last two
//! lines put the served exact path (`Snapshot`, seeded: hash-tier probe →
//! one `Threshold(τ)` envelope → resolve) beside the unseeded incremental
//! top-k loop, phase by phase: seed / cover / report / per-vertex /
//! resolve; after them, the distance census the nearest-edge grid is
//! judged by (`dist` calls against the prepared query by site, edges
//! evaluated per call and time per call with the grid off and on — under
//! `--features simd` "off" is the AVX2 flat scan — the grid's build cost,
//! and a digest of all top-10 lists to compare builds by; its seed replay
//! duplicates `View::probe_rerank` — see `distance_census`), and the DESIGN
//! §12.5 probe (k = 1 self-queries against the half-corpus shard that
//! holds the copies and the one that does not).
//!
//! ```sh
//! cargo run --release -p geosir-bench --bin phase_prof [--features simd] [-- n_shapes]
//! ```

use geosir_bench::scaling_corpus;
use geosir_core::approx::SigBuckets;
use geosir_core::dynamic::{DynMatch, DynamicBase, RetrieveStats};
use geosir_core::hashing::signature_of;
use geosir_core::matcher::{MatchConfig, MatchOutcome, Matcher, RingExplain};
use geosir_core::normalize::{normalize_about_diameter, normalized_copies};
use geosir_core::scratch::MatcherScratch;
use geosir_core::shapebase::{ShapeBase, ShapeBaseBuilder};
use geosir_core::similarity::{prepare_into, score, score_bounded_with, PreparedShape, ScoreKind};
use geosir_core::{ApproxOptions, ApproxScratch, ApproxStats};
use geosir_geom::envelope::{envelope_cover_into, ring_cover_into};
use geosir_geom::rangesearch::IndexScratch;
use geosir_geom::{Point, Polyline, Triangle};
use geosir_imaging::synth::{generate, CorpusConfig};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

const K: usize = 10;

/// One exact path's per-query phase times (µs) and work counts, summed
/// over a query set by [`Phases::add_run`] from what each run recorded:
/// its rings (EXPLAIN capture), the triangles it submitted and the copies
/// it scored.
#[derive(Default)]
struct Phases {
    total: f64,
    seed: f64,
    cover: f64,
    report: f64,
    per_vertex: f64,
    resolve: f64,
    rings: usize,
    reported: usize,
    scored: usize,
    /// Σ over seeded queries of `true k-th ÷ τ` (0 for the unseeded path).
    tightness: f64,
}

impl Phases {
    /// Re-run the phases of one finished matcher run in isolation.
    /// `cutoff` bounds the scorings the way the run bounded them
    /// (`INFINITY` for the incremental loop's full scorings).
    fn add_run(&mut self, base: &ShapeBase, query: &Polyline, run: &MatchOutcome, cutoff: f64) {
        let Some((primary, _)) = normalize_about_diameter(query) else { return };
        // as every matcher entry prepares it: with the nearest-edge grid
        let mut prepared = PreparedShape::new(primary.shape);
        prepared.build_grid();
        let (mut cover, mut reported) = (Vec::<Triangle>::new(), Vec::<u32>::new());
        let mut index = IndexScratch::default();
        let mut inner = 0.0;
        let mut tris = run.triangle_trace.as_slice();
        for &RingExplain { eps, triangles, .. } in &run.explain.rings {
            let t0 = Instant::now();
            if inner == 0.0 {
                envelope_cover_into(prepared.shape(), eps, &mut cover);
            } else {
                ring_cover_into(prepared.shape(), inner, eps, &mut cover);
            }
            self.cover += t0.elapsed().as_secs_f64() * 1e6;
            inner = eps;
            let (ring_tris, rest) = tris.split_at(triangles as usize);
            tris = rest;
            let t0 = Instant::now();
            reported.clear();
            base.report_triangles_with(&mut index, ring_tris, &mut reported);
            self.report += t0.elapsed().as_secs_f64() * 1e6;
            let t0 = Instant::now();
            let mut sink = 0.0;
            for &vid in &reported {
                sink += prepared.dist(base.vertex_point(vid)) + base.vertex_owner(vid).0 as f64;
            }
            std::hint::black_box(sink);
            self.per_vertex += t0.elapsed().as_secs_f64() * 1e6;
            self.reported += reported.len();
        }
        self.rings += run.explain.rings.len();
        // the trace ends with one fetch per reported match; the rest are scorings
        let scored = &run.access_trace[..run.stats.candidates_scored];
        let mut back = None;
        let t0 = Instant::now();
        let mut sink = 0.0;
        for &cid in scored {
            let s = score_bounded_with(
                ScoreKind::DiscreteSymmetric,
                &base.copy(cid).normalized,
                &prepared,
                &mut back,
                cutoff,
            );
            sink += if s.is_finite() { s } else { 0.0 };
        }
        std::hint::black_box(sink);
        self.resolve += t0.elapsed().as_secs_f64() * 1e6;
        self.scored += scored.len();
    }

    fn print(&self, label: &str, queries: usize) {
        let n = queries as f64;
        println!(
            "{label} total {:7.1} | seed {:6.1}  cover {:6.1}  report {:7.1}  per-vertex {:7.1}  \
             resolve {:6.1} µs/query  (rings {:.1}, reported {:.0}, scored {:.0}, k-th/τ {:.3})",
            self.total / n,
            self.seed / n,
            self.cover / n,
            self.report / n,
            self.per_vertex / n,
            self.resolve / n,
            self.rings as f64 / n,
            self.reported as f64 / n,
            self.scored as f64 / n,
            self.tightness / n,
        );
    }
}

/// The served exact path against the unseeded top-k loop on the canonical
/// benchmark's `exact_sketch` world (`small(200, 1)`, its 100 sketches,
/// k = [`K`]): wall time per query plus each phase re-timed in isolation.
fn exact_path_phases() {
    let corpus = generate(&CorpusConfig::small(200, 1));
    let queries = corpus.queries(100, 0.02, 1);
    let backend = geosir_geom::rangesearch::Backend::RangeTree;
    let base = &corpus.build_base(0.0, backend);
    let cfg = MatchConfig { beta: 0.2, k: K, ..Default::default() };
    // one bulk-loaded level = the same copies, in the same order, as `base`
    let mut dynamic = DynamicBase::new(0.0, backend, cfg.clone(), 512);
    dynamic.bulk_load(corpus.shapes.iter().map(|(image, _, s)| (*image, s.clone())));
    let snap = dynamic.snapshot();
    let matcher = Matcher::new(base, cfg);
    let mut scratch = MatcherScratch::new();
    let mut tmp = MatchOutcome::default();
    let mut ax = ApproxScratch::new();
    let (mut hits, mut stats, mut astats) =
        (Vec::new(), RetrieveStats::default(), ApproxStats::default());
    let mut explain = geosir_core::dynamic::QueryExplain::default();
    let (mut seeded, mut unseeded) = (Phases::default(), Phases::default());
    let opts = ApproxOptions { k: K, ..ApproxOptions::default() };
    // each path timed over the whole query set on its own (warm-up pass
    // first), so one path's working set never evicts another's
    let time = |f: &mut dyn FnMut(&Polyline)| {
        queries.iter().for_each(&mut *f);
        let t0 = Instant::now();
        queries.iter().for_each(&mut *f);
        t0.elapsed().as_secs_f64() * 1e6
    };
    seeded.total =
        time(&mut |q| snap.retrieve_with_stats(&mut scratch, &mut tmp, q, K, &mut hits, &mut stats));
    seeded.seed = time(&mut |q| {
        snap.similar_approx_with(&mut scratch, &mut tmp, &mut ax, q, &opts, &mut hits, &mut astats)
    });
    unseeded.total = time(&mut |q| matcher.retrieve_with(&mut scratch, q, &mut tmp));
    // then each run once more with capture on: `tmp` keeps the (one)
    // level's triangles, rings and scored copies for the phase replay
    for q in &queries {
        tmp.explain.enabled = true;
        matcher.retrieve_with(&mut scratch, q, &mut tmp);
        tmp.explain.enabled = false;
        unseeded.add_run(base, q, &tmp, f64::INFINITY);
        snap.explain_with_stats(&mut scratch, &mut tmp, q, K, &mut hits, &mut stats, &mut explain);
        let kth = hits.last().map_or(f64::INFINITY, |m| m.score);
        seeded.add_run(base, q, &tmp, kth);
        // a seeded level's one envelope sits at τ / f_u
        let level = &explain.levels[0];
        seeded.tightness += kth / (level.final_eps * level.bound_factor);
    }
    println!(
        "exact path, canonical corpus ({} shapes, {} sketches, k = {K}; phases re-timed in \
         isolation, total is the real call):",
        corpus.shapes.len(),
        queries.len()
    );
    seeded.print("  seeded   (Snapshot):    ", queries.len());
    unseeded.print("  unseeded (Matcher TopK):", queries.len());
}

fn main() {
    let n_shapes: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(4000);
    let (shapes, queries) = scaling_corpus(n_shapes);
    let mut builder = ShapeBaseBuilder::new();
    let polys: Vec<_> = shapes.iter().map(|(_, s)| s.clone()).collect();
    for (image, shape) in shapes {
        builder.add_shape(image, shape);
    }
    let base = builder.build_with_threads(0.0, geosir_geom::rangesearch::Backend::RangeTree, 0);
    let cfg = MatchConfig { beta: 0.2, ..Default::default() };
    let matcher = Matcher::new(&base, cfg);

    let mut scratch = MatcherScratch::for_base(&base);
    let mut out = MatchOutcome::default();

    // warm-up + collect per-query ring stats from real runs
    let mut finals: Vec<(f64, usize, usize, usize)> = Vec::new(); // eps, iters, scored, tris
    for q in &queries {
        matcher.retrieve_with(&mut scratch, q, &mut out);
        finals.push((
            out.stats.final_eps,
            out.stats.iterations,
            out.stats.candidates_scored,
            out.stats.triangles_queried,
        ));
    }

    // total retrieve
    let t0 = Instant::now();
    for q in &queries {
        matcher.retrieve_with(&mut scratch, q, &mut out);
    }
    let total_us = t0.elapsed().as_micros() as f64 / queries.len() as f64;

    // phase: query preparation
    let mut slot;
    let t0 = Instant::now();
    for q in &queries {
        slot = None;
        prepare_into(&mut slot, q);
        slot.as_mut().unwrap().build_grid();
    }
    let prep_us = t0.elapsed().as_micros() as f64 / queries.len() as f64;

    // phase: cover generation, replayed at each query's real eps schedule
    // (geometric from eps_base; approximated by timing the final-ring
    // cover once per recorded iteration — an upper bound on cover cost)
    let mut cover: Vec<Triangle> = Vec::new();
    let t0 = Instant::now();
    let mut tri_sink = 0usize;
    for (q, (eps, iters, _, _)) in queries.iter().zip(&finals) {
        for _ in 0..*iters {
            envelope_cover_into(q, *eps, &mut cover);
            tri_sink += cover.len();
        }
    }
    let cover_us = t0.elapsed().as_micros() as f64 / queries.len() as f64;

    // phase: simplex reporting at the final cover
    let mut reported: Vec<u32> = Vec::new();
    let t0 = Instant::now();
    let mut vert_sink = 0usize;
    for (q, (eps, _, _, _)) in queries.iter().zip(&finals) {
        envelope_cover_into(q, *eps, &mut cover);
        for tri in &cover {
            reported.clear();
            base.report_triangle(tri, &mut reported);
            vert_sink += reported.len();
        }
    }
    let report_us = t0.elapsed().as_micros() as f64 / queries.len() as f64;

    // phase: candidate scoring (h_avg), at the recorded promotion count
    let t0 = Instant::now();
    let mut score_sink = 0.0;
    let mut scored = 0usize;
    for (qi, (q, (_, _, nscored, _))) in queries.iter().zip(&finals).enumerate() {
        slot = None;
        let prepared = prepare_into(&mut slot, q);
        for c in 0..*nscored {
            let cand = &polys[(qi * 31 + c * 7) % polys.len()];
            score_sink += score(ScoreKind::DiscreteSymmetric, cand, prepared);
            scored += 1;
        }
    }
    let score_us = t0.elapsed().as_micros() as f64 / queries.len() as f64;

    // full retrieve against a kd-tree-backed base (same corpus)
    let mut builder2 = ShapeBaseBuilder::new();
    for (i, s) in polys.iter().enumerate() {
        builder2.add_shape(geosir_core::ids::ImageId(i as u32), s.clone());
    }
    let base_kd = builder2.build_with_threads(0.0, geosir_geom::rangesearch::Backend::KdTree, 0);
    let matcher_kd = Matcher::new(&base_kd, MatchConfig { beta: 0.2, ..Default::default() });
    let mut scratch_kd = MatcherScratch::for_base(&base_kd);
    for q in &queries {
        matcher_kd.retrieve_with(&mut scratch_kd, q, &mut out);
    }
    let t0 = Instant::now();
    for q in &queries {
        matcher_kd.retrieve_with(&mut scratch_kd, q, &mut out);
    }
    let total_kd_us = t0.elapsed().as_micros() as f64 / queries.len() as f64;

    // backend comparison: the same final covers against a kd-tree index
    let pts: Vec<geosir_geom::Point> =
        (0..base.total_vertices()).map(|v| base.vertex_point(v as u32)).collect();
    use geosir_geom::rangesearch::{KdTreeIndex, SimplexIndex};
    let kd = KdTreeIndex::build(&pts);
    let t0 = Instant::now();
    let mut kd_sink = 0usize;
    for (q, (eps, _, _, _)) in queries.iter().zip(&finals) {
        envelope_cover_into(q, *eps, &mut cover);
        for tri in &cover {
            reported.clear();
            kd.report(tri, &mut reported);
            kd_sink += reported.len();
        }
    }
    let kd_us = t0.elapsed().as_micros() as f64 / queries.len() as f64;

    let avg_scored = finals.iter().map(|f| f.2).sum::<usize>() as f64 / finals.len() as f64;
    let avg_iters = finals.iter().map(|f| f.1).sum::<usize>() as f64 / finals.len() as f64;
    let avg_tris = finals.iter().map(|f| f.3).sum::<usize>() as f64 / finals.len() as f64;
    println!("# phase_prof — {n_shapes} shapes, {} queries", queries.len());
    println!("avg per query: iters {avg_iters:.1}, tris {avg_tris:.1}, scored {avg_scored:.1}");
    println!("retrieve total:   {total_us:8.1} µs/query (RangeTree base)");
    println!("retrieve total:   {total_kd_us:8.1} µs/query (KdTree base)");
    println!("  prepare query:  {prep_us:8.1} µs/query");
    println!("  cover gen:      {cover_us:8.1} µs/query (upper bound, final ring x iters)");
    println!("  simplex report: {report_us:8.1} µs/query (final ring only; incl cover regen)");
    println!("  scoring h_avg:  {score_us:8.1} µs/query ({:.1} µs/candidate)",
        score_us / (avg_scored.max(1e-9)));
    println!("  kd-tree report: {kd_us:8.1} µs/query (same covers)");
    println!("(sinks: tris {tri_sink}, verts {vert_sink}, kd {kd_sink}, score {score_sink:.3}, scored {scored})");
    exact_path_phases();
    distance_census();
    no_near_match_probe();
}

/// The vertices of `cand` whose distance to `query` the early-abandoning
/// forward `h_avg` asks for before it stops — the loop of
/// `similarity::h_avg_discrete_abandoning`, which keeps no count.
fn forward_calls(cand: &Polyline, query: &PreparedShape, cutoff: f64, calls: &mut Vec<Point>) {
    let sum = cutoff * cand.num_vertices() as f64;
    let limit = sum + sum.abs() * 1e-9;
    let mut acc = 0.0;
    for &p in cand.points() {
        calls.push(p);
        acc += query.dist(p);
        if acc > limit {
            break;
        }
    }
}

/// Fold the `(id, score bits)` of one more result list into `hasher`.
fn digest(hasher: &mut DefaultHasher, hits: &[DynMatch]) {
    for m in hits {
        (m.shape.0, m.score.to_bits()).hash(hasher);
    }
}

/// Where the point-to-query distances of a served exact query are asked
/// for, and what each costs with the query's nearest-edge grid off and
/// on. The world is the benchmark's `exact_sketch` one — a 1 024-shape
/// level and the rest of `small(200, 1)` in the insert buffer — with a
/// static twin of the level (same copies, same ids), so each site can be
/// replayed through the public API from what the real run recorded; the
/// replays are checked against the run's own counts.
///
/// The seed replay below is a second copy of `View::probe_rerank`'s
/// cascade (ring-by-ring collection, per-shape k-th-best cutoff, buffer
/// rings) and [`forward_calls`] one of `h_avg_discrete_abandoning`: they
/// track the library by hand, and the asserts only catch drift by
/// panicking. If the census outlives the decision it was written for,
/// replace the replay with a per-call hook in the library (widen
/// `SegmentIndex::probe_cost`) instead of growing it.
fn distance_census() {
    const SITES: [&str; 4] = ["ring test", "seed", "resolve", "buffer"];
    const KIND: ScoreKind = ScoreKind::DiscreteSymmetric;
    let corpus = generate(&CorpusConfig::small(200, 1));
    let queries = corpus.queries(100, 0.02, 1);
    let backend = geosir_geom::rangesearch::Backend::RangeTree;
    let cfg = MatchConfig { beta: 0.2, k: K, ..Default::default() };
    let (levelled, buffered) = corpus.shapes.split_at(1024);
    let mut dynamic = DynamicBase::new(0.0, backend, cfg, 512);
    dynamic.bulk_load(levelled.iter().map(|(image, _, s)| (*image, s.clone())));
    let mut builder = ShapeBaseBuilder::new();
    for (image, _, s) in levelled {
        builder.add_shape(*image, s.clone());
    }
    let twin = builder.build(0.0, backend);
    let snap_family = dynamic.snapshot();
    let family = snap_family.hash_family();
    let buckets = SigBuckets::build(family, &twin);
    // a buffered shape as the base holds it: id, prepared copies, signatures
    let buffer: Vec<_> = buffered
        .iter()
        .map(|(image, _, s)| {
            let copies: Vec<PreparedShape> =
                normalized_copies(s, 0.0).into_iter().map(|c| PreparedShape::new(c.shape)).collect();
            let sigs: Vec<_> = copies.iter().map(|c| signature_of(family, c.shape())).collect();
            (dynamic.insert(*image, s.clone()).0, copies, sigs)
        })
        .collect();
    let snap = dynamic.snapshot();

    let (mut scratch, mut tmp, mut ax) =
        (MatcherScratch::new(), MatchOutcome::default(), ApproxScratch::new());
    let (mut hits, mut seeds) = (Vec::new(), Vec::new());
    let (mut stats, mut astats) = (RetrieveStats::default(), ApproxStats::default());
    let mut explain = geosir_core::dynamic::QueryExplain::default();
    let opts = ApproxOptions { k: K, ..ApproxOptions::default() };
    let (mut index, mut reported, mut back) = (IndexScratch::default(), Vec::new(), None);
    let mut sites: [Vec<Point>; 4] = Default::default();
    let (mut calls, mut edges_off, mut edges_on, mut answered) = ([0usize; 4], 0, 0, 0);
    let mut scored = 0;
    let (mut ns_off, mut ns_on, mut build_us) = (0.0, 0.0, 0.0);
    // (fixed keys: equal lists give equal digests across runs and builds
    // of one toolchain)
    let (mut exact_digest, mut approx_digest) = (DefaultHasher::new(), DefaultHasher::new());
    let best_of = |reps: usize, f: &mut dyn FnMut()| {
        (0..reps).fold(f64::INFINITY, |best, _| {
            let t0 = Instant::now();
            f();
            best.min(t0.elapsed().as_secs_f64())
        })
    };
    for q in &queries {
        let primary = normalize_about_diameter(q).expect("sketches have extent").0.shape;
        let plain = PreparedShape::new(primary.clone());
        let mut grid = PreparedShape::new(primary);
        build_us += best_of(20, &mut || grid.build_grid()) * 1e6;
        snap.similar_approx_with(&mut scratch, &mut tmp, &mut ax, q, &opts, &mut seeds, &mut astats);
        snap.explain_with_stats(&mut scratch, &mut tmp, q, K, &mut hits, &mut stats, &mut explain);
        digest(&mut approx_digest, &seeds);
        digest(&mut exact_digest, &hits);
        scored += stats.candidates_scored;
        // the seed's k-th score is the level's threshold; `tmp` keeps the
        // level's run (triangles, scored copies, everything within τ)
        let tau = seeds.get(K - 1).expect("every sketch is seeded").score;
        sites.iter_mut().for_each(Vec::clear);

        reported.clear();
        twin.report_triangles_with(&mut index, &tmp.triangle_trace, &mut reported);
        assert_eq!(reported.len() as u64, stats.vertices_reported);
        sites[0].extend(reported.iter().map(|&v| twin.vertex_point(v)));

        // the seed: the cascade's candidates ring by ring (level, then
        // buffer), reranked against the running per-shape k-th best
        let qsig = signature_of(family, grid.shape());
        let (mut within, mut emitted) = (Vec::new(), 0);
        let mut best = std::collections::HashMap::new();
        let (mut cutoff, mut reranked, mut abandoned) = (f64::INFINITY, 0, 0);
        for r in 0..=astats.radius {
            within.clear();
            buckets.collect_within(family.k() as u16, &qsig, r, &mut within);
            let level_ring = within[emitted..].iter().map(|&c| {
                let copy = twin.copy(c);
                (copy.shape_id.0 as u64, &copy.normalized)
            });
            let buffer_ring = buffer.iter().flat_map(|(id, copies, sigs)| {
                let at_r = move |s: &&_| qsig.curve_distance(s) == r;
                copies.iter().zip(sigs).filter(move |(_, s)| at_r(s)).map(|(c, _)| (*id, c.shape()))
            });
            for (id, cand) in level_ring.chain(buffer_ring) {
                forward_calls(cand, &grid, cutoff, &mut sites[1]);
                let score = score_bounded_with(KIND, cand, &grid, &mut back, cutoff);
                reranked += 1;
                if !score.is_finite() {
                    abandoned += 1;
                    continue;
                }
                let kept = best.entry(id).or_insert(f64::INFINITY);
                *kept = score.min(*kept);
                if best.len() >= K {
                    let mut scores: Vec<f64> = best.values().copied().collect();
                    scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    cutoff = scores[K - 1];
                }
            }
            emitted = within.len();
        }
        assert_eq!((reranked, abandoned), (astats.reranked, astats.abandoned), "seed replay diverged");

        for &cid in &tmp.access_trace[..tmp.stats.candidates_scored] {
            forward_calls(&twin.copy(cid).normalized, &grid, tau, &mut sites[2]);
        }
        let buffer_cutoff = tau.min(tmp.matches.get(K - 1).map_or(f64::INFINITY, |m| m.score));
        assert_eq!(buffer.len() as u64, stats.buffer_scored);
        for copy in buffer.iter().flat_map(|(_, copies, _)| copies) {
            forward_calls(copy.shape(), &grid, buffer_cutoff, &mut sites[3]);
        }

        let all: Vec<Point> = sites.concat();
        for (count, site) in calls.iter_mut().zip(&sites) {
            *count += site.len();
        }
        for &p in &all {
            let (edges, hit) = grid.index().probe_cost(p);
            edges_off += plain.index().len();
            edges_on += edges;
            answered += hit as usize;
        }
        for (ns, prepared) in [(&mut ns_off, &plain), (&mut ns_on, &grid)] {
            *ns += 1e9 * best_of(5, &mut || {
                std::hint::black_box(all.iter().map(|&p| prepared.dist(p)).sum::<f64>());
            });
        }
    }
    let n = queries.len() as f64;
    let total: usize = calls.iter().sum();
    println!(
        "distance census, canonical corpus (a {}-shape level + {} buffered, {} sketches, k = {K}; \
         flat scan: {}):",
        levelled.len(),
        buffer.len(),
        queries.len(),
        if cfg!(feature = "simd") { "AVX2 where the host has it" } else { "scalar" },
    );
    print!("  dist calls per query against the prepared query: {:.0}  (", total as f64 / n);
    for (site, count) in SITES.iter().zip(calls) {
        print!(" {site} {:.0} ", count as f64 / n);
    }
    println!("), {:.1} bounded scorings in the level", scored as f64 / n);
    println!(
        "  grid off: {:5.2} edges per call, {:5.1} ns per call",
        edges_off as f64 / total as f64,
        ns_off / total as f64,
    );
    println!(
        "  grid on:  {:5.2} edges per call, {:5.1} ns per call, {:.2} % of calls answered from \
         the grid, build {:.1} µs per query",
        edges_on as f64 / total as f64,
        ns_on / total as f64,
        100.0 * answered as f64 / total as f64,
        build_us / n,
    );
    println!(
        "  top-{K} digests over all sketches: exact {:016x}, approx {:016x}",
        exact_digest.finish(),
        approx_digest.finish(),
    );
}

/// DESIGN §12.5's probe: a k = 1 query for a verbatim copy of a corpus
/// shape finds, in a 2-shard cluster, one shard holding the copy and the
/// other with nothing close. Split the 1 200-shape `scaling_corpus` in
/// two by parity (every query shape has an even index) and time the same
/// ten queries against the whole and against each half.
fn no_near_match_probe() {
    let (shapes, queries) = scaling_corpus(1200);
    let cfg = MatchConfig { beta: 0.2, ..Default::default() };
    println!("§12.5 probe, k = 1 self-queries on the 1 200-shape scaling corpus:");
    for (modulus, parity, label) in [
        (1, 0, "one node, whole corpus       "),
        (2, 0, "half-corpus shard with copies"),
        (2, 1, "half-corpus shard without    "),
    ] {
        let mut shard =
            DynamicBase::new(0.0, geosir_geom::rangesearch::Backend::RangeTree, cfg.clone(), 512);
        for (i, (image, shape)) in shapes.iter().enumerate() {
            if i % modulus == parity {
                shard.insert(*image, shape.clone());
            }
        }
        let snap = shard.snapshot();
        let (mut scratch, mut tmp) = (MatcherScratch::new(), MatchOutcome::default());
        let (mut hits, mut stats) = (Vec::new(), RetrieveStats::default());
        let (mut best_us, mut rings, mut reported) = (f64::INFINITY, 0, 0);
        for _ in 0..5 {
            (rings, reported) = (0, 0);
            let t0 = Instant::now();
            for q in &queries {
                snap.retrieve_with_stats(&mut scratch, &mut tmp, q, 1, &mut hits, &mut stats);
                rings += stats.rings;
                reported += stats.vertices_reported;
            }
            best_us = best_us.min(t0.elapsed().as_secs_f64() * 1e6 / queries.len() as f64);
        }
        println!(
            "  {label}: {best_us:8.1} µs/query  (rings {:.1}, reported {:.0}, best score {:.4})",
            rings as f64 / queries.len() as f64,
            reported as f64 / queries.len() as f64,
            hits.first().map_or(f64::NAN, |m| m.score),
        );
    }
}
