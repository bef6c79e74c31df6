//! Per-phase cost decomposition of one retrieval: where does a query's
//! time actually go? Re-times each phase of the matcher pipeline in
//! isolation (query preparation, envelope/ring cover generation,
//! simplex-index reporting, candidate scoring) against the full
//! `retrieve_with` wall time on the same corpus, so kernel-level
//! optimisations can be aimed at the phase that dominates. Then the
//! served exact path (`Snapshot`: hash-tier seed → bounded scan of every
//! level → buffer → merge) phase by phase, beside the unseeded
//! incremental top-k loop (cover / report / per-vertex / resolve); the
//! distance census the nearest-edge grid is judged by (`dist` calls
//! against the prepared query by site, edges evaluated per call and time
//! per call with the grid off (the flat scan) and on — per site the
//! quantized raster test's rejects,
//! table reads and stored bytes read per copy, beside the same for the
//! approximate tier's rerank, the grid lists and raster quads each site
//! filled on first read and what filling them cost, and a digest of all
//! top-10 lists to compare builds by; its replay duplicates
//! `View::retrieve`'s loop — see `distance_census`); the plan sweep (`plan_sweep`: the
//! paper's index as a verifier, one `retrieve_within(τ)` envelope,
//! against the scan, by level size, k and query kind); the DESIGN
//! §12.5 probe (k = 1 self-queries against the half-corpus shard that
//! holds the copies and the one that does not); and what a write costs
//! (`carry_cost`: `churn_durable`'s world and op mix in process — per-op
//! means, what the base holds per live shape, every Bentley–Saxe carry by
//! cost and heap blocks — and the odd queries the hash tier cannot seed);
//! and what a query costs by how its base was built (`probe_plan`: the
//! same shapes inserted against bulk-loaded, and a churned base against
//! a fresh one).
//!
//! ```sh
//! cargo run --release -p geosir-bench --bin phase_prof [-- n_shapes [large|carry|probe|census]]
//! ```
//!
//! `large` adds the sweep's 19 000-image row (≈ 105k shapes in one
//! level, ≈ 75 s and over a GB resident); `carry` runs the `carry_cost`
//! section alone (≈ 2 min), `probe` the `probe_plan` one (≈ 1 min),
//! `census` the `distance_census` one (≈ 1 s; `scripts/results_check.sh`
//! pins its lines that carry no time).

use geosir_bench::scaling_corpus;
use geosir_core::approx::SigBuckets;
use geosir_core::dynamic::{DynMatch, DynamicBase, GlobalShapeId, QueryExplain, RetrieveStats};
use geosir_core::hashing::{signature_of, Signature};
use geosir_core::matcher::{MatchConfig, MatchOutcome, Matcher, RingExplain};
use geosir_core::normalize::{normalize_about_diameter, normalized_copies};
use geosir_core::scratch::MatcherScratch;
use geosir_core::shapebase::{ShapeBase, ShapeBaseBuilder};
use geosir_core::similarity::{
    prepare_into, score, score_bounded_with, score_prepared_bounded, LuneFrame, PreparedShape,
    QuantRaster, ScoreKind,
};
use geosir_core::{ApproxOptions, ApproxScratch, ApproxStats};
use geosir_geom::envelope::{envelope_cover_into, ring_cover_into};
use geosir_geom::rangesearch::IndexScratch;
use geosir_geom::segindex::GRID_N;
use geosir_geom::{Point, Polyline, Triangle};
use geosir_geom::rangesearch::Backend;
use geosir_imaging::synth::{generate, perturb, Corpus, CorpusConfig};
use rand::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts heap blocks (allocations and reallocations) and live bytes, so
/// `carry_cost` can say what each carry allocated and what the process
/// holds.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const K: usize = 10;
/// Rounds of the served line's back-to-back phase timings.
const ROUNDS: usize = 9;
/// Interleaved passes of [`probe_plan`]'s pairs.
const PROBE_PASSES: usize = 15;
/// What the server scores with.
const KIND: ScoreKind = ScoreKind::DiscreteSymmetric;

/// `pts` as a base stores them in the α = 0 frame: quantized, or (a
/// vertex outside the frame) not at all.
fn quantized(frame: &LuneFrame, pts: &[Point]) -> Vec<[u16; 2]> {
    pts.iter().map(|&p| frame.quantize(p)).collect::<Option<_>>().unwrap_or_default()
}

/// `query` with its grid and lower-bound raster, and that raster mapped
/// onto `frame` — the query as the served exact path prepares it.
fn rastered(query: &Polyline, frame: &LuneFrame) -> (PreparedShape, QuantRaster) {
    laid(normalize_about_diameter(query).unwrap().0.shape, frame)
}

/// The normalized query `primary` prepared as [`rastered`] does: its grid
/// and raster laid, every cell unfilled.
fn laid(primary: Polyline, frame: &LuneFrame) -> (PreparedShape, QuantRaster) {
    let mut prepared = PreparedShape::new(primary);
    prepared.build_grid();
    let mut raster = QuantRaster::default();
    raster.build(frame, &prepared);
    (prepared, raster)
}

/// The matcher's per-query phase times (µs) and work counts, summed over
/// a query set by [`Phases::add_run`] from what each run recorded: its
/// rings (EXPLAIN capture), the triangles it submitted and the copies it
/// scored.
#[derive(Default)]
struct Phases {
    total: f64,
    cover: f64,
    report: f64,
    per_vertex: f64,
    resolve: f64,
    rings: usize,
    reported: usize,
    scored: usize,
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
                KIND,
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
            "{label} total {:7.1} | cover {:6.1}  report {:7.1}  per-vertex {:7.1}  resolve {:6.1} \
             µs/query  (rings {:.1}, reported {:.0}, scored {:.0})",
            self.total / n,
            self.cover / n,
            self.report / n,
            self.per_vertex / n,
            self.resolve / n,
            self.rings as f64 / n,
            self.reported as f64 / n,
            self.scored as f64 / n,
        );
    }
}

/// The benchmark's `exact_sketch` world as the driver leaves it: the
/// first 1 024 shapes of `small(200, 1)` in one level, the rest in the
/// insert buffer; its 100 sketches.
fn canonical_world(cfg: &MatchConfig) -> (Corpus, Vec<Polyline>, DynamicBase) {
    let corpus = generate(&CorpusConfig::small(200, 1));
    let queries = corpus.queries(100, 0.02, 1);
    let mut dynamic = DynamicBase::new(0.0, cfg.clone(), 512);
    let (levelled, buffered) = corpus.shapes.split_at(1024);
    dynamic.bulk_load(levelled.iter().map(|(image, _, s)| (*image, s.clone())));
    for (image, _, s) in buffered {
        dynamic.insert(*image, s.clone());
    }
    (corpus, queries, dynamic)
}

/// Wall time of `f` over `queries`, µs in all, after one warm-up pass.
fn timed(queries: &[Polyline], f: &mut dyn FnMut(usize, &Polyline)) -> f64 {
    queries.iter().enumerate().for_each(|(i, q)| f(i, q));
    let t0 = Instant::now();
    queries.iter().enumerate().for_each(|(i, q)| f(i, q));
    t0.elapsed().as_secs_f64() * 1e6
}

/// The served exact path on the canonical benchmark's `exact_sketch`
/// world (k = [`K`]) beside the unseeded top-k loop over one static base
/// of the same shapes: wall time per query, and the phases re-timed in
/// isolation — for the served path the seed (the hash tier's own call),
/// the buffer (its prepared copies the seed did not judge, against the
/// final k-th score) and the
/// merge (a sort of the board, which by then is little more than the
/// answer); the scan is what is left of the total. The four are timed
/// back to back in each of [`ROUNDS`] rounds, so each round's scan is a
/// difference of passes taken together: host drift between rounds moves
/// the scan's range, not its median.
fn exact_path_phases() {
    let cfg = MatchConfig { beta: 0.2, k: K, ..Default::default() };
    let (corpus, queries, dynamic) = canonical_world(&cfg);
    let snap = dynamic.snapshot();
    let base = &corpus.build_base(0.0);
    let matcher = Matcher::new(base, cfg);
    let frame = LuneFrame::new(0.0);
    let family = snap.hash_family();
    let buffer: Vec<(PreparedShape, Vec<[u16; 2]>, Signature)> = corpus.shapes[1024..]
        .iter()
        .flat_map(|(_, _, s)| normalized_copies(s, 0.0))
        .map(|c| (quantized(&frame, c.shape.points()), signature_of(family, &c.shape), PreparedShape::new(c.shape)))
        .map(|(q, sig, c)| (c, q, sig))
        .collect();
    let mut scratch = MatcherScratch::new();
    let mut tmp = MatchOutcome::default();
    let mut ax = ApproxScratch::new();
    let (mut hits, mut stats, mut astats) =
        (Vec::new(), RetrieveStats::default(), ApproxStats::default());
    let opts = ApproxOptions { k: K, ..ApproxOptions::default() };
    let n = queries.len() as f64;
    let (mut copies, mut survivors, mut tightness) = (0, 0, 0.0);
    // what each query's buffer pass and merge worked on: the buffered
    // copies the seed did not judge (past its last ring), the final k-th
    // score, the board
    let mut finals: Vec<((PreparedShape, QuantRaster), f64, Vec<DynMatch>)> = Vec::new();
    let mut unjudged: Vec<Vec<bool>> = Vec::new();
    for q in &queries {
        snap.similar_approx_with(&mut scratch, &mut tmp, &mut ax, q, &opts, &mut hits, &mut astats);
        let qsig = signature_of(family, rastered(q, &frame).0.shape());
        unjudged.push(buffer.iter().map(|(.., sig)| qsig.curve_distance(sig) > astats.radius).collect());
        let tau = hits.get(K - 1).map_or(f64::INFINITY, |m| m.score);
        snap.retrieve_with_stats(&mut scratch, &mut tmp, q, K, &mut hits, &mut stats);
        copies += stats.scan_copies;
        survivors += stats.scan_survivors;
        let kth = hits.last().map_or(f64::INFINITY, |m| m.score);
        tightness += kth / tau;
        finals.push((rastered(q, &frame), kth, hits.clone()));
    }
    // each phase timed over the whole query set on its own, so one
    // phase's working set never evicts another's; per round: total,
    // seed, buffer, merge, and the scan they leave, in µs per query
    let mut rounds: Vec<[f64; 5]> = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        let total = timed(&queries, &mut |_, q| {
            snap.retrieve_with_stats(&mut scratch, &mut tmp, q, K, &mut hits, &mut stats)
        });
        let seed = timed(&queries, &mut |_, q| {
            snap.similar_approx_with(&mut scratch, &mut tmp, &mut ax, q, &opts, &mut hits, &mut astats)
        });
        let buffered = timed(&queries, &mut |i, _| {
            let ((prepared, raster), kth, _) = &finals[i];
            let sum: f64 = buffer
                .iter()
                .zip(&unjudged[i])
                .filter(|(_, unjudged)| **unjudged)
                .map(|((c, q, _), _)| match raster.rejects_under(prepared.index(), q, QuantRaster::limit(q.len(), *kth)) {
                    Some(_) => 9.0,
                    None => score_prepared_bounded(KIND, c, prepared, *kth).min(9.0),
                })
                .sum();
            std::hint::black_box(sum);
        });
        let merge = timed(&queries, &mut |i, _| {
            let mut board = finals[i].2.clone();
            board.sort_unstable_by(|a, b| a.score.partial_cmp(&b.score).unwrap().then(a.shape.cmp(&b.shape)));
            board.truncate(K);
            std::hint::black_box(board);
        });
        rounds.push([total, seed, buffered, merge, total - seed - buffered - merge].map(|us| us / n));
    }
    let sorted = |phase: usize| {
        let mut v: Vec<f64> = rounds.iter().map(|r| r[phase]).collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let [total, seed, buffered, merge, scan] = [0, 1, 2, 3, 4].map(sorted);
    let mid = ROUNDS / 2;
    let mut unseeded = Phases {
        total: timed(&queries, &mut |_, q| matcher.retrieve_with(&mut scratch, q, &mut tmp)),
        ..Phases::default()
    };
    // then each run once more with capture on: `tmp` keeps the triangles,
    // rings and scored copies for the phase replay
    for q in &queries {
        tmp.explain.enabled = true;
        matcher.retrieve_with(&mut scratch, q, &mut tmp);
        tmp.explain.enabled = false;
        unseeded.add_run(base, q, &tmp, f64::INFINITY);
    }
    println!(
        "exact path, canonical corpus ({} shapes, {} sketches, k = {K}; phases re-timed in \
         isolation, total is the real call):",
        corpus.shapes.len(),
        queries.len()
    );
    println!(
        "  served   (Snapshot):     total {:7.1} | seed {:6.1}  scan {:6.1} [{:.1}, {:.1}]  buffer \
         {:6.1}  merge {:4.1} µs/query  (medians of {ROUNDS} rounds; scan = total − the rest per \
         round, [min, max]; copies scored {:.0}, survivors {:.1}, k-th/τ {:.3})",
        total[mid],
        seed[mid],
        scan[mid],
        scan[0],
        scan[ROUNDS - 1],
        buffered[mid],
        merge[mid],
        copies as f64 / n,
        survivors as f64 / n,
        tightness / n,
    );
    unseeded.print("  unseeded (Matcher TopK):", queries.len());
}

fn main() {
    let n_shapes: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(4000);
    let large = std::env::args().any(|a| a == "large");
    if std::env::args().any(|a| a == "carry") {
        return carry_cost();
    }
    if std::env::args().any(|a| a == "probe") {
        return probe_plan();
    }
    if std::env::args().any(|a| a == "census") {
        return distance_census();
    }
    let (shapes, queries) = scaling_corpus(n_shapes);
    let mut builder = ShapeBaseBuilder::new();
    let polys: Vec<_> = shapes.iter().map(|(_, s)| s.clone()).collect();
    for (image, shape) in shapes {
        builder.add_shape(image, shape);
    }
    let base = builder.build_with_threads(0.0, Backend::RangeTree, 0);
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
        prepare_into(&mut slot, q.points().iter().copied(), q.is_closed());
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
        let prepared = prepare_into(&mut slot, q.points().iter().copied(), q.is_closed());
        for c in 0..*nscored {
            let cand = &polys[(qi * 31 + c * 7) % polys.len()];
            score_sink += score(KIND, cand, prepared);
            scored += 1;
        }
    }
    let score_us = t0.elapsed().as_micros() as f64 / queries.len() as f64;

    let avg_scored = finals.iter().map(|f| f.2).sum::<usize>() as f64 / finals.len() as f64;
    let avg_iters = finals.iter().map(|f| f.1).sum::<usize>() as f64 / finals.len() as f64;
    let avg_tris = finals.iter().map(|f| f.3).sum::<usize>() as f64 / finals.len() as f64;
    println!("# phase_prof — {n_shapes} shapes, {} queries", queries.len());
    println!("avg per query: iters {avg_iters:.1}, tris {avg_tris:.1}, scored {avg_scored:.1}");
    println!("retrieve total:   {total_us:8.1} µs/query");
    println!("  prepare query:  {prep_us:8.1} µs/query");
    println!("  cover gen:      {cover_us:8.1} µs/query (upper bound, final ring x iters)");
    println!("  simplex report: {report_us:8.1} µs/query (final ring only; incl cover regen)");
    println!("  scoring h_avg:  {score_us:8.1} µs/query ({:.1} µs/candidate)",
        score_us / (avg_scored.max(1e-9)));
    println!("(sinks: tris {tri_sink}, verts {vert_sink}, score {score_sink:.3}, scored {scored})");
    exact_path_phases();
    distance_census();
    plan_sweep(large);
    no_near_match_probe();
    carry_cost();
    probe_plan();
}

/// What the early-abandoning forward `h_avg` does with `cand`, stored as
/// `quantized` — the raster test of `similarity::score_copy_bounded` (a
/// raster and a finite cutoff) and the loop of
/// `h_avg_discrete_abandoning`, which keep no count: the quantized
/// vertices the test reads and whether they alone rejected the copy; if
/// not, the vertices whose distance to `query` the loop asks for before
/// it stops, pushed onto `calls`.
fn forward_calls(
    cand: &Polyline,
    quantized: &[[u16; 2]],
    query: &PreparedShape,
    raster: Option<&QuantRaster>,
    cutoff: f64,
    calls: &mut Vec<Point>,
) -> (usize, bool) {
    let mut reads = 0;
    if let Some(raster) = raster.filter(|_| cutoff.is_finite()) {
        match raster.rejects_under(query.index(), quantized, QuantRaster::limit(quantized.len(), cutoff)) {
            Some(read) => return (read, true),
            None => reads = quantized.len(),
        }
    }
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
    (reads, false)
}

/// Fold the `(id, score bits)` of one more result list into `hasher`.
fn digest(hasher: &mut DefaultHasher, hits: &[DynMatch]) {
    for m in hits {
        (m.shape.0, m.score.to_bits()).hash(hasher);
    }
}

/// Where the point-to-query distances of a served exact query are asked
/// for, and what each costs with the query's nearest-edge grid off and
/// on; per site, how many bounded scorings the quantized raster test
/// settled from the query's table alone, after how many cell reads, how
/// many distances the rest asked for, and how many bytes of the stored
/// copies all that read — and the same for a fourth site, the
/// approximate tier's rerank of the seed's candidates (`QueryApprox`:
/// through the raster too), whose distances are not in the exact query's
/// count; per site, how many grid lists and raster quads its reads
/// filled (a query pays for those cells alone), and what filling them
/// cost. The world is the benchmark's `exact_sketch` one
/// ([`canonical_world`]) with a static twin of the level (same copies,
/// same ids), so each site can be replayed through the public API; the
/// replay is checked against the runs' own counts and answers.
///
/// The replay below is a second copy of `View::retrieve` — the cascade
/// (ring-by-ring collection, buffer rings), then one bounded-scoring loop
/// over the seed's candidates, the level's remaining copies and the
/// buffer's, against the per-shape k-th-best cutoff — and
/// [`forward_calls`] one of `h_avg_discrete_abandoning`: they track the
/// library by hand, and the asserts only catch drift by panicking. If
/// the census outlives the decision it was written for, replace the
/// replay with a per-call hook in the library (widen
/// `SegmentIndex::probe_cost`) instead of growing it.
fn distance_census() {
    // the exact query's three sites, then the approximate tier's rerank
    const SITES: [&str; 4] = ["seed", "scan", "buffer", "approx rerank"];
    const EXACT: usize = 3;
    let cfg = MatchConfig { beta: 0.2, k: K, ..Default::default() };
    let (corpus, queries, dynamic) = canonical_world(&cfg);
    let (levelled, buffered) = corpus.shapes.split_at(1024);
    let mut builder = ShapeBaseBuilder::new();
    for (image, _, s) in levelled {
        builder.add_shape(*image, s.clone());
    }
    let twin = builder.build(0.0, Backend::RangeTree);
    let snap = dynamic.snapshot();
    let family = snap.hash_family();
    let buckets = SigBuckets::build(family, &twin);
    let mut twin_sigs = vec![Signature::default(); twin.num_copies()];
    for (sig, copies) in buckets.iter() {
        copies.iter().for_each(|c| twin_sigs[c.index()] = sig);
    }
    let frame = LuneFrame::new(0.0);
    let mut twin_q = Vec::new();
    for (cid, copy) in twin.copies() {
        assert_eq!(cid.index(), twin_q.len());
        twin_q.push(quantized(&frame, copy.normalized.points()));
    }
    // a buffered shape as the base holds it: id (the level took 0..1024),
    // prepared and quantized copies, signatures
    let buffer: Vec<_> = buffered
        .iter()
        .enumerate()
        .map(|(i, (_, _, s))| {
            let copies: Vec<PreparedShape> =
                normalized_copies(s, 0.0).into_iter().map(|c| PreparedShape::new(c.shape)).collect();
            let stored: Vec<_> = copies.iter().map(|c| quantized(&frame, c.shape().points())).collect();
            let sigs: Vec<_> = copies.iter().map(|c| signature_of(family, c.shape())).collect();
            (1024 + i as u64, copies, stored, sigs)
        })
        .collect();

    let (mut scratch, mut tmp, mut ax) =
        (MatcherScratch::new(), MatchOutcome::default(), ApproxScratch::new());
    let (mut hits, mut seeds) = (Vec::new(), Vec::new());
    let (mut stats, mut astats) = (RetrieveStats::default(), ApproxStats::default());
    let opts = ApproxOptions { k: K, ..ApproxOptions::default() };
    let mut back = None;
    let mut sites: [Vec<Point>; 4] = Default::default();
    let (mut calls, mut edges_off, mut edges_on, mut answered) = ([0usize; 4], 0, 0, 0);
    // per site: bounded scorings, raster rejects, raster cells read, and
    // stored bytes read — as stored, and as an `f64` arena would have held
    // the same vertices — and the grid lists and raster quads its reads
    // filled
    let (mut scorings, mut rejects, mut reads) = ([0usize; 4], [0usize; 4], [0usize; 4]);
    let (mut bytes, mut f64_bytes) = ([0usize; 4], [0usize; 4]);
    let (mut lists, mut quads) = ([0usize; 4], [0usize; 4]);
    let mut scanned = 0;
    let (mut ns_off, mut ns_on) = (0.0, 0.0);
    // filling what the approximate and the exact query filled, and every
    // cell: once as a query meets it, and best of 20
    let (mut fill_approx, mut fill_exact, mut fill_all) = ([0.0; 2], [0.0; 2], [0.0; 2]);
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
    // the cells `filled` names filled in a freshly laid `primary`: µs once,
    // and best of 20 (each on a fresh lay, which is not timed)
    let time_fills = |primary: &Polyline, (lists, quads): &(Vec<usize>, Vec<usize>)| {
        let mut us = [0.0; 2];
        for (at, reps) in [(0, 1), (1, 20)] {
            us[at] = 1e6 * (0..reps).fold(f64::INFINITY, |best: f64, _| {
                let (prepared, raster) = laid(primary.clone(), &frame);
                let t0 = Instant::now();
                prepared.index().fill_lists(lists.iter().copied());
                raster.fill_quads(prepared.index(), quads.iter().copied());
                best.min(t0.elapsed().as_secs_f64())
            });
        }
        us
    };
    for q in &queries {
        let primary = normalize_about_diameter(q).expect("sketches have extent").0.shape;
        let plain = PreparedShape::new(primary.clone());
        snap.similar_approx_with(&mut scratch, &mut tmp, &mut ax, q, &opts, &mut seeds, &mut astats);
        let approx_filled = scratch.filled_cells();
        snap.retrieve_with_stats(&mut scratch, &mut tmp, q, K, &mut hits, &mut stats);
        let exact_filled = scratch.filled_cells();
        digest(&mut approx_digest, &seeds);
        digest(&mut exact_digest, &hits);
        scanned += stats.scan_copies;
        sites.iter_mut().for_each(Vec::clear);
        let rejected_before = rejects;
        // the query as each tier prepares it, every cell unfilled
        let (approx_q, exact_q) = (laid(primary.clone(), &frame), laid(primary.clone(), &frame));
        let grid = &exact_q.0;

        // the one loop: score against the board's cutoff (through the
        // query's raster), keep the per-shape best, re-derive the k-th;
        // returns "not abandoned"
        type Board = (HashMap<u64, f64>, f64);
        let mut offer = |(board, cutoff): &mut Board,
                         (query, raster): &(PreparedShape, QuantRaster),
                         id: u64,
                         cand: &Polyline,
                         stored: &[[u16; 2]],
                         site: usize| {
            let called = sites[site].len();
            let (read, rejected) = forward_calls(cand, stored, query, Some(raster), *cutoff, &mut sites[site]);
            let lookups = sites[site].len() - called;
            let score = score_bounded_with(KIND, cand, query, &mut back, *cutoff);
            assert!(!rejected || score == f64::INFINITY, "a raster reject must be abandoned");
            scorings[site] += 1;
            rejects[site] += rejected as usize;
            reads[site] += read;
            // a pass reads the copy's similarity and a source vertex a
            // distance
            bytes[site] += 4 * read + if rejected { 0 } else { 32 + 16 * lookups };
            f64_bytes[site] += 16 * read.max(lookups);
            if score <= *cutoff {
                let kept = board.entry(id).or_insert(f64::INFINITY);
                *kept = score.min(*kept);
                if board.len() >= K {
                    let mut scores: Vec<f64> = board.values().copied().collect();
                    scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
                    *cutoff = scores[K - 1];
                }
            }
            score.is_finite()
        };
        // the board's k best, as an answer lists them
        let ranked = |(board, _): &Board| {
            let mut ranked: Vec<(f64, u64)> = board.iter().map(|(&id, &s)| (s, id)).collect();
            ranked.sort_by(|a, b| a.partial_cmp(b).unwrap());
            ranked.truncate(K);
            ranked
        };
        let listed = |hits: &[DynMatch]| hits.iter().map(|m| (m.score, m.shape.0)).collect::<Vec<_>>();
        // what a prepared query's reads have filled so far
        let filled = |(query, raster): &(PreparedShape, QuantRaster)| {
            (query.index().filled_lists().collect::<Vec<_>>(), raster.filled_quads().collect::<Vec<_>>())
        };
        let mut count_fills = |site: usize, now: &(Vec<usize>, Vec<usize>), before: &(Vec<usize>, Vec<usize>)| {
            lists[site] += now.0.len() - before.0.len();
            quads[site] += now.1.len() - before.1.len();
        };
        // the cascade's candidates ring by ring (level, then buffer), the
        // level's rings in the order its probe plan emits them
        let qsig = signature_of(family, grid.shape());
        let kf = family.k() as u16;
        let mut within = Vec::new();
        buckets.collect_within(kf, &qsig, astats.radius, opts.max_radius.min(kf), &mut within);
        let mut judged = vec![false; twin.num_copies()];
        let mut cands = Vec::new();
        for r in 0..=astats.radius {
            let at_r = move |s: &Signature| qsig.curve_distance(s) == r;
            let level_ring = within.iter().filter(|c| at_r(&twin_sigs[c.index()])).map(|&c| {
                judged[c.index()] = true;
                let copy = twin.copy(c);
                (copy.shape_id.0 as u64, &copy.normalized, &twin_q[c.index()][..])
            });
            let buffer_ring = buffer.iter().flat_map(|(id, copies, stored, sigs)| {
                let copies = copies.iter().zip(stored).zip(sigs);
                copies.filter(move |(_, s)| at_r(s)).map(|((c, q), _)| (*id, c.shape(), &q[..]))
            });
            cands.extend(level_ring.chain(buffer_ring));
        }
        // reranked from an empty board twice: by the approximate tier, and
        // as the exact query's seed, whose board the scan and the buffer
        // then fill
        let mut rerank = |prepared: &(PreparedShape, QuantRaster), site: usize| {
            let mut board = (HashMap::new(), f64::INFINITY);
            let abandoned = cands.iter().filter(|&&(id, cand, stored)| !offer(&mut board, prepared, id, cand, stored, site)).count();
            let replayed = (cands.len() as u64, abandoned as u64);
            assert_eq!(replayed, (astats.reranked, astats.abandoned), "{} replay diverged", SITES[site]);
            board
        };
        let approx = rerank(&approx_q, EXACT);
        assert_eq!(ranked(&approx), listed(&seeds), "the approximate replay's answer diverged");
        assert_eq!(filled(&approx_q), approx_filled, "the approximate replay filled other cells");
        count_fills(EXACT, &approx_filled, &Default::default());
        let mut board = rerank(&exact_q, 0);
        let seeded = filled(&exact_q);
        count_fills(0, &seeded, &Default::default());
        // the scan: every copy of the level the seed did not judge
        let (mut copies, mut survivors) = (0, 0);
        for (cid, copy) in twin.copies().filter(|(cid, _)| !judged[cid.index()]) {
            copies += 1;
            survivors += offer(&mut board, &exact_q, copy.shape_id.0 as u64, &copy.normalized, &twin_q[cid.index()], 1) as u64;
        }
        assert_eq!((copies, survivors), (stats.scan_copies, stats.scan_survivors), "scan replay diverged");
        assert_eq!(buffer.len() as u64, stats.buffer_scored);
        let scanned_filled = filled(&exact_q);
        count_fills(1, &scanned_filled, &seeded);
        // the buffer: every copy the seed did not judge (past its last ring)
        let buffered = buffer.iter().flat_map(|(id, copies, stored, sigs)| {
            let unjudged = copies.iter().zip(stored).zip(sigs).filter(|(_, s)| qsig.curve_distance(s) > astats.radius);
            unjudged.map(move |((copy, stored), _)| (*id, copy, stored))
        });
        for (id, copy, stored) in buffered {
            offer(&mut board, &exact_q, id, copy.shape(), stored, 2);
        }
        assert_eq!(ranked(&board), listed(&hits), "the replay's answer diverged");
        assert_eq!(filled(&exact_q), exact_filled, "the exact replay filled other cells");
        count_fills(2, &exact_filled, &scanned_filled);
        // the raster's rejects: seed + scan + buffer on the exact tier,
        // the rerank on the approximate one, as the library reports them
        let rejected: Vec<u64> = (0..SITES.len()).map(|s| (rejects[s] - rejected_before[s]) as u64).collect();
        assert_eq!(rejected[..EXACT].iter().sum::<u64>(), stats.bound_rejects, "exact rejects diverged");
        assert_eq!(rejected[EXACT], astats.bound_rejects, "approximate rejects diverged");

        let all: Vec<Point> = sites[..EXACT].concat();
        for (count, site) in calls.iter_mut().zip(&sites) {
            *count += site.len();
        }
        for &p in &all {
            let (edges, hit) = grid.index().probe_cost(p);
            edges_off += plain.index().len();
            edges_on += edges;
            answered += hit as usize;
        }
        for (ns, prepared) in [(&mut ns_off, &plain), (&mut ns_on, grid)] {
            *ns += 1e9 * best_of(5, &mut || {
                std::hint::black_box(all.iter().map(|&p| prepared.dist(p)).sum::<f64>());
            });
        }
        let every = ((0..GRID_N * GRID_N).collect(), (0..GRID_N * GRID_N).collect());
        for (sum, cells) in [(&mut fill_approx, &approx_filled), (&mut fill_exact, &exact_filled), (&mut fill_all, &every)] {
            let us = time_fills(&primary, cells);
            sum.iter_mut().zip(us).for_each(|(s, us)| *s += us);
        }
    }
    let n = queries.len() as f64;
    let total: usize = calls[..EXACT].iter().sum();
    println!(
        "distance census, canonical corpus (a {}-shape level + {} buffered, {} sketches, k = {K}):",
        levelled.len(),
        buffer.len(),
        queries.len(),
    );
    print!("  dist calls per query against the prepared query: {:.0}  (", total as f64 / n);
    for (site, count) in SITES[..EXACT].iter().zip(calls) {
        print!(" {site} {:.0} ", count as f64 / n);
    }
    println!(
        "), {:.1} copies scored by the level scan; the approximate tier's rerank asks {:.0}",
        scanned as f64 / n,
        calls[EXACT] as f64 / n,
    );
    for (s, site) in SITES.iter().enumerate() {
        let per_copy = |count: usize| count as f64 / scorings[s].max(1) as f64;
        println!(
            "    {site:13} {:6.1} bounded scorings: quantized rejects {:6.1}, passes {:5.1}; {:4.1} table \
             reads, {:4.1} distance lookups and {:5.1} B of the copy read per copy ({:5.1} B from an \
             f64 arena)",
            scorings[s] as f64 / n,
            rejects[s] as f64 / n,
            (scorings[s] - rejects[s]) as f64 / n,
            per_copy(reads[s]),
            per_copy(calls[s]),
            per_copy(bytes[s]),
            per_copy(f64_bytes[s]),
        );
    }
    println!("  cells filled per query, of 256 grid lists and 256 raster quads (each on its first read):");
    for (s, site) in SITES.iter().enumerate() {
        let more = if s == 0 || s == EXACT { "" } else { "+" };
        println!("    {site:13} {more}{:5.1} lists, {more}{:5.1} quads", lists[s] as f64 / n, quads[s] as f64 / n);
    }
    println!(
        "    exact query   {:5.1} lists, {:5.1} quads",
        lists[..EXACT].iter().sum::<usize>() as f64 / n,
        quads[..EXACT].iter().sum::<usize>() as f64 / n,
    );
    println!(
        "  grid off: {:5.2} edges per call; grid on: {:5.2} edges per call, {:.2} % of calls answered \
         from the grid",
        edges_off as f64 / total as f64,
        edges_on as f64 / total as f64,
        100.0 * answered as f64 / total as f64,
    );
    println!(
        "  lookup time: grid off {:5.1} ns per call, grid on {:5.1} ns per call (its lists filled)",
        ns_off / total as f64,
        ns_on / total as f64,
    );
    println!(
        "  fill per query: exact query {:.1} µs once as a query meets it ({:.1} best of 20 repeats), \
         approx rerank {:.1} µs once ({:.1} best of 20); every list and quad {:.1} µs once ({:.1} best \
         of 20)",
        fill_exact[0] / n,
        fill_exact[1] / n,
        fill_approx[0] / n,
        fill_approx[1] / n,
        fill_all[0] / n,
        fill_all[1] / n,
    );
    println!(
        "  top-{K} digests over all sketches: exact {:016x}, approx {:016x}",
        exact_digest.finish(),
        approx_digest.finish(),
    );
}

/// The two verifiers of a level with a cutoff, side by side:
/// `small(images, 1)` bulk-loaded into one level, 100 queries a row —
/// stored shapes verbatim (`self`: τ = 0, the smallest envelope there is)
/// or sketches of family prototypes at the given distortion — the hash
/// tier's k-th score as τ. `envelope` is one `retrieve_within(τ)` run
/// (cover + simplex report + certificate) on a static twin of the level,
/// `scan` every copy of the twin through the quantized raster test and,
/// past it, `score_bounded_with` at cutoff τ against the query as the
/// served scan prepares it (grid and lower-bound raster, the copies
/// quantized as the level stores them); neither has the seed's verdicts
/// handed to it,
/// which the served run (`Snapshot::retrieve_with_stats`: seed, then the
/// scan `View::retrieve` does) has. Every row asserts that the served
/// answer and the envelope's agree bit for bit.
fn plan_sweep(large: bool) {
    println!(
        "plan sweep, one level, 100 queries a row (µs/query; served = the real call: seed + \
         scan with the seed's verdicts handed over):"
    );
    println!(
        "  {:>7} {:>7} {:>3} {:>5} | {:>7} {:>9} {:>8} | {:>9} | {:>7} {:>8} {:>9}",
        "shapes", "copies", "k", "query", "seed", "envelope", "scan", "served", "τ mean", "reported",
        "survivors",
    );
    let cfg = MatchConfig { beta: 0.2, k: K, ..Default::default() };
    for images in [200, 700, 2000, 6000].into_iter().chain(large.then_some(19_000)) {
        let corpus = generate(&CorpusConfig::small(images, 1));
        let twin = corpus.build_base(0.0);
        let mut dynamic = DynamicBase::new(0.0, cfg.clone(), 512);
        dynamic.bulk_load(corpus.shapes.iter().map(|(image, _, s)| (*image, s.clone())));
        let snap = dynamic.snapshot();
        let matcher = Matcher::new(&twin, cfg.clone());
        let frame = LuneFrame::new(0.0);
        let stored: Vec<_> = twin.copies().map(|(_, c)| quantized(&frame, c.normalized.points())).collect();
        let (mut scratch, mut tmp, mut ax) =
            (MatcherScratch::new(), MatchOutcome::default(), ApproxScratch::new());
        let (mut hits, mut stats, mut astats) =
            (Vec::new(), RetrieveStats::default(), ApproxStats::default());
        let mut back = None;
        for (k, distortion) in
            [(1, None), (1, Some(0.0)), (1, Some(0.02)), (K, Some(0.0)), (K, Some(0.02))]
        {
            let opts = ApproxOptions { k, ..ApproxOptions::default() };
            let mut queries = match distortion {
                Some(d) => corpus.queries(100, d, 1),
                None => {
                    let step = corpus.shapes.len() / 100;
                    corpus.shapes.iter().step_by(step).take(100).map(|(_, _, s)| s.clone()).collect()
                }
            };
            // τ per query; one the hash tier cannot seed has no τ to hand
            // either verifier
            let mut taus = Vec::new();
            queries.retain(|q| {
                snap.similar_approx_with(&mut scratch, &mut tmp, &mut ax, q, &opts, &mut hits, &mut astats);
                hits.get(k - 1).map(|m| taus.push(m.score)).is_some()
            });
            let prepared: Vec<(PreparedShape, QuantRaster)> = queries.iter().map(|q| rastered(q, &frame)).collect();
            let n = queries.len() as f64;
            let seed = timed(&queries, &mut |_, q| {
                snap.similar_approx_with(&mut scratch, &mut tmp, &mut ax, q, &opts, &mut hits, &mut astats)
            });
            let envelope = timed(&queries, &mut |i, q| {
                matcher.retrieve_within_with(&mut scratch, q, taus[i], &mut tmp)
            });
            let mut survivors = 0;
            let scan = timed(&queries, &mut |i, _| {
                let (query, raster) = &prepared[i];
                survivors += twin
                    .copies()
                    .zip(&stored)
                    .filter(|((_, copy), q)| {
                        raster.rejects_under(query.index(), q, QuantRaster::limit(q.len(), taus[i])).is_none()
                            && score_bounded_with(KIND, &copy.normalized, query, &mut back, taus[i]).is_finite()
                    })
                    .count();
            });
            let served = timed(&queries, &mut |_, q| {
                snap.retrieve_with_stats(&mut scratch, &mut tmp, q, k, &mut hits, &mut stats)
            });
            let (mut reported, mut capped) = (0, 0);
            for (q, &tau) in queries.iter().zip(&taus) {
                snap.retrieve_with_stats(&mut scratch, &mut tmp, q, k, &mut hits, &mut stats);
                matcher.retrieve_within_with(&mut scratch, q, tau, &mut tmp);
                reported += tmp.stats.vertices_reported;
                if tmp.stats.exhausted {
                    capped += 1; // τ / f_u past the ε-cap: the envelope's set may be short
                    continue;
                }
                // bulk load: level ShapeId i is GlobalShapeId i
                let want: Vec<_> = hits.iter().map(|m| (m.shape.0, m.score.to_bits())).collect();
                let got: Vec<_> =
                    tmp.matches[..k].iter().map(|m| (m.shape.0 as u64, m.score.to_bits())).collect();
                assert_eq!(got, want, "the two verifiers disagree");
            }
            println!(
                "  {:7} {:7} {:3} {:>5} | {:7.1} {:9.1} {:8.1} | {:9.1} | {:7.4} {:7.1}% {:9.1}{}",
                corpus.shapes.len(),
                twin.num_copies(),
                k,
                distortion.map_or("self".into(), |d| format!("{d:.2}")),
                seed / n,
                envelope / n,
                scan / n,
                served / n,
                taus.iter().sum::<f64>() / n,
                100.0 * reported as f64 / (n * twin.total_vertices() as f64),
                // (two timed passes)
                survivors as f64 / (2.0 * n),
                if capped > 0 { format!("  ({capped} envelopes stopped at the ε-cap)") } else { String::new() },
            );
        }
    }
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
        let mut shard = DynamicBase::new(0.0, cfg.clone(), 512);
        for (i, (image, shape)) in shapes.iter().enumerate() {
            if i % modulus == parity {
                shard.insert(*image, shape.clone());
            }
        }
        let snap = shard.snapshot();
        let (mut scratch, mut tmp) = (MatcherScratch::new(), MatchOutcome::default());
        let (mut hits, mut stats) = (Vec::new(), RetrieveStats::default());
        let (mut best_us, mut scanned, mut survivors) = (f64::INFINITY, 0, 0);
        for _ in 0..5 {
            (scanned, survivors) = (0, 0);
            let t0 = Instant::now();
            for q in &queries {
                snap.retrieve_with_stats(&mut scratch, &mut tmp, q, 1, &mut hits, &mut stats);
                scanned += stats.scan_copies;
                survivors += stats.scan_survivors;
            }
            best_us = best_us.min(t0.elapsed().as_secs_f64() * 1e6 / queries.len() as f64);
        }
        println!(
            "  {label}: {best_us:8.1} µs/query  (copies scanned {:.0}, survivors {:.1}, best score \
             {:.4})",
            scanned as f64 / queries.len() as f64,
            survivors as f64 / queries.len() as f64,
            hits.first().map_or(f64::NAN, |m| m.score),
        );
    }
}

/// A star whose vertices alternate between a long and a short radius —
/// like nothing a polygon corpus stores, so the hash tier often finds
/// fewer than k live shapes near it and the exact query runs unseeded.
fn spiky_star(rng: &mut StdRng, n: usize) -> Polyline {
    let pts = (0..n).map(|i| {
        let t = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
        let r = if i % 2 == 0 { rng.random_range(0.7..1.0) } else { rng.random_range(0.05..0.3) };
        Point::new(r * t.cos(), r * t.sin())
    });
    Polyline::closed(pts.collect()).expect("a star is simple")
}

/// What a write costs, in process: `churn_durable`'s world (`small(700,
/// 1)`, 3 841 shapes, preloaded one `insert` at a time as the driver
/// does) under its op mix — 45 % insert / 45 % delete / 10 %
/// `similar_approx_with`, a `snapshot()` after every write as the
/// server's publish takes one — with every insert that carried listed by
/// cost and by the heap blocks it allocated, and each census row saying
/// what the base (`Snapshot::heap_bytes`) and the whole process hold per
/// live shape. Before the churn, on the same base: 400 odd queries (spiky
/// stars of 3–80 vertices), of which those the hash tier cannot seed
/// have every level answered from a cutoff of ∞.
fn carry_cost() {
    const OPS: usize = 60_000;
    let cfg = MatchConfig { beta: 0.2, k: K, ..Default::default() };
    let corpus = generate(&CorpusConfig::small(700, 1));
    let sketches = corpus.queries(100, 0.02, 1);
    let mut rng = StdRng::seed_from_u64(1);
    let us = |t0: Instant| t0.elapsed().as_secs_f64() * 1e6;

    let t0 = Instant::now();
    let mut bulk = DynamicBase::new(0.0, cfg.clone(), 512);
    bulk.bulk_load(corpus.shapes.iter().map(|(image, _, s)| (*image, s.clone())));
    let bulk_ms = us(t0) / 1e3;
    drop(bulk);
    let (t0, held) = (Instant::now(), LIVE.load(Ordering::Relaxed));
    let mut base = DynamicBase::new(0.0, cfg, 512);
    let mut live: Vec<GlobalShapeId> =
        corpus.shapes.iter().map(|(image, _, s)| base.insert(*image, s.clone())).collect();
    let preload_ms = us(t0) / 1e3;
    println!(
        "carry cost, churn_durable's world ({} shapes; bulk_load {bulk_ms:.1} ms, preload by insert \
         {preload_ms:.1} ms, {} shapes carried so far; heap_bytes {:.0} B a shape):",
        live.len(),
        base.shapes_rebuilt,
        base.snapshot().heap_bytes() as f64 / live.len() as f64,
    );

    let (mut scratch, mut tmp, mut ax) =
        (MatcherScratch::new(), MatchOutcome::default(), ApproxScratch::new());
    let (mut hits, mut stats, mut astats) =
        (Vec::new(), RetrieveStats::default(), ApproxStats::default());
    let mut snap = base.snapshot();

    let stars: Vec<Polyline> = (0..400).map(|_| {
        let n = rng.random_range(3..=80);
        spiky_star(&mut rng, n)
    }).collect();
    println!("  400 odd queries (spiky stars, 3–80 vertices), exact, on the preloaded base:");
    let mut explain = QueryExplain::default();
    for k in [10, 50] {
        let (mut lists, mut unseeded) = (DefaultHasher::new(), 0);
        for q in &stars {
            snap.explain_with_stats(&mut scratch, &mut tmp, q, k, &mut hits, &mut stats, &mut explain);
            digest(&mut lists, &hits);
            // a scan that started from ∞: the seed found fewer than k
            unseeded += explain.levels.iter().any(|l| l.cutoff.is_infinite()) as usize;
        }
        let best = (0..3).fold(f64::INFINITY, |best, _| {
            let t0 = Instant::now();
            for q in &stars {
                snap.retrieve_with_stats(&mut scratch, &mut tmp, q, k, &mut hits, &mut stats);
            }
            best.min(us(t0) / stars.len() as f64)
        });
        println!(
            "    k = {k:2}: {unseeded:3} unseeded, mean {:8.1} µs/query over all 400 (best of 3 \
             passes), digest {:016x}",
            best,
            lists.finish(),
        );
    }

    // (sum µs, count, worst µs) per op kind
    let mut cost = [(0.0f64, 0usize, 0.0f64); 4];
    let mut note = |kind: usize, t: f64| {
        let (sum, count, worst) = &mut cost[kind];
        *sum += t;
        *count += 1;
        *worst = worst.max(t);
    };
    // (µs, shapes carried, heap blocks the insert allocated)
    let mut carries: Vec<(f64, u64, u64)> = Vec::new();
    // deletes that rebuilt their level without its dead, and what they took
    let (mut compacting, mut compact_us, mut worst_delete) = (0usize, 0.0f64, 0.0f64);
    let opts = ApproxOptions { k: K, ..ApproxOptions::default() };
    println!("  churn census (shapes; copies: of the live shapes / as stored, dead included):");
    for i in 0..OPS {
        let roll = rng.random_range(0..100);
        if roll < 90 {
            if roll < 45 || live.is_empty() {
                let (image, _, proto) = &corpus.shapes[rng.random_range(0..corpus.shapes.len())];
                let shape = perturb(proto, &mut rng, 0.02);
                let (rebuilt, blocks) = (base.shapes_rebuilt, ALLOCATIONS.load(Ordering::Relaxed));
                let t0 = Instant::now();
                live.push(base.insert(*image, shape));
                let t = us(t0);
                note(0, t);
                if base.shapes_rebuilt > rebuilt {
                    let blocks = ALLOCATIONS.load(Ordering::Relaxed) - blocks;
                    carries.push((t, base.shapes_rebuilt - rebuilt, blocks));
                }
            } else {
                let id = live.swap_remove(rng.random_range(0..live.len()));
                let compactions = base.compactions;
                let t0 = Instant::now();
                assert!(base.delete(id));
                let t = us(t0);
                note(1, t);
                worst_delete = worst_delete.max(t);
                if base.compactions > compactions {
                    compacting += 1;
                    compact_us += t;
                }
            }
            let t0 = Instant::now();
            snap = base.snapshot();
            note(2, us(t0));
        } else {
            let q = &sketches[i % sketches.len()];
            let t0 = Instant::now();
            snap.similar_approx_with(&mut scratch, &mut tmp, &mut ax, q, &opts, &mut hits, &mut astats);
            note(3, us(t0));
        }
        if (i + 1) % 10_000 == 0 {
            let (live_copies, stored) = (snap.total_copies(), snap.stored_copies());
            println!(
                "    {:5} ops: {:4} live + {:4} dead in {} levels; copies {live_copies:5} / {stored:5} \
                 ({:.2} ×), {:4.0} B a live shape (process heap {:5.0}); {compacting:3} \
                 compactions, {:5.1} ms; worst delete {:6.1} µs",
                i + 1,
                snap.len(),
                snap.dead_shapes(),
                snap.num_levels(),
                stored as f64 / live_copies as f64,
                snap.heap_bytes() as f64 / snap.len() as f64,
                LIVE.load(Ordering::Relaxed).saturating_sub(held) as f64 / snap.len() as f64,
                compact_us / 1e3,
                worst_delete,
            );
            assert!(stored <= 2 * live_copies, "more dead than alive");
        }
    }
    println!("  {OPS} ops, 45 % insert / 45 % delete / 10 % approx, a snapshot per write:");
    for (name, (sum, count, worst)) in ["insert", "delete", "snapshot", "approx"].iter().zip(cost) {
        println!(
            "    {name:8} {count:6} ops  mean {:7.2} µs  worst {:9.1} µs",
            sum / count.max(1) as f64,
            worst,
        );
    }
    carries.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let total: f64 = carries.iter().map(|c| c.0).sum();
    println!(
        "    {} carries, {:.1} ms in all ({:.1} % of insert time), shapes_rebuilt {} ({} live at \
         the end); the ten dearest (ms / shapes / heap blocks the insert allocated):",
        carries.len(),
        total / 1e3,
        100.0 * total / cost[0].0,
        base.shapes_rebuilt,
        base.len(),
    );
    let dearest: Vec<String> = carries
        .iter()
        .take(10)
        .map(|(t, shapes, blocks)| format!("{:.2} / {shapes} / {blocks}", t / 1e3))
        .collect();
    println!("      {}", dearest.join(", "));

    // What the delete history costs a query: the churned base against
    // one restored from its live shapes (one level, nothing dead).
    let fresh = DynamicBase::restore(
        0.0,
        snap.config().clone(),
        512,
        snap.live_shapes(),
        snap.next_id(),
        snap.epoch(),
    )
    .snapshot();
    println!("  the churned base beside a fresh one of its {} live shapes (per query):", fresh.len());
    for (name, base) in [("churned", &snap), ("fresh", &fresh)] {
        let mut lists = DefaultHasher::new();
        let (mut scan, mut exact_us) = (0u64, 0.0);
        for q in &stars {
            let t0 = Instant::now();
            base.retrieve_with_stats(&mut scratch, &mut tmp, q, 10, &mut hits, &mut stats);
            exact_us += us(t0);
            scan += stats.scan_copies;
            digest(&mut lists, &hits);
        }
        let (mut probed, mut cands, mut reranked, mut approx_us) = (0, 0, 0, 0.0);
        let mut alists = DefaultHasher::new();
        for q in &sketches {
            let t0 = Instant::now();
            base.similar_approx_with(&mut scratch, &mut tmp, &mut ax, q, &opts, &mut hits, &mut astats);
            approx_us += us(t0);
            probed += astats.buckets_probed;
            cands += astats.candidates;
            reranked += astats.reranked;
            digest(&mut alists, &hits);
        }
        let (nq, ns) = (stars.len() as f64, sketches.len() as f64);
        println!(
            "    {name:8} 400 odd queries, exact k = 10: scan_copies {:7.0}, {:7.1} µs, digest {:016x}",
            scan as f64 / nq,
            exact_us / nq,
            lists.finish(),
        );
        println!(
            "    {name:8} 100 sketches, approx: buckets_probed {:6.0}, candidates {:6.0}, live ones \
             reranked {:6.0}, {:6.1} µs, digest {:016x}",
            probed as f64 / ns,
            cands as f64 / ns,
            reranked as f64 / ns,
            approx_us / ns,
            alists.finish(),
        );
    }
}

/// What a query costs by how its base was built, through the public
/// calls a server makes (`similar_approx_with` for `QueryApprox`,
/// `retrieve_with_stats` for `Query`, k = [`K`], 100 sketches): the
/// shapes of `small(200 | 350 | 700, 1)` inserted one at a time, as a
/// node that took them by `Insert` holds them (Bentley–Saxe levels and a
/// buffer), against the same shapes bulk-loaded into one level, as a
/// restart leaves them; then the 3 841-shape base after 20 000 more
/// inserts and deletes by turns against one restored from its live
/// shapes. Each pair is timed in [`PROBE_PASSES`] interleaved passes,
/// the order alternating; the gap is the median of the per-pass
/// differences, with its quartiles. The two bases of a pair must give
/// the same answers.
fn probe_plan() {
    let cfg = MatchConfig { beta: 0.2, k: K, ..Default::default() };
    let opts = ApproxOptions { k: K, ..ApproxOptions::default() };
    let (mut scratch, mut tmp, mut ax) = (MatcherScratch::new(), MatchOutcome::default(), ApproxScratch::new());
    let (mut hits, mut stats, mut astats) = (Vec::new(), RetrieveStats::default(), ApproxStats::default());
    println!(
        "probe plan: inserted − bulk-loaded bases, 100 sketches, k = {K}, {PROBE_PASSES} interleaved passes \
         (µs/query, medians; gap = median per-pass difference [quartiles]):"
    );
    println!(
        "  {:>6} {:9} {:>6} {:>7} {:>7} | {:>8} {:>22} | {:>8} {:>22}",
        "shapes", "base", "levels", "buckets", "probed", "approx", "gap", "exact", "gap"
    );
    let mut worlds = Vec::new();
    let mut corpus = None;
    for images in [200, 350, 700] {
        let world = generate(&CorpusConfig::small(images, 1));
        let mut inserted = DynamicBase::new(0.0, cfg.clone(), 512);
        for (image, _, s) in &world.shapes {
            inserted.insert(*image, s.clone());
        }
        let mut bulk = DynamicBase::new(0.0, cfg.clone(), 512);
        bulk.bulk_load(world.shapes.iter().map(|(image, _, s)| (*image, s.clone())));
        worlds.push((["inserted", "bulk"], world.queries(100, 0.02, 1), inserted.snapshot(), bulk.snapshot()));
        corpus = Some(world);
    }
    // churn_durable's world after churn: the last pair, a churned base
    // against a fresh one of its live shapes
    let corpus = corpus.expect("three worlds");
    let mut rng = StdRng::seed_from_u64(1);
    let mut churned = DynamicBase::new(0.0, cfg.clone(), 512);
    let mut live: Vec<GlobalShapeId> =
        corpus.shapes.iter().map(|(image, _, s)| churned.insert(*image, s.clone())).collect();
    for i in 0..20_000 {
        if i % 2 == 0 || live.is_empty() {
            let (image, _, proto) = &corpus.shapes[rng.random_range(0..corpus.shapes.len())];
            live.push(churned.insert(*image, perturb(proto, &mut rng, 0.02)));
        } else {
            assert!(churned.delete(live.swap_remove(rng.random_range(0..live.len()))));
        }
    }
    let churned = churned.snapshot();
    let fresh = DynamicBase::restore(0.0, cfg, 512, churned.live_shapes(), churned.next_id(), churned.epoch());
    worlds.push((["churned", "fresh"], corpus.queries(100, 0.02, 1), churned, fresh.snapshot()));

    for (names, queries, a, b) in &worlds {
        let n = queries.len() as f64;
        // per base: the approx tier's probe count, then both tiers' answers
        let mut probed = [0u64; 2];
        let mut answers: [Vec<(u64, u64)>; 2] = Default::default();
        for (side, snap) in [a, b].into_iter().enumerate() {
            for q in queries {
                snap.similar_approx_with(&mut scratch, &mut tmp, &mut ax, q, &opts, &mut hits, &mut astats);
                probed[side] += astats.buckets_probed;
                answers[side].extend(hits.iter().map(|m| (m.shape.0, m.score.to_bits())));
                snap.retrieve_with_stats(&mut scratch, &mut tmp, q, K, &mut hits, &mut stats);
                answers[side].extend(hits.iter().map(|m| (m.shape.0, m.score.to_bits())));
            }
        }
        assert!(answers[0] == answers[1], "{} and {} bases answer differently", names[0], names[1]);
        // per pass: [approx a, approx b, exact a, exact b] in µs/query
        let mut passes: Vec<[f64; 4]> = Vec::with_capacity(PROBE_PASSES);
        for pass in 0..PROBE_PASSES {
            let mut row = [0.0; 4];
            let order = if pass % 2 == 0 { [0, 1] } else { [1, 0] };
            for side in order {
                let snap = [a, b][side];
                row[side] = timed(queries, &mut |_, q| {
                    snap.similar_approx_with(&mut scratch, &mut tmp, &mut ax, q, &opts, &mut hits, &mut astats)
                }) / n;
            }
            for side in order {
                let snap = [a, b][side];
                row[2 + side] = timed(queries, &mut |_, q| {
                    snap.retrieve_with_stats(&mut scratch, &mut tmp, q, K, &mut hits, &mut stats)
                }) / n;
            }
            passes.push(row);
        }
        // median and quartiles of `f` over the passes
        let spread = |f: &dyn Fn(&[f64; 4]) -> f64| {
            let mut v: Vec<f64> = passes.iter().map(f).collect();
            v.sort_by(f64::total_cmp);
            let at = |q: usize| v[(v.len() - 1) * q / 4];
            (at(2), at(1), at(3))
        };
        for side in 0..2 {
            let snap = [a, b][side];
            let (approx, exact) = (spread(&|r| r[side]).0, spread(&|r| r[2 + side]).0);
            let gap = |tier: usize| {
                let (mid, lo, hi) = spread(&|r| r[tier] - r[tier + 1]);
                if side == 0 { format!("{mid:+7.1} [{lo:+6.1}, {hi:+6.1}]") } else { String::new() }
            };
            println!(
                "  {:>6} {:9} {:>6} {:>7} {:>7.0} | {approx:8.1} {:>22} | {exact:8.1} {:>22}",
                snap.len(),
                names[side],
                snap.num_levels(),
                snap.approx_num_buckets(),
                probed[side] as f64 / n,
                gap(0),
                gap(2),
            );
        }
    }
}
