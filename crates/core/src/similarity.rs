//! The geometric-similarity criterion of §2.2:
//! `h_avg(A, B) = average_{a ∈ A} min_{b ∈ B} d(a, b)`.
//!
//! The average runs over **all points of the continuous shape A**, not just
//! its vertices (the paper is explicit about this); the discrete vertex
//! variant is also provided — it is what the matcher's termination bound
//! reasons about, and the paper suggests it (with median as an alternative)
//! for discrete use.
//!
//! Distances to the other shape are evaluated through a
//! [`SegmentIndex`] (the Voronoi-diagram substitute, see DESIGN.md), so a
//! single `h_avg` evaluation costs `O(n_A · log n_B)` plus the adaptive
//! integration refinement.

use geosir_geom::numeric::integrate;
use geosir_geom::segindex::SegmentIndex;
use geosir_geom::{Point, Polyline};

/// How a candidate shape is scored against the query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScoreKind {
    /// Discrete directed `h_avg(S → Q)` over S's vertices.
    DiscreteDirected,
    /// Continuous directed `h_avg(S → Q)` (integral along S's edges).
    ContinuousDirected,
    /// `max(h_avg(S → Q), h_avg(Q → S))`, discrete. The default: it
    /// discriminates in both directions (a candidate whose vertices all
    /// hug Q but which leaves half of Q uncovered is penalized), and the
    /// matcher's termination bound is still exact because the max dominates
    /// the forward discrete term.
    #[default]
    DiscreteSymmetric,
    /// `max(h_avg(S → Q), h_avg(Q → S))`, continuous.
    ContinuousSymmetric,
}

/// A shape prepared for repeated distance evaluations against it.
#[derive(Debug)]
pub struct PreparedShape {
    shape: Polyline,
    index: SegmentIndex,
}

impl PreparedShape {
    pub fn new(shape: Polyline) -> Self {
        let index = SegmentIndex::of_polyline(&shape);
        PreparedShape { shape, index }
    }

    /// Re-prepare for `shape` in place, reusing the vertex buffer and the
    /// AABB tree's allocations (the matcher's scratch path re-prepares one
    /// candidate after another without touching the heap).
    fn rebuild_from(&mut self, verts: &[Point], closed: bool) {
        self.shape.copy_from(verts, closed);
        self.index.rebuild_of_polyline(&self.shape);
    }

    /// [`Self::rebuild_from`] for `shape` mapped point-wise through `f`
    /// (the scratch path normalizes the query straight into its index).
    pub fn rebuild_mapped_from(&mut self, shape: &Polyline, f: impl FnMut(Point) -> Point) {
        self.shape.copy_mapped_from(shape, f);
        self.index.rebuild_of_polyline(&self.shape);
    }

    /// Put the nearest-edge grid in front of this shape's index
    /// ([`SegmentIndex::build_grid`]) — for the one shape of a query that
    /// every distance is measured against, not for stored copies or the
    /// reverse-direction candidate, which are probed a few dozen times
    /// each. Distances are unchanged bit for bit; any `rebuild_*` drops it.
    pub fn build_grid(&mut self) {
        self.index.build_grid();
    }

    /// Lay the lower-bound raster over the grid
    /// ([`SegmentIndex::build_lower_bound`]): the bounded scorers then
    /// reject a candidate from the table alone when they can. For the
    /// exact tier's query, which rejects thousands of copies; verdicts
    /// and scores are unchanged bit for bit, and any `rebuild_*` drops it.
    pub fn build_lower_bound(&mut self) {
        self.index.build_lower_bound();
    }

    pub fn shape(&self) -> &Polyline {
        &self.shape
    }

    pub fn index(&self) -> &SegmentIndex {
        &self.index
    }

    /// `min_{b ∈ B} d(p, b)` — distance from a point to this shape.
    #[inline]
    pub fn dist(&self, p: Point) -> f64 {
        self.index.dist(p)
    }
}

/// Discrete directed `h_avg`: mean over A's **vertices** of the distance to
/// B.
pub fn h_avg_discrete(a: &Polyline, b: &PreparedShape) -> f64 {
    mean_dist(a.points(), b)
}

fn mean_dist(pts: &[Point], b: &PreparedShape) -> f64 {
    pts.iter().map(|&p| b.dist(p)).sum::<f64>() / pts.len() as f64
}

/// Continuous directed `h_avg`: `(1 / |A|) ∫_A min_b d(a, b) da`, the
/// integral running along A's edges by arclength. Adaptive Simpson per
/// edge; `tol` is the absolute tolerance on the final average (default
/// callers use [`h_avg_continuous`]).
fn h_avg_continuous_tol(a: &Polyline, b: &PreparedShape, tol: f64) -> f64 {
    let perimeter = a.perimeter();
    let mut acc = 0.0;
    for e in a.edges() {
        let len = e.len();
        if len <= 0.0 {
            continue;
        }
        // ∫₀¹ d(e(t), B) · len dt
        let edge_tol = tol * len / perimeter;
        acc += len * integrate(|t| b.dist(e.at(t)), 0.0, 1.0, edge_tol.max(1e-12));
    }
    acc / perimeter
}

/// Continuous directed `h_avg` at the library's default tolerance (1e-7).
pub fn h_avg_continuous(a: &Polyline, b: &PreparedShape) -> f64 {
    h_avg_continuous_tol(a, b, 1e-7)
}

/// Score `candidate` against `query` under `kind`. For the symmetric kinds
/// both directions are evaluated (the candidate is indexed on the fly).
pub fn score(kind: ScoreKind, candidate: &Polyline, query: &PreparedShape) -> f64 {
    score_with(kind, candidate, query, &mut None)
}

/// [`score`] with a reusable slot for the reverse-direction index: the
/// symmetric kinds re-prepare the candidate into `back` instead of
/// allocating a fresh [`PreparedShape`] per call.
pub fn score_with(
    kind: ScoreKind,
    candidate: &Polyline,
    query: &PreparedShape,
    back: &mut Option<PreparedShape>,
) -> f64 {
    score_bounded_with(kind, candidate, query, back, f64::INFINITY)
}

/// [`score`] when the candidate is already prepared: no per-call index
/// build at all (the brute-force oracles prepare every copy once).
pub fn score_prepared(kind: ScoreKind, candidate: &PreparedShape, query: &PreparedShape) -> f64 {
    match kind {
        ScoreKind::DiscreteDirected => h_avg_discrete(candidate.shape(), query),
        ScoreKind::ContinuousDirected => h_avg_continuous(candidate.shape(), query),
        ScoreKind::DiscreteSymmetric => h_avg_discrete(candidate.shape(), query)
            .max(h_avg_discrete(query.shape(), candidate)),
        ScoreKind::ContinuousSymmetric => h_avg_continuous(candidate.shape(), query)
            .max(h_avg_continuous(query.shape(), candidate)),
    }
}

/// Directed discrete `h_avg` with early abandonment: every distance term
/// is non-negative, so once the running sum exceeds `cutoff · n` the
/// final average is provably `> cutoff` and the scan stops, returning
/// `f64::INFINITY`. The comparison carries a relative slack so a result
/// exactly at the cutoff is never abandoned (callers prune strictly).
///
/// When `b` carries a lower-bound raster, its bounds are added up first,
/// in the same order, and a sum past the limit abandons before any
/// distance is computed — the `true` beside the `INFINITY`. That changes
/// no verdict: each bound is ≤ its distance and rounded addition is
/// monotone, so the bounds' sum passing the limit means the distances'
/// would have too; a copy the raster lets through takes the same loop.
fn h_avg_discrete_abandoning(pts: &[Point], b: &PreparedShape, cutoff: f64) -> (f64, bool) {
    let cutoff_sum = cutoff * pts.len() as f64;
    let limit = cutoff_sum + cutoff_sum.abs() * 1e-9;
    if b.index.has_lower_bound() {
        let mut bound = 0.0;
        for &p in pts {
            bound += b.index.lower_bound(p);
            if bound > limit {
                return (f64::INFINITY, true);
            }
        }
    }
    let mut acc = 0.0;
    for &p in pts {
        acc += b.dist(p);
        if acc > limit {
            return (f64::INFINITY, false);
        }
    }
    (acc / pts.len() as f64, false)
}

/// [`score_prepared`] with a pruning cutoff: may return `f64::INFINITY`
/// instead of the exact score when the score is provably **strictly
/// greater** than `cutoff` — exact for any caller that discards
/// candidates above `cutoff` anyway (ties are always scored exactly).
/// The discrete kinds abandon per-vertex; the continuous kinds have no
/// cheap partial lower bound and fall back to the full evaluation.
pub fn score_prepared_bounded(
    kind: ScoreKind,
    candidate: &PreparedShape,
    query: &PreparedShape,
    cutoff: f64,
) -> f64 {
    bounded(kind, candidate.shape().points(), query, cutoff, || candidate).0
}

/// [`score_slice_bounded`] of a polyline — the static matcher's entry.
pub fn score_bounded_with(
    kind: ScoreKind,
    candidate: &Polyline,
    query: &PreparedShape,
    back: &mut Option<PreparedShape>,
    cutoff: f64,
) -> f64 {
    score_slice_bounded(kind, candidate.points(), candidate.is_closed(), query, back, cutoff).0
}

/// [`score_prepared_bounded`] of a candidate given as its vertices and
/// closed bit — the one scoring input of a dynamic base, whose copies are
/// slices of a vertex arena. The candidate is indexed — rebuilt into
/// `back`, reusing its allocations — only when a score needs the reverse
/// direction or the edges: for the symmetric kind, only for candidates
/// that survive the forward (abandoning) scan. Beside the score: whether
/// the query's lower-bound raster alone abandoned it.
pub(crate) fn score_slice_bounded(
    kind: ScoreKind,
    verts: &[Point],
    closed: bool,
    query: &PreparedShape,
    back: &mut Option<PreparedShape>,
    cutoff: f64,
) -> (f64, bool) {
    bounded(kind, verts, query, cutoff, || prepare_into(back, verts, closed))
}

/// The bounded score of the candidate `verts`, which `indexed` prepares
/// when asked, and whether the query's raster alone abandoned it.
fn bounded<'a>(
    kind: ScoreKind,
    verts: &[Point],
    query: &PreparedShape,
    cutoff: f64,
    indexed: impl FnOnce() -> &'a PreparedShape,
) -> (f64, bool) {
    match kind {
        ScoreKind::DiscreteDirected if cutoff.is_finite() => {
            h_avg_discrete_abandoning(verts, query, cutoff)
        }
        ScoreKind::DiscreteSymmetric if cutoff.is_finite() => {
            // max of two averages: either direction exceeding the cutoff
            // proves the max does
            let fwd @ (score, _) = h_avg_discrete_abandoning(verts, query, cutoff);
            if !score.is_finite() {
                return fwd;
            }
            let (back, _) = h_avg_discrete_abandoning(query.shape().points(), indexed(), cutoff);
            (score.max(back), false)
        }
        ScoreKind::DiscreteDirected => (mean_dist(verts, query), false),
        _ => (score_prepared(kind, indexed(), query), false),
    }
}

/// Fill `slot` with an index over the shape `verts` / `closed`, reusing
/// its allocations when already occupied.
pub fn prepare_into<'a>(
    slot: &'a mut Option<PreparedShape>,
    verts: &[Point],
    closed: bool,
) -> &'a PreparedShape {
    match slot {
        Some(p) => {
            p.rebuild_from(verts, closed);
            p
        }
        None => slot.insert(PreparedShape::new(Polyline::from_valid(verts.to_vec(), closed))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosir_geom::{Point, Similarity, Vec2};
    use proptest::prelude::*;
    use rand::prelude::*;
    use std::ops::Range;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// `n` random vertices over the box `xs × ys`.
    fn random_shape(rng: &mut StdRng, n: usize, closed: bool, xs: Range<f64>, ys: Range<f64>) -> Polyline {
        let pts = (0..n).map(|_| p(rng.random_range(xs.clone()), rng.random_range(ys.clone())));
        let pts: Vec<Point> = pts.collect();
        if closed { Polyline::closed(pts) } else { Polyline::open(pts) }.unwrap()
    }

    fn square(cx: f64, cy: f64, half: f64) -> Polyline {
        Polyline::closed(vec![
            p(cx - half, cy - half),
            p(cx + half, cy - half),
            p(cx + half, cy + half),
            p(cx - half, cy + half),
        ])
        .unwrap()
    }

    #[test]
    fn identical_shapes_have_zero_distance() {
        let sq = square(0.0, 0.0, 1.0);
        let prepared = PreparedShape::new(sq.clone());
        assert!(h_avg_discrete(&sq, &prepared) < 1e-12);
        assert!(h_avg_continuous(&sq, &prepared) < 1e-6);
    }

    #[test]
    fn shifted_square_distance() {
        // Square shifted by δ along x: every vertex is δ/√2... no — each
        // vertex of the shifted square is within δ of the original boundary
        // (perpendicular to the nearest side), except vertices that slide
        // along their side (distance 0 projection). Concretely verify
        // against a brute-force evaluation instead of a guessed constant.
        let a = square(0.0, 0.0, 1.0);
        let b = square(0.1, 0.0, 1.0);
        let pb = PreparedShape::new(a.clone());
        let brute: f64 =
            b.points().iter().map(|&q| a.dist_to_point(q)).sum::<f64>() / b.num_vertices() as f64;
        assert!((h_avg_discrete(&b, &pb) - brute).abs() < 1e-12);
        assert!(brute > 0.0);
    }

    #[test]
    fn continuous_agrees_with_dense_sampling() {
        let a = square(0.0, 0.0, 1.0);
        let b = Polyline::closed(vec![p(-0.9, -1.2), p(1.4, -0.8), p(0.9, 1.1), p(-1.2, 0.7)])
            .unwrap();
        let pa = PreparedShape::new(a);
        let samples = b.sample_by_arclength(20_000);
        let sampled: f64 = samples.iter().map(|&q| pa.dist(q)).sum::<f64>() / samples.len() as f64;
        let continuous = h_avg_continuous(&b, &pa);
        assert!(
            (continuous - sampled).abs() < 1e-3,
            "continuous {continuous} vs sampled {sampled}"
        );
    }

    #[test]
    fn farther_shape_scores_worse() {
        let q = square(0.0, 0.0, 1.0);
        let near = square(0.05, 0.0, 1.0);
        let far = square(2.0, 2.0, 1.0);
        let pq = PreparedShape::new(q);
        for kind in [
            ScoreKind::DiscreteDirected,
            ScoreKind::ContinuousDirected,
            ScoreKind::DiscreteSymmetric,
            ScoreKind::ContinuousSymmetric,
        ] {
            assert!(
                score(kind, &near, &pq) < score(kind, &far, &pq),
                "{kind:?} ranks far shape better"
            );
        }
    }

    /// The Figure 1 scenario: under the Hausdorff distance the query is
    /// matched with the wrong shape; under h_avg it picks the intuitively
    /// closer one. Q is a flat rectangle; A matches Q closely except for one
    /// far spike; B is Q uniformly inflated a little.
    #[test]
    fn figure1_havg_prefers_b_hausdorff_prefers_a() {
        let q = Polyline::closed(vec![p(0.0, 0.0), p(4.0, 0.0), p(4.0, 1.0), p(0.0, 1.0)])
            .unwrap();
        // A: Q with one vertex pulled far away (spike height 1.0 above Q).
        let a = Polyline::closed(vec![p(0.0, 0.0), p(4.0, 0.0), p(4.0, 1.0), p(2.0, 2.0), p(0.0, 1.0)])
            .unwrap();
        // B: Q inflated by 0.25 on every side.
        let b = Polyline::closed(vec![
            p(-0.25, -0.25),
            p(4.25, -0.25),
            p(4.25, 1.25),
            p(-0.25, 1.25),
        ])
        .unwrap();
        let pq = PreparedShape::new(q.clone());
        // Hausdorff (vertex-based, directed from candidate): A has one huge
        // outlier but B is uniformly off.
        let hausdorff = |s: &Polyline| {
            s.points().iter().map(|&v| pq.dist(v)).fold(0.0f64, f64::max)
        };
        assert!(hausdorff(&a) > hausdorff(&b), "spike must dominate Hausdorff");
        // h_avg: the single spike is averaged away.
        assert!(
            h_avg_discrete(&a, &pq) < h_avg_discrete(&b, &pq),
            "under h_avg the mostly-coincident A is closer than uniformly-inflated B"
        );
    }

    #[test]
    fn bounded_score_exact_below_cutoff_pruned_above() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        for kind in [ScoreKind::DiscreteDirected, ScoreKind::DiscreteSymmetric] {
            for _ in 0..200 {
                let a = square(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0), 0.8);
                let b = square(
                    rng.random_range(-1.0..1.0),
                    rng.random_range(-1.0..1.0),
                    rng.random_range(0.3..1.2),
                );
                let pa = PreparedShape::new(a);
                let pb = PreparedShape::new(b);
                let exact = score_prepared(kind, &pa, &pb);
                // cutoff sampled around the exact value so both branches run
                let cutoff = exact * rng.random_range(0.25..2.0);
                let bounded = score_prepared_bounded(kind, &pa, &pb, cutoff);
                if exact <= cutoff {
                    assert_eq!(bounded, exact, "{kind:?}: score at/below cutoff must be exact");
                } else {
                    // pruned results are INFINITY, never a wrong finite score
                    assert!(
                        bounded == exact || bounded.is_infinite(),
                        "{kind:?}: bounded={bounded} exact={exact} cutoff={cutoff}"
                    );
                }
                // an infinite cutoff must always reproduce the exact score
                assert_eq!(score_prepared_bounded(kind, &pa, &pb, f64::INFINITY), exact);
            }
        }
    }

    proptest! {
        /// The dynamic base's one scoring input — a vertex slice and a
        /// closed bit, scored through one warm `back` — is the polyline
        /// scorer bit for bit, and the prepared-candidate scorer the
        /// buffer used to run: open and closed copies of varying length
        /// (a short one after a long one would read a stale tail of a
        /// `back` rebuilt wrong), cutoffs of ∞, at the score (a tie) and
        /// anywhere around it, every kind.
        #[test]
        fn slice_scorer_is_the_polyline_scorer(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let shape = |rng: &mut StdRng, n: usize, closed: bool| random_shape(rng, n, closed, -0.5..1.5, -1.0..1.0);
            let mut query = PreparedShape::new(shape(&mut rng, 12, true));
            query.build_grid();
            let mut warm = None;
            for i in 0..12 {
                let n = if i % 2 == 0 { rng.random_range(20..40) } else { rng.random_range(3..8) };
                let closed = rng.random_bool(0.5);
                let cand = shape(&mut rng, n, closed);
                // the continuous kinds integrate (slow) and never abandon:
                // a short copy after a long one, cutoff ∞
                let kinds = [
                    ScoreKind::DiscreteDirected,
                    ScoreKind::DiscreteSymmetric,
                    ScoreKind::ContinuousDirected,
                    ScoreKind::ContinuousSymmetric,
                ];
                for kind in kinds.into_iter().take(if i == 1 { 4 } else { 2 }) {
                    let exact = score(kind, &cand, &query);
                    let some = exact * rng.random_range(0.3..1.7);
                    let cutoffs = [f64::INFINITY, exact, some];
                    let discrete = matches!(kind, ScoreKind::DiscreteDirected | ScoreKind::DiscreteSymmetric);
                    for cutoff in cutoffs.into_iter().take(if discrete { 3 } else { 1 }) {
                        let (got, _) = score_slice_bounded(kind, cand.points(), cand.is_closed(), &query, &mut warm, cutoff);
                        let fresh = score_bounded_with(kind, &cand, &query, &mut None, cutoff);
                        let prepared = score_prepared_bounded(kind, &PreparedShape::new(cand.clone()), &query, cutoff);
                        prop_assert_eq!(got.to_bits(), fresh.to_bits(), "{:?} n {} cutoff {}", kind, n, cutoff);
                        prop_assert_eq!(got.to_bits(), prepared.to_bits(), "{:?} n {} cutoff {}", kind, n, cutoff);
                        if cutoff >= exact {
                            prop_assert_eq!(got.to_bits(), exact.to_bits(), "{:?}: a score within the cutoff is exact", kind);
                        }
                    }
                }
            }
        }

        /// The query's lower-bound raster changes no score: every
        /// candidate scored against one query with and without it reads
        /// the same bits — at cutoffs of ∞, 0, at the score (a tie) and
        /// anywhere around it, both discrete kinds — and only a candidate
        /// abandoned anyway is said to be the raster's reject. Candidates
        /// are random shapes over the query's box, whose vertices often
        /// fall where the raster reads above 0, and near copies of the
        /// query, which tie.
        #[test]
        fn raster_changes_no_score(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            // (the lune frame's box, and candidates over a little more)
            let qshape = random_shape(&mut rng, 12, true, 0.0..1.0, -0.25..0.25);
            let mut plain = PreparedShape::new(qshape.clone());
            plain.build_grid();
            let mut rastered = PreparedShape::new(qshape.clone());
            rastered.build_grid();
            rastered.build_lower_bound();
            prop_assert!(rastered.index().has_lower_bound());
            let (mut warm_plain, mut warm_raster) = (None, None);
            let mut rejected = 0;
            for i in 0..12 {
                let cand = if i % 3 == 0 {
                    let jiggle = |q: &Point| p(q.x + rng.random_range(-0.01..0.01), q.y + rng.random_range(-0.01..0.01));
                    Polyline::closed(qshape.points().iter().map(jiggle).collect()).unwrap()
                } else {
                    let n = rng.random_range(3..30);
                    let closed = rng.random_bool(0.5);
                    random_shape(&mut rng, n, closed, -0.2..1.2, -0.45..0.45)
                };
                for kind in [ScoreKind::DiscreteDirected, ScoreKind::DiscreteSymmetric] {
                    let exact = score(kind, &cand, &plain);
                    let some = exact * rng.random_range(0.3..1.7);
                    for cutoff in [f64::INFINITY, 0.0, exact, some] {
                        let (verts, closed) = (cand.points(), cand.is_closed());
                        let (without, by_raster) = score_slice_bounded(kind, verts, closed, &plain, &mut warm_plain, cutoff);
                        prop_assert!(!by_raster, "no raster, no raster rejects");
                        let (with, by_raster) = score_slice_bounded(kind, verts, closed, &rastered, &mut warm_raster, cutoff);
                        prop_assert_eq!(with.to_bits(), without.to_bits(), "{:?} candidate {} cutoff {}", kind, i, cutoff);
                        prop_assert!(!by_raster || with == f64::INFINITY);
                        rejected += by_raster as usize;
                        // the public entries are the same scorer
                        let public = score_bounded_with(kind, &cand, &rastered, &mut None, cutoff);
                        prop_assert_eq!(public.to_bits(), with.to_bits());
                    }
                }
            }
            prop_assert!(rejected > 0, "the raster rejected nothing: the test proves nothing");
        }

        /// §2.2: the measure is invariant when both shapes undergo the same
        /// similarity transform (this is what normalization exploits).
        #[test]
        fn joint_transform_invariance(s in 0.2..5.0f64, th in -3.0..3.0f64,
                                      tx in -4.0..4.0f64, ty in -4.0..4.0f64) {
            let a = square(0.0, 0.0, 1.0);
            let b = Polyline::closed(vec![p(0.2, 0.1), p(1.4, 0.3), p(0.8, 1.2)]).unwrap();
            let t = Similarity::from_parts(s, th, Vec2::new(tx, ty));
            let before = h_avg_discrete(&b, &PreparedShape::new(a.clone()));
            let after = h_avg_discrete(
                &t.apply_polyline(&b),
                &PreparedShape::new(t.apply_polyline(&a)),
            );
            // distances scale by s
            prop_assert!((after - s * before).abs() < 1e-6 * (1.0 + s * before));
        }

        /// Averaging bounds: min vertex distance ≤ h_avg ≤ max vertex
        /// distance (the Hausdorff value).
        #[test]
        fn havg_between_min_and_max(dx in -2.0..2.0f64, dy in -2.0..2.0f64) {
            let a = square(0.0, 0.0, 1.0);
            let b = square(dx, dy, 0.8);
            let pa = PreparedShape::new(a);
            let dists: Vec<f64> = b.points().iter().map(|&q| pa.dist(q)).collect();
            let h = h_avg_discrete(&b, &pa);
            let lo = dists.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = dists.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!(h >= lo - 1e-12 && h <= hi + 1e-12);
        }

        /// Vertex-count independence (the advantage over vector methods):
        /// densifying a shape's boundary leaves the continuous measure
        /// nearly unchanged.
        #[test]
        fn continuous_measure_stable_under_densification(extra in 1usize..6) {
            let a = square(0.0, 0.0, 1.0);
            let b = square(0.3, 0.2, 0.9);
            let pa = PreparedShape::new(a);
            let coarse = h_avg_continuous(&b, &pa);
            // subdivide each edge of b into (extra + 1) collinear pieces
            let mut pts = Vec::new();
            for e in b.edges() {
                for i in 0..=extra {
                    pts.push(e.at(i as f64 / (extra + 1) as f64));
                }
            }
            let dense = Polyline::closed(pts).unwrap();
            let fine = h_avg_continuous(&dense, &pa);
            prop_assert!((coarse - fine).abs() < 1e-5,
                "densified shape changed h_avg: {} vs {}", coarse, fine);
        }
    }
}
