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
//!
//! The dynamic base's stored copies — source vertices, a similarity, and
//! the vertices quantized in a [`LuneFrame`] — are scored by the same
//! bounded scorer after a cheaper test: their quantized vertices against
//! the query's lower-bound raster ([`QuantRaster`], DESIGN.md §11.7).

use geosir_geom::numeric::integrate;
use std::cell::Cell;

use geosir_geom::segindex::{SegmentIndex, FLAT_MAX, GRID_N, RASTER_N};
use geosir_geom::{Point, Polyline, Similarity, EPS};

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

    /// Re-prepare for the shape `verts` / `closed` in place, reusing the
    /// vertex buffer and the AABB tree's allocations (the scratch path
    /// normalizes the query straight into its index, and re-prepares one
    /// candidate after another without touching the heap).
    pub(crate) fn rebuild_from(&mut self, verts: impl IntoIterator<Item = Point>, closed: bool) {
        self.shape.copy_from(verts, closed);
        self.index.rebuild_of_polyline(&self.shape);
    }

    /// Lay the nearest-edge grid in front of this shape's index
    /// ([`SegmentIndex::build_grid`]): its box and an empty cell table,
    /// each cell's list filled on first read, and the lower-bound raster
    /// a [`QuantRaster`] maps onto the stored copies' frame, filled the
    /// same way. For the one shape of a query that every distance is
    /// measured against, not for stored copies or the reverse-direction
    /// candidate, which are probed a few dozen times each. Distances are
    /// unchanged bit for bit; any `rebuild_*` drops the grid with every
    /// cell it filled.
    pub fn build_grid(&mut self) {
        self.index.build_grid();
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
    mean_dist(a.points().iter().copied(), b)
}

fn mean_dist(pts: impl ExactSizeIterator<Item = Point>, b: &PreparedShape) -> f64 {
    let n = pts.len();
    pts.map(|p| b.dist(p)).sum::<f64>() / n as f64
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
/// continuous kinds, and the discrete symmetric one for a candidate of
/// over [`FLAT_MAX`] edges, re-prepare the candidate into `back` instead
/// of allocating a fresh [`PreparedShape`] per call.
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
fn h_avg_discrete_abandoning(
    pts: impl ExactSizeIterator<Item = Point>,
    b: &PreparedShape,
    cutoff: f64,
) -> f64 {
    let n = pts.len();
    let limit = abandon_limit(cutoff, n);
    let mut acc = 0.0;
    for p in pts {
        acc += b.dist(p);
        if acc > limit {
            return f64::INFINITY;
        }
    }
    acc / n as f64
}

/// The sum of `n` distances past which their mean is provably above
/// `cutoff`: `cutoff · n` and a relative slack, so a tie never abandons.
fn abandon_limit(cutoff: f64, n: usize) -> f64 {
    let cutoff_sum = cutoff * n as f64;
    cutoff_sum + cutoff_sum.abs() * 1e-9
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
    let (pts, closed) = (candidate.shape().points(), candidate.shape().is_closed());
    bounded(kind, || pts.iter().copied(), closed, query, cutoff, || candidate)
}

/// [`score_prepared_bounded`] of a candidate polyline — the static
/// matcher's entry. The candidate is indexed — rebuilt into `back`,
/// reusing its allocations — only when a score needs the edges of a
/// candidate over [`FLAT_MAX`] edges or a continuous kind; the discrete
/// symmetric kind measures the reverse half of a candidate that survives
/// the forward (abandoning) scan without an index ([`reverse_half`]).
pub fn score_bounded_with(
    kind: ScoreKind,
    candidate: &Polyline,
    query: &PreparedShape,
    back: &mut Option<PreparedShape>,
    cutoff: f64,
) -> f64 {
    let (verts, closed) = (|| candidate.points().iter().copied(), candidate.is_closed());
    bounded(kind, verts, closed, query, cutoff, move || prepare_into(back, verts(), closed))
}

/// The bounded score of the candidate `verts` / `closed`, which `indexed`
/// prepares when asked. For the discrete symmetric kind the forward half
/// is [`h_avg_discrete_abandoning`] at any cutoff (at ∞ it abandons
/// nothing and sums as [`mean_dist`] does), and the reverse half of a
/// candidate of at most [`FLAT_MAX`] edges is [`reverse_half`] — the value
/// [`SegmentIndex`]'s flat scan gives, with no index built; past that the
/// index's tree answers, as it always has.
fn bounded<'a, I: ExactSizeIterator<Item = Point>>(
    kind: ScoreKind,
    verts: impl Fn() -> I,
    closed: bool,
    query: &PreparedShape,
    cutoff: f64,
    indexed: impl FnOnce() -> &'a PreparedShape,
) -> f64 {
    match kind {
        ScoreKind::DiscreteDirected if cutoff.is_finite() => {
            h_avg_discrete_abandoning(verts(), query, cutoff)
        }
        ScoreKind::DiscreteDirected => mean_dist(verts(), query),
        ScoreKind::DiscreteSymmetric => {
            // max of two averages: either direction exceeding the cutoff
            // proves the max does
            let score = h_avg_discrete_abandoning(verts(), query, cutoff);
            if cutoff.is_finite() && !score.is_finite() {
                return score;
            }
            let q = query.shape().points();
            let n = verts().len();
            let edges = if closed { n } else { n.saturating_sub(1) };
            let reverse = match edges <= FLAT_MAX {
                true => reverse_half(q, verts(), closed, cutoff),
                false => h_avg_discrete_abandoning(q.iter().copied(), indexed(), cutoff),
            };
            score.max(reverse)
        }
        _ => score_prepared(kind, indexed(), query),
    }
}

/// The reverse half of the discrete symmetric score: `h_avg` from the
/// query's vertices `q` to the candidate `verts` / `closed` of at most
/// [`FLAT_MAX`] edges, abandoning past `cutoff` as
/// [`h_avg_discrete_abandoning`] does, with no index built. The
/// candidate's vertices are made once, into a stack array of its edges —
/// each edge's start, `d` and `|d|²` — and four query vertices are
/// measured against an edge at a time (lane by lane as arrays, which the
/// compiler packs into vector registers). Each lane runs
/// [`geosir_geom::Segment::dist_sq_to_point`]'s operations in its order —
/// `t = 0` for a degenerate edge, else the division by `|d|²` and the
/// clamp, then `lerp` and the squared distance — and keeps its minimum by
/// strict `<`, as the flat scan does (a NaN never wins). The square roots
/// are then summed in vertex order with the abandon check after each: the
/// flat scan's value bit for bit, and the same verdict. (A first form that
/// kept the vertices and branched per lane compiled to scalar code and ran
/// slower than the flat scan; EXPERIMENTS "Where a query's time goes, by
/// doubling".)
fn reverse_half(q: &[Point], verts: impl ExactSizeIterator<Item = Point>, closed: bool, cutoff: f64) -> f64 {
    const LANES: usize = 4;
    // the edges as (a.x, a.y, d.x, d.y, |d|²), in the polyline's order
    let mut edges = [[0.0f64; 5]; FLAT_MAX];
    let mut count = 0;
    let mut push = |a: Point, b: Point| {
        let (dx, dy) = (b.x - a.x, b.y - a.y);
        edges[count] = [a.x, a.y, dx, dy, dx * dx + dy * dy];
        count += 1;
    };
    let (mut first, mut prev) = (None, None);
    for b in verts {
        match prev {
            Some(a) => push(a, b),
            None => first = Some(b),
        }
        prev = Some(b);
    }
    if let (true, Some(a), Some(b)) = (closed, prev, first) {
        push(a, b);
    }
    let limit = abandon_limit(cutoff, q.len());
    let mut acc = 0.0;
    for block in q.chunks(LANES) {
        // (a short last block repeats its last vertex in the spare lanes,
        // which are never summed)
        let lane = |l: usize| block[l.min(block.len() - 1)];
        let px: [f64; LANES] = std::array::from_fn(|l| lane(l).x);
        let py: [f64; LANES] = std::array::from_fn(|l| lane(l).y);
        let mut best = [f64::INFINITY; LANES];
        for &[ax, ay, dx, dy, l2] in &edges[..count] {
            // (`dist_sq_to_point`'s test: a NaN `|d|²` is not degenerate)
            let degenerate = l2 <= EPS * EPS;
            let mut t = [0.0; LANES];
            if !degenerate {
                for l in 0..LANES {
                    t[l] = (((px[l] - ax) * dx + (py[l] - ay) * dy) / l2).clamp(0.0, 1.0);
                }
            }
            for l in 0..LANES {
                let (ex, ey) = (ax + dx * t[l] - px[l], ay + dy * t[l] - py[l]);
                let d2 = ex * ex + ey * ey;
                if d2 < best[l] {
                    best[l] = d2;
                }
            }
        }
        for d2 in &best[..block.len()] {
            acc += d2.sqrt();
            if acc > limit {
                return f64::INFINITY;
            }
        }
    }
    acc / q.len() as f64
}

/// Fill `slot` with an index over the shape `verts` / `closed`, reusing
/// its allocations when already occupied.
pub fn prepare_into(
    slot: &mut Option<PreparedShape>,
    verts: impl IntoIterator<Item = Point>,
    closed: bool,
) -> &PreparedShape {
    match slot {
        Some(p) => {
            p.rebuild_from(verts, closed);
            p
        }
        None => {
            let shape = Polyline::from_valid(verts.into_iter().collect(), closed);
            slot.insert(PreparedShape::new(shape))
        }
    }
}

/// Steps a side of the [`LuneFrame`]: one `u16` a coordinate.
const FRAME_STEPS: f64 = 65536.0;

/// The fixed-point grid the dynamic base stores its copies' vertices in
/// (DESIGN §11.7). A copy normalized about an α-diameter has its anchors at
/// (0, 0) and (1, 0) and every vertex within R = 1/(1 − α) of both, so
/// inside the square [0.5 − R, 0.5 + R] × [−R, R]; cut into 65 536 steps a
/// side, a vertex is kept as the step it falls in — 4 bytes instead of
/// 16, under `step · √2` from where it lies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LuneFrame {
    x0: f64,
    y0: f64,
    step: f64,
}

impl LuneFrame {
    pub fn new(alpha: f64) -> LuneFrame {
        let r = 1.0 / (1.0 - alpha);
        LuneFrame { x0: 0.5 - r, y0: -r, step: 2.0 * r / FRAME_STEPS }
    }

    /// The step `p` falls in (`floor` per axis); `None` outside the frame,
    /// which only rounding at its edge or a non-finite vertex can reach.
    #[inline]
    pub fn quantize(&self, p: Point) -> Option<[u16; 2]> {
        let (fx, fy) = ((p.x - self.x0) / self.step, (p.y - self.y0) / self.step);
        // (false for NaN too)
        let inside = (0.0..FRAME_STEPS).contains(&fx) && (0.0..FRAME_STEPS).contains(&fy);
        inside.then_some([fx as u16, fy as u16])
    }
}

/// A cell's bound as an integer: units of 2⁻²⁴.
const BOUND_ONE: f64 = 16_777_216.0;
/// A raster cell not filled yet. A filled cell holds at most one less: a
/// bound that would reach it is lowered, which keeps it a bound.
const NOT_YET: u32 = u32::MAX;

/// The raster cell at grid cell `c`'s lower-left, where its quad begins.
fn corner(c: usize) -> usize {
    c / GRID_N * 2 * RASTER_N + c % GRID_N * 2
}

/// A query's lower-bound raster as quantized copies read it (DESIGN
/// §11.7): per axis a 32.32 fixed-point map from a frame step to a raster
/// column or row — one multiply, one add, one shift — and each cell's bound
/// less δ, which covers both the step a stored vertex was rounded to and
/// the map's own rounding, so a cell still bounds the distance of every
/// stored vertex the map sends to it. Bounds are kept in integer units of
/// 2⁻²⁴, rounded down: a copy's sum is then exact, and the same in any
/// order. Laid at most once per query of either tier into the scratch, in
/// O(1) and allocation-free once warm: the table starts empty, and the
/// first read of a cell fills its quad — the four cells of one grid cell —
/// from the query's [`SegmentIndex::lower_bound_quad`].
#[derive(Debug, Default)]
pub struct QuantRaster {
    /// `cell = (step · mul + add) >> 32`, x then y.
    mul: [i64; 2],
    add: [i64; 2],
    /// δ, in the query's units.
    delta: f64,
    /// `RASTER_N²` bounds less δ, row-major, [`NOT_YET`] until read;
    /// empty = off.
    cells: Vec<Cell<u32>>,
}

impl QuantRaster {
    /// Lay it over `query`'s lower-bound raster for copies stored in
    /// `frame`, every cell unfilled. `false` — and off — when the query has
    /// no grid, or when its raster lies so far from the frame, or is so
    /// fine against it, that the map would not fit 64-bit arithmetic.
    pub fn build(&mut self, frame: &LuneFrame, query: &PreparedShape) -> bool {
        self.cells.clear();
        let Some([x0, y0, w, h]) = query.index().lower_bound_box() else {
            return false;
        };
        let fixed = |v: f64| (v * 4_294_967_296.0).round();
        let mul = [fixed(frame.step / w), fixed(frame.step / h)];
        let add = [fixed((frame.x0 - x0) / w), fixed((frame.y0 - y0) / h)];
        // |step · mul + add| < 2¹⁶ · 2⁴⁶ + 2⁴⁶ < 2⁶³ (written so that NaN
        // fails)
        if !mul.iter().chain(&add).all(|v| v.abs() < 70_368_744_177_664.0) {
            return false;
        }
        (self.mul, self.add) = (mul.map(|v| v as i64), add.map(|v| v as i64));
        // |v − p| for a stored vertex v and the point p the map places in
        // its cell: under √2 · (a step + the map's error, < 10⁻⁵ of a cell)
        self.delta = 2.0 * frame.step + 1e-4 * w.max(h);
        self.cells.resize(RASTER_N * RASTER_N, Cell::new(NOT_YET));
        true
    }

    /// The bound under a stored vertex, in units of 2⁻²⁴ — its cell's,
    /// filled from `query` on first read, 0 outside the raster; `None`
    /// when the raster is off.
    #[inline]
    fn bounds<'a>(&'a self, query: &'a SegmentIndex) -> Option<impl Fn(&[u16; 2]) -> u64 + 'a> {
        let cells: &[Cell<u32>; RASTER_N * RASTER_N] = self.cells.as_slice().try_into().ok()?;
        let ([mx, my], [ax, ay]) = (self.mul, self.add);
        Some(move |&[x, y]: &[u16; 2]| {
            let i = ((x as i64 * mx + ax) >> 32) as u64;
            let j = ((y as i64 * my + ay) >> 32) as u64;
            // (a negative column wraps far past RASTER_N: outside reads 0)
            if (i | j) >= RASTER_N as u64 {
                return 0;
            }
            let at = (j as usize * RASTER_N + i as usize) % (RASTER_N * RASTER_N);
            match cells[at].get() {
                NOT_YET => self.fill(query, at) as u64,
                bound => bound as u64,
            }
        })
    }

    /// The bound under one stored vertex at `step`, as the raster test
    /// reads it (0 when the raster is off).
    #[cfg(test)]
    pub(crate) fn bound_at(&self, query: &SegmentIndex, step: [u16; 2]) -> u64 {
        self.bounds(query).map_or(0, |bound| bound(&step))
    }

    /// Fill the quad raster cell `at` lies in — the four cells of one
    /// grid cell — from `query`'s [`SegmentIndex::lower_bound_quad`],
    /// each less δ; returns `at`'s.
    #[cold]
    #[inline(never)]
    fn fill(&self, query: &SegmentIndex, at: usize) -> u32 {
        let c = at / RASTER_N / 2 * GRID_N + at % RASTER_N / 2;
        for (k, lb) in query.lower_bound_quad(c).into_iter().enumerate() {
            // (the scaling is exact, the cast rounds down and saturates)
            let bound = ((lb - self.delta).max(0.0) * BOUND_ONE) as u32;
            self.cells[corner(c) + k / 2 * RASTER_N + k % 2].set(bound.min(NOT_YET - 1));
        }
        self.cells[at].get()
    }

    /// The grid cells whose quad is filled, ascending — the census
    /// `phase_prof` prints.
    #[doc(hidden)]
    pub fn filled_quads(&self) -> impl Iterator<Item = usize> + '_ {
        (0..GRID_N * GRID_N).filter(|&c| self.cells.get(corner(c)).is_some_and(|b| b.get() != NOT_YET))
    }

    /// Fill the quads of grid cells `quads` now from `query`, as reads
    /// there would: how the census times a query's fills, and how a test
    /// fills every cell before a query reads one.
    #[doc(hidden)]
    pub fn fill_quads(&self, query: &SegmentIndex, quads: impl IntoIterator<Item = usize>) {
        if !self.cells.is_empty() {
            quads.into_iter().for_each(|c| _ = self.fill(query, corner(c)));
        }
    }

    /// The integer limit a copy of `n` quantized vertices is tested
    /// against under `cutoff`: the sum the forward pass abandons past, in
    /// units of 2⁻²⁴, widened by 10⁻⁹ and 2n ulps — the bounds' sum is
    /// exact, the forward pass's rounds, by under n · 2⁻⁵³ of itself over
    /// n terms. `u64::MAX`, which no sum passes, where the test can reject
    /// nothing. A scan computes it once per vertex count and cutoff.
    #[inline]
    pub fn limit(n: usize, cutoff: f64) -> u64 {
        let widen = 1.0 + 1e-9 + n as f64 * 2.3e-16;
        let limit = abandon_limit(cutoff, n) * widen * BOUND_ONE;
        // (a negative limit rejects nothing here and everything in the
        // forward pass; a NaN one nothing in either)
        if limit.is_nan() || limit < 0.0 {
            return u64::MAX;
        }
        // an integer sum passes the limit iff it passes the limit's floor
        // (a limit past u64 saturates: nothing is rejected)
        limit as u64
    }

    /// After how many of the quantized vertices `q` — read four at a time
    /// — the sum of their bounds passes `limit` ([`Self::limit`]); `None`
    /// when it never does, when the raster is off, and for a copy stored
    /// without quantized vertices (an empty sum passes no limit). `query`
    /// is the index the raster was laid over, which fills what is read
    /// first.
    #[inline]
    pub fn rejects_under(&self, query: &SegmentIndex, q: &[[u16; 2]], limit: u64) -> Option<usize> {
        let bound = self.bounds(query)?;
        let mut quads = q.chunks_exact(4);
        let mut sum = 0;
        for (at, four) in quads.by_ref().enumerate() {
            sum += bound(&four[0]) + bound(&four[1]) + bound(&four[2]) + bound(&four[3]);
            if sum > limit {
                return Some(4 * at + 4);
            }
        }
        sum += quads.remainder().iter().map(&bound).sum::<u64>();
        (sum > limit).then_some(q.len())
    }
}

/// A copy as the dynamic base keeps its `f64` geometry: its shape's
/// source vertices and the similarity that normalizes them — vertex j is
/// `fwd.apply(src[j])`, the expression that made it at insert time, so
/// bit for bit the same.
#[derive(Clone, Copy)]
pub(crate) struct StoredCopy<'c> {
    pub src: &'c [Point],
    pub fwd: &'c Similarity,
    pub closed: bool,
}

impl<'c> StoredCopy<'c> {
    /// The copy's vertices, recomputed.
    pub fn vertices(self) -> impl ExactSizeIterator<Item = Point> + 'c {
        let fwd = self.fwd;
        self.src.iter().map(move |&p| fwd.apply(p))
    }
}

/// [`score_bounded_with`] of a stored copy, given as its vertices
/// quantized in the [`LuneFrame`] (none for a copy that left the frame)
/// and, asked for only when they are needed, its [`StoredCopy`]: its
/// vertices recomputed as the forward pass reads them, and again for the
/// reverse half of a forward survivor ([`reverse_half`]; materialized
/// into `back` only for a candidate over [`FLAT_MAX`] edges or a
/// continuous kind). With `raster` (the query's, [`QuantRaster`]), a
/// discrete kind and a finite cutoff, the quantized vertices are tested
/// first — [`QuantRaster::rejects_under`] its [`QuantRaster::limit`], the
/// one test the exact tier's level scan also runs: a sum of bounds past
/// the forward pass's limit abandons the copy before any distance — the
/// `true` beside the `INFINITY`. That changes no verdict: each bound is ≤
/// its vertex's distance, so the distances' sum would pass the limit too,
/// and a copy the test lets through takes the same loop.
pub(crate) fn score_copy_bounded<'c>(
    kind: ScoreKind,
    quantized: &[[u16; 2]],
    copy: impl FnOnce() -> StoredCopy<'c>,
    query: &PreparedShape,
    raster: Option<&QuantRaster>,
    back: &mut Option<PreparedShape>,
    cutoff: f64,
) -> (f64, bool) {
    let discrete = matches!(kind, ScoreKind::DiscreteDirected | ScoreKind::DiscreteSymmetric);
    if let Some(raster) = raster.filter(|_| discrete && cutoff.is_finite()) {
        if raster.rejects_under(query.index(), quantized, QuantRaster::limit(quantized.len(), cutoff)).is_some() {
            return (f64::INFINITY, true);
        }
    }
    let copy = copy();
    let score = bounded(kind, || copy.vertices(), copy.closed, query, cutoff, move || {
        prepare_into(back, copy.vertices(), copy.closed)
    });
    (score, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::normalize::{normalizations, normalized_copies};
    use geosir_geom::{Point, Vec2};
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

    impl QuantRaster {
        /// The raster test as one call, as it was before the scan computed
        /// its limit once per vertex count: the reference
        /// [`QuantRaster::limit`] + [`QuantRaster::rejects_under`] must
        /// decide as.
        fn rejects_after(&self, query: &SegmentIndex, q: &[[u16; 2]], cutoff: f64) -> Option<usize> {
            let bound = self.bounds(query)?;
            let widen = 1.0 + 1e-9 + q.len() as f64 * 2.3e-16;
            let limit = abandon_limit(cutoff, q.len()) * widen * BOUND_ONE;
            if limit.is_nan() || limit < 0.0 {
                return None;
            }
            let limit = limit as u64;
            let mut quads = q.chunks_exact(4);
            let mut sum = 0;
            for (at, four) in quads.by_ref().enumerate() {
                sum += bound(&four[0]) + bound(&four[1]) + bound(&four[2]) + bound(&four[3]);
                if sum > limit {
                    return Some(4 * at + 4);
                }
            }
            sum += quads.remainder().iter().map(&bound).sum::<u64>();
            (sum > limit).then_some(q.len())
        }
    }

    /// A query's lower-bound raster as the eager lay once held it, every
    /// cell's `f64` bound from [`SegmentIndex::lower_bound_quad`]: cell
    /// `(i, j)` covers `[x0 + i·w, …) × [y0 + j·h, …)`, row-major.
    struct EagerRaster {
        x0: f64,
        y0: f64,
        w: f64,
        h: f64,
        n: usize,
        cells: Vec<f64>,
    }

    impl EagerRaster {
        fn of(query: &SegmentIndex) -> Option<EagerRaster> {
            let [x0, y0, w, h] = query.lower_bound_box()?;
            let mut cells = vec![0.0; RASTER_N * RASTER_N];
            for c in 0..GRID_N * GRID_N {
                for (k, lb) in query.lower_bound_quad(c).into_iter().enumerate() {
                    cells[(2 * (c / GRID_N) + k / 2) * RASTER_N + 2 * (c % GRID_N) + k % 2] = lb;
                }
            }
            Some(EagerRaster { x0, y0, w, h, n: RASTER_N, cells })
        }
    }

    /// The scan's two-step raster test decides as the one-call test did:
    /// for every vertex count 0..=70 — the test's quads, their remainders,
    /// past the scan's table of limits — and cutoffs of 0, negative, NaN,
    /// ∞, past `u64` and `f64::MAX`, random, and at and a few ulps either
    /// side of the cutoff whose limit is the copy's exact bound sum (a
    /// tie), `limit` + `rejects_under` give `rejects_after`'s answer, and
    /// both answers occur. A raster that is off rejects nothing.
    #[test]
    fn quantized_limit_is_rejects_after() {
        let mut rng = StdRng::seed_from_u64(41);
        let frame = LuneFrame::new(0.0);
        let qshape = random_shape(&mut rng, 12, true, -1.0..1.0, -1.0..1.0);
        let mut query = PreparedShape::new(normalized_copies(&qshape, 0.0).swap_remove(0).shape);
        query.build_grid();
        let mut raster = QuantRaster::default();
        assert!(raster.build(&frame, &query));
        let bound = raster.bounds(query.index()).expect("built");
        let (mut rejects, mut passes) = (0, 0);
        for n in 0..=70 {
            for trial in 0..12 {
                // vertices near the query's (low bounds, ties) or anywhere
                let near = query.shape().points();
                let q: Vec<[u16; 2]> = (0..n)
                    .map(|_| match trial % 2 {
                        0 => {
                            let v = near[rng.random_range(0..near.len())];
                            let (dx, dy) = (rng.random_range(-0.05..0.05), rng.random_range(-0.05..0.05));
                            frame.quantize(p(v.x + dx, v.y + dy)).expect("in the frame")
                        }
                        _ => [rng.random(), rng.random()],
                    })
                    .collect();
                let sum = q.iter().map(&bound).sum::<u64>() as f64 / BOUND_ONE;
                let widen = (1.0 + 1e-9 + n as f64 * 2.3e-16) * (1.0 + 1e-9);
                let tie = sum / n.max(1) as f64 / widen;
                let mut cutoffs = vec![0.0, -1.0, f64::NAN, f64::INFINITY, 1e300, f64::MAX, rng.random_range(0.0..0.5)];
                let mut at = tie;
                for _ in 0..4 {
                    cutoffs.extend([at, tie - (at - tie)]);
                    at = at.next_up();
                }
                for cutoff in cutoffs {
                    let got = raster.rejects_under(query.index(), &q, QuantRaster::limit(n, cutoff));
                    assert_eq!(got, raster.rejects_after(query.index(), &q, cutoff), "n = {n}, cutoff {cutoff}, bound sum {sum}");
                    rejects += got.is_some() as usize;
                    passes += got.is_none() as usize;
                    assert_eq!(QuantRaster::default().rejects_under(query.index(), &q, QuantRaster::limit(n, cutoff)), None);
                }
            }
        }
        assert!(rejects > 1000 && passes > 1000, "{rejects} rejects, {passes} passes");
    }

    proptest! {
        /// The reverse half of the discrete symmetric score, measured with
        /// no index, is the flat scan's: candidates of 2..=64 vertices,
        /// open and closed, with repeated vertices (degenerate edges, one
        /// candidate sometimes a single point repeated); queries of
        /// 1..=80 vertices (a block of four and every remainder, past 64),
        /// some on the candidate's vertices and edges; cutoffs of ∞, the
        /// score (a tie), a hair under it, 0 and anywhere around it — the
        /// same bits as `prepare_into` + `h_avg_discrete_abandoning`, so
        /// the same abandon verdict. And the symmetric scorers that reach
        /// it give the score the indexed reverse half gave them.
        #[test]
        fn quantized_reverse_half_is_the_flat_scan(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut slot = None;
            for _ in 0..6 {
                let n = rng.random_range(2..=64);
                let closed = rng.random_bool(0.5);
                let mut cand: Vec<Point> = (0..n).map(|_| p(rng.random_range(-0.5..1.5), rng.random_range(-1.0..1.0))).collect();
                for _ in 0..rng.random_range(0..6) {
                    let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
                    cand[i] = cand[j];
                }
                if rng.random_bool(0.05) {
                    cand.iter_mut().for_each(|v| *v = p(0.25, 0.5));
                }
                let m = rng.random_range(1..=80);
                let q: Vec<Point> = (0..m)
                    .map(|_| match rng.random_range(0..4) {
                        0 => cand[rng.random_range(0..n)],
                        1 => {
                            let e = rng.random_range(0..n - 1);
                            cand[e].lerp(cand[e + 1], rng.random_range(0.0..1.0))
                        }
                        _ => p(rng.random_range(-1.0..2.0), rng.random_range(-1.5..1.5)),
                    })
                    .collect();
                let indexed = |slot: &mut Option<PreparedShape>, cutoff: f64| {
                    let flat = prepare_into(slot, cand.iter().copied(), closed);
                    h_avg_discrete_abandoning(q.iter().copied(), flat, cutoff)
                };
                let exact = indexed(&mut slot, f64::INFINITY);
                let cutoffs = [f64::INFINITY, exact, exact.next_down(), exact * 0.999, 0.0, exact * rng.random_range(0.3..1.7)];
                for cutoff in cutoffs {
                    let got = reverse_half(&q, cand.iter().copied(), closed, cutoff);
                    let want = indexed(&mut slot, cutoff);
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "n {} closed {} m {} cutoff {}", n, closed, m, cutoff);
                }
                prop_assert!(exact.is_finite());
                prop_assert_eq!(reverse_half(&q, cand.iter().copied(), closed, exact), exact, "a tie is scored exactly");

                // through the scorers: the indexed reverse half's score
                if m < 2 {
                    continue;
                }
                let mut query = PreparedShape::new(Polyline::from_valid(q.clone(), rng.random_bool(0.5)));
                if rng.random_bool(0.5) {
                    query.build_grid();
                }
                let cand_line = Polyline::from_valid(cand.clone(), closed);
                let forward = h_avg_discrete_abandoning(cand.iter().copied(), &query, f64::INFINITY);
                let kind = ScoreKind::DiscreteSymmetric;
                for cutoff in [f64::INFINITY, forward.max(exact), forward, exact, 0.5 * exact] {
                    let got = score_bounded_with(kind, &cand_line, &query, &mut None, cutoff);
                    let fwd = h_avg_discrete_abandoning(cand.iter().copied(), &query, cutoff);
                    let want = match cutoff.is_finite() && !fwd.is_finite() {
                        true => fwd,
                        false => {
                            let back = prepare_into(&mut slot, cand.iter().copied(), closed);
                            fwd.max(h_avg_discrete_abandoning(query.shape().points().iter().copied(), back, cutoff))
                        }
                    };
                    prop_assert_eq!(got.to_bits(), want.to_bits(), "scorer, cutoff {}", cutoff);
                }
                let prepared = PreparedShape::new(cand_line.clone());
                let at_inf = score_prepared(kind, &prepared, &query);
                prop_assert_eq!(score_bounded_with(kind, &cand_line, &query, &mut None, f64::INFINITY).to_bits(), at_inf.to_bits());
                prop_assert_eq!(score_prepared_bounded(kind, &prepared, &query, f64::INFINITY).to_bits(), at_inf.to_bits());
            }
        }

        /// A stored copy — source vertices, a similarity, a closed bit,
        /// scored through one warm `back` — is the polyline scorer of the
        /// mapped polyline bit for bit, and the prepared-candidate scorer:
        /// open and closed copies of varying length (a short one after a
        /// long one would read a stale tail of a `back` rebuilt wrong),
        /// every α-diameter similarity of the source, cutoffs of ∞, at the
        /// score (a tie) and anywhere around it, every kind.
        #[test]
        fn quantized_copy_scorer_is_the_polyline_scorer(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut query = PreparedShape::new(random_shape(&mut rng, 12, true, -0.5..1.5, -1.0..1.0));
            query.build_grid();
            let mut warm = None;
            for i in 0..12 {
                let n = if i % 2 == 0 { rng.random_range(20..40) } else { rng.random_range(3..8) };
                let closed = rng.random_bool(0.5);
                let src = random_shape(&mut rng, n, closed, -3.0..5.0, -2.0..4.0);
                let fwds: Vec<Similarity> = normalizations(src.points(), 0.1).map(|(fwd, ..)| fwd).collect();
                let fwd = fwds[rng.random_range(0..fwds.len())];
                let copy = StoredCopy { src: src.points(), fwd: &fwd, closed };
                let cand = fwd.apply_polyline(&src);
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
                        let (got, rejected) = score_copy_bounded(kind, &[], || copy, &query, None, &mut warm, cutoff);
                        prop_assert!(!rejected);
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

        /// The quantized raster test changes no score: every stored copy
        /// scored against one query with and without it reads the same
        /// bits — at cutoffs of ∞, 0, at the score (a tie) and anywhere
        /// around it, both discrete kinds, α ∈ {0, 0.1, 0.5} — and only a
        /// copy abandoned anyway is said to be the test's reject.
        /// Candidates are the normalized copies of random shapes, whose
        /// vertices often fall where the raster reads above 0, near copies
        /// of the query, which tie, and copies stored without quantized
        /// vertices (off the frame), which the test must pass.
        #[test]
        fn quantized_raster_changes_no_score(seed in 0u64..1_000_000, pick in 0usize..3) {
            let mut rng = StdRng::seed_from_u64(seed);
            let alpha = [0.0, 0.1, 0.5][pick];
            let frame = LuneFrame::new(alpha);
            let qshape = random_shape(&mut rng, 12, true, -1.0..1.0, -1.0..1.0);
            let mut query = PreparedShape::new(normalized_copies(&qshape, 0.0).swap_remove(0).shape);
            query.build_grid();
            let mut raster = QuantRaster::default();
            prop_assert!(raster.build(&frame, &query));
            let identity = Similarity { a: 1.0, b: 0.0, tx: 0.0, ty: 0.0 };
            let (mut warm_plain, mut warm_raster) = (None, None);
            let mut rejected = 0;
            for i in 0..12 {
                let (src, fwd) = if i % 3 == 0 {
                    let jiggle = |q: &Point| p(q.x + rng.random_range(-0.01..0.01), q.y + rng.random_range(-0.01..0.01));
                    (Polyline::closed(query.shape().points().iter().map(jiggle).collect()).unwrap(), identity)
                } else {
                    let n = rng.random_range(3..30);
                    let closed = rng.random_bool(0.5);
                    let src = random_shape(&mut rng, n, closed, -1.0..1.0, -1.0..1.0);
                    let fwds: Vec<Similarity> = normalizations(src.points(), alpha).map(|(fwd, ..)| fwd).collect();
                    let fwd = fwds[rng.random_range(0..fwds.len())];
                    (src, fwd)
                };
                let copy = StoredCopy { src: src.points(), fwd: &fwd, closed: src.is_closed() };
                let quantized: Option<Vec<[u16; 2]>> = copy.vertices().map(|v| frame.quantize(v)).collect();
                let quantized = if i == 7 { Vec::new() } else { quantized.expect("a normalized copy lies in the frame") };
                let cand = fwd.apply_polyline(&src);
                for kind in [ScoreKind::DiscreteDirected, ScoreKind::DiscreteSymmetric] {
                    let exact = score(kind, &cand, &query);
                    let some = exact * rng.random_range(0.3..1.7);
                    for cutoff in [f64::INFINITY, 0.0, exact, some] {
                        let (without, by_raster) = score_copy_bounded(kind, &quantized, || copy, &query, None, &mut warm_plain, cutoff);
                        prop_assert!(!by_raster, "no raster, no raster rejects");
                        let (with, by_raster) = score_copy_bounded(kind, &quantized, || copy, &query, Some(&raster), &mut warm_raster, cutoff);
                        prop_assert_eq!(with.to_bits(), without.to_bits(), "{:?} candidate {} cutoff {}", kind, i, cutoff);
                        prop_assert!(!by_raster || with == f64::INFINITY);
                        prop_assert!(!by_raster || !quantized.is_empty(), "a copy off the frame takes the distance loop");
                        rejected += by_raster as usize;
                    }
                }
            }
            prop_assert!(rejected > 0, "the raster rejected nothing: the test proves nothing");
        }

        /// The test's contract: under every stored vertex the raster reads
        /// no more than the vertex's distance to the query, so a copy's
        /// bounds never sum past its forward distance sum, and a copy the
        /// test rejects is one the forward pass abandons. Vertices: random
        /// over the frame, on and a hair off the anchors, at the frame's
        /// edges, at every raster border and one quantum to either side,
        /// at quantum borders; α ∈ {0, 0.1, 0.5}; queries normalized, or
        /// wider than the frame so their raster's box lies partly outside
        /// it.
        #[test]
        fn quantized_bound_never_exceeds_the_forward_sum(seed in 0u64..1_000_000, pick in 0usize..3) {
            let mut rng = StdRng::seed_from_u64(seed);
            let alpha = [0.0, 0.1, 0.5][pick];
            let (frame, r) = (LuneFrame::new(alpha), 1.0 / (1.0 - alpha));
            let n = rng.random_range(3..40);
            let qshape = if rng.random_bool(0.3) {
                random_shape(&mut rng, n, true, 0.5 - 2.0 * r..0.5 + 2.0 * r, -2.0 * r..2.0 * r)
            } else {
                let closed = rng.random_bool(0.7);
                normalized_copies(&random_shape(&mut rng, n, closed, -1.0..1.0, -1.0..1.0), 0.0).swap_remove(0).shape
            };
            let mut query = PreparedShape::new(qshape);
            query.build_grid();
            let mut raster = QuantRaster::default();
            prop_assert!(raster.build(&frame, &query));
            let bound = raster.bounds(query.index()).expect("built");
            let cells = EagerRaster::of(query.index()).expect("a grid");

            let (x0, y0, step) = (frame.x0, frame.y0, frame.step);
            let (x1, y1) = (x0 + 2.0 * r, y0 + 2.0 * r);
            let mut probes: Vec<Point> = (0..300).map(|_| p(rng.random_range(x0..x1), rng.random_range(y0..y1))).collect();
            for anchor in [p(0.0, 0.0), p(1.0, 0.0)] {
                for off in [0.0, 1e-12, 0.5 * step, step, 2.0 * step, 1e-3] {
                    for (dx, dy) in [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (1.0, -1.0)] {
                        probes.push(p(anchor.x + dx * off, anchor.y + dy * off));
                    }
                }
            }
            for (x, y) in [(x0, y0), (x1, y0), (x0, y1), (x1, y1)] {
                for e in [0.0, 1e-12, step] {
                    probes.push(p(x + e * (x0 - x).signum(), y + e * (y0 - y).signum()));
                    probes.push(p(x, rng.random_range(y0..y1)));
                    probes.push(p(rng.random_range(x0..x1), y));
                }
            }
            // every raster border, one quantum to either side, and the
            // quantum borders beside it
            let near = |b: f64| [b - step, b - 0.5 * step, b, b + 0.5 * step, b + step].map(|v| {
                let k = ((v - x0) / step).floor();
                [v, x0 + k * step, (x0 + k * step).next_down(), x0 + (k + 1.0) * step]
            });
            for c in 0..=cells.n {
                for xs in near(cells.x0 + c as f64 * cells.w) {
                    for x in xs {
                        probes.push(p(x, rng.random_range(y0..y1)));
                    }
                }
                for ys in near(cells.y0 + c as f64 * cells.h) {
                    for y in ys {
                        // (a row border, with the frame's x step: close enough)
                        probes.push(p(rng.random_range(x0..x1), y));
                    }
                }
            }
            // the two halves of the argument: each cell holds its bound
            // less δ (checked below, once the reads have filled what they
            // fill), and the map sends a stored vertex to a cell less than
            // δ away — a step to round it and 10⁻⁵ of a cell to map it
            let delta = 2.0 * step + 1e-4 * cells.w.max(cells.h);
            let reach = 2f64.sqrt() * (1.000_001 * step + 1e-5 * cells.w.max(cells.h));
            prop_assert!(reach < delta);
            for &v in &probes {
                if let Some(q) = frame.quantize(v) {
                    let (lb, d) = (bound(&q) as f64 / BOUND_ONE, query.dist(v));
                    prop_assert!(lb <= d, "v = {:?} (step {:?}): bound {} over distance {}", v, q, lb, d);
                    let at = |axis: usize| (q[axis] as i64 * raster.mul[axis] + raster.add[axis]) >> 32;
                    let off = |v: f64, lo: f64| (lo - v).max(v - (lo + 1.0)).max(0.0);
                    let (i, j) = (at(0) as f64, at(1) as f64);
                    let (dx, dy) = (off((v.x - cells.x0) / cells.w, i) * cells.w, off((v.y - cells.y0) / cells.h, j) * cells.h);
                    prop_assert!(dx.hypot(dy) <= reach, "v = {:?} mapped to cell ({}, {}), {} from it", v, i, j, dx.hypot(dy));
                }
            }
            // copies: normalized ones of random shapes, and runs of probes
            let mut copies: Vec<Vec<Point>> = (0..10)
                .map(|_| {
                    let n = rng.random_range(3..30);
                    let src = random_shape(&mut rng, n, true, -1.0..1.0, -1.0..1.0);
                    normalized_copies(&src, alpha).swap_remove(0).shape.points().to_vec()
                })
                .collect();
            copies.extend(probes.chunks(17).map(|c| c.to_vec()));
            for verts in &copies {
                let Some(q) = verts.iter().map(|&v| frame.quantize(v)).collect::<Option<Vec<_>>>() else { continue };
                let sum: u64 = q.iter().map(&bound).sum();
                let forward = verts.iter().map(|&v| query.dist(v)).fold(0.0, |acc, d| acc + d);
                prop_assert!(sum as f64 / BOUND_ONE <= forward, "bounds {} over distances {}", sum as f64 / BOUND_ONE, forward);
                let mean = forward / verts.len() as f64;
                for cutoff in [0.0, mean, mean * 0.999, mean * rng.random_range(0.2..1.0), mean * 1.001] {
                    if raster.rejects_after(query.index(), &q, cutoff).is_some() {
                        let abandoned = h_avg_discrete_abandoning(verts.iter().copied(), &query, cutoff);
                        prop_assert_eq!(abandoned, f64::INFINITY, "rejected at cutoff {} (mean {})", cutoff, mean);
                    }
                }
                prop_assert_eq!(raster.rejects_after(query.index(), &[], mean), None);
            }
            raster.fill_quads(query.index(), 0..GRID_N * GRID_N);
            for (held, &lb) in raster.cells.iter().zip(&cells.cells) {
                let held = held.get();
                prop_assert!(held != NOT_YET && held as f64 / BOUND_ONE <= (lb - delta).max(0.0), "cell {} for bound {}", held, lb);
            }
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
