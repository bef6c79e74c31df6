//! Reusable per-query scratch state for the matcher (the zero-allocation
//! hot path).
//!
//! DESIGN.md §5 records that dense O(p)/O(n) per-query state once turned
//! the §2.5 polylog retrieval into linear time — which is why the matcher
//! historically used hash maps. [`MatcherScratch`] gets the best of both:
//! dense arrays for O(1) uncontended access, with **epoch stamps** instead
//! of clears. Each query (and each envelope iteration, for the vertex-dedup
//! set) draws a fresh stamp from a monotone counter; an entry is live only
//! when its stamp equals the current one, so "resetting" all p counters is
//! a single integer increment. Per-query work stays O(touched), and after a
//! warm-up pass the whole retrieval touches the heap zero times.

use geosir_geom::rangesearch::IndexScratch;
use geosir_geom::{Polyline, Similarity, Triangle};

use crate::approx::ApproxScratch;
use crate::shapebase::ShapeBase;
use crate::similarity::{PreparedShape, QuantRaster};

/// Arena of reusable buffers for [`crate::matcher::Matcher::retrieve_with`].
///
/// One scratch serves one thread; create it once (or take it from the
/// matcher's internal pool via the scratchless entry points) and thread it
/// through every retrieval. A scratch is not tied to a particular base —
/// [`MatcherScratch::ensure`] re-sizes the dense arrays when the base's
/// dimensions change, and stale stamps from earlier bases can never collide
/// with freshly drawn ones (the clocks only move forward).
#[derive(Debug, Default)]
pub struct MatcherScratch {
    // --- stamp clocks (monotone; 0 means "never stamped") ---
    query_clock: u64,
    pub(crate) iter_clock: u64,
    /// Times [`Self::ensure`] grew an array — 0 growths across a query
    /// means the scratch was warm for every base it touched, which is
    /// what the dynamic layer counts as a scratch-reuse "hit".
    pub(crate) grow_events: u64,

    // --- per-copy dense state, indexed by CopyId ---
    pub(crate) counter_stamp: Vec<u64>,
    pub(crate) counters: Vec<u32>,
    /// Σ exact `dist(v, Q)` over the copy's processed vertices — the
    /// known part of the certificate's partial-sum bound. Live under
    /// `counter_stamp`, like `counters`.
    pub(crate) dist_sums: Vec<f64>,
    pub(crate) scored_stamp: Vec<u64>,
    /// Copies with at least one processed vertex this query, in
    /// first-touch order — what the certificate's resolve step walks.
    pub(crate) touched_copies: Vec<u32>,

    // --- per-shape dense state, indexed by ShapeId ---
    pub(crate) best_stamp: Vec<u64>,
    pub(crate) best_score: Vec<f64>,
    pub(crate) best_copy: Vec<u32>,
    /// Shapes with at least one scored copy this query, in first-touch
    /// order — the sparse enumeration `finish` ranks from.
    pub(crate) touched_shapes: Vec<u32>,

    // --- per-pooled-vertex dense state ---
    /// In-iteration dedup (ring-cover triangles overlap).
    pub(crate) seen_stamp: Vec<u64>,

    // --- reusable buffers ---
    pub(crate) cover: Vec<Triangle>,
    /// The range-search descent's stacks and per-triangle constants.
    pub(crate) index: IndexScratch,
    pub(crate) reported: Vec<u32>,
    pub(crate) ranked: Vec<(u32, f64, u32)>,
    pub(crate) score_buf: Vec<f64>,
    /// The normalized query and the index over it (forward h_avg
    /// direction): set once per query by [`Self::prepare_query`], read by
    /// a matcher run, or by the dynamic layer's seed probe and scans.
    pub(crate) query: Option<PreparedShape>,
    /// Index over the current candidate (reverse direction, symmetric
    /// kinds).
    pub(crate) back: Option<PreparedShape>,

    // --- the dynamic layer's seed step (hash-tier probe + rerank) ---
    /// Its candidates with their verdicts, and the per-shape board the
    /// whole exact query fills. (A level scan marks the copies the seed
    /// settled in `scored_stamp`.)
    pub(crate) seed: ApproxScratch,
    /// The query's lower-bound raster as quantized copies read it —
    /// laid by either tier, the approximate one past k candidates.
    pub(crate) raster: QuantRaster,
}

impl MatcherScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch with its dense arrays pre-sized for `base`.
    pub fn for_base(base: &ShapeBase) -> Self {
        let mut s = Self::default();
        s.ensure(base);
        s
    }

    /// Size the dense arrays for `base`. Growth keeps existing stamps —
    /// they belong to past queries and can never equal a future stamp.
    pub(crate) fn ensure(&mut self, base: &ShapeBase) {
        let (copies, shapes) = (base.num_copies(), base.num_shapes());
        let grew = grow(&mut self.counter_stamp, copies)
            | grow(&mut self.counters, copies)
            | grow(&mut self.dist_sums, copies)
            | grow(&mut self.scored_stamp, copies)
            | grow(&mut self.best_stamp, shapes)
            | grow(&mut self.best_score, shapes)
            | grow(&mut self.best_copy, shapes)
            | grow(&mut self.seen_stamp, base.total_vertices());
        self.count_growth(grew);
    }

    /// [`Self::ensure`] for a dynamic-base level, whose scan reads only
    /// the copy stamps: 8 B a copy, the §2.5 matcher's other per-copy,
    /// per-shape and per-vertex arrays left as they are.
    pub(crate) fn ensure_copies(&mut self, copies: usize) {
        let grew = grow(&mut self.scored_stamp, copies);
        self.count_growth(grew);
    }

    fn count_growth(&mut self, grew: bool) {
        if grew {
            self.grow_events += 1;
            // A growth event in steady state means scratches are being
            // created cold or the base outgrew every pooled scratch —
            // the zero-allocation claim depends on this staying flat.
            geosir_obs::with_current(|reg| {
                reg.counter("geosir_matcher_scratch_grows_total", &[]).inc()
            });
        }
    }

    /// Start a new query: returns the stamp identifying this query's
    /// entries in the per-copy/per-shape arrays.
    pub(crate) fn begin_query(&mut self) -> u64 {
        self.query_clock += 1;
        self.touched_shapes.clear();
        self.touched_copies.clear();
        self.query_clock
    }

    /// Normalize `query` about its diameter and index it, in place.
    /// Returns `false` for degenerate geometry (nothing to retrieve).
    /// Allocation-free replacement for `normalize_about_diameter`: the
    /// farthest vertex pair is found by the same lexicographic-first rule
    /// `alpha_diameters(pts, 0.0)` resolves ties with, so the chosen frame
    /// is identical to the fresh-allocation path's.
    pub(crate) fn prepare_query(&mut self, query: &Polyline) -> bool {
        let pts = query.points();
        let (mut bi, mut bj, mut bd) = (0usize, 0usize, -1.0f64);
        for i in 0..pts.len() {
            for j in (i + 1)..pts.len() {
                let d = pts[i].dist(pts[j]);
                if d > bd {
                    (bi, bj, bd) = (i, j, d);
                }
            }
        }
        if bd <= 0.0 {
            return false;
        }
        let Some(fwd) = Similarity::normalizing(pts[bi], pts[bj]) else {
            return false;
        };
        match &mut self.query {
            Some(q) => q.rebuild_from(pts.iter().map(|&p| fwd.apply(p)), query.is_closed()),
            None => self.query = Some(PreparedShape::new(fwd.apply_polyline(query))),
        }
        self.grid_query();
        true
    }

    /// Every distance of the query about to run — ring membership,
    /// resolve, seed rerank, buffer scan — is measured against
    /// `self.query`: thousands of lookups, so it alone gets the
    /// nearest-edge grid (§2.5's Voronoi lookup). Built unconditionally
    /// for a query of ≤ 64 edges, nothing above that: 36–39 µs once per
    /// query as a server meets it on a shared 2-vCPU x86-64 host (≈ 14 µs
    /// only when one query's build is repeated in a warm cache), a gain
    /// from about a thousand lookups
    /// up, which every measured base gives; unmeasured on a base too
    /// small for that (DESIGN §11.6).
    fn grid_query(&mut self) {
        self.query.as_mut().expect("just prepared").build_grid();
    }
}

/// Lengthen `v` to `len` (never shorten it); whether it grew.
fn grow<T: Clone + Default>(v: &mut Vec<T>, len: usize) -> bool {
    let short = v.len() < len;
    if short {
        v.resize(len, T::default());
    }
    short
}
