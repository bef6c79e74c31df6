//! Simplex (triangle) range searching over the shape-base vertex pool
//! (§2.5, step 2).
//!
//! The matcher needs, per iteration, the shape-base vertices falling in
//! the triangles of the envelope-ring cover. Both indexes implement
//! [`SimplexIndex`] and report the same set — every point `p` with
//! `bbox(t).contains(p) && t.contains(p)` for some triangle `t` of the
//! query, each once:
//!
//! - [`RangeTreeIndex`] — the paper's polylog structure: a level-array
//!   layered range tree whose **fractional-cascading** bridges carry each
//!   triangle's y-range down one x-slab descent for the whole cover, with
//!   the exact predicate at the bottom ([`crate::rangetree`]).
//!   `O(n log n)` space, 8 B per vertex per level.
//! - [`BruteForceIndex`] — the oracle the property tests compare against:
//!   a linear scan per triangle, then a sort-dedup.
//!
//! The range tree answers [`SimplexIndex::report_union_with`] without
//! touching the heap once the caller's [`IndexScratch`] is warm, and a
//! single-triangle [`SimplexIndex::report`] is the same descent over a
//! one-element cover.

use crate::point::Point;
use crate::rangetree::{Clip, Live, RangeTree};
use crate::triangle::Triangle;

/// Reusable buffers of a union report: per-triangle constants and the
/// descent's stacks. One scratch serves one thread and any index; it only
/// ever grows, so a steady-state query allocates nothing.
#[derive(Debug, Default)]
pub struct IndexScratch {
    /// Reporting-predicate constants, one per query triangle.
    pub(crate) pre: Vec<TriPre>,
    /// Slab-clip constants, one per query triangle.
    pub(crate) clips: Vec<Clip>,
    /// Stack of live-triangle frames.
    pub(crate) live: Vec<Live>,
}

/// Per-triangle constants of the range tree's reporting predicate —
/// `bbox(t).contains(p) && t.contains(p)`: the bounding
/// box, the three edge origins and deltas of [`Triangle::contains`]'s
/// `cross3` calls, and its tolerance — precomputed once per triangle so
/// the per-point work is four compares and three (sub, sub, mul, mul, sub)
/// chains.
#[derive(Debug, Clone)]
pub(crate) struct TriPre {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
    pub ox: [f64; 3],
    pub oy: [f64; 3],
    pub ex: [f64; 3],
    pub ey: [f64; 3],
    pub tol: f64,
}

impl TriPre {
    pub fn of(t: &Triangle) -> TriPre {
        let v = [t.a, t.b, t.c];
        let bb = t.bbox();
        let mut pre = TriPre {
            min_x: bb.min.x,
            min_y: bb.min.y,
            max_x: bb.max.x,
            max_y: bb.max.y,
            ox: [0.0; 3],
            oy: [0.0; 3],
            ex: [0.0; 3],
            ey: [0.0; 3],
            tol: 0.0,
        };
        for k in 0..3 {
            let (o, n) = (v[k], v[(k + 1) % 3]);
            pre.ox[k] = o.x;
            pre.oy[k] = o.y;
            // Same subtraction as `cross3`'s `b - a` (Vec2 components).
            pre.ex[k] = n.x - o.x;
            pre.ey[k] = n.y - o.y;
        }
        // Exactly `Triangle::contains`'s tolerance expression.
        let longest = t.a.dist_sq(t.b).max(t.b.dist_sq(t.c)).max(t.c.dist_sq(t.a));
        pre.tol = crate::EPS * (1.0 + longest);
        pre
    }

    /// `bbox(t).contains(p) && t.contains(p)` over the precomputed
    /// constants, bit-identical to the two calls.
    #[inline]
    pub fn admits(&self, x: f64, y: f64) -> bool {
        if !(x >= self.min_x && x <= self.max_x && y >= self.min_y && y <= self.max_y) {
            return false;
        }
        let mut neg = false;
        let mut pos = false;
        for k in 0..3 {
            // cross3(o, n, p) = (n - o) × (p - o), same op order
            let d = self.ex[k] * (y - self.oy[k]) - self.ey[k] * (x - self.ox[k]);
            neg |= d < -self.tol;
            pos |= d > self.tol;
        }
        !(neg && pos)
    }
}

/// A static index over a point set answering "which points lie in these
/// triangles?" Point identities are indices into the construction slice.
pub trait SimplexIndex {
    /// Build the index. Points are borrowed only during construction.
    fn build(points: &[Point]) -> Self
    where
        Self: Sized;

    /// Append the ids of all points inside **any** triangle of `tris`
    /// (bounding box and boundary inclusive), without duplicates. The
    /// matcher's ring covers are dozens of slivers tiling one annulus;
    /// the range tree answers the whole set in one traversal.
    fn report_union_with(&self, scratch: &mut IndexScratch, tris: &[Triangle], out: &mut Vec<u32>);

    /// [`SimplexIndex::report_union_with`] on a scratch of its own.
    fn report_union(&self, tris: &[Triangle], out: &mut Vec<u32>) {
        self.report_union_with(&mut IndexScratch::default(), tris, out);
    }

    /// Append the ids of all points inside `tri`.
    fn report(&self, tri: &Triangle, out: &mut Vec<u32>) {
        self.report_union(std::slice::from_ref(tri), out);
    }

    /// Number of indexed points.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Fractional-cascading range tree with the exact triangle predicate.
pub struct RangeTreeIndex {
    tree: RangeTree,
}

impl SimplexIndex for RangeTreeIndex {
    fn build(points: &[Point]) -> Self {
        RangeTreeIndex { tree: RangeTree::build(points) }
    }

    fn report_union_with(&self, scratch: &mut IndexScratch, tris: &[Triangle], out: &mut Vec<u32>) {
        self.tree.report_union_with(scratch, tris, out);
    }

    fn len(&self) -> usize {
        self.tree.len()
    }
}

/// Linear scan; the test oracle.
pub struct BruteForceIndex {
    pts: Vec<Point>,
}

impl SimplexIndex for BruteForceIndex {
    fn build(points: &[Point]) -> Self {
        BruteForceIndex { pts: points.to_vec() }
    }

    fn report_union_with(&self, _scratch: &mut IndexScratch, tris: &[Triangle], out: &mut Vec<u32>) {
        let start = out.len();
        for tri in tris {
            let bb = tri.bbox();
            out.extend(
                self.pts
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| bb.contains(**p) && tri.contains(**p))
                    .map(|(i, _)| i as u32),
            );
        }
        // Triangles of a cover overlap: sort and dedup this call's tail.
        out[start..].sort_unstable();
        let mut w = start;
        for r in start..out.len() {
            if w == start || out[w - 1] != out[r] {
                out[w] = out[r];
                w += 1;
            }
        }
        out.truncate(w);
    }

    fn len(&self) -> usize {
        self.pts.len()
    }
}

/// Which index to build. `RangeTree` is the default and the only value
/// product code passes; `BruteForce` is the oracle tests select. The
/// enum, [`DynSimplexIndex`] and the `backend` arguments that carry it
/// stay only while the canonical benchmark's sources name them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backend {
    /// Fractional-cascading range tree (the paper's structure).
    #[default]
    RangeTree,
    /// Linear scan (testing only).
    BruteForce,
}

/// An index chosen at run time.
pub enum DynSimplexIndex {
    RangeTree(RangeTreeIndex),
    BruteForce(BruteForceIndex),
}

impl DynSimplexIndex {
    pub fn build(backend: Backend, points: &[Point]) -> Self {
        match backend {
            Backend::RangeTree => DynSimplexIndex::RangeTree(RangeTreeIndex::build(points)),
            Backend::BruteForce => DynSimplexIndex::BruteForce(BruteForceIndex::build(points)),
        }
    }

    fn index(&self) -> &dyn SimplexIndex {
        match self {
            DynSimplexIndex::RangeTree(i) => i,
            DynSimplexIndex::BruteForce(i) => i,
        }
    }

    pub fn report(&self, tri: &Triangle, out: &mut Vec<u32>) {
        self.index().report(tri, out);
    }

    /// Duplicate-free union report over a whole triangle cover.
    pub fn report_union(&self, tris: &[Triangle], out: &mut Vec<u32>) {
        self.index().report_union(tris, out);
    }

    /// [`DynSimplexIndex::report_union`] through caller-owned scratch.
    pub fn report_union_with(&self, scratch: &mut IndexScratch, tris: &[Triangle], out: &mut Vec<u32>) {
        self.index().report_union_with(scratch, tris, out);
    }

    pub fn len(&self) -> usize {
        self.index().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn random_points(seed: u64, n: usize) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0))).collect()
    }

    fn random_triangle(rng: &mut StdRng) -> Triangle {
        Triangle::new(
            Point::new(rng.random_range(-0.2..1.2), rng.random_range(-0.2..1.2)),
            Point::new(rng.random_range(-0.2..1.2), rng.random_range(-0.2..1.2)),
            Point::new(rng.random_range(-0.2..1.2), rng.random_range(-0.2..1.2)),
        )
    }

    fn sorted_report<I: SimplexIndex>(idx: &I, tri: &Triangle) -> Vec<u32> {
        let mut out = Vec::new();
        idx.report(tri, &mut out);
        out.sort_unstable();
        out
    }

    #[test]
    fn backends_agree_on_random_workload() {
        let pts = random_points(3, 800);
        let rt = RangeTreeIndex::build(&pts);
        let bf = BruteForceIndex::build(&pts);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..150 {
            let tri = random_triangle(&mut rng);
            let want = sorted_report(&bf, &tri);
            assert_eq!(sorted_report(&rt, &tri), want, "range tree disagrees");
        }
    }

    /// The range tree agrees with brute force on `report_union` and
    /// reports no duplicates.
    #[test]
    fn backends_agree_on_union_report() {
        let pts = random_points(13, 700);
        let rt = RangeTreeIndex::build(&pts);
        let bf = BruteForceIndex::build(&pts);
        let mut rng = StdRng::seed_from_u64(14);
        for round in 0..60 {
            let tris: Vec<Triangle> =
                (0..rng.random_range(1usize..12)).map(|_| random_triangle(&mut rng)).collect();
            let mut want = Vec::new();
            bf.report_union(&tris, &mut want);
            want.sort_unstable();
            let mut got = Vec::new();
            rt.report_union(&tris, &mut got);
            let mut sorted = got.clone();
            sorted.sort_unstable();
            assert_eq!(sorted.len(), got.len(), "round {round}: union had duplicates");
            assert_eq!(sorted, want, "round {round}: union disagrees");
        }
    }

    #[test]
    fn empty_index() {
        let rt = RangeTreeIndex::build(&[]);
        let tri = Triangle::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(0.0, 1.0));
        assert_eq!(sorted_report(&rt, &tri), Vec::<u32>::new());
        assert!(rt.is_empty());
    }

    #[test]
    fn dyn_dispatch_equivalence() {
        let pts = random_points(9, 300);
        let mut rng = StdRng::seed_from_u64(10);
        let tri = random_triangle(&mut rng);
        let mut results = Vec::new();
        for b in [Backend::RangeTree, Backend::BruteForce] {
            let idx = DynSimplexIndex::build(b, &pts);
            let mut out = Vec::new();
            idx.report(&tri, &mut out);
            out.sort_unstable();
            results.push(out);
        }
        assert_eq!(results[0], results[1]);
    }

    proptest! {
        #[test]
        fn agreement_property(seed in 0u64..200, n in 0usize..200) {
            let pts = random_points(seed, n);
            let rt = RangeTreeIndex::build(&pts);
            let bf = BruteForceIndex::build(&pts);
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabcd);
            let tri = random_triangle(&mut rng);
            let want = sorted_report(&bf, &tri);
            prop_assert_eq!(sorted_report(&rt, &tri), want);
        }

        /// Degenerate (collinear) triangles must not report interior-less
        /// false positives from the bbox phase.
        #[test]
        fn degenerate_triangle(seed in 0u64..50) {
            let pts = random_points(seed, 100);
            let rt = RangeTreeIndex::build(&pts);
            let tri = Triangle::new(
                Point::new(0.0, 0.0), Point::new(0.5, 0.5), Point::new(1.0, 1.0));
            let got = sorted_report(&rt, &tri);
            for id in got {
                // every reported point is within tolerance of the segment
                let d = crate::segment::Segment::new(tri.a, tri.c)
                    .dist_to_point(pts[id as usize]);
                prop_assert!(d < 1e-6);
            }
        }
    }
}
