//! Layered 2D range tree with **fractional cascading**, stored as flat
//! per-level arrays and queried by one x-slab descent per triangle *set*.
//!
//! This is the structure the paper leans on for its polylogarithmic bounds
//! (§2.5). The primary tree is balanced over x-rank and is never
//! materialized as nodes:
//!
//! - `pts` holds the points in `(x, id)` order, so the node covering the
//!   rank range `[begin, end)` owns the contiguous block `pts[begin..end]`
//!   and its x-slab is `[pts[begin].x, pts[end − 1].x]`; its children are
//!   `[begin, mid)` and `[mid, end)` with `mid = begin + (end − begin) / 2`.
//! - Level `d` is two `u32` arrays over all `n` points. `order[begin..end]`
//!   lists a node's ranks sorted by `(y, rank)` — the node's secondary
//!   structure. `went_left[i]` counts the entries of `order[..i]` that
//!   belong to their node's left child, so a position range `[lo, hi)` of a
//!   node maps to the same y-range of its left child as
//!   `begin + (went_left[lo] − went_left[begin])` (likewise `hi`) and of its
//!   right child as `mid + (i − begin) − (went_left[i] − went_left[begin])`:
//!   the fractional-cascading bridge, O(1) per step and with no right-hand
//!   array. Nodes of at most [`LEAF`] points are not split, so there are
//!   `⌈log₂(n / LEAF)⌉ + 1` levels and `O(log n)` heap allocations in
//!   total; the last level stores no bridge.
//!
//! Memory is `8·n` bytes per level plus `20·n` for `pts` and `ids` — for
//! the 37.9 k-vertex pool of the canonical benchmark 13 levels, 120 B per
//! vertex (4.5 MB), against ≈ 0.5 KB per vertex for per-node `Vec`s.
//!
//! # The query: one descent for a whole ring cover
//!
//! [`RangeTree::report_union_with`] reports every point `p` with
//! `bbox(t).contains(p) && t.contains(p)` for **any** triangle `t` of the
//! set — exactly [`crate::rangesearch::BruteForceIndex`]'s predicate. It
//! walks the primary tree once, carrying a list of *live* triangles, each
//! with the position range `[lo, hi)` of the current node's `order` that
//! its y-extent selects:
//!
//! 1. Stepping into a child, a live triangle's range is first bridged
//!    (above), then the triangle is clipped to the child's x-slab, which
//!    gives a y-interval ([`Clip::y_interval`]), and the range is narrowed
//!    to that interval by binary search *inside the bridged range* — so the
//!    search costs `O(log (hi − lo))`, not `O(log n)`. A triangle whose
//!    range empties, or whose bounding box misses the slab, is dropped.
//! 2. A node at the last level, or whose live ranges average at most
//!    [`EMIT`] positions, merges the live ranges into disjoint position
//!    intervals and runs the exact predicate on the points in them
//!    (against the triangles of that interval only): a further level would
//!    cost every live triangle two more steps to save a few predicate
//!    calls. Any other node recurses into both children.
//!
//! **Duplicate-free by construction:** positions of one node are distinct
//! points, merged intervals are disjoint, a node either emits or recurses,
//! and sibling subtrees share no point.
//!
//! **Nothing is missed:** the y-interval is conservative with respect to
//! [`Triangle::contains`]'s tolerance. For a triangle whose doubled area
//! exceeds `8·tol`, `contains` can only hold through its "every edge
//! function `≥ −tol`" branch (the three edge functions sum to the doubled
//! area), i.e. inside the triangle with each edge line pushed outwards.
//! The clip pushes each line by `2·tol` — the spare `tol` absorbs the
//! rounding of the line evaluation for coordinates up to ~10⁶, far beyond
//! the unit-lune pool — bounds each line over the slab by its value at the
//! slab's ends, and clamps to the triangle's bounding box, which the
//! predicate requires anyway. Thinner (and non-finite) triangles use the
//! bounding box alone. So at every node on the path to a qualifying point
//! the point's position lies inside the triangle's range, and the exact
//! predicate at the emitting node decides.

use crate::point::Point;
use crate::rangesearch::{IndexScratch, TriPre};
use crate::triangle::Triangle;

/// Nodes of at most this many points are not split further. Measured on
/// the canonical benchmark's covers: 4 to 32 are within noise of each
/// other (the [`EMIT`] rule fires first); 16 saves a level over 8.
const LEAF: usize = 16;

/// A node whose live ranges average at most this many positions filters
/// them on the spot instead of descending. Measured on the same covers:
/// 4 → 3.4, 8 → 2.7, 16 → 2.5, 32 → 2.6, 64 → 3.1 ms/query.
const EMIT: usize = 16;

/// Immutable layered range tree over a fixed point set. Point identities
/// are the indices into the construction slice.
#[derive(Debug)]
pub struct RangeTree {
    /// The points in `(x, id)` order.
    pts: Vec<Point>,
    /// `ids[r]` is the construction index of `pts[r]`.
    ids: Vec<u32>,
    levels: Vec<Level>,
}

#[derive(Debug)]
struct Level {
    order: Vec<u32>,
    /// Length `n + 1`; empty on the last level.
    went_left: Vec<u32>,
}

/// One live triangle of the descent: its index in the query set and the
/// range of the current node's `order` its y-extent selects.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Live {
    tri: u32,
    lo: u32,
    hi: u32,
}

/// Per-triangle constants of the slab clip: the bounding box and, per edge
/// with a finite slope, the line `y = c + m·(x − ox)` already pushed
/// outwards by twice the containment tolerance.
#[derive(Debug, Clone)]
pub(crate) struct Clip {
    min_x: f64,
    max_x: f64,
    min_y: f64,
    max_y: f64,
    ox: [f64; 3],
    m: [f64; 3],
    c: [f64; 3],
    /// The edge bounds y from below (else from above).
    lower: [bool; 3],
    /// Edges with a usable line; 0 for the bounding-box fallback.
    edges: usize,
}

impl Clip {
    fn of(t: &Triangle, pre: &TriPre) -> Clip {
        let tol = pre.tol;
        let mut clip = Clip {
            min_x: pre.min_x,
            max_x: pre.max_x,
            min_y: pre.min_y,
            max_y: pre.max_y,
            ox: [0.0; 3],
            m: [0.0; 3],
            c: [0.0; 3],
            lower: [false; 3],
            edges: 0,
        };
        let area2 = crate::point::cross3(t.a, t.b, t.c);
        // False for a NaN area or tolerance too.
        let lines_are_sound = area2.abs() > 8.0 * tol;
        if !lines_are_sound {
            return clip;
        }
        // Counter-clockwise order: the interior is where every edge
        // function is positive.
        let v = if area2 > 0.0 { [t.a, t.b, t.c] } else { [t.a, t.c, t.b] };
        for k in 0..3 {
            let (o, n) = (v[k], v[(k + 1) % 3]);
            let (ex, ey) = (n.x - o.x, n.y - o.y);
            // ex·(y − oy) − ey·(x − ox) ≥ −2·tol, solved for y.
            let m = ey / ex;
            let c = o.y - 2.0 * tol / ex;
            if m.is_finite() && c.is_finite() {
                let e = clip.edges;
                clip.ox[e] = o.x;
                clip.m[e] = m;
                clip.c[e] = c;
                clip.lower[e] = ex > 0.0;
                clip.edges += 1;
            }
        }
        clip
    }

    /// A y-interval containing every point of the slab `[xa, xb]` that the
    /// triangle can report; `None` when there is none.
    #[inline]
    fn y_interval(&self, xa: f64, xb: f64) -> Option<(f64, f64)> {
        let xa = xa.max(self.min_x);
        let xb = xb.min(self.max_x);
        // False for a NaN bound, which keeps the triangle alive.
        if xa > xb {
            return None;
        }
        let (mut ylo, mut yhi) = (self.min_y, self.max_y);
        for e in 0..self.edges {
            let ya = self.c[e] + self.m[e] * (xa - self.ox[e]);
            let yb = self.c[e] + self.m[e] * (xb - self.ox[e]);
            if self.lower[e] {
                ylo = ylo.max(ya.min(yb));
            } else {
                yhi = yhi.min(ya.max(yb));
            }
        }
        if ylo > yhi {
            return None;
        }
        Some((ylo, yhi))
    }
}

impl RangeTree {
    /// Build over `points`; ids are the slice indices. `O(n log n)` time,
    /// `O(log n)` allocations. Never panics on non-finite coordinates
    /// (they sort by `f64::total_cmp`).
    pub fn build(points: &[Point]) -> Self {
        let n = points.len();
        assert!(n < u32::MAX as usize, "point ids are u32");
        let mut ids: Vec<u32> = (0..n as u32).collect();
        ids.sort_unstable_by(|&a, &b| points[a as usize].x.total_cmp(&points[b as usize].x).then(a.cmp(&b)));
        let pts: Vec<Point> = ids.iter().map(|&i| points[i as usize]).collect();

        let mut depth = usize::from(n > 0);
        let mut widest = n;
        while widest > LEAF {
            widest = widest.div_ceil(2);
            depth += 1;
        }
        let mut levels: Vec<Level> = Vec::with_capacity(depth);
        for d in 0..depth {
            let order = if d == 0 {
                // NaNs of either sign sort last, so `y < bound` stays
                // monotone along the order and `narrow` can bisect on it.
                let key = |r: u32| {
                    let y = pts[r as usize].y;
                    if y.is_nan() { f64::NAN } else { y }
                };
                let mut root: Vec<u32> = (0..n as u32).collect();
                root.sort_unstable_by(|&a, &b| key(a).total_cmp(&key(b)).then(a.cmp(&b)));
                root
            } else {
                vec![0; n]
            };
            let went_left = if d + 1 < depth { vec![0; n + 1] } else { Vec::new() };
            levels.push(Level { order, went_left });
        }
        split(&mut levels, 0, n);
        RangeTree { pts, ids, levels }
    }

    pub fn len(&self) -> usize {
        self.pts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pts.is_empty()
    }

    /// Bytes of heap the tree owns.
    pub fn heap_bytes(&self) -> usize {
        let u32s = self.ids.capacity()
            + self.levels.iter().map(|l| l.order.capacity() + l.went_left.capacity()).sum::<usize>();
        self.pts.capacity() * std::mem::size_of::<Point>()
            + u32s * std::mem::size_of::<u32>()
            + self.levels.capacity() * std::mem::size_of::<Level>()
    }

    /// Append the ids of all points inside **any** triangle of `tris`
    /// (bounding box and boundary inclusive) to `out`, each once, in one
    /// descent; allocation-free once `scratch` is warm.
    pub fn report_union_with(&self, scratch: &mut IndexScratch, tris: &[Triangle], out: &mut Vec<u32>) {
        let Some(root) = self.levels.first() else { return };
        let IndexScratch { pre, clips, live, .. } = scratch;
        pre.clear();
        pre.extend(tris.iter().map(TriPre::of));
        clips.clear();
        clips.extend(tris.iter().zip(pre.iter()).map(|(t, p)| Clip::of(t, p)));
        live.clear();

        let n = self.pts.len();
        let (xa, xb) = (self.pts[0].x, self.pts[n - 1].x);
        for (k, clip) in clips.iter().enumerate() {
            if let Some(range) = clip.y_interval(xa, xb) {
                let (lo, hi) = self.narrow(&root.order, 0, n, range);
                if lo < hi {
                    live.push(Live { tri: k as u32, lo: lo as u32, hi: hi as u32 });
                }
            }
        }
        let frame = live.len();
        Descent { tree: self, pre, clips, live, out }.node(0, 0, n, 0, frame);
    }

    /// Shrink the position range `[lo, hi)` of `order` to the entries with
    /// `ylo ≤ y ≤ yhi`.
    #[inline]
    fn narrow(&self, order: &[u32], mut lo: usize, mut hi: usize, (ylo, yhi): (f64, f64)) -> (usize, usize) {
        let y = |r: u32| self.pts[r as usize].y;
        if lo < hi && y(order[lo]) < ylo {
            lo += order[lo..hi].partition_point(|&r| y(r) < ylo);
        }
        if lo < hi && y(order[hi - 1]) > yhi {
            hi = lo + order[lo..hi].partition_point(|&r| y(r) <= yhi);
        }
        (lo, hi)
    }
}

/// Fill level 1.. of the subtree over ranks `[begin, end)`: stable-partition
/// the node's y-order into its children's and record the bridge. Depth-first
/// visits the nodes of a level left to right, so `went_left[begin]` is
/// already the previous node's closing count.
fn split(levels: &mut [Level], begin: usize, end: usize) {
    let Some((cur, rest)) = levels.split_first_mut() else { return };
    let Some(next) = rest.first_mut() else { return };
    let mid = begin + (end - begin) / 2;
    let (mut l, mut r) = (begin, mid);
    let mut went = cur.went_left[begin];
    for i in begin..end {
        cur.went_left[i] = went;
        let rank = cur.order[i];
        if (rank as usize) < mid {
            next.order[l] = rank;
            l += 1;
            went += 1;
        } else {
            next.order[r] = rank;
            r += 1;
        }
    }
    cur.went_left[end] = went;
    split(rest, begin, mid);
    split(rest, mid, end);
}

/// The state one `report_union_with` call threads through its recursion.
struct Descent<'a> {
    tree: &'a RangeTree,
    pre: &'a [TriPre],
    clips: &'a [Clip],
    /// Stack of frames; the frame of the node being visited is on top.
    live: &'a mut Vec<Live>,
    out: &'a mut Vec<u32>,
}

impl Descent<'_> {
    /// Visit the node of level `d` over ranks `[begin, end)`, whose live
    /// triangles are `live[f0..f1]`.
    fn node(&mut self, d: usize, begin: usize, end: usize, f0: usize, f1: usize) {
        let positions: usize = self.live[f0..f1].iter().map(|e| (e.hi - e.lo) as usize).sum();
        if positions == 0 {
            return;
        }
        let tree = self.tree;
        let level = &tree.levels[d];
        if d + 1 == tree.levels.len() || positions <= EMIT * (f1 - f0) {
            self.emit(&level.order, f0, f1);
            return;
        }
        let below = &tree.levels[d + 1].order;
        let mid = begin + (end - begin) / 2;
        let before = level.went_left[begin];
        let went = |i: u32| (level.went_left[i as usize] - before) as usize;
        for (cb, ce) in [(begin, mid), (mid, end)] {
            if cb == ce {
                continue;
            }
            let (xa, xb) = (tree.pts[cb].x, tree.pts[ce - 1].x);
            for k in f0..f1 {
                let e = self.live[k];
                let clip = &self.clips[e.tri as usize];
                if clip.min_x > xb || clip.max_x < xa {
                    continue;
                }
                let (lo, hi) = if cb == begin {
                    (begin + went(e.lo), begin + went(e.hi))
                } else {
                    (mid + (e.lo as usize - begin) - went(e.lo), mid + (e.hi as usize - begin) - went(e.hi))
                };
                if lo == hi {
                    continue;
                }
                let Some(range) = clip.y_interval(xa, xb) else { continue };
                let (lo, hi) = tree.narrow(below, lo, hi, range);
                if lo < hi {
                    self.live.push(Live { tri: e.tri, lo: lo as u32, hi: hi as u32 });
                }
            }
            let top = self.live.len();
            self.node(d + 1, cb, ce, f1, top);
            self.live.truncate(f1);
        }
    }

    /// Run the exact predicate over the frame's merged position ranges.
    fn emit(&mut self, order: &[u32], f0: usize, f1: usize) {
        let frame = &mut self.live[f0..f1];
        frame.sort_unstable_by_key(|e| e.lo);
        let mut g0 = 0;
        while g0 < frame.len() {
            // One group: the maximal run of overlapping ranges.
            let mut g1 = g0 + 1;
            let mut hi = frame[g0].hi;
            while g1 < frame.len() && frame[g1].lo < hi {
                hi = hi.max(frame[g1].hi);
                g1 += 1;
            }
            let group = &frame[g0..g1];
            for i in group[0].lo..hi {
                let rank = order[i as usize] as usize;
                let p = self.tree.pts[rank];
                if group
                    .iter()
                    .take_while(|e| e.lo <= i)
                    .any(|e| i < e.hi && self.pre[e.tri as usize].admits(p.x, p.y))
                {
                    self.out.push(self.tree.ids[rank]);
                }
            }
            g0 = g1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::Aabb;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn brute(points: &[Point], q: &Aabb) -> Vec<u32> {
        let mut v: Vec<u32> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| q.contains(**p))
            .map(|(i, _)| i as u32)
            .collect();
        v.sort_unstable();
        v
    }

    fn q(x1: f64, y1: f64, x2: f64, y2: f64) -> Aabb {
        Aabb::new(Point::new(x1, y1), Point::new(x2, y2))
    }

    /// A closed box as the union of its two triangles — the tree's only
    /// query. Degenerate boxes (zero width or height) fall back to the
    /// bounding box of the collinear triangles, so they work too.
    fn report_box(t: &RangeTree, bb: &Aabb) -> Vec<u32> {
        let (a, c) = (bb.min, bb.max);
        let (b, d) = (Point::new(c.x, a.y), Point::new(a.x, c.y));
        let mut out = Vec::new();
        t.report_union_with(
            &mut IndexScratch::default(),
            &[Triangle::new(a, b, c), Triangle::new(a, c, d)],
            &mut out,
        );
        let reported = out.len();
        out.sort_unstable();
        out.dedup();
        assert_eq!(out.len(), reported, "union reported duplicates");
        out
    }

    fn count(t: &RangeTree, bb: &Aabb) -> usize {
        report_box(t, bb).len()
    }

    #[test]
    fn empty_tree() {
        let t = RangeTree::build(&[]);
        assert!(t.is_empty());
        assert_eq!(count(&t, &q(-1.0, -1.0, 1.0, 1.0)), 0);
    }

    #[test]
    fn single_point() {
        let t = RangeTree::build(&[Point::new(0.5, 0.5)]);
        assert_eq!(count(&t, &q(0.0, 0.0, 1.0, 1.0)), 1);
        assert_eq!(count(&t, &q(0.6, 0.0, 1.0, 1.0)), 0);
        assert_eq!(count(&t, &q(0.5, 0.5, 0.5, 0.5)), 1); // boundary closed
    }

    #[test]
    fn grid_counts() {
        let pts: Vec<Point> =
            (0..10).flat_map(|i| (0..10).map(move |j| Point::new(i as f64, j as f64))).collect();
        let t = RangeTree::build(&pts);
        assert_eq!(count(&t, &q(0.0, 0.0, 9.0, 9.0)), 100);
        assert_eq!(count(&t, &q(2.0, 3.0, 4.0, 5.0)), 9);
        assert_eq!(count(&t, &q(2.5, 3.5, 3.5, 4.5)), 1);
        assert_eq!(count(&t, &q(20.0, 20.0, 30.0, 30.0)), 0);
    }

    #[test]
    fn duplicate_coordinates() {
        let pts = vec![
            Point::new(1.0, 1.0),
            Point::new(1.0, 1.0),
            Point::new(1.0, 2.0),
            Point::new(2.0, 1.0),
        ];
        let t = RangeTree::build(&pts);
        assert_eq!(count(&t, &q(1.0, 1.0, 1.0, 1.0)), 2);
        // x2 exactly at a shared coordinate must not drop points
        assert_eq!(count(&t, &q(0.0, 0.0, 1.0, 5.0)), 3);
        assert_eq!(count(&t, &q(0.0, 0.0, 3.0, 3.0)), 4);
    }

    #[test]
    fn all_points_identical() {
        let pts = vec![Point::new(2.0, 2.0); 17];
        let t = RangeTree::build(&pts);
        assert_eq!(count(&t, &q(2.0, 2.0, 2.0, 2.0)), 17);
        assert_eq!(count(&t, &q(2.1, 2.0, 3.0, 3.0)), 0);
    }

    /// Every level is a permutation of the ranks, every node's slice holds
    /// exactly its rank range in y-order, and the bridge counts match.
    #[test]
    fn level_arrays_are_consistent() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1usize, 2, 7, 8, 9, 16, 17, 100, 257] {
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(rng.random_range(0..6) as f64, rng.random_range(0..6) as f64))
                .collect();
            let t = RangeTree::build(&pts);
            let mut nodes = vec![(0usize, n)];
            for (d, level) in t.levels.iter().enumerate() {
                let mut next = Vec::new();
                for &(b, e) in &nodes {
                    let slice = &level.order[b..e];
                    let mut ranks: Vec<u32> = slice.to_vec();
                    ranks.sort_unstable();
                    assert_eq!(ranks, (b as u32..e as u32).collect::<Vec<_>>(), "n={n} level {d} node {b}..{e}");
                    assert!(slice.windows(2).all(|w| {
                        let (p, q) = (t.pts[w[0] as usize], t.pts[w[1] as usize]);
                        (p.y, w[0]) < (q.y, w[1])
                    }));
                    let mid = b + (e - b) / 2;
                    if d + 1 < t.levels.len() {
                        assert_eq!((level.went_left[e] - level.went_left[b]) as usize, mid - b);
                        next.extend([(b, mid), (mid, e)]);
                    } else {
                        assert!(e - b <= LEAF && e > b);
                    }
                }
                nodes = next;
            }
        }
    }

    #[test]
    fn report_matches_brute_on_random() {
        let mut rng = StdRng::seed_from_u64(42);
        let pts: Vec<Point> = (0..500)
            .map(|_| Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect();
        let t = RangeTree::build(&pts);
        for _ in 0..200 {
            let x1 = rng.random_range(0.0..1.0);
            let y1 = rng.random_range(0.0..1.0);
            let bb = q(x1, y1, x1 + rng.random_range(0.0..0.5), y1 + rng.random_range(0.0..0.5));
            assert_eq!(report_box(&t, &bb), brute(&pts, &bb));
        }
    }

    proptest! {
        #[test]
        fn equivalence_with_brute_force(seed in 0u64..300, n in 1usize..120) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Cluster coordinates on a coarse grid to exercise ties.
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(
                    (rng.random_range(0..20) as f64) / 4.0,
                    (rng.random_range(0..20) as f64) / 4.0,
                ))
                .collect();
            let t = RangeTree::build(&pts);
            for _ in 0..20 {
                let x1 = rng.random_range(-1.0..5.0);
                let y1 = rng.random_range(-1.0..5.0);
                let bb = q(x1, y1, x1 + rng.random_range(0.0..4.0), y1 + rng.random_range(0.0..4.0));
                prop_assert_eq!(report_box(&t, &bb), brute(&pts, &bb));
            }
        }
    }
}
