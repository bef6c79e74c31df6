//! A 2D bucketed kd-tree over points: triangle reporting with linear
//! space.
//!
//! This is the O(n)-space alternative to the fractional-cascading range tree
//! for the matcher's simplex queries (DESIGN.md: backends are ablated
//! against each other). Leaves hold up to [`LEAF_MAX`] points in
//! struct-of-arrays columns (`xs`/`ys`/`ids`), laid out contiguously in
//! leaf order so any subtree is one contiguous id range — full-containment
//! reporting is a single `memcpy`, and leaf filters run over flat columns
//! with the precomputed predicate every backend shares ([`TriPre`]).
//!
//! [`KdTree::report_union`] answers a whole *set* of triangles in one
//! descent: the matcher's envelope rings are covered by dozens of sliver
//! triangles tiling one annulus, and walking the tree once with a
//! shrinking active-triangle list replaces dozens of root-to-leaf walks
//! over the same region. Each point is visited at most once, so the union
//! is duplicate-free by construction.

use crate::bbox::Aabb;
use crate::point::Point;
use crate::rangesearch::{IndexScratch, TriPre};
use crate::triangle::Triangle;

/// Leaf bucket capacity: big enough that descent cost amortizes, small
/// enough that the exact per-point filter stays output-sensitive.
const LEAF_MAX: usize = 32;

/// Immutable kd-tree; point identities are indices into the construction
/// slice.
#[derive(Debug)]
pub struct KdTree {
    nodes: Vec<KdNode>,
    /// Leaf-order SoA columns: `ids[i]` is the construction index of the
    /// point at (`xs[i]`, `ys[i]`). Every subtree is a contiguous range.
    xs: Vec<f64>,
    ys: Vec<f64>,
    ids: Vec<u32>,
    root: Option<u32>,
}

#[derive(Debug)]
struct KdNode {
    bbox: Aabb,
    /// `NONE` for leaves.
    left: u32,
    right: u32,
    /// Subtree's contiguous range in the SoA columns.
    start: u32,
    end: u32,
}

const NONE: u32 = u32::MAX;

impl KdTree {
    pub fn build(points: &[Point]) -> Self {
        let mut ids: Vec<u32> = (0..points.len() as u32).collect();
        let mut tree = KdTree {
            nodes: Vec::with_capacity(2 * (points.len() / LEAF_MAX + 1)),
            xs: Vec::with_capacity(points.len()),
            ys: Vec::with_capacity(points.len()),
            ids: Vec::with_capacity(points.len()),
            root: None,
        };
        if !ids.is_empty() {
            let root = build_rec(points, &mut ids, 0, &mut tree);
            tree.root = Some(root);
        }
        tree
    }

    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Append the ids of all points inside the triangle (bounding box and
    /// boundary inclusive) to `out`.
    pub fn report_triangle(&self, tri: &Triangle, out: &mut Vec<u32>) {
        self.report_union(std::slice::from_ref(tri), out);
    }

    /// [`KdTree::report_union_with`] on a scratch of its own.
    pub fn report_union(&self, tris: &[Triangle], out: &mut Vec<u32>) {
        self.report_union_with(&mut IndexScratch::default(), tris, out);
    }

    /// Append the ids of all points inside **any** of `tris` (bounding box
    /// and boundary inclusive) to `out`, without duplicates: one tree
    /// descent carries the list of triangles still intersecting the
    /// current subtree, so a cover of many overlapping slivers costs one
    /// walk, not one per triangle. Allocation-free once `scratch` is warm.
    pub fn report_union_with(&self, scratch: &mut IndexScratch, tris: &[Triangle], out: &mut Vec<u32>) {
        let Some(root) = self.root else { return };
        if tris.is_empty() {
            return;
        }
        let IndexScratch { pre, active, .. } = scratch;
        pre.clear();
        pre.extend(tris.iter().map(TriPre::of));
        active.clear();
        active.extend(0..tris.len() as u32);
        let n = active.len();
        self.union_rec(root, tris, pre, active, 0, n, out);
    }

    #[allow(clippy::too_many_arguments)]
    fn union_rec(
        &self,
        v: u32,
        tris: &[Triangle],
        pre: &[TriPre],
        active: &mut Vec<u32>,
        lo: usize,
        hi: usize,
        out: &mut Vec<u32>,
    ) {
        let node = &self.nodes[v as usize];
        // Filter the parent's surviving triangles against this subtree's
        // bbox; a triangle that swallows the whole bbox short-circuits to
        // a contiguous copy of the subtree's ids.
        let base = active.len();
        for k in lo..hi {
            let t = &tris[active[k] as usize];
            if !t.intersects_box(&node.bbox) {
                continue;
            }
            let p = &pre[active[k] as usize];
            if p.admits(node.bbox.min.x, node.bbox.min.y)
                && p.admits(node.bbox.max.x, node.bbox.max.y)
                && p.admits(node.bbox.min.x, node.bbox.max.y)
                && p.admits(node.bbox.max.x, node.bbox.min.y)
            {
                out.extend_from_slice(&self.ids[node.start as usize..node.end as usize]);
                active.truncate(base);
                return;
            }
            active.push(active[k]);
        }
        let (nlo, nhi) = (base, active.len());
        if nlo == nhi {
            return;
        }
        if node.left == NONE {
            let (s, e) = (node.start as usize, node.end as usize);
            self.leaf_filter(s, e, pre, &active[nlo..nhi], out);
        } else {
            self.union_rec(node.left, tris, pre, active, nlo, nhi, out);
            self.union_rec(node.right, tris, pre, active, nlo, nhi, out);
        }
        active.truncate(base);
    }

    /// Exact per-point membership over one leaf's columns: a point is
    /// reported when any active triangle admits it.
    fn leaf_filter(&self, s: usize, e: usize, pre: &[TriPre], active: &[u32], out: &mut Vec<u32>) {
        for i in s..e {
            if active.iter().any(|&k| pre[k as usize].admits(self.xs[i], self.ys[i])) {
                out.push(self.ids[i]);
            }
        }
    }
}

fn build_rec(pts: &[Point], ids: &mut [u32], depth: usize, tree: &mut KdTree) -> u32 {
    let bbox = Aabb::of_points(ids.iter().map(|&i| pts[i as usize]));
    if ids.len() <= LEAF_MAX {
        let start = tree.ids.len() as u32;
        for &id in ids.iter() {
            let p = pts[id as usize];
            tree.xs.push(p.x);
            tree.ys.push(p.y);
            tree.ids.push(id);
        }
        let slot = tree.nodes.len();
        tree.nodes.push(KdNode { bbox, left: NONE, right: NONE, start, end: tree.ids.len() as u32 });
        return slot as u32;
    }
    let axis = (depth % 2) as u8;
    let mid = ids.len() / 2;
    // `total_cmp`, so a non-finite coordinate cannot panic a build.
    ids.select_nth_unstable_by(mid, |&a, &b| {
        let (pa, pb) = (pts[a as usize], pts[b as usize]);
        let by_axis = if axis == 0 {
            pa.x.total_cmp(&pb.x).then(pa.y.total_cmp(&pb.y))
        } else {
            pa.y.total_cmp(&pb.y).then(pa.x.total_cmp(&pb.x))
        };
        by_axis.then(a.cmp(&b))
    });
    let slot = tree.nodes.len();
    tree.nodes.push(KdNode { bbox, left: NONE, right: NONE, start: 0, end: 0 });
    let (lo, hi) = ids.split_at_mut(mid);
    let l = build_rec(pts, lo, depth + 1, tree);
    let r = build_rec(pts, hi, depth + 1, tree);
    let (start, end) = (tree.nodes[l as usize].start, tree.nodes[r as usize].end);
    let node = &mut tree.nodes[slot];
    node.left = l;
    node.right = r;
    node.start = start;
    node.end = end;
    slot as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn random_points(seed: u64, n: usize) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Point::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0))).collect()
    }

    #[test]
    fn empty_and_singleton() {
        let big = Triangle::new(Point::new(-9.0, -9.0), Point::new(9.0, -9.0), Point::new(0.0, 9.0));
        let mut got = Vec::new();
        let t = KdTree::build(&[]);
        assert!(t.is_empty());
        t.report_triangle(&big, &mut got);
        assert!(got.is_empty());
        let t = KdTree::build(&[Point::new(1.0, 2.0)]);
        assert_eq!(t.len(), 1);
        t.report_triangle(&big, &mut got);
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn triangle_report_matches_brute_force() {
        let pts = random_points(5, 600);
        let t = KdTree::build(&pts);
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..100 {
            let tri = Triangle::new(
                Point::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)),
                Point::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)),
                Point::new(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0)),
            );
            let mut got = Vec::new();
            t.report_triangle(&tri, &mut got);
            got.sort_unstable();
            let mut want: Vec<u32> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| tri.contains(**p))
                .map(|(i, _)| i as u32)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    /// One descent over a set of overlapping slivers equals the dedup'd
    /// union of per-triangle reports — the matcher's ring-cover contract.
    #[test]
    fn union_report_matches_per_triangle_union() {
        let pts = random_points(7, 900);
        let t = KdTree::build(&pts);
        let mut rng = StdRng::seed_from_u64(41);
        for round in 0..40 {
            let ntris = rng.random_range(1usize..24);
            // thin slivers radiating from a shared hub, like a ring cover
            let hub = Point::new(rng.random_range(-0.5..0.5), rng.random_range(-0.5..0.5));
            let tris: Vec<Triangle> = (0..ntris)
                .map(|_| {
                    let a = Point::new(rng.random_range(-1.2..1.2), rng.random_range(-1.2..1.2));
                    let b = Point::new(a.x + rng.random_range(-0.05..0.05), a.y + rng.random_range(-0.05..0.05));
                    Triangle::new(hub, a, b)
                })
                .collect();
            let mut got = Vec::new();
            t.report_union(&tris, &mut got);
            let mut sorted = got.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), got.len(), "round {round}: union reported duplicates");
            let mut want = Vec::new();
            for tri in &tris {
                t.report_triangle(tri, &mut want);
            }
            want.sort_unstable();
            want.dedup();
            assert_eq!(sorted, want, "round {round}: union disagrees with per-triangle");
        }
    }

    #[test]
    fn duplicate_points_all_reported() {
        let pts = vec![Point::new(0.0, 0.0); 9];
        let t = KdTree::build(&pts);
        let mut got = Vec::new();
        t.report_triangle(
            &Triangle::new(Point::new(-1.0, -1.0), Point::new(1.0, -1.0), Point::new(0.0, 1.0)),
            &mut got,
        );
        assert_eq!(got.len(), 9);
    }

    proptest! {
        #[test]
        fn union_never_misses(seed in 0u64..100) {
            let pts = random_points(seed, 300);
            let t = KdTree::build(&pts);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7777);
            let tris: Vec<Triangle> = (0..rng.random_range(1usize..8)).map(|_| Triangle::new(
                Point::new(rng.random_range(-1.2..1.2), rng.random_range(-1.2..1.2)),
                Point::new(rng.random_range(-1.2..1.2), rng.random_range(-1.2..1.2)),
                Point::new(rng.random_range(-1.2..1.2), rng.random_range(-1.2..1.2)),
            )).collect();
            let mut got = Vec::new();
            t.report_union(&tris, &mut got);
            got.sort_unstable();
            let want: Vec<u32> = pts.iter().enumerate()
                .filter(|(_, p)| tris.iter().any(|t| t.contains(**p)))
                .map(|(i, _)| i as u32).collect();
            prop_assert_eq!(got, want);
        }
    }
}
