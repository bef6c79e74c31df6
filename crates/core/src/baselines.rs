//! The similarity measures and the retrieval baseline the paper positions
//! itself against (§1, §2.1):
//!
//! - the (directed) **Hausdorff** distance, dominated by the single
//!   farthest point;
//! - the **generalized k-th Hausdorff** distance of Huttenlocher &
//!   Rucklidge (the k-th largest min-distance instead of the max);
//! - the **Mehrotra–Gary feature index**: every shape is normalized about
//!   *each edge* and stored as a fixed-dimension boundary-sample vector;
//!   retrieval is nearest-vector search. Its weaknesses (storage blow-up,
//!   noise sensitivity, bias toward equal vertex counts) are what Figure 2
//!   and §2.3 argue against.

use geosir_geom::{Polyline, Similarity};

use crate::ids::ShapeId;
use crate::similarity::PreparedShape;

/// Directed Hausdorff distance over A's vertices:
/// `h(A, B) = max_{a ∈ A} min_{b ∈ B} d(a, b)`.
pub fn hausdorff_directed(a: &Polyline, b: &PreparedShape) -> f64 {
    a.points().iter().map(|&p| b.dist(p)).fold(0.0, f64::max)
}

/// Symmetric Hausdorff distance `H(A, B) = max(h(A,B), h(B,A))`.
pub fn hausdorff(a: &Polyline, b: &Polyline) -> f64 {
    let pb = PreparedShape::new(b.clone());
    let pa = PreparedShape::new(a.clone());
    hausdorff_directed(a, &pb).max(hausdorff_directed(b, &pa))
}

/// Generalized directed Hausdorff: the k-th largest of the min-distances
/// (`k = 1` reproduces the classical directed Hausdorff). The paper's §2.1
/// notes it is mainly used with `k = m/2`.
fn kth_hausdorff_directed(a: &Polyline, b: &PreparedShape, k: usize) -> f64 {
    let mut d: Vec<f64> = a.points().iter().map(|&p| b.dist(p)).collect();
    assert!(k >= 1 && k <= d.len(), "k must be in 1..=|A|");
    d.sort_by(|x, y| y.partial_cmp(x).unwrap()); // descending
    d[k - 1]
}

/// Half-rank generalized Hausdorff (`k = ⌈m/2⌉`), the common instantiation.
pub fn median_hausdorff_directed(a: &Polyline, b: &PreparedShape) -> f64 {
    kth_hausdorff_directed(a, b, a.num_vertices().div_ceil(2))
}

/// The Mehrotra–Gary edge-normalized feature index (§1, [16, 15, 21]).
///
/// Every shape is stored once per edge and orientation: the shape is
/// transformed so that the edge lies on ((0,0), (1,0)), and the feature
/// vector is the **vertex sequence** starting from that edge (padded by
/// wrapping), compared with the Euclidean distance. This is what gives the
/// method the weaknesses the paper attacks: ~2·E stored entries per shape
/// versus our ~2 per α-diameter, a bias toward shapes with the same vertex
/// count as the query, and brittleness whenever distortion splits an edge
/// (vertex correspondence shifts and no edge pair matches — Figure 2).
pub struct FeatureIndex {
    dim: usize,
    entries: Vec<(Vec<f64>, ShapeId)>,
}

impl FeatureIndex {
    /// `dim` vertices per vector (the vector has 2·dim numbers).
    pub fn new(dim: usize) -> Self {
        assert!(dim >= 2);
        FeatureIndex { dim, entries: Vec::new() }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Feature vector of `shape` normalized about edge `e` with the given
    /// orientation: the vertex coordinates in boundary order starting at
    /// the normalized edge, wrapping around until `dim` vertices are
    /// emitted.
    fn vector(&self, shape: &Polyline, e: usize, swapped: bool) -> Option<Vec<f64>> {
        let seg = shape.edge(e);
        let (s0, s1) = if swapped { (seg.b, seg.a) } else { (seg.a, seg.b) };
        let t = Similarity::normalizing(s0, s1)?;
        let normalized = t.apply_polyline(shape);
        let pts = normalized.points();
        let n = pts.len();
        let start = if swapped { (e + 1) % n } else { e };
        let mut v = Vec::with_capacity(2 * self.dim);
        for i in 0..self.dim {
            let p = pts[(start + i) % n];
            v.push(p.x);
            v.push(p.y);
        }
        Some(v)
    }

    /// Index `shape`: one entry per (edge, orientation).
    pub fn insert(&mut self, id: ShapeId, shape: &Polyline) {
        for e in 0..shape.num_edges() {
            for swapped in [false, true] {
                if let Some(v) = self.vector(shape, e, swapped) {
                    self.entries.push((v, id));
                }
            }
        }
    }

    /// Nearest stored shape to the query, normalizing the query about each
    /// of its own edges and taking the best (the method's retrieval rule).
    /// Returns `(shape, vector distance)`.
    pub fn nearest(&self, query: &Polyline) -> Option<(ShapeId, f64)> {
        let mut best: Option<(ShapeId, f64)> = None;
        for e in 0..query.num_edges() {
            for swapped in [false, true] {
                let Some(qv) = self.vector(query, e, swapped) else { continue };
                for (v, id) in &self.entries {
                    let d = euclid(&qv, v);
                    if best.is_none_or(|(_, bd)| d < bd) {
                        best = Some((*id, d));
                    }
                }
            }
        }
        best
    }
}

fn euclid(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::similarity::h_avg_discrete;
    use geosir_geom::Point;
    use proptest::prelude::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
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
    fn hausdorff_identity_and_symmetry() {
        let a = square(0.0, 0.0, 1.0);
        assert!(hausdorff(&a, &a) < 1e-12);
        let b = square(0.5, 0.0, 1.0);
        assert!((hausdorff(&a, &b) - hausdorff(&b, &a)).abs() < 1e-12);
        assert!(hausdorff(&a, &b) > 0.0);
    }

    #[test]
    fn hausdorff_dominated_by_farthest_point() {
        // §2.1's complaint: one outlier vertex dominates.
        let a = square(0.0, 0.0, 1.0);
        let spiky = Polyline::closed(vec![
            p(-1.0, -1.0),
            p(1.0, -1.0),
            p(1.0, 1.0),
            p(0.0, 9.0), // outlier
            p(-1.0, 1.0),
        ])
        .unwrap();
        let pa = PreparedShape::new(a.clone());
        let h = hausdorff_directed(&spiky, &pa);
        assert!((h - p(0.0, 9.0).dist(p(0.0, 1.0))).abs() < 1e-9);
        // while h_avg averages it away
        assert!(h_avg_discrete(&spiky, &pa) < h / 3.0);
    }

    #[test]
    fn kth_hausdorff_discounts_outliers() {
        let a = square(0.0, 0.0, 1.0);
        let spiky = Polyline::closed(vec![
            p(-1.0, -1.0),
            p(1.0, -1.0),
            p(1.0, 1.0),
            p(0.0, 9.0),
            p(-1.0, 1.0),
        ])
        .unwrap();
        let pa = PreparedShape::new(a);
        let h1 = kth_hausdorff_directed(&spiky, &pa, 1);
        let h2 = kth_hausdorff_directed(&spiky, &pa, 2);
        assert!(h2 < h1, "k = 2 must drop the single outlier");
        assert!(median_hausdorff_directed(&spiky, &pa) <= h2);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn kth_hausdorff_validates_k() {
        let a = square(0.0, 0.0, 1.0);
        let pa = PreparedShape::new(a.clone());
        let _ = kth_hausdorff_directed(&a, &pa, 9);
    }

    #[test]
    fn feature_index_retrieves_exact_copy() {
        let shapes = [
            square(0.0, 0.0, 1.0),
            Polyline::closed(vec![p(0.0, 0.0), p(4.0, 0.0), p(0.0, 3.0)]).unwrap(),
            Polyline::closed(vec![p(0.0, 0.0), p(5.0, 0.0), p(5.0, 1.0), p(0.0, 1.0)]).unwrap(),
        ];
        let mut fi = FeatureIndex::new(16);
        for (i, s) in shapes.iter().enumerate() {
            fi.insert(ShapeId(i as u32), s);
        }
        // 2 entries per edge
        assert_eq!(fi.len(), 2 * (4 + 3 + 4));
        for (i, s) in shapes.iter().enumerate() {
            let (id, d) = fi.nearest(s).unwrap();
            assert_eq!(id, ShapeId(i as u32));
            assert!(d < 1e-9);
        }
    }

    /// The Figure 2 scenario: an edge of the stored shape is split by a
    /// distortion. Edge normalization finds no matching edge pair, so the
    /// feature-vector distance stays large, while diameter normalization
    /// (the paper's method, exercised in the matcher tests) is unaffected.
    #[test]
    fn feature_index_is_brittle_under_edge_split() {
        let tri = Polyline::closed(vec![p(0.0, 0.0), p(4.0, 0.0), p(0.0, 3.0)]).unwrap();
        // distorted: the long edge is split with a bump, all edges change
        let distorted = Polyline::closed(vec![
            p(0.0, 0.0),
            p(2.0, -0.35),
            p(4.0, 0.0),
            p(0.0, 3.0),
        ])
        .unwrap();
        let mut fi = FeatureIndex::new(16);
        fi.insert(ShapeId(0), &tri);
        // unrelated decoy that also lives in the index
        fi.insert(ShapeId(1), &square(0.0, 0.0, 1.0));
        let (_, d_exact) = {
            let mut fi2 = FeatureIndex::new(16);
            fi2.insert(ShapeId(0), &tri);
            fi2.nearest(&tri).unwrap()
        };
        let (_, d_distorted) = fi.nearest(&distorted).unwrap();
        assert!(d_exact < 1e-9);
        assert!(
            d_distorted > 100.0 * (d_exact + 1e-12),
            "edge normalization should degrade sharply under the split"
        );
        // whereas h_avg between the two shapes stays small relative to size
        let cost = h_avg_discrete(&distorted, &PreparedShape::new(tri));
        assert!(cost < 0.2);
    }

    proptest! {
        #[test]
        fn hausdorff_bounds_havg(dx in -2.0..2.0f64, dy in -2.0..2.0f64) {
            let a = square(0.0, 0.0, 1.0);
            let b = square(dx, dy, 0.7);
            let pa = PreparedShape::new(a);
            prop_assert!(h_avg_discrete(&b, &pa) <= hausdorff_directed(&b, &pa) + 1e-12);
        }

        #[test]
        fn kth_hausdorff_monotone_in_k(k1 in 1usize..4, k2 in 1usize..4) {
            let a = square(0.0, 0.0, 1.0);
            let b = square(0.4, 0.1, 0.8);
            let pa = PreparedShape::new(a);
            let (k1, k2) = (k1.min(4), k2.min(4));
            if k1 <= k2 {
                prop_assert!(kth_hausdorff_directed(&b, &pa, k1)
                    >= kth_hausdorff_directed(&b, &pa, k2) - 1e-12);
            }
        }
    }
}
