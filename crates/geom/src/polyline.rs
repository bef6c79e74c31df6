//! Shapes: non-self-intersecting polygons and polylines (§2.4).
//!
//! The paper defines a *shape* as "a non self-intersecting polygon or
//! polyline with no convexity restrictions". [`Polyline`] represents both
//! via the `closed` flag.

use crate::bbox::Aabb;
use crate::point::Point;
use crate::segment::Segment;
use crate::EPS;

/// A polygonal chain; `closed = true` makes it a polygon (the edge from the
/// last vertex back to the first is implicit).
///
/// ```
/// use geosir_geom::{Point, Polyline};
///
/// let square = Polyline::closed(vec![
///     Point::new(0.0, 0.0), Point::new(2.0, 0.0),
///     Point::new(2.0, 2.0), Point::new(0.0, 2.0),
/// ]).unwrap();
/// assert_eq!(square.num_edges(), 4);
/// assert!((square.area() - 4.0).abs() < 1e-12);
/// assert!(square.contains_point(Point::new(1.0, 1.0)));
/// assert!(square.is_simple());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    pts: Vec<Point>,
    closed: bool,
}

/// Errors from [`Polyline`] constructors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShapeError {
    /// Fewer points than the variant requires (2 open / 3 closed).
    TooFewPoints,
    /// Two consecutive vertices coincide.
    DegenerateEdge,
    /// A coordinate is NaN or infinite.
    NonFinite,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::TooFewPoints => write!(f, "too few points for shape"),
            ShapeError::DegenerateEdge => write!(f, "consecutive vertices coincide"),
            ShapeError::NonFinite => write!(f, "non-finite coordinate"),
        }
    }
}

impl std::error::Error for ShapeError {}

impl Polyline {
    /// An open polyline through `pts` (≥ 2 distinct consecutive points).
    pub fn open(pts: Vec<Point>) -> Result<Self, ShapeError> {
        Self::build(pts, false)
    }

    /// A closed polygon with vertices `pts` (≥ 3; do **not** repeat the
    /// first vertex at the end).
    pub fn closed(pts: Vec<Point>) -> Result<Self, ShapeError> {
        Self::build(pts, true)
    }

    fn build(pts: Vec<Point>, closed: bool) -> Result<Self, ShapeError> {
        let min = if closed { 3 } else { 2 };
        if pts.len() < min {
            return Err(ShapeError::TooFewPoints);
        }
        if pts.iter().any(|p| !p.x.is_finite() || !p.y.is_finite()) {
            return Err(ShapeError::NonFinite);
        }
        let n = pts.len();
        let last = if closed { n } else { n - 1 };
        for i in 0..last {
            if pts[i].almost_eq(pts[(i + 1) % n]) {
                return Err(ShapeError::DegenerateEdge);
            }
        }
        Ok(Polyline { pts, closed })
    }

    #[inline]
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.pts
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.pts.len()
    }

    /// Number of edges: `n` for closed shapes, `n − 1` for open ones.
    #[inline]
    pub fn num_edges(&self) -> usize {
        if self.closed {
            self.pts.len()
        } else {
            self.pts.len() - 1
        }
    }

    /// Edge `i` (0-based; for closed shapes edge `n−1` wraps around).
    pub fn edge(&self, i: usize) -> Segment {
        let n = self.pts.len();
        Segment::new(self.pts[i], self.pts[(i + 1) % n])
    }

    /// Iterator over all edges.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        (0..self.num_edges()).map(move |i| self.edge(i))
    }

    /// Total edge length (the perimeter `l_Q` of §2.5).
    pub fn perimeter(&self) -> f64 {
        self.edges().map(|e| e.len()).sum()
    }

    /// Signed area (closed shapes; positive for CCW vertex order).
    fn signed_area(&self) -> f64 {
        debug_assert!(self.closed, "signed_area on open polyline");
        0.5 * self.edges().map(|e| e.shoelace()).sum::<f64>()
    }

    /// Absolute enclosed area (closed shapes).
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Vertex-average centroid.
    pub fn vertex_centroid(&self) -> Point {
        let n = self.pts.len() as f64;
        let (sx, sy) = self.pts.iter().fold((0.0, 0.0), |(x, y), p| (x + p.x, y + p.y));
        Point::new(sx / n, sy / n)
    }

    pub fn bbox(&self) -> Aabb {
        Aabb::of_points(self.pts.iter().copied())
    }

    /// Euclidean distance from `p` to the nearest point of the chain.
    pub fn dist_to_point(&self, p: Point) -> f64 {
        self.edges()
            .map(|e| e.dist_sq_to_point(p))
            .fold(f64::INFINITY, f64::min)
            .sqrt()
    }

    /// Is `p` strictly inside the polygon? (closed shapes; even-odd rule,
    /// boundary points count as inside).
    pub fn contains_point(&self, p: Point) -> bool {
        debug_assert!(self.closed, "contains_point on open polyline");
        if self.dist_to_point(p) <= EPS {
            return true;
        }
        let mut inside = false;
        let n = self.pts.len();
        let mut j = n - 1;
        for i in 0..n {
            let (pi, pj) = (self.pts[i], self.pts[j]);
            if (pi.y > p.y) != (pj.y > p.y) {
                let x_int = pi.x + (p.y - pi.y) / (pj.y - pi.y) * (pj.x - pi.x);
                if p.x < x_int {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Does the chain intersect itself anywhere except at shared endpoints
    /// of consecutive edges? Brute force `O(e²)` for the ~20-vertex shapes
    /// of the corpus; long chains (raw traced boundaries) delegate to the
    /// sweep-and-prune of [`crate::sweep`].
    pub fn is_simple(&self) -> bool {
        if self.num_edges() > 48 {
            return crate::sweep::is_simple_chain(self);
        }
        let e = self.num_edges();
        for i in 0..e {
            for j in (i + 1)..e {
                let adjacent = j == i + 1 || (self.closed && i == 0 && j == e - 1);
                let si = self.edge(i);
                let sj = self.edge(j);
                if adjacent {
                    // Consecutive edges may only share their common endpoint.
                    if si.crosses_properly(&sj) {
                        return false;
                    }
                    let shared = if j == i + 1 { si.b } else { si.a };
                    let other_i = if j == i + 1 { si.a } else { si.b };
                    let other_j = if j == i + 1 { sj.b } else { sj.a };
                    if sj.contains_point(other_i) && !other_i.almost_eq(shared)
                        || si.contains_point(other_j) && !other_j.almost_eq(shared)
                    {
                        return false;
                    }
                } else if si.intersects(&sj) {
                    return false;
                }
            }
        }
        true
    }

    /// `count` points spread uniformly by arclength along the chain
    /// (used by tests and the discrete similarity variants).
    pub fn sample_by_arclength(&self, count: usize) -> Vec<Point> {
        assert!(count >= 2, "need at least two samples");
        let total = self.perimeter();
        let mut out = Vec::with_capacity(count);
        let step = if self.closed {
            total / count as f64
        } else {
            total / (count - 1) as f64
        };
        let mut edges = self.edges();
        let mut cur = edges.next().expect("shape has at least one edge");
        let mut consumed = 0.0; // arclength before `cur`
        let mut cur_len = cur.len();
        for i in 0..count {
            let target = (i as f64 * step).min(total - EPS);
            while consumed + cur_len < target {
                consumed += cur_len;
                cur = edges.next().expect("arclength within perimeter");
                cur_len = cur.len();
            }
            let t = ((target - consumed) / cur_len).clamp(0.0, 1.0);
            out.push(cur.at(t));
        }
        out
    }

    /// Apply `f` to every vertex.
    pub fn map_points(&self, mut f: impl FnMut(Point) -> Point) -> Polyline {
        Polyline { pts: self.pts.iter().map(|&p| f(p)).collect(), closed: self.closed }
    }

    /// A polyline over vertices that already formed one (no validation):
    /// what a store that laid valid shapes end to end hands back.
    pub fn from_valid(pts: Vec<Point>, closed: bool) -> Polyline {
        Polyline { pts, closed }
    }

    /// Overwrite this polyline with the vertices of a valid shape, reusing
    /// the vertex allocation (no validation) — with a mapped iterator,
    /// the allocation-free counterpart of [`Polyline::map_points`].
    pub fn copy_from(&mut self, pts: impl IntoIterator<Item = Point>, closed: bool) {
        self.pts.clear();
        self.pts.extend(pts);
        self.closed = closed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn unit_square() -> Polyline {
        Polyline::closed(vec![p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)]).unwrap()
    }

    #[test]
    fn constructors_validate() {
        assert_eq!(Polyline::open(vec![p(0.0, 0.0)]), Err(ShapeError::TooFewPoints));
        assert_eq!(
            Polyline::closed(vec![p(0.0, 0.0), p(1.0, 0.0)]),
            Err(ShapeError::TooFewPoints)
        );
        assert_eq!(
            Polyline::open(vec![p(0.0, 0.0), p(0.0, 0.0)]),
            Err(ShapeError::DegenerateEdge)
        );
        assert_eq!(
            Polyline::closed(vec![p(0.0, 0.0), p(1.0, 0.0), p(0.0, 0.0)]),
            Err(ShapeError::DegenerateEdge)
        );
        assert_eq!(
            Polyline::open(vec![p(f64::NAN, 0.0), p(1.0, 0.0)]),
            Err(ShapeError::NonFinite)
        );
    }

    #[test]
    fn square_metrics() {
        let sq = unit_square();
        assert_eq!(sq.num_edges(), 4);
        assert!((sq.perimeter() - 4.0).abs() < 1e-12);
        assert!((sq.signed_area() - 1.0).abs() < 1e-12);
        assert!(sq.vertex_centroid().almost_eq(p(0.5, 0.5)));
        assert!(sq.is_simple());
    }

    #[test]
    fn open_polyline_edges() {
        let pl = Polyline::open(vec![p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0)]).unwrap();
        assert_eq!(pl.num_edges(), 2);
        assert!((pl.perimeter() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn containment() {
        let sq = unit_square();
        assert!(sq.contains_point(p(0.5, 0.5)));
        assert!(sq.contains_point(p(0.0, 0.5))); // boundary
        assert!(!sq.contains_point(p(1.5, 0.5)));
        assert!(!sq.contains_point(p(-0.1, -0.1)));
    }

    #[test]
    fn concave_containment() {
        // L-shape
        let l = Polyline::closed(vec![
            p(0.0, 0.0),
            p(2.0, 0.0),
            p(2.0, 1.0),
            p(1.0, 1.0),
            p(1.0, 2.0),
            p(0.0, 2.0),
        ])
        .unwrap();
        assert!(l.contains_point(p(0.5, 1.5)));
        assert!(l.contains_point(p(1.5, 0.5)));
        assert!(!l.contains_point(p(1.5, 1.5)));
    }

    #[test]
    fn self_intersection_detected() {
        let bow = Polyline::closed(vec![p(0.0, 0.0), p(1.0, 1.0), p(1.0, 0.0), p(0.0, 1.0)])
            .unwrap();
        assert!(!bow.is_simple());
        let zig = Polyline::open(vec![p(0.0, 0.0), p(2.0, 0.0), p(1.0, 1.0), p(1.0, -1.0)])
            .unwrap();
        assert!(!zig.is_simple());
    }

    #[test]
    fn dist_to_point_square() {
        let sq = unit_square();
        assert!((sq.dist_to_point(p(0.5, 0.5)) - 0.5).abs() < 1e-12); // center to edge
        assert!((sq.dist_to_point(p(2.0, 0.5)) - 1.0).abs() < 1e-12);
        assert!(sq.dist_to_point(p(1.0, 1.0)) < 1e-12);
    }

    #[test]
    fn sampling_uniform() {
        let sq = unit_square();
        let samples = sq.sample_by_arclength(8);
        assert_eq!(samples.len(), 8);
        // all samples lie on the boundary
        for s in &samples {
            assert!(sq.dist_to_point(*s) < 1e-9);
        }
        // consecutive samples are half an edge apart
        assert!(samples[0].almost_eq(p(0.0, 0.0)));
        assert!(samples[1].almost_eq(p(0.5, 0.0)));
    }

    proptest! {
        #[test]
        fn regular_ngon_area_formula(n in 3usize..40) {
            let pts: Vec<Point> = (0..n)
                .map(|i| {
                    let t = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                    p(t.cos(), t.sin())
                })
                .collect();
            let poly = Polyline::closed(pts).unwrap();
            let expected = 0.5 * n as f64 * (2.0 * std::f64::consts::PI / n as f64).sin();
            prop_assert!((poly.area() - expected).abs() < 1e-9);
            prop_assert!(poly.is_simple());
        }

        #[test]
        fn samples_on_boundary(n in 2usize..50) {
            let sq = unit_square();
            for s in sq.sample_by_arclength(n.max(2)) {
                prop_assert!(sq.dist_to_point(s) < 1e-9);
            }
        }

        #[test]
        fn interior_points_contained(x in 0.01..0.99f64, y in 0.01..0.99f64) {
            prop_assert!(unit_square().contains_point(p(x, y)));
        }
    }
}
