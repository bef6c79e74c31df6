//! Line segments: distances, projections and intersection tests.

use crate::bbox::Aabb;
use crate::point::{orient, Orientation, Point, Vec2};
use crate::EPS;

/// A directed line segment from `a` to `b`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub a: Point,
    pub b: Point,
}

/// Result of intersecting two segments.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SegIntersection {
    /// No common point.
    None,
    /// Exactly one common point (includes endpoint touches and crossings).
    Point(Point),
    /// The segments overlap along a sub-segment of positive length.
    Overlap(Segment),
}

impl Segment {
    pub fn new(a: Point, b: Point) -> Self {
        Segment { a, b }
    }

    #[inline]
    pub fn dir(&self) -> Vec2 {
        self.b - self.a
    }

    #[inline]
    pub fn len(&self) -> f64 {
        self.a.dist(self.b)
    }

    pub fn bbox(&self) -> Aabb {
        Aabb::of_points([self.a, self.b])
    }

    pub fn midpoint(&self) -> Point {
        self.a.midpoint(self.b)
    }

    /// Point at parameter `t ∈ [0,1]` along the segment.
    pub fn at(&self, t: f64) -> Point {
        self.a.lerp(self.b, t)
    }

    /// Parameter `t ∈ [0,1]` of the point on the segment closest to `p`.
    fn project_clamped(&self, p: Point) -> f64 {
        let d = self.dir();
        let l2 = d.norm_sq();
        if l2 <= EPS * EPS {
            return 0.0;
        }
        ((p - self.a).dot(d) / l2).clamp(0.0, 1.0)
    }

    /// Closest point of the segment to `p`.
    fn closest_point(&self, p: Point) -> Point {
        self.at(self.project_clamped(p))
    }

    /// Euclidean distance from `p` to the segment.
    pub fn dist_to_point(&self, p: Point) -> f64 {
        self.closest_point(p).dist(p)
    }

    /// Squared distance from `p` to the segment.
    pub fn dist_sq_to_point(&self, p: Point) -> f64 {
        self.closest_point(p).dist_sq(p)
    }

    /// True if `p` lies on the segment (within tolerance).
    pub fn contains_point(&self, p: Point) -> bool {
        self.dist_to_point(p) <= EPS * (1.0 + self.len())
    }

    /// Do the two segments share at least one point?
    pub fn intersects(&self, other: &Segment) -> bool {
        !matches!(self.intersect(other), SegIntersection::None)
    }

    /// Proper crossing: the segments intersect in exactly one point that is
    /// interior to both.
    pub fn crosses_properly(&self, other: &Segment) -> bool {
        let d1 = orient(other.a, other.b, self.a);
        let d2 = orient(other.a, other.b, self.b);
        let d3 = orient(self.a, self.b, other.a);
        let d4 = orient(self.a, self.b, other.b);
        d1 != Orientation::Collinear
            && d2 != Orientation::Collinear
            && d3 != Orientation::Collinear
            && d4 != Orientation::Collinear
            && d1 != d2
            && d3 != d4
    }

    /// Full segment-segment intersection, handling collinear overlap.
    fn intersect(&self, other: &Segment) -> SegIntersection {
        let r = self.dir();
        let s = other.dir();
        let denom = r.cross(s);
        let qp = other.a - self.a;

        let scale = 1.0 + r.norm().max(s.norm());
        if denom.abs() > EPS * scale * scale {
            // Lines cross at a single point; check it lies inside both.
            let t = qp.cross(s) / denom;
            let u = qp.cross(r) / denom;
            let tol = EPS;
            if (-tol..=1.0 + tol).contains(&t) && (-tol..=1.0 + tol).contains(&u) {
                return SegIntersection::Point(self.at(t.clamp(0.0, 1.0)));
            }
            return SegIntersection::None;
        }

        // Parallel. Not collinear ⇒ disjoint.
        if orient(self.a, self.b, other.a) != Orientation::Collinear {
            return SegIntersection::None;
        }

        // Collinear: project onto the dominant axis of r.
        let l2 = r.norm_sq();
        if l2 <= EPS * EPS {
            // `self` is a point.
            return if other.contains_point(self.a) {
                SegIntersection::Point(self.a)
            } else {
                SegIntersection::None
            };
        }
        let t0 = (other.a - self.a).dot(r) / l2;
        let t1 = (other.b - self.a).dot(r) / l2;
        let (lo, hi) = if t0 <= t1 { (t0, t1) } else { (t1, t0) };
        let lo = lo.max(0.0);
        let hi = hi.min(1.0);
        if lo > hi + EPS {
            SegIntersection::None
        } else if (hi - lo).abs() <= EPS {
            SegIntersection::Point(self.at(lo.clamp(0.0, 1.0)))
        } else {
            SegIntersection::Overlap(Segment::new(self.at(lo), self.at(hi)))
        }
    }

    /// Signed area contribution of this segment (shoelace term), used when
    /// accumulating polygon areas.
    pub fn shoelace(&self) -> f64 {
        self.a.x * self.b.y - self.b.x * self.a.y
    }
}

impl From<(Point, Point)> for Segment {
    fn from((a, b): (Point, Point)) -> Self {
        Segment::new(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn s(ax: f64, ay: f64, bx: f64, by: f64) -> Segment {
        Segment::new(p(ax, ay), p(bx, by))
    }

    #[test]
    fn point_distance_cases() {
        let seg = s(0.0, 0.0, 2.0, 0.0);
        assert_eq!(seg.dist_to_point(p(1.0, 1.0)), 1.0); // interior foot
        assert_eq!(seg.dist_to_point(p(-1.0, 0.0)), 1.0); // clamp to a
        assert_eq!(seg.dist_to_point(p(3.0, 0.0)), 1.0); // clamp to b
        assert_eq!(seg.dist_to_point(p(1.0, 0.0)), 0.0); // on segment
    }

    #[test]
    fn degenerate_segment_distance() {
        let seg = s(1.0, 1.0, 1.0, 1.0);
        assert!((seg.dist_to_point(p(4.0, 5.0)) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn proper_crossing() {
        let s1 = s(0.0, 0.0, 2.0, 2.0);
        let s2 = s(0.0, 2.0, 2.0, 0.0);
        assert!(s1.crosses_properly(&s2));
        match s1.intersect(&s2) {
            SegIntersection::Point(q) => assert!(q.almost_eq(p(1.0, 1.0))),
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn endpoint_touch_is_point_not_proper() {
        let s1 = s(0.0, 0.0, 1.0, 0.0);
        let s2 = s(1.0, 0.0, 2.0, 3.0);
        assert!(!s1.crosses_properly(&s2));
        match s1.intersect(&s2) {
            SegIntersection::Point(q) => assert!(q.almost_eq(p(1.0, 0.0))),
            other => panic!("expected point, got {other:?}"),
        }
    }

    #[test]
    fn collinear_overlap() {
        let s1 = s(0.0, 0.0, 3.0, 0.0);
        let s2 = s(1.0, 0.0, 5.0, 0.0);
        match s1.intersect(&s2) {
            SegIntersection::Overlap(o) => {
                assert!(o.a.almost_eq(p(1.0, 0.0)));
                assert!(o.b.almost_eq(p(3.0, 0.0)));
            }
            other => panic!("expected overlap, got {other:?}"),
        }
    }

    #[test]
    fn collinear_disjoint() {
        let s1 = s(0.0, 0.0, 1.0, 0.0);
        let s2 = s(2.0, 0.0, 3.0, 0.0);
        assert_eq!(s1.intersect(&s2), SegIntersection::None);
    }

    #[test]
    fn parallel_non_collinear() {
        let s1 = s(0.0, 0.0, 1.0, 0.0);
        let s2 = s(0.0, 1.0, 1.0, 1.0);
        assert_eq!(s1.intersect(&s2), SegIntersection::None);
    }

    proptest! {
        #[test]
        fn closest_point_is_on_segment(ax in -5.0..5.0f64, ay in -5.0..5.0f64,
                                       bx in -5.0..5.0f64, by in -5.0..5.0f64,
                                       px in -5.0..5.0f64, py in -5.0..5.0f64) {
            let seg = Segment::new(p(ax, ay), p(bx, by));
            let c = seg.closest_point(p(px, py));
            prop_assert!(seg.dist_to_point(c) < 1e-9);
            // no point of the segment is closer
            for i in 0..=20 {
                let q = seg.at(i as f64 / 20.0);
                prop_assert!(c.dist(p(px, py)) <= q.dist(p(px, py)) + 1e-9);
            }
        }
    }
}
