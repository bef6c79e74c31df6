//! Triangles — the simplices of the range-search queries in §2.5.

use crate::bbox::Aabb;
use crate::point::{cross3, Point};
use crate::EPS;

/// A triangle; orientation is not assumed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangle {
    pub a: Point,
    pub b: Point,
    pub c: Point,
}

impl Triangle {
    pub fn new(a: Point, b: Point, c: Point) -> Self {
        Triangle { a, b, c }
    }

    pub fn bbox(&self) -> Aabb {
        Aabb::of_points([self.a, self.b, self.c])
    }

    pub fn area(&self) -> f64 {
        0.5 * cross3(self.a, self.b, self.c).abs()
    }

    /// Is `p` inside the triangle (boundary inclusive, with tolerance)?
    pub fn contains(&self, p: Point) -> bool {
        let d1 = cross3(self.a, self.b, p);
        let d2 = cross3(self.b, self.c, p);
        let d3 = cross3(self.c, self.a, p);
        let tol = EPS * (1.0 + self.longest_side_sq());
        let has_neg = d1 < -tol || d2 < -tol || d3 < -tol;
        let has_pos = d1 > tol || d2 > tol || d3 > tol;
        !(has_neg && has_pos)
    }

    fn longest_side_sq(&self) -> f64 {
        self.a
            .dist_sq(self.b)
            .max(self.b.dist_sq(self.c))
            .max(self.c.dist_sq(self.a))
    }

    pub fn centroid(&self) -> Point {
        Point::new((self.a.x + self.b.x + self.c.x) / 3.0, (self.a.y + self.b.y + self.c.y) / 3.0)
    }

    /// Can the box hold a point that [`Triangle::contains`] accepts?
    /// Separating-axis test over the box axes (exact: callers pair
    /// `contains` with the bounding box) and the three edge normals — the
    /// kd-tree backend's pruning predicate. The edge-normal projections
    /// are in `contains`' own units (a cross product with the edge), and a
    /// point it accepts lies at most `tol` outside its edge and `2·tol`
    /// beyond the opposite vertex, so an axis separates only by more than
    /// `4·tol`; the spare factor absorbs the projections' rounding.
    pub fn intersects_box(&self, bb: &Aabb) -> bool {
        if bb.is_empty() || !self.bbox().intersects(bb) {
            return false; // box axes separate
        }
        let corners = [
            bb.min,
            Point::new(bb.max.x, bb.min.y),
            bb.max,
            Point::new(bb.min.x, bb.max.y),
        ];
        let verts = [self.a, self.b, self.c];
        let slack = 4.0 * EPS * (1.0 + self.longest_side_sq());
        for i in 0..3 {
            let n = (verts[(i + 1) % 3] - verts[i]).perp();
            let (tmin, tmax) = project(&verts, n);
            let (bmin, bmax) = project(&corners, n);
            if tmax + slack < bmin || bmax < tmin - slack {
                return false;
            }
        }
        true
    }
}

fn project(pts: &[Point], axis: crate::point::Vec2) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for p in pts {
        let d = p.to_vec().dot(axis);
        if d.is_nan() {
            // non-finite coordinates: this axis separates nothing
            return (f64::NEG_INFINITY, f64::INFINITY);
        }
        lo = lo.min(d);
        hi = hi.max(d);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn tri() -> Triangle {
        Triangle::new(p(0.0, 0.0), p(4.0, 0.0), p(0.0, 3.0))
    }

    #[test]
    fn area_and_centroid() {
        assert!((tri().area() - 6.0).abs() < 1e-12);
        assert!(tri().centroid().almost_eq(p(4.0 / 3.0, 1.0)));
    }

    #[test]
    fn containment_cases() {
        let t = tri();
        assert!(t.contains(p(1.0, 1.0)));
        assert!(t.contains(p(0.0, 0.0))); // vertex
        assert!(t.contains(p(2.0, 0.0))); // edge
        assert!(!t.contains(p(3.0, 3.0)));
        assert!(!t.contains(p(-0.1, 0.0)));
    }

    #[test]
    fn orientation_independent() {
        let t1 = Triangle::new(p(0.0, 0.0), p(4.0, 0.0), p(0.0, 3.0));
        let t2 = Triangle::new(p(0.0, 0.0), p(0.0, 3.0), p(4.0, 0.0)); // CW
        for q in [p(1.0, 1.0), p(5.0, 5.0), p(2.0, 0.5)] {
            assert_eq!(t1.contains(q), t2.contains(q));
        }
    }

    #[test]
    fn box_intersection_cases() {
        let t = tri();
        // box fully inside triangle
        assert!(t.intersects_box(&Aabb::of_points([p(0.5, 0.5), p(1.0, 1.0)])));
        // triangle fully inside box
        assert!(t.intersects_box(&Aabb::of_points([p(-1.0, -1.0), p(5.0, 5.0)])));
        // overlapping but neither contains the other
        assert!(t.intersects_box(&Aabb::of_points([p(2.0, 1.0), p(5.0, 5.0)])));
        // box in bbox of triangle but beyond the hypotenuse: 3x+4y=12 line;
        // corner (3.5, 2.5) gives 20.5 > 12, (3.2, 1.3) gives 14.8 > 12.
        assert!(!t.intersects_box(&Aabb::of_points([p(3.2, 1.3), p(3.9, 2.9)])));
        // disjoint bboxes
        assert!(!t.intersects_box(&Aabb::of_points([p(10.0, 10.0), p(11.0, 11.0)])));
        // edge touch counts as intersecting
        assert!(t.intersects_box(&Aabb::of_points([p(4.0, 0.0), p(6.0, 1.0)])));
    }

    proptest! {
        #[test]
        fn barycentric_points_inside(u in 0.0..1.0f64, v in 0.0..1.0f64) {
            prop_assume!(u + v <= 1.0);
            let t = tri();
            let q = Point::new(
                t.a.x + u * (t.b.x - t.a.x) + v * (t.c.x - t.a.x),
                t.a.y + u * (t.b.y - t.a.y) + v * (t.c.y - t.a.y),
            );
            prop_assert!(t.contains(q));
        }

        #[test]
        fn bbox_contains_triangle_points(u in 0.0..1.0f64, v in 0.0..1.0f64) {
            prop_assume!(u + v <= 1.0);
            let t = tri();
            let q = Point::new(
                t.a.x + u * (t.b.x - t.a.x) + v * (t.c.x - t.a.x),
                t.a.y + u * (t.b.y - t.a.y) + v * (t.c.y - t.a.y),
            );
            prop_assert!(t.bbox().contains(q));
        }
    }
}
