//! Convex hulls via Andrew's monotone chain — the substrate for the
//! rotating-calipers diameter used by shape normalization (§2.4).

use crate::point::{cross3, Point};
use crate::EPS;

/// Convex hull of `points` in counter-clockwise order, collinear points
/// removed. Returns fewer than 3 points for degenerate inputs (all points
/// equal → 1, all collinear → the 2 extremes).
pub fn convex_hull(points: &[Point]) -> Vec<Point> {
    let mut pts: Vec<Point> = points.to_vec();
    pts.sort_by(|a, b| a.x.partial_cmp(&b.x).unwrap().then(a.y.partial_cmp(&b.y).unwrap()));
    pts.dedup_by(|a, b| a.almost_eq(*b));
    let n = pts.len();
    if n <= 2 {
        return pts;
    }

    let mut hull: Vec<Point> = Vec::with_capacity(2 * n);
    // Lower hull.
    for &p in &pts {
        while hull.len() >= 2 && cross3(hull[hull.len() - 2], hull[hull.len() - 1], p) <= EPS {
            hull.pop();
        }
        hull.push(p);
    }
    // Upper hull.
    let lower_len = hull.len() + 1;
    for &p in pts.iter().rev().skip(1) {
        while hull.len() >= lower_len && cross3(hull[hull.len() - 2], hull[hull.len() - 1], p) <= EPS {
            hull.pop();
        }
        hull.push(p);
    }
    hull.pop(); // last point equals the first
    if hull.len() < 3 {
        // All points collinear: keep the two extremes.
        hull.truncate(2);
    }
    hull
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// Is `q` inside (or on the boundary of) the convex polygon `hull`
    /// (CCW order, as produced by [`convex_hull`])?
    fn hull_contains(hull: &[Point], q: Point) -> bool {
        if hull.len() < 3 {
            return match hull {
                [a] => a.almost_eq(q),
                [a, b] => crate::segment::Segment::new(*a, *b).contains_point(q),
                _ => false,
            };
        }
        let n = hull.len();
        for i in 0..n {
            if cross3(hull[i], hull[(i + 1) % n], q) < -EPS {
                return false;
            }
        }
        true
    }

    #[test]
    fn square_with_interior_points() {
        let pts = vec![
            p(0.0, 0.0),
            p(1.0, 0.0),
            p(1.0, 1.0),
            p(0.0, 1.0),
            p(0.5, 0.5),
            p(0.2, 0.7),
        ];
        let h = convex_hull(&pts);
        assert_eq!(h.len(), 4);
        for corner in [p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)] {
            assert!(h.iter().any(|q| q.almost_eq(corner)));
        }
    }

    #[test]
    fn collinear_input() {
        let pts = vec![p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0), p(3.0, 3.0)];
        let h = convex_hull(&pts);
        assert_eq!(h.len(), 2);
        assert!(h.iter().any(|q| q.almost_eq(p(0.0, 0.0))));
        assert!(h.iter().any(|q| q.almost_eq(p(3.0, 3.0))));
    }

    #[test]
    fn duplicates_and_singletons() {
        assert_eq!(convex_hull(&[p(1.0, 1.0), p(1.0, 1.0)]).len(), 1);
        assert_eq!(convex_hull(&[p(1.0, 1.0)]).len(), 1);
        assert!(convex_hull(&[]).is_empty());
    }

    #[test]
    fn hull_is_ccw() {
        let mut rng = StdRng::seed_from_u64(7);
        let pts: Vec<Point> =
            (0..100).map(|_| p(rng.random_range(-1.0..1.0), rng.random_range(-1.0..1.0))).collect();
        let h = convex_hull(&pts);
        assert!(h.len() >= 3);
        let n = h.len();
        for i in 0..n {
            assert!(cross3(h[i], h[(i + 1) % n], h[(i + 2) % n]) > 0.0, "hull not strictly convex CCW");
        }
    }

    proptest! {
        #[test]
        fn hull_contains_all_inputs(seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = rng.random_range(1usize..60);
            let pts: Vec<Point> = (0..k)
                .map(|_| p(rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0)))
                .collect();
            let h = convex_hull(&pts);
            for q in &pts {
                prop_assert!(hull_contains(&h, *q), "hull must contain input {q}");
            }
        }

        #[test]
        fn hull_vertices_are_inputs(seed in 0u64..200) {
            let mut rng = StdRng::seed_from_u64(seed);
            let k = rng.random_range(3usize..40);
            let pts: Vec<Point> = (0..k)
                .map(|_| p(rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0)))
                .collect();
            for q in convex_hull(&pts) {
                prop_assert!(pts.iter().any(|r| r.almost_eq(q)));
            }
        }
    }
}
