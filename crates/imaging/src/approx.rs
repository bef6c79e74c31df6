//! Douglas–Peucker segment approximation of traced boundaries.
//!
//! §6: "we first perform image processing that achieves segment
//! approximation of boundaries" — pixel chains become polylines whose
//! vertices deviate from the chain by at most `tolerance` pixels.

use geosir_geom::{Point, Polyline, Segment};

/// Simplify an open chain of points with Douglas–Peucker.
fn simplify_open(points: &[Point], tolerance: f64) -> Vec<Point> {
    assert!(tolerance >= 0.0);
    if points.len() <= 2 {
        return points.to_vec();
    }
    let mut keep = vec![false; points.len()];
    keep[0] = true;
    keep[points.len() - 1] = true;
    dp_rec(points, 0, points.len() - 1, tolerance, &mut keep);
    points
        .iter()
        .zip(&keep)
        .filter(|(_, &k)| k)
        .map(|(&p, _)| p)
        .collect()
}

fn dp_rec(points: &[Point], lo: usize, hi: usize, tol: f64, keep: &mut [bool]) {
    if hi <= lo + 1 {
        return;
    }
    let seg = Segment::new(points[lo], points[hi]);
    let (mut worst, mut worst_d) = (lo, -1.0);
    for (i, p) in points.iter().enumerate().take(hi).skip(lo + 1) {
        let d = seg.dist_to_point(*p);
        if d > worst_d {
            worst = i;
            worst_d = d;
        }
    }
    if worst_d > tol {
        keep[worst] = true;
        dp_rec(points, lo, worst, tol, keep);
        dp_rec(points, worst, hi, tol, keep);
    }
}

/// Simplify a closed pixel chain into a closed [`Polyline`]. The two
/// anchor points are chosen as the chain's farthest pair approximation
/// (first point and the point farthest from it), so closed chains do not
/// collapse. Returns `None` when the simplified polygon degenerates
/// (fewer than 3 distinct vertices).
pub fn simplify_closed(points: &[Point], tolerance: f64) -> Option<Polyline> {
    if points.len() < 3 {
        return None;
    }
    // anchor 0 = index 0; anchor 1 = farthest point from it
    let far = points
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            points[0].dist_sq(**a).partial_cmp(&points[0].dist_sq(**b)).unwrap()
        })
        .map(|(i, _)| i)?;
    if far == 0 {
        return None;
    }
    let first_half = simplify_open(&points[0..=far], tolerance);
    let mut second: Vec<Point> = points[far..].to_vec();
    second.push(points[0]);
    let second_half = simplify_open(&second, tolerance);
    let mut out = first_half;
    out.extend_from_slice(&second_half[1..second_half.len() - 1]);
    // drop consecutive duplicates
    out.dedup_by(|a, b| a.almost_eq(*b));
    while out.len() > 1 && out.first().unwrap().almost_eq(*out.last().unwrap()) {
        out.pop();
    }
    if out.len() < 3 {
        return None;
    }
    Polyline::closed(out).ok()
}

/// Convert integer pixel chains to points.
pub fn chain_to_points(chain: &[(i32, i32)]) -> Vec<Point> {
    chain.iter().map(|&(x, y)| Point::new(x as f64, y as f64)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn collinear_chain_collapses_to_endpoints() {
        let pts: Vec<Point> = (0..20).map(|i| p(i as f64, 0.0)).collect();
        let s = simplify_open(&pts, 0.5);
        assert_eq!(s.len(), 2);
        assert!(s[0].almost_eq(pts[0]));
        assert!(s[1].almost_eq(pts[19]));
    }

    #[test]
    fn corner_is_kept() {
        let mut pts: Vec<Point> = (0..10).map(|i| p(i as f64, 0.0)).collect();
        pts.extend((1..10).map(|i| p(9.0, i as f64)));
        let s = simplify_open(&pts, 0.5);
        assert_eq!(s.len(), 3);
        assert!(s[1].almost_eq(p(9.0, 0.0)));
    }

    #[test]
    fn tolerance_bounds_deviation() {
        // noisy sine sampled densely, simplified: every dropped point stays
        // within tolerance of the simplified chain
        let pts: Vec<Point> =
            (0..200).map(|i| p(i as f64 * 0.1, (i as f64 * 0.1).sin())).collect();
        let tol = 0.05;
        let s = simplify_open(&pts, tol);
        assert!(s.len() < pts.len());
        let poly = Polyline::open(s).unwrap();
        for q in &pts {
            assert!(poly.dist_to_point(*q) <= tol + 1e-9);
        }
    }

    #[test]
    fn closed_square_chain() {
        // pixel-walk of a 10×10 square boundary
        let mut chain: Vec<(i32, i32)> = Vec::new();
        for x in 0..10 {
            chain.push((x, 0));
        }
        for y in 1..10 {
            chain.push((9, y));
        }
        for x in (0..9).rev() {
            chain.push((x, 9));
        }
        for y in (1..9).rev() {
            chain.push((0, y));
        }
        let poly = simplify_closed(&chain_to_points(&chain), 0.8).unwrap();
        assert_eq!(poly.num_vertices(), 4, "square must simplify to 4 corners");
        assert!(poly.is_simple());
    }

    #[test]
    fn degenerate_chain_rejected() {
        assert!(simplify_closed(&[p(0.0, 0.0), p(1.0, 0.0)], 0.5).is_none());
        let dots = vec![p(0.0, 0.0); 5];
        assert!(simplify_closed(&dots, 0.5).is_none());
    }

    proptest! {
        /// Idempotence: simplifying an already-simplified chain changes
        /// nothing.
        #[test]
        fn simplify_idempotent(seed in 0u64..100) {
            use rand::prelude::*;
            let mut rng = StdRng::seed_from_u64(seed);
            let pts: Vec<Point> = (0..50)
                .map(|i| p(i as f64, rng.random_range(-3.0..3.0)))
                .collect();
            let once = simplify_open(&pts, 0.7);
            let twice = simplify_open(&once, 0.7);
            prop_assert_eq!(once, twice);
        }

        /// Output vertices are a subsequence of the input.
        #[test]
        fn output_subset_of_input(seed in 0u64..100) {
            use rand::prelude::*;
            let mut rng = StdRng::seed_from_u64(seed);
            let pts: Vec<Point> = (0..40)
                .map(|i| p(i as f64, rng.random_range(-2.0..2.0)))
                .collect();
            let s = simplify_open(&pts, 0.5);
            for q in &s {
                prop_assert!(pts.iter().any(|r| r.almost_eq(*q)));
            }
        }
    }
}
