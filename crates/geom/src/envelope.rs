//! ε-envelopes and envelope-difference rings (§2.3, §2.5).
//!
//! The ε-envelope of a query shape Q is the set of points within distance ε
//! of Q (Figure 3 of the paper: lines parallel to the edges at distance ε on
//! either side, closed off around the vertices). The matcher never queries
//! the full envelope after the first iteration; it queries the *ring*
//! `ε_{i−1}-envelope … ε_i-envelope`, which the paper decomposes into O(m)
//! trapezoids and then triangles for simplex range search.
//!
//! We produce a *covering* set of O(m) triangles for the ring: per edge, a
//! band quad on each side between the two offsets; per vertex, the square
//! annulus `square(ε_i) ∖ square(ε_{i−1}/√2)` that covers the circular
//! annulus where the nearest feature is that vertex. Covering (rather than
//! exact) decomposition is safe because the matcher re-checks every reported
//! vertex with the exact distance `ε_{i−1} < dist(v, Q) ≤ ε_i`; see
//! DESIGN.md ("Exactness discipline").

use crate::point::Point;
use crate::polyline::Polyline;
use crate::triangle::Triangle;
use crate::EPS;

/// Build the triangle cover of `{p : inner < dist(p, poly) ≤ outer}`.
///
/// Guarantees: every point of the ring lies in at least one triangle; the
/// number of triangles is at most `12·m` for `m` edges. Panics if
/// `inner < 0`, `outer ≤ inner` or either is non-finite. Writes into a
/// caller-provided buffer (cleared first), so the matcher's iteration loop
/// allocates nothing once the buffer is warm.
pub fn ring_cover_into(poly: &Polyline, inner: f64, outer: f64, triangles: &mut Vec<Triangle>) {
    assert!(inner >= 0.0 && outer.is_finite() && inner.is_finite(), "bad ring radii");
    assert!(outer > inner, "ring must have positive width: {inner}..{outer}");
    triangles.clear();

    // Per-edge side bands.
    for e in poly.edges() {
        let Some(d) = e.dir().normalized() else { continue };
        let n = d.perp();
        for side in [1.0, -1.0] {
            let lo = n * (inner * side);
            let hi = n * (outer * side);
            let quad = [e.a + lo, e.b + lo, e.b + hi, e.a + hi];
            push_quad(triangles, quad);
        }
    }

    // Per-vertex square annuli.
    let inner_half = inner / std::f64::consts::SQRT_2;
    for &v in poly.points() {
        push_square_annulus(triangles, v, inner_half, outer);
    }
}

/// Cover of the full ε-envelope (ring with `inner = 0`), at most `6·m`
/// triangles, into a caller-provided buffer (cleared first).
pub fn envelope_cover_into(poly: &Polyline, eps: f64, triangles: &mut Vec<Triangle>) {
    assert!(eps > 0.0, "envelope width must be positive");
    triangles.clear();
    for e in poly.edges() {
        let Some(d) = e.dir().normalized() else { continue };
        let n = d.perp();
        let quad = [
            e.a + n * eps,
            e.a - n * eps,
            e.b - n * eps,
            e.b + n * eps,
        ];
        push_quad(triangles, quad);
    }
    for &v in poly.points() {
        push_square_annulus(triangles, v, 0.0, eps);
    }
}

fn push_quad(out: &mut Vec<Triangle>, q: [Point; 4]) {
    let t1 = Triangle::new(q[0], q[1], q[2]);
    let t2 = Triangle::new(q[0], q[2], q[3]);
    if t1.area() > EPS {
        out.push(t1);
    }
    if t2.area() > EPS {
        out.push(t2);
    }
}

/// The square annulus `square(v, outer) ∖ square(v, inner_half)` as at most
/// four rectangles (the full square when `inner_half ≤ 0`).
fn push_square_annulus(out: &mut Vec<Triangle>, v: Point, inner_half: f64, outer: f64) {
    let o = outer;
    let i = inner_half.max(0.0);
    if i <= EPS {
        push_quad(
            out,
            [
                Point::new(v.x - o, v.y - o),
                Point::new(v.x + o, v.y - o),
                Point::new(v.x + o, v.y + o),
                Point::new(v.x - o, v.y + o),
            ],
        );
        return;
    }
    // bottom strip: [-o, o] × [-o, -i]
    push_quad(
        out,
        [
            Point::new(v.x - o, v.y - o),
            Point::new(v.x + o, v.y - o),
            Point::new(v.x + o, v.y - i),
            Point::new(v.x - o, v.y - i),
        ],
    );
    // top strip: [-o, o] × [i, o]
    push_quad(
        out,
        [
            Point::new(v.x - o, v.y + i),
            Point::new(v.x + o, v.y + i),
            Point::new(v.x + o, v.y + o),
            Point::new(v.x - o, v.y + o),
        ],
    );
    // left strip: [-o, -i] × [-i, i]
    push_quad(
        out,
        [
            Point::new(v.x - o, v.y - i),
            Point::new(v.x - i, v.y - i),
            Point::new(v.x - i, v.y + i),
            Point::new(v.x - o, v.y + i),
        ],
    );
    // right strip: [i, o] × [-i, i]
    push_quad(
        out,
        [
            Point::new(v.x + i, v.y - i),
            Point::new(v.x + o, v.y - i),
            Point::new(v.x + o, v.y + i),
            Point::new(v.x + i, v.y + i),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn square() -> Polyline {
        Polyline::closed(vec![p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)]).unwrap()
    }

    fn ring_cover(poly: &Polyline, inner: f64, outer: f64) -> Vec<Triangle> {
        let mut triangles = Vec::new();
        ring_cover_into(poly, inner, outer, &mut triangles);
        triangles
    }

    fn envelope_cover(poly: &Polyline, eps: f64) -> Vec<Triangle> {
        let mut triangles = Vec::new();
        envelope_cover_into(poly, eps, &mut triangles);
        triangles
    }

    fn covers(triangles: &[Triangle], q: Point) -> bool {
        triangles.iter().any(|t| t.contains(q))
    }

    #[test]
    fn cover_size_linear_in_edges() {
        let sq = square();
        let rc = ring_cover(&sq, 0.1, 0.2);
        assert!(rc.len() <= 12 * sq.num_edges());
        let ec = envelope_cover(&sq, 0.2);
        assert!(ec.len() <= 6 * sq.num_edges());
    }

    #[test]
    #[should_panic(expected = "positive width")]
    fn inverted_ring_panics() {
        ring_cover(&square(), 0.3, 0.2);
    }

    #[test]
    fn open_polyline_cover() {
        let pl = Polyline::open(vec![p(0.0, 0.0), p(2.0, 0.0), p(2.0, 2.0)]).unwrap();
        let rc = ring_cover(&pl, 0.05, 0.3);
        // point near the free endpoint, in the ring
        let q = p(-0.2, 0.0);
        assert!(covers(&rc, q));
    }

    #[test]
    fn ring_excludes_most_of_deep_interior() {
        // The cover is allowed to over-approximate near the boundary but must
        // not blanket the whole plane: a point far outside both offsets is in
        // no triangle.
        let sq = square();
        let rc = ring_cover(&sq, 0.1, 0.2);
        assert!(!covers(&rc, p(5.0, 5.0)));
        assert!(!covers(&rc, p(0.5, 0.5))); // center: distance 0.5 > outer 0.2
    }

    proptest! {
        /// Soundness of the matcher's filter chain: every ring point is
        /// covered by at least one triangle.
        #[test]
        fn ring_points_always_covered(seed in 0u64..1000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let sq = square();
            let (inner, outer) = (0.12, 0.31);
            let rc = ring_cover(&sq, inner, outer);
            for _ in 0..50 {
                let q = p(rng.random_range(-1.0..2.0), rng.random_range(-1.0..2.0));
                let d = sq.dist_to_point(q);
                if d > inner + 1e-9 && d <= outer - 1e-9 {
                    prop_assert!(covers(&rc, q), "ring point {q} (dist {d}) uncovered");
                }
            }
        }

        #[test]
        fn envelope_cover_covers(seed in 0u64..500) {
            let mut rng = StdRng::seed_from_u64(seed);
            let sq = square();
            let eps = 0.25;
            let ec = envelope_cover(&sq, eps);
            for _ in 0..50 {
                let q = p(rng.random_range(-1.0..2.0), rng.random_range(-1.0..2.0));
                if sq.dist_to_point(q) <= eps - 1e-9 {
                    prop_assert!(covers(&ec, q), "envelope point {q} uncovered");
                }
            }
        }

        #[test]
        fn far_points_never_covered(x in 3.0..10.0f64, y in 3.0..10.0f64) {
            let rc = ring_cover(&square(), 0.1, 0.2);
            prop_assert!(!covers(&rc, p(x, y)));
        }
    }
}
