//! Shape normalization about α-diameters (§2.3–2.4).
//!
//! A shape enters the shape base once per (α-diameter, orientation): the
//! similarity transform mapping the pair of extremal vertices onto
//! ((0,0), (1,0)) is applied, and the *inverse* transform is stored with the
//! copy so the original pose can be recovered (§5.3 needs it to compute the
//! angle between shape diameters).
//!
//! After normalization, every vertex that came from inside the shape's
//! diameter disk lies in the *lune* — the intersection of the unit disks
//! centered at (0,0) and (1,0). Vertices of copies normalized about a
//! shorter α-diameter can fall slightly outside; §3 treats those as lying
//! on the lune's boundary.

use geosir_geom::diameter::{alpha_diameters, VertexPair};
use geosir_geom::{Point, Polyline, Similarity};

/// One normalized copy of a shape.
#[derive(Debug, Clone)]
pub struct NormalizedCopy {
    /// The normalized geometry (α-diameter endpoints at (0,0) and (1,0)).
    pub shape: Polyline,
    /// Maps normalized coordinates back to the original pose.
    pub inverse: Similarity,
    /// Which α-diameter produced this copy.
    pub pair: VertexPair,
    /// `false` for (i → origin), `true` for the swapped orientation.
    pub swapped: bool,
}

/// Area of the lune: `2π/3 − √3/2` (intersection of two unit disks whose
/// centers are distance 1 apart). This is the `A` of the matcher's
/// ε-cap in §2.5 ("area of the locus of the normalized shapes").
pub const LUNE_AREA: f64 = 2.0 * std::f64::consts::FRAC_PI_3 - 0.866_025_403_784_438_6;

/// All normalized copies of `shape` for tolerance parameter `alpha`
/// (`0 ≤ α < 1`): two orientations per α-diameter, longest diameters first.
///
/// Returns an empty vector only for degenerate geometry (all vertices
/// coincident), which valid [`Polyline`]s cannot produce.
pub fn normalized_copies(shape: &Polyline, alpha: f64) -> Vec<NormalizedCopy> {
    normalizations(shape.points(), alpha)
        .map(|(fwd, inverse, pair, swapped)| {
            NormalizedCopy { shape: fwd.apply_polyline(shape), inverse, pair, swapped }
        })
        .collect()
}

/// The transforms behind [`normalized_copies`], in its order: each maps
/// one orientation of one α-diameter of `pts` onto ((0,0), (1,0)), with
/// its inverse — for a store that lays the mapped vertices out itself.
pub(crate) fn normalizations(
    pts: &[Point],
    alpha: f64,
) -> impl Iterator<Item = (Similarity, Similarity, VertexPair, bool)> + '_ {
    alpha_diameters(pts, alpha).into_iter().flat_map(move |pair| {
        [false, true].into_iter().filter_map(move |swapped| {
            let (src0, src1) =
                if swapped { (pts[pair.j], pts[pair.i]) } else { (pts[pair.i], pts[pair.j]) };
            let fwd = Similarity::normalizing(src0, src1)?;
            Some((fwd, fwd.inverse()?, pair, swapped))
        })
    })
}

/// Normalize about the diameter only (both orientations) — `α = 0` without
/// the tie set: exactly the first two copies of [`normalized_copies`].
pub fn normalize_about_diameter(shape: &Polyline) -> Option<(NormalizedCopy, NormalizedCopy)> {
    let mut copies = normalized_copies(shape, 0.0).into_iter();
    match (copies.next(), copies.next()) {
        (Some(a), Some(b)) => Some((a, b)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn random_simple_polygon(rng: &mut StdRng, n: usize) -> Polyline {
        // star-shaped construction: always simple
        let mut pts = Vec::with_capacity(n);
        for i in 0..n {
            let theta = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            let r = rng.random_range(0.4..1.0);
            pts.push(p(r * theta.cos() + 3.0, r * theta.sin() - 1.0));
        }
        Polyline::closed(pts).unwrap()
    }

    #[test]
    fn lune_area_value() {
        // cross-check against the circle-intersection formula
        let expected = 2.0 * (0.5f64).acos() - 0.5 * (4.0f64 - 1.0).sqrt();
        assert!((LUNE_AREA - expected).abs() < 1e-12);
        assert!((LUNE_AREA - 1.228369698608757).abs() < 1e-12);
    }

    #[test]
    fn diameter_lands_on_unit_segment() {
        let tri = Polyline::closed(vec![p(0.0, 0.0), p(10.0, 2.0), p(3.0, 5.0)]).unwrap();
        let (c0, c1) = normalize_about_diameter(&tri).unwrap();
        for c in [&c0, &c1] {
            let pts = c.shape.points();
            // some vertex at origin, some at (1, 0)
            assert!(pts.iter().any(|q| q.dist(Point::ORIGIN) < 1e-9));
            assert!(pts.iter().any(|q| q.dist(p(1.0, 0.0)) < 1e-9));
        }
        assert_ne!(c0.swapped, c1.swapped);
    }

    #[test]
    fn inverse_recovers_original() {
        let tri = Polyline::closed(vec![p(0.0, 0.0), p(10.0, 2.0), p(3.0, 5.0)]).unwrap();
        for c in normalized_copies(&tri, 0.3) {
            let back = c.inverse.apply_polyline(&c.shape);
            for (a, b) in back.points().iter().zip(tri.points()) {
                assert!(a.dist(*b) < 1e-7);
            }
        }
    }

    #[test]
    fn copy_count_is_twice_pairs() {
        let sq = Polyline::closed(vec![p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)]).unwrap();
        // α = 0: the two diagonals tie → 2 pairs × 2 orientations = 4
        assert_eq!(normalized_copies(&sq, 0.0).len(), 4);
        // α = 0.3: all 6 pairs qualify → 12 copies
        assert_eq!(normalized_copies(&sq, 0.3).len(), 12);
    }

    #[test]
    fn diameter_vertices_in_lune() {
        // Copies normalized about the true diameter have ALL vertices in
        // the lune (any vertex is within diameter distance of both
        // endpoints).
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let n = rng.random_range(4..15);
            let poly = random_simple_polygon(&mut rng, n);
            let (c, _) = normalize_about_diameter(&poly).unwrap();
            for q in c.shape.points() {
                assert!(q.dist(Point::ORIGIN) <= 1.0 + 1e-9, "{q} outside circle 0");
                assert!(q.dist(p(1.0, 0.0)) <= 1.0 + 1e-9, "{q} outside circle 1");
            }
        }
    }

    proptest! {
        /// Normalization is canonical: any similarity-transformed version of
        /// a shape yields the same normalized geometry (up to the pair
        /// chosen; we use the top diameter).
        #[test]
        fn normalization_mod_similarity(s in 0.2..5.0f64, th in -3.0..3.0f64,
                                        tx in -10.0..10.0f64, ty in -10.0..10.0f64) {
            let tri = Polyline::closed(vec![p(0.0, 0.0), p(10.0, 2.0), p(3.0, 5.0)]).unwrap();
            let t = geosir_geom::Similarity::from_parts(s, th, geosir_geom::Vec2::new(tx, ty));
            let moved = t.apply_polyline(&tri);
            let (c_orig, _) = normalize_about_diameter(&tri).unwrap();
            let (c_moved, _) = normalize_about_diameter(&moved).unwrap();
            for (a, b) in c_orig.shape.points().iter().zip(c_moved.shape.points()) {
                prop_assert!(a.dist(*b) < 1e-6, "{} vs {}", a, b);
            }
        }

        /// α-diameter copies place their defining pair on the unit segment.
        #[test]
        fn all_copies_anchor_correctly(seed in 0u64..100, alpha in 0.0..0.5f64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let poly = random_simple_polygon(&mut rng, 8);
            for c in normalized_copies(&poly, alpha) {
                let pts = c.shape.points();
                let (i, j) = if c.swapped { (c.pair.j, c.pair.i) } else { (c.pair.i, c.pair.j) };
                prop_assert!(pts[i].dist(Point::ORIGIN) < 1e-9);
                prop_assert!(pts[j].dist(p(1.0, 0.0)) < 1e-9);
            }
        }
    }
}
