//! Direct similarity transforms (translation ∘ rotation ∘ uniform scale).
//!
//! Normalization about a diameter (§2.4) is exactly the similarity that maps
//! the diameter endpoints to (0,0) and (1,0); its inverse is kept with every
//! shape-base record so topological operators can recover the original pose
//! (§5.3 computes the angle between shapes from the inverse transforms).

use crate::point::{Point, Vec2};
use crate::polyline::Polyline;
use crate::EPS;

/// A direct (orientation-preserving) similarity `p ↦ s·R(θ)·p + t`,
/// stored as the complex-multiplication form
/// `x' = a·x − b·y + tx`, `y' = b·x + a·y + ty` with `(a, b) = s·(cosθ, sinθ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Similarity {
    pub a: f64,
    pub b: f64,
    pub tx: f64,
    pub ty: f64,
}

impl Similarity {
    /// Build from scale, rotation angle and translation.
    pub fn from_parts(scale: f64, theta: f64, t: Vec2) -> Self {
        let (s, c) = theta.sin_cos();
        Similarity { a: scale * c, b: scale * s, tx: t.x, ty: t.y }
    }

    /// The unique direct similarity mapping `src0 ↦ dst0` and `src1 ↦ dst1`.
    /// Returns `None` when `src0` and `src1` (nearly) coincide.
    fn mapping(src0: Point, src1: Point, dst0: Point, dst1: Point) -> Option<Self> {
        let u = src1 - src0;
        let v = dst1 - dst0;
        let d = u.norm_sq();
        if d <= EPS * EPS {
            return None;
        }
        // (a, b) solves (a + ib)(ux + i uy) = (vx + i vy)
        let a = (u.x * v.x + u.y * v.y) / d;
        let b = (u.x * v.y - u.y * v.x) / d;
        let tx = dst0.x - (a * src0.x - b * src0.y);
        let ty = dst0.y - (b * src0.x + a * src0.y);
        Some(Similarity { a, b, tx, ty })
    }

    /// The normalization of §2.4: map the ordered pair `(p, q)` to
    /// `((0,0), (1,0))`.
    pub fn normalizing(p: Point, q: Point) -> Option<Self> {
        Self::mapping(p, q, Point::ORIGIN, Point::new(1.0, 0.0))
    }

    #[inline]
    pub fn apply(&self, p: Point) -> Point {
        Point::new(self.a * p.x - self.b * p.y + self.tx, self.b * p.x + self.a * p.y + self.ty)
    }

    pub fn apply_polyline(&self, pl: &Polyline) -> Polyline {
        pl.map_points(|p| self.apply(p))
    }

    /// The uniform scale factor.
    pub fn scale(&self) -> f64 {
        (self.a * self.a + self.b * self.b).sqrt()
    }

    /// Composition: `(self ∘ other)(p) = self(other(p))`.
    pub fn compose(&self, other: &Similarity) -> Similarity {
        Similarity {
            a: self.a * other.a - self.b * other.b,
            b: self.b * other.a + self.a * other.b,
            tx: self.a * other.tx - self.b * other.ty + self.tx,
            ty: self.b * other.tx + self.a * other.ty + self.ty,
        }
    }

    /// Inverse transform; `None` for (near-)zero scale.
    pub fn inverse(&self) -> Option<Similarity> {
        let d = self.a * self.a + self.b * self.b;
        if d <= EPS * EPS {
            return None;
        }
        let ia = self.a / d;
        let ib = -self.b / d;
        Some(Similarity {
            a: ia,
            b: ib,
            tx: -(ia * self.tx - ib * self.ty),
            ty: -(ib * self.tx + ia * self.ty),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn normalizing_maps_pair_to_unit() {
        let t = Similarity::normalizing(p(2.0, 3.0), p(5.0, 7.0)).unwrap();
        assert!(t.apply(p(2.0, 3.0)).almost_eq(Point::ORIGIN));
        assert!(t.apply(p(5.0, 7.0)).almost_eq(p(1.0, 0.0)));
        assert!((t.scale() - 1.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn normalizing_coincident_fails() {
        assert!(Similarity::normalizing(p(1.0, 1.0), p(1.0, 1.0)).is_none());
    }

    #[test]
    fn parts_round_trip() {
        let t = Similarity::from_parts(2.0, 0.7, Vec2::new(3.0, -1.0));
        assert!((t.scale() - 2.0).abs() < 1e-12);
        assert!((t.b.atan2(t.a) - 0.7).abs() < 1e-12);
        assert!((t.tx - 3.0).abs() < 1e-12);
    }

    #[test]
    fn compose_order() {
        let rot = Similarity::from_parts(1.0, std::f64::consts::FRAC_PI_2, Vec2::ZERO);
        let shift = Similarity::from_parts(1.0, 0.0, Vec2::new(1.0, 0.0));
        // shift then rotate: (1,0) -> (2,0) -> (0,2)
        let q = rot.compose(&shift).apply(p(1.0, 0.0));
        assert!(q.almost_eq(p(0.0, 2.0)));
        // rotate then shift: (1,0) -> (0,1) -> (1,1)
        let q = shift.compose(&rot).apply(p(1.0, 0.0));
        assert!(q.almost_eq(p(1.0, 1.0)));
    }

    proptest! {
        #[test]
        fn inverse_round_trips(scale in 0.1..10.0f64, theta in -3.0..3.0f64,
                               tx in -10.0..10.0f64, ty in -10.0..10.0f64,
                               px in -10.0..10.0f64, py in -10.0..10.0f64) {
            let t = Similarity::from_parts(scale, theta, Vec2::new(tx, ty));
            let inv = t.inverse().unwrap();
            let q = inv.apply(t.apply(p(px, py)));
            prop_assert!((q.x - px).abs() < 1e-7 && (q.y - py).abs() < 1e-7);
            // compose with inverse ≈ identity
            let id = t.compose(&inv);
            prop_assert!((id.a - 1.0).abs() < 1e-9 && id.b.abs() < 1e-9);
        }

        #[test]
        fn similarity_preserves_ratios(scale in 0.1..10.0f64, theta in -3.0..3.0f64,
                                       ax in -5.0..5.0f64, ay in -5.0..5.0f64,
                                       bx in -5.0..5.0f64, by in -5.0..5.0f64) {
            let t = Similarity::from_parts(scale, theta, Vec2::new(1.0, 2.0));
            let (a, b) = (p(ax, ay), p(bx, by));
            let d_before = a.dist(b);
            let d_after = t.apply(a).dist(t.apply(b));
            prop_assert!((d_after - scale * d_before).abs() < 1e-7);
        }

        #[test]
        fn mapping_hits_both_anchors(ax in -5.0..5.0f64, ay in -5.0..5.0f64,
                                     bx in -5.0..5.0f64, by in -5.0..5.0f64) {
            prop_assume!(Point::new(ax, ay).dist(Point::new(bx, by)) > 0.1);
            let t = Similarity::mapping(p(ax, ay), p(bx, by), p(1.0, 2.0), p(-3.0, 4.0)).unwrap();
            prop_assert!(t.apply(p(ax, ay)).dist(p(1.0, 2.0)) < 1e-9);
            prop_assert!(t.apply(p(bx, by)).dist(p(-3.0, 4.0)) < 1e-9);
        }
    }
}
