//! 2D points and vectors with the orientation predicates every other module
//! builds on.

use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::EPS;

/// A point in the Euclidean plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Point {
    pub x: f64,
    pub y: f64,
}

/// A displacement in the Euclidean plane.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    pub x: f64,
    pub y: f64,
}

/// Which side of a directed line a point lies on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Orientation {
    /// Counter-clockwise (left of the directed line).
    Ccw,
    /// Clockwise (right of the directed line).
    Cw,
    /// Within tolerance of the line.
    Collinear,
}

impl Point {
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    #[inline]
    pub fn dist(self, other: Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    #[inline]
    pub fn dist_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Linear interpolation: `t = 0` gives `self`, `t = 1` gives `other`.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(self.x + (other.x - self.x) * t, self.y + (other.y - self.y) * t)
    }

    /// Midpoint of the segment from `self` to `other`.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        self.lerp(other, 0.5)
    }

    #[inline]
    pub fn to_vec(self) -> Vec2 {
        Vec2 { x: self.x, y: self.y }
    }

    /// True when both coordinates differ by at most [`EPS`].
    #[inline]
    pub fn almost_eq(self, other: Point) -> bool {
        (self.x - other.x).abs() <= EPS && (self.y - other.y).abs() <= EPS
    }
}

impl Vec2 {
    pub const ZERO: Vec2 = Vec2 { x: 0.0, y: 0.0 };

    #[inline]
    pub fn new(x: f64, y: f64) -> Self {
        Vec2 { x, y }
    }

    #[inline]
    pub fn dot(self, other: Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// The z-component of the 3D cross product; positive when `other` is
    /// counter-clockwise of `self`.
    #[inline]
    pub fn cross(self, other: Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Unit vector in the same direction, or `None` for a (near-)zero vector.
    pub fn normalized(self) -> Option<Vec2> {
        let n = self.norm();
        if n <= EPS {
            None
        } else {
            Some(self / n)
        }
    }

    /// Counter-clockwise perpendicular (rotation by +90°).
    #[inline]
    pub fn perp(self) -> Vec2 {
        Vec2::new(-self.y, self.x)
    }

    /// Angle of the vector in `(-π, π]`.
    #[inline]
    pub fn angle(self) -> f64 {
        self.y.atan2(self.x)
    }

    /// Signed angle from `self` to `other`, in `(-π, π]`.
    pub fn angle_to(self, other: Vec2) -> f64 {
        self.cross(other).atan2(self.dot(other))
    }
}

/// Orientation of the ordered triple `(a, b, c)`.
///
/// Uses a tolerance scaled by the magnitudes involved so that collinearity of
/// transformed coordinates is detected reliably.
pub fn orient(a: Point, b: Point, c: Point) -> Orientation {
    let v = cross3(a, b, c);
    // Scale-aware tolerance: the cross product of values of magnitude M has
    // roundoff proportional to M².
    let m = a.x.abs().max(a.y.abs()).max(b.x.abs()).max(b.y.abs()).max(c.x.abs()).max(c.y.abs());
    let tol = EPS * (1.0 + m * m);
    if v > tol {
        Orientation::Ccw
    } else if v < -tol {
        Orientation::Cw
    } else {
        Orientation::Collinear
    }
}

/// Twice the signed area of triangle `(a, b, c)`; positive when CCW.
#[inline]
pub fn cross3(a: Point, b: Point, c: Point) -> f64 {
    (b - a).cross(c - a)
}

impl Sub for Point {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Point) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Vec2) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub<Vec2> for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Vec2) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Add for Vec2 {
    type Output = Vec2;
    #[inline]
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Vec2 {
    type Output = Vec2;
    #[inline]
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Vec2 {
    type Output = Vec2;
    #[inline]
    fn div(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Vec2 {
    type Output = Vec2;
    #[inline]
    fn neg(self) -> Vec2 {
        Vec2::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.x, self.y)
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
    fn distances() {
        assert_eq!(p(0.0, 0.0).dist(p(3.0, 4.0)), 5.0);
        assert_eq!(p(1.0, 1.0).dist_sq(p(4.0, 5.0)), 25.0);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let a = p(1.0, 2.0);
        let b = p(5.0, -6.0);
        assert!(a.lerp(b, 0.0).almost_eq(a));
        assert!(a.lerp(b, 1.0).almost_eq(b));
        assert!(a.midpoint(b).almost_eq(p(3.0, -2.0)));
    }

    #[test]
    fn orientation_basic() {
        assert_eq!(orient(p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)), Orientation::Ccw);
        assert_eq!(orient(p(0.0, 0.0), p(0.0, 1.0), p(1.0, 0.0)), Orientation::Cw);
        assert_eq!(orient(p(0.0, 0.0), p(1.0, 1.0), p(2.0, 2.0)), Orientation::Collinear);
    }

    #[test]
    fn cross_and_dot() {
        let e1 = Vec2::new(1.0, 0.0);
        let e2 = Vec2::new(0.0, 1.0);
        assert_eq!(e1.cross(e2), 1.0);
        assert_eq!(e2.cross(e1), -1.0);
        assert_eq!(e1.dot(e2), 0.0);
    }

    #[test]
    fn perp_is_ccw_quarter_turn() {
        let v = Vec2::new(3.0, 1.0);
        let w = v.perp();
        assert!(v.dot(w).abs() < 1e-12);
        assert!(v.cross(w) > 0.0);
    }

    #[test]
    fn angle_to_signs() {
        let e1 = Vec2::new(1.0, 0.0);
        assert!((e1.angle_to(Vec2::new(0.0, 1.0)) - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
        assert!((e1.angle_to(Vec2::new(0.0, -1.0)) + std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Vec2::ZERO.normalized().is_none());
        let u = Vec2::new(0.0, 2.0).normalized().unwrap();
        assert!((u.norm() - 1.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn orientation_antisymmetry(ax in -100.0..100.0f64, ay in -100.0..100.0f64,
                                    bx in -100.0..100.0f64, by in -100.0..100.0f64,
                                    cx in -100.0..100.0f64, cy in -100.0..100.0f64) {
            let (a, b, c) = (p(ax, ay), p(bx, by), p(cx, cy));
            let o1 = orient(a, b, c);
            let o2 = orient(a, c, b);
            match o1 {
                Orientation::Ccw => prop_assert_eq!(o2, Orientation::Cw),
                Orientation::Cw => prop_assert_eq!(o2, Orientation::Ccw),
                Orientation::Collinear => prop_assert_eq!(o2, Orientation::Collinear),
            }
        }

        #[test]
        fn lerp_stays_on_segment(t in 0.0..1.0f64) {
            let a = p(-2.0, 5.0);
            let b = p(7.0, -1.0);
            let m = a.lerp(b, t);
            prop_assert!((a.dist(m) + m.dist(b) - a.dist(b)).abs() < 1e-9);
        }
    }
}
