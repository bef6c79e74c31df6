//! Axis-aligned bounding boxes.

use crate::point::Point;

/// A closed axis-aligned rectangle. An empty box has `min > max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    pub min: Point,
    pub max: Point,
}

impl Aabb {
    /// The empty box (absorbing element of [`Aabb::union`]).
    pub const EMPTY: Aabb = Aabb {
        min: Point { x: f64::INFINITY, y: f64::INFINITY },
        max: Point { x: f64::NEG_INFINITY, y: f64::NEG_INFINITY },
    };

    pub fn new(min: Point, max: Point) -> Self {
        Aabb { min, max }
    }

    /// Smallest box containing all `points`; [`Aabb::EMPTY`] for none.
    pub fn of_points<I: IntoIterator<Item = Point>>(points: I) -> Self {
        let mut b = Aabb::EMPTY;
        for p in points {
            b.expand(p);
        }
        b
    }

    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    fn expand(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: Point::new(self.min.x.min(other.min.x), self.min.y.min(other.min.y)),
            max: Point::new(self.max.x.max(other.max.x), self.max.y.max(other.max.y)),
        }
    }

    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }

    pub fn intersects(&self, other: &Aabb) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Grow the box by `r` on every side.
    pub fn inflated(&self, r: f64) -> Aabb {
        Aabb {
            min: Point::new(self.min.x - r, self.min.y - r),
            max: Point::new(self.max.x + r, self.max.y + r),
        }
    }

    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Squared distance from `p` to the box (0 when inside).
    pub fn dist_sq(&self, p: Point) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        dx * dx + dy * dy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_behaves() {
        assert!(Aabb::EMPTY.is_empty());
        assert!(!Aabb::EMPTY.contains(Point::ORIGIN));
        let b = Aabb::of_points([Point::new(1.0, 2.0)]);
        assert!(!b.is_empty());
        assert_eq!(Aabb::EMPTY.union(&b), b);
    }

    #[test]
    fn contains_and_intersects() {
        let b = Aabb::of_points([Point::new(0.0, 0.0), Point::new(2.0, 1.0)]);
        assert!(b.contains(Point::new(1.0, 0.5)));
        assert!(b.contains(Point::new(0.0, 0.0))); // boundary
        assert!(!b.contains(Point::new(3.0, 0.5)));
        let c = Aabb::of_points([Point::new(2.0, 1.0), Point::new(5.0, 5.0)]);
        assert!(b.intersects(&c)); // corner touch
        let d = Aabb::of_points([Point::new(2.1, 1.1), Point::new(5.0, 5.0)]);
        assert!(!b.intersects(&d));
    }

    #[test]
    fn dist_sq_inside_is_zero() {
        let b = Aabb::of_points([Point::new(0.0, 0.0), Point::new(2.0, 2.0)]);
        assert_eq!(b.dist_sq(Point::new(1.0, 1.0)), 0.0);
        assert_eq!(b.dist_sq(Point::new(3.0, 1.0)), 1.0);
        assert_eq!(b.dist_sq(Point::new(3.0, 3.0)), 2.0);
    }

    proptest! {
        #[test]
        fn union_contains_both(ax in -10.0..10.0f64, ay in -10.0..10.0f64,
                               bx in -10.0..10.0f64, by in -10.0..10.0f64,
                               cx in -10.0..10.0f64, cy in -10.0..10.0f64) {
            let b1 = Aabb::of_points([Point::new(ax, ay), Point::new(bx, by)]);
            let b2 = Aabb::of_points([Point::new(cx, cy)]);
            let u = b1.union(&b2);
            prop_assert!(u.contains(Point::new(ax, ay)));
            prop_assert!(u.contains(Point::new(bx, by)));
            prop_assert!(u.contains(Point::new(cx, cy)));
        }

        #[test]
        fn inflate_then_contains(px in -10.0..10.0f64, py in -10.0..10.0f64, r in 0.0..5.0f64) {
            let b = Aabb::of_points([Point::new(0.0, 0.0), Point::new(1.0, 1.0)]);
            let p = Point::new(px, py);
            if b.dist_sq(p) <= r * r {
                prop_assert!(b.inflated(r + 1e-12).contains(p));
            }
        }
    }
}
