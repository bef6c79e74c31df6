//! Pairwise shape topology: the `contain` / `overlap` / `disjoint`
//! predicates of §5, evaluated on shape boundaries.
//!
//! Following the paper's image graphs: an edge `v₁ →_contain v₂` means the
//! boundary of v₂ lies strictly inside the region bounded by v₁; `overlap`
//! means the boundaries cross; shapes whose boundaries neither touch nor
//! nest are `disjoint`.

use crate::polyline::Polyline;

/// Topological relation between an ordered pair of shapes `(a, b)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `a` contains `b` (requires `a` closed).
    Contains,
    /// `b` contains `a` (requires `b` closed).
    ContainedBy,
    /// The boundaries intersect.
    Overlap,
    /// Neither intersecting nor nested.
    Disjoint,
}

/// Do any two edges of the shapes intersect? `O(e_a · e_b)` — shapes carry
/// ~20 vertices in the corpus, so the quadratic scan is the fast path.
fn boundaries_intersect(a: &Polyline, b: &Polyline) -> bool {
    // Cheap reject: disjoint bounding boxes cannot intersect.
    if !a.bbox().intersects(&b.bbox()) {
        return false;
    }
    a.edges().any(|ea| b.edges().any(|eb| ea.intersects(&eb)))
}

/// The topological relation between `a` and `b`.
pub fn relation(a: &Polyline, b: &Polyline) -> Relation {
    if boundaries_intersect(a, b) {
        return Relation::Overlap;
    }
    if a.is_closed() && a.contains_point(b.points()[0]) {
        return Relation::Contains;
    }
    if b.is_closed() && b.contains_point(a.points()[0]) {
        return Relation::ContainedBy;
    }
    Relation::Disjoint
}

impl Relation {
    /// The relation seen from the swapped pair `(b, a)`.
    pub fn flipped(self) -> Relation {
        match self {
            Relation::Contains => Relation::ContainedBy,
            Relation::ContainedBy => Relation::Contains,
            other => other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use proptest::prelude::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn square(cx: f64, cy: f64, half: f64) -> Polyline {
        Polyline::closed(vec![
            p(cx - half, cy - half),
            p(cx + half, cy - half),
            p(cx + half, cy + half),
            p(cx - half, cy + half),
        ])
        .unwrap()
    }

    #[test]
    fn nested_squares_contain() {
        let outer = square(0.0, 0.0, 2.0);
        let inner = square(0.0, 0.0, 0.5);
        assert_eq!(relation(&outer, &inner), Relation::Contains);
        assert_eq!(relation(&inner, &outer), Relation::ContainedBy);
    }

    #[test]
    fn crossing_squares_overlap() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(1.0, 1.0, 1.0);
        assert_eq!(relation(&a, &b), Relation::Overlap);
        assert_eq!(relation(&b, &a), Relation::Overlap);
    }

    #[test]
    fn far_squares_disjoint() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(10.0, 0.0, 1.0);
        assert_eq!(relation(&a, &b), Relation::Disjoint);
    }

    #[test]
    fn touching_boundaries_overlap() {
        let a = square(0.0, 0.0, 1.0);
        let b = square(2.0, 0.0, 1.0); // shares the edge x = 1
        assert_eq!(relation(&a, &b), Relation::Overlap);
    }

    #[test]
    fn open_polyline_inside_closed() {
        let outer = square(0.0, 0.0, 2.0);
        let pl = Polyline::open(vec![p(-0.5, 0.0), p(0.5, 0.3)]).unwrap();
        assert_eq!(relation(&outer, &pl), Relation::Contains);
        assert_eq!(relation(&pl, &outer), Relation::ContainedBy);
    }

    #[test]
    fn two_open_polylines() {
        let a = Polyline::open(vec![p(0.0, 0.0), p(1.0, 0.0)]).unwrap();
        let b = Polyline::open(vec![p(0.5, -1.0), p(0.5, 1.0)]).unwrap();
        assert_eq!(relation(&a, &b), Relation::Overlap);
        let c = Polyline::open(vec![p(0.0, 5.0), p(1.0, 5.0)]).unwrap();
        assert_eq!(relation(&a, &c), Relation::Disjoint);
    }

    proptest! {
        #[test]
        fn relation_flip_consistency(dx in -3.0..3.0f64, dy in -3.0..3.0f64, h in 0.1..2.0f64) {
            let a = square(0.0, 0.0, 1.0);
            let b = square(dx, dy, h);
            prop_assert_eq!(relation(&a, &b), relation(&b, &a).flipped());
        }

        #[test]
        fn strictly_nested_is_contains(h in 0.05..0.9f64) {
            let outer = square(0.0, 0.0, 1.0);
            let inner = square(0.0, 0.0, h * 0.9);
            prop_assert_eq!(relation(&outer, &inner), Relation::Contains);
        }
    }
}
