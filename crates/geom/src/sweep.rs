//! Batch segment intersection by sweep-and-prune.
//!
//! The §6 front end feeds arbitrary traced polylines into simplicity
//! checks, which need all intersecting segment pairs. The brute-force
//! `O(e²)` scan is right for ~20-edge shapes, but traced boundaries
//! before simplification carry hundreds of edges. This sweep sorts endpoints by x and tests only pairs whose
//! x-intervals overlap (pruned further by y-interval), giving
//! `O(n log n + c)` where `c` counts x-overlapping candidate pairs —
//! output-sensitive on everything the pipeline produces.

use crate::bbox::Aabb;
use crate::segment::Segment;

/// All unordered index pairs `(i, j)`, `i < j`, whose segments intersect
/// (touching endpoints count, matching [`Segment::intersects`]).
fn intersecting_pairs(segs: &[Segment]) -> Vec<(u32, u32)> {
    let n = segs.len();
    let boxes: Vec<Aabb> = segs.iter().map(Segment::bbox).collect();
    // events: (x, is_end, index) — starts before ends at equal x so that
    // touching x-intervals still pair up
    let mut events: Vec<(f64, bool, u32)> = Vec::with_capacity(2 * n);
    for (i, b) in boxes.iter().enumerate() {
        events.push((b.min.x, false, i as u32));
        events.push((b.max.x, true, i as u32));
    }
    events.sort_by(|a, b| {
        a.0.partial_cmp(&b.0).unwrap().then_with(|| a.1.cmp(&b.1))
    });

    let mut active: Vec<u32> = Vec::new();
    let mut out = Vec::new();
    for (_, is_end, idx) in events {
        if is_end {
            if let Some(pos) = active.iter().position(|&a| a == idx) {
                active.swap_remove(pos);
            }
            continue;
        }
        let bi = &boxes[idx as usize];
        for &j in &active {
            let bj = &boxes[j as usize];
            if bi.min.y <= bj.max.y
                && bj.min.y <= bi.max.y
                && segs[idx as usize].intersects(&segs[j as usize])
            {
                out.push((idx.min(j), idx.max(j)));
            }
        }
        active.push(idx);
    }
    out.sort_unstable();
    out
}

/// Fast simplicity test for a polyline's edge set: intersecting pairs are
/// computed by sweep, then the chain-adjacency exceptions of
/// [`crate::polyline::Polyline::is_simple`] are applied.
pub fn is_simple_chain(poly: &crate::polyline::Polyline) -> bool {
    let segs: Vec<Segment> = poly.edges().collect();
    let e = segs.len();
    let closed = poly.is_closed();
    for (i, j) in intersecting_pairs(&segs) {
        let (i, j) = (i as usize, j as usize);
        let adjacent = j == i + 1 || (closed && i == 0 && j == e - 1);
        if !adjacent {
            return false;
        }
        // adjacent edges may only share their single common endpoint
        let (si, sj) = (segs[i], segs[j]);
        if si.crosses_properly(&sj) {
            return false;
        }
        let shared = if j == i + 1 { si.b } else { si.a };
        let other_i = if j == i + 1 { si.a } else { si.b };
        let other_j = if j == i + 1 { sj.b } else { sj.a };
        if sj.contains_point(other_i) && !other_i.almost_eq(shared)
            || si.contains_point(other_j) && !other_j.almost_eq(shared)
        {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Point;
    use crate::polyline::Polyline;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn brute(segs: &[Segment]) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        for i in 0..segs.len() {
            for j in (i + 1)..segs.len() {
                if segs[i].intersects(&segs[j]) {
                    out.push((i as u32, j as u32));
                }
            }
        }
        out
    }

    #[test]
    fn matches_brute_force_on_random_segments() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..30 {
            let n = rng.random_range(2usize..60);
            let segs: Vec<Segment> = (0..n)
                .map(|_| {
                    Segment::new(
                        p(rng.random_range(0.0..10.0), rng.random_range(0.0..10.0)),
                        p(rng.random_range(0.0..10.0), rng.random_range(0.0..10.0)),
                    )
                })
                .collect();
            assert_eq!(intersecting_pairs(&segs), brute(&segs));
        }
    }

    #[test]
    fn sparse_grid_has_no_pairs() {
        // disjoint short horizontal dashes
        let segs: Vec<Segment> = (0..50)
            .map(|i| {
                let y = i as f64;
                Segment::new(p(0.0, y), p(1.0, y))
            })
            .collect();
        assert!(intersecting_pairs(&segs).is_empty());
    }

    #[test]
    fn shared_endpoints_reported() {
        let segs = vec![
            Segment::new(p(0.0, 0.0), p(1.0, 0.0)),
            Segment::new(p(1.0, 0.0), p(2.0, 1.0)),
            Segment::new(p(5.0, 5.0), p(6.0, 6.0)),
        ];
        assert_eq!(intersecting_pairs(&segs), vec![(0, 1)]);
    }

    #[test]
    fn simple_chain_agrees_with_polyline_is_simple() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..60 {
            let n = rng.random_range(3usize..14);
            let pts: Vec<Point> = (0..n)
                .map(|_| p(rng.random_range(0.0..8.0), rng.random_range(0.0..8.0)))
                .collect();
            let Ok(poly) = Polyline::closed(pts) else { continue };
            assert_eq!(
                is_simple_chain(&poly),
                poly.is_simple(),
                "disagreement on {poly:?}"
            );
        }
    }

    #[test]
    fn large_traced_boundary_is_fast_and_simple() {
        // a 2,000-vertex circle approximation — the kind of chain the
        // tracer emits before Douglas–Peucker
        let pts: Vec<Point> = (0..2000)
            .map(|i| {
                let t = 2.0 * std::f64::consts::PI * i as f64 / 2000.0;
                p(t.cos(), t.sin())
            })
            .collect();
        let poly = Polyline::closed(pts).unwrap();
        assert!(is_simple_chain(&poly));
    }

    proptest! {
        #[test]
        fn agreement_property(seed in 0u64..150) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(2usize..30);
            // mix of long and short segments, clustered coordinates for ties
            let segs: Vec<Segment> = (0..n)
                .map(|_| {
                    let x = (rng.random_range(0..12) as f64) / 2.0;
                    let y = (rng.random_range(0..12) as f64) / 2.0;
                    Segment::new(
                        p(x, y),
                        p(x + rng.random_range(-3.0..3.0), y + rng.random_range(-3.0..3.0)),
                    )
                })
                .collect();
            prop_assert_eq!(intersecting_pairs(&segs), brute(&segs));
        }
    }
}
