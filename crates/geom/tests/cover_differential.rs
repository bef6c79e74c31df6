//! Differential test of the range tree on the covers the matcher really
//! issues: for seeded shapes, the `envelope_cover_into` /
//! `ring_cover_into` triangles of a geometric ε schedule must select the
//! same pool vertices from the range tree and the brute-force oracle — as
//! sets, with no duplicates — for the whole-cover union, each ring's union
//! and every single triangle; then the same on pools and triangles built
//! to sit on the predicates' boundaries.

use geosir_geom::envelope::{envelope_cover_into, ring_cover_into};
use geosir_geom::rangesearch::{BruteForceIndex, IndexScratch, RangeTreeIndex, SimplexIndex};
use geosir_geom::{Point, Polyline, Triangle};
use rand::prelude::*;
use rand::rngs::StdRng;

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

/// A star-shaped simple polygon around a random centre.
fn star(rng: &mut StdRng, vertices: usize) -> Polyline {
    let c = p(rng.random_range(0.2..0.8), rng.random_range(-0.3..0.3));
    let pts = (0..vertices)
        .map(|k| {
            let a = std::f64::consts::TAU * (k as f64 + rng.random_range(0.0..0.8)) / vertices as f64;
            let r = rng.random_range(0.08..0.3);
            p(c.x + r * a.cos(), c.y + r * a.sin())
        })
        .collect();
    Polyline::closed(pts).expect("star polygon")
}

/// The covers of `query` over a geometric ε schedule, ring by ring.
fn covers(query: &Polyline, eps0: f64, growth: f64, rings: usize) -> Vec<Vec<Triangle>> {
    let mut out = Vec::new();
    let mut buf = Vec::new();
    let (mut prev, mut eps) = (0.0, eps0);
    for _ in 0..rings {
        if prev == 0.0 {
            envelope_cover_into(query, eps, &mut buf);
        } else {
            ring_cover_into(query, prev, eps, &mut buf);
        }
        out.push(buf.clone());
        prev = eps;
        eps *= growth;
    }
    out
}

struct Backends {
    rt: RangeTreeIndex,
    bf: BruteForceIndex,
    /// Reused across calls, as the matcher does: stale constants of an
    /// earlier, longer cover must not leak into a later one.
    scratch: IndexScratch,
}

impl Backends {
    fn build(pool: &[Point]) -> Backends {
        Backends {
            rt: RangeTreeIndex::build(pool),
            bf: BruteForceIndex::build(pool),
            scratch: IndexScratch::default(),
        }
    }

    /// `report_union` of `tris` agrees with brute force and holds no
    /// duplicate; returns the set.
    fn union(&mut self, tris: &[Triangle], what: &str) -> Vec<u32> {
        let mut want = Vec::new();
        self.bf.report_union(tris, &mut want);
        assert!(want.windows(2).all(|w| w[0] < w[1]), "{what}: oracle not a sorted set");
        let mut got = Vec::new();
        self.rt.report_union_with(&mut self.scratch, tris, &mut got);
        let reported = got.len();
        got.sort_unstable();
        got.dedup();
        assert_eq!(got.len(), reported, "{what}: range tree reported duplicates");
        assert_eq!(got, want, "{what}: range tree disagrees with brute force");
        want
    }

    /// Whole cover, every ring, every triangle.
    fn check_cover(&mut self, rings: &[Vec<Triangle>], what: &str) {
        let whole: Vec<Triangle> = rings.iter().flatten().copied().collect();
        let mut all = self.union(&whole, &format!("{what}, whole cover"));
        let mut by_ring = Vec::new();
        for (i, ring) in rings.iter().enumerate() {
            by_ring.extend(self.union(ring, &format!("{what}, ring {i}")));
            for (j, tri) in ring.iter().enumerate() {
                let what = format!("{what}, ring {i} triangle {j}");
                let single = self.union(std::slice::from_ref(tri), &what);
                let mut got = Vec::new();
                self.rt.report(tri, &mut got);
                got.sort_unstable();
                assert_eq!(got, single, "{what}: range tree report != report_union(&[tri])");
            }
        }
        by_ring.sort_unstable();
        by_ring.dedup();
        all.sort_unstable();
        assert_eq!(all, by_ring, "{what}: whole-cover union != union of ring unions");
    }
}

#[test]
fn backends_agree_on_real_covers() {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(0xC0_7E12 + seed);
        let shapes: Vec<Polyline> = (0..40)
            .map(|_| {
                let n = rng.random_range(5..18);
                star(&mut rng, n)
            })
            .collect();
        let pool: Vec<Point> = shapes.iter().flat_map(|s| s.points().iter().copied()).collect();
        let mut backends = Backends::build(&pool);
        for (qi, query) in shapes.iter().step_by(9).enumerate() {
            // a stored shape, so its own vertices sit at distance 0 — on
            // every band's inner edge
            let rings = covers(query, 0.004, 1.6, 9);
            assert!(rings.iter().all(|r| !r.is_empty()));
            backends.check_cover(&rings, &format!("seed {seed} query {qi}"));
        }
    }
}

/// Triangles on the predicate's edge cases.
fn hostile_triangles() -> Vec<Triangle> {
    vec![
        // collinear, in general position and axis-aligned
        Triangle::new(p(0.0, 0.0), p(0.5, 0.5), p(1.0, 1.0)),
        Triangle::new(p(0.1, 0.25), p(0.9, 0.25), p(0.4, 0.25)),
        Triangle::new(p(0.5, -0.2), p(0.5, 0.6), p(0.5, 0.1)),
        // a single point
        Triangle::new(p(0.5, 0.25), p(0.5, 0.25), p(0.5, 0.25)),
        // 1e-9-thin slivers, diagonal and axis-aligned
        Triangle::new(p(0.0, 0.0), p(1.0, 0.5), p(1.0, 0.5 + 1e-9)),
        Triangle::new(p(0.0, 0.25), p(1.0, 0.25), p(0.5, 0.25 + 1e-9)),
        Triangle::new(p(0.5, 0.0), p(0.5 + 1e-9, 0.5), p(0.5, 1.0)),
        // wholly outside any pool below
        Triangle::new(p(5.0, 5.0), p(6.0, 5.0), p(5.0, 6.0)),
        Triangle::new(p(-3.0, 0.0), p(-2.0, 0.1), p(-2.5, 0.4)),
        // swallows every pool below
        Triangle::new(p(-10.0, -10.0), p(10.0, -10.0), p(0.0, 20.0)),
        // ordinary, both orientations
        Triangle::new(p(0.1, 0.1), p(0.9, 0.2), p(0.4, 0.8)),
        Triangle::new(p(0.1, 0.1), p(0.4, 0.8), p(0.9, 0.2)),
    ]
}

/// Points on `tris`' vertices, edges (shared diagonals of the cover's
/// quads included) and centroids.
fn boundary_points(tris: &[Triangle]) -> Vec<Point> {
    let mut out = Vec::new();
    for t in tris {
        out.extend([t.a, t.b, t.c, t.centroid()]);
        for (u, v) in [(t.a, t.b), (t.b, t.c), (t.c, t.a)] {
            for s in [0.25, 0.5, 0.8] {
                out.push(p(u.x + s * (v.x - u.x), u.y + s * (v.y - u.y)));
            }
        }
    }
    out
}

#[test]
fn backends_agree_on_adversarial_pools() {
    let mut rng = StdRng::seed_from_u64(0xAD_7E25);
    let query = star(&mut rng, 9);
    let rings = covers(&query, 0.01, 2.0, 5);
    let hostile = hostile_triangles();

    let uniform: Vec<Point> =
        (0..300).map(|_| p(rng.random_range(0.0..1.0), rng.random_range(-0.5..0.5))).collect();
    let mut pools: Vec<(&str, Vec<Point>)> = vec![
        ("empty", vec![]),
        ("one point", vec![p(0.5, 0.25)]),
        ("two points", vec![p(0.5, 0.25), p(0.25, 0.125)]),
        ("all identical", vec![p(0.5, 0.25); 70]),
        (
            "half on one x",
            uniform.iter().enumerate().map(|(i, q)| if i % 2 == 0 { p(0.5, q.y) } else { *q }).collect(),
        ),
        (
            "half on one y",
            uniform.iter().enumerate().map(|(i, q)| if i % 3 != 0 { p(q.x, 0.25) } else { *q }).collect(),
        ),
        ("on the hostile triangles", boundary_points(&hostile)),
    ];
    let cover_boundary: Vec<Point> = rings.iter().flat_map(|r| boundary_points(r)).collect();
    // twice over: every boundary point is also a duplicate
    pools.push(("on the cover's edges", [cover_boundary.clone(), cover_boundary].concat()));

    for (name, pool) in &pools {
        let mut backends = Backends::build(pool);
        backends.check_cover(&rings, name);
        backends.check_cover(std::slice::from_ref(&hostile), &format!("{name}, hostile triangles"));
    }
}

/// Index construction and querying never panic on non-finite coordinates
/// (a writer thread builds an index in every level merge).
#[test]
fn non_finite_coordinates_do_not_panic() {
    let mut rng = StdRng::seed_from_u64(0x0F1_417E);
    let specials = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut pool: Vec<Point> =
        (0..200).map(|_| p(rng.random_range(0.0..1.0), rng.random_range(-0.5..0.5))).collect();
    for (i, &s) in specials.iter().enumerate() {
        pool[10 * i + 3].x = s;
        pool[10 * i + 7].y = s;
        pool[10 * i + 9] = p(s, s);
    }
    let finite: Vec<u32> =
        (0..pool.len() as u32).filter(|&i| pool[i as usize].x.is_finite() && pool[i as usize].y.is_finite()).collect();
    let mut tris = hostile_triangles();
    tris.push(Triangle::new(p(f64::NAN, 0.0), p(1.0, 0.0), p(0.0, 1.0)));
    tris.push(Triangle::new(p(0.0, 0.0), p(f64::INFINITY, 0.0), p(0.0, 1.0)));
    let everything = Triangle::new(p(-10.0, -10.0), p(10.0, -10.0), p(0.0, 20.0));

    let rt = RangeTreeIndex::build(&pool);
    let bf = BruteForceIndex::build(&pool);
    for (name, index) in [("range tree", &rt as &dyn SimplexIndex), ("brute force", &bf)] {
        assert_eq!(index.len(), pool.len());
        let mut out = Vec::new();
        index.report_union(&tris, &mut out);
        for tri in &tris {
            index.report(tri, &mut out);
        }
        // the finite points are still all found (a backend may or may
        // not count a NaN point as inside)
        out.clear();
        index.report(&everything, &mut out);
        out.sort_unstable();
        assert!(finite.iter().all(|id| out.binary_search(id).is_ok()), "{name} lost a finite point");
    }
}
