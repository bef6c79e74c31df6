//! The paper's qualitative claims, verified as executable assertions.
//! (The quantitative figures are regenerated by `crates/bench/src/bin/*`;
//! see EXPERIMENTS.md.)

use geosir::core::baselines::{hausdorff_directed, FeatureIndex};
use geosir::core::ids::{ImageId, ShapeId};
use geosir::core::matcher::{EpsSchedule, MatchConfig, Matcher};
use geosir::core::selectivity::significant_vertices;
use geosir::core::shapebase::ShapeBaseBuilder;
use geosir::core::similarity::{h_avg_discrete, PreparedShape};
use geosir::geom::rangesearch::Backend;
use geosir::geom::{Point, Polyline};
use geosir::imaging::synth::{generate, perturb, random_simple_polygon, CorpusConfig};
use rand::prelude::*;
use rand::rngs::StdRng;

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

/// Figure 1: the Hausdorff distance matches Q with the wrong shape; h_avg
/// picks the intuitive one — end to end through the matcher.
#[test]
fn figure1_matcher_is_outlier_tolerant() {
    let q = Polyline::closed(vec![p(0.0, 0.0), p(4.0, 0.0), p(4.0, 1.0), p(0.0, 1.0)]).unwrap();
    // A: Q plus one far spike; B: Q uniformly inflated
    let a = Polyline::closed(vec![p(0.0, 0.0), p(4.0, 0.0), p(4.0, 1.0), p(2.0, 2.0), p(0.0, 1.0)])
        .unwrap();
    let b = Polyline::closed(vec![p(-0.25, -0.25), p(4.25, -0.25), p(4.25, 1.25), p(-0.25, 1.25)])
        .unwrap();
    // directed Hausdorff prefers B (the spike dominates A)...
    let pq = PreparedShape::new(q.clone());
    assert!(hausdorff_directed(&a, &pq) > hausdorff_directed(&b, &pq));
    // ...but h_avg — and hence the matcher — prefers A
    assert!(h_avg_discrete(&a, &pq) < h_avg_discrete(&b, &pq));
}

/// Figure 2 / §2.3: when distortion splits an edge and perturbs the rest
/// (so no edge pair between query and stored shape matches), diameter
/// normalization keeps retrieving the source shape at least as reliably
/// as the edge-normalizing feature index — the paper's motivating claim.
#[test]
fn figure2_diameter_normalization_survives_edge_split() {
    let mut rng = StdRng::seed_from_u64(20);
    let trials = 12;
    let gallery: Vec<Polyline> =
        (0..6).map(|_| random_simple_polygon(&mut rng, 8, 0.35)).collect();

    // both systems index the same gallery
    let mut fi = FeatureIndex::new(16);
    let mut builder = ShapeBaseBuilder::new();
    for (i, s) in gallery.iter().enumerate() {
        fi.insert(ShapeId(i as u32), s);
        builder.add_shape(ImageId(i as u32), s.clone());
    }
    let base = builder.build(0.1, Backend::RangeTree);
    let matcher = Matcher::new(&base, MatchConfig { beta: 0.3, ..Default::default() });

    let mut ours_ok = 0;
    let mut baseline_ok = 0;
    for t in 0..trials {
        let target = t % gallery.len();
        // Figure-2 distortion: split one edge with a bump AND jitter every
        // vertex, so no edge of the query matches an edge of the stored
        // shape exactly.
        let src = &gallery[target];
        let split_at = rng.random_range(0..src.num_edges());
        let mut pts = Vec::new();
        for (i, e) in src.edges().enumerate() {
            pts.push(e.a);
            if i == split_at {
                let n = e.dir().perp().normalized().unwrap();
                pts.push(e.midpoint() + n * (0.12 * e.len()));
            }
        }
        let Ok(with_bump) = Polyline::closed(pts) else { continue };
        let distorted = perturb(&with_bump, &mut rng, 0.05);
        if !distorted.is_simple() {
            continue;
        }
        if matcher.retrieve(&distorted).best().map(|m| m.shape) == Some(ShapeId(target as u32)) {
            ours_ok += 1;
        }
        if fi.nearest(&distorted).map(|(id, _)| id) == Some(ShapeId(target as u32)) {
            baseline_ok += 1;
        }
    }
    assert!(
        ours_ok >= baseline_ok,
        "diameter normalization ({ours_ok}/{trials}) lost to edge normalization ({baseline_ok}/{trials})"
    );
    assert!(ours_ok * 10 >= trials * 7, "our recall collapsed: {ours_ok}/{trials}");
}

/// §2.5: under the paper's analysis assumption — vertices roughly
/// uniformly distributed in the lune (all shapes distinct) and a query
/// with a genuine near-exact match — retrieval work (ring vertices
/// processed) grows far slower than the base. This is the polylog claim's
/// observable shadow at test scale.
#[test]
fn matcher_work_grows_sublinearly() {
    let mut work = Vec::new();
    for &n_shapes in &[50usize, 200, 800] {
        // distinct shapes of varied aspect ratio: the lune vertex
        // distribution is as uniform as this domain gets
        let mut rng = StdRng::seed_from_u64(5);
        let mut builder = ShapeBaseBuilder::new();
        let mut queries: Vec<Polyline> = Vec::new();
        for i in 0..n_shapes {
            let n = rng.random_range(10..30);
            let poly = random_simple_polygon(&mut rng, n, 0.35);
            let stretch = rng.random_range(0.15..1.0);
            let shape = poly.map_points(|q| p(q.x, q.y * stretch));
            if i < 5 {
                queries.push(shape.clone());
            }
            for _ in 0..5 {
                builder.add_shape(ImageId(i as u32), shape.clone());
            }
        }
        let base = builder.build(0.0, Backend::RangeTree);
        let matcher = Matcher::new(&base, MatchConfig { beta: 0.2, ..Default::default() });
        let mut processed = 0usize;
        for q in &queries {
            let out = matcher.retrieve(q);
            assert!(out.best().is_some());
            assert!(out.best().unwrap().score < 1e-6, "exact query must score ~0");
            processed += out.stats.vertices_processed;
        }
        work.push((base.total_vertices(), processed as f64 / queries.len() as f64));
    }
    // 16× more vertices must cost far less than 16× more work
    let (n0, w0) = work[0];
    let (n2, w2) = work[2];
    let data_growth = n2 as f64 / n0 as f64;
    let work_growth = w2 / w0.max(1.0);
    assert!(
        work_growth < data_growth / 4.0,
        "work grew {work_growth:.1}× for {data_growth:.1}× data: {work:?}"
    );
}

/// §5.2: V_S is the structural vertex count — invariant to degenerate
/// densification, monotone in "cornered-ness".
#[test]
fn significant_vertices_structural_properties() {
    let mut rng = StdRng::seed_from_u64(12);
    for _ in 0..10 {
        let shape = random_simple_polygon(&mut rng, 12, 0.3);
        let vs = significant_vertices(&shape);
        assert!(vs > 0.0 && vs <= 12.0);
        // densify: insert midpoints on every edge (flat vertices)
        let mut dense_pts = Vec::new();
        for e in shape.edges() {
            dense_pts.push(e.a);
            dense_pts.push(e.midpoint());
        }
        let dense = Polyline::closed(dense_pts).unwrap();
        let vs_dense = significant_vertices(&dense);
        // vertex count doubled; V_S moved by far less
        assert!(
            (vs_dense - vs).abs() < 0.35 * vs,
            "V_S jumped from {vs} to {vs_dense} on densification"
        );
    }
}

/// §2.5 convergence: both ε schedules find the same best match; the noisy
/// query still maps to its family prototype under either schedule.
#[test]
fn schedules_converge_to_same_answer() {
    let corpus = generate(&CorpusConfig::small(60, 13));
    let base = corpus.build_base(0.05);
    let mut rng = StdRng::seed_from_u64(2);
    for proto_idx in 0..3 {
        let q = perturb(&corpus.prototypes[proto_idx], &mut rng, 0.02);
        let geo = Matcher::new(
            &base,
            MatchConfig { schedule: EpsSchedule::Geometric(2.0), beta: 0.2, ..Default::default() },
        )
        .retrieve(&q);
        let lin = Matcher::new(
            &base,
            MatchConfig { schedule: EpsSchedule::Linear, beta: 0.2, ..Default::default() },
        )
        .retrieve(&q);
        assert_eq!(
            geo.best().map(|m| m.shape),
            lin.best().map(|m| m.shape),
            "schedules disagree on prototype {proto_idx}"
        );
    }
}

/// α widens the copy set and buys distortion tolerance (§2.4): with a
/// distortion that displaces the diameter endpoints, α = 0 can misplace
/// the normalization while a positive α still retrieves the shape.
#[test]
fn alpha_copies_improve_distorted_recall() {
    let corpus = generate(&CorpusConfig::small(40, 19));
    let mut rng = StdRng::seed_from_u64(3);
    let queries: Vec<Polyline> =
        (0..6).map(|i| perturb(&corpus.prototypes[i % corpus.prototypes.len()], &mut rng, 0.05)).collect();
    let recall = |alpha: f64| {
        let base = corpus.build_base(alpha);
        let matcher = Matcher::new(&base, MatchConfig { beta: 0.3, ..Default::default() });
        queries
            .iter()
            .filter(|q| {
                matcher.retrieve(q).best().is_some_and(|m| m.score < 0.08)
            })
            .count()
    };
    let r0 = recall(0.0);
    let r10 = recall(0.1);
    assert!(r10 >= r0, "alpha hurt recall: {r10} < {r0}");
    assert!(r10 >= queries.len() / 2, "recall too low even with alpha: {r10}");
}
