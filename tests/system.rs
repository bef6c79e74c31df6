//! Integration tests for the [`geosir::system::GeoSir`] façade — the full
//! product surface in one object.

use geosir::core::normalize::{normalize_about_diameter, normalized_copies};
use geosir::core::similarity::{score_prepared, PreparedShape, ScoreKind};
use geosir::geom::{Point, Polyline};
use geosir::imaging::pipeline::render_scene;
use geosir::system::{GeoSir, GeoSirConfig};
use std::collections::HashMap;

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

fn house() -> Polyline {
    Polyline::closed(vec![p(0.0, 0.0), p(4.0, 0.0), p(4.0, 3.0), p(2.0, 4.5), p(0.0, 3.0)])
        .unwrap()
}

fn bar() -> Polyline {
    Polyline::closed(vec![p(0.0, 0.0), p(6.0, 0.0), p(6.0, 1.0), p(0.0, 1.0)]).unwrap()
}

fn window() -> Polyline {
    Polyline::closed(vec![p(1.0, 1.0), p(2.0, 1.0), p(2.0, 2.0), p(1.0, 2.0)]).unwrap()
}

/// The demo scenes' shapes, in the order they get their ids.
fn demo_shapes() -> Vec<Polyline> {
    vec![house(), window(), bar(), house().map_points(|q| p(q.x * 3.0 + 50.0, q.y * 3.0 - 7.0))]
}

fn demo_system() -> GeoSir {
    let shapes = demo_shapes();
    let mut b = GeoSir::builder(GeoSirConfig::default());
    b.add_scene([shapes[0].clone(), shapes[1].clone()]); // image 0: window inside house
    b.add_scene([shapes[2].clone()]); // image 1
    b.add_scene([shapes[3].clone()]); // image 2
    b.build()
}

/// Brute force over the demo shapes: the best `(id, score)` — min over
/// each shape's stored copies of `h_avg` against the query's primary
/// normalized copy, ties to the lower id.
fn brute_force_best(query: &Polyline) -> (u64, f64) {
    let (primary, _) = normalize_about_diameter(query).unwrap();
    let q = PreparedShape::new(primary.shape);
    let alpha = GeoSirConfig::default().alpha;
    let scored = demo_shapes().into_iter().enumerate().map(|(id, s)| {
        let copies = normalized_copies(&s, alpha).into_iter();
        let score = copies
            .map(|c| score_prepared(ScoreKind::default(), &PreparedShape::new(c.shape), &q))
            .fold(f64::INFINITY, f64::min);
        (id as u64, score)
    });
    scored.fold((u64::MAX, f64::INFINITY), |best, cur| if cur.1 < best.1 { cur } else { best })
}

#[test]
fn sketch_retrieval_end_to_end() {
    let sys = demo_system();
    let hits = sys.find(&house(), 2);
    assert!(!hits.is_empty());
    assert!(hits[0].score < 1e-9);
    assert_eq!(hits[0].image.0, 0);
    // second hit: the scaled house in image 2
    assert_eq!(hits[1].image.0, 2);
    assert!(hits[1].score < 1e-6);
}

#[test]
fn raster_ingestion_path() {
    let mut b = GeoSir::builder(GeoSirConfig::default());
    let scene = vec![house().map_points(|q| p(q.x * 20.0 + 40.0, q.y * 20.0 + 40.0))];
    let raster = render_scene(&scene, 200, 200);
    let (image, extracted) = b.add_raster(&raster);
    assert_eq!(extracted, 1, "one boundary expected from the raster");
    let sys = b.build();
    let hits = sys.find(&house(), 1);
    assert_eq!(hits[0].image, image);
    assert!(hits[0].score < 0.05, "extraction noise only: {}", hits[0].score);
}

#[test]
fn hashing_fallback_flagged_as_approximate() {
    let sys = demo_system();
    // a deep-valley 16-spike star: under h_avg nothing stored is close
    // (note: a thin *saw* would actually match the thin bar well — the
    // averaging measure ignores high-frequency teeth by design)
    let star: Vec<Point> = (0..32)
        .map(|i| {
            let r = if i % 2 == 0 { 1.0 } else { 0.15 };
            let t = std::f64::consts::PI * i as f64 / 16.0;
            p(r * t.cos(), r * t.sin())
        })
        .collect();
    let weird = Polyline::closed(star).unwrap();
    // nothing stored is close, and the exact scan still ranks everything:
    // its best hit is the brute-force best
    let hits = sys.find(&weird, 1);
    assert!(!hits.is_empty(), "a far best match is still a match");
    assert_eq!((hits[0].shape.0, hits[0].score), brute_force_best(&weird));
}

#[test]
fn query_session_over_the_same_system() {
    let sys = demo_system();
    let mut session = sys.session();
    let mut bindings = HashMap::new();
    bindings.insert("h".to_string(), house());
    bindings.insert("sq".to_string(), window());
    let hits = session.execute_str("contain(h, sq, any)", &bindings).unwrap();
    let ids: Vec<u32> = {
        let mut v: Vec<u32> = hits.iter().map(|i| i.0).collect();
        v.sort_unstable();
        v
    };
    assert_eq!(ids, vec![0]);
    // the estimator learns across the session
    assert!(session.estimator().observations() > 0);
}
