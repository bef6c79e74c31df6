//! Five-minute tour: load a few images into the `GeoSir` façade, retrieve
//! by sketch, run a topological query.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::collections::HashMap;

use geosir::geom::{Point, Polyline};
use geosir::system::{GeoSir, GeoSirConfig};

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

fn main() {
    // ------------------------------------------------------------------
    // 1. Populate the base (normally shapes come from the imaging
    //    pipeline — `add_raster`; here we add object boundaries by hand).
    //    α = 0.1: every vertex pair within 10% of the diameter normalizes
    //    a copy, both orientations (§2.4).
    // ------------------------------------------------------------------
    let house = Polyline::closed(vec![
        p(0.0, 0.0),
        p(4.0, 0.0),
        p(4.0, 3.0),
        p(2.0, 4.5),
        p(0.0, 3.0),
    ])
    .unwrap();
    let window =
        Polyline::closed(vec![p(1.0, 1.0), p(2.0, 1.0), p(2.0, 2.0), p(1.0, 2.0)]).unwrap();
    let triangle = Polyline::closed(vec![p(0.0, 0.0), p(5.0, 0.0), p(1.0, 3.0)]).unwrap();
    let bar = Polyline::closed(vec![p(0.0, 0.0), p(6.0, 0.0), p(6.0, 1.0), p(0.0, 1.0)]).unwrap();

    let mut builder = GeoSir::builder(GeoSirConfig { alpha: 0.1, ..Default::default() });
    builder.add_scene([house.clone(), window]); // image 0: a house with a window inside
    builder.add_scene([triangle]); // image 1
    builder.add_scene([bar]); // image 2
    let sys = builder.build();

    // ------------------------------------------------------------------
    // 2. Retrieve by sketch: a distorted, rotated, rescaled house. The
    //    answer is exact on every rank (h_avg, §2.2).
    // ------------------------------------------------------------------
    let sketch = Polyline::closed(vec![
        p(10.2, 10.0),
        p(18.1, 10.3),
        p(18.0, 16.1),
        p(14.1, 19.2),
        p(9.9, 15.8),
    ])
    .unwrap();
    let hits = sys.find(&sketch, 2);
    println!("sketch retrieval, k = 2:");
    for m in &hits {
        println!("  shape {} in {}  score {:.4}", m.shape.0, m.image, m.score);
    }
    assert_eq!(hits[0].shape.0, 0, "the house is the best match");

    // ------------------------------------------------------------------
    // 3. A topological query (§5): images where a house-like shape
    //    contains a square-like shape.
    // ------------------------------------------------------------------
    let mut session = sys.session();
    let mut bindings = HashMap::new();
    bindings.insert("house".to_string(), house);
    bindings.insert(
        "square".to_string(),
        Polyline::closed(vec![p(0.0, 0.0), p(1.0, 0.0), p(1.0, 1.0), p(0.0, 1.0)]).unwrap(),
    );
    let hits = session.execute_str("contain(house, square, any)", &bindings).unwrap();
    let mut ids: Vec<u32> = hits.iter().map(|i| i.0).collect();
    ids.sort_unstable();
    println!("\ncontain(house, square, any) → images {ids:?}");
    assert_eq!(ids, vec![0]);
    println!("\nOK");
}
