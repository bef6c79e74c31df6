//! Figure 10: "Determining experimentally the number of similar shapes" —
//! the hyperbolic law `|shape_similar(Q)| ≈ c / V_S(Q)` (§5.2), measured
//! on two shape bases whose sizes differ by 2× (the paper's Experiment 1
//! vs Experiment 2).
//!
//! Corpus design: the law is about *structural genericity* — shapes with
//! few significant vertices (smooth blobs) resemble many shapes, spiky
//! ones few — so the base is drawn from a continuum of random polygons
//! spanning vertex counts and irregularities (same domain, i.e. same
//! generator and seed, for both experiments; only the size differs).
//!
//! ```sh
//! cargo run --release -p geosir-bench --bin fig10_selectivity -- --shapes 3000
//! ```

use geosir_bench::arg_usize;
use geosir_core::ids::ImageId;
use geosir_core::matcher::{MatchConfig, Matcher};
use geosir_core::selectivity::significant_vertices;
use geosir_core::shapebase::ShapeBaseBuilder;
use geosir_geom::rangesearch::Backend;
use geosir_geom::Polyline;
use rand::prelude::*;
use rand::rngs::StdRng;

fn domain_shape(rng: &mut StdRng) -> Polyline {
    // The domain spans a *spikiness* axis — the quantity V_S measures
    // (clear-cut angles with long adjacent edges). Smooth near-regular
    // blobs (spike ≈ 0) all look alike — a dense region of shape space —
    // while spiky shapes draw an independent random radius per vertex, so
    // their variability (and hence distinctiveness) grows with spike.
    let n = rng.random_range(10..22);
    let spike = rng.random_range(0.0..1.0f64);
    let pts: Vec<geosir_geom::Point> = (0..n)
        .map(|i| {
            let t = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            let r = 1.0 - spike * rng.random_range(0.0..0.75);
            geosir_geom::Point::new(r * t.cos(), r * t.sin())
        })
        .collect();
    Polyline::closed(pts).expect("radial construction is simple")
}

fn main() {
    let shapes_full = arg_usize("--shapes", 3000);
    println!("# Figure 10 — #similar shapes vs V_S(Q), two base sizes (2:1)");
    println!("# experiment, V_S, measured_similar, fitted_c/V_S");
    let mut fitted = Vec::new();
    for (exp, n_shapes) in [(1usize, shapes_full), (2, shapes_full / 2)] {
        // same image domain: same generator stream; exp 2 = a prefix
        let mut rng = StdRng::seed_from_u64(77);
        let mut builder = ShapeBaseBuilder::new();
        let mut stored: Vec<Polyline> = Vec::new();
        for i in 0..n_shapes {
            let s = domain_shape(&mut rng);
            if stored.len() < 60 && i % (n_shapes / 60).max(1) == 0 {
                stored.push(s.clone());
            }
            builder.add_shape(ImageId(i as u32), s);
        }
        let base = builder.build(0.0, Backend::RangeTree);
        let matcher = Matcher::new(&base, MatchConfig { beta: 0.3, ..Default::default() });

        let mut samples: Vec<(f64, usize)> = Vec::new();
        for q in &stored {
            let vs = significant_vertices(q);
            let matches = matcher.retrieve_within(q, 0.045).matches.len();
            samples.push((vs, matches));
        }
        // least-squares fit of c in  matches ≈ c / V_S
        let num: f64 = samples.iter().map(|(v, m)| *m as f64 / v).sum();
        let den: f64 = samples.iter().map(|(v, _)| 1.0 / (v * v)).sum();
        let c = num / den;
        samples.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (vs, m) in &samples {
            println!("{exp}, {vs:.2}, {m}, {:.2}", c / vs);
        }
        let mean_m: f64 =
            samples.iter().map(|(_, m)| *m as f64).sum::<f64>() / samples.len() as f64;
        let ss_tot: f64 = samples.iter().map(|(_, m)| (*m as f64 - mean_m).powi(2)).sum();
        let ss_res: f64 = samples.iter().map(|(v, m)| (*m as f64 - c / v).powi(2)).sum();
        // rank correlation between V_S and result size (should be negative)
        let spearman = spearman(&samples);
        println!(
            "# experiment {exp}: {n_shapes} shapes, fitted c = {c:.1}, R² = {:.3}, Spearman(V_S, |result|) = {spearman:.3}",
            1.0 - ss_res / ss_tot.max(1e-12)
        );
        fitted.push(c);
    }
    println!(
        "# c ratio (exp1 / exp2) = {:.2} — the larger base has the larger c (paper: ~2×)",
        fitted[0] / fitted[1]
    );
    println!("# paper: both experiments show hyperbolic decay of the number of");
    println!("# matches in V_S(Q); the constant scales with the base size.");
}

fn spearman(samples: &[(f64, usize)]) -> f64 {
    let n = samples.len();
    let rank = |vals: Vec<f64>| -> Vec<f64> {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by(|&a, &b| vals[a].partial_cmp(&vals[b]).unwrap());
        let mut r = vec![0.0; n];
        for (pos, &i) in idx.iter().enumerate() {
            r[i] = pos as f64;
        }
        r
    };
    let rx = rank(samples.iter().map(|(v, _)| *v).collect());
    let ry = rank(samples.iter().map(|(_, m)| *m as f64).collect());
    let mx = (n as f64 - 1.0) / 2.0;
    let (mut num, mut dx, mut dy) = (0.0, 0.0, 0.0);
    for i in 0..n {
        num += (rx[i] - mx) * (ry[i] - mx);
        dx += (rx[i] - mx).powi(2);
        dy += (ry[i] - mx).powi(2);
    }
    num / (dx * dy).sqrt().max(1e-12)
}
