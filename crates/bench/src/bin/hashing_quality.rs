//! §3: geometric-hashing quality — recall of the approximate fallback
//! against exhaustive h_avg scoring, and bucket statistics as the curve
//! family grows ("by increasing the number of curves, we are able to have
//! a small, on the average, number of shapes associated with each hash
//! curve").
//!
//! ```sh
//! cargo run --release -p geosir-bench --bin hashing_quality -- --images 300
//! ```

use geosir_bench::{arg_usize, row};
use geosir_core::hashing::GeometricHash;
use geosir_core::normalize::normalize_about_diameter;
use geosir_core::similarity::{score, PreparedShape, ScoreKind};
use geosir_imaging::synth::{generate, perturb, CorpusConfig};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::time::Instant;

fn main() {
    let images = arg_usize("--images", 300);
    let corpus = generate(&CorpusConfig::small(images, 7));
    let base = corpus.build_base(0.05);
    eprintln!("world: {} images, {} copies", images, base.num_copies());
    let mut rng = StdRng::seed_from_u64(3);
    let queries: Vec<_> = (0..20)
        .map(|i| perturb(&corpus.prototypes[i % corpus.prototypes.len()], &mut rng, 0.02))
        .collect();

    // exhaustive oracle: best shape (and score) by symmetric discrete h_avg
    let oracle: Vec<_> = queries
        .iter()
        .map(|q| {
            let (n, _) = normalize_about_diameter(q).unwrap();
            let pq = PreparedShape::new(n.shape);
            base.copies()
                .map(|(_, c)| {
                    (c.shape_id, score(ScoreKind::DiscreteSymmetric, &c.normalized, &pq))
                })
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap()
        })
        .collect();

    println!("# §3 — hashing recall and bucket shape vs family size k");
    println!("# score_ratio: approximate score / oracle-best score (1.0 = perfect)");
    let widths = [6, 9, 12, 12, 10, 13, 12];
    println!(
        "{}",
        row(
            &["k", "buckets", "avg_bucket", "max_radius", "recall@1", "score_ratio", "µs/query"]
                .map(String::from),
            &widths
        )
    );
    for k in [10usize, 25, 50, 100, 200] {
        let gh = GeometricHash::build(&base, k);
        let mut hits = 0usize;
        let mut ratios: Vec<f64> = Vec::new();
        let start = Instant::now();
        for (q, (want, want_score)) in queries.iter().zip(&oracle) {
            let (n, _) = normalize_about_diameter(q).unwrap();
            let got = gh.retrieve(&base, &n.shape, 1, 2);
            if let Some(m) = got.first() {
                if m.shape == *want {
                    hits += 1;
                }
                ratios.push(m.score / want_score.max(1e-9));
            }
        }
        let us = start.elapsed().as_micros() as f64 / queries.len() as f64;
        ratios.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median_ratio = ratios.get(ratios.len() / 2).copied().unwrap_or(f64::NAN);
        println!(
            "{}",
            row(
                &[
                    k.to_string(),
                    gh.num_buckets().to_string(),
                    format!("{:.2}", gh.avg_bucket_size()),
                    "2".to_string(),
                    format!("{:.2}", hits as f64 / queries.len() as f64),
                    format!("{median_ratio:.2}"),
                    format!("{us:.0}"),
                ],
                &widths
            )
        );
    }
    println!("# paper: more curves → fewer shapes per bucket; retrieval time is");
    println!("# logarithmic in the number of curves with a constant number of");
    println!("# associated shapes per curve.");
}
