//! The two-stage retrieval of §6: envelope fattening first; if ε exhausts
//! its budget without a certified match, geometric hashing supplies an
//! approximate answer.
//!
//! ```sh
//! cargo run --release --example hashing_fallback
//! ```

use geosir::core::hashing::GeometricHash;
use geosir::core::matcher::{MatchConfig, Matcher};
use geosir::core::normalize::normalize_about_diameter;
use geosir::geom::{Point, Polyline};
use geosir::imaging::synth::{generate, perturb, CorpusConfig};
use rand::prelude::*;
use rand::rngs::StdRng;

fn main() {
    let corpus = generate(&CorpusConfig::small(100, 21));
    let base = corpus.build_base(0.05);
    let matcher = Matcher::new(&base, MatchConfig { beta: 0.1, ..Default::default() });
    let hash = GeometricHash::build(&base, 50);
    println!(
        "base: {} copies; hash: {} buckets, avg {:.1} copies/bucket",
        base.num_copies(),
        hash.num_buckets(),
        hash.avg_bucket_size()
    );

    // --- a query that exists: fattening finds it and certifies it ---
    let mut rng = StdRng::seed_from_u64(5);
    let easy = perturb(&corpus.prototypes[0], &mut rng, 0.01);
    let out = matcher.retrieve(&easy);
    println!(
        "\neasy query: {} (score {:.4}) after {} iterations — exhausted: {}",
        out.best().map(|m| m.shape.to_string()).unwrap_or_default(),
        out.best().map(|m| m.score).unwrap_or(f64::NAN),
        out.stats.iterations,
        out.stats.exhausted
    );

    // --- a pathological query: a 40-tooth saw, unlike anything stored ---
    let mut saw = Vec::new();
    for i in 0..20 {
        saw.push(Point::new(i as f64, 0.0));
        saw.push(Point::new(i as f64 + 0.5, 3.0));
    }
    let weird = Polyline::open(saw).unwrap();
    let out = matcher.retrieve(&weird);
    println!(
        "\nsaw query: fattening ran {} iterations to ε = {:.4} (cap {:.4}), exhausted: {}",
        out.stats.iterations, out.stats.final_eps, out.stats.eps_cap, out.stats.exhausted
    );
    match out.best() {
        Some(m) if !out.stats.exhausted => {
            println!("  certified match: {} score {:.4}", m.shape, m.score)
        }
        _ => {
            // §6: "If it fails to find a close match, geometric hashing is
            // used for approximate retrieval."
            let (normalized, _) = normalize_about_diameter(&weird).unwrap();
            let approx = hash.retrieve(&base, &normalized.shape, 3, 5);
            println!("  falling back to geometric hashing:");
            for m in &approx {
                println!("    {} in {}  score {:.4}", m.shape, m.image, m.score);
            }
            assert!(!approx.is_empty(), "hashing must return an approximate answer");
        }
    }
    println!("\nOK");
}
