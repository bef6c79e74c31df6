//! Ablation of the paper's two tuning constants (§2.4–2.5: "The choice of
//! the value of constants α and β does not affect the correctness of the
//! algorithm but may improve both the speed of convergence … and the noise
//! tolerance of the system").
//!
//! For a grid of (α, β): recall of distorted queries, average matcher
//! work, candidates scored, and base blow-up (copies per shape).
//!
//! ```sh
//! cargo run --release -p geosir-bench --bin ablation_alpha_beta -- --images 200
//! ```

use geosir_bench::{arg_usize, row};
use geosir_core::matcher::{MatchConfig, Matcher};
use geosir_imaging::synth::{generate, perturb, CorpusConfig};
use rand::prelude::*;
use rand::rngs::StdRng;

fn main() {
    let images = arg_usize("--images", 200);
    let cfg = CorpusConfig { member_jitter: 0.02, ..CorpusConfig::small(images, 7) };
    let corpus = generate(&cfg);

    // queries: moderately distorted copies of stored shapes
    let mut rng = StdRng::seed_from_u64(42);
    let stride = (corpus.shapes.len() / 25).max(1);
    // "correct" = retrieving any shape of the query's family (a distorted
    // query may legitimately land on a close sibling of its source)
    let queries: Vec<(usize, _)> = (0..25)
        .map(|i| {
            let idx = (i * stride) % corpus.shapes.len();
            (corpus.shapes[idx].1, perturb(&corpus.shapes[idx].2, &mut rng, 0.04))
        })
        .collect();

    println!("# α/β ablation — recall, work, and base blow-up");
    let widths = [6, 6, 14, 10, 10, 12, 10];
    println!(
        "{}",
        row(
            &["alpha", "beta", "copies/shape", "recall", "K/query", "cands/query", "iters"]
                .map(String::from),
            &widths
        )
    );
    for alpha in [0.0, 0.05, 0.1] {
        let base = corpus.build_base(alpha);
        let blowup = base.num_copies() as f64 / base.num_shapes() as f64;
        for beta in [0.0, 0.1, 0.2, 0.4] {
            let matcher = Matcher::new(&base, MatchConfig { beta, ..Default::default() });
            let mut correct = 0usize;
            let mut k_total = 0usize;
            let mut cands = 0usize;
            let mut iters = 0usize;
            for (family, q) in &queries {
                let out = matcher.retrieve(q);
                if out
                    .best()
                    .map(|m| corpus.shapes[m.shape.index()].1 == *family)
                    .unwrap_or(false)
                {
                    correct += 1;
                }
                k_total += out.stats.vertices_processed;
                cands += out.stats.candidates_scored;
                iters += out.stats.iterations;
            }
            let n = queries.len() as f64;
            println!(
                "{}",
                row(
                    &[
                        format!("{alpha}"),
                        format!("{beta}"),
                        format!("{blowup:.1}"),
                        format!("{:.2}", correct as f64 / n),
                        format!("{:.0}", k_total as f64 / n),
                        format!("{:.1}", cands as f64 / n),
                        format!("{:.1}", iters as f64 / n),
                    ],
                    &widths
                )
            );
        }
    }
    println!("# expectations: larger α ⇒ more copies (space) but better recall under");
    println!("# distortion; larger β ⇒ candidates admitted earlier (more scored, fewer");
    println!("# iterations) — correctness is unaffected, per §2.5.");
}
