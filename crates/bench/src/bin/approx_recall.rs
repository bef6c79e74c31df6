//! Approximate-tier quality gate: recall@k and candidate-set reduction
//! of the `similar_approx` cascade against an exhaustive symmetric
//! `h_avg` oracle on a large synthetic corpus, swept over the candidate
//! budget. Prints the recall-vs-speedup curve (one run is stored as
//! `results/approx_recall.txt`) and exits non-zero when the headline
//! operating point — the highest-recall sweep point that still reduces
//! the candidate set ≥ 10× — has recall@10 below 0.95, or when no point
//! reduces that far.
//!
//! ```sh
//! cargo run --release -p geosir-bench --bin approx_recall -- --images 19000
//! ```
//!
//! The oracle is the exhaustive min-over-copies symmetric discrete
//! `h_avg` scan — the same semantics the approximate rerank computes —
//! *not* the envelope matcher, whose per-shape certification can differ
//! from the plain min-over-copies score. Speedup is measured against
//! that same scan, so both sides of the ratio rank identically and the
//! only difference is how many candidates were scored.

use std::time::Instant;

use geosir_bench::{arg_usize, row};
use geosir_core::dynamic::{DynMatch, DynamicBase};
use geosir_core::matcher::{MatchConfig, MatchOutcome};
use geosir_core::normalize::{normalize_about_diameter, normalized_copies};
use geosir_core::scratch::MatcherScratch;
use geosir_core::similarity::{score_with, PreparedShape, ScoreKind};
use geosir_core::{ApproxOptions, ApproxScratch, ApproxStats};
use geosir_geom::Polyline;
use geosir_imaging::synth::{generate, CorpusConfig};

const ALPHA: f64 = 0.05;
const K: usize = 10;

fn main() {
    let images = arg_usize("--images", 19_000);
    let n_queries = arg_usize("--queries", 24);
    let t0 = Instant::now();
    let corpus = generate(&CorpusConfig::small(images, 7));
    let shapes: Vec<_> = corpus.shapes.iter().map(|(img, _, s)| (*img, s.clone())).collect();
    let n_shapes = shapes.len();

    let mut base = DynamicBase::new(
        ALPHA,
        MatchConfig { k: K, beta: 0.25, ..Default::default() },
        512,
    );
    base.bulk_load(shapes.iter().cloned());
    let snap = base.snapshot();
    let n_copies = snap.total_copies();
    println!(
        "# corpus: {} images, {} shapes, {} copies, {} buckets (avg {:.2}/bucket) [{:.1}s]",
        images,
        n_shapes,
        n_copies,
        snap.approx_num_buckets(),
        snap.approx_avg_bucket_size(),
        t0.elapsed().as_secs_f64()
    );

    // the exhaustive oracle's table, built once: bulk_load assigned
    // GlobalShapeId 0..n in iteration order, so a copy carries its
    // shape's index
    let oracle_copies: Vec<(usize, Polyline)> = shapes
        .iter()
        .enumerate()
        .flat_map(|(j, (_, s))| normalized_copies(s, ALPHA).into_iter().map(move |c| (j, c.shape)))
        .collect();

    // query-by-example at the corpus's own similarity scale: a stored
    // shape, re-extracted with a small fresh distortion — the "find the
    // other instances of this boundary" workload the approximate tier
    // serves. qdist is the distortion in per-mille of the diameter.
    let qdist = arg_usize("--qdist", 10) as f64 / 1000.0;
    let queries: Vec<_> = {
        use rand::prelude::*;
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        (0..n_queries)
            .map(|_| {
                let (_, _, s) = &corpus.shapes[rng.random_range(0..corpus.shapes.len())];
                geosir_imaging::synth::perturb(s, &mut rng, qdist)
            })
            .collect()
    };

    // exhaustive oracle per query: per-shape best symmetric h_avg over
    // every copy, then the K smallest — timed, as the speedup baseline
    let mut exact_us_total = 0u64;
    let mut oracle_topk: Vec<Vec<u64>> = Vec::with_capacity(queries.len());
    let mut best: Vec<f64> = vec![f64::INFINITY; n_shapes];
    let mut back: Option<PreparedShape> = None;
    for q in &queries {
        let (qn, _) = normalize_about_diameter(q).expect("query must normalize");
        let prep = PreparedShape::new(qn.shape);
        best.iter_mut().for_each(|b| *b = f64::INFINITY);
        let t = Instant::now();
        for (j, copy) in &oracle_copies {
            let s = score_with(ScoreKind::DiscreteSymmetric, copy, &prep, &mut back);
            let slot = &mut best[*j];
            if s < *slot {
                *slot = s;
            }
        }
        exact_us_total += t.elapsed().as_micros() as u64;
        let mut ranked: Vec<(f64, usize)> =
            best.iter().copied().enumerate().map(|(i, s)| (s, i)).collect();
        ranked.sort_by(|a, b| a.partial_cmp(b).unwrap());
        oracle_topk.push(ranked.iter().take(K).map(|&(_, i)| i as u64).collect());
    }
    let exact_us = exact_us_total / queries.len() as u64;
    println!("# oracle: exhaustive scan {} µs/query over {} copies", exact_us, n_copies);

    let mut scratch = MatcherScratch::new();
    let mut tmp = MatchOutcome::default();
    let mut ax = ApproxScratch::new();
    let mut stats = ApproxStats::default();
    let mut out: Vec<DynMatch> = Vec::new();

    println!("# approximate tier: recall@{K} / candidate reduction vs candidate budget");
    let widths = [10, 8, 11, 12, 12, 11, 10, 11];
    println!(
        "{}",
        row(
            &[
                "max_cand", "radius", "recall@10", "candidates", "reduction", "µs/query", "speedup",
                "fallbacks",
            ]
            .map(String::from),
            &widths
        )
    );

    let mut headline: Option<(f64, f64)> = None;
    // probe depth × candidate budget, shallow-and-cheap to deep-and-full.
    // Budgets on the deeper points are sized so the cascade, not the cap,
    // decides the candidate set — capped points sit on the latency edge
    // of the curve, uncapped ones on the recall edge.
    let big = n_copies; // effectively uncapped
    let points: &[(u16, usize)] = &[
        (1, 2048),
        (1, big),
        (2, 4096),
        (2, big),
        (3, 2048),
        (3, big),
        (4, big),
        (5, big),
        (8, big),
    ];
    for &(radius, max_cand) in points {
        let opts = ApproxOptions { k: K, max_radius: radius, max_candidates: max_cand };
        // warm-up pass so scratch growth doesn't bill the first budget
        for q in &queries {
            snap.similar_approx_with(&mut scratch, &mut tmp, &mut ax, q, &opts, &mut out, &mut stats);
        }
        let mut hit = 0usize;
        let mut cand_sum = 0u64;
        let mut red_sum = 0.0f64;
        let mut fallbacks = 0u64;
        let t = Instant::now();
        for (q, oracle) in queries.iter().zip(&oracle_topk) {
            snap.similar_approx_with(&mut scratch, &mut tmp, &mut ax, q, &opts, &mut out, &mut stats);
            hit += out.iter().filter(|m| oracle.contains(&m.shape.0)).count();
            cand_sum += stats.candidates;
            red_sum += stats.reduction();
            fallbacks += (stats.tier == geosir_core::AnswerTier::Exact) as u64;
        }
        let approx_us = (t.elapsed().as_micros() as u64) / queries.len() as u64;
        let recall = hit as f64 / (K * queries.len()) as f64;
        let avg_cand = cand_sum as f64 / queries.len() as f64;
        let avg_red = red_sum / queries.len() as f64;
        let speedup = exact_us as f64 / approx_us.max(1) as f64;
        println!(
            "{}",
            row(
                &[
                    format!("{max_cand}"),
                    format!("{}", opts.max_radius),
                    format!("{recall:.3}"),
                    format!("{avg_cand:.0}"),
                    format!("{avg_red:.1}x"),
                    format!("{approx_us}"),
                    format!("{speedup:.1}x"),
                    format!("{fallbacks}"),
                ],
                &widths
            )
        );
        // headline operating point: the highest-recall sweep point that
        // still reduces the candidate set ≥ 10×
        if avg_red >= 10.0 && headline.is_none_or(|(r, _)| recall > r) {
            headline = Some((recall, avg_red));
        }
    }

    let Some((h_recall, h_reduction)) = headline else {
        println!("FAIL: no sweep point reduces the candidate set 10x");
        std::process::exit(1);
    };
    println!("headline: recall@{K} {h_recall:.4} at {h_reduction:.2}x reduction (gate: >= 0.95)");
    if h_recall < 0.95 {
        println!("FAIL: headline recall@{K} {h_recall:.4} < 0.95");
        std::process::exit(1);
    }
}
