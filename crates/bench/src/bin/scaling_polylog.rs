//! §2.5: the matching algorithm's complexity claim — expected
//! polylogarithmic time in the total number of shape-base vertices
//! (≤ O(log⁴ n); "experimental results indicate the actual time complexity
//! is much better").
//!
//! Sweeps the base size under the analysis' uniformity assumption
//! (distinct shapes of varied aspect ratio), runs near-exact queries, and
//! prints work counters + wall time per query, next to log₂n powers for
//! comparison.
//!
//! ```sh
//! cargo run --release -p geosir-bench --bin scaling_polylog
//! ```

use geosir_bench::row;
use geosir_core::dynamic::{DynamicBase, RetrieveStats};
use geosir_core::ids::ImageId;
use geosir_core::matcher::{MatchConfig, MatchOutcome, Matcher};
use geosir_core::shapebase::ShapeBaseBuilder;
use geosir_geom::rangesearch::Backend;
use geosir_geom::{Point, Polyline};
use geosir_core::scratch::MatcherScratch;
use geosir_imaging::synth::{generate, random_simple_polygon, CorpusConfig};
use rand::prelude::*;
use rand::rngs::StdRng;
use std::time::Instant;

fn main() {
    println!("# §2.5 — matcher work vs base size (near-exact queries)");
    let widths = [9, 10, 8, 8, 10, 10, 9, 9, 11];
    println!(
        "{}",
        row(
            &["n_vert", "copies", "iters", "K", "reported", "µs/query", "log2n", "log2^4n", "backend"]
                .map(String::from),
            &widths
        )
    );
    for &n_shapes in &[100usize, 400, 1600, 6400, 25600] {
      for backend in [Backend::RangeTree, Backend::KdTree] {
        let mut rng = StdRng::seed_from_u64(5);
        let mut builder = ShapeBaseBuilder::new();
        let mut queries: Vec<Polyline> = Vec::new();
        for i in 0..n_shapes {
            let n = rng.random_range(10..30);
            let poly = random_simple_polygon(&mut rng, n, 0.35);
            let stretch = rng.random_range(0.15..1.0);
            let shape = poly.map_points(|q| Point::new(q.x, q.y * stretch));
            if i % (n_shapes / 10) == 0 && queries.len() < 10 {
                queries.push(shape.clone());
            }
            builder.add_shape(ImageId(i as u32), shape);
        }
        let base = builder.build(0.0, backend);
        let matcher = Matcher::new(&base, MatchConfig { beta: 0.2, ..Default::default() });
        let mut iters = 0usize;
        let mut k_total = 0usize;
        let mut reported = 0usize;
        let start = Instant::now();
        for q in &queries {
            let out = matcher.retrieve(q);
            assert!(out.best().is_some());
            iters += out.stats.iterations;
            k_total += out.stats.vertices_processed;
            reported += out.stats.vertices_reported;
        }
        let us = start.elapsed().as_micros() as f64 / queries.len() as f64;
        let nq = queries.len() as f64;
        let n = base.total_vertices() as f64;
        println!(
            "{}",
            row(
                &[
                    format!("{}", base.total_vertices()),
                    format!("{}", base.num_copies()),
                    format!("{:.1}", iters as f64 / nq),
                    format!("{:.0}", k_total as f64 / nq),
                    format!("{:.0}", reported as f64 / nq),
                    format!("{us:.0}"),
                    format!("{:.1}", n.log2()),
                    format!("{:.0}", n.log2().powi(4)),
                    format!("{backend:?}"),
                ],
                &widths
            )
        );
      }
    }
    canonical_corpus();
    println!("# paper: expected time ≤ O(log⁴ n) — under the *near-quadratic-space*");
    println!("# simplex structures it cites. K and `reported` (the algorithmic work)");
    println!("# are flat here; wall time grows ≈ √n, the known lower bound for");
    println!("# simplex range searching with (near-)linear space (see DESIGN.md).");
}

/// The canonical benchmark's `exact_sketch` corpus and query set
/// (`benchmark/src/workload.rs`: `CorpusConfig::small(200, 1)`, 100
/// sketches at 2 % distortion, k = 10, β = 0.2): clustered families and
/// distorted queries, so the final envelope holds a large share of the
/// pool — the regime where cost per *reported* vertex decides, not
/// pruning. The static matcher's incremental top-k loop (rank 1
/// certified) per backend, then the served path once (`Snapshot`: the
/// hash tier's k-th score is the cutoff every copy is scanned against,
/// all k ranks exact — no index, so no backend). Warm scratch, best of
/// four passes.
fn canonical_corpus() {
    println!("# canonical exact_sketch corpus (k = 10, 100 sketches, warm scratch)");
    let corpus = generate(&CorpusConfig::small(200, 1));
    let sketches = corpus.queries(100, 0.02, 1);
    let config = MatchConfig { k: 10, beta: 0.2, ..Default::default() };
    let mut scratch = MatcherScratch::new();
    let mut out = MatchOutcome::default();
    // (best ms/query, `run`'s count per query)
    let best_of_four = |run: &mut dyn FnMut(&Polyline) -> usize| {
        let (mut best_ms, mut count) = (f64::INFINITY, 0usize);
        for _ in 0..4 {
            let start = Instant::now();
            count = sketches.iter().map(&mut *run).sum();
            best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3 / sketches.len() as f64);
        }
        (best_ms, count / sketches.len())
    };
    for backend in [Backend::RangeTree, Backend::KdTree] {
        let base = corpus.build_base(0.0, backend);
        let matcher = Matcher::new(&base, config.clone());
        let (ms, reported) = best_of_four(&mut |q| {
            matcher.retrieve_with(&mut scratch, q, &mut out);
            out.stats.vertices_reported
        });
        println!(
            "{:>9} vertices  {reported:>6} reported/query  {ms:>7.2} ms/query  {backend:?}  Matcher top-k",
            base.total_vertices(),
        );
    }
    let mut dynamic = DynamicBase::new(0.0, config, 512);
    dynamic.bulk_load(corpus.shapes.iter().map(|(image, _, s)| (*image, s.clone())));
    let snapshot = dynamic.snapshot();
    let (mut hits, mut stats) = (Vec::new(), RetrieveStats::default());
    let (ms, scanned) = best_of_four(&mut |q| {
        snapshot.retrieve_with_stats(&mut scratch, &mut out, q, 10, &mut hits, &mut stats);
        stats.scan_copies as usize
    });
    println!(
        "{:>9} copies    {scanned:>6} scanned/query   {ms:>7.2} ms/query  Snapshot seeded (no index)",
        snapshot.total_copies(),
    );
}
