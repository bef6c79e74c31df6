//! §5.3–5.4: the two physical strategies for topological operators and
//! selectivity-ordered conjunct evaluation.
//!
//! Prints, per operator, the result size and work counters under plan 1
//! (seed the smaller similar set, walk graph edges) and plan 2 (compute
//! both sets, intersect images) — plus the planner's composite-query
//! behavior.
//!
//! ```sh
//! cargo run --release -p geosir-bench --bin query_plans -- --images 300
//! ```

use std::collections::HashMap;
use std::time::Instant;

use geosir_bench::{arg_usize, row};
use geosir_core::dynamic::DynamicBase;
use geosir_core::MatchConfig;
use geosir_imaging::synth::{generate, CorpusConfig};
use geosir_query::engine::{EngineConfig, QueryEngine, TopoStrategy};

fn main() {
    let images = arg_usize("--images", 300);
    let cfg = CorpusConfig { p_contained: 0.3, p_overlap: 0.3, ..CorpusConfig::small(images, 7) };
    let corpus = generate(&cfg);
    let mut db = DynamicBase::new(0.05, MatchConfig::default(), corpus.shapes.len());
    db.bulk_load(corpus.shapes.iter().map(|(image, _, s)| (*image, s.clone())));
    let base = db.snapshot();
    eprintln!("world: {} images, {} shapes", images, base.len());

    let mut bindings = HashMap::new();
    bindings.insert("a".to_string(), corpus.prototypes[0].clone());
    bindings.insert("b".to_string(), corpus.prototypes[1].clone());

    let ops = ["contain(a, b, any)", "overlap(a, b, any)", "disjoint(a, b, any)"];
    println!("# §5.3 — plan 1 (seed smaller) vs plan 2 (both sides)");
    let widths = [22, 8, 12, 12, 12, 12];
    println!(
        "{}",
        row(
            &["operator", "images", "p1_pairs", "p1_ms", "p2_pairs", "p2_ms"]
                .map(String::from),
            &widths
        )
    );
    for op in ops {
        let mut cells = vec![op.to_string()];
        let mut sizes = Vec::new();
        let mut measured: Vec<(u64, f64)> = Vec::new();
        for strategy in [TopoStrategy::SeedSmaller, TopoStrategy::BothSides] {
            let mut eng = QueryEngine::new(
                &base,
                EngineConfig { strategy, ..Default::default() },
            );
            let start = Instant::now();
            let result = eng.execute_str(op, &bindings).unwrap();
            let ms = start.elapsed().as_secs_f64() * 1e3;
            sizes.push(result.len());
            measured.push((eng.stats().pairs_tested, ms));
        }
        assert_eq!(sizes[0], sizes[1], "plans must agree");
        cells.push(sizes[0].to_string());
        for (pairs, ms) in measured {
            cells.push(pairs.to_string());
            cells.push(format!("{ms:.1}"));
        }
        println!("{}", row(&cells, &widths));
    }

    // composite queries: selectivity ordering & cache reuse
    println!();
    println!("# §5.4 — composite query evaluation");
    let composites = [
        "similar(a) & !overlap(a, b, any)",
        "(contain(a, b, any) | overlap(a, b, any)) & similar(b)",
        "!similar(a) & !similar(b)",
    ];
    for q in composites {
        let mut eng = QueryEngine::new(&base, EngineConfig::default());
        let start = Instant::now();
        let result = eng.execute_str(q, &bindings).unwrap();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let st = eng.stats();
        println!(
            "#   {q:<50} → {:>4} images, {} threshold queries, {} cached, {ms:.1} ms",
            result.len(),
            st.similar_evaluated,
            st.similar_cached
        );
    }
    println!("# paper: evaluate the operator with the smallest estimated");
    println!("# selectivity first; topological operators pick between the two");
    println!("# strategies by the same estimates.");
}
