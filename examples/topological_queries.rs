//! Topological query processing (§5) over a corpus with planted pairwise
//! relations: the query language, both physical plans, and the adaptive
//! selectivity estimator.
//!
//! ```sh
//! cargo run --release --example topological_queries
//! ```

use std::collections::HashMap;

use geosir::core::dynamic::DynamicBase;
use geosir::core::MatchConfig;
use geosir::imaging::synth::{generate, CorpusConfig};
use geosir::query::engine::{EngineConfig, QueryEngine, TopoStrategy};

fn main() {
    // corpus with contain/overlap pairs planted by the scene composer
    let cfg = CorpusConfig { p_contained: 0.3, p_overlap: 0.3, ..CorpusConfig::small(80, 7) };
    let corpus = generate(&cfg);
    let mut db = DynamicBase::new(0.05, MatchConfig::default(), corpus.shapes.len());
    db.bulk_load(corpus.shapes.iter().map(|(image, _, s)| (*image, s.clone())));
    let base = db.snapshot();
    println!(
        "corpus: {} images, {} shapes, {} normalized copies",
        corpus.num_images(),
        base.len(),
        base.total_copies()
    );

    // bind two family prototypes as the query shapes
    let mut bindings = HashMap::new();
    bindings.insert("a".to_string(), corpus.prototypes[0].clone());
    bindings.insert("b".to_string(), corpus.prototypes[1].clone());

    let queries = [
        "similar(a)",
        "similar(b)",
        "contain(a, b, any)",
        "overlap(a, b, any)",
        "disjoint(a, b, any)",
        "similar(a) & !overlap(a, b, any)",
        "(contain(a, b, any) | overlap(a, b, any)) & similar(b)",
    ];

    let mut engine = QueryEngine::new(&base, EngineConfig::default());
    println!("\n{:<55} {:>8} {:>10}", "query", "images", "est. sel.");
    for q in queries {
        let est = engine.estimator().estimate_shape(&corpus.prototypes[0]);
        let result = engine.execute_str(q, &bindings).unwrap();
        println!("{q:<55} {:>8} {est:>10.1}", result.len());
    }
    let stats = engine.stats();
    println!(
        "\nengine stats: {} threshold queries, {} cache hits, plan1 × {}, plan2 × {}, {} pairs tested",
        stats.similar_evaluated,
        stats.similar_cached,
        stats.plan1_used,
        stats.plan2_used,
        stats.pairs_tested
    );
    println!(
        "selectivity constant adapted over {} observations: c = {:.2}",
        engine.estimator().observations(),
        engine.estimator().c()
    );

    // the two physical plans of §5.3 agree
    println!("\nplan agreement check (§5.3):");
    for q in ["contain(a, b, any)", "overlap(a, b, any)", "disjoint(a, b, any)"] {
        let mut e1 = QueryEngine::new(
            &base,
            EngineConfig { strategy: TopoStrategy::SeedSmaller, ..Default::default() },
        );
        let mut e2 = QueryEngine::new(
            &base,
            EngineConfig { strategy: TopoStrategy::BothSides, ..Default::default() },
        );
        let r1 = e1.execute_str(q, &bindings).unwrap();
        let r2 = e2.execute_str(q, &bindings).unwrap();
        assert_eq!(r1, r2, "plans disagree on {q}");
        println!("  {q:<30} plan1 = plan2 = {} images", r1.len());
    }
    println!("\nOK");
}
