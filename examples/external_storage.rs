//! External storage walk-through (§4): persist a shape base under each
//! placement policy and compare the I/O cost of real retrieval traces.
//!
//! ```sh
//! cargo run --release --example external_storage
//! ```

use geosir::core::hashing::GeometricHash;
use geosir::core::matcher::{MatchConfig, Matcher};
use geosir::imaging::synth::{generate, CorpusConfig};
use geosir::storage::{BufferPool, LayoutPolicy, ShapeStore};

fn main() {
    let corpus = generate(&CorpusConfig::small(150, 11));
    let base = corpus.build_base(0.05);
    let hash = GeometricHash::build(&base, 50);
    let signatures: Vec<_> = base.copies().map(|(_, c)| hash.signature(&c.normalized)).collect();
    println!(
        "corpus: {} shapes → {} copies; avg bucket size {:.1}",
        base.num_shapes(),
        base.num_copies(),
        hash.avg_bucket_size()
    );

    // real access traces from the matcher, one per query
    let matcher = Matcher::new(&base, MatchConfig { k: 2, beta: 0.3, ..Default::default() });
    let queries = corpus.queries(15, 0.05, 33);
    let traces: Vec<Vec<_>> = queries.iter().map(|q| matcher.retrieve(q).access_trace).collect();
    let total_accesses: usize = traces.iter().map(Vec::len).sum();
    println!("15 queries produced {total_accesses} record accesses\n");

    println!("{:<18} {:>8} {:>12} {:>14}", "layout", "blocks", "I/O (cold)", "I/O per query");
    for policy in [
        LayoutPolicy::Unsorted,
        LayoutPolicy::MeanCurve,
        LayoutPolicy::Lexicographic,
        LayoutPolicy::MedianCurve,
        LayoutPolicy::local_opt_default(),
    ] {
        let store = ShapeStore::build(&base, &signatures, policy);
        // the paper's setup: a 100-block (100 KB) internal buffer
        let mut pool = BufferPool::new(100);
        let mut io = 0u64;
        for t in &traces {
            io += store.replay_trace(&mut pool, t);
        }
        println!(
            "{:<18} {:>8} {:>12} {:>14.1}",
            policy_name(policy),
            store.num_blocks(),
            io,
            io as f64 / traces.len() as f64
        );
    }
    println!(
        "\n(lower is better; at this toy scale the ordering is noisy — \
         crates/bench/src/bin/fig7_io_per_k.rs runs the paper-scale version)"
    );
}

fn policy_name(p: LayoutPolicy) -> &'static str {
    match p {
        LayoutPolicy::Unsorted => "unsorted",
        LayoutPolicy::MeanCurve => "mean-curve (i)",
        LayoutPolicy::Lexicographic => "lexicographic (ii)",
        LayoutPolicy::MedianCurve => "median-curve (iii)",
        LayoutPolicy::LocalOpt { .. } => "local-opt (§4.2)",
    }
}
