//! §4.2: "local optimization of the average measure" — the greedy
//! per-block layout vs the best §4.1 sort method. The paper reports ~30%
//! fewer I/Os, with a costlier rehash (O(N^1.5 log N) vs O(N log N)).
//!
//! Greedy placement is quadratic-ish, so the default scale is smaller;
//! pass `--images N` to push it.
//!
//! ```sh
//! cargo run --release -p geosir-bench --bin sec42_local_opt -- --images 400
//! ```

use geosir_bench::{arg_usize, build_world, row};
use geosir_storage::layout::rehash_cost;
use geosir_storage::LayoutPolicy;

fn main() {
    let images = arg_usize("--images", 400);
    let world = build_world(images, 7);
    eprintln!("world: {} images, {} copies", images, world.base.num_copies());
    let queries = world.query_set();

    let policies = [
        ("mean(i)", LayoutPolicy::MeanCurve),
        ("lex(ii)", LayoutPolicy::Lexicographic),
        ("median(iii)", LayoutPolicy::MedianCurve),
        ("local-opt", LayoutPolicy::local_opt_default()),
    ];
    println!("# §4.2 — local optimization vs the sort methods");
    let widths = [12, 10, 10, 10, 14];
    println!(
        "{}",
        row(
            &["layout", "k=1", "k=2", "k=10", "rehash cost".to_string().as_str()]
                .map(String::from),
            &widths
        )
    );
    let traces1 = world.traces(1, &queries);
    let traces2 = world.traces(2, &queries);
    let traces10 = world.traces(10, &queries);
    let mut results: Vec<(String, [f64; 3])> = Vec::new();
    for (name, policy) in policies {
        let store = world.store(policy);
        let io1 = world.replay_avg_io(&store, 100, &traces1);
        let io2 = world.replay_avg_io(&store, 100, &traces2);
        let io10 = world.replay_avg_io(&store, 100, &traces10);
        println!(
            "{}",
            row(
                &[
                    name.to_string(),
                    format!("{io1:.1}"),
                    format!("{io2:.1}"),
                    format!("{io10:.1}"),
                    format!("{:.2e}", rehash_cost(policy, world.base.num_copies())),
                ],
                &widths
            )
        );
        results.push((name.to_string(), [io1, io2, io10]));
    }
    let best_sort: f64 = results[..3]
        .iter()
        .map(|(_, ios)| ios[1])
        .fold(f64::INFINITY, f64::min);
    let local = results[3].1[1];
    println!(
        "# local-opt vs best sort at k = 2: {:+.1}% I/Os",
        (local - best_sort) / best_sort * 100.0
    );
    println!("# paper: local optimization ≈ 30% better than the best sort method,");
    println!("# at a rehash cost of O(N^1.5 log N) instead of O(N log N).");
}
