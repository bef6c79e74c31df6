//! Figure 7: "The average number of I/O operations per query for a test
//! set of 15 queries" — k = 1..10 best matches, 100-block (100 KB)
//! buffer, for the three §4.1 sort methods (plus the unsorted baseline).
//!
//! The paper's corpus: 10,000 images × ~5.5 shapes × ~10 copies. The
//! default here is 2,000 images (same ratios; pass `--images 10000` for
//! full scale — the shape of the curves is identical).
//!
//! ```sh
//! cargo run --release -p geosir-bench --bin fig7_io_per_k -- --images 2000
//! ```

use geosir_bench::{arg_usize, build_world, row};
use geosir_storage::LayoutPolicy;

fn main() {
    let images = arg_usize("--images", 2000);
    let world = build_world(images, 7);
    eprintln!(
        "world: {} images, {} shapes, {} copies ({} blocks ≈ {:.1} MB)",
        images,
        world.base.num_shapes(),
        world.base.num_copies(),
        world.base.num_copies() / 5,
        world.base.num_copies() as f64 * 0.2 / 1024.0
    );
    let queries = world.query_set();

    let policies = [
        ("unsorted", LayoutPolicy::Unsorted),
        ("mean(i)", LayoutPolicy::MeanCurve),
        ("lex(ii)", LayoutPolicy::Lexicographic),
        ("median(iii)", LayoutPolicy::MedianCurve),
    ];
    println!("# Figure 7 — avg I/Os per query vs k (buffer = 100 blocks)");
    let widths = [4, 10, 10, 10, 10];
    let header: Vec<String> = std::iter::once("k".to_string())
        .chain(policies.iter().map(|(n, _)| n.to_string()))
        .collect();
    println!("{}", row(&header, &widths));
    let stores: Vec<_> = policies.iter().map(|(_, p)| world.store(*p)).collect();
    for k in 1..=10 {
        let traces = world.traces(k, &queries);
        let mut cells = vec![k.to_string()];
        for store in &stores {
            let io = world.replay_avg_io(store, 100, &traces);
            cells.push(format!("{io:.1}"));
        }
        println!("{}", row(&cells, &widths));
    }
    println!("# paper: I/O grows with k; method (i) (mean curve) has the best");
    println!("# average I/O among the three sort orders.");
}
