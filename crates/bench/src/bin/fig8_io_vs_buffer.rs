//! Figure 8: "The average number of I/O operations per query for varying
//! buffer size" — k = 2, buffer 1..100 blocks (1 KB .. 100 KB), for the
//! three §4.1 sort methods.
//!
//! ```sh
//! cargo run --release -p geosir-bench --bin fig8_io_vs_buffer -- --images 2000
//! ```

use geosir_bench::{arg_usize, build_world, row};
use geosir_storage::LayoutPolicy;

fn main() {
    let images = arg_usize("--images", 2000);
    let world = build_world(images, 7);
    eprintln!(
        "world: {} images, {} copies, {} queries",
        images,
        world.base.num_copies(),
        15
    );
    let queries = world.query_set();

    let policies = [
        ("mean(i)", LayoutPolicy::MeanCurve),
        ("lex(ii)", LayoutPolicy::Lexicographic),
        ("median(iii)", LayoutPolicy::MedianCurve),
    ];
    println!("# Figure 8 — avg I/Os per query vs buffer size (k = 2)");
    let widths = [8, 10, 10, 10];
    let header: Vec<String> = std::iter::once("blocks".to_string())
        .chain(policies.iter().map(|(n, _)| n.to_string()))
        .collect();
    println!("{}", row(&header, &widths));
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); policies.len()];
    let buffer_sizes = [1usize, 2, 5, 10, 20, 40, 60, 80, 100];
    let stores: Vec<_> = policies.iter().map(|(_, p)| world.store(*p)).collect();
    let traces = world.traces(2, &queries);
    for &b in &buffer_sizes {
        let mut cells = vec![b.to_string()];
        for (i, store) in stores.iter().enumerate() {
            let io = world.replay_avg_io(store, b, &traces);
            series[i].push(io);
            cells.push(format!("{io:.1}"));
        }
        println!("{}", row(&cells, &widths));
    }
    // "stabilizes faster": buffer size after which the curve is within 10%
    // of its final value
    println!("# stabilization point (first buffer size within 10% of the value at 100):");
    for (i, (name, _)) in policies.iter().enumerate() {
        let last = *series[i].last().unwrap();
        let stable_at = buffer_sizes
            .iter()
            .zip(&series[i])
            .find(|(_, &v)| v <= last * 1.1)
            .map(|(&b, _)| b)
            .unwrap_or(100);
        println!("#   {name}: {stable_at} blocks");
    }
    println!("# paper: the median method (iii) stabilizes faster — locality is");
    println!("# preserved better, so a small buffer already captures it.");
}
