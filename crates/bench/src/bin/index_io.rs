//! §4 end-to-end I/O: GeoSIR fully on disk — both the shape records *and*
//! the auxiliary range-search structure live in 1 KB blocks behind LRU
//! pools, and a query's total I/O is index fetches + record fetches.
//!
//! The paper stores "the shape base and ... the auxiliary geometric data
//! structures used by the algorithm" externally; Figures 7/8 report the
//! record side. This harness adds the index side: the matcher's triangle
//! trace is replayed against the external-memory vertex index.
//!
//! ```sh
//! cargo run --release -p geosir-bench --bin index_io -- --images 500
//! ```

use geosir_bench::{arg_usize, build_world, row};
use geosir_core::matcher::{MatchConfig, Matcher};
use geosir_storage::{BufferPool, ExternalVertexIndex, LayoutPolicy};

fn main() {
    let images = arg_usize("--images", 500);
    let world = build_world(images, 7);
    // the external index over the same pooled vertices the matcher sees
    let pts: Vec<geosir_geom::Point> =
        (0..world.base.total_vertices() as u32).map(|v| world.base.vertex_point(v)).collect();
    let ext = ExternalVertexIndex::build(&pts);
    eprintln!(
        "world: {} copies, {} pooled vertices → {} index blocks + {} record blocks",
        world.base.num_copies(),
        pts.len(),
        ext.num_blocks(),
        world.base.num_copies() / 5
    );

    let queries = world.query_set();
    let matcher =
        Matcher::new(&world.base, MatchConfig { k: 2, beta: 0.3, ..Default::default() });
    let store = world.store(LayoutPolicy::MeanCurve);

    println!("# §4 — per-query I/O with index AND records on disk (k = 2)");
    let widths = [6, 10, 10, 10, 12, 10];
    println!(
        "{}",
        row(&["query", "triangles", "index_io", "record_io", "total_io", "K"].map(String::from), &widths)
    );
    let mut index_pool = BufferPool::new(100);
    let mut record_pool = BufferPool::new(100);
    let mut totals = (0u64, 0u64);
    for (i, q) in queries.iter().enumerate() {
        let out = matcher.retrieve(q);
        let mut sink = Vec::new();
        let mut index_io = 0u64;
        for tri in &out.triangle_trace {
            sink.clear();
            index_io += ext.report_triangle(&mut index_pool, tri, &mut sink);
        }
        let record_io = store.replay_trace(&mut record_pool, &out.access_trace);
        totals.0 += index_io;
        totals.1 += record_io;
        println!(
            "{}",
            row(
                &[
                    i.to_string(),
                    out.triangle_trace.len().to_string(),
                    index_io.to_string(),
                    record_io.to_string(),
                    (index_io + record_io).to_string(),
                    out.stats.vertices_processed.to_string(),
                ],
                &widths
            )
        );
    }
    println!(
        "# avg per query: {:.1} index I/Os + {:.1} record I/Os",
        totals.0 as f64 / queries.len() as f64,
        totals.1 as f64 / queries.len() as f64
    );
    println!("# the index side is amortized by the LRU pool: envelope rings of");
    println!("# successive iterations revisit the same leaf neighborhoods.");
}
