//! A growing image base: inserts and deletes via the logarithmic method
//! (Bentley–Saxe levels over static shape bases), with retrieval staying
//! correct throughout.
//!
//! ```sh
//! cargo run --release --example dynamic_inserts
//! ```

use geosir::core::dynamic::DynamicBase;
use geosir::core::ids::ImageId;
use geosir::core::matcher::MatchConfig;
use geosir::imaging::synth::{perturb, random_simple_polygon};
use rand::prelude::*;
use rand::rngs::StdRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut db = DynamicBase::new(
        0.05,
        MatchConfig { k: 2, beta: 0.3, ..Default::default() },
        32,
    );

    // stream 500 shapes in, checkpointing retrieval quality
    let mut probes = Vec::new();
    for i in 0..500u32 {
        let n = rng.random_range(6usize..14);
        let shape = random_simple_polygon(&mut rng, n, 0.3);
        let id = db.insert(ImageId(i), shape.clone());
        if i % 100 == 0 {
            probes.push((id, shape));
        }
        if (i + 1) % 100 == 0 {
            println!(
                "after {:>3} inserts: {} live shapes in {} levels ({} shapes rebuilt so far)",
                i + 1,
                db.len(),
                db.num_levels(),
                db.shapes_rebuilt
            );
        }
    }

    // every checkpointed shape is still retrievable, even after cascades
    println!("\nretrieval checks:");
    let snap = db.snapshot();
    for (id, shape) in &probes {
        let noisy = perturb(shape, &mut rng, 0.01);
        let hits = snap.retrieve(&noisy, 0);
        let found = hits.iter().any(|m| m.shape == *id);
        println!("  shape {:?}: best score {:.4} — {}", id, hits[0].score,
            if found { "found" } else { "matched a sibling" });
    }

    // delete the first probe and confirm it vanishes from results
    let (victim, victim_shape) = probes[0].clone();
    assert!(db.delete(victim));
    let hits = db.snapshot().retrieve(&victim_shape, 0);
    assert!(hits.iter().all(|m| m.shape != victim), "deleted shape resurfaced");
    println!("\ndeleted {victim:?}; it no longer appears in results");
    println!("amortized rebuild factor: {:.1}× the insert count", db.shapes_rebuilt as f64 / 500.0);
    println!("\nOK");
}
