//! Shared workload builders for the figure harnesses (`src/bin/*`) and the
//! Criterion micro-benchmarks (`benches/*`).
//!
//! Every harness prints the series of one paper figure as a plain table /
//! CSV so EXPERIMENTS.md can record paper-vs-measured side by side.

use geosir_core::hashing::{GeometricHash, Signature};
use geosir_core::ids::ImageId;
use geosir_core::matcher::{MatchConfig, Matcher};
use geosir_core::shapebase::ShapeBase;
use geosir_geom::{Point, Polyline};
use geosir_imaging::synth::{generate, random_simple_polygon, Corpus, CorpusConfig};
use geosir_storage::{BufferPool, LayoutPolicy, ShapeStore};
use rand::prelude::*;
use rand::rngs::StdRng;

/// The `scaling_polylog` corpus `phase_prof` profiles on: deterministic
/// (seed 5) simple polygons of 10–30 vertices with varied aspect ratio;
/// every `n/10`-th shape doubles as a near-exact query.
pub fn scaling_corpus(n_shapes: usize) -> (Vec<(ImageId, Polyline)>, Vec<Polyline>) {
    let mut rng = StdRng::seed_from_u64(5);
    let mut shapes = Vec::with_capacity(n_shapes);
    let mut queries = Vec::new();
    for i in 0..n_shapes {
        let n = rng.random_range(10..30);
        let poly = random_simple_polygon(&mut rng, n, 0.35);
        let stretch = rng.random_range(0.15..1.0);
        let shape = poly.map_points(|q| Point::new(q.x, q.y * stretch));
        if i % (n_shapes / 10).max(1) == 0 {
            queries.push(shape.clone());
        }
        shapes.push((ImageId(i as u32), shape));
    }
    (shapes, queries)
}

/// The standard experiment world: corpus, shape base, hash signatures.
pub struct World {
    pub corpus: Corpus,
    pub base: ShapeBase,
    pub signatures: Vec<Signature>,
}

/// Build the §4 experiment world at a given image count (the paper used
/// 10,000; the harnesses default lower and take `--images N`). Family
/// members carry graded vertex jitter (up to 4% of the diameter) — "the
/// same object boundary extracted from different photographs" — so each
/// query has matches at graded distances and similar shapes hash to
/// nearby curve quadruples, the correlation the §4 layouts exploit.
pub fn build_world(num_images: usize, seed: u64) -> World {
    let cfg = CorpusConfig { member_jitter: 0.04, ..CorpusConfig::small(num_images, seed) };
    let corpus = generate(&cfg);
    let base = corpus.build_base(0.05);
    let hash = GeometricHash::build(&base, 50);
    let signatures = base.copies().map(|(_, c)| hash.signature(&c.normalized)).collect();
    World { corpus, base, signatures }
}

impl World {
    /// The paper's "representative experiment set of 15 similarity
    /// queries": lightly distorted copies of stored shapes, so every query
    /// has genuine matches and the matcher's trace is dominated by the
    /// query's similarity neighborhood (the locality the §4 layouts
    /// exploit).
    pub fn query_set(&self) -> Vec<Polyline> {
        use geosir_imaging::synth::perturb;
        use rand::prelude::*;
        use rand::rngs::StdRng;
        let mut rng = StdRng::seed_from_u64(1234);
        let stride = (self.corpus.shapes.len() / 15).max(1);
        (0..15)
            .map(|i| {
                let (_, _, shape) = &self.corpus.shapes[(i * stride) % self.corpus.shapes.len()];
                // difficulty ramps across the set: near-exact sketches need
                // only a tiny envelope; heavily distorted ones sweep a wide
                // similarity neighborhood before certifying
                let distortion = 0.004 + 0.022 * (i as f64 / 14.0);
                perturb(shape, &mut rng, distortion)
            })
            .collect()
    }

    /// The matcher's record-access traces for `queries` at a given k.
    /// Traces depend on the matcher only, so harnesses compute them once
    /// and replay them against every layout. Two knobs match Figure 7's
    /// semantics: `certify_all` (the figure reports "the k best matches",
    /// so all k ranks are certified — ε, and hence I/O, grows with k) and
    /// a gentler ε growth (1.25×) so nearby k resolve to different
    /// envelopes instead of certifying in the same coarse iteration.
    pub fn traces(&self, k: usize, queries: &[Polyline]) -> Vec<Vec<geosir_core::CopyId>> {
        let matcher = Matcher::new(
            &self.base,
            MatchConfig {
                k,
                beta: 0.3,
                schedule: geosir_core::matcher::EpsSchedule::Geometric(1.25),
                certify_all: true,
                ..Default::default()
            },
        );
        queries.iter().map(|q| matcher.retrieve(q).access_trace).collect()
    }

    /// Persist under `policy` and replay `traces` through a fresh
    /// `buffer_blocks`-block LRU pool; returns average I/Os per trace.
    pub fn replay_avg_io(
        &self,
        store: &ShapeStore,
        buffer_blocks: usize,
        traces: &[Vec<geosir_core::CopyId>],
    ) -> f64 {
        let mut pool = BufferPool::new(buffer_blocks);
        let mut io = 0u64;
        for t in traces {
            io += store.replay_trace(&mut pool, t);
        }
        io as f64 / traces.len() as f64
    }

    /// Build the store for one policy.
    pub fn store(&self, policy: LayoutPolicy) -> ShapeStore {
        ShapeStore::build(&self.base, &self.signatures, policy)
    }
}

/// Parse `--images N` / `--seed N` style flags from `std::env::args`.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Render one table row with fixed-width columns.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds_and_replays() {
        let world = build_world(30, 9);
        assert!(world.base.num_copies() > 0);
        assert_eq!(world.signatures.len(), world.base.num_copies());
        let queries = world.query_set();
        assert_eq!(queries.len(), 15);
        let traces = world.traces(1, &queries[..3]);
        let io = world.replay_avg_io(&world.store(LayoutPolicy::MeanCurve), 10, &traces);
        assert!(io > 0.0);
    }

    #[test]
    fn arg_parsing_defaults() {
        assert_eq!(arg_usize("--definitely-not-passed", 42), 42);
    }
}
