//! Property tests for the router's scatter-gather merge.
//!
//! Two layers:
//!
//! 1. **Pure merge**: [`merge_topk`] against a reference sort over the
//!    tagged union, for arbitrary per-shard reply sets — ordering,
//!    truncation, and id tagging hold for any input.
//! 2. **Partition parity**: splitting a shape base across shards and
//!    merging per-shard top-k is bit-identical to retrieving from the
//!    single-node union base — for arbitrary partitions, arbitrary
//!    delete subsets (tombstoned and still-buffered shapes alike), both
//!    the exact tier and the approximate tier at unbounded budgets.
//!    Scores must match to the bit: every shard scores its shapes with
//!    the same deterministic kernel the union base uses, so sharding
//!    may only change *which node* computes a score, never its value.

mod common;

use common::polygon;

use geosir_core::matcher::MatchConfig;
use geosir_core::{ApproxOptions, DynamicBase, ImageId};
use geosir_geom::Polyline;
use geosir_serve::cluster::{merge_topk, tag_id, untag_id};
use geosir_serve::wire::WireMatch;
use proptest::prelude::*;
use rand::prelude::*;
use rand::rngs::StdRng;

/// Reference merge: tag every match with its shard, globally sort by
/// (score, image, tagged id), truncate.
fn reference_merge(k: usize, per_shard: &[(u16, Vec<WireMatch>)]) -> Vec<WireMatch> {
    let mut all: Vec<WireMatch> = per_shard
        .iter()
        .flat_map(|(shard, ms)| {
            ms.iter().map(|m| WireMatch {
                shape: tag_id(*shard, m.shape),
                image: m.image,
                score: m.score,
            })
        })
        .collect();
    all.sort_by(|a, b| {
        a.score
            .partial_cmp(&b.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.image.cmp(&b.image))
            .then(a.shape.cmp(&b.shape))
    });
    all.truncate(k);
    all
}

/// Arbitrary per-shard replies. Scores draw from a small lattice so
/// exact ties (and the image/id tie-breaks) actually occur.
fn arb_per_shard(rng: &mut StdRng) -> Vec<(u16, Vec<WireMatch>)> {
    let shards = rng.random_range(1..6usize);
    (0..shards)
        .map(|s| {
            let n = rng.random_range(0..12usize);
            let ms = (0..n)
                .map(|_| WireMatch {
                    shape: rng.random_range(0..1u64 << 48),
                    image: rng.random_range(0..64u32),
                    score: rng.random_range(0..64u32) as f64 * 0.125,
                })
                .collect();
            (s as u16, ms)
        })
        .collect()
}

proptest! {
    #[test]
    fn merge_matches_reference_sort(seed in 0u64..u64::MAX, k in 0usize..40) {
        let mut rng = StdRng::seed_from_u64(seed);
        let per_shard = arb_per_shard(&mut rng);
        let merged = merge_topk(k, &per_shard);
        let want = reference_merge(k, &per_shard);
        let total: usize = per_shard.iter().map(|(_, m)| m.len()).sum();
        prop_assert_eq!(merged.len(), k.min(total));
        prop_assert_eq!(
            merged.iter().map(|m| (m.shape, m.image, m.score.to_bits())).collect::<Vec<_>>(),
            want.iter().map(|m| (m.shape, m.image, m.score.to_bits())).collect::<Vec<_>>()
        );
        // ascending scores, and every merged id untags to a real shard
        for w in merged.windows(2) {
            prop_assert!(w[0].score <= w[1].score);
        }
        let max_shard = per_shard.len() as u16;
        for m in &merged {
            let (shard, _local) = untag_id(m.shape);
            prop_assert!(shard < max_shard);
        }
    }
}

fn base(buffer_cap: usize) -> DynamicBase {
    // certify_all: with the default best-effort rule ranks 2..k depend on
    // which other shapes share the node, so only exact top-k is a lawful
    // partition-parity oracle. log_power 30 keeps the ε-cap from binding:
    // the cap scales with base size (p copies, n vertices), so a binding
    // cap admits shapes on a small shard that the union base rejects.
    DynamicBase::new(
        0.0,
        MatchConfig { k: 64, beta: 0.2, certify_all: true, log_power: 30, ..Default::default() },
        buffer_cap,
    )
}

proptest! {
    #[test]
    fn sharded_retrieval_is_bit_identical_to_union(
        seed in 0u64..u64::MAX,
        shards in 1usize..5,
        n in 8usize..24,
        k in 1usize..20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shapes: Vec<Polyline> = (0..n).map(|_| polygon(&mut rng)).collect();
        let query = polygon(&mut rng);

        // buffer_cap 4 leaves some shards with buffered shapes while
        // others cascade into levels — the merge must not care
        let mut union = base(4);
        let mut parts: Vec<DynamicBase> = (0..shards).map(|_| base(4)).collect();
        // (union id, shard, local id) per shape, for the delete pass
        let mut placed = Vec::new();
        for (i, s) in shapes.iter().enumerate() {
            let owner = rng.random_range(0..shards);
            let uid = union.insert(ImageId(i as u32), s.clone());
            let lid = parts[owner].insert(ImageId(i as u32), s.clone());
            placed.push((uid, owner, lid));
        }
        // delete an arbitrary subset — some victims still sit in insert
        // buffers, some are tombstoned inside levels
        let mut live = n;
        for (uid, owner, lid) in &placed {
            if live > 1 && rng.random_bool(0.3) {
                prop_assert!(union.delete(*uid));
                prop_assert!(parts[*owner].delete(*lid));
                live -= 1;
            }
        }
        prop_assert_eq!(union.len(), live);
        prop_assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), live);

        // exact tier
        let want = union.snapshot().retrieve(&query, k);
        let per_shard: Vec<(u16, Vec<WireMatch>)> = parts
            .iter()
            .enumerate()
            .map(|(s, p)| {
                let ms = p
                    .snapshot()
                    .retrieve(&query, k)
                    .into_iter()
                    .map(|m| WireMatch { shape: m.shape.0, image: m.image.0, score: m.score })
                    .collect();
                (s as u16, ms)
            })
            .collect();
        let merged = merge_topk(k, &per_shard);
        prop_assert_eq!(merged.len(), want.len());
        prop_assert_eq!(
            merged.iter().map(|m| (m.image, m.score.to_bits())).collect::<Vec<_>>(),
            want.iter().map(|m| (m.image.0, m.score.to_bits())).collect::<Vec<_>>(),
            "exact merge diverged from union oracle"
        );

        // approximate tier at unbounded budgets: every copy is a
        // candidate on every node, so recall is exact and partitioning
        // cannot change the answer
        let opts = ApproxOptions { k, max_radius: u16::MAX, max_candidates: usize::MAX };
        let (want_ax, _) = union.snapshot().similar_approx(&query, &opts);
        let per_shard_ax: Vec<(u16, Vec<WireMatch>)> = parts
            .iter()
            .enumerate()
            .map(|(s, p)| {
                let (ms, _) = p.snapshot().similar_approx(&query, &opts);
                let ms = ms
                    .into_iter()
                    .map(|m| WireMatch { shape: m.shape.0, image: m.image.0, score: m.score })
                    .collect();
                (s as u16, ms)
            })
            .collect();
        let merged_ax = merge_topk(k, &per_shard_ax);
        prop_assert_eq!(merged_ax.len(), want_ax.len());
        prop_assert_eq!(
            merged_ax.iter().map(|m| (m.image, m.score.to_bits())).collect::<Vec<_>>(),
            want_ax.iter().map(|m| (m.image.0, m.score.to_bits())).collect::<Vec<_>>(),
            "approx merge diverged from union oracle at unbounded budgets"
        );
    }
}
