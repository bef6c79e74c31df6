//! Disk placement policies for the shape base (§4.1–4.2).
//!
//! The matcher preserves locality — shapes processed successively are
//! usually similar — so the goal is to store similar shapes in adjacent
//! blocks. §4.1 sorts by the characteristic hashing quadruple in three
//! ways; §4.2 instead greedily packs each block to minimize the average
//! similarity measure among its residents.

use geosir_core::hashing::Signature;
use geosir_core::ids::CopyId;
use geosir_core::shapebase::ShapeBase;
use geosir_geom::Polyline;

/// Which §4 placement policy to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutPolicy {
    /// §4.1 method (i): sort by the rounded mean of the quadruple.
    MeanCurve,
    /// §4.1 method (ii): lexicographic order of the quadruple.
    Lexicographic,
    /// §4.1 method (iii): sort by the median element closest to the mean.
    MedianCurve,
    /// §4.2: greedy local optimization of the average measure per block.
    LocalOpt {
        /// Records per block (the paper's corpus averages 5).
        block_capacity: usize,
        /// Candidate window examined per placement (bounds the `O(N^1.5)`
        /// work; candidates are taken from the mean-curve order).
        window: usize,
    },
    /// Baseline: insertion order (what a layout-unaware system would do).
    Unsorted,
}

impl LayoutPolicy {
    /// The §4.2 policy with the paper-scale defaults.
    pub fn local_opt_default() -> Self {
        LayoutPolicy::LocalOpt { block_capacity: 5, window: 48 }
    }
}

/// §4.1 method (i) key: `round((c1+c2+c3+c4)/4)`.
fn mean_curve(sig: &Signature) -> u16 {
    let s: u32 = sig.0.iter().map(|&c| c as u32).sum();
    ((s as f64) / 4.0).round() as u16
}

/// §4.1 method (iii) key: sort the quadruple, take the two medians, pick
/// the one closest to the mean of all four.
fn median_curve(sig: &Signature) -> u16 {
    let mut s = sig.0;
    s.sort_unstable();
    let mean = s.iter().map(|&c| c as f64).sum::<f64>() / 4.0;
    let (m1, m2) = (s[1], s[2]);
    if (m1 as f64 - mean).abs() <= (m2 as f64 - mean).abs() {
        m1
    } else {
        m2
    }
}

/// Compute the storage order of all copies under `policy`.
///
/// `signatures[cid]` must hold each copy's hash signature (as produced by
/// [`geosir_core::hashing::GeometricHash`]).
pub fn order_copies(
    base: &ShapeBase,
    signatures: &[Signature],
    policy: LayoutPolicy,
) -> Vec<CopyId> {
    assert_eq!(signatures.len(), base.num_copies(), "one signature per copy");
    let mut ids: Vec<CopyId> = (0..base.num_copies() as u32).map(CopyId).collect();
    match policy {
        LayoutPolicy::Unsorted => ids,
        // All sorts refine ties with the full quadruple so that copies with
        // identical or near-identical signatures (the similar shapes the
        // matcher visits together) end up in the same blocks.
        LayoutPolicy::MeanCurve => {
            ids.sort_by_key(|c| {
                (mean_curve(&signatures[c.index()]), signatures[c.index()].0, c.0)
            });
            ids
        }
        LayoutPolicy::Lexicographic => {
            ids.sort_by_key(|c| (signatures[c.index()].0, c.0));
            ids
        }
        LayoutPolicy::MedianCurve => {
            ids.sort_by_key(|c| {
                (median_curve(&signatures[c.index()]), signatures[c.index()].0, c.0)
            });
            ids
        }
        LayoutPolicy::LocalOpt { block_capacity, window } => {
            local_opt_order(base, signatures, block_capacity, window)
        }
    }
}

/// Discrete symmetric average-min-distance between two small normalized
/// shapes, brute force (~20 vertices ⇒ cheaper than building indexes).
fn copy_dist(a: &Polyline, b: &Polyline) -> f64 {
    let fwd: f64 =
        a.points().iter().map(|&p| b.dist_to_point(p)).sum::<f64>() / a.num_vertices() as f64;
    let back: f64 =
        b.points().iter().map(|&p| a.dist_to_point(p)).sum::<f64>() / b.num_vertices() as f64;
    fwd.max(back)
}

/// §4.2 greedy placement. Copies are pre-sorted by mean curve; each
/// placement examines the next `window` unplaced copies (a doubly-linked
/// list over the sorted order gives O(1) removal) and picks the one
/// minimizing the average measure to the shapes already in the block. The
/// first shape of each new block minimizes the average distance to the
/// first shapes of the previous five blocks.
fn local_opt_order(
    base: &ShapeBase,
    signatures: &[Signature],
    block_capacity: usize,
    window: usize,
) -> Vec<CopyId> {
    assert!(block_capacity >= 1 && window >= 1);
    let n = base.num_copies();
    let mut sorted: Vec<CopyId> = (0..n as u32).map(CopyId).collect();
    sorted.sort_by_key(|c| (mean_curve(&signatures[c.index()]), signatures[c.index()].0, c.0));

    // linked list over `sorted` positions
    let mut next: Vec<usize> = (1..=n).collect();
    let mut prev: Vec<usize> = (0..n).map(|i| i.wrapping_sub(1)).collect();
    let mut head = 0usize; // first unplaced position, n = end
    let remove = |pos: usize, head: &mut usize, next: &mut [usize], prev: &mut [usize]| {
        let (p, nx) = (prev[pos], next[pos]);
        if pos == *head {
            *head = nx;
        } else {
            next[p] = nx;
        }
        if nx < n {
            prev[nx] = p;
        }
    };

    let shape_of = |c: CopyId| &base.copy(c).normalized;
    let mut order: Vec<CopyId> = Vec::with_capacity(n);
    let mut block_first: Vec<CopyId> = Vec::new(); // first copy of each block

    while head < n {
        // --- first shape of the block ---
        let first_pos = if block_first.is_empty() {
            // heuristic rule for the very first shape: the head of the
            // mean-curve order
            head
        } else {
            // minimize average distance to the first shapes of the
            // previous (up to) five blocks
            let anchors: Vec<&Polyline> = block_first
                .iter()
                .rev()
                .take(5)
                .map(|&c| shape_of(c))
                .collect();
            let mut best = (head, f64::INFINITY);
            let mut pos = head;
            for _ in 0..window {
                if pos >= n {
                    break;
                }
                let cand = shape_of(sorted[pos]);
                let d: f64 =
                    anchors.iter().map(|a| copy_dist(cand, a)).sum::<f64>() / anchors.len() as f64;
                if d < best.1 {
                    best = (pos, d);
                }
                pos = next[pos];
            }
            best.0
        };
        let first = sorted[first_pos];
        remove(first_pos, &mut head, &mut next, &mut prev);
        order.push(first);
        block_first.push(first);

        // --- fill the rest of the block ---
        let mut members: Vec<CopyId> = vec![first];
        for _ in 1..block_capacity {
            if head >= n {
                break;
            }
            let mut best = (head, f64::INFINITY);
            let mut pos = head;
            for _ in 0..window {
                if pos >= n {
                    break;
                }
                let cand = shape_of(sorted[pos]);
                let d: f64 = members.iter().map(|&m| copy_dist(cand, shape_of(m))).sum::<f64>()
                    / members.len() as f64;
                if d < best.1 {
                    best = (pos, d);
                }
                pos = next[pos];
            }
            let chosen = sorted[best.0];
            remove(best.0, &mut head, &mut next, &mut prev);
            order.push(chosen);
            members.push(chosen);
        }
    }
    order
}

/// Analytic rehash cost model (§4): full re-sorts cost `O(N log N)`;
/// local optimization costs `O(N^1.5 log N)` placements.
pub fn rehash_cost(policy: LayoutPolicy, n: usize) -> f64 {
    let nf = n as f64;
    let logn = nf.max(2.0).log2();
    match policy {
        LayoutPolicy::Unsorted => nf,
        LayoutPolicy::MeanCurve | LayoutPolicy::Lexicographic | LayoutPolicy::MedianCurve => {
            nf * logn
        }
        LayoutPolicy::LocalOpt { .. } => nf.powf(1.5) * logn,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosir_core::hashing::GeometricHash;
    use geosir_core::ids::ImageId;
    use geosir_core::shapebase::ShapeBaseBuilder;
    use geosir_geom::rangesearch::Backend;
    use geosir_geom::Point;
    use rand::prelude::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn sig(a: u16, b: u16, c: u16, d: u16) -> Signature {
        Signature([a, b, c, d])
    }

    #[test]
    fn mean_and_median_keys() {
        assert_eq!(mean_curve(&sig(1, 2, 3, 4)), 3); // 2.5 rounds to 3 (ties away)
        assert_eq!(mean_curve(&sig(10, 10, 10, 10)), 10);
        // sorted [1,2,3,4]: medians 2,3; mean 2.5 — tie goes to the lower
        assert_eq!(median_curve(&sig(4, 2, 1, 3)), 2);
        // sorted [1,2,8,9]: medians 2,8; mean 5 — equidistant, lower wins
        assert_eq!(median_curve(&sig(9, 1, 8, 2)), 2);
        // sorted [1,7,8,9]: medians 7,8; mean 6.25 → 7
        assert_eq!(median_curve(&sig(9, 7, 8, 1)), 7);
    }

    fn tiny_base(n_shapes: usize, seed: u64) -> (ShapeBase, Vec<Signature>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = ShapeBaseBuilder::new();
        for i in 0..n_shapes {
            let k = rng.random_range(4..8);
            let pts: Vec<Point> = (0..k)
                .map(|j| {
                    let t = 2.0 * std::f64::consts::PI * j as f64 / k as f64;
                    let r = rng.random_range(0.5..1.0);
                    p(r * t.cos(), r * t.sin())
                })
                .collect();
            b.add_shape(ImageId(i as u32), geosir_geom::Polyline::closed(pts).unwrap());
        }
        let base = b.build(0.05, Backend::KdTree);
        let gh = GeometricHash::build(&base, 50);
        let sigs: Vec<Signature> =
            base.copies().map(|(_, c)| gh.signature(&c.normalized)).collect();
        (base, sigs)
    }

    #[test]
    fn every_policy_is_a_permutation() {
        let (base, sigs) = tiny_base(20, 1);
        for policy in [
            LayoutPolicy::Unsorted,
            LayoutPolicy::MeanCurve,
            LayoutPolicy::Lexicographic,
            LayoutPolicy::MedianCurve,
            LayoutPolicy::LocalOpt { block_capacity: 5, window: 8 },
        ] {
            let order = order_copies(&base, &sigs, policy);
            assert_eq!(order.len(), base.num_copies(), "{policy:?}");
            let mut seen = vec![false; order.len()];
            for c in &order {
                assert!(!seen[c.index()], "{policy:?} repeats {c}");
                seen[c.index()] = true;
            }
        }
    }

    #[test]
    fn sort_keys_are_monotone_in_output() {
        let (base, sigs) = tiny_base(30, 2);
        let order = order_copies(&base, &sigs, LayoutPolicy::MeanCurve);
        for w in order.windows(2) {
            assert!(mean_curve(&sigs[w[0].index()]) <= mean_curve(&sigs[w[1].index()]));
        }
        let order = order_copies(&base, &sigs, LayoutPolicy::Lexicographic);
        for w in order.windows(2) {
            assert!(sigs[w[0].index()].0 <= sigs[w[1].index()].0);
        }
        let order = order_copies(&base, &sigs, LayoutPolicy::MedianCurve);
        for w in order.windows(2) {
            assert!(median_curve(&sigs[w[0].index()]) <= median_curve(&sigs[w[1].index()]));
        }
    }

    #[test]
    fn local_opt_groups_similar_shapes() {
        // base = two very distinct families; a good layout should not
        // interleave them within blocks
        let mut b = ShapeBaseBuilder::new();
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..10 {
            // family A: flat triangles; family B: tall houses
            let shape = if i % 2 == 0 {
                geosir_geom::Polyline::closed(vec![
                    p(0.0, 0.0),
                    p(6.0 + rng.random_range(-0.1..0.1), 0.3),
                    p(3.0, 0.9 + rng.random_range(-0.05..0.05)),
                ])
                .unwrap()
            } else {
                geosir_geom::Polyline::closed(vec![
                    p(0.0, 0.0),
                    p(1.0, 0.0),
                    p(1.0, 2.0 + rng.random_range(-0.1..0.1)),
                    p(0.5, 3.0),
                    p(0.0, 2.0),
                ])
                .unwrap()
            };
            b.add_shape(ImageId(i as u32), shape);
        }
        let base = b.build(0.0, Backend::KdTree);
        let gh = GeometricHash::build(&base, 50);
        let sigs: Vec<Signature> =
            base.copies().map(|(_, c)| gh.signature(&c.normalized)).collect();
        let order = order_copies(
            &base,
            &sigs,
            LayoutPolicy::LocalOpt { block_capacity: 5, window: 20 },
        );
        // measure within-block dispersion: average pairwise copy_dist per
        // block should beat the unsorted layout
        let disp = |order: &[CopyId]| {
            let mut total = 0.0;
            let mut cnt = 0usize;
            for block in order.chunks(5) {
                for i in 0..block.len() {
                    for j in (i + 1)..block.len() {
                        total += copy_dist(
                            &base.copy(block[i]).normalized,
                            &base.copy(block[j]).normalized,
                        );
                        cnt += 1;
                    }
                }
            }
            total / cnt as f64
        };
        let unsorted = order_copies(&base, &sigs, LayoutPolicy::Unsorted);
        assert!(
            disp(&order) < disp(&unsorted),
            "local-opt dispersion {} !< unsorted {}",
            disp(&order),
            disp(&unsorted)
        );
    }

    #[test]
    fn rehash_costs_ordered() {
        let n = 10_000;
        assert!(rehash_cost(LayoutPolicy::MeanCurve, n) < rehash_cost(LayoutPolicy::local_opt_default(), n));
        assert!(rehash_cost(LayoutPolicy::Unsorted, n) < rehash_cost(LayoutPolicy::MeanCurve, n));
    }

    #[test]
    #[should_panic(expected = "one signature per copy")]
    fn signature_length_checked() {
        let (base, _) = tiny_base(3, 4);
        let _ = order_copies(&base, &[], LayoutPolicy::MeanCurve);
    }
}
