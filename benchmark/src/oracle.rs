//! Brute-force ground truth: for a query, the exhaustive
//! min-over-copies symmetric discrete `h_avg` against every live shape —
//! the semantics the server's rerank and matcher score with (as in
//! `crates/bench/src/bin/approx_recall.rs`), computed without any index.

use std::collections::HashMap;

use geosir_core::normalize::{normalize_about_diameter, normalized_copies};
use geosir_core::similarity::{score_prepared, score_prepared_bounded, PreparedShape, ScoreKind};
use geosir_geom::Polyline;

use crate::child::SHIPPED_ALPHA;

const KIND: ScoreKind = ScoreKind::DiscreteSymmetric;

pub struct Oracle {
    /// `(acked id, normalized copies)` of every live shape.
    shapes: Vec<(u64, Vec<PreparedShape>)>,
    by_id: HashMap<u64, usize>,
}

fn prepare(shape: &Polyline) -> Vec<PreparedShape> {
    normalized_copies(shape, SHIPPED_ALPHA)
        .into_iter()
        .map(|c| PreparedShape::new(c.shape))
        .collect()
}

/// The query as the server scores it: its primary diameter-normalized
/// copy (the base stores both orientations of every shape).
fn prepare_query(query: &Polyline) -> Option<PreparedShape> {
    normalize_about_diameter(query).map(|(primary, _)| PreparedShape::new(primary.shape))
}

impl Oracle {
    pub fn new<'a>(live: impl Iterator<Item = (u64, &'a Polyline)>) -> Oracle {
        let shapes: Vec<_> = live.map(|(id, shape)| (id, prepare(shape))).collect();
        let by_id = shapes
            .iter()
            .enumerate()
            .map(|(i, (id, _))| (*id, i))
            .collect();
        Oracle { shapes, by_id }
    }

    /// The `k` nearest live shapes, `(id, score)` ascending. Scoring
    /// abandons a copy once it provably exceeds the k-th best so far,
    /// which leaves the top k exact.
    pub fn top_k(&self, query: &Polyline, k: usize) -> Vec<(u64, f64)> {
        let Some(q) = prepare_query(query) else {
            return Vec::new();
        };
        let mut best: Vec<(u64, f64)> = Vec::with_capacity(k + 1);
        for (id, copies) in &self.shapes {
            let cutoff = if best.len() == k {
                best[k - 1].1
            } else {
                f64::INFINITY
            };
            let score = copies
                .iter()
                .map(|c| score_prepared_bounded(KIND, c, &q, cutoff))
                .fold(f64::INFINITY, f64::min);
            if score.is_finite() && (best.len() < k || score < cutoff) {
                let at = best.partition_point(|&(_, s)| s <= score);
                best.insert(at, (*id, score));
                best.truncate(k);
            }
        }
        best
    }

    /// Exact score of every stored copy of one live shape, `None` for
    /// an id that is not live. The shape's score is the smallest.
    pub fn copy_scores(&self, query: &Polyline, id: u64) -> Option<Vec<f64>> {
        let q = prepare_query(query)?;
        let (_, copies) = &self.shapes[*self.by_id.get(&id)?];
        Some(copies.iter().map(|c| score_prepared(KIND, c, &q)).collect())
    }

    #[cfg(test)]
    pub fn score(&self, query: &Polyline, id: u64) -> Option<f64> {
        Some(
            self.copy_scores(query, id)?
                .into_iter()
                .fold(f64::INFINITY, f64::min),
        )
    }

    /// Chávez et al.'s intrinsic dimension `μ² / 2σ²` of the pairwise
    /// distance histogram over an evenly strided sample of at most
    /// `sample` shapes (Pestov, PAPERS.md): high values mean distances
    /// concentrate and any index degrades towards a scan, so recall and
    /// reduction numbers can be read against how hard the corpus is.
    pub fn intrinsic_dim(&self, sample: usize) -> f64 {
        let stride = (self.shapes.len() / sample.max(1)).max(1);
        let picked: Vec<&Vec<PreparedShape>> = self
            .shapes
            .iter()
            .step_by(stride)
            .take(sample)
            .map(|(_, c)| c)
            .collect();
        let mut d = Vec::new();
        for (i, a) in picked.iter().enumerate() {
            for b in &picked[i + 1..] {
                let Some(q) = b.first() else { continue };
                let s = a
                    .iter()
                    .map(|c| score_prepared(KIND, c, q))
                    .fold(f64::INFINITY, f64::min);
                if s.is_finite() {
                    d.push(s);
                }
            }
        }
        if d.len() < 2 {
            return 0.0;
        }
        let mean = d.iter().sum::<f64>() / d.len() as f64;
        let var = d.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / d.len() as f64;
        if var == 0.0 {
            0.0
        } else {
            mean * mean / (2.0 * var)
        }
    }
}

/// Quality of a set of replies against the oracle.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Quality {
    pub queries: u64,
    /// Σ |reply top-k ∩ oracle top-k|.
    pub hits: u64,
    /// Σ min(k, live shapes): the recall denominator.
    pub wanted: u64,
    pub top1_agree: u64,
    /// Replies naming a shape that is not live, or giving a live one a
    /// score that none of its stored copies has. (The approximate tier
    /// may have probed only one orientation of a shape, so any copy's
    /// true score is a right answer for it; an invented one is not.)
    pub wrong: u64,
}

impl Quality {
    /// One reply (`(id, score)` best first) against the oracle's answer.
    pub fn add(&mut self, oracle: &Oracle, query: &Polyline, reply: &[(u64, f64)], k: usize) {
        let truth = oracle.top_k(query, k);
        self.queries += 1;
        self.wanted += truth.len() as u64;
        self.hits += reply
            .iter()
            .take(k)
            .filter(|(id, _)| truth.iter().any(|(t, _)| t == id))
            .count() as u64;
        self.top1_agree += (reply.first().map(|r| r.0) == truth.first().map(|t| t.0)) as u64;
        for &(id, score) in reply {
            let truth = oracle.copy_scores(query, id);
            let close = |s: &f64| (s - score).abs() <= 1e-9 * s.abs().max(1.0);
            if !truth
                .as_ref()
                .is_some_and(|copies| copies.iter().any(close))
            {
                eprintln!("wrong reply: shape {id} scored {score}, oracle says {truth:?}");
                self.wrong += 1;
            }
        }
    }

    pub fn recall(&self) -> f64 {
        self.hits as f64 / self.wanted.max(1) as f64
    }

    pub fn top1_agreement(&self) -> f64 {
        self.top1_agree as f64 / self.queries.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosir_imaging::synth::{perturb, random_simple_polygon};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// 19 unrelated polygons and, as id 100, a near copy of the query.
    fn planted() -> (Oracle, Polyline, Vec<Polyline>) {
        let mut rng = StdRng::seed_from_u64(11);
        let query = random_simple_polygon(&mut rng, 14, 0.35);
        let neighbour = perturb(&query, &mut rng, 0.002);
        let mut shapes: Vec<Polyline> = (0..19)
            .map(|i| random_simple_polygon(&mut rng, 8 + i % 9, 0.35))
            .collect();
        shapes.insert(7, neighbour);
        let ids = |i: usize| if i == 7 { 100 } else { i as u64 };
        let oracle = Oracle::new(shapes.iter().enumerate().map(|(i, s)| (ids(i), s)));
        (oracle, query, shapes)
    }

    #[test]
    fn planted_neighbour_is_top_1_and_scores_match_a_full_scan() {
        let (oracle, query, _) = planted();
        let top = oracle.top_k(&query, 10);
        assert_eq!(top.len(), 10);
        assert_eq!(top[0].0, 100);
        assert!(top.windows(2).all(|p| p[0].1 <= p[1].1));
        // abandoning must not change the top k: compare with unbounded scores
        let mut full: Vec<(u64, f64)> = (0..20u64)
            .map(|i| if i == 7 { 100 } else { i })
            .map(|id| (id, oracle.score(&query, id).unwrap()))
            .collect();
        full.sort_by(|a, b| a.1.total_cmp(&b.1));
        assert_eq!(top, full[..10]);
        assert_eq!(oracle.score(&query, 7), None, "id 7 was never live");
    }

    #[test]
    fn recall_and_top1_arithmetic() {
        let (oracle, query, _) = planted();
        let truth = oracle.top_k(&query, 10);
        let mut q = Quality::default();
        // perfect reply
        q.add(&oracle, &query, &truth, 10);
        assert_eq!((q.hits, q.wanted, q.top1_agree, q.wrong), (10, 10, 1, 0));
        // 7 of 10 right, top-1 missing, one id that is not live, one bad score
        let mut reply: Vec<(u64, f64)> = truth[1..8].to_vec();
        let outsider = (0..20u64)
            .find(|id| *id != 7 && !truth.iter().any(|t| t.0 == *id))
            .unwrap();
        reply.push((outsider, oracle.score(&query, outsider).unwrap()));
        reply.push((7, 0.5));
        reply.push((truth[9].0, truth[9].1 + 0.25));
        q.add(&oracle, &query, &reply, 10);
        assert_eq!(
            (q.queries, q.hits, q.wanted, q.top1_agree, q.wrong),
            (2, 18, 20, 1, 2)
        );
        assert!((q.recall() - 0.9).abs() < 1e-12);
        assert!((q.top1_agreement() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn any_stored_copy_of_a_shape_may_have_been_the_one_scored() {
        let (oracle, query, _) = planted();
        let copies = oracle.copy_scores(&query, 3).unwrap();
        assert!(copies.len() >= 2, "both orientations are stored");
        let worst = copies.iter().copied().fold(0.0, f64::max);
        assert!(worst > oracle.score(&query, 3).unwrap());
        let mut q = Quality::default();
        q.add(&oracle, &query, &[(3, worst)], 10);
        assert_eq!(
            q.wrong, 0,
            "the approximate tier may have probed only that orientation"
        );
        q.add(&oracle, &query, &[(3, worst * 1.01)], 10);
        assert_eq!(q.wrong, 1, "but a score no copy has is invented");
    }

    #[test]
    fn fewer_live_shapes_than_k_shrink_the_denominator() {
        let (_, query, shapes) = planted();
        let oracle = Oracle::new(
            shapes
                .iter()
                .take(3)
                .enumerate()
                .map(|(i, s)| (i as u64, s)),
        );
        let mut q = Quality::default();
        q.add(&oracle, &query, &oracle.top_k(&query, 10), 10);
        assert_eq!((q.hits, q.wanted), (3, 3));
        assert_eq!(q.recall(), 1.0);
    }

    #[test]
    fn intrinsic_dimension_is_positive_and_repeatable() {
        let (oracle, _, _) = planted();
        let a = oracle.intrinsic_dim(20);
        assert!(a > 0.0 && a.is_finite(), "{a}");
        assert_eq!(a, oracle.intrinsic_dim(20));
    }
}
