//! Scratch reuse must be invisible in the results: a retrieval through a
//! warm, heavily reused [`MatcherScratch`] returns exactly what a
//! fresh-allocation retrieval returns. The epoch-stamp design makes this a
//! property, not an accident — these tests pin it.

use geosir::core::ids::ImageId;
use geosir::core::matcher::{MatchConfig, MatchOutcome, Matcher};
use geosir::core::scratch::MatcherScratch;
use geosir::core::shapebase::{ShapeBase, ShapeBaseBuilder};
use geosir::geom::rangesearch::Backend;
use geosir::geom::Polyline;
use geosir::imaging::synth::{perturb, random_simple_polygon};
use rand::prelude::*;
use rand::rngs::StdRng;

fn world(n_shapes: usize, seed: u64) -> (ShapeBase, Vec<Polyline>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ShapeBaseBuilder::new();
    let mut queries = Vec::new();
    for i in 0..n_shapes {
        let n = rng.random_range(6..16);
        let shape = random_simple_polygon(&mut rng, n, 0.35);
        if i % 5 == 0 {
            // distorted copies of stored shapes: nontrivial envelopes
            queries.push(perturb(&shape, &mut rng, 0.01 + 0.002 * (i % 7) as f64));
        }
        b.add_shape(ImageId(i as u32), shape);
    }
    (b.build(0.1, Backend::RangeTree), queries)
}

fn assert_same(a: &MatchOutcome, b: &MatchOutcome, ctx: &str) {
    assert_eq!(a.matches.len(), b.matches.len(), "{ctx}: match count");
    for (x, y) in a.matches.iter().zip(&b.matches) {
        assert_eq!(x.shape, y.shape, "{ctx}");
        assert_eq!(x.copy, y.copy, "{ctx}");
        assert!((x.score - y.score).abs() < 1e-12, "{ctx}: {} vs {}", x.score, y.score);
    }
    assert_eq!(a.stats.iterations, b.stats.iterations, "{ctx}: iterations");
    assert_eq!(a.stats.vertices_processed, b.stats.vertices_processed, "{ctx}: K");
    assert_eq!(a.stats.candidates_scored, b.stats.candidates_scored, "{ctx}: scored");
    assert_eq!(a.access_trace, b.access_trace, "{ctx}: access trace");
}

/// One scratch reused across many queries (and across retrieval modes)
/// gives bit-for-bit the results of a fresh scratch per query.
#[test]
fn scratch_reuse_identical_to_fresh() {
    let (base, queries) = world(60, 11);
    let matcher = Matcher::new(&base, MatchConfig { k: 3, beta: 0.25, ..Default::default() });
    let mut reused = MatcherScratch::for_base(&base);
    let mut out = MatchOutcome::default();
    // two passes, so the second pass runs on thoroughly stale stamps
    for pass in 0..2 {
        for (qi, q) in queries.iter().enumerate() {
            let mut fresh = MatcherScratch::new();
            let mut expect = MatchOutcome::default();
            matcher.retrieve_with(&mut fresh, q, &mut expect);
            matcher.retrieve_with(&mut reused, q, &mut out);
            assert_same(&out, &expect, &format!("pass {pass}, query {qi}"));

            // threshold mode through the same reused scratch
            let mut expect_tau = MatchOutcome::default();
            matcher.retrieve_within_with(&mut fresh, q, 0.2, &mut expect_tau);
            matcher.retrieve_within_with(&mut reused, q, 0.2, &mut out);
            assert_same(&out, &expect_tau, &format!("pass {pass}, query {qi}, tau"));
        }
    }
}

/// The scratchless convenience entry points (which draw from the matcher's
/// internal pool) agree with explicit fresh scratches.
#[test]
fn pooled_entry_points_identical_to_fresh() {
    let (base, queries) = world(40, 23);
    let matcher = Matcher::new(&base, MatchConfig { k: 2, ..Default::default() });
    for (qi, q) in queries.iter().enumerate() {
        let pooled = matcher.retrieve(q);
        let mut fresh = MatcherScratch::new();
        let mut expect = MatchOutcome::default();
        matcher.retrieve_with(&mut fresh, q, &mut expect);
        assert_same(&pooled, &expect, &format!("query {qi}"));
    }
}

/// A scratch carried from one base to a *larger* one keeps giving fresh
/// results (stale stamps can never masquerade as live entries).
#[test]
fn scratch_survives_base_change() {
    let (small, _) = world(20, 3);
    let (big, queries) = world(80, 4);
    let mut scratch = MatcherScratch::for_base(&small);
    {
        let m_small = Matcher::new(&small, MatchConfig::default());
        let mut out = MatchOutcome::default();
        for q in &queries {
            m_small.retrieve_with(&mut scratch, q, &mut out);
        }
    }
    let m_big = Matcher::new(&big, MatchConfig { k: 3, ..Default::default() });
    let mut out = MatchOutcome::default();
    for (qi, q) in queries.iter().enumerate() {
        let mut fresh = MatcherScratch::new();
        let mut expect = MatchOutcome::default();
        m_big.retrieve_with(&mut fresh, q, &mut expect);
        m_big.retrieve_with(&mut scratch, q, &mut out);
        assert_same(&out, &expect, &format!("after base change, query {qi}"));
    }
}
