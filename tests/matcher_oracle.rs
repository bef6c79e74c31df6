//! The matcher against an exhaustive oracle: on randomized shape bases and
//! queries, a non-exhausted retrieval must return exactly the shapes a
//! brute-force scan of every normalized copy would rank first — the §2.5
//! "retrieves the best match" theorem as an executable property.

use geosir::core::ids::{ImageId, ShapeId};
use geosir::core::matcher::{EpsSchedule, MatchConfig, Matcher};
use geosir::core::normalize::normalize_about_diameter;
use geosir::core::shapebase::{ShapeBase, ShapeBaseBuilder};
use geosir::core::similarity::{score, PreparedShape, ScoreKind};
use geosir::geom::rangesearch::Backend;
use geosir::geom::Polyline;
use geosir::imaging::synth::{perturb, random_simple_polygon};
use rand::prelude::*;
use rand::rngs::StdRng;

fn random_base(seed: u64, n_shapes: usize, alpha: f64) -> (ShapeBase, Vec<Polyline>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = ShapeBaseBuilder::new();
    let mut shapes = Vec::new();
    for i in 0..n_shapes {
        let n = rng.random_range(4..16);
        let irr = rng.random_range(0.1..0.4);
        let s = random_simple_polygon(&mut rng, n, irr);
        builder.add_shape(ImageId(i as u32), s.clone());
        shapes.push(s);
    }
    (builder.build(alpha, Backend::RangeTree), shapes)
}

/// Brute force: best shape by min-over-copies score.
fn oracle_best(base: &ShapeBase, query: &Polyline) -> Option<(ShapeId, f64)> {
    let (qn, _) = normalize_about_diameter(query)?;
    let prepared = PreparedShape::new(qn.shape);
    let mut best: Option<(ShapeId, f64)> = None;
    for (_, copy) in base.copies() {
        let s = score(ScoreKind::DiscreteSymmetric, &copy.normalized, &prepared);
        if best.is_none_or(|(_, b)| s < b) {
            best = Some((copy.shape_id, s));
        }
    }
    best
}

#[test]
fn certified_best_matches_oracle_across_seeds() {
    let mut checked = 0;
    for seed in 0..12u64 {
        let (base, shapes) = random_base(seed, 30, 0.05);
        let matcher = Matcher::new(&base, MatchConfig { beta: 0.2, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(seed ^ 0xfeed);
        for qi in 0..5 {
            // queries range from exact copies to mild distortions
            let src = &shapes[(qi * 7) % shapes.len()];
            let query = if qi % 2 == 0 { src.clone() } else { perturb(src, &mut rng, 0.02) };
            let out = matcher.retrieve(&query);
            if out.stats.exhausted {
                continue; // best-effort result: no certification to check
            }
            let got = out.best().expect("certified outcome must have a match");
            let (want_shape, want_score) = oracle_best(&base, &query).unwrap();
            assert!(
                (got.score - want_score).abs() < 1e-9,
                "seed {seed} query {qi}: matcher score {} vs oracle {} (shapes {} vs {})",
                got.score,
                want_score,
                got.shape,
                want_shape
            );
            checked += 1;
        }
    }
    assert!(checked >= 30, "too few certified outcomes exercised: {checked}");
}

#[test]
fn threshold_mode_matches_oracle_set() {
    for seed in 0..6u64 {
        let (base, shapes) = random_base(seed, 25, 0.05);
        let matcher = Matcher::new(&base, MatchConfig { beta: 0.2, ..Default::default() });
        let tau = 0.06;
        let query = shapes[seed as usize % shapes.len()].clone();
        let out = matcher.retrieve_within(&query, tau);
        if out.stats.exhausted {
            continue;
        }
        // oracle: every shape whose best copy scores ≤ tau
        let (qn, _) = normalize_about_diameter(&query).unwrap();
        let prepared = PreparedShape::new(qn.shape);
        let mut want: Vec<ShapeId> = (0..base.num_shapes() as u32)
            .map(ShapeId)
            .filter(|sid| {
                base.copies()
                    .filter(|(_, c)| c.shape_id == *sid)
                    .map(|(_, c)| score(ScoreKind::DiscreteSymmetric, &c.normalized, &prepared))
                    .fold(f64::INFINITY, f64::min)
                    <= tau
            })
            .collect();
        let mut got: Vec<ShapeId> = out.matches.iter().map(|m| m.shape).collect();
        got.sort();
        want.sort();
        assert_eq!(got, want, "seed {seed}: threshold set mismatch");
    }
}

#[test]
fn schedules_and_backends_agree_with_oracle() {
    let (base_rt, shapes) = random_base(99, 20, 0.0);
    let mut builder = ShapeBaseBuilder::new();
    for (i, s) in shapes.iter().enumerate() {
        builder.add_shape(ImageId(i as u32), s.clone());
    }
    let base_bf = builder.build(0.0, Backend::BruteForce);
    let query = shapes[3].clone();
    let (want_shape, want_score) = oracle_best(&base_rt, &query).unwrap();
    for schedule in [EpsSchedule::Geometric(1.5), EpsSchedule::Geometric(3.0), EpsSchedule::Linear]
    {
        for base in [&base_rt, &base_bf] {
            let matcher = Matcher::new(
                base,
                MatchConfig { beta: 0.2, schedule, ..Default::default() },
            );
            let out = matcher.retrieve(&query);
            assert!(!out.stats.exhausted, "exact query must certify");
            let got = out.best().unwrap();
            assert_eq!(got.shape, want_shape, "schedule {schedule:?}");
            assert!((got.score - want_score).abs() < 1e-9);
        }
    }
}
