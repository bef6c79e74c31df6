#[test]
fn approx_finds_inserted_shapes_across_levels_and_buffer() {
    let mut db = dynbase(8);
    let mut shapes = Vec::new();
    for i in 0..27 {
        // 3 levels + a partial buffer
        let s = shape(1000 + i);
        let id = db.insert(ImageId(i as u32), s.clone());
        shapes.push((id, s));
    }
    assert!(db.num_levels() >= 1);
    let snap = db.snapshot();
    assert!(snap.total_copies() > 0);
    for (id, s) in &shapes {
        let (hits, stats) = snap.similar_approx(s, &ApproxOptions::default());
        assert_eq!(stats.tier, AnswerTier::Approx, "shape {id:?} fell back");
        assert!(!hits.is_empty());
        assert_eq!(hits[0].shape, *id, "approx missed its own source shape");
        assert!(hits[0].score < 1e-9);
        assert!(stats.candidates >= 1);
        assert!(stats.buckets_probed >= 1);
        assert_eq!(stats.corpus_copies, snap.total_copies() as u64);
    }
}

#[test]
fn approx_with_full_budget_matches_exhaustive_havg_scan() {
    // With a wide-open candidate budget the cascade collects every
    // live copy, so the rerank must reproduce an exhaustive
    // min-over-copies symmetric h_avg ranking exactly — the cutoff
    // pruning and per-shape dedup lose nothing.
    let shapes: Vec<Polyline> = (0..20).map(|i| shape(2000 + i)).collect();
    let mut db = dynbase(6);
    for (i, s) in shapes.iter().enumerate() {
        db.insert(ImageId(i as u32), s.clone());
    }
    let snap = db.snapshot();
    // identically-ordered static base for the oracle scan
    let mut b = ShapeBaseBuilder::new();
    for (i, s) in shapes.iter().enumerate() {
        b.add_shape(ImageId(i as u32), s.clone());
    }
    let base = b.build(0.05, Backend::RangeTree);
    let opts = ApproxOptions { k: 5, max_radius: u16::MAX, max_candidates: usize::MAX };
    for (i, q) in shapes.iter().enumerate() {
        let (qn, _) = crate::normalize::normalize_about_diameter(q).unwrap();
        let prep = crate::similarity::PreparedShape::new(qn.shape);
        let mut best: std::collections::HashMap<ShapeId, f64> = Default::default();
        for (_, copy) in base.copies() {
            let s = crate::similarity::score(
                crate::similarity::ScoreKind::DiscreteSymmetric,
                &copy.normalized,
                &prep,
            );
            let e = best.entry(copy.shape_id).or_insert(f64::INFINITY);
            *e = e.min(s);
        }
        let mut oracle: Vec<(ShapeId, f64)> = best.into_iter().collect();
        oracle.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        oracle.truncate(5);
        let (approx, stats) = snap.similar_approx(q, &opts);
        assert_eq!(stats.tier, AnswerTier::Approx);
        assert_eq!(stats.candidates, base.num_copies() as u64, "query {i}");
        assert_eq!(approx.len(), oracle.len(), "query {i}");
        for (a, (oshape, oscore)) in approx.iter().zip(&oracle) {
            // insert order makes GlobalShapeId(j) ↔ ShapeId(j)
            assert_eq!(a.shape.0, oshape.index() as u64, "query {i}");
            assert!((a.score - oscore).abs() < 1e-9, "query {i}: {} vs {}", a.score, oscore);
        }
    }
}

#[test]
fn approx_respects_tombstones() {
    let mut db = dynbase(4);
    let mut ids = Vec::new();
    for i in 0..12 {
        ids.push(db.insert(ImageId(i), shape(3000 + i as u64)));
    }
    let victim = ids[5];
    let q = shape(3005);
    let (hits, _) = db.snapshot().similar_approx(&q, &ApproxOptions::default());
    assert_eq!(hits[0].shape, victim);
    db.delete(victim);
    let (hits, _) = db.snapshot().similar_approx(&q, &ApproxOptions::default());
    assert!(hits.iter().all(|m| m.shape != victim), "tombstoned shape returned");
}

#[test]
fn approx_empty_base_falls_back_to_exact_tier() {
    let db = dynbase(4);
    let snap = db.snapshot();
    let (hits, stats) = snap.similar_approx(&shape(1), &ApproxOptions::default());
    assert!(hits.is_empty());
    assert_eq!(stats.tier, AnswerTier::Exact);
    assert_eq!(stats.candidates, 0);
}

#[test]
fn approx_candidate_budget_caps_collection() {
    let mut db = dynbase(64);
    for i in 0..60 {
        db.insert(ImageId(i), shape(4000 + i as u64));
    }
    let snap = db.snapshot();
    let tight = ApproxOptions { k: 3, max_radius: 10, max_candidates: 4 };
    let wide = ApproxOptions { k: 3, max_radius: 10, max_candidates: usize::MAX };
    let (_, st_tight) = snap.similar_approx(&shape(4000), &tight);
    let (_, st_wide) = snap.similar_approx(&shape(4000), &wide);
    assert!(st_tight.candidates <= st_wide.candidates);
    assert!(st_tight.radius <= st_wide.radius);
    // the budget stops expansion at ring granularity
    assert!(st_tight.reranked <= st_tight.candidates);
}

#[test]
fn approx_survives_cascade_and_snapshot_isolation() {
    let mut db = dynbase(4);
    let mut ids = Vec::new();
    for i in 0..4 {
        ids.push(db.insert(ImageId(i), shape(5000 + i as u64)));
    }
    let before = db.snapshot();
    // trigger cascades under the old snapshot
    for i in 4..20 {
        db.insert(ImageId(i), shape(5000 + i as u64));
    }
    let after = db.snapshot();
    let q = shape(5000);
    let (h_before, _) = before.similar_approx(&q, &ApproxOptions::default());
    let (h_after, _) = after.similar_approx(&q, &ApproxOptions::default());
    assert_eq!(h_before[0].shape, ids[0]);
    assert_eq!(h_after[0].shape, ids[0]);
    assert!(after.approx_num_buckets() >= before.approx_num_buckets());
}

#[test]
fn approx_restore_rebuilds_signature_index() {
    let mut db = dynbase(8);
    let mut ids = Vec::new();
    for i in 0..16 {
        ids.push(db.insert(ImageId(i), shape(6000 + i as u64)));
    }
    let snap = db.snapshot();
    let restored = DynamicBase::restore(
        0.05,
        MatchConfig { k: 3, beta: 0.3, ..Default::default() },
        8,
        snap.live_shapes(),
        snap.next_id(),
        snap.epoch(),
    );
    let rsnap = restored.snapshot();
    assert!(rsnap.approx_num_buckets() >= 1, "restore must rebuild buckets");
    for (i, id) in ids.iter().enumerate() {
        let (hits, stats) = rsnap.similar_approx(&shape(6000 + i as u64), &ApproxOptions::default());
        assert_eq!(stats.tier, AnswerTier::Approx);
        assert_eq!(hits[0].shape, *id, "restored approx missed shape {i}");
        assert!(hits[0].score < 1e-9);
    }
}

#[test]
fn approx_scratch_reuse_is_equivalent() {
    let mut db = dynbase(8);
    for i in 0..20 {
        db.insert(ImageId(i), shape(7000 + i as u64));
    }
    let snap = db.snapshot();
    let mut scratch = MatcherScratch::new();
    let mut tmp = MatchOutcome::default();
    let mut ax = ApproxScratch::new();
    let mut out = Vec::new();
    let mut stats = ApproxStats::default();
    for i in 0..20u64 {
        let q = shape(7000 + i);
        let (fresh, fresh_stats) = snap.similar_approx(&q, &ApproxOptions::default());
        snap.similar_approx_with(
            &mut scratch,
            &mut tmp,
            &mut ax,
            &q,
            &ApproxOptions::default(),
            &mut out,
            &mut stats,
        );
        assert_eq!(fresh.len(), out.len(), "query {i}");
        for (a, b) in fresh.iter().zip(&out) {
            assert_eq!(a.shape, b.shape);
            assert!((a.score - b.score).abs() < 1e-12);
        }
        assert_eq!(fresh_stats.candidates, stats.candidates, "query {i}");
        assert_eq!(fresh_stats.radius, stats.radius, "query {i}");
    }
}

#[test]
fn quantized_approx_rerank_changes_no_verdict_and_no_count() {
    // the approximate tier with and without the query's lower-bound
    // raster: the same answer, the same `ApproxStats`, the same
    // candidates with the same verdict bits — and the raster did
    // reject candidates, or this proves nothing. A query of over 64
    // edges has no grid, hence no raster, and takes the distance loop.
    let (snap, mut queries) = near_match_world();
    let pts = queries[0].points();
    let dense = (0..pts.len()).flat_map(|i| {
        let (a, b) = (pts[i], pts[(i + 1) % pts.len()]);
        (0..7).map(move |t| p(a.x + (b.x - a.x) * t as f64 / 7.0, a.y + (b.y - a.y) * t as f64 / 7.0))
    });
    let dense = Polyline::closed(dense.collect()).expect("the near-match query, densified");
    assert!(dense.num_vertices() > 64);
    let mut scratch = MatcherScratch::new();
    assert_eq!(snap.prepare(&mut scratch, &dense, true), Prepared::Query, "no grid, no raster");
    queries.push(dense);
    let (mut on_ax, mut off_ax) = (ApproxScratch::new(), ApproxScratch::new());
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let (mut on_stats, mut off_stats) = (ApproxStats::default(), ApproxStats::default());
    let verdicts = |ax: &ApproxScratch| -> Vec<(u32, u32, u32, u64)> {
        ax.cands.iter().map(|c| (c.level, c.a, c.b, c.verdict.to_bits())).collect()
    };
    let rejects = |m: &obs::Registry| m.snapshot().counter("geosir_approx_bound_rejects_total", &[]);
    let (with, without) = (Arc::new(obs::Registry::new()), Arc::new(obs::Registry::new()));
    for (i, q) in queries.iter().enumerate() {
        for k in [1, 4, 10] {
            for max_candidates in [24, 2048] {
                let what = format!("query {i}, k = {k}, budget {max_candidates}");
                let opts = ApproxOptions { k, max_candidates, ..ApproxOptions::default() };
                let before = rejects(&with);
                obs::set_thread_registry(Some(with.clone()));
                snap.approximate(&mut scratch, &mut on_ax, q, &opts, &mut on, &mut on_stats, true);
                obs::set_thread_registry(Some(without.clone()));
                snap.approximate(&mut scratch, &mut off_ax, q, &opts, &mut off, &mut off_stats, false);
                assert_eq!(id_bits(&on), id_bits(&off), "{what}");
                assert_eq!(on_stats, off_stats, "{what}");
                assert_eq!(on_stats.tier, AnswerTier::Approx, "{what}");
                assert_eq!(verdicts(&on_ax), verdicts(&off_ax), "{what}");
                if q.num_vertices() > 64 {
                    assert!(on_stats.candidates > k as u64, "{what}: a raster would have been laid");
                    assert_eq!(rejects(&with), before, "{what}: rejected with no raster");
                }
            }
        }
    }
    obs::set_thread_registry(None);
    assert!(rejects(&with) > 0, "the raster rejected nothing");
    assert_eq!(rejects(&without), 0);
}

#[test]
fn quantized_buffer_rings_count_into_sorted_order() {
    // the probe counts the buffered copies into ring order: on a base
    // whose buffer is one shape short of a carry, the counted list is
    // the sorted (ring, slot, copy) list, query after query
    let db = shipped(64, (0..64 + 63).map(|i| shape(i as u64 + 4000)));
    let snap = db.snapshot();
    assert_eq!((snap.num_levels(), snap.buffer.len()), (1, 63));
    let (mut scratch, mut ax, mut stats) = (MatcherScratch::new(), ApproxScratch::new(), ApproxStats::default());
    let mut rings = HashSet::new();
    for i in 0..12 {
        assert!(scratch.prepare_query(&shape(i + 4000)));
        let qprep = scratch.query.as_ref().expect("prepared");
        snap.probe(&mut ax, qprep, &ApproxOptions::default(), &mut stats);
        let mut sorted = ax.buffered.clone();
        sorted.sort_unstable();
        assert_eq!(ax.ringed, sorted, "query {i}");
        assert_eq!(ax.buffered.len(), snap.buffer.iter().map(|b| b.copies.len()).sum::<usize>());
        rings.extend(ax.buffered.iter().map(|b| b.0));
    }
    assert!(rings.len() >= 4, "rings {rings:?}: the order proves little");
}
