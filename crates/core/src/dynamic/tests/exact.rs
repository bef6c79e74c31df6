#[test]
fn matches_static_base_results() {
    // the dynamic base must return the same ranking as one static base
    let shapes: Vec<Polyline> = (0..24).map(|i| shape(i as u64 + 100)).collect();
    let mut db = dynbase(5);
    for (i, s) in shapes.iter().enumerate() {
        db.insert(ImageId(i as u32), s.clone());
    }
    let mut builder = ShapeBaseBuilder::new();
    for (i, s) in shapes.iter().enumerate() {
        builder.add_shape(ImageId(i as u32), s.clone());
    }
    let static_base = builder.build(0.05, Backend::RangeTree);
    let matcher = crate::matcher::Matcher::new(
        &static_base,
        MatchConfig { k: 3, beta: 0.3, ..Default::default() },
    );
    for q in shapes.iter().take(6) {
        let dyn_hits = db.snapshot().retrieve(q, 0);
        let stat_hits = matcher.retrieve(q);
        assert_eq!(
            dyn_hits.first().map(|m| m.image),
            stat_hits.best().map(|m| m.image),
            "dynamic and static disagree on best image"
        );
        assert!(
            (dyn_hits[0].score - stat_hits.best().unwrap().score).abs() < 1e-9,
            "scores diverge"
        );
    }
}

#[test]
fn best_match_in_smaller_later_level_survives_cutoff() {
    // Build a base where the big (first-queried) level holds only
    // mediocre matches and the exact match sits in a *smaller* level
    // queried afterwards under the running cutoff: the cutoff pass
    // must still surface it, and with a better (smaller) score than
    // anything the big level certified.
    let mut db = dynbase(4);
    // 16 fillers cascade into a 16-shape level...
    for i in 0..16 {
        db.insert(ImageId(i), shape(i as u64 + 500));
    }
    // ...then the needle plus 3 more fillers cascade into a 4-shape
    // level (buffer empties at each power-of-two merge)
    let needle = shape(77);
    let needle_id = db.insert(ImageId(100), needle.clone());
    for i in 17..20 {
        db.insert(ImageId(i), shape(i as u64 + 500));
    }
    assert!(db.num_levels() >= 2, "test needs a multi-level base");
    let hits = db.snapshot().retrieve(&needle, 0);
    assert_eq!(hits.first().map(|m| m.shape), Some(needle_id), "needle lost to cutoff");
    assert!(hits[0].score < 1e-9, "needle score should be ~0");
    // and the ranking must match a from-scratch static base
    let mut builder = ShapeBaseBuilder::new();
    for i in 0..16 {
        builder.add_shape(ImageId(i), shape(i as u64 + 500));
    }
    builder.add_shape(ImageId(100), needle.clone());
    for i in 17..20 {
        builder.add_shape(ImageId(i), shape(i as u64 + 500));
    }
    let static_base = builder.build(0.05, Backend::RangeTree);
    let matcher = crate::matcher::Matcher::new(
        &static_base,
        MatchConfig { k: 3, beta: 0.3, ..Default::default() },
    );
    let stat = matcher.retrieve(&needle);
    assert_eq!(hits.first().map(|m| m.image), stat.best().map(|m| m.image));
    assert!((hits[0].score - stat.best().unwrap().score).abs() < 1e-9);
}

#[test]
fn tombstones_do_not_truncate_live_topk() {
    // all shapes end up in one level; delete a batch and ask for a
    // top-k smaller than the tombstone count: a tombstoned copy may
    // tighten no cutoff and take no rank, or live shapes ranked just
    // below deleted ones vanish from the results
    let mut db = dynbase(4);
    let ids: Vec<_> = (0..16).map(|i| db.insert(ImageId(i), shape(i as u64))).collect();
    let probe = shape(3);
    let full: Vec<_> = db.snapshot().retrieve(&probe, 16).iter().map(|m| m.shape).collect();
    assert_eq!(full.len(), 16);
    // tombstone the 6 best for this probe
    for id in &full[..6] {
        assert!(db.delete(*id));
    }
    let got = db.snapshot().retrieve(&probe, 4);
    assert_eq!(got.len(), 4, "live top-k starved by tombstone truncation");
    for m in &got {
        assert!(!full[..6].contains(&m.shape), "deleted shape returned");
    }
    assert_eq!(
        got.iter().map(|m| m.shape).collect::<Vec<_>>(),
        full[6..10].to_vec(),
        "survivors must be the next-ranked live shapes, in order"
    );
    let _ = ids;
}

#[test]
fn dead_copies_are_never_scored() {
    // one 1 000-shape level, 300 tombstones: under half, so they stay
    let mut db = DynamicBase::new(0.0, MatchConfig { k: 10, beta: 0.2, ..Default::default() }, 64);
    let shapes: Vec<Polyline> = (0..1000).map(|i| shape(9000 + i)).collect();
    let ids = db.bulk_load(shapes.iter().enumerate().map(|(i, s)| (ImageId(i as u32), s.clone())));
    assert_eq!(db.num_levels(), 1);
    for id in ids.iter().step_by(3).take(300) {
        assert!(db.delete(*id));
    }
    assert_eq!((db.len(), db.compactions), (700, 0));

    let snap = db.snapshot();
    // α = 0: two copies a shape, and only the live ones are counted
    assert_eq!((snap.dead_shapes(), snap.total_copies()), (300, 1400));
    let reg = std::sync::Arc::new(obs::Registry::new());
    obs::set_thread_registry(Some(reg.clone()));
    let mut scratch = MatcherScratch::new();
    let mut tmp = MatchOutcome::default();
    let mut out = Vec::new();
    let queries = [1usize, 3, 300, 897, 998];
    for qi in queries {
        // a deleted shape (3, 300, 897) as the query makes its own
        // tombstoned copy the would-be best match
        let q = &shapes[qi];
        let (qn, _) = crate::normalize::normalize_about_diameter(q).unwrap();
        let prep = PreparedShape::new(qn.shape);
        let mut oracle: Vec<(GlobalShapeId, f64)> = shapes
            .iter()
            .zip(&ids)
            .filter(|(_, id)| db.contains(**id))
            .map(|(s, id)| {
                let best = crate::normalize::normalized_copies(s, 0.0)
                    .into_iter()
                    .map(|c| crate::similarity::score(db.state.config.score, &c.shape, &prep))
                    .fold(f64::INFINITY, f64::min);
                (*id, best)
            })
            .collect();
        oracle.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        oracle.truncate(10);

        snap.retrieve_with_stats(&mut scratch, &mut tmp, q, 0, &mut out, &mut RetrieveStats::default());
        let got: Vec<(GlobalShapeId, f64)> = out.iter().map(|m| (m.shape, m.score)).collect();
        assert_eq!(got, oracle, "query {qi}");
    }
    obs::set_thread_registry(None);
    // every live copy is scored once, by the seed or by the scan, and
    // no dead one by either
    let m = reg.snapshot();
    assert_eq!(
        m.counter("geosir_exact_scan_copies_total", &[])
            + m.counter("geosir_exact_seed_reranked_total", &[]),
        (queries.len() * snap.total_copies()) as u64,
    );
}

#[test]
fn retrieve_with_reused_scratch_matches_scratchless() {
    let mut db = dynbase(4);
    for i in 0..18 {
        db.insert(ImageId(i), shape(i as u64 + 300));
    }
    let snap = db.snapshot();
    let mut scratch = crate::scratch::MatcherScratch::new();
    let mut tmp = MatchOutcome::default();
    let mut out = Vec::new();
    for i in 0..18u64 {
        let q = shape(i + 300);
        snap.retrieve_with_stats(&mut scratch, &mut tmp, &q, 0, &mut out, &mut RetrieveStats::default());
        let fresh = snap.retrieve(&q, 0);
        assert_eq!(out.len(), fresh.len());
        for (a, b) in out.iter().zip(&fresh) {
            assert_eq!(a.shape, b.shape);
            assert_eq!(a.score, b.score);
        }
    }
}

#[test]
fn explain_reconciles_with_plain_retrieval() {
    let mut db = dynbase(4);
    // 14 inserts with cap 4: 12 cascade into levels, 14 % 4 = 2 stay
    // buffered so buffer_scored moves
    for i in 0..14 {
        db.insert(ImageId(i), shape(i as u64 + 500));
    }
    assert_eq!(db.num_levels(), 2);
    let snap = db.snapshot();
    let level_copies: Vec<u64> =
        snap.slots().rev().map(|(_, s)| s.level.num_copies() as u64).collect();

    let mut scratch = MatcherScratch::new();
    let mut tmp = MatchOutcome::default();
    let q = shape(505);

    // k = 3 is seeded; k = 20 > 14 live shapes leaves the board short
    // of k, so every level is scanned from a cutoff of ∞
    for (k, seeded) in [(3, true), (20, false)] {
        let mut plain = Vec::new();
        let mut plain_stats = RetrieveStats::default();
        snap.retrieve_with_stats(&mut scratch, &mut tmp, &q, k, &mut plain, &mut plain_stats);

        let mut explained = Vec::new();
        let mut ex_stats = RetrieveStats::default();
        let mut explain = QueryExplain::default();
        snap.explain_with_stats(
            &mut scratch,
            &mut tmp,
            &q,
            k,
            &mut explained,
            &mut ex_stats,
            &mut explain,
        );

        // identical results and stats with and without capture
        assert_eq!(plain, explained);
        assert_eq!(plain_stats, ex_stats);
        assert_eq!(explain.stats, ex_stats);

        // per-level records reconcile with the aggregate stats
        assert_eq!(explain.levels.len() as u64, ex_stats.levels);
        let scored: u64 = explain.levels.iter().map(|l| l.scored).sum();
        assert_eq!(ex_stats.scan_copies, scored);
        assert!(ex_stats.scan_survivors <= ex_stats.scan_copies);
        assert_eq!(ex_stats.buffer_scored, 2, "buffered shapes must be brute-force scored");
        for (level, copies) in explain.levels.iter().zip(&level_copies) {
            // the copies split into scored and settled by the seed,
            // the cutoff the scan started from is on record
            assert_eq!(level.scored + level.settled as u64, *copies);
            assert_eq!(level.cutoff.is_finite(), seeded, "k = {k}");
        }
    }
}

#[test]
fn a_scan_scores_every_level_copy_the_seed_did_not() {
    use geosir_imaging::synth::random_simple_polygon;
    // two levels (32 + 8 shapes), nothing buffered, nothing deleted:
    // every copy is either judged by the seed or scored by a scan
    let mut rng = StdRng::seed_from_u64(97);
    let shapes: Vec<Polyline> =
        (0..40).map(|i| random_simple_polygon(&mut rng, 7 + i % 8, 0.35)).collect();
    let db = shipped(8, shapes.iter().cloned());
    assert_eq!(db.num_levels(), 2);
    let snap = db.snapshot();
    let reg = std::sync::Arc::new(obs::Registry::new());
    obs::set_thread_registry(Some(reg.clone()));
    let queries = 6;
    for q in shapes.iter().take(queries) {
        // k = 1: the probe always finds a seed while live shapes exist
        assert_eq!(snap.retrieve(q, 1).len(), 1);
    }
    obs::set_thread_registry(None);
    let m = reg.snapshot();
    let counter = |name: &str| m.counter(name, &[]);
    assert_eq!(m.counter("geosir_exact_queries_total", &[("seeded", "true")]), queries as u64);
    assert_eq!(
        counter("geosir_exact_scan_copies_total") + counter("geosir_exact_seed_reranked_total"),
        (queries * snap.total_copies()) as u64,
    );
    let survivors = counter("geosir_exact_scan_survivors_total");
    assert!(survivors <= counter("geosir_exact_scan_copies_total"));
    // the matcher never ran, and its series say so instead of vanishing
    assert_eq!(counter("geosir_matcher_runs_total"), 0);
    assert!(m.get("geosir_matcher_runs_total", &[]).is_some(), "series must stay exposed");
}

#[test]
fn per_worker_scratch_reuse_counts_as_pool_hits() {
    // Serve-path regression: workers hold long-lived scratches and
    // never touch the internal pool, so the old pool-site counters
    // sat at 0 forever. Warm reuse must now count as hits.
    let reg = std::sync::Arc::new(obs::Registry::new());
    obs::set_thread_registry(Some(reg.clone()));
    let mut db = dynbase(4);
    for i in 0..12 {
        db.insert(ImageId(i), shape(i as u64 + 600));
    }
    let snap = db.snapshot();
    let mut scratch = MatcherScratch::new(); // cold, like a fresh worker
    let mut tmp = MatchOutcome::default();
    let mut out = Vec::new();
    let mut stats = RetrieveStats::default();
    for i in 0..5u64 {
        snap.retrieve_with_stats(
            &mut scratch,
            &mut tmp,
            &shape(600 + i),
            0,
            &mut out,
            &mut stats,
        );
    }
    obs::set_thread_registry(None);
    let snapm = reg.snapshot();
    let hits = snapm.counter("geosir_dynamic_scratch_pool_hits_total", &[]);
    let misses = snapm.counter("geosir_dynamic_scratch_pool_misses_total", &[]);
    assert_eq!(hits + misses, 5, "every query must be classified");
    assert_eq!(misses, 1, "only the first (cold) query grows the scratch");
    assert_eq!(hits, 4, "warm per-worker reuse must count as hits");
}

#[test]
fn seed_verdicts_change_no_answer() {
    let (snap, queries) = near_match_world();
    let mut scratch = MatcherScratch::new();
    let mut tmp = MatchOutcome::default();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let (mut on_stats, mut off_stats) = (RetrieveStats::default(), RetrieveStats::default());
    let (mut scored_on, mut scored_off) = (0, 0);
    for (i, q) in queries.iter().enumerate() {
        for k in [1, 4, 10] {
            snap.retrieve_with_stats(&mut scratch, &mut tmp, q, k, &mut on, &mut on_stats);
            snap.seed_and_scan(k, f64::INFINITY, &mut scratch, q, true, &mut off, &mut off_stats, None, false);
            assert_eq!(id_bits(&on), id_bits(&off), "query {i}, k = {k}");
            scored_on += on_stats.scan_copies;
            scored_off += off_stats.scan_copies;
        }
    }
    assert!(scored_on < scored_off, "the hand-off saved no scoring: {scored_on} vs {scored_off}");
}

#[test]
fn the_raster_changes_no_verdict_and_no_count() {
    // with and without the query's lower-bound raster: the same
    // answer, the same `RetrieveStats`, the same seed candidates with
    // the same verdict bits (so the seed's `reranked` / `abandoned`) —
    // and the raster did reject copies, or this proves nothing
    let (snap, queries) = near_match_world();
    let mut scratch = MatcherScratch::new();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let (mut on_stats, mut off_stats) = (RetrieveStats::default(), RetrieveStats::default());
    let verdicts = |s: &MatcherScratch| -> Vec<(u32, u32, u32, u64)> {
        s.seed.cands.iter().map(|c| (c.level, c.a, c.b, c.verdict.to_bits())).collect()
    };
    let (with, without) = (Arc::new(obs::Registry::new()), Arc::new(obs::Registry::new()));
    for (i, q) in queries.iter().enumerate() {
        for k in [1, 4, 10] {
            obs::set_thread_registry(Some(with.clone()));
            snap.seed_and_scan(k, f64::INFINITY, &mut scratch, q, true, &mut on, &mut on_stats, None, true);
            let seeded = verdicts(&scratch);
            obs::set_thread_registry(Some(without.clone()));
            snap.seed_and_scan(k, f64::INFINITY, &mut scratch, q, false, &mut off, &mut off_stats, None, true);
            assert_eq!(id_bits(&on), id_bits(&off), "query {i}, k = {k}");
            assert_eq!(on_stats, off_stats, "query {i}, k = {k}");
            assert_eq!(seeded, verdicts(&scratch), "query {i}, k = {k}");
        }
    }
    obs::set_thread_registry(None);
    let (with, without) = (with.snapshot(), without.snapshot());
    let rejects = |m: &obs::Snapshot| m.counter("geosir_exact_scan_bound_rejects_total", &[]);
    assert!(rejects(&with) > 0, "the raster rejected nothing");
    assert_eq!(rejects(&without), 0);
    for name in ["geosir_exact_seed_reranked_total", "geosir_exact_scan_copies_total"] {
        assert_eq!(with.counter(name, &[]), without.counter(name, &[]), "{name}");
    }
}

#[test]
fn served_scratch_holds_8_bytes_a_copy_of_the_largest_level() {
    // after warm exact and approximate queries a worker's scratch holds
    // one copy stamp per copy of the largest level, and none of the §2.5
    // matcher's other per-copy arrays
    let (snap, queries) = near_match_world();
    let largest = snap.slots().map(|(_, s)| s.level.num_copies()).max().expect("levels");
    let mut scratch = MatcherScratch::new();
    let (mut tmp, mut ax, mut out) = (MatchOutcome::default(), ApproxScratch::new(), Vec::new());
    let (mut stats, mut approx_stats) = (RetrieveStats::default(), ApproxStats::default());
    let opts = ApproxOptions { k: 10, ..ApproxOptions::default() };
    for q in &queries {
        snap.retrieve_with_stats(&mut scratch, &mut tmp, q, 10, &mut out, &mut stats);
        snap.similar_approx_with(&mut scratch, &mut tmp, &mut ax, q, &opts, &mut out, &mut approx_stats);
    }
    let per_copy = 8 * scratch.scored_stamp.capacity()
        + 8 * scratch.counter_stamp.capacity()
        + 4 * scratch.counters.capacity()
        + 8 * scratch.dist_sums.capacity();
    assert!(per_copy <= 8 * largest, "{per_copy} B of per-copy scratch for {largest} copies");
    assert_eq!(scratch.scored_stamp.len(), largest);
    let matcher = (scratch.counter_stamp.len(), scratch.counters.len(), scratch.dist_sums.len());
    assert_eq!(matcher, (0, 0, 0), "the matcher's per-copy arrays");
}

#[test]
fn a_k_of_zero_answers_empty() {
    // k = 0 asks for the base's k, and a base configured with k = 0
    // answers every path empty instead of partitioning at k − 1
    let mut db = DynamicBase::new(0.0, MatchConfig { k: 0, ..Default::default() }, 64);
    for i in 0..20 {
        db.insert(ImageId(i), shape(i as u64 + 900));
    }
    let (snap, q) = (db.snapshot(), shape(905));
    assert!(snap.retrieve(&q, 0).is_empty());
    assert_eq!(snap.retrieve(&q, 3).len(), 3);
    let (hits, _) = snap.similar_approx(&q, &ApproxOptions::default());
    assert!(hits.is_empty());
    let (mut scratch, mut tmp) = (MatcherScratch::new(), MatchOutcome::default());
    let (mut out, mut stats, mut explain) = (Vec::new(), RetrieveStats::default(), QueryExplain::default());
    snap.explain_with_stats(&mut scratch, &mut tmp, &q, 0, &mut out, &mut stats, &mut explain);
    assert!(out.is_empty() && explain.levels.is_empty());
    assert_eq!(explain.stats, RetrieveStats::default());
    assert_eq!(snap.retrieve_within(&q, f64::INFINITY).len(), 20);
}

#[test]
fn quantized_scan_loop_counts() {
    // a level scan's chunk loop and `score_onto` over the same copies —
    // what the loop does not skip — count the same scorings, abandons
    // and raster rejects and leave the same board: one chunk of 48
    // shapes (near matches of the query among them, so the cutoff
    // tightens mid-chunk), one of 70 vertices, every fifth stored with
    // no quantized vertex, some tombstoned, some copies settled; k of
    // 1, 3 and 10 from ∞ and a threshold board, with and without the
    // raster, every kind
    use super::arena::Chunk;
    use super::exact::{scan_chunk, score_onto, Board, Limits, Offer};
    use crate::normalize::normalizations;
    use geosir_imaging::synth::{perturb, random_simple_polygon};

    let mut rng = StdRng::seed_from_u64(83);
    let (frame, off_frame) = (LuneFrame::new(0.0), LuneFrame::new(-1000.0));
    let proto = random_simple_polygon(&mut rng, 11, 0.35);
    let mut shapes: Vec<Polyline> = (0..47)
        .map(|i| match i % 3 {
            0 => perturb(&proto, &mut rng, 0.02),
            _ => random_simple_polygon(&mut rng, 7 + i % 9, 0.35),
        })
        .collect();
    shapes.insert(20, random_simple_polygon(&mut rng, 70, 0.2));
    let arenas: Vec<CopyArena> = shapes
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut arena = CopyArena::default();
            for (fwd, ..) in normalizations(s.points(), 0.0) {
                let verts: Vec<Point> = s.points().iter().map(|&v| fwd.apply(v)).collect();
                arena.push(if i % 5 == 4 { &off_frame } else { &frame }, fwd, &verts, Signature::default());
            }
            arena
        })
        .collect();
    let ids: Vec<GlobalShapeId> = (0..shapes.len() as u64).map(|i| GlobalShapeId(100 + i)).collect();
    let packed = shapes.iter().zip(&arenas).zip(&ids).enumerate().map(|(i, ((s, arena), &id))| {
        ((id, ImageId(i as u32), s.points(), s.is_closed()), arena, 0..arena.len())
    });
    let chunk = Chunk::pack(packed);
    assert!((0..chunk.copies.len()).any(|i| chunk.copies.quantized(i).is_empty()));
    assert!((0..chunk.copies.len()).any(|i| chunk.copies.quantized(i).len() == 70));
    let dead = |owner: ShapeId| owner.0 % 7 == 2;
    let settled = |copy: usize| copy % 11 == 5;
    let skip = |copy: usize, owner: ShapeId| settled(copy) || dead(owner);

    let mut query = PreparedShape::new(crate::normalize::normalize_about_diameter(&perturb(&proto, &mut rng, 0.01)).unwrap().0.shape);
    query.build_grid();
    query.build_lower_bound();
    let mut raster = QuantRaster::default();
    assert!(raster.build(&frame, &query));

    let (mut rejected, mut tightened) = (0, 0);
    let kinds = [ScoreKind::DiscreteSymmetric, ScoreKind::DiscreteDirected, ScoreKind::ContinuousDirected];
    for kind in kinds {
        for (k, within) in [(1, f64::INFINITY), (3, f64::INFINITY), (10, f64::INFINITY), (usize::MAX, 0.05)] {
            for raster in [Some(&raster), None] {
                let what = format!("{kind:?}, k = {k}, within {within}, raster {}", raster.is_some());
                // two boards, filled the two ways
                let mut ax = [ApproxScratch::new(), ApproxScratch::new()];
                let mut boards = ax.each_mut().map(|ApproxScratch { rows, best, ktmp, back, .. }| {
                    Board { k, cutoff: within, rows, slot: best, ktmp, back }
                });
                let [by_loop, by_offers] = &mut boards;
                let looped = scan_chunk(kind, &query, raster, by_loop, &mut Limits::default(), &chunk, &ids, skip);
                let offers = (0..chunk.copies.len()).filter(|&i| !skip(i, chunk.copies.owner[i]));
                let offers = offers.map(|copy| Offer { store: Store::Chunk(&chunk, &ids), copy, verdict: None });
                let offered = score_onto(kind, &query, raster, by_offers, offers);
                assert_eq!(looped, offered, "{what}");
                assert!(looped.scored > 0 && looped.scored < chunk.copies.len() as u64, "{what}");
                assert_eq!(by_loop.cutoff.to_bits(), by_offers.cutoff.to_bits(), "{what}");
                let rows = |b: &Board| b.rows.iter().map(|m| (m.shape, m.image, m.score.to_bits())).collect::<Vec<_>>();
                assert_eq!(rows(by_loop), rows(by_offers), "{what}");
                assert!(by_loop.rows.iter().all(|m| !dead(ShapeId((m.shape.0 - 100) as u32))), "{what}: a tombstoned shape on the board");
                rejected += looped.rejected;
                tightened += (k <= 3 && by_loop.cutoff < within) as u64;
            }
        }
    }
    assert!(rejected > 0, "the raster rejected nothing");
    assert!(tightened >= 6, "the cutoff tightened in {tightened} scans");
}

#[test]
fn quantized_seed_handoff_spares_buffered_copies() {
    // the `handoff = false` leg on a base with 300 buffered shapes
    // beside a 512-shape level: the same answers, the same buffered
    // shapes counted, and fewer buffered copies scored with the hand-off
    // (the seed's buffered candidates are not scored again)
    use geosir_imaging::synth::{perturb, random_simple_polygon};
    let mut rng = StdRng::seed_from_u64(29);
    let protos: Vec<Polyline> = (0..4).map(|_| random_simple_polygon(&mut rng, 11, 0.35)).collect();
    let shapes: Vec<Polyline> = (0..812)
        .map(|i| match i % 6 {
            0 => perturb(&protos[i % 4], &mut rng, 0.02),
            _ => random_simple_polygon(&mut rng, 7 + i % 8, 0.35),
        })
        .collect();
    let db = shipped(512, shapes.iter().cloned());
    let snap = db.snapshot();
    assert_eq!((snap.num_levels(), snap.buffer.len()), (1, 300));
    let mut scratch = MatcherScratch::new();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    let (mut on_stats, mut off_stats) = (RetrieveStats::default(), RetrieveStats::default());
    let scorings = || BUFFER_SCORINGS.with(|n| n.get());
    let (mut with, mut without) = (0, 0);
    for (i, proto) in protos.iter().cycle().take(12).enumerate() {
        let q = perturb(proto, &mut rng, 0.01);
        for k in [1, 4, 10] {
            let before = scorings();
            snap.seed_and_scan(k, f64::INFINITY, &mut scratch, &q, true, &mut on, &mut on_stats, None, true);
            let between = scorings();
            snap.seed_and_scan(k, f64::INFINITY, &mut scratch, &q, true, &mut off, &mut off_stats, None, false);
            assert_eq!(id_bits(&on), id_bits(&off), "query {i}, k = {k}");
            assert_eq!((on_stats.buffer_scored, off_stats.buffer_scored), (300, 300));
            (with, without) = (with + between - before, without + scorings() - between);
        }
    }
    let copies = snap.buffer.iter().map(|b| b.copies.len() as u64).sum::<u64>();
    assert_eq!(without, 36 * copies, "without the hand-off every buffered copy is scored");
    assert!(with < without, "the hand-off spared no buffered scoring: {with} vs {without}");
}
