#[test]
fn inserts_are_queryable_immediately() {
    let mut db = dynbase(8);
    let s = shape(1);
    let id = db.insert(ImageId(0), s.clone());
    assert_eq!(db.len(), 1);
    // still in the buffer (cap 8) — brute-force path must find it
    assert_eq!(db.num_levels(), 0);
    let hits = db.snapshot().retrieve(&s, 0);
    assert_eq!(hits.first().map(|m| m.shape), Some(id));
    assert!(hits[0].score < 1e-9);
}

#[test]
fn cascade_builds_levels_with_carry_pattern() {
    let mut db = dynbase(4);
    for i in 0..16 {
        db.insert(ImageId(i), shape(i as u64));
    }
    // 16 inserts with cap 4: everything repeatedly merges into a
    // single level of 16 (binary carry), never more than log levels
    assert!(db.num_levels() <= 2, "levels: {}", db.num_levels());
    assert_eq!(db.len(), 16);
    // every shape still retrievable
    for i in 0..16u64 {
        let s = shape(i);
        let hits = db.snapshot().retrieve(&s, 0);
        assert!(hits.iter().any(|m| m.score < 1e-9), "shape {i} lost after cascades");
    }
}

#[test]
fn deletes_remove_from_results() {
    let mut db = dynbase(4);
    let s = shape(7);
    let id = db.insert(ImageId(0), s.clone());
    for i in 1..10 {
        db.insert(ImageId(i), shape(i as u64 + 50));
    }
    assert!(db.snapshot().retrieve(&s, 0).iter().any(|m| m.shape == id));
    assert!(db.delete(id));
    assert!(!db.delete(id), "double delete must report false");
    assert!(!db.snapshot().retrieve(&s, 0).iter().any(|m| m.shape == id));
    assert_eq!(db.len(), 9);
    // after more inserts force rebuilds, the tombstone is compacted
    for i in 10..30 {
        db.insert(ImageId(i), shape(i as u64 + 50));
    }
    assert!(!db.snapshot().retrieve(&s, 0).iter().any(|m| m.shape == id));
}

#[test]
fn delete_unknown_id_is_false() {
    let mut db = dynbase(4);
    assert!(!db.delete(GlobalShapeId(99)));
}

#[test]
fn len_counts_one_per_delete_buffered_or_leveled() {
    // buffered delete: the entry drops eagerly; no tombstone may
    // linger (it would make len() subtract the shape twice)
    let mut db = dynbase(8);
    let ids: Vec<_> = (0..5).map(|i| db.insert(ImageId(i), shape(i as u64))).collect();
    assert_eq!(db.len(), 5);
    assert!(db.delete(ids[2]));
    assert_eq!(db.len(), 4);
    assert!(!db.delete(ids[2]));
    assert_eq!(db.len(), 4);

    // leveled delete: tombstone now, compacted (and forgotten) once a
    // cascade rebuilds the level — len() stays exact throughout
    for i in 5..16 {
        db.insert(ImageId(i), shape(i as u64));
    }
    assert_eq!(db.len(), 15);
    assert!(db.delete(ids[0]), "ids[0] cascaded into a level");
    assert_eq!(db.len(), 14);
    for i in 16..40 {
        db.insert(ImageId(i), shape(i as u64));
        assert_eq!(db.len(), 14 + (i - 15) as usize, "len drifts at insert {i}");
    }
}

#[test]
fn snapshot_is_isolated_from_later_writes() {
    let mut db = dynbase(4);
    let victim_shape = shape(3);
    let victim = db.insert(ImageId(0), victim_shape.clone());
    for i in 1..13 {
        db.insert(ImageId(i), shape(i as u64 + 20));
    }
    let snap = db.snapshot();
    let epoch_before = snap.epoch();
    assert_eq!(snap.len(), 13);

    // mutate the base: delete the victim, insert enough to cascade
    assert!(db.delete(victim));
    for i in 13..30 {
        db.insert(ImageId(i), shape(i as u64 + 20));
    }
    assert!(db.epoch() > epoch_before);

    // the snapshot still sees the pre-mutation world
    assert_eq!(snap.epoch(), epoch_before);
    assert_eq!(snap.len(), 13);
    let hits = snap.retrieve(&victim_shape, 1);
    assert_eq!(hits.first().map(|m| m.shape), Some(victim), "snapshot lost the victim");

    // a fresh snapshot sees the new world
    let snap2 = db.snapshot();
    assert!(snap2.epoch() > epoch_before);
    assert!(!snap2.retrieve(&victim_shape, 3).iter().any(|m| m.shape == victim));
}

#[test]
fn bulk_load_matches_incremental_inserts() {
    let shapes: Vec<Polyline> = (0..20).map(|i| shape(i as u64 + 400)).collect();
    let mut incremental = dynbase(4);
    for (i, s) in shapes.iter().enumerate() {
        incremental.insert(ImageId(i as u32), s.clone());
    }
    let mut bulk = dynbase(4);
    let ids = bulk
        .bulk_load(shapes.iter().enumerate().map(|(i, s)| (ImageId(i as u32), s.clone())));
    assert_eq!(ids.len(), 20);
    assert_eq!(bulk.len(), 20);
    assert_eq!(bulk.num_levels(), 1, "bulk load must build exactly one level");
    assert_eq!(bulk.epoch(), 20);
    for q in shapes.iter().take(8) {
        let a = incremental.snapshot().retrieve(q, 0);
        let b = bulk.snapshot().retrieve(q, 0);
        assert_eq!(a.first().map(|m| m.image), b.first().map(|m| m.image));
        assert!((a[0].score - b[0].score).abs() < 1e-9);
    }
    // live updates keep working after a bulk load
    let extra = shape(999);
    let id = bulk.insert(ImageId(99), extra.clone());
    assert_eq!(bulk.snapshot().retrieve(&extra, 0).first().map(|m| m.shape), Some(id));
    assert!(bulk.delete(id));
}

#[test]
fn epoch_counts_mutations() {
    let mut db = dynbase(4);
    assert_eq!(db.epoch(), 0);
    let id = db.insert(ImageId(0), shape(1));
    assert_eq!(db.epoch(), 1);
    db.insert(ImageId(1), shape(2));
    assert_eq!(db.epoch(), 2);
    assert!(db.delete(id));
    assert_eq!(db.epoch(), 3);
    assert!(!db.delete(id), "failed delete must not bump the epoch");
    assert_eq!(db.epoch(), 3);
}

#[test]
fn live_shapes_restore_round_trip() {
    let mut db = dynbase(4);
    let mut ids = Vec::new();
    for i in 0..14 {
        ids.push(db.insert(ImageId(i), shape(i as u64 + 700)));
    }
    assert!(db.delete(ids[3]));
    assert!(db.delete(ids[9]));
    let snap = db.snapshot();
    let live = snap.live_shapes();
    assert_eq!(live.len(), 12);
    assert!(!live.iter().any(|(g, _, _)| *g == ids[3] || *g == ids[9]));

    let restored = DynamicBase::restore(
        0.05,
        MatchConfig { k: 3, beta: 0.3, ..Default::default() },
        4,
        live,
        snap.next_id(),
        snap.epoch(),
    );
    assert_eq!(restored.len(), 12);
    assert_eq!(restored.epoch(), snap.epoch());
    // queries agree on the best hit (and its exact score) with the
    // original; deeper ranks may differ across level decompositions
    for i in 0..14u64 {
        let q = shape(i + 700);
        let a = db.snapshot().retrieve(&q, 0);
        let b = restored.snapshot().retrieve(&q, 0);
        assert_eq!(
            a.first().map(|m| m.shape),
            b.first().map(|m| m.shape),
            "query {i} best match diverged after restore"
        );
        if let (Some(x), Some(y)) = (a.first(), b.first()) {
            assert!((x.score - y.score).abs() < 1e-9, "query {i} score diverged");
        }
    }
    // a tombstoned id is never reused by later inserts
    let fresh = {
        let mut r = restored;
        r.insert(ImageId(99), shape(999))
    };
    assert!(fresh.0 >= snap.next_id(), "restore must respect the id watermark");
}

#[test]
fn insert_with_id_is_idempotent_replay() {
    let mut db = dynbase(4);
    let s = shape(5);
    assert!(db.insert_with_id(GlobalShapeId(7), ImageId(1), s.clone()));
    assert!(
        !db.insert_with_id(GlobalShapeId(7), ImageId(1), s.clone()),
        "replaying the same record twice must not double-insert"
    );
    assert_eq!(db.len(), 1);
    assert!(db.contains(GlobalShapeId(7)));
    assert!(!db.contains(GlobalShapeId(3)));
    // the watermark advanced past the replayed id
    let next = db.insert(ImageId(2), shape(6));
    assert!(next.0 > 7);
    // delete replay: removing the replayed id works, double delete is false
    assert!(db.delete(GlobalShapeId(7)));
    assert!(!db.contains(GlobalShapeId(7)));
}

#[test]
fn amortized_rebuild_cost_is_logarithmic() {
    let mut db = dynbase(8);
    let n = 512;
    for i in 0..n {
        db.insert(ImageId(i as u32), shape(i as u64));
    }
    // Bentley–Saxe: total rebuilt work ≤ N · (log2(N / cap) + 2)
    let bound = (n as f64) * ((n as f64 / 8.0).log2() + 2.0);
    assert!(
        (db.shapes_rebuilt as f64) <= bound,
        "rebuilt {} shapes for {} inserts (bound {bound:.0})",
        db.shapes_rebuilt,
        n
    );
    assert!(db.num_levels() <= 8);
}

#[test]
fn churned_base_equals_a_fresh_one() {
    use geosir_imaging::synth::{perturb, random_simple_polygon};
    // What a base answers depends on its live shapes alone, not on
    // the deletes it has seen: a churned base (tombstones in at least
    // three levels, a compacted level, a buffer that lost entries)
    // against `restore(live_shapes())` — one level, nothing dead.
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(700 + seed);
        let proto = random_simple_polygon(&mut rng, 10, 0.35);
        let mut db = shipped(4, std::iter::empty());
        let mut live = Vec::new();
        let steps = rng.random_range(150..260u32);
        for step in 0..steps + 10 {
            if step == steps {
                // a level loses its majority, once for certain
                let occupied: Vec<&Slot> = db.state.levels.iter().flatten().collect();
                let half = occupied[occupied.len() / 2];
                let doomed: Vec<_> = half.live().map(|l| half.level.ids[l.index()]).collect();
                for id in doomed {
                    if db.compactions == 0 {
                        assert!(db.delete(id));
                        live.retain(|l| *l != id);
                    }
                }
            }
            if live.len() < 8 || rng.random_bool(0.7) {
                let s = match step % 4 {
                    0 => perturb(&proto, &mut rng, 0.02),
                    _ => random_simple_polygon(&mut rng, 6 + step as usize % 9, 0.35),
                };
                live.push(db.insert(ImageId(step), s));
            } else {
                assert!(db.delete(live.swap_remove(rng.random_range(0..live.len()))));
            }
        }
        // something buffered, and a tombstone in every level the
        // schedule left without
        if db.state.buffer.is_empty() {
            db.insert(ImageId(0), perturb(&proto, &mut rng, 0.02));
        }
        let spared = db.state.levels.iter().flatten().filter(|s| s.dead.shapes == 0 && s.live_shapes() > 2);
        for id in spared.map(|s| s.level.ids[0]).collect::<Vec<_>>() {
            assert!(db.delete(id));
        }
        let tombstoned = db.state.levels.iter().flatten().filter(|s| s.dead.shapes > 0).count();
        assert!(tombstoned >= 3 && db.compactions >= 1, "seed {seed}: {tombstoned} levels, {} compactions", db.compactions);
        let churned = db.snapshot();
        assert!(!churned.buffer.is_empty() && churned.dead_shapes() > 0, "seed {seed}");
        let fresh = DynamicBase::restore(0.0, db.state.config.clone(), 4, churned.live_shapes(), churned.next_id(), churned.epoch()).snapshot();
        assert_eq!((fresh.num_levels(), fresh.dead_shapes()), (1, 0));
        assert_eq!((churned.len(), churned.total_copies()), (fresh.len(), fresh.total_copies()), "seed {seed}");
        // what a probe that stops by R may examine per level: its table,
        // measured once, or — only where the table is larger than the
        // box of signatures within R — at most that box in hash lookups
        let probe_bound = |snap: &Snapshot, max_radius: u64| -> u64 {
            let boxed = (2 * max_radius + 2).pow(4);
            snap.slots().map(|(_, s)| (s.level.buckets.num_buckets() as u64).min(boxed)).sum()
        };

        for (qi, (_, _, stored)) in churned.live_shapes().iter().enumerate().take(12) {
            let q = perturb(if qi % 2 == 0 { &proto } else { stored }, &mut rng, 0.01);
            for k in [1, 10, 50] {
                assert_eq!(id_bits(&churned.retrieve(&q, k)), id_bits(&fresh.retrieve(&q, k)), "seed {seed} query {qi} k {k}: exact");
                // a budget that binds (rings are cut short) and one
                // that does not
                for max_candidates in [24, 2048] {
                    let opts = ApproxOptions { k, max_candidates, ..ApproxOptions::default() };
                    let (a, sa) = churned.similar_approx(&q, &opts);
                    let (b, sb) = fresh.similar_approx(&q, &opts);
                    let what = format!("seed {seed} query {qi} k {k} budget {max_candidates}");
                    assert_eq!(id_bits(&a), id_bits(&b), "{what}: approximate answer");
                    assert_eq!((sa.candidates, sa.reranked, sa.radius), (sb.candidates, sb.reranked, sb.radius), "{what}");
                    assert_eq!(sa.corpus_copies, sb.corpus_copies, "{what}");
                    if sa.radius <= opts.max_radius {
                        let bound = probe_bound(&churned, opts.max_radius as u64);
                        assert!(sa.buckets_probed <= bound, "{what}: {} buckets probed, bound {bound}", sa.buckets_probed);
                    }
                }
            }
        }
    }
}
