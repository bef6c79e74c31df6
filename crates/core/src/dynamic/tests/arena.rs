#[test]
fn quantized_copies_recompute_bit_for_bit() {
    // what a base stores of a copy — source, similarity, quantized
    // vertices — gives back the vertices insert time made, after an
    // insert, a carry, a compaction, a bulk load and a restore
    for alpha in [0.0, 0.1] {
        let mut db = DynamicBase::new(alpha, MatchConfig::default(), 4);
        let ids: Vec<_> = (0..3).map(|i| db.insert(ImageId(i), shape(8000 + i as u64))).collect();
        assert_eq!((db.num_levels(), db.state.buffer.len()), (0, 3));
        assert_base_recomputes(&db, "inserted");
        for i in 3..22 {
            db.insert(ImageId(i), shape(8000 + i as u64));
        }
        assert!(db.num_levels() >= 2 && !db.state.buffer.is_empty());
        assert_base_recomputes(&db, "carried");
        let last = db.state.levels.iter().flatten().last().expect("levels");
        let doomed: Vec<_> = last.live().map(|l| last.level.ids[l.index()]).collect();
        for id in doomed {
            db.delete(id);
        }
        assert!(db.compactions >= 1);
        assert_base_recomputes(&db, "compacted");
        db.bulk_load((0..9).map(|i| (ImageId(100 + i), shape(8100 + i as u64))));
        assert_base_recomputes(&db, "bulk-loaded");
        let snap = db.snapshot();
        let restored = DynamicBase::restore(alpha, MatchConfig::default(), 4, snap.live_shapes(), snap.next_id(), snap.epoch());
        assert_base_recomputes(&restored, "restored");
        let _ = ids;
    }
}

#[test]
fn quantized_copy_off_the_frame_takes_the_distance_loop() {
    // a copy with a vertex outside the frame keeps no quantized
    // vertex, so the raster test cannot reject it: the distance loop
    // scores it as it would without a raster
    let frame = LuneFrame::new(0.0);
    let identity = Similarity { a: 1.0, b: 0.0, tx: 0.0, ty: 0.0 };
    let (inside, outside) = ([p(0.0, 0.0), p(1.0, 0.0), p(0.5, 0.2)], [p(0.0, 0.0), p(1.0, 0.0), p(0.5, 3.0)]);
    let mut arena = CopyArena::default();
    arena.push(&frame, identity, &outside, Signature::default());
    arena.push(&frame, identity, &inside, Signature::default());
    assert_eq!(arena.ends, [0, 3]);
    assert!(arena.quantized(0).is_empty() && arena.quantized(1).len() == 3);
    let mut query = PreparedShape::new(Polyline::closed(vec![p(0.0, 0.0), p(1.0, 0.0), p(0.5, -0.5)]).unwrap());
    query.build_grid();
    query.build_lower_bound();
    let mut raster = QuantRaster::default();
    assert!(raster.build(&frame, &query));
    let copy = StoredCopy { src: &outside, fwd: &identity, closed: true };
    for cutoff in [0.0, 0.01, 0.3] {
        let kind = ScoreKind::DiscreteSymmetric;
        let off = score_copy_bounded(kind, arena.quantized(0), || copy, &query, Some(&raster), &mut None, cutoff);
        let plain = score_copy_bounded(kind, arena.quantized(0), || copy, &query, None, &mut None, cutoff);
        assert_eq!((off.0.to_bits(), off.1), (plain.0.to_bits(), false), "cutoff {cutoff}");
    }
    // the same copy in the frame is the raster's to reject
    let copy = StoredCopy { src: &inside, fwd: &identity, closed: true };
    let kind = ScoreKind::DiscreteSymmetric;
    assert_eq!(score_copy_bounded(kind, arena.quantized(1), || copy, &query, Some(&raster), &mut None, 0.01), (f64::INFINITY, true));
}
