#[test]
fn delete_and_contains_binary_search_a_level() {
    // one 1 000-shape level (plus two small ones): a delete, and the
    // membership test WAL replay makes per insert, compare against a
    // handful of ids, not the level's thousand
    let mut db = dynbase(8);
    let ids = db.bulk_load((0..1000).map(|i| (ImageId(i), shape(i as u64))));
    for i in 1000..1024 {
        db.insert(ImageId(i), shape(i as u64));
    }
    assert_eq!(db.num_levels(), 3);
    let before = ID_PROBES.with(|c| c.get());
    assert!(db.contains(ids[500]));
    assert!(db.delete(ids[500]));
    assert!(!db.contains(ids[500]) && !db.delete(ids[500]), "tombstoned");
    assert!(!db.contains(GlobalShapeId(5000)) && !db.delete(GlobalShapeId(5000)), "never held");
    let probes = ID_PROBES.with(|c| c.get()) - before;
    // each of the six calls searches the levels: ≈ 11 + 5 + 4 steps
    assert!((6..150).contains(&probes), "{probes} id comparisons");
    assert_eq!(db.len(), 1023);
}

proptest! {
    /// A carry is a merge, and the merge is the rebuild: over random
    /// insert / delete schedules, every level the base holds equals
    /// [`Level::build`] of what the old cascade would have pooled —
    /// the buffer, then the consumed slots in ascending order, minus
    /// the tombstones — kept here as a model beside the base. So is a
    /// compaction: the model drops a pool's dead, in place, the
    /// moment they outnumber its live shapes.
    #[test]
    fn merge_equals_rebuild(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cap = rng.random_range(2..=16usize);
        let alpha = if rng.random_bool(0.5) { 0.1 } else { 0.0 };
        let mut db = DynamicBase::new(alpha, MatchConfig::default(), cap);
        type Pool = Vec<(GlobalShapeId, ImageId, Polyline)>;
        let (mut buffer, mut slots): (Pool, Vec<Option<Pool>>) = (Vec::new(), Vec::new());
        let mut dead: HashSet<GlobalShapeId> = HashSet::new();
        let mut compactions = 0;
        for step in 0..rng.random_range(40..160u32) {
            if buffer.is_empty() && slots.is_empty() || rng.random_bool(0.7) {
                let (image, s) = (ImageId(step), shape(rng.random()));
                buffer.push((db.insert(image, s.clone()), image, s));
                if buffer.len() < cap {
                    continue;
                }
                // the carry, as the rebuild pooled it
                let mut pool = std::mem::take(&mut buffer);
                let mut slot = 0;
                while let Some(level) = slots.get_mut(slot).and_then(Option::take) {
                    pool.extend(level);
                    slot += 1;
                }
                pool.retain(|(g, _, _)| !dead.remove(g));
                slots.resize(slots.len().max(slot + 1), None);
                slots[slot] = (!pool.is_empty()).then_some(pool);
            } else {
                let id = GlobalShapeId(rng.random_range(0..db.state.next_id));
                let buffered = buffer.iter().position(|(g, _, _)| *g == id);
                let leveled = slots.iter().flatten().any(|l| l.iter().any(|(g, _, _)| *g == id));
                let held = buffered.is_some() || (leveled && !dead.contains(&id));
                prop_assert_eq!(db.delete(id), held, "step {}: delete {:?}", step, id);
                match buffered {
                    Some(at) => drop(buffer.remove(at)),
                    None if held => {
                        dead.insert(id);
                        // the rule, on the one pool that holds `id`
                        let slot = slots.iter_mut().find(|s| s.iter().flatten().any(|(g, _, _)| *g == id));
                        let slot = slot.expect("leveled");
                        let pool = slot.as_mut().expect("found there");
                        let gone = pool.iter().filter(|(g, _, _)| dead.contains(g)).count();
                        if gone > pool.len() - gone {
                            pool.retain(|(g, _, _)| !dead.remove(g));
                            compactions += 1;
                            if pool.is_empty() {
                                *slot = None;
                            }
                        }
                    }
                    None => {}
                }
            }
            prop_assert_eq!(db.compactions, compactions, "step {}: compactions", step);
            let live = buffer.len() + slots.iter().flatten().map(Vec::len).sum::<usize>() - dead.len();
            prop_assert_eq!((db.len(), db.snapshot().len()), (live, live), "step {}: len", step);
            prop_assert_eq!(db.state.levels.len(), slots.len());
            for (i, (slot, model)) in db.state.levels.iter().zip(&slots).enumerate() {
                prop_assert_eq!(slot.is_some(), model.is_some(), "step {}: slot {}", step, i);
                if let (Some(slot), Some(model)) = (slot, model) {
                    let what = format!("seed {seed} step {step} slot {i}");
                    let rebuilt = Level::build(model.clone(), alpha, &db.state.family);
                    assert_same_level(&slot.level, &rebuilt, &what);
                    assert_recomputes(Store::Level(&slot.level), alpha, &db.state.family, &what);
                    // the bits are the model's tombstones, and never
                    // the majority
                    let held: Vec<_> = model.iter().map(|(g, _, _)| *g).collect();
                    let want: Vec<_> = held.iter().filter(|g| dead.contains(g)).collect();
                    let got: Vec<_> = held.iter().filter(|g| !slot.live().any(|l| slot.level.ids[l.index()] == **g)).collect();
                    prop_assert_eq!(&got, &want, "{}: tombstones", what);
                    prop_assert_eq!(slot.dead.shapes, want.len(), "{}: dead count", what);
                    prop_assert!(slot.dead.shapes <= slot.live_shapes(), "{}: more dead than alive", what);
                    let live_copies = slot.level.copies.owner.iter().filter(|o| !slot.dead.get(**o)).count();
                    prop_assert_eq!(slot.live_copies(), live_copies, "{}: live copies", what);
                }
            }
        }
    }
}

#[test]
fn a_carry_merges_off_the_writer_from_cloned_inputs() {
    // a base one insert short of a carry into slot 2: slots 0 and 1 hold
    // levels with tombstones, the buffer holds cap − 1 shapes
    let mut db = dynbase(4);
    let ids: Vec<_> = (0..15).map(|i| db.insert(ImageId(i), shape(9100 + i as u64))).collect();
    for id in [ids[0], ids[5], ids[9], ids[13]] {
        assert!(db.delete(id));
    }
    assert_eq!((db.state.buffer.len(), db.compactions), (2, 0));
    db.insert(ImageId(15), shape(9115));
    let target = db.state.levels.iter().position(Option::is_none).unwrap_or(db.state.levels.len());
    assert_eq!(target, 2);
    assert!(db.state.levels[..target].iter().flatten().all(|s| s.dead.shapes > 0));

    // what the writer would hand over: the buffer with the next insert
    // in it, and the slots the carry consumes — `Arc`s, nothing borrowed
    let (next, id) = (shape(9116), GlobalShapeId(db.state.next_id));
    let mut buffer = db.state.buffer.clone();
    let mut scratch = InsertScratch::default();
    buffer.push(Arc::new(BufferedShape::new(id, ImageId(16), next.clone(), db.alpha, &db.state.family, &mut scratch)));
    let slots: Vec<Slot> = db.state.levels[..target].iter().flatten().cloned().collect();
    let merged = std::thread::spawn(move || Level::merge(&buffer, slots.iter())).join().expect("merge thread");

    assert_eq!(db.insert(ImageId(16), next), id);
    let carried = db.state.levels[target].as_ref().expect("the carry's slot");
    assert_same_level(&carried.level, &merged, "off-thread merge");
}
