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

#[test]
fn compactions_on_a_wide_level_stay_amortised() {
    // one 1 024-shape level of 64 chunks, emptied by deletes in a random
    // order: no rewrite rebuilds more than `REBUILT_PER_SHED` index
    // entries a dead shape it sheds — so a chunk is not rewritten each
    // time it goes half dead, at the cost of its whole level's index —
    // and the level never holds more dead than live shapes
    let mut db = dynbase(16);
    let mut ids = db.bulk_load((0..1024).map(|i| (ImageId(i), shape(i as u64))));
    let stored = |db: &DynamicBase| db.state.levels.iter().flatten().map(|s| s.level.ids.len()).sum::<usize>();
    assert_eq!((db.num_levels(), db.state.levels.iter().flatten().map(|s| s.level.parts.len()).sum()), (1, 64));
    let mut rng = StdRng::seed_from_u64(7);
    for i in (1..ids.len()).rev() {
        ids.swap(i, rng.random_range(0..=i));
    }
    let (mut rebuilt, mut chunk_rewrites) = (0, 0);
    for id in &ids {
        let (held, compactions) = (stored(&db), db.compactions);
        assert!(db.delete(*id));
        if db.compactions > compactions {
            let shed = held - stored(&db);
            assert!(held <= REBUILT_PER_SHED * shed, "a level of {held} re-indexed to shed {shed}");
            rebuilt += held;
            chunk_rewrites += usize::from(db.state.levels.iter().flatten().any(|s| s.dead.shapes > 0));
        }
        let slot = db.state.levels.iter().flatten().next();
        assert!(slot.is_none_or(|s| s.dead.shapes <= s.live_shapes()), "more dead than alive");
    }
    assert_eq!((db.len(), db.num_levels()), (0, 0));
    assert!(rebuilt <= REBUILT_PER_SHED * ids.len(), "{rebuilt} index entries rebuilt for {} deletes", ids.len());
    assert!(chunk_rewrites > 0 && db.compactions < 64, "{chunk_rewrites} of {} rewrites a chunk's", db.compactions);
}

/// A model level: its chunks, each the shapes it holds, dead or alive.
type ModelChunk = Vec<(GlobalShapeId, ImageId, Polyline)>;

/// The carry's repack, in the model: the chunks of `run` (emptied) as
/// they are when one alone has no dead shape, else their live shapes in
/// one chunk, their dead forgotten.
fn model_repack(run: &mut Vec<ModelChunk>, level: &mut Vec<ModelChunk>, dead: &mut HashSet<GlobalShapeId>) {
    match &run[..] {
        [] => {}
        [one] if one.iter().all(|(g, _, _)| !dead.contains(g)) => level.append(run),
        _ => {
            let packed: ModelChunk = run.drain(..).flatten().filter(|(g, _, _)| !dead.remove(g)).collect();
            level.extend((!packed.is_empty()).then_some(packed));
        }
    }
}

proptest! {
    /// A carry shares chunks, and the level it leaves is the rebuild:
    /// over random insert / delete schedules, every level the base holds
    /// reads, row by row and copy by copy, as [`Slot::build`] of what a
    /// model beside the base pooled — the buffer sealed into a chunk,
    /// then the consumed slots' chunks in ascending order, runs of
    /// chunks more dead than alive or under a quarter full repacked
    /// without their dead — with the
    /// model's tombstones and its chunk sizes. So is a compaction: the
    /// model drops every chunk's dead, in place, the moment a level's dead
    /// outnumber its live shapes — and a chunk's alone, the moment they
    /// outnumber its live shapes and are at least 1/`REBUILT_PER_SHED` of
    /// a level of more than 2 × `cap` shapes.
    #[test]
    fn merge_equals_rebuild(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cap = rng.random_range(2..=16usize);
        let alpha = if rng.random_bool(0.5) { 0.1 } else { 0.0 };
        let mut db = DynamicBase::new(alpha, MatchConfig::default(), cap);
        let (mut buffer, mut slots): (ModelChunk, Vec<Option<Vec<ModelChunk>>>) = (Vec::new(), Vec::new());
        let mut dead: HashSet<GlobalShapeId> = HashSet::new();
        let mut compactions = 0;
        for step in 0..rng.random_range(40..160u32) {
            if buffer.is_empty() && slots.is_empty() || rng.random_bool(0.7) {
                let (image, s) = (ImageId(step), shape(rng.random()));
                buffer.push((db.insert(image, s.clone()), image, s));
                if buffer.len() < cap {
                    continue;
                }
                // the carry, as the model pools it
                let mut inputs = vec![std::mem::take(&mut buffer)];
                let mut slot = 0;
                while let Some(level) = slots.get_mut(slot).and_then(Option::take) {
                    inputs.extend(level);
                    slot += 1;
                }
                let (mut level, mut run, mut live) = (Vec::new(), Vec::new(), 0);
                for chunk in inputs {
                    let held = chunk.iter().filter(|(g, _, _)| !dead.contains(g)).count();
                    let kept = chunk.len() - held <= held && 4 * held >= cap;
                    if kept || live + held > cap {
                        model_repack(&mut run, &mut level, &mut dead);
                        live = 0;
                    }
                    if kept {
                        level.push(chunk);
                    } else {
                        run.push(chunk);
                        live += held;
                    }
                }
                model_repack(&mut run, &mut level, &mut dead);
                slots.resize(slots.len().max(slot + 1), None);
                slots[slot] = Some(level);
            } else {
                let id = GlobalShapeId(rng.random_range(0..db.state.next_id));
                let buffered = buffer.iter().position(|(g, _, _)| *g == id);
                let holds = |c: &ModelChunk| c.iter().any(|(g, _, _)| *g == id);
                let leveled = slots.iter().flatten().flatten().any(holds);
                let held = buffered.is_some() || (leveled && !dead.contains(&id));
                prop_assert_eq!(db.delete(id), held, "step {}: delete {:?}", step, id);
                match buffered {
                    Some(at) => drop(buffer.remove(at)),
                    None if held => {
                        dead.insert(id);
                        // the rules, on the one level that holds `id`
                        let slot = slots.iter_mut().find(|s| s.iter().flatten().any(holds)).expect("leveled");
                        let level = slot.as_mut().expect("found there");
                        let c = level.iter().position(holds).expect("found there");
                        let gone = |c: &ModelChunk| c.iter().filter(|(g, _, _)| dead.contains(g)).count();
                        let (lost, all) = (level.iter().map(gone).sum::<usize>(), level.iter().map(Vec::len).sum::<usize>());
                        let (held, lost_here) = (level[c].len(), gone(&level[c]));
                        let doomed = if lost > all - lost {
                            0..level.len()
                        } else if lost_here > held - lost_here && all > 2 * cap && REBUILT_PER_SHED * lost_here >= all {
                            c..c + 1
                        } else {
                            0..0
                        };
                        if !doomed.is_empty() {
                            compactions += 1;
                            for chunk in &mut level[doomed] {
                                chunk.retain(|(g, _, _)| !dead.remove(g));
                            }
                            level.retain(|c| !c.is_empty());
                            if level.is_empty() {
                                *slot = None;
                            }
                        }
                    }
                    None => {}
                }
            }
            prop_assert_eq!(db.compactions, compactions, "step {}: compactions", step);
            let pooled = slots.iter().flatten().flatten().map(Vec::len).sum::<usize>();
            let live = buffer.len() + pooled - dead.len();
            prop_assert_eq!((db.len(), db.snapshot().len()), (live, live), "step {}: len", step);
            prop_assert_eq!(db.state.levels.len(), slots.len());
            for (i, (slot, model)) in db.state.levels.iter().zip(&slots).enumerate() {
                prop_assert_eq!(slot.is_some(), model.is_some(), "step {}: slot {}", step, i);
                if let (Some(slot), Some(model)) = (slot, model) {
                    let what = format!("seed {seed} step {step} slot {i}");
                    let pool = model.iter().flatten().cloned().collect();
                    let rebuilt = Slot::build(pool, alpha, &db.state.family, cap);
                    assert_same_level(&slot.level, &rebuilt.level, &what);
                    assert_level_recomputes(&slot.level, alpha, &db.state.family, &what);
                    let sizes: Vec<_> = slot.level.parts.iter().map(|p| p.chunk.len()).collect();
                    prop_assert_eq!(&sizes, &model.iter().map(Vec::len).collect::<Vec<_>>(), "{}: chunk sizes", what);
                    // the bits are the model's tombstones, and never
                    // the majority
                    let held: Vec<_> = model.iter().flatten().map(|(g, _, _)| *g).collect();
                    let want: Vec<_> = held.iter().filter(|g| dead.contains(g)).collect();
                    let got: Vec<_> = held.iter().filter(|g| !slot.live().any(|l| slot.level.ids[l.index()] == **g)).collect();
                    prop_assert_eq!(&got, &want, "{}: tombstones", what);
                    prop_assert_eq!(slot.dead.shapes, want.len(), "{}: dead count", what);
                    prop_assert!(slot.dead.shapes <= slot.live_shapes(), "{}: more dead than alive", what);
                    prop_assert!(slot.level.parts.iter().all(|p| p.chunk.len() <= cap), "{}: a chunk over the cap", what);
                    let live_copies = slot.level.owners.iter().filter(|&&o| !slot.dead.get(o)).count();
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
    let merged = std::thread::spawn(move || Slot::carry(&buffer, slots.iter(), 4)).join().expect("merge thread");

    assert_eq!(db.insert(ImageId(16), next), id);
    let carried = db.state.levels[target].as_ref().expect("the carry's slot");
    assert_same_level(&carried.level, &merged.level, "off-thread merge");
    let dead = |s: &Slot| (s.dead.words.clone(), s.dead.shapes, s.dead.copies);
    assert_eq!(dead(carried), dead(&merged), "off-thread merge: tombstones");
}

#[test]
fn each_mutation_reports_the_level_it_rebuilt() {
    // a buffer of 4: the 4th insert carries into slot 0, and the 3rd
    // delete of its shapes leaves it more dead than alive
    let mut db = dynbase(4);
    let ids: Vec<GlobalShapeId> = (0..4).map(|i| db.insert(ImageId(i), shape(i as u64 + 700))).collect();
    assert_eq!(db.last_rebuild, Some(Rebuild::Carry { slot: 0, shapes: 4 }));
    db.insert(ImageId(9), shape(709));
    assert_eq!(db.last_rebuild, None, "a buffered insert rebuilt nothing");
    assert!(db.delete(ids[0]) && db.delete(ids[1]));
    assert_eq!(db.last_rebuild, None, "two dead of four stay tombstoned");
    assert!(db.delete(ids[2]));
    assert_eq!(db.last_rebuild, Some(Rebuild::Compact { slot: 0, shapes: 1, shed: 3 }));
    assert_eq!(db.compactions, 1);
}
