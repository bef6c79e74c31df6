//! The dynamic base's tests, by role: each role file's under `tests/`,
//! included here beside the helpers they share, so that every test keeps
//! the one module path `dynamic::tests` (the names CI filters on and the
//! docs cite).

use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

use geosir_geom::rangesearch::Backend;
use geosir_geom::{Point, Polyline, Similarity};
use geosir_obs as obs;
use proptest::prelude::*;
use rand::prelude::*;

use super::arena::{BufferedShape, CopyArena, InsertScratch};
use super::exact::Store;
use super::level::{Level, Slot};
use super::snapshot::Prepared;
use super::*;
use crate::approx::{AnswerTier, ApproxOptions, ApproxScratch, ApproxStats};
use crate::hashing::{CurveFamily, Signature};
use crate::matcher::MatchOutcome;
use crate::scratch::MatcherScratch;
use crate::shapebase::ShapeBaseBuilder;
use crate::similarity::{score_copy_bounded, LuneFrame, PreparedShape, QuantRaster, ScoreKind, StoredCopy};

thread_local! {
    /// Id comparisons made by [`Level::find`] on this thread (test
    /// probe: a delete must not walk a level's ids).
    pub(super) static ID_PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn p(x: f64, y: f64) -> Point {
    Point::new(x, y)
}

fn shape(seed: u64) -> Polyline {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(5..12);
    let pts: Vec<Point> = (0..n)
        .map(|j| {
            let t = 2.0 * std::f64::consts::PI * j as f64 / n as f64;
            let r = rng.random_range(0.5..1.0);
            p(r * t.cos(), r * t.sin())
        })
        .collect();
    Polyline::closed(pts).unwrap()
}

fn dynbase(buffer_cap: usize) -> DynamicBase {
    DynamicBase::new(0.05, MatchConfig { k: 3, beta: 0.3, ..Default::default() }, buffer_cap)
}

/// What `geosir serve` ships, fed one insert at a time as the
/// benchmark driver does.
fn shipped(buffer_cap: usize, shapes: impl IntoIterator<Item = Polyline>) -> DynamicBase {
    let config = MatchConfig { beta: 0.2, ..Default::default() };
    let mut db = DynamicBase::new(0.0, config, buffer_cap);
    for (i, s) in shapes.into_iter().enumerate() {
        db.insert(ImageId(i as u32), s);
    }
    db
}

fn id_bits(hits: &[DynMatch]) -> Vec<(u64, u64)> {
    hits.iter().map(|m| (m.shape.0, m.score.to_bits())).collect()
}

/// Three levels + a part-filled buffer, a family of near matches
/// spread over all of them, every other member tombstoned; 24 queries,
/// near the family or near one other shape each.
fn near_match_world() -> (Snapshot, Vec<Polyline>) {
    use geosir_imaging::synth::{perturb, random_simple_polygon};
    let mut rng = StdRng::seed_from_u64(61);
    let proto = random_simple_polygon(&mut rng, 11, 0.35);
    let shapes: Vec<Polyline> = (0..59)
        .map(|i| {
            if i % 5 == 0 {
                perturb(&proto, &mut rng, 0.015)
            } else {
                random_simple_polygon(&mut rng, 7 + i % 8, 0.35)
            }
        })
        .collect();
    let mut db = shipped(8, shapes.iter().cloned());
    assert_eq!(db.num_levels(), 3);
    for i in (0..59).step_by(10) {
        assert!(db.delete(GlobalShapeId(i)));
    }
    let queries = shapes.iter().enumerate().take(24);
    let queries = queries.map(|(i, s)| perturb(if i % 2 == 0 { &proto } else { s }, &mut rng, 0.01));
    (db.snapshot(), queries.collect())
}

/// Every field of two levels, the arenas field for field and their
/// geometry bit for bit.
fn assert_same_level(got: &Level, want: &Level, what: &str) {
    fn bits(pts: &[Point]) -> Vec<(u64, u64)> {
        pts.iter().map(|q| (q.x.to_bits(), q.y.to_bits())).collect()
    }
    let sims = |l: &Level| -> Vec<[u64; 4]> {
        l.copies.fwd.iter().map(|f| [f.a, f.b, f.tx, f.ty].map(f64::to_bits)).collect()
    };
    assert_eq!(got.ids, want.ids, "{what}: ids");
    assert_eq!(got.images, want.images, "{what}: images");
    assert_eq!(got.copy_ends, want.copy_ends, "{what}: copies per shape");
    assert_eq!(got.sorted_ids, want.sorted_ids, "{what}: id table");
    assert!(got.sorted_ids.windows(2).all(|w| w[0].0 < w[1].0), "{what}: id table order");
    assert!(got.sorted_ids.iter().all(|(g, l)| got.ids[l.index()] == *g), "{what}: id table rows");
    assert_eq!(bits(&got.src_verts), bits(&want.src_verts), "{what}: source vertices");
    assert_eq!(got.src_ends, want.src_ends, "{what}: source ranges");
    assert_eq!(got.closed, want.closed, "{what}: closed bits");
    assert_eq!(got.copies.quantized, want.copies.quantized, "{what}: quantized vertices");
    assert_eq!(got.copies.ends, want.copies.ends, "{what}: copy ranges");
    assert_eq!(sims(got), sims(want), "{what}: similarities");
    assert_eq!(got.copies.owner, want.copies.owner, "{what}: copy owners");
    assert_eq!(got.copies.sigs, want.copies.sigs, "{what}: signatures");
    // and the exact capacities a merge reserves: no slack to carry
    assert_eq!(got.copies.quantized.capacity(), got.copies.quantized.len(), "{what}: arena capacity");
    assert_eq!(got.src_verts.capacity(), got.src_verts.len(), "{what}: source capacity");
    let buckets = |l: &Level| l.buckets.iter().map(|(s, c)| (*s, c.to_vec())).collect::<Vec<_>>();
    assert_eq!(buckets(got), buckets(want), "{what}: bucket membership");
}

/// Every copy `store` holds, recomputed from its source and similarity
/// as a scoring does, against [`normalized_copies`] of that source —
/// what insert time normalized — bit for bit; beside it its quantized
/// vertices and its signature, against that copy's.
///
/// [`normalized_copies`]: crate::normalize::normalized_copies
fn assert_recomputes(store: Store<'_>, alpha: f64, family: &CurveFamily, what: &str) {
    let frame = LuneFrame::new(alpha);
    let shapes: Vec<(Polyline, Range<usize>)> = match store {
        Store::Level(level) => (0..level.ids.len() as u32)
            .map(ShapeId)
            .map(|l| {
                let (_, _, src, closed) = level.row(l);
                (Polyline::from_valid(src.to_vec(), closed), level.copies_of(l))
            })
            .collect(),
        Store::Buffered(b) => vec![(b.shape.clone(), 0..b.copies.len())],
    };
    for (shape, copies) in shapes {
        let made = crate::normalize::normalized_copies(&shape, alpha);
        assert_eq!(made.len(), copies.len(), "{what}: copies of a shape");
        for (want, i) in made.iter().zip(copies) {
            let bits = |v: Point| (v.x.to_bits(), v.y.to_bits());
            let got: Vec<_> = store.stored(i).vertices().map(bits).collect();
            assert_eq!(got, want.shape.points().iter().map(|&v| bits(v)).collect::<Vec<_>>(), "{what}: copy {i}");
            let quantized: Option<Vec<[u16; 2]>> = want.shape.points().iter().map(|&v| frame.quantize(v)).collect();
            assert_eq!(store.arena().quantized(i), quantized.unwrap_or_default(), "{what}: copy {i} quantized");
            assert_eq!(store.arena().sigs[i], crate::hashing::signature_of(family, &want.shape), "{what}: copy {i} signature");
        }
    }
}

/// Every copy the base holds, levels and buffer, recomputes bit for bit.
fn assert_base_recomputes(db: &DynamicBase, what: &str) {
    for (at, slot) in db.state.levels.iter().enumerate() {
        if let Some(slot) = slot {
            assert_recomputes(Store::Level(&slot.level), db.alpha, &db.state.family, &format!("{what}, slot {at}"));
        }
    }
    for b in &db.state.buffer {
        assert_recomputes(Store::Buffered(b), db.alpha, &db.state.family, &format!("{what}, buffered {:?}", b.id));
    }
}

include!("tests/base.rs");
include!("tests/arena.rs");
include!("tests/level.rs");
include!("tests/exact.rs");
include!("tests/approx.rs");
