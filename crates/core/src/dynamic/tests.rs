//! The dynamic base's tests, by role: each role file's under `tests/`,
//! included here beside the helpers they share, so that every test keeps
//! the one module path `dynamic::tests` (the names CI filters on and the
//! docs cite).

use std::collections::HashSet;
use std::ops::Range;
use std::sync::Arc;

use geosir_geom::rangesearch::Backend;
use geosir_geom::{Point, Polyline, Similarity};
use proptest::prelude::*;
use rand::prelude::*;

use super::approx::Until;
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
    /// Buffered copies the exact tier's buffer pass scored on this thread
    /// (test probe: the seed's hand-off must spare some).
    pub(super) static BUFFER_SCORINGS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Whether [`Snapshot::prepare`] fills every grid list and raster
    /// quad of the query before the query reads one (test probe: the
    /// lazy fill must change no answer and no count).
    pub(super) static FILL_AHEAD: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
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

/// What a query or a checkpoint reads of two levels — row by row and copy
/// by copy across their chunks, geometry bit for bit — and their id
/// tables and bucket membership; not where their chunks begin.
fn assert_same_level(got: &Level, want: &Level, what: &str) {
    fn bits(pts: &[Point]) -> Vec<(u64, u64)> {
        pts.iter().map(|q| (q.x.to_bits(), q.y.to_bits())).collect()
    }
    // (id, image, source, closed, per copy: quantized vertices,
    // similarity, signature) of every shape, in level order
    type Copy = (Vec<[u16; 2]>, [u64; 4], Signature);
    type Shape = (GlobalShapeId, ImageId, Vec<(u64, u64)>, bool, Vec<Copy>);
    let rows = |l: &Level| -> Vec<Shape> {
        let mut out = Vec::new();
        for (c, part) in l.parts.iter().enumerate() {
            let (chunk, ids) = (&part.chunk, &l.ids[l.shapes_of(c)]);
            for local in (0..chunk.len() as u32).map(ShapeId) {
                let (id, image, src, closed) = chunk.row(local, ids[local.index()]);
                let copies = chunk.copies_of(local).map(|i| {
                    let f = &chunk.copies.fwd[i];
                    (chunk.copies.quantized(i).to_vec(), [f.a, f.b, f.tx, f.ty].map(f64::to_bits), chunk.copies.sigs[i])
                });
                out.push((id, image, bits(src), closed, copies.collect()));
            }
        }
        out
    };
    assert_eq!(got.ids, want.ids, "{what}: ids");
    assert_eq!(got.sorted_ids, want.sorted_ids, "{what}: id table");
    assert!(got.sorted_ids.windows(2).all(|w| w[0].0 < w[1].0), "{what}: id table order");
    assert!(got.sorted_ids.iter().all(|(g, l)| got.ids[l.index()] == *g), "{what}: id table rows");
    assert_eq!(rows(got), rows(want), "{what}: rows and copies");
    for (c, part) in got.parts.iter().enumerate() {
        let chunk = &part.chunk;
        let owners: Vec<ShapeId> = (0..chunk.len() as u32).map(ShapeId).flat_map(|l| chunk.copies_of(l).map(move |_| l)).collect();
        assert_eq!(chunk.copies.owner, owners, "{what}: chunk {c} copy owners");
        // the exact capacities a pack reserves: no slack to carry
        assert_eq!(chunk.copies.quantized.capacity(), chunk.copies.quantized.len(), "{what}: chunk {c} arena capacity");
        assert_eq!(chunk.src_verts.capacity(), chunk.src_verts.len(), "{what}: chunk {c} source capacity");
        assert_eq!(part.shapes as usize, got.shapes_of(c).start, "{what}: chunk {c} shape offset");
        assert_eq!(part.copies as usize, got.parts[..c].iter().map(|p| p.chunk.copies.len()).sum::<usize>(), "{what}: chunk {c} copy offset");
    }
    // members as copies of the level, whichever chunk holds them
    let buckets = |l: &Level| {
        let member = |m: &crate::ids::CopyId| {
            let (c, i) = l.unpack(*m);
            l.copy_at(c, i)
        };
        l.buckets.iter().map(|(s, c)| (s, c.iter().map(member).collect::<Vec<_>>())).collect::<Vec<_>>()
    };
    assert_eq!(buckets(got), buckets(want), "{what}: bucket membership");
    // each member's owner beside it, as its chunk says
    let owner = |m: &crate::ids::CopyId| {
        let (c, i) = got.unpack(*m);
        ShapeId(got.parts[c].shapes + got.parts[c].chunk.copies.owner[i].0)
    };
    assert_eq!(got.owners, got.buckets.members().iter().map(owner).collect::<Vec<_>>(), "{what}: member owners");
    assert_eq!(got.owners, want.owners, "{what}: member owners");
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
        Store::Chunk(chunk, ids) => (0..chunk.len() as u32)
            .map(ShapeId)
            .map(|l| {
                let (_, _, src, closed) = chunk.row(l, ids[l.index()]);
                (Polyline::from_valid(src.to_vec(), closed), chunk.copies_of(l))
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

/// Every copy of every chunk of `level` recomputes bit for bit.
fn assert_level_recomputes(level: &Level, alpha: f64, family: &CurveFamily, what: &str) {
    for c in 0..level.parts.len() {
        assert_recomputes(level.store(c), alpha, family, &format!("{what}, chunk {c}"));
    }
}

/// Every copy the base holds, levels and buffer, recomputes bit for bit.
fn assert_base_recomputes(db: &DynamicBase, what: &str) {
    for (at, slot) in db.state.levels.iter().enumerate() {
        if let Some(slot) = slot {
            assert_level_recomputes(&slot.level, db.alpha, &db.state.family, &format!("{what}, slot {at}"));
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
