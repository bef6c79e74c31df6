//! Dynamic shape bases via the logarithmic method.
//!
//! The paper's related-work discussion (§1) points at "dynamic
//! environments, where insert and delete operations occur frequently" as
//! the territory of [5, 7]; GeoSIR's own structures are static. This
//! module closes that gap with the classic Bentley–Saxe decomposition:
//! the base is a set of static sub-bases with sizes following a binary
//! carry pattern, inserts go to a buffer that cascades into carries of
//! amortized O(log N) frequency, deletes are tombstones — one bit per
//! shape of a level, and a level or chunk that is more dead than alive
//! is rewritten without its dead (`MAX_DEAD_PER_LIVE`) — and a query
//! runs on every live sub-base with results merged. A sub-base (`Level`) is a
//! list of sealed chunks — shapes' source vertices and their normalized
//! copies, written once — shared with every level and snapshot that
//! holds them, plus its own id table and its copies' hash signatures
//! bucketed for the approximate tier: no vertex pool and no range-search
//! index, a level is scanned, never range-searched. A shape is normalized
//! and hashed once, when it is inserted (or bulk-loaded); a carry seals
//! the buffer into a chunk and re-buckets, sharing every other chunk
//! (`Slot::carry`).
//!
//! By role: `arena` (what is stored, byte by byte), `level` (sub-bases,
//! carries, compactions), `snapshot` (the read API), `exact`
//! (seed-and-scan), `approx` (the hash tier); this file is the writer,
//! [`DynamicBase`].

use std::sync::Arc;

use geosir_geom::Polyline;

use crate::approx::DEFAULT_HASH_CURVES;
use crate::hashing::CurveFamily;
use crate::ids::{ImageId, ShapeId};
use crate::matcher::MatchConfig;
use crate::similarity::LuneFrame;

mod approx;
mod arena;
mod exact;
mod level;
mod snapshot;

pub(crate) use approx::CandRef;
use arena::{BufferedShape, InsertScratch};
pub use exact::{LevelExplain, QueryExplain, RetrieveStats};
use level::{Part, Slot};
pub use snapshot::Snapshot;

/// A shape registered with the dynamic base (stable across rebuilds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalShapeId(pub u64);

/// Growable, deletable shape base built from static levels.
pub struct DynamicBase {
    /// The queryable state — levels, tombstones, buffer, epoch, id
    /// watermark — which the writer changes in place and
    /// [`Self::snapshot`] publishes as a clone.
    state: Snapshot,
    alpha: f64,
    /// What the writer normalizes and hashes new copies through.
    scratch: InsertScratch,
    buffer_cap: usize,
    /// Rebuild accounting (for tests and ops visibility): the shapes each
    /// bulk load, carry and compaction left in its level, and how many
    /// compactions (`MAX_DEAD_PER_LIVE`) there were.
    pub shapes_rebuilt: u64,
    pub compactions: u64,
    /// The carry or compaction the last insert or delete ran (`None`:
    /// neither), for its caller to report — the server journals it.
    pub last_rebuild: Option<Rebuild>,
}

/// A level an insert's carry built, or a delete's compaction rewrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rebuild {
    /// The carry left a level of `shapes` shapes in `slot`.
    Carry { slot: usize, shapes: usize },
    /// The compaction left `shapes` shapes in `slot`, shedding `shed` dead.
    Compact { slot: usize, shapes: usize, shed: usize },
}

/// Dead shapes a level, or a chunk, may hold per live one; one more and
/// [`DynamicBase::delete`] rewrites without its dead every chunk of the
/// level that holds one — or, for a chunk, that chunk alone — sharing the
/// rest, and rebuilds the level's index (global rebuilding of a
/// weak-delete structure, Overmars: rebuild when half is deleted). A
/// rewrite moves fewer live shapes than it sheds dead ones, each the mark
/// of one delete: under one shape moved per delete, amortised. Between
/// rewrites the dead of a level never outnumber its live shapes, so what
/// is stored, scanned and probed stays within 2 × the live set at every
/// instant.
const MAX_DEAD_PER_LIVE: usize = 1;

/// Index entries a chunk's rewrite may rebuild per dead shape it sheds: a
/// chunk is rewritten alone only when its dead are at least
/// 1/`REBUILT_PER_SHED` of its level, whose index the rewrite rebuilds —
/// and only in a level of more than two buffers' worth of shapes, since
/// below that the level rule copies under one chunk of geometry anyway.
/// So a delete pays for at most 32 index entries, amortised, whatever the
/// level's size (the level rule, shedding over half its level, for 2),
/// and a chunk that rewrites have halved below 1/16 of its level is left
/// to the level rule. At 16, `tests/heap_churn.rs`'s peak reads 1.45 ×
/// the base, as with the level rule alone, against 1.20 × at 32: there
/// the chunks a rewrite halved must be rewritten once more before their
/// level is.
const REBUILT_PER_SHED: usize = 32;

/// A match from the dynamic base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynMatch {
    pub shape: GlobalShapeId,
    pub image: ImageId,
    pub score: f64,
}

impl DynamicBase {
    /// `buffer_cap` controls the smallest level size (and hence rebuild
    /// granularity); 32–256 is reasonable.
    pub fn new(alpha: f64, config: MatchConfig, buffer_cap: usize) -> Self {
        assert!(buffer_cap >= 1);
        let state = Snapshot {
            epoch: 0,
            next_id: 0,
            config,
            frame: LuneFrame::new(alpha),
            family: Arc::new(CurveFamily::new(DEFAULT_HASH_CURVES)),
            levels: Vec::new(),
            buffer: Vec::new(),
        };
        let scratch = InsertScratch::default();
        DynamicBase { state, alpha, scratch, buffer_cap, shapes_rebuilt: 0, compactions: 0, last_rebuild: None }
    }

    /// The mutation epoch: bumped by every applied insert and delete.
    pub fn epoch(&self) -> u64 {
        self.state.epoch
    }

    /// The retrieval configuration queries run with.
    pub fn config(&self) -> &MatchConfig {
        &self.state.config
    }

    /// Number of live (non-deleted) shapes.
    pub fn len(&self) -> usize {
        self.state.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupied carry slots.
    pub fn num_levels(&self) -> usize {
        self.state.num_levels()
    }

    /// Insert a shape. Its normalized copies and their signatures are
    /// computed here, once: every query that brute-forces the buffer only
    /// scores, and every carry the shape later takes part in only copies
    /// them (writer pays, readers and carries don't).
    pub fn insert(&mut self, image: ImageId, shape: Polyline) -> GlobalShapeId {
        self.last_rebuild = None;
        let id = self.assign_id();
        self.buffer_insert(id, image, shape);
        id
    }

    /// The next id, for an applied insert (which moves the epoch).
    fn assign_id(&mut self) -> GlobalShapeId {
        self.state.next_id += 1;
        self.state.epoch += 1;
        GlobalShapeId(self.state.next_id - 1)
    }

    /// Derive everything a buffered shape carries — its normalized copies
    /// and their hash signatures — once, writer-side; carry when the
    /// buffer is full.
    fn buffer_insert(&mut self, id: GlobalShapeId, image: ImageId, shape: Polyline) {
        let b = BufferedShape::new(id, image, shape, self.alpha, &self.state.family, &mut self.scratch);
        self.state.buffer.push(Arc::new(b));
        if self.state.buffer.len() >= self.buffer_cap {
            self.cascade();
        }
    }

    /// Bulk-load a batch of shapes into a single level, bypassing the
    /// cascade: one parallel build instead of n inserts and O(n/cap)
    /// carries. The natural way to open a server on an existing corpus;
    /// subsequent [`Self::insert`]s trickle in through the buffer as usual.
    pub fn bulk_load(
        &mut self,
        shapes: impl IntoIterator<Item = (ImageId, Polyline)>,
    ) -> Vec<GlobalShapeId> {
        let pool: Vec<_> =
            shapes.into_iter().map(|(image, shape)| (self.assign_id(), image, shape)).collect();
        let assigned = pool.iter().map(|(id, ..)| *id).collect();
        self.bulk_load_level(pool);
        assigned
    }

    /// Rebuild a base from checkpointed state: shapes with their original
    /// global ids in one level, plus the persisted `next_id` and `epoch`
    /// counters. The recovery entry point — WAL-tail records are then
    /// replayed on top via [`Self::insert_with_id`] / [`Self::delete`].
    pub fn restore(
        alpha: f64,
        config: MatchConfig,
        buffer_cap: usize,
        shapes: Vec<(GlobalShapeId, ImageId, Polyline)>,
        next_id: u64,
        epoch: u64,
    ) -> Self {
        let mut base = DynamicBase::new(alpha, config, buffer_cap);
        let max_id = shapes.iter().map(|(g, _, _)| g.0 + 1).max().unwrap_or(0);
        base.bulk_load_level(shapes);
        base.state.next_id = next_id.max(max_id);
        base.state.epoch = epoch;
        base
    }

    /// Replay one insert with its original id (WAL recovery). Idempotent:
    /// an id already present (or ahead of `next_id` bookkeeping from a
    /// later checkpoint) is skipped and reported as `false`.
    pub fn insert_with_id(&mut self, id: GlobalShapeId, image: ImageId, shape: Polyline) -> bool {
        self.last_rebuild = None;
        if self.contains(id) {
            return false;
        }
        self.state.next_id = self.state.next_id.max(id.0 + 1);
        self.state.epoch += 1;
        self.buffer_insert(id, image, shape);
        true
    }

    /// Whether `id` is live (inserted, not tombstoned): a walk of the
    /// buffer, then a binary search per level.
    pub fn contains(&self, id: GlobalShapeId) -> bool {
        self.state.buffer.iter().any(|b| b.id == id) || self.find_live(id).is_some()
    }

    /// The slot holding `id` live, and its level-local id there.
    fn find_live(&self, id: GlobalShapeId) -> Option<(usize, ShapeId)> {
        self.state.levels.iter().enumerate().find_map(|(at, slot)| {
            let slot = slot.as_ref()?;
            let local = slot.level.find(id)?;
            (!slot.dead.get(local)).then_some((at, local))
        })
    }

    /// Place `pool` (pre-assigned ids) into the smallest free slot that
    /// holds it — shared by [`Self::bulk_load`] and [`Self::restore`].
    fn bulk_load_level(&mut self, pool: Vec<(GlobalShapeId, ImageId, Polyline)>) {
        if pool.is_empty() {
            return;
        }
        // smallest slot whose capacity `cap · 2^slot` holds the batch, or
        // the next free one above it if that is occupied
        let mut slot = 0usize;
        while self.buffer_cap << slot < pool.len() {
            slot += 1;
        }
        while slot < self.state.levels.len() && self.state.levels[slot].is_some() {
            slot += 1;
        }
        while self.state.levels.len() <= slot {
            self.state.levels.push(None);
        }
        self.shapes_rebuilt += pool.len() as u64;
        self.state.levels[slot] = Some(Slot::build(pool, self.alpha, &self.state.family, self.buffer_cap));
    }

    /// Delete a shape. A buffered one drops eagerly — it lives nowhere
    /// else and needs no tombstone; a leveled one gets its bit set in the
    /// level's tombstones (copied first if a snapshot shares them). Once
    /// the dead outnumber the live shapes (`MAX_DEAD_PER_LIVE`) of its
    /// level, every chunk of the level that holds one is rewritten without
    /// them, here; once they do in its chunk, and are enough to pay for the
    /// level's index (`REBUILT_PER_SHED`), that chunk alone is.
    pub fn delete(&mut self, id: GlobalShapeId) -> bool {
        self.last_rebuild = None;
        let before = self.state.buffer.len();
        self.state.buffer.retain(|b| b.id != id);
        if self.state.buffer.len() < before {
            self.state.epoch += 1;
            return true;
        }
        let Some((at, local)) = self.find_live(id) else {
            return false;
        };
        let slot = self.state.levels[at].as_mut().expect("found there");
        let c = slot.level.chunk_of(local);
        let Part { chunk, shapes, .. } = &slot.level.parts[c];
        Arc::make_mut(&mut slot.dead).set(local, chunk.copies_of(ShapeId(local.0 - shapes)).len());
        self.state.epoch += 1;
        let (held, dead, level) = (chunk.len(), slot.dead_in(c), slot.level.ids.len());
        if slot.dead.shapes > MAX_DEAD_PER_LIVE * slot.live_shapes() {
            self.compact(at, None);
        } else if dead > MAX_DEAD_PER_LIVE * (held - dead)
            && level > 2 * self.buffer_cap
            && REBUILT_PER_SHED * dead >= level
        {
            self.compact(at, Some(c));
        }
        true
    }

    /// Rewrite chunk `only` of the level in slot `at` without its dead —
    /// or, for `None`, every chunk of it that holds a dead shape — sharing
    /// the others ([`Slot::compact`]); a level with no live shape left
    /// frees the slot.
    fn compact(&mut self, at: usize, only: Option<usize>) {
        let old = self.state.levels[at].take().expect("compacting an occupied slot");
        let new = old.compact(only);
        let (shapes, dead) = new.as_ref().map_or((0, 0), |s| (s.level.ids.len(), s.dead.shapes));
        self.shapes_rebuilt += shapes as u64;
        self.compactions += 1;
        self.state.levels[at] = new;
        self.last_rebuild = Some(Rebuild::Compact { slot: at, shapes, shed: old.dead.shapes - dead });
    }

    /// Binary-carry cascade (Bentley–Saxe): the buffer becomes a block of
    /// rank 0; while the target slot is occupied, its level joins the
    /// block and the carry moves up one slot. Each shape therefore takes
    /// part in at most `log₂(N / cap)` carries — and a carry seals only
    /// the buffer into a chunk and shares the consumed levels' chunks
    /// ([`Slot::carry`]): nothing is normalized, hashed or copied again
    /// but the buffer and a repacked run of chunks more dead than alive or
    /// under a quarter full. Tombstoned shapes elsewhere keep their
    /// tombstones in the new level.
    fn cascade(&mut self) {
        let buffer = std::mem::take(&mut self.state.buffer);
        // the first free slot: every level below it joins the carry
        let slot = self.state.levels.iter().position(Option::is_none).unwrap_or(self.state.levels.len());
        if slot == self.state.levels.len() {
            self.state.levels.push(None);
        }
        // never empty: the buffer is, and holds no dead shape
        let carried = Slot::carry(&buffer, self.state.levels[..slot].iter().flatten(), self.buffer_cap);
        self.state.levels[..slot].fill(None);
        let rebuilt = carried.level.ids.len();
        self.shapes_rebuilt += rebuilt as u64;
        self.state.levels[slot] = Some(carried);
        self.last_rebuild = Some(Rebuild::Carry { slot, shapes: rebuilt });
    }

    /// Capture the queryable state — levels, tombstones, buffer, epoch —
    /// as an immutable, independently-queryable [`Snapshot`]. O(buffer +
    /// levels) pointer copies: levels, their tombstone bitmaps and
    /// buffered shapes are shared, nothing is cloned.
    pub fn snapshot(&self) -> Snapshot {
        self.state.clone()
    }
}

#[cfg(test)]
mod tests;
