//! Dynamic shape bases via the logarithmic method.
//!
//! The paper's related-work discussion (§1) points at "dynamic
//! environments, where insert and delete operations occur frequently" as
//! the territory of [5, 7]; GeoSIR's own structures are static. This
//! module closes that gap with the classic Bentley–Saxe decomposition:
//! the base is a set of static sub-bases with sizes following a binary
//! carry pattern, inserts go to a buffer that cascades into carries of
//! amortized O(log N) frequency, deletes are tombstones — one bit per
//! shape of a level, and a level that is more dead than alive is rebuilt
//! without its dead (`MAX_DEAD_PER_LIVE`) — and a query runs on every
//! live sub-base with results merged. A sub-base (`Level`) is its
//! shapes' source vertices, their normalized copies in one arena, their
//! hash signatures bucketed for the approximate tier, and an id table —
//! no vertex pool and no range-search index: a level is scanned, never
//! range-searched. A shape is normalized and hashed once, when it is
//! inserted (or bulk-loaded); a carry only copies what its inputs hold
//! (`Level::merge`).
//!
//! By role: `arena` (what is stored, byte by byte), `level` (sub-bases,
//! carries), `snapshot` (the read API), `exact` (seed-and-scan), `approx`
//! (the hash tier); this file is the writer, [`DynamicBase`].

use std::sync::Arc;

use geosir_geom::Polyline;
use geosir_obs as obs;

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
use level::{Level, Slot};
pub use snapshot::Snapshot;
use snapshot::DynMetrics;

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
    /// Rebuild accounting (for tests and ops visibility): shapes moved
    /// into a level by bulk loads, carries and compactions, and how many
    /// compactions (`MAX_DEAD_PER_LIVE`) there were.
    pub shapes_rebuilt: u64,
    pub compactions: u64,
}

/// Dead shapes a level may hold per live one; one more and
/// [`DynamicBase::delete`] rebuilds it without its dead (global
/// rebuilding of a weak-delete structure, Overmars: rebuild when half is
/// deleted). A level starts with no dead shape — a carry, a bulk load
/// and a rebuild all shed them — and every delete tombstones one, so a
/// rebuild that moves `live` survivors follows more than `live` deletes
/// on that level: under one shape-move per delete, amortised, paid
/// inline in a stall no longer than the carry that built the level.
/// Between rebuilds the dead of a level never outnumber its live shapes,
/// so what is stored, scanned and probed stays within 2 × the live set
/// at every instant.
const MAX_DEAD_PER_LIVE: usize = 1;

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
        DynamicBase { state, alpha, scratch, buffer_cap, shapes_rebuilt: 0, compactions: 0 }
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
        self.state.levels[slot] = Some(Slot::new(Level::build(pool, self.alpha, &self.state.family)));
    }

    /// Delete a shape. A buffered one drops eagerly — it lives nowhere
    /// else and needs no tombstone; a leveled one gets its bit set in the
    /// level's tombstones (copied first if a snapshot shares them), and
    /// once the level's dead outnumber its live shapes
    /// (`MAX_DEAD_PER_LIVE`) the level is rebuilt without them, here.
    pub fn delete(&mut self, id: GlobalShapeId) -> bool {
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
        Arc::make_mut(&mut slot.dead).set(local, slot.level.copies_of(local).len());
        self.state.epoch += 1;
        if slot.dead.shapes > MAX_DEAD_PER_LIVE * slot.live_shapes() {
            self.compact(at);
        }
        true
    }

    /// Replace the level in slot `at` by the merge of its live shapes —
    /// the merge a carry runs, on one input — and drop its tombstones
    /// with it; a level with no live shape frees the slot.
    fn compact(&mut self, at: usize) {
        let old = self.state.levels[at].take().expect("compacting an occupied slot");
        let merged = Level::merge(&[], std::iter::once(&old));
        let shapes = merged.ids.len();
        self.shapes_rebuilt += shapes as u64;
        self.compactions += 1;
        if shapes > 0 {
            self.state.levels[at] = Some(Slot::new(merged));
        }
        obs::with_metrics(DynMetrics::build, |m| m.compactions.inc());
        obs::with_current(|r| {
            r.journal().emit(
                obs::JournalEvent::new(obs::Severity::Info, "compact.level")
                    .with("slot", at)
                    .with("shapes", shapes)
                    .with("shed", old.dead.shapes),
            );
        });
    }

    /// Binary-carry cascade (Bentley–Saxe): the buffer becomes a block of
    /// rank 0; while the target slot is occupied, its level joins the
    /// block and the carry moves up one slot. Each shape therefore takes
    /// part in at most `log₂(N / cap)` carries — and a carry is a merge
    /// ([`Level::merge`]): nothing is normalized or hashed again.
    /// Tombstoned shapes are dropped on the way, their tombstones with
    /// the slots that held them.
    fn cascade(&mut self) {
        let buffer = std::mem::take(&mut self.state.buffer);
        // the first free slot: every level below it joins the carry
        let slot = self.state.levels.iter().position(Option::is_none).unwrap_or(self.state.levels.len());
        if slot == self.state.levels.len() {
            self.state.levels.push(None);
        }
        // never empty: the buffer is, and holds no dead shape
        let merged = Level::merge(&buffer, self.state.levels[..slot].iter().flatten());
        self.state.levels[..slot].fill(None);
        let rebuilt = merged.ids.len();
        self.shapes_rebuilt += rebuilt as u64;
        self.state.levels[slot] = Some(Slot::new(merged));
        // Lifecycle journal: large carries (high slots) are the ones
        // worth explaining when someone asks why a write spiked.
        obs::with_current(|r| {
            r.journal().emit(
                obs::JournalEvent::new(obs::Severity::Info, "cascade.level")
                    .with("slot", slot)
                    .with("shapes", rebuilt),
            );
        });
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
