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
//! shapes' source vertices, and their normalized copies laid end to end
//! in one arena (`CopyArena`, the layout the insert buffer's shapes
//! share) — each copy its vertices quantized to 4 bytes and the
//! similarity that recomputes them from the source — their hash
//! signatures bucketed for the approximate tier, and an id table — no
//! vertex pool and no range-search index: a level is scanned, never
//! range-searched. A shape is normalized and hashed once, when it is
//! inserted (or bulk-loaded); a carry only copies what its inputs hold
//! (`Level::merge`).
//!
//! An exact query is *seed-and-verify* (`Snapshot::seed_and_scan`): the
//! hash tier (§3, [`crate::approx`]) is probed first, and the k-th best of
//! the true scores it returns bounds what any sub-base can still
//! contribute — so each level is scanned, copy by copy, with the
//! early-abandoning `h_avg` against that cutoff, exact on all k ranks
//! (DESIGN.md §11.6). With fewer than k seeds the cutoff starts at ∞ and
//! the same scan fills the board.
//!
//! ## Snapshots
//!
//! Levels are immutable between cascades and held behind `Arc`, so
//! [`DynamicBase::snapshot`] can capture the entire queryable state —
//! levels with their tombstone bitmaps, insert buffer, epoch — in
//! O(buffer + levels) pointer copies, without copying any index. A
//! [`Snapshot`] answers queries with no access to the `DynamicBase` it
//! came from: one writer can keep inserting (mutating levels via
//! cascades) while any number of reader threads retrieve against earlier
//! snapshots. This is the foundation of `geosir-serve`'s
//! snapshot-isolated live updates.

use std::collections::hash_map::Entry;
use std::ops::Range;
use std::sync::Arc;

use geosir_geom::{Point, Polyline, Similarity};
use geosir_obs as obs;

use crate::approx::{
    record_query_metrics, AnswerTier, ApproxOptions, ApproxScratch, ApproxStats, CandRef, IdMap,
    SigBuckets, BUFFER_LEVEL, DEFAULT_HASH_CURVES,
};
use crate::hashing::{signature_of_with, CurveFamily, Signature};
use crate::ids::{ImageId, ShapeId};
use crate::matcher::{MatchConfig, MatchOutcome, MatcherMetrics};
use crate::normalize::normalizations;
use crate::scratch::MatcherScratch;
use crate::shapebase::par_map;
use crate::similarity::{
    score_copy_bounded, LuneFrame, PreparedShape, QuantRaster, ScoreKind, StoredCopy,
};

/// A shape registered with the dynamic base (stable across rebuilds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalShapeId(pub u64);

/// Growable, deletable shape base built from static levels.
pub struct DynamicBase {
    alpha: f64,
    config: MatchConfig,
    /// The k-curve hash family shared by every level's signature buckets
    /// and all insert-time signatures (§3; k = [`DEFAULT_HASH_CURVES`]).
    family: Arc<CurveFamily>,
    /// Insert buffer: shapes not yet in any level (scored brute force
    /// against the normalized copies derived at insert time).
    buffer: Vec<Arc<BufferedShape>>,
    /// What the writer normalizes and hashes new copies through.
    scratch: InsertScratch,
    buffer_cap: usize,
    /// Binary-carry slots; slot i holds a level of capacity
    /// `buffer_cap · 2^i` (or is empty).
    levels: Vec<Option<Slot>>,
    next_id: u64,
    /// Mutation counter: bumped by every applied insert and delete, so
    /// snapshots are totally ordered.
    epoch: u64,
    /// Rebuild accounting (for tests and ops visibility): shapes moved
    /// into a level by bulk loads, carries and compactions, and how many
    /// compactions (`MAX_DEAD_PER_LIVE`) there were.
    pub shapes_rebuilt: u64,
    pub compactions: u64,
}

/// One not-yet-leveled insert. Its normalized copies and their
/// signatures are derived once at insert time (writer-side): a query
/// scores them as a level's copies are scored — by the same bounded
/// scorer, the reverse index built only for a survivor — and probes them
/// without hashing, and a carry copies them into the level as they are.
/// The buffer holds each entry behind one `Arc`, so a snapshot capture
/// clones a pointer per shape and no geometry.
struct BufferedShape {
    id: GlobalShapeId,
    image: ImageId,
    /// The source shape — what its copies' similarities map.
    shape: Polyline,
    /// No owners (a carry gives them); empty only for degenerate
    /// geometry, which then simply never matches.
    copies: CopyArena,
}

/// The writer's reusable buffers for a new shape: one copy's vertices,
/// and the quarters its signature is computed through.
#[derive(Default)]
struct InsertScratch {
    copy: Vec<Point>,
    quarters: [Vec<Point>; 4],
}

/// Normalized copies laid end to end — a level's, or one buffered
/// shape's (DESIGN §11.7). Copy i is the similarity `fwd[i]` that maps
/// its shape's source vertices onto it — its `f64` vertices are
/// recomputed from those, bit for bit as insert time made them, never
/// stored — and the same vertices quantized in the base's [`LuneFrame`],
/// `quantized[ends[i - 1]..ends[i]]` (none for a copy that left the
/// frame), the only geometry a copy the raster test rejects is read for.
/// Beside them its owner (a level-local shape id) and its signature,
/// which the next carry re-buckets instead of re-hashing. No copy owns an
/// allocation, so a carry copies ranges.
#[derive(Default)]
struct CopyArena {
    quantized: Vec<[u16; 2]>,
    ends: Vec<u32>,
    fwd: Vec<Similarity>,
    owner: Vec<ShapeId>,
    sigs: Vec<Signature>,
}

/// Where entries `items` of a table of cumulative ends lie.
fn ranged(ends: &[u32], items: Range<usize>) -> Range<usize> {
    let at = |i: usize| if i == 0 { 0 } else { ends[i - 1] as usize };
    at(items.start)..at(items.end)
}

fn bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

impl CopyArena {
    /// Room for `copies` copies of `verts` quantized vertices, with owners
    /// when `owned` (a level's arena; a buffered shape's has none).
    fn with_capacity(copies: usize, verts: usize, owned: bool) -> CopyArena {
        let (ends, fwd, sigs) =
            (Vec::with_capacity(copies), Vec::with_capacity(copies), Vec::with_capacity(copies));
        let owner = Vec::with_capacity(if owned { copies } else { 0 });
        CopyArena { quantized: Vec::with_capacity(verts), ends, fwd, owner, sigs }
    }

    fn len(&self) -> usize {
        self.ends.len()
    }

    fn quantized(&self, i: usize) -> &[[u16; 2]] {
        &self.quantized[ranged(&self.ends, i..i + 1)]
    }

    /// Append the copy `verts` = `fwd` of its source, hashed to `sig`:
    /// quantized in `frame`, or with no quantized vertex if one of them
    /// lies outside it.
    fn push(&mut self, frame: &LuneFrame, fwd: Similarity, verts: &[Point], sig: Signature) {
        let start = self.quantized.len();
        self.quantized.extend(verts.iter().map_while(|&v| frame.quantize(v)));
        if self.quantized.len() - start < verts.len() {
            self.quantized.truncate(start);
        }
        self.ends.push(self.quantized.len() as u32);
        self.fwd.push(fwd);
        self.sigs.push(sig);
    }

    /// Append copies `copies` of `from` as `owner`'s: their quantized
    /// vertices as one range, their ends rebased.
    fn extend_from(&mut self, owner: ShapeId, from: &CopyArena, copies: Range<usize>) {
        let verts = ranged(&from.ends, copies.clone());
        let (old, new) = (verts.start as u32, self.quantized.len() as u32);
        self.quantized.extend_from_slice(&from.quantized[verts]);
        self.ends.extend(from.ends[copies.clone()].iter().map(|e| e - old + new));
        self.fwd.extend_from_slice(&from.fwd[copies.clone()]);
        self.owner.resize(self.owner.len() + copies.len(), owner);
        self.sigs.extend_from_slice(&from.sigs[copies]);
    }

    fn heap_bytes(&self) -> usize {
        let per_copy = bytes(&self.ends) + bytes(&self.fwd) + bytes(&self.owner);
        bytes(&self.quantized) + per_copy + bytes(&self.sigs)
    }
}

/// One static sub-base: what its shapes' inserts (or one bulk load)
/// computed, laid out for the scan and the hash tier. Immutable once
/// built; a carry that consumes it copies out what is still live.
#[derive(Default)]
struct Level {
    /// Every normalized copy, shape by shape in `ids` order.
    copies: CopyArena,
    /// `copies.sigs` grouped — the approximate tier's index slice for
    /// this level.
    buckets: SigBuckets,
    /// Level-local ShapeId → global id.
    ids: Vec<GlobalShapeId>,
    images: Vec<ImageId>,
    /// Whether each shape — and so each of its copies — is closed.
    closed: Vec<bool>,
    /// The source shapes end to end, shape l at `ranged(src_ends, l..l + 1)`.
    src_verts: Vec<Point>,
    src_ends: Vec<u32>,
    /// Copies per shape, cumulative (aligned with `ids`): the range a
    /// carry copies, and what a delete takes off the live-copy count.
    copy_ends: Vec<u32>,
    /// `ids` sorted, each with its level-local id: membership (WAL
    /// replay) and the bit a delete sets are a binary search, not a walk
    /// of `ids`.
    sorted_ids: Vec<(GlobalShapeId, ShapeId)>,
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

/// Tombstones of one level: bit `ShapeId` set = deleted, words held up
/// to the highest bit set. Copied on write by [`DynamicBase::delete`]
/// when a snapshot shares it (8 bytes per 64 shapes).
#[derive(Clone, Default)]
struct DeadBits {
    words: Vec<u64>,
    /// Set bits, and the copies their shapes have in the level.
    shapes: usize,
    copies: usize,
}

impl DeadBits {
    fn get(&self, local: ShapeId) -> bool {
        self.words.get(local.index() / 64).is_some_and(|w| w >> (local.index() % 64) & 1 == 1)
    }

    /// Tombstone a live shape that has `copies` copies in the level.
    fn set(&mut self, local: ShapeId, copies: usize) {
        let word = local.index() / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (local.index() % 64);
        self.shapes += 1;
        self.copies += copies;
    }
}

/// One occupied carry slot: the immutable level and its tombstones, each
/// behind an `Arc` so a snapshot shares both instead of copying either.
#[derive(Clone)]
struct Slot {
    level: Arc<Level>,
    dead: Arc<DeadBits>,
}

impl Slot {
    fn new(level: Level) -> Slot {
        Slot { level: Arc::new(level), dead: Arc::default() }
    }

    fn live_shapes(&self) -> usize {
        self.level.ids.len() - self.dead.shapes
    }

    fn live_copies(&self) -> usize {
        self.level.copies.len() - self.dead.copies
    }

    /// The live shapes' table rows, in level order, each with the range
    /// of its copies.
    fn live(
        &self,
    ) -> impl Iterator<Item = (ShapeId, GlobalShapeId, ImageId, Range<usize>)> + Clone + '_ {
        let level = &*self.level;
        (0..level.ids.len() as u32)
            .map(ShapeId)
            .filter(|local| !self.dead.get(*local))
            .map(|l| (l, level.ids[l.index()], level.images[l.index()], level.copies_of(l)))
    }
}

/// A match from the dynamic base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DynMatch {
    pub shape: GlobalShapeId,
    pub image: ImageId,
    pub score: f64,
}

/// Per-query totals of one exact retrieval, summed over the levels it
/// scanned. The server worker copies these, under these names, into the
/// query's request record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetrieveStats {
    /// Levels scanned.
    pub levels: u64,
    /// Level copies the scans scored (a level's live copies minus what
    /// the seed had settled), and how many of them the cutoff did not cut
    /// short. `scan_survivors` is in-process only: the EXPLAIN wire
    /// encoding does not carry it, so a remote report reads 0 there.
    pub scan_copies: u64,
    pub scan_survivors: u64,
    /// Buffered shapes scored brute force.
    pub buffer_scored: u64,
}

/// One level's share of an EXPLAIN'd query: its live copies split into
/// those the seed had already settled and those the scan scored against
/// the cutoff it started from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelExplain {
    /// Live shapes in this level.
    pub shapes: u64,
    /// τ the scan started from — `INFINITY` when the seed left the board
    /// short of k shapes.
    pub cutoff: f64,
    /// Copies the scan scored, and those the seed had settled (the two
    /// sum to the level's live copies).
    pub scored: u64,
    pub settled: u32,
}

/// A full query EXPLAIN: per-level breakdowns plus the aggregate
/// [`RetrieveStats`]. Produced by [`Snapshot::explain_with_stats`]
/// into a caller-owned value; the capture allocates only on the
/// explain path itself — plain retrievals never touch it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryExplain {
    /// One entry per level, in query order (largest/oldest first).
    pub levels: Vec<LevelExplain>,
    /// The same aggregate stats a plain retrieval reports.
    pub stats: RetrieveStats,
}

impl QueryExplain {
    /// Reset for reuse, keeping allocated capacity where possible.
    pub fn clear(&mut self) {
        self.levels.clear();
        self.stats = RetrieveStats::default();
    }
}

/// Registry handles for the per-query dynamic-retrieval distributions;
/// cached per thread, recorded once per query.
///
/// `pool_hits`/`pool_misses` count warm-scratch reuse per query: a hit
/// is a query that completed without growing any scratch array (a
/// worker's long-lived one, on the serve path). A miss is a cold or
/// outgrown scratch paying dense-array (re)allocation.
#[derive(Clone)]
struct DynMetrics {
    queries: Arc<obs::Counter>,
    buffer_scored: Arc<obs::Counter>,
    pool_hits: Arc<obs::Counter>,
    pool_misses: Arc<obs::Counter>,
    /// Exact queries whose cutoff the hash tier's k-th score set, and
    /// those whose scans started from ∞ (fewer than k seeds) or from a
    /// threshold query's τ.
    seeded: Arc<obs::Counter>,
    unseeded: Arc<obs::Counter>,
    seed_reranked: Arc<obs::Counter>,
    /// Copies the level scans scored, and those the cutoff did not cut
    /// short.
    scan_copies: Arc<obs::Counter>,
    scan_survivors: Arc<obs::Counter>,
    /// Copies the seed, the scans and the buffer pass rejected from the
    /// query's lower-bound raster alone (a share of the abandoned ones).
    bound_rejects: Arc<obs::Counter>,
    /// Levels [`DynamicBase::delete`] rebuilt without their dead.
    compactions: Arc<obs::Counter>,
    /// `true k-th ÷ τ` in permille: how tight the seed was (1000 = the
    /// hash tier already had the answer).
    seed_tightness: Arc<obs::Histogram>,
}

impl DynMetrics {
    fn build(reg: &obs::Registry) -> DynMetrics {
        // No level runs the matcher; its series stay exposed all the
        // same (reading 0, not absent, to a scraper).
        MatcherMetrics::build(reg);
        DynMetrics {
            queries: reg.counter("geosir_dynamic_queries_total", &[]),
            buffer_scored: reg.counter("geosir_dynamic_buffer_scored_total", &[]),
            pool_hits: reg.counter("geosir_dynamic_scratch_pool_hits_total", &[]),
            pool_misses: reg.counter("geosir_dynamic_scratch_pool_misses_total", &[]),
            seeded: reg.counter("geosir_exact_queries_total", &[("seeded", "true")]),
            unseeded: reg.counter("geosir_exact_queries_total", &[("seeded", "false")]),
            seed_reranked: reg.counter("geosir_exact_seed_reranked_total", &[]),
            scan_copies: reg.counter("geosir_exact_scan_copies_total", &[]),
            scan_survivors: reg.counter("geosir_exact_scan_survivors_total", &[]),
            bound_rejects: reg.counter("geosir_exact_scan_bound_rejects_total", &[]),
            compactions: reg.counter("geosir_dynamic_compactions_total", &[]),
            seed_tightness: reg.histogram("geosir_exact_seed_tightness_permille", &[]),
        }
    }
}

impl DynamicBase {
    /// `buffer_cap` controls the smallest level size (and hence rebuild
    /// granularity); 32–256 is reasonable.
    pub fn new(alpha: f64, config: MatchConfig, buffer_cap: usize) -> Self {
        assert!(buffer_cap >= 1);
        DynamicBase {
            alpha,
            config,
            family: Arc::new(CurveFamily::new(DEFAULT_HASH_CURVES)),
            buffer: Vec::new(),
            scratch: InsertScratch::default(),
            buffer_cap,
            levels: Vec::new(),
            next_id: 0,
            epoch: 0,
            shapes_rebuilt: 0,
            compactions: 0,
        }
    }

    /// The mutation epoch: bumped by every applied insert and delete.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The retrieval configuration queries run with.
    pub fn config(&self) -> &MatchConfig {
        &self.config
    }

    /// Number of live (non-deleted) shapes.
    pub fn len(&self) -> usize {
        self.buffer.len() + self.levels.iter().flatten().map(Slot::live_shapes).sum::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Occupied carry slots.
    pub fn num_levels(&self) -> usize {
        self.levels.iter().flatten().count()
    }

    /// Insert a shape. Its normalized copies and their signatures are
    /// computed here, once: every query that brute-forces the buffer only
    /// scores, and every carry the shape later takes part in only copies
    /// them (writer pays, readers and carries don't).
    pub fn insert(&mut self, image: ImageId, shape: Polyline) -> GlobalShapeId {
        let id = GlobalShapeId(self.next_id);
        self.next_id += 1;
        self.epoch += 1;
        self.buffer_insert(id, image, shape);
        id
    }

    /// Derive everything a buffered shape carries — its normalized copies
    /// and their hash signatures — once, writer-side; carry when the
    /// buffer is full.
    fn buffer_insert(&mut self, id: GlobalShapeId, image: ImageId, shape: Polyline) {
        let b = BufferedShape::new(id, image, shape, self.alpha, &self.family, &mut self.scratch);
        self.buffer.push(Arc::new(b));
        if self.buffer.len() >= self.buffer_cap {
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
        let mut pool: Vec<(GlobalShapeId, ImageId, Polyline)> = Vec::new();
        let mut assigned = Vec::new();
        for (image, shape) in shapes {
            let id = GlobalShapeId(self.next_id);
            self.next_id += 1;
            self.epoch += 1;
            assigned.push(id);
            pool.push((id, image, shape));
        }
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
        base.next_id = next_id.max(max_id);
        base.epoch = epoch;
        base
    }

    /// Replay one insert with its original id (WAL recovery). Idempotent:
    /// an id already present (or ahead of `next_id` bookkeeping from a
    /// later checkpoint) is skipped and reported as `false`.
    pub fn insert_with_id(&mut self, id: GlobalShapeId, image: ImageId, shape: Polyline) -> bool {
        if self.contains(id) {
            return false;
        }
        self.next_id = self.next_id.max(id.0 + 1);
        self.epoch += 1;
        self.buffer_insert(id, image, shape);
        true
    }

    /// Whether `id` is live (inserted, not tombstoned): a walk of the
    /// buffer, then a binary search per level.
    pub fn contains(&self, id: GlobalShapeId) -> bool {
        self.buffer.iter().any(|b| b.id == id) || self.find_live(id).is_some()
    }

    /// The slot holding `id` live, and its level-local id there.
    fn find_live(&self, id: GlobalShapeId) -> Option<(usize, ShapeId)> {
        self.levels.iter().enumerate().find_map(|(at, slot)| {
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
        while slot < self.levels.len() && self.levels[slot].is_some() {
            slot += 1;
        }
        while self.levels.len() <= slot {
            self.levels.push(None);
        }
        self.shapes_rebuilt += pool.len() as u64;
        self.levels[slot] = Some(Slot::new(Level::build(pool, self.alpha, &self.family)));
    }

    /// Delete a shape. A buffered one drops eagerly — it lives nowhere
    /// else and needs no tombstone; a leveled one gets its bit set in the
    /// level's tombstones (copied first if a snapshot shares them), and
    /// once the level's dead outnumber its live shapes
    /// (`MAX_DEAD_PER_LIVE`) the level is rebuilt without them, here.
    pub fn delete(&mut self, id: GlobalShapeId) -> bool {
        let before = self.buffer.len();
        self.buffer.retain(|b| b.id != id);
        if self.buffer.len() < before {
            self.epoch += 1;
            return true;
        }
        let Some((at, local)) = self.find_live(id) else {
            return false;
        };
        let slot = self.levels[at].as_mut().expect("found there");
        Arc::make_mut(&mut slot.dead).set(local, slot.level.copies_of(local).len());
        self.epoch += 1;
        if slot.dead.shapes > MAX_DEAD_PER_LIVE * slot.live_shapes() {
            self.compact(at);
        }
        true
    }

    /// Replace the level in slot `at` by the merge of its live shapes —
    /// the merge a carry runs, on one input — and drop its tombstones
    /// with it; a level with no live shape frees the slot.
    fn compact(&mut self, at: usize) {
        let old = self.levels[at].take().expect("compacting an occupied slot");
        let merged = Level::merge(&[], std::iter::once(&old));
        let shapes = merged.ids.len();
        self.shapes_rebuilt += shapes as u64;
        self.compactions += 1;
        if shapes > 0 {
            self.levels[at] = Some(Slot::new(merged));
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
        let buffer = std::mem::take(&mut self.buffer);
        // the first free slot: every level below it joins the carry
        let slot = self.levels.iter().position(Option::is_none).unwrap_or(self.levels.len());
        if slot == self.levels.len() {
            self.levels.push(None);
        }
        // never empty: the buffer is, and holds no dead shape
        let merged = Level::merge(&buffer, self.levels[..slot].iter().flatten());
        self.levels[..slot].fill(None);
        let rebuilt = merged.ids.len();
        self.shapes_rebuilt += rebuilt as u64;
        self.levels[slot] = Some(Slot::new(merged));
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
        let copies = self.levels.iter().flatten().map(Slot::live_copies).sum::<usize>()
            + self.buffer.iter().map(|b| b.copies.len()).sum::<usize>();
        Snapshot {
            epoch: self.epoch,
            next_id: self.next_id,
            config: self.config.clone(),
            frame: LuneFrame::new(self.alpha),
            family: self.family.clone(),
            levels: self.levels.clone(),
            buffer: self.buffer.clone(),
            live: self.len(),
            copies,
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Id comparisons made by [`Level::find`] on this thread (test
    /// probe: a delete must not walk a level's ids).
    static ID_PROBES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Level {
    /// An empty level sized exactly for `shapes` shapes of `src` source
    /// vertices with `copies` copies of `verts` vertices.
    fn with_capacity(shapes: usize, src: usize, copies: usize, verts: usize) -> Level {
        Level {
            copies: CopyArena::with_capacity(copies, verts, true),
            ids: Vec::with_capacity(shapes),
            images: Vec::with_capacity(shapes),
            closed: Vec::with_capacity(shapes),
            src_verts: Vec::with_capacity(src),
            src_ends: Vec::with_capacity(shapes),
            copy_ends: Vec::with_capacity(shapes),
            ..Level::default()
        }
    }

    /// The bulk-load / restore path, the only one besides
    /// [`DynamicBase::insert`] that normalizes or hashes: every shape of
    /// `pool` buffered as an insert would be, on every CPU, then carried
    /// into one level.
    fn build(pool: Vec<(GlobalShapeId, ImageId, Polyline)>, alpha: f64, family: &CurveFamily) -> Level {
        let shapes = par_map(&pool, 0, |(id, image, shape)| {
            let scratch = &mut InsertScratch::default();
            Arc::new(BufferedShape::new(*id, *image, shape.clone(), alpha, family, scratch))
        });
        Level::merge(&shapes, std::iter::empty())
    }

    /// What a carry leaves in its target slot: the shapes of `buffer`,
    /// then the live shapes of `slots` in slot order, each with the
    /// copies and signatures it already has — the level [`Level::build`]
    /// would make of the same shapes in the same order, copy for copy,
    /// with nothing normalized or hashed. Sized exactly from the live
    /// counts first, then filled range by range: a handful of allocations
    /// per level, none per shape or copy. A tombstoned shape stays
    /// behind, and its tombstone with the slot that held it.
    fn merge<'a>(
        buffer: &[Arc<BufferedShape>],
        slots: impl Iterator<Item = &'a Slot> + Clone,
    ) -> Level {
        // (id, image, source, closed, copies as a range of an arena)
        let buffered = buffer.iter().map(|b| {
            (b.id, b.image, b.shape.points(), b.shape.is_closed(), &b.copies, 0..b.copies.len())
        });
        let leveled = slots.flat_map(|slot| {
            let level = &*slot.level;
            let row = move |(l, gid, image, range): (ShapeId, _, _, _)| {
                (gid, image, level.src(l), level.closed[l.index()], &level.copies, range)
            };
            slot.live().map(row)
        });
        let shapes = buffered.chain(leveled);
        let (mut n, mut src, mut copies, mut verts) = (0, 0, 0, 0);
        for (_, _, source, _, arena, range) in shapes.clone() {
            (n, src, copies) = (n + 1, src + source.len(), copies + range.len());
            verts += ranged(&arena.ends, range).len();
        }
        let mut out = Level::with_capacity(n, src, copies, verts);
        // Snapshots may still hold the slots' levels: their contents are
        // copied out, never moved.
        for (id, image, source, closed, arena, range) in shapes {
            out.copies.extend_from(ShapeId(out.ids.len() as u32), arena, range);
            out.push_shape(id, image, source, closed);
        }
        out.finish()
    }

    /// Record a shape whose copies were just appended to the arena.
    fn push_shape(&mut self, id: GlobalShapeId, image: ImageId, src: &[Point], closed: bool) {
        self.ids.push(id);
        self.images.push(image);
        self.closed.push(closed);
        self.src_verts.extend_from_slice(src);
        self.src_ends.push(self.src_verts.len() as u32);
        self.copy_ends.push(self.copies.len() as u32);
    }

    fn copies_of(&self, local: ShapeId) -> Range<usize> {
        ranged(&self.copy_ends, local.index()..local.index() + 1)
    }

    fn src(&self, local: ShapeId) -> &[Point] {
        &self.src_verts[ranged(&self.src_ends, local.index()..local.index() + 1)]
    }

    /// Bucket the signatures and sort the id table.
    fn finish(mut self) -> Level {
        self.buckets = SigBuckets::from_sigs(&self.copies.sigs);
        self.sorted_ids = self.ids.iter().copied().zip((0..).map(ShapeId)).collect();
        // ids are unique, so no order among equals to keep — and an
        // unstable sort needs no scratch buffer
        self.sorted_ids.sort_unstable();
        self
    }

    fn heap_bytes(&self) -> usize {
        let ids = bytes(&self.ids) + bytes(&self.sorted_ids) + bytes(&self.images);
        let shapes = bytes(&self.closed) + bytes(&self.copy_ends);
        let src = bytes(&self.src_verts) + bytes(&self.src_ends);
        self.copies.heap_bytes() + self.buckets.heap_bytes() + ids + shapes + src
    }

    /// The level-local id under which this level holds `id` (live or
    /// tombstoned).
    fn find(&self, id: GlobalShapeId) -> Option<ShapeId> {
        let at = self.sorted_ids.binary_search_by(|(held, _)| {
            #[cfg(test)]
            ID_PROBES.with(|c| c.set(c.get() + 1));
            held.cmp(&id)
        });
        at.ok().map(|at| self.sorted_ids[at].1)
    }
}

/// An immutable, consistent view of a [`DynamicBase`] at one epoch.
///
/// Queries against a snapshot touch no shared mutable state: the writer
/// may cascade, insert, and delete freely while readers retrieve. A
/// snapshot holds `Arc`s to the levels it was taken over, so a level's
/// memory is reclaimed when the last snapshot referencing it drops.
#[derive(Clone)]
pub struct Snapshot {
    epoch: u64,
    next_id: u64,
    config: MatchConfig,
    /// The grid the copies' vertices are quantized in.
    frame: LuneFrame,
    family: Arc<CurveFamily>,
    /// The base's carry slots as captured (empty ones included, so a
    /// slot index means the same level here and there).
    levels: Vec<Option<Slot>>,
    buffer: Vec<Arc<BufferedShape>>,
    live: usize,
    /// Normalized copies of the live shapes captured (levels + buffer) —
    /// the denominator of the approximate tier's reduction ratio.
    copies: usize,
}

impl Snapshot {
    /// The mutation epoch this snapshot captured.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The id-allocation watermark at capture time: every id ever
    /// assigned (live or deleted) is below this. Checkpoints persist it
    /// so recovery never reuses a tombstoned id.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Every live (non-tombstoned) shape as `(id, image, vertices,
    /// closed)`, borrowed from the levels and the insert buffer — the
    /// checkpoint writer's entry point, which walks it twice (sizes,
    /// then bytes) and clones no geometry. Order is levels (large to
    /// recent) then the insert buffer.
    pub fn walk_live_shapes(
        &self,
    ) -> impl Iterator<Item = (GlobalShapeId, ImageId, &[Point], bool)> + Clone + '_ {
        let leveled = self.levels.iter().flatten().flat_map(|slot| {
            let level = &*slot.level;
            slot.live().map(move |(local, gid, image, _)| {
                (gid, image, level.src(local), level.closed[local.index()])
            })
        });
        let buffered =
            self.buffer.iter().map(|b| (b.id, b.image, b.shape.points(), b.shape.is_closed()));
        leveled.chain(buffered)
    }

    /// [`Self::walk_live_shapes`] with each shape cloned out, in the same
    /// order; [`DynamicBase::restore`] accepts it directly.
    pub fn live_shapes(&self) -> Vec<(GlobalShapeId, ImageId, Polyline)> {
        let mut out = Vec::with_capacity(self.live);
        out.extend(self.walk_live_shapes().map(|(gid, image, src, closed)| {
            (gid, image, Polyline::from_valid(src.to_vec(), closed))
        }));
        out
    }

    /// Live (non-deleted) shapes visible to queries.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Tombstoned shapes the levels still hold — at most one per live
    /// shape of each level (`MAX_DEAD_PER_LIVE`).
    pub fn dead_shapes(&self) -> usize {
        self.levels.iter().flatten().map(|s| s.dead.shapes).sum()
    }

    /// Occupied levels captured.
    pub fn num_levels(&self) -> usize {
        self.levels.iter().flatten().count()
    }

    /// The retrieval configuration captured from the base.
    pub fn config(&self) -> &MatchConfig {
        &self.config
    }

    /// k best live shapes at this snapshot's epoch (`k = 0` means the
    /// base's configured k). Convenience wrapper on fresh scratch; loops
    /// should hold one and call [`Self::retrieve_with_stats`].
    pub fn retrieve(&self, query: &Polyline, k: usize) -> Vec<DynMatch> {
        let (mut scratch, mut tmp) = (MatcherScratch::new(), MatchOutcome::default());
        let (mut out, mut stats) = (Vec::new(), RetrieveStats::default());
        self.retrieve_with_stats(&mut scratch, &mut tmp, query, k, &mut out, &mut stats);
        out
    }

    /// [`Self::retrieve`] through caller-owned scratch, reporting the
    /// query's work in `stats` — the path server workers run with their
    /// long-lived scratches: after a warm-up query the seed probe, level
    /// scans and buffer scan touch the heap zero times. `_tmp` is unused
    /// (no level runs a matcher that would fill it); it stays only because
    /// the benchmark harness (`benchmark/`) compiles against this signature.
    pub fn retrieve_with_stats(
        &self,
        scratch: &mut MatcherScratch,
        _tmp: &mut MatchOutcome,
        query: &Polyline,
        k: usize,
        out: &mut Vec<DynMatch>,
        stats: &mut RetrieveStats,
    ) {
        let k = if k == 0 { self.config.k } else { k };
        let prepared = self.prepare(scratch, query, true);
        self.seed_and_scan(k, f64::INFINITY, scratch, prepared, out, stats, None, true);
    }

    /// [`Self::retrieve_with_stats`] that additionally captures a full
    /// per-level [`QueryExplain`] — the EXPLAIN ANALYZE entry point.
    /// Identical retrieval semantics and stats; the only extra cost is
    /// the capture itself, paid only on this path.
    #[allow(clippy::too_many_arguments)]
    pub fn explain_with_stats(
        &self,
        scratch: &mut MatcherScratch,
        _tmp: &mut MatchOutcome,
        query: &Polyline,
        k: usize,
        out: &mut Vec<DynMatch>,
        stats: &mut RetrieveStats,
        explain: &mut QueryExplain,
    ) {
        let k = if k == 0 { self.config.k } else { k };
        explain.clear();
        let prepared = self.prepare(scratch, query, true);
        self.seed_and_scan(k, f64::INFINITY, scratch, prepared, out, stats, Some(explain), true);
        explain.stats = *stats;
    }

    /// Every live shape scoring within `tau` of `query`, ranked by
    /// `(score, id)` — §5.2's `shape_similar(Q)`. The exact scan of
    /// [`Self::retrieve`] with the board's cutoff starting at τ and no k
    /// to tighten it: a copy abandoned above τ cannot belong, a tie at τ is
    /// scored exactly, so the set is complete (the scan has no ε-cap).
    pub fn retrieve_within(&self, query: &Polyline, tau: f64) -> Vec<DynMatch> {
        let mut scratch = MatcherScratch::new();
        let (mut out, mut stats) = (Vec::new(), RetrieveStats::default());
        let prepared = self.prepare(&mut scratch, query, true);
        self.seed_and_scan(usize::MAX, tau, &mut scratch, prepared, &mut out, &mut stats, None, true);
        out
    }

    /// Normalized copies of the live shapes captured by this snapshot
    /// (levels + buffer) — what an exhaustive approximate scan would have
    /// to score.
    pub fn total_copies(&self) -> usize {
        self.copies
    }

    /// Copies the levels and the buffer hold, tombstoned shapes' included:
    /// what memory and bucket sizes track ([`Self::total_copies`] is the
    /// live share of it, never under half).
    pub fn stored_copies(&self) -> usize {
        self.copies + self.levels.iter().flatten().map(|s| s.dead.copies).sum::<usize>()
    }

    /// Bytes the captured base holds on the heap: each level's arena,
    /// tables, buckets and tombstones, and the buffered shapes — their
    /// `Vec` capacities, summed (a level two snapshots share counts in
    /// both).
    pub fn heap_bytes(&self) -> usize {
        let levels = self.levels.iter().flatten();
        let levels = levels.map(|s| s.level.heap_bytes() + bytes(&s.dead.words));
        let buffered = self.buffer.iter().map(|b| {
            let src = b.shape.num_vertices() * std::mem::size_of::<Point>();
            std::mem::size_of::<BufferedShape>() + src + b.copies.heap_bytes()
        });
        levels.sum::<usize>() + bytes(&self.buffer) + buffered.sum::<usize>()
    }

    /// Occupied signature buckets across all level indexes.
    pub fn approx_num_buckets(&self) -> usize {
        self.levels.iter().flatten().map(|s| s.level.buckets.num_buckets()).sum()
    }

    /// Average copies per occupied signature bucket across levels
    /// (0 when no level exists yet).
    pub fn approx_avg_bucket_size(&self) -> f64 {
        let buckets = self.approx_num_buckets();
        if buckets == 0 {
            return 0.0;
        }
        let copies: usize =
            self.levels.iter().flatten().map(|s| s.level.buckets.total_copies()).sum();
        copies as f64 / buckets as f64
    }

    /// The hash-curve family the signature indexes were built with.
    pub fn hash_family(&self) -> &CurveFamily {
        &self.family
    }

    /// Approximate retrieval: probe the signature buckets in rings of
    /// increasing curve distance, then rerank the candidates with the
    /// exact early-abandoning `h_avg` — results carry true scores, only
    /// *recall* is approximate. Convenience wrapper; loops should hold
    /// scratches and call [`Self::similar_approx_with`].
    pub fn similar_approx(
        &self,
        query: &Polyline,
        opts: &ApproxOptions,
    ) -> (Vec<DynMatch>, ApproxStats) {
        let mut scratch = MatcherScratch::new();
        let mut tmp = MatchOutcome::default();
        let mut ax = ApproxScratch::new();
        let mut out = Vec::new();
        let mut stats = ApproxStats::default();
        self.similar_approx_with(&mut scratch, &mut tmp, &mut ax, query, opts, &mut out, &mut stats);
        (out, stats)
    }

    /// [`Self::similar_approx`] through caller-owned scratch —
    /// allocation-free in steady state: the query is prepared by the
    /// exact tier's own routine ([`Self::prepare`]: same diameter, same
    /// frame, same grid), then probed and reranked by the shared core
    /// ([`Self::probe_rerank`], which the exact tier's seed step also
    /// runs), through the query's lower-bound raster as the seed is. A
    /// query with degenerate geometry — or one whose cascade collects
    /// nothing — falls through to the exact tier (the seed-and-scan of
    /// [`Self::retrieve_with_stats`], on the query as prepared here),
    /// reported as [`AnswerTier::Exact`] in `stats`. `_tmp` is unused,
    /// kept for `benchmark/` as [`Self::retrieve_with_stats`]'s is.
    #[allow(clippy::too_many_arguments)]
    pub fn similar_approx_with(
        &self,
        scratch: &mut MatcherScratch,
        _tmp: &mut MatchOutcome,
        ax: &mut ApproxScratch,
        query: &Polyline,
        opts: &ApproxOptions,
        out: &mut Vec<DynMatch>,
        stats: &mut ApproxStats,
    ) {
        self.approximate(scratch, ax, query, opts, out, stats, true);
    }

    /// [`Self::similar_approx_with`]. Its only caller passes `raster`;
    /// without it every scoring computes distances (same answer, same
    /// counts) — the differential test's other leg, as `seed_and_scan`'s
    /// is.
    #[allow(clippy::too_many_arguments)]
    fn approximate(
        &self,
        scratch: &mut MatcherScratch,
        ax: &mut ApproxScratch,
        query: &Polyline,
        opts: &ApproxOptions,
        out: &mut Vec<DynMatch>,
        stats: &mut ApproxStats,
        raster: bool,
    ) {
        *stats = ApproxStats { corpus_copies: self.copies as u64, ..ApproxStats::default() };
        let prepared = self.prepare(scratch, query, false);
        let mut rejected = 0;
        if prepared != Prepared::Nothing {
            rejected = self.probe_rerank(ax, scratch, opts, raster, out, stats);
        }
        if stats.candidates == 0 {
            stats.tier = AnswerTier::Exact;
            let prepared = match prepared {
                Prepared::Query if raster => self.lay_raster(scratch),
                prepared => prepared,
            };
            let k = if opts.k == 0 { self.config.k } else { opts.k };
            let scan = &mut RetrieveStats::default();
            self.seed_and_scan(k, f64::INFINITY, scratch, prepared, out, scan, None, true);
        }
        record_query_metrics(stats, rejected);
    }

    /// The one query preparation of both tiers: `query` normalized about
    /// its diameter into `scratch.query`, with its nearest-edge grid
    /// (`MatcherScratch::prepare_query`), then — with `raster` — its
    /// lower-bound raster ([`Self::lay_raster`]).
    fn prepare(&self, scratch: &mut MatcherScratch, query: &Polyline, raster: bool) -> Prepared {
        match scratch.prepare_query(query) {
            false => Prepared::Nothing,
            true if raster => self.lay_raster(scratch),
            true => Prepared::Query,
        }
    }

    /// The prepared query's lower-bound raster, laid over its grid
    /// ([`PreparedShape::build_lower_bound`]) and mapped onto this base's
    /// quantized frame into `scratch.raster` ([`QuantRaster::build`]):
    /// [`Prepared::Rastered`], or [`Prepared::Query`] for a query with no
    /// grid (over 64 edges) or a raster the map does not fit.
    fn lay_raster(&self, scratch: &mut MatcherScratch) -> Prepared {
        let qprep = scratch.query.as_mut().expect("prepared");
        qprep.build_lower_bound();
        match scratch.raster.build(&self.frame, qprep) {
            true => Prepared::Rastered,
            false => Prepared::Query,
        }
    }

    /// Occupied slots with their index, smallest (most recent) first.
    fn slots(&self) -> impl DoubleEndedIterator<Item = (usize, &Slot)> {
        self.levels.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
    }

    /// The hash tier's probe + bounded rerank: collect candidate copies
    /// in rings of increasing curve distance around the query's
    /// signature ([`Self::probe`]), score them with the early-abandoning
    /// `h_avg` against the board's running k-th best ([`score_onto`]),
    /// and leave the k best live shapes in `out` (true scores,
    /// ascending). Fills the funnel fields of `stats`;
    /// `stats.candidates == 0` means the cascade found nothing. With
    /// `raster`, the prepared query in `scratch` gets its lower-bound
    /// raster after the probe when the probe collected more than k
    /// candidates: with k or fewer the cutoff is ∞ until the last of them,
    /// and a raster rejects nothing against ∞. Returns how many
    /// candidates the raster rejected. Calls no other tier —
    /// [`Self::similar_approx_with`] wraps it with the exact fallback,
    /// [`Self::seed_and_scan`] runs the same two steps as its seed and
    /// keeps the board.
    fn probe_rerank(
        &self,
        ax: &mut ApproxScratch,
        scratch: &mut MatcherScratch,
        opts: &ApproxOptions,
        raster: bool,
        out: &mut Vec<DynMatch>,
        stats: &mut ApproxStats,
    ) -> u64 {
        out.clear();
        let k = if opts.k == 0 { self.config.k } else { opts.k };
        self.probe(ax, scratch.query.as_ref().expect("prepared"), opts, stats);
        let raster = raster && ax.cands.len() > k && self.lay_raster(scratch) == Prepared::Rastered;
        let ApproxScratch { cands, back, rows, best, ktmp, .. } = ax;
        let mut board = Board { k, cutoff: f64::INFINITY, rows, slot: best, ktmp };
        let (qprep, raster) = (scratch.query.as_ref().expect("prepared"), raster.then_some(&scratch.raster));
        let rejected = self.rerank(cands, qprep, raster, back, &mut board, stats);
        board.finish(out);
        rejected
    }

    /// The cascade: rings of increasing curve distance over every level
    /// index plus the buffer signatures, into `ax.cands` — live copies
    /// only: a tombstoned shape's copy is dropped as its bucket is read,
    /// before it counts against the budget. Stops at the end of the first
    /// ring that fills the candidate budget; `max_radius` is a soft
    /// preference — expansion continues past it while the candidate set
    /// is still empty, so the tier returns *something* whenever live
    /// shapes exist.
    ///
    /// Probing uses only the primary normalized copy: the base stores
    /// *both* orientations of every shape per α-diameter, so a stored
    /// copy in the query's orientation exists whenever the shape is
    /// similar at all.
    fn probe(
        &self,
        ax: &mut ApproxScratch,
        qprep: &PreparedShape,
        opts: &ApproxOptions,
        stats: &mut ApproxStats,
    ) {
        let family = &*self.family;
        let kf = family.k() as u16;
        let max_radius = opts.max_radius.min(kf);
        let max_cand = opts.max_candidates.max(1);
        ax.begin(self.levels.len());
        let ApproxScratch { quarters, vals, probes, ring, buffered, cands, .. } = ax;
        let qsig = signature_of_with(family, qprep.shape().points(), quarters);
        // every buffered copy's ring, computed once; sorted, a ring is one
        // run of it in (shape, copy) order
        for (bi, b) in self.buffer.iter().enumerate() {
            let ringed = b.copies.sigs.iter().enumerate();
            buffered.extend(ringed.map(|(ci, s)| (qsig.curve_distance(s), bi as u32, ci as u32)));
        }
        buffered.sort_unstable();
        let mut by_ring = buffered.iter().peekable();
        let mut probed = 0u64;
        for r in 0..=kf {
            stats.radius = r;
            for (li, Slot { level, dead }) in self.slots() {
                ring.clear();
                level.buckets.collect_ring(kf, &qsig, r, &mut probes[li], vals, ring, &mut probed);
                let live = ring.iter().filter(|c| !dead.get(level.copies.owner[c.index()]));
                cands.extend(live.map(|c| CandRef {
                    level: li as u32,
                    a: c.0,
                    b: 0,
                    verdict: f64::NAN,
                }));
            }
            while let Some(&(_, a, b)) = by_ring.next_if(|at| at.0 == r) {
                cands.push(CandRef { level: BUFFER_LEVEL, a, b, verdict: f64::NAN });
            }
            if cands.len() >= max_cand || (r >= max_radius && !cands.is_empty()) {
                break;
            }
        }
        stats.buckets_probed = probed;
        stats.candidates = cands.len() as u64;
    }

    /// Score the probe's candidates onto `board` in ring order, leaving
    /// each one's verdict beside it for the exact tier's hand-off.
    /// Returns how many of them the query's `raster` rejected.
    fn rerank(
        &self,
        cands: &mut [CandRef],
        qprep: &PreparedShape,
        raster: Option<&QuantRaster>,
        back: &mut Option<PreparedShape>,
        board: &mut Board<'_>,
        stats: &mut ApproxStats,
    ) -> u64 {
        let offers = cands.iter_mut().map(|c| {
            let verdict = Some(&mut c.verdict);
            if c.level == BUFFER_LEVEL {
                let store = Store::Buffered(&self.buffer[c.a as usize]);
                return Offer { store, copy: c.b as usize, verdict };
            }
            let level = &self.levels[c.level as usize].as_ref().expect("probed slot").level;
            Offer { store: Store::Level(level), copy: c.a as usize, verdict }
        });
        let done = score_onto(self.config.score, qprep, raster, back, board, offers);
        stats.reranked += done.scored;
        stats.abandoned += done.abandoned;
        done.rejected
    }

    /// Exact retrieval, seed → bounded scan per level → buffer → merge:
    /// the hash tier's probe is reranked onto the board first, and its
    /// k-th best — a true score of a live stored shape, hence an upper
    /// bound τ on the true k-th best — is the cutoff every remaining live
    /// copy is then scored against by the same loop ([`score_onto`]):
    /// each level's copies in storage order — a tombstoned shape's
    /// skipped on its bit, unscored — then the buffer's. A copy the
    /// bounded scorer abandons is provably above the cutoff, a tie is
    /// scored exactly, the cutoff only tightens (to the board's per-shape
    /// k-th best) — so the board sorted by `(score, id)` and truncated to
    /// k is the exact top-k on all k ranks, with no ε-cap to run into.
    /// While the board is short of k shapes (fewer than k seeds) the
    /// cutoff is ∞: the scan scores what it meets in full until k live
    /// shapes are on the board, and tightens from there — the same plan,
    /// not another one. A threshold query ([`Self::retrieve_within`])
    /// starts the board at `within` = τ instead of ∞ and passes no k
    /// (`usize::MAX`), so the cutoff stays τ and the board is the set.
    /// The query comes prepared ([`Self::prepare`]) with its lower-bound
    /// raster mapped onto the base's quantized frame ([`QuantRaster`]):
    /// every bounded scoring of the three steps tests a copy's quantized
    /// vertices against it first and rejects most copies from the table
    /// alone, with the verdicts, scores and counts it would have had
    /// without (`similarity::score_copy_bounded`); only a copy the test
    /// passes has its vertices recomputed. Allocation-free in steady
    /// state. Every caller passes `handoff` and a rastered query (the
    /// approximate tier's fallback lays the raster its own leg asked
    /// for); without the first the levels score the seed's copies over
    /// again (same answer, more scorings), without the second every
    /// scoring computes distances (same answer, same counts) — the
    /// differential tests' other legs.
    #[allow(clippy::too_many_arguments)]
    fn seed_and_scan(
        &self,
        k: usize,
        within: f64,
        scratch: &mut MatcherScratch,
        prepared: Prepared,
        out: &mut Vec<DynMatch>,
        stats: &mut RetrieveStats,
        mut explain: Option<&mut QueryExplain>,
        handoff: bool,
    ) {
        out.clear();
        *stats = RetrieveStats::default();
        // Warm-scratch detection for the hit/miss metrics below: a query
        // that finishes without growing any dense array reused a warm
        // scratch.
        let grows_before = scratch.grow_events;
        let mut seed_stats = ApproxStats::default();
        let mut tau = within;
        let mut rejected = 0;
        if prepared != Prepared::Nothing {
            // The seed scratch holds the candidates' verdicts and the
            // board, the raster the query's bounds; both are taken out
            // while the query runs so that the scans can stamp copies in
            // the rest of `scratch`.
            let mut seed = std::mem::take(&mut scratch.seed);
            let quant = std::mem::take(&mut scratch.raster);
            let raster = (prepared == Prepared::Rastered).then_some(&quant);
            let opts = ApproxOptions { k, ..ApproxOptions::default() };
            let qprep = scratch.query.as_ref().expect("prepared above");
            self.probe(&mut seed, qprep, &opts, &mut seed_stats);
            let ApproxScratch { cands, back, rows, best, ktmp, .. } = &mut seed;
            let mut board = Board { k, cutoff: within, rows, slot: best, ktmp };
            rejected += self.rerank(cands, qprep, raster, back, &mut board, &mut seed_stats);
            tau = board.cutoff;

            // largest level first
            for (li, slot @ Slot { level, dead }) in self.slots().rev() {
                let judged = cands.iter().filter(|c| handoff && c.level == li as u32);
                stats.levels += 1;
                // No copy is scored twice: a finite verdict of the seed's
                // is on the board already, an abandoned copy scored above
                // a cutoff no lower than this one.
                scratch.ensure_copies(level.copies.len());
                let stamp = scratch.begin_query();
                let settled = &mut scratch.scored_stamp;
                let credit = judged.map(|c| settled[c.a as usize] = stamp).count();
                let within = board.cutoff;
                let settled = &*settled;
                let unsettled = (0..level.copies.len()).filter(|&i| settled[i] != stamp);
                let live = unsettled.filter(|&i| !dead.get(level.copies.owner[i]));
                let store = Store::Level(level);
                let offers = live.map(|copy| Offer { store, copy, verdict: None });
                let qprep = scratch.query.as_ref().expect("prepared above");
                let done = score_onto(self.config.score, qprep, raster, back, &mut board, offers);
                stats.scan_copies += done.scored;
                stats.scan_survivors += done.scored - done.abandoned;
                rejected += done.rejected;
                if let Some(ex) = explain.as_deref_mut() {
                    ex.levels.push(LevelExplain {
                        shapes: slot.live_shapes() as u64,
                        cutoff: within,
                        scored: done.scored,
                        settled: credit as u32,
                    });
                }
            }

            // Buffered shapes: the copies derived at insert time, through
            // the same loop (the buffer is small by design).
            let qprep = scratch.query.as_ref().expect("prepared above");
            let offers = self.buffer.iter().inspect(|_| stats.buffer_scored += 1).flat_map(|b| {
                let store = Store::Buffered(b);
                (0..b.copies.len()).map(move |copy| Offer { store, copy, verdict: None })
            });
            let done = score_onto(self.config.score, qprep, raster, back, &mut board, offers);
            rejected += done.rejected;
            board.finish(out);
            (scratch.seed, scratch.raster) = (seed, quant);
        }
        obs::with_metrics(DynMetrics::build, |m| {
            m.queries.inc();
            m.buffer_scored.add(stats.buffer_scored);
            // The seed is exact-tier work, counted here — never under the
            // approximate tier's `QueryApprox` series.
            m.seed_reranked.add(seed_stats.reranked);
            m.scan_copies.add(stats.scan_copies);
            m.scan_survivors.add(stats.scan_survivors);
            m.bound_rejects.add(rejected);
            // seeded: the seed's k-th score lowered the starting cutoff
            if tau < within {
                m.seeded.inc();
                if let Some(kth) = out.get(k - 1) {
                    let tight = if tau > 0.0 { kth.score / tau * 1000.0 } else { 1000.0 };
                    m.seed_tightness.record(tight.round() as u64);
                }
            } else {
                m.unseeded.inc();
            }
            // Scratch reuse: a query that never grew a dense array ran
            // entirely on warm scratch.
            if scratch.grow_events == grows_before {
                m.pool_hits.inc();
            } else {
                m.pool_misses.inc();
            }
        });
    }
}

impl BufferedShape {
    /// Normalize and hash `shape` straight into an arena of its own (no
    /// owners), sized for the one diameter α = 0 usually gives: each copy
    /// made once, into `scratch`, to be hashed and quantized — its `f64`
    /// vertices are recomputed from `shape` and its similarity whenever a
    /// scoring needs them.
    fn new(
        id: GlobalShapeId,
        image: ImageId,
        shape: Polyline,
        alpha: f64,
        family: &CurveFamily,
        scratch: &mut InsertScratch,
    ) -> BufferedShape {
        let (pts, frame) = (shape.points(), LuneFrame::new(alpha));
        let mut copies = CopyArena::with_capacity(2, 2 * pts.len(), false);
        let InsertScratch { copy, quarters } = scratch;
        for (fwd, ..) in normalizations(pts, alpha) {
            copy.clear();
            copy.extend(pts.iter().map(|&p| fwd.apply(p)));
            copies.push(&frame, fwd, copy, signature_of_with(family, copy, quarters));
        }
        BufferedShape { id, image, shape, copies }
    }
}

/// Where a stored copy lies: in a level's arena, or a buffered shape's.
#[derive(Clone, Copy)]
enum Store<'c> {
    Level(&'c Level),
    Buffered(&'c BufferedShape),
}

impl<'c> Store<'c> {
    fn arena(self) -> &'c CopyArena {
        match self {
            Store::Level(level) => &level.copies,
            Store::Buffered(b) => &b.copies,
        }
    }

    /// Copy i's shape: its id and image, and its source vertices and closed
    /// bit, which with the copy's similarity make the copy.
    fn shape(self, i: usize) -> (GlobalShapeId, ImageId, &'c [Point], bool) {
        match self {
            Store::Level(level) => {
                let owner = level.copies.owner[i];
                let at = owner.index();
                (level.ids[at], level.images[at], level.src(owner), level.closed[at])
            }
            Store::Buffered(b) => (b.id, b.image, b.shape.points(), b.shape.is_closed()),
        }
    }

    /// Copy i as the scorer recomputes it.
    fn stored(self, i: usize) -> StoredCopy<'c> {
        let (_, _, src, closed) = self.shape(i);
        StoredCopy { src, fwd: &self.arena().fwd[i], closed }
    }
}

/// What [`Snapshot::prepare`] left in a [`MatcherScratch`] for the query
/// about to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Prepared {
    /// Degenerate geometry: it normalizes to nothing and matches nothing.
    Nothing,
    /// `scratch.query`: the normalized query, gridded when it has ≤ 64
    /// edges.
    Query,
    /// That, and `scratch.raster`: its lower-bound raster on the base's
    /// quantized frame.
    Rastered,
}

/// One stored copy handed to [`score_onto`]: copy `copy` of `store`. Its
/// shape is looked up only for a copy the raster test passes.
struct Offer<'c> {
    store: Store<'c>,
    copy: usize,
    /// Where the caller wants the copy's verdict kept: its exact score,
    /// or `INFINITY` when the bounded scorer abandoned it.
    verdict: Option<&'c mut f64>,
}

/// What one [`score_onto`] pass did.
struct Scored {
    scored: u64,
    /// Scorings the cutoff cut short, and of those the ones the query's
    /// lower-bound raster cut short before any distance was computed.
    abandoned: u64,
    rejected: u64,
}

/// The per-shape board of one query: every scored live shape's best
/// score so far, and the k-th smallest of them — the cutoff the next
/// scoring is bounded by. Per shape, not per copy: a copy-level top-k
/// could prune the only copy of a shape whose best score still belongs
/// in the answer. Borrowed from the query's [`ApproxScratch`], so filling
/// it allocates nothing once warm.
struct Board<'a> {
    k: usize,
    /// Where the query started it — `INFINITY`, or a threshold query's τ —
    /// until k shapes are on the board.
    cutoff: f64,
    rows: &'a mut Vec<DynMatch>,
    /// shape → its row.
    slot: &'a mut IdMap<GlobalShapeId, u32>,
    /// Score scratch for re-deriving the cutoff.
    ktmp: &'a mut Vec<f64>,
}

impl Board<'_> {
    /// Put a live shape's copy score on the board; a new per-shape best
    /// re-derives the cutoff.
    fn offer(&mut self, shape: GlobalShapeId, image: ImageId, score: f64) {
        match self.slot.entry(shape) {
            Entry::Occupied(e) => {
                let row = &mut self.rows[*e.get() as usize];
                if score >= row.score {
                    return;
                }
                row.score = score;
            }
            Entry::Vacant(e) => {
                e.insert(self.rows.len() as u32);
                self.rows.push(DynMatch { shape, image, score });
            }
        }
        if self.rows.len() >= self.k {
            self.ktmp.clear();
            self.ktmp.extend(self.rows.iter().map(|m| m.score));
            let (_, kth, _) =
                self.ktmp.select_nth_unstable_by(self.k - 1, |a, b| a.partial_cmp(b).unwrap());
            self.cutoff = *kth;
        }
    }

    /// Rank the rows by `(score, id)`; the k best are the answer.
    fn finish(self, out: &mut Vec<DynMatch>) {
        self.rows.sort_unstable_by(|a, b| {
            a.score.partial_cmp(&b.score).unwrap().then(a.shape.cmp(&b.shape))
        });
        out.extend_from_slice(&self.rows[..self.k.min(self.rows.len())]);
    }
}

/// The one bounded-scoring loop — the hash tier's rerank, the exact
/// tier's level scans and its buffer scan are this, over three sources
/// of live copies (each source leaves a tombstoned shape's out), all
/// stored alike: score each copy against the board's cutoff — its
/// quantized vertices against `raster` first, when the query has one,
/// then its recomputed vertices, the reverse index rebuilt into `back`
/// only for a forward survivor — drop what the scorer abandons or what
/// lands past the cutoff anyway (the continuous kinds never abandon),
/// and offer the survivor to the board.
fn score_onto<'c>(
    kind: ScoreKind,
    qprep: &PreparedShape,
    raster: Option<&QuantRaster>,
    back: &mut Option<PreparedShape>,
    board: &mut Board<'_>,
    offers: impl Iterator<Item = Offer<'c>>,
) -> Scored {
    let mut done = Scored { scored: 0, abandoned: 0, rejected: 0 };
    for Offer { store, copy, verdict } in offers {
        let quantized = store.arena().quantized(copy);
        let stored = || store.stored(copy);
        let (score, rejected) =
            score_copy_bounded(kind, quantized, stored, qprep, raster, back, board.cutoff);
        done.scored += 1;
        done.rejected += rejected as u64;
        if let Some(verdict) = verdict {
            *verdict = score;
        }
        if !score.is_finite() {
            done.abandoned += 1;
        } else if score <= board.cutoff {
            let (shape, image, ..) = store.shape(copy);
            board.offer(shape, image, score);
        }
    }
    done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapebase::ShapeBaseBuilder;
    use crate::similarity::{score_copy_bounded, StoredCopy};
    use geosir_geom::rangesearch::Backend;
    use geosir_geom::Point;
    use proptest::prelude::*;
    use rand::prelude::*;
    use std::collections::HashSet;

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
        let static_base = builder.build(0.05, Backend::KdTree);
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
        let static_base = builder.build(0.05, Backend::KdTree);
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
                        .map(|c| crate::similarity::score(db.config.score, &c.shape, &prep))
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
            snap.slots().rev().map(|(_, s)| s.level.copies.len() as u64).collect();

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
        let base = b.build(0.05, Backend::KdTree);
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
                let prepared = snap.prepare(&mut scratch, q, true);
                snap.seed_and_scan(k, f64::INFINITY, &mut scratch, prepared, &mut off, &mut off_stats, None, false);
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
                let prepared = snap.prepare(&mut scratch, q, true);
                snap.seed_and_scan(k, f64::INFINITY, &mut scratch, prepared, &mut on, &mut on_stats, None, true);
                let seeded = verdicts(&scratch);
                obs::set_thread_registry(Some(without.clone()));
                let prepared = snap.prepare(&mut scratch, q, false);
                snap.seed_and_scan(k, f64::INFINITY, &mut scratch, prepared, &mut off, &mut off_stats, None, true);
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
                    let occupied: Vec<&Slot> = db.levels.iter().flatten().collect();
                    let doomed: Vec<_> = occupied[occupied.len() / 2].live().map(|(_, g, _, _)| g).collect();
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
            if db.buffer.is_empty() {
                db.insert(ImageId(0), perturb(&proto, &mut rng, 0.02));
            }
            let spared = db.levels.iter().flatten().filter(|s| s.dead.shapes == 0 && s.live_shapes() > 2);
            for id in spared.map(|s| s.level.ids[0]).collect::<Vec<_>>() {
                assert!(db.delete(id));
            }
            let tombstoned = db.levels.iter().flatten().filter(|s| s.dead.shapes > 0).count();
            assert!(tombstoned >= 3 && db.compactions >= 1, "seed {seed}: {tombstoned} levels, {} compactions", db.compactions);
            let churned = db.snapshot();
            assert!(!churned.buffer.is_empty() && churned.dead_shapes() > 0, "seed {seed}");
            let fresh = DynamicBase::restore(0.0, db.config.clone(), 4, churned.live_shapes(), churned.next_id(), churned.epoch()).snapshot();
            assert_eq!((fresh.num_levels(), fresh.dead_shapes()), (1, 0));
            assert_eq!((churned.len(), churned.total_copies()), (fresh.len(), fresh.total_copies()), "seed {seed}");

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
                    }
                }
            }
        }
    }

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
                .map(|l| (Polyline::from_valid(level.src(l).to_vec(), level.closed[l.index()]), level.copies_of(l)))
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
        for (at, slot) in db.levels.iter().enumerate() {
            if let Some(slot) = slot {
                assert_recomputes(Store::Level(&slot.level), db.alpha, &db.family, &format!("{what}, slot {at}"));
            }
        }
        for b in &db.buffer {
            assert_recomputes(Store::Buffered(b), db.alpha, &db.family, &format!("{what}, buffered {:?}", b.id));
        }
    }

    #[test]
    fn quantized_copies_recompute_bit_for_bit() {
        // what a base stores of a copy — source, similarity, quantized
        // vertices — gives back the vertices insert time made, after an
        // insert, a carry, a compaction, a bulk load and a restore
        for alpha in [0.0, 0.1] {
            let mut db = DynamicBase::new(alpha, MatchConfig::default(), 4);
            let ids: Vec<_> = (0..3).map(|i| db.insert(ImageId(i), shape(8000 + i as u64))).collect();
            assert_eq!((db.num_levels(), db.buffer.len()), (0, 3));
            assert_base_recomputes(&db, "inserted");
            for i in 3..22 {
                db.insert(ImageId(i), shape(8000 + i as u64));
            }
            assert!(db.num_levels() >= 2 && !db.buffer.is_empty());
            assert_base_recomputes(&db, "carried");
            let doomed: Vec<_> = db.levels.iter().flatten().last().expect("levels").live().map(|(_, g, _, _)| g).collect();
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
                    let id = GlobalShapeId(rng.random_range(0..db.next_id));
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
                prop_assert_eq!(db.levels.len(), slots.len());
                for (i, (slot, model)) in db.levels.iter().zip(&slots).enumerate() {
                    prop_assert_eq!(slot.is_some(), model.is_some(), "step {}: slot {}", step, i);
                    if let (Some(slot), Some(model)) = (slot, model) {
                        let what = format!("seed {seed} step {step} slot {i}");
                        let rebuilt = Level::build(model.clone(), alpha, &db.family);
                        assert_same_level(&slot.level, &rebuilt, &what);
                        assert_recomputes(Store::Level(&slot.level), alpha, &db.family, &what);
                        // the bits are the model's tombstones, and never
                        // the majority
                        let held: Vec<_> = model.iter().map(|(g, _, _)| *g).collect();
                        let want: Vec<_> = held.iter().filter(|g| dead.contains(g)).collect();
                        let got: Vec<_> = held.iter().filter(|g| !slot.live().any(|(_, l, _, _)| l == **g)).collect();
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
}
