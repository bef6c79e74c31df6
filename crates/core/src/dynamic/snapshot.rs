//! The read side. Levels are immutable between cascades and held behind
//! `Arc`, so [`DynamicBase::snapshot`] can capture the entire queryable
//! state — levels with their tombstone bitmaps, insert buffer, epoch — in
//! O(buffer + levels) pointer copies, without copying any index. A
//! [`Snapshot`] answers queries with no access to the `DynamicBase` it
//! came from: one writer can keep inserting (mutating levels via
//! cascades) while any number of reader threads retrieve against earlier
//! snapshots. This is the foundation of `geosir-serve`'s
//! snapshot-isolated live updates.
//!
//! [`DynamicBase::snapshot`]: super::DynamicBase::snapshot

use std::sync::Arc;

use geosir_geom::{Point, Polyline};

use super::arena::{bytes, BufferedShape};
use super::exact::{QueryExplain, RetrieveStats};
use super::level::Slot;
use super::{DynMatch, GlobalShapeId};
use crate::approx::{ApproxOptions, ApproxScratch, ApproxStats};
use crate::hashing::CurveFamily;
use crate::ids::ImageId;
use crate::matcher::{MatchConfig, MatchOutcome};
use crate::scratch::MatcherScratch;
use crate::similarity::LuneFrame;

/// A walk that knows how many items it has left (one per `next`).
struct Counted<I> {
    walk: I,
    left: usize,
}

impl<I: Iterator> Iterator for Counted<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let item = self.walk.next()?;
        self.left = self.left.saturating_sub(1);
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl<I: Iterator> ExactSizeIterator for Counted<I> {}

/// An immutable, consistent view of a [`DynamicBase`] at one epoch.
///
/// Queries against a snapshot touch no shared mutable state: the writer
/// may cascade, insert, and delete freely while readers retrieve. A
/// snapshot holds `Arc`s to the levels it was taken over, so a level's
/// memory is reclaimed when the last snapshot referencing it drops.
#[derive(Clone)]
pub struct Snapshot {
    /// Mutation counter: bumped by every applied insert and delete, so
    /// snapshots are totally ordered.
    pub(super) epoch: u64,
    pub(super) next_id: u64,
    pub(super) config: MatchConfig,
    /// The grid the copies' vertices are quantized in.
    pub(super) frame: LuneFrame,
    /// The k-curve hash family shared by every level's signature buckets
    /// and all insert-time signatures (§3; k = `DEFAULT_HASH_CURVES`).
    pub(super) family: Arc<CurveFamily>,
    /// Binary-carry slots; slot i holds a level of capacity
    /// `buffer_cap · 2^i` (or is empty).
    pub(super) levels: Vec<Option<Slot>>,
    /// Insert buffer: shapes not yet in any level (scored brute force
    /// against the normalized copies derived at insert time).
    pub(super) buffer: Vec<Arc<BufferedShape>>,
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
    /// checkpoint writer's entry point, which walks it once, clones no
    /// geometry, and heads the file with its length ([`Self::len`]).
    /// Order is slot by slot from slot 0 — the smallest, most recent
    /// level — up to the largest, then the insert buffer.
    pub fn walk_live_shapes(
        &self,
    ) -> impl ExactSizeIterator<Item = (GlobalShapeId, ImageId, &[Point], bool)> + '_ {
        let leveled = self.levels.iter().flatten().flat_map(|slot| {
            (0..slot.level.parts.len()).flat_map(|c| slot.live_rows(c)).map(|(row, ..)| row)
        });
        Counted { walk: leveled.chain(self.buffer.iter().map(|b| b.row())), left: self.len() }
    }

    /// [`Self::walk_live_shapes`] with each shape cloned out, in the same
    /// order; [`DynamicBase::restore`] accepts it directly.
    pub fn live_shapes(&self) -> Vec<(GlobalShapeId, ImageId, Polyline)> {
        let mut out = Vec::with_capacity(self.len());
        out.extend(self.walk_live_shapes().map(|(gid, image, src, closed)| {
            (gid, image, Polyline::from_valid(src.to_vec(), closed))
        }));
        out
    }

    /// Live (non-deleted) shapes visible to queries.
    pub fn len(&self) -> usize {
        self.buffer.len() + self.levels.iter().flatten().map(Slot::live_shapes).sum::<usize>()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        self.seed_and_scan(self.k(k), f64::INFINITY, scratch, query, true, out, stats, None, true);
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
        explain.clear();
        let k = self.k(k);
        self.seed_and_scan(k, f64::INFINITY, scratch, query, true, out, stats, Some(explain), true);
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
        self.seed_and_scan(usize::MAX, tau, &mut scratch, query, true, &mut out, &mut stats, None, true);
        out
    }

    /// Normalized copies of the live shapes captured by this snapshot
    /// (levels + buffer) — what an exhaustive approximate scan would have
    /// to score; the denominator of its reduction ratio.
    pub fn total_copies(&self) -> usize {
        let leveled = self.levels.iter().flatten().map(Slot::live_copies).sum::<usize>();
        leveled + self.buffer.iter().map(|b| b.copies.len()).sum::<usize>()
    }

    /// Copies the levels and the buffer hold, tombstoned shapes' included:
    /// what memory and bucket sizes track ([`Self::total_copies`] is the
    /// live share of it, never under half).
    pub fn stored_copies(&self) -> usize {
        self.total_copies() + self.levels.iter().flatten().map(|s| s.dead.copies).sum::<usize>()
    }

    /// Bytes the captured base holds on the heap: each level's chunks,
    /// tables, buckets and tombstones, and the buffered shapes — their
    /// `Vec` capacities, summed (a chunk two snapshots share counts in
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
    /// nothing — falls through to [`Self::retrieve_with_stats`]'s
    /// seed-and-scan, reported as [`AnswerTier::Exact`] in `stats`.
    /// `_tmp` is unused, kept for `benchmark/` as that one's is.
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

    /// A query's k: `0` means the base's configured k.
    pub(super) fn k(&self, k: usize) -> usize {
        if k == 0 { self.config.k } else { k }
    }

    /// The one query preparation of both tiers: `query` normalized about
    /// its diameter into `scratch.query`, with its nearest-edge grid laid
    /// (`MatcherScratch::prepare_query`), then — with `raster` — its
    /// lower-bound raster mapped onto this base's quantized frame into
    /// `scratch.raster` ([`crate::similarity::QuantRaster::build`]). Both
    /// are laid empty, in O(1): the query fills the cells it reads, on
    /// first read. [`Prepared::Rastered`], or [`Prepared::Query`] without
    /// `raster`, for a query with no grid (over 64 edges) and for a
    /// raster the map does not fit.
    pub(super) fn prepare(&self, scratch: &mut MatcherScratch, query: &Polyline, raster: bool) -> Prepared {
        if !scratch.prepare_query(query) {
            return Prepared::Nothing;
        }
        let qprep = scratch.query.as_ref().expect("just prepared");
        let prepared = match raster && scratch.raster.build(&self.frame, qprep) {
            true => Prepared::Rastered,
            false => Prepared::Query,
        };
        #[cfg(test)]
        if super::tests::FILL_AHEAD.with(std::cell::Cell::get) {
            // (test probe: every cell filled before the query reads one)
            let cells = 0..geosir_geom::segindex::GRID_N * geosir_geom::segindex::GRID_N;
            qprep.index().fill_lists(cells.clone());
            if prepared == Prepared::Rastered {
                scratch.raster.fill_quads(qprep.index(), cells);
            }
        }
        prepared
    }

    /// Occupied slots with their index, smallest (most recent) first.
    pub(super) fn slots(&self) -> impl DoubleEndedIterator<Item = (usize, &Slot)> {
        self.levels.iter().enumerate().filter_map(|(i, s)| s.as_ref().map(|s| (i, s)))
    }
}

/// What [`Snapshot::prepare`] left in a [`MatcherScratch`] for the query
/// about to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum Prepared {
    /// Degenerate geometry: it normalizes to nothing and matches nothing.
    Nothing,
    /// `scratch.query`: the normalized query, gridded when it has ≤ 64
    /// edges.
    Query,
    /// That, and `scratch.raster`: its lower-bound raster on the base's
    /// quantized frame.
    Rastered,
}
