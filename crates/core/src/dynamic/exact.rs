//! The exact tier, seed-and-verify ([`Snapshot::seed_and_scan`], DESIGN
//! §11.6): the hash tier's cascade reads rings 0 and 1 — more only while
//! fewer than k shapes are on its board — and hands its k-th score to a
//! scan of every copy it left unjudged; and the board and bounded-scoring
//! loop both tiers fill.

use std::collections::hash_map::Entry;

use geosir_geom::Polyline;

use super::approx::{Until, BUFFER_LEVEL};
use super::arena::{BufferedShape, Chunk, CopyArena, Row};
use super::level::Slot;
use super::snapshot::{Prepared, Snapshot};
use super::{DynMatch, GlobalShapeId};
use crate::approx::{ApproxOptions, ApproxStats, IdMap};
use crate::ids::{ImageId, ShapeId};
use crate::scratch::MatcherScratch;
use crate::similarity::{score_copy_bounded, PreparedShape, QuantRaster, ScoreKind, StoredCopy};

/// Per-query totals of one exact retrieval, summed over the levels it
/// scanned. The server worker copies the first four, under these names,
/// into the query's request record, and records every field on its
/// `/metrics` series.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RetrieveStats {
    /// Levels scanned.
    pub levels: u64,
    /// Level copies the scans scored (a level's live copies minus what
    /// the seed had settled), and how many of them the cutoff did not cut
    /// short. `scan_survivors` and every field below it are in-process
    /// only: the EXPLAIN wire encoding does not carry them, so a remote
    /// report reads 0 (`None`) there.
    pub scan_copies: u64,
    pub scan_survivors: u64,
    /// Buffered shapes scored brute force.
    pub buffer_scored: u64,
    /// Candidates the seed reranked: the hash tier's probe, scored as
    /// exact-tier work.
    pub seed_reranked: u64,
    /// Copies the seed, the scans and the buffer pass rejected from the
    /// query's lower-bound raster alone (a share of the abandoned ones).
    pub bound_rejects: u64,
    /// The cutoff the seed handed the scans, when its k-th score lowered
    /// the one the query started from — the answer then holds k shapes.
    /// `None`: the scans started from ∞ (fewer than k seeds) or from a
    /// threshold query's τ.
    pub seed_cutoff: Option<f64>,
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

impl Snapshot {
    /// Exact retrieval, seed → bounded scan per level → buffer → merge:
    /// the hash tier's cascade is reranked onto the board first, ring by
    /// ring until the board's cutoff is finite at ring 1 or later
    /// ([`Until::Cutoff`]: rings past 1 only while fewer than k shapes
    /// are on it, and never past where the approximate tier would stop),
    /// and its k-th best — a true score of a live stored shape, hence an
    /// upper bound τ on the true k-th best — is the cutoff every remaining
    /// live copy is then scored against: each level's copies in storage order,
    /// chunk by chunk ([`scan_chunk`]) — a tombstoned shape's skipped on
    /// its bit, unscored — then the buffer's ([`score_onto`], which also
    /// scores what a chunk scan lets through). A copy the
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
    /// The seed is [`Self::probe_rerank`], as the approximate tier's
    /// answer is, under its own stop rule; a threshold query's board
    /// starts at a finite τ, so its seed never reads past ring 1. The query is prepared ([`Self::prepare`]) with
    /// `raster`, its lower-bound raster mapped onto the base's quantized
    /// frame ([`QuantRaster`], each cell filled on first read): every
    /// bounded scoring of the three steps tests a copy's quantized
    /// vertices against it first and rejects most copies from the table
    /// alone, with the verdicts, scores and counts it would have had
    /// without (`similarity::score_copy_bounded`); only a copy the test
    /// passes has its vertices recomputed.
    /// Allocation-free in steady state. Every caller passes `raster` (the
    /// approximate tier's fallback, what its own leg asked for) and
    /// `handoff`; without the first every scoring computes distances
    /// (same answer, same counts), without the second the levels and the
    /// buffer score the seed's copies over again (same answer, more
    /// scorings) — the differential tests' other legs.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn seed_and_scan(
        &self,
        k: usize,
        within: f64,
        scratch: &mut MatcherScratch,
        query: &Polyline,
        raster: bool,
        out: &mut Vec<DynMatch>,
        stats: &mut RetrieveStats,
        mut explain: Option<&mut QueryExplain>,
        handoff: bool,
    ) {
        out.clear();
        *stats = RetrieveStats::default();
        if k == 0 {
            return;
        }
        let prepared = self.prepare(scratch, query, raster);
        let mut seed_stats = ApproxStats::default();
        let mut tau = within;
        if prepared != Prepared::Nothing {
            // The seed scratch holds the candidates' verdicts and the
            // board, the raster the query's bounds; both are taken out
            // while the query runs so that the scans can stamp copies in
            // the rest of `scratch`.
            let mut seed = std::mem::take(&mut scratch.seed);
            let opts = ApproxOptions { k, ..ApproxOptions::default() };
            let until = Until::Cutoff;
            let (mut board, cands) = self.probe_rerank(&mut seed, scratch, prepared, &opts, until, within, &mut seed_stats);
            tau = board.cutoff;
            let quant = std::mem::take(&mut scratch.raster);
            let raster = (prepared == Prepared::Rastered).then_some(&quant);
            let kind = self.config.score;
            let mut limits = Limits::default();

            // largest level first
            for (li, slot @ Slot { level, dead }) in self.slots().rev() {
                let judged = cands.iter().filter(|c| handoff && c.level == li as u32);
                stats.levels += 1;
                // No copy is scored twice: a finite verdict of the seed's
                // is on the board already, an abandoned copy scored above
                // a cutoff no lower than this one.
                scratch.ensure_copies(level.num_copies());
                let stamp = scratch.begin_query();
                let settled = &mut scratch.scored_stamp;
                let credit = judged.map(|c| settled[level.copy_at(c.a as usize, c.b as usize)] = stamp).count();
                let within = board.cutoff;
                let qprep = scratch.query.as_ref().expect("prepared above");
                let mut done = Scored::default();
                for (c, part) in level.parts.iter().enumerate() {
                    let stamps = &scratch.scored_stamp[part.copies as usize..];
                    let skip = |i: usize, owner: ShapeId| stamps[i] == stamp || dead.get(ShapeId(part.shapes + owner.0));
                    let ids = &level.ids[level.shapes_of(c)];
                    done.add(scan_chunk(kind, qprep, raster, &mut board, &mut limits, &part.chunk, ids, skip));
                }
                stats.scan_copies += done.scored;
                stats.scan_survivors += done.scored - done.abandoned;
                stats.bound_rejects += done.rejected;
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
            // the one loop (the buffer is small by design), but for those
            // the seed judged — handed over as the levels' are, in
            // (shape, copy) order.
            let handed = &mut scratch.handed;
            handed.clear();
            handed.extend(cands.iter().filter(|c| handoff && c.level == BUFFER_LEVEL).map(|c| (c.a, c.b)));
            handed.sort_unstable();
            let mut handed = handed.iter().copied().peekable();
            let qprep = scratch.query.as_ref().expect("prepared above");
            let mut done = Scored::default();
            for (bi, b) in self.buffer.iter().enumerate() {
                stats.buffer_scored += 1;
                let store = Store::Buffered(b);
                let unjudged = (0..b.copies.len()).filter(|&ci| handed.next_if_eq(&(bi as u32, ci as u32)).is_none());
                let offers = unjudged.map(|copy| Offer { store, copy, verdict: None });
                done.add(score_onto(kind, qprep, raster, &mut board, offers));
            }
            #[cfg(test)]
            super::tests::BUFFER_SCORINGS.with(|n| n.set(n.get() + done.scored));
            stats.bound_rejects += done.rejected;
            board.finish(out);
            (scratch.seed, scratch.raster) = (seed, quant);
        }
        // The seed is exact-tier work, reported here — never in the
        // approximate tier's stats.
        stats.seed_reranked = seed_stats.reranked;
        stats.bound_rejects += seed_stats.bound_rejects;
        stats.seed_cutoff = (tau < within).then_some(tau);
    }
}

/// Where a stored copy lies: in a level's chunk — beside the level's ids
/// of the chunk's shapes — or in a buffered shape's arena.
#[derive(Clone, Copy)]
pub(super) enum Store<'c> {
    Chunk(&'c Chunk, &'c [GlobalShapeId]),
    Buffered(&'c BufferedShape),
}

impl<'c> Store<'c> {
    pub(super) fn arena(self) -> &'c CopyArena {
        match self {
            Store::Chunk(chunk, _) => &chunk.copies,
            Store::Buffered(b) => &b.copies,
        }
    }

    /// Copy i's shape's row.
    pub(super) fn shape(self, i: usize) -> Row<'c> {
        match self {
            Store::Chunk(chunk, ids) => {
                let local = chunk.copies.owner[i];
                chunk.row(local, ids[local.index()])
            }
            Store::Buffered(b) => b.row(),
        }
    }

    /// Copy i as the scorer recomputes it.
    pub(super) fn stored(self, i: usize) -> StoredCopy<'c> {
        let (_, _, src, closed) = self.shape(i);
        StoredCopy { src, fwd: &self.arena().fwd[i], closed }
    }
}

/// One stored copy handed to [`score_onto`]: copy `copy` of `store`. Its
/// shape is looked up only for a copy the raster test passes.
pub(super) struct Offer<'c> {
    pub(super) store: Store<'c>,
    pub(super) copy: usize,
    /// Where the caller wants the copy's verdict kept: its exact score,
    /// or `INFINITY` when the bounded scorer abandoned it.
    pub(super) verdict: Option<&'c mut f64>,
}

/// What one [`score_onto`] or [`scan_chunk`] pass did.
#[derive(Debug, Default, PartialEq, Eq)]
pub(super) struct Scored {
    pub(super) scored: u64,
    /// Scorings the cutoff cut short, and of those the ones the query's
    /// lower-bound raster cut short before any distance was computed.
    pub(super) abandoned: u64,
    pub(super) rejected: u64,
}

impl Scored {
    fn add(&mut self, other: Scored) {
        self.scored += other.scored;
        self.abandoned += other.abandoned;
        self.rejected += other.rejected;
    }
}

/// The per-shape board of one query: every scored live shape's best
/// score so far, and the k-th smallest of them — the cutoff the next
/// scoring is bounded by. Per shape, not per copy: a copy-level top-k
/// could prune the only copy of a shape whose best score still belongs
/// in the answer. Borrowed from the query's [`crate::approx::ApproxScratch`],
/// so filling it allocates nothing once warm.
pub(super) struct Board<'a> {
    pub(super) k: usize,
    /// Where the query started it — `INFINITY`, or a threshold query's τ —
    /// until k shapes are on the board.
    pub(super) cutoff: f64,
    pub(super) rows: &'a mut Vec<DynMatch>,
    /// shape → its row.
    pub(super) slot: &'a mut IdMap<GlobalShapeId, u32>,
    /// Score scratch for re-deriving the cutoff.
    pub(super) ktmp: &'a mut Vec<f64>,
    /// The reverse index the scorer rebuilds for a forward survivor.
    pub(super) back: &'a mut Option<PreparedShape>,
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
    pub(super) fn finish(self, out: &mut Vec<DynMatch>) {
        out.clear();
        self.rows.sort_unstable_by(|a, b| {
            a.score.partial_cmp(&b.score).unwrap().then(a.shape.cmp(&b.shape))
        });
        out.extend_from_slice(&self.rows[..self.k.min(self.rows.len())]);
    }
}

/// The one bounded-scoring loop — the hash tier's rerank and the exact
/// tier's buffer scan are this, and a level scan ([`scan_chunk`]) hands
/// it every copy its raster test lets through; each source leaves a
/// tombstoned shape's copies out, and all are stored alike: score each
/// copy against the board's cutoff — its quantized vertices against
/// `raster` first, when the query has one, then its recomputed vertices,
/// and for a forward survivor the reverse half
/// (`similarity::score_copy_bounded`) — drop what the scorer abandons or
/// what lands past the cutoff anyway (the continuous kinds never
/// abandon), and offer the survivor to the board. The only place a
/// stored copy is scored and offered.
pub(super) fn score_onto<'c>(
    kind: ScoreKind,
    qprep: &PreparedShape,
    raster: Option<&QuantRaster>,
    board: &mut Board<'_>,
    offers: impl Iterator<Item = Offer<'c>>,
) -> Scored {
    let mut done = Scored { scored: 0, abandoned: 0, rejected: 0 };
    for Offer { store, copy, verdict } in offers {
        let quantized = store.arena().quantized(copy);
        let stored = || store.stored(copy);
        let (score, rejected) =
            score_copy_bounded(kind, quantized, stored, qprep, raster, board.back, board.cutoff);
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

/// The raster test's limit ([`QuantRaster::limit`]) per quantized vertex
/// count under the cutoff it was last asked for: a scan computes each
/// once per (cutoff, count), and again only after the board's cutoff
/// moves. Counts past the table compute theirs every time.
pub(super) struct Limits {
    cutoff: f64,
    by_len: [Option<u64>; 64],
}

impl Default for Limits {
    fn default() -> Limits {
        Limits { cutoff: f64::NAN, by_len: [None; 64] }
    }
}

impl Limits {
    fn get(&mut self, n: usize, cutoff: f64) -> u64 {
        if cutoff.to_bits() != self.cutoff.to_bits() {
            *self = Limits { cutoff, ..Limits::default() };
        }
        match self.by_len.get_mut(n) {
            Some(limit) => *limit.get_or_insert_with(|| QuantRaster::limit(n, cutoff)),
            None => QuantRaster::limit(n, cutoff),
        }
    }
}

/// The exact tier's scan of one chunk of a level: its copies in storage
/// order, read as columns — each copy's quantized run ends where the
/// arena's `ends` says and the next starts there, its shape is its
/// `owner` — with no per-copy lookup of where it lies. `skip(copy,
/// owner)` leaves out what the seed settled and what is tombstoned,
/// unscored. With `raster` and a discrete kind, each other copy's
/// quantized vertices are tested against the limit for the board's
/// cutoff first ([`QuantRaster::rejects_under`], the test
/// `similarity::score_copy_bounded` runs); a copy the test rejects counts
/// as scored, abandoned and rejected, and one it lets through — or every
/// copy, without a raster — goes to [`score_onto`] as it is. The counts
/// and the board are [`score_onto`]'s over the same copies.
#[allow(clippy::too_many_arguments)]
pub(super) fn scan_chunk(
    kind: ScoreKind,
    qprep: &PreparedShape,
    raster: Option<&QuantRaster>,
    board: &mut Board<'_>,
    limits: &mut Limits,
    chunk: &Chunk,
    ids: &[GlobalShapeId],
    skip: impl Fn(usize, ShapeId) -> bool,
) -> Scored {
    let discrete = matches!(kind, ScoreKind::DiscreteDirected | ScoreKind::DiscreteSymmetric);
    let raster = raster.filter(|_| discrete);
    let arena = &chunk.copies;
    let mut done = Scored::default();
    let mut start = 0;
    for (copy, (&end, &owner)) in arena.ends.iter().zip(&arena.owner).enumerate() {
        let quantized = &arena.quantized[start..end as usize];
        start = end as usize;
        if skip(copy, owner) {
            continue;
        }
        if let Some(raster) = raster {
            // (against ∞ — the limit `u64::MAX` — nothing is rejected)
            let limit = limits.get(quantized.len(), board.cutoff);
            if limit < u64::MAX && raster.rejects_under(qprep.index(), quantized, limit).is_some() {
                done.add(Scored { scored: 1, abandoned: 1, rejected: 1 });
                continue;
            }
        }
        let offer = Offer { store: Store::Chunk(chunk, ids), copy, verdict: None };
        done.add(score_onto(kind, qprep, None, board, std::iter::once(offer)));
    }
    done
}
