//! The exact tier, seed-and-verify ([`Snapshot::seed_and_scan`], DESIGN
//! §11.6), and the board and bounded-scoring loop both tiers fill.

use std::collections::hash_map::Entry;

use geosir_geom::Polyline;
use geosir_obs as obs;

use super::arena::{BufferedShape, CopyArena, Row};
use super::level::{Level, Slot};
use super::snapshot::{DynMetrics, Prepared, Snapshot};
use super::{DynMatch, GlobalShapeId};
use crate::approx::{ApproxOptions, ApproxStats, IdMap};
use crate::ids::ImageId;
use crate::scratch::MatcherScratch;
use crate::similarity::{score_copy_bounded, PreparedShape, QuantRaster, ScoreKind, StoredCopy};

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

impl Snapshot {
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
    /// The seed is [`Self::probe_rerank`], as the approximate tier's
    /// answer is. The query is prepared ([`Self::prepare`]) with
    /// `raster`, its lower-bound raster mapped onto the base's quantized
    /// frame ([`QuantRaster`]): every bounded scoring of the three steps
    /// tests a copy's quantized vertices against it first and rejects
    /// most copies from the table alone, with the verdicts, scores and
    /// counts it would have had without (`similarity::score_copy_bounded`);
    /// only a copy the test passes has its vertices recomputed.
    /// Allocation-free in steady state. Every caller passes `raster` (the
    /// approximate tier's fallback, what its own leg asked for) and
    /// `handoff`; without the first every scoring computes distances
    /// (same answer, same counts), without the second the levels score
    /// the seed's copies over again (same answer, more scorings) — the
    /// differential tests' other legs.
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
        let prepared = self.prepare(scratch, query, raster);
        out.clear();
        *stats = RetrieveStats::default();
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
            let opts = ApproxOptions { k, ..ApproxOptions::default() };
            let (mut board, cands, seed_rejects) =
                self.probe_rerank(&mut seed, scratch, prepared, false, &opts, within, &mut seed_stats);
            (rejected, tau) = (seed_rejects, board.cutoff);
            let quant = std::mem::take(&mut scratch.raster);
            let raster = (prepared == Prepared::Rastered).then_some(&quant);

            // largest level first
            for (li, slot @ Slot { level, .. }) in self.slots().rev() {
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
                let live = unsettled.filter(|&i| slot.live_copy(i));
                let store = Store::Level(level);
                let offers = live.map(|copy| Offer { store, copy, verdict: None });
                let qprep = scratch.query.as_ref().expect("prepared above");
                let done = score_onto(self.config.score, qprep, raster, &mut board, offers);
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
            let done = score_onto(self.config.score, qprep, raster, &mut board, offers);
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
            if scratch.grow_events == grows_before {
                m.pool_hits.inc();
            } else {
                m.pool_misses.inc();
            }
        });
    }
}

/// Where a stored copy lies: in a level's arena, or a buffered shape's.
#[derive(Clone, Copy)]
pub(super) enum Store<'c> {
    Level(&'c Level),
    Buffered(&'c BufferedShape),
}

impl<'c> Store<'c> {
    pub(super) fn arena(self) -> &'c CopyArena {
        match self {
            Store::Level(level) => &level.copies,
            Store::Buffered(b) => &b.copies,
        }
    }

    /// Copy i's shape's row.
    pub(super) fn shape(self, i: usize) -> Row<'c> {
        match self {
            Store::Level(level) => level.row(level.copies.owner[i]),
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

/// What one [`score_onto`] pass did.
pub(super) struct Scored {
    pub(super) scored: u64,
    /// Scorings the cutoff cut short, and of those the ones the query's
    /// lower-bound raster cut short before any distance was computed.
    pub(super) abandoned: u64,
    pub(super) rejected: u64,
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

/// The one bounded-scoring loop — the hash tier's rerank, the exact
/// tier's level scans and its buffer scan are this, over three sources
/// of live copies (each source leaves a tombstoned shape's out), all
/// stored alike: score each copy against the board's cutoff — its
/// quantized vertices against `raster` first, when the query has one,
/// then its recomputed vertices, the reverse index rebuilt into the
/// board's `back` only for a forward survivor — drop what the scorer abandons or what
/// lands past the cutoff anyway (the continuous kinds never abandon),
/// and offer the survivor to the board.
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
