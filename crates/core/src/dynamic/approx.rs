//! The served approximate tier (§3, DESIGN §11): probe and rerank
//! ([`Snapshot::probe_rerank`], also the exact tier's seed), with the
//! exact tier as its fallback.

use geosir_geom::Polyline;

use super::exact::{score_onto, Board, Offer, RetrieveStats, Store};
use super::snapshot::{Prepared, Snapshot};
use super::DynMatch;
use crate::approx::{AnswerTier, ApproxOptions, ApproxScratch, ApproxStats};
use crate::hashing::{signature_of_with, QuerySig, Signature};
use crate::scratch::MatcherScratch;
use crate::similarity::PreparedShape;

/// One candidate copy reference collected by the cascade. `level ==
/// u32::MAX` marks a buffer entry (`a` = buffer slot, `b` = copy index);
/// otherwise `a` is a chunk of level `level` and `b` a copy of it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CandRef {
    pub level: u32,
    pub a: u32,
    pub b: u32,
    /// What the rerank found: the copy's exact score, `INFINITY` when the
    /// bounded scorer abandoned it (it scores above the rerank's cutoff
    /// at that point, hence above the final k-th best), NaN until then.
    pub verdict: f64,
}

pub(crate) const BUFFER_LEVEL: u32 = u32::MAX;

impl Snapshot {
    /// [`Self::similar_approx_with`]; without `raster` every scoring
    /// computes distances — the differential test's other leg.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn approximate(
        &self,
        scratch: &mut MatcherScratch,
        ax: &mut ApproxScratch,
        query: &Polyline,
        opts: &ApproxOptions,
        out: &mut Vec<DynMatch>,
        stats: &mut ApproxStats,
        raster: bool,
    ) {
        *stats = ApproxStats { corpus_copies: self.total_copies() as u64, ..ApproxStats::default() };
        let opts = &ApproxOptions { k: self.k(opts.k), ..*opts };
        if opts.k == 0 {
            out.clear();
            return;
        }
        let prepared = self.prepare(scratch, query, raster);
        if prepared != Prepared::Nothing {
            let (board, _) = self.probe_rerank(ax, scratch, prepared, opts, f64::INFINITY, stats);
            board.finish(out);
        }
        if stats.candidates == 0 {
            stats.tier = AnswerTier::Exact;
            let scan = stats.fallback.insert(RetrieveStats::default());
            self.seed_and_scan(opts.k, f64::INFINITY, scratch, query, raster, out, scan, None, true);
        }
    }

    /// The hash tier's probe + bounded rerank, the seed of both tiers:
    /// collect candidate copies in rings of increasing curve distance
    /// around the query's signature ([`Self::probe`]), then score them in
    /// ring order with the early-abandoning `h_avg` against a board
    /// started at `within` ([`score_onto`]), each one's verdict kept
    /// beside it for the exact tier's hand-off. Returns the board (its
    /// k = `opts.k`, resolved) and the candidates; fills the funnel fields
    /// of `stats` and how many candidates the query's raster rejected
    /// (`stats.candidates == 0`: the cascade found nothing). The raster
    /// is `scratch.raster` when `prepared` is [`Prepared::Rastered`]; the
    /// rerank fills the cells it reads (with k or fewer candidates the
    /// cutoff is ∞ until the last of them, and a raster reads nothing
    /// against ∞). Calls no other tier: [`Self::approximate`] wraps it
    /// with the exact fallback, [`Self::seed_and_scan`] keeps the board.
    pub(super) fn probe_rerank<'s>(
        &self,
        ax: &'s mut ApproxScratch,
        scratch: &mut MatcherScratch,
        prepared: Prepared,
        opts: &ApproxOptions,
        within: f64,
        stats: &mut ApproxStats,
    ) -> (Board<'s>, &'s [CandRef]) {
        self.probe(ax, scratch.query.as_ref().expect("prepared"), opts, stats);
        let raster = (prepared == Prepared::Rastered).then_some(&scratch.raster);
        let ApproxScratch { cands, back, rows, best, ktmp, .. } = ax;
        let mut board = Board { k: opts.k, cutoff: within, rows, slot: best, ktmp, back };
        let offers = cands.iter_mut().map(|c| {
            let verdict = Some(&mut c.verdict);
            if c.level == BUFFER_LEVEL {
                let store = Store::Buffered(&self.buffer[c.a as usize]);
                return Offer { store, copy: c.b as usize, verdict };
            }
            let level = &self.levels[c.level as usize].as_ref().expect("probed slot").level;
            Offer { store: level.store(c.a as usize), copy: c.b as usize, verdict }
        });
        let qprep = scratch.query.as_ref().expect("prepared");
        let done = score_onto(self.config.score, qprep, raster, &mut board, offers);
        stats.reranked += done.scored;
        stats.abandoned += done.abandoned;
        stats.bound_rejects += done.rejected;
        (board, cands)
    }

    /// The cascade: rings of increasing curve distance over every level
    /// index plus the buffer signatures, into `ax.cands` — live copies
    /// only: a tombstoned shape's copy is dropped as its bucket is read
    /// (through the level's owner table, not its chunks), before it counts
    /// against the budget. Stops at the end of the first ring that fills
    /// the candidate budget; `max_radius` is a soft preference — expansion
    /// continues past it while the candidate set is still empty, so the
    /// tier returns *something* whenever live shapes exist. Each level
    /// makes its own probe plan at ring 0 ([`SigBuckets::collect_ring`]).
    ///
    /// Probing uses only the primary normalized copy: the base stores
    /// *both* orientations of every shape per α-diameter, so a stored
    /// copy in the query's orientation exists whenever the shape is
    /// similar at all.
    ///
    /// [`SigBuckets::collect_ring`]: crate::approx::SigBuckets::collect_ring
    pub(super) fn probe(
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
        let ApproxScratch { quarters, vals, probes, ring, dists, buffered, ring_at, ringed, cands, .. } = ax;
        let query = QuerySig::new(signature_of_with(family, qprep.shape().points(), quarters));
        // every buffered copy's ring, measured once, then counted into
        // ring order — a stable counting sort, so a ring is one run of
        // `ringed` in (shape, copy) order
        for (bi, b) in self.buffer.iter().enumerate() {
            query.distances(b.copies.sigs.iter().map(Signature::packed), dists);
            buffered.extend((0..b.copies.len() as u32).map(|ci| (bi as u32, ci)));
        }
        let rings = dists.iter().map(|&d| d as usize + 1).max().unwrap_or(0);
        ring_at.clear();
        ring_at.resize(rings + 1, 0);
        for &d in dists.iter() {
            ring_at[d as usize + 1] += 1;
        }
        for r in 1..ring_at.len() {
            ring_at[r] += ring_at[r - 1];
        }
        // (ring_at[r]: where ring r's next entry goes, and then its end)
        ringed.clear();
        ringed.resize(dists.len(), (0, 0));
        for (&d, &copy) in dists.iter().zip(buffered.iter()) {
            let at = &mut ring_at[d as usize];
            ringed[*at as usize] = copy;
            *at += 1;
        }
        let mut emitted = 0;
        let mut probed = 0u64;
        for r in 0..=kf {
            stats.radius = r;
            for (li, slot) in self.slots() {
                let (level, dead) = (&*slot.level, &*slot.dead);
                ring.clear();
                level.buckets.collect_ring(kf, &query, r, max_radius, &mut probes[li], vals, ring, &mut probed);
                for &b in ring.iter() {
                    let span = level.buckets.span(b);
                    let members = level.buckets.members()[span.clone()].iter().zip(&level.owners[span]);
                    for (&member, _) in members.filter(|&(_, &owner)| !dead.get(owner)) {
                        let (c, i) = level.unpack(member);
                        cands.push(CandRef { level: li as u32, a: c as u32, b: i as u32, verdict: f64::NAN });
                    }
                }
            }
            let end = ring_at.get(r as usize).map_or(ringed.len(), |&end| end as usize);
            for &(a, b) in &ringed[emitted..end] {
                cands.push(CandRef { level: BUFFER_LEVEL, a, b, verdict: f64::NAN });
            }
            emitted = end;
            if cands.len() >= max_cand || (r >= max_radius && !cands.is_empty()) {
                break;
            }
        }
        stats.buckets_probed = probed;
        stats.candidates = cands.len() as u64;
    }
}
