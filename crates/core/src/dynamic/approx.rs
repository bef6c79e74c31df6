//! The served approximate tier (§3, DESIGN §11): one cascade that reads
//! the signature rings around the query one at a time, reranks each ring
//! onto the board, and only then decides whether to read the next
//! ([`Snapshot::probe_rerank`]). It is the approximate tier's answer and
//! the exact tier's seed, which stop by different rules ([`Until`]); the
//! exact tier is the approximate one's fallback.

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

/// Which rule ends the cascade, checked after each ring is reranked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Until {
    /// The approximate tier's: the first ring that fills the candidate
    /// budget, or `max_radius` once any candidate is collected —
    /// `max_radius` is a soft preference: the cascade reads on past it
    /// while it has no candidate, so the tier returns *something*
    /// whenever live shapes exist.
    Budget,
    /// The exact seed's: that rule, or ring [`SEED_RADIUS`] or later once
    /// the board's cutoff is finite — k live shapes on it, or a threshold
    /// query's τ from the start — whichever comes first. So the seed reads
    /// past ring 1 only while its cutoff is ∞, and never a ring the
    /// approximate tier would not.
    Cutoff,
}

/// The last ring the exact seed reads once its cutoff is finite. Past
/// ring 1 a ring hardly tightens τ, and each of its candidates costs the
/// rerank more than the scan pays for the same copy (DESIGN §11.6).
pub(super) const SEED_RADIUS: u16 = 1;

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
            let (board, _) = self.probe_rerank(ax, scratch, prepared, opts, Until::Budget, f64::INFINITY, stats);
            board.finish(out);
        }
        if stats.candidates == 0 {
            stats.tier = AnswerTier::Exact;
            let scan = stats.fallback.insert(RetrieveStats::default());
            self.seed_and_scan(opts.k, f64::INFINITY, scratch, query, raster, out, scan, None, true);
        }
    }

    /// The hash tier's probe + bounded rerank, the seed of both tiers:
    /// ring by ring of increasing curve distance around the query's
    /// signature, collect the ring's candidate copies over every level and
    /// the buffer ([`Self::probe_ring`]), score them in that order with
    /// the early-abandoning `h_avg` against a board started at `within`
    /// ([`score_onto`]), each one's verdict kept beside it for the exact
    /// tier's hand-off, then stop if `until` says so. Returns the board
    /// (its k = `opts.k`, resolved) and the candidates; fills the funnel
    /// fields of `stats` and how many candidates the query's raster
    /// rejected (`stats.candidates == 0`: the cascade found nothing). Each
    /// level's probe plan is made at ring 0 from `opts.max_radius`,
    /// whichever rule stops the cascade. Reranking a ring before the next
    /// is collected changes no order: the candidates are scored in the
    /// order a probe of all the rings first would list them. The raster
    /// is `scratch.raster` when `prepared` is [`Prepared::Rastered`]; the
    /// rerank fills the cells it reads (with k or fewer candidates the
    /// cutoff is ∞ until the last of them, and a raster reads nothing
    /// against ∞). Calls no other tier: [`Self::approximate`] wraps it
    /// with the exact fallback, [`Self::seed_and_scan`] keeps the board.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn probe_rerank<'s>(
        &self,
        ax: &'s mut ApproxScratch,
        scratch: &mut MatcherScratch,
        prepared: Prepared,
        opts: &ApproxOptions,
        until: Until,
        within: f64,
        stats: &mut ApproxStats,
    ) -> (Board<'s>, &'s [CandRef]) {
        let qprep = scratch.query.as_ref().expect("prepared");
        let raster = (prepared == Prepared::Rastered).then_some(&scratch.raster);
        let query = self.probe_begin(ax, qprep);
        let kf = self.family.k() as u16;
        let max_radius = opts.max_radius.min(kf);
        let (mut cutoff, mut probed) = (within, 0);
        for r in 0..=kf {
            stats.radius = r;
            let from = ax.cands.len();
            self.probe_ring(ax, &query, r, max_radius, &mut probed);
            let (mut board, cands) = board(ax, opts.k, cutoff);
            let done = score_onto(self.config.score, qprep, raster, &mut board, self.offers(&mut cands[from..]));
            stats.reranked += done.scored;
            stats.abandoned += done.abandoned;
            stats.bound_rejects += done.rejected;
            cutoff = board.cutoff;
            let budget = cands.len() >= opts.max_candidates.max(1) || (r >= max_radius && !cands.is_empty());
            if budget || until == Until::Cutoff && r >= SEED_RADIUS && cutoff < f64::INFINITY {
                break;
            }
        }
        stats.buckets_probed = probed;
        stats.candidates = ax.cands.len() as u64;
        let (board, cands) = board(ax, opts.k, cutoff);
        (board, cands)
    }

    /// Start a query's cascade: reset `ax` for this snapshot's levels,
    /// and count every buffered copy into ring order by its curve
    /// distance from the query's signature, measured once — a stable
    /// counting sort, so a ring is one run of `ax.ringed` in (shape,
    /// copy) order, ring r ending at `ax.ring_at[r]`. Returns the
    /// signature of the query's primary normalized copy: the base stores
    /// *both* orientations of every shape per α-diameter, so a stored
    /// copy in the query's orientation exists whenever the shape is
    /// similar at all.
    pub(super) fn probe_begin(&self, ax: &mut ApproxScratch, qprep: &PreparedShape) -> QuerySig {
        ax.begin(self.levels.len());
        let ApproxScratch { quarters, dists, buffered, ring_at, ringed, .. } = ax;
        let query = QuerySig::new(signature_of_with(&self.family, qprep.shape().points(), quarters));
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
        query
    }

    /// One ring of the cascade: every live copy at curve distance exactly
    /// `r` from `query`, over every level index and then the buffer,
    /// appended to `ax.cands` — a tombstoned shape's copy is dropped as
    /// its bucket is read (through the level's owner table, not its
    /// chunks), before it counts. Rings are asked for in increasing order
    /// from [`Self::probe_begin`]; each level makes its own probe plan at
    /// ring 0 from `max_radius` ([`SigBuckets::collect_ring`]), and
    /// `probed` adds the buckets it examined.
    ///
    /// [`SigBuckets::collect_ring`]: crate::approx::SigBuckets::collect_ring
    pub(super) fn probe_ring(
        &self,
        ax: &mut ApproxScratch,
        query: &QuerySig,
        r: u16,
        max_radius: u16,
        probed: &mut u64,
    ) {
        let kf = self.family.k() as u16;
        let ApproxScratch { vals, probes, ring, ring_at, ringed, cands, .. } = ax;
        for (li, slot) in self.slots() {
            let (level, dead) = (&*slot.level, &*slot.dead);
            ring.clear();
            level.buckets.collect_ring(kf, query, r, max_radius, &mut probes[li], vals, ring, probed);
            for &b in ring.iter() {
                let span = level.buckets.span(b);
                let members = level.buckets.members()[span.clone()].iter().zip(&level.owners[span]);
                for (&member, _) in members.filter(|&(_, &owner)| !dead.get(owner)) {
                    let (c, i) = level.unpack(member);
                    cands.push(CandRef { level: li as u32, a: c as u32, b: i as u32, verdict: f64::NAN });
                }
            }
        }
        let end = |r: usize| ring_at.get(r).map_or(ringed.len(), |&end| end as usize);
        let from = if r == 0 { 0 } else { end(r as usize - 1) };
        for &(a, b) in &ringed[from..end(r as usize)] {
            cands.push(CandRef { level: BUFFER_LEVEL, a, b, verdict: f64::NAN });
        }
    }

    /// The candidates as the scorer takes them, each with the place its
    /// verdict is kept.
    pub(super) fn offers<'c>(&'c self, cands: &'c mut [CandRef]) -> impl Iterator<Item = Offer<'c>> {
        cands.iter_mut().map(|c| {
            let verdict = Some(&mut c.verdict);
            if c.level == BUFFER_LEVEL {
                let store = Store::Buffered(&self.buffer[c.a as usize]);
                return Offer { store, copy: c.b as usize, verdict };
            }
            let level = &self.levels[c.level as usize].as_ref().expect("probed slot").level;
            Offer { store: level.store(c.a as usize), copy: c.b as usize, verdict }
        })
    }
}

/// `ax`'s board, at k = `k` and the cutoff it had, beside its candidates.
pub(super) fn board(ax: &mut ApproxScratch, k: usize, cutoff: f64) -> (Board<'_>, &mut Vec<CandRef>) {
    let ApproxScratch { cands, back, rows, best, ktmp, .. } = ax;
    (Board { k, cutoff, rows, slot: best, ktmp, back }, cands)
}
