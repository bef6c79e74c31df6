//! The served approximate tier (§3, DESIGN §11): probe and rerank
//! ([`Snapshot::probe_rerank`], also the exact tier's seed), with the
//! exact tier as its fallback.

use geosir_geom::Polyline;
use geosir_obs as obs;

use super::exact::{score_onto, Board, Offer, RetrieveStats, Store};
use super::snapshot::{Prepared, Snapshot};
use super::DynMatch;
use crate::approx::{AnswerTier, ApproxOptions, ApproxScratch, ApproxStats};
use crate::hashing::signature_of_with;
use crate::scratch::MatcherScratch;
use crate::similarity::PreparedShape;

/// One candidate copy reference collected by the cascade. `level ==
/// u32::MAX` marks a buffer entry (`a` = buffer slot, `b` = copy index);
/// otherwise `a` is the raw [`crate::ids::CopyId`] within level `level`.
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
        let prepared = self.prepare(scratch, query, false);
        let mut rejected = 0;
        if prepared != Prepared::Nothing {
            let (board, _, r) = self.probe_rerank(ax, scratch, prepared, raster, opts, f64::INFINITY, stats);
            board.finish(out);
            rejected = r;
        }
        if stats.candidates == 0 {
            stats.tier = AnswerTier::Exact;
            let scan = &mut RetrieveStats::default();
            self.seed_and_scan(opts.k, f64::INFINITY, scratch, query, raster, out, scan, None, true);
        }
        // The rerank's raster rejects; an exact fallback's are the exact
        // tier's to count.
        obs::with_metrics(ApproxMetrics::build, |m| {
            m.queries.inc();
            if stats.tier == AnswerTier::Exact {
                m.fallbacks.inc();
            }
            m.bound_rejects.add(rejected);
            m.probe_radius.record(stats.radius as u64);
            m.candidates.record(stats.candidates);
            m.buckets_probed.record(stats.buckets_probed);
            if stats.candidates > 0 {
                m.reduction.record(stats.reduction() as u64);
            }
        });
    }

    /// The hash tier's probe + bounded rerank, the seed of both tiers:
    /// collect candidate copies in rings of increasing curve distance
    /// around the query's signature ([`Self::probe`]), then score them in
    /// ring order with the early-abandoning `h_avg` against a board
    /// started at `within` ([`score_onto`]), each one's verdict kept
    /// beside it for the exact tier's hand-off. Returns the board (its
    /// k = `opts.k`, resolved), the candidates, and how many of them the
    /// query's raster rejected; fills the funnel fields of `stats`
    /// (`stats.candidates == 0`: the cascade found nothing). The raster
    /// is `scratch.raster` when `prepared` is [`Prepared::Rastered`];
    /// with `lay`, a query prepared without one gets it here when the
    /// probe collected more than k candidates — with k or fewer the
    /// cutoff is ∞ until the last of them, and a raster rejects nothing
    /// against ∞. Calls no other tier: [`Self::approximate`] wraps it
    /// with the exact fallback, [`Self::seed_and_scan`] keeps the board.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn probe_rerank<'s>(
        &self,
        ax: &'s mut ApproxScratch,
        scratch: &mut MatcherScratch,
        prepared: Prepared,
        lay: bool,
        opts: &ApproxOptions,
        within: f64,
        stats: &mut ApproxStats,
    ) -> (Board<'s>, &'s [CandRef], u64) {
        self.probe(ax, scratch.query.as_ref().expect("prepared"), opts, stats);
        let laid = lay && ax.cands.len() > opts.k && self.lay_raster(scratch) == Prepared::Rastered;
        let raster = (laid || prepared == Prepared::Rastered).then_some(&scratch.raster);
        let ApproxScratch { cands, back, rows, best, ktmp, .. } = ax;
        let mut board = Board { k: opts.k, cutoff: within, rows, slot: best, ktmp, back };
        let offers = cands.iter_mut().map(|c| {
            let verdict = Some(&mut c.verdict);
            if c.level == BUFFER_LEVEL {
                let store = Store::Buffered(&self.buffer[c.a as usize]);
                return Offer { store, copy: c.b as usize, verdict };
            }
            let level = &self.levels[c.level as usize].as_ref().expect("probed slot").level;
            Offer { store: Store::Level(level), copy: c.a as usize, verdict }
        });
        let qprep = scratch.query.as_ref().expect("prepared");
        let done = score_onto(self.config.score, qprep, raster, &mut board, offers);
        stats.reranked += done.scored;
        stats.abandoned += done.abandoned;
        (board, cands, done.rejected)
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
            for (li, slot) in self.slots() {
                ring.clear();
                slot.level.buckets.collect_ring(kf, &qsig, r, &mut probes[li], vals, ring, &mut probed);
                let live = ring.iter().filter(|c| slot.live_copy(c.index()));
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
}

/// The approximate tier's per-query series, cached per thread as the
/// exact tier's are.
#[derive(Clone)]
struct ApproxMetrics {
    queries: std::sync::Arc<obs::Counter>,
    fallbacks: std::sync::Arc<obs::Counter>,
    /// Rerank candidates the query's lower-bound raster rejected before
    /// any distance was computed.
    bound_rejects: std::sync::Arc<obs::Counter>,
    probe_radius: std::sync::Arc<obs::Histogram>,
    candidates: std::sync::Arc<obs::Histogram>,
    buckets_probed: std::sync::Arc<obs::Histogram>,
    reduction: std::sync::Arc<obs::Histogram>,
}

impl ApproxMetrics {
    fn build(reg: &obs::Registry) -> ApproxMetrics {
        ApproxMetrics {
            queries: reg.counter("geosir_approx_queries_total", &[]),
            fallbacks: reg.counter("geosir_approx_exact_fallbacks_total", &[]),
            bound_rejects: reg.counter("geosir_approx_bound_rejects_total", &[]),
            probe_radius: reg.histogram("geosir_approx_probe_radius", &[]),
            candidates: reg.histogram("geosir_approx_candidates_per_query", &[]),
            buckets_probed: reg.histogram("geosir_approx_buckets_probed", &[]),
            reduction: reg.histogram("geosir_approx_reduction_ratio", &[]),
        }
    }
}
