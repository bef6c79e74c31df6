//! The incremental envelope-fattening retrieval algorithm (§2.5).
//!
//! The query shape is normalized about its diameter and its ε-envelope is
//! grown iteratively. Each iteration queries the simplex range-search index
//! with a triangle cover of the ring between consecutive envelopes, updates
//! per-copy counters of vertices seen, scores copies that became
//! *candidates* (≥ 1−β of their vertices inside the current envelope), and
//! stops as soon as the certified score provably beats every copy not yet
//! scored or ε reaches the paper's cap `(A / (2 p l_Q)) · log³ n`.
//!
//! Termination certificate: after the ring at ε, a copy C with `n_C`
//! vertices, `credit_C` of them anchors, and `in(C)` pooled vertices
//! processed so far with exact distances summing to `S_in(C)` satisfies
//!
//! ```text
//! h_avg(C → Q) ≥ (S_in(C) + (n_C − credit_C − in(C)) · ε) / n_C
//! ```
//!
//! because (1) a processed vertex contributes its exact `dist(v, Q)`,
//! (2) an unprocessed pooled vertex lies outside the envelope — the cover
//! is a superset of it and ring membership is checked exactly — so it
//! contributes more than ε, and (3) an anchor contributes at least 0. A
//! copy no ring has touched therefore scores above `f_u · ε` with
//! `f_u = min_C (n_C − credit_C) / n_C` (computed exactly per base, over
//! the copies not scored up front), and a touched one is either excluded
//! by its own bound or *resolved* — scored with the early-abandoning
//! scorer against the cutoff. One run is done once `f_u · ε ≥ cutoff`
//! (τ in threshold mode, the certify rank's score in top-k mode) and the
//! touched copies are resolved. β only decides which copies the
//! incremental top-k loop scores *early*; it is not part of the bound.
//! A threshold run knows its cutoff up front, so it takes a single
//! envelope at `ε = τ / f_u`.
//!
//! The guarantee holds for [`ScoreKind::DiscreteDirected`] and
//! [`ScoreKind::DiscreteSymmetric`] (whose max dominates the forward
//! discrete term); the continuous kinds reuse the same stopping rule as a
//! well-behaved heuristic (DESIGN.md).

use geosir_geom::envelope::{envelope_cover_into, ring_cover_into};
use geosir_geom::Polyline;
use geosir_obs as obs;

use crate::ids::{CopyId, ImageId, ShapeId};
use crate::normalize::LUNE_AREA;
use crate::scratch::MatcherScratch;
use crate::shapebase::ShapeBase;
use crate::similarity::{score_bounded_with, PreparedShape, ScoreKind};

/// How ε grows between iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EpsSchedule {
    /// `ε_{i+1} = g · ε_i` (default g = 2).
    Geometric(f64),
    /// `ε_{i+1} = ε_i + ε₁` — the denser schedule, more iterations but
    /// smaller rings.
    Linear,
}

impl Default for EpsSchedule {
    fn default() -> Self {
        EpsSchedule::Geometric(2.0)
    }
}

/// Retrieval parameters (the paper's β, plus engineering knobs).
#[derive(Debug, Clone)]
pub struct MatchConfig {
    /// Candidate threshold: a copy is scored once ≥ `1 − β` of its vertices
    /// are inside the envelope. `0 ≤ β < 1`.
    pub beta: f64,
    /// Number of best *shapes* to return.
    pub k: usize,
    /// Scoring measure for candidates.
    pub score: ScoreKind,
    pub schedule: EpsSchedule,
    /// Power ρ of the `log^ρ n` ε-cap; the paper uses 3.
    pub log_power: i32,
    /// Hard iteration cap (safety valve; never reached in practice).
    pub max_iterations: usize,
    /// Top-k stopping rule. `false` (default, the paper's §2.5 rule: "the
    /// algorithm stops whenever the best match has been found"): stop once
    /// at least k shapes are scored and the **best** is certified against
    /// every untouched copy; ranks 2..k are exact among the copies the
    /// envelope touched. `true`: keep growing ε until the k-th best is
    /// certified too — exact top-k, at a steep cost when the k-th
    /// neighbor is distant.
    pub certify_all: bool,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            beta: 0.1,
            k: 1,
            score: ScoreKind::default(),
            schedule: EpsSchedule::default(),
            log_power: 3,
            max_iterations: 10_000,
            certify_all: false,
        }
    }
}

/// Registry handles for the matcher's per-run recording, resolved
/// through [`obs::with_metrics`]' thread-local cache: steady state is a
/// map hit plus a handful of relaxed atomic adds per retrieval, so the
/// instrumentation stays invisible next to the retrieval itself.
#[derive(Clone)]
pub(crate) struct MatcherMetrics {
    runs: std::sync::Arc<obs::Counter>,
    rings: std::sync::Arc<obs::Counter>,
    triangles: std::sync::Arc<obs::Counter>,
    reported: std::sync::Arc<obs::Counter>,
    processed: std::sync::Arc<obs::Counter>,
    scores: std::sync::Arc<obs::Counter>,
    promotions: std::sync::Arc<obs::Counter>,
    resolves: std::sync::Arc<obs::Counter>,
    exhausted: std::sync::Arc<obs::Counter>,
    final_eps_permille: std::sync::Arc<obs::Histogram>,
    pool_hits: std::sync::Arc<obs::Counter>,
    pool_misses: std::sync::Arc<obs::Counter>,
}

impl MatcherMetrics {
    pub(crate) fn build(reg: &obs::Registry) -> MatcherMetrics {
        MatcherMetrics {
            runs: reg.counter("geosir_matcher_runs_total", &[]),
            rings: reg.counter("geosir_matcher_rings_total", &[]),
            triangles: reg.counter("geosir_matcher_triangles_total", &[]),
            reported: reg.counter("geosir_matcher_candidates_reported_total", &[]),
            processed: reg.counter("geosir_matcher_vertices_processed_total", &[]),
            scores: reg.counter("geosir_matcher_havg_evals_total", &[]),
            promotions: reg.counter("geosir_matcher_counter_promotions_total", &[]),
            resolves: reg.counter("geosir_matcher_resolves_total", &[]),
            exhausted: reg.counter("geosir_matcher_exhausted_total", &[]),
            final_eps_permille: reg.histogram("geosir_matcher_final_eps_permille", &[]),
            pool_hits: reg.counter("geosir_matcher_scratch_pool_hits_total", &[]),
            pool_misses: reg.counter("geosir_matcher_scratch_pool_misses_total", &[]),
        }
    }
}

/// One retrieved shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match {
    pub shape: ShapeId,
    pub image: ImageId,
    /// The best-scoring copy of the shape.
    pub copy: CopyId,
    pub score: f64,
}

/// Why the fattening loop stopped — the §2.5 exit conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Termination {
    /// Not run (outcome never produced by a retrieval).
    #[default]
    None,
    /// Bound-based: the certified rank's score provably beats every
    /// untouched copy (`kth ≤ f_u · ε`) and every touched one was
    /// excluded by its partial-sum bound or resolved.
    Certified,
    /// Threshold mode: `f_u · ε ≥ τ`, so every untouched copy scores
    /// worse than the threshold, and every touched one was resolved.
    Threshold,
    /// The ε-cap `(A / (2 p l_Q)) · log^ρ n` was reached without a
    /// certified answer; results are best-effort.
    EpsCap,
    /// The `max_iterations` safety valve fired.
    MaxIterations,
    /// The base had no copies; nothing to retrieve.
    EmptyBase,
}

/// One envelope iteration's work, as recorded by an EXPLAIN run: the
/// ring's ε plus the deltas of every per-run total attributable to it.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RingExplain {
    /// 1-based iteration number.
    pub ring: u32,
    /// Outer ε of this ring (the envelope grown to).
    pub eps: f64,
    /// Cover triangles submitted to the range-search index.
    pub triangles: u32,
    /// Vertices the index reported (pre-filter).
    pub vertices_reported: u32,
    /// Ring vertices processed after exact-distance filtering.
    pub vertices_processed: u32,
    /// Copies scored during this ring: counters crossing the candidacy
    /// threshold, plus — on the final ring — the certificate's resolve
    /// scorings.
    pub promotions: u32,
}

/// Per-run EXPLAIN capture, written into the caller-owned
/// [`MatchOutcome`]. Strictly zero-cost when `enabled` is false: the
/// hot loop checks one bool and never touches the vectors, so the
/// counting-allocator tests hold with explain off. With it on, ring
/// records reuse the vector's capacity across queries.
#[derive(Debug, Clone, Default)]
pub struct MatchExplain {
    /// Set by the caller before a retrieval to request per-ring
    /// capture; survives [`MatchOutcome::clear`].
    pub enabled: bool,
    /// One record per envelope iteration, in order.
    pub rings: Vec<RingExplain>,
    /// Candidates scored on anchor credit alone, before ring 1.
    pub credit_scored: u32,
    /// The plan's termination bound factor `f_u = min_C (n_C −
    /// credit_C)/n_C`; `bound_factor · final_eps` is the score every
    /// untouched copy provably exceeds at exit.
    pub bound_factor: f64,
}

/// Instrumentation counters — the quantities the paper's complexity claims
/// are about (`r` iterations, `K` vertices processed) plus the record
/// access trace the storage experiments replay.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatchStats {
    /// `r`: envelope iterations executed.
    pub iterations: usize,
    /// `K`: ring vertices processed (after exact-distance filtering).
    pub vertices_processed: usize,
    /// Vertices reported by the index before filtering.
    pub vertices_reported: usize,
    /// Candidate copies scored with the similarity measure.
    pub candidates_scored: usize,
    /// Triangles submitted to the range-search index.
    pub triangles_queried: usize,
    /// ε at exit.
    pub final_eps: f64,
    /// The ε-cap that was in force.
    pub eps_cap: f64,
    /// True when the cap was hit without a provably-best answer — the
    /// caller should fall back to geometric hashing (§3).
    pub exhausted: bool,
    /// Why the loop stopped. Populated on every run, not just EXPLAIN
    /// ones.
    pub termination: Termination,
}

/// The result of a retrieval.
#[derive(Debug, Clone, Default)]
pub struct MatchOutcome {
    /// Up to k matches, best (smallest score) first, one per shape.
    pub matches: Vec<Match>,
    pub stats: MatchStats,
    /// Copy records fetched, in order — replayed by the external-storage
    /// experiments to count I/Os.
    pub access_trace: Vec<CopyId>,
    /// Every triangle submitted to the range-search index, in order —
    /// replayed against the external-memory vertex index to measure the
    /// *auxiliary structure's* I/Os (§4).
    pub triangle_trace: Vec<geosir_geom::Triangle>,
    /// Per-ring EXPLAIN capture; empty unless `explain.enabled` was set
    /// before the retrieval.
    pub explain: MatchExplain,
}

impl MatchOutcome {
    pub fn best(&self) -> Option<&Match> {
        self.matches.first()
    }

    /// Reset for reuse as a [`Matcher::retrieve_with`] out-parameter,
    /// keeping every buffer's capacity.
    pub fn clear(&mut self) {
        self.matches.clear();
        self.stats = MatchStats::default();
        self.access_trace.clear();
        self.triangle_trace.clear();
        // `explain.enabled` is the caller's request and survives the
        // clear; only the captured data resets.
        self.explain.rings.clear();
        self.explain.credit_scored = 0;
        self.explain.bound_factor = 0.0;
    }
}

/// Which stopping rule a run uses.
#[derive(Debug, Clone, Copy, PartialEq)]
enum RunMode {
    /// Stop once the k best shapes are certified.
    TopK,
    /// Report every shape scoring ≤ τ: one envelope at `τ / f_u`.
    Threshold(f64),
}

/// Query-independent precomputation over one base, O(total copies), done
/// once per [`Matcher`]: the termination bound factor and per-copy
/// candidacy thresholds the fattening loop consults. Depends on the base
/// and on `beta` only.
struct MatcherPlan {
    /// `f_u = min_C (n_C − credit_C)/n_C` — see module docs.
    bound_factor: f64,
    /// Per-copy candidacy thresholds `ceil((1−β)·n_C)` **net of anchor
    /// credit** (the copy's anchor vertices count as inside every envelope
    /// of a normalized query).
    net_thresholds: Vec<u32>,
    /// Copies whose anchor credit alone meets the threshold (degenerate
    /// two-vertex shapes): candidates of every query, scored up front.
    credit_candidates: Vec<CopyId>,
}

impl MatcherPlan {
    fn new(base: &ShapeBase, config: &MatchConfig) -> Self {
        let mut bound_factor: f64 = 1.0;
        let mut net_thresholds = Vec::with_capacity(base.num_copies());
        let mut credit_candidates = Vec::new();
        for (cid, copy) in base.copies() {
            let n_c = copy.normalized.num_vertices() as u32;
            let need = (((1.0 - config.beta) * n_c as f64).ceil() as u32).clamp(1, n_c);
            let net = need.saturating_sub(copy.anchor_credit);
            net_thresholds.push(net);
            if net == 0 {
                // scored up front by every run, so it needs no bound (and
                // an all-anchor copy would drag the factor to 0)
                credit_candidates.push(cid);
            } else {
                // an untouched copy has all its pooled vertices outside
                bound_factor = bound_factor.min((n_c - copy.anchor_credit) as f64 / n_c as f64);
            }
        }
        MatcherPlan { bound_factor, net_thresholds, credit_candidates }
    }
}

/// Bound on scratches kept warm in a matcher's internal pool. Scratches
/// returned to a full pool are dropped, so bursty scratchless callers
/// (e.g. a momentary spike of threads calling [`Matcher::retrieve`])
/// cannot grow the pool without bound.
const SCRATCH_POOL_CAP: usize = 4;

/// The retrieval engine over a built [`ShapeBase`].
///
/// ```
/// use geosir_core::ids::ImageId;
/// use geosir_core::matcher::{MatchConfig, Matcher};
/// use geosir_core::shapebase::ShapeBaseBuilder;
/// use geosir_geom::rangesearch::Backend;
/// use geosir_geom::{Point, Polyline};
///
/// let mut builder = ShapeBaseBuilder::new();
/// let triangle = Polyline::closed(vec![
///     Point::new(0.0, 0.0), Point::new(4.0, 0.0), Point::new(0.0, 3.0),
/// ]).unwrap();
/// builder.add_shape(ImageId(0), triangle.clone());
/// let base = builder.build(0.1, Backend::RangeTree);
///
/// let matcher = Matcher::new(&base, MatchConfig::default());
/// // any similarity-transformed version of the shape retrieves it
/// let rotated = triangle.map_points(|p| Point::new(10.0 - p.y, 2.0 + p.x));
/// let best = matcher.retrieve(&rotated).matches[0];
/// assert_eq!(best.image, ImageId(0));
/// assert!(best.score < 1e-7);
/// ```
pub struct Matcher<'a> {
    base: &'a ShapeBase,
    config: MatchConfig,
    plan: MatcherPlan,
    /// Warm scratches for the scratchless entry points, so `retrieve()` in
    /// a loop pays the dense-array setup once, not per query. Bounded at
    /// [`SCRATCH_POOL_CAP`].
    scratch_pool: std::sync::Mutex<Vec<MatcherScratch>>,
}

impl<'a> Matcher<'a> {
    pub fn new(base: &'a ShapeBase, config: MatchConfig) -> Self {
        assert!((0.0..1.0).contains(&config.beta), "beta must be in [0, 1)");
        assert!(config.k >= 1, "k must be at least 1");
        if let EpsSchedule::Geometric(g) = config.schedule {
            assert!(g > 1.0, "geometric growth must exceed 1");
        }
        let plan = MatcherPlan::new(base, &config);
        Matcher { base, config, plan, scratch_pool: std::sync::Mutex::new(Vec::new()) }
    }

    /// The base this matcher retrieves from.
    pub fn base(&self) -> &'a ShapeBase {
        self.base
    }

    fn pooled_scratch(&self) -> MatcherScratch {
        let pooled = self.scratch_pool.lock().unwrap().pop();
        obs::with_metrics(MatcherMetrics::build, |m| {
            if pooled.is_some() {
                m.pool_hits.inc();
            } else {
                m.pool_misses.inc();
            }
        });
        pooled.unwrap_or_default()
    }

    fn return_scratch(&self, scratch: MatcherScratch) {
        let mut pool = self.scratch_pool.lock().unwrap();
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(scratch);
        }
        // else: drop — the pool is bounded (see SCRATCH_POOL_CAP)
    }

    /// Normalize `query` about its diameter and retrieve the k best shapes.
    pub fn retrieve(&self, query: &Polyline) -> MatchOutcome {
        let mut scratch = self.pooled_scratch();
        let mut out = MatchOutcome::default();
        self.retrieve_with(&mut scratch, query, &mut out);
        self.return_scratch(scratch);
        out
    }

    /// All shapes whose score is at most `tau` — the `shape_similar(Q)`
    /// set of §5 (ties at `tau` included). One envelope at
    /// `ε = tau / f_u`: every copy it does not touch provably scores worse
    /// than `tau`, and every copy it touches is excluded by its
    /// partial-sum bound or scored against `tau` (module docs).
    ///
    /// The ε-cap still applies: when `tau / f_u` exceeds it the envelope
    /// stops at the cap and the result is best-effort (`stats.exhausted`
    /// is set) — complete among the copies reached, and every score it
    /// reports is the true score of a stored copy.
    pub fn retrieve_within(&self, query: &Polyline, tau: f64) -> MatchOutcome {
        let mut scratch = self.pooled_scratch();
        let mut out = MatchOutcome::default();
        self.retrieve_within_with(&mut scratch, query, tau, &mut out);
        self.return_scratch(scratch);
        out
    }

    /// [`Matcher::retrieve`] through caller-owned scratch and out-parameter:
    /// the zero-allocation hot path. After a warm-up query on comparable
    /// input sizes, a call touches the heap zero times.
    pub fn retrieve_with(
        &self,
        scratch: &mut MatcherScratch,
        query: &Polyline,
        out: &mut MatchOutcome,
    ) {
        out.clear();
        if scratch.prepare_query(query) {
            self.run(scratch, RunMode::TopK, out);
        }
    }

    /// [`Matcher::retrieve_within`] through caller-owned scratch.
    pub fn retrieve_within_with(
        &self,
        scratch: &mut MatcherScratch,
        query: &Polyline,
        tau: f64,
        out: &mut MatchOutcome,
    ) {
        out.clear();
        if scratch.prepare_query(query) {
            self.run(scratch, RunMode::Threshold(tau), out);
        }
    }

    /// The fattening loop over the query already normalized and indexed in
    /// `scratch` ([`MatcherScratch::prepare_query`]). `outcome` must be
    /// cleared by the caller.
    fn run(&self, scratch: &mut MatcherScratch, mode: RunMode, outcome: &mut MatchOutcome) {
        let base = self.base;
        if base.num_copies() == 0 {
            outcome.stats.termination = Termination::EmptyBase;
            return;
        }
        // Resolve the cached metric handles once per run: counters that
        // count *events* (rings, promotions) are bumped at their event
        // sites below, so a dashboard watching a long-running query sees
        // them move ring by ring instead of jumping at the end.
        let metrics = obs::with_metrics(MatcherMetrics::build, |m| m.clone());
        let f_u = self.plan.bound_factor;
        let explain_on = outcome.explain.enabled;
        scratch.ensure(base);
        let qstamp = scratch.begin_query();
        let MatcherScratch {
            iter_clock,
            counter_stamp,
            counters,
            dist_sums,
            scored_stamp,
            touched_copies,
            best_stamp,
            best_score,
            best_copy,
            touched_shapes,
            seen_stamp,
            cover,
            index,
            reported,
            ranked,
            score_buf,
            query: qslot,
            back,
            ..
        } = scratch;
        let prepared: &PreparedShape = qslot.as_ref().expect("query prepared by the entry point");
        let query = prepared.shape();
        let mut best =
            BestTable { qstamp, stamp: best_stamp, score: best_score, copy: best_copy, touched: touched_shapes };

        let p = base.num_copies() as f64;
        let n = base.total_vertices() as f64;
        let l_q = query.perimeter();

        // ε unit: envelope area 2·ε·l_Q equals the per-copy share of the
        // lune, so the ε₁-envelope is expected to contain ≥ 1 copy.
        let eps_base = LUNE_AREA / (2.0 * p * l_q);
        let log_n = n.log2().max(2.0);
        let eps_cap = eps_base * log_n.powi(self.config.log_power);
        outcome.stats.eps_cap = eps_cap;

        // The incremental top-k loop scores a copy in full as soon as β
        // says it is a candidate; a threshold run knows its cutoff and
        // leaves every scoring to the (bounded) resolve step.
        let (promote, tau) = match mode {
            RunMode::TopK => (true, f64::INFINITY),
            RunMode::Threshold(tau) => (false, tau),
        };

        // Per-copy state stays *sparse* despite the dense arrays: entries
        // are live only under this query's stamp, so no O(p) clear happens
        // (DESIGN.md §5 — dense per-query initialization once turned the
        // polylog work into linear time). Counters count ring vertices
        // beyond the anchor credit (already folded into `net_thresholds`).
        //
        // Degenerate copies (e.g. two-vertex segments) are candidates on
        // credit alone; score them up front so they are never lost.
        for &cid in &self.plan.credit_candidates {
            scored_stamp[cid.index()] = qstamp;
            self.score_candidate(cid, tau, prepared, back, &mut best, outcome);
        }
        if explain_on {
            outcome.explain.bound_factor = f_u;
            outcome.explain.credit_scored = outcome.stats.candidates_scored as u32;
        }

        let mut prev_eps = 0.0;
        // τ is known up front in threshold mode: one envelope at τ / f_u
        // certifies it, there is nothing to discover ring by ring.
        let mut eps = if promote { eps_base } else { (tau / f_u).min(eps_cap).max(eps_base) };

        for iter in 1usize.. {
            outcome.stats.iterations = iter;
            outcome.stats.final_eps = eps;
            metrics.rings.inc();
            // Ring-start watermarks, so the ring's EXPLAIN record can
            // report deltas of the per-run totals (stack-only; unused
            // and branch-predicted away when explain is off).
            let ring_base = if explain_on {
                (
                    outcome.stats.triangles_queried,
                    outcome.stats.vertices_reported,
                    outcome.stats.vertices_processed,
                    outcome.stats.candidates_scored,
                )
            } else {
                (0, 0, 0, 0)
            };

            if prev_eps == 0.0 {
                envelope_cover_into(query, eps, cover);
            } else {
                ring_cover_into(query, prev_eps, eps, cover);
            }
            outcome.stats.triangles_queried += cover.len();
            outcome.triangle_trace.extend_from_slice(cover);

            // One union traversal answers the whole ring cover: the
            // slivers tile a single annulus, so per-triangle descents
            // would walk the same index region dozens of times. The
            // union is duplicate-free, but the iteration stamp stays as
            // a second line of defense (backends may overlap on shared
            // edges). The report is read in pooled-vertex id order, so
            // promotions, the touched list, the distance sums and every
            // trace are the same whatever index answered it.
            *iter_clock += 1;
            let istamp = *iter_clock;
            reported.clear();
            base.report_triangles_with(index, cover, reported);
            reported.sort_unstable();
            outcome.stats.vertices_reported += reported.len();
            for &vid in reported.iter() {
                if seen_stamp[vid as usize] == istamp {
                    continue; // already handled this iteration
                }
                seen_stamp[vid as usize] = istamp;
                // Exact ring membership (DESIGN.md: exactness
                // discipline) — the cover may overshoot.
                let d = prepared.dist(base.vertex_point(vid));
                // First iteration (prev_eps = 0) is a closed envelope
                // [0, ε]; later rings are half-open (prev, ε].
                if (prev_eps > 0.0 && d <= prev_eps) || d > eps {
                    continue;
                }
                outcome.stats.vertices_processed += 1;
                let owner = base.vertex_owner(vid);
                let oi = owner.index();
                if counter_stamp[oi] != qstamp {
                    counter_stamp[oi] = qstamp;
                    counters[oi] = 0;
                    dist_sums[oi] = 0.0;
                    touched_copies.push(owner.0);
                }
                counters[oi] += 1;
                dist_sums[oi] += d;
                if promote && counters[oi] >= self.plan.net_thresholds[oi] && scored_stamp[oi] != qstamp {
                    scored_stamp[oi] = qstamp;
                    metrics.promotions.inc();
                    self.score_candidate(owner, f64::INFINITY, prepared, back, &mut best, outcome);
                }
            }

            // Certify: every copy no ring has touched scores above f_u·ε
            // (compared as ε against cutoff / f_u, so a threshold run's
            // ε = τ / f_u passes exactly).
            let certify_cutoff = match mode {
                RunMode::TopK if best.len() < self.config.k => None,
                RunMode::TopK => {
                    let rank = if self.config.certify_all { self.config.k } else { 1 };
                    best.kth(rank, score_buf)
                }
                RunMode::Threshold(tau) => Some(tau),
            };
            let certified = certify_cutoff.is_some_and(|c| eps >= c / f_u);

            let next_eps = match self.config.schedule {
                EpsSchedule::Geometric(g) => eps * g,
                EpsSchedule::Linear => eps + eps_base,
            };
            // one final iteration exactly at the cap, then the schedule
            // is spent
            let next_eps = if next_eps <= eps_cap {
                Some(next_eps)
            } else if eps < eps_cap {
                Some(eps_cap)
            } else {
                None
            };
            let last = certified || next_eps.is_none() || iter >= self.config.max_iterations;
            if last {
                // ...and every touched copy is excluded by its own bound
                // or resolved. Also done on an uncertified exit, so what
                // a best-effort answer reports is exact among the copies
                // the envelope reached.
                let before = outcome.stats.candidates_scored;
                self.resolve(
                    mode, eps, qstamp, touched_copies, counters, dist_sums, scored_stamp,
                    prepared, back, &mut best, score_buf, outcome,
                );
                metrics.resolves.add((outcome.stats.candidates_scored - before) as u64);
            }

            if explain_on {
                outcome.explain.rings.push(RingExplain {
                    ring: iter as u32,
                    eps,
                    triangles: (outcome.stats.triangles_queried - ring_base.0) as u32,
                    vertices_reported: (outcome.stats.vertices_reported - ring_base.1) as u32,
                    vertices_processed: (outcome.stats.vertices_processed - ring_base.2) as u32,
                    promotions: (outcome.stats.candidates_scored - ring_base.3) as u32,
                });
            }

            if last {
                outcome.stats.termination = match (certified, mode) {
                    (true, RunMode::TopK) => Termination::Certified,
                    (true, RunMode::Threshold(_)) => Termination::Threshold,
                    (false, _) if next_eps.is_none() => Termination::EpsCap,
                    (false, _) => Termination::MaxIterations,
                };
                // Cap (or the iteration valve) reached without a
                // certificate ⇒ the caller is told the answer is
                // best-effort.
                outcome.stats.exhausted = !certified;
                self.finish(&best, ranked, mode, outcome, &metrics);
                return;
            }
            prev_eps = eps;
            eps = next_eps.expect("not the last ring");
        }
    }

    /// Score `copy_id` against the query, abandoning early once the score
    /// provably exceeds `cutoff`, and put a finite result on the board.
    /// Returns the score (`INFINITY` when abandoned).
    fn score_candidate(
        &self,
        copy_id: CopyId,
        cutoff: f64,
        prepared: &PreparedShape,
        back: &mut Option<PreparedShape>,
        best: &mut BestTable<'_>,
        outcome: &mut MatchOutcome,
    ) -> f64 {
        let copy = self.base.copy(copy_id);
        outcome.access_trace.push(copy_id); // record fetch
        outcome.stats.candidates_scored += 1;
        let s = score_bounded_with(self.config.score, &copy.normalized, prepared, back, cutoff);
        if s.is_finite() {
            best.record(copy.shape_id, s, copy_id);
        }
        s
    }

    /// The certificate's second half: walk the copies the envelope
    /// touched but β never promoted, skip those whose partial-sum bound
    /// (module docs) already exceeds the cutoff, and score the rest
    /// against it — τ in threshold mode, the running k-th best on the
    /// board in top-k mode (everything while the board is short of k).
    #[allow(clippy::too_many_arguments)]
    fn resolve(
        &self,
        mode: RunMode,
        eps: f64,
        qstamp: u64,
        touched_copies: &[u32],
        counters: &[u32],
        dist_sums: &[f64],
        scored_stamp: &mut [u64],
        prepared: &PreparedShape,
        back: &mut Option<PreparedShape>,
        best: &mut BestTable<'_>,
        score_buf: &mut Vec<f64>,
        outcome: &mut MatchOutcome,
    ) {
        let k = self.config.k;
        let mut cutoff = match mode {
            RunMode::TopK => best.kth(k, score_buf).unwrap_or(f64::INFINITY),
            RunMode::Threshold(tau) => tau,
        };
        for &ci in touched_copies {
            let ci = ci as usize;
            if scored_stamp[ci] == qstamp {
                continue;
            }
            let copy = self.base.copy(CopyId(ci as u32));
            let n_c = copy.normalized.num_vertices() as u32;
            let outside = n_c - copy.anchor_credit - counters[ci];
            let bound = partial_sum_bound(dist_sums[ci], outside, eps, n_c);
            // same relative slack as the abandoning scorer: rounding in
            // the partial sum must never exclude a tie at the cutoff
            if bound > cutoff + cutoff.abs() * 1e-9 {
                continue;
            }
            scored_stamp[ci] = qstamp;
            let s = self.score_candidate(CopyId(ci as u32), cutoff, prepared, back, best, outcome);
            if mode == RunMode::TopK && s < cutoff {
                cutoff = best.kth(k, score_buf).unwrap_or(f64::INFINITY);
            }
        }
    }

    fn finish(
        &self,
        best: &BestTable<'_>,
        ranked: &mut Vec<(u32, f64, u32)>,
        mode: RunMode,
        outcome: &mut MatchOutcome,
        metrics: &MatcherMetrics,
    ) {
        ranked.clear();
        for &sid in best.touched.iter() {
            let si = sid as usize;
            ranked.push((sid, best.score[si], best.copy[si]));
        }
        // Total ordering key (score, shape id) — shape ids are unique, so
        // the unstable sort is deterministic regardless of touch order.
        ranked.sort_unstable_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        match mode {
            RunMode::TopK => ranked.truncate(self.config.k),
            RunMode::Threshold(tau) => ranked.retain(|&(_, s, _)| s <= tau),
        }
        for &(sid, s, cid) in ranked.iter() {
            let copy = CopyId(cid);
            outcome.access_trace.push(copy); // final result fetch
            outcome.matches.push(Match {
                shape: ShapeId(sid),
                image: self.base.copy(copy).image,
                copy,
                score: s,
            });
        }
        let stats = &outcome.stats;
        // Rings, counter promotions and resolves were already counted at
        // their event sites in `run`; the rest are per-run totals.
        metrics.runs.inc();
        metrics.triangles.add(stats.triangles_queried as u64);
        metrics.reported.add(stats.vertices_reported as u64);
        metrics.processed.add(stats.vertices_processed as u64);
        metrics.scores.add(stats.candidates_scored as u64);
        if stats.exhausted {
            metrics.exhausted.inc();
        }
        if stats.eps_cap > 0.0 {
            let permille = (stats.final_eps / stats.eps_cap * 1000.0).round();
            metrics.final_eps_permille.record(permille.clamp(0.0, 1000.0) as u64);
        }
    }
}

/// The certificate's per-copy lower bound on the discrete directed
/// `h_avg(C → Q)` once the envelope has reached `eps` (module docs):
/// `dist_sum` is the exact distance total of the copy's vertices inside
/// the envelope, `outside` counts its pooled vertices beyond it (each
/// more than `eps` away), and its anchors (the rest of its `n_c`
/// vertices) contribute at least 0.
pub fn partial_sum_bound(dist_sum: f64, outside: u32, eps: f64, n_c: u32) -> f64 {
    (dist_sum + outside as f64 * eps) / n_c as f64
}

/// Per-shape best-(score, copy) table over the scratch's stamped dense
/// arrays; `touched` lists the shapes live under the current stamp.
struct BestTable<'s> {
    qstamp: u64,
    stamp: &'s mut Vec<u64>,
    score: &'s mut Vec<f64>,
    copy: &'s mut Vec<u32>,
    touched: &'s mut Vec<u32>,
}

impl BestTable<'_> {
    fn record(&mut self, sid: ShapeId, s: f64, cid: CopyId) {
        let si = sid.index();
        if self.stamp[si] != self.qstamp {
            self.stamp[si] = self.qstamp;
            self.score[si] = s;
            self.copy[si] = cid.0;
            self.touched.push(sid.0);
        } else if s < self.score[si] {
            self.score[si] = s;
            self.copy[si] = cid.0;
        }
    }

    fn len(&self) -> usize {
        self.touched.len()
    }

    /// The k-th smallest best-score on the board (1-based), via selection
    /// over the touched set only.
    fn kth(&self, k: usize, buf: &mut Vec<f64>) -> Option<f64> {
        if self.touched.len() < k {
            return None;
        }
        buf.clear();
        buf.extend(self.touched.iter().map(|&sid| self.score[sid as usize]));
        let (_, kth, _) =
            buf.select_nth_unstable_by(k - 1, |a, b| a.partial_cmp(b).unwrap());
        Some(*kth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapebase::ShapeBaseBuilder;
    use geosir_geom::rangesearch::Backend;
    use geosir_geom::{Point, Similarity, Vec2};
    use rand::prelude::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// A family of visually distinct simple polygons.
    fn gallery() -> Vec<Polyline> {
        vec![
            // right triangle
            Polyline::closed(vec![p(0.0, 0.0), p(4.0, 0.0), p(0.0, 3.0)]).unwrap(),
            // square
            Polyline::closed(vec![p(0.0, 0.0), p(2.0, 0.0), p(2.0, 2.0), p(0.0, 2.0)]).unwrap(),
            // flat rectangle
            Polyline::closed(vec![p(0.0, 0.0), p(5.0, 0.0), p(5.0, 1.0), p(0.0, 1.0)]).unwrap(),
            // pentagon house
            Polyline::closed(vec![p(0.0, 0.0), p(2.0, 0.0), p(2.0, 2.0), p(1.0, 3.0), p(0.0, 2.0)])
                .unwrap(),
            // arrow / concave
            Polyline::closed(vec![p(0.0, 0.0), p(3.0, 0.0), p(2.0, 1.0), p(3.0, 2.0), p(0.0, 2.0)])
                .unwrap(),
            // thin sliver triangle
            Polyline::closed(vec![p(0.0, 0.0), p(6.0, 0.3), p(3.0, 0.8)]).unwrap(),
        ]
    }

    fn build_base(shapes: &[Polyline], alpha: f64) -> crate::shapebase::ShapeBase {
        let mut b = ShapeBaseBuilder::new();
        for (i, s) in shapes.iter().enumerate() {
            b.add_shape(ImageId(i as u32), s.clone());
        }
        b.build(alpha, Backend::RangeTree)
    }

    #[test]
    fn exact_copy_is_retrieved_with_zero_score() {
        let shapes = gallery();
        let base = build_base(&shapes, 0.0);
        let matcher = Matcher::new(&base, MatchConfig::default());
        for (i, q) in shapes.iter().enumerate() {
            let out = matcher.retrieve(q);
            let best = out.best().expect("must find a match");
            assert_eq!(best.shape, ShapeId(i as u32), "query {i} retrieved wrong shape");
            assert!(best.score < 1e-9, "query {i} score {}", best.score);
            assert!(!out.stats.exhausted);
        }
    }

    #[test]
    fn transformed_copy_is_retrieved() {
        let shapes = gallery();
        let base = build_base(&shapes, 0.0);
        let matcher = Matcher::new(&base, MatchConfig::default());
        let t = Similarity::from_parts(3.7, 1.1, Vec2::new(40.0, -17.0));
        for (i, q) in shapes.iter().enumerate() {
            let out = matcher.retrieve(&t.apply_polyline(q));
            let best = out.best().expect("must find a match");
            assert_eq!(best.shape, ShapeId(i as u32), "transformed query {i} missed");
            assert!(best.score < 1e-7);
        }
    }

    #[test]
    fn noisy_query_finds_source_shape() {
        let shapes = gallery();
        let base = build_base(&shapes, 0.1);
        let matcher = Matcher::new(&base, MatchConfig { beta: 0.2, ..Default::default() });
        let mut rng = StdRng::seed_from_u64(7);
        for (i, s) in shapes.iter().enumerate() {
            // jitter vertices by up to 2% of the diameter
            let d = geosir_geom::diameter::diameter(s.points()).unwrap().dist;
            let noisy = s.map_points(|q| {
                p(
                    q.x + rng.random_range(-0.02..0.02) * d,
                    q.y + rng.random_range(-0.02..0.02) * d,
                )
            });
            let out = matcher.retrieve(&noisy);
            let best = out.best().expect("noisy query found nothing");
            assert_eq!(best.shape, ShapeId(i as u32), "noisy query {i} retrieved wrong shape");
        }
    }

    #[test]
    fn topk_ordering_and_dedup() {
        // base with near-duplicates of one shape
        let tri = Polyline::closed(vec![p(0.0, 0.0), p(4.0, 0.0), p(0.0, 3.0)]).unwrap();
        let mut shapes = vec![tri.clone()];
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..4 {
            shapes.push(tri.map_points(|q| {
                p(q.x + rng.random_range(-0.15..0.15), q.y + rng.random_range(-0.15..0.15))
            }));
        }
        shapes.push(
            Polyline::closed(vec![p(0.0, 0.0), p(5.0, 0.0), p(5.0, 1.0), p(0.0, 1.0)]).unwrap(),
        );
        let base = build_base(&shapes, 0.0);
        let matcher =
            Matcher::new(&base, MatchConfig { k: 3, beta: 0.2, ..Default::default() });
        let out = matcher.retrieve(&tri);
        assert_eq!(out.matches.len(), 3);
        // scores ascending, shapes distinct
        for w in out.matches.windows(2) {
            assert!(w[0].score <= w[1].score);
            assert_ne!(w[0].shape, w[1].shape);
        }
        assert_eq!(out.matches[0].shape, ShapeId(0));
        assert!(out.matches[0].score < 1e-9);
    }

    #[test]
    fn unrelated_query_exhausts() {
        // base of compact blobs; query a 40-vertex saw — nothing similar
        let shapes = gallery();
        let base = build_base(&shapes, 0.0);
        let matcher = Matcher::new(&base, MatchConfig { beta: 0.0, ..Default::default() });
        let mut saw = Vec::new();
        for i in 0..20 {
            saw.push(p(i as f64, 0.0));
            saw.push(p(i as f64 + 0.5, 4.0));
        }
        let q = Polyline::open(saw).unwrap();
        let out = matcher.retrieve(&q);
        // either nothing was found, or what was found is flagged best-effort
        if let Some(best) = out.best() {
            assert!(best.score > 0.01, "saw matched something suspiciously well");
        }
        assert!(out.stats.final_eps <= out.stats.eps_cap * (1.0 + 1e-9));
    }

    /// The matcher reads each ring's report in pooled-vertex id order,
    /// so a retrieval does not depend on the index that answered it: a
    /// range-tree base and the brute-force oracle give the same outcome
    /// bit for bit — scores, both traces, every counter and every EXPLAIN
    /// ring — not only the same shapes.
    #[test]
    fn backends_give_identical_outcomes() {
        use geosir_imaging::synth::{perturb, random_simple_polygon};
        let mut rng = StdRng::seed_from_u64(14);
        let mut shapes = gallery();
        for _ in 0..300 {
            let n = rng.random_range(4..12);
            shapes.push(random_simple_polygon(&mut rng, n, 0.4));
        }
        let bases = [Backend::RangeTree, Backend::BruteForce].map(|backend| {
            let mut b = ShapeBaseBuilder::new();
            for (i, s) in shapes.iter().enumerate() {
                b.add_shape(ImageId(i as u32), s.clone());
            }
            b.build(0.05, backend)
        });
        let config = MatchConfig { k: 10, beta: 0.2, ..Default::default() };
        let matchers = bases.each_ref().map(|base| Matcher::new(base, config.clone()));
        for qi in 0..10 {
            let q = perturb(&shapes[rng.random_range(0..shapes.len())], &mut rng, 0.03);
            let [rt, bf] = matchers.each_ref().map(|m| {
                let mut out = MatchOutcome::default();
                out.explain.enabled = true;
                m.retrieve_with(&mut MatcherScratch::new(), &q, &mut out);
                out
            });
            let bits = |o: &MatchOutcome| {
                o.matches.iter().map(|m| (m.shape, m.copy, m.score.to_bits())).collect::<Vec<_>>()
            };
            assert!(!rt.matches.is_empty(), "query {qi} found nothing");
            assert_eq!(bits(&rt), bits(&bf), "query {qi}: answers");
            assert_eq!(rt.access_trace, bf.access_trace, "query {qi}: access trace");
            assert_eq!(rt.triangle_trace, bf.triangle_trace, "query {qi}: triangle trace");
            assert_eq!(rt.stats, bf.stats, "query {qi}: stats");
            assert_eq!(rt.explain.rings, bf.explain.rings, "query {qi}: EXPLAIN rings");
        }
    }

    #[test]
    fn schedules_agree_on_best_match() {
        let shapes = gallery();
        let base = build_base(&shapes, 0.0);
        let q = &shapes[4];
        let geo = Matcher::new(
            &base,
            MatchConfig { schedule: EpsSchedule::Geometric(2.0), ..Default::default() },
        )
        .retrieve(q);
        let lin = Matcher::new(
            &base,
            MatchConfig { schedule: EpsSchedule::Linear, ..Default::default() },
        )
        .retrieve(q);
        assert_eq!(geo.best().unwrap().shape, lin.best().unwrap().shape);
        // linear schedule takes at least as many iterations
        assert!(lin.stats.iterations >= geo.stats.iterations);
    }

    #[test]
    fn access_trace_covers_scored_candidates() {
        let shapes = gallery();
        let base = build_base(&shapes, 0.1);
        let matcher = Matcher::new(&base, MatchConfig::default());
        let out = matcher.retrieve(&shapes[0]);
        assert_eq!(
            out.access_trace.len(),
            out.stats.candidates_scored + out.matches.len(),
            "trace = one fetch per scored candidate + one per reported match"
        );
    }

    #[test]
    fn stats_are_populated() {
        let shapes = gallery();
        let base = build_base(&shapes, 0.0);
        let matcher = Matcher::new(&base, MatchConfig::default());
        let out = matcher.retrieve(&shapes[1]);
        assert!(out.stats.iterations >= 1);
        assert!(out.stats.triangles_queried > 0);
        assert!(out.stats.vertices_processed > 0);
        assert!(out.stats.final_eps > 0.0);
        assert!(out.stats.candidates_scored >= 1);
    }

    #[test]
    fn threshold_retrieval_matches_exhaustive_scoring() {
        let tri = Polyline::closed(vec![p(0.0, 0.0), p(4.0, 0.0), p(0.0, 3.0)]).unwrap();
        let mut shapes = vec![tri.clone()];
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..9 {
            let jitter = rng.random_range(0.0..0.4);
            shapes.push(tri.map_points(|q| {
                p(
                    q.x + rng.random_range(-jitter..=jitter),
                    q.y + rng.random_range(-jitter..=jitter),
                )
            }));
        }
        let base = build_base(&shapes, 0.0);
        let matcher = Matcher::new(&base, MatchConfig { beta: 0.3, ..Default::default() });
        let tau = 0.04;
        let out = matcher.retrieve_within(&tri, tau);
        assert!(!out.stats.exhausted);
        // oracle: score every shape's best copy exhaustively
        let (qnorm, _) = crate::normalize::normalize_about_diameter(&tri).unwrap();
        let prepared = crate::similarity::PreparedShape::new(qnorm.shape);
        let mut expected: Vec<ShapeId> = Vec::new();
        for sid in 0..shapes.len() as u32 {
            let best = base
                .copies()
                .filter(|(_, c)| c.shape_id == ShapeId(sid))
                .map(|(_, c)| {
                    crate::similarity::score(
                        crate::similarity::ScoreKind::DiscreteSymmetric,
                        &c.normalized,
                        &prepared,
                    )
                })
                .fold(f64::INFINITY, f64::min);
            if best <= tau {
                expected.push(ShapeId(sid));
            }
        }
        let mut got: Vec<ShapeId> = out.matches.iter().map(|m| m.shape).collect();
        got.sort();
        expected.sort();
        assert_eq!(got, expected);
        // every reported score respects the threshold
        for m in &out.matches {
            assert!(m.score <= tau);
        }
    }

    #[test]
    #[should_panic(expected = "beta")]
    fn invalid_beta_rejected() {
        let base = build_base(&gallery(), 0.0);
        let _ = Matcher::new(&base, MatchConfig { beta: 1.5, ..Default::default() });
    }

    #[test]
    fn scratch_pool_is_bounded() {
        // Burst regime: many callers hold scratches simultaneously, then
        // all return at once. The pool must keep at most SCRATCH_POOL_CAP
        // and drop the rest (regression: it once grew without bound).
        let base = build_base(&gallery(), 0.0);
        let matcher = Matcher::new(&base, MatchConfig::default());
        let burst: Vec<_> = (0..SCRATCH_POOL_CAP * 5).map(|_| matcher.pooled_scratch()).collect();
        assert!(matcher.scratch_pool.lock().unwrap().is_empty());
        for scratch in burst {
            matcher.return_scratch(scratch);
        }
        assert_eq!(matcher.scratch_pool.lock().unwrap().len(), SCRATCH_POOL_CAP);
        // the bounded pool still serves the scratchless entry points
        assert!(matcher.retrieve(&gallery()[0]).best().is_some());
        assert!(matcher.scratch_pool.lock().unwrap().len() <= SCRATCH_POOL_CAP);
    }

    #[test]
    fn empty_base_returns_nothing() {
        let base = ShapeBaseBuilder::new().build(0.0, Backend::RangeTree);
        let matcher = Matcher::new(&base, MatchConfig::default());
        let q = Polyline::closed(vec![p(0.0, 0.0), p(1.0, 0.0), p(0.0, 1.0)]).unwrap();
        let out = matcher.retrieve(&q);
        assert!(out.matches.is_empty());
        assert_eq!(out.stats.termination, Termination::EmptyBase);
    }

    /// A 40-vertex saw polyline nothing in the gallery resembles: its
    /// retrieval needs several envelope iterations, making it the
    /// multi-ring workload for counter and EXPLAIN tests.
    fn saw_query() -> Polyline {
        let mut saw = Vec::new();
        for i in 0..20 {
            saw.push(p(i as f64, 0.0));
            saw.push(p(i as f64 + 0.5, 4.0));
        }
        Polyline::open(saw).unwrap()
    }

    #[test]
    fn ring_and_promotion_counters_count_events() {
        // Regression: rings_total and counter_promotions_total were
        // per-run aggregate adds in finish(), so a dashboard could not
        // tell a 1-ring query from a 12-ring one mid-flight — and a
        // BENCH workload of 1-ring queries showed both frozen exactly
        // at runs_total. They must now count events.
        let reg = std::sync::Arc::new(obs::Registry::new());
        obs::set_thread_registry(Some(reg.clone()));
        let shapes = gallery();
        let base = build_base(&shapes, 0.0);
        let matcher = Matcher::new(&base, MatchConfig { beta: 0.0, ..Default::default() });

        let multi = matcher.retrieve(&saw_query());
        let exact = matcher.retrieve(&shapes[0]);
        obs::set_thread_registry(None);

        assert!(multi.stats.iterations > 1, "saw query must take several rings");
        let snap = reg.snapshot();
        let runs = snap.counter("geosir_matcher_runs_total", &[]);
        let rings = snap.counter("geosir_matcher_rings_total", &[]);
        let promotions = snap.counter("geosir_matcher_counter_promotions_total", &[]);
        assert_eq!(runs, 2);
        assert_eq!(rings, (multi.stats.iterations + exact.stats.iterations) as u64);
        assert!(rings > runs, "multi-ring run must push rings_total past runs_total");
        // this base has no credit candidates, so every h_avg eval was a
        // counter promotion or one of the certificate's resolve scorings
        let resolves = snap.counter("geosir_matcher_resolves_total", &[]);
        assert_eq!(
            promotions + resolves,
            (multi.stats.candidates_scored + exact.stats.candidates_scored) as u64
        );
        assert!(promotions >= 1, "the exact query must have promoted its source shape");
    }

    #[test]
    fn explain_capture_reconciles_with_stats() {
        let shapes = gallery();
        let base = build_base(&shapes, 0.0);
        let matcher = Matcher::new(&base, MatchConfig { beta: 0.0, ..Default::default() });
        let mut scratch = MatcherScratch::new();
        let mut out = MatchOutcome::default();
        out.explain.enabled = true;
        matcher.retrieve_with(&mut scratch, &saw_query(), &mut out);

        // one record per iteration, deltas summing to the run totals
        assert_eq!(out.explain.rings.len(), out.stats.iterations);
        let sum = |f: fn(&RingExplain) -> u32| -> usize {
            out.explain.rings.iter().map(|r| f(r) as usize).sum()
        };
        assert_eq!(sum(|r| r.triangles), out.stats.triangles_queried);
        assert_eq!(sum(|r| r.vertices_reported), out.stats.vertices_reported);
        assert_eq!(sum(|r| r.vertices_processed), out.stats.vertices_processed);
        assert_eq!(
            sum(|r| r.promotions) + out.explain.credit_scored as usize,
            out.stats.candidates_scored
        );
        // ε strictly grows ring to ring and ends at final_eps
        for w in out.explain.rings.windows(2) {
            assert!(w[1].eps > w[0].eps);
            assert_eq!(w[1].ring, w[0].ring + 1);
        }
        assert_eq!(out.explain.rings.last().unwrap().eps, out.stats.final_eps);
        assert!(out.explain.bound_factor > 0.0);
        assert_ne!(out.stats.termination, Termination::None);

        // an exact hit terminates via the certification bound
        matcher.retrieve_with(&mut scratch, &shapes[0], &mut out);
        assert_eq!(out.stats.termination, Termination::Certified);
        assert_eq!(out.explain.rings.len(), out.stats.iterations);

        // explain off: same retrieval, zero capture
        let mut plain = MatchOutcome::default();
        matcher.retrieve_with(&mut scratch, &saw_query(), &mut plain);
        assert!(plain.explain.rings.is_empty());
        assert_eq!(plain.explain.credit_scored, 0);
        assert_ne!(plain.stats.termination, Termination::None);
    }
}
