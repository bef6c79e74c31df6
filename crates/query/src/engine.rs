//! Operator evaluation and query execution (§5.3–5.4).
//!
//! `similar(Q)` runs the envelope-fattening matcher in threshold mode and
//! projects shape hits to their images. A topological operator
//! `r(Q₁, Q₂, θ)` is evaluated with one of the paper's two strategies:
//!
//! 1. **seed-smaller** — compute only the less selective side's
//!    `shape_similar` set, then walk the image-graph edges around each
//!    seed shape;
//! 2. **both-sides** — compute both sets, intersect the image sets, and
//!    verify pairs inside the surviving images.
//!
//! Composite queries are rewritten to DNF; each conjunct evaluates its
//! literals in ascending estimated selectivity with early exit, and the
//! selectivity estimator is refreshed with every executed `similar`.

use std::collections::{HashMap, HashSet};

use geosir_core::ids::{ImageId, ShapeId};
use geosir_core::matcher::{MatchConfig, Matcher};
use geosir_core::selectivity::{significant_vertices, SelectivityEstimator};
use geosir_core::shapebase::ShapeBase;
use geosir_geom::Polyline;

use crate::algebra::{AngleSpec, Dnf, Expr, Literal, Op, TopoRel};
use crate::graph::{EdgeLabel, ImageGraphStore};
use crate::parser::{parse, ParseError};

/// How topological operators pick a physical plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopoStrategy {
    /// Choose per operator using the selectivity estimates (§5.3 intro).
    #[default]
    Auto,
    /// Always plan 1 (seed from the smaller similar set).
    SeedSmaller,
    /// Always plan 2 (compute both sides, intersect images).
    BothSides,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// `g_similar` threshold: shapes scoring ≤ τ are "similar".
    pub tau: f64,
    /// Matcher settings for the underlying retrievals.
    pub match_config: MatchConfig,
    pub strategy: TopoStrategy,
    /// Prior for the selectivity constant c.
    pub initial_c: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            tau: 0.05,
            match_config: MatchConfig { beta: 0.3, ..Default::default() },
            strategy: TopoStrategy::default(),
            initial_c: 8.0,
        }
    }
}

/// Execution counters (the §5 experiments read these).
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// `shape_similar` evaluations that ran the matcher.
    pub similar_evaluated: u64,
    /// `shape_similar` evaluations served from the per-query cache.
    pub similar_cached: u64,
    pub plan1_used: u64,
    pub plan2_used: u64,
    /// Shape pairs tested by topological operators.
    pub pairs_tested: u64,
}

/// Query execution errors.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The expression references a shape name with no binding.
    UnboundShape(String),
    Parse(ParseError),
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnboundShape(n) => write!(f, "no binding for query shape '{n}'"),
            QueryError::Parse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// The similar-set of one query shape, shared across a query's operators.
#[derive(Debug, Clone, Default)]
struct SimilarResult {
    shapes: HashSet<ShapeId>,
    images: HashSet<ImageId>,
}

/// One literal of an EXPLAIN output, with its selectivity estimate.
#[derive(Debug, Clone)]
pub struct PlanStep {
    pub negated: bool,
    pub op: crate::algebra::Op,
    pub estimate: f64,
}

/// The plan produced by [`QueryEngine::explain`].
#[derive(Debug, Clone)]
pub struct Plan {
    /// Union of conjuncts; within each, literals in evaluation order.
    pub conjuncts: Vec<Vec<PlanStep>>,
}

impl std::fmt::Display for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, c) in self.conjuncts.iter().enumerate() {
            writeln!(f, "conjunct {i}:")?;
            for (j, s) in c.iter().enumerate() {
                writeln!(
                    f,
                    "  {j}. {}{}  (est. {:.1})",
                    if s.negated { "NOT " } else { "" },
                    s.op,
                    s.estimate
                )?;
            }
        }
        Ok(())
    }
}

/// The query processor over a shape base.
pub struct QueryEngine<'a> {
    base: &'a ShapeBase,
    matcher: Matcher<'a>,
    graphs: ImageGraphStore,
    config: EngineConfig,
    estimator: SelectivityEstimator,
    all_images: HashSet<ImageId>,
    stats: EngineStats,
}

impl<'a> QueryEngine<'a> {
    pub fn new(base: &'a ShapeBase, config: EngineConfig) -> Self {
        let graphs = ImageGraphStore::build(base);
        Self::with_graphs(base, graphs, config)
    }

    /// Build with pre-computed image graphs (the façade caches them across
    /// query sessions instead of re-deriving the pairwise relations).
    pub fn with_graphs(
        base: &'a ShapeBase,
        graphs: ImageGraphStore,
        config: EngineConfig,
    ) -> Self {
        let matcher = Matcher::new(base, config.match_config.clone());
        let all_images = base.sources().map(|(_, s)| s.image).collect();
        let estimator = SelectivityEstimator::new(config.initial_c);
        QueryEngine { base, matcher, graphs, config, estimator, all_images, stats: EngineStats::default() }
    }

    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    pub fn estimator(&self) -> &SelectivityEstimator {
        &self.estimator
    }

    /// `shape_similar(Q)` (§5.2): all shapes scoring within τ, via the
    /// envelope-fattening matcher. Feeds the selectivity estimator.
    fn shape_similar(&mut self, query: &Polyline) -> HashSet<ShapeId> {
        let out = self.matcher.retrieve_within(query, self.config.tau);
        self.stats.similar_evaluated += 1;
        let vs = significant_vertices(query);
        self.estimator.observe(vs, out.matches.len());
        out.matches.iter().map(|m| m.shape).collect()
    }

    /// Parse and execute a text query against `bindings`
    /// (name → query shape).
    pub fn execute_str(
        &mut self,
        text: &str,
        bindings: &HashMap<String, Polyline>,
    ) -> Result<HashSet<ImageId>, QueryError> {
        let expr = parse(text).map_err(QueryError::Parse)?;
        self.execute(&expr, bindings)
    }

    /// EXPLAIN: the plan [`QueryEngine::execute`] would run, without
    /// executing it — per conjunct, the literals in evaluation order with
    /// their selectivity estimates.
    pub fn explain(
        &self,
        expr: &Expr,
        bindings: &HashMap<String, Polyline>,
    ) -> Result<Plan, QueryError> {
        for name in expr.shape_names() {
            if !bindings.contains_key(&name) {
                return Err(QueryError::UnboundShape(name));
            }
        }
        let dnf = expr.to_dnf();
        let db = self.all_images.len() as f64;
        let conjuncts = self
            .plan_order(&dnf, bindings)
            .into_iter()
            .map(|lits| {
                lits.into_iter()
                    .map(|lit| {
                        let estimate = self.estimate_literal(&lit, bindings, db);
                        PlanStep { negated: lit.negated, op: lit.op, estimate }
                    })
                    .collect()
            })
            .collect();
        Ok(Plan { conjuncts })
    }

    /// Execute a query expression: DNF rewrite, then selectivity-ordered
    /// conjunct evaluation (§5.4).
    pub fn execute(
        &mut self,
        expr: &Expr,
        bindings: &HashMap<String, Polyline>,
    ) -> Result<HashSet<ImageId>, QueryError> {
        for name in expr.shape_names() {
            if !bindings.contains_key(&name) {
                return Err(QueryError::UnboundShape(name));
            }
        }
        let dnf = expr.to_dnf();
        let mut cache: HashMap<String, SimilarResult> = HashMap::new();
        let mut result = HashSet::new();
        for conjunct in &self.plan_order(&dnf, bindings) {
            let images = self.eval_conjunct(conjunct, bindings, &mut cache);
            result.extend(images);
        }
        Ok(result)
    }

    /// Order each conjunct's literals by ascending estimated selectivity
    /// (positive literals first; complements are estimated as `|DB| − est`
    /// and therefore sort last).
    fn plan_order(
        &self,
        dnf: &Dnf,
        bindings: &HashMap<String, Polyline>,
    ) -> Vec<Vec<Literal>> {
        let db = self.all_images.len() as f64;
        dnf.conjuncts
            .iter()
            .map(|c| {
                let mut lits = c.clone();
                lits.sort_by(|a, b| {
                    let (ea, eb) = (
                        self.estimate_literal(a, bindings, db),
                        self.estimate_literal(b, bindings, db),
                    );
                    ea.partial_cmp(&eb).unwrap()
                });
                lits
            })
            .collect()
    }

    fn estimate_literal(
        &self,
        lit: &Literal,
        bindings: &HashMap<String, Polyline>,
        db: f64,
    ) -> f64 {
        let est = self.estimate_op(&lit.op, bindings);
        if lit.negated {
            (db - est).max(0.0)
        } else {
            est
        }
    }

    /// §5.4's operator-size estimates.
    fn estimate_op(&self, op: &Op, bindings: &HashMap<String, Polyline>) -> f64 {
        let sim_est = |name: &String| {
            bindings.get(name).map_or(f64::INFINITY, |s| self.estimator.estimate_shape(s))
        };
        match op {
            Op::Similar(q) => sim_est(q),
            Op::Topo { q1, q2, .. } => sim_est(q1).min(sim_est(q2)),
        }
    }

    fn eval_conjunct(
        &mut self,
        lits: &[Literal],
        bindings: &HashMap<String, Polyline>,
        cache: &mut HashMap<String, SimilarResult>,
    ) -> HashSet<ImageId> {
        let mut acc: Option<HashSet<ImageId>> = None;
        for lit in lits {
            // Early exit: an empty candidate set cannot recover.
            if acc.as_ref().is_some_and(HashSet::is_empty) {
                return HashSet::new();
            }
            let images = self.eval_op(&lit.op, bindings, cache);
            acc = Some(match (acc, lit.negated) {
                (None, false) => images,
                (None, true) => self.all_images.difference(&images).copied().collect(),
                (Some(a), false) => a.intersection(&images).copied().collect(),
                (Some(a), true) => a.difference(&images).copied().collect(),
            });
        }
        acc.unwrap_or_default()
    }

    fn similar_cached(
        &mut self,
        name: &str,
        bindings: &HashMap<String, Polyline>,
        cache: &mut HashMap<String, SimilarResult>,
    ) -> SimilarResult {
        if let Some(hit) = cache.get(name) {
            self.stats.similar_cached += 1;
            return hit.clone();
        }
        let shape = &bindings[name];
        let shapes = self.shape_similar(shape);
        let images = shapes.iter().map(|&sid| self.base.source(sid).image).collect();
        let result = SimilarResult { shapes, images };
        cache.insert(name.to_string(), result.clone());
        result
    }

    fn eval_op(
        &mut self,
        op: &Op,
        bindings: &HashMap<String, Polyline>,
        cache: &mut HashMap<String, SimilarResult>,
    ) -> HashSet<ImageId> {
        match op {
            Op::Similar(q) => self.similar_cached(q, bindings, cache).images,
            Op::Topo { rel, q1, q2, angle } => {
                self.eval_topo(*rel, q1, q2, *angle, bindings, cache)
            }
        }
    }

    fn eval_topo(
        &mut self,
        rel: TopoRel,
        q1: &str,
        q2: &str,
        angle: AngleSpec,
        bindings: &HashMap<String, Polyline>,
        cache: &mut HashMap<String, SimilarResult>,
    ) -> HashSet<ImageId> {
        let strategy = match self.config.strategy {
            TopoStrategy::Auto => {
                // Plan 2 pays for both similar sets up front but touches
                // only images containing both; plan 1 avoids one similar
                // set. With the per-query cache, a side that is already
                // cached is free — prefer plan 2 when both are cached.
                if cache.contains_key(q1) && cache.contains_key(q2) {
                    TopoStrategy::BothSides
                } else {
                    TopoStrategy::SeedSmaller
                }
            }
            s => s,
        };
        match strategy {
            TopoStrategy::SeedSmaller | TopoStrategy::Auto => {
                self.stats.plan1_used += 1;
                self.topo_plan1(rel, q1, q2, angle, bindings, cache)
            }
            TopoStrategy::BothSides => {
                self.stats.plan2_used += 1;
                self.topo_plan2(rel, q1, q2, angle, bindings, cache)
            }
        }
    }

    /// Plan 1 (§5.3): compute the smaller `shape_similar` set first, then
    /// walk each seed's image graph.
    fn topo_plan1(
        &mut self,
        rel: TopoRel,
        q1: &str,
        q2: &str,
        angle: AngleSpec,
        bindings: &HashMap<String, Polyline>,
        cache: &mut HashMap<String, SimilarResult>,
    ) -> HashSet<ImageId> {
        // §5.3: start from the side with the smaller estimated result.
        let est1 = self.estimate_op(&Op::Similar(q1.to_string()), bindings);
        let est2 = self.estimate_op(&Op::Similar(q2.to_string()), bindings);
        let seed_is_q2 = est2 <= est1;
        let (seed_name, other_name) = if seed_is_q2 { (q2, q1) } else { (q1, q2) };
        let seeds = self.similar_cached(seed_name, bindings, cache);
        let others = self.similar_cached(other_name, bindings, cache);

        let mut result = HashSet::new();
        for &seed in &seeds.shapes {
            let image = self.base.source(seed).image;
            if result.contains(&image) {
                continue;
            }
            let Some(graph) = self.graphs.graph(image) else { continue };
            // the operator's ordered pair is (S1 ∈ sim(q1), S2 ∈ sim(q2))
            let hit = match rel {
                TopoRel::Disjoint => graph.shapes.iter().any(|&cand| {
                    if cand == seed || !others.shapes.contains(&cand) || graph.connected(cand, seed)
                    {
                        return false;
                    }
                    self.stats.pairs_tested += 1;
                    let (s1, s2) = if seed_is_q2 { (cand, seed) } else { (seed, cand) };
                    angle.matches(self.graphs.diameter_angle(s1, s2))
                }),
                TopoRel::Contain | TopoRel::Overlap => graph.edges.iter().any(|e| {
                    let label_ok = match rel {
                        TopoRel::Contain => e.label == EdgeLabel::Contain,
                        _ => e.label == EdgeLabel::Overlap,
                    };
                    if !label_ok {
                        return false;
                    }
                    // identify (S1, S2) for the operator's orientation:
                    // contain edges run container → containee.
                    let (s1, s2, edge_angle) = (e.from, e.to, e.angle);
                    let (want_s1, want_s2) =
                        if seed_is_q2 { (None, Some(seed)) } else { (Some(seed), None) };
                    if want_s1.is_some_and(|w| w != s1) || want_s2.is_some_and(|w| w != s2) {
                        return false;
                    }
                    let (sim1, sim2) =
                        if seed_is_q2 { (&others.shapes, &seeds.shapes) } else { (&seeds.shapes, &others.shapes) };
                    if !sim1.contains(&s1) || !sim2.contains(&s2) {
                        return false;
                    }
                    self.stats.pairs_tested += 1;
                    angle.matches(edge_angle)
                }),
            };
            if hit {
                result.insert(image);
            }
        }
        result
    }

    /// Plan 2 (§5.3): compute both `shape_similar` sets, restrict to
    /// images containing both, verify pairs inside those images.
    fn topo_plan2(
        &mut self,
        rel: TopoRel,
        q1: &str,
        q2: &str,
        angle: AngleSpec,
        bindings: &HashMap<String, Polyline>,
        cache: &mut HashMap<String, SimilarResult>,
    ) -> HashSet<ImageId> {
        let sim1 = self.similar_cached(q1, bindings, cache);
        let sim2 = self.similar_cached(q2, bindings, cache);
        let si: HashSet<ImageId> = sim1.images.intersection(&sim2.images).copied().collect();
        let mut result = HashSet::new();
        for &s1 in &sim1.shapes {
            let image = self.base.source(s1).image;
            if !si.contains(&image) || result.contains(&image) {
                continue;
            }
            let Some(graph) = self.graphs.graph(image) else { continue };
            let hit = match rel {
                TopoRel::Disjoint => graph.shapes.iter().any(|&s2| {
                    if s2 == s1 || !sim2.shapes.contains(&s2) || graph.connected(s1, s2) {
                        return false;
                    }
                    self.stats.pairs_tested += 1;
                    angle.matches(self.graphs.diameter_angle(s1, s2))
                }),
                TopoRel::Contain | TopoRel::Overlap => graph.edges.iter().any(|e| {
                    let label_ok = match rel {
                        TopoRel::Contain => e.label == EdgeLabel::Contain,
                        _ => e.label == EdgeLabel::Overlap,
                    };
                    if !label_ok || e.from != s1 || !sim2.shapes.contains(&e.to) {
                        return false;
                    }
                    self.stats.pairs_tested += 1;
                    angle.matches(e.angle)
                }),
            };
            if hit {
                result.insert(image);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosir_core::shapebase::ShapeBaseBuilder;
    use geosir_geom::rangesearch::Backend;
    use geosir_geom::{Point, Polyline};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn square(cx: f64, cy: f64, half: f64) -> Polyline {
        Polyline::closed(vec![
            p(cx - half, cy - half),
            p(cx + half, cy - half),
            p(cx + half, cy + half),
            p(cx - half, cy + half),
        ])
        .unwrap()
    }

    fn triangle(cx: f64, cy: f64, s: f64) -> Polyline {
        Polyline::closed(vec![p(cx, cy), p(cx + 4.0 * s, cy), p(cx, cy + 3.0 * s)]).unwrap()
    }

    impl QueryEngine<'_> {
        /// Reference evaluator: direct structural recursion with plain set
        /// semantics — no DNF rewrite, no selectivity ordering, no early
        /// exits. Exists to validate [`QueryEngine::execute`] (the planner
        /// must compute exactly this set) and as the semantics definition.
        fn execute_naive(
            &mut self,
            expr: &Expr,
            bindings: &HashMap<String, Polyline>,
        ) -> Result<HashSet<ImageId>, QueryError> {
            for name in expr.shape_names() {
                if !bindings.contains_key(&name) {
                    return Err(QueryError::UnboundShape(name));
                }
            }
            let mut cache = HashMap::new();
            Ok(self.naive_rec(expr, bindings, &mut cache))
        }

        fn naive_rec(
            &mut self,
            expr: &Expr,
            bindings: &HashMap<String, Polyline>,
            cache: &mut HashMap<String, SimilarResult>,
        ) -> HashSet<ImageId> {
            match expr {
                Expr::Op(op) => self.eval_op(op, bindings, cache),
                Expr::And(a, b) => {
                    let (x, y) =
                        (self.naive_rec(a, bindings, cache), self.naive_rec(b, bindings, cache));
                    x.intersection(&y).copied().collect()
                }
                Expr::Or(a, b) => {
                    let mut x = self.naive_rec(a, bindings, cache);
                    x.extend(self.naive_rec(b, bindings, cache));
                    x
                }
                Expr::Not(e) => {
                    let x = self.naive_rec(e, bindings, cache);
                    self.all_images.difference(&x).copied().collect()
                }
            }
        }
    }

    /// World:
    /// - image 0: big square containing a triangle
    /// - image 1: square overlapping a triangle
    /// - image 2: square and triangle disjoint
    /// - image 3: only a triangle
    /// - image 4: only a square
    fn world() -> ShapeBase {
        let mut b = ShapeBaseBuilder::new();
        b.add_shape(ImageId(0), square(0.0, 0.0, 10.0));
        b.add_shape(ImageId(0), triangle(-2.0, -2.0, 1.0));
        b.add_shape(ImageId(1), square(0.0, 0.0, 2.0));
        b.add_shape(ImageId(1), triangle(1.0, 1.0, 1.0));
        b.add_shape(ImageId(2), square(0.0, 0.0, 2.0));
        b.add_shape(ImageId(2), triangle(30.0, 0.0, 1.0));
        b.add_shape(ImageId(3), triangle(0.0, 0.0, 2.0));
        b.add_shape(ImageId(4), square(5.0, 5.0, 3.0));
        b.build(0.0, Backend::RangeTree)
    }

    fn bindings() -> HashMap<String, Polyline> {
        let mut m = HashMap::new();
        m.insert("sq".to_string(), square(0.0, 0.0, 1.0));
        m.insert("tri".to_string(), triangle(0.0, 0.0, 1.0));
        m
    }

    fn images(set: &HashSet<ImageId>) -> Vec<u32> {
        let mut v: Vec<u32> = set.iter().map(|i| i.0).collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn similar_finds_all_squares() {
        let base = world();
        let mut eng = QueryEngine::new(&base, EngineConfig::default());
        let got = eng.execute_str("similar(sq)", &bindings()).unwrap();
        assert_eq!(images(&got), vec![0, 1, 2, 4]);
    }

    #[test]
    fn contain_operator() {
        let base = world();
        let mut eng = QueryEngine::new(&base, EngineConfig::default());
        let got = eng.execute_str("contain(sq, tri, any)", &bindings()).unwrap();
        assert_eq!(images(&got), vec![0]);
    }

    #[test]
    fn overlap_operator() {
        let base = world();
        let mut eng = QueryEngine::new(&base, EngineConfig::default());
        let got = eng.execute_str("overlap(sq, tri, any)", &bindings()).unwrap();
        assert_eq!(images(&got), vec![1]);
    }

    #[test]
    fn disjoint_operator() {
        let base = world();
        let mut eng = QueryEngine::new(&base, EngineConfig::default());
        let got = eng.execute_str("disjoint(sq, tri, any)", &bindings()).unwrap();
        assert_eq!(images(&got), vec![2]);
    }

    #[test]
    fn paper_composite_query() {
        // similar(sq) & !overlap(sq, tri, any):
        // squares appear in 0,1,2,4; overlap holds in 1 → {0,2,4}
        let base = world();
        let mut eng = QueryEngine::new(&base, EngineConfig::default());
        let got = eng.execute_str("similar(sq) & !overlap(sq, tri, any)", &bindings()).unwrap();
        assert_eq!(images(&got), vec![0, 2, 4]);
    }

    #[test]
    fn union_and_complement() {
        let base = world();
        let mut eng = QueryEngine::new(&base, EngineConfig::default());
        let got = eng
            .execute_str("contain(sq, tri, any) | overlap(sq, tri, any)", &bindings())
            .unwrap();
        assert_eq!(images(&got), vec![0, 1]);
        let got = eng.execute_str("!similar(sq)", &bindings()).unwrap();
        assert_eq!(images(&got), vec![3]);
    }

    #[test]
    fn plans_agree() {
        let base = world();
        let queries = [
            "contain(sq, tri, any)",
            "overlap(sq, tri, any)",
            "disjoint(sq, tri, any)",
            "contain(tri, sq, any)",
        ];
        for q in queries {
            let mut e1 = QueryEngine::new(
                &base,
                EngineConfig { strategy: TopoStrategy::SeedSmaller, ..Default::default() },
            );
            let mut e2 = QueryEngine::new(
                &base,
                EngineConfig { strategy: TopoStrategy::BothSides, ..Default::default() },
            );
            let r1 = e1.execute_str(q, &bindings()).unwrap();
            let r2 = e2.execute_str(q, &bindings()).unwrap();
            assert_eq!(images(&r1), images(&r2), "plans disagree on {q}");
            assert!(e1.stats().plan1_used > 0);
            assert!(e2.stats().plan2_used > 0);
        }
    }

    #[test]
    fn ordered_contain_is_directional() {
        let base = world();
        let mut eng = QueryEngine::new(&base, EngineConfig::default());
        // no triangle contains a square in this world
        let got = eng.execute_str("contain(tri, sq, any)", &bindings()).unwrap();
        assert!(got.is_empty(), "got {:?}", images(&got));
    }

    #[test]
    fn unbound_shape_rejected() {
        let base = world();
        let mut eng = QueryEngine::new(&base, EngineConfig::default());
        let err = eng.execute_str("similar(ghost)", &bindings()).unwrap_err();
        assert_eq!(err, QueryError::UnboundShape("ghost".to_string()));
    }

    #[test]
    fn cache_prevents_duplicate_matcher_runs() {
        let base = world();
        let mut eng = QueryEngine::new(&base, EngineConfig::default());
        let _ = eng
            .execute_str("similar(sq) & contain(sq, tri, any) & overlap(sq, tri, any)", &bindings())
            .unwrap();
        let st = eng.stats();
        // sq and tri each evaluated once; later uses served by the cache
        assert_eq!(st.similar_evaluated, 2, "stats: {st:?}");
        assert!(st.similar_cached >= 2);
    }

    #[test]
    fn estimator_learns_from_queries() {
        let base = world();
        let mut eng = QueryEngine::new(&base, EngineConfig::default());
        let before = eng.estimator().c();
        for _ in 0..5 {
            let _ = eng.execute_str("similar(sq)", &bindings()).unwrap();
        }
        assert_eq!(eng.estimator().observations(), 5);
        let after = eng.estimator().c();
        assert!(after != before, "estimator never updated");
    }

    #[test]
    fn explain_orders_by_selectivity() {
        let base = world();
        let eng = QueryEngine::new(&base, EngineConfig::default());
        let expr = crate::parser::parse("similar(sq) & !overlap(sq, tri, any) & similar(tri)")
            .unwrap();
        let plan = eng.explain(&expr, &bindings()).unwrap();
        assert_eq!(plan.conjuncts.len(), 1);
        let steps = &plan.conjuncts[0];
        assert_eq!(steps.len(), 3);
        // estimates ascending
        for w in steps.windows(2) {
            assert!(w[0].estimate <= w[1].estimate);
        }
        // the complemented operator is present with a complement-sized
        // estimate (|DB| − est of the operator)
        let neg = steps.iter().find(|s| s.negated).expect("negated step present");
        assert!(neg.estimate >= 0.0);
        // pretty-printer includes the ordering
        let text = plan.to_string();
        assert!(text.contains("conjunct 0"), "{text}");
        assert!(text.contains("NOT overlap"), "{text}");
    }

    #[test]
    fn explain_rejects_unbound() {
        let base = world();
        let eng = QueryEngine::new(&base, EngineConfig::default());
        let expr = crate::parser::parse("similar(ghost)").unwrap();
        assert!(eng.explain(&expr, &bindings()).is_err());
    }

    #[test]
    fn planner_matches_naive_evaluator_on_random_queries() {
        use crate::algebra::Op;
        use rand::prelude::*;
        let base = world();
        let binds = bindings();
        let mut rng = StdRng::seed_from_u64(31);
        let names = ["sq", "tri"];
        // random expression generator over the bound names
        fn gen(rng: &mut StdRng, names: &[&str], depth: usize) -> Expr {
            let pick = |rng: &mut StdRng, names: &[&str]| {
                names[rng.random_range(0..names.len())].to_string()
            };
            if depth == 0 || rng.random_bool(0.4) {
                if rng.random_bool(0.5) {
                    Expr::Op(Op::Similar(pick(rng, names)))
                } else {
                    let rel = match rng.random_range(0..3) {
                        0 => TopoRel::Contain,
                        1 => TopoRel::Overlap,
                        _ => TopoRel::Disjoint,
                    };
                    Expr::topo(rel, pick(rng, names), pick(rng, names), AngleSpec::Any)
                }
            } else {
                let a = gen(rng, names, depth - 1);
                let b = gen(rng, names, depth - 1);
                match rng.random_range(0..3) {
                    0 => a.and(b),
                    1 => a.or(b),
                    _ => a.not(),
                }
            }
        }
        for _ in 0..40 {
            let expr = gen(&mut rng, &names, 3);
            let mut planned_engine = QueryEngine::new(&base, EngineConfig::default());
            let mut naive_engine = QueryEngine::new(&base, EngineConfig::default());
            let planned = planned_engine.execute(&expr, &binds).unwrap();
            let naive = naive_engine.execute_naive(&expr, &binds).unwrap();
            assert_eq!(
                images(&planned),
                images(&naive),
                "planner diverged from reference on {expr}"
            );
        }
    }

    #[test]
    fn angle_constrained_overlap() {
        // two overlapping flat rectangles at ~90°, queried with the right
        // and the wrong angle
        let mut b = ShapeBaseBuilder::new();
        let r1 = Polyline::closed(vec![p(0.0, 0.0), p(6.0, 0.0), p(6.0, 1.0), p(0.0, 1.0)])
            .unwrap();
        let r2 = Polyline::closed(vec![p(2.0, -3.0), p(3.0, -3.0), p(3.0, 3.0), p(2.0, 3.0)])
            .unwrap();
        b.add_shape(ImageId(0), r1.clone());
        b.add_shape(ImageId(0), r2);
        let base = b.build(0.0, Backend::RangeTree);
        let mut eng = QueryEngine::new(&base, EngineConfig::default());
        let mut binds = HashMap::new();
        binds.insert("r".to_string(), r1);
        // diameters are diagonals: angle ≈ 90° ± 2·atan(1/6)-ish; use a
        // generous tolerance for the positive case, a tiny one off-axis
        // for the negative case.
        let hit = eng.execute_str("overlap(r, r, 1.5708~0.6)", &binds).unwrap();
        assert_eq!(images(&hit), vec![0]);
        let miss = eng.execute_str("overlap(r, r, 0.3~0.05)", &binds).unwrap();
        assert!(miss.is_empty());
    }
}
