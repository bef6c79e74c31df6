//! Geometric hashing over the lune (§3) — the approximate-matching
//! fallback used when envelope fattening finds nothing close.
//!
//! The lune (intersection of the unit disks centered at (0,0) and (1,0)) is
//! the locus of diameter-normalized vertices. It is split into four
//! quarters q₁..q₄; each quarter is covered by a family of k unit-circle
//! arcs at **equal area spacing**: the i-th arc of q₁ belongs to the circle
//! of radius 1 centered at `(xᵢ, −√(1−xᵢ²))`, with `xᵢ` solving
//!
//! ```text
//! E(x) = ∫₀^min(2x,1/2) ( √(1−(t−x)²) − √(1−x²) ) dt = (A₀/4)·(i/k)
//! ```
//!
//! `E` has the closed form used below; both `E` and `∂E/∂x` are continuous
//! on [0,1] (the paper's Figure 5), so the equation is solved by a
//! safeguarded-Newton gradient method. A shape hashes to the quadruple of
//! *characteristic curves* — per quarter, the curve minimizing the average
//! distance of the shape's vertices in that quarter.

use std::collections::HashMap;

use geosir_geom::numeric::solve_monotone;
use geosir_geom::{Point, Polyline};

use crate::approx::{IndexProbe, ProbeCursor, QuarterVals, SigBuckets};
use crate::ids::{CopyId, ImageId, ShapeId};
use crate::normalize::LUNE_AREA;
use crate::shapebase::ShapeBase;
use crate::similarity::{prepare_into, score_with, PreparedShape, ScoreKind};

/// Which quarter of the lune a (normalized) vertex falls in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Quarter {
    /// Upper-left: x < ½, y ≥ 0.
    Q1,
    /// Upper-right: x ≥ ½, y ≥ 0.
    Q2,
    /// Lower-left: x < ½, y < 0.
    Q3,
    /// Lower-right: x ≥ ½, y < 0.
    Q4,
}

impl Quarter {
    pub fn of(p: Point) -> Quarter {
        match (p.x < 0.5, p.y >= 0.0) {
            (true, true) => Quarter::Q1,
            (false, true) => Quarter::Q2,
            (true, false) => Quarter::Q3,
            (false, false) => Quarter::Q4,
        }
    }

    /// Map a point of this quarter into q₁ coordinates (the symmetry the
    /// paper exploits: x → 1−x for the right half, y → −y for the lower
    /// half).
    fn to_q1(self, p: Point) -> Point {
        match self {
            Quarter::Q1 => p,
            Quarter::Q2 => Point::new(1.0 - p.x, p.y),
            Quarter::Q3 => Point::new(p.x, -p.y),
            Quarter::Q4 => Point::new(1.0 - p.x, -p.y),
        }
    }

    pub fn index(self) -> usize {
        match self {
            Quarter::Q1 => 0,
            Quarter::Q2 => 1,
            Quarter::Q3 => 2,
            Quarter::Q4 => 3,
        }
    }
}

/// The paper's `E(x)`: area between the arc of the circle centered at
/// `(x, −√(1−x²))` and the x-axis, for `t ∈ [0, min(2x, ½)]`. Closed form.
pub fn lune_e(x: f64) -> f64 {
    let x = x.clamp(0.0, 1.0);
    let m = (2.0 * x).min(0.5);
    if m <= 0.0 {
        return 0.0;
    }
    // ∫ √(1−(t−x)²) dt = F(t−x) with F(w) = (w√(1−w²) + asin w)/2
    let f = |w: f64| {
        let w: f64 = w.clamp(-1.0, 1.0);
        0.5 * (w * (1.0 - w * w).max(0.0).sqrt() + w.asin())
    };
    f(m - x) - f(-x) - m * (1.0 - x * x).max(0.0).sqrt()
}

/// `∂E/∂x`, by central differences (continuous on [0,1]; Figure 5 right).
pub fn lune_e_prime(x: f64) -> f64 {
    let h = 1e-6;
    let lo = (x - h).max(0.0);
    let hi = (x + h).min(1.0);
    (lune_e(hi) - lune_e(lo)) / (hi - lo)
}

/// The equal-area family of k hash curves for one quarter (shared by all
/// four through the lune symmetries).
#[derive(Debug, Clone)]
pub struct CurveFamily {
    /// `xs[i-1]` = the xᵢ of curve i (1-based curve ids; 0 = "empty").
    xs: Vec<f64>,
}

impl CurveFamily {
    /// Solve the k placement equations. Panics for `k = 0`.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one curve");
        let quarter_area = LUNE_AREA / 4.0;
        let xs = (1..=k)
            .map(|i| {
                let target = quarter_area * i as f64 / k as f64;
                solve_monotone(lune_e, target, 0.0, 1.0, 1e-12)
                    .expect("E is monotone onto [0, A0/4]")
            })
            .collect();
        CurveFamily { xs }
    }

    pub fn k(&self) -> usize {
        self.xs.len()
    }

    /// The solved abscissa of curve `i` (1-based).
    pub fn x_of(&self, i: u16) -> f64 {
        self.xs[(i - 1) as usize]
    }

    /// Center of the (q₁-coordinates) circle carrying curve `i`.
    pub fn center(&self, i: u16) -> Point {
        let x = self.x_of(i);
        Point::new(x, -(1.0 - x * x).max(0.0).sqrt())
    }

    /// Distance from a q₁-coordinates point to curve `i` (radial distance
    /// to the carrying unit circle).
    pub fn dist(&self, i: u16, p: Point) -> f64 {
        (p.dist(self.center(i)) - 1.0).abs()
    }

    /// Average distance of `pts` (q₁ coordinates) to curve `i`.
    fn avg_dist(&self, i: u16, pts: &[Point]) -> f64 {
        pts.iter().map(|&p| self.dist(i, p)).sum::<f64>() / pts.len() as f64
    }

    /// Characteristic curve by ternary search, exploiting the unimodality
    /// of the average distance in the continuous curve parameter (§3). The
    /// discrete argmin can sit one step off a plateau; we polish with a
    /// small neighborhood check.
    fn characteristic_ternary(&self, pts: &[Point]) -> u16 {
        let (mut lo, mut hi) = (1i64, self.k() as i64);
        while hi - lo > 2 {
            let m1 = lo + (hi - lo) / 3;
            let m2 = hi - (hi - lo) / 3;
            if self.avg_dist(m1 as u16, pts) <= self.avg_dist(m2 as u16, pts) {
                hi = m2 - 1;
            } else {
                lo = m1 + 1;
            }
        }
        let mut best = lo as u16;
        let mut best_d = self.avg_dist(best, pts);
        let from = (lo - 1).max(1) as u16;
        let to = ((hi + 1).min(self.k() as i64)) as u16;
        for i in from..=to {
            let d = self.avg_dist(i, pts);
            if d < best_d {
                best = i;
                best_d = d;
            }
        }
        best
    }
}

/// Clamp a normalized vertex into the lune; §3: vertices of α-diameter
/// copies that fall outside are "treated as if they are located on the
/// boundary of the lune".
fn clamp_to_lune(mut p: Point) -> Point {
    let c0 = Point::ORIGIN;
    let c1 = Point::new(1.0, 0.0);
    for _ in 0..4 {
        let d0 = p.dist(c0);
        if d0 > 1.0 {
            p = c0 + (p - c0) / d0;
        }
        let d1 = p.dist(c1);
        if d1 > 1.0 {
            p = c1 + (p - c1) / d1;
        }
    }
    p
}

/// A shape's hash signature: the characteristic curve per quarter
/// (1-based; 0 = no vertices in that quarter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Signature(pub [u16; 4]);

/// The four curves packed into one `u64`: a single write, which the
/// signature index's hasher mixes in one multiply.
impl std::hash::Hash for Signature {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let [a, b, c, d] = self.0.map(u64::from);
        state.write_u64(a | b << 16 | c << 32 | d << 48);
    }
}

impl Signature {
    /// Chebyshev distance between signatures over the quarters where both
    /// sides have vertices (0 = empty quarter is ignored).
    pub fn curve_distance(&self, other: &Signature) -> u16 {
        let mut d = 0u16;
        for q in 0..4 {
            let (a, b) = (self.0[q], other.0[q]);
            if a != 0 && b != 0 {
                d = d.max(a.abs_diff(b));
            }
        }
        d
    }
}

/// The hash index over a shape base.
///
/// ```
/// use geosir_core::hashing::GeometricHash;
/// use geosir_core::ids::ImageId;
/// use geosir_core::normalize::normalize_about_diameter;
/// use geosir_core::shapebase::ShapeBaseBuilder;
/// use geosir_geom::rangesearch::Backend;
/// use geosir_geom::{Point, Polyline};
///
/// let mut b = ShapeBaseBuilder::new();
/// let tri = Polyline::closed(vec![
///     Point::new(0.0, 0.0), Point::new(4.0, 0.0), Point::new(0.0, 3.0),
/// ]).unwrap();
/// b.add_shape(ImageId(0), tri.clone());
/// let base = b.build(0.1, Backend::RangeTree);
///
/// // the paper's k = 50 curves per lune quarter
/// let hash = GeometricHash::build(&base, 50);
/// let (norm, _) = normalize_about_diameter(&tri).unwrap();
/// let approx = hash.retrieve(&base, &norm.shape, 1, 3);
/// assert_eq!(approx[0].image, ImageId(0));
/// ```
pub struct GeometricHash {
    family: CurveFamily,
    buckets: SigBuckets,
}

/// Reusable scratch for [`GeometricHash::retrieve_with`]: probe cursor,
/// quarter buffers, prepared query/candidate indexes, and the candidate
/// set — everything the per-call convenience API used to allocate.
#[derive(Default)]
pub struct HashScratch {
    probe: IndexProbe,
    vals: QuarterVals,
    quarters: [Vec<Point>; 4],
    seen: Vec<CopyId>,
    prepared: Option<PreparedShape>,
    back: Option<PreparedShape>,
    best: HashMap<ShapeId, (f64, CopyId)>,
}

/// One approximate match from hashing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HashMatch {
    pub shape: ShapeId,
    pub image: ImageId,
    pub copy: CopyId,
    pub score: f64,
}

impl GeometricHash {
    /// Hash every copy of `base` with a family of `k` curves per quarter.
    pub fn build(base: &ShapeBase, k: usize) -> Self {
        let family = CurveFamily::new(k);
        let buckets = SigBuckets::build(&family, base);
        GeometricHash { family, buckets }
    }

    pub fn family(&self) -> &CurveFamily {
        &self.family
    }

    /// The underlying signature index.
    pub fn index(&self) -> &SigBuckets {
        &self.buckets
    }

    pub fn num_buckets(&self) -> usize {
        self.buckets.num_buckets()
    }

    /// Average copies per occupied bucket (the paper tunes k so this stays
    /// small).
    pub fn avg_bucket_size(&self) -> f64 {
        self.buckets.avg_bucket_size()
    }

    /// Iterate over (signature, copies) buckets — the storage layouts sort
    /// records by these signatures (§4.1).
    pub fn buckets(&self) -> impl Iterator<Item = (&Signature, &[CopyId])> {
        self.buckets.iter()
    }

    /// Signature of an arbitrary (diameter-normalized) shape.
    pub fn signature(&self, normalized: &Polyline) -> Signature {
        signature_of(&self.family, normalized)
    }

    /// Approximate retrieval: collect shapes whose signature is within
    /// curve distance `radius` of the query's (expanding from 0), score
    /// them with `h_avg` and return the best `k_best` shapes.
    ///
    /// Convenience wrapper allocating a fresh [`HashScratch`]; loops
    /// should hold one and call [`GeometricHash::retrieve_with`].
    pub fn retrieve(
        &self,
        base: &ShapeBase,
        normalized_query: &Polyline,
        k_best: usize,
        max_radius: u16,
    ) -> Vec<HashMatch> {
        let mut scratch = HashScratch::default();
        let mut out = Vec::new();
        self.retrieve_with(&mut scratch, base, normalized_query, k_best, max_radius, &mut out);
        out
    }

    /// [`GeometricHash::retrieve`] against caller-owned scratch. The ring
    /// probe is incremental — expanding the radius visits only the new
    /// shell, never re-collecting 0..r — and the prepared query plus the
    /// per-candidate reverse index live in `scratch`, so a warm call
    /// allocates nothing beyond result growth.
    pub fn retrieve_with(
        &self,
        scratch: &mut HashScratch,
        base: &ShapeBase,
        normalized_query: &Polyline,
        k_best: usize,
        max_radius: u16,
        out: &mut Vec<HashMatch>,
    ) {
        out.clear();
        let HashScratch { probe, vals, quarters, seen, prepared, back, best } = scratch;
        let sig = signature_of_with(&self.family, normalized_query.points(), quarters);
        let query = normalized_query.points().iter().copied();
        let prepared = prepare_into(prepared, query, normalized_query.is_closed());
        probe.cursor = ProbeCursor::Fresh;
        probe.scan.clear();
        seen.clear();
        let kf = self.family.k() as u16;
        let mut probed = 0u64;
        // Expand the curve radius ring by ring until enough candidates
        // are collected. `max_radius` is a soft preference: an
        // approximate-match fallback must return *something*, so
        // expansion continues past it while the candidate set is still
        // empty (up to the whole family).
        for radius in 0..=kf {
            self.buckets.collect_ring(kf, &sig, radius, probe, vals, seen, &mut probed);
            if seen.len() >= k_best || (radius >= max_radius && !seen.is_empty()) {
                break;
            }
        }
        best.clear();
        for &cid in seen.iter() {
            let copy = base.copy(cid);
            let s = score_with(ScoreKind::DiscreteSymmetric, &copy.normalized, prepared, back);
            let e = best.entry(copy.shape_id).or_insert((f64::INFINITY, cid));
            if s < e.0 {
                *e = (s, cid);
            }
        }
        out.extend(best.iter().map(|(&shape, &(s, copy))| HashMatch {
            shape,
            image: base.copy(copy).image,
            copy,
            score: s,
        }));
        out.sort_by(|a, b| a.score.partial_cmp(&b.score).unwrap().then(a.shape.cmp(&b.shape)));
        out.truncate(k_best);
    }
}

/// Signature of a diameter-normalized shape under `family`.
pub fn signature_of(family: &CurveFamily, normalized: &Polyline) -> Signature {
    let mut per_quarter: [Vec<Point>; 4] = Default::default();
    signature_of_with(family, normalized.points(), &mut per_quarter)
}

/// [`signature_of`] against caller-owned quarter buffers (cleared and
/// refilled) — the zero-allocation form used at insert time and on the
/// serve path.
pub fn signature_of_with(
    family: &CurveFamily,
    normalized: &[Point],
    per_quarter: &mut [Vec<Point>; 4],
) -> Signature {
    for q in per_quarter.iter_mut() {
        q.clear();
    }
    for &p in normalized {
        let mut p = clamp_to_lune(p);
        // The normalization anchors carry no information: every copy has
        // them, and every hash curve passes through them (each family
        // circle contains (0,0), hence its mirror contains (1,0)), so a
        // quarter whose only vertex is an anchor would pick its curve off
        // a flat plateau — pure fp noise. Skip them.
        if p.dist(Point::ORIGIN) < 1e-9 || p.dist(Point::new(1.0, 0.0)) < 1e-9 {
            continue;
        }
        // Snap coordinates sitting on a quarter boundary so the quarter
        // classification — and hence the signature — is pose-stable.
        if p.y.abs() < 1e-9 {
            p.y = 0.0;
        }
        if (p.x - 0.5).abs() < 1e-9 {
            p.x = 0.5;
        }
        let q = Quarter::of(p);
        per_quarter[q.index()].push(q.to_q1(p));
    }
    let mut sig = [0u16; 4];
    for (qi, pts) in per_quarter.iter().enumerate() {
        if !pts.is_empty() {
            sig[qi] = family.characteristic_ternary(pts);
        }
    }
    Signature(sig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapebase::ShapeBaseBuilder;
    use geosir_geom::rangesearch::Backend;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// Characteristic curve of a vertex set by exact linear scan — the
    /// oracle `characteristic_ternary` is checked against.
    fn characteristic_linear(fam: &CurveFamily, pts: &[Point]) -> u16 {
        (1..=fam.k() as u16)
            .min_by(|&a, &b| fam.avg_dist(a, pts).partial_cmp(&fam.avg_dist(b, pts)).unwrap())
            .expect("k >= 1")
    }

    #[test]
    fn e_endpoints_and_monotonicity() {
        assert!(lune_e(0.0).abs() < 1e-12);
        assert!((lune_e(1.0) - LUNE_AREA / 4.0).abs() < 1e-9, "E(1) = {}", lune_e(1.0));
        let mut prev = -1.0;
        for i in 0..=100 {
            let v = lune_e(i as f64 / 100.0);
            assert!(v >= prev - 1e-12, "E not monotone at {i}");
            prev = v;
        }
    }

    #[test]
    fn e_matches_numeric_integral() {
        for &x in &[0.05f64, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9] {
            let m = (2.0 * x).min(0.5);
            let numeric = geosir_geom::numeric::integrate(
                |t| (1.0 - (t - x) * (t - x)).max(0.0).sqrt() - (1.0 - x * x).sqrt(),
                0.0,
                m,
                1e-12,
            );
            assert!((lune_e(x) - numeric).abs() < 1e-9, "x={x}: {} vs {numeric}", lune_e(x));
        }
    }

    #[test]
    fn e_prime_continuous_and_nonnegative() {
        // Figure 5 (right): ∂E/∂x continuous on [0,1]; in particular no jump
        // at x = 0.25 where the integration limit switches.
        for i in 0..=200 {
            let x = i as f64 / 200.0;
            assert!(lune_e_prime(x) >= -1e-9, "E' negative at {x}");
        }
        let left = lune_e_prime(0.2499);
        let right = lune_e_prime(0.2501);
        assert!((left - right).abs() < 1e-3, "E' jumps at 0.25: {left} vs {right}");
    }

    #[test]
    fn family_has_equal_area_spacing() {
        let fam = CurveFamily::new(50);
        assert_eq!(fam.k(), 50);
        for i in 1..=50u16 {
            let want = (LUNE_AREA / 4.0) * i as f64 / 50.0;
            assert!((lune_e(fam.x_of(i)) - want).abs() < 1e-9, "curve {i} misplaced");
        }
        // strictly increasing xs, last lands on 1
        for i in 1..50u16 {
            assert!(fam.x_of(i) < fam.x_of(i + 1));
        }
        assert!((fam.x_of(50) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn curves_pass_through_origin() {
        // each q1 circle has radius 1 and passes through (0,0)
        let fam = CurveFamily::new(10);
        for i in 1..=10u16 {
            assert!((fam.center(i).dist(Point::ORIGIN) - 1.0).abs() < 1e-9);
            assert!(fam.dist(i, Point::ORIGIN) < 1e-9);
        }
    }

    #[test]
    fn quarters_partition_and_fold() {
        assert_eq!(Quarter::of(p(0.2, 0.3)), Quarter::Q1);
        assert_eq!(Quarter::of(p(0.8, 0.3)), Quarter::Q2);
        assert_eq!(Quarter::of(p(0.2, -0.3)), Quarter::Q3);
        assert_eq!(Quarter::of(p(0.8, -0.3)), Quarter::Q4);
        for q in [Quarter::Q1, Quarter::Q2, Quarter::Q3, Quarter::Q4] {
            let folded = q.to_q1(match q {
                Quarter::Q1 => p(0.2, 0.3),
                Quarter::Q2 => p(0.8, 0.3),
                Quarter::Q3 => p(0.2, -0.3),
                Quarter::Q4 => p(0.8, -0.3),
            });
            assert!(folded.almost_eq(p(0.2, 0.3)));
        }
    }

    #[test]
    fn clamp_is_identity_inside_and_projects_outside() {
        let inside = p(0.5, 0.3);
        assert!(clamp_to_lune(inside).almost_eq(inside));
        let out = clamp_to_lune(p(3.0, 4.0));
        assert!(out.dist(Point::ORIGIN) <= 1.0 + 1e-9);
        assert!(out.dist(p(1.0, 0.0)) <= 1.0 + 1e-9);
    }

    #[test]
    fn ternary_matches_linear_scan() {
        let fam = CurveFamily::new(50);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..50 {
            // cluster of lune points around a random interior location
            let cx = rng.random_range(0.05..0.45);
            let cy = rng.random_range(0.05..0.4);
            let pts: Vec<Point> = (0..8)
                .map(|_| {
                    clamp_to_lune(p(
                        cx + rng.random_range(-0.03..0.03),
                        (cy + rng.random_range(-0.03f64..0.03)).max(0.0),
                    ))
                })
                .collect();
            let lin = characteristic_linear(&fam, &pts);
            let ter = fam.characteristic_ternary(&pts);
            // allow a tie within numerical noise
            let dl = fam.avg_dist(lin, &pts);
            let dt = fam.avg_dist(ter, &pts);
            assert!(
                (dl - dt).abs() < 1e-9,
                "ternary picked {ter} (d={dt}), linear {lin} (d={dl})"
            );
        }
    }

    fn demo_base() -> crate::shapebase::ShapeBase {
        let mut b = ShapeBaseBuilder::new();
        let shapes = vec![
            Polyline::closed(vec![p(0.0, 0.0), p(4.0, 0.0), p(0.0, 3.0)]).unwrap(),
            Polyline::closed(vec![p(0.0, 0.0), p(2.0, 0.0), p(2.0, 2.0), p(0.0, 2.0)]).unwrap(),
            Polyline::closed(vec![p(0.0, 0.0), p(5.0, 0.0), p(5.0, 1.0), p(0.0, 1.0)]).unwrap(),
            Polyline::closed(vec![p(0.0, 0.0), p(2.0, 0.0), p(2.0, 2.0), p(1.0, 3.0), p(0.0, 2.0)])
                .unwrap(),
        ];
        for (i, s) in shapes.into_iter().enumerate() {
            b.add_shape(ImageId(i as u32), s);
        }
        b.build(0.1, Backend::RangeTree)
    }

    #[test]
    fn hash_retrieval_finds_the_source_shape() {
        let base = demo_base();
        let gh = GeometricHash::build(&base, 50);
        for (sid, src) in base.sources() {
            let (c, _) = crate::normalize::normalize_about_diameter(&src.shape).unwrap();
            let got = gh.retrieve(&base, &c.shape, 1, 3);
            assert_eq!(got[0].shape, sid, "hash retrieval missed shape {sid}");
            assert!(got[0].score < 1e-9);
        }
    }

    #[test]
    fn signatures_deterministic() {
        let base = demo_base();
        let gh = GeometricHash::build(&base, 50);
        let (c, _) = crate::normalize::normalize_about_diameter(&base.source(ShapeId(1)).shape)
            .unwrap();
        let s1 = gh.signature(&c.shape);
        let s2 = gh.signature(&c.shape);
        assert_eq!(s1, s2);
        assert_eq!(s1.curve_distance(&s2), 0);
    }

    #[test]
    fn bucket_stats_sane() {
        let base = demo_base();
        let gh = GeometricHash::build(&base, 50);
        assert!(gh.num_buckets() >= 1);
        assert!(gh.avg_bucket_size() >= 1.0);
        assert!(gh.avg_bucket_size() <= base.num_copies() as f64);
        let total: usize = gh.buckets().map(|(_, v)| v.len()).sum();
        assert_eq!(total, base.num_copies());
    }

    #[test]
    fn probe_enumeration_matches_scan() {
        // build a base big enough that the enumeration path triggers
        let mut b = ShapeBaseBuilder::new();
        let mut rng = StdRng::seed_from_u64(17);
        for i in 0..200u32 {
            let n = rng.random_range(5..12);
            let pts: Vec<Point> = (0..n)
                .map(|j| {
                    let t = 2.0 * std::f64::consts::PI * j as f64 / n as f64;
                    let r = rng.random_range(0.4..1.0);
                    p(r * t.cos(), r * t.sin())
                })
                .collect();
            b.add_shape(ImageId(i), Polyline::closed(pts).unwrap());
        }
        let base = b.build(0.05, Backend::RangeTree);
        let gh = GeometricHash::build(&base, 50);
        let kf = gh.family().k() as u16;
        for (_, copy) in base.copies().take(20) {
            let sig = gh.signature(&copy.normalized);
            for radius in [0u16, 1, 2] {
                // scan oracle
                let mut want: Vec<CopyId> = Vec::new();
                for (s, copies) in gh.buckets() {
                    if sig.curve_distance(s) <= radius {
                        want.extend_from_slice(copies);
                    }
                }
                want.sort();
                let mut got = Vec::new();
                gh.index().collect_within(kf, &sig, radius, &mut got);
                got.sort();
                assert_eq!(got, want, "radius {radius}, sig {sig:?}");
            }
        }
    }

    #[test]
    fn scratch_reuse_is_equivalent_to_fresh_calls() {
        let base = demo_base();
        let gh = GeometricHash::build(&base, 50);
        let mut scratch = HashScratch::default();
        let mut out = Vec::new();
        for (_, src) in base.sources() {
            let (c, _) = crate::normalize::normalize_about_diameter(&src.shape).unwrap();
            let fresh = gh.retrieve(&base, &c.shape, 3, 3);
            gh.retrieve_with(&mut scratch, &base, &c.shape, 3, 3, &mut out);
            assert_eq!(fresh.len(), out.len());
            for (a, b) in fresh.iter().zip(&out) {
                assert_eq!(a.shape, b.shape);
                assert!((a.score - b.score).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn ternary_matches_linear_scan_boundary_heavy() {
        // Clamped point sets: vertices projected onto the lune boundary
        // (the §3 rule for out-of-lune vertices) stress the plateau
        // handling of the ternary search.
        let fam = CurveFamily::new(50);
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..50 {
            let pts: Vec<Point> = (0..8)
                .map(|_| {
                    // well outside the lune, so every point lands on its
                    // boundary after clamping
                    let t = rng.random_range(0.0..std::f64::consts::PI);
                    let r = rng.random_range(1.2..3.0);
                    let q = clamp_to_lune(p(0.5 + r * t.cos(), r * t.sin()));
                    Quarter::of(q).to_q1(q)
                })
                .collect();
            let lin = characteristic_linear(&fam, &pts);
            let ter = fam.characteristic_ternary(&pts);
            let dl = fam.avg_dist(lin, &pts);
            let dt = fam.avg_dist(ter, &pts);
            assert!(
                (dl - dt).abs() < 1e-9,
                "boundary set: ternary picked {ter} (d={dt}), linear {lin} (d={dl})"
            );
        }
    }

    proptest! {
        /// `clamp_to_lune` is idempotent and always lands inside the lune
        /// (within fp tolerance), for points far outside as well as near
        /// the cusps.
        #[test]
        fn clamp_idempotent_and_inside(x in -5.0f64..6.0, y in -5.0f64..5.0) {
            let c = clamp_to_lune(p(x, y));
            prop_assert!(c.dist(Point::ORIGIN) <= 1.0 + 1e-9, "outside disk 0: {c:?}");
            prop_assert!(c.dist(p(1.0, 0.0)) <= 1.0 + 1e-9, "outside disk 1: {c:?}");
            let cc = clamp_to_lune(c);
            prop_assert!(cc.dist(c) < 1e-9, "not idempotent: {c:?} -> {cc:?}");
        }

        /// `curve_distance` is symmetric and zero on the diagonal.
        #[test]
        fn curve_distance_symmetric_and_self_zero(
            a in (0u16..60, 0u16..60, 0u16..60, 0u16..60),
            b in (0u16..60, 0u16..60, 0u16..60, 0u16..60),
        ) {
            let sa = Signature([a.0, a.1, a.2, a.3]);
            let sb = Signature([b.0, b.1, b.2, b.3]);
            prop_assert_eq!(sa.curve_distance(&sb), sb.curve_distance(&sa));
            prop_assert_eq!(sa.curve_distance(&sa), 0);
            prop_assert_eq!(sb.curve_distance(&sb), 0);
        }

        /// Signature stability: perturbing vertices slightly moves the
        /// characteristic curves by at most a few steps.
        #[test]
        fn signature_stable_under_noise(seed in 0u64..50) {
            let mut rng = StdRng::seed_from_u64(seed);
            let shape = Polyline::closed(vec![
                p(0.0, 0.0), p(4.0, 0.2), p(3.4, 2.0), p(1.0, 2.6),
            ]).unwrap();
            let fam_hash = {
                let mut b = ShapeBaseBuilder::new();
                b.add_shape(ImageId(0), shape.clone());
                let base = b.build(0.0, Backend::BruteForce);
                GeometricHash::build(&base, 50)
            };
            let (c, _) = crate::normalize::normalize_about_diameter(&shape).unwrap();
            let sig = fam_hash.signature(&c.shape);
            let noisy = shape.map_points(|q| p(
                q.x + rng.random_range(-0.01..0.01),
                q.y + rng.random_range(-0.01..0.01),
            ));
            let (cn, _) = crate::normalize::normalize_about_diameter(&noisy).unwrap();
            let sig_n = fam_hash.signature(&cn.shape);
            prop_assert!(sig.curve_distance(&sig_n) <= 4,
                "noise moved signature {:?} -> {:?}", sig, sig_n);
        }
    }
}
