//! Flat scan kernels: nearest-segment for small indexes, and the
//! point-in-triangle union filter for kd-tree leaf buckets.
//!
//! [`crate::segindex::SegmentIndex`] answers `min_i d(q, s_i)` — the inner
//! loop of every `h_avg` evaluation. For the shapes of the corpus (a dozen
//! to a few dozen edges) a branchless flat scan beats the AABB-tree descent:
//! no pointer chasing, no per-node bbox lower bounds, and the loop
//! vectorizes 4-wide with AVX2. Indexes with at most [`FLAT_MAX`] segments
//! therefore skip the tree build entirely and scan columns.
//!
//! Bit-identity contract: both kernels evaluate the *exact* floating-point
//! sequence of [`Segment::dist_sq_to_point`] —
//!
//! ```text
//! d   = b - a                      (precomputed per segment)
//! l2  = dx·dx + dy·dy              (precomputed per segment)
//! t   = l2 ≤ EPS² ? 0 : clamp((q-a)·d / l2, 0, 1)
//! c   = a + d·t
//! d²  = (cx-qx)² + (cy-qy)²
//! ```
//!
//! — with only exactly-rounded IEEE ops (add/sub/mul/div/min/max, no FMA),
//! so every lane's `d²` matches the scalar bits and the running minimum is
//! order-independent. Ties break to the lowest segment index in both
//! kernels. The parity tests at the bottom assert bitwise equality.

use crate::point::Point;
use crate::segment::Segment;
use crate::triangle::Triangle;

/// Largest segment count served by the flat scan; larger sets build the
/// AABB tree. 64 covers every corpus shape while keeping the scan strictly
/// cheaper than a tree descent plus its rebuild cost.
pub(crate) const FLAT_MAX: usize = 64;

/// Column (SoA) layout of a segment set for the vectorized kernel:
/// origin, direction and squared length per segment.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[derive(Debug, Default)]
pub(crate) struct SegColumns {
    pub ax: Vec<f64>,
    pub ay: Vec<f64>,
    pub dx: Vec<f64>,
    pub dy: Vec<f64>,
    pub l2: Vec<f64>,
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
impl SegColumns {
    pub fn fill(&mut self, segs: &[Segment]) {
        self.ax.clear();
        self.ay.clear();
        self.dx.clear();
        self.dy.clear();
        self.l2.clear();
        for s in segs {
            let d = s.dir();
            self.ax.push(s.a.x);
            self.ay.push(s.a.y);
            self.dx.push(d.x);
            self.dy.push(d.y);
            // Same expression as Vec2::norm_sq (dot with itself).
            self.l2.push(d.x * d.x + d.y * d.y);
        }
    }

    pub fn clear(&mut self) {
        self.ax.clear();
        self.ay.clear();
        self.dx.clear();
        self.dy.clear();
        self.l2.clear();
    }
}

/// Per-triangle constants of the reporting predicate every range-search
/// backend shares — `bbox(t).contains(p) && t.contains(p)`: the bounding
/// box, the three edge origins and deltas of [`Triangle::contains`]'s
/// `cross3` calls, and its tolerance — precomputed once per triangle so
/// the per-point work is four compares and three (sub, sub, mul, mul, sub)
/// chains.
#[derive(Debug, Clone)]
pub(crate) struct TriPre {
    pub min_x: f64,
    pub min_y: f64,
    pub max_x: f64,
    pub max_y: f64,
    pub ox: [f64; 3],
    pub oy: [f64; 3],
    pub ex: [f64; 3],
    pub ey: [f64; 3],
    pub tol: f64,
}

impl TriPre {
    pub fn of(t: &Triangle) -> TriPre {
        let v = [t.a, t.b, t.c];
        let bb = t.bbox();
        let mut pre = TriPre {
            min_x: bb.min.x,
            min_y: bb.min.y,
            max_x: bb.max.x,
            max_y: bb.max.y,
            ox: [0.0; 3],
            oy: [0.0; 3],
            ex: [0.0; 3],
            ey: [0.0; 3],
            tol: 0.0,
        };
        for k in 0..3 {
            let (o, n) = (v[k], v[(k + 1) % 3]);
            pre.ox[k] = o.x;
            pre.oy[k] = o.y;
            // Same subtraction as `cross3`'s `b - a` (Vec2 components).
            pre.ex[k] = n.x - o.x;
            pre.ey[k] = n.y - o.y;
        }
        // Exactly `Triangle::contains`'s tolerance expression.
        let longest = t.a.dist_sq(t.b).max(t.b.dist_sq(t.c)).max(t.c.dist_sq(t.a));
        pre.tol = crate::EPS * (1.0 + longest);
        pre
    }

    /// `bbox(t).contains(p) && t.contains(p)` over the precomputed
    /// constants, bit-identical to the two calls — the identity the AVX2
    /// lanes reproduce.
    #[inline]
    pub fn admits(&self, x: f64, y: f64) -> bool {
        if !(x >= self.min_x && x <= self.max_x && y >= self.min_y && y <= self.max_y) {
            return false;
        }
        let mut neg = false;
        let mut pos = false;
        for k in 0..3 {
            // cross3(o, n, p) = (n - o) × (p - o), same op order
            let d = self.ex[k] * (y - self.oy[k]) - self.ey[k] * (x - self.ox[k]);
            neg |= d < -self.tol;
            pos |= d > self.tol;
        }
        !(neg && pos)
    }
}

/// Scalar scan over `(index, segment)` pairs in ascending index order —
/// the whole set, or a nearest-edge grid cell's list of it: strict `<`
/// keeps the first (lowest-index) minimum. Returns `(segment index,
/// squared distance)`, `(0, ∞)` when nothing compares below ∞.
#[inline]
pub(crate) fn scan_scalar<'a>(
    edges: impl IntoIterator<Item = (u32, &'a Segment)>,
    q: Point,
) -> (u32, f64) {
    let mut best = (0u32, f64::INFINITY);
    for (i, s) in edges {
        let d2 = s.dist_sq_to_point(q);
        if d2 < best.1 {
            best = (i, d2);
        }
    }
    best
}

/// Runtime CPU check for the vectorized kernel (std caches the cpuid probe).
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline]
pub(crate) fn avx2_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
pub(crate) mod avx2 {
    use super::SegColumns;
    use crate::point::Point;
    use crate::segment::Segment;
    use crate::EPS;
    use std::arch::x86_64::*;

    /// 4-wide AVX2 flat scan over `cols`, scalar tail over `segs`.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support ([`super::avx2_available`]).
    /// `cols` must be the column layout of `segs` (equal lengths).
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn scan(cols: &SegColumns, segs: &[Segment], q: Point) -> (u32, f64) {
        let n = segs.len();
        debug_assert_eq!(cols.ax.len(), n);
        let qx = _mm256_set1_pd(q.x);
        let qy = _mm256_set1_pd(q.y);
        let one = _mm256_set1_pd(1.0);
        let zero = _mm256_setzero_pd();
        let eps2 = _mm256_set1_pd(EPS * EPS);
        let mut best_d2 = _mm256_set1_pd(f64::INFINITY);
        let mut best_ix = _mm256_set1_pd(-1.0);
        let mut i = 0usize;
        while i + 4 <= n {
            let ax = _mm256_loadu_pd(cols.ax.as_ptr().add(i));
            let ay = _mm256_loadu_pd(cols.ay.as_ptr().add(i));
            let dx = _mm256_loadu_pd(cols.dx.as_ptr().add(i));
            let dy = _mm256_loadu_pd(cols.dy.as_ptr().add(i));
            let l2 = _mm256_loadu_pd(cols.l2.as_ptr().add(i));
            // t = clamp(((q - a) · d) / l2, 0, 1); degenerate lanes → 0.
            let px = _mm256_sub_pd(qx, ax);
            let py = _mm256_sub_pd(qy, ay);
            let tnum = _mm256_add_pd(_mm256_mul_pd(px, dx), _mm256_mul_pd(py, dy));
            let raw = _mm256_div_pd(tnum, l2);
            let t = _mm256_max_pd(_mm256_min_pd(raw, one), zero);
            let deg = _mm256_cmp_pd(l2, eps2, _CMP_LE_OQ);
            let t = _mm256_andnot_pd(deg, t);
            // c = a + d·t; d² = (c - q)·(c - q). No FMA: Rust scalar code
            // does not contract, so neither may we.
            let cx = _mm256_add_pd(ax, _mm256_mul_pd(dx, t));
            let cy = _mm256_add_pd(ay, _mm256_mul_pd(dy, t));
            let ex = _mm256_sub_pd(cx, qx);
            let ey = _mm256_sub_pd(cy, qy);
            let d2 = _mm256_add_pd(_mm256_mul_pd(ex, ex), _mm256_mul_pd(ey, ey));
            // Strict < keeps the earlier block on ties (lower index).
            let lt = _mm256_cmp_pd(d2, best_d2, _CMP_LT_OQ);
            best_d2 = _mm256_blendv_pd(best_d2, d2, lt);
            let ix = _mm256_set_pd((i + 3) as f64, (i + 2) as f64, (i + 1) as f64, i as f64);
            best_ix = _mm256_blendv_pd(best_ix, ix, lt);
            i += 4;
        }
        let mut d2s = [0.0f64; 4];
        let mut ixs = [0.0f64; 4];
        _mm256_storeu_pd(d2s.as_mut_ptr(), best_d2);
        _mm256_storeu_pd(ixs.as_mut_ptr(), best_ix);
        // Lexicographic lane reduction: min d², ties to lowest index —
        // matches the scalar scan's first-minimum-wins exactly.
        let mut best = (u32::MAX, f64::INFINITY);
        for l in 0..4 {
            if ixs[l] < 0.0 {
                continue;
            }
            let ix = ixs[l] as u32;
            if d2s[l] < best.1 || (d2s[l] == best.1 && ix < best.0) {
                best = (ix, d2s[l]);
            }
        }
        // Tail: the scalar formula is the identity the lanes replicate.
        for (j, s) in segs.iter().enumerate().skip(i) {
            let d2 = s.dist_sq_to_point(q);
            if d2 < best.1 {
                best = (j as u32, d2);
            }
        }
        best
    }

    /// 4-wide point-in-triangle-union filter over one kd-tree leaf's
    /// columns: appends `ids[i]` for every point admitted (bounding box
    /// and boundary inclusive) by **any** of the `active` triangles. Each
    /// lane replicates [`super::TriPre::admits`] exactly — four box
    /// compares, then three `cross3` sign tests against the precomputed
    /// tolerance, no FMA — so the report matches the scalar filter
    /// bit-for-bit.
    ///
    /// # Safety
    /// Caller must have verified AVX2 support ([`super::avx2_available`]).
    /// `xs`, `ys` and `ids` must have equal lengths; every `active` index
    /// must be in bounds for `pre`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn tri_union_filter(
        xs: &[f64],
        ys: &[f64],
        ids: &[u32],
        pre: &[super::TriPre],
        active: &[u32],
        out: &mut Vec<u32>,
    ) {
        let n = xs.len();
        assert!(ys.len() == n && ids.len() == n, "leaf columns of unequal length");
        let all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
        let mut i = 0usize;
        while i + 4 <= n {
            // SAFETY: i + 4 <= n = xs.len() = ys.len(), asserted above.
            let px = _mm256_loadu_pd(xs.as_ptr().add(i));
            let py = _mm256_loadu_pd(ys.as_ptr().add(i));
            let mut inside = _mm256_setzero_pd();
            for &k in active {
                // SAFETY: the caller guarantees `k` is in bounds for `pre`.
                let t = pre.get_unchecked(k as usize);
                let in_box = _mm256_and_pd(
                    _mm256_and_pd(
                        _mm256_cmp_pd(px, _mm256_set1_pd(t.min_x), _CMP_GE_OQ),
                        _mm256_cmp_pd(px, _mm256_set1_pd(t.max_x), _CMP_LE_OQ),
                    ),
                    _mm256_and_pd(
                        _mm256_cmp_pd(py, _mm256_set1_pd(t.min_y), _CMP_GE_OQ),
                        _mm256_cmp_pd(py, _mm256_set1_pd(t.max_y), _CMP_LE_OQ),
                    ),
                );
                if _mm256_movemask_pd(in_box) == 0 {
                    continue;
                }
                let ntol = _mm256_set1_pd(-t.tol);
                let ptol = _mm256_set1_pd(t.tol);
                let mut neg = _mm256_setzero_pd();
                let mut pos = _mm256_setzero_pd();
                for e in 0..3 {
                    // cross3: (n - o) × (p - o), identical op order to the
                    // scalar predicate (sub, sub, mul, mul, sub)
                    let dx = _mm256_sub_pd(px, _mm256_set1_pd(t.ox[e]));
                    let dy = _mm256_sub_pd(py, _mm256_set1_pd(t.oy[e]));
                    let d = _mm256_sub_pd(
                        _mm256_mul_pd(_mm256_set1_pd(t.ex[e]), dy),
                        _mm256_mul_pd(_mm256_set1_pd(t.ey[e]), dx),
                    );
                    neg = _mm256_or_pd(neg, _mm256_cmp_pd(d, ntol, _CMP_LT_OQ));
                    pos = _mm256_or_pd(pos, _mm256_cmp_pd(d, ptol, _CMP_GT_OQ));
                }
                // admits = in_box && !(has_neg && has_pos)
                let contains = _mm256_andnot_pd(_mm256_and_pd(neg, pos), all);
                inside = _mm256_or_pd(inside, _mm256_and_pd(in_box, contains));
                if _mm256_movemask_pd(inside) == 0xF {
                    break; // all four lanes already in the union
                }
            }
            let m = _mm256_movemask_pd(inside);
            for l in 0..4 {
                if m & (1 << l) != 0 {
                    out.push(ids[i + l]);
                }
            }
            i += 4;
        }
        // Scalar tail over the same precomputed constants.
        for j in i..n {
            let (x, y) = (xs[j], ys[j]);
            // SAFETY: the caller guarantees `k` is in bounds for `pre`.
            if active.iter().any(|&k| pre.get_unchecked(k as usize).admits(x, y)) {
                out.push(ids[j]);
            }
        }
    }
}

#[cfg(all(test, feature = "simd", target_arch = "x86_64"))]
mod parity_tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn random_segs(rng: &mut StdRng, n: usize) -> Vec<Segment> {
        (0..n)
            .map(|k| {
                let a = Point::new(rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0));
                // every 7th segment degenerate: the EPS² lane mask must
                // reproduce the scalar early-out bit-for-bit
                let b = if k % 7 == 3 {
                    a
                } else {
                    Point::new(rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0))
                };
                Segment::new(a, b)
            })
            .collect()
    }

    /// AVX2 and scalar kernels agree bit-for-bit (distance *and* argmin)
    /// on random segment sets including degenerate segments.
    #[test]
    fn simd_scan_bitwise_parity_with_scalar() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x5E6_51AD);
        let mut cols = SegColumns::default();
        for round in 0..300 {
            let n = rng.random_range(1usize..=FLAT_MAX);
            let segs = random_segs(&mut rng, n);
            cols.fill(&segs);
            for _ in 0..8 {
                let q = Point::new(rng.random_range(-8.0..8.0), rng.random_range(-8.0..8.0));
                let (si, sd2) = scan_scalar((0..).zip(&segs), q);
                let (vi, vd2) = unsafe { avx2::scan(&cols, &segs, q) };
                assert_eq!(
                    sd2.to_bits(),
                    vd2.to_bits(),
                    "round {round}: scalar {sd2:e} vs simd {vd2:e} (n={n}, q={q})"
                );
                assert_eq!(si, vi, "round {round}: argmin diverged (n={n}, q={q})");
            }
        }
    }

    /// The point-in-triangle leaf kernel agrees with the scalar
    /// `Triangle::contains` union filter on random points and thin
    /// slivers (the ring covers' triangle shape), including boundary
    /// points placed exactly on edges.
    #[test]
    fn simd_tri_filter_parity_with_scalar() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        let mut rng = StdRng::seed_from_u64(0x7121_F17E);
        for round in 0..200 {
            let n = rng.random_range(1usize..48);
            let mut xs: Vec<f64> = (0..n).map(|_| rng.random_range(-2.0..2.0)).collect();
            let mut ys: Vec<f64> = (0..n).map(|_| rng.random_range(-2.0..2.0)).collect();
            let ntris = rng.random_range(1usize..6);
            let tris: Vec<Triangle> = (0..ntris)
                .map(|_| {
                    let a = Point::new(rng.random_range(-2.0..2.0), rng.random_range(-2.0..2.0));
                    let b = Point::new(a.x + rng.random_range(-2.0..2.0), a.y + rng.random_range(-0.1..0.1));
                    let c = Point::new(a.x + rng.random_range(-0.1..0.1), a.y + rng.random_range(-2.0..2.0));
                    Triangle::new(a, b, c)
                })
                .collect();
            // a few points exactly on triangle vertices/edge midpoints
            for t in tris.iter().take(2) {
                xs.push(t.a.x);
                ys.push(t.a.y);
                xs.push((t.b.x + t.c.x) / 2.0);
                ys.push((t.b.y + t.c.y) / 2.0);
            }
            let ids: Vec<u32> = (0..xs.len() as u32).collect();
            let pre: Vec<TriPre> = tris.iter().map(TriPre::of).collect();
            let active: Vec<u32> = (0..tris.len() as u32).collect();
            let mut got = Vec::new();
            unsafe { avx2::tri_union_filter(&xs, &ys, &ids, &pre, &active, &mut got) };
            let want: Vec<u32> = (0..xs.len())
                .filter(|&i| {
                    let p = Point::new(xs[i], ys[i]);
                    tris.iter().any(|t| t.bbox().contains(p) && t.contains(p))
                })
                .map(|i| i as u32)
                .collect();
            assert_eq!(got, want, "round {round}: filter diverged (n={}, tris={ntris})", xs.len());
            // the TriPre scalar replica must match the two calls too
            for i in 0..xs.len() {
                let p = Point::new(xs[i], ys[i]);
                for (t, tp) in tris.iter().zip(&pre) {
                    assert_eq!(
                        t.bbox().contains(p) && t.contains(p),
                        tp.admits(p.x, p.y),
                        "round {round}: scalar replica diverged"
                    );
                }
            }
        }
    }

    /// Exact clamp boundaries: queries projecting exactly onto t=0 / t=1 /
    /// segment interior, plus axis-aligned and shared-endpoint segments.
    #[test]
    fn simd_scan_parity_on_clamp_boundaries() {
        if !avx2_available() {
            eprintln!("skipping: no AVX2 on this host");
            return;
        }
        let segs = vec![
            Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0)),
            Segment::new(Point::new(2.0, 0.0), Point::new(2.0, 2.0)),
            Segment::new(Point::new(2.0, 2.0), Point::new(0.0, 2.0)),
            Segment::new(Point::new(0.0, 2.0), Point::new(0.0, 0.0)),
            Segment::new(Point::new(-1.0, -1.0), Point::new(-1.0, -1.0)), // degenerate
        ];
        let mut cols = SegColumns::default();
        cols.fill(&segs);
        for q in [
            Point::new(0.0, 0.0),   // on a vertex (t=0 of seg 0, t=1 of seg 3)
            Point::new(2.0, 0.0),   // shared endpoint
            Point::new(1.0, 0.0),   // interior foot
            Point::new(3.0, -1.0),  // clamps to t=1
            Point::new(-3.0, 0.5),  // clamps to t=0
            Point::new(1.0, 1.0),   // equidistant from all four sides
            Point::new(-1.0, -1.0), // exactly the degenerate segment
        ] {
            let (si, sd2) = scan_scalar((0..).zip(&segs), q);
            let (vi, vd2) = unsafe { avx2::scan(&cols, &segs, q) };
            assert_eq!(sd2.to_bits(), vd2.to_bits(), "q={q}");
            assert_eq!(si, vi, "q={q}");
        }
    }
}
