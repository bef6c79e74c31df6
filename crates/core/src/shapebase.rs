//! The shape base (§2.4): every shape's normalized copies, the pooled
//! vertex set, and the simplex range-search index over it.

use geosir_geom::rangesearch::{Backend, DynSimplexIndex, IndexScratch};
use geosir_geom::{Point, Polyline, Similarity, Triangle};
use std::sync::Mutex;

use crate::ids::{CopyId, ImageId, ShapeId};
use crate::normalize::normalized_copies;

/// A shape as extracted from an image, before normalization.
#[derive(Debug, Clone)]
pub struct SourceShape {
    pub image: ImageId,
    pub shape: Polyline,
}

/// One normalized copy inside the base.
#[derive(Debug, Clone)]
pub struct CopyRecord {
    pub shape_id: ShapeId,
    pub image: ImageId,
    /// Normalized geometry (α-diameter on the unit segment).
    pub normalized: Polyline,
    /// Normalized → original-pose transform.
    pub inverse: Similarity,
    /// Vertices at the normalization anchors (0,0)/(1,0), which are *not*
    /// placed in the vertex pool: every copy has them and every normalized
    /// query's boundary passes through both, so their envelope membership
    /// is identically true at any ε. Indexing them would force every
    /// retrieval to process ≥ 2p vertices on its first ring, destroying
    /// the §2.5 polylog behavior; instead the matcher pre-credits each
    /// copy's counter with this number — an exact transformation, since
    /// `dist(anchor, Q) = 0 ≤ ε` always holds.
    pub anchor_credit: u32,
}

/// Accumulates shapes, then normalizes and indexes them all at once.
#[derive(Debug, Default)]
pub struct ShapeBaseBuilder {
    shapes: Vec<SourceShape>,
}

impl ShapeBaseBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a shape extracted from `image`. Returns its id.
    pub fn add_shape(&mut self, image: ImageId, shape: Polyline) -> ShapeId {
        let id = ShapeId(self.shapes.len() as u32);
        self.shapes.push(SourceShape { image, shape });
        id
    }

    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// Normalize every shape about its α-diameters and build the vertex
    /// index. `alpha ∈ [0, 1)`; `backend` picks the simplex range-search
    /// structure (see DESIGN.md for the trade-off). Uses every available
    /// CPU; see [`ShapeBaseBuilder::build_with_threads`].
    pub fn build(self, alpha: f64, backend: Backend) -> ShapeBase {
        self.build_with_threads(alpha, backend, 0)
    }

    /// [`ShapeBaseBuilder::build`] with an explicit worker count
    /// (0 = one per available CPU).
    ///
    /// Normalization runs on the workers ([`par_map`]); the merge
    /// then runs in shape order, so the resulting base — copy order,
    /// pooled-vertex order, and therefore the index built over them — is
    /// byte-identical no matter how many threads ran.
    pub fn build_with_threads(self, alpha: f64, backend: Backend, threads: usize) -> ShapeBase {
        let per_shape = par_map(&self.shapes, threads, |s| normalized_copies(&s.shape, alpha));
        let mut copies = Vec::new();
        let mut vertex_points: Vec<Point> = Vec::new();
        let mut vertex_copy: Vec<u32> = Vec::new();
        for (sid, (src, normalized)) in self.shapes.iter().zip(per_shape).enumerate() {
            for nc in normalized {
                let copy_idx = copies.len() as u32;
                for &p in nc.shape.points().iter().filter(|&&p| !is_anchor(p)) {
                    vertex_points.push(p);
                    vertex_copy.push(copy_idx);
                }
                copies.push(CopyRecord::new(ShapeId(sid as u32), src.image, nc.shape, nc.inverse));
            }
        }
        let index = DynSimplexIndex::build(backend, &vertex_points);
        ShapeBase { alpha, shapes: self.shapes, copies, vertex_points, vertex_copy, index }
    }
}

/// Whether `p` sits on a normalization anchor, (0,0) or (1,0).
fn is_anchor(p: Point) -> bool {
    const ANCHOR_TOL: f64 = 1e-9;
    p.dist(Point::ORIGIN) <= ANCHOR_TOL || p.dist(Point::new(1.0, 0.0)) <= ANCHOR_TOL
}

impl CopyRecord {
    /// A copy of `shape_id` with its anchor vertices counted.
    pub(crate) fn new(shape_id: ShapeId, image: ImageId, normalized: Polyline, inverse: Similarity) -> Self {
        let anchor_credit = normalized.points().iter().filter(|&&p| is_anchor(p)).count() as u32;
        CopyRecord { shape_id, image, normalized, inverse, anchor_credit }
    }
}

/// Resolve a `threads` argument: 0 means one worker per available CPU.
fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        threads
    }
}

/// `f` of every item of `items`, in order, on `threads` workers (0 = one
/// per available CPU) — what a bulk build normalizes (and a dynamic
/// level also hashes) with.
///
/// The per-shape normalization (α-diameter enumeration is quadratic in
/// the shape's vertex count) dominates build time and is embarrassingly
/// parallel, but shape sizes vary, so workers claim work as they go: each
/// takes the next pair of an items chunk and the output slots of the same
/// positions from one shared iterator, one lock per chunk, and writes its
/// results in place. The result is identical no matter how many threads
/// ran.
pub(crate) fn par_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = resolve_threads(threads).min(items.len());
    if threads <= 1 {
        return items.iter().map(f).collect();
    }
    // A shape normalizes in tens of µs, so a lock per 8 costs nothing,
    // and the last claim idles the other workers for at most 8 items.
    const CHUNK: usize = 8;
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let work = Mutex::new(items.chunks(CHUNK).zip(slots.chunks_mut(CHUNK)));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                // (the lock is held only for `next`, which cannot panic)
                let claim = work.lock().expect("claim lock never poisoned").next();
                let Some((items, slots)) = claim else { break };
                for (item, slot) in items.iter().zip(slots) {
                    *slot = Some(f(item));
                }
            });
        }
    });
    slots.into_iter().map(|slot| slot.expect("every item mapped")).collect()
}

/// The built shape base: immutable, query-ready.
pub struct ShapeBase {
    alpha: f64,
    shapes: Vec<SourceShape>,
    copies: Vec<CopyRecord>,
    vertex_points: Vec<Point>,
    vertex_copy: Vec<u32>,
    index: DynSimplexIndex,
}

impl ShapeBase {
    /// The α used at build time.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// `p` in the paper's notation: number of normalized copies.
    pub fn num_copies(&self) -> usize {
        self.copies.len()
    }

    /// Number of distinct source shapes.
    pub fn num_shapes(&self) -> usize {
        self.shapes.len()
    }

    /// `n` in the paper's notation: total vertices across all copies.
    pub fn total_vertices(&self) -> usize {
        self.vertex_points.len()
    }

    pub fn copy(&self, id: CopyId) -> &CopyRecord {
        &self.copies[id.index()]
    }

    pub fn copies(&self) -> impl ExactSizeIterator<Item = (CopyId, &CopyRecord)> {
        self.copies.iter().enumerate().map(|(i, c)| (CopyId(i as u32), c))
    }

    pub fn source(&self, id: ShapeId) -> &SourceShape {
        &self.shapes[id.index()]
    }

    pub fn sources(&self) -> impl ExactSizeIterator<Item = (ShapeId, &SourceShape)> {
        self.shapes.iter().enumerate().map(|(i, s)| (ShapeId(i as u32), s))
    }

    /// Coordinates of pooled vertex `vid`.
    #[inline]
    pub fn vertex_point(&self, vid: u32) -> Point {
        self.vertex_points[vid as usize]
    }

    /// Copy owning pooled vertex `vid`.
    #[inline]
    pub fn vertex_owner(&self, vid: u32) -> CopyId {
        CopyId(self.vertex_copy[vid as usize])
    }

    /// Report pooled-vertex ids inside `tri` (boundary inclusive).
    pub fn report_triangle(&self, tri: &Triangle, out: &mut Vec<u32>) {
        self.index.report(tri, out);
    }

    /// Report pooled-vertex ids inside **any** triangle of `tris`
    /// (boundary inclusive), without duplicates — one index traversal for
    /// a whole ring cover instead of one per sliver, through the caller's
    /// scratch so a warm query allocates nothing.
    pub fn report_triangles_with(&self, scratch: &mut IndexScratch, tris: &[Triangle], out: &mut Vec<u32>) {
        self.index.report_union_with(scratch, tris, out);
    }
}

impl std::fmt::Debug for ShapeBase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShapeBase")
            .field("alpha", &self.alpha)
            .field("shapes", &self.shapes.len())
            .field("copies", &self.copies.len())
            .field("vertices", &self.vertex_points.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn tri_at(dx: f64, dy: f64, scale: f64) -> Polyline {
        Polyline::closed(vec![
            p(dx, dy),
            p(dx + 4.0 * scale, dy + 0.5 * scale),
            p(dx + 1.5 * scale, dy + 2.0 * scale),
        ])
        .unwrap()
    }

    fn build_small(alpha: f64) -> ShapeBase {
        let mut b = ShapeBaseBuilder::new();
        b.add_shape(ImageId(0), tri_at(0.0, 0.0, 1.0));
        b.add_shape(ImageId(0), tri_at(10.0, 3.0, 2.0));
        b.add_shape(ImageId(1), tri_at(-5.0, 7.0, 0.5));
        b.build(alpha, Backend::RangeTree)
    }

    #[test]
    fn build_counts() {
        let base = build_small(0.0);
        assert_eq!(base.num_shapes(), 3);
        // each triangle: unique diameter → 2 copies
        assert_eq!(base.num_copies(), 6);
        // 3 vertices per copy, of which the 2 diameter anchors are credited
        // rather than pooled
        assert_eq!(base.total_vertices(), 6);
        for (_, c) in base.copies() {
            assert_eq!(c.anchor_credit, 2);
        }
    }

    #[test]
    fn vertex_ownership_consistent() {
        let base = build_small(0.2);
        for vid in 0..base.total_vertices() as u32 {
            let owner = base.vertex_owner(vid);
            let copy = base.copy(owner);
            let pt = base.vertex_point(vid);
            assert!(
                copy.normalized.points().iter().any(|q| q.dist(pt) < 1e-12),
                "vertex {vid} not found in its owner copy"
            );
        }
    }

    #[test]
    fn similar_shapes_collapse_after_normalization() {
        // the same triangle at different poses/scales produces nearly
        // identical normalized copies
        let base = build_small(0.0);
        let c0 = &base.copy(CopyId(0)).normalized;
        let c2 = &base.copy(CopyId(2)).normalized;
        for (a, b) in c0.points().iter().zip(c2.points()) {
            assert!(a.dist(*b) < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn triangle_report_sees_copy_vertices() {
        let base = build_small(0.0);
        // all normalized vertices live in a bounded region around the lune
        let big = Triangle::new(p(-2.0, -2.0), p(4.0, -2.0), p(1.0, 4.0));
        let mut out = Vec::new();
        base.report_triangle(&big, &mut out);
        assert_eq!(out.len(), base.total_vertices());
    }

    #[test]
    fn parallel_build_identical_to_serial() {
        // 64 workers on 17 shapes: more threads than items; 0 shapes: empty
        let cases = [17u32, 0].into_iter().flat_map(|n| [1usize, 2, 4, 0, 64].map(|t| (n, t)));
        for (shapes, threads) in cases {
            let mut serial = ShapeBaseBuilder::new();
            let mut parallel = ShapeBaseBuilder::new();
            for b in [&mut serial, &mut parallel] {
                for i in 0..shapes {
                    let f = i as f64;
                    b.add_shape(ImageId(i), tri_at(f * 0.7 - 3.0, f * 1.3, 0.5 + f * 0.21));
                }
            }
            let a = serial.build_with_threads(0.15, Backend::RangeTree, 1);
            let b = parallel.build_with_threads(0.15, Backend::RangeTree, threads);
            assert_eq!(a.num_shapes(), b.num_shapes());
            assert_eq!(a.num_copies(), b.num_copies(), "threads = {threads}, shapes = {shapes}");
            assert_eq!(a.total_vertices(), b.total_vertices());
            for vid in 0..a.total_vertices() as u32 {
                // bit-identical: same shapes normalized by the same code,
                // merged in the same order
                assert_eq!(a.vertex_point(vid), b.vertex_point(vid), "vertex {vid}");
                assert_eq!(a.vertex_owner(vid), b.vertex_owner(vid));
            }
            for (cid, ca) in a.copies() {
                let cb = b.copy(cid);
                assert_eq!(ca.shape_id, cb.shape_id);
                assert_eq!(ca.anchor_credit, cb.anchor_credit);
                assert_eq!(ca.normalized.points(), cb.normalized.points());
            }
        }
    }

    #[test]
    fn image_attribution_preserved() {
        let base = build_small(0.0);
        for (_, copy) in base.copies() {
            assert_eq!(copy.image, base.source(copy.shape_id).image);
        }
    }
}
