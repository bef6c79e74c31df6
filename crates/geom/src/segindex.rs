//! Nearest-feature index over a set of segments.
//!
//! The paper computes `h_avg` against the query shape via the Voronoi
//! diagram of Q (§2.5). We obtain the same exact nearest-feature distances
//! from a static AABB tree over Q's edges with branch-and-bound descent —
//! see DESIGN.md (substitutions) for why this is equivalent for our
//! purposes. Distances are exact; only the search order differs.
//!
//! Small segment sets (at most [`FLAT_MAX`]) skip the tree and scan every
//! edge: for the shapes of the corpus (a dozen to a few dozen edges) that
//! beats the tree descent — no pointer chasing, no per-node bbox lower
//! bounds — and it returns the same exact distances.
//!
//! # The nearest-edge grid
//!
//! A flat set that is about to answer thousands of lookups — a *query*
//! shape — can put the bucketed form of §2.5's Voronoi diagram in front of
//! the scan: [`SegmentIndex::build_grid`] lays `GRID_N × GRID_N` cells over
//! the edges' bounding box (grown by `GRID_MARGIN` of its longer side),
//! and each cell holds the list of edges that can be nearest to *any* of
//! its points, filled on first read — the first lookup that lands in the
//! cell computes it, every later one reads it. For a cell with centre `m`,
//! half-diagonal `h` and `D = min_s d(m, s)`, the list is every edge with
//! `d(m, s) ≤ D + 2h`:
//!
//! 1. a point `p` of the cell has `|p − m| ≤ h`, so `d(p, s_D) ≤ D + h` for
//!    the edge `s_D` nearest to `m`;
//! 2. any edge `s*` nearest to `p` has `d(p, s*) ≤ d(p, s_D) ≤ D + h`;
//! 3. hence `d(m, s*) ≤ d(p, s*) + h ≤ D + 2h` — every minimiser is listed.
//!
//! A lookup runs the *same* scan ([`Segment::dist_sq_to_point`], ascending
//! edge order, strict `<`) over the cell's list only, so it returns the
//! flat scan's `(index, d²)` bit for bit — the grid narrows which edges the
//! one distance formula is applied to, nothing else. The list radius
//! carries a relative slack (`GRID_SLACK`) that dwarfs the rounding of the
//! cell assignment and of the distances, which is why no grid is laid
//! when a cell would be smaller than `GRID_MIN_CELL` of the coordinates'
//! magnitude (that also rejects non-finite and zero-extent boxes). A point
//! outside the grid, a cell whose list exceeds `GRID_CAP` edges, and an
//! index without a grid all fall through to the flat scan.
//!
//! The grid is laid **only** by an explicit `build_grid` call, and every
//! `rebuild` drops it with every list it filled (keeping its allocation):
//! stored copies and the reverse-direction candidate index are probed a
//! few dozen times each and never pay for one, and a re-used index can
//! never answer from a list of its previous shape. Sets larger than
//! `FLAT_MAX` keep the tree alone. A cell's list is a function of the
//! edges and the cell alone, so the moment it is filled changes nothing
//! any caller reads.
//!
//! # The lower-bound raster
//!
//! The grid also bounds the distance from below, at twice its resolution:
//! [`SegmentIndex::lower_bound_quad`] splits grid cell `c` in four and
//! gives, per quarter (a cell of the `RASTER_N × RASTER_N` raster) with
//! centre `m` and half-diagonal `h`, `lb = max(0, D·(1 − s) − h·(1 + s))`
//! with `D = dist(m)` — the same scan over the list of `c`, which holds
//! every edge nearest to it, or over every edge where that list
//! overflowed — and `s = GRID_SLACK`. A point `p` of the quarter has
//! `|p − m| ≤ h`, so by the triangle inequality `dist(p) ≥ D − h ≥ lb`;
//! the slack covers the rounding of `D`, of `h` and of the cell
//! assignment, as it does for the lists. Nothing here keeps the bounds: a
//! caller that maps its own points onto the raster
//! ([`SegmentIndex::lower_bound_box`]) — the dynamic base's quantized
//! copies, one multiply, add and shift an axis and one load, no distance —
//! fills its own table a quad at a time, on first read, and reads 0
//! outside the box. It is the envelope rings of §2.5 rasterized: which
//! band of distance around the shape a point falls in, known before any
//! exact distance is computed.
//!
//! # Fill distances and lookup distances
//!
//! A list and a quad are filled by distances from fixed centres, so the
//! grid lays the edges out as columns first (`EdgeColumns`: `a`,
//! `d = b − a` and `1/|d|²`) and projects with a multiply where
//! [`Segment::dist_sq_to_point`] divides by `|d|²`. A fill distance may
//! therefore differ from the lookup's in its last bits — a few ulps of
//! the coordinates' magnitude, as each formula's own rounding already
//! is. Nothing a caller reads takes those bits: the fill distances only
//! decide which edges a list holds and how low a raster cell reads, and
//! every lookup still applies `dist_sq_to_point` to the edges of its
//! list. Both decisions already carry `GRID_SLACK`, which is at least
//! `GRID_SLACK · 2h` ≥ 1.4 × 10⁻¹⁴ of the coordinates' magnitude
//! (`GRID_MIN_CELL`) and so dwarfs a few ulps of it: a list still holds
//! every edge within `D + 2h` of its centre, and a raster cell still
//! reads no more than any point of it measures. A division-free
//! projection also makes a degenerate edge (`|d|² ≤ EPS²`) a point, as
//! `dist_sq_to_point` does, by a reciprocal of 0.

use std::cell::OnceCell;

use crate::bbox::Aabb;
use crate::point::Point;
use crate::polyline::Polyline;
use crate::segment::Segment;
use crate::EPS;

/// Largest segment count served by the flat scan; larger sets build the
/// AABB tree. 64 covers every corpus shape while keeping the scan strictly
/// cheaper than a tree descent plus its rebuild cost. (A caller that
/// reproduces the flat scan without an index — the reverse half of the
/// symmetric score — takes the same split.)
pub const FLAT_MAX: usize = 64;

/// Static AABB tree over segments supporting exact nearest-segment queries.
#[derive(Debug)]
pub struct SegmentIndex {
    nodes: Vec<SNode>,
    segs: Vec<Segment>,
    root: Option<u32>,
    /// Permutation scratch for (re)builds, kept so [`Self::rebuild`] is
    /// allocation-free once capacities are warm.
    ids: Vec<u32>,
    /// Small sets are scanned flat instead of descending the tree.
    flat: bool,
    /// Nearest-edge grid in front of the flat scan (module docs).
    grid: Grid,
}

#[derive(Debug)]
struct SNode {
    bbox: Aabb,
    /// Leaf: index into `segs`; internal: `u32::MAX`.
    seg: u32,
    left: u32,
    right: u32,
}

const NONE: u32 = u32::MAX;

/// Cells per side of the nearest-edge grid.
pub const GRID_N: usize = 16;
/// The grid covers the edges' bounding box grown on every side by this
/// share of its longer side, so the points just outside a shape — where
/// envelope rings and near matches put their vertices — are inside it.
const GRID_MARGIN: f64 = 0.25;
/// Edge slots per cell. A cell needing more (deep inside a round shape,
/// where every edge is about equally far) is marked [`GRID_OVERFLOW`] and
/// scanned flat: fixed-size cells keep the grid one reusable allocation.
const GRID_CAP: usize = 15;
const GRID_OVERFLOW: u8 = u8::MAX;
/// Relative slack on a cell's list radius `D + 2h`.
const GRID_SLACK: f64 = 1e-9;
/// Smallest cell side, as a share of the largest coordinate magnitude,
/// for which rounding (≈ 1e-16 of that magnitude) stays far inside the
/// slack.
const GRID_MIN_CELL: f64 = 1e-5;
/// Cells per side of the lower-bound raster: each grid cell split in four.
pub const RASTER_N: usize = 2 * GRID_N;

/// The nearest-edge grid of a flat set; `cells` empty = not laid.
#[derive(Debug, Default)]
struct Grid {
    /// Lower-left corner of cell (0, 0), the cell sides and their
    /// reciprocals.
    x0: f64,
    y0: f64,
    cw: f64,
    ch: f64,
    inv_w: f64,
    inv_h: f64,
    /// What every fill reads, computed once a lay: a cell's
    /// half-diagonal, and a raster cell's sides and slack-widened
    /// half-diagonal.
    half_diag: f64,
    rw: f64,
    rh: f64,
    raster_half_diag: f64,
    /// Row-major `[len, edge, edge, …]`, edges ascending, each filled on
    /// first read.
    cells: Vec<OnceCell<[u8; GRID_CAP + 1]>>,
    /// The edges as the fills read them; allocated by the first grid laid
    /// and rewritten by every later one.
    cols: Option<Box<EdgeColumns>>,
}

impl SegmentIndex {
    fn empty() -> Self {
        SegmentIndex {
            nodes: Vec::new(),
            segs: Vec::new(),
            root: None,
            ids: Vec::new(),
            flat: false,
            grid: Grid::default(),
        }
    }

    pub fn build(segments: &[Segment]) -> Self {
        let mut idx = Self::empty();
        idx.rebuild(segments.iter().copied());
        idx
    }

    /// Index over the edges of a polyline — the `h_avg` evaluation structure
    /// for a query shape.
    pub fn of_polyline(pl: &Polyline) -> Self {
        let mut idx = Self::empty();
        idx.rebuild_of_polyline(pl);
        idx
    }

    /// Rebuild the index over a new segment set in place, reusing every
    /// allocation (node pool, segment store, permutation scratch).
    /// Small sets take the flat-scan layout; larger ones build the tree.
    /// Drops the nearest-edge grid of the previous set, with every list
    /// it filled.
    fn rebuild(&mut self, segments: impl IntoIterator<Item = Segment>) {
        self.grid.cells.clear();
        self.segs.clear();
        self.segs.extend(segments);
        self.nodes.clear();
        self.flat = !self.segs.is_empty() && self.segs.len() <= FLAT_MAX;
        if self.flat {
            self.root = None;
            return;
        }
        self.ids.clear();
        self.ids.extend(0..self.segs.len() as u32);
        self.root = if self.ids.is_empty() {
            None
        } else {
            Some(build_rec(&self.segs, &mut self.ids, &mut self.nodes))
        };
    }

    /// [`Self::rebuild`] over a polyline's edges.
    pub fn rebuild_of_polyline(&mut self, pl: &Polyline) {
        // Collecting edges through the iterator avoids the intermediate
        // Vec<Segment> the old `of_polyline` built.
        let n = pl.num_edges();
        self.rebuild((0..n).map(|i| pl.edge(i)));
    }

    /// Lay the nearest-edge grid (module docs) in front of the flat scan:
    /// the box, the edge columns and `GRID_N²` empty cells, each of which
    /// the first lookup to land in it fills with `len` distance
    /// evaluations — worth it for a set that will answer thousands of
    /// lookups. Allocation-free once the cell table is warm; a no-op for a
    /// set whose grid is laid already, for tree-backed sets and for boxes
    /// too small, or not finite enough, to grid soundly.
    pub fn build_grid(&mut self) {
        if !self.flat || !self.grid.cells.is_empty() {
            return;
        }
        let bbox = self.segs.iter().fold(Aabb::EMPTY, |b, s| b.union(&s.bbox()));
        let margin = GRID_MARGIN * bbox.width().max(bbox.height());
        let (x0, y0) = (bbox.min.x - margin, bbox.min.y - margin);
        let (x1, y1) = (bbox.max.x + margin, bbox.max.y + margin);
        let (cw, ch) = ((x1 - x0) / GRID_N as f64, (y1 - y0) / GRID_N as f64);
        let reach = x0.abs().max(x1.abs()).max(y0.abs()).max(y1.abs());
        // (written so that NaN fails; the floor keeps d² out of the subnormals)
        if !(reach.is_finite() && cw.min(ch) >= GRID_MIN_CELL * reach.max(1e-100)) {
            return;
        }
        let g = &mut self.grid;
        (g.x0, g.y0, g.cw, g.ch) = (x0, y0, cw, ch);
        (g.inv_w, g.inv_h) = (1.0 / cw, 1.0 / ch);
        g.half_diag = 0.5 * cw.hypot(ch);
        (g.rw, g.rh) = (0.5 / g.inv_w, 0.5 / g.inv_h);
        g.raster_half_diag = 0.5 * g.rw.hypot(g.rh) * (1.0 + GRID_SLACK);
        g.cols.get_or_insert_with(|| Box::new(EdgeColumns::ZERO)).lay(&self.segs);
        g.cells.resize_with(GRID_N * GRID_N, OnceCell::new);
    }

    /// Grid cell `c`'s list — `[len, edge, …]`, [`GRID_OVERFLOW`] for a
    /// cell scanned flat — filled on first read.
    #[inline]
    fn list(&self, c: usize) -> Option<&[u8; GRID_CAP + 1]> {
        Some(self.grid.cells.get(c)?.get_or_init(|| self.fill_list(c)))
    }

    /// Compute grid cell `c`'s list: every edge within `D + 2h` of its
    /// centre, ascending, from the edge columns (module docs).
    #[cold]
    #[inline(never)]
    fn fill_list(&self, c: usize) -> [u8; GRID_CAP + 1] {
        let g = &self.grid;
        let cols = g.cols.as_deref().expect("a laid grid has its columns");
        let (i, j) = (c % GRID_N, c / GRID_N);
        let m = Point::new(g.x0 + (i as f64 + 0.5) * g.cw, g.y0 + (j as f64 + 0.5) * g.ch);
        let mut d2 = [0.0f64; FLAT_MAX];
        let d2 = &mut d2[..self.segs.len()];
        for (e, d) in d2.iter_mut().enumerate() {
            *d = cols.dist_sq(e, m);
        }
        // (`<` skips a NaN distance, as the scan does)
        let nearest = d2.iter().fold(f64::INFINITY, |n, &d| if d < n { d } else { n });
        let radius = (nearest.sqrt() + 2.0 * g.half_diag) * (1.0 + GRID_SLACK);
        let reach2 = radius * radius;
        // bit e: edge e is listed (a u64 holds FLAT_MAX edges)
        let listed = d2.iter().enumerate().fold(0u64, |bits, (e, &d)| bits | ((d <= reach2) as u64) << e);
        // the first GRID_CAP listed edges, ascending; more marks the cell
        // overflowed
        let mut cell = [0u8; GRID_CAP + 1];
        let mut rest = listed;
        for slot in &mut cell[1..] {
            if rest == 0 {
                break;
            }
            *slot = rest.trailing_zeros() as u8;
            rest &= rest - 1;
        }
        let len = listed.count_ones() as usize;
        cell[0] = if len > GRID_CAP { GRID_OVERFLOW } else { len as u8 };
        cell
    }

    /// Where the lower-bound raster lies, for a caller that maps its own
    /// points onto it: `[x0, y0, w, h]`, raster cell `(i, j)` (`i, j <`
    /// [`RASTER_N`]) covering `[x0 + i·w, x0 + (i + 1)·w) × [y0 + j·h, y0 +
    /// (j + 1)·h)`. `None` without a grid.
    pub fn lower_bound_box(&self) -> Option<[f64; 4]> {
        let g = &self.grid;
        (!g.cells.is_empty()).then_some([g.x0, g.y0, g.rw, g.rh])
    }

    /// The lower bounds (module docs) of grid cell `c`'s four quarters —
    /// raster cells `(2·(c mod GRID_N) + k mod 2, 2·(c div GRID_N) + k div
    /// 2)` for k = 0..4 — each of which bounds the distance of every point
    /// of its raster cell from below. Fills the cell's list if no lookup
    /// has; zeros without a grid.
    pub fn lower_bound_quad(&self, c: usize) -> [f64; 4] {
        let Some(cell) = self.list(c) else { return [0.0; 4] };
        let g = &self.grid;
        let cols = g.cols.as_deref().expect("a laid grid has its columns");
        let (w, h) = (g.rw, g.rh);
        let (i, j) = (2 * (c % GRID_N), 2 * (c / GRID_N));
        let centre = |di: usize, dj: usize| {
            Point::new(g.x0 + ((i + di) as f64 + 0.5) * w, g.y0 + ((j + dj) as f64 + 0.5) * h)
        };
        let ms = [centre(0, 0), centre(1, 0), centre(0, 1), centre(1, 1)];
        let mut nearest = [f64::INFINITY; 4];
        let mut offer = |e: usize| {
            for (n, &m) in nearest.iter_mut().zip(&ms) {
                let d = cols.dist_sq(e, m);
                // (`<` skips a NaN distance, as the scan does)
                if d < *n {
                    *n = d;
                }
            }
        };
        // the cell's list holds every edge nearest to a point of the cell;
        // where it overflowed, every edge
        match cell.get(1..=cell[0] as usize) {
            Some(list) => list.iter().for_each(|&e| offer(e as usize)),
            None => (0..self.segs.len()).for_each(offer),
        }
        // (`max` turns a NaN into 0, as a point outside reads)
        nearest.map(|d2| (d2.sqrt() * (1.0 - GRID_SLACK) - g.raster_half_diag).max(0.0))
    }

    /// The grid cells whose list is filled, ascending — the census
    /// `phase_prof` prints.
    #[doc(hidden)]
    pub fn filled_lists(&self) -> impl Iterator<Item = usize> + '_ {
        self.grid.cells.iter().enumerate().filter_map(|(c, cell)| cell.get().map(|_| c))
    }

    /// Fill the lists of `cells` now, as lookups there would: how the
    /// census times a query's fills, and how a test fills every cell
    /// before a query reads one.
    #[doc(hidden)]
    pub fn fill_lists(&self, cells: impl IntoIterator<Item = usize>) {
        for c in cells {
            self.list(c);
        }
    }

    /// The edges that can be nearest to `q` according to the grid; `None`
    /// when there is no grid, `q` is outside it (or NaN), or its cell
    /// overflowed — the caller scans every edge instead.
    #[inline]
    fn grid_list(&self, q: Point) -> Option<&[u8]> {
        const N: f64 = GRID_N as f64;
        let g = &self.grid;
        let (fx, fy) = ((q.x - g.x0) * g.inv_w, (q.y - g.y0) * g.inv_h);
        // (false for NaN too)
        if !((0.0..N).contains(&fx) && (0.0..N).contains(&fy)) {
            return None;
        }
        let cell = self.list(fy as usize * GRID_N + fx as usize)?;
        cell.get(1..=cell[0] as usize)
    }

    /// How many edges a lookup at `q` evaluates, and whether the grid
    /// answered it — the census `phase_prof` prints.
    #[doc(hidden)]
    pub fn probe_cost(&self, q: Point) -> (usize, bool) {
        match self.grid_list(q) {
            Some(list) => (list.len(), true),
            None => (self.segs.len(), false),
        }
    }

    pub fn len(&self) -> usize {
        self.segs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Distance from `q` to the nearest segment, with the segment's index.
    /// `None` when the index is empty.
    // Inlined so that [`Self::dist`], which drops the index, gets its own
    // copy of the scans with the argmin tracking compiled out: a running
    // `min` instead of a data-dependent branch per edge (measured 59 vs
    // 72 ns on a 19-edge scan).
    #[inline]
    pub fn nearest(&self, q: Point) -> Option<(u32, f64)> {
        if self.flat {
            let (i, d2) = match self.grid_list(q) {
                Some(list) => {
                    scan_list(list.iter().map(|&e| (e as u32, &self.segs[e as usize])), q)
                }
                None => self.scan_flat(q),
            };
            return Some((i, d2.sqrt()));
        }
        let root = self.root?;
        let mut best = (NONE, f64::INFINITY); // squared distance
        self.rec(root, q, &mut best);
        Some((best.0, best.1.sqrt()))
    }

    /// The flat scan over every segment.
    #[inline]
    fn scan_flat(&self, q: Point) -> (u32, f64) {
        scan_list(self.segs.iter().enumerate().map(|(i, s)| (i as u32, s)), q)
    }

    /// Just the distance (the common call in `h_avg` inner loops).
    pub fn dist(&self, q: Point) -> f64 {
        self.nearest(q).map_or(f64::INFINITY, |(_, d)| d)
    }

    fn rec(&self, v: u32, q: Point, best: &mut (u32, f64)) {
        let node = &self.nodes[v as usize];
        if node.seg != NONE {
            let d2 = self.segs[node.seg as usize].dist_sq_to_point(q);
            if d2 < best.1 {
                *best = (node.seg, d2);
            }
            return;
        }
        // Visit the closer child first for tighter pruning.
        let l = node.left;
        let r = node.right;
        let dl = self.nodes[l as usize].bbox.dist_sq(q);
        let dr = self.nodes[r as usize].bbox.dist_sq(q);
        let (first, d_first, second, d_second) =
            if dl <= dr { (l, dl, r, dr) } else { (r, dr, l, dl) };
        if d_first < best.1 {
            self.rec(first, q, best);
        }
        if d_second < best.1 {
            self.rec(second, q, best);
        }
    }
}

/// Scan over `(index, segment)` pairs in ascending index order — the
/// whole set, or a nearest-edge grid cell's list of it: strict `<` keeps
/// the first (lowest-index) minimum. Returns `(segment index, squared
/// distance)`, `(0, ∞)` when nothing compares below ∞.
#[inline]
fn scan_list<'a>(edges: impl IntoIterator<Item = (u32, &'a Segment)>, q: Point) -> (u32, f64) {
    let mut best = (0u32, f64::INFINITY);
    for (i, s) in edges {
        let d2 = s.dist_sq_to_point(q);
        if d2 < best.1 {
            best = (i, d2);
        }
    }
    best
}

/// A flat set's edges as columns — start `a`, direction `d = b − a` and
/// `1/|d|²` (0 for an edge [`Segment::dist_sq_to_point`] treats as a
/// point) — for the grid's fills (module docs, "Fill distances and
/// lookup distances"). Entries past the set's edges are never read.
#[derive(Debug)]
struct EdgeColumns {
    ax: [f64; FLAT_MAX],
    ay: [f64; FLAT_MAX],
    dx: [f64; FLAT_MAX],
    dy: [f64; FLAT_MAX],
    inv: [f64; FLAT_MAX],
}

impl EdgeColumns {
    const ZERO: EdgeColumns = EdgeColumns {
        ax: [0.0; FLAT_MAX],
        ay: [0.0; FLAT_MAX],
        dx: [0.0; FLAT_MAX],
        dy: [0.0; FLAT_MAX],
        inv: [0.0; FLAT_MAX],
    };

    /// Lay out at most [`FLAT_MAX`] edges.
    fn lay(&mut self, segs: &[Segment]) {
        for (e, s) in segs.iter().enumerate() {
            let d = s.dir();
            let l2 = d.norm_sq();
            (self.ax[e], self.ay[e], self.dx[e], self.dy[e]) = (s.a.x, s.a.y, d.x, d.y);
            self.inv[e] = if l2 <= EPS * EPS { 0.0 } else { 1.0 / l2 };
        }
    }

    /// [`Segment::dist_sq_to_point`] from `m` to edge `e`, its division
    /// by `|d|²` a multiply by the reciprocal.
    #[inline]
    fn dist_sq(&self, e: usize, m: Point) -> f64 {
        let (ax, ay, dx, dy) = (self.ax[e], self.ay[e], self.dx[e], self.dy[e]);
        let t = (((m.x - ax) * dx + (m.y - ay) * dy) * self.inv[e]).clamp(0.0, 1.0);
        let (ex, ey) = (ax + dx * t - m.x, ay + dy * t - m.y);
        ex * ex + ey * ey
    }
}

fn build_rec(segs: &[Segment], ids: &mut [u32], nodes: &mut Vec<SNode>) -> u32 {
    if ids.len() == 1 {
        let seg = ids[0];
        nodes.push(SNode { bbox: segs[seg as usize].bbox(), seg, left: NONE, right: NONE });
        return nodes.len() as u32 - 1;
    }
    // Split on the longer axis of the centroid spread.
    let bbox = ids.iter().fold(Aabb::EMPTY, |b, &i| b.union(&segs[i as usize].bbox()));
    let split_x = bbox.width() >= bbox.height();
    let mid = ids.len() / 2;
    ids.select_nth_unstable_by(mid, |&a, &b| {
        let (ca, cb) = (segs[a as usize].midpoint(), segs[b as usize].midpoint());
        if split_x {
            ca.x.partial_cmp(&cb.x).unwrap()
        } else {
            ca.y.partial_cmp(&cb.y).unwrap()
        }
    });
    let (lo, hi) = ids.split_at_mut(mid);
    let left = build_rec(segs, lo, nodes);
    let right = build_rec(segs, hi, nodes);
    nodes.push(SNode { bbox, seg: NONE, left, right });
    nodes.len() as u32 - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    #[test]
    fn empty_index() {
        let idx = SegmentIndex::build(&[]);
        assert!(idx.nearest(Point::ORIGIN).is_none());
        assert_eq!(idx.dist(Point::ORIGIN), f64::INFINITY);
    }

    #[test]
    fn single_segment() {
        let idx = SegmentIndex::build(&[Segment::new(Point::new(0.0, 0.0), Point::new(2.0, 0.0))]);
        let (id, d) = idx.nearest(Point::new(1.0, 3.0)).unwrap();
        assert_eq!(id, 0);
        assert!((d - 3.0).abs() < 1e-12);
    }

    #[test]
    fn polyline_distance_agrees() {
        let sq = Polyline::closed(vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(1.0, 1.0),
            Point::new(0.0, 1.0),
        ])
        .unwrap();
        let idx = SegmentIndex::of_polyline(&sq);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let q = Point::new(rng.random_range(-2.0..3.0), rng.random_range(-2.0..3.0));
            assert!((idx.dist(q) - sq.dist_to_point(q)).abs() < 1e-12);
        }
    }

    /// The flat scan (≤ FLAT_MAX segs) and the tree must agree bit-for-bit:
    /// same per-segment d² formula, min over a superset of visited leaves.
    #[test]
    fn flat_and_tree_distances_bit_identical() {
        let mut rng = StdRng::seed_from_u64(7);
        let segs: Vec<Segment> = (0..100)
            .map(|_| {
                Segment::new(
                    Point::new(rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0)),
                    Point::new(rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0)),
                )
            })
            .collect();
        let tree = SegmentIndex::build(&segs); // 100 > FLAT_MAX → tree
        assert!(!tree.flat);
        let flat = SegmentIndex::build(&segs[..60]); // ≤ FLAT_MAX → flat
        assert!(flat.flat);
        let sub = SegmentIndex::build(&segs[..60]);
        for _ in 0..200 {
            let q = Point::new(rng.random_range(-8.0..8.0), rng.random_range(-8.0..8.0));
            // flat vs brute-force over the same segments, exact bits
            let brute =
                segs[..60].iter().map(|s| s.dist_sq_to_point(q)).fold(f64::INFINITY, f64::min);
            assert_eq!(flat.dist(q).to_bits(), brute.sqrt().to_bits());
            assert_eq!(sub.dist(q).to_bits(), flat.dist(q).to_bits());
            // tree vs brute-force over all 100, exact bits
            let brute_all =
                segs.iter().map(|s| s.dist_sq_to_point(q)).fold(f64::INFINITY, f64::min);
            assert_eq!(tree.dist(q).to_bits(), brute_all.sqrt().to_bits());
        }
    }

    /// `(index, distance bits)` — what grid parity is asserted on.
    fn bits(idx: &SegmentIndex, q: Point) -> Option<(u32, u64)> {
        idx.nearest(q).map(|(i, d)| (i, d.to_bits()))
    }

    fn pt(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    /// A closed chain through `pts`, or an open one.
    fn chain(pts: &[Point], closed: bool) -> Vec<Segment> {
        let n = if closed { pts.len() } else { pts.len() - 1 };
        (0..n).map(|i| Segment::new(pts[i], pts[(i + 1) % pts.len()])).collect()
    }

    /// Random edge sets of the kinds a query can be: star-shaped simple
    /// polygons and open random walks, optionally spiked with duplicate
    /// vertices (zero-length edges) and collinear runs.
    fn random_edges(rng: &mut StdRng, n: usize) -> Vec<Segment> {
        let closed = rng.random_bool(0.6);
        let mut pts: Vec<Point> = if closed {
            (0..n)
                .map(|i| {
                    let t = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                    let r = rng.random_range(0.15..0.5);
                    pt(0.5 + r * t.cos(), r * t.sin())
                })
                .collect()
        } else {
            let mut p = pt(0.0, 0.0);
            (0..=n)
                .map(|_| {
                    p = pt(p.x + rng.random_range(-0.05..0.2), p.y + rng.random_range(-0.15..0.15));
                    p
                })
                .collect()
        };
        if rng.random_bool(0.5) {
            for _ in 0..3 {
                let i = rng.random_range(1..pts.len());
                pts[i] = if rng.random_bool(0.5) {
                    pts[i - 1] // duplicate vertex: a zero-length edge
                } else {
                    pts[i - 1].midpoint(pts[(i + 1) % pts.len()]) // collinear run
                };
            }
        }
        chain(&pts, closed)
    }

    /// Probe points that stress a grid over `segs`: inside and around the
    /// box, on every cell border and corner of `grid` (and one ulp to
    /// either side), on edges and vertices and 1e-12 off them, far away,
    /// and non-finite.
    fn probes(rng: &mut StdRng, segs: &[Segment], grid: &SegmentIndex) -> Vec<Point> {
        let bbox = segs.iter().fold(Aabb::EMPTY, |b, s| b.union(&s.bbox()));
        let span = bbox.width().max(bbox.height()).max(1e-3);
        let mut out = Vec::new();
        for _ in 0..200 {
            out.push(pt(
                rng.random_range(bbox.min.x - 0.6 * span..bbox.max.x + 0.6 * span),
                rng.random_range(bbox.min.y - 0.6 * span..bbox.max.y + 0.6 * span),
            ));
        }
        for s in segs {
            let on = s.at(rng.random_range(0.0..=1.0));
            for base in [s.a, s.b, on] {
                out.push(base);
                out.push(pt(base.x + 1e-12, base.y - 1e-12));
                out.push(pt(base.x - 1e-12 * span, base.y + 1e-12 * span));
            }
        }
        border_probes(rng, &bbox, grid, 1, &mut out);
        for far in [1e3, -1e6, 1e12, 1e300] {
            out.push(pt(far, 0.3));
            out.push(pt(0.2, far));
            out.push(pt(far, -far));
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            out.push(pt(bad, 0.1));
            out.push(pt(0.1, bad));
            out.push(pt(bad, bad));
        }
        out
    }

    /// Every corner of `grid`'s cells split `split × split` (1: the grid's
    /// own, 2: the raster's), one ulp to either side of them too, and
    /// random points along each border line.
    fn border_probes(rng: &mut StdRng, bbox: &Aabb, grid: &SegmentIndex, split: usize, out: &mut Vec<Point>) {
        let g = &grid.grid;
        if g.cells.is_empty() {
            return;
        }
        let lines = |o: f64, inv: f64| -> Vec<f64> {
            (0..=GRID_N * split)
                .flat_map(|i| {
                    let v = o + i as f64 / (inv * split as f64);
                    [v.next_down(), v, v.next_up()]
                })
                .collect()
        };
        let (xs, ys) = (lines(g.x0, g.inv_w), lines(g.y0, g.inv_h));
        for &x in &xs {
            for &y in &ys {
                out.push(pt(x, y)); // corners, and borders crossed diagonally
            }
            out.push(pt(x, rng.random_range(bbox.min.y..=bbox.max.y)));
        }
        for &y in &ys {
            out.push(pt(rng.random_range(bbox.min.x..=bbox.max.x), y));
        }
    }

    /// Assert `nearest` with the grid ≡ without, on the stress probes.
    fn assert_grid_parity(rng: &mut StdRng, segs: &[Segment]) -> SegmentIndex {
        let plain = SegmentIndex::build(segs);
        let mut grid = SegmentIndex::build(segs);
        grid.build_grid();
        for q in probes(rng, segs, &grid) {
            assert_eq!(bits(&grid, q), bits(&plain, q), "q = {q:?}, {} edges", segs.len());
        }
        grid
    }

    #[test]
    fn grid_answers_most_lookups_from_short_lists() {
        // not a tautology: the parity tests would also pass with a grid
        // that never answers
        let mut rng = StdRng::seed_from_u64(3);
        let segs = random_edges(&mut rng, 19);
        let grid = assert_grid_parity(&mut rng, &segs);
        assert_eq!(grid.grid.cells.len(), GRID_N * GRID_N);
        let (mut edges, mut hits, mut n) = (0, 0, 0);
        for s in &segs {
            for _ in 0..50 {
                let v = s.at(rng.random_range(0.0..=1.0));
                let q = pt(v.x + rng.random_range(-0.05..0.05), v.y + rng.random_range(-0.05..0.05));
                let (e, hit) = grid.probe_cost(q);
                (edges, hits, n) = (edges + e, hits + hit as usize, n + 1);
            }
        }
        assert!(hits * 100 >= n * 99, "{hits} of {n} lookups answered from the grid");
        assert!(edges * 10 < n * 19 * 3, "{} edges per lookup", edges as f64 / n as f64);
    }

    #[test]
    fn grid_ties_resolve_to_the_lowest_index() {
        let mut rng = StdRng::seed_from_u64(5);
        let sq = chain(&[pt(0.0, 0.0), pt(1.0, 0.0), pt(1.0, 1.0), pt(0.0, 1.0)], true);
        let grid = assert_grid_parity(&mut rng, &sq);
        // the centre is equidistant from all four sides, the diagonals
        // from two, a corner lies on two edges
        assert_eq!(grid.nearest(pt(0.5, 0.5)).unwrap().0, 0);
        assert_eq!(grid.nearest(pt(0.75, 0.75)).unwrap().0, 1);
        assert_eq!(grid.nearest(pt(1.0, 1.0)), Some((1, 0.0)));
        assert_eq!(grid.nearest(pt(0.0, 0.0)), Some((0, 0.0)));
        // the same edge twice, and reversed: the first copy wins everywhere
        let dup = [sq[0], sq[1], sq[0], Segment::new(sq[1].b, sq[1].a), sq[2], sq[3]];
        let grid = assert_grid_parity(&mut rng, &dup);
        assert_eq!(grid.nearest(pt(0.5, -0.1)).unwrap().0, 0);
        assert_eq!(grid.nearest(pt(1.1, 0.5)).unwrap().0, 1);
    }

    #[test]
    fn grid_degenerate_boxes() {
        let mut rng = StdRng::seed_from_u64(7);
        // zero-height and 1e-9-thin boxes: the margin comes from the
        // longer side, so the cells keep a sound size and a grid is built
        let flat = chain(&[pt(0.0, 0.0), pt(0.4, 0.0), pt(0.4, 0.0), pt(1.0, 0.0)], false);
        let thin = chain(&[pt(0.0, 0.0), pt(0.5, 1e-9), pt(1.0, 0.0), pt(0.5, -1e-9)], true);
        for segs in [&flat, &thin] {
            assert!(!assert_grid_parity(&mut rng, segs).grid.cells.is_empty());
        }
        // no grid: a box of zero extent, one lost in its coordinates'
        // rounding, one that is not finite, and a NaN edge beside a sound
        // one (its box is finite; the scan skips it, so must the lists)
        let point = vec![Segment::new(pt(2.0, 3.0), pt(2.0, 3.0)); 3];
        let lost = chain(&[pt(1e6, 1e6), pt(1e6 + 1e-9, 1e6), pt(1e6, 1e6 + 1e-9)], true);
        let huge = chain(&[pt(0.0, 0.0), pt(f64::MAX, 0.0), pt(0.0, -f64::MAX)], true);
        for segs in [&point, &lost, &huge] {
            assert!(assert_grid_parity(&mut rng, segs).grid.cells.is_empty());
        }
        let nan = [Segment::new(pt(f64::NAN, 0.0), pt(1.0, 1.0)), Segment::new(pt(0.0, 0.0), pt(1.0, 0.0))];
        let grid = assert_grid_parity(&mut rng, &nan);
        assert_eq!(grid.nearest(pt(0.5, 0.2)).unwrap().0, 1);
        // tiny but well-scaled shapes are fine
        let tiny: Vec<Segment> =
            thin.iter().map(|s| Segment::new(pt(s.a.x * 1e-30, s.a.y * 1e-30), pt(s.b.x * 1e-30, s.b.y * 1e-30))).collect();
        assert!(!assert_grid_parity(&mut rng, &tiny).grid.cells.is_empty());
    }

    #[test]
    fn grid_is_dropped_by_rebuild_and_its_allocation_reused() {
        let mut rng = StdRng::seed_from_u64(11);
        let a = random_edges(&mut rng, 24);
        let b: Vec<Segment> =
            random_edges(&mut rng, 9).iter().map(|s| Segment::new(pt(s.a.y, s.a.x), pt(s.b.y, s.b.x))).collect();
        let mut idx = SegmentIndex::build(&a);
        idx.build_grid();
        let capacity = idx.grid.cells.capacity();
        idx.rebuild(b.iter().copied());
        assert!(idx.grid.cells.is_empty(), "rebuild must drop the previous shape's grid");
        let fresh = SegmentIndex::build(&b);
        for round in 0..2 {
            for q in probes(&mut rng, &b, &idx) {
                assert_eq!(bits(&idx, q), bits(&fresh, q), "round {round}, q = {q:?}");
            }
            idx.build_grid(); // round 1: b's own grid
        }
        assert_eq!(idx.grid.cells.capacity(), capacity);
        // a tree-backed set takes no grid, before or after
        let big = random_edges(&mut rng, 90);
        idx.rebuild(big.iter().copied());
        idx.build_grid();
        assert!(idx.grid.cells.is_empty() && !idx.flat);
        assert_grid_parity(&mut rng, &big);
    }

    /// The raster's bound at `q`, its cell found in `f64`: 0 without a
    /// raster, outside its box, and for a NaN point.
    fn lower_bound(idx: &SegmentIndex, q: Point) -> f64 {
        let Some([x0, y0, w, h]) = idx.lower_bound_box() else { return 0.0 };
        let (fx, fy, n) = ((q.x - x0) / w, (q.y - y0) / h, RASTER_N as f64);
        // (false for NaN too)
        if !((0.0..n).contains(&fx) && (0.0..n).contains(&fy)) {
            return 0.0;
        }
        let (i, j) = (fx as usize, fy as usize);
        idx.lower_bound_quad(j / 2 * GRID_N + i / 2)[j % 2 * 2 + i % 2]
    }

    /// Assert `0 ≤ lower_bound(q) ≤ dist(q)` — the distance from the flat
    /// scan, no grid — on the stress probes plus every raster cell's
    /// corners and borders; a non-finite probe must read 0.
    fn assert_lower_bound_sound(rng: &mut StdRng, segs: &[Segment]) -> SegmentIndex {
        let plain = SegmentIndex::build(segs);
        let mut idx = SegmentIndex::build(segs);
        idx.build_grid();
        assert_eq!(idx.lower_bound_box().is_some(), !idx.grid.cells.is_empty(), "a raster exactly where a grid is");
        let bbox = segs.iter().fold(Aabb::EMPTY, |b, s| b.union(&s.bbox()));
        let mut qs = probes(rng, segs, &idx);
        border_probes(rng, &bbox, &idx, 2, &mut qs);
        for q in qs {
            let (lb, d) = (lower_bound(&idx, q), plain.dist(q));
            assert!(lb >= 0.0 && lb <= d, "q = {q:?}: bound {lb}, distance {d}, {} edges", segs.len());
            if !(q.x.is_finite() && q.y.is_finite()) {
                assert_eq!(lb, 0.0, "q = {q:?}");
            }
        }
        idx
    }

    /// A regular `n`-gon of radius `r` about `(cx, cy)`.
    fn regular(n: usize, r: f64, cx: f64, cy: f64) -> Vec<Segment> {
        let pts: Vec<Point> = (0..n)
            .map(|i| {
                let t = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
                pt(cx + r * t.cos(), cy + r * t.sin())
            })
            .collect();
        chain(&pts, true)
    }

    #[test]
    fn grid_lower_bound_in_overflowed_cells() {
        // deep inside a round shape every edge is about equally far: the
        // grid cells there overflow and their raster cells take `D` from
        // the flat scan
        let mut rng = StdRng::seed_from_u64(13);
        for n in [48, 64] {
            let circle = regular(n, 0.5, 0.5, 0.0);
            let idx = assert_lower_bound_sound(&mut rng, &circle);
            let overflowed = (0..GRID_N * GRID_N).filter_map(|c| idx.list(c)).any(|cell| cell[0] == GRID_OVERFLOW);
            assert!(overflowed, "{n}-gon: no cell overflowed");
            // the centre is 0.5 from every edge: the bound there is tight
            // to within a raster cell
            let lb = lower_bound(&idx, pt(0.5, 0.0));
            assert!(lb > 0.4 && lb <= idx.dist(pt(0.5, 0.0)), "{n}-gon centre: {lb}");
        }
    }

    #[test]
    fn grid_lower_bound_degenerate_boxes_read_zero() {
        let mut rng = StdRng::seed_from_u64(17);
        // no grid, hence no raster: every probe reads 0
        let point = vec![Segment::new(pt(2.0, 3.0), pt(2.0, 3.0)); 3];
        let lost = chain(&[pt(1e6, 1e6), pt(1e6 + 1e-9, 1e6), pt(1e6, 1e6 + 1e-9)], true);
        let huge = chain(&[pt(0.0, 0.0), pt(f64::MAX, 0.0), pt(0.0, -f64::MAX)], true);
        let tree = random_edges(&mut rng, 90);
        for segs in [&point, &lost, &huge, &tree] {
            let idx = assert_lower_bound_sound(&mut rng, segs);
            assert!(idx.lower_bound_box().is_none() && idx.lower_bound_quad(0) == [0.0; 4]);
            for q in probes(&mut rng, segs, &idx) {
                assert_eq!(lower_bound(&idx, q), 0.0, "q = {q:?}");
            }
        }
        // thin, flat and NaN-edged boxes do get one, and it holds
        let flat = chain(&[pt(0.0, 0.0), pt(0.4, 0.0), pt(0.4, 0.0), pt(1.0, 0.0)], false);
        let thin = chain(&[pt(0.0, 0.0), pt(0.5, 1e-9), pt(1.0, 0.0), pt(0.5, -1e-9)], true);
        let nan = vec![Segment::new(pt(f64::NAN, 0.0), pt(1.0, 1.0)), Segment::new(pt(0.0, 0.0), pt(1.0, 0.0))];
        for segs in [&flat, &thin, &nan] {
            assert!(assert_lower_bound_sound(&mut rng, segs).lower_bound_box().is_some());
        }
        // a rebuild drops the raster with the grid, and a new grid reads
        // the new shape's bounds, not the old one's
        let mut idx = assert_lower_bound_sound(&mut rng, &thin);
        let away = pt(0.5, 0.2);
        let thin_bound = lower_bound(&idx, away);
        assert!(thin_bound > 0.0);
        idx.rebuild(flat.iter().copied());
        assert_eq!(lower_bound(&idx, away), 0.0);
        idx.build_grid();
        let mut fresh = SegmentIndex::build(&flat);
        fresh.build_grid();
        assert_eq!(lower_bound(&idx, away).to_bits(), lower_bound(&fresh, away).to_bits());
        assert_ne!(lower_bound(&idx, away).to_bits(), thin_bound.to_bits());
    }

    #[test]
    fn grid_lower_bound_hugs_the_anchors() {
        // a query in the lune frame passes through (0, 0) and (1, 0):
        // points on and a hair off the anchors must read no more than
        // their (tiny) distance
        let mut rng = StdRng::seed_from_u64(19);
        let closed = chain(&[pt(0.0, 0.0), pt(1.0, 0.0), pt(0.7, 0.4), pt(0.3, 0.35)], true);
        let open = chain(&[pt(0.0, 0.0), pt(0.35, -0.3), pt(0.6, 0.2), pt(1.0, 0.0)], false);
        for segs in [&closed, &open] {
            let idx = assert_lower_bound_sound(&mut rng, segs);
            let plain = SegmentIndex::build(segs);
            for anchor in [pt(0.0, 0.0), pt(1.0, 0.0)] {
                let mut near = vec![anchor];
                for off in [1e-300, 1e-12, 1e-6, 1e-3] {
                    for (dx, dy) in [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0), (1.0, 1.0), (-1.0, -1.0)] {
                        near.push(pt(anchor.x + dx * off, anchor.y + dy * off));
                    }
                }
                near.push(pt(anchor.x.next_up(), anchor.y.next_down()));
                near.push(pt(anchor.x.next_down(), anchor.y.next_up()));
                for q in near {
                    let (lb, d) = (lower_bound(&idx, q), plain.dist(q));
                    assert!(lb >= 0.0 && lb <= d, "q = {q:?}: bound {lb}, distance {d}");
                }
            }
            // and away from the shape it is not vacuous
            let lb = lower_bound(&idx, pt(0.5, -0.2));
            assert!(lb > 0.0 && lb <= plain.dist(pt(0.5, -0.2)), "{lb}");
        }
    }

    /// The grid and raster as the builds made them before they measured
    /// from [`EdgeColumns`]: every distance by [`Segment::dist_sq_to_point`],
    /// a bounding-box cull and the previous cell's nearest edge first.
    /// `(cells, raster)`, both empty where no grid is built.
    fn reference_build(segs: &[Segment]) -> (Vec<[u8; GRID_CAP + 1]>, Vec<f64>) {
        let idx = SegmentIndex::build(segs);
        let mut cells = Vec::new();
        if !idx.flat {
            return (cells, Vec::new());
        }
        let bbox = segs.iter().fold(Aabb::EMPTY, |b, s| b.union(&s.bbox()));
        let margin = GRID_MARGIN * bbox.width().max(bbox.height());
        let (x0, y0) = (bbox.min.x - margin, bbox.min.y - margin);
        let (x1, y1) = (bbox.max.x + margin, bbox.max.y + margin);
        let (cw, ch) = ((x1 - x0) / GRID_N as f64, (y1 - y0) / GRID_N as f64);
        let reach = x0.abs().max(x1.abs()).max(y0.abs()).max(y1.abs());
        if !(reach.is_finite() && cw.min(ch) >= GRID_MIN_CELL * reach.max(1e-100)) {
            return (cells, Vec::new());
        }
        let half_diag = 0.5 * cw.hypot(ch);
        let reach_of = |d2: f64| {
            let radius = (d2.sqrt() + 2.0 * half_diag) * (1.0 + GRID_SLACK);
            radius * radius
        };
        let boxes: Vec<Aabb> = segs.iter().map(Segment::bbox).collect();
        let mut d2 = vec![0.0f64; segs.len()];
        let mut hint = 0;
        for j in 0..GRID_N {
            for i in 0..GRID_N {
                let m = Point::new(x0 + (i as f64 + 0.5) * cw, y0 + (j as f64 + 0.5) * ch);
                let mut nearest = segs[hint].dist_sq_to_point(m).min(f64::INFINITY);
                let mut reach2 = reach_of(nearest);
                for (e, ((d, s), b)) in d2.iter_mut().zip(segs).zip(&boxes).enumerate() {
                    *d = if b.dist_sq(m) > reach2 { f64::INFINITY } else { s.dist_sq_to_point(m) };
                    if *d < nearest {
                        (nearest, hint) = (*d, e);
                        reach2 = reach_of(nearest);
                    }
                }
                // bit e: edge e is listed (a u64 holds FLAT_MAX edges)
                let listed = d2.iter().enumerate().fold(0u64, |bits, (e, &d)| bits | ((d <= reach2) as u64) << e);
                // the first GRID_CAP listed edges, ascending; more marks
                // the cell overflowed
                let mut cell = [0u8; GRID_CAP + 1];
                let mut rest = listed;
                for slot in &mut cell[1..] {
                    if rest == 0 {
                        break;
                    }
                    *slot = rest.trailing_zeros() as u8;
                    rest &= rest - 1;
                }
                let len = listed.count_ones() as usize;
                cell[0] = if len > GRID_CAP { GRID_OVERFLOW } else { len as u8 };
                cells.push(cell);
            }
        }
        let (w, h) = (0.5 / (1.0 / cw), 0.5 / (1.0 / ch));
        let half_diag = 0.5 * w.hypot(h) * (1.0 + GRID_SLACK);
        let mut lb = vec![0.0; RASTER_N * RASTER_N];
        for (c, cell) in cells.iter().enumerate() {
            let list = cell.get(1..=cell[0] as usize);
            for (i, j) in [(0, 0), (1, 0), (0, 1), (1, 1)] {
                let (i, j) = (2 * (c % GRID_N) + i, 2 * (c / GRID_N) + j);
                let m = Point::new(x0 + (i as f64 + 0.5) * w, y0 + (j as f64 + 0.5) * h);
                let (_, d2) = match list {
                    Some(list) => scan_list(list.iter().map(|&e| (e as u32, &segs[e as usize])), m),
                    None => idx.scan_flat(m),
                };
                lb[j * RASTER_N + i] = (d2.sqrt() * (1.0 - GRID_SLACK) - half_diag).max(0.0);
            }
        }
        (cells, lb)
    }

    /// The grid and raster as the eager builds made them before a cell
    /// was filled on first read: every list, then every quad, in cell
    /// order, from the same edge columns. `(cells, raster)`, both empty
    /// where no grid is laid — the reference the lazy fill is held to bit
    /// for bit.
    fn eager_build(segs: &[Segment]) -> (Vec<[u8; GRID_CAP + 1]>, Vec<f64>) {
        let mut cells = Vec::new();
        if !SegmentIndex::build(segs).flat {
            return (cells, Vec::new());
        }
        let bbox = segs.iter().fold(Aabb::EMPTY, |b, s| b.union(&s.bbox()));
        let margin = GRID_MARGIN * bbox.width().max(bbox.height());
        let (x0, y0) = (bbox.min.x - margin, bbox.min.y - margin);
        let (x1, y1) = (bbox.max.x + margin, bbox.max.y + margin);
        let (cw, ch) = ((x1 - x0) / GRID_N as f64, (y1 - y0) / GRID_N as f64);
        let reach = x0.abs().max(x1.abs()).max(y0.abs()).max(y1.abs());
        if !(reach.is_finite() && cw.min(ch) >= GRID_MIN_CELL * reach.max(1e-100)) {
            return (cells, Vec::new());
        }
        let half_diag = 0.5 * cw.hypot(ch);
        let reach_of = |d2: f64| {
            let radius = (d2.sqrt() + 2.0 * half_diag) * (1.0 + GRID_SLACK);
            radius * radius
        };
        let mut cols = EdgeColumns::ZERO;
        cols.lay(segs);
        let mut d2 = [0.0f64; FLAT_MAX];
        let d2 = &mut d2[..segs.len()];
        for j in 0..GRID_N {
            for i in 0..GRID_N {
                let m = Point::new(x0 + (i as f64 + 0.5) * cw, y0 + (j as f64 + 0.5) * ch);
                for (e, d) in d2.iter_mut().enumerate() {
                    *d = cols.dist_sq(e, m);
                }
                let nearest = d2.iter().fold(f64::INFINITY, |n, &d| if d < n { d } else { n });
                let reach2 = reach_of(nearest);
                let listed = d2.iter().enumerate().fold(0u64, |bits, (e, &d)| bits | ((d <= reach2) as u64) << e);
                let mut cell = [0u8; GRID_CAP + 1];
                let mut rest = listed;
                for slot in &mut cell[1..] {
                    if rest == 0 {
                        break;
                    }
                    *slot = rest.trailing_zeros() as u8;
                    rest &= rest - 1;
                }
                let len = listed.count_ones() as usize;
                cell[0] = if len > GRID_CAP { GRID_OVERFLOW } else { len as u8 };
                cells.push(cell);
            }
        }
        let (w, h) = (0.5 / (1.0 / cw), 0.5 / (1.0 / ch));
        let half_diag = 0.5 * w.hypot(h) * (1.0 + GRID_SLACK);
        let mut lb = vec![0.0; RASTER_N * RASTER_N];
        for (c, cell) in cells.iter().enumerate() {
            let (i, j) = (2 * (c % GRID_N), 2 * (c / GRID_N));
            let centre = |di: usize, dj: usize| Point::new(x0 + ((i + di) as f64 + 0.5) * w, y0 + ((j + dj) as f64 + 0.5) * h);
            let ms = [centre(0, 0), centre(1, 0), centre(0, 1), centre(1, 1)];
            let mut nearest = [f64::INFINITY; 4];
            let mut offer = |e: usize| {
                for (n, &m) in nearest.iter_mut().zip(&ms) {
                    let d = cols.dist_sq(e, m);
                    if d < *n {
                        *n = d;
                    }
                }
            };
            match cell.get(1..=cell[0] as usize) {
                Some(list) => list.iter().for_each(|&e| offer(e as usize)),
                None => (0..segs.len()).for_each(offer),
            }
            for (k, d2) in nearest.into_iter().enumerate() {
                lb[(j + k / 2) * RASTER_N + i + k % 2] = (d2.sqrt() * (1.0 - GRID_SLACK) - half_diag).max(0.0);
            }
        }
        (cells, lb)
    }

    /// `segs`' grid filled on first read, every list and quad of it in a
    /// random order — a few lists by a lookup in them first — gathered
    /// as the eager build's `(cells, raster)`.
    fn lazy_fill(rng: &mut StdRng, segs: &[Segment]) -> (Vec<[u8; GRID_CAP + 1]>, Vec<f64>) {
        let mut idx = SegmentIndex::build(segs);
        idx.build_grid();
        let Some([x0, y0, w, h]) = idx.lower_bound_box() else {
            assert_eq!(idx.lower_bound_quad(0), [0.0; 4], "no grid reads 0");
            return (Vec::new(), Vec::new());
        };
        assert_eq!(idx.filled_lists().count(), 0, "a grid is laid empty");
        let span = RASTER_N as f64;
        for _ in 0..rng.random_range(0..16) {
            idx.probe_cost(pt(x0 + rng.random_range(0.0..span) * w, y0 + rng.random_range(0.0..span) * h));
        }
        // (list or quad, grid cell), shuffled
        let mut order: Vec<(bool, usize)> = (0..GRID_N * GRID_N).flat_map(|c| [(false, c), (true, c)]).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.random_range(0..=i));
        }
        let mut lb = vec![f64::NAN; RASTER_N * RASTER_N];
        for (quad, c) in order {
            if !quad {
                idx.fill_lists([c]);
                continue;
            }
            for (k, bound) in idx.lower_bound_quad(c).into_iter().enumerate() {
                lb[(2 * (c / GRID_N) + k / 2) * RASTER_N + 2 * (c % GRID_N) + k % 2] = bound;
            }
        }
        assert!(idx.filled_lists().eq(0..GRID_N * GRID_N));
        (idx.grid.cells.iter().map(|c| *c.get().expect("filled")).collect(), lb)
    }

    /// Assert that lists and bounds filled on first read, in a random
    /// order, are the eager build's bit for bit, and that the eager
    /// build's lists and overflow marks are the reference build's, its
    /// raster within 1e-12 of the reference's.
    fn assert_reference_build(rng: &mut StdRng, segs: &[Segment]) {
        let (cells, lb) = eager_build(segs);
        let (lazy_cells, lazy_lb) = lazy_fill(rng, segs);
        assert_eq!(lazy_cells, cells, "{} edges", segs.len());
        let bits = |lb: &[f64]| lb.iter().map(|b| b.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&lazy_lb), bits(&lb), "{} edges", segs.len());
        let (ref_cells, ref_lb) = reference_build(segs);
        assert_eq!(cells, ref_cells, "{} edges", segs.len());
        assert_eq!(lb.len(), ref_lb.len());
        for (c, (&got, &want)) in lb.iter().zip(&ref_lb).enumerate() {
            assert!(got == want || (got - want).abs() <= 1e-12, "raster cell {c}: {got} vs {want}, {} edges", segs.len());
        }
    }

    #[test]
    fn grid_fills_a_list_on_its_first_lookup_and_a_rebuild_drops_it() {
        // one lookup fills its cell's list and no other; a quad fills its
        // cell's list too; a rebuild onto another shape drops every
        // filled list, so the new shape's lookups are its own
        let mut rng = StdRng::seed_from_u64(23);
        let a = random_edges(&mut rng, 19);
        let b: Vec<Segment> =
            random_edges(&mut rng, 12).iter().map(|s| Segment::new(pt(s.a.y, s.a.x), pt(s.b.y, s.b.x))).collect();
        let mut idx = SegmentIndex::build(&a);
        idx.build_grid();
        let [x0, y0, w, h] = idx.lower_bound_box().expect("a grid");
        let (cost, hit) = idx.probe_cost(pt(x0 + 8.5 * w, y0 + 3.5 * h));
        assert!(hit && cost > 0);
        assert!(idx.filled_lists().eq([GRID_N + 4]), "one lookup, one list");
        idx.lower_bound_quad(200);
        assert!(idx.filled_lists().eq([GRID_N + 4, 200]));
        idx.build_grid();
        assert_eq!(idx.filled_lists().count(), 2, "laying the grid again keeps what this shape filled");
        idx.fill_lists(0..GRID_N * GRID_N);
        idx.rebuild(b.iter().copied());
        assert_eq!(idx.filled_lists().count(), 0);
        idx.build_grid();
        assert_eq!(idx.filled_lists().count(), 0, "the new shape's grid is laid empty");
        let mut fresh = SegmentIndex::build(&b);
        fresh.build_grid();
        for q in probes(&mut rng, &b, &fresh) {
            assert_eq!(bits(&idx, q), bits(&fresh, q), "q = {q:?}");
        }
        assert!((0..GRID_N * GRID_N).all(|c| idx.lower_bound_quad(c) == fresh.lower_bound_quad(c)));
        assert_eq!(lazy_fill(&mut rng, &b), eager_build(&b));
    }

    proptest! {
        /// The raster's contract: `0 ≤ lower_bound ≤ dist` wherever it is
        /// read — on 2–64 edges (a raster) and beyond (none: 0).
        #[test]
        fn grid_lower_bound_on_random_shapes(seed in 0u64..1_000_000, big in 0usize..8) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = if big == 0 { rng.random_range(65..120) } else { rng.random_range(2..=64) };
            let mut segs = random_edges(&mut rng, n);
            segs.truncate(if big == 0 { 120 } else { 64 });
            let idx = assert_lower_bound_sound(&mut rng, &segs);
            prop_assert!(big != 0 || idx.lower_bound_box().is_none(), "a tree-backed set has no raster");
        }

        /// Lists and bounds filled on first read, in a random order, are
        /// the eager build's bit for bit, and the column fills make the
        /// reference lists and overflow marks, and a raster within 1e-12
        /// of the reference's: on 3–64 edges (degenerate edges among
        /// them), on a 64-edge set ([`FLAT_MAX`]) every case, on a 64-gon
        /// whose inner cells overflow, and on the degenerate boxes of
        /// `grid_lower_bound_degenerate_boxes_read_zero` (no grid, or a
        /// thin, flat or NaN-edged one).
        #[test]
        fn grid_columns_build_the_reference_lists(seed in 0u64..1_000_000, n in 3usize..=64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut segs = random_edges(&mut rng, n);
            segs.truncate(n);
            assert_reference_build(&mut rng, &segs);
            let mut full = random_edges(&mut rng, FLAT_MAX);
            full.truncate(FLAT_MAX);
            assert_eq!(full.len(), FLAT_MAX);
            assert_reference_build(&mut rng, &full);
            let round = regular(FLAT_MAX, 0.5, 0.5, 0.0);
            prop_assert!(eager_build(&round).0.iter().any(|c| c[0] == GRID_OVERFLOW));
            assert_reference_build(&mut rng, &round);
            let point = vec![Segment::new(pt(2.0, 3.0), pt(2.0, 3.0)); 3];
            let lost = chain(&[pt(1e6, 1e6), pt(1e6 + 1e-9, 1e6), pt(1e6, 1e6 + 1e-9)], true);
            let huge = chain(&[pt(0.0, 0.0), pt(f64::MAX, 0.0), pt(0.0, -f64::MAX)], true);
            let flat = chain(&[pt(0.0, 0.0), pt(0.4, 0.0), pt(0.4, 0.0), pt(1.0, 0.0)], false);
            let thin = chain(&[pt(0.0, 0.0), pt(0.5, 1e-9), pt(1.0, 0.0), pt(0.5, -1e-9)], true);
            let nan = vec![Segment::new(pt(f64::NAN, 0.0), pt(1.0, 1.0)), Segment::new(pt(0.0, 0.0), pt(1.0, 0.0))];
            for segs in [&point, &lost, &huge, &flat, &thin, &nan] {
                assert_reference_build(&mut rng, segs);
            }
        }

        /// The tentpole's contract: a grid changes no answer, bit for bit
        /// — index and distance — on 2–64 edges (grid → scan) and beyond
        /// (no grid, tree).
        #[test]
        fn grid_parity_on_random_shapes(seed in 0u64..1_000_000, big in 0usize..8) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = if big == 0 { rng.random_range(65..120) } else { rng.random_range(2..=64) };
            let mut segs = random_edges(&mut rng, n);
            segs.truncate(if big == 0 { 120 } else { 64 });
            assert_grid_parity(&mut rng, &segs);
        }

        #[test]
        fn nearest_matches_brute_force(seed in 0u64..300) {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.random_range(1usize..60);
            let segs: Vec<Segment> = (0..n)
                .map(|_| Segment::new(
                    Point::new(rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0)),
                    Point::new(rng.random_range(-5.0..5.0), rng.random_range(-5.0..5.0)),
                ))
                .collect();
            let idx = SegmentIndex::build(&segs);
            for _ in 0..20 {
                let q = Point::new(rng.random_range(-8.0..8.0), rng.random_range(-8.0..8.0));
                let brute = segs.iter().map(|s| s.dist_to_point(q)).fold(f64::INFINITY, f64::min);
                let (_, d) = idx.nearest(q).unwrap();
                prop_assert!((d - brute).abs() < 1e-9, "tree {} vs brute {}", d, brute);
            }
        }
    }
}
