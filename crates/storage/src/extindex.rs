//! The auxiliary geometric data structure in external memory (§4: "For
//! accommodating the auxiliary data structures in external memory we use
//! optimal range search indexing structures").
//!
//! A bulk-loaded, leaf-heavy kd-tree over the shape base's pooled vertices:
//! leaves pack ~84 `(vertex id, x, y)` entries per 1 KB block on the
//! simulated disk; the internal split directory (a few percent of the data)
//! stays in memory, as the upper levels of any disk B-tree would. Triangle
//! queries descend with exact triangle/box pruning and read only the leaf
//! blocks whose boxes intersect the query, through the LRU buffer pool —
//! so index I/Os are measured with the same machinery as record I/Os.

use bytes::{Buf, BufMut};
use geosir_geom::{Aabb, Point, Triangle};

use crate::buffer::BufferPool;
use crate::disk::{DiskSim, BLOCK_SIZE};

/// Entries per leaf block: 2-byte count header + 12 bytes per entry.
const LEAF_CAPACITY: usize = (BLOCK_SIZE - 2) / 12;

#[derive(Debug)]
enum ExtNode {
    Internal { bbox: Aabb, left: u32, right: u32 },
    Leaf { bbox: Aabb, block: u32 },
}

/// Disk-resident vertex index with an in-memory split directory.
pub struct ExternalVertexIndex {
    disk: DiskSim,
    nodes: Vec<ExtNode>,
    root: Option<u32>,
}

impl ExternalVertexIndex {
    /// Bulk load by recursive median splits; `O(n log n)`.
    pub fn build(points: &[Point]) -> Self {
        let mut ids: Vec<u32> = (0..points.len() as u32).collect();
        let mut nodes = Vec::new();
        let mut leaves: Vec<Vec<u8>> = Vec::new();
        let root = if ids.is_empty() {
            None
        } else {
            Some(build_rec(points, &mut ids, 0, &mut nodes, &mut leaves))
        };
        let mut disk = DiskSim::new(leaves.len().max(1));
        for (i, l) in leaves.iter().enumerate() {
            disk.write(i, l);
        }
        disk.reset_stats();
        ExternalVertexIndex { disk, nodes, root }
    }

    /// Leaf blocks on disk.
    pub fn num_blocks(&self) -> usize {
        self.disk.num_blocks()
    }

    /// Report the ids of points inside `tri`, reading leaf blocks through
    /// `pool`. Returns the number of block fetches (pool misses) incurred.
    pub fn report_triangle(
        &self,
        pool: &mut BufferPool,
        tri: &Triangle,
        out: &mut Vec<u32>,
    ) -> u64 {
        let Some(root) = self.root else { return 0 };
        let before = pool.stats().misses;
        self.rec(root, pool, tri, out);
        pool.stats().misses - before
    }

    fn rec(&self, v: u32, pool: &mut BufferPool, tri: &Triangle, out: &mut Vec<u32>) {
        match &self.nodes[v as usize] {
            ExtNode::Internal { bbox, left, right } => {
                if !tri.intersects_box(bbox) {
                    return;
                }
                self.rec(*left, pool, tri, out);
                self.rec(*right, pool, tri, out);
            }
            ExtNode::Leaf { bbox, block } => {
                if !tri.intersects_box(bbox) {
                    return;
                }
                let data = pool.read(&self.disk, *block as usize);
                let mut buf = &data[..];
                let count = buf.get_u16_le() as usize;
                for _ in 0..count {
                    let vid = buf.get_u32_le();
                    let x = buf.get_f32_le() as f64;
                    let y = buf.get_f32_le() as f64;
                    if tri.contains(Point::new(x, y)) {
                        out.push(vid);
                    }
                }
            }
        }
    }
}

fn build_rec(
    points: &[Point],
    ids: &mut [u32],
    depth: usize,
    nodes: &mut Vec<ExtNode>,
    leaves: &mut Vec<Vec<u8>>,
) -> u32 {
    let bbox = Aabb::of_points(ids.iter().map(|&i| points[i as usize]));
    if ids.len() <= LEAF_CAPACITY {
        let mut data = Vec::with_capacity(2 + 12 * ids.len());
        data.put_u16_le(ids.len() as u16);
        for &i in ids.iter() {
            let p = points[i as usize];
            data.put_u32_le(i);
            data.put_f32_le(p.x as f32);
            data.put_f32_le(p.y as f32);
        }
        leaves.push(data);
        nodes.push(ExtNode::Leaf { bbox, block: leaves.len() as u32 - 1 });
        return nodes.len() as u32 - 1;
    }
    let axis = depth % 2;
    let mid = ids.len() / 2;
    ids.select_nth_unstable_by(mid, |&a, &b| {
        let (pa, pb) = (points[a as usize], points[b as usize]);
        if axis == 0 {
            pa.x.partial_cmp(&pb.x).unwrap().then(pa.y.partial_cmp(&pb.y).unwrap())
        } else {
            pa.y.partial_cmp(&pb.y).unwrap().then(pa.x.partial_cmp(&pb.x).unwrap())
        }
    });
    let (lo, hi) = ids.split_at_mut(mid);
    let left = build_rec(points, lo, depth + 1, nodes, leaves);
    let right = build_rec(points, hi, depth + 1, nodes, leaves);
    nodes.push(ExtNode::Internal { bbox, left, right });
    nodes.len() as u32 - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::prelude::*;

    fn random_points(seed: u64, n: usize) -> Vec<Point> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect()
    }

    fn random_triangle(rng: &mut StdRng) -> Triangle {
        Triangle::new(
            Point::new(rng.random_range(-0.2..1.2), rng.random_range(-0.2..1.2)),
            Point::new(rng.random_range(-0.2..1.2), rng.random_range(-0.2..1.2)),
            Point::new(rng.random_range(-0.2..1.2), rng.random_range(-0.2..1.2)),
        )
    }

    #[test]
    fn equivalence_with_brute_force() {
        let pts = random_points(3, 5000);
        let idx = ExternalVertexIndex::build(&pts);
        let mut pool = BufferPool::new(64);
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..60 {
            let tri = random_triangle(&mut rng);
            let mut got = Vec::new();
            idx.report_triangle(&mut pool, &tri, &mut got);
            got.sort_unstable();
            let mut want: Vec<u32> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| tri.contains(**p))
                .map(|(i, _)| i as u32)
                .collect();
            want.sort_unstable();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn directory_stays_small() {
        let pts = random_points(5, 20_000);
        let idx = ExternalVertexIndex::build(&pts);
        // leaves ≈ n / 84; directory = 2·leaves − 1
        let expect_leaves = 20_000usize.div_ceil(LEAF_CAPACITY);
        assert!(idx.num_blocks() >= expect_leaves);
        assert!(idx.num_blocks() <= 4 * expect_leaves);
        assert!(idx.nodes.len() <= 8 * expect_leaves);
    }

    #[test]
    fn warm_pool_reads_nothing() {
        let pts = random_points(7, 3000);
        let idx = ExternalVertexIndex::build(&pts);
        let mut pool = BufferPool::new(idx.num_blocks() + 1);
        let mut rng = StdRng::seed_from_u64(8);
        let tri = random_triangle(&mut rng);
        let mut out = Vec::new();
        let cold = idx.report_triangle(&mut pool, &tri, &mut out);
        out.clear();
        let warm = idx.report_triangle(&mut pool, &tri, &mut out);
        assert!(cold >= warm);
        assert_eq!(warm, 0, "repeat query with a big pool must be free");
    }

    #[test]
    fn io_proportional_to_selectivity() {
        let pts = random_points(9, 20_000);
        let idx = ExternalVertexIndex::build(&pts);
        // a tiny triangle touches few leaves; a huge one touches most
        let tiny = Triangle::new(
            Point::new(0.5, 0.5),
            Point::new(0.52, 0.5),
            Point::new(0.51, 0.52),
        );
        let huge = Triangle::new(
            Point::new(-1.0, -1.0),
            Point::new(3.0, -1.0),
            Point::new(1.0, 3.0),
        );
        let mut out = Vec::new();
        let mut pool = BufferPool::new(1); // force all misses to count
        let io_tiny = idx.report_triangle(&mut pool, &tiny, &mut out);
        out.clear();
        let mut pool = BufferPool::new(1);
        let io_huge = idx.report_triangle(&mut pool, &huge, &mut out);
        assert!(
            io_tiny * 10 < io_huge,
            "tiny {io_tiny} I/Os vs huge {io_huge} I/Os"
        );
        assert_eq!(out.len(), 20_000, "huge triangle reports everything");
    }

    #[test]
    fn empty_index() {
        let idx = ExternalVertexIndex::build(&[]);
        let mut pool = BufferPool::new(4);
        let mut out = Vec::new();
        let io = idx.report_triangle(
            &mut pool,
            &Triangle::new(Point::new(0.0, 0.0), Point::new(1.0, 0.0), Point::new(0.0, 1.0)),
            &mut out,
        );
        assert_eq!(io, 0);
        assert!(out.is_empty());
        assert!(idx.root.is_none());
    }

    proptest! {
        #[test]
        fn agreement_property(seed in 0u64..100, n in 1usize..600) {
            let pts = random_points(seed, n);
            let idx = ExternalVertexIndex::build(&pts);
            let mut pool = BufferPool::new(16);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x55);
            let tri = random_triangle(&mut rng);
            let mut got = Vec::new();
            idx.report_triangle(&mut pool, &tri, &mut got);
            got.sort_unstable();
            let mut want: Vec<u32> = pts
                .iter()
                .enumerate()
                .filter(|(_, p)| tri.contains(**p))
                .map(|(i, _)| i as u32)
                .collect();
            want.sort_unstable();
            prop_assert_eq!(got, want);
        }
    }
}
