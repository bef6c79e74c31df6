//! The packed shape store: records placed into 1 KB blocks in layout
//! order, a directory from copy id to (block, offset, length), and the
//! access-trace replay that produces the Figure 7/8 I/O counts.

use geosir_core::hashing::Signature;
use geosir_core::ids::CopyId;
use geosir_core::shapebase::ShapeBase;

use crate::buffer::BufferPool;
use crate::disk::{DiskSim, BLOCK_SIZE};
use crate::layout::{order_copies, LayoutPolicy};
use crate::record::ShapeRecord;

/// Directory entry: where a copy's record lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    block: u32,
    offset: u16,
    len: u16,
}

/// The shape base persisted to the simulated disk.
pub struct ShapeStore {
    disk: DiskSim,
    directory: Vec<Slot>,
    num_blocks: usize,
    policy: LayoutPolicy,
}

impl ShapeStore {
    /// Serialize every copy of `base` (with its hash `signatures`) to disk
    /// in the order prescribed by `policy`. Records never span blocks.
    pub fn build(base: &ShapeBase, signatures: &[Signature], policy: LayoutPolicy) -> Self {
        let order = order_copies(base, signatures, policy);
        let mut blocks: Vec<Vec<u8>> = vec![Vec::with_capacity(BLOCK_SIZE)];
        let mut directory = vec![Slot { block: 0, offset: 0, len: 0 }; base.num_copies()];
        let mut buf = Vec::with_capacity(256);
        for cid in order {
            let copy = base.copy(cid);
            let rec = ShapeRecord::from_copy(cid, copy, signatures[cid.index()]);
            buf.clear();
            rec.encode(&mut buf);
            assert!(buf.len() <= BLOCK_SIZE, "record larger than a block");
            if blocks.last().unwrap().len() + buf.len() > BLOCK_SIZE {
                blocks.push(Vec::with_capacity(BLOCK_SIZE));
            }
            let block_id = blocks.len() - 1;
            let tail = blocks.last_mut().unwrap();
            directory[cid.index()] =
                Slot { block: block_id as u32, offset: tail.len() as u16, len: buf.len() as u16 };
            tail.extend_from_slice(&buf);
        }
        let mut disk = DiskSim::new(blocks.len());
        for (i, b) in blocks.iter().enumerate() {
            disk.write(i, b);
        }
        disk.reset_stats();
        ShapeStore { disk, directory, num_blocks: blocks.len(), policy }
    }

    pub fn policy(&self) -> LayoutPolicy {
        self.policy
    }

    /// Number of occupied blocks (the paper's corpus: ~110,000).
    pub fn num_blocks(&self) -> usize {
        self.num_blocks
    }

    pub fn disk(&self) -> &DiskSim {
        &self.disk
    }

    /// Fetch one record through the buffer pool. Panics on a corrupt
    /// block.
    pub fn fetch(&self, pool: &mut BufferPool, copy: CopyId) -> ShapeRecord {
        self.try_fetch(pool, copy).expect("store wrote a valid record")
    }

    /// Fallible fetch: surfaces codec errors (torn or bit-rotted blocks)
    /// instead of panicking.
    fn try_fetch(
        &self,
        pool: &mut BufferPool,
        copy: CopyId,
    ) -> Result<ShapeRecord, crate::record::CodecError> {
        let slot = self.directory[copy.index()];
        let block = pool.read(&self.disk, slot.block as usize);
        let data = &block[slot.offset as usize..(slot.offset + slot.len) as usize];
        ShapeRecord::decode(data)
    }

    /// Replay a matcher access trace through a fresh view of `pool`,
    /// returning the number of disk reads (block fetches) it caused.
    pub fn replay_trace(&self, pool: &mut BufferPool, trace: &[CopyId]) -> u64 {
        let before = pool.stats().misses;
        for &cid in trace {
            let _ = self.fetch(pool, cid);
        }
        pool.stats().misses - before
    }
}

impl std::fmt::Debug for ShapeStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShapeStore")
            .field("policy", &self.policy)
            .field("records", &self.directory.len())
            .field("blocks", &self.num_blocks)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosir_core::hashing::GeometricHash;
    use geosir_core::ids::ImageId;
    use geosir_core::shapebase::ShapeBaseBuilder;
    use geosir_geom::rangesearch::Backend;
    use geosir_geom::{Point, Polyline};
    use rand::prelude::*;

    fn build_world(n_shapes: usize, seed: u64) -> (ShapeBase, Vec<Signature>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut b = ShapeBaseBuilder::new();
        for i in 0..n_shapes {
            let k = rng.random_range(4..9);
            let pts: Vec<Point> = (0..k)
                .map(|j| {
                    let t = 2.0 * std::f64::consts::PI * j as f64 / k as f64;
                    let r = rng.random_range(0.5..1.0);
                    Point::new(r * t.cos(), r * t.sin())
                })
                .collect();
            b.add_shape(ImageId(i as u32), Polyline::closed(pts).unwrap());
        }
        let base = b.build(0.05, Backend::KdTree);
        let gh = GeometricHash::build(&base, 50);
        let sigs: Vec<Signature> =
            base.copies().map(|(_, c)| gh.signature(&c.normalized)).collect();
        (base, sigs)
    }

    #[test]
    fn every_record_fetchable_and_faithful() {
        let (base, sigs) = build_world(25, 1);
        for policy in [
            LayoutPolicy::Unsorted,
            LayoutPolicy::MeanCurve,
            LayoutPolicy::Lexicographic,
            LayoutPolicy::MedianCurve,
        ] {
            let store = ShapeStore::build(&base, &sigs, policy);
            let mut pool = BufferPool::new(4);
            for (cid, copy) in base.copies() {
                let rec = store.fetch(&mut pool, cid);
                assert_eq!(rec.copy_id, cid);
                assert_eq!(rec.shape_id, copy.shape_id);
                assert_eq!(rec.image, copy.image);
                assert_eq!(rec.signature, sigs[cid.index()]);
                assert_eq!(rec.points.len(), copy.normalized.num_vertices());
            }
        }
    }

    #[test]
    fn block_count_matches_packing_estimate() {
        let (base, sigs) = build_world(40, 2);
        let store = ShapeStore::build(&base, &sigs, LayoutPolicy::MeanCurve);
        let total_bytes: usize = base
            .copies()
            .map(|(cid, c)| {
                ShapeRecord::from_copy(cid, c, sigs[cid.index()]).encoded_len()
            })
            .sum();
        let lower = total_bytes.div_ceil(BLOCK_SIZE);
        assert!(store.num_blocks() >= lower);
        assert!(store.num_blocks() <= 2 * lower + 1, "packing too loose");
    }

    #[test]
    fn replay_counts_misses_only() {
        let (base, sigs) = build_world(30, 3);
        let store = ShapeStore::build(&base, &sigs, LayoutPolicy::MeanCurve);
        let trace: Vec<CopyId> = base.copies().map(|(c, _)| c).collect();
        let mut pool = BufferPool::new(store.num_blocks() + 1);
        let io_cold = store.replay_trace(&mut pool, &trace);
        assert_eq!(io_cold as usize, store.num_blocks(), "cold scan reads each block once");
        let io_warm = store.replay_trace(&mut pool, &trace);
        assert_eq!(io_warm, 0, "warm replay is free with a big enough pool");
    }

    #[test]
    fn corruption_surfaces_as_error_not_panic() {
        let (base, sigs) = build_world(10, 9);
        let mut store = ShapeStore::build(&base, &sigs, LayoutPolicy::MeanCurve);
        let mut pool = BufferPool::new(4);
        // all records readable before the fault
        for (cid, _) in base.copies() {
            assert!(store.try_fetch(&mut pool, cid).is_ok());
        }
        // zero out block 0: its residents decode to Malformed/Truncated
        store.disk.write(0, &[0u8; 64]);
        pool.clear();
        let broken = base
            .copies()
            .filter(|(cid, _)| store.try_fetch(&mut pool, *cid).is_err())
            .count();
        assert!(broken >= 1, "corruption must be observable");
        // records in other blocks still fine
        let fine = base.num_copies() - broken;
        assert!(fine >= 1);
    }

    #[test]
    fn locality_aware_layout_beats_scattered_layout() {
        // trace visits similar shapes consecutively (as the matcher does);
        // a sorted layout should need fewer I/Os than a random one
        let (base, sigs) = build_world(120, 4);
        // trace = copies ordered by lexicographic signature (a proxy for
        // "similar shapes visited together")
        let mut trace: Vec<CopyId> = base.copies().map(|(c, _)| c).collect();
        trace.sort_by_key(|c| sigs[c.index()].0);
        let run = |policy| {
            let store = ShapeStore::build(&base, &sigs, policy);
            let mut pool = BufferPool::new(4);
            store.replay_trace(&mut pool, &trace)
        };
        let sorted_io = run(LayoutPolicy::Lexicographic);
        let unsorted_io = run(LayoutPolicy::Unsorted);
        assert!(
            sorted_io < unsorted_io,
            "lexicographic {sorted_io} !< unsorted {unsorted_io}"
        );
    }
}
