//! The static sub-bases. A [`Level`] is made once — by a bulk load, a
//! carry or a compaction, all one merge ([`Level::merge`]) — and never
//! changed after; a [`Slot`] holds it beside its tombstones.

use std::ops::Range;
use std::sync::Arc;

use geosir_geom::{Point, Polyline};

use super::arena::{bytes, ranged, BufferedShape, CopyArena, DeadBits, InsertScratch, Row};
use super::GlobalShapeId;
use crate::approx::SigBuckets;
use crate::hashing::CurveFamily;
use crate::ids::{ImageId, ShapeId};
use crate::shapebase::par_map;

/// One static sub-base: what its shapes' inserts (or one bulk load)
/// computed, laid out for the scan and the hash tier. Immutable once
/// built; a carry that consumes it copies out what is still live.
#[derive(Default)]
pub(super) struct Level {
    /// Every normalized copy, shape by shape in `ids` order.
    pub(super) copies: CopyArena,
    /// `copies.sigs` grouped: this level's slice of the hash tier's index.
    pub(super) buckets: SigBuckets,
    /// Level-local ShapeId → global id.
    pub(super) ids: Vec<GlobalShapeId>,
    pub(super) images: Vec<ImageId>,
    /// Whether each shape — and so each of its copies — is closed.
    pub(super) closed: Vec<bool>,
    /// The source shapes end to end, shape l at `ranged(src_ends, l..l + 1)`.
    pub(super) src_verts: Vec<Point>,
    pub(super) src_ends: Vec<u32>,
    /// Copies per shape, cumulative (aligned with `ids`): the range a
    /// carry copies, and what a delete takes off the live-copy count.
    pub(super) copy_ends: Vec<u32>,
    /// `ids` sorted, each with its level-local id: membership (WAL
    /// replay) and the bit a delete sets are a binary search, not a walk
    /// of `ids`.
    pub(super) sorted_ids: Vec<(GlobalShapeId, ShapeId)>,
}

/// One occupied carry slot: the immutable level and its tombstones, each
/// behind an `Arc` so a snapshot shares both instead of copying either.
#[derive(Clone)]
pub(super) struct Slot {
    pub(super) level: Arc<Level>,
    pub(super) dead: Arc<DeadBits>,
}

impl Slot {
    pub(super) fn new(level: Level) -> Slot {
        Slot { level: Arc::new(level), dead: Arc::default() }
    }

    pub(super) fn live_shapes(&self) -> usize {
        self.level.ids.len() - self.dead.shapes
    }

    pub(super) fn live_copies(&self) -> usize {
        self.level.copies.len() - self.dead.copies
    }

    /// The live shapes, in level order.
    pub(super) fn live(&self) -> impl Iterator<Item = ShapeId> + Clone + '_ {
        (0..self.level.ids.len() as u32).map(ShapeId).filter(|local| !self.dead.get(*local))
    }

    /// Whether copy `i` of the level belongs to a live shape.
    pub(super) fn live_copy(&self, i: usize) -> bool {
        !self.dead.get(self.level.copies.owner[i])
    }
}

impl Level {
    /// An empty level sized exactly for `shapes` shapes of `src` source
    /// vertices with `copies` copies of `verts` vertices.
    fn with_capacity(shapes: usize, src: usize, copies: usize, verts: usize) -> Level {
        Level {
            copies: CopyArena::with_capacity(copies, verts, true),
            ids: Vec::with_capacity(shapes),
            images: Vec::with_capacity(shapes),
            closed: Vec::with_capacity(shapes),
            src_verts: Vec::with_capacity(src),
            src_ends: Vec::with_capacity(shapes),
            copy_ends: Vec::with_capacity(shapes),
            ..Level::default()
        }
    }

    /// The bulk-load / restore path, the only one besides
    /// [`DynamicBase::insert`] that normalizes or hashes: every shape of
    /// `pool` buffered as an insert would be, on every CPU, then carried
    /// into one level.
    pub(super) fn build(pool: Vec<(GlobalShapeId, ImageId, Polyline)>, alpha: f64, family: &CurveFamily) -> Level {
        let shapes = par_map(&pool, 0, |(id, image, shape)| {
            let scratch = &mut InsertScratch::default();
            Arc::new(BufferedShape::new(*id, *image, shape.clone(), alpha, family, scratch))
        });
        Level::merge(&shapes, std::iter::empty())
    }

    /// What a carry leaves in its target slot: the shapes of `buffer`,
    /// then the live shapes of `slots` in slot order, each with the
    /// copies and signatures it already has — the level [`Level::build`]
    /// would make of the same shapes in the same order, copy for copy,
    /// with nothing normalized or hashed. Sized exactly from the live
    /// counts first, then filled range by range: a handful of allocations
    /// per level, none per shape or copy. A tombstoned shape stays
    /// behind, and its tombstone with the slot that held it.
    pub(super) fn merge<'a>(
        buffer: &[Arc<BufferedShape>],
        slots: impl Iterator<Item = &'a Slot> + Clone,
    ) -> Level {
        // (row, copies as a range of an arena)
        let buffered = buffer.iter().map(|b| (b.row(), &b.copies, 0..b.copies.len()));
        let leveled = slots.flat_map(|slot| {
            let level = &*slot.level;
            slot.live().map(move |l| (level.row(l), &level.copies, level.copies_of(l)))
        });
        let shapes = buffered.chain(leveled);
        let (mut n, mut src, mut copies, mut verts) = (0, 0, 0, 0);
        for ((_, _, source, _), arena, range) in shapes.clone() {
            (n, src, copies) = (n + 1, src + source.len(), copies + range.len());
            verts += ranged(&arena.ends, range).len();
        }
        let mut out = Level::with_capacity(n, src, copies, verts);
        // Snapshots may still hold the slots' levels: their contents are
        // copied out, never moved.
        for (row, arena, range) in shapes {
            out.copies.extend_from(ShapeId(out.ids.len() as u32), arena, range);
            out.push_shape(row);
        }
        out.finish()
    }

    /// Record a shape whose copies were just appended to the arena.
    fn push_shape(&mut self, (id, image, src, closed): Row<'_>) {
        self.ids.push(id);
        self.images.push(image);
        self.closed.push(closed);
        self.src_verts.extend_from_slice(src);
        self.src_ends.push(self.src_verts.len() as u32);
        self.copy_ends.push(self.copies.len() as u32);
    }

    pub(super) fn copies_of(&self, local: ShapeId) -> Range<usize> {
        ranged(&self.copy_ends, local.index()..local.index() + 1)
    }

    pub(super) fn row(&self, local: ShapeId) -> Row<'_> {
        let (at, src) = (local.index(), ranged(&self.src_ends, local.index()..local.index() + 1));
        (self.ids[at], self.images[at], &self.src_verts[src], self.closed[at])
    }

    /// Bucket the signatures and sort the id table.
    fn finish(mut self) -> Level {
        self.buckets = SigBuckets::from_sigs(&self.copies.sigs);
        self.sorted_ids = self.ids.iter().copied().zip((0..).map(ShapeId)).collect();
        // ids are unique, so no order among equals to keep — and an
        // unstable sort needs no scratch buffer
        self.sorted_ids.sort_unstable();
        self
    }

    pub(super) fn heap_bytes(&self) -> usize {
        let ids = bytes(&self.ids) + bytes(&self.sorted_ids) + bytes(&self.images);
        let shapes = bytes(&self.closed) + bytes(&self.copy_ends);
        let src = bytes(&self.src_verts) + bytes(&self.src_ends);
        self.copies.heap_bytes() + self.buckets.heap_bytes() + ids + shapes + src
    }

    /// The level-local id under which this level holds `id` (live or
    /// tombstoned).
    pub(super) fn find(&self, id: GlobalShapeId) -> Option<ShapeId> {
        let at = self.sorted_ids.binary_search_by(|(held, _)| {
            #[cfg(test)]
            super::tests::ID_PROBES.with(|c| c.set(c.get() + 1));
            held.cmp(&id)
        });
        at.ok().map(|at| self.sorted_ids[at].1)
    }
}
