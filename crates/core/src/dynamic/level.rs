//! The static sub-bases. A [`Level`] is an ordered list of shared,
//! immutable [`Chunk`]s plus what is its own — the id tables and one
//! signature index over all its copies — made once, by a bulk load, a
//! carry or a compaction, and never changed after; a [`Slot`] holds it
//! beside its tombstones.

use std::ops::Range;
use std::sync::Arc;

use geosir_geom::Polyline;

use super::arena::{BufferedShape, Chunk, DeadBits, InsertScratch, Packed};
use super::exact::Store;
use super::GlobalShapeId;
use crate::approx::SigBuckets;
use crate::hashing::CurveFamily;
use crate::ids::{CopyId, ImageId, ShapeId};
use crate::shapebase::par_map;

/// One static sub-base: its chunks in order, laid out for the scan and
/// the hash tier. Immutable once built; a carry that consumes it shares
/// its chunks, and rebuilds only what is listed here beside them.
#[derive(Default)]
pub(super) struct Level {
    /// The chunks, shape by shape in `ids` order.
    pub(super) parts: Vec<Part>,
    /// Every copy's signature grouped: this level's slice of the hash
    /// tier's index. A member is its chunk and its copy there in one
    /// `u32`, split at `shift` ([`Self::unpack`]).
    pub(super) buckets: SigBuckets,
    /// The level-local shape of each of `buckets`' members, beside it:
    /// the probe's live test reads it, not the member's chunk.
    pub(super) owners: Vec<ShapeId>,
    shift: u32,
    /// Level-local ShapeId → global id.
    pub(super) ids: Vec<GlobalShapeId>,
    /// `ids` sorted, each with its level-local id: membership (WAL
    /// replay) and the bit a delete sets are a binary search, not a walk
    /// of `ids`.
    pub(super) sorted_ids: Vec<(GlobalShapeId, ShapeId)>,
}

/// One chunk of a level, and where its shapes and copies start in the
/// level's numbering.
pub(super) struct Part {
    pub(super) chunk: Arc<Chunk>,
    pub(super) shapes: u32,
    pub(super) copies: u32,
}

/// One occupied carry slot: the immutable level and its tombstones, each
/// behind an `Arc` so a snapshot shares both instead of copying either.
#[derive(Clone)]
pub(super) struct Slot {
    pub(super) level: Arc<Level>,
    pub(super) dead: Arc<DeadBits>,
}

impl Level {
    /// Copies held, tombstoned shapes' included.
    pub(super) fn num_copies(&self) -> usize {
        self.parts.last().map_or(0, |p| p.copies as usize + p.chunk.copies.len())
    }

    /// Chunk `c`'s shapes in the level's numbering.
    pub(super) fn shapes_of(&self, c: usize) -> Range<usize> {
        let Part { chunk, shapes, .. } = &self.parts[c];
        *shapes as usize..*shapes as usize + chunk.len()
    }

    /// The chunk holding shape `local`.
    pub(super) fn chunk_of(&self, local: ShapeId) -> usize {
        self.parts.partition_point(|p| p.shapes <= local.0) - 1
    }

    /// Chunk `c` as a scoring reads it: its arena, and its shapes' ids.
    pub(super) fn store(&self, c: usize) -> Store<'_> {
        Store::Chunk(&self.parts[c].chunk, &self.ids[self.shapes_of(c)])
    }

    /// A bucket member as (chunk, copy within it).
    pub(super) fn unpack(&self, member: CopyId) -> (usize, usize) {
        let mask = ((1u64 << self.shift) - 1) as u32;
        ((member.0 >> self.shift) as usize, (member.0 & mask) as usize)
    }

    /// Copy `i` of chunk `c` in the level's numbering.
    pub(super) fn copy_at(&self, c: usize, i: usize) -> usize {
        self.parts[c].copies as usize + i
    }

    /// Bytes held on the heap, its chunks' included.
    pub(super) fn heap_bytes(&self) -> usize {
        use super::arena::bytes;
        let chunks = self.parts.iter().map(|p| p.chunk.heap_bytes()).sum::<usize>();
        let own = bytes(&self.parts) + bytes(&self.ids) + bytes(&self.sorted_ids) + bytes(&self.owners);
        chunks + own + self.buckets.heap_bytes()
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

impl Slot {
    pub(super) fn live_shapes(&self) -> usize {
        self.level.ids.len() - self.dead.shapes
    }

    pub(super) fn live_copies(&self) -> usize {
        self.level.num_copies() - self.dead.copies
    }

    /// The live shapes, in level order.
    #[cfg(test)]
    pub(super) fn live(&self) -> impl Iterator<Item = ShapeId> + Clone + '_ {
        (0..self.level.ids.len() as u32).map(ShapeId).filter(|local| !self.dead.get(*local))
    }

    /// Tombstoned shapes of chunk `c`.
    pub(super) fn dead_in(&self, c: usize) -> usize {
        self.dead.count(self.level.shapes_of(c))
    }

    /// The live shapes of chunk `c`, in order, each with its copies as a
    /// range of the chunk's arena — what a repack or a compaction packs.
    pub(super) fn live_rows(&self, c: usize) -> impl Iterator<Item = Packed<'_>> + Clone {
        let Part { chunk, shapes, .. } = &self.level.parts[c];
        let shape = move |l: usize| ShapeId(shapes + l as u32);
        (0..chunk.len()).filter(move |&l| !self.dead.get(shape(l))).map(move |l| {
            let local = ShapeId(l as u32);
            (chunk.row(local, self.level.ids[shape(l).index()]), &chunk.copies, chunk.copies_of(local))
        })
    }

    /// The bulk-load / restore path, the only one besides
    /// [`DynamicBase::insert`] that normalizes or hashes: every shape of
    /// `pool` buffered as an insert would be, on every CPU, then sealed
    /// `cap` at a time into the chunks of one level.
    ///
    /// [`DynamicBase::insert`]: super::DynamicBase::insert
    pub(super) fn build(
        pool: Vec<(GlobalShapeId, ImageId, Polyline)>,
        alpha: f64,
        family: &CurveFamily,
        cap: usize,
    ) -> Slot {
        let shapes = par_map(&pool, 0, |(id, image, shape)| {
            let scratch = &mut InsertScratch::default();
            BufferedShape::new(*id, *image, shape.clone(), alpha, family, scratch)
        });
        let mut out = Assembly::with_capacity(shapes.len().div_ceil(cap), shapes.len());
        for run in shapes.chunks(cap) {
            out.pack(run.iter().map(BufferedShape::packed));
        }
        out.finish()
    }

    /// What a carry leaves in its target slot: `buffer` sealed into one
    /// chunk, then the chunks of `slots` in slot order, shared as they
    /// are with their tombstones at their new offsets — the live shapes
    /// in the order [`Slot::build`] would lay the same pool, with nothing
    /// normalized, hashed or copied but the buffer. A chunk more dead
    /// than alive, or under a quarter full (of `cap`), joins a run that is
    /// repacked into one chunk of at most `cap` live shapes, its dead left
    /// behind: no chunk of the new level is more dead than alive, and a
    /// level holds O(shapes / cap) chunks. (A compaction leaves a chunk
    /// just under half full; a quarter spares it the next carry's copy.)
    pub(super) fn carry<'a>(
        buffer: &[Arc<BufferedShape>],
        slots: impl Iterator<Item = &'a Slot> + Clone,
        cap: usize,
    ) -> Slot {
        let chunks = slots.clone().map(|s| s.level.parts.len()).sum::<usize>();
        let shapes = slots.clone().map(|s| s.level.ids.len()).sum::<usize>();
        let mut out = Assembly::with_capacity(chunks + 1, shapes + buffer.len());
        out.pack(buffer.iter().map(|b| b.packed()));
        // consecutive chunks to repack, and their live shapes
        let (mut run, mut live): (Vec<(&Slot, usize)>, usize) = (Vec::new(), 0);
        for slot in slots {
            for c in 0..slot.level.parts.len() {
                let dead = slot.dead_in(c);
                let held = slot.level.parts[c].chunk.len() - dead;
                let kept = dead <= held && 4 * held >= cap;
                if kept || live + held > cap {
                    out.repack(&mut run);
                    live = 0;
                }
                if kept {
                    out.share(slot, c);
                } else {
                    run.push((slot, c));
                    live += held;
                }
            }
        }
        out.repack(&mut run);
        out.finish()
    }

    /// This slot with chunk `only` — or, for `None`, every chunk that
    /// holds a dead shape — rewritten without its dead (its live shapes
    /// in order, or nothing when it has none) and every other chunk
    /// shared: `None` when no live shape is left.
    pub(super) fn compact(&self, only: Option<usize>) -> Option<Slot> {
        let parts = self.level.parts.len();
        let mut out = Assembly::with_capacity(parts, self.level.ids.len());
        for c in 0..parts {
            match only.map_or(self.dead_in(c) > 0, |o| o == c) {
                false => out.share(self, c),
                true => out.pack(self.live_rows(c)),
            }
        }
        (!out.level.parts.is_empty()).then(|| out.finish())
    }
}

impl BufferedShape {
    fn packed(&self) -> Packed<'_> {
        (self.row(), &self.copies, 0..self.copies.len())
    }
}

/// A level being assembled chunk by chunk, its tombstones beside it —
/// what a bulk load, a carry and a compaction each end in.
struct Assembly {
    level: Level,
    dead: DeadBits,
}

impl Assembly {
    /// Room for `chunks` chunks of `shapes` shapes in all: a handful of
    /// allocations per level, none per chunk of the tables.
    fn with_capacity(chunks: usize, shapes: usize) -> Assembly {
        let level =
            Level { parts: Vec::with_capacity(chunks), ids: Vec::with_capacity(shapes), ..Level::default() };
        Assembly { level, dead: DeadBits::default() }
    }

    /// Append `chunk`, its shapes under `ids`, tombstoning those `dead`
    /// names.
    fn push(&mut self, chunk: Arc<Chunk>, ids: impl Iterator<Item = GlobalShapeId>, dead: impl Fn(ShapeId) -> bool) {
        let (shapes, copies) = (self.level.ids.len() as u32, self.level.num_copies() as u32);
        for l in (0..chunk.len() as u32).map(ShapeId).filter(|&l| dead(l)) {
            self.dead.set(ShapeId(shapes + l.0), chunk.copies_of(l).len());
        }
        self.level.ids.extend(ids);
        self.level.parts.push(Part { chunk, shapes, copies });
    }

    /// Append chunk `c` of `slot` as it is, shared.
    fn share(&mut self, slot: &Slot, c: usize) {
        let Part { chunk, shapes, .. } = &slot.level.parts[c];
        let ids = slot.level.ids[slot.level.shapes_of(c)].iter().copied();
        self.push(Arc::clone(chunk), ids, |l| slot.dead.get(ShapeId(shapes + l.0)));
    }

    /// Seal `shapes` into a new chunk and append it, unless there are none.
    fn pack<'a>(&mut self, shapes: impl Iterator<Item = Packed<'a>> + Clone) {
        let chunk = Chunk::pack(shapes.clone());
        if chunk.len() > 0 {
            self.push(Arc::new(chunk), shapes.map(|((id, ..), ..)| id), |_| false);
        }
    }

    /// Append the chunks of `run` (emptied): the one as it is when it
    /// has no dead shape, else their live shapes repacked into one.
    fn repack(&mut self, run: &mut Vec<(&Slot, usize)>) {
        match run[..] {
            [] => {}
            [(slot, c)] if slot.dead_in(c) == 0 => self.share(slot, c),
            _ => self.pack(run.iter().flat_map(|&(slot, c)| slot.live_rows(c))),
        }
        run.clear();
    }

    /// Bucket the signatures, list their owners and sort the id table.
    fn finish(self) -> Slot {
        let Assembly { mut level, dead } = self;
        let widest = level.parts.iter().map(|p| p.chunk.copies.len()).max().unwrap_or(0);
        level.shift = usize::BITS - widest.saturating_sub(1).leading_zeros();
        let chunks = level.parts.len() as u64;
        assert!(chunks << level.shift <= 1 << 32, "{chunks} chunks of up to {widest} copies overflow a u32");
        let shift = level.shift;
        let sigs = level.parts.iter().enumerate().flat_map(|(c, p)| {
            let at = move |i: usize| CopyId(((c as u32) << shift) | i as u32);
            p.chunk.copies.sigs.iter().enumerate().map(move |(i, s)| (at(i), *s))
        });
        level.buckets = SigBuckets::from_sigs(level.num_copies(), sigs);
        let owner = |(c, i): (usize, usize)| {
            let Part { chunk, shapes, .. } = &level.parts[c];
            ShapeId(shapes + chunk.copies.owner[i].0)
        };
        level.owners = level.buckets.members().iter().map(|&m| owner(level.unpack(m))).collect();
        level.sorted_ids = level.ids.iter().copied().zip((0..).map(ShapeId)).collect();
        // ids are unique, so no order among equals to keep — and an
        // unstable sort needs no scratch buffer
        level.sorted_ids.sort_unstable();
        Slot { level: Arc::new(level), dead: Arc::new(dead) }
    }
}
