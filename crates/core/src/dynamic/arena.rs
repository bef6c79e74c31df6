//! What a dynamic base stores: copies in arenas, sealed in chunks,
//! buffered shapes, tombstones. The one description of the byte layout
//! (DESIGN §11.7):
//!
//! | held | per | bytes |
//! |---|---|---|
//! | [`CopyArena`]`::quantized` | copy vertex | 4: `[u16; 2]` in the base's [`LuneFrame`] (none for a copy that left it) |
//! | `CopyArena::{ends, owner}` | copy | 4 + 4: the end of its quantized run, its chunk-local shape (none in a buffered shape) |
//! | `CopyArena::fwd` | copy | 32: the [`Similarity`] that maps its source onto it; its `f64` vertices are recomputed, never stored |
//! | `CopyArena::sigs` | copy | 8: its [`Signature`], re-bucketed by every level that holds it, never re-hashed |
//! | [`Chunk`]`::src_verts` | source vertex | 16 |
//! | `Chunk::rows` | shape | 16: a [`ShapeRow`] — image, closed bit, where its source and its copies end |
//!
//! A chunk — at most `buffer_cap` shapes, sealed when the buffer carries
//! or a compaction rewrites it — is written once and shared, behind one
//! `Arc`, by every level and snapshot that holds it. What a level keeps
//! of its own, rebuilt by each carry and compaction that makes it:
//!
//! | held | per | bytes |
//! |---|---|---|
//! | `Level::parts` | chunk | 16: the `Arc` and where its shapes and copies start in the level |
//! | `Level::{ids, sorted_ids}` | shape | 8 and 16 |
//! | `Level::buckets` | copy | 4 (chunk and copy in one `u32`) and the bucket table |
//! | `Level::owners` | copy | 4: each bucket member's level-local shape, for the probe's live test |
//! | [`DeadBits`] | shape | 1 bit |
//!
//! `tests/heap_dynamic.rs` measures ≈ 327 B a live copy in
//! `churn_durable`'s world. Nothing per copy or per shape owns an
//! allocation, so a chunk is packed range by range.

use std::ops::Range;

use geosir_geom::{Point, Polyline, Similarity};

use super::GlobalShapeId;
use crate::hashing::{signature_of_with, CurveFamily, Signature};
use crate::ids::{ImageId, ShapeId};
use crate::normalize::normalizations;
use crate::similarity::LuneFrame;

/// One not-yet-leveled insert, its copies and signatures derived once at
/// insert time (writer-side): a query scores and probes them as a level's,
/// a carry seals them, as they are, into one [`Chunk`]. The buffer holds
/// each behind one `Arc`, so a snapshot capture clones a pointer per
/// shape, no geometry.
pub(super) struct BufferedShape {
    pub(super) id: GlobalShapeId,
    pub(super) image: ImageId,
    /// The source shape — what its copies' similarities map.
    pub(super) shape: Polyline,
    /// No owners (a carry gives them); empty only for degenerate
    /// geometry, which then simply never matches.
    pub(super) copies: CopyArena,
}

/// A shape's row: id, image, source vertices, closed bit — with a copy's
/// similarity, all it takes to remake the copy.
pub(super) type Row<'a> = (GlobalShapeId, ImageId, &'a [Point], bool);

/// A shape to pack: its row and its copies as a range of an arena.
pub(super) type Packed<'a> = (Row<'a>, &'a CopyArena, Range<usize>);

/// The writer's reusable buffers for a new shape: one copy's vertices,
/// and the quarters its signature is computed through.
#[derive(Default)]
pub(super) struct InsertScratch {
    copy: Vec<Point>,
    quarters: [Vec<Point>; 4],
}

/// Normalized copies laid end to end — a chunk's, or one buffered
/// shape's. Copy i is `fwd[i]` of its source, bit for bit as insert time
/// made it, and `quantized[ends[i - 1]..ends[i]]`, the only geometry a
/// copy the raster test rejects is read for.
#[derive(Default)]
pub(super) struct CopyArena {
    pub(super) quantized: Vec<[u16; 2]>,
    pub(super) ends: Vec<u32>,
    pub(super) fwd: Vec<Similarity>,
    pub(super) owner: Vec<ShapeId>,
    pub(super) sigs: Vec<Signature>,
}

/// Where entries `items` of a table of cumulative ends lie.
pub(super) fn ranged(ends: &[u32], items: Range<usize>) -> Range<usize> {
    let at = |i: usize| if i == 0 { 0 } else { ends[i - 1] as usize };
    at(items.start)..at(items.end)
}

pub(super) fn bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

impl CopyArena {
    /// Room for `copies` copies of `verts` quantized vertices, with owners
    /// when `owned` (a chunk's arena; a buffered shape's has none).
    pub(super) fn with_capacity(copies: usize, verts: usize, owned: bool) -> CopyArena {
        let (ends, fwd, sigs) =
            (Vec::with_capacity(copies), Vec::with_capacity(copies), Vec::with_capacity(copies));
        let owner = Vec::with_capacity(if owned { copies } else { 0 });
        CopyArena { quantized: Vec::with_capacity(verts), ends, fwd, owner, sigs }
    }

    pub(super) fn len(&self) -> usize {
        self.ends.len()
    }

    pub(super) fn quantized(&self, i: usize) -> &[[u16; 2]] {
        &self.quantized[ranged(&self.ends, i..i + 1)]
    }

    /// Append the copy `verts` = `fwd` of its source, hashed to `sig`:
    /// quantized in `frame`, or with no quantized vertex if one of them
    /// lies outside it.
    pub(super) fn push(&mut self, frame: &LuneFrame, fwd: Similarity, verts: &[Point], sig: Signature) {
        let start = self.quantized.len();
        self.quantized.extend(verts.iter().map_while(|&v| frame.quantize(v)));
        if self.quantized.len() - start < verts.len() {
            self.quantized.truncate(start);
        }
        self.ends.push(self.quantized.len() as u32);
        self.fwd.push(fwd);
        self.sigs.push(sig);
    }

    /// Append copies `copies` of `from` as `owner`'s: their quantized
    /// vertices as one range, their ends rebased.
    pub(super) fn extend_from(&mut self, owner: ShapeId, from: &CopyArena, copies: Range<usize>) {
        let verts = ranged(&from.ends, copies.clone());
        let (old, new) = (verts.start as u32, self.quantized.len() as u32);
        self.quantized.extend_from_slice(&from.quantized[verts]);
        self.ends.extend(from.ends[copies.clone()].iter().map(|e| e - old + new));
        self.fwd.extend_from_slice(&from.fwd[copies.clone()]);
        self.owner.resize(self.owner.len() + copies.len(), owner);
        self.sigs.extend_from_slice(&from.sigs[copies]);
    }

    pub(super) fn heap_bytes(&self) -> usize {
        let per_copy = bytes(&self.ends) + bytes(&self.fwd) + bytes(&self.owner);
        bytes(&self.quantized) + per_copy + bytes(&self.sigs)
    }
}

/// Tombstones of one level: bit `ShapeId` (level-local) set = deleted,
/// words held up to the highest bit set. Copied on write by
/// [`DynamicBase::delete`] when a snapshot shares it (8 bytes per 64
/// shapes).
///
/// [`DynamicBase::delete`]: super::DynamicBase::delete
#[derive(Clone, Default)]
pub(super) struct DeadBits {
    pub(super) words: Vec<u64>,
    /// Set bits, and the copies their shapes have in the level.
    pub(super) shapes: usize,
    pub(super) copies: usize,
}

impl DeadBits {
    pub(super) fn get(&self, local: ShapeId) -> bool {
        self.words.get(local.index() / 64).is_some_and(|w| w >> (local.index() % 64) & 1 == 1)
    }

    /// Tombstone a live shape that has `copies` copies in the level.
    pub(super) fn set(&mut self, local: ShapeId, copies: usize) {
        let word = local.index() / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        self.words[word] |= 1 << (local.index() % 64);
        self.shapes += 1;
        self.copies += copies;
    }

    /// Set bits among `shapes`, a word at a time.
    pub(super) fn count(&self, shapes: Range<usize>) -> usize {
        let words = shapes.start / 64..shapes.end.div_ceil(64);
        let set = words.map(|w| {
            // the word's bits in `shapes`: [lo, hi), hi ≥ 1
            let (lo, hi) = (shapes.start.max(64 * w) - 64 * w, shapes.end.min(64 * w + 64) - 64 * w);
            let mask = (u64::MAX >> (64 - hi)) & (u64::MAX << lo);
            (self.words.get(w).copied().unwrap_or(0) & mask).count_ones() as usize
        });
        set.sum()
    }
}

/// A sealed run of shapes: their copies in one arena (owners
/// chunk-local), their rows and their source vertices, packed exactly —
/// immutable from then on. The level that holds it numbers its shapes
/// and knows their ids.
pub(super) struct Chunk {
    pub(super) copies: CopyArena,
    pub(super) rows: Vec<ShapeRow>,
    /// The source shapes end to end, shape l's ending at `rows[l].src_end`.
    pub(super) src_verts: Vec<Point>,
}

/// What a chunk holds of one shape besides its copies and its vertices.
#[derive(Clone, Copy)]
pub(super) struct ShapeRow {
    pub(super) image: ImageId,
    /// Whether the shape — and so each of its copies — is closed.
    pub(super) closed: bool,
    /// Where its source vertices and its copies end in the chunk.
    pub(super) src_end: u32,
    pub(super) copy_end: u32,
}

impl Chunk {
    /// `shapes` — each a row and its copies as a range of an arena —
    /// packed end to end, in order, with nothing normalized or hashed:
    /// sized exactly from a first walk, then filled range by range, a
    /// handful of allocations whatever the number of shapes. The inputs
    /// are copied out, never moved (snapshots may still hold them).
    pub(super) fn pack<'a>(shapes: impl Iterator<Item = Packed<'a>> + Clone) -> Chunk {
        let (mut n, mut src, mut copies, mut verts) = (0, 0, 0, 0);
        for ((_, _, source, _), arena, range) in shapes.clone() {
            (n, src, copies) = (n + 1, src + source.len(), copies + range.len());
            verts += ranged(&arena.ends, range).len();
        }
        let mut out = Chunk {
            copies: CopyArena::with_capacity(copies, verts, true),
            rows: Vec::with_capacity(n),
            src_verts: Vec::with_capacity(src),
        };
        for ((_, image, source, closed), arena, range) in shapes {
            out.copies.extend_from(ShapeId(out.rows.len() as u32), arena, range);
            out.src_verts.extend_from_slice(source);
            let (src_end, copy_end) = (out.src_verts.len() as u32, out.copies.len() as u32);
            out.rows.push(ShapeRow { image, closed, src_end, copy_end });
        }
        out
    }

    /// Shapes held.
    pub(super) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Where shape `local`'s copies lie in the arena.
    pub(super) fn copies_of(&self, local: ShapeId) -> Range<usize> {
        let start = local.index().checked_sub(1).map_or(0, |l| self.rows[l].copy_end as usize);
        start..self.rows[local.index()].copy_end as usize
    }

    /// Shape `local`'s row, under the id its level gives it.
    pub(super) fn row(&self, local: ShapeId, id: GlobalShapeId) -> Row<'_> {
        let ShapeRow { image, closed, src_end, .. } = self.rows[local.index()];
        let start = local.index().checked_sub(1).map_or(0, |l| self.rows[l].src_end as usize);
        (id, image, &self.src_verts[start..src_end as usize], closed)
    }

    pub(super) fn heap_bytes(&self) -> usize {
        std::mem::size_of::<Chunk>() + self.copies.heap_bytes() + bytes(&self.rows) + bytes(&self.src_verts)
    }
}

impl BufferedShape {
    /// Normalize and hash `shape` straight into an arena of its own (no
    /// owners), sized for the one diameter α = 0 usually gives; each copy
    /// is made once, into `scratch`, to be hashed and quantized.
    pub(super) fn new(
        id: GlobalShapeId,
        image: ImageId,
        shape: Polyline,
        alpha: f64,
        family: &CurveFamily,
        scratch: &mut InsertScratch,
    ) -> BufferedShape {
        let (pts, frame) = (shape.points(), LuneFrame::new(alpha));
        let mut copies = CopyArena::with_capacity(2, 2 * pts.len(), false);
        let InsertScratch { copy, quarters } = scratch;
        for (fwd, ..) in normalizations(pts, alpha) {
            copy.clear();
            copy.extend(pts.iter().map(|&p| fwd.apply(p)));
            copies.push(&frame, fwd, copy, signature_of_with(family, copy, quarters));
        }
        BufferedShape { id, image, shape, copies }
    }

    pub(super) fn row(&self) -> Row<'_> {
        (self.id, self.image, self.shape.points(), self.shape.is_closed())
    }
}
