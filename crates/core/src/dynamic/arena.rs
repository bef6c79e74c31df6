//! What a dynamic base stores: copies in arenas, buffered shapes,
//! tombstones. The one description of the byte layout (DESIGN §11.7):
//!
//! | held | per | bytes |
//! |---|---|---|
//! | [`CopyArena`]`::quantized` | copy vertex | 4: `[u16; 2]` in the base's [`LuneFrame`] (none for a copy that left it) |
//! | `CopyArena::{ends, owner}` | copy | 4 + 4: the end of its quantized run, its level-local shape (none in a buffered shape) |
//! | `CopyArena::fwd` | copy | 32: the [`Similarity`] that maps its source onto it; its `f64` vertices are recomputed, never stored |
//! | `CopyArena::sigs` | copy | 8: its [`Signature`], re-bucketed by a carry, never re-hashed |
//! | `Level::src_verts` | source vertex | 16 |
//! | `Level::{ids, images, closed, src_ends, copy_ends}`, `sorted_ids` | shape | 8 + 4 + 1 + 4 + 4, and 16 |
//! | `Level::buckets` | copy | 4 (a [`crate::ids::CopyId`] in its bucket) and the bucket table |
//! | [`DeadBits`] | shape | 1 bit |
//!
//! `tests/heap_dynamic.rs` measures ≈ 327 B a live copy in
//! `churn_durable`'s world. Nothing per copy or per shape owns an
//! allocation, so a carry copies ranges.

use std::ops::Range;

use geosir_geom::{Point, Polyline, Similarity};

use super::GlobalShapeId;
use crate::hashing::{signature_of_with, CurveFamily, Signature};
use crate::ids::{ImageId, ShapeId};
use crate::normalize::normalizations;
use crate::similarity::LuneFrame;

/// One not-yet-leveled insert, its copies and signatures derived once at
/// insert time (writer-side): a query scores and probes them as a level's,
/// a carry copies them as they are. The buffer holds each behind one
/// `Arc`, so a snapshot capture clones a pointer per shape, no geometry.
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

/// The writer's reusable buffers for a new shape: one copy's vertices,
/// and the quarters its signature is computed through.
#[derive(Default)]
pub(super) struct InsertScratch {
    copy: Vec<Point>,
    quarters: [Vec<Point>; 4],
}

/// Normalized copies laid end to end — a level's, or one buffered
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
    /// when `owned` (a level's arena; a buffered shape's has none).
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

/// Tombstones of one level: bit `ShapeId` set = deleted, words held up
/// to the highest bit set. Copied on write by [`DynamicBase::delete`]
/// when a snapshot shares it (8 bytes per 64 shapes).
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
