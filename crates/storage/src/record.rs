//! Fixed binary shape-record codec.
//!
//! Per §4, a stored shape averages ~200 bytes (≈ 20 vertices), giving ~5
//! records per 1 KB block. The layout below hits that budget exactly:
//! `38 + 8·n` bytes for `n` vertices (198 bytes at n = 20).
//!
//! ```text
//! copy_id   u32 | shape_id u32 | image_id u32
//! flags     u8  (bit 0: closed)
//! n         u8  vertex count
//! signature 4 × u16  characteristic hash curves (0 = empty quarter)
//! inverse   4 × f32  (a, b, tx, ty) normalized → original-pose transform
//! vertices  n × 2 × f32
//! ```

use bytes::{Buf, BufMut};
use geosir_core::hashing::Signature;
use geosir_core::ids::{CopyId, ImageId, ShapeId};
use geosir_geom::{Point, Similarity};

/// Decoded shape record (f32 precision — what survives a disk round trip).
#[derive(Debug, Clone, PartialEq)]
pub struct ShapeRecord {
    pub copy_id: CopyId,
    pub shape_id: ShapeId,
    pub image: ImageId,
    pub closed: bool,
    pub signature: Signature,
    pub inverse: Similarity,
    pub points: Vec<Point>,
}

/// Codec errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input shorter than the declared record length.
    Truncated,
    /// Vertex count of 0 or other impossible header values.
    Malformed,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "record truncated"),
            CodecError::Malformed => write!(f, "record malformed"),
        }
    }
}

impl std::error::Error for CodecError {}

const HEADER_LEN: usize = 4 + 4 + 4 + 1 + 1 + 8 + 16;

impl ShapeRecord {
    /// Build a record from a shape-base copy.
    pub fn from_copy(
        copy_id: CopyId,
        copy: &geosir_core::shapebase::CopyRecord,
        signature: Signature,
    ) -> Self {
        ShapeRecord {
            copy_id,
            shape_id: copy.shape_id,
            image: copy.image,
            closed: copy.normalized.is_closed(),
            signature,
            inverse: copy.inverse,
            points: copy.normalized.points().to_vec(),
        }
    }

    /// Encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        HEADER_LEN + 8 * self.points.len()
    }

    /// Append the encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        assert!(self.points.len() <= u8::MAX as usize, "record supports ≤ 255 vertices");
        assert!(!self.points.is_empty(), "record needs vertices");
        out.put_u32_le(self.copy_id.0);
        out.put_u32_le(self.shape_id.0);
        out.put_u32_le(self.image.0);
        out.put_u8(self.closed as u8);
        out.put_u8(self.points.len() as u8);
        for s in self.signature.0 {
            out.put_u16_le(s);
        }
        out.put_f32_le(self.inverse.a as f32);
        out.put_f32_le(self.inverse.b as f32);
        out.put_f32_le(self.inverse.tx as f32);
        out.put_f32_le(self.inverse.ty as f32);
        for p in &self.points {
            out.put_f32_le(p.x as f32);
            out.put_f32_le(p.y as f32);
        }
    }

    /// Decode one record from the start of `buf`.
    pub fn decode(mut buf: &[u8]) -> Result<ShapeRecord, CodecError> {
        if buf.len() < HEADER_LEN {
            return Err(CodecError::Truncated);
        }
        let copy_id = CopyId(buf.get_u32_le());
        let shape_id = ShapeId(buf.get_u32_le());
        let image = ImageId(buf.get_u32_le());
        let closed = match buf.get_u8() {
            0 => false,
            1 => true,
            _ => return Err(CodecError::Malformed),
        };
        let n = buf.get_u8() as usize;
        if n == 0 {
            return Err(CodecError::Malformed);
        }
        let mut signature = [0u16; 4];
        for s in &mut signature {
            *s = buf.get_u16_le();
        }
        let inverse = Similarity {
            a: buf.get_f32_le() as f64,
            b: buf.get_f32_le() as f64,
            tx: buf.get_f32_le() as f64,
            ty: buf.get_f32_le() as f64,
        };
        if buf.len() < 8 * n {
            return Err(CodecError::Truncated);
        }
        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            let x = buf.get_f32_le() as f64;
            let y = buf.get_f32_le() as f64;
            points.push(Point::new(x, y));
        }
        Ok(ShapeRecord { copy_id, shape_id, image, closed, signature: Signature(signature), inverse, points })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample(n: usize) -> ShapeRecord {
        ShapeRecord {
            copy_id: CopyId(7),
            shape_id: ShapeId(3),
            image: ImageId(11),
            closed: true,
            signature: Signature([1, 0, 25, 50]),
            inverse: Similarity { a: 1.5, b: -0.25, tx: 10.0, ty: -3.5 },
            points: (0..n).map(|i| Point::new(i as f64 * 0.125, 1.0 - i as f64 * 0.0625)).collect(),
        }
    }

    #[test]
    fn round_trip_exact_for_representable_values() {
        let r = sample(20);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        assert_eq!(buf.len(), r.encoded_len());
        let d = ShapeRecord::decode(&buf).unwrap();
        assert_eq!(d, r); // all values chosen f32-representable
    }

    #[test]
    fn paper_size_budget() {
        // ~20 vertices ⇒ ~200 bytes ⇒ ~5 records per 1 KB block (§4)
        let r = sample(20);
        assert_eq!(r.encoded_len(), 198);
        assert_eq!(crate::disk::BLOCK_SIZE / r.encoded_len(), 5);
    }

    #[test]
    fn truncated_inputs_rejected() {
        let r = sample(5);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        for cut in [0, 10, HEADER_LEN - 1, buf.len() - 1] {
            assert!(matches!(ShapeRecord::decode(&buf[..cut]), Err(CodecError::Truncated)));
        }
    }

    #[test]
    fn malformed_flags_rejected() {
        let r = sample(5);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        buf[12] = 9; // flags byte
        assert_eq!(ShapeRecord::decode(&buf), Err(CodecError::Malformed));
    }

    #[test]
    fn zero_vertices_rejected() {
        let r = sample(5);
        let mut buf = Vec::new();
        r.encode(&mut buf);
        buf[13] = 0; // vertex count
        assert_eq!(ShapeRecord::decode(&buf), Err(CodecError::Malformed));
    }

    proptest! {
        #[test]
        fn round_trip_within_f32_precision(n in 1usize..60, seed in 0u64..100) {
            use rand::prelude::*;
            let mut rng = StdRng::seed_from_u64(seed);
            let r = ShapeRecord {
                copy_id: CopyId(rng.random()),
                shape_id: ShapeId(rng.random()),
                image: ImageId(rng.random()),
                closed: rng.random(),
                signature: Signature([rng.random_range(0..100); 4]),
                inverse: Similarity {
                    a: rng.random_range(-10.0..10.0),
                    b: rng.random_range(-10.0..10.0),
                    tx: rng.random_range(-100.0..100.0),
                    ty: rng.random_range(-100.0..100.0),
                },
                points: (0..n)
                    .map(|_| Point::new(rng.random_range(-1.0..2.0), rng.random_range(-1.0..1.0)))
                    .collect(),
            };
            let mut buf = Vec::new();
            r.encode(&mut buf);
            let d = ShapeRecord::decode(&buf).unwrap();
            prop_assert_eq!(d.copy_id, r.copy_id);
            prop_assert_eq!(d.points.len(), r.points.len());
            for (a, b) in d.points.iter().zip(&r.points) {
                prop_assert!((a.x - b.x).abs() < 1e-6);
                prop_assert!((a.y - b.y).abs() < 1e-6);
            }
        }
    }
}
