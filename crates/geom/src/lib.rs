//! Computational-geometry substrate for GeoSIR.
//!
//! Everything the ICDE 2002 matching algorithm needs from geometry lives
//! here: 2D primitives with orientation predicates, polylines and polygons,
//! convex hulls and rotating-calipers diameters, α-diameter enumeration,
//! similarity transforms, ε-envelopes and their ring decompositions,
//! simplex (triangle) range searching with a fractional-cascading layered
//! range tree, a nearest-segment AABB tree with the query's nearest-edge
//! grid, and the contain/overlap/disjoint topology predicates of §5.

#![forbid(unsafe_code)]

pub mod bbox;
pub mod diameter;
pub mod envelope;
pub mod hull;
pub mod numeric;
pub mod point;
pub mod polyline;
pub mod rangesearch;
pub mod rangetree;
pub mod segindex;
pub mod segment;
pub mod sweep;
pub mod topology;
pub mod transform;
pub mod triangle;

pub use bbox::Aabb;
pub use point::{Point, Vec2};
pub use polyline::Polyline;
pub use segment::Segment;
pub use transform::Similarity;
pub use triangle::Triangle;

/// Absolute tolerance used by predicates that must absorb floating-point
/// noise from chained transforms (normalization is a similarity transform of
/// coordinates that already went through image extraction).
pub const EPS: f64 = 1e-9;
