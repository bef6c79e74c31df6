//! Topological query processing (§5).
//!
//! - [`graph`] — per-image shape graphs `G_I` with `contain`/`overlap`
//!   labeled edges and pre-computed diameter angles (§5 intro, §5.3);
//! - [`algebra`] — the query algebra: `similar`, `contain`, `overlap`,
//!   `disjoint` closed under union, intersection and complement, plus the
//!   DNF rewrite of §5.4;
//! - [`parser`] — a small text syntax for the algebra
//!   (`similar(a) & !overlap(b, c, any)`);
//! - [`engine`] — operator evaluation with the two physical strategies of
//!   §5.3 and the selectivity-ordered execution of §5.4.

#![forbid(unsafe_code)]

pub mod algebra;
pub mod engine;
pub mod graph;
pub mod parser;

pub use algebra::{AngleSpec, Expr, TopoRel};
pub use engine::{QueryEngine, TopoStrategy};
pub use graph::ImageGraphStore;
