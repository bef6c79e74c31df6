//! The ICDE 2002 contribution: geometric-similarity retrieval.
//!
//! - [`similarity`] — the `h_avg` average-point-distance criterion (§2.2),
//!   in continuous (edge-integrated) and discrete (vertex) forms, plus the
//!   symmetric combinations used for ranking;
//! - [`normalize`] — diameter / α-diameter normalization (§2.4);
//! - [`shapebase`] — the database of normalized shape copies with its
//!   vertex pool and simplex range-search index;
//! - [`matcher`] — the incremental envelope-fattening retrieval algorithm
//!   (§2.5) with its termination bounds;
//! - [`hashing`] — geometric hashing over the lune (§3) for approximate
//!   matching when fattening finds nothing;
//! - [`selectivity`] — the significant-vertices estimator `V_S` and the
//!   `c / V_S(Q)` selectivity law (§5.2);
//! - [`baselines`] — Hausdorff, generalized k-th Hausdorff, nonlinear
//!   elastic matching, and the Mehrotra–Gary edge-normalized feature index
//!   the paper compares against.

#![forbid(unsafe_code)]

pub mod approx;
pub mod baselines;
pub mod dynamic;
pub mod hashing;
pub mod ids;
pub mod matcher;
pub mod normalize;
pub mod scratch;
pub mod selectivity;
pub mod shapebase;
pub mod similarity;

pub use approx::{AnswerTier, ApproxOptions, ApproxScratch, ApproxStats, DEFAULT_HASH_CURVES};
pub use dynamic::{DynMatch, DynamicBase, GlobalShapeId, Snapshot};
pub use ids::{CopyId, ImageId, ShapeId};
pub use matcher::{MatchConfig, MatchOutcome, Matcher};
pub use scratch::MatcherScratch;
pub use shapebase::{ShapeBase, ShapeBaseBuilder};
