//! The GeoSIR imaging front end (§6) and the synthetic corpus generators.
//!
//! GeoSIR extracts shapes from raster images: boundary detection and
//! segment approximation of boundaries. The paper used the `ipp` package
//! on real images; we implement the equivalent pipeline on synthetic
//! rasters so the full add-an-image path is exercised end to end
//! (DESIGN.md, substitutions):
//!
//! - [`raster`] — grayscale images and polygon rasterization;
//! - [`trace`] — connected components and Moore boundary tracing;
//! - [`approx`] — Douglas–Peucker segment approximation;
//! - [`synth`] — the corpus generators behind every experiment: shape
//!   families, noise/distortion models, scene composition with planted
//!   topological relations, and paper-scale corpus statistics;
//! - [`pipeline`] — render → extract → simplify, returning shapes ready
//!   for the shape base.

#![forbid(unsafe_code)]

pub mod approx;
pub mod pipeline;
pub mod raster;
pub mod synth;
pub mod trace;
