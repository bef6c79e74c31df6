//! Synthetic corpus generation — the stand-in for the paper's 10,000-image
//! test base (DESIGN.md, substitutions).
//!
//! The paper's corpus statistics: ~5.5 shapes per image, ~20 vertices per
//! shape, each shape stored ~10 times after α-diameter normalization. The
//! generator reproduces those statistics with a *family* structure (F
//! prototype shapes, each instance a perturbed, re-posed family member) so
//! that similarity queries have non-trivial answer sets — the property
//! Figures 7, 8 and 10 depend on.

use geosir_core::ids::ImageId;
use geosir_core::shapebase::{ShapeBase, ShapeBaseBuilder};
use geosir_geom::rangesearch::Backend;
use geosir_geom::{Point, Polyline, Similarity, Vec2};
use rand::prelude::*;
use rand::rngs::StdRng;

/// Corpus statistics knobs.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    pub num_images: usize,
    /// Mean shapes per image (paper: 5.5).
    pub shapes_per_image: f64,
    /// Mean vertices per shape (paper: ~20).
    pub vertices_mean: usize,
    /// Number of shape families (prototypes) shared across images.
    pub num_families: usize,
    /// Maximum vertex jitter of family members, as a fraction of the
    /// diameter. Each instance draws its own jitter uniformly from
    /// `[0.1, 1] · member_jitter`, so a family exhibits *graded*
    /// similarity — some instances near-identical, others clearly
    /// distorted — as object boundaries extracted from different
    /// photographs do.
    pub member_jitter: f64,
    /// Probability that a shape is placed inside the previous one.
    pub p_contained: f64,
    /// Probability that a shape overlaps the previous one.
    pub p_overlap: f64,
    pub seed: u64,
}

impl CorpusConfig {
    /// A laptop-scale corpus preserving the paper's ratios.
    pub fn small(num_images: usize, seed: u64) -> Self {
        CorpusConfig {
            num_images,
            shapes_per_image: 5.5,
            vertices_mean: 20,
            num_families: (num_images / 8).clamp(4, 400),
            member_jitter: 0.02,
            p_contained: 0.15,
            p_overlap: 0.15,
            seed,
        }
    }
}

/// A generated corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Family prototypes (normal pose, diameter O(1)).
    pub prototypes: Vec<Polyline>,
    /// `(image, family, shape)` triples.
    pub shapes: Vec<(ImageId, usize, Polyline)>,
}

impl Corpus {
    pub fn num_images(&self) -> usize {
        self.shapes.iter().map(|(i, _, _)| i.0 as usize + 1).max().unwrap_or(0)
    }

    /// Feed every shape into a [`ShapeBase`] over the range tree.
    pub fn build_base(&self, alpha: f64) -> ShapeBase {
        let mut b = ShapeBaseBuilder::new();
        for (image, _, shape) in &self.shapes {
            b.add_shape(*image, shape.clone());
        }
        b.build(alpha, Backend::RangeTree)
    }

    /// A query set in the style of the paper's "representative experiment
    /// set of 15 similarity queries": distorted instances of randomly
    /// chosen family prototypes, spanning easy to hard.
    pub fn queries(&self, count: usize, max_distortion: f64, seed: u64) -> Vec<Polyline> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|i| {
                let proto = &self.prototypes[rng.random_range(0..self.prototypes.len())];
                // distortion ramps from near-zero to max across the set
                let d = max_distortion * (i as f64 + 1.0) / count as f64;
                perturb(proto, &mut rng, d)
            })
            .collect()
    }
}

/// Generate a corpus.
pub fn generate(cfg: &CorpusConfig) -> Corpus {
    assert!(cfg.num_images >= 1 && cfg.num_families >= 1);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let prototypes: Vec<Polyline> = (0..cfg.num_families)
        .map(|_| {
            let n = sample_vertex_count(&mut rng, cfg.vertices_mean);
            random_simple_polygon(&mut rng, n, 0.35)
        })
        .collect();

    let mut shapes = Vec::new();
    for img in 0..cfg.num_images {
        let count = sample_shape_count(&mut rng, cfg.shapes_per_image);
        let mut prev: Option<Polyline> = None;
        for s in 0..count {
            let family = rng.random_range(0..prototypes.len());
            let jitter = rng.random_range(0.1..=1.0) * cfg.member_jitter;
            let member = perturb(&prototypes[family], &mut rng, jitter);
            // place in the image plane (a 1000×1000 canvas)
            let r: f64 = rng.random();
            let placed = match (&prev, s) {
                (Some(host), _) if r < cfg.p_contained => place_inside(&member, host, &mut rng),
                (Some(host), _) if r < cfg.p_contained + cfg.p_overlap => {
                    place_overlapping(&member, host, &mut rng)
                }
                _ => place_free(&member, &mut rng),
            };
            prev = Some(placed.clone());
            shapes.push((ImageId(img as u32), family, placed));
        }
    }
    Corpus { prototypes, shapes }
}

fn sample_vertex_count(rng: &mut StdRng, mean: usize) -> usize {
    // uniform in [mean/2, 3·mean/2]
    rng.random_range((mean / 2).max(4)..=(mean * 3 / 2))
}

fn sample_shape_count(rng: &mut StdRng, mean: f64) -> usize {
    // integer part + Bernoulli fraction, min 1 (every image has a shape)
    let base = mean.floor() as usize;
    let extra = rng.random_bool(mean.fract());
    (base + extra as usize).max(1)
}

/// A random simple polygon: star-shaped construction (angles sorted around
/// the centroid) with radial irregularity — always non-self-intersecting.
pub fn random_simple_polygon(rng: &mut StdRng, n: usize, irregularity: f64) -> Polyline {
    assert!(n >= 3);
    let mut angles: Vec<f64> =
        (0..n).map(|_| rng.random_range(0.0..(2.0 * std::f64::consts::PI))).collect();
    angles.sort_by(|a, b| a.partial_cmp(b).unwrap());
    // enforce minimal angular separation by blending with a regular fan
    let pts: Vec<Point> = angles
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            let reg = 2.0 * std::f64::consts::PI * i as f64 / n as f64;
            let theta = 0.5 * (a + reg);
            let r = 1.0 + irregularity * rng.random_range(-1.0..1.0);
            Point::new(r * theta.cos(), r * theta.sin())
        })
        .collect();
    Polyline::closed(pts).expect("star construction is simple and nondegenerate")
}

/// Jitter each vertex by up to `magnitude · diameter`, retrying (with
/// decaying magnitude) until the result is simple.
pub fn perturb(shape: &Polyline, rng: &mut StdRng, magnitude: f64) -> Polyline {
    let diam = geosir_geom::diameter::diameter(shape.points())
        .map(|d| d.dist)
        .unwrap_or(1.0);
    let mut m = magnitude * diam;
    for _ in 0..10 {
        let jittered = shape.map_points(|q| {
            Point::new(q.x + rng.random_range(-m..=m), q.y + rng.random_range(-m..=m))
        });
        if let Ok(pl) = if shape.is_closed() {
            Polyline::closed(jittered.points().to_vec())
        } else {
            Polyline::open(jittered.points().to_vec())
        } {
            if pl.is_simple() {
                return pl;
            }
        }
        m *= 0.5;
    }
    shape.clone()
}

/// Pose `shape` somewhere on the 1000×1000 canvas with a random rotation
/// and a size of 30–120 units.
pub fn place_free(shape: &Polyline, rng: &mut StdRng) -> Polyline {
    let size = rng.random_range(30.0..120.0);
    let theta = rng.random_range(0.0..(2.0 * std::f64::consts::PI));
    let cx = rng.random_range(100.0..900.0);
    let cy = rng.random_range(100.0..900.0);
    pose(shape, size, theta, cx, cy)
}

/// Pose `shape` strictly inside `host` (scaled to a third of the host,
/// centered near the host's centroid). The construction guarantees
/// containment for star-shaped hosts; callers treat the actual relation as
/// ground truth via the topology predicates anyway.
fn place_inside(shape: &Polyline, host: &Polyline, rng: &mut StdRng) -> Polyline {
    let hb = host.bbox();
    let size = 0.25 * hb.width().min(hb.height());
    let c = host.vertex_centroid();
    let theta = rng.random_range(0.0..(2.0 * std::f64::consts::PI));
    pose(shape, size.max(5.0), theta, c.x, c.y)
}

/// Pose `shape` so that it straddles `host`'s boundary.
fn place_overlapping(shape: &Polyline, host: &Polyline, rng: &mut StdRng) -> Polyline {
    let hb = host.bbox();
    let size = 0.8 * hb.width().min(hb.height()).max(20.0);
    // center on a boundary vertex of the host
    let pts = host.points();
    let anchor = pts[rng.random_range(0..pts.len())];
    let theta = rng.random_range(0.0..(2.0 * std::f64::consts::PI));
    pose(shape, size, theta, anchor.x, anchor.y)
}

fn pose(shape: &Polyline, size: f64, theta: f64, cx: f64, cy: f64) -> Polyline {
    let bb = shape.bbox();
    let scale = size / bb.width().max(bb.height()).max(1e-9);
    let c = shape.vertex_centroid();
    let rot = Similarity::from_parts(scale, theta, Vec2::ZERO);
    let rc = rot.apply(c);
    let t = Similarity::from_parts(1.0, 0.0, Vec2::new(cx - rc.x, cy - rc.y));
    t.compose(&rot).apply_polyline(shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosir_geom::topology::{relation, Relation};

    #[test]
    fn polygon_generator_invariants() {
        let mut rng = StdRng::seed_from_u64(1);
        for n in [3usize, 5, 10, 25, 40] {
            let p = random_simple_polygon(&mut rng, n, 0.35);
            assert_eq!(p.num_vertices(), n);
            assert!(p.is_simple(), "n = {n} not simple");
            assert!(p.area() > 0.1);
        }
    }

    #[test]
    fn perturb_keeps_simplicity() {
        let mut rng = StdRng::seed_from_u64(2);
        let base = random_simple_polygon(&mut rng, 15, 0.35);
        for _ in 0..50 {
            let p = perturb(&base, &mut rng, 0.05);
            assert!(p.is_simple());
            assert_eq!(p.num_vertices(), base.num_vertices());
        }
    }

    #[test]
    fn corpus_statistics_match_config() {
        let cfg = CorpusConfig::small(200, 7);
        let corpus = generate(&cfg);
        assert_eq!(corpus.num_images(), 200);
        let per_image = corpus.shapes.len() as f64 / 200.0;
        assert!(
            (per_image - cfg.shapes_per_image).abs() < 0.5,
            "shapes/image = {per_image}"
        );
        let mean_verts: f64 = corpus
            .shapes
            .iter()
            .map(|(_, _, s)| s.num_vertices() as f64)
            .sum::<f64>()
            / corpus.shapes.len() as f64;
        assert!(
            (mean_verts - cfg.vertices_mean as f64).abs() < 3.0,
            "mean vertices = {mean_verts}"
        );
        for (_, _, s) in &corpus.shapes {
            assert!(s.is_simple());
        }
    }

    #[test]
    fn copy_multiplicity_near_paper() {
        // α tuned so each shape stores a handful of copies; the paper
        // reports ~10 (α-diameters × 2 orientations)
        let cfg = CorpusConfig::small(40, 3);
        let corpus = generate(&cfg);
        let base = corpus.build_base(0.05);
        let multiplicity = base.num_copies() as f64 / base.num_shapes() as f64;
        assert!(
            (2.0..=30.0).contains(&multiplicity),
            "copies per shape = {multiplicity}"
        );
    }

    #[test]
    fn placement_relations_hold_statistically() {
        let mut rng = StdRng::seed_from_u64(4);
        let proto = random_simple_polygon(&mut rng, 12, 0.2);
        let host = pose(&proto, 200.0, 0.3, 500.0, 500.0);
        let mut contained = 0;
        let mut overlapping = 0;
        for _ in 0..30 {
            let guest_proto = random_simple_polygon(&mut rng, 10, 0.2);
            let inside = place_inside(&guest_proto, &host, &mut rng);
            if relation(&host, &inside) == Relation::Contains {
                contained += 1;
            }
            let over = place_overlapping(&guest_proto, &host, &mut rng);
            if relation(&host, &over) == Relation::Overlap {
                overlapping += 1;
            }
        }
        assert!(contained >= 25, "contained {contained}/30");
        assert!(overlapping >= 20, "overlapping {overlapping}/30");
    }

    #[test]
    fn queries_are_simple_and_ramped() {
        let cfg = CorpusConfig::small(50, 5);
        let corpus = generate(&cfg);
        let qs = corpus.queries(15, 0.08, 99);
        assert_eq!(qs.len(), 15);
        for q in &qs {
            assert!(q.is_simple());
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = CorpusConfig::small(20, 42);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.shapes.len(), b.shapes.len());
        for ((_, _, s1), (_, _, s2)) in a.shapes.iter().zip(&b.shapes) {
            for (p1, p2) in s1.points().iter().zip(s2.points()) {
                assert!(p1.almost_eq(*p2));
            }
        }
    }
}
