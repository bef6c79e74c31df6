//! Per-image shape graphs (§5).
//!
//! For each image I the paper maintains `G_I = (V_I, E_I)`: vertices are
//! I's shapes, and a labeled edge `(v₁, v₂, label)` records `v₁ contains
//! v₂` or `v₁ overlaps v₂`. Disjoint shapes have no edge. We additionally
//! store, per ordered shape pair that has an edge, the signed angle between
//! the shapes' diameters (§5.3 computes it from the inverse normalization
//! transforms; we compute it once from the source geometry at build time,
//! which is the same vector).

use std::collections::HashMap;

use geosir_core::dynamic::{GlobalShapeId, Snapshot};
use geosir_core::ids::ImageId;
use geosir_geom::diameter::diameter;
use geosir_geom::topology::{relation, Relation};
use geosir_geom::{Polyline, Vec2};

/// An edge label (disjoint pairs carry no edge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeLabel {
    /// Source shape contains target shape.
    Contain,
    /// The two shapes' boundaries intersect.
    Overlap,
}

/// A directed labeled edge of an image graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    pub from: GlobalShapeId,
    pub to: GlobalShapeId,
    pub label: EdgeLabel,
    /// Signed angle between the two shapes' diameters, in (−π, π].
    pub angle: f64,
}

/// One image's graph.
#[derive(Debug, Clone, Default)]
pub struct ImageGraph {
    pub shapes: Vec<GlobalShapeId>,
    pub edges: Vec<Edge>,
}

impl ImageGraph {
    /// Is there any edge between the (unordered) pair?
    pub fn connected(&self, a: GlobalShapeId, b: GlobalShapeId) -> bool {
        self.edges
            .iter()
            .any(|e| (e.from == a && e.to == b) || (e.from == b && e.to == a))
    }
}

/// The graphs of every image in the base, plus per-shape diameter vectors.
#[derive(Debug, Default, Clone)]
pub struct ImageGraphStore {
    graphs: HashMap<ImageId, ImageGraph>,
    /// Canonical diameter direction of each shape in its original pose.
    diam_dir: HashMap<GlobalShapeId, Vec2>,
}

impl ImageGraphStore {
    /// Build all image graphs from the live shapes of `snapshot`, in
    /// their original pose (`O(Σ_I |V_I|²)` relation tests — images carry
    /// ~5 shapes).
    pub fn build(snapshot: &Snapshot) -> Self {
        let live = snapshot.live_shapes();
        let mut by_image: HashMap<ImageId, Vec<(GlobalShapeId, &Polyline)>> = HashMap::new();
        let mut diam_dir: HashMap<GlobalShapeId, Vec2> = HashMap::new();
        for (sid, image, shape) in &live {
            by_image.entry(*image).or_default().push((*sid, shape));
            if let Some(d) = diameter(shape.points()) {
                diam_dir.insert(*sid, shape.points()[d.j] - shape.points()[d.i]);
            }
        }
        let mut graphs = HashMap::with_capacity(by_image.len());
        for (image, members) in by_image {
            let shapes = members.iter().map(|&(sid, _)| sid).collect();
            let mut g = ImageGraph { shapes, edges: Vec::new() };
            for (i, &(a, sa)) in members.iter().enumerate() {
                for &(b, sb) in &members[i + 1..] {
                    let angle = match (diam_dir.get(&a), diam_dir.get(&b)) {
                        (Some(da), Some(db)) => da.angle_to(*db),
                        _ => 0.0,
                    };
                    match relation(sa, sb) {
                        Relation::Contains => {
                            g.edges.push(Edge { from: a, to: b, label: EdgeLabel::Contain, angle })
                        }
                        Relation::ContainedBy => g.edges.push(Edge {
                            from: b,
                            to: a,
                            label: EdgeLabel::Contain,
                            angle: -angle,
                        }),
                        Relation::Overlap => {
                            // overlap is symmetric; store both directions so
                            // plan 1 can seed from either side
                            g.edges.push(Edge { from: a, to: b, label: EdgeLabel::Overlap, angle });
                            g.edges.push(Edge {
                                from: b,
                                to: a,
                                label: EdgeLabel::Overlap,
                                angle: -angle,
                            });
                        }
                        Relation::Disjoint => {}
                    }
                }
            }
            graphs.insert(image, g);
        }
        ImageGraphStore { graphs, diam_dir }
    }

    pub fn graph(&self, image: ImageId) -> Option<&ImageGraph> {
        self.graphs.get(&image)
    }

    pub fn num_images(&self) -> usize {
        self.graphs.len()
    }

    /// Every image holding a live shape.
    pub fn images(&self) -> impl Iterator<Item = ImageId> + '_ {
        self.graphs.keys().copied()
    }

    /// Signed angle between the diameters of two shapes (for disjoint
    /// pairs, which carry no edge).
    pub fn diameter_angle(&self, a: GlobalShapeId, b: GlobalShapeId) -> f64 {
        match (self.diam_dir.get(&a), self.diam_dir.get(&b)) {
            (Some(da), Some(db)) => da.angle_to(*db),
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosir_core::dynamic::DynamicBase;
    use geosir_core::MatchConfig;
    use geosir_geom::Point;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn square(cx: f64, cy: f64, half: f64) -> Polyline {
        Polyline::closed(vec![
            p(cx - half, cy - half),
            p(cx + half, cy - half),
            p(cx + half, cy + half),
            p(cx - half, cy + half),
        ])
        .unwrap()
    }

    /// The graphs of `shapes` bulk-loaded, with the ids they were given.
    fn graphs_of(shapes: Vec<(ImageId, Polyline)>) -> (ImageGraphStore, Vec<GlobalShapeId>) {
        let mut db = DynamicBase::new(0.0, MatchConfig::default(), 64);
        let ids = db.bulk_load(shapes);
        (ImageGraphStore::build(&db.snapshot()), ids)
    }

    /// image 0: big square containing a small one, plus a far disjoint one;
    /// image 1: two overlapping squares.
    fn build() -> (ImageGraphStore, Vec<GlobalShapeId>) {
        graphs_of(vec![
            (ImageId(0), square(0.0, 0.0, 4.0)),
            (ImageId(0), square(0.0, 0.0, 1.0)),
            (ImageId(0), square(20.0, 0.0, 1.0)),
            (ImageId(1), square(0.0, 0.0, 2.0)),
            (ImageId(1), square(2.0, 2.0, 2.0)),
        ])
    }

    #[test]
    fn graph_structure() {
        let (graphs, s) = build();
        assert_eq!(graphs.num_images(), 2);
        let g0 = graphs.graph(ImageId(0)).unwrap();
        assert_eq!(g0.shapes.len(), 3);
        // exactly one containment edge: s0 contains s1
        let contains: Vec<&Edge> =
            g0.edges.iter().filter(|e| e.label == EdgeLabel::Contain).collect();
        assert_eq!(contains.len(), 1);
        assert_eq!((contains[0].from, contains[0].to), (s[0], s[1]));
        // s2 is disjoint from both
        assert!(!g0.connected(s[0], s[2]));
        assert!(!g0.connected(s[1], s[2]));

        let g1 = graphs.graph(ImageId(1)).unwrap();
        let overlaps: Vec<&Edge> =
            g1.edges.iter().filter(|e| e.label == EdgeLabel::Overlap).collect();
        assert_eq!(overlaps.len(), 2, "overlap stored in both directions");
        assert!(g1.connected(s[3], s[4]));
    }

    #[test]
    fn diameter_angles_antisymmetric() {
        let (graphs, s) = build();
        let a01 = graphs.diameter_angle(s[0], s[1]);
        let a10 = graphs.diameter_angle(s[1], s[0]);
        assert!((a01 + a10).abs() < 1e-9 || (a01.abs() - std::f64::consts::PI).abs() < 1e-9);
    }

    #[test]
    fn rotated_shape_pair_angle() {
        // two thin rectangles, the second rotated 90°
        let r1 = Polyline::closed(vec![p(0.0, 0.0), p(4.0, 0.0), p(4.0, 1.0), p(0.0, 1.0)])
            .unwrap();
        let r2 = Polyline::closed(vec![p(10.0, 0.0), p(11.0, 0.0), p(11.0, 4.0), p(10.0, 4.0)])
            .unwrap();
        let (graphs, s) = graphs_of(vec![(ImageId(0), r1), (ImageId(0), r2)]);
        let angle = graphs.diameter_angle(s[0], s[1]).abs();
        // diameters are the diagonals; diagonal of a 4×1 box is atan(1/4)
        // off the long axis, so the angle between them is 90° ± 2·atan(1/4)
        let expect1 = std::f64::consts::FRAC_PI_2;
        assert!(
            (angle - expect1).abs() < 2.2 * (0.25f64).atan() + 1e-9,
            "angle = {angle}"
        );
    }
}
