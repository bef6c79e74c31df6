//! The integrated GeoSIR system — the object a downstream application
//! embeds. One façade over the whole pipeline: images (vector scenes or
//! rasters) in, loaded once into a dynamic shape base and its image
//! graphs, then sketch retrieval and topological text queries — both
//! answered by the base's snapshot, the exact seed-and-scan the server
//! runs (`geosir_core::dynamic`).

use geosir_core::dynamic::{DynMatch, DynamicBase, Snapshot};
use geosir_core::ids::ImageId;
use geosir_core::MatchConfig;
use geosir_geom::Polyline;
use geosir_imaging::pipeline::{extract_shapes, ExtractConfig};
use geosir_imaging::raster::Raster;
use geosir_query::engine::{EngineConfig, QueryEngine};
use geosir_query::graph::ImageGraphStore;

/// System-wide configuration.
#[derive(Debug, Clone)]
pub struct GeoSirConfig {
    /// α-diameter tolerance for normalization (§2.4).
    pub alpha: f64,
    /// Retrieval parameters the snapshot carries (its `k` is what
    /// [`GeoSir::find`] answers for `k = 0`; `score` the criterion).
    pub match_config: MatchConfig,
    /// Query-engine parameters (τ, planner strategy, selectivity prior).
    pub engine: EngineConfig,
    /// Raster extraction parameters (§6 front end).
    pub extract: ExtractConfig,
}

impl Default for GeoSirConfig {
    fn default() -> Self {
        GeoSirConfig {
            alpha: 0.05,
            match_config: MatchConfig { k: 3, beta: 0.3, ..Default::default() },
            engine: EngineConfig::default(),
            extract: ExtractConfig::default(),
        }
    }
}

/// Accumulates images before the base is built.
pub struct GeoSirBuilder {
    config: GeoSirConfig,
    shapes: Vec<(ImageId, Polyline)>,
    next_image: u32,
}

impl GeoSirBuilder {
    pub fn new(config: GeoSirConfig) -> Self {
        GeoSirBuilder { config, shapes: Vec::new(), next_image: 0 }
    }

    /// Add an image given directly as object-boundary shapes.
    pub fn add_scene(&mut self, shapes: impl IntoIterator<Item = Polyline>) -> ImageId {
        let id = ImageId(self.next_image);
        self.next_image += 1;
        self.shapes.extend(shapes.into_iter().map(|s| (id, s)));
        id
    }

    /// Add a raster image through the §6 extraction pipeline (boundary
    /// tracing + segment approximation). Returns the image id and how many
    /// shapes were extracted.
    pub fn add_raster(&mut self, raster: &Raster) -> (ImageId, usize) {
        let shapes = extract_shapes(raster, &self.config.extract);
        let n = shapes.len();
        (self.add_scene(shapes), n)
    }

    /// Bulk-load every shape as one level, then derive the image graphs
    /// from the snapshot. Shapes get ids in the order they were added.
    pub fn build(self) -> GeoSir {
        let GeoSirConfig { alpha, match_config, engine, .. } = self.config;
        // nothing is inserted later: the buffer's capacity only has to
        // place the batch, and one level of its size does
        let mut base = DynamicBase::new(alpha, match_config, self.shapes.len().max(1));
        base.bulk_load(self.shapes);
        let snapshot = base.snapshot();
        let graphs = ImageGraphStore::build(&snapshot);
        GeoSir { snapshot, graphs, engine }
    }
}

/// The built system.
pub struct GeoSir {
    snapshot: Snapshot,
    graphs: ImageGraphStore,
    engine: EngineConfig,
}

impl GeoSir {
    pub fn builder(config: GeoSirConfig) -> GeoSirBuilder {
        GeoSirBuilder::new(config)
    }

    /// The k best shapes for `sketch` (`k = 0`: the configured k), exact
    /// on every rank, ranked by `(score, id)`.
    pub fn find(&self, sketch: &Polyline, k: usize) -> Vec<DynMatch> {
        self.snapshot.retrieve(sketch, k)
    }

    /// Open a query session (the engine carries the adaptive selectivity
    /// estimator, so keep a session across queries to let it learn).
    pub fn session(&self) -> QueryEngine<'_> {
        QueryEngine::with_graphs(&self.snapshot, self.graphs.clone(), self.engine.clone())
    }
}
