//! The GeoSIR prototype's interactive loop (§6), as a scriptable command
//! interpreter: the user "drafts a query sketch" and retrieves the k best
//! matches, the shapes within a threshold, or the images a topological
//! query over bound sketch names selects — all answered by a snapshot of a
//! bulk-loaded dynamic base, the exact seed-and-scan the server runs.
//!
//! The interpreter is a plain function from command lines to output lines
//! so it is unit-testable; `src/bin/geosir.rs` wraps it in a stdin loop.

use std::collections::HashMap;
use std::fmt::Write as _;

use geosir_core::dynamic::{DynamicBase, RetrieveStats, Snapshot};
use geosir_core::ids::ImageId;
use geosir_core::scratch::MatcherScratch;
use geosir_core::MatchConfig;
use geosir_core::selectivity::significant_vertices;
use geosir_geom::{Point, Polyline};
use geosir_imaging::synth::{generate, CorpusConfig};
use geosir_obs::Registry;
use geosir_query::engine::{EngineConfig, QueryEngine};
use geosir_serve::metrics::ExactSeries;

/// The interpreter's state: an optional loaded base plus sketch bindings,
/// and the registry its queries are recorded on.
#[derive(Default)]
pub struct Session {
    base: Option<Loaded>,
    bindings: HashMap<String, Polyline>,
    pending: Vec<(ImageId, Polyline)>,
    registry: Registry,
    /// The exact tier's series, registered at the first `query`.
    exact: Option<ExactSeries>,
}

/// A loaded base: its snapshot and the α it was normalized at.
struct Loaded {
    snapshot: Snapshot,
    alpha: f64,
}

impl Session {
    pub fn new() -> Self {
        Session::default()
    }

    /// Execute one command line; returns the printable response.
    pub fn execute(&mut self, line: &str) -> String {
        let mut out = String::new();
        if let Err(e) = self.dispatch(line.trim(), &mut out) {
            let _ = writeln!(out, "error: {e}");
        }
        out
    }

    /// Bulk-load `shapes` as the session's base (replacing any earlier
    /// one) and return its snapshot.
    fn load(&mut self, alpha: f64, shapes: Vec<(ImageId, Polyline)>) -> &Snapshot {
        // nothing is inserted later: one level of the batch's size holds it
        let mut base = DynamicBase::new(alpha, MatchConfig::default(), shapes.len().max(1));
        base.bulk_load(shapes);
        &self.base.insert(Loaded { snapshot: base.snapshot(), alpha }).snapshot
    }

    fn snapshot(&self) -> Result<&Snapshot, &'static str> {
        Ok(&self.base.as_ref().ok_or("no shape base (gen/build first)")?.snapshot)
    }

    fn dispatch(&mut self, line: &str, out: &mut String) -> Result<(), String> {
        let mut parts = line.split_whitespace();
        let Some(cmd) = parts.next() else { return Ok(()) };
        let rest: Vec<&str> = parts.collect();
        match cmd {
            "help" => {
                let _ = writeln!(
                    out,
                    "commands:\n  gen <images> [seed]      generate a synthetic image base\n  shape <image#> <pts>     stage a shape (pts: x,y x,y ...)\n  build [alpha]            build the shape base from staged shapes\n  bind <name> <pts>        name a sketch for queries\n  query <name> [k]         retrieve the k best matches for a sketch\n  similar <name> <tau>     all shapes scoring within tau\n  topo <expr>              topological query over bound names\n  vs <name>                significant-vertices estimate V_S\n  stats                    base statistics\n  metrics                  dump the exact-query series of this session\n  quit"
                );
                Ok(())
            }
            "gen" => {
                let images: usize =
                    rest.first().ok_or("usage: gen <images> [seed]")?.parse().map_err(|_| "bad count")?;
                if images == 0 {
                    return Err("gen needs at least one image".into());
                }
                let seed: u64 = match rest.get(1) {
                    Some(s) => s.parse().map_err(|_| "bad seed")?,
                    None => 7,
                };
                let corpus = generate(&CorpusConfig::small(images, seed));
                let shapes = corpus.shapes.into_iter().map(|(image, _, s)| (image, s)).collect();
                let snap = self.load(0.05, shapes);
                let _ = writeln!(
                    out,
                    "generated {} images, {} shapes, {} normalized copies",
                    images,
                    snap.len(),
                    snap.total_copies()
                );
                Ok(())
            }
            "shape" => {
                let image: u32 = rest
                    .first()
                    .ok_or("usage: shape <image#> <x,y> <x,y> ...")?
                    .parse()
                    .map_err(|_| "bad image id")?;
                let poly = parse_points(&rest[1..])?;
                self.pending.push((ImageId(image), poly));
                let _ = writeln!(out, "staged ({} pending)", self.pending.len());
                Ok(())
            }
            "build" => {
                if self.pending.is_empty() {
                    return Err("no staged shapes (use `shape` or `gen`)".into());
                }
                let alpha: f64 = match rest.first() {
                    Some(s) => s.parse().map_err(|_| "bad alpha")?,
                    None => 0.05,
                };
                if !(0.0..1.0).contains(&alpha) {
                    return Err(format!("alpha must be in [0, 1), not {alpha}"));
                }
                let pending = std::mem::take(&mut self.pending);
                let snap = self.load(alpha, pending);
                let _ = writeln!(out, "built: {} shapes, {} copies", snap.len(), snap.total_copies());
                Ok(())
            }
            "bind" => {
                let name = rest.first().ok_or("usage: bind <name> <x,y> ...")?;
                let poly = parse_points(&rest[1..])?;
                self.bindings.insert(name.to_string(), poly);
                let _ = writeln!(out, "bound '{name}'");
                Ok(())
            }
            "query" => {
                let name = rest.first().ok_or("usage: query <name> [k]")?;
                let sketch = self.bindings.get(*name).ok_or("unknown sketch name")?;
                let k: usize = match rest.get(1) {
                    Some(s) => s.parse().map_err(|_| "bad k")?,
                    None => 3,
                };
                // the snapshot reads k = 0 as its configured k
                if k == 0 {
                    return Err("k must be at least 1".into());
                }
                // fresh scratch a query: a shell is not a hot loop
                let (mut hits, mut stats) = (Vec::new(), RetrieveStats::default());
                let (scratch, tmp) = (&mut MatcherScratch::new(), &mut Default::default());
                self.snapshot()?.retrieve_with_stats(scratch, tmp, sketch, k, &mut hits, &mut stats);
                let exact = self.exact.get_or_insert_with(|| ExactSeries::new(&self.registry));
                exact.record(&stats, &hits, scratch.grow_events() > 0);
                for m in &hits {
                    let _ = writeln!(out, "  shape {} in {}  score {:.4}", m.shape.0, m.image, m.score);
                }
                let _ = writeln!(
                    out,
                    "  [{} levels, {} copies scanned, {} scored in full, {} buffered]",
                    stats.levels, stats.scan_copies, stats.scan_survivors, stats.buffer_scored
                );
                Ok(())
            }
            "similar" => {
                let name = rest.first().ok_or("usage: similar <name> <tau>")?;
                let sketch = self.bindings.get(*name).ok_or("unknown sketch name")?;
                let tau: f64 =
                    rest.get(1).ok_or("usage: similar <name> <tau>")?.parse().map_err(|_| "bad tau")?;
                if tau.is_nan() || tau < 0.0 {
                    return Err(format!("tau must be a number ≥ 0, not {tau}"));
                }
                let hits = self.snapshot()?.retrieve_within(sketch, tau);
                let _ = writeln!(out, "{} shapes within {tau}", hits.len());
                Ok(())
            }
            "topo" => {
                let expr = line["topo".len()..].trim();
                if expr.is_empty() {
                    return Err("usage: topo <expr>".into());
                }
                let mut engine = QueryEngine::new(self.snapshot()?, EngineConfig::default());
                let hits =
                    engine.execute_str(expr, &self.bindings).map_err(|e| e.to_string())?;
                let mut ids: Vec<u32> = hits.iter().map(|i| i.0).collect();
                ids.sort_unstable();
                let _ = writeln!(out, "{} images: {ids:?}", ids.len());
                Ok(())
            }
            "vs" => {
                let name = rest.first().ok_or("usage: vs <name>")?;
                let sketch = self.bindings.get(*name).ok_or("unknown sketch name")?;
                let _ = writeln!(out, "V_S = {:.3}", significant_vertices(sketch));
                Ok(())
            }
            "stats" => {
                match &self.base {
                    Some(Loaded { snapshot: snap, alpha }) => {
                        let _ = writeln!(
                            out,
                            "shapes {}  copies {}  levels {}  alpha {alpha}",
                            snap.len(),
                            snap.total_copies(),
                            snap.num_levels()
                        );
                        let _ = writeln!(
                            out,
                            "hash buckets {}  avg bucket {:.2}",
                            snap.approx_num_buckets(),
                            snap.approx_avg_bucket_size()
                        );
                    }
                    None => {
                        let _ = writeln!(out, "no shape base");
                    }
                }
                Ok(())
            }
            "metrics" => {
                // Each `query` is recorded as a node's worker records one
                // (`similar` and `topo` are not).
                let snap = self.registry.snapshot();
                if snap.entries.is_empty() {
                    let _ = writeln!(out, "no metrics recorded yet (run a query first)");
                } else {
                    let _ = write!(out, "{}", geosir_obs::expo::render_prometheus(&snap));
                }
                Ok(())
            }
            "quit" | "exit" => Ok(()),
            other => Err(format!("unknown command '{other}' (try `help`)")),
        }
    }
}

fn parse_points(tokens: &[&str]) -> Result<Polyline, String> {
    let mut pts = Vec::new();
    for t in tokens {
        let (x, y) = t.split_once(',').ok_or_else(|| format!("bad point '{t}'"))?;
        let x: f64 = x.parse().map_err(|_| format!("bad x in '{t}'"))?;
        let y: f64 = y.parse().map_err(|_| format!("bad y in '{t}'"))?;
        pts.push(Point::new(x, y));
    }
    Polyline::closed(pts).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_session_flow() {
        let mut s = Session::new();
        assert!(s.execute("help").contains("commands:"));
        // stage two images
        let r = s.execute("shape 0 0,0 4,0 4,3 2,4.5 0,3");
        assert!(r.contains("staged"), "{r}");
        s.execute("shape 0 1,1 2,1 2,2 1,2");
        s.execute("shape 1 0,0 5,0 1,3");
        let r = s.execute("build 0.1");
        assert!(r.contains("built: 3 shapes"), "{r}");
        // bind + query the house
        s.execute("bind house 0,0 4,0 4,3 2,4.5 0,3");
        let r = s.execute("query house 2");
        assert!(r.contains("score 0.0000"), "{r}");
        // topological query
        s.execute("bind sq 0,0 1,0 1,1 0,1");
        let r = s.execute("topo contain(house, sq, any)");
        assert!(r.contains("1 images"), "{r}");
        // estimator + stats
        assert!(s.execute("vs house").contains("V_S ="));
        assert!(s.execute("stats").contains("shapes 3"));
    }

    #[test]
    fn generated_base_queries() {
        let mut s = Session::new();
        let r = s.execute("gen 20 5");
        assert!(r.contains("generated 20 images"), "{r}");
        let r = s.execute("similar ghost 0.1");
        assert!(r.contains("error"), "{r}");
        s.execute("bind blob 0,0 3,0.2 2.6,2 1,2.4");
        let r = s.execute("similar blob 0.05");
        assert!(r.contains("shapes within"), "{r}");
    }

    #[test]
    fn errors_are_reported_not_fatal() {
        let mut s = Session::new();
        assert!(s.execute("query nothing").contains("error"));
        assert!(s.execute("frobnicate").contains("unknown command"));
        assert!(s.execute("shape x 0,0").contains("error"));
        assert!(s.execute("bind p 0,0 1").contains("error"));
        assert!(s.execute("build").contains("error")); // nothing staged
        assert!(s.execute("").is_empty());
        // out-of-range arguments: each an error the session survives
        assert!(s.execute("gen 0").starts_with("error: "));
        s.execute("shape 0 0,0 4,0 4,3 2,4.5 0,3");
        assert!(s.execute("build 5").starts_with("error: "));
        assert!(s.execute("build -1").starts_with("error: "));
        assert!(s.execute("build x").starts_with("error: "));
        let r = s.execute("build 0.1");
        assert!(r.contains("built: 1 shapes"), "the staged shape survived: {r}");
        s.execute("bind a 0,0 4,0 4,3 2,4.5 0,3");
        // k = 0 would mean the base's configured k; a query asks for k ≥ 1
        assert!(s.execute("query a 0").starts_with("error: "));
        assert!(s.execute("query a -2").starts_with("error: "));
        for tau in ["nan", "NaN", "-0.5", "x"] {
            let r = s.execute(&format!("similar a {tau}"));
            assert!(r.starts_with("error: "), "similar a {tau}: {r}");
        }
        // a huge k is a bound, not a size: one shape comes back
        let r = s.execute("query a 100000000000");
        assert_eq!(r.matches("  shape ").count(), 1, "{r}");
        assert!(s.execute("similar a 0.01").contains("1 shapes within"));
    }

    #[test]
    fn metrics_lists_the_queries_run() {
        let mut s = Session::new();
        assert!(s.execute("metrics").contains("no metrics recorded yet"));
        s.execute("shape 0 0,0 4,0 4,3 2,4.5 0,3");
        s.execute("shape 1 0,0 5,0 1,3");
        s.execute("build 0.1");
        s.execute("bind house 0,0 4,0 4,3 2,4.5 0,3");
        s.execute("query house 1");
        s.execute("query house 2");
        let r = s.execute("metrics");
        // the house seeds its own k = 1 and 2 best: two seeded queries
        assert!(r.contains("geosir_exact_queries_total{seeded=\"true\"} 2"), "{r}");
        assert!(r.contains("geosir_dynamic_queries_total 2"), "{r}");
    }

    #[test]
    fn hashing_fallback_via_cli() {
        let mut s = Session::new();
        s.execute("shape 0 0,0 2,0 2,2 0,2");
        s.execute("build 0.0");
        // a saw-ish sketch unlike the stored square
        s.execute("bind saw 0,0 1,3 2,0 3,3 4,0 5,3 6,0 6,-1 0,-1");
        let r = s.execute("query saw 1");
        // nothing stored is close: the answer is the (bad) best match
        assert!(!r.contains("error"), "{r}");
        assert_eq!(r.matches("  shape ").count(), 1, "{r}");
    }
}
