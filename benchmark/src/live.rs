//! Live counts: differences of the program's own metrics registry
//! (`MetricsDump` over the wire) around a window. Through the cluster
//! router the dump is federated: every series appears merged across
//! shards and again per shard under a `shard` label, so sums skip the
//! labelled copies except for the router's own per-shard series.

use geosir_obs::{bucket_upper_bound, SnapValue, Snapshot};

/// Series the router itself registers per shard; everything else with a
/// `shard` label is a relabelled copy of a merged series.
fn is_router_series(name: &str) -> bool {
    name.starts_with("geosir_router_") || name.starts_with("geosir_replication_")
}

fn counted<'a>(
    snap: &'a Snapshot,
    name: &'a str,
    label: Option<(&'a str, &'a str)>,
) -> impl Iterator<Item = &'a SnapValue> {
    snap.entries
        .iter()
        .filter(move |e| {
            e.name == name
                && (is_router_series(name) || e.labels.iter().all(|(k, _)| k != "shard"))
                && label.is_none_or(|(k, v)| e.labels.iter().any(|(ek, ev)| ek == k && ev == v))
        })
        .map(|e| &e.value)
}

/// Sum of a counter over its label sets.
pub fn counter(snap: &Snapshot, name: &str) -> f64 {
    counted(snap, name, None)
        .map(|v| match v {
            SnapValue::Counter(c) => *c as f64,
            _ => 0.0,
        })
        .sum()
}

/// Largest value of a gauge over its label sets.
pub fn gauge_max(snap: &Snapshot, name: &str, label: Option<(&str, &str)>) -> f64 {
    counted(snap, name, label)
        .map(|v| match v {
            SnapValue::Gauge(g, _) => *g as f64,
            _ => 0.0,
        })
        .fold(0.0, f64::max)
}

/// A histogram's bucket counts summed over its label sets (filtered by
/// one label when given), dense by bucket index.
fn buckets(snap: &Snapshot, name: &str, label: Option<(&str, &str)>) -> (Vec<u64>, u64) {
    let mut dense = Vec::new();
    let mut sum = 0u64;
    for v in counted(snap, name, label) {
        if let SnapValue::Histogram(h) = v {
            sum += h.sum;
            for &(i, n) in &h.buckets {
                if dense.len() <= i as usize {
                    dense.resize(i as usize + 1, 0);
                }
                dense[i as usize] += n;
            }
        }
    }
    (dense, sum)
}

/// What a histogram recorded between two dumps.
pub struct HistDelta {
    dense: Vec<u64>,
    pub sum: f64,
}

impl HistDelta {
    pub fn count(&self) -> f64 {
        self.dense.iter().sum::<u64>() as f64
    }

    pub fn mean(&self) -> f64 {
        if self.count() == 0.0 {
            0.0
        } else {
            self.sum / self.count()
        }
    }

    /// Upper bound of the bucket holding the `q` quantile (the registry's
    /// log-linear buckets: at most 25 % above the true value); 0 when
    /// nothing was recorded.
    pub fn quantile(&self, q: f64) -> f64 {
        let total: u64 = self.dense.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in self.dense.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i) as f64;
            }
        }
        0.0
    }
}

/// The window between two dumps of the same registry.
pub struct Window<'a> {
    pub before: &'a Snapshot,
    pub after: &'a Snapshot,
}

impl Window<'_> {
    pub fn counter(&self, name: &str) -> f64 {
        counter(self.after, name) - counter(self.before, name)
    }

    pub fn hist(&self, name: &str, label: Option<(&str, &str)>) -> HistDelta {
        let (mut dense, sum1) = buckets(self.after, name, label);
        let (old, sum0) = buckets(self.before, name, label);
        for (i, n) in old.into_iter().enumerate() {
            if i < dense.len() {
                dense[i] = dense[i].saturating_sub(n);
            }
        }
        HistDelta {
            dense,
            sum: sum1.saturating_sub(sum0) as f64,
        }
    }

    /// `a ÷ b` of two counter deltas, 0 when `b` did not move.
    pub fn ratio(&self, a: &str, b: &str) -> f64 {
        let d = self.counter(b);
        if d == 0.0 {
            0.0
        } else {
            self.counter(a) / d
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geosir_obs::Registry;

    #[test]
    fn deltas_of_counters_and_histograms() {
        let reg = Registry::new();
        let c = reg.counter("geosir_matcher_rings_total", &[]);
        let h = reg.histogram("geosir_stage_duration_us", &[("stage", "retrieve")]);
        let other = reg.histogram("geosir_stage_duration_us", &[("stage", "wal")]);
        c.add(5);
        h.record(100);
        other.record(9_000);
        let before = reg.snapshot();
        c.add(7);
        for _ in 0..9 {
            h.record(1_000);
        }
        h.record(50_000);
        let after = reg.snapshot();
        let w = Window {
            before: &before,
            after: &after,
        };
        assert_eq!(w.counter("geosir_matcher_rings_total"), 7.0);
        assert_eq!(w.counter("geosir_absent_total"), 0.0);
        let d = w.hist("geosir_stage_duration_us", Some(("stage", "retrieve")));
        assert_eq!(d.count(), 10.0);
        assert_eq!(d.sum, 59_000.0);
        let p50 = d.quantile(0.5);
        assert!((1_000.0..=1_250.0).contains(&p50), "{p50}");
        assert!(d.quantile(1.0) >= 50_000.0);
        assert_eq!(
            w.hist("geosir_stage_duration_us", Some(("stage", "wal")))
                .count(),
            0.0
        );
        assert_eq!(w.hist("geosir_absent", None).quantile(0.5), 0.0);
        assert_eq!(
            w.ratio("geosir_matcher_rings_total", "geosir_absent_total"),
            0.0
        );
    }

    #[test]
    fn federated_dump_counts_merged_series_once_and_router_series_per_shard() {
        let shard = Registry::new();
        shard.counter("geosir_queries_total", &[]).add(10);
        let router = Registry::new();
        router
            .counter("geosir_router_hedges_total", &[("shard", "0")])
            .add(1);
        router
            .counter("geosir_router_hedges_total", &[("shard", "1")])
            .add(2);
        router
            .gauge("geosir_replication_lag_records", &[("shard", "1")])
            .set(4);
        let mut fed = router.snapshot();
        let s = shard.snapshot();
        // two shards: merged totals plus one labelled copy each
        fed.merge(&s);
        fed.merge(&s);
        fed.merge(&s.relabeled("shard", "0"));
        fed.merge(&s.relabeled("shard", "1"));
        assert_eq!(counter(&fed, "geosir_queries_total"), 20.0);
        assert_eq!(counter(&fed, "geosir_router_hedges_total"), 3.0);
        assert_eq!(gauge_max(&fed, "geosir_replication_lag_records", None), 4.0);
    }
}
