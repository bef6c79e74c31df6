//! SLO objectives and multi-window sliding burn rates, computed from
//! the counters and histograms the registry already maintains.
//!
//! An [`Objective`] reduces a [`Snapshot`] to a cumulative
//! `(good, total)` event pair — availability from a pair of counters,
//! latency-under-threshold from a histogram's bucket prefix. The
//! [`SloEngine`] keeps a short history of these reduced
//! samples and, for each configured window, compares the window's bad
//! fraction against the objective's error budget:
//!
//! ```text
//! burn = (bad_events / total_events) / (1 - target)
//! ```
//!
//! `burn == 1` means the error budget is being spent exactly at the
//! sustainable rate; `burn > 1` means the budget will be exhausted
//! early. Multi-window alerting follows the classic shape: an
//! objective is *alerting* only when **every** window burns above the
//! threshold — the short window proves the problem is current, the
//! long window proves it is not a blip. Empty windows (no events) are
//! healthy by definition.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::registry::{bucket_upper_bound, SnapValue, Snapshot};

/// How an objective reduces a snapshot to cumulative `(good, total)`.
#[derive(Debug, Clone)]
pub enum ObjectiveKind {
    /// `total` and `errors` are counter names (summed across label
    /// sets); good = total − errors.
    Availability { total: String, errors: String },
    /// Good = histogram observations with value ≤ `threshold_us`
    /// (bucket-prefix count, so the threshold snaps to the containing
    /// bucket's upper bound); total = all observations.
    LatencyUnder { histogram: String, threshold_us: u64 },
}

/// One service-level objective: a name (label value on the exported
/// gauges), a target good-fraction in `(0, 1)`, and a reduction kind.
#[derive(Debug, Clone)]
pub struct Objective {
    pub name: String,
    pub target: f64,
    pub kind: ObjectiveKind,
}

/// Cumulative good/total at one sample instant, per objective.
#[derive(Debug, Clone, Copy, Default)]
struct Cumulative {
    good: f64,
    total: f64,
}

/// One `(objective, window)` burn-rate report.
#[derive(Debug, Clone)]
pub struct BurnRate {
    pub objective: String,
    pub window: Duration,
    /// Error-budget burn multiple: 0 = clean, 1 = spending the budget
    /// exactly at the sustainable rate, >1 = over budget.
    pub burn: f64,
    /// Events observed in the window (0 ⇒ burn is 0 by definition).
    pub total: f64,
}

/// Multi-window sliding burn-rate evaluator. Call
/// [`SloEngine::observe`] on a cadence (the server's watchdog loop);
/// it keeps just enough reduced history to cover the longest window.
pub struct SloEngine {
    objectives: Vec<Objective>,
    windows: Vec<Duration>,
    history: VecDeque<(Instant, Vec<Cumulative>)>,
}

impl SloEngine {
    /// `windows` should be sorted short → long; the longest bounds how
    /// much history is retained.
    pub fn new(objectives: Vec<Objective>, windows: Vec<Duration>) -> SloEngine {
        assert!(!windows.is_empty(), "at least one burn-rate window");
        SloEngine { objectives, windows, history: VecDeque::new() }
    }

    pub fn objectives(&self) -> &[Objective] {
        &self.objectives
    }

    pub fn windows(&self) -> &[Duration] {
        &self.windows
    }

    /// Reduce `snap`, append to history, and report the burn rate of
    /// every `(objective, window)` pair as of `now`.
    pub fn observe(&mut self, now: Instant, snap: &Snapshot) -> Vec<BurnRate> {
        let sample: Vec<Cumulative> =
            self.objectives.iter().map(|o| reduce(&o.kind, snap)).collect();
        self.history.push_back((now, sample));
        let keep = self.windows.iter().copied().max().unwrap_or_default() * 2;
        while self.history.len() > 2 {
            let Some((t, _)) = self.history.front() else { break };
            if now.duration_since(*t) > keep {
                self.history.pop_front();
            } else {
                break;
            }
        }
        let newest = &self.history.back().expect("just pushed").1;
        let mut out = Vec::with_capacity(self.objectives.len() * self.windows.len());
        for &window in &self.windows {
            // Oldest retained sample inside the window; when the
            // engine is younger than the window the whole history
            // serves as the (short) window.
            let base = self
                .history
                .iter()
                .find(|(t, _)| now.duration_since(*t) <= window)
                .map(|(_, s)| s.clone())
                .unwrap_or_else(|| newest.clone());
            for (i, obj) in self.objectives.iter().enumerate() {
                let total = (newest[i].total - base[i].total).max(0.0);
                let good = (newest[i].good - base[i].good).max(0.0).min(total);
                let bad_fraction = if total > 0.0 { (total - good) / total } else { 0.0 };
                let budget = (1.0 - obj.target).max(1e-9);
                out.push(BurnRate {
                    objective: obj.name.clone(),
                    window,
                    burn: bad_fraction / budget,
                    total,
                });
            }
        }
        out
    }
}

/// Objectives whose burn exceeds `max_burn` on **every** window
/// (multi-window AND), deduplicated, in objective order.
pub fn alerting(reports: &[BurnRate], max_burn: f64) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for r in reports {
        if !names.contains(&r.objective) {
            names.push(r.objective.clone());
        }
    }
    names.retain(|name| {
        let of_obj: Vec<&BurnRate> = reports.iter().filter(|r| &r.objective == name).collect();
        !of_obj.is_empty() && of_obj.iter().all(|r| r.burn > max_burn)
    });
    names
}

fn reduce(kind: &ObjectiveKind, snap: &Snapshot) -> Cumulative {
    match kind {
        ObjectiveKind::Availability { total, errors } => {
            let t = sum_counter(snap, total);
            let e = sum_counter(snap, errors).min(t);
            Cumulative { good: t - e, total: t }
        }
        ObjectiveKind::LatencyUnder { histogram, threshold_us } => {
            let mut good = 0.0;
            let mut total = 0.0;
            for e in &snap.entries {
                if e.name != *histogram {
                    continue;
                }
                if let SnapValue::Histogram(h) = &e.value {
                    for &(idx, n) in &h.buckets {
                        total += n as f64;
                        if bucket_upper_bound(idx as usize) <= *threshold_us {
                            good += n as f64;
                        }
                    }
                }
            }
            Cumulative { good, total }
        }
    }
}

fn sum_counter(snap: &Snapshot, name: &str) -> f64 {
    let mut sum = 0.0;
    for e in &snap.entries {
        if e.name == name {
            if let SnapValue::Counter(v) = e.value {
                sum += v as f64;
            }
        }
    }
    sum
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn avail() -> Objective {
        Objective {
            name: "availability".into(),
            target: 0.99,
            kind: ObjectiveKind::Availability {
                total: "req_total".into(),
                errors: "err_total".into(),
            },
        }
    }

    #[test]
    fn clean_traffic_burns_nothing() {
        let reg = Registry::new();
        let mut eng = SloEngine::new(vec![avail()], vec![Duration::from_secs(5)]);
        let t0 = Instant::now();
        reg.counter("req_total", &[]).add(100);
        eng.observe(t0, &reg.snapshot());
        reg.counter("req_total", &[]).add(100);
        let reports = eng.observe(t0 + Duration::from_secs(1), &reg.snapshot());
        assert_eq!(reports.len(), 1);
        assert!(reports[0].burn.abs() < 1e-9, "burn={}", reports[0].burn);
        assert!(alerting(&reports, 1.0).is_empty());
    }

    #[test]
    fn error_rate_at_budget_burns_one() {
        let reg = Registry::new();
        let mut eng = SloEngine::new(vec![avail()], vec![Duration::from_secs(5)]);
        let t0 = Instant::now();
        eng.observe(t0, &reg.snapshot());
        // 1% errors against a 99% target: burn exactly 1.
        reg.counter("req_total", &[]).add(1000);
        reg.counter("err_total", &[]).add(10);
        let reports = eng.observe(t0 + Duration::from_secs(1), &reg.snapshot());
        assert!((reports[0].burn - 1.0).abs() < 1e-6, "burn={}", reports[0].burn);
        // 10% errors: burn 10 — alerting past any sane threshold.
        reg.counter("req_total", &[]).add(1000);
        reg.counter("err_total", &[]).add(100);
        let reports = eng.observe(t0 + Duration::from_secs(2), &reg.snapshot());
        assert!(reports[0].burn > 5.0, "burn={}", reports[0].burn);
        assert_eq!(alerting(&reports, 2.0), vec!["availability".to_string()]);
    }

    #[test]
    fn multi_window_and_requires_all_windows() {
        let reg = Registry::new();
        let mut eng = SloEngine::new(
            vec![avail()],
            vec![Duration::from_millis(100), Duration::from_secs(3600)],
        );
        let t0 = Instant::now();
        // Long clean history, then a recent error burst: the short
        // window burns, the hour window has absorbed enough clean
        // traffic that it stays under threshold → not alerting.
        eng.observe(t0, &reg.snapshot());
        reg.counter("req_total", &[]).add(1_000_000);
        eng.observe(t0 + Duration::from_secs(60), &reg.snapshot());
        reg.counter("req_total", &[]).add(100);
        reg.counter("err_total", &[]).add(50);
        let reports = eng.observe(t0 + Duration::from_secs(60) + Duration::from_millis(50), &reg.snapshot());
        let short = reports.iter().find(|r| r.window == Duration::from_millis(100)).unwrap();
        let long = reports.iter().find(|r| r.window == Duration::from_secs(3600)).unwrap();
        assert!(short.burn > 10.0, "short burn={}", short.burn);
        assert!(long.burn < 10.0, "long burn={}", long.burn);
        assert!(alerting(&reports, 10.0).is_empty(), "multi-window AND must hold");
    }

    #[test]
    fn latency_under_counts_bucket_prefix() {
        let reg = Registry::new();
        let h = reg.histogram("lat_us", &[]);
        let obj = Objective {
            name: "latency".into(),
            target: 0.9,
            kind: ObjectiveKind::LatencyUnder { histogram: "lat_us".into(), threshold_us: 1000 },
        };
        let mut eng = SloEngine::new(vec![obj], vec![Duration::from_secs(5)]);
        let t0 = Instant::now();
        eng.observe(t0, &reg.snapshot());
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(50_000);
        }
        let reports = eng.observe(t0 + Duration::from_secs(1), &reg.snapshot());
        // 10% over threshold against a 10% budget → burn ≈ 1.
        assert!((reports[0].burn - 1.0).abs() < 0.05, "burn={}", reports[0].burn);
    }

    #[test]
    fn empty_window_is_healthy() {
        let reg = Registry::new();
        let mut eng = SloEngine::new(vec![avail()], vec![Duration::from_millis(10)]);
        let t0 = Instant::now();
        reg.counter("req_total", &[]).add(10);
        reg.counter("err_total", &[]).add(10);
        eng.observe(t0, &reg.snapshot());
        // No new traffic inside the window: burn must read 0, not NaN
        // or a stale 100%-bad verdict.
        let reports = eng.observe(t0 + Duration::from_secs(1), &reg.snapshot());
        assert_eq!(reports[0].burn, 0.0);
        assert_eq!(reports[0].total, 0.0);
    }
}
