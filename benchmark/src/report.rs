//! Everything after a run: the printed table, `all` (one pass over the
//! four workloads → `out/result.json`), `noise` (same-code passes →
//! `NOISE.md`) and `compare` (two result files against the bounds in
//! `BENCHMARK.json`).

use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::run::{self, Options, Report};
use crate::stats::{iqr_share, max_pairwise_share, median, quartiles};
use crate::workload::{FULL_RUN_SECONDS, WORKLOADS};
use crate::{bench_dir, options, Args};

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Bounded {
    pub name: String,
    pub unit: String,
    pub better: Better,
    pub bound: f64,
}

impl Bounded {
    /// A `share` is already a fraction of one: its bound is read as
    /// absolute points, every other unit's as a share of the baseline.
    fn allowance(&self, baseline: f64) -> f64 {
        if self.unit == "share" {
            self.bound
        } else {
            self.bound * baseline.abs()
        }
    }

    /// Whether the host's speed moves the metric (memory and quality
    /// do not depend on it).
    fn is_timed(&self) -> bool {
        matches!(self.unit.as_str(), "s" | "ms" | "us" | "1/s")
    }
}

/// `BENCHMARK.json` as far as this program needs it.
pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<Bounded>,
}

impl Spec {
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let run_seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or("BENCHMARK.json: no run_seconds")?;
        let end_to_end = doc
            .get("end_to_end")
            .map(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|m| {
                let text = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .ok_or(format!("end_to_end entry without `{k}`"))
                };
                Ok(Bounded {
                    name: text("name")?.to_string(),
                    unit: text("unit")?.to_string(),
                    better: match text("better")? {
                        "lower" => Better::Lower,
                        "higher" => Better::Higher,
                        other => return Err(format!("better: `{other}`")),
                    },
                    bound: m
                        .get("bound")
                        .and_then(Json::as_f64)
                        .ok_or("end_to_end entry without `bound`")?,
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Spec {
            run_seconds,
            end_to_end,
        })
    }

    /// The `BENCHMARK.json` beside the benchmark's directory.
    pub fn load(bench_dir: &Path) -> Result<Spec, String> {
        let path = bench_dir
            .parent()
            .unwrap_or(Path::new(""))
            .join("BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text)
    }
}

pub fn spec_run_seconds(bench_dir: &Path) -> f64 {
    Spec::load(bench_dir).map_or(FULL_RUN_SECONDS, |s| s.run_seconds)
}

pub fn print_table(o: &Options, r: &Report) {
    println!(
        "# {} seed={} seconds={} {}{}",
        o.workload.name,
        o.seed,
        o.seconds,
        if o.trace {
            "traced (per-layer)"
        } else {
            "untraced (end-to-end)"
        },
        if o.smoke {
            "  [smoke: numbers not comparable]"
        } else {
            ""
        },
    );
    for (k, v) in r.header.entries() {
        println!("#   {k}: {}", v.render());
    }
    println!(
        "{:<44} {:>16} {:<6} {:>9}",
        "metric", "value", "unit", "samples"
    );
    for m in &r.metrics {
        println!(
            "{:<44} {:>16.4} {:<6} {:>9}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!(
        "correct={} attempted={} failed={}",
        r.correct, r.attempted, r.failed
    );
}

fn metrics_json(r: &Report) -> Json {
    Json::obj(r.metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::str(m.unit)),
                ("samples", Json::Num(m.samples as f64)),
            ]),
        )
    }))
}

/// One full pass: every workload untraced, then traced.
pub fn all(mut args: Args) -> Result<(), String> {
    let mut rows = Vec::new();
    let mut ok = true;
    for w in &WORKLOADS {
        let mut row = vec![("workload".to_string(), Json::str(w.name))];
        for trace in [false, true] {
            let o = options(
                &mut Args {
                    rest: args.rest.clone(),
                },
                w.name,
                trace,
            )?;
            let r = run::run(&o)?;
            print_table(&o, &r);
            ok &= r.correct && r.failed == 0;
            let key = if trace { "per_layer" } else { "end_to_end" };
            row.push((key.to_string(), metrics_json(&r)));
            row.push((
                format!("{key}_run"),
                Json::obj([
                    ("correct", Json::Bool(r.correct)),
                    ("attempted", Json::Num(r.attempted as f64)),
                    ("failed", Json::Num(r.failed as f64)),
                    ("header", r.header),
                ]),
            ));
        }
        rows.push(Json::Obj(row));
    }
    // consume the flags `options` read from the clone
    let _ = (
        args.flag("--smoke"),
        args.value("--seed")?,
        args.value("--seconds")?,
    );
    if let Some(extra) = args.rest.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let doc = Json::obj([("workloads", Json::Arr(rows)), ("claim", Json::Null)]);
    let out = bench_dir().join("out");
    std::fs::create_dir_all(&out).map_err(|e| e.to_string())?;
    let path = out.join("result.json");
    std::fs::write(&path, doc.pretty()).map_err(|e| e.to_string())?;
    println!(
        "wrote {} ({})",
        path.display(),
        if ok {
            "all checks green"
        } else {
            "CHECKS FAILED"
        }
    );
    if ok {
        Ok(())
    } else {
        Err("a workload was incorrect or had failed operations".into())
    }
}

/// Same-code passes of the untraced runs: per workload × end-to-end
/// metric the median, quartiles and the largest pairwise deviation.
pub fn noise(mut args: Args) -> Result<(), String> {
    let passes: usize = args.parsed("--passes", 5)?;
    let seed: u64 = args.parsed("--seed", 1)?;
    if passes < 2 {
        return Err("--passes must be at least 2".into());
    }
    let spec = Spec::load(&bench_dir())?;
    let mut md = String::from(
        "# Same-code noise\n\nWritten by `geosir-benchmark noise`: untraced runs of unchanged code, one seed per pass.\n\
         `iqr` is the distance between the quartiles and `dev` the largest pairwise difference, both as a\n\
         share of the median. Verdict: `steady` while `dev` stays within half the bound (the issue's rule\n\
         for an end-to-end metric), `noisy` while `iqr` stays within the bound (the contract's rule; see\n\
         README, *Bounds*, for why these are kept), `demote` beyond that. The `_raw` rows are the three\n\
         time-based values as measured, before the host's speed is taken out of them (README,\n\
         *Statistic*); they are not gated.\n\n",
    );
    md.push_str(&format!(
        "passes: {passes}, seeds {seed}..{}, {} s per run\n\n",
        seed + passes as u64 - 1,
        spec.run_seconds
    ));
    md.push_str("| workload | metric | unit | median | q1 | q3 | iqr | dev | bound | verdict |\n|---|---|---|---|---|---|---|---|---|---|\n");
    for w in &WORKLOADS {
        let mut values: Vec<(run::Metric, Vec<f64>)> = Vec::new();
        for pass in 0..passes as u64 {
            let mut a = Args {
                rest: vec!["--seed".into(), (seed + pass).to_string()],
            };
            a.rest.extend(args.rest.iter().cloned());
            let o = options(&mut a, w.name, false)?;
            let r = run::run(&o)?;
            if !r.correct || r.failed > 0 {
                return Err(format!(
                    "{} seed {}: correct={} failed={}",
                    w.name, o.seed, r.correct, r.failed
                ));
            }
            // beside the three host-normalised values, what was measured
            let mut metrics = r.metrics;
            for (name, unit) in [
                ("setup_s_raw", "s"),
                ("sat_ops_s_raw", "1/s"),
                ("cpu_ms_per_op_raw", "ms"),
            ] {
                let value = r.header.get(name).and_then(Json::as_f64).unwrap_or(0.0);
                metrics.push(run::metric(name, unit, value, 0));
            }
            for m in metrics {
                match values.iter_mut().find(|(have, _)| have.name == m.name) {
                    Some((_, v)) => v.push(m.value),
                    None => values.push((m.clone(), vec![m.value])),
                }
            }
            eprintln!("noise: {} pass {}/{passes} done", w.name, pass + 1);
        }
        for (m, v) in &values {
            let (q1, q3) = quartiles(v);
            let dev = max_pairwise_share(v);
            let bound = spec
                .end_to_end
                .iter()
                .find(|b| b.name == m.name)
                .map(|b| b.bound);
            let iqr = iqr_share(v);
            let verdict = match bound {
                Some(b) if iqr > b => "demote",
                Some(b) if dev > b / 2.0 => "noisy",
                Some(_) => "steady",
                None => "not gated",
            };
            md.push_str(&format!(
                "| {} | {} | {} | {:.4} | {:.4} | {:.4} | {:.2} % | {:.2} % | {} | {verdict} |\n",
                w.name,
                m.name,
                m.unit,
                median(v),
                q1,
                q3,
                100.0 * iqr,
                100.0 * dev,
                bound.map_or("–".into(), |b| format!("{:.0} %", 100.0 * b)),
            ));
        }
    }
    let path = bench_dir().join("NOISE.md");
    std::fs::write(&path, &md).map_err(|e| e.to_string())?;
    print!("{md}");
    println!("wrote {}", path.display());
    Ok(())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Within,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Within => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one workload × metric row: `a` are the baseline's runs, `b`
/// the candidate's. A side with no value, or a spread wider than the
/// allowance on either side, is unresolved — unless every candidate run
/// reads better than every baseline run.
pub fn judge_row(m: &Bounded, a: &[f64], b: &[f64], calib_differs: bool) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    let allowance = m.allowance(ma);
    let worse_by = match m.better {
        Better::Lower => mb - ma,
        Better::Higher => ma - mb,
    };
    let all_better = match m.better {
        Better::Lower => b.iter().all(|y| a.iter().all(|x| y < x)),
        Better::Higher => b.iter().all(|y| a.iter().all(|x| y > x)),
    };
    let spread = |v: &[f64]| {
        if v.len() >= 2 {
            iqr_share(v) * median(v).abs()
        } else {
            0.0
        }
    };
    if all_better {
        Verdict::Within
    } else if calib_differs || spread(a) > allowance || spread(b) > allowance {
        Verdict::Unresolved
    } else if worse_by > allowance {
        Verdict::Worse
    } else {
        Verdict::Within
    }
}

/// The rows of one workload in a result document: a file written by
/// `all` holds one run; files concatenated into a `passes` array hold
/// several.
fn rows_of<'a>(doc: &'a Json, workload: &'a str) -> impl Iterator<Item = &'a Json> {
    let passes: Vec<&Json> = match doc.get("passes") {
        Some(p) => p.as_arr().iter().collect(),
        None => vec![doc],
    };
    passes
        .into_iter()
        .flat_map(|p| p.get("workloads").map(Json::as_arr).unwrap_or_default())
        .filter(move |w| w.get("workload").and_then(Json::as_str) == Some(workload))
}

/// Values of one end-to-end metric of one workload, one per pass.
fn values_of(doc: &Json, workload: &str, metric: &str) -> Vec<f64> {
    rows_of(doc, workload)
        .filter_map(|w| w.get("end_to_end")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// Host calibration of the untraced runs themselves (their header), one
/// per pass: the host is judged at the moment the judged values were
/// measured, not during the traced run that followed.
fn calib_of(doc: &Json, workload: &str) -> Vec<f64> {
    rows_of(doc, workload)
        .filter_map(|w| {
            w.get("end_to_end_run")?
                .get("header")?
                .get("host_calib_mops")?
                .as_f64()
        })
        .collect()
}

/// How far the host calibrations of two result files may lie apart
/// before a time-based row is unresolved. The values compared are
/// already stated at a reference host speed, linearly, which was
/// checked over the quarter the host swings by; the issue's 5 % was
/// meant for values as measured, and two files of unchanged code differ
/// by more than that nine times in ten.
const HOST_GATE: f64 = 0.25;

/// The rows of `compare`, and whether any is `worse`.
pub fn compare(spec: &Spec, a: &Json, b: &Json) -> (Vec<String>, bool) {
    let mut lines = Vec::new();
    let mut any_worse = false;
    for w in &WORKLOADS {
        let (ca, cb) = (median(&calib_of(a, w.name)), median(&calib_of(b, w.name)));
        // a file without calibration (0.0) cannot vouch for its host
        let calib_differs = ca <= 0.0 || cb <= 0.0 || (ca - cb).abs() / ca > HOST_GATE;
        for m in &spec.end_to_end {
            let (va, vb) = (values_of(a, w.name, &m.name), values_of(b, w.name, &m.name));
            let host_differs = calib_differs && m.is_timed();
            let verdict = judge_row(m, &va, &vb, host_differs);
            any_worse |= verdict == Verdict::Worse;
            let show = |v: &[f64]| {
                if v.is_empty() {
                    "missing".to_string()
                } else {
                    format!("{:.4}", median(v))
                }
            };
            lines.push(format!(
                "{:<14} {:<16} {:>12} -> {:>12} {:<5} {}{}",
                w.name,
                m.name,
                show(&va),
                show(&vb),
                m.unit,
                verdict.as_str(),
                if host_differs {
                    "  (host_calib_mops missing or differs > 25 %)"
                } else {
                    ""
                },
            ));
        }
    }
    (lines, any_worse)
}

/// `compare A.json B.json`; `Ok(false)` (exit code 1) on any `worse`.
pub fn compare_files(args: Args) -> Result<bool, String> {
    let [a, b] = args.rest.as_slice() else {
        return Err("usage: geosir-benchmark compare A.json B.json".into());
    };
    let load = |p: &String| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(PathBuf::from(p)).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let spec = Spec::load(&bench_dir())?;
    let (lines, any_worse) = compare(&spec, &load(a)?, &load(b)?);
    for l in &lines {
        println!("{l}");
    }
    Ok(!any_worse)
}

/// The finer instrument beside the bounds: alternating pairs of a
/// parent and a change (choosing-metrics guide, section 8).
#[derive(Debug, PartialEq)]
pub struct PairTally {
    /// Pairs the change read better in, and the parent; a tie counts for
    /// neither.
    pub change_wins: usize,
    pub parent_wins: usize,
    /// A gain (or, for the parent, a loss) is shown when that side wins
    /// nine tenths of all pairs run and the medians differ by more than
    /// the distance between the quartiles of the parent's own runs.
    pub shown: Option<Side>,
}

/// Which side a paired comparison shows to be better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Change,
    Parent,
}

pub fn tally_pairs(better: Better, parent: &[f64], change: &[f64]) -> PairTally {
    let n = parent.len().min(change.len());
    let change_better = |p: f64, c: f64| match better {
        Better::Lower => c < p,
        Better::Higher => c > p,
    };
    let pairs = || parent.iter().zip(change).map(|(&p, &c)| (p, c));
    let change_wins = pairs().filter(|&(p, c)| change_better(p, c)).count();
    let parent_wins = pairs().filter(|&(p, c)| change_better(c, p)).count();
    let apart = n >= 2 && {
        let (q1, q3) = quartiles(&parent[..n]);
        (median(&change[..n]) - median(&parent[..n])).abs() > q3 - q1
    };
    let nine_tenths = |wins: usize| 10 * wins >= 9 * n;
    let shown = if apart && nine_tenths(change_wins) {
        Some(Side::Change)
    } else if apart && nine_tenths(parent_wins) {
        Some(Side::Parent)
    } else {
        None
    };
    PairTally {
        change_wins,
        parent_wins,
        shown,
    }
}

/// `pairs --parent-bin P [--change-bin C] [--workload W] [--pairs 10]`:
/// untraced runs of two `geosir` binaries in alternating order, the
/// same seed on both sides of a pair, so the host's drift over minutes
/// hits both alike. `Ok(false)` (exit code 1) when a metric is worse by
/// the bound or the parent is shown to be better.
pub fn pairs(mut args: Args) -> Result<bool, String> {
    let parent = PathBuf::from(
        args.value("--parent-bin")?
            .ok_or("pairs needs --parent-bin")?,
    );
    let change = args.value("--change-bin")?.map(PathBuf::from);
    let only = args.value("--workload")?;
    let n: usize = args.parsed("--pairs", 10)?;
    let seed: u64 = args.parsed("--seed", 1)?;
    if !parent.is_file() {
        return Err(format!("{} is not a file", parent.display()));
    }
    let spec = Spec::load(&bench_dir())?;
    let mut any_worse = false;
    for w in WORKLOADS
        .iter()
        .filter(|w| only.as_deref().is_none_or(|o| o == w.name))
    {
        // [parent, change] values per metric, one per pair
        let mut values: Vec<(String, [Vec<f64>; 2])> = Vec::new();
        for pair in 0..n {
            // the side that runs first alternates
            for side in [pair % 2, 1 - pair % 2] {
                let mut a = Args {
                    rest: vec!["--seed".into(), (seed + pair as u64).to_string()],
                };
                a.rest.extend(args.rest.iter().cloned());
                let mut o = options(&mut a, w.name, false)?;
                if side == 0 {
                    o.bin = parent.clone();
                } else if let Some(c) = &change {
                    o.bin = c.clone();
                }
                let r = run::run(&o)?;
                if !r.correct || r.failed > 0 {
                    return Err(format!(
                        "{} pair {pair} ({}): correct={} failed={}",
                        w.name,
                        o.bin.display(),
                        r.correct,
                        r.failed
                    ));
                }
                for m in r.metrics {
                    match values.iter_mut().find(|(name, _)| name == m.name) {
                        Some((_, v)) => v[side].push(m.value),
                        None => {
                            let mut v = [Vec::new(), Vec::new()];
                            v[side].push(m.value);
                            values.push((m.name.to_string(), v));
                        }
                    }
                }
            }
            eprintln!("pairs: {} pair {}/{n} done", w.name, pair + 1);
        }
        for m in &spec.end_to_end {
            let Some((_, [p, c])) = values.iter().find(|(name, _)| *name == m.name) else {
                continue;
            };
            let by_bound = judge_row(m, p, c, false);
            let tally = tally_pairs(m.better, p, c);
            any_worse |= by_bound == Verdict::Worse || tally.shown == Some(Side::Parent);
            let show = |v: &[f64]| {
                let (q1, q3) = quartiles(v);
                format!("{:.4} [{:.4}, {:.4}]", median(v), q1, q3)
            };
            println!(
                "{:<14} {:<16} parent {} -> change {} {:<5} {}; change wins {}/{n}, parent {}/{n}: {}",
                w.name,
                m.name,
                show(p),
                show(c),
                m.unit,
                by_bound.as_str(),
                tally.change_wins,
                tally.parent_wins,
                match tally.shown {
                    Some(Side::Change) => "change shown better",
                    Some(Side::Parent) => "parent shown better",
                    None => "no difference shown",
                },
            );
        }
    }
    Ok(!any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_need_nine_wins_in_ten_and_medians_apart() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + i as f64).collect();
        // every pair won, medians 20 apart against a spread of 5.5
        let faster: Vec<f64> = parent.iter().map(|p| p - 20.0).collect();
        let t = tally_pairs(Better::Lower, &parent, &faster);
        assert_eq!((t.change_wins, t.parent_wins), (10, 0));
        assert_eq!(t.shown, Some(Side::Change));
        assert_eq!(
            tally_pairs(Better::Higher, &parent, &faster).shown,
            Some(Side::Parent)
        );
        // every pair won, but by less than the parent's own spread
        let barely: Vec<f64> = parent.iter().map(|p| p - 1.0).collect();
        assert_eq!(tally_pairs(Better::Lower, &parent, &barely).shown, None);
        // eight wins and two losses of ten are not nine tenths
        let mut mixed = faster.clone();
        mixed[0] = parent[0] + 1.0;
        mixed[1] = parent[1] + 1.0;
        let t = tally_pairs(Better::Lower, &parent, &mixed);
        assert_eq!((t.change_wins, t.parent_wins, t.shown), (8, 2, None));
        // a tie counts for neither side, and leaves nine of ten
        mixed[1] = faster[1];
        mixed[0] = parent[0];
        let t = tally_pairs(Better::Lower, &parent, &mixed);
        assert_eq!((t.change_wins, t.parent_wins), (9, 0));
        assert_eq!(t.shown, Some(Side::Change));
    }

    fn bounded(unit: &str, better: Better, bound: f64) -> Bounded {
        Bounded {
            name: "m".into(),
            unit: unit.into(),
            better,
            bound,
        }
    }

    #[test]
    fn rows_within_worse_and_ties() {
        let lat = bounded("ms", Better::Lower, 0.10);
        assert_eq!(
            judge_row(&lat, &[2.0], &[2.0], false),
            Verdict::Within,
            "a tie is within bound"
        );
        assert_eq!(judge_row(&lat, &[2.0], &[2.19], false), Verdict::Within);
        assert_eq!(judge_row(&lat, &[2.0], &[2.21], false), Verdict::Worse);
        assert_eq!(
            judge_row(&lat, &[2.0], &[1.0], false),
            Verdict::Within,
            "better is never worse"
        );
        let rate = bounded("1/s", Better::Higher, 0.10);
        assert_eq!(
            judge_row(&rate, &[1000.0], &[905.0], false),
            Verdict::Within
        );
        assert_eq!(judge_row(&rate, &[1000.0], &[895.0], false), Verdict::Worse);
    }

    #[test]
    fn missing_metric_and_host_drift_are_unresolved() {
        let lat = bounded("ms", Better::Lower, 0.10);
        assert_eq!(judge_row(&lat, &[], &[2.0], false), Verdict::Unresolved);
        assert_eq!(judge_row(&lat, &[2.0], &[], false), Verdict::Unresolved);
        assert_eq!(judge_row(&lat, &[2.0], &[2.5], true), Verdict::Unresolved);
    }

    #[test]
    fn spread_wider_than_bound_is_unresolved_unless_every_run_is_better() {
        let lat = bounded("ms", Better::Lower, 0.10);
        let noisy = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(
            judge_row(&lat, &noisy, &[3.1, 3.0, 3.2], false),
            Verdict::Unresolved
        );
        assert_eq!(
            judge_row(&lat, &noisy, &[0.5, 0.6, 0.9], false),
            Verdict::Within
        );
        let steady = [3.0, 3.01, 2.99, 3.0, 3.02];
        assert_eq!(
            judge_row(&lat, &steady, &[3.5, 3.52, 3.49], false),
            Verdict::Worse
        );
    }

    #[test]
    fn a_share_is_bounded_in_absolute_points() {
        let recall = bounded("share", Better::Higher, 0.01);
        assert_eq!(
            judge_row(&recall, &[0.50], &[0.492], false),
            Verdict::Within
        );
        assert_eq!(judge_row(&recall, &[0.50], &[0.488], false), Verdict::Worse);
        // the same numbers under a relative bound would have been worse
        let relative = bounded("ratio", Better::Higher, 0.01);
        assert_eq!(
            judge_row(&relative, &[0.50], &[0.492], false),
            Verdict::Worse
        );
    }

    /// A result file of one pass: `calib` in the untraced run's header,
    /// `traced_calib` in the traced run's metrics.
    fn doc_with(workload: &str, latency: Option<f64>, calib: f64, traced_calib: f64) -> Json {
        let e2e = latency.map_or(Json::obj::<String>([]), |v| {
            Json::obj([("paced_p50_ms", Json::obj([("value", Json::Num(v))]))])
        });
        Json::obj([(
            "workloads",
            Json::Arr(vec![Json::obj([
                ("workload", Json::str(workload)),
                ("end_to_end", e2e),
                (
                    "end_to_end_run",
                    Json::obj([("header", Json::obj([("host_calib_mops", Json::Num(calib))]))]),
                ),
                (
                    "per_layer",
                    Json::obj([(
                        "host.calib_mops",
                        Json::obj([("value", Json::Num(traced_calib))]),
                    )]),
                ),
            ])]),
        )])
    }

    fn doc(workload: &str, latency: Option<f64>, calib: f64) -> Json {
        doc_with(workload, latency, calib, calib)
    }

    #[test]
    fn compare_walks_every_workload_row() {
        let spec = Spec::parse(
            r#"{"run_seconds": 20, "end_to_end": [
                {"name": "paced_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert_eq!(spec.run_seconds, 20.0);
        let a = doc("exact_sketch", Some(10.0), 400.0);
        let (lines, worse) = compare(&spec, &a, &doc("exact_sketch", Some(12.0), 401.0));
        assert!(worse);
        assert_eq!(lines.len(), WORKLOADS.len());
        assert!(lines[0].contains("worse"), "{}", lines[0]);
        assert!(
            lines[1].contains("missing") && lines[1].contains("unresolved"),
            "{}",
            lines[1]
        );
        let (lines, worse) = compare(&spec, &a, &doc("exact_sketch", Some(12.0), 280.0));
        assert!(!worse && lines[0].contains("unresolved"), "{}", lines[0]);
        let (lines, worse) = compare(&spec, &a, &doc("exact_sketch", None, 400.0));
        assert!(!worse && lines[0].contains("unresolved"), "{}", lines[0]);
        // the host is judged by the untraced run's own header: the
        // traced run's calibration, taken later, decides nothing
        let drifted = doc_with("exact_sketch", Some(12.0), 280.0, 400.0);
        let (lines, worse) = compare(&spec, &a, &drifted);
        assert!(!worse && lines[0].contains("unresolved"), "{}", lines[0]);
        let later = doc_with("exact_sketch", Some(12.0), 401.0, 280.0);
        let (lines, worse) = compare(&spec, &a, &later);
        assert!(worse && lines[0].contains("worse"), "{}", lines[0]);
        // a file that carries no calibration cannot be resolved as worse
        let bare = doc_with("exact_sketch", Some(12.0), 0.0, 400.0);
        let (lines, worse) = compare(&spec, &a, &bare);
        assert!(!worse && lines[0].contains("unresolved"), "{}", lines[0]);
        // several passes per side
        let many = Json::obj([(
            "passes",
            Json::Arr(vec![a.clone(), doc("exact_sketch", Some(10.2), 400.0)]),
        )]);
        let (lines, worse) = compare(&spec, &many, &a);
        assert!(!worse && lines[0].contains("within bound"), "{}", lines[0]);
    }

    #[test]
    fn spec_rejects_a_malformed_file() {
        assert!(Spec::parse("{}").is_err());
        assert!(Spec::parse(r#"{"run_seconds": 5, "end_to_end": [{"name": "x"}]}"#).is_err());
    }
}
