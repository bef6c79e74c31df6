//! `geosir-benchmark` — the repo's one canonical benchmark.
//!
//! ```sh
//! geosir-benchmark run --workload W --seed N --seconds S --trace 0|1 [--smoke]
//! geosir-benchmark all [--seed N] [--seconds S] [--smoke]
//! geosir-benchmark noise [--passes 5] [--seed N] [--seconds S]
//! geosir-benchmark compare A.json B.json
//! geosir-benchmark pairs --parent-bin P [--change-bin C] [--workload W] [--pairs 10]
//! ```
//!
//! `run` is what `BENCHMARK.json`'s command reaches through `run.sh`; its
//! last line of standard output is the result object the driver reads.
//! See `README.md` beside this package for every metric and workload.

mod child;
mod json;
mod live;
mod load;
mod oracle;
mod report;
mod run;
mod stats;
mod twin;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

use json::Json;
use run::{Options, Report};
use workload::WORKLOADS;

struct Args {
    rest: Vec<String>,
}

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        match self.rest.iter().position(|a| a == name) {
            Some(i) => {
                self.rest.remove(i);
                true
            }
            None => false,
        }
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.rest.iter().position(|a| a == name) else {
            return Ok(None);
        };
        if i + 1 >= self.rest.len() {
            return Err(format!("{name} needs a value"));
        }
        self.rest.remove(i);
        Ok(Some(self.rest.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.value(name)? {
            Some(v) => v.parse().map_err(|_| format!("bad value `{v}` for {name}")),
            None => Ok(default),
        }
    }
}

/// Where the benchmark's own files live: `GEOSIR_BENCH_DIR` (set by
/// `run.sh`), else `benchmark/` under the working directory.
fn bench_dir() -> PathBuf {
    std::env::var_os("GEOSIR_BENCH_DIR").map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

/// The shipped binary: `GEOSIR_BIN`, else the `geosir` built next to this
/// executable (both packages build into one target directory).
fn geosir_bin() -> Result<PathBuf, String> {
    let path = match std::env::var_os("GEOSIR_BIN") {
        Some(p) => PathBuf::from(p),
        None => std::env::current_exe()
            .map_err(|e| e.to_string())?
            .parent()
            .ok_or("executable has no directory")?
            .join("geosir"),
    };
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!("{} not found: build the repo first (`cargo build --release --offline`) or set GEOSIR_BIN", path.display()))
    }
}

fn options(args: &mut Args, name: &str, trace: bool) -> Result<Options, String> {
    let smoke = args.flag("--smoke");
    let workload = workload::workload(name).ok_or_else(|| {
        format!(
            "unknown workload `{name}` (one of {})",
            WORKLOADS.map(|w| w.name).join(", ")
        )
    })?;
    let seconds: f64 = args.parsed(
        "--seconds",
        if smoke {
            3.0
        } else {
            report::spec_run_seconds(&bench_dir())
        },
    )?;
    if !(1.0..=120.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} out of range 1..=120"));
    }
    Ok(Options {
        workload,
        seed: args.parsed("--seed", 1)?,
        seconds,
        trace,
        smoke,
        bin: geosir_bin()?,
        out_dir: bench_dir().join("out"),
    })
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(r: &Report) -> String {
    Json::obj([
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::Num(r.attempted as f64)),
        ("failed", Json::Num(r.failed as f64)),
        (
            "metrics",
            Json::obj(r.metrics.iter().map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ])
    .render()
}

fn run_one(mut args: Args) -> Result<(), String> {
    let name = args.value("--workload")?.ok_or("run needs --workload")?;
    let trace = match args.parsed::<u8>("--trace", 0)? {
        0 => false,
        1 => true,
        other => return Err(format!("--trace {other}: 0 or 1")),
    };
    let o = options(&mut args, &name, trace)?;
    if let Some(extra) = args.rest.first() {
        return Err(format!("unexpected argument `{extra}`"));
    }
    let r = run::run(&o)?;
    report::print_table(&o, &r);
    println!("{}", result_line(&r));
    Ok(())
}

fn main() -> ExitCode {
    let mut rest: Vec<String> = std::env::args().skip(1).collect();
    let cmd = if rest.is_empty() {
        String::new()
    } else {
        rest.remove(0)
    };
    let args = Args { rest };
    let outcome = match cmd.as_str() {
        "run" => run_one(args).map(|()| true),
        "all" => report::all(args).map(|()| true),
        "noise" => report::noise(args).map(|()| true),
        "compare" => report::compare_files(args),
        "pairs" => report::pairs(args),
        _ => Err(
            "usage: geosir-benchmark run|all|noise|compare|pairs … (see benchmark/README.md)"
                .into(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("geosir-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
