//! `perfbench`: the AdaWave benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fit_2d_noisy --seed 42 --seconds 10 --trace 0
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --smoke
//! ```
//!
//! One run sets up its workload from the seed (several times, reporting
//! the median set-up time), checks the program's outputs against its
//! correctness gates, then measures for `--seconds`. With `--trace 0` it
//! reports the end-to-end metrics; with `--trace 1` it runs the traced
//! variant and reports the per-layer metrics, writing every span to
//! `perfbench/out/trace-<workload>.jsonl`. The last line of standard
//! output is the result object; the lines before it are a readable table.
//! A failed gate makes the exit code 1, a usage error 2.
//!
//! `--smoke` runs every workload, untraced and traced, on tiny inputs and
//! exits non-zero if any gate fails.

mod data;
mod fit;
mod report;
mod serve;
mod stats;
mod stream;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use adawave_runtime::Runtime;

use data::Size;
use report::Metrics;
use stats::{median, Tally};
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: &[&str] = &[
    "fit_2d_noisy",
    "fit_6d_noisy",
    "stream_checkpoint",
    "serve_mixed",
];

/// Fewest set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Set-ups continue until they took this long in all, so that a set-up of
/// a millisecond is still the median of many.
const SETUP_MIN_TOTAL_S: f64 = 0.25;

/// Options shared by every workload.
pub struct Opts {
    /// Seed of the generated inputs.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Full or smoke-sized inputs.
    pub size: Size,
    /// Scratch directory for files the workload writes.
    pub out_dir: PathBuf,
    /// The workload's name, for file names.
    pub workload: &'static str,
}

impl Opts {
    /// Write the tracer's spans to `trace-<workload>.jsonl` in the scratch
    /// directory (a failure to write is reported, not fatal).
    pub fn write_trace(&self, tracer: &Tracer) {
        let path = self.out_dir.join(format!("trace-{}.jsonl", self.workload));
        if let Err(e) = tracer.write_jsonl(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
}

/// Build the workload's inputs at least [`SETUP_REPEATS`] times and for at
/// least [`SETUP_MIN_TOTAL_S`]; return the last build and the median build
/// time in seconds.
pub fn setup_repeated<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut built = None;
    while times.len() < SETUP_REPEATS || times.iter().sum::<f64>() < SETUP_MIN_TOTAL_S {
        drop(built.take());
        let start = Instant::now();
        built = Some(build());
        times.push(start.elapsed().as_secs_f64());
    }
    (built.expect("SETUP_REPEATS > 0"), median(&times))
}

fn run_workload(workload: &'static str, opts: &Opts) -> (Metrics, Tally) {
    let mut metrics = Metrics::default();
    let mut tally = Tally::default();
    match workload {
        "fit_2d_noisy" => fit::run(fit::Scene::Noisy2d, opts, &mut metrics, &mut tally),
        "fit_6d_noisy" => fit::run(fit::Scene::Noisy6d, opts, &mut metrics, &mut tally),
        "stream_checkpoint" => stream::run(opts, &mut metrics, &mut tally),
        "serve_mixed" => serve::run(opts, &mut metrics, &mut tally),
        _ => unreachable!("workload names are checked when parsing"),
    }
    metrics.set("peak_rss_mb", report::peak_rss_mb());
    metrics.set("success_rate", tally.success_rate());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    metrics.set("runtime.nproc", nproc as f64);
    metrics.set("runtime.threads", Runtime::auto().threads() as f64);
    (metrics, tally)
}

struct Args {
    workload: Option<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: 10.0,
        traced: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                let name = WORKLOADS.iter().find(|w| **w == value).ok_or_else(|| {
                    format!(
                        "unknown workload '{value}' (known: {})",
                        WORKLOADS.join(", ")
                    )
                })?;
                args.workload = Some(name);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad("an integer"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("a non-negative number"))?
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown option '{flag}'")),
        }
    }
    if args.workload.is_none() && !args.smoke {
        return Err("--workload is required (or --smoke)".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --smoke",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from("perfbench/out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let runs: Vec<(&'static str, bool)> = match args.workload {
        Some(workload) if !args.smoke => vec![(workload, args.traced)],
        _ => WORKLOADS
            .iter()
            .flat_map(|w| [(*w, false), (*w, true)])
            .collect(),
    };
    let mut all_correct = true;
    for (workload, traced) in runs {
        let opts = Opts {
            seed: args.seed,
            seconds: if args.smoke { 0.0 } else { args.seconds },
            traced,
            size: if args.smoke { Size::Smoke } else { Size::Full },
            out_dir: out_dir.clone(),
            workload,
        };
        let (metrics, tally) = run_workload(workload, &opts);
        metrics.print(workload, traced, &tally);
        all_correct &= tally.correct();
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
