//! `asched-perfbench` — the repository's end-to-end benchmark.
//!
//! ```text
//! asched-perfbench --workload <batch-paper|trace-large|serve-hot>
//!                  [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Builds the workload's inputs from `--seed`, sets up three times
//! (reporting the median), runs one busy thread for `--seconds` with
//! tracing off, checks every schedule, and prints one line per metric
//! followed by a JSON result line. `--trace 1` adds the traced passes
//! and direct layer probes and reports the per-layer metrics instead.
//! See `README.md` beside this crate for the workloads and metrics.

mod check;
mod client;
mod engine_wl;
mod gen;
mod layers;
mod pin;
mod serve_wl;
mod stats;

use std::process::ExitCode;

const USAGE: &str = "usage: asched-perfbench --workload <batch-paper|trace-large|serve-hot> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(u64, f64, bool) -> stats::Report = match args.workload.as_str() {
        "batch-paper" => |seed, secs, traced| engine_wl::run(gen::batch_paper, seed, secs, traced),
        "trace-large" => |seed, secs, traced| engine_wl::run(gen::trace_large, seed, secs, traced),
        "serve-hot" => serve_wl::run,
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match pin::pin_to_one_cpu() {
        Some(cpu) => println!("{:<12} pinned to cpu {cpu}", args.workload),
        None => println!("{:<12} not pinned: CPU affinity unavailable", args.workload),
    }
    let report = run(args.seed, args.seconds, args.trace);
    report.print(&args.workload);
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
