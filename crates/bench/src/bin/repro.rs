//! `repro` — regenerate the paper's figures and the evaluation tables.
//!
//! ```text
//! repro                      # run everything
//! repro f3 e5                # run selected experiments
//! repro --list               # list experiment ids
//! repro --trace FILE         # also write a JSONL event trace
//! repro --profile            # also print the aggregated RunProfile
//! repro --snapshot LABEL     # also write BENCH_<LABEL>.json metrics
//! repro --jobs N             # schedule trace corpora on N threads
//! repro --cache              # reuse schedules across identical tasks
//! ```
//!
//! `--jobs` defaults to 1 and the engine's batch results are a pure
//! function of the corpus, so the report is byte-identical at any job
//! count (`repro_output.txt` is the reference).
//!
//! Diagnostics (unknown ids, I/O failures) are routed through the
//! `asched-obs` event stream: they reach stderr via
//! [`StderrDiagnostics`] and, when tracing, the JSONL file too.

use asched_bench::experiments::{self, RunCtx};
use asched_bench::report;
use asched_engine::{Engine, EngineConfig};
use asched_obs::{
    snapshot_json, Event, JsonlRecorder, ProfileRecorder, Recorder, Severity, StderrDiagnostics,
    TeeRecorder, NULL,
};
use std::io::{self, Write};
use std::process::ExitCode;

fn usage() -> ! {
    eprintln!(
        "usage: repro [--list] [--trace FILE] [--profile] [--snapshot LABEL] \
         [--jobs N] [--cache] [ids... | all]"
    );
    std::process::exit(2);
}

struct Options {
    list: bool,
    trace: Option<String>,
    profile: bool,
    snapshot: Option<String>,
    jobs: usize,
    cache: bool,
    ids: Vec<String>,
}

fn parse_args() -> Options {
    let mut o = Options {
        list: false,
        trace: None,
        profile: false,
        snapshot: None,
        jobs: 1,
        cache: false,
        ids: Vec::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--list" | "-l" => o.list = true,
            "--trace" => o.trace = Some(args.next().unwrap_or_else(|| usage())),
            "--profile" => o.profile = true,
            "--snapshot" => o.snapshot = Some(args.next().unwrap_or_else(|| usage())),
            "--jobs" | "-j" => {
                o.jobs = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--cache" => o.cache = true,
            "--help" | "-h" => usage(),
            _ if a.starts_with("--") => usage(),
            _ => o.ids.push(a),
        }
    }
    o
}

fn main() -> ExitCode {
    let o = parse_args();
    let stdout = io::stdout();
    let mut out = stdout.lock();

    if o.list {
        for e in experiments::all() {
            let _ = writeln!(out, "{:>4}  {}", e.id, e.title);
        }
        return ExitCode::SUCCESS;
    }

    // Experiment-facing recorder: trace file and/or profile aggregator.
    // With neither flag both sides are null and instrumented code never
    // constructs an event (the default, bit-identical-output path).
    let diag_stderr = StderrDiagnostics;
    let tracer = match o.trace.as_deref() {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some(JsonlRecorder::new(io::BufWriter::new(f))),
            Err(e) => {
                diag_stderr.record(&Event::Diagnostic {
                    severity: Severity::Error,
                    code: "trace_create_failed",
                    message: &format!("cannot create trace file {path}: {e}"),
                });
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let profiler = (o.profile || o.snapshot.is_some()).then(ProfileRecorder::new);
    let trace_rec: &dyn Recorder = tracer.as_ref().map_or(&NULL as &dyn Recorder, |r| r);
    let profile_rec: &dyn Recorder = profiler.as_ref().map_or(&NULL as &dyn Recorder, |r| r);
    let tee = TeeRecorder::new(trace_rec, profile_rec);
    let rec: &dyn Recorder = &tee;
    // CLI diagnostics reach stderr and, when enabled, the trace/profile.
    let diag = TeeRecorder::new(&diag_stderr, rec);

    writeln!(
        out,
        "Anticipatory Instruction Scheduling (Sarkar & Simons, SPAA 1996) — reproduction"
    )
    .ok();

    let engine = Engine::new(EngineConfig {
        jobs: o.jobs,
        cache: o.cache,
        ..EngineConfig::default()
    });
    let mut ctx = RunCtx::with_engine(&mut out, rec, engine);
    let mut ok = true;
    if o.ids.is_empty() || o.ids.iter().any(|a| a == "all") {
        if let Err(e) = experiments::run_all(&mut ctx) {
            diag.record(&Event::Diagnostic {
                severity: Severity::Error,
                code: "io_error",
                message: &format!("io error: {e}"),
            });
            ok = false;
        }
    } else {
        for id in &o.ids {
            match experiments::run_by_id(id, &mut ctx) {
                Ok(true) => {}
                Ok(false) => {
                    diag.record(&Event::Diagnostic {
                        severity: Severity::Error,
                        code: "unknown_experiment",
                        message: &format!("unknown experiment `{id}` (try --list)"),
                    });
                    ok = false;
                }
                Err(e) => {
                    diag.record(&Event::Diagnostic {
                        severity: Severity::Error,
                        code: "io_error",
                        message: &format!("io error: {e}"),
                    });
                    ok = false;
                }
            }
        }
    }
    let metrics = ctx.metrics().to_vec();
    drop(ctx);

    if o.profile {
        if let Some(p) = profiler.as_ref() {
            let _ = write!(out, "{}", report::profile_section(&p.snapshot()));
        }
    }
    if let Some(label) = o.snapshot.as_deref() {
        let profile = profiler.as_ref().map(|p| p.snapshot());
        let doc = snapshot_json(label, &metrics, profile.as_ref());
        let path = format!("BENCH_{label}.json");
        match std::fs::write(&path, doc + "\n") {
            Ok(()) => diag.record(&Event::Diagnostic {
                severity: Severity::Info,
                code: "snapshot_written",
                message: &format!("wrote {path} ({} metrics)", metrics.len()),
            }),
            Err(e) => {
                diag.record(&Event::Diagnostic {
                    severity: Severity::Error,
                    code: "snapshot_write_failed",
                    message: &format!("cannot write {path}: {e}"),
                });
                ok = false;
            }
        }
    }
    if let Some(t) = tracer {
        let mut w = t.into_inner();
        if let Err(e) = w.flush() {
            diag_stderr.record(&Event::Diagnostic {
                severity: Severity::Error,
                code: "trace_write_failed",
                message: &format!("error writing trace file: {e}"),
            });
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
