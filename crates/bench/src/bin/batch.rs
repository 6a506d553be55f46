//! `asched-batch` — drive the batch scheduling engine over a corpus.
//!
//! ```text
//! asched-batch --synth 500                    # seeded synthetic corpus
//! asched-batch --corpus traces.corpus        # corpus manifest file
//! asched-batch --synth 500 --jobs 8 --cache 256
//! asched-batch --synth 500 --jobs 8 --compare-jobs 1 --snapshot engine
//! asched-batch --synth 500 --cache-file warm.bin   # persist + warm-start
//! ```
//!
//! The engine's results are a pure function of the corpus, so
//! `--compare-jobs M` doubles as a determinism check: the run is
//! repeated on M workers and the per-task outcomes, makespans,
//! fingerprints and deterministic counters must match exactly — any
//! divergence is a hard error. The wall-clock of both runs (and their
//! ratio) lands in the `BENCH_<label>.json` snapshot under `wall.*`.
//!
//! Per-task results go to `--results FILE` as JSONL; the full event
//! stream (including the scheduler's inner passes) to `--trace FILE`.
//!
//! `--cache-file FILE` backs the run with a shared schedule cache
//! persisted to FILE: entries from a previous run are loaded (warm
//! hits) and newly computed schedules are appended, so repeated
//! invocations over overlapping corpora start hot. Implies caching
//! even without `--cache`. `--cache 0` turns caching off, as
//! `asched-serve --cache 0` does, so it cannot be combined with
//! `--cache-file`. The `--compare-jobs` run warm-starts from a
//! snapshot of FILE taken *before* the main run, so both runs see the
//! same warm set and the determinism check still demands identical
//! counters.

use asched_engine::{
    parse_manifest, synth_corpus, BatchReport, Engine, EngineConfig, SharedScheduleCache, TraceTask,
};
use asched_obs::json::JsonObject;
use asched_obs::{
    snapshot_json, Event, JsonlRecorder, ProfileRecorder, Recorder, Severity, SpanAlloc, SpanScope,
    StderrDiagnostics, TeeRecorder, NULL,
};
use std::io::{self, Write};
use std::process::ExitCode;
use std::sync::Arc;

fn usage() -> ! {
    eprintln!(
        "usage: asched-batch [--corpus FILE | --synth N] [--seed S] [--jobs N]\n\
         \x20                   [--cache CAP] [--cache-file FILE] [--budget N]\n\
         \x20                   [--results FILE] [--trace FILE] [--snapshot LABEL]\n\
         \x20                   [--compare-jobs M]"
    );
    std::process::exit(2);
}

struct Options {
    corpus: Option<String>,
    synth: Option<usize>,
    seed: u64,
    jobs: usize,
    cache: Option<usize>,
    cache_file: Option<String>,
    budget: Option<u64>,
    results: Option<String>,
    trace: Option<String>,
    snapshot: Option<String>,
    compare_jobs: Option<usize>,
}

impl Options {
    /// Whether the run caches: `--cache N` with N > 0, or a
    /// `--cache-file` (the point of the file is reuse).
    fn caching(&self) -> bool {
        self.cache.map_or(self.cache_file.is_some(), |cap| cap > 0)
    }
}

fn parse_args() -> Options {
    let mut o = Options {
        corpus: None,
        synth: None,
        seed: 1,
        jobs: 1,
        cache: None,
        cache_file: None,
        budget: None,
        results: None,
        trace: None,
        snapshot: None,
        compare_jobs: None,
    };
    fn value<T: std::str::FromStr>(args: &mut impl Iterator<Item = String>) -> T {
        args.next()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| usage())
    }
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--corpus" => o.corpus = Some(value(&mut args)),
            "--synth" => o.synth = Some(value(&mut args)),
            "--seed" => o.seed = value(&mut args),
            "--jobs" | "-j" => o.jobs = value(&mut args),
            "--cache" => o.cache = Some(value(&mut args)),
            "--cache-file" => o.cache_file = Some(value(&mut args)),
            "--budget" => o.budget = Some(value(&mut args)),
            "--results" => o.results = Some(value(&mut args)),
            "--trace" => o.trace = Some(value(&mut args)),
            "--snapshot" => o.snapshot = Some(value(&mut args)),
            "--compare-jobs" => o.compare_jobs = Some(value(&mut args)),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if o.corpus.is_some() == o.synth.is_some() {
        usage(); // exactly one corpus source
    }
    if o.cache == Some(0) && o.cache_file.is_some() {
        usage(); // a cache file needs a cache
    }
    o
}

fn engine_config(o: &Options, jobs: usize) -> EngineConfig {
    EngineConfig {
        jobs,
        cache: o.caching(),
        cache_capacity: o.cache.unwrap_or(1024),
        step_budget: o.budget,
        // Buffering every scheduler event only pays off when a trace
        // file or a snapshot's profile wants them; engine-level events
        // flow regardless.
        capture: o.trace.is_some() || o.snapshot.is_some(),
    }
}

/// Build an engine for the run, warm-starting a shared cache from
/// `--cache-file` when given (and returning that cache for its stats).
fn build_engine(
    o: &Options,
    jobs: usize,
    cache_file: Option<&str>,
) -> io::Result<(Engine, Option<Arc<SharedScheduleCache>>)> {
    let cfg = engine_config(o, jobs);
    let Some(path) = cache_file else {
        return Ok((Engine::new(cfg), None));
    };
    let cache = Arc::new(SharedScheduleCache::new(cfg.cache_capacity));
    cache.warm_start(path.as_ref())?;
    Ok((
        Engine::with_shared_cache(cfg, Arc::clone(&cache)),
        Some(cache),
    ))
}

fn results_jsonl(report: &BatchReport) -> String {
    let mut out = String::new();
    for t in &report.tasks {
        let mut obj = JsonObject::new();
        obj.u64("task", t.index as u64).str("label", &t.label);
        match t.fingerprint {
            Some(fp) => obj.str("fingerprint", &fp.to_string()),
            None => obj.raw("fingerprint", "null"),
        };
        obj.str("outcome", t.outcome.name())
            .u64("makespan", t.makespan);
        if let Some(err) = &t.error {
            obj.str("error", err);
        }
        out.push_str(&obj.finish());
        out.push('\n');
    }
    out
}

/// The determinism contract `--compare-jobs` enforces: identical
/// deterministic counters and identical per-task outcome, makespan and
/// fingerprint, in input order.
fn divergence(a: &BatchReport, b: &BatchReport) -> Option<String> {
    if a.metrics() != b.metrics() {
        return Some("deterministic batch metrics differ".to_string());
    }
    for (x, y) in a.tasks.iter().zip(&b.tasks) {
        if x.outcome != y.outcome || x.makespan != y.makespan || x.fingerprint != y.fingerprint {
            return Some(format!("task {} ({}) differs", x.index, x.label));
        }
    }
    None
}

fn main() -> ExitCode {
    let o = parse_args();
    let diag = StderrDiagnostics;
    let fail = |code: &str, message: &str| {
        diag.record(&Event::Diagnostic {
            severity: Severity::Error,
            code,
            message,
        });
        ExitCode::FAILURE
    };

    let tasks: Vec<TraceTask> = if let Some(path) = &o.corpus {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => return fail("corpus_read_failed", &format!("cannot read {path}: {e}")),
        };
        match parse_manifest(&text) {
            Ok(t) => t,
            Err(e) => return fail("corpus_parse_failed", &format!("{path}: {e}")),
        }
    } else {
        synth_corpus(o.synth.unwrap_or(0), o.seed)
    };
    if tasks.is_empty() {
        return fail("empty_corpus", "the corpus has no tasks");
    }

    // Recorder stack for the main run: optional JSONL trace, optional
    // profile aggregation (for the snapshot), diagnostics to stderr.
    let tracer = match o.trace.as_deref() {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some(JsonlRecorder::new(io::BufWriter::new(f))),
            Err(e) => {
                return fail(
                    "trace_create_failed",
                    &format!("cannot create trace file {path}: {e}"),
                )
            }
        },
        None => None,
    };
    let profiler = o.snapshot.is_some().then(ProfileRecorder::new);
    let trace_rec: &dyn Recorder = tracer.as_ref().map_or(&NULL as &dyn Recorder, |r| r);
    let profile_rec: &dyn Recorder = profiler.as_ref().map_or(&NULL as &dyn Recorder, |r| r);
    let sinks = TeeRecorder::new(trace_rec, profile_rec);
    let rec = TeeRecorder::new(&diag, &sinks);

    // With --cache-file and --compare-jobs, the comparison run must
    // warm-start from the file as it was *before* the main run appends
    // to it — snapshot the bytes now.
    let pre_run_cache: Option<Vec<u8>> = match (&o.cache_file, o.compare_jobs) {
        (Some(path), Some(_)) => Some(std::fs::read(path).unwrap_or_default()),
        _ => None,
    };
    let (engine, file_cache) = match build_engine(&o, o.jobs, o.cache_file.as_deref()) {
        Ok(e) => e,
        Err(e) => {
            let path = o.cache_file.as_deref().unwrap_or_default();
            return fail("cache_file_failed", &format!("cannot open {path}: {e}"));
        }
    };
    // Span ids are allocated only in the engine's sequential phases, so
    // the traced stream stays byte-identical across `--jobs` counts.
    let spans = SpanAlloc::new();
    let report = engine.run_batch_traced(None, &tasks, &rec, Some(SpanScope::root(&spans)));

    let stdout = io::stdout();
    let mut out = stdout.lock();
    let _ = writeln!(
        out,
        "asched-batch: {} tasks on {} worker(s)",
        report.tasks.len(),
        report.jobs
    );
    let _ = writeln!(
        out,
        "  outcomes : {} scheduled, {} cached, {} degraded, {} failed",
        report.scheduled, report.cached, report.degraded, report.failed
    );
    if o.caching() {
        let _ = writeln!(
            out,
            "  cache    : {} hits, {} misses, {} evictions (hit rate {:.1}%)",
            report.cache_hits,
            report.cache_misses,
            report.cache_evictions,
            report.hit_rate() * 100.0
        );
    }
    if let (Some(path), Some(cache)) = (&o.cache_file, &file_cache) {
        let stats = cache.stats();
        let _ = writeln!(
            out,
            "  warm     : loaded {} from {path}, {} warm hits, {} appended",
            stats.loaded, stats.warm_hits, stats.persisted
        );
    }
    let elapsed_ms = report.elapsed_nanos as f64 / 1e6;
    let _ = writeln!(
        out,
        "  wall     : {elapsed_ms:.1} ms ({:.0} tasks/s)",
        report.throughput()
    );

    let mut ok = report.failed == 0;
    if !ok {
        diag.record(&Event::Diagnostic {
            severity: Severity::Error,
            code: "batch_tasks_failed",
            message: &format!("{} task(s) produced no schedule", report.failed),
        });
    }

    let mut metrics = report.metrics();
    metrics.push(("wall.elapsed_ms".to_string(), elapsed_ms));
    metrics.push(("wall.jobs".to_string(), report.jobs as f64));

    // The comparison run: same corpus, same config, M workers, fresh
    // engine (and fresh cache, warm-started from the pre-run snapshot
    // when --cache-file is in play) so both runs do the same work.
    if let Some(m) = o.compare_jobs {
        let cmp_file = pre_run_cache.as_ref().map(|bytes| {
            let path = std::env::temp_dir()
                .join(format!("asched-batch-compare-{}.bin", std::process::id()));
            let _ = std::fs::write(&path, bytes);
            path
        });
        let cmp_engine = match build_engine(&o, m, cmp_file.as_ref().and_then(|p| p.to_str())) {
            Ok((e, _)) => e,
            Err(e) => {
                if let Some(p) = &cmp_file {
                    let _ = std::fs::remove_file(p);
                }
                return fail("cache_file_failed", &format!("compare warm-start: {e}"));
            }
        };
        let cmp = cmp_engine.run_batch(&tasks, &NULL);
        if let Some(p) = &cmp_file {
            let _ = std::fs::remove_file(p);
        }
        let cmp_ms = cmp.elapsed_nanos as f64 / 1e6;
        let speedup = if report.elapsed_nanos > 0 {
            cmp.elapsed_nanos as f64 / report.elapsed_nanos as f64
        } else {
            0.0
        };
        match divergence(&report, &cmp) {
            None => {
                let _ = writeln!(
                    out,
                    "  compare  : jobs={m} identical results in {cmp_ms:.1} ms \
                     (speedup {speedup:.2}x at jobs={})",
                    report.jobs
                );
            }
            Some(why) => {
                ok = false;
                diag.record(&Event::Diagnostic {
                    severity: Severity::Error,
                    code: "determinism_violation",
                    message: &format!("jobs={} vs jobs={m}: {why}", report.jobs),
                });
            }
        }
        metrics.push(("wall.compare_jobs".to_string(), m as f64));
        metrics.push(("wall.compare_elapsed_ms".to_string(), cmp_ms));
        metrics.push(("wall.speedup".to_string(), speedup));
    }

    if let Some(path) = &o.results {
        if let Err(e) = std::fs::write(path, results_jsonl(&report)) {
            return fail("results_write_failed", &format!("cannot write {path}: {e}"));
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
                return fail(
                    "snapshot_write_failed",
                    &format!("cannot write {path}: {e}"),
                )
            }
        }
    }
    if let Some(t) = tracer {
        let mut w = t.into_inner();
        if let Err(e) = w.flush() {
            return fail(
                "trace_write_failed",
                &format!("error writing trace file: {e}"),
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
