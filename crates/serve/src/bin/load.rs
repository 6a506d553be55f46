//! `asched-load` — load generator for `asched-serve`.
//!
//! ```text
//! asched-load (--addr HOST:PORT | --spawn WORKERS)
//!             [--requests N] [--clients N] [--seed S]
//!             [--queue N] [--deadline-ms MS] [--timeout-ms MS]
//!             [--cache-file FILE] [--cache-compare LABEL]
//!             [--snapshot LABEL] [--trace FILE]
//! ```
//!
//! The drive is a closed loop: `--clients` threads push `--requests`
//! bodies, the manifest lines of [`synth_manifest`] (the batch
//! engine's synthetic corpus), retrying 503s after the server's
//! `Retry-After`. `--spawn N` starts an in-process server with `N`
//! workers on an ephemeral port — handy for CI, which then needs no
//! background process management; `--queue`/`--deadline-ms` tune that
//! spawned server. `--trace FILE` (spawn mode only) streams the spawned
//! server's full event trace — request spans, engine spans, cache
//! attribution — to FILE as JSONL, ready for `asched-trace`.
//!
//! Exit status is nonzero when any connection dropped or any non-503
//! 5xx came back — shed requests must be answered with 503, never
//! hung, and nothing else may fail. `--snapshot LABEL` writes
//! `BENCH_<LABEL>.json` with throughput and latency percentiles.
//!
//! `--cache-file` backs the spawned server's schedule cache with a
//! warm-start file (spawn mode only). `--cache-compare LABEL` runs the
//! same closed-loop workload twice against fresh spawned servers — a
//! cold cache, then a cache warm-started from the first run's cache
//! file — and writes the hit-rate and latency deltas to
//! `BENCH_<LABEL>.json`; it fails if the warm run serves no warm hits.

use std::io::{BufWriter, Write};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use asched_engine::synth_manifest;
use asched_obs::{snapshot_json, JsonlRecorder, NullRecorder, Recorder};
use asched_serve::{run_closed_loop, LoadReport, Server, ServerConfig};

struct Args {
    addr: Option<String>,
    spawn: Option<usize>,
    requests: usize,
    clients: usize,
    seed: u64,
    queue: usize,
    deadline_ms: Option<u64>,
    timeout_ms: u64,
    cache_file: Option<String>,
    cache_compare: Option<String>,
    snapshot: Option<String>,
    trace: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: None,
        spawn: None,
        requests: 500,
        clients: 8,
        seed: 42,
        queue: 64,
        deadline_ms: None,
        timeout_ms: 10_000,
        cache_file: None,
        cache_compare: None,
        snapshot: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        macro_rules! num {
            ($name:literal) => {
                val($name)?.parse().map_err(|e| format!("{}: {e}", $name))?
            };
        }
        match flag.as_str() {
            "--addr" => args.addr = Some(val("--addr")?),
            "--spawn" => args.spawn = Some(num!("--spawn")),
            "--requests" => args.requests = num!("--requests"),
            "--clients" => args.clients = num!("--clients"),
            "--seed" => args.seed = num!("--seed"),
            "--queue" => args.queue = num!("--queue"),
            "--deadline-ms" => args.deadline_ms = Some(num!("--deadline-ms")),
            "--timeout-ms" => args.timeout_ms = num!("--timeout-ms"),
            "--cache-file" => args.cache_file = Some(val("--cache-file")?),
            "--cache-compare" => args.cache_compare = Some(val("--cache-compare")?),
            "--snapshot" => args.snapshot = Some(val("--snapshot")?),
            "--trace" => args.trace = Some(val("--trace")?),
            "--help" | "-h" => {
                println!(
                    "usage: asched-load (--addr HOST:PORT | --spawn WORKERS)\n\
                     \x20                  [--requests N] [--clients N] [--seed S]\n\
                     \x20                  [--queue N] [--deadline-ms MS] [--timeout-ms MS]\n\
                     \x20                  [--cache-file FILE] [--cache-compare LABEL]\n\
                     \x20                  [--snapshot LABEL] [--trace FILE]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.addr.is_some() == args.spawn.is_some() {
        return Err("pass exactly one of --addr or --spawn".into());
    }
    if args.trace.is_some() && args.spawn.is_none() {
        return Err("--trace records the spawned server's events; it requires --spawn".into());
    }
    if args.cache_file.is_some() && args.spawn.is_none() {
        return Err("--cache-file configures the spawned server; it requires --spawn".into());
    }
    if args.cache_compare.is_some() && (args.spawn.is_none() || args.cache_file.is_some()) {
        return Err(
            "--cache-compare runs its own spawns; it requires --spawn and excludes --cache-file"
                .into(),
        );
    }
    Ok(args)
}

fn print_report(r: &LoadReport) {
    println!(
        "sent {} ok {} retries {} (backoff {}ms) dropped {} degraded {} in {:.2}s ({:.1} rps)",
        r.sent,
        r.ok,
        r.retries,
        r.retry_backoff_ms,
        r.dropped,
        r.degraded_responses,
        r.elapsed.as_secs_f64(),
        r.ok as f64 / r.elapsed.as_secs_f64().max(1e-9),
    );
    for (code, n) in &r.status_counts {
        println!("  status {code}: {n}");
    }
    if let (Some(p50), Some(p99)) = (r.latency_us.percentile(0.5), r.latency_us.percentile(0.99)) {
        println!(
            "  latency p50 {p50}us p99 {p99}us max {}us",
            r.latency_us.max().unwrap_or(0)
        );
    }
}

/// One leg of `--cache-compare`: spawn a fresh server backed by
/// `cache_file`, push the whole workload through it, and
/// report the load report plus the engine-side hit counters.
fn compare_leg(
    args: &Args,
    bodies: &[String],
    cache_file: &std::path::Path,
) -> Result<(LoadReport, Vec<(String, f64)>), String> {
    let cfg = ServerConfig {
        workers: args.spawn.unwrap_or(2).max(1),
        queue_capacity: args.queue,
        deadline_ms: args
            .deadline_ms
            .unwrap_or(ServerConfig::default().deadline_ms),
        cache_file: Some(cache_file.into()),
        ..ServerConfig::default()
    };
    let handle = Server::start(cfg, Arc::new(NullRecorder)).map_err(|e| format!("spawn: {e}"))?;
    let timeout = Duration::from_millis(args.timeout_ms.max(1));
    let report = run_closed_loop(
        handle.addr(),
        bodies,
        args.clients,
        args.deadline_ms,
        timeout,
    );
    let metrics = handle.metrics();
    let profile = metrics.profile();
    let (hits, misses) = (
        profile.counter("cache_hits"),
        profile.counter("cache_misses"),
    );
    let mut rows = vec![(
        "hit_rate".to_string(),
        hits as f64 / ((hits + misses) as f64).max(1.0),
    )];
    for (name, p) in [("latency_p50_us", 0.5), ("latency_p99_us", 0.99)] {
        if let Some(v) = report.latency_us.percentile(p) {
            rows.push((name.to_string(), v as f64));
        }
    }
    if let Some(s) = metrics.shared_cache_stats() {
        rows.push(("warm_hits".to_string(), s.warm_hits as f64));
        rows.push(("loaded".to_string(), s.loaded as f64));
        rows.push(("persisted".to_string(), s.persisted as f64));
    }
    handle.shutdown();
    Ok((report, rows))
}

/// `--cache-compare LABEL`: measure a cold vs a warm-started shared
/// cache on the same workload, write `BENCH_<LABEL>.json`.
fn cache_compare(args: &Args, label: &str) -> ExitCode {
    let bodies = synth_manifest(args.requests, args.seed);
    let cache_path =
        std::env::temp_dir().join(format!("asched-cache-compare-{}.bin", std::process::id()));
    let _ = std::fs::remove_file(&cache_path);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut warm_hits = 0.0;
    let mut failed = false;
    for leg in ["shared", "warm"] {
        match compare_leg(args, &bodies, &cache_path) {
            Ok((report, rows)) => {
                println!("--- {leg} ---");
                print_report(&report);
                failed |= report.dropped > 0 || report.hard_5xx() > 0;
                for (name, v) in rows {
                    if leg == "warm" && name == "warm_hits" {
                        warm_hits = v;
                    }
                    metrics.push((format!("serve.{leg}.{name}"), v));
                }
            }
            Err(e) => {
                eprintln!("asched-load: {leg} leg failed: {e}");
                let _ = std::fs::remove_file(&cache_path);
                return ExitCode::from(1);
            }
        }
    }
    let _ = std::fs::remove_file(&cache_path);
    let json = snapshot_json(label, &metrics, None);
    let path = format!("BENCH_{label}.json");
    if let Err(e) = std::fs::write(&path, json + "\n") {
        eprintln!("asched-load: cannot write {path}: {e}");
        return ExitCode::from(1);
    }
    println!("wrote {path}");
    if warm_hits == 0.0 {
        eprintln!("asched-load: FAILED — warm-started leg served no warm hits");
        return ExitCode::from(1);
    }
    if failed {
        eprintln!("asched-load: FAILED — dropped connections or non-503 5xx in a leg");
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("asched-load: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(label) = &args.cache_compare {
        return cache_compare(&args, label);
    }

    // Either connect out, or spawn an in-process server to hammer.
    // With --trace the spawned server streams its event trace to a
    // JSONL file; keep a typed Arc so the BufWriter can be flushed
    // once the server (the only other holder) has shut down.
    let mut tracer: Option<Arc<JsonlRecorder<BufWriter<std::fs::File>>>> = None;
    let spawned = match args.spawn {
        None => None,
        Some(workers) => {
            let cfg = ServerConfig {
                workers: workers.max(1),
                queue_capacity: args.queue,
                deadline_ms: args
                    .deadline_ms
                    .unwrap_or(ServerConfig::default().deadline_ms),
                cache_file: args.cache_file.as_ref().map(Into::into),
                ..ServerConfig::default()
            };
            let rec: Arc<dyn Recorder + Send + Sync> = match &args.trace {
                None => Arc::new(NullRecorder),
                Some(path) => match std::fs::File::create(path) {
                    Ok(f) => {
                        let r = Arc::new(JsonlRecorder::new(BufWriter::new(f)));
                        tracer = Some(Arc::clone(&r));
                        r
                    }
                    Err(e) => {
                        eprintln!("asched-load: cannot create trace file {path}: {e}");
                        return ExitCode::from(1);
                    }
                },
            };
            match Server::start(cfg, rec) {
                Ok(h) => {
                    println!("spawned server on {}", h.addr());
                    Some(h)
                }
                Err(e) => {
                    eprintln!("asched-load: spawn failed: {e}");
                    return ExitCode::from(1);
                }
            }
        }
    };
    let addr: SocketAddr = match &spawned {
        Some(h) => h.addr(),
        None => match args.addr.as_deref().unwrap().parse() {
            Ok(a) => a,
            Err(e) => {
                eprintln!("asched-load: bad --addr: {e}");
                return ExitCode::from(2);
            }
        },
    };

    let bodies = synth_manifest(args.requests, args.seed);
    let timeout = Duration::from_millis(args.timeout_ms.max(1));
    let report = run_closed_loop(addr, &bodies, args.clients, args.deadline_ms, timeout);
    print_report(&report);

    if let Some(label) = &args.snapshot {
        let profile = spawned.as_ref().map(|h| h.metrics().profile());
        let json = snapshot_json(label, &report.metrics(), profile.as_ref());
        let path = format!("BENCH_{label}.json");
        if let Err(e) = std::fs::write(&path, json + "\n") {
            eprintln!("asched-load: cannot write {path}: {e}");
            return ExitCode::from(1);
        }
        println!("wrote {path}");
    }

    if let Some(h) = spawned {
        h.shutdown();
    }
    if let Some(rec) = tracer {
        // The server's Arc is gone after shutdown; unwrap and flush.
        match Arc::try_unwrap(rec) {
            Ok(rec) => {
                let mut w = rec.into_inner();
                if let Err(e) = w.flush() {
                    eprintln!("asched-load: flushing trace failed: {e}");
                    return ExitCode::from(1);
                }
            }
            Err(_) => {
                eprintln!("asched-load: trace recorder still shared after shutdown");
                return ExitCode::from(1);
            }
        }
        println!("wrote {}", args.trace.as_deref().unwrap_or_default());
    }

    if report.dropped > 0 || report.hard_5xx() > 0 {
        eprintln!(
            "asched-load: FAILED — {} dropped connections, {} non-503 5xx",
            report.dropped,
            report.hard_5xx()
        );
        return ExitCode::from(1);
    }
    ExitCode::SUCCESS
}
