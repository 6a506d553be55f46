//! `asched-trace` — analyze a JSONL event trace.
//!
//! ```text
//! asched-trace FILE [--check] [--min-coverage PCT]
//!              [--trees N] [--folded FILE] [--calibrate FILE]
//! ```
//!
//! Default output is a summary: line/span totals, per-name span
//! latencies, the pass breakdown, and cache attribution. `--trees N`
//! additionally renders the first N span trees. `--folded FILE` writes
//! folded stacks for flamegraph tooling and `--calibrate FILE` writes
//! the `asched-service-model-v1` service-time model.
//!
//! `--check` turns the analysis into a gate (exit 1 on violation):
//! the document must validate against the event schema, the span
//! forest must have zero orphans and zero unclosed spans, every
//! `req_done` must carry a root span, and every closed `request` root
//! must have child spans covering at least `--min-coverage` percent
//! (default 95) of its latency.

use std::process::ExitCode;

use asched_obs::schema::validate_document;
use asched_trace::{
    cache_attribution, calibrate_json, critical_path_passes, folded_stacks, pass_breakdown,
    render_tree, Trace,
};

struct Args {
    file: String,
    check: bool,
    min_coverage: f64,
    trees: usize,
    folded: Option<String>,
    calibrate: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        file: String::new(),
        check: false,
        min_coverage: 95.0,
        trees: 0,
        folded: None,
        calibrate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        match flag.as_str() {
            "--check" => args.check = true,
            "--min-coverage" => {
                args.min_coverage = val("--min-coverage")?
                    .parse()
                    .map_err(|e| format!("--min-coverage: {e}"))?
            }
            "--trees" => {
                args.trees = val("--trees")?
                    .parse()
                    .map_err(|e| format!("--trees: {e}"))?
            }
            "--folded" => args.folded = Some(val("--folded")?),
            "--calibrate" => args.calibrate = Some(val("--calibrate")?),
            "--help" | "-h" => {
                println!(
                    "usage: asched-trace FILE [--check] [--min-coverage PCT]\n\
                     \x20                   [--trees N] [--folded FILE] [--calibrate FILE]"
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other:?}")),
            path if args.file.is_empty() => args.file = path.to_string(),
            extra => return Err(format!("unexpected argument {extra:?}")),
        }
    }
    if args.file.is_empty() {
        return Err("pass a trace file (see --help)".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("asched-trace: {e}");
            return ExitCode::from(2);
        }
    };
    let text = match std::fs::read_to_string(&args.file) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("asched-trace: cannot read {}: {e}", args.file);
            return ExitCode::from(2);
        }
    };

    let trace = Trace::parse(&text);
    let mut violations: Vec<String> = Vec::new();

    // Structural summary.
    println!(
        "{}: {} lines, {} spans, {} roots",
        args.file,
        trace.lines,
        trace.spans.len(),
        trace.roots.len()
    );
    if let Some((line, err)) = trace.bad_lines.first() {
        violations.push(format!(
            "{} unparsable line(s); first at line {line}: {err}",
            trace.bad_lines.len()
        ));
    }
    if !trace.orphans.is_empty() {
        violations.push(format!(
            "{} orphan span reference(s); first: {:?}",
            trace.orphans.len(),
            trace.orphans[0]
        ));
    }
    if !trace.unclosed.is_empty() {
        violations.push(format!(
            "{} unclosed span(s); first: #{}",
            trace.unclosed.len(),
            trace.unclosed[0]
        ));
    }

    // Per-name latency table.
    let mut by_name: std::collections::BTreeMap<&str, (u64, u64, u64)> =
        std::collections::BTreeMap::new();
    for s in trace.spans.values() {
        if let Some(nanos) = s.nanos {
            let e = by_name.entry(s.name.as_str()).or_insert((0, 0, 0));
            e.0 += 1;
            e.1 += nanos;
            e.2 = e.2.max(nanos);
        }
    }
    if !by_name.is_empty() {
        println!("spans by name:");
        for (name, (count, total, max)) in &by_name {
            println!(
                "  {name:10} x{count:<6} mean {:9.3}ms  max {:9.3}ms",
                *total as f64 / *count as f64 / 1e6,
                *max as f64 / 1e6
            );
        }
    }

    let passes = pass_breakdown(&trace);
    if !passes.is_empty() {
        println!("pass breakdown (attributed pass_end):");
        for (pass, calls, nanos) in &passes {
            println!("  {pass:12} x{calls:<6} {:9.3}ms", *nanos as f64 / 1e6);
        }
    }

    let cache = cache_attribution(&trace);
    if !cache.is_empty() {
        println!("cache attribution by span name:");
        for row in &cache {
            let queries = row.hits + row.misses;
            let rate = if queries > 0 {
                row.hits as f64 / queries as f64
            } else {
                0.0
            };
            print!(
                "  {:10} {} hits / {} misses ({:.1}% hit)",
                row.name,
                row.hits,
                row.misses,
                rate * 100.0
            );
            if row.warm_hits > 0 {
                print!(", {} warm", row.warm_hits);
            }
            println!(", {} evictions", row.evictions);
        }
    }

    // Request roots: coverage + req_done correlation.
    let requests = trace.roots_named("request");
    if !requests.is_empty() {
        let mut min_cov = f64::INFINITY;
        let mut sum_cov = 0.0;
        let mut covered = 0usize;
        for id in &requests {
            if let Some(cov) = trace.coverage(*id) {
                min_cov = min_cov.min(cov);
                sum_cov += cov;
                covered += 1;
            }
        }
        if covered > 0 {
            println!(
                "request span coverage: {} requests, min {:.1}% mean {:.1}%",
                covered,
                min_cov,
                sum_cov / covered as f64
            );
            if min_cov < args.min_coverage {
                violations.push(format!(
                    "request span coverage fell to {min_cov:.1}% (< {:.1}%)",
                    args.min_coverage
                ));
            }
        }
        if let Some(root) = requests.first() {
            let cp = critical_path_passes(&trace, *root);
            if !cp.is_empty() {
                println!("critical-path passes (first request):");
                for (pass, calls, nanos) in &cp {
                    println!("  {pass:12} x{calls:<6} {:9.3}ms", *nanos as f64 / 1e6);
                }
            }
        }
    }
    let unattributed_reqs = trace
        .req_done
        .iter()
        .filter(|(span, _, _)| *span == 0)
        .count();
    if !trace.req_done.is_empty() {
        println!(
            "req_done: {} total, {} with a root span",
            trace.req_done.len(),
            trace.req_done.len() - unattributed_reqs
        );
        if unattributed_reqs > 0 {
            violations.push(format!(
                "{unattributed_reqs} req_done event(s) carry no span"
            ));
        }
    }

    for (i, id) in trace.roots.iter().take(args.trees).enumerate() {
        println!("--- tree {} (span #{id}) ---", i + 1);
        print!("{}", render_tree(&trace, *id));
    }

    if let Some(path) = &args.folded {
        if let Err(e) = std::fs::write(path, folded_stacks(&trace)) {
            eprintln!("asched-trace: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {path}");
    }
    if let Some(path) = &args.calibrate {
        if let Err(e) = std::fs::write(path, calibrate_json(&trace) + "\n") {
            eprintln!("asched-trace: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("wrote {path}");
    }

    if args.check {
        // Full schema validation, on top of the structural checks
        // `Trace::parse` made above.
        if let Err((line, err)) = validate_document(&text) {
            violations.push(format!("schema violation at line {line}: {err}"));
        }
        if !violations.is_empty() {
            for v in &violations {
                eprintln!("asched-trace: CHECK FAILED: {v}");
            }
            return ExitCode::from(1);
        }
        println!("check passed");
    } else {
        for v in &violations {
            eprintln!("asched-trace: warning: {v}");
        }
    }
    ExitCode::SUCCESS
}
