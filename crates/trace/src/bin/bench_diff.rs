//! `asched-bench-diff` — compare two bench snapshots for regressions.
//!
//! ```text
//! asched-bench-diff BASE NEW [--threshold PREFIX=FACTOR]...
//!                   [--default-threshold FACTOR] [--ignore-added]
//! ```
//!
//! Each metric present in both snapshots is compared with the
//! symmetric drift ratio `max(base/new, new/base)` against the factor
//! of the longest matching `--threshold` prefix (default
//! `--default-threshold`, 2.0). `FACTOR` may be `inf` to exempt a
//! prefix. A snapshot's `profile.counters` are compared too, as
//! `profile.<name>`. Metrics missing from NEW fail the diff (they
//! stopped being measured); metrics only in NEW are reported but never
//! fail.
//!
//! Exit status: 0 when everything is within threshold, 1 on any
//! regression or removed metric, 2 on usage / IO errors.

use std::process::ExitCode;

use asched_trace::{diff_metrics, load_metrics, parse_threshold};

fn main() -> ExitCode {
    let mut files: Vec<String> = Vec::new();
    let mut thresholds: Vec<(String, f64)> = Vec::new();
    let mut default_threshold = 2.0;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("{name} needs a value"));
        let result: Result<(), String> = (|| {
            match flag.as_str() {
                "--threshold" => thresholds.push(parse_threshold(&val("--threshold")?)?),
                "--default-threshold" => {
                    default_threshold = val("--default-threshold")?
                        .parse()
                        .map_err(|e| format!("--default-threshold: {e}"))?;
                    if default_threshold < 1.0 {
                        return Err("--default-threshold must be >= 1".into());
                    }
                }
                "--help" | "-h" => {
                    println!(
                        "usage: asched-bench-diff BASE NEW [--threshold PREFIX=FACTOR]...\n\
                         \x20                        [--default-threshold FACTOR]"
                    );
                    std::process::exit(0);
                }
                other if other.starts_with('-') => {
                    return Err(format!("unknown flag {other:?}"));
                }
                path => files.push(path.to_string()),
            }
            Ok(())
        })();
        if let Err(e) = result {
            eprintln!("asched-bench-diff: {e}");
            return ExitCode::from(2);
        }
    }
    if files.len() != 2 {
        eprintln!("asched-bench-diff: pass exactly BASE and NEW snapshot files (see --help)");
        return ExitCode::from(2);
    }

    let mut maps = Vec::new();
    for path in &files {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("asched-bench-diff: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        match load_metrics(&text) {
            Ok(m) => maps.push(m),
            Err(e) => {
                eprintln!("asched-bench-diff: {path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let new = maps.pop().unwrap();
    let base = maps.pop().unwrap();

    let outcome = diff_metrics(&base, &new, &thresholds, default_threshold);
    println!(
        "{} vs {}: {} shared metrics, {} removed, {} added",
        files[0],
        files[1],
        outcome.rows.len(),
        outcome.removed.len(),
        outcome.added.len()
    );
    for row in &outcome.rows {
        let mark = if row.ok { "ok  " } else { "DRIFT" };
        let ratio = if row.ratio.is_finite() {
            format!("{:.3}x", row.ratio)
        } else {
            "inf".to_string()
        };
        let limit = if row.threshold.is_finite() {
            format!("{:.2}x", row.threshold)
        } else {
            "inf".to_string()
        };
        println!(
            "  {mark} {name:32} {base:>14.4} -> {new:>14.4}  {ratio} (limit {limit})",
            name = row.name,
            base = row.base,
            new = row.new,
        );
    }
    for name in &outcome.removed {
        println!("  GONE {name} (present in base, missing in new)");
    }
    for name in &outcome.added {
        println!("  new  {name} (not in base; informational)");
    }

    if outcome.passed() {
        println!("PASS: no metric drifted beyond its threshold");
        ExitCode::SUCCESS
    } else {
        let drifted = outcome.regressions().count();
        eprintln!(
            "asched-bench-diff: FAIL — {} metric(s) drifted, {} removed",
            drifted,
            outcome.removed.len()
        );
        ExitCode::from(1)
    }
}
