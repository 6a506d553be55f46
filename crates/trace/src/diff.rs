//! Bench-snapshot regression diffing (`asched-bench-diff`).
//!
//! Two `BENCH_*.json` snapshots (the envelope `snapshot_json` writes:
//! `{"schema":..., "label":..., "metrics":{name: number, ...}}`, plus
//! an optional run `profile` whose deterministic work `counters` are
//! compared as `profile.<name>`) are
//! compared metric by metric with a *symmetric ratio*:
//! `max(a/b, b/a)` — so a 2x slowdown and a 2x speedup both read as
//! ratio 2.0, and thresholds bound drift in either direction (a
//! surprise speedup usually means the benchmark stopped measuring what
//! it used to). Thresholds attach by longest metric-name prefix, so
//! wall-clock metrics can be loose (`wall.=3.0`) while counts stay
//! exact (`engine.=1.0`); the factor `inf` exempts a prefix entirely.

use std::collections::BTreeMap;

use crate::json::{parse, Json};

/// One compared metric.
#[derive(Clone, Debug)]
pub struct DiffRow {
    /// Metric name.
    pub name: String,
    /// Value in the base snapshot.
    pub base: f64,
    /// Value in the new snapshot.
    pub new: f64,
    /// Symmetric drift ratio (`max(base/new, new/base)`, ≥ 1).
    pub ratio: f64,
    /// Threshold that applied (factor, and the prefix it came from).
    pub threshold: f64,
    /// Whether the drift stayed within the threshold.
    pub ok: bool,
}

/// Result of one snapshot comparison.
#[derive(Debug, Default)]
pub struct DiffOutcome {
    /// Per-metric rows, in name order.
    pub rows: Vec<DiffRow>,
    /// Metrics present only in the base snapshot (treated as
    /// regressions: a metric that disappeared stopped being measured).
    pub removed: Vec<String>,
    /// Metrics present only in the new snapshot (informational).
    pub added: Vec<String>,
}

impl DiffOutcome {
    /// Rows that exceeded their threshold.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffRow> {
        self.rows.iter().filter(|r| !r.ok)
    }

    /// Whether the new snapshot passes: no drifting metric, nothing
    /// removed.
    pub fn passed(&self) -> bool {
        self.removed.is_empty() && self.rows.iter().all(|r| r.ok)
    }
}

/// Extract the flat metric map from a snapshot document: the `metrics`
/// block, plus every `profile.counters` entry as `profile.<name>` when
/// the snapshot carries a run profile. The counters are deterministic
/// work counts (Rank runs, idle-move attempts, merge probes, cache
/// traffic), so a counter missing from the new snapshot fails like a
/// removed metric.
pub fn load_metrics(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let doc = parse(text)?;
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("snapshot has no \"metrics\" object".into());
    };
    let counters = match doc.get("profile").and_then(|p| p.get("counters")) {
        Some(Json::Obj(counters)) => Some(counters),
        _ => None,
    };
    let mut out = BTreeMap::new();
    for (name, value) in metrics {
        let v = value
            .as_f64()
            .ok_or_else(|| format!("metric {name:?} is not a number"))?;
        out.insert(name.clone(), v);
    }
    for (name, value) in counters.into_iter().flatten() {
        let v = value
            .as_f64()
            .ok_or_else(|| format!("counter {name:?} is not a number"))?;
        out.insert(format!("profile.{name}"), v);
    }
    Ok(out)
}

/// Symmetric drift ratio. Equal values (including 0 = 0) are ratio 1;
/// a zero against a nonzero is infinite drift.
pub fn drift_ratio(base: f64, new: f64) -> f64 {
    if base == new {
        return 1.0;
    }
    let (lo, hi) = if base.abs() < new.abs() {
        (base.abs(), new.abs())
    } else {
        (new.abs(), base.abs())
    };
    if lo == 0.0 {
        f64::INFINITY
    } else {
        hi / lo
    }
}

/// The threshold for `name`: the factor of the longest matching prefix
/// in `thresholds`, else `default`.
pub fn threshold_for(name: &str, thresholds: &[(String, f64)], default: f64) -> f64 {
    thresholds
        .iter()
        .filter(|(prefix, _)| name.starts_with(prefix.as_str()))
        .max_by_key(|(prefix, _)| prefix.len())
        .map(|(_, factor)| *factor)
        .unwrap_or(default)
}

/// Compare two metric maps.
pub fn diff_metrics(
    base: &BTreeMap<String, f64>,
    new: &BTreeMap<String, f64>,
    thresholds: &[(String, f64)],
    default_threshold: f64,
) -> DiffOutcome {
    let mut out = DiffOutcome::default();
    for (name, b) in base {
        match new.get(name) {
            None => out.removed.push(name.clone()),
            Some(n) => {
                let ratio = drift_ratio(*b, *n);
                let threshold = threshold_for(name, thresholds, default_threshold);
                out.rows.push(DiffRow {
                    name: name.clone(),
                    base: *b,
                    new: *n,
                    ratio,
                    threshold,
                    ok: ratio <= threshold,
                });
            }
        }
    }
    for name in new.keys() {
        if !base.contains_key(name) {
            out.added.push(name.clone());
        }
    }
    out
}

/// Parse one `--threshold PREFIX=FACTOR` argument (`FACTOR` may be
/// `inf`).
pub fn parse_threshold(arg: &str) -> Result<(String, f64), String> {
    let (prefix, factor) = arg
        .split_once('=')
        .ok_or_else(|| format!("--threshold wants PREFIX=FACTOR, got {arg:?}"))?;
    let factor = if factor.eq_ignore_ascii_case("inf") {
        f64::INFINITY
    } else {
        let f: f64 = factor
            .parse()
            .map_err(|e| format!("--threshold {prefix}: bad factor {factor:?}: {e}"))?;
        if f < 1.0 {
            return Err(format!(
                "--threshold {prefix}: factor must be >= 1, got {f}"
            ));
        }
        f
    };
    Ok((prefix.to_string(), factor))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn ratio_is_symmetric_with_zero_handling() {
        assert_eq!(drift_ratio(10.0, 20.0), 2.0);
        assert_eq!(drift_ratio(20.0, 10.0), 2.0);
        assert_eq!(drift_ratio(0.0, 0.0), 1.0);
        assert_eq!(drift_ratio(5.0, 5.0), 1.0);
        assert!(drift_ratio(0.0, 1.0).is_infinite());
    }

    #[test]
    fn longest_prefix_threshold_wins() {
        let t = vec![
            ("wall.".to_string(), 3.0),
            ("wall.elapsed".to_string(), 10.0),
        ];
        assert_eq!(threshold_for("wall.jobs", &t, 2.0), 3.0);
        assert_eq!(threshold_for("wall.elapsed_ms", &t, 2.0), 10.0);
        assert_eq!(threshold_for("engine.tasks", &t, 2.0), 2.0);
    }

    #[test]
    fn detects_injected_regression_and_passes_identical() {
        let base = map(&[("load.latency_p99_us", 100.0), ("load.ok", 500.0)]);
        let same = diff_metrics(&base, &base, &[], 1.5);
        assert!(same.passed());

        let mut slow = base.clone();
        slow.insert("load.latency_p99_us".into(), 200.0);
        let d = diff_metrics(&base, &slow, &[], 1.5);
        assert!(!d.passed());
        let bad: Vec<&str> = d.regressions().map(|r| r.name.as_str()).collect();
        assert_eq!(bad, vec!["load.latency_p99_us"]);
    }

    #[test]
    fn removed_metrics_fail_added_are_noted() {
        let base = map(&[("a", 1.0), ("b", 2.0)]);
        let new = map(&[("a", 1.0), ("c", 3.0)]);
        let d = diff_metrics(&base, &new, &[], 2.0);
        assert_eq!(d.removed, vec!["b".to_string()]);
        assert_eq!(d.added, vec!["c".to_string()]);
        assert!(!d.passed());
    }

    #[test]
    fn loads_snapshot_envelopes() {
        let m = load_metrics(
            r#"{"schema":"asched-bench-snapshot-v1","label":"x","metrics":{"a":1,"b":2.5}}"#,
        )
        .unwrap();
        assert_eq!(m, map(&[("a", 1.0), ("b", 2.5)]));
        assert!(load_metrics(r#"{"label":"x"}"#).is_err());
        assert!(load_metrics("not json").is_err());
    }

    #[test]
    fn profile_counters_are_gated_as_metrics() {
        let base = load_metrics(
            r#"{"metrics":{"a":1},"profile":{"counters":{"rank_runs":1908,"merge_probes":616},"passes":[]}}"#,
        )
        .unwrap();
        assert_eq!(
            base,
            map(&[
                ("a", 1.0),
                ("profile.merge_probes", 616.0),
                ("profile.rank_runs", 1908.0)
            ])
        );
        // One more Rank run fails an exact gate; a dropped counter
        // fails like a removed metric.
        let more = load_metrics(
            r#"{"metrics":{"a":1},"profile":{"counters":{"rank_runs":1909,"merge_probes":616}}}"#,
        )
        .unwrap();
        let d = diff_metrics(&base, &more, &[], 1.0);
        let bad: Vec<&str> = d.regressions().map(|r| r.name.as_str()).collect();
        assert_eq!(bad, vec!["profile.rank_runs"]);
        let fewer =
            load_metrics(r#"{"metrics":{"a":1},"profile":{"counters":{"rank_runs":1908}}}"#)
                .unwrap();
        let d = diff_metrics(&base, &fewer, &[], 1.0);
        assert_eq!(d.removed, vec!["profile.merge_probes".to_string()]);
        assert!(!d.passed());
        assert!(load_metrics(r#"{"metrics":{},"profile":{"counters":{"x":"y"}}}"#).is_err());
    }

    #[test]
    fn threshold_args_parse() {
        assert_eq!(
            parse_threshold("wall.=3").unwrap(),
            ("wall.".to_string(), 3.0)
        );
        assert!(parse_threshold("wall.=inf").unwrap().1.is_infinite());
        assert!(parse_threshold("nofactor").is_err());
        assert!(parse_threshold("x=0.5").is_err());
    }
}
