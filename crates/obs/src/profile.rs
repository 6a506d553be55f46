//! Metrics aggregation: counters, histograms and per-pass wall-clock.
//!
//! [`ProfileRecorder`] is a [`Recorder`] that folds the event stream
//! into a [`RunProfile`] instead of (or in addition to) serializing it.
//! The profile is what `--profile` prints and what the bench report
//! embeds.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::io;

use crate::event::{Event, MergeRung, Pass, StallKind, TaskOutcome};
use crate::json::JsonObject;
use crate::recorder::Recorder;

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// # Bucket boundaries
///
/// There are 65 buckets. Bucket `0` holds exactly `v == 0`; bucket
/// `i >= 1` holds samples whose value `v` satisfies
/// `floor(log2(v)) == i - 1`, i.e. the inclusive range
/// `[2^(i-1), 2^i - 1]`:
///
/// ```text
/// bucket  0: [0, 0]
/// bucket  1: [1, 1]
/// bucket  2: [2, 3]
/// bucket  3: [4, 7]
/// ...
/// bucket 64: [2^63, u64::MAX]
/// ```
///
/// That is plenty of resolution for occupancy, stall-length and
/// latency distributions while staying allocation-free after
/// construction, and the fixed boundaries are what make
/// [`Histogram::merge`] exact: merging two histograms loses nothing
/// beyond what bucketing already lost at `record` time. The Prometheus
/// exposition in `crates/serve` publishes these same bounds as its
/// `le` labels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Fold another histogram into this one, exactly: bucket counts add
    /// (saturating), `count`/`sum` add (saturating), and `min`/`max`
    /// take the elementwise extremes. Because both sides share the same
    /// fixed bucket boundaries, the merged histogram is
    /// indistinguishable from one that recorded both sample streams
    /// directly.
    pub fn merge(&mut self, other: &Histogram) {
        for (dst, src) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *dst = dst.saturating_add(*src);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate `p`-quantile (`0.0..=1.0`) of the recorded samples:
    /// the rank is located in the power-of-two bucket holding it and
    /// interpolated linearly inside the bucket, clamped to the observed
    /// `[min, max]` range. `None` when the histogram is empty. The
    /// serving layer's `/metrics` p50/p99 latencies come from here.
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let p = p.clamp(0.0, 1.0);
        let rank = (p * (self.count as f64 - 1.0)).round() as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if rank < seen + n {
                let (lo, hi) = if i == 0 {
                    (0, 0)
                } else {
                    // hi = 2*lo - 1, written overflow-free so the top
                    // bucket [2^63, u64::MAX] works.
                    let lo = 1u64 << (i - 1);
                    (lo, lo + (lo - 1))
                };
                let frac = if n <= 1 {
                    0.0
                } else {
                    (rank - seen) as f64 / (n - 1) as f64
                };
                let est = lo as f64 + frac * (hi - lo) as f64;
                return Some((est.round() as u64).clamp(self.min, self.max));
            }
            seen += n;
        }
        Some(self.max)
    }

    /// The 99.9th percentile; see [`Histogram::percentile`].
    pub fn p999(&self) -> Option<u64> {
        self.percentile(0.999)
    }

    /// Iterate non-empty buckets as `(lower_bound, upper_bound, count)`
    /// with inclusive bounds.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| {
                if i == 0 {
                    (0, 0, n)
                } else {
                    (
                        1u64 << (i - 1),
                        (1u64 << (i - 1)) + ((1u64 << (i - 1)) - 1),
                        n,
                    )
                }
            })
    }

    /// Render as the JSON object embedded in profiles and snapshots:
    /// `{"count":..,"sum":..,"min":..,"max":..,"buckets":[{"lo","hi","n"},..]}`.
    pub fn to_json(&self) -> String {
        let mut o = JsonObject::new();
        o.u64("count", self.count).u64("sum", self.sum);
        o.opt_u64("min", self.min()).opt_u64("max", self.max());
        let mut buckets = String::from("[");
        for (i, (lo, hi, n)) in self.nonzero_buckets().enumerate() {
            if i > 0 {
                buckets.push(',');
            }
            let mut b = JsonObject::new();
            b.u64("lo", lo).u64("hi", hi).u64("n", n);
            buckets.push_str(&b.finish());
        }
        buckets.push(']');
        o.raw("buckets", &buckets);
        o.finish()
    }
}

/// Aggregated observability data for one run: named counters, value
/// histograms and per-pass wall-clock totals.
#[derive(Clone, Debug, Default)]
pub struct RunProfile {
    /// Monotonic named counters (merge probes, idle moves, issues, ...).
    pub counters: BTreeMap<String, u64>,
    /// Value distributions (window occupancy, stall lengths, ...).
    pub histograms: BTreeMap<String, Histogram>,
    /// Total wall-clock nanoseconds per pass.
    pub pass_nanos: BTreeMap<&'static str, u64>,
    /// Number of timed invocations per pass.
    pub pass_calls: BTreeMap<&'static str, u64>,
}

impl RunProfile {
    /// Empty profile.
    pub fn new() -> Self {
        RunProfile::default()
    }

    /// Add `delta` to counter `name`.
    pub fn bump(&mut self, name: &str, delta: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Record `value` into histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::new();
            h.record(value);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Record one timed pass invocation.
    pub fn add_pass(&mut self, pass: Pass, nanos: u64) {
        *self.pass_nanos.entry(pass.name()).or_insert(0) += nanos;
        *self.pass_calls.entry(pass.name()).or_insert(0) += 1;
    }

    /// Counter value (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Fold another profile into this one.
    pub fn merge_from(&mut self, other: &RunProfile) {
        for (k, v) in &other.counters {
            self.bump(k, *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        for (k, v) in &other.pass_nanos {
            *self.pass_nanos.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.pass_calls {
            *self.pass_calls.entry(k).or_insert(0) += v;
        }
    }

    /// Fold one event into the profile. This is the single place that
    /// defines how raw events aggregate, shared by [`ProfileRecorder`].
    pub fn absorb(&mut self, event: &Event<'_>) {
        match *event {
            Event::PassBegin { .. } => {}
            Event::PassEnd { pass, nanos, .. } => self.add_pass(pass, nanos),
            Event::RankRun {
                nodes, feasible, ..
            } => {
                self.bump("rank_runs", 1);
                if !feasible {
                    self.bump("rank_infeasible", 1);
                }
                self.observe("rank_nodes", nodes.into());
            }
            Event::IdleMove { moved, .. } => {
                self.bump("idle_moves_attempted", 1);
                if moved {
                    self.bump("idle_moves_applied", 1);
                }
            }
            Event::BlockBegin { carried, .. } => {
                self.bump("blocks", 1);
                self.observe("carried_in", carried.into());
            }
            Event::MergeProbe { feasible, .. } => {
                self.bump("merge_probes", 1);
                if feasible {
                    self.bump("merge_probes_feasible", 1);
                }
            }
            Event::MergeDone { rung, .. } => {
                self.bump("merges", 1);
                match rung {
                    MergeRung::Paper => self.bump("merge_rung_paper", 1),
                    MergeRung::PinnedOld => self.bump("merge_rung_pinned_old", 1),
                    MergeRung::Concatenation => self.bump("merge_rung_concatenation", 1),
                }
            }
            Event::Chop {
                emitted, carried, ..
            } => {
                self.bump("chops", 1);
                self.bump("chop_emitted", emitted.into());
                self.observe("chop_carried", carried.into());
            }
            Event::Issue { .. } => self.bump("issues", 1),
            Event::Stall { kind, cycles, .. } => {
                self.bump("stall_events", 1);
                self.bump("stall_cycles", cycles);
                match kind {
                    StallKind::DataWait => self.bump("stall_cycles_data_wait", cycles),
                    StallKind::HeadBlocked => self.bump("stall_cycles_head_blocked", cycles),
                }
                self.observe("stall_len", cycles);
            }
            Event::WindowOccupancy { occupancy, .. } => {
                self.observe("window_occupancy", occupancy.into());
            }
            Event::Counter { name, delta, .. } => self.bump(name, delta),
            Event::Diagnostic { .. } => self.bump("diagnostics", 1),
            Event::CacheQuery { hit, .. } => {
                self.bump("cache_queries", 1);
                if hit {
                    self.bump("cache_hits", 1);
                } else {
                    self.bump("cache_misses", 1);
                }
            }
            Event::CacheEvict { .. } => self.bump("cache_evictions", 1),
            Event::TaskDone { outcome, .. } => {
                self.bump("engine_tasks", 1);
                match outcome {
                    TaskOutcome::Scheduled => self.bump("engine_tasks_scheduled", 1),
                    TaskOutcome::Cached => self.bump("engine_tasks_cached", 1),
                    TaskOutcome::Degraded => self.bump("engine_tasks_degraded", 1),
                    TaskOutcome::Failed => self.bump("engine_tasks_failed", 1),
                }
            }
            Event::ReqAccept { queue_depth, .. } => {
                self.bump("req_accept", 1);
                self.observe("req_queue_depth", queue_depth.into());
            }
            Event::ReqShed { .. } => self.bump("req_shed", 1),
            Event::ReqDone { status, nanos, .. } => {
                self.bump("req_done", 1);
                match status {
                    200..=299 => self.bump("req_2xx", 1),
                    400..=499 => self.bump("req_4xx", 1),
                    500..=599 => self.bump("req_5xx", 1),
                    _ => {}
                }
                self.observe("req_nanos", nanos);
            }
            Event::SpanStart { .. } => self.bump("spans", 1),
            Event::SpanEnd { nanos, .. } => self.observe("span_nanos", nanos),
        }
    }

    /// Render the profile as the JSON object embedded in reports and
    /// `BENCH_*.json` snapshots.
    pub fn to_json(&self) -> String {
        let mut counters = JsonObject::new();
        for (k, v) in &self.counters {
            counters.u64(k, *v);
        }
        let mut passes = String::from("[");
        for (i, (name, nanos)) in self.pass_nanos.iter().enumerate() {
            if i > 0 {
                passes.push(',');
            }
            let mut p = JsonObject::new();
            p.str("pass", name)
                .u64("nanos", *nanos)
                .u64("calls", self.pass_calls.get(name).copied().unwrap_or(0));
            passes.push_str(&p.finish());
        }
        passes.push(']');
        let mut hists = JsonObject::new();
        for (k, h) in &self.histograms {
            hists.raw(k, &h.to_json());
        }
        let mut o = JsonObject::new();
        o.raw("counters", &counters.finish());
        o.raw("passes", &passes);
        o.raw("histograms", &hists.finish());
        o.finish()
    }
}

impl fmt::Display for RunProfile {
    /// The human-readable table `--profile` prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "run profile")?;
        writeln!(f, "  passes (wall clock)")?;
        if self.pass_nanos.is_empty() {
            writeln!(f, "    (none timed)")?;
        }
        for (name, nanos) in &self.pass_nanos {
            let calls = self.pass_calls.get(name).copied().unwrap_or(0);
            writeln!(
                f,
                "    {name:<16} {total:>12.3} ms  {calls:>8} calls  {per:>10.1} ns/call",
                total = *nanos as f64 / 1e6,
                per = *nanos as f64 / calls.max(1) as f64,
            )?;
        }
        writeln!(f, "  counters")?;
        if self.counters.is_empty() {
            writeln!(f, "    (none)")?;
        }
        for (name, value) in &self.counters {
            writeln!(f, "    {name:<28} {value:>12}")?;
        }
        if !self.histograms.is_empty() {
            writeln!(f, "  histograms")?;
            for (name, h) in &self.histograms {
                write!(
                    f,
                    "    {name:<20} n={n} min={min} max={max} mean={mean:.2}",
                    n = h.count(),
                    min = h.min().unwrap_or(0),
                    max = h.max().unwrap_or(0),
                    mean = h.mean().unwrap_or(0.0),
                )?;
                write!(f, "  |")?;
                for (lo, hi, n) in h.nonzero_buckets() {
                    if lo == hi {
                        write!(f, " {lo}:{n}")?;
                    } else {
                        write!(f, " {lo}-{hi}:{n}")?;
                    }
                }
                writeln!(f, " |")?;
            }
        }
        Ok(())
    }
}

/// A [`Recorder`] that aggregates events into a [`RunProfile`].
///
/// Uses a `RefCell` because the scheduling stack is single-threaded and
/// recorders are shared by `&` reference; `ProfileRecorder` is
/// accordingly `!Sync` and meant for per-run, per-thread use.
#[derive(Debug, Default)]
pub struct ProfileRecorder {
    profile: RefCell<RunProfile>,
}

impl ProfileRecorder {
    /// Fresh, empty profile.
    pub fn new() -> Self {
        ProfileRecorder::default()
    }

    /// Take the accumulated profile out.
    pub fn into_profile(self) -> RunProfile {
        self.profile.into_inner()
    }

    /// Clone the accumulated profile (leaves the recorder running).
    pub fn snapshot(&self) -> RunProfile {
        self.profile.borrow().clone()
    }
}

impl Recorder for ProfileRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event<'_>) {
        self.profile.borrow_mut().absorb(event);
    }

    fn flush(&self) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_log2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1024));
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        assert_eq!(
            buckets,
            vec![
                (0, 0, 1),
                (1, 1, 1),
                (2, 3, 2),
                (4, 7, 2),
                (8, 15, 1),
                (1024, 2047, 1)
            ]
        );
    }

    #[test]
    fn percentiles_track_rank() {
        let mut h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.percentile(0.0), Some(1));
        assert_eq!(h.percentile(1.0), Some(100));
        let p50 = h.percentile(0.5).unwrap();
        assert!((30..=80).contains(&p50), "{p50}");
        assert!(h.percentile(0.99).unwrap() >= p50);
        assert_eq!(Histogram::new().percentile(0.5), None);
    }

    #[test]
    fn profile_absorbs_serve_events() {
        let rec = ProfileRecorder::new();
        rec.record(&Event::ReqAccept { queue_depth: 2 });
        rec.record(&Event::ReqShed { queue_depth: 64 });
        rec.record(&Event::ReqDone {
            status: 200,
            nanos: 1000,
            span: None,
        });
        rec.record(&Event::ReqDone {
            status: 503,
            nanos: 500,
            span: Some(1),
        });
        let p = rec.into_profile();
        assert_eq!(p.counter("req_accept"), 1);
        assert_eq!(p.counter("req_shed"), 1);
        assert_eq!(p.counter("req_done"), 2);
        assert_eq!(p.counter("req_2xx"), 1);
        assert_eq!(p.counter("req_5xx"), 1);
        assert_eq!(p.histograms["req_nanos"].count(), 2);
    }

    #[test]
    fn profile_absorbs_events() {
        let rec = ProfileRecorder::new();
        rec.record(&Event::MergeProbe {
            delta: 0,
            feasible: false,
        });
        rec.record(&Event::MergeProbe {
            delta: 1,
            feasible: true,
        });
        rec.record(&Event::MergeDone {
            rung: MergeRung::Paper,
            makespan: 5,
            relaxed: 1,
        });
        rec.record(&Event::PassEnd {
            pass: Pass::Merge,
            nanos: 1_000,
            span: None,
        });
        rec.record(&Event::Stall {
            cycle: 0,
            head: 0,
            kind: StallKind::HeadBlocked,
            cycles: 3,
        });
        let p = rec.into_profile();
        assert_eq!(p.counter("merge_probes"), 2);
        assert_eq!(p.counter("merge_probes_feasible"), 1);
        assert_eq!(p.counter("merge_rung_paper"), 1);
        assert_eq!(p.counter("stall_cycles_head_blocked"), 3);
        assert_eq!(p.pass_nanos.get("merge"), Some(&1_000));
        assert_eq!(p.histograms["stall_len"].count(), 1);
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty: every percentile (and p999) is None.
        let empty = Histogram::new();
        assert_eq!(empty.percentile(0.0), None);
        assert_eq!(empty.p999(), None);
        assert_eq!(empty.min(), None);
        assert_eq!(empty.max(), None);

        // Single sample: every percentile is that sample.
        let mut one = Histogram::new();
        one.record(37);
        for p in [0.0, 0.5, 0.99, 0.999, 1.0] {
            assert_eq!(one.percentile(p), Some(37), "p={p}");
        }
        assert_eq!(one.p999(), Some(37));

        // Out-of-range p clamps rather than panicking.
        assert_eq!(one.percentile(-3.0), Some(37));
        assert_eq!(one.percentile(42.0), Some(37));

        // p999 sits between p99 and max on a heavy-tailed stream.
        let mut h = Histogram::new();
        for _ in 0..999 {
            h.record(10);
        }
        h.record(100_000);
        let p99 = h.percentile(0.99).unwrap();
        let p999 = h.p999().unwrap();
        assert!(p99 <= p999, "p99 {p99} > p999 {p999}");
        assert!(p999 <= 100_000);
    }

    #[test]
    fn saturating_counts_do_not_overflow() {
        let mut a = Histogram::new();
        a.record(u64::MAX); // sum saturates at u64::MAX
        a.record(u64::MAX);
        assert_eq!(a.sum(), u64::MAX);
        assert_eq!(a.count(), 2);
        assert_eq!(a.max(), Some(u64::MAX));

        let mut b = Histogram::new();
        b.record(u64::MAX);
        a.merge(&b); // merged sum saturates too
        assert_eq!(a.sum(), u64::MAX);
        assert_eq!(a.count(), 3);
        assert_eq!(a.percentile(1.0), Some(u64::MAX));
    }

    #[test]
    fn histogram_merge_is_exact() {
        // Merging must equal recording both streams directly.
        let xs = [0u64, 1, 5, 9, 1024, 77];
        let ys = [3u64, 3, 2_000_000, 0];
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for &v in &xs {
            a.record(v);
            both.record(v);
        }
        for &v in &ys {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);

        // Merging an empty histogram is a no-op; merging into an empty
        // one copies.
        let mut empty = Histogram::new();
        empty.merge(&both);
        assert_eq!(empty, both);
        let snapshot = both.clone();
        both.merge(&Histogram::new());
        assert_eq!(both, snapshot);
    }

    #[test]
    fn profile_absorbs_span_events() {
        let rec = ProfileRecorder::new();
        rec.record(&Event::SpanStart {
            span: 1,
            parent: None,
            name: "request",
        });
        rec.record(&Event::SpanStart {
            span: 2,
            parent: Some(1),
            name: "engine",
        });
        rec.record(&Event::SpanEnd { span: 2, nanos: 40 });
        rec.record(&Event::SpanEnd { span: 1, nanos: 90 });
        let p = rec.into_profile();
        assert_eq!(p.counter("spans"), 2);
        assert_eq!(p.histograms["span_nanos"].count(), 2);
        assert_eq!(p.histograms["span_nanos"].sum(), 130);
    }

    #[test]
    fn merge_from_folds() {
        let mut a = RunProfile::new();
        a.bump("issues", 2);
        a.observe("window_occupancy", 4);
        a.add_pass(Pass::Simulate, 10);
        let mut b = RunProfile::new();
        b.bump("issues", 3);
        b.observe("window_occupancy", 8);
        b.add_pass(Pass::Simulate, 5);
        a.merge_from(&b);
        assert_eq!(a.counter("issues"), 5);
        assert_eq!(a.histograms["window_occupancy"].count(), 2);
        assert_eq!(a.pass_nanos["simulate"], 15);
        assert_eq!(a.pass_calls["simulate"], 2);
    }

    #[test]
    fn profile_json_has_sections() {
        let mut p = RunProfile::new();
        p.bump("issues", 1);
        p.add_pass(Pass::Rank, 42);
        p.observe("stall_len", 2);
        let j = p.to_json();
        assert!(j.contains(r#""counters":{"issues":1}"#), "{j}");
        assert!(j.contains(r#""pass":"rank","nanos":42,"calls":1"#), "{j}");
        assert!(j.contains(r#""histograms":{"stall_len""#), "{j}");
    }
}
