//! Raw-sample statistics, the seeded generator and the result line.
//!
//! Percentiles are nearest-rank over the raw samples, never read from a
//! bucketed histogram: `asched_obs::Histogram` interpolates inside
//! power-of-two buckets, which pins a p99 to the top of its bucket.

use std::fmt::Write as _;

/// Nearest-rank percentile `p` (0–100] of `samples`; 0 when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median (nearest-rank p50) of `samples`; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// SplitMix64: the benchmark's own input generator. Every input is a
/// pure function of the `--seed` argument.
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64 <= p
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// How many raw samples or operations the value summarises.
    pub samples: u64,
}

/// Everything one run reports.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failures of checks that are not operations (determinism).
    pub check_errors: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &str, unit: &'static str, value: f64, samples: u64) {
        self.metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_errors.is_empty()
    }

    /// One human-readable line per metric, then the result object as
    /// the last line of standard output.
    pub fn print(&self, workload: &str) {
        for m in &self.metrics {
            println!(
                "{workload:<12} {:<34} {:>14.6} {:<6} n={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        for e in &self.check_errors {
            println!("{workload:<12} CHECK FAILED: {e}");
        }
        println!(
            "{workload:<12} operations attempted={} failed={}",
            self.attempted, self.failed
        );
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}
