//! Prometheus text exposition (format version 0.0.4).
//!
//! A tiny hand-rolled renderer: `# HELP` / `# TYPE` comment pairs,
//! `name value` sample lines (`name{le="b"} value` for histogram
//! buckets), `\n` line endings. A profile
//! counter `c` is exported as [`counter_name`]`(c)`, `asched_<c>_total`.
//! Histograms are rendered from [`Histogram`]'s fixed power-of-two
//! buckets: a sample recorded in nanoseconds lands in bucket
//! `[2^(i-1), 2^i-1]` ns, which the exposition publishes as a
//! cumulative bucket with `le = (2^i - 1) / 1e9` seconds. The bucket
//! *boundaries* are thus `1e-9 * (2^i - 1)` for `i = 0..=64` —
//! documented here once and mirrored by `docs/observability.md`; only
//! non-empty buckets are emitted (cumulative counts stay correct,
//! scrape size stays small).

use asched_obs::Histogram;

/// The exposition name of profile counter `counter`:
/// `asched_<counter>_total`, with every character a Prometheus metric
/// name may not contain (anything but ASCII letters, digits and `_`)
/// mapped to `_`.
pub fn counter_name(counter: &str) -> String {
    let body: String = counter
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    format!("asched_{body}_total")
}

/// Accumulates one exposition document.
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

impl Exposition {
    /// An empty document.
    pub fn new() -> Self {
        Exposition::default()
    }

    /// Finish, yielding the document text.
    pub fn finish(self) -> String {
        self.out
    }

    fn header(&mut self, name: &str, help: &str, kind: &str) {
        self.out.push_str("# HELP ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(help);
        self.out.push_str("\n# TYPE ");
        self.out.push_str(name);
        self.out.push(' ');
        self.out.push_str(kind);
        self.out.push('\n');
    }

    /// One sample line; `le` is a histogram bucket's bound, a number or
    /// `+Inf`, which needs no escaping.
    fn sample(&mut self, name: &str, le: Option<&str>, value: f64) {
        self.out.push_str(name);
        if let Some(le) = le {
            self.out.push_str("{le=\"");
            self.out.push_str(le);
            self.out.push_str("\"}");
        }
        self.out.push(' ');
        self.out.push_str(&format_value(value));
        self.out.push('\n');
    }

    /// A counter with one sample.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.header(name, help, "counter");
        self.sample(name, None, value as f64);
    }

    /// A gauge with one sample.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.header(name, help, "gauge");
        self.sample(name, None, value);
    }

    /// A histogram whose samples were recorded in **nanoseconds**,
    /// exposed in **seconds** per Prometheus convention. Bucket bounds
    /// come from [`Histogram`]'s fixed power-of-two boundaries (see the
    /// module docs); only non-empty buckets are emitted, plus the
    /// mandatory `+Inf` bucket, `_sum` and `_count`.
    pub fn histogram_ns(&mut self, name: &str, help: &str, h: &Histogram) {
        self.header(name, help, "histogram");
        let bucket = format!("{name}_bucket");
        let mut cumulative = 0u64;
        for (_lo, hi, n) in h.nonzero_buckets() {
            cumulative += n;
            let le = format_value(hi as f64 / 1e9);
            self.sample(&bucket, Some(&le), cumulative as f64);
        }
        self.sample(&bucket, Some("+Inf"), h.count() as f64);
        self.sample(&format!("{name}_sum"), None, h.sum() as f64 / 1e9);
        self.sample(&format!("{name}_count"), None, h.count() as f64);
    }
}

/// Render a sample value: integral floats without a trailing `.0`
/// (Prometheus accepts either; integers are easier on the eyes and on
/// golden tests), everything else via `f64` shortest display.
fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Check that `text` parses as Prometheus text exposition: every line
/// is empty, a `#` comment, or `name{labels} value` with a float
/// value. Returns the number of sample lines. Used by tests and the
/// CI smoke job; not a full parser, but catches malformed labels,
/// missing values and stray bytes.
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut samples = 0;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (name_part, value_part) = match line.rfind(' ') {
            Some(pos) => (&line[..pos], &line[pos + 1..]),
            None => return Err(format!("line {lineno}: no value: {line:?}")),
        };
        let name = match name_part.find('{') {
            None => name_part,
            Some(open) => {
                if !name_part.ends_with('}') {
                    return Err(format!("line {lineno}: unterminated labels: {line:?}"));
                }
                let labels = &name_part[open + 1..name_part.len() - 1];
                for pair in labels.split(',') {
                    let Some((k, v)) = pair.split_once('=') else {
                        return Err(format!("line {lineno}: bad label {pair:?}"));
                    };
                    if !v.starts_with('"') || !v.ends_with('"') || v.len() < 2 {
                        return Err(format!("line {lineno}: unquoted label value {pair:?}"));
                    }
                    if k.is_empty() || !k.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
                        return Err(format!("line {lineno}: bad label name {k:?}"));
                    }
                }
                &name_part[..open]
            }
        };
        let valid_name = !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            && !name.starts_with(|c: char| c.is_ascii_digit());
        if !valid_name {
            return Err(format!("line {lineno}: bad metric name {name:?}"));
        }
        if value_part != "+Inf" && value_part != "-Inf" && value_part.parse::<f64>().is_err() {
            return Err(format!("line {lineno}: bad value {value_part:?}"));
        }
        samples += 1;
    }
    Ok(samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_counters_and_gauges() {
        let mut e = Exposition::new();
        e.counter("asched_req_done_total", "Requests answered.", 42);
        e.gauge("asched_queue_depth", "Queued connections.", 3.0);
        let text = e.finish();
        assert!(text.contains("# TYPE asched_req_done_total counter\n"));
        assert!(text.contains("asched_req_done_total 42\n"));
        assert!(text.contains("asched_queue_depth 3\n"));
        assert_eq!(validate_exposition(&text).unwrap(), 2);
    }

    #[test]
    fn counter_names_are_mechanical_and_valid() {
        assert_eq!(counter_name("req_done"), "asched_req_done_total");
        assert_eq!(
            counter_name("e15.gap_hist.3plus"),
            "asched_e15_gap_hist_3plus_total"
        );
        assert_eq!(counter_name("a:b-c d"), "asched_a_b_c_d_total");
        let text = format!("{} 1\n", counter_name("0.weird-name"));
        assert!(validate_exposition(&text).is_ok(), "{text}");
    }

    #[test]
    fn histogram_buckets_are_cumulative_seconds() {
        let mut h = Histogram::new();
        h.record(1); // bucket [1,1] -> le 1e-9
        h.record(3); // bucket [2,3] -> le 3e-9
        h.record(3);
        let mut e = Exposition::new();
        e.histogram_ns("asched_request_duration_seconds", "Latency.", &h);
        let text = e.finish();
        assert!(
            text.contains("asched_request_duration_seconds_bucket{le=\"0.000000001\"} 1\n"),
            "{text}"
        );
        assert!(
            text.contains("asched_request_duration_seconds_bucket{le=\"0.000000003\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("asched_request_duration_seconds_bucket{le=\"+Inf\"} 3\n"),
            "{text}"
        );
        assert!(
            text.contains("asched_request_duration_seconds_count 3\n"),
            "{text}"
        );
        // sum = 7 ns = 7e-9 s
        assert!(
            text.contains("asched_request_duration_seconds_sum 0.000000007\n"),
            "{text}"
        );
        assert!(validate_exposition(&text).is_ok());
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_exposition("no_value_here\n").is_err());
        assert!(validate_exposition("bad{label} 1\n").is_err());
        assert!(validate_exposition("bad{l=unquoted} 1\n").is_err());
        assert!(validate_exposition("1leading_digit 2\n").is_err());
        assert!(validate_exposition("ok_metric notanumber\n").is_err());
        assert!(validate_exposition("# a comment\nok_metric 1\n").is_ok());
    }
}
