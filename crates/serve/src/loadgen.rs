//! Load generation for the scheduling service (`asched-load`).
//!
//! [`run_closed_loop`] drives the server from `clients` threads, each
//! keeping exactly one request in flight and pulling the next body off
//! a shared counter. A 503 (shed) is retried after the backoff the
//! server itself asked for — the response's `Retry-After` header, the
//! same value [`crate::policy::AdmissionPolicy`] computes — falling
//! back to a short fixed backoff only when the header is absent.
//! Retries are counted, requests are never abandoned, so under
//! overload the offered rate self-regulates to what the server admits.
//!
//! Every outcome is tallied in a [`LoadReport`]: per-status counts,
//! retry and dropped-connection totals, and a client-side latency
//! histogram in microseconds.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use asched_obs::Histogram;

use crate::client::http_request;

/// How many times a client retries one shed request before
/// counting it as failed. High enough that a drained-but-alive server
/// is the only way to exhaust it.
const MAX_RETRIES_PER_REQUEST: u32 = 200;

/// Cap on an honored `Retry-After`, so a buggy or hostile server
/// cannot park a client for minutes.
const MAX_RETRY_AFTER_SECS: u64 = 30;

/// Aggregate outcome of one load run.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Requests attempted (unique bodies, not counting retries).
    pub sent: u64,
    /// Requests that ended 200.
    pub ok: u64,
    /// Responses per status code, ascending.
    pub status_counts: Vec<(u16, u64)>,
    /// 503-triggered retries performed.
    pub retries: u64,
    /// Total backoff slept before those retries, milliseconds. When the
    /// server's `Retry-After` is honored this is ≥ `retries * 1000` at
    /// the default 1-second hint.
    pub retry_backoff_ms: u64,
    /// Connections that errored at the socket level (connect/read/write
    /// failure or timeout). Must be 0 against a healthy server.
    pub dropped: u64,
    /// 200 responses carrying `X-Asched-Degraded` (deadline pressure).
    pub degraded_responses: u64,
    /// Client-observed request latency, microseconds, per attempt
    /// chain (including retry backoff).
    pub latency_us: Histogram,
    /// Wall-clock for the whole run.
    pub elapsed: Duration,
}

impl LoadReport {
    /// Responses with a given status.
    pub fn status(&self, code: u16) -> u64 {
        self.status_counts
            .iter()
            .find(|(c, _)| *c == code)
            .map(|(_, n)| *n)
            .unwrap_or(0)
    }

    /// Server errors other than shed (anything 5xx except 503).
    pub fn hard_5xx(&self) -> u64 {
        self.status_counts
            .iter()
            .filter(|(c, _)| *c >= 500 && *c != 503)
            .map(|(_, n)| *n)
            .sum()
    }

    /// Flat name→value metric rows for `BENCH_serve.json`.
    pub fn metrics(&self) -> Vec<(String, f64)> {
        let secs = self.elapsed.as_secs_f64().max(1e-9);
        let mut m = vec![
            ("load.sent".to_string(), self.sent as f64),
            ("load.ok".to_string(), self.ok as f64),
            ("load.retries".to_string(), self.retries as f64),
            (
                "load.retry_backoff_ms".to_string(),
                self.retry_backoff_ms as f64,
            ),
            ("load.dropped".to_string(), self.dropped as f64),
            ("load.degraded".to_string(), self.degraded_responses as f64),
            ("load.elapsed_secs".to_string(), secs),
            ("load.throughput_rps".to_string(), self.ok as f64 / secs),
        ];
        for (code, n) in &self.status_counts {
            m.push((format!("load.status.{code}"), *n as f64));
        }
        for (name, p) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
            if let Some(v) = self.latency_us.percentile(p) {
                m.push((format!("load.latency_{name}_us"), v as f64));
            }
        }
        if let Some(v) = self.latency_us.max() {
            m.push(("load.latency_max_us".to_string(), v as f64));
        }
        m
    }

    fn note_status(&mut self, code: u16) {
        match self.status_counts.binary_search_by_key(&code, |(c, _)| *c) {
            Ok(i) => self.status_counts[i].1 += 1,
            Err(i) => self.status_counts.insert(i, (code, 1)),
        }
    }

    fn merge(&mut self, other: &LoadReport) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.retries += other.retries;
        self.retry_backoff_ms += other.retry_backoff_ms;
        self.dropped += other.dropped;
        self.degraded_responses += other.degraded_responses;
        for (code, n) in &other.status_counts {
            match self.status_counts.binary_search_by_key(code, |(c, _)| *c) {
                Ok(i) => self.status_counts[i].1 += n,
                Err(i) => self.status_counts.insert(i, (*code, *n)),
            }
        }
        // Exact bucketwise merge — counts, sum, min and max all carry
        // over, so percentiles of the merged report equal percentiles
        // of the union of samples (at bucket granularity).
        self.latency_us.merge(&other.latency_us);
    }
}

/// Outcome of one attempt that got an HTTP response back.
struct AttemptOutcome {
    status: u16,
    /// Parsed `Retry-After` seconds, when the response carried one.
    retry_after_secs: Option<u64>,
}

/// One request attempt; returns the outcome, or `None` on a dropped
/// connection.
fn attempt(
    addr: SocketAddr,
    body: &str,
    deadline_ms: Option<u64>,
    timeout: Duration,
    local: &mut LoadReport,
) -> Option<AttemptOutcome> {
    let deadline_hdr = deadline_ms.map(|ms| ms.to_string());
    let mut headers: Vec<(&str, &str)> = vec![("X-Asched-Format", "manifest")];
    if let Some(ms) = &deadline_hdr {
        headers.push(("X-Asched-Deadline-Ms", ms));
    }
    match http_request(
        addr,
        "POST",
        "/v1/schedule",
        &headers,
        body.as_bytes(),
        timeout,
    ) {
        Ok(resp) => {
            local.note_status(resp.status);
            if resp.status == 200 {
                local.ok += 1;
                if resp.header("x-asched-degraded").is_some() {
                    local.degraded_responses += 1;
                }
            }
            Some(AttemptOutcome {
                status: resp.status,
                retry_after_secs: resp
                    .header("retry-after")
                    .and_then(|v| v.trim().parse::<u64>().ok()),
            })
        }
        Err(_) => {
            local.dropped += 1;
            None
        }
    }
}

/// Drive `bodies` through the server with `clients` closed-loop
/// threads. Every body is sent exactly once (to success or non-503
/// completion); 503s back off for the server's `Retry-After` and
/// retry.
pub fn run_closed_loop(
    addr: SocketAddr,
    bodies: &[String],
    clients: usize,
    deadline_ms: Option<u64>,
    timeout: Duration,
) -> LoadReport {
    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let total = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..clients.max(1) {
            let next = &next;
            handles.push(scope.spawn(move || {
                let mut local = LoadReport::default();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(body) = bodies.get(i) else { break };
                    local.sent += 1;
                    let req_start = Instant::now();
                    let mut tries = 0u32;
                    loop {
                        match attempt(addr, body, deadline_ms, timeout, &mut local) {
                            Some(out) if out.status == 503 && tries < MAX_RETRIES_PER_REQUEST => {
                                tries += 1;
                                local.retries += 1;
                                // Honor the server's own hint; a 503
                                // without (or with an unparsable)
                                // Retry-After gets the legacy short
                                // fixed backoff.
                                let backoff = match out.retry_after_secs {
                                    Some(secs) => {
                                        Duration::from_secs(secs.min(MAX_RETRY_AFTER_SECS))
                                    }
                                    None => Duration::from_millis(5 + 5 * u64::from(tries % 8)),
                                };
                                local.retry_backoff_ms += backoff.as_millis() as u64;
                                thread::sleep(backoff);
                            }
                            _ => break,
                        }
                    }
                    local
                        .latency_us
                        .record(req_start.elapsed().as_micros() as u64);
                }
                local
            }));
        }
        let mut total = LoadReport::default();
        for h in handles {
            if let Ok(local) = h.join() {
                total.merge(&local);
            }
        }
        total
    });
    let mut total = total;
    total.elapsed = started.elapsed();
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_tallies() {
        let mut r = LoadReport::default();
        r.note_status(200);
        r.note_status(503);
        r.note_status(200);
        assert_eq!(r.status(200), 2);
        assert_eq!(r.status(503), 1);
        assert_eq!(r.hard_5xx(), 0);
        r.note_status(500);
        assert_eq!(r.hard_5xx(), 1);
        let mut other = LoadReport::default();
        other.note_status(200);
        other.latency_us.record(100);
        r.merge(&other);
        assert_eq!(r.status(200), 3);
        assert_eq!(r.latency_us.count(), 1);
    }
}
