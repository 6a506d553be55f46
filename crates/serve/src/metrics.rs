//! Service-level metrics: the state behind `GET /metrics`.
//!
//! [`ServeMetrics`] is a thread-safe [`Recorder`]: every worker (and
//! the accept thread) records ordinary `asched-obs` events into it —
//! the `req_accept` / `req_shed` / `req_done` service events plus
//! everything the engine emits per batch (`cache_query`, `task_done`,
//! timed passes) — and it folds them into one [`RunProfile`] under a
//! mutex (span events excepted: they go to the trace recorder alone).
//! That profile is the only tally of those events; both
//! renderings of `/metrics` read it, so the JSON document, the
//! Prometheus exposition and a `BENCH_*.json` snapshot's `profile`
//! report the same counters under the same names. Beside it the
//! metrics keep only what is not an event: the uptime clock, the
//! queue-depth gauge and the shared cache's own facts.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use asched_engine::{SharedCacheStats, SharedScheduleCache};
use asched_obs::json::JsonObject;
use asched_obs::{Event, Histogram, Recorder, RunProfile};

use crate::prom::{counter_name, Exposition};

/// Counters that exist from startup, at 0: every request, task and
/// cache counter [`RunProfile::absorb`] bumps, so a fresh server's
/// exposition already carries them.
const SEEDED_COUNTERS: [&str; 15] = [
    "req_accept",
    "req_shed",
    "req_done",
    "req_2xx",
    "req_4xx",
    "req_5xx",
    "engine_tasks",
    "engine_tasks_scheduled",
    "engine_tasks_cached",
    "engine_tasks_degraded",
    "engine_tasks_failed",
    "cache_queries",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
];

/// The profile histogram of accept-to-response request latencies, in
/// nanoseconds.
const LATENCY: &str = "req_nanos";

/// Aggregated service metrics; one instance per server, shared by every
/// thread. See the module docs.
#[derive(Debug)]
pub struct ServeMetrics {
    started: Instant,
    queue_depth: AtomicUsize,
    profile: Mutex<RunProfile>,
    /// The server's process-wide cache, when caching is on; both
    /// renderers snapshot its facts live.
    shared_cache: OnceLock<Arc<SharedScheduleCache>>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new()
    }
}

impl ServeMetrics {
    /// Fresh metrics; the uptime clock starts now.
    pub fn new() -> Self {
        let mut profile = RunProfile::new();
        for name in SEEDED_COUNTERS {
            profile.bump(name, 0);
        }
        ServeMetrics {
            started: Instant::now(),
            queue_depth: AtomicUsize::new(0),
            profile: Mutex::new(profile),
            shared_cache: OnceLock::new(),
        }
    }

    /// Attach the server's shared cache so `/metrics` reports its
    /// facts. Later calls are ignored (one cache per server).
    pub fn attach_shared_cache(&self, cache: Arc<SharedScheduleCache>) {
        let _ = self.shared_cache.set(cache);
    }

    /// Snapshot of the shared cache's counters (`None` when caching is
    /// off).
    pub fn shared_cache_stats(&self) -> Option<SharedCacheStats> {
        self.shared_cache.get().map(|c| c.stats())
    }

    /// Set the queue-depth gauge (the queue mutex owner knows the len).
    pub fn set_queue_depth(&self, depth: usize) {
        self.queue_depth.store(depth, Ordering::Relaxed);
    }

    /// Current queue-depth gauge.
    pub fn queue_depth(&self) -> usize {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// Clone the aggregated event profile.
    pub fn profile(&self) -> RunProfile {
        self.profile
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Render the `GET /metrics` document (`asched-serve-metrics-v2`).
    pub fn to_json(&self) -> String {
        let profile = self.profile();
        let empty = Histogram::new();
        let h = profile.histograms.get(LATENCY).unwrap_or(&empty);
        let mut latency = JsonObject::new();
        latency
            .u64("count", h.count())
            .opt_u64("p50_ns", h.percentile(0.5))
            .opt_u64("p99_ns", h.percentile(0.99))
            .opt_u64("max_ns", h.max());
        let mut o = JsonObject::new();
        o.str("schema", "asched-serve-metrics-v2")
            .u64("uptime_ms", self.started.elapsed().as_millis() as u64)
            .u64("queue_depth", self.queue_depth() as u64)
            .raw("latency", &latency.finish());
        if let Some(s) = self.shared_cache_stats() {
            let mut sc = JsonObject::new();
            for (name, value, _) in cache_facts(&s) {
                sc.u64(name, value);
            }
            o.raw("shared_cache", &sc.finish());
        }
        o.raw("profile", &profile.to_json());
        o.finish()
    }

    /// Render the `GET /metrics?format=prometheus` document (text
    /// exposition 0.0.4): two gauges, the shared cache's facts, every
    /// profile counter `c` as `asched_<c>_total`, and the request
    /// latency histogram. Names, types and the histogram bucket bounds
    /// are documented in `docs/observability.md`.
    pub fn to_prometheus(&self) -> String {
        let profile = self.profile();
        let mut e = Exposition::new();
        e.gauge(
            "asched_uptime_seconds",
            "Seconds since the server started.",
            self.started.elapsed().as_secs_f64(),
        );
        e.gauge(
            "asched_queue_depth",
            "Accepted connections waiting for a worker.",
            self.queue_depth() as f64,
        );
        if let Some(s) = self.shared_cache_stats() {
            for (name, value, monotonic) in cache_facts(&s) {
                let help = format!("Shared schedule cache: {name}.");
                if monotonic {
                    e.counter(&counter_name(&format!("shared_cache_{name}")), &help, value);
                } else {
                    e.gauge(&format!("asched_shared_cache_{name}"), &help, value as f64);
                }
            }
        }
        for (name, &value) in &profile.counters {
            let help = format!("Profile counter {name}.");
            e.counter(&counter_name(name), &help, value);
        }
        e.histogram_ns(
            "asched_request_duration_seconds",
            "Accept-to-response request latency (profile histogram req_nanos).",
            profile.histograms.get(LATENCY).unwrap_or(&Histogram::new()),
        );
        e.finish()
    }
}

/// The shared cache's own facts, which no event carries:
/// `(name, value, monotonic)`. The JSON reports them under
/// `shared_cache`; Prometheus as `asched_shared_cache_<name>` gauges,
/// or `asched_shared_cache_<name>_total` counters when monotonic. Its
/// hits, misses and evictions are left to the profile's `cache_*`
/// counters, which count every task's query, within-batch duplicates
/// included.
fn cache_facts(s: &SharedCacheStats) -> [(&'static str, u64, bool); 5] {
    [
        ("resident", s.resident, false),
        ("capacity", s.capacity, false),
        ("warm_hits", s.warm_hits, true),
        ("loaded", s.loaded, true),
        ("persisted", s.persisted, true),
    ]
}

impl Recorder for ServeMetrics {
    fn enabled(&self) -> bool {
        true
    }

    /// Fold `event` into the profile. Span events are left to the trace
    /// recorder, which sees every one: `req_nanos` already times the
    /// requests, and one tally of every span's duration would mix
    /// request, queue, read, handle, write, engine and task spans.
    fn record(&self, event: &Event<'_>) {
        if matches!(event, Event::SpanStart { .. } | Event::SpanEnd { .. }) {
            return;
        }
        self.profile
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .absorb(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asched_obs::TaskOutcome;

    fn task(outcome: TaskOutcome) -> Event<'static> {
        Event::TaskDone {
            task: 0,
            outcome,
            makespan: 0,
            span: None,
        }
    }

    #[test]
    fn absorbs_and_renders() {
        let m = ServeMetrics::new();
        m.record(&Event::ReqAccept { queue_depth: 1 });
        m.record(&Event::ReqDone {
            status: 200,
            nanos: 3_000_000,
            span: None,
        });
        m.record(&Event::ReqShed { queue_depth: 8 });
        m.record(&task(TaskOutcome::Degraded));
        m.set_queue_depth(2);
        let profile = m.profile();
        assert_eq!(profile.counter("req_accept"), 1);
        assert_eq!(profile.counter("req_done"), 1);
        assert_eq!(profile.counter("req_shed"), 1);
        assert_eq!(profile.counter("engine_tasks_degraded"), 1);
        let json = m.to_json();
        assert!(
            json.contains(r#""schema":"asched-serve-metrics-v2""#),
            "{json}"
        );
        assert!(json.contains(r#""queue_depth":2"#), "{json}");
        assert!(json.contains(r#""latency":{"count":1,"p50_ns":"#), "{json}");
        let fresh = ServeMetrics::new().to_json();
        assert!(
            fresh.contains(r#""latency":{"count":0,"p50_ns":null"#),
            "{fresh}"
        );
        assert!(json.contains(r#""req_shed":1"#), "{json}");
        assert!(json.contains(r#""engine_tasks_degraded":1"#), "{json}");
        assert!(!json.contains(r#""shared_cache""#), "{json}");
    }

    #[test]
    fn seeded_counters_are_the_ones_absorb_bumps() {
        let mut p = RunProfile::new();
        for status in [200, 400, 500] {
            p.absorb(&Event::ReqDone {
                status,
                nanos: 1,
                span: None,
            });
        }
        p.absorb(&Event::ReqAccept { queue_depth: 0 });
        p.absorb(&Event::ReqShed { queue_depth: 0 });
        for hit in [false, true] {
            p.absorb(&Event::CacheQuery {
                key: 0,
                hit,
                warm: false,
                span: None,
            });
        }
        p.absorb(&Event::CacheEvict {
            key: 0,
            resident: 0,
            span: None,
        });
        for outcome in [
            TaskOutcome::Scheduled,
            TaskOutcome::Cached,
            TaskOutcome::Degraded,
            TaskOutcome::Failed,
        ] {
            p.absorb(&task(outcome));
        }
        let bumped: Vec<&str> = p.counters.keys().map(String::as_str).collect();
        let mut seeded = SEEDED_COUNTERS.to_vec();
        seeded.sort_unstable();
        assert_eq!(bumped, seeded);
    }

    #[test]
    fn prometheus_rendering_is_valid_exposition() {
        let fresh = ServeMetrics::new().to_prometheus();
        crate::prom::validate_exposition(&fresh)
            .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{fresh}"));
        for name in SEEDED_COUNTERS {
            let sample = format!("\n{} 0\n", counter_name(name));
            assert!(fresh.contains(&sample), "{name} not seeded:\n{fresh}");
        }
        assert!(
            fresh.contains("asched_request_duration_seconds_bucket{le=\"+Inf\"} 0\n"),
            "{fresh}"
        );

        let m = ServeMetrics::new();
        m.record(&Event::ReqAccept { queue_depth: 1 });
        m.record(&Event::ReqDone {
            status: 200,
            nanos: 2_000_000,
            span: Some(1),
        });
        m.record(&Event::Counter {
            name: "e15.closed",
            delta: 3,
        });
        let text = m.to_prometheus();
        crate::prom::validate_exposition(&text)
            .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
        assert!(text.contains("\nasched_req_done_total 1\n"), "{text}");
        assert!(text.contains("\nasched_req_2xx_total 1\n"), "{text}");
        assert!(text.contains("\nasched_e15_closed_total 3\n"), "{text}");
        assert!(
            text.contains("asched_request_duration_seconds_count 1\n"),
            "{text}"
        );
        assert!(
            text.contains("asched_request_duration_seconds_bucket{le=\"+Inf\"} 1\n"),
            "{text}"
        );
    }
}
