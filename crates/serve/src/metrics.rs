//! Service-level metrics: the state behind `GET /metrics`.
//!
//! [`ServeMetrics`] is a thread-safe [`Recorder`]: every worker (and
//! the accept thread) records ordinary `asched-obs` events into it —
//! the new `req_accept` / `req_shed` / `req_done` service events plus
//! everything the engine emits per batch (`cache_query`, `task_done`,
//! timed passes) — and it folds them into a [`RunProfile`] under a
//! mutex. Request latencies additionally land in a dedicated
//! microsecond histogram so `/metrics` can report p50/p99 without a
//! full event log. Cheap gauges (queue depth, totals) are atomics so
//! the accept path never takes the profile lock.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use asched_engine::{SharedCacheStats, SharedScheduleCache};
use asched_obs::json::JsonObject;
use asched_obs::{Event, Histogram, Recorder, RunProfile};

use crate::prom::Exposition;

/// Per-worker schedule-cache counters (monotonic since server start).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerCacheStats {
    /// Cache hits this worker's engine reported.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// FIFO evictions.
    pub evictions: u64,
}

impl WorkerCacheStats {
    /// Hit rate over this worker's queries (0.0 before any query).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Aggregated service metrics; one instance per server, shared by every
/// thread. See the module docs for the split between atomics and the
/// profile.
#[derive(Debug)]
pub struct ServeMetrics {
    started: Instant,
    queue_depth: AtomicUsize,
    accepted: AtomicU64,
    shed: AtomicU64,
    done: AtomicU64,
    tasks: AtomicU64,
    degraded_tasks: AtomicU64,
    failed_tasks: AtomicU64,
    latency_us: Mutex<Histogram>,
    profile: Mutex<RunProfile>,
    workers: Mutex<Vec<WorkerCacheStats>>,
    /// The server's process-wide cache, when caching is on; both
    /// renderers snapshot its stats live instead of folding per-batch
    /// deltas.
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
        ServeMetrics {
            started: Instant::now(),
            queue_depth: AtomicUsize::new(0),
            accepted: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            done: AtomicU64::new(0),
            tasks: AtomicU64::new(0),
            degraded_tasks: AtomicU64::new(0),
            failed_tasks: AtomicU64::new(0),
            latency_us: Mutex::new(Histogram::new()),
            profile: Mutex::new(RunProfile::new()),
            workers: Mutex::new(Vec::new()),
            shared_cache: OnceLock::new(),
        }
    }

    /// Attach the server's shared cache so `/metrics` reports its
    /// counters. Later calls are ignored (one cache per server).
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

    /// Connections accepted into the queue so far.
    pub fn accepted(&self) -> u64 {
        self.accepted.load(Ordering::Relaxed)
    }

    /// Connections shed with 503 so far.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Requests answered (any status) so far.
    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Tally one batch's task outcomes.
    pub fn note_tasks(&self, total: u64, degraded: u64, failed: u64) {
        self.tasks.fetch_add(total, Ordering::Relaxed);
        self.degraded_tasks.fetch_add(degraded, Ordering::Relaxed);
        self.failed_tasks.fetch_add(failed, Ordering::Relaxed);
    }

    /// Add one batch's schedule-cache deltas to worker `worker`'s
    /// counters (the slot table grows on first sight of a worker).
    pub fn note_worker_cache(&self, worker: usize, hits: u64, misses: u64, evictions: u64) {
        let mut w = self.workers.lock().unwrap_or_else(|e| e.into_inner());
        if w.len() <= worker {
            w.resize(worker + 1, WorkerCacheStats::default());
        }
        w[worker].hits += hits;
        w[worker].misses += misses;
        w[worker].evictions += evictions;
    }

    /// Snapshot of per-worker schedule-cache counters, indexed by
    /// worker.
    pub fn worker_cache_stats(&self) -> Vec<WorkerCacheStats> {
        self.workers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Clone the aggregated event profile.
    pub fn profile(&self) -> RunProfile {
        self.profile
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Request-latency percentile in microseconds (`None` before the
    /// first completed request).
    pub fn latency_percentile_us(&self, p: f64) -> Option<u64> {
        self.latency_us
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .percentile(p)
    }

    /// Render the `GET /metrics` document.
    pub fn to_json(&self) -> String {
        let uptime = self.started.elapsed();
        let done = self.done();
        let lat = self.latency_us.lock().unwrap_or_else(|e| e.into_inner());
        let mut latency = JsonObject::new();
        latency
            .u64("count", lat.count())
            .opt_u64("p50_us", lat.percentile(0.5))
            .opt_u64("p99_us", lat.percentile(0.99))
            .opt_u64("max_us", lat.max());
        match lat.mean() {
            Some(m) => latency.f64("mean_us", m),
            None => latency.opt_u64("mean_us", None),
        };
        drop(lat);
        let profile = self.profile();
        let mut tasks = JsonObject::new();
        tasks
            .u64("total", self.tasks.load(Ordering::Relaxed))
            .u64("degraded", self.degraded_tasks.load(Ordering::Relaxed))
            .u64("failed", self.failed_tasks.load(Ordering::Relaxed))
            .u64("cache_hits", profile.counter("cache_hits"))
            .u64("cache_misses", profile.counter("cache_misses"));
        let mut workers = String::from("[");
        for (i, w) in self.worker_cache_stats().iter().enumerate() {
            if i > 0 {
                workers.push(',');
            }
            let mut wo = JsonObject::new();
            wo.u64("worker", i as u64)
                .u64("cache_hits", w.hits)
                .u64("cache_misses", w.misses)
                .u64("cache_evictions", w.evictions)
                .f64("hit_rate", w.hit_rate());
            workers.push_str(&wo.finish());
        }
        workers.push(']');
        let mut o = JsonObject::new();
        o.str("schema", "asched-serve-metrics-v1")
            .u64("uptime_ms", uptime.as_millis() as u64)
            .u64("queue_depth", self.queue_depth() as u64)
            .u64("accepted", self.accepted())
            .u64("shed", self.shed())
            .u64("done", done)
            .f64(
                "throughput_rps",
                done as f64 / uptime.as_secs_f64().max(1e-9),
            );
        o.raw("latency", &latency.finish());
        o.raw("tasks", &tasks.finish());
        o.raw("workers", &workers);
        if let Some(s) = self.shared_cache_stats() {
            let mut sc = JsonObject::new();
            sc.u64("resident", s.resident)
                .u64("capacity", s.capacity)
                .u64("shards", s.shards)
                .u64("hits", s.hits)
                .u64("misses", s.misses)
                .u64("evictions", s.evictions)
                .f64("hit_rate", s.hit_rate())
                .u64("warm_hits", s.warm_hits)
                .u64("loaded", s.loaded)
                .u64("persisted", s.persisted);
            o.raw("shared_cache", &sc.finish());
        }
        o.raw("profile", &profile.to_json());
        o.finish()
    }

    /// Render the `GET /metrics?format=prometheus` document (text
    /// exposition 0.0.4). Metric names, types and the histogram bucket
    /// bounds are documented in `docs/observability.md`.
    pub fn to_prometheus(&self) -> String {
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
        e.counter(
            "asched_requests_accepted_total",
            "Connections accepted into the queue.",
            self.accepted(),
        );
        e.counter(
            "asched_requests_shed_total",
            "Connections shed with 503 because the queue was full.",
            self.shed(),
        );
        e.counter(
            "asched_requests_done_total",
            "Requests answered (any status).",
            self.done(),
        );
        e.counter(
            "asched_tasks_total",
            "Scheduling tasks processed.",
            self.tasks.load(Ordering::Relaxed),
        );
        e.counter(
            "asched_tasks_degraded_total",
            "Tasks degraded to the per-block rank fallback.",
            self.degraded_tasks.load(Ordering::Relaxed),
        );
        e.counter(
            "asched_tasks_failed_total",
            "Tasks that produced no schedule.",
            self.failed_tasks.load(Ordering::Relaxed),
        );
        let workers = self.worker_cache_stats();
        let label = |i: usize| vec![("worker", i.to_string())];
        e.counter_family(
            "asched_worker_cache_hits_total",
            "Schedule-cache hits per worker.",
            &workers
                .iter()
                .enumerate()
                .map(|(i, w)| (label(i), w.hits))
                .collect::<Vec<_>>(),
        );
        e.counter_family(
            "asched_worker_cache_misses_total",
            "Schedule-cache misses per worker.",
            &workers
                .iter()
                .enumerate()
                .map(|(i, w)| (label(i), w.misses))
                .collect::<Vec<_>>(),
        );
        e.counter_family(
            "asched_worker_cache_evictions_total",
            "Schedule-cache evictions per worker.",
            &workers
                .iter()
                .enumerate()
                .map(|(i, w)| (label(i), w.evictions))
                .collect::<Vec<_>>(),
        );
        e.gauge_family(
            "asched_worker_cache_hit_rate",
            "Schedule-cache hit rate per worker (0 before any query).",
            &workers
                .iter()
                .enumerate()
                .map(|(i, w)| (label(i), w.hit_rate()))
                .collect::<Vec<_>>(),
        );
        if let Some(s) = self.shared_cache_stats() {
            e.gauge(
                "asched_shared_cache_resident",
                "Entries resident in the process-wide schedule cache.",
                s.resident as f64,
            );
            e.gauge(
                "asched_shared_cache_capacity",
                "Capacity of the process-wide schedule cache.",
                s.capacity as f64,
            );
            e.gauge(
                "asched_shared_cache_shards",
                "Shard count of the process-wide schedule cache.",
                s.shards as f64,
            );
            e.counter(
                "asched_shared_cache_hits_total",
                "Shared schedule-cache hits across all workers.",
                s.hits,
            );
            e.counter(
                "asched_shared_cache_misses_total",
                "Shared schedule-cache misses across all workers.",
                s.misses,
            );
            e.counter(
                "asched_shared_cache_evictions_total",
                "Shared schedule-cache FIFO evictions.",
                s.evictions,
            );
            e.gauge(
                "asched_shared_cache_hit_rate",
                "Shared schedule-cache hit rate (0 before any query).",
                s.hit_rate(),
            );
            e.counter(
                "asched_shared_cache_warm_hits_total",
                "Hits served by entries loaded from the cache file.",
                s.warm_hits,
            );
            e.counter(
                "asched_shared_cache_loaded_total",
                "Entries loaded from the cache file at warm-start.",
                s.loaded,
            );
            e.counter(
                "asched_shared_cache_persisted_total",
                "Records appended to the cache file by this process.",
                s.persisted,
            );
        }
        let lat = self
            .latency_us
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone();
        e.histogram_us(
            "asched_request_duration_seconds",
            "Accept-to-response request latency.",
            &lat,
        );
        e.finish()
    }
}

impl Recorder for ServeMetrics {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event<'_>) {
        match *event {
            Event::ReqAccept { .. } => {
                self.accepted.fetch_add(1, Ordering::Relaxed);
            }
            Event::ReqShed { .. } => {
                self.shed.fetch_add(1, Ordering::Relaxed);
            }
            Event::ReqDone { nanos, .. } => {
                self.done.fetch_add(1, Ordering::Relaxed);
                self.latency_us
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .record(nanos / 1_000);
            }
            _ => {}
        }
        self.profile
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .absorb(event);
    }

    fn flush(&self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        m.note_tasks(5, 1, 0);
        m.set_queue_depth(2);
        assert_eq!(m.accepted(), 1);
        assert_eq!(m.done(), 1);
        assert_eq!(m.shed(), 1);
        assert_eq!(m.latency_percentile_us(0.5), Some(3_000));
        let json = m.to_json();
        assert!(
            json.contains(r#""schema":"asched-serve-metrics-v1""#),
            "{json}"
        );
        assert!(json.contains(r#""queue_depth":2"#), "{json}");
        assert!(json.contains(r#""shed":1"#), "{json}");
        assert!(json.contains(r#""degraded":1"#), "{json}");
        assert!(json.contains(r#""p99_us":"#), "{json}");
        // The profile saw the service events through the shared schema.
        assert_eq!(m.profile().counter("req_done"), 1);
        assert_eq!(m.profile().counter("req_shed"), 1);
    }

    #[test]
    fn worker_cache_counters_fold_and_render() {
        let m = ServeMetrics::new();
        m.note_worker_cache(1, 3, 1, 0); // out-of-order first sight
        m.note_worker_cache(0, 2, 2, 1);
        m.note_worker_cache(1, 1, 0, 0);
        let stats = m.worker_cache_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(
            stats[0],
            WorkerCacheStats {
                hits: 2,
                misses: 2,
                evictions: 1
            }
        );
        assert_eq!(
            stats[1],
            WorkerCacheStats {
                hits: 4,
                misses: 1,
                evictions: 0
            }
        );
        assert!((stats[1].hit_rate() - 0.8).abs() < 1e-9);

        let json = m.to_json();
        assert!(
            json.contains(r#""workers":[{"worker":0,"cache_hits":2"#),
            "{json}"
        );
        assert!(json.contains(r#""worker":1,"cache_hits":4"#), "{json}");
    }

    #[test]
    fn prometheus_rendering_is_valid_exposition() {
        let m = ServeMetrics::new();
        m.record(&Event::ReqAccept { queue_depth: 1 });
        m.record(&Event::ReqDone {
            status: 200,
            nanos: 2_000_000,
            span: Some(1),
        });
        m.note_tasks(4, 0, 0);
        m.note_worker_cache(0, 3, 1, 0);
        let text = m.to_prometheus();
        crate::prom::validate_exposition(&text)
            .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
        assert!(text.contains("asched_requests_done_total 1\n"), "{text}");
        assert!(
            text.contains("asched_worker_cache_hit_rate{worker=\"0\"} 0.75\n"),
            "{text}"
        );
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
