//! The scheduling service: accept queue, worker pool, routes, drain.
//!
//! Architecture (one instance = one [`Server::start`] call):
//!
//! - an **accept thread** pulls connections off a `TcpListener` and
//!   pushes them onto a bounded `Mutex<VecDeque>` + `Condvar` queue.
//!   When the queue is full the connection is *shed* immediately with
//!   `503 Service Unavailable` + `Retry-After` — the service degrades
//!   by refusing work it cannot start in time, never by hanging;
//! - **worker threads** (each owning one long-lived [`SchedCtx`] and
//!   one [`Engine`] attached to the server's one schedule cache) pop
//!   connections, parse the request, and schedule. Handlers run under
//!   `catch_unwind`, so a panic costs one 500, not a worker;
//! - each request carries a **deadline** measured from the moment it
//!   was accepted. The remaining budget is converted into a
//!   [`LookaheadConfig::step_budget`](asched_core::LookaheadConfig),
//!   so a request that cannot finish Algorithm `Lookahead` in time
//!   degrades to the per-block Rank fallback — a *valid* schedule,
//!   flagged `degraded`, instead of an error;
//! - **drain** ([`ServerHandle::drain`] or `POST /admin/drain`) stops
//!   accepting, lets the queue empty, and joins the workers; in-flight
//!   requests complete normally.

use std::collections::VecDeque;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use asched_engine::{Engine, EngineConfig, SharedScheduleCache};
use asched_graph::SchedCtx;
use asched_obs::json::JsonObject;
use asched_obs::{Event, Recorder, Severity, SpanAlloc, SpanScope, TeeRecorder};

use crate::flight::{FlightRecorder, RequestSummary};
use crate::http::{read_request, ReadError, Request, Response};
use crate::metrics::ServeMetrics;
use crate::policy::{Admission, AdmissionPolicy, DeadlinePolicy};
use crate::wire;

/// Shard count for the process-wide cache. Fixed rather than
/// configurable: 16 comfortably exceeds the worker-count range the
/// admission tier is sized for, so shard-lock contention stays
/// negligible without another knob to validate.
const SHARED_CACHE_SHARDS: usize = 16;

/// Tuning knobs for one server instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads (each owns a `SchedCtx` + `Engine`). Min 1.
    pub workers: usize,
    /// Accepted-connection queue bound; beyond it requests are shed
    /// with 503. Min 1.
    pub queue_capacity: usize,
    /// Default per-request deadline, measured from accept. The
    /// `X-Asched-Deadline-Ms` request header may only tighten it.
    pub deadline_ms: u64,
    /// Deadline→step-budget conversion rate. The engine charges one
    /// step per node entering a block merge, so this bounds scheduling
    /// work per remaining millisecond of deadline.
    pub steps_per_ms: u64,
    /// Socket read/write timeout per connection.
    pub io_timeout_ms: u64,
    /// Cap on a request body (`Content-Length`).
    pub max_body_bytes: usize,
    /// Cap on tasks per request.
    pub max_tasks_per_request: usize,
    /// Schedule-cache capacity per worker; 0 disables caching (useful
    /// when outcome labels must not depend on request interleaving).
    /// The workers pool this budget into one [`SharedScheduleCache`]
    /// of `cache_capacity × workers` entries: a fingerprint computed by
    /// any worker is a hit for all of them.
    pub cache_capacity: usize,
    /// Warm-start/persistence file for the shared cache: loaded (and
    /// tail-repaired) at startup, appended to as new schedules are
    /// computed. Ignored when `cache_capacity` is 0.
    pub cache_file: Option<PathBuf>,
    /// Flight-recorder capacity: how many recent request summaries
    /// `GET /admin/flight` (and the automatic panic dump) can replay.
    pub flight_capacity: usize,
    /// Test hook: sleep this long in the worker before reading each
    /// request. Lets tests fill the queue deterministically. Keep 0.
    pub debug_delay_ms: u64,
}

impl ServerConfig {
    /// The admission policy this configuration induces — the single
    /// source of the queue-full shed rule and its `Retry-After` value.
    pub fn admission(&self) -> AdmissionPolicy {
        AdmissionPolicy {
            queue_capacity: self.queue_capacity,
        }
    }

    /// The deadline policy this configuration induces — header
    /// tightening and the deadline→step-budget conversion.
    pub fn deadline(&self) -> DeadlinePolicy {
        DeadlinePolicy {
            default_deadline_ms: self.deadline_ms,
            steps_per_ms: self.steps_per_ms,
        }
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_capacity: 64,
            deadline_ms: 2_000,
            steps_per_ms: 100,
            io_timeout_ms: 5_000,
            max_body_bytes: 1 << 20,
            max_tasks_per_request: 512,
            cache_capacity: 256,
            cache_file: None,
            flight_capacity: 64,
            debug_delay_ms: 0,
        }
    }
}

struct Job {
    stream: TcpStream,
    accepted: Instant,
}

struct Shared {
    cfg: ServerConfig,
    addr: SocketAddr,
    metrics: Arc<ServeMetrics>,
    rec: Arc<dyn Recorder + Send + Sync>,
    queue: Mutex<VecDeque<Job>>,
    cond: Condvar,
    draining: AtomicBool,
    /// One span-id allocator for the whole server: request spans from
    /// every worker and task spans from every engine share it, so ids
    /// are unique across the trace (server traces make no cross-request
    /// byte-determinism promise — ids depend on arrival interleaving).
    spans: SpanAlloc,
    flight: FlightRecorder,
    /// The process-wide schedule cache every worker engine shares;
    /// `None` when caching is off (`cache_capacity` 0).
    cache: Option<Arc<SharedScheduleCache>>,
}

impl Shared {
    /// Record into both the external recorder and the metrics.
    fn emit(&self, event: &Event<'_>) {
        if self.rec.enabled() {
            self.rec.record(event);
        }
        self.metrics.record(event);
    }

    fn enqueue(&self, stream: TcpStream) {
        let admission = self.cfg.admission();
        let depth;
        {
            let mut q = self.queue.lock().unwrap_or_else(|e| e.into_inner());
            match admission.admit(q.len()) {
                Admission::Shed {
                    queue_depth,
                    retry_after_secs,
                } => {
                    drop(q);
                    self.emit(&Event::ReqShed {
                        queue_depth: queue_depth as u32,
                    });
                    shed(stream, queue_depth, retry_after_secs);
                    return;
                }
                Admission::Accept { depth: d } => {
                    q.push_back(Job {
                        stream,
                        accepted: Instant::now(),
                    });
                    depth = d;
                    self.metrics.set_queue_depth(depth);
                }
            }
        }
        self.emit(&Event::ReqAccept {
            queue_depth: depth as u32,
        });
        self.cond.notify_one();
    }

    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.cond.notify_all();
        // The accept thread sits in a blocking accept(); poke it awake
        // with a throwaway connection so it observes the flag.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_millis(250));
    }
}

/// Best-effort 503 on a connection we will not serve. Short timeouts:
/// a slow peer must not stall the accept thread.
fn shed(mut stream: TcpStream, queue_depth: usize, retry_after_secs: u64) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut o = JsonObject::new();
    o.str("error", "overloaded")
        .str("detail", "accept queue is full; retry shortly")
        .u64("queue_depth", queue_depth as u64);
    let resp =
        Response::json(503, o.finish()).with_header("Retry-After", &retry_after_secs.to_string());
    let _ = resp.write_to(&mut stream);
    linger_close(stream, Duration::from_millis(100));
}

/// Close without destroying the response in flight. A shed (and some
/// error paths) answers *without reading the request*; closing a TCP
/// socket with unread bytes in its receive buffer sends RST, which
/// drops our freshly written response on the floor at the peer. So:
/// send FIN, then drain whatever the peer had in flight until it
/// closes, bounded by `timeout` and a byte budget.
fn linger_close(mut stream: TcpStream, timeout: Duration) {
    use std::io::Read;
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(timeout));
    let mut sink = [0u8; 1024];
    let mut budget: usize = 64 * 1024;
    loop {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                budget = budget.saturating_sub(n);
                if budget == 0 {
                    break;
                }
            }
        }
    }
}

/// A running server. Dropping the handle drains and joins it.
pub struct Server;

impl Server {
    /// Bind, spawn the accept thread and worker pool, and return a
    /// handle. `rec` additionally receives every obs event the service
    /// and its engines emit (pass [`asched_obs::NULL`]-style recorder
    /// via `Arc` to opt out).
    pub fn start(
        cfg: ServerConfig,
        rec: Arc<dyn Recorder + Send + Sync>,
    ) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let flight = FlightRecorder::new(cfg.flight_capacity);
        let cache = if cfg.cache_capacity > 0 {
            // The per-worker budget, pooled into one cache.
            let capacity = cfg.cache_capacity.saturating_mul(cfg.workers.max(1));
            let cache = Arc::new(SharedScheduleCache::new(capacity, SHARED_CACHE_SHARDS));
            if let Some(path) = &cfg.cache_file {
                cache.warm_start(path)?;
            }
            Some(cache)
        } else {
            None
        };
        let metrics = Arc::new(ServeMetrics::new());
        if let Some(cache) = &cache {
            metrics.attach_shared_cache(Arc::clone(cache));
        }
        let shared = Arc::new(Shared {
            cfg,
            addr,
            metrics,
            rec,
            queue: Mutex::new(VecDeque::new()),
            cond: Condvar::new(),
            draining: AtomicBool::new(false),
            spans: SpanAlloc::new(),
            flight,
            cache,
        });

        let accept = {
            let sh = Arc::clone(&shared);
            thread::Builder::new()
                .name("asched-accept".into())
                .spawn(move || accept_loop(listener, &sh))?
        };
        let mut workers = Vec::new();
        for i in 0..shared.cfg.workers.max(1) {
            let sh = Arc::clone(&shared);
            workers.push(
                thread::Builder::new()
                    .name(format!("asched-worker-{i}"))
                    .spawn(move || worker_loop(&sh, i))?,
            );
        }
        Ok(ServerHandle {
            shared,
            accept: Some(accept),
            workers,
        })
    }
}

/// Control handle for a running server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the real port when `addr` used port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// The live service metrics.
    pub fn metrics(&self) -> Arc<ServeMetrics> {
        Arc::clone(&self.shared.metrics)
    }

    /// Begin a graceful drain: stop accepting, finish everything
    /// queued and in flight. Idempotent; returns immediately.
    pub fn drain(&self) {
        self.shared.begin_drain();
    }

    /// Whether a drain has begun.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Drain and wait for every thread to finish.
    pub fn shutdown(mut self) {
        self.shared.begin_drain();
        self.join_threads();
    }

    fn join_threads(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.begin_drain();
        self.join_threads();
    }
}

fn accept_loop(listener: TcpListener, sh: &Shared) {
    for stream in listener.incoming() {
        if sh.draining.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(s) => sh.enqueue(s),
            // Transient accept errors (peer reset mid-handshake etc.)
            // are not fatal to the service.
            Err(_) => continue,
        }
    }
    // No new work can arrive; make sure idle workers re-check the flag.
    sh.cond.notify_all();
}

fn worker_loop(sh: &Shared, worker: usize) {
    let mut ctx = SchedCtx::new();
    // The server's cache is the only one: an engine without it runs
    // uncached (the default `cache: false`).
    let ecfg = EngineConfig {
        jobs: 1,
        step_budget: None,
        capture: false,
        ..EngineConfig::default()
    };
    let engine = match &sh.cache {
        Some(cache) => Engine::with_shared_cache(ecfg, Arc::clone(cache)),
        None => Engine::new(ecfg),
    };
    loop {
        let job = {
            let mut q = sh.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(j) = q.pop_front() {
                    sh.metrics.set_queue_depth(q.len());
                    break j;
                }
                if sh.draining.load(Ordering::SeqCst) {
                    return;
                }
                q = sh.cond.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        handle_connection(sh, &engine, &mut ctx, worker, job);
    }
}

/// Per-request tallies the router reports back for the flight record.
#[derive(Default)]
struct ReqStats {
    tasks: u64,
    degraded: u64,
}

fn handle_connection(sh: &Shared, engine: &Engine, ctx: &mut SchedCtx, worker: usize, job: Job) {
    let Job {
        mut stream,
        accepted,
    } = job;
    let io_timeout = Duration::from_millis(sh.cfg.io_timeout_ms.max(1));
    let _ = stream.set_read_timeout(Some(io_timeout));
    let _ = stream.set_write_timeout(Some(io_timeout));
    if sh.cfg.debug_delay_ms > 0 {
        thread::sleep(Duration::from_millis(sh.cfg.debug_delay_ms));
    }

    // One root span per request, with a child per phase. The queue span
    // is retroactive: it covers accept → (this worker ready to read),
    // measured now that the wait is over. Together queue + read +
    // handle + write account for essentially all of the root's latency
    // — what `asched-trace` calls span coverage.
    let root = sh.spans.next();
    sh.emit(&Event::SpanStart {
        span: root,
        parent: None,
        name: "request",
    });
    let queue_span = sh.spans.next();
    sh.emit(&Event::SpanStart {
        span: queue_span,
        parent: Some(root),
        name: "queue",
    });
    sh.emit(&Event::SpanEnd {
        span: queue_span,
        nanos: accepted.elapsed().as_nanos() as u64,
    });

    let read_span = sh.spans.next();
    sh.emit(&Event::SpanStart {
        span: read_span,
        parent: Some(root),
        name: "read",
    });
    let read_start = Instant::now();
    let read_result = read_request(&mut stream, sh.cfg.max_body_bytes);
    sh.emit(&Event::SpanEnd {
        span: read_span,
        nanos: read_start.elapsed().as_nanos() as u64,
    });

    let mut stats = ReqStats::default();
    let (response, method, path) = match read_result {
        Ok(req) => {
            let handle_span = sh.spans.next();
            sh.emit(&Event::SpanStart {
                span: handle_span,
                parent: Some(root),
                name: "handle",
            });
            let handle_start = Instant::now();
            let resp = catch_unwind(AssertUnwindSafe(|| {
                route(
                    sh,
                    engine,
                    ctx,
                    worker,
                    &req,
                    accepted,
                    handle_span,
                    &mut stats,
                )
            }))
            .unwrap_or_else(|_| {
                // A handler panic is exactly what the flight recorder
                // exists for: dump the recent-request ring before
                // answering, so the path to the crash is preserved.
                sh.flight
                    .dump_to_stderr(&format!("handler panic on worker {worker}"));
                sh.emit(&Event::Diagnostic {
                    severity: Severity::Error,
                    code: "handler_panic",
                    message: &format!(
                        "worker {worker}: handler panicked on {} {}; flight ring dumped to stderr",
                        req.method, req.path
                    ),
                });
                Response::error(500, "panic", "request handler panicked")
            });
            sh.emit(&Event::SpanEnd {
                span: handle_span,
                nanos: handle_start.elapsed().as_nanos() as u64,
            });
            (resp, req.method, req.path)
        }
        Err(ReadError::Malformed(m)) => (
            Response::error(400, "malformed_request", &m),
            String::new(),
            String::new(),
        ),
        Err(ReadError::TooLarge) => (
            Response::error(413, "too_large", "request exceeds size limits"),
            String::new(),
            String::new(),
        ),
        Err(ReadError::Io(e)) => (
            Response::error(408, "request_timeout", &e.to_string()),
            String::new(),
            String::new(),
        ),
    };

    let status = response.status;
    let write_span = sh.spans.next();
    sh.emit(&Event::SpanStart {
        span: write_span,
        parent: Some(root),
        name: "write",
    });
    let write_start = Instant::now();
    let _ = response.write_to(&mut stream);
    // Error responses may leave request bytes unread; see linger_close.
    linger_close(stream, Duration::from_millis(250));
    sh.emit(&Event::SpanEnd {
        span: write_span,
        nanos: write_start.elapsed().as_nanos() as u64,
    });

    let total_nanos = accepted.elapsed().as_nanos() as u64;
    sh.emit(&Event::ReqDone {
        status: u32::from(status),
        nanos: total_nanos,
        span: Some(root),
    });
    sh.emit(&Event::SpanEnd {
        span: root,
        nanos: total_nanos,
    });
    sh.flight.push(RequestSummary {
        seq: 0, // assigned by the recorder
        method,
        path,
        status,
        nanos: total_nanos,
        span: root,
        worker,
        tasks: stats.tasks,
        degraded: stats.degraded,
    });
}

#[allow(clippy::too_many_arguments)] // the request pipeline really has this much context
fn route(
    sh: &Shared,
    engine: &Engine,
    ctx: &mut SchedCtx,
    worker: usize,
    req: &Request,
    accepted: Instant,
    handle_span: u64,
    stats: &mut ReqStats,
) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => {
            let mut o = JsonObject::new();
            o.str("status", "ok")
                .bool("draining", sh.draining.load(Ordering::SeqCst));
            Response::json(200, o.finish())
        }
        ("GET", "/metrics") => match req.query("format") {
            None | Some("json") => Response::json(200, sh.metrics.to_json()),
            Some("prometheus") => Response::text(200, sh.metrics.to_prometheus()),
            Some(other) => Response::error(
                400,
                "bad_format",
                &format!("unknown metrics format {other:?}; use json or prometheus"),
            ),
        },
        ("GET", "/admin/flight") => Response::json(200, sh.flight.to_json()),
        ("POST", "/admin/drain") => {
            sh.begin_drain();
            let mut o = JsonObject::new();
            o.str("status", "draining");
            Response::json(200, o.finish())
        }
        ("POST", "/v1/schedule") => {
            schedule(sh, engine, ctx, worker, req, accepted, handle_span, stats)
        }
        ("GET" | "HEAD" | "PUT" | "DELETE", "/v1/schedule")
        | ("GET" | "POST", "/healthz" | "/metrics" | "/admin/drain" | "/admin/flight") => {
            Response::error(
                405,
                "method_not_allowed",
                &format!("{} is not supported on {}", req.method, req.path),
            )
        }
        _ => Response::error(404, "not_found", &format!("no route for {}", req.path)),
    }
}

#[allow(clippy::too_many_arguments)] // see route()
fn schedule(
    sh: &Shared,
    engine: &Engine,
    ctx: &mut SchedCtx,
    worker: usize,
    req: &Request,
    accepted: Instant,
    handle_span: u64,
    stats: &mut ReqStats,
) -> Response {
    let mut tasks = match wire::parse_schedule_request(req, sh.cfg.max_tasks_per_request) {
        Ok(t) => t,
        Err(e) => return Response::error(e.status, e.code, &e.detail),
    };

    // Deadline: the header may tighten the server default, never relax
    // it. Whatever wall-clock already elapsed in the queue is charged
    // against the request before its step budget is computed. All three
    // decisions go through DeadlinePolicy.
    let deadline = sh.cfg.deadline();
    let deadline_ms = match deadline.effective_deadline_ms(req.header("x-asched-deadline-ms")) {
        Ok(ms) => ms,
        Err(detail) => return Response::error(400, "bad_deadline", &detail),
    };
    let elapsed_ms = accepted.elapsed().as_millis() as u64;
    let remaining_ms = deadline.remaining_ms(deadline_ms, elapsed_ms);
    let per_task_budget = deadline.per_task_step_budget(remaining_ms, tasks.len());
    for t in &mut tasks {
        if t.config.step_budget.is_none() {
            t.config.step_budget = Some(per_task_budget);
        }
    }

    let report = {
        let tee = TeeRecorder::new(&*sh.rec, &*sh.metrics);
        // The engine span nests under this request's "handle" span, so
        // the trace joins HTTP latency to per-task scheduling work.
        let scope = SpanScope {
            alloc: &sh.spans,
            parent: Some(handle_span),
        };
        engine.run_batch_traced(Some(ctx), &tasks, &tee, Some(scope))
    };
    sh.metrics
        .note_tasks(report.tasks.len() as u64, report.degraded, report.failed);
    sh.metrics.note_worker_cache(
        worker,
        report.cache_hits,
        report.cache_misses,
        report.cache_evictions,
    );
    stats.tasks = report.tasks.len() as u64;
    stats.degraded = report.degraded;

    let body = wire::schedule_response_json(&report, deadline_ms, per_task_budget);
    let mut resp = Response::json(200, body);
    if report.degraded > 0 {
        resp = resp.with_header("X-Asched-Degraded", &report.degraded.to_string());
    }
    resp
}
