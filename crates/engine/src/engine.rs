//! The batch engine: plan → parallel compute → deterministic emit.
//!
//! A batch runs in three phases:
//!
//! 1. **Plan** (sequential, caller thread): fingerprint every task in
//!    input order and resolve it against the schedule cache. All cache
//!    decisions — hit, miss, eviction — are made here, so they cannot
//!    depend on worker timing.
//! 2. **Compute** (parallel): the planned-compute tasks are spread
//!    across a `std::thread::scope` worker pool. Each worker owns a
//!    [`SchedCtx`] reused across every task it computes, so analysis
//!    caches and scratch buffers stay warm. Each task runs under
//!    `catch_unwind`; a panic, scheduler error or exhausted step budget
//!    degrades the task to the per-block Rank schedule instead of
//!    aborting the batch. Workers buffer their events; nothing touches
//!    the caller's recorder concurrently.
//! 3. **Emit** (sequential, caller thread): results, buffered events
//!    and the engine's own `cache_query` / `cache_evict` / `task_done`
//!    events are replayed in input order.
//!
//! The phases make the engine's output — results, event stream (modulo
//! `pass_end` timestamps) and counters — a pure function of the input
//! corpus, independent of `jobs`.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use asched_core::{
    per_block_fallback, schedule_trace, CoreError, LookaheadConfig, SchedCtx, SchedOpts,
    TraceResult,
};
use asched_graph::{DepGraph, MachineModel};
use asched_obs::{
    record, timed, timed_span, BufferRecorder, Event, OwnedEvent, Pass, Recorder, Severity,
    SpanAlloc, SpanId, SpanScope, TaskOutcome, NULL,
};

use crate::fingerprint::{fingerprint_task, Fingerprint};
use crate::shared_cache::{SharedProbe, SharedScheduleCache};

/// Engine tuning knobs.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads for the compute phase. `0` and `1` both mean
    /// in-line sequential execution on the caller's thread.
    pub jobs: usize,
    /// Enable the content-addressed schedule cache.
    pub cache: bool,
    /// Cache capacity in entries (FIFO eviction once full).
    pub cache_capacity: usize,
    /// Per-task step budget imposed on tasks that don't set their own
    /// (see [`LookaheadConfig::step_budget`]). Exhausting it degrades
    /// the task rather than failing the batch.
    pub step_budget: Option<u64>,
    /// Buffer each task's scheduler events and replay them into the
    /// caller's recorder in input order. Disable to skip per-event
    /// buffering when only the engine-level events matter (the batch
    /// CLI does this unless `--trace` is given). Irrelevant when the
    /// recorder is disabled — nothing is buffered then either way.
    pub capture: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: 1,
            cache: false,
            cache_capacity: 1024,
            step_budget: None,
            capture: true,
        }
    }
}

/// One unit of work: schedule one trace graph on one machine model.
#[derive(Clone, Debug)]
pub struct TraceTask {
    /// Free-form label carried through to reports and diagnostics.
    pub label: String,
    /// The trace dependence graph.
    pub graph: DepGraph,
    /// Machine model (functional units + lookahead window `W`).
    pub machine: MachineModel,
    /// Scheduler configuration.
    pub config: LookaheadConfig,
}

impl TraceTask {
    /// A task with the default scheduler configuration.
    pub fn new(label: impl Into<String>, graph: DepGraph, machine: MachineModel) -> Self {
        TraceTask {
            label: label.into(),
            graph,
            machine,
            config: LookaheadConfig::default(),
        }
    }
}

/// The computed value behind a task (shared between duplicates via the
/// cache).
#[derive(Debug)]
pub struct TaskValue {
    /// The schedule, `None` when even the rank fallback failed.
    pub result: Option<TraceResult>,
    /// Whether this value came from the per-block Rank fallback.
    pub degraded: bool,
    /// Why the primary (or fallback) run failed, when it did.
    pub error: Option<String>,
}

/// Per-task outcome in deterministic input order.
#[derive(Clone, Debug)]
pub struct TaskReport {
    /// Index of the task in the input batch.
    pub index: usize,
    /// The task's label.
    pub label: String,
    /// Content fingerprint (`None` when the cache was disabled and the
    /// fingerprint was never computed).
    pub fingerprint: Option<Fingerprint>,
    /// How the task was resolved.
    pub outcome: TaskOutcome,
    /// Makespan of the produced schedule (0 when `Failed`).
    pub makespan: u64,
    /// The full schedule (`None` when `Failed`).
    pub result: Option<TraceResult>,
    /// Failure/degradation detail, when any.
    pub error: Option<String>,
}

/// Everything a batch run produced.
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Per-task reports, in input order.
    pub tasks: Vec<TaskReport>,
    /// Worker threads used for the compute phase.
    pub jobs: usize,
    /// Cache hits (including within-batch duplicate aliases).
    pub cache_hits: u64,
    /// Cache misses (tasks that went to the worker pool).
    pub cache_misses: u64,
    /// FIFO evictions performed while planning this batch.
    pub cache_evictions: u64,
    /// Tasks scheduled by Algorithm `Lookahead`.
    pub scheduled: u64,
    /// Tasks served from the cache. A within-batch duplicate of a
    /// degraded task counts under [`Self::degraded`] instead: it carries
    /// the same fallback schedule (it still counts as a cache hit).
    pub cached: u64,
    /// Tasks degraded to the per-block Rank fallback.
    pub degraded: u64,
    /// Tasks with no schedule at all.
    pub failed: u64,
    /// Entries resident in the cache after this batch published (the
    /// whole cache, whichever engines share it). 0 with caching off.
    pub cache_resident: u64,
    /// Cache capacity in entries. 0 with caching off.
    pub cache_capacity: u64,
    /// Wall-clock nanoseconds for the whole batch (plan + compute +
    /// emit). Nondeterministic by nature; excluded from [`Self::metrics`].
    pub elapsed_nanos: u64,
}

impl BatchReport {
    /// Fold one plan entry into the cache counters.
    fn tally(&mut self, plan: &TaskPlan) {
        match plan.hit {
            Some(true) => self.cache_hits += 1,
            Some(false) => self.cache_misses += 1,
            None => {}
        }
        if plan.evicted.is_some() {
            self.cache_evictions += 1;
        }
    }

    /// Cache hit rate over this batch (0.0 when the cache was off).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Tasks per second over the batch wall-clock.
    pub fn throughput(&self) -> f64 {
        if self.elapsed_nanos == 0 {
            0.0
        } else {
            self.tasks.len() as f64 * 1e9 / self.elapsed_nanos as f64
        }
    }

    /// The **deterministic** metrics of this batch — everything except
    /// wall-clock, so two runs of the same corpus at different `--jobs`
    /// produce identical values (the determinism test relies on this).
    pub fn metrics(&self) -> Vec<(String, f64)> {
        vec![
            ("engine.tasks".into(), self.tasks.len() as f64),
            ("engine.scheduled".into(), self.scheduled as f64),
            ("engine.cached".into(), self.cached as f64),
            ("engine.degraded".into(), self.degraded as f64),
            ("engine.failed".into(), self.failed as f64),
            ("engine.cache_hits".into(), self.cache_hits as f64),
            ("engine.cache_misses".into(), self.cache_misses as f64),
            ("engine.cache_evictions".into(), self.cache_evictions as f64),
            ("engine.cache_resident".into(), self.cache_resident as f64),
            ("engine.cache_capacity".into(), self.cache_capacity as f64),
            ("engine.hit_rate".into(), self.hit_rate()),
        ]
    }

    /// Unwrap every task's schedule, in input order. Errors with the
    /// first failed task's diagnostic.
    pub fn into_results(self) -> Result<Vec<TraceResult>, String> {
        self.tasks
            .into_iter()
            .map(|t| {
                t.result.ok_or_else(|| {
                    format!(
                        "task {} ({}) failed: {}",
                        t.index,
                        t.label,
                        t.error.as_deref().unwrap_or("unknown error")
                    )
                })
            })
            .collect()
    }
}

/// A scheduling function the engine can drive. The context is the
/// calling worker's [`SchedCtx`] — one per worker thread, reused across
/// every task that worker computes, so analysis caches and scratch
/// buffers stay warm within a batch. The config argument is the task's
/// config with the engine's step budget already applied. Tests inject
/// panicking/failing solvers to exercise isolation.
pub type Solver = dyn Fn(&mut SchedCtx, &TraceTask, &LookaheadConfig, &dyn Recorder) -> Result<TraceResult, CoreError>
    + Sync;

/// How the plan phase resolved one task of a batch.
enum PlanKind {
    /// Run the scheduler; the payload is this task's compute-slot index.
    Compute(usize),
    /// Reuse a value cached by a previous batch.
    Ready(Arc<TaskValue>),
    /// Reuse compute slot `i` of this batch (an earlier duplicate).
    Alias(usize),
}

/// Per-task plan entry, including what the emit phase must report.
struct TaskPlan {
    kind: PlanKind,
    /// Outcome of the cache query (`None` = cache disabled, no query).
    hit: Option<bool>,
    /// Eviction triggered by this task's insert: `(key, resident_after)`.
    evicted: Option<(u128, u64)>,
    /// Whether a hit was served by an entry loaded from a cache file
    /// (warm-start) rather than computed by this process.
    warm: bool,
}

/// The batch scheduling engine. Holds (or shares) the schedule cache,
/// which persists across [`Engine::run_batch`] calls. The cache is only
/// touched from the sequential plan/publish phases — never from worker
/// threads.
pub struct Engine {
    cfg: EngineConfig,
    cache: Option<Arc<SharedScheduleCache>>,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// Build an engine that owns its cache when `cfg.cache` is set: a
    /// [`SharedScheduleCache`] of `cfg.cache_capacity` entries.
    pub fn new(cfg: EngineConfig) -> Self {
        let cache = cfg
            .cache
            .then(|| Arc::new(SharedScheduleCache::new(cfg.cache_capacity)));
        Engine { cfg, cache }
    }

    /// Build an engine backed by a process-wide shared cache. The
    /// engine's own `cache`/`cache_capacity` knobs are ignored — the
    /// shared cache owns capacity and eviction.
    pub fn with_shared_cache(cfg: EngineConfig, cache: Arc<SharedScheduleCache>) -> Self {
        Engine {
            cfg,
            cache: Some(cache),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Schedule a whole corpus with Algorithm `Lookahead`.
    pub fn run_batch(&self, tasks: &[TraceTask], rec: &dyn Recorder) -> BatchReport {
        self.run_batch_with(tasks, rec, &lookahead_solver)
    }

    /// Schedule a corpus with Algorithm `Lookahead`, reusing the
    /// caller's scheduling context for the inline compute path.
    ///
    /// At `jobs <= 1` every task is computed on the caller's thread
    /// with `ctx`, so its analysis caches and scratch buffers stay warm
    /// across *batches* — the shape a long-lived service worker wants
    /// (one `SchedCtx` + `Engine` per worker, many batches). At
    /// `jobs > 1` the worker pool still owns one fresh context per
    /// thread and `ctx` is untouched.
    pub fn run_batch_ctx(
        &self,
        ctx: &mut SchedCtx,
        tasks: &[TraceTask],
        rec: &dyn Recorder,
    ) -> BatchReport {
        timed(rec, Pass::Engine, || {
            self.batch_inner(Some(ctx), tasks, rec, &lookahead_solver, None)
        })
    }

    /// Schedule a corpus with a caller-supplied solver (test seam for
    /// panic isolation and degradation).
    pub fn run_batch_with(
        &self,
        tasks: &[TraceTask],
        rec: &dyn Recorder,
        solver: &Solver,
    ) -> BatchReport {
        timed(rec, Pass::Engine, || {
            self.batch_inner(None, tasks, rec, solver, None)
        })
    }

    /// [`Engine::run_batch_ctx`] with span telemetry: opens one
    /// `"engine"` span under `scope` plus one `"task"` span per task,
    /// and attributes every cache/pass/task event to the task it
    /// belongs to.
    ///
    /// Span ids are drawn from `scope.alloc` **only in the sequential
    /// plan/emit phases**, in input order, so traces stay
    /// byte-identical across `jobs` settings (modulo `nanos` payloads,
    /// as ever). Task span durations are each task's measured compute
    /// time (0 for cache hits). With `scope: None` (or a disabled
    /// recorder) this is exactly [`Engine::run_batch_ctx`].
    pub fn run_batch_traced(
        &self,
        ctx: Option<&mut SchedCtx>,
        tasks: &[TraceTask],
        rec: &dyn Recorder,
        scope: Option<SpanScope<'_>>,
    ) -> BatchReport {
        let scope = if rec.enabled() { scope } else { None };
        let Some(scope) = scope else {
            return timed(rec, Pass::Engine, || {
                self.batch_inner(ctx, tasks, rec, &lookahead_solver, None)
            });
        };
        let engine_span = scope.alloc.next();
        record!(
            rec,
            Event::SpanStart {
                span: engine_span,
                parent: scope.parent,
                name: "engine",
            }
        );
        let report = timed_span(rec, Pass::Engine, Some(engine_span), || {
            self.batch_inner(
                ctx,
                tasks,
                rec,
                &lookahead_solver,
                Some((scope.alloc, engine_span)),
            )
        });
        record!(
            rec,
            Event::SpanEnd {
                span: engine_span,
                nanos: report.elapsed_nanos,
            }
        );
        report
    }

    fn batch_inner(
        &self,
        ctx: Option<&mut SchedCtx>,
        tasks: &[TraceTask],
        rec: &dyn Recorder,
        solver: &Solver,
        span_ctx: Option<(&SpanAlloc, SpanId)>,
    ) -> BatchReport {
        let start = Instant::now();
        let jobs = self.cfg.jobs.max(1);
        let mut report = BatchReport {
            jobs,
            ..BatchReport::default()
        };

        // Phase 1: sequential, deterministic cache plan.
        let mut plans: Vec<TaskPlan> = Vec::with_capacity(tasks.len());
        let mut fps: Vec<Option<Fingerprint>> = Vec::with_capacity(tasks.len());
        let mut compute: Vec<usize> = Vec::new(); // compute slot -> task index
        match &self.cache {
            Some(cache) => {
                // Within-batch duplicates alias *locally* (this map),
                // so slot indices always refer to this batch and no
                // batch ever waits on another's in-flight compute.
                let mut pending: HashMap<u128, usize> = HashMap::new();
                for (i, task) in tasks.iter().enumerate() {
                    let fp = fingerprint_task(&task.graph, &task.machine, &task.config);
                    let plan = if let Some(&slot) = pending.get(&fp.0) {
                        TaskPlan {
                            kind: PlanKind::Alias(slot),
                            hit: Some(true),
                            evicted: None,
                            warm: false,
                        }
                    } else {
                        match cache.plan(fp) {
                            SharedProbe::Hit { value, warm } => TaskPlan {
                                kind: PlanKind::Ready(value),
                                hit: Some(true),
                                evicted: None,
                                warm,
                            },
                            SharedProbe::Miss { evicted } => {
                                // An evicted placeholder no longer
                                // aliases: a later duplicate recomputes.
                                if let Some((key, _)) = evicted {
                                    pending.remove(&key);
                                }
                                pending.insert(fp.0, compute.len());
                                TaskPlan {
                                    kind: PlanKind::Compute(compute.len()),
                                    hit: Some(false),
                                    evicted,
                                    warm: false,
                                }
                            }
                        }
                    };
                    if matches!(plan.kind, PlanKind::Compute(_)) {
                        compute.push(i);
                    }
                    report.tally(&plan);
                    fps.push(Some(fp));
                    plans.push(plan);
                }
            }
            None => {
                for i in 0..tasks.len() {
                    plans.push(TaskPlan {
                        kind: PlanKind::Compute(compute.len()),
                        hit: None,
                        evicted: None,
                        warm: false,
                    });
                    compute.push(i);
                    fps.push(None);
                }
            }
        }

        // Phase 2: parallel compute over the planned-compute tasks.
        let capture = self.cfg.capture && rec.enabled();
        let values = self.run_pool(ctx, jobs, tasks, &compute, capture, solver);

        // Publish finished values so later batches can hit on them,
        // then snapshot residency for the report.
        if let Some(cache) = &self.cache {
            for (slot, &task_idx) in compute.iter().enumerate() {
                if let Some(fp) = fps[task_idx] {
                    cache.publish(fp, &values[slot].0);
                }
            }
            report.cache_resident = cache.resident();
            report.cache_capacity = cache.capacity();
        }

        // Phase 3: sequential emit in input order. Task span ids are
        // allocated here — one per task, in input order — so they are
        // identical whatever `jobs` was.
        for (i, (task, plan)) in tasks.iter().zip(&plans).enumerate() {
            let task_span = span_ctx.map(|(alloc, engine_span)| {
                let span = alloc.next();
                record!(
                    rec,
                    Event::SpanStart {
                        span,
                        parent: Some(engine_span),
                        name: "task",
                    }
                );
                span
            });
            if let (Some(fp), Some(hit)) = (fps[i], plan.hit) {
                record!(
                    rec,
                    Event::CacheQuery {
                        key: fp.0,
                        hit,
                        warm: plan.warm,
                        span: task_span,
                    }
                );
            }
            if let Some((key, resident)) = plan.evicted {
                record!(
                    rec,
                    Event::CacheEvict {
                        key,
                        resident,
                        span: task_span,
                    }
                );
            }
            let (value, from_cache) = match &plan.kind {
                PlanKind::Compute(slot) => {
                    BufferRecorder::replay(&values[*slot].1, rec, task_span);
                    (&values[*slot].0, false)
                }
                PlanKind::Alias(slot) => (&values[*slot].0, true),
                PlanKind::Ready(v) => (v, true),
            };
            // `degraded` wins over `from_cache`: the cache never stores
            // a degraded value, so only a within-batch alias carries one,
            // and it is the same fallback schedule as its original.
            let outcome = match (&value.result, value.degraded, from_cache) {
                (None, _, _) => TaskOutcome::Failed,
                (Some(_), true, _) => TaskOutcome::Degraded,
                (Some(_), false, true) => TaskOutcome::Cached,
                (Some(_), false, false) => TaskOutcome::Scheduled,
            };
            match outcome {
                TaskOutcome::Scheduled | TaskOutcome::Cached => {}
                TaskOutcome::Degraded => {
                    record!(
                        rec,
                        Event::Diagnostic {
                            severity: Severity::Warning,
                            code: "task_degraded",
                            message: &format!(
                                "task {i} ({}): {}; emitted the per-block rank schedule",
                                task.label,
                                value.error.as_deref().unwrap_or("scheduler failed"),
                            ),
                        }
                    );
                }
                TaskOutcome::Failed => {
                    record!(
                        rec,
                        Event::Diagnostic {
                            severity: Severity::Error,
                            code: "task_failed",
                            message: &format!(
                                "task {i} ({}): {}",
                                task.label,
                                value.error.as_deref().unwrap_or("scheduler failed"),
                            ),
                        }
                    );
                }
            }
            let makespan = value.result.as_ref().map_or(0, |r| r.makespan);
            record!(
                rec,
                Event::TaskDone {
                    task: i as u32,
                    outcome,
                    makespan,
                    span: task_span,
                }
            );
            if let Some(span) = task_span {
                // The task span's duration is the measured compute time
                // of its slot; cache hits did no work and report 0.
                let nanos = match &plan.kind {
                    PlanKind::Compute(slot) => values[*slot].2,
                    PlanKind::Alias(_) | PlanKind::Ready(_) => 0,
                };
                record!(rec, Event::SpanEnd { span, nanos });
            }
            match outcome {
                TaskOutcome::Scheduled => report.scheduled += 1,
                TaskOutcome::Cached => report.cached += 1,
                TaskOutcome::Degraded => report.degraded += 1,
                TaskOutcome::Failed => report.failed += 1,
            }
            report.tasks.push(TaskReport {
                index: i,
                label: task.label.clone(),
                fingerprint: fps[i],
                outcome,
                makespan,
                result: value.result.clone(),
                error: value.error.clone(),
            });
        }

        report.elapsed_nanos = start.elapsed().as_nanos() as u64;
        report
    }

    /// Run the compute-phase tasks, returning `(value, events)` per
    /// compute slot. `jobs <= 1` runs inline on the caller's thread —
    /// the exact same per-task code path the workers run.
    fn run_pool(
        &self,
        ctx: Option<&mut SchedCtx>,
        jobs: usize,
        tasks: &[TraceTask],
        compute: &[usize],
        capture: bool,
        solver: &Solver,
    ) -> Vec<Computed> {
        let budget = self.cfg.step_budget;
        if jobs <= 1 || compute.len() <= 1 {
            let mut fresh;
            let ctx = match ctx {
                Some(c) => c,
                None => {
                    fresh = SchedCtx::new();
                    &mut fresh
                }
            };
            return compute
                .iter()
                .map(|&i| solve_one(ctx, &tasks[i], budget, capture, solver))
                .collect();
        }
        let slots: Vec<Mutex<Option<Computed>>> =
            (0..compute.len()).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let workers = jobs.min(compute.len());
        std::thread::scope(|s| {
            for _ in 0..workers {
                // One scheduling context per worker thread: its analysis
                // cache and scratch buffers persist across every task
                // this worker pulls off the queue.
                s.spawn(|| {
                    let mut ctx = SchedCtx::new();
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed);
                        if slot >= compute.len() {
                            break;
                        }
                        let out =
                            solve_one(&mut ctx, &tasks[compute[slot]], budget, capture, solver);
                        *slots[slot].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every compute slot is filled before the scope ends")
            })
            .collect()
    }
}

/// A computed task value, the events buffered while computing it, and
/// the measured compute wall-clock in nanoseconds (the payload of the
/// task's `span_end` in traced runs).
type Computed = (Arc<TaskValue>, Vec<OwnedEvent>, u64);

/// The production solver: Algorithm `Lookahead` over the task's trace.
fn lookahead_solver(
    ctx: &mut SchedCtx,
    t: &TraceTask,
    cfg: &LookaheadConfig,
    r: &dyn Recorder,
) -> Result<TraceResult, CoreError> {
    schedule_trace(
        ctx,
        &t.graph,
        &t.machine,
        cfg,
        &SchedOpts::default().with_recorder(r),
    )
}

/// Solve one task under panic isolation, degrading to the per-block
/// Rank schedule on any failure.
fn solve_one(
    ctx: &mut SchedCtx,
    task: &TraceTask,
    budget: Option<u64>,
    capture: bool,
    solver: &Solver,
) -> Computed {
    let buf = BufferRecorder::new();
    let rec: &dyn Recorder = if capture { &buf } else { &NULL };
    let mut cfg = task.config;
    if cfg.step_budget.is_none() {
        cfg.step_budget = budget;
    }
    let start = Instant::now();
    let value = match catch_unwind(AssertUnwindSafe(|| solver(&mut *ctx, task, &cfg, rec))) {
        Ok(Ok(result)) => TaskValue {
            result: Some(result),
            degraded: false,
            error: None,
        },
        Ok(Err(err)) => degrade(ctx, task, err.to_string()),
        // `as_ref` matters: passing `&panic` would coerce the `Box`
        // itself to `dyn Any` and the message downcasts would miss.
        Err(panic) => degrade(ctx, task, panic_text(panic.as_ref())),
    };
    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (Arc::new(value), buf.into_events(), nanos)
}

/// The degradation path: the guaranteed-cheap per-block Rank schedule,
/// measured on the window model ([`per_block_fallback`]). Itself
/// panic-isolated — if even this fails the task is reported `Failed`,
/// never the whole batch.
fn degrade(ctx: &mut SchedCtx, task: &TraceTask, why: String) -> TaskValue {
    let delay = task.config.delay_idle_slots;
    let attempt = catch_unwind(AssertUnwindSafe(|| {
        per_block_fallback(&mut *ctx, &task.graph, &task.machine, delay)
    }));
    match attempt {
        Ok(Ok(result)) => TaskValue {
            result: Some(result),
            degraded: true,
            error: Some(why),
        },
        Ok(Err(err)) => TaskValue {
            result: None,
            degraded: true,
            error: Some(format!("{why}; rank fallback failed: {err}")),
        },
        Err(panic) => TaskValue {
            result: None,
            degraded: true,
            error: Some(format!(
                "{why}; rank fallback panicked: {}",
                panic_text(panic.as_ref())
            )),
        },
    }
}

fn panic_text(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".to_string()
    }
}
