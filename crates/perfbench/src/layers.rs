//! Per-layer metrics of the traced run: direct, timed calls into each
//! layer's public functions from this crate, plus the work counters and
//! pass timers `asched-obs` already aggregates into a `RunProfile`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

use asched_core::schedule_trace;
use asched_engine::{fingerprint_task, TraceTask};
use asched_graph::validate::validate_schedule;
use asched_graph::{makespan_lower_bound, SchedCtx, SchedOpts};
use asched_obs::{Event, ProfileRecorder, Recorder, RunProfile};
use asched_rank::{compute_ranks, Deadlines};
use asched_sim::{simulate, InstStream, IssuePolicy};

use crate::stats::{median, percentile, ratio, Rng};

/// Every per-layer metric, in report order, with its unit. A workload
/// that never enters a layer reports 0 for it (`serve.*` and `ir.*`
/// outside serve-hot; the scheduler counters on serve-hot, where every
/// request is a cache hit).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.transport_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.response_bytes", "bytes"),
    ("serve.connects_per_request", "ratio"),
    ("ir.parse_us", "us"),
    ("ir.deps_us", "us"),
    ("engine.hit_rate", "ratio"),
    ("engine.evictions", "count"),
    ("engine.fingerprint_us", "us"),
    ("engine.overhead_us", "us"),
    ("core.schedule_trace_us_p50", "us"),
    ("core.schedule_trace_us_p99", "us"),
    ("core.merge_us", "us"),
    ("core.delay_idle_slots_us", "us"),
    ("core.chop_us", "us"),
    ("core.self_us", "us"),
    ("core.merge_probes_per_trace", "count"),
    ("core.merge_probe_yield", "ratio"),
    ("rank.runs_per_trace", "count"),
    ("rank.infeasible_ratio", "ratio"),
    ("rank.ns_per_run", "ns"),
    ("rank.idle_moves_per_trace", "count"),
    ("rank.idle_move_yield", "ratio"),
    ("rank.compute_ranks_us.64", "us"),
    ("rank.compute_ranks_us.128", "us"),
    ("rank.compute_ranks_us.256", "us"),
    ("sim.simulate_us", "us"),
    ("sim.stall_data_wait_per_trace", "count"),
    ("sim.stall_head_blocked_per_trace", "count"),
    ("graph.lower_bound_us", "us"),
    ("graph.validate_us", "us"),
    ("obs.trace_overhead", "ratio"),
];

/// Counts that are a pure function of the inputs: the two traced passes
/// must agree on them exactly.
pub const DETERMINISTIC: &[&str] = &[
    "engine.hit_rate",
    "engine.evictions",
    "core.merge_probes_per_trace",
    "core.merge_probe_yield",
    "rank.runs_per_trace",
    "rank.infeasible_ratio",
    "rank.idle_moves_per_trace",
    "rank.idle_move_yield",
    "serve.connects_per_request",
];

/// Per-layer values gathered by a traced run: name → (value, samples).
#[derive(Default, Clone)]
pub struct Layers(BTreeMap<&'static str, (f64, u64)>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.0.insert(name, (value, samples));
    }

    /// Values of the deterministic counts, for the self-check.
    pub fn deterministic(&self) -> Vec<(&'static str, f64)> {
        DETERMINISTIC
            .iter()
            .filter_map(|n| self.0.get(n).map(|v| (*n, v.0)))
            .collect()
    }

    pub fn into_report(self, report: &mut crate::stats::Report) {
        for &(name, unit) in PER_LAYER {
            let (value, samples) = self.0.get(name).copied().unwrap_or((0.0, 0));
            report.metric(name, unit, value, samples);
        }
    }

    /// The engine, core and rank numbers of a traced engine pass:
    /// `tasks` engine tasks were recorded into `p`.
    pub fn absorb_profile(&mut self, p: &RunProfile, tasks: u64) {
        let pass = |n: &str| p.pass_nanos.get(n).copied().unwrap_or(0) as f64;
        let c = |n: &str| p.counter(n) as f64;
        let traces = p.pass_calls.get("schedule_trace").copied().unwrap_or(0);
        let per_trace = |v: f64| ratio(v, traces as f64);
        let us_per_trace = |v: f64| per_trace(v) / 1e3;
        self.set(
            "engine.hit_rate",
            ratio(c("cache_hits"), c("cache_queries")),
            p.counter("cache_queries"),
        );
        self.set("engine.evictions", c("cache_evictions"), tasks);
        self.set(
            "engine.overhead_us",
            ratio(pass("engine") - pass("schedule_trace"), tasks as f64) / 1e3,
            tasks,
        );
        self.set("core.merge_us", us_per_trace(pass("merge")), traces);
        self.set(
            "core.delay_idle_slots_us",
            us_per_trace(pass("delay_idle_slots")),
            traces,
        );
        self.set("core.chop_us", us_per_trace(pass("chop")), traces);
        let children = pass("merge") + pass("delay_idle_slots") + pass("chop") + pass("simulate");
        self.set(
            "core.self_us",
            us_per_trace(pass("schedule_trace") - children),
            traces,
        );
        self.set(
            "core.merge_probes_per_trace",
            per_trace(c("merge_probes")),
            traces,
        );
        self.set(
            "core.merge_probe_yield",
            ratio(c("merge_probes_feasible"), c("merge_probes")),
            p.counter("merge_probes"),
        );
        self.set("rank.runs_per_trace", per_trace(c("rank_runs")), traces);
        self.set(
            "rank.infeasible_ratio",
            ratio(c("rank_infeasible"), c("rank_runs")),
            p.counter("rank_runs"),
        );
        self.set(
            "rank.ns_per_run",
            ratio(pass("rank"), c("rank_runs")),
            p.counter("rank_runs"),
        );
        self.set(
            "rank.idle_moves_per_trace",
            per_trace(c("idle_moves_attempted")),
            traces,
        );
        self.set(
            "rank.idle_move_yield",
            ratio(c("idle_moves_applied"), c("idle_moves_attempted")),
            p.counter("idle_moves_attempted"),
        );
    }

    /// Time the graph, core, sim and engine entry points on each probe
    /// trace, one direct call each on a warm context.
    pub fn probe_traces(&mut self, ctx: &mut SchedCtx, tasks: &[&TraceTask]) {
        let n = tasks.len() as u64;
        let (mut fp, mut sched, mut bound, mut valid, mut sim) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let stalls = ProfileRecorder::new();
        for t in tasks {
            let (g, m) = (&t.graph, &t.machine);
            let all = g.all_nodes();
            fp.push(time_us(|| fingerprint_task(g, m, &t.config)).0);
            let (us, r) = time_us(|| schedule_trace(ctx, g, m, &t.config, &SchedOpts::default()));
            sched.push(us);
            let r = r.expect("probe trace schedules");
            bound.push(time_us(|| makespan_lower_bound(ctx, g, &all, m)).0);
            valid.push(time_us(|| validate_schedule(g, &all, m, &r.predicted, None)).0);
            let stream = InstStream::from_blocks(&r.block_orders);
            let run = |ctx: &mut SchedCtx, rec: &dyn Recorder| {
                let opts = SchedOpts::default().with_recorder(rec);
                simulate(ctx, g, m, &stream, IssuePolicy::Strict, &opts)
            };
            sim.push(time_us(|| run(ctx, &asched_obs::NULL)).0);
            run(ctx, &stalls);
        }
        let stalls = stalls.into_profile();
        let per_trace = |name: &str| ratio(stalls.counter(name) as f64, n as f64);
        self.set("engine.fingerprint_us", median(&fp), n);
        self.set("core.schedule_trace_us_p50", median(&sched), n);
        self.set("core.schedule_trace_us_p99", percentile(&sched, 99.0), n);
        self.set("graph.lower_bound_us", median(&bound), n);
        self.set("graph.validate_us", median(&valid), n);
        self.set("sim.simulate_us", median(&sim), n);
        self.set(
            "sim.stall_data_wait_per_trace",
            per_trace("stall_cycles_data_wait"),
            n,
        );
        self.set(
            "sim.stall_head_blocked_per_trace",
            per_trace("stall_cycles_head_blocked"),
            n,
        );
    }

    /// One warm `compute_ranks` over a whole trace-large-shaped trace of
    /// 64, 128 and 256 nodes (median of repeated calls). The probe
    /// traces are the same for every workload.
    pub fn probe_compute_ranks(&mut self, ctx: &mut SchedCtx, seed: u64) {
        const REPS: usize = 64;
        let mut rng = Rng::new(seed, 5);
        for (name, nodes) in [
            ("rank.compute_ranks_us.64", 64),
            ("rank.compute_ranks_us.128", 128),
            ("rank.compute_ranks_us.256", 256),
        ] {
            let t = crate::gen::large_task(String::new(), nodes, 4, rng.next_u64());
            let (g, m) = (&t.graph, &t.machine);
            let all = g.all_nodes();
            let d = Deadlines::unbounded(g, &all);
            let opts = SchedOpts::default();
            let mut samples = Vec::with_capacity(REPS);
            for _ in 0..=REPS {
                let (us, r) = time_us(|| compute_ranks(ctx, g, &all, m, &d, &opts).map(|r| r[0]));
                r.expect("unbounded deadlines are feasible");
                samples.push(us);
            }
            // The first call fills the analysis cache; time warm calls.
            self.set(name, median(&samples[1..]), REPS as u64);
        }
    }
}

/// Run `f` once, returning its wall time in µs and its result.
pub fn time_us<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let r = black_box(f());
    (start.elapsed().as_secs_f64() * 1e6, r)
}

/// A thread-safe `RunProfile` sink, for the in-process server (which
/// needs a `Send + Sync` recorder; `ProfileRecorder` is single-thread).
#[derive(Default)]
pub struct SharedProfile(Mutex<RunProfile>);

impl SharedProfile {
    /// Take the profile gathered so far, leaving an empty one.
    pub fn take(&self) -> RunProfile {
        std::mem::take(&mut *self.0.lock().expect("profile lock poisoned"))
    }
}

impl Recorder for SharedProfile {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event<'_>) {
        self.0.lock().expect("profile lock poisoned").absorb(event);
    }
}
