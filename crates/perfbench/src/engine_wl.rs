//! `batch-paper` and `trace-large`: task streams through one long-lived
//! engine (`jobs: 1`) on the caller's thread.

use std::ops::Range;
use std::time::{Duration, Instant};

use asched_engine::{BatchReport, Engine, EngineConfig, TaskOutcome};
use asched_graph::{NodeId, SchedCtx};
use asched_obs::{ProfileRecorder, Recorder, NULL};

use crate::check::{check_schedule, Quality};
use crate::gen::TaskStream;
use crate::layers::Layers;
use crate::stats::{median, percentile, ratio, Report};

fn engine(s: &TaskStream, capture: bool) -> Engine {
    Engine::new(EngineConfig {
        jobs: 1,
        cache: true,
        cache_capacity: s.cache_capacity,
        step_budget: None,
        capture,
    })
}

/// The first schedule seen for each distinct trace; every later
/// schedule of that trace must equal it.
struct Refs {
    first: Vec<Option<(u64, Vec<Vec<NodeId>>)>>,
    /// Times each distinct trace was scheduled or served.
    seen: Vec<u64>,
    attempted: u64,
    failed: u64,
}

impl Refs {
    fn new(distinct: usize) -> Self {
        Refs {
            first: vec![None; distinct],
            seen: vec![0; distinct],
            attempted: 0,
            failed: 0,
        }
    }

    fn absorb(&mut self, ids: &[usize], report: &BatchReport) {
        for (&d, t) in ids.iter().zip(&report.tasks) {
            self.attempted += 1;
            self.seen[d] += 1;
            let ok = matches!(t.outcome, TaskOutcome::Scheduled | TaskOutcome::Cached);
            match (&t.result, &self.first[d]) {
                (Some(r), None) if ok => self.first[d] = Some((r.makespan, r.block_orders.clone())),
                (Some(r), Some((m, orders))) if ok => {
                    if *m != r.makespan || *orders != r.block_orders {
                        self.failed += 1;
                    }
                }
                _ => self.failed += 1,
            }
        }
    }
}

/// Run stream slots `range` (batch-aligned) through `engine`, pushing
/// each call's latency in ms onto `lat`.
fn run_slots(
    s: &TaskStream,
    engine: &Engine,
    ctx: &mut SchedCtx,
    rec: &dyn Recorder,
    range: Range<usize>,
    lat: &mut Vec<f64>,
    mut sink: impl FnMut(&[usize], &BatchReport),
) {
    for start in range.step_by(s.batch) {
        let slots = start..start + s.batch;
        let t0 = Instant::now();
        let report = engine.run_batch_ctx(ctx, &s.tasks[slots.clone()], rec);
        lat.push(t0.elapsed().as_secs_f64() * 1e3);
        sink(&s.ids[slots], &report);
    }
}

struct Setup {
    stream: TaskStream,
    engine: Engine,
    ctx: SchedCtx,
    refs: Refs,
}

/// Input generation, engine start and the untimed warm-up pass.
fn setup(make: fn(u64) -> TaskStream, seed: u64) -> Setup {
    let stream = make(seed);
    let engine = engine(&stream, false);
    let mut ctx = SchedCtx::new();
    let mut refs = Refs::new(stream.distinct);
    let warmup = 0..stream.warmup_slots;
    run_slots(
        &stream,
        &engine,
        &mut ctx,
        &NULL,
        warmup,
        &mut Vec::new(),
        |ids, r| refs.absorb(ids, r),
    );
    Setup {
        stream,
        engine,
        ctx,
        refs,
    }
}

pub fn run(make: fn(u64) -> TaskStream, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::default();
    // Set up three times; report the median and keep the last.
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup(make, seed));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let Setup {
        stream: s,
        engine,
        mut ctx,
        mut refs,
    } = last.expect("set up above");

    // The timed window: one busy thread, wrapping around the stream.
    let cycle = s.tasks.len();
    let mut next = s.warmup_slots % cycle;
    let mut lat = Vec::new();
    let mut tasks = 0u64;
    let window = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    while t0.elapsed() < window {
        let end = next + s.batch;
        run_slots(
            &s,
            &engine,
            &mut ctx,
            &NULL,
            next..end,
            &mut lat,
            |ids, r| refs.absorb(ids, r),
        );
        tasks += s.batch as u64;
        next = end % cycle;
    }
    let elapsed = t0.elapsed().as_secs_f64();

    // Every distinct trace gets a checked schedule, so the quality
    // figure covers the same set whatever the window reached.
    let first = s.first_slots();
    for (d, &slot) in first.iter().enumerate() {
        if refs.first[d].is_none() {
            let r = engine.run_batch_ctx(&mut ctx, &s.tasks[slot..slot + 1], &NULL);
            refs.absorb(&s.ids[slot..slot + 1], &r);
        }
    }
    let mut quality = Quality::default();
    for (d, &slot) in first.iter().enumerate() {
        let Some((makespan, orders)) = &refs.first[d] else {
            continue; // already counted as failed
        };
        let t = &s.tasks[slot];
        match check_schedule(&mut ctx, &t.graph, &t.machine, *makespan, orders) {
            Ok(bound) => quality.add(*makespan, bound),
            Err(e) => {
                report.failed += refs.seen[d];
                report.check_errors.push(format!("{}: {e}", t.label));
            }
        }
    }
    report.attempted += refs.attempted;
    report.failed += refs.failed;

    let calls = lat.len() as u64;
    report.metric("throughput_per_s", "1/s", tasks as f64 / elapsed, tasks);
    report.metric("latency_p50_ms", "ms", median(&lat), calls);
    report.metric("latency_p99_ms", "ms", percentile(&lat, 99.0), calls);
    report.metric(
        "cycles_over_bound",
        "ratio",
        quality.cycles_over_bound(),
        quality.traces,
    );
    report.metric("peak_rss_mb", "MB", crate::stats::peak_rss_mb(), 1);
    report.metric("setup_s", "s", median(&setup_s), setup_s.len() as u64);

    if traced {
        let slots = 0..s.traced_slots;
        let layers = traced_layers(&s, &mut ctx, slots, &refs, seed, &mut report);
        report.metrics.clear();
        layers.into_report(&mut report);
    }
    report
}

/// The traced run's extra passes over the first `slots` of the stream,
/// each on a fresh engine: untraced, traced, untraced, traced. The two
/// traced passes must agree on every deterministic count, and all four
/// must reproduce the untraced window's schedules.
fn traced_layers(
    s: &TaskStream,
    ctx: &mut SchedCtx,
    slots: Range<usize>,
    refs: &Refs,
    seed: u64,
    report: &mut Report,
) -> Layers {
    let tasks = slots.len() as u64;
    let mut untraced_s = 0.0;
    let mut traced_s = 0.0;
    let mut passes: Vec<Layers> = Vec::new();
    for traced in [false, true, false, true] {
        let prof = ProfileRecorder::new();
        let rec: &dyn Recorder = if traced { &prof } else { &NULL };
        let engine = engine(s, traced);
        let mut mismatches = 0;
        let t0 = Instant::now();
        run_slots(
            s,
            &engine,
            ctx,
            rec,
            slots.clone(),
            &mut Vec::new(),
            |ids, r| {
                for (&d, t) in ids.iter().zip(&r.tasks) {
                    let want = refs.first[d].as_ref().map(|f| f.0);
                    if t.result.as_ref().map(|r| r.makespan) != want {
                        mismatches += 1;
                    }
                }
            },
        );
        let secs = t0.elapsed().as_secs_f64();
        if mismatches > 0 {
            report.check_errors.push(format!(
                "{mismatches} schedules of the {} pass differ from the untraced window",
                if traced { "traced" } else { "untraced" }
            ));
        }
        if traced {
            traced_s += secs;
            let mut l = Layers::default();
            l.absorb_profile(&prof.into_profile(), tasks);
            passes.push(l);
        } else {
            untraced_s += secs;
        }
    }
    let mut layers = passes[0].clone();
    if passes[0].deterministic() != passes[1].deterministic() {
        report.check_errors.push(format!(
            "traced passes disagree: {:?} vs {:?}",
            passes[0].deterministic(),
            passes[1].deterministic()
        ));
    }
    layers.set("obs.trace_overhead", ratio(untraced_s, traced_s), 2 * tasks);

    let first = s.first_slots();
    let probe: Vec<_> = (0..s.probe_traces).map(|d| &s.tasks[first[d]]).collect();
    layers.probe_traces(ctx, &probe);
    layers.probe_compute_ranks(ctx, seed);
    layers
}
