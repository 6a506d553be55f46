//! Satellite: engine output is byte-identical for `jobs = 1` vs
//! `jobs = 8` over a seeded `random_prog` corpus — results, JSONL
//! events (modulo `pass_end` timestamps) and deterministic BENCH
//! metrics — both with room for every fingerprint and with a cache so
//! small that planning evicts. The same contract holds when the engine
//! is attached to a [`SharedScheduleCache`], and results (though not
//! hit/miss labels) are identical whichever cache backs the engine.

use std::collections::HashSet;
use std::sync::Arc;

use asched_engine::{
    synth_corpus, BatchReport, Engine, EngineConfig, SharedScheduleCache, TraceTask,
};
use asched_graph::MachineModel;
use asched_ir::{build_trace_graph, LatencyModel};
use asched_obs::{JsonlRecorder, SpanAlloc, SpanScope};
use asched_trace::Trace;
use asched_workloads::{random_program, ProgParams};

/// A seeded random_prog corpus with deliberate duplicates (seeds wrap
/// modulo 7, windows modulo 3: 21 distinct fingerprints, each repeat 21
/// tasks after its first) so the cache path is exercised too.
fn prog_corpus() -> Vec<TraceTask> {
    let mut tasks = Vec::new();
    for i in 0..40u64 {
        let seed = 9000 + i % 7;
        let w = [2, 4, 8][(i % 3) as usize];
        let prog = random_program(&ProgParams {
            blocks: 3,
            insts_per_block: 8,
            with_branches: false,
            seed,
            ..ProgParams::default()
        });
        let g = build_trace_graph(&prog, &LatencyModel::fig3());
        tasks.push(TraceTask::new(
            format!("prog:{seed}:w{w}"),
            g,
            MachineModel::single_unit(w),
        ));
    }
    tasks
}

/// Zero out every `"nanos":N` payload — the only nondeterministic field
/// in the event stream (wall-clock span durations on `pass_end`).
fn normalize_nanos(log: &str) -> String {
    let mut out = String::with_capacity(log.len());
    let mut rest = log;
    const KEY: &str = "\"nanos\":";
    while let Some(at) = rest.find(KEY) {
        let (head, tail) = rest.split_at(at + KEY.len());
        out.push_str(head);
        out.push('0');
        rest = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

/// Room for all 21 distinct fingerprints: repeats hit.
const ROOMY: usize = 256;
/// Far fewer entries than fingerprints: every entry is evicted before
/// its repeat arrives, so the plan phase evicts and must drop evicted
/// placeholders from its batch-local alias map.
const TIGHT: usize = 4;

fn run(jobs: usize, capacity: usize, tasks: &[TraceTask]) -> (BatchReport, String) {
    let engine = Engine::new(EngineConfig {
        jobs,
        cache: true,
        cache_capacity: capacity,
        ..EngineConfig::default()
    });
    let rec = JsonlRecorder::new(Vec::new());
    let report = engine.run_batch(tasks, &rec);
    let log = String::from_utf8(rec.into_inner()).unwrap();
    (report, log)
}

/// The cache must actually fire for a run to mean anything: repeats
/// hit in the roomy cache, and the tight one evicts.
fn assert_cache_exercised(report: &BatchReport, capacity: usize) {
    if capacity == TIGHT {
        assert!(report.cache_evictions > 0, "tight cache must evict");
    } else {
        assert!(report.cache_hits > 0, "corpus must exercise the cache");
    }
}

#[test]
fn jobs_1_and_jobs_8_are_byte_identical() {
    let tasks = prog_corpus();
    for capacity in [ROOMY, TIGHT] {
        let (seq, seq_log) = run(1, capacity, &tasks);
        let (par, par_log) = run(8, capacity, &tasks);

        // Results: outcome, makespan, fingerprint and emitted code
        // agree task by task, in input order.
        assert_eq!(seq.tasks.len(), par.tasks.len());
        for (a, b) in seq.tasks.iter().zip(&par.tasks) {
            assert_eq!(a.index, b.index);
            assert_eq!(a.label, b.label);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.makespan, b.makespan);
            assert_eq!(a.fingerprint, b.fingerprint);
            let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(ra.block_orders, rb.block_orders);
            assert_eq!(ra.permutation, rb.permutation);
        }
        assert_cache_exercised(&seq, capacity);
        assert!(seq.scheduled > 0);

        // Deterministic BENCH metrics are identical...
        assert_eq!(seq.metrics(), par.metrics(), "capacity {capacity}");
        // ...and the full JSONL event stream is byte-identical once the
        // wall-clock payloads are zeroed.
        assert_eq!(normalize_nanos(&seq_log), normalize_nanos(&par_log));

        // Both logs validate against the documented schema.
        asched_obs::schema::validate_document(&seq_log)
            .unwrap_or_else(|(line, err)| panic!("line {line}: {err}"));
    }
}

fn run_shared(jobs: usize, capacity: usize, tasks: &[TraceTask]) -> (BatchReport, String) {
    let engine = Engine::with_shared_cache(
        EngineConfig {
            jobs,
            ..EngineConfig::default()
        },
        Arc::new(SharedScheduleCache::new(capacity)),
    );
    let rec = JsonlRecorder::new(Vec::new());
    let report = engine.run_batch(tasks, &rec);
    let log = String::from_utf8(rec.into_inner()).unwrap();
    (report, log)
}

/// The determinism contract survives the shared cache: with a fresh
/// shared cache per run, results, deterministic metrics and the event
/// stream are byte-identical at any job count — every cache decision
/// still happens in the sequential plan phase.
#[test]
fn shared_cache_is_byte_identical_across_jobs() {
    let tasks = prog_corpus();
    for capacity in [ROOMY, TIGHT] {
        let (seq, seq_log) = run_shared(1, capacity, &tasks);
        let (par, par_log) = run_shared(8, capacity, &tasks);

        assert_eq!(seq.tasks.len(), par.tasks.len());
        for (a, b) in seq.tasks.iter().zip(&par.tasks) {
            assert_eq!(a.outcome, b.outcome, "{}", a.label);
            assert_eq!(a.makespan, b.makespan);
            assert_eq!(a.fingerprint, b.fingerprint);
        }
        assert_cache_exercised(&seq, capacity);
        assert_eq!(seq.metrics(), par.metrics(), "capacity {capacity}");
        assert_eq!(normalize_nanos(&seq_log), normalize_nanos(&par_log));

        asched_obs::schema::validate_document(&seq_log)
            .unwrap_or_else(|(line, err)| panic!("line {line}: {err}"));
    }
}

/// Task results are a pure function of the corpus whatever cache backs
/// the engine — its own, an attached one, or none — and the engine's
/// own cache is a cache of `cache_capacity` entries, so an attached
/// one like it gives the same counters.
#[test]
fn results_agree_across_cache_backends() {
    let tasks = prog_corpus();
    let (owned, _) = run(1, ROOMY, &tasks);
    let (shared, _) = run_shared(1, ROOMY, &tasks);
    let uncached = Engine::new(EngineConfig {
        jobs: 1,
        cache: false,
        ..EngineConfig::default()
    })
    .run_batch(&tasks, &asched_obs::NULL);

    for ((a, b), d) in owned.tasks.iter().zip(&shared.tasks).zip(&uncached.tasks) {
        assert_eq!(a.makespan, b.makespan, "{}", a.label);
        assert_eq!(a.makespan, d.makespan, "{}", a.label);
        assert_eq!(a.fingerprint, b.fingerprint);
        // Outcome labels differ by design (cached engines report
        // Cached for duplicates; the uncached engine recomputes), and
        // the uncached engine never fingerprints — but the schedule
        // itself must be the same bytes everywhere.
        let (ra, rb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
        let rd = d.result.as_ref().unwrap();
        assert_eq!(ra.permutation, rb.permutation);
        assert_eq!(ra.permutation, rd.permutation);
        assert_eq!(ra.block_orders, rb.block_orders);
        assert_eq!(ra.block_orders, rd.block_orders);
    }

    // Same capacity → the engine's own cache's counters.
    assert_eq!(owned.metrics(), shared.metrics());
}

/// An attached cache holds exactly its capacity: on the batch CLI's
/// `--synth 500 --seed 42` corpus, 300 entries hold every distinct
/// fingerprint, so an attached cache of 300 reports what the engine's
/// own does — each distinct task misses once, nothing is evicted.
#[test]
fn an_attached_cache_holds_its_whole_capacity() {
    let tasks = synth_corpus(500, 42);
    let (owned, _) = run(1, 300, &tasks);
    let (shared, _) = run_shared(1, 300, &tasks);
    assert_eq!(owned.metrics(), shared.metrics());
    for (a, b) in owned.tasks.iter().zip(&shared.tasks) {
        assert_eq!(a.outcome, b.outcome, "{}", a.label);
        assert_eq!(a.makespan, b.makespan, "{}", a.label);
        assert_eq!(a.fingerprint, b.fingerprint);
    }
    let distinct: HashSet<_> = shared.tasks.iter().map(|t| t.fingerprint).collect();
    assert!(distinct.len() <= 300);
    assert_eq!(shared.cache_misses, distinct.len() as u64);
    assert_eq!(shared.cache_hits, (tasks.len() - distinct.len()) as u64);
    assert_eq!(shared.cache_evictions, 0);
    assert_eq!(shared.cache_capacity, 300);
}

fn run_traced(jobs: usize, tasks: &[TraceTask]) -> (BatchReport, String) {
    let engine = Engine::new(EngineConfig {
        jobs,
        cache: true,
        cache_capacity: ROOMY,
        ..EngineConfig::default()
    });
    let rec = JsonlRecorder::new(Vec::new());
    let spans = SpanAlloc::new();
    let report = engine.run_batch_traced(None, tasks, &rec, Some(SpanScope::root(&spans)));
    let log = String::from_utf8(rec.into_inner()).unwrap();
    (report, log)
}

/// The traced batch path allocates span ids only in the engine's
/// sequential plan/emit phases, so the *span forest* — ids, parents,
/// names, attribution — must also be byte-identical across job counts.
#[test]
fn traced_spans_are_byte_identical_across_jobs() {
    let tasks = prog_corpus();
    let (seq, seq_log) = run_traced(1, &tasks);
    let (par, par_log) = run_traced(8, &tasks);

    assert_eq!(seq.metrics(), par.metrics());
    assert_eq!(normalize_nanos(&seq_log), normalize_nanos(&par_log));

    // One "engine" root with one "task" span per task, all closed, no
    // orphans — checked by rebuilding the span forest.
    let forest = Trace::parse(&seq_log);
    assert_eq!(forest.spans.len(), 1 + tasks.len());
    assert_eq!(forest.roots.len(), 1);
    assert!(forest.orphans.is_empty(), "{:?}", forest.orphans);
    assert!(forest.unclosed.is_empty(), "{:?}", forest.unclosed);
    asched_obs::schema::validate_document(&seq_log)
        .unwrap_or_else(|(line, err)| panic!("line {line}: {err}"));

    // Every cache query and task_done is attributed to a task span.
    for line in seq_log.lines() {
        if line.contains("\"ev\":\"cache_query\"") || line.contains("\"ev\":\"task_done\"") {
            assert!(line.contains("\"span\":"), "unattributed event: {line}");
        }
    }
}
