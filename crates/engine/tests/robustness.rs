//! Robustness contract of the batch engine: panic isolation, step
//! budgets, graceful degradation, caching semantics and input-order
//! results.

use asched_core::{schedule_blocks_independent, schedule_trace, CoreError, SchedCtx, SchedOpts};
use asched_engine::{synth_corpus, Engine, EngineConfig, TaskOutcome, TraceTask};
use asched_graph::{BlockId, DepGraph, MachineModel};
use asched_obs::{JsonlRecorder, NULL};
use asched_workloads::{random_trace_dag, DagParams};

fn small_corpus(n: usize) -> Vec<TraceTask> {
    (0..n)
        .map(|i| {
            let g = random_trace_dag(&DagParams {
                nodes: 18,
                blocks: 3,
                seed: 1000 + i as u64,
                ..DagParams::default()
            });
            TraceTask::new(format!("t{i}"), g, MachineModel::single_unit(4))
        })
        .collect()
}

#[test]
fn panicking_tasks_degrade_without_aborting_the_batch() {
    let tasks = small_corpus(6);
    let engine = Engine::new(EngineConfig {
        jobs: 4,
        ..EngineConfig::default()
    });
    // A solver that panics on two specific tasks and defers to the real
    // scheduler otherwise.
    let report = engine.run_batch_with(&tasks, &NULL, &|ctx, t, cfg, rec| {
        if t.label == "t1" || t.label == "t4" {
            panic!("injected failure in {}", t.label);
        }
        schedule_trace(
            ctx,
            &t.graph,
            &t.machine,
            cfg,
            &SchedOpts::default().with_recorder(rec),
        )
    });

    assert_eq!(report.tasks.len(), 6);
    assert_eq!(report.degraded, 2);
    assert_eq!(report.scheduled, 4);
    assert_eq!(report.failed, 0);
    // Results come back in input order regardless of worker timing.
    for (i, t) in report.tasks.iter().enumerate() {
        assert_eq!(t.index, i);
        assert_eq!(t.label, format!("t{i}"));
    }
    // The degraded tasks carry the panic text and the per-block rank
    // schedule.
    let t1 = &report.tasks[1];
    assert_eq!(t1.outcome, TaskOutcome::Degraded);
    assert!(t1.error.as_deref().unwrap().contains("injected failure"));
    let fallback = schedule_blocks_independent(
        &mut SchedCtx::new(),
        &tasks[1].graph,
        &tasks[1].machine,
        true,
    )
    .unwrap();
    assert_eq!(t1.result.as_ref().unwrap().block_orders, fallback);
}

#[test]
fn step_budget_degrades_instead_of_failing() {
    let tasks = small_corpus(3);
    let engine = Engine::new(EngineConfig {
        step_budget: Some(1), // no merge fits in one step
        ..EngineConfig::default()
    });
    let report = engine.run_batch(&tasks, &NULL);
    assert_eq!(report.degraded, 3);
    for t in &report.tasks {
        assert!(t.result.is_some(), "degraded tasks still carry a schedule");
        assert!(t.error.as_deref().unwrap().contains("step budget"));
    }
}

#[test]
fn solver_errors_use_the_rank_fallback() {
    let tasks = small_corpus(2);
    let engine = Engine::default();
    let report = engine.run_batch_with(&tasks, &NULL, &|_, _, _, _| Err(CoreError::MergeFailed));
    assert_eq!(report.degraded, 2);
    assert!(report.tasks.iter().all(|t| t.result.is_some()));
}

#[test]
fn unschedulable_input_fails_that_task_only() {
    // A loop-independent dependence cycle defeats the fallback too.
    let mut cyclic = DepGraph::new();
    let a = cyclic.add_simple("a", BlockId(0));
    let b = cyclic.add_simple("b", BlockId(0));
    cyclic.add_dep(a, b, 1);
    cyclic.add_dep(b, a, 1);
    let mut tasks = small_corpus(2);
    tasks.insert(
        1,
        TraceTask::new("cyclic", cyclic, MachineModel::single_unit(2)),
    );

    // Route diagnostics into a JSONL buffer to check the event stream.
    let rec = JsonlRecorder::new(Vec::new());
    let report = Engine::default().run_batch(&tasks, &rec);
    assert_eq!(report.failed, 1);
    assert_eq!(report.scheduled, 2);
    assert_eq!(report.tasks[1].outcome, TaskOutcome::Failed);
    assert!(report.tasks[1].result.is_none());
    assert_eq!(report.tasks[1].makespan, 0);

    let log = String::from_utf8(rec.into_inner()).unwrap();
    assert!(log.contains(r#""code":"task_failed""#), "{log}");
    assert!(log.contains(r#""outcome":"failed""#), "{log}");
    // The batch is bracketed by the engine pass.
    assert!(
        log.contains(r#""ev":"pass_begin","pass":"engine""#),
        "{log}"
    );
}

#[test]
fn cache_serves_repeats_across_batches() {
    let tasks = small_corpus(4);
    let engine = Engine::new(EngineConfig {
        cache: true,
        cache_capacity: 64,
        ..EngineConfig::default()
    });
    let first = engine.run_batch(&tasks, &NULL);
    assert_eq!(first.cache_hits, 0);
    assert_eq!(first.cache_misses, 4);
    assert_eq!(first.scheduled, 4);

    let second = engine.run_batch(&tasks, &NULL);
    assert_eq!(second.cache_hits, 4);
    assert_eq!(second.cache_misses, 0);
    assert_eq!(second.cached, 4);
    for (a, b) in first.tasks.iter().zip(&second.tasks) {
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(
            a.result.as_ref().unwrap().block_orders,
            b.result.as_ref().unwrap().block_orders
        );
    }
}

#[test]
fn within_batch_duplicates_hit_and_capacity_evicts() {
    let mut tasks = small_corpus(2);
    tasks.push(tasks[0].clone()); // duplicate of task 0 in the same batch
    let engine = Engine::new(EngineConfig {
        cache: true,
        cache_capacity: 1,
        ..EngineConfig::default()
    });
    let rec = JsonlRecorder::new(Vec::new());
    let report = engine.run_batch(&tasks, &rec);
    // Task 1 evicted task 0's entry, so the duplicate still hits only
    // via... it cannot: capacity 1 evicted it. Misses: t0, t1, t2.
    assert_eq!(report.cache_misses, 3);
    assert!(report.cache_evictions >= 2);
    let log = String::from_utf8(rec.into_inner()).unwrap();
    assert!(log.contains(r#""ev":"cache_evict""#), "{log}");

    // With room for both, the duplicate aliases task 0's computation.
    let roomy = Engine::new(EngineConfig {
        cache: true,
        cache_capacity: 16,
        ..EngineConfig::default()
    });
    let report = roomy.run_batch(&tasks, &NULL);
    assert_eq!(report.cache_hits, 1);
    assert_eq!(report.cached, 1);
    assert_eq!(report.tasks[2].outcome, TaskOutcome::Cached);
    assert_eq!(
        report.tasks[0].result.as_ref().unwrap().block_orders,
        report.tasks[2].result.as_ref().unwrap().block_orders
    );
}

/// One task whose own step budget is too small for any merge.
fn starved_task() -> TraceTask {
    let mut task = small_corpus(1).remove(0);
    task.config.step_budget = Some(1);
    task
}

#[test]
fn degraded_schedules_never_cross_batches() {
    let engine = Engine::new(EngineConfig {
        cache: true,
        ..EngineConfig::default()
    });
    let first = engine.run_batch(&[starved_task()], &NULL);
    assert_eq!(first.tasks[0].outcome, TaskOutcome::Degraded);

    // Same graph, no budget. The fingerprint ignores step budgets, so
    // only the cache's refusal to store degraded values keeps the
    // fallback from being served here.
    let second = engine.run_batch(&small_corpus(1), &NULL);
    assert_eq!(second.tasks[0].outcome, TaskOutcome::Scheduled);
    assert_eq!(second.tasks[0].error, None);
}

#[test]
fn within_batch_duplicates_of_a_degraded_task_report_degraded() {
    let tasks = vec![starved_task(), starved_task()];
    let engine = Engine::new(EngineConfig {
        cache: true,
        ..EngineConfig::default()
    });
    let report = engine.run_batch(&tasks, &NULL);
    let outcomes: Vec<_> = report.tasks.iter().map(|t| t.outcome).collect();
    assert_eq!(outcomes, [TaskOutcome::Degraded, TaskOutcome::Degraded]);
    assert_eq!((report.degraded, report.cached), (2, 0));
    // The duplicate still aliased the first task's computation.
    assert_eq!(report.cache_hits, 1);
}

#[test]
fn parallel_equals_sequential_on_a_synth_corpus() {
    let tasks = synth_corpus(48, 7);
    let seq = Engine::new(EngineConfig {
        jobs: 1,
        cache: true,
        ..EngineConfig::default()
    })
    .run_batch(&tasks, &NULL);
    let par = Engine::new(EngineConfig {
        jobs: 8,
        cache: true,
        ..EngineConfig::default()
    })
    .run_batch(&tasks, &NULL);
    assert_eq!(seq.metrics(), par.metrics());
    for (a, b) in seq.tasks.iter().zip(&par.tasks) {
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(
            a.result.as_ref().map(|r| &r.block_orders),
            b.result.as_ref().map(|r| &r.block_orders)
        );
    }
}
