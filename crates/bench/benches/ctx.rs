//! Context-reuse benchmarks: cold (fresh [`SchedCtx`] per call) versus
//! warm (one context reused) across graph sizes, for the rank kernel
//! and the full trace scheduler.
//!
//! The warm path serves the topo order, descendant bitsets and
//! successor lists from the analysis cache and recycles every scratch
//! buffer, so after the first call it runs allocation-free (see
//! `crates/rank/tests/zero_alloc.rs` for the allocator-level proof).
//!
//! Besides the criterion timings, the harness writes a
//! `BENCH_ctx.json` snapshot with the cold/warm medians and speedups
//! under the `ctx.*` metric namespace, so the context-reuse trajectory
//! is tracked across PRs exactly like the experiment cycle counts.

use asched_core::{merge, schedule_trace, LookaheadConfig};
use asched_graph::{BlockId, DepGraph, MachineModel, SchedCtx, SchedOpts};
use asched_rank::{compute_ranks, Deadlines};
use asched_workloads::{random_trace_dag, DagParams};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::{Duration, Instant};

/// The sizes the issue tracks (64/256/1024) plus the 512-node point the
/// acceptance gate measures.
const SIZES: [usize; 4] = [64, 256, 512, 1024];

fn quick() -> Criterion {
    Criterion::default()
        .sample_size(15)
        .warm_up_time(Duration::from_millis(150))
        .measurement_time(Duration::from_millis(500))
}

/// A paper-shaped trace: many small basic blocks (~8 instructions,
/// the realistic block size) with light cross-block coupling. Small
/// blocks keep descendant sets short, so the per-call backward pass is
/// cheap and the cold/warm gap isolates the cached analyses.
fn workload(nodes: usize) -> DepGraph {
    random_trace_dag(&DagParams {
        nodes,
        blocks: (nodes / 8).max(1),
        edge_prob: 0.3,
        cross_prob: 0.05,
        max_latency: 2,
        seed: 0xC0DE + nodes as u64,
        ..DagParams::default()
    })
}

fn trace_workload(nodes: usize) -> DepGraph {
    random_trace_dag(&DagParams {
        nodes,
        blocks: 4,
        edge_prob: 0.2,
        cross_prob: 0.1,
        max_latency: 2,
        seed: 0xC0DE + nodes as u64,
        ..DagParams::default()
    })
}

fn bench_ranks_cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("ctx_compute_ranks");
    for &n in &SIZES {
        let g = workload(n);
        let mask = g.all_nodes();
        let machine = MachineModel::single_unit(4);
        let d = Deadlines::uniform(&g, &mask, g.len() as i64 * 4);
        let opts = SchedOpts::default();
        group.bench_with_input(BenchmarkId::new("cold", n), &n, |b, _| {
            b.iter(|| {
                let mut sc = SchedCtx::new();
                let r = compute_ranks(&mut sc, &g, &mask, &machine, &d, &opts).unwrap();
                black_box(r[0])
            })
        });
        group.bench_with_input(BenchmarkId::new("warm", n), &n, |b, _| {
            let mut sc = SchedCtx::new();
            // Prime the analysis cache and scratch before measuring.
            compute_ranks(&mut sc, &g, &mask, &machine, &d, &opts).unwrap();
            b.iter(|| {
                let r = compute_ranks(&mut sc, &g, &mask, &machine, &d, &opts).unwrap();
                black_box(r[0])
            })
        });
    }
    group.finish();
}

fn bench_merge_cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("ctx_merge");
    let cfg = LookaheadConfig::default();
    let opts = SchedOpts::default();
    for &n in &SIZES {
        // Two-block trace: merge block 1 into block 0's carried tail.
        let g = random_trace_dag(&DagParams {
            nodes: n,
            blocks: 2,
            edge_prob: 0.25,
            cross_prob: 0.1,
            max_latency: 2,
            seed: 0xC0DE + n as u64,
            ..DagParams::default()
        });
        let machine = MachineModel::single_unit(4);
        let old = g.block_nodes(BlockId(0));
        let new = g.block_nodes(BlockId(1));
        let all = g.all_nodes();
        let d0 = Deadlines::unbounded(&g, &all);
        let mut saved = Vec::new();
        d0.save_into(&all, &mut saved);
        group.bench_with_input(BenchmarkId::new("cold", n), &n, |b, _| {
            let mut d = d0.clone();
            b.iter(|| {
                let mut sc = SchedCtx::new();
                d.restore_from(&all, &saved);
                merge(&mut sc, &g, &machine, &old, &new, &mut d, None, &cfg, &opts)
                    .unwrap()
                    .0
                    .makespan()
            })
        });
        group.bench_with_input(BenchmarkId::new("warm", n), &n, |b, _| {
            let mut sc = SchedCtx::new();
            let mut d = d0.clone();
            merge(&mut sc, &g, &machine, &old, &new, &mut d, None, &cfg, &opts).unwrap();
            b.iter(|| {
                d.restore_from(&all, &saved);
                merge(&mut sc, &g, &machine, &old, &new, &mut d, None, &cfg, &opts)
                    .unwrap()
                    .0
                    .makespan()
            })
        });
    }
    group.finish();
}

fn bench_trace_cold_vs_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("ctx_schedule_trace");
    let cfg = LookaheadConfig::default();
    let opts = SchedOpts::default();
    for &n in &SIZES {
        let g = trace_workload(n);
        let machine = MachineModel::single_unit(4);
        group.bench_with_input(BenchmarkId::new("cold", n), &n, |b, _| {
            b.iter(|| {
                let mut sc = SchedCtx::new();
                schedule_trace(&mut sc, &g, &machine, &cfg, &opts)
                    .unwrap()
                    .makespan
            })
        });
        group.bench_with_input(BenchmarkId::new("warm", n), &n, |b, _| {
            let mut sc = SchedCtx::new();
            schedule_trace(&mut sc, &g, &machine, &cfg, &opts).unwrap();
            b.iter(|| {
                schedule_trace(&mut sc, &g, &machine, &cfg, &opts)
                    .unwrap()
                    .makespan
            })
        });
    }
    group.finish();
}

/// Median wall-clock of `f` over `samples` runs, in nanoseconds.
fn median_ns<F: FnMut()>(samples: usize, mut f: F) -> f64 {
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2] as f64
}

/// Snapshot pass: re-measure cold vs warm with plain wall-clock medians
/// and publish `ctx.*` metrics into `BENCH_ctx.json`.
fn write_snapshot() {
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let machine = MachineModel::single_unit(4);
    let opts = SchedOpts::default();
    for &n in &SIZES {
        let g = workload(n);
        let mask = g.all_nodes();
        let d = Deadlines::uniform(&g, &mask, g.len() as i64 * 4);
        let cold = median_ns(31, || {
            let mut sc = SchedCtx::new();
            let r = compute_ranks(&mut sc, &g, &mask, &machine, &d, &opts).unwrap();
            black_box(r[0]);
        });
        let mut sc = SchedCtx::new();
        compute_ranks(&mut sc, &g, &mask, &machine, &d, &opts).unwrap();
        let warm = median_ns(31, || {
            let r = compute_ranks(&mut sc, &g, &mask, &machine, &d, &opts).unwrap();
            black_box(r[0]);
        });
        metrics.push((format!("ctx.ranks.cold_ns.{n}"), cold));
        metrics.push((format!("ctx.ranks.warm_ns.{n}"), warm));
        metrics.push((format!("ctx.ranks.speedup.{n}"), cold / warm.max(1.0)));
    }
    let doc = asched_obs::snapshot_json("ctx", &metrics, None);
    // Write at the workspace root (like the other BENCH snapshots),
    // independent of the bench harness's working directory.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ctx.json");
    match std::fs::write(path, doc + "\n") {
        Ok(()) => println!("wrote BENCH_ctx.json ({} metrics)", metrics.len()),
        Err(e) => eprintln!("cannot write BENCH_ctx.json: {e}"),
    }
    for (name, v) in &metrics {
        println!("{name}: {v:.0}");
    }
}

fn bench_snapshot(_c: &mut Criterion) {
    write_snapshot();
}

criterion_group!(
    name = benches;
    config = quick();
    targets = bench_ranks_cold_vs_warm, bench_merge_cold_vs_warm, bench_trace_cold_vs_warm, bench_snapshot
);
criterion_main!(benches);
