//! The warm-path contract: once a [`SchedCtx`] has served one call for
//! a given (graph, mask), repeated `compute_ranks` calls run without a
//! single heap allocation — the analysis cache holds the per-local-id
//! arrays, topo order, descendant bitsets and successor lists, and every
//! scratch buffer is recycled at its high-water size. An analysis miss
//! on a new mask of a shape the context has seen computes into the
//! buffers of the entry it evicts, and an infeasible `rank_schedule` run
//! keeps its greedy passes in the list scratch, whether the
//! earliest-deadline-first retry is skipped or run, so neither allocates
//! either. A feasible run allocates exactly the [`Schedule`] it returns.
//! Verified with a counting global allocator, the same technique as
//! `asched-obs`'s null-recorder test.

use asched_graph::{
    BackwardMode, BlockId, DepGraph, MachineModel, NodeId, NodeSet, SchedCtx, SchedOpts, Schedule,
    DEFAULT_CACHE_CAPACITY,
};
use asched_rank::{compute_ranks, rank_schedule, Deadlines, RankError};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

// Per-thread counter: the test harness runs tests on concurrent
// threads, and another test's (legitimate) cold-path allocations must
// not pollute this thread's measurement.
thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    // `try_with` so allocations during TLS teardown stay harmless.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn allocations<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.with(|c| c.get());
    let r = f();
    (ALLOCATIONS.with(|c| c.get()) - before, r)
}

/// A deterministic trace of small blocks, the shape the schedulers see
/// in practice (no dev-dependency on the workload generators: the test
/// crate's allocator is global, so keep the harness minimal).
fn trace(nodes: usize, per_block: usize) -> DepGraph {
    let mut g = DepGraph::new();
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for i in 0..nodes {
        g.add_simple(format!("n{i}"), BlockId((i / per_block) as u32));
    }
    for i in 0..nodes {
        let blk_end = ((i / per_block) + 1) * per_block;
        for j in (i + 1)..blk_end.min(nodes) {
            if next() % 10 < 3 {
                g.add_dep(NodeId(i as u32), NodeId(j as u32), (next() % 3) as u32);
            }
        }
        // Light cross-block coupling into the next block's head.
        if blk_end < nodes && next() % 10 < 2 {
            g.add_dep(
                NodeId(i as u32),
                NodeId(blk_end as u32),
                1 + (next() % 2) as u32,
            );
        }
    }
    g
}

#[test]
fn warm_compute_ranks_does_not_allocate() {
    let g = trace(512, 8);
    let mask = g.all_nodes();
    let machine = MachineModel::single_unit(4);
    let d = Deadlines::uniform(&g, &mask, g.len() as i64 * 4);
    let opts = SchedOpts::default();

    let mut ctx = SchedCtx::new();
    // Cold call: builds the analyses and sizes every scratch buffer.
    let cold_ranks = compute_ranks(&mut ctx, &g, &mask, &machine, &d, &opts)
        .unwrap()
        .to_vec();

    // Warm calls: the whole loop must be allocation-free.
    let (n, warm_ranks) = allocations(|| {
        let mut last = 0i64;
        for _ in 0..100 {
            let r = compute_ranks(&mut ctx, &g, &mask, &machine, &d, &opts).unwrap();
            last = r[0];
        }
        let _ = last;
        compute_ranks(&mut ctx, &g, &mask, &machine, &d, &opts)
            .unwrap()
            .to_vec()
    });
    // The final .to_vec() above is the only permitted allocation.
    assert!(n <= 1, "warm compute_ranks allocated {n} times");
    assert_eq!(cold_ranks, warm_ranks, "warm ranks must match cold ranks");
}

#[test]
fn warm_compute_ranks_is_alloc_free_on_multi_unit_machines() {
    // The Section 4.2 backward modes use the per-unit scratch too.
    let g = trace(128, 8);
    let mask = g.all_nodes();
    let machine = MachineModel::rs6000_like(4);
    let d = Deadlines::uniform(&g, &mask, g.len() as i64 * 4);
    let opts = SchedOpts::default();

    let mut ctx = SchedCtx::new();
    compute_ranks(&mut ctx, &g, &mask, &machine, &d, &opts).unwrap();
    let (n, _) = allocations(|| {
        for _ in 0..50 {
            compute_ranks(&mut ctx, &g, &mask, &machine, &d, &opts).unwrap();
        }
    });
    assert_eq!(n, 0, "warm multi-unit compute_ranks allocated {n} times");
}

#[test]
fn warm_piecewise_compute_ranks_does_not_allocate() {
    // Piecewise backward packing places one piece per execution cycle
    // on a multi-unit machine; give some nodes several.
    let mut g = trace(128, 8);
    for i in (0..g.len()).step_by(3) {
        g.node_mut(NodeId(i as u32)).exec_time = 1 + (i % 4) as u32;
    }
    let mask = g.all_nodes();
    let machine = MachineModel::uniform(3, 4);
    let d = Deadlines::uniform(&g, &mask, g.len() as i64 * 4);
    let opts = SchedOpts::default().with_backward(BackwardMode::Piecewise);

    let mut ctx = SchedCtx::new();
    let cold = compute_ranks(&mut ctx, &g, &mask, &machine, &d, &opts)
        .unwrap()
        .to_vec();
    let (n, same) = allocations(|| {
        let mut same = true;
        for _ in 0..50 {
            same &= compute_ranks(&mut ctx, &g, &mask, &machine, &d, &opts).unwrap() == cold;
        }
        same
    });
    assert!(same, "warm piecewise ranks must match cold ranks");
    assert_eq!(n, 0, "warm piecewise compute_ranks allocated {n} times");
}

#[test]
fn tightened_deadlines_stay_on_the_warm_path() {
    // Deadline manipulation (the merge/idle-delay loops' pattern) does
    // not invalidate the (graph, mask) analyses: calls after a deadline
    // change still run allocation-free.
    let g = trace(256, 8);
    let mask = g.all_nodes();
    let machine = MachineModel::single_unit(2);
    let mut d = Deadlines::uniform(&g, &mask, g.len() as i64 * 4);
    let opts = SchedOpts::default();

    let mut ctx = SchedCtx::new();
    compute_ranks(&mut ctx, &g, &mask, &machine, &d, &opts).unwrap();
    let (n, _) = allocations(|| {
        for k in 0..20 {
            d.tighten(NodeId(k as u32), g.len() as i64 * 2 - k);
            compute_ranks(&mut ctx, &g, &mask, &machine, &d, &opts).unwrap();
        }
    });
    assert_eq!(n, 0, "deadline changes must not leave the warm path");
}

#[test]
fn warm_analysis_miss_does_not_allocate() {
    // Blocks that are copies of one 24-node pattern (plus edges into the
    // next block, outside any block mask): every block mask is a new
    // cache key with the same size and in-mask edge count, like the
    // `old`, `new` and `old ∪ new` masks of merge on a long trace.
    const BLOCK: usize = 24;
    let blocks = DEFAULT_CACHE_CAPACITY + 8;
    let pattern = trace(BLOCK, BLOCK);
    let mut g = DepGraph::new();
    for b in 0..blocks {
        for i in 0..BLOCK {
            g.add_simple(format!("b{b}n{i}"), BlockId(b as u32));
        }
    }
    for b in 0..blocks {
        let base = (b * BLOCK) as u32;
        for e in pattern.edges() {
            g.add_dep(NodeId(base + e.src.0), NodeId(base + e.dst.0), e.latency);
        }
        if b + 1 < blocks {
            g.add_dep(NodeId(base), NodeId(base + BLOCK as u32), 1);
        }
    }
    let masks: Vec<NodeSet> = (0..blocks)
        .map(|b| g.block_nodes(BlockId(b as u32)))
        .collect();
    let machine = MachineModel::rs6000_like(4);
    let d = Deadlines::uniform(&g, &g.all_nodes(), g.len() as i64 * 4);
    let opts = SchedOpts::default();

    let mut ctx = SchedCtx::new();
    // Cold: fill the cache past capacity, so eviction has handed an
    // entry's buffers back for the next miss.
    let warm = DEFAULT_CACHE_CAPACITY + 2;
    for mask in &masks[..warm] {
        compute_ranks(&mut ctx, &g, mask, &machine, &d, &opts).unwrap();
    }
    let misses = ctx.cache.misses();
    let (n, _) = allocations(|| {
        for mask in &masks[warm..] {
            compute_ranks(&mut ctx, &g, mask, &machine, &d, &opts).unwrap();
        }
    });
    assert_eq!(ctx.cache.misses() - misses, (blocks - warm) as u64);
    assert_eq!(n, 0, "warm analysis misses allocated {n} times");
}

#[test]
fn warm_feasible_rank_run_allocates_only_its_schedule() {
    // The ranks and the priority list stay in the context's scratch; the
    // returned schedule, sized by the graph, is the run's one product.
    let g = trace(256, 8);
    let mask = NodeSet::from_iter_with_universe(g.len(), (40..64).map(NodeId));
    let machine = MachineModel::rs6000_like(4);
    let d = Deadlines::unbounded(&g, &mask);
    let opts = SchedOpts::default();

    let mut ctx = SchedCtx::new();
    let cold = rank_schedule(&mut ctx, &g, &mask, &machine, &d, &opts).unwrap();
    let (per_schedule, _) = allocations(|| Schedule::new(g.len()));
    assert!(per_schedule > 0);
    let (n, same) = allocations(|| {
        let mut same = true;
        for _ in 0..20 {
            same &= rank_schedule(&mut ctx, &g, &mask, &machine, &d, &opts).unwrap() == cold;
        }
        same
    });
    assert!(same, "warm schedules must match the cold one");
    assert_eq!(
        n,
        20 * per_schedule,
        "20 feasible rank runs allocated {n} times, their schedules {per_schedule} each"
    );
}

/// Whether `d`'s earliest-deadline-first list for `mask` differs from
/// its rank list, i.e. whether an infeasible run makes the retry.
fn retry_runs(g: &DepGraph, mask: &NodeSet, machine: &MachineModel, d: &Deadlines) -> bool {
    let mut ctx = SchedCtx::new();
    let opts = SchedOpts::default();
    let ranks = compute_ranks(&mut ctx, g, mask, machine, d, &opts).unwrap();
    let mut rank_list: Vec<NodeId> = mask.iter().collect();
    rank_list.sort_by_key(|&x| (ranks[x.index()], g.stable_key(x)));
    !rank_list.windows(2).all(|w| d.get(w[0]) <= d.get(w[1]))
}

/// Rerun an infeasible `rank_schedule` warm 20 times: it must allocate
/// nothing and report the cold run's witness every time.
fn assert_warm_infeasible_runs_do_not_allocate(
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
    d: &Deadlines,
) {
    let opts = SchedOpts::default();
    let mut ctx = SchedCtx::new();
    let Err(RankError::Infeasible { node: witness }) =
        rank_schedule(&mut ctx, g, mask, machine, d, &opts)
    else {
        panic!("the deadlines must be infeasible");
    };
    let (n, witnesses) = allocations(|| {
        let mut same = true;
        for _ in 0..20 {
            let again = rank_schedule(&mut ctx, g, mask, machine, d, &opts);
            same &= matches!(again, Err(RankError::Infeasible { node }) if node == witness);
        }
        same
    });
    assert!(witnesses, "every rerun must report the same witness");
    assert_eq!(n, 0, "infeasible rank runs allocated {n} times");
}

#[test]
fn infeasible_rank_run_does_not_allocate() {
    // Deadlines no schedule meets. They are uniform, so the
    // earliest-deadline-first list is the rank list and the run skips
    // the retry.
    let g = trace(256, 8);
    let mask = NodeSet::from_iter_with_universe(g.len(), (40..64).map(NodeId));
    let machine = MachineModel::rs6000_like(4);
    let d = Deadlines::uniform(&g, &mask, 2);
    assert!(!retry_runs(&g, &mask, &machine, &d));
    assert_warm_infeasible_runs_do_not_allocate(&g, &mask, &machine, &d);
}

#[test]
fn infeasible_run_with_the_retry_does_not_allocate() {
    // The same deadlines, except a node with an in-mask successor gets
    // a late one. Its rank stays below the successor's deadline, so it
    // precedes nodes with earlier deadlines in the rank list, and the
    // earliest-deadline-first retry runs (and misses too).
    let g = trace(256, 8);
    let mask = NodeSet::from_iter_with_universe(g.len(), (40..64).map(NodeId));
    let machine = MachineModel::rs6000_like(4);
    let mut d = Deadlines::uniform(&g, &mask, 2);
    let late = mask
        .iter()
        .find(|&x| !g.succs_in(x, &mask).is_empty())
        .expect("the mask has an edge");
    d.set(late, 1000);
    assert!(retry_runs(&g, &mask, &machine, &d));
    assert_warm_infeasible_runs_do_not_allocate(&g, &mask, &machine, &d);
}
