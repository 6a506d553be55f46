//! The naive exact enumerator: the differential tests' independent
//! reference for `asched-exact`.
//!
//! A memoized depth-first search over partial schedules, sharing the
//! solver's timing model but none of its code. At each decision point
//! it either starts a ready instruction on a free unit now, or advances
//! time to the next event. States are canonicalized as `(scheduled-set,
//! per-node release offsets, per-unit busy offsets)` relative to the
//! current time, so equivalent futures are explored once. It has no
//! budget and no certified intervals, only a greedy upper bound and a
//! height lower bound, so it is practical up to about a dozen nodes.

use asched_graph::{DepGraph, MachineModel, NodeId, NodeSet, SchedCtx, SchedOpts};
use std::collections::HashMap;

struct Ctx<'g> {
    g: &'g DepGraph,
    nodes: Vec<NodeId>,
    machine: &'g MachineModel,
    /// preds[i] = list of (pred position, latency)
    preds: Vec<Vec<(usize, u32)>>,
    /// dependence-only lower bound on remaining span per node (height)
    height: Vec<u64>,
    /// Memoized *exact* cost-to-go per canonical state, relative to the
    /// clock at which the state was proven (the key is time-relative,
    /// so the value must be too).
    memo: HashMap<(u32, Vec<u16>, Vec<u16>), u64>,
}

/// Minimum makespan of `mask` on `machine`, by exhaustive search.
///
/// Loop-carried edges are ignored, like everywhere else in single-block
/// scheduling. Panics on a cyclic mask, or one of 32 nodes or more (the
/// done-set is a `u32` bitmask).
pub fn optimal_makespan(g: &DepGraph, mask: &NodeSet, machine: &MachineModel) -> u64 {
    let nodes: Vec<NodeId> = mask.iter().collect();
    assert!(nodes.len() < 32, "the done-set is a u32 bitmask");
    if nodes.is_empty() {
        return 0;
    }
    let mut pos = vec![usize::MAX; g.len()];
    for (i, &id) in nodes.iter().enumerate() {
        pos[id.index()] = i;
    }
    let preds: Vec<Vec<(usize, u32)>> = nodes
        .iter()
        .map(|&id| {
            g.preds_in(id, mask)
                .into_iter()
                .map(|(p, lat)| (pos[p.index()], lat))
                .collect()
        })
        .collect();
    let heights = asched_graph::heights(g, mask).expect("acyclic mask");
    let height: Vec<u64> = nodes.iter().map(|&id| heights[id.index()]).collect();

    // A quick feasible schedule (greedy by height) upper-bounds the search.
    let prio = asched_graph::height_priority(g, mask).expect("acyclic mask");
    let greedy = asched_rank::list_schedule(
        &mut SchedCtx::new(),
        g,
        mask,
        machine,
        &prio,
        &SchedOpts::default(),
    );

    let mut ctx = Ctx {
        g,
        nodes,
        machine,
        preds,
        height,
        memo: HashMap::new(),
    };
    let n = ctx.nodes.len();
    let finish = vec![0u64; n];
    let busy = vec![0u64; machine.num_units()];
    dfs(&mut ctx, 0, 0, &finish, &busy, greedy.makespan())
}

/// Depth-first search; returns the best achievable makespan from this
/// state that is `< ub`, or `ub` if none is better.
fn dfs(ctx: &mut Ctx, done: u32, t: u64, finish: &[u64], busy: &[u64], ub: u64) -> u64 {
    let n = ctx.nodes.len();
    if done.count_ones() as usize == n {
        let ms = finish.iter().copied().max().unwrap_or(0);
        return ms.min(ub);
    }

    // Lower bound: every unscheduled node still needs height(x) cycles
    // from its earliest possible start.
    let mut lb = 0u64;
    let mut total_work = 0u64;
    for i in 0..n {
        if done & (1 << i) != 0 {
            continue;
        }
        let est = release_time(ctx, i, done, finish);
        // Unknown release (unscheduled preds) is at least `t`.
        let est = if est == u64::MAX { t } else { est };
        lb = lb.max(est.max(t) + ctx.height[i]);
        total_work += ctx.g.exec_time(ctx.nodes[i]) as u64;
    }
    let earliest_unit = busy.iter().copied().min().unwrap_or(0).max(t);
    lb = lb.max(earliest_unit + total_work.div_ceil(ctx.machine.num_units() as u64));
    if lb >= ub {
        return ub;
    }

    // Canonical state key (offsets relative to t, saturating). For an
    // unscheduled node the key carries the release constraint inherited
    // from its *scheduled* predecessors (partial when some predecessors
    // are still unscheduled — the top bit marks that; the unscheduled
    // ones contribute identically in any continuation of the same
    // `done` set, so partial-release + flag fully determines the
    // cost-to-go).
    let key = {
        let rel = |v: u64| -> u16 { v.saturating_sub(t).min(0x7FFF) as u16 };
        let mut node_rel = Vec::with_capacity(n);
        for i in 0..n {
            if done & (1 << i) != 0 {
                node_rel.push(0);
            } else {
                let (partial, complete) = partial_release(ctx, i, done, finish);
                let mut enc = rel(partial);
                if !complete {
                    enc |= 0x8000;
                }
                node_rel.push(enc);
            }
        }
        let unit_rel: Vec<u16> = busy.iter().map(|&b| rel(b)).collect();
        (done, node_rel, unit_rel)
    };
    // Memoized values are *relative* to the clock ("cost-to-go"), not
    // absolute makespans: the canonical key is time-relative, so the
    // same key can recur at a different absolute `t` (e.g. the same
    // tail configuration reached via differently-packed prefixes), and
    // an absolute value would then be wrong for one of them. Storing
    // absolute values was a real bug, caught by the stress sweep and
    // pinned in `brute_relative_memo_regression`.
    if let Some(&cached) = ctx.memo.get(&key) {
        return (t + cached).min(ub);
    }

    let mut best = ub;

    // Option A: start each startable node now.
    let mut any_startable = false;
    for i in 0..n {
        if done & (1 << i) != 0 {
            continue;
        }
        if release_time(ctx, i, done, finish) > t {
            continue;
        }
        let class = ctx.g.node(ctx.nodes[i]).class;
        // Try one free unit per distinct unit class (units of the same
        // class are interchangeable; units of different classes are not).
        let candidates: Vec<usize> = ctx.machine.units_for(class).collect();
        let mut tried_classes = Vec::new();
        for u in candidates {
            if busy[u] > t {
                continue;
            }
            let uclass = ctx.machine.units[u];
            if tried_classes.contains(&uclass) {
                continue;
            }
            tried_classes.push(uclass);
            any_startable = true;
            let exec = ctx.g.exec_time(ctx.nodes[i]) as u64;
            let mut f2 = finish.to_vec();
            f2[i] = t + exec;
            let mut b2 = busy.to_vec();
            b2[u] = t + exec;
            let got = dfs(ctx, done | (1 << i), t, &f2, &b2, best);
            best = best.min(got);
        }
    }

    // Option B: advance time to the next event (deliberate idling).
    let mut next = u64::MAX;
    for i in 0..n {
        if done & (1 << i) != 0 {
            continue;
        }
        let r = release_time(ctx, i, done, finish);
        if r != u64::MAX && r > t {
            next = next.min(r);
        }
    }
    for &b in busy {
        if b > t {
            next = next.min(b);
        }
    }
    if next < u64::MAX {
        let got = dfs(ctx, done, next, finish, busy, best);
        best = best.min(got);
    } else if !any_startable {
        // No startable node and no future event: unreachable for a DAG.
        unreachable!("search deadlocked");
    }

    // Only an improvement over the entry bound is a proven exact optimum
    // for this state; a result equal to `ub` is inconclusive and must not
    // be cached.
    if best < ub {
        debug_assert!(best >= t, "a completion cannot precede the clock");
        ctx.memo.insert(key, best - t);
    }
    best
}

/// Earliest start of node position `i` given the finished predecessors.
/// Only meaningful when all predecessors are scheduled; otherwise it is a
/// valid partial bound (used only for pruning).
fn release_time(ctx: &Ctx, i: usize, done: u32, finish: &[u64]) -> u64 {
    let mut r = 0;
    for &(p, lat) in &ctx.preds[i] {
        if done & (1 << p) != 0 {
            r = r.max(finish[p] + lat as u64);
        } else {
            // Unscheduled predecessor: this node is not startable yet.
            return u64::MAX;
        }
    }
    r
}

/// The release constraint node `i` has inherited from its *scheduled*
/// predecessors, plus whether that constraint is complete (no
/// predecessors outstanding). Used for the memo key: two states with the
/// same done-set, the same partial releases and the same completeness
/// flags have identical cost-to-go.
fn partial_release(ctx: &Ctx, i: usize, done: u32, finish: &[u64]) -> (u64, bool) {
    let mut r = 0;
    let mut complete = true;
    for &(p, lat) in &ctx.preds[i] {
        if done & (1 << p) != 0 {
            r = r.max(finish[p] + lat as u64);
        } else {
            complete = false;
        }
    }
    (r, complete)
}

/// Known answers that hold the reference itself to account.
mod tests {
    use super::*;
    use asched_graph::BlockId;

    #[test]
    fn empty_graph() {
        let g = DepGraph::new();
        let m = MachineModel::single_unit(2);
        assert_eq!(optimal_makespan(&g, &NodeSet::new(0), &m), 0);
    }

    #[test]
    fn chain_with_latency() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 3);
        let m = MachineModel::single_unit(2);
        assert_eq!(optimal_makespan(&g, &g.all_nodes(), &m), 5);
    }

    #[test]
    fn independent_nodes_two_units() {
        let mut g = DepGraph::new();
        for i in 0..4 {
            g.add_simple(format!("n{i}"), BlockId(0));
        }
        let all = g.all_nodes();
        assert_eq!(optimal_makespan(&g, &all, &MachineModel::single_unit(1)), 4);
        assert_eq!(optimal_makespan(&g, &all, &MachineModel::uniform(2, 1)), 2);
    }

    #[test]
    fn deliberate_idle_can_win() {
        // Two sources: s1 feeds a long chain via latency, s2 is filler.
        // Greedy source order s2-first is worse; the search must find s1
        // first.
        let mut g = DepGraph::new();
        let s1 = g.add_simple("s1", BlockId(0));
        g.add_simple("s2", BlockId(0));
        let c1 = g.add_simple("c1", BlockId(0));
        let c2 = g.add_simple("c2", BlockId(0));
        g.add_dep(s1, c1, 2);
        g.add_dep(c1, c2, 2);
        let m = MachineModel::single_unit(1);
        // s1@0, s2@1, idle@2, c1@3, idle, idle, c2@6 -> makespan 7.
        assert_eq!(optimal_makespan(&g, &g.all_nodes(), &m), 7);
    }

    #[test]
    fn figure_1_optimum_is_seven() {
        let (g, _) = asched_workloads::fixtures::fig1();
        let m = MachineModel::single_unit(2);
        assert_eq!(optimal_makespan(&g, &g.all_nodes(), &m), 7);
    }

    #[test]
    fn multicycle_instructions() {
        let mut g = DepGraph::new();
        let mul = g.add_simple("mul", BlockId(0));
        g.node_mut(mul).exec_time = 4;
        g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(mul, b, 0);
        let m = MachineModel::uniform(2, 1);
        // mul on unit 0 (4 cycles), a in parallel, b after mul: makespan 5.
        assert_eq!(optimal_makespan(&g, &g.all_nodes(), &m), 5);
    }
}
