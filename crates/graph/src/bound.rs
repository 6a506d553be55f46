//! Admissible analytic makespan lower bounds.
//!
//! Two classic bounds on the makespan of any legal schedule of a masked
//! subgraph, in the shape of dslab's `makespan_lower_bound` (critical
//! path vs. total work over capacity, take the max):
//!
//! * [`critical_path_bound`] — the dependence-only bound: the longest
//!   chain of `exec + latency` through the loop-independent subgraph.
//!   Computed from the [`SchedCtx`]-cached analysis, so repeated probes
//!   on the same `(graph, mask)` reuse the memoized topological order
//!   and successor lists instead of re-deriving them.
//! * [`capacity_bound`] — the resource bound: for every functional-unit
//!   class, the work of that class must fit on the units that can run
//!   it, so the makespan is at least `ceil(work / capacity)` (and at
//!   least the total work over all units).
//!
//! [`makespan_lower_bound`] is their maximum. Both are *admissible*
//! (never exceed the true optimum), which is what lets the exact
//! branch-and-bound scheduler (`asched-exact`) use them for pruning and
//! lets the merge/chop layers skip recomputation that provably cannot
//! help.
//!
//! [`earliest_starts`] is the forward counterpart of the critical path:
//! the ASAP start of every node under release times and dependence
//! chains alone. No legal schedule — in particular no greedy list
//! schedule — starts a node earlier, so `earliest start + exec` bounds
//! every deadline the node can meet. `asched-rank` uses it to refute
//! idle-slot moves without rerunning the Rank Algorithm.

use crate::ctx::{Analysis, SchedCtx};
use crate::graph::DepGraph;
use crate::machine::{FuClass, MachineModel};
use crate::set::NodeSet;
use crate::topo::CycleError;

/// Dependence-only lower bound: the critical-path length of `mask`
/// (max over nodes of `height`), computed from the ctx-cached analysis.
///
/// Equivalent to [`crate::critical_path_length`] but reuses the
/// memoized topological order and successor lists, so warm probes cost
/// one backward sweep and no graph re-analysis.
pub fn critical_path_bound(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
) -> Result<u64, CycleError> {
    let analysis = ctx.cache.analysis(g, mask)?;
    let mut best = 0u64;
    let mut h = vec![0u64; analysis.len()];
    for &i in analysis.local_order().iter().rev() {
        let i = i as usize;
        let tail = analysis
            .local_succs(i)
            .iter()
            .map(|&(s, lat)| lat as u64 + h[s as usize])
            .max()
            .unwrap_or(0);
        h[i] = analysis.exec()[i] as u64 + tail;
        best = best.max(h[i]);
    }
    Ok(best)
}

/// Earliest start of every node of an analysed mask: its release time
/// (0 without `release`), raised past `start + exec + latency` of every
/// in-mask loop-independent predecessor — one forward sweep over the
/// analysis's topological order and successor lists.
///
/// Writes into `est` (a reusable buffer, resized to the mask and indexed
/// by local id, see [`Analysis`]), so a warm caller runs it without
/// allocating. `release`, when given, is indexed by `NodeId::index()`
/// like the scheduler's release times.
pub fn earliest_starts(analysis: &Analysis, release: Option<&[u64]>, est: &mut Vec<u64>) {
    est.clear();
    match release {
        Some(rel) => est.extend(analysis.nodes().iter().map(|x| rel[x.index()])),
        None => est.resize(analysis.len(), 0),
    }
    for &i in analysis.local_order() {
        let i = i as usize;
        let done = est[i] + analysis.exec()[i] as u64;
        for &(s, lat) in analysis.local_succs(i) {
            let slot = &mut est[s as usize];
            *slot = (*slot).max(done + lat as u64);
        }
    }
}

/// Resource lower bound: every unit class must absorb its own work.
///
/// For each concrete [`FuClass`] with work in `mask`, the bound is
/// `ceil(class work / compatible units)` (compatible = same class or
/// `Any`); the total work over all units bounds the `Any` instructions
/// and the aggregate. Independent of dependences, so it needs no graph
/// analysis and cannot fail.
pub fn capacity_bound(g: &DepGraph, mask: &NodeSet, machine: &MachineModel) -> u64 {
    let total = g.total_work(mask);
    if total == 0 {
        return 0;
    }
    let mut bound = total.div_ceil(machine.num_units() as u64);
    // A node occupying its unit for `e` cycles needs `e` consecutive
    // cycles somewhere, so the largest execution time is a floor too.
    bound = bound.max(
        mask.iter()
            .map(|id| g.exec_time(id) as u64)
            .max()
            .unwrap_or(0),
    );
    for class in FuClass::CONCRETE {
        let work: u64 = mask
            .iter()
            .filter(|&id| g.node(id).class == class)
            .map(|id| g.exec_time(id) as u64)
            .sum();
        if work == 0 {
            continue;
        }
        let cap = machine.capacity_for(class) as u64;
        assert!(cap > 0, "no unit can run class {class}");
        bound = bound.max(work.div_ceil(cap));
    }
    bound
}

/// The combined admissible bound: `max(critical path, capacity)`.
///
/// This is the entry-bound consulted by the exact scheduler before any
/// search and by schedule-improvement loops before expensive
/// recomputation: a measured makespan already equal to this bound is
/// provably optimal.
pub fn makespan_lower_bound(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
) -> Result<u64, CycleError> {
    Ok(critical_path_bound(ctx, g, mask)?.max(capacity_bound(g, mask, machine)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::critical::critical_path_length;
    use crate::node::BlockId;

    fn chain_and_fanout() -> DepGraph {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        let c = g.add_simple("c", BlockId(0));
        g.add_dep(a, b, 2);
        g.add_dep(b, c, 1);
        for i in 0..4 {
            g.add_simple(format!("x{i}"), BlockId(0));
        }
        g
    }

    #[test]
    fn critical_path_matches_direct() {
        let g = chain_and_fanout();
        let mask = g.all_nodes();
        let mut ctx = SchedCtx::new();
        assert_eq!(
            critical_path_bound(&mut ctx, &g, &mask).unwrap(),
            critical_path_length(&g, &mask).unwrap(),
        );
        // Second probe hits the analysis cache.
        critical_path_bound(&mut ctx, &g, &mask).unwrap();
        assert_eq!(ctx.cache.hits(), 1);
    }

    #[test]
    fn capacity_dominates_wide_graphs() {
        let mut g = DepGraph::new();
        for i in 0..8 {
            g.add_simple(format!("n{i}"), BlockId(0));
        }
        let mask = g.all_nodes();
        // 8 independent unit ops on 2 units: capacity bound 4, CP 1.
        let m = MachineModel::uniform(2, 1);
        let mut ctx = SchedCtx::new();
        assert_eq!(capacity_bound(&g, &mask, &m), 4);
        assert_eq!(makespan_lower_bound(&mut ctx, &g, &mask, &m).unwrap(), 4);
    }

    #[test]
    fn classed_work_bounds_its_own_units() {
        let mut g = DepGraph::new();
        for i in 0..3 {
            let id = g.add_simple(format!("f{i}"), BlockId(0));
            g.node_mut(id).class = FuClass::Float;
        }
        let m = MachineModel::rs6000_like(1);
        // 3 float ops on 1 float unit: bound 3, not ceil(3/4) = 1.
        assert_eq!(capacity_bound(&g, &g.all_nodes(), &m), 3);
    }

    #[test]
    fn max_exec_time_is_a_floor() {
        let mut g = DepGraph::new();
        let a = g.add_simple("mul", BlockId(0));
        g.node_mut(a).exec_time = 5;
        g.add_simple("b", BlockId(0));
        let m = MachineModel::uniform(4, 1);
        assert_eq!(capacity_bound(&g, &g.all_nodes(), &m), 5);
    }

    #[test]
    fn earliest_starts_follow_chains_and_releases() {
        // a -(2)-> b -(1)-> c with exec(b) = 3; x0..x3 independent.
        let mut g = chain_and_fanout();
        g.node_mut(crate::node::NodeId(1)).exec_time = 3;
        let mask = g.all_nodes();
        let mut ctx = SchedCtx::new();
        let mut est = Vec::new();
        let analysis = ctx.cache.analysis(&g, &mask).unwrap();
        earliest_starts(analysis, None, &mut est);
        assert_eq!(&est[..3], &[0, 3, 7]);
        assert!(est[3..].iter().all(|&t| t == 0));
        // A late release on `a` pushes its whole chain; a release on
        // `c` below its chain bound changes nothing.
        let mut rel = vec![0u64; g.len()];
        rel[0] = 5;
        rel[2] = 4;
        rel[3] = 2;
        earliest_starts(analysis, Some(&rel), &mut est);
        assert_eq!(&est[..4], &[5, 8, 12, 2]);
        // A mask without `a`: est is indexed by local id, and `b` is a
        // source there.
        let sub = NodeSet::from_iter_with_universe(g.len(), g.node_ids().skip(1));
        let analysis = ctx.cache.analysis(&g, &sub).unwrap();
        earliest_starts(analysis, Some(&rel), &mut est);
        assert_eq!(est.len(), g.len() - 1);
        assert_eq!(&est[..3], &[0, 4, 2]);
    }

    #[test]
    fn empty_mask_is_zero() {
        let g = DepGraph::new();
        let mut ctx = SchedCtx::new();
        let m = MachineModel::default();
        assert_eq!(capacity_bound(&g, &NodeSet::new(0), &m), 0);
        assert_eq!(
            makespan_lower_bound(&mut ctx, &g, &NodeSet::new(0), &m).unwrap(),
            0
        );
    }
}
