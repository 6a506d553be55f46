//! Greedy list scheduling.
//!
//! Step 3 of the Rank Algorithm, and the engine behind every baseline
//! scheduler: given a total priority order over the nodes, at each cycle
//! start every ready instruction, in priority order, on a free compatible
//! unit. The scheduler never leaves a unit idle when some ready
//! instruction could use it — the *greedy* property the paper's Ordering
//! Constraint (Definition 2.3) refers to.
//!
//! The pass is event-driven and works in *positions* of the priority
//! list (local ids `0..|mask|`): a bitset of ready positions is scanned
//! in priority order, a node whose predecessors are done waits in a
//! pending list until its earliest start arrives, and time jumps to the
//! next unit-free cycle or pending start. The cycles it visits and the
//! `(start, unit)` it gives each node are those of a scan over the whole
//! list at every cycle; only the cost differs. Every working vector and
//! the schedule under construction live in the context's
//! [`ListScratch`], so on a warm context a pass allocates nothing until
//! its result is packed into a [`Schedule`].
//!
//! Inside the Rank Algorithm the pass also receives the deadlines and
//! stops at the first assignment that completes after its node's
//! deadline. Assignments are final, so that schedule can no longer meet
//! every deadline and the rest of the pass would be wasted: the
//! infeasible probes of `merge` and `Delay_Idle_Slots` — most Rank runs
//! in the multi-unit regime — pay only for the prefix up to the miss. A
//! pass that finishes has met every deadline. The check is one
//! comparison per assignment.

use crate::deadline::Deadlines;
use asched_graph::{
    DepGraph, ListScratch, MachineModel, NodeId, NodeSet, SchedCtx, SchedOpts, Schedule,
};

/// Greedily schedule the nodes of `mask` following `priority`.
///
/// `priority` must contain every node of `mask` exactly once (extra nodes
/// outside the mask are ignored). Readiness of `x` at time `t` requires
/// every loop-independent predecessor of `x` inside the mask to satisfy
/// `completion(pred) + latency <= t`.
///
/// `opts.release` supplies per-node *release times*: node `x` cannot
/// start before `release[x.index()]`. Algorithm `Lookahead` uses this to
/// carry dependences from already-emitted instructions into the
/// scheduling of the retained suffix (`chop` cuts at an idle slot, so
/// with 0/1 latencies the carried releases are vacuous; with longer
/// latencies they are not). The other options are ignored.
pub fn list_schedule(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
    priority: &[NodeId],
    opts: &SchedOpts,
) -> Schedule {
    let ls = &mut ctx.scratch.list;
    ls.order.clear();
    ls.order
        .extend(priority.iter().copied().filter(|&id| mask.contains(id)));
    match list_schedule_into(ls, g, mask, machine, opts.release, None) {
        Ok(()) => built_schedule(ls, g),
        Err(_) => unreachable!("a pass without deadlines cannot miss one"),
    }
}

/// The greedy scheduler proper, working out of a [`ListScratch`] whose
/// `order` the caller has loaded with the mask's nodes in priority
/// order. The schedule is left in the scratch; [`built_schedule`] packs
/// it.
///
/// With `deadlines`, the pass returns `Err(node)` as soon as it assigns
/// a node that completes after its deadline; `Ok` then means every
/// deadline was met. Without, it always returns `Ok`.
pub(crate) fn list_schedule_into(
    ls: &mut ListScratch,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
    release: Option<&[u64]>,
    deadlines: Option<&Deadlines>,
) -> Result<(), NodeId> {
    let ListScratch {
        order,
        pos,
        unit_free,
        preds_left,
        est,
        ready,
        pending,
        start,
        unit,
    } = ls;
    let m = order.len();
    assert_eq!(m, mask.len(), "priority must cover the mask");
    if pos.len() < g.len() {
        pos.resize(g.len(), 0);
    }
    for (p, &x) in order.iter().enumerate() {
        pos[x.index()] = p as u32;
    }
    preds_left.clear();
    est.clear();
    for &x in order.iter() {
        // Raw edge count (parallel edges counted separately): issuing a
        // node decrements once per raw edge.
        preds_left.push(g.in_edges_li(x).filter(|e| mask.contains(e.src)).count() as u32);
        est.push(release.map_or(0, |rel| rel[x.index()]));
    }
    ready.clear();
    ready.resize(m.div_ceil(64), 0);
    // Every node with no predecessor left waits in `pending` until its
    // earliest start, the least of which is `next_release`.
    pending.clear();
    let mut next_release = u64::MAX;
    for p in 0..m {
        if preds_left[p] == 0 {
            pending.push(p as u32);
            next_release = next_release.min(est[p]);
        }
    }
    start.clear();
    start.resize(m, 0);
    unit.clear();
    unit.resize(m, 0);
    unit_free.clear();
    unit_free.resize(machine.num_units(), 0);

    let mut remaining = m;
    let mut t: u64 = 0;
    while remaining > 0 {
        if next_release <= t {
            next_release = u64::MAX;
            pending.retain(|&p| {
                let p = p as usize;
                if est[p] <= t {
                    ready[p / 64] |= 1 << (p % 64);
                    return false;
                }
                next_release = next_release.min(est[p]);
                true
            });
        }
        // Issue ready nodes in priority order while some unit is free.
        // A node issued now completes after `t`, so its successors
        // become pending, never ready at this cycle.
        let mut free = unit_free.iter().filter(|&&f| f <= t).count();
        for (wi, word) in ready.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 && free > 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let p = wi * 64 + b;
                let x = order[p];
                let class = g.node(x).class;
                let Some(u) = machine.units_for(class).find(|&u| unit_free[u] <= t) else {
                    continue;
                };
                let exec = g.exec_time(x);
                let completion = t + exec as u64;
                if deadlines.is_some_and(|d| completion as i64 > d.get(x)) {
                    return Err(x);
                }
                *word &= !(1 << b);
                start[p] = t;
                unit[p] = u as u32;
                unit_free[u] = completion;
                free -= 1;
                remaining -= 1;
                for e in g.out_edges_li(x) {
                    if !mask.contains(e.dst) {
                        continue;
                    }
                    let q = pos[e.dst.index()] as usize;
                    est[q] = est[q].max(completion + e.latency as u64);
                    preds_left[q] -= 1;
                    if preds_left[q] == 0 {
                        pending.push(q as u32);
                        next_release = next_release.min(est[q]);
                    }
                }
            }
        }
        if remaining == 0 {
            break;
        }
        // Advance to the next event: a unit freeing up or a pending
        // node's earliest start. Nothing changes in between.
        let next = unit_free
            .iter()
            .copied()
            .filter(|&f| f > t)
            .fold(next_release, u64::min);
        if next == u64::MAX {
            // No future event: some ready node has no compatible unit on
            // this machine — a machine/graph mismatch. Fail loudly
            // rather than spin forever.
            let stuck = (0..m)
                .filter(|&p| ready[p / 64] & (1 << (p % 64)) != 0)
                .map(|p| order[p])
                .min()
                .expect("a DAG always has a source pending");
            panic!(
                "no functional unit on this machine can run node {stuck} \
                 (class {:?})",
                g.node(stuck).class
            );
        }
        t = next;
    }
    Ok(())
}

/// The schedule a finished [`list_schedule_into`] pass built.
pub(crate) fn built_schedule(ls: &ListScratch, g: &DepGraph) -> Schedule {
    let mut sched = Schedule::new(g.len());
    for (p, &x) in ls.order.iter().enumerate() {
        sched.assign(x, ls.start[p], ls.unit[p] as usize, g.exec_time(x));
    }
    sched
}

#[cfg(test)]
mod tests {
    use super::*;
    use asched_graph::validate::validate_schedule;
    use asched_graph::{BlockId, FuClass, NodeData};

    fn m1() -> MachineModel {
        MachineModel::single_unit(2)
    }

    /// Shorthand: list-schedule with a fresh context and default options.
    fn run(g: &DepGraph, mask: &NodeSet, m: &MachineModel, prio: &[NodeId]) -> Schedule {
        list_schedule(
            &mut SchedCtx::new(),
            g,
            mask,
            m,
            prio,
            &SchedOpts::default(),
        )
    }

    #[test]
    fn respects_priority_order() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        let s = run(&g, &g.all_nodes(), &m1(), &[b, a]);
        assert_eq!(s.start(b), Some(0));
        assert_eq!(s.start(a), Some(1));
    }

    #[test]
    fn fills_latency_gap_with_lower_priority_node() {
        // a -(2)-> c ; b independent. Priority a,c,b: greedy puts b into
        // the latency gap rather than idling.
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        let c = g.add_simple("c", BlockId(0));
        g.add_dep(a, c, 2);
        let s = run(&g, &g.all_nodes(), &m1(), &[a, c, b]);
        assert_eq!(s.start(a), Some(0));
        assert_eq!(s.start(b), Some(1));
        assert_eq!(s.start(c), Some(3));
        assert_eq!(s.makespan(), 4);
        validate_schedule(&g, &g.all_nodes(), &m1(), &s, None).unwrap();
    }

    #[test]
    fn idles_when_nothing_ready() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let c = g.add_simple("c", BlockId(0));
        g.add_dep(a, c, 3);
        let s = run(&g, &g.all_nodes(), &m1(), &[a, c]);
        assert_eq!(s.start(c), Some(4));
        assert_eq!(s.makespan(), 5);
        assert_eq!(s.idle_slots(&m1()), vec![1, 2, 3]);
    }

    #[test]
    fn multi_cycle_instruction_blocks_unit() {
        let mut g = DepGraph::new();
        let mul = g.add_simple("mul", BlockId(0));
        g.node_mut(mul).exec_time = 4;
        let b = g.add_simple("b", BlockId(0));
        let s = run(&g, &g.all_nodes(), &m1(), &[mul, b]);
        assert_eq!(s.start(mul), Some(0));
        assert_eq!(s.start(b), Some(4));
        validate_schedule(&g, &g.all_nodes(), &m1(), &s, None).unwrap();
    }

    #[test]
    fn two_units_run_in_parallel() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        let m = MachineModel::uniform(2, 2);
        let s = run(&g, &g.all_nodes(), &m, &[a, b]);
        assert_eq!(s.start(a), Some(0));
        assert_eq!(s.start(b), Some(0));
        assert_eq!(s.makespan(), 1);
        validate_schedule(&g, &g.all_nodes(), &m, &s, None).unwrap();
    }

    #[test]
    fn class_constraints_respected() {
        let mut g = DepGraph::new();
        let f = g.add_node(NodeData {
            label: "fadd".into(),
            exec_time: 1,
            class: FuClass::Float,
            block: BlockId(0),
            source_pos: 0,
        });
        let i = g.add_node(NodeData {
            label: "add".into(),
            exec_time: 1,
            class: FuClass::Fixed,
            block: BlockId(0),
            source_pos: 1,
        });
        let m = MachineModel::rs6000_like(2);
        let s = run(&g, &g.all_nodes(), &m, &[f, i]);
        // Different classes -> different units -> same cycle.
        assert_eq!(s.start(f), Some(0));
        assert_eq!(s.start(i), Some(0));
        assert_ne!(s.unit(f), s.unit(i));
        validate_schedule(&g, &g.all_nodes(), &m, &s, None).unwrap();
    }

    #[test]
    fn mask_subset_only() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 5);
        let mut mask = NodeSet::new(g.len());
        mask.insert(b);
        // a outside the mask: b is a source here and starts at 0.
        let s = run(&g, &mask, &m1(), &[b]);
        assert_eq!(s.start(b), Some(0));
        assert_eq!(s.num_scheduled(), 1);
    }

    #[test]
    fn empty_mask_empty_schedule() {
        let g = DepGraph::new();
        let s = run(&g, &NodeSet::new(0), &m1(), &[]);
        assert_eq!(s.makespan(), 0);
        assert_eq!(s.num_scheduled(), 0);
    }

    /// Regression (found in code review): a machine with no unit for a
    /// node's class must fail loudly, not loop forever.
    #[test]
    #[should_panic(expected = "no functional unit")]
    fn incompatible_machine_panics_cleanly() {
        let mut g = DepGraph::new();
        let f = g.add_node(NodeData {
            label: "fadd".into(),
            exec_time: 1,
            class: FuClass::Float,
            block: BlockId(0),
            source_pos: 0,
        });
        let m = MachineModel {
            units: vec![FuClass::Fixed],
            window: 2,
        };
        run(&g, &g.all_nodes(), &m, &[f]);
    }

    #[test]
    fn zero_latency_chain_packs_tight() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        let c = g.add_simple("c", BlockId(0));
        g.add_dep(a, b, 0);
        g.add_dep(b, c, 0);
        let s = run(&g, &g.all_nodes(), &m1(), &[a, b, c]);
        assert_eq!(s.makespan(), 3);
        assert_eq!(s.idle_slots(&m1()), Vec::<u64>::new());
    }
}
