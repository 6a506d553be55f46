//! Greedy list scheduling.
//!
//! Step 3 of the Rank Algorithm, and the engine behind every baseline
//! scheduler: given a total priority order over the nodes, at each cycle
//! scan the list and start every ready instruction on a free compatible
//! unit. The scheduler never leaves a unit idle when some ready
//! instruction could use it — the *greedy* property the paper's Ordering
//! Constraint (Definition 2.3) refers to.
//!
//! Inside the Rank Algorithm the pass also receives the deadlines and
//! stops at the first assignment that completes after its node's
//! deadline. Assignments are final, so that schedule can no longer meet
//! every deadline and the rest of the pass would be wasted: the
//! infeasible probes of `merge` and `Delay_Idle_Slots` — most Rank runs
//! in the multi-unit regime — pay only for the prefix up to the miss. A
//! pass that finishes has met every deadline. The check is one
//! comparison per assignment; nothing is scanned per cycle.

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
    match list_schedule_into(
        &mut ctx.scratch.list,
        g,
        mask,
        machine,
        priority,
        opts.release,
        None,
    ) {
        Ok(sched) => sched,
        Err(_) => unreachable!("a pass without deadlines cannot miss one"),
    }
}

/// The greedy scheduler proper, working out of a [`ListScratch`] so
/// rank-internal callers can hold other scratch fields across the call.
///
/// With `deadlines`, the pass returns `Err(node)` as soon as it assigns
/// a node that completes after its deadline; `Ok` then means every
/// deadline was met. Without, it always returns `Ok`.
pub(crate) fn list_schedule_into(
    ls: &mut ListScratch,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
    priority: &[NodeId],
    release: Option<&[u64]>,
    deadlines: Option<&Deadlines>,
) -> Result<Schedule, NodeId> {
    let ListScratch {
        order: prio,
        unit_free,
        preds_left,
        est,
        done,
    } = ls;
    prio.clear();
    prio.extend(priority.iter().copied().filter(|&id| mask.contains(id)));
    debug_assert_eq!(prio.len(), mask.len(), "priority must cover the mask");

    let mut sched = Schedule::new(g.len());
    unit_free.clear();
    unit_free.resize(machine.num_units(), 0);
    // Remaining unscheduled predecessor count per node (within mask).
    preds_left.clear();
    preds_left.resize(g.len(), 0);
    for id in mask.iter() {
        // Raw edge count (parallel edges counted separately): the issue
        // loop below decrements once per raw edge.
        preds_left[id.index()] = g.in_edges_li(id).filter(|e| mask.contains(e.src)).count();
    }
    // Earliest start by dependences, valid once preds_left == 0.
    est.clear();
    est.resize(g.len(), 0);
    if let Some(rel) = release {
        for id in mask.iter() {
            est[id.index()] = rel[id.index()];
        }
    }
    let mut remaining = mask.len();
    done.clear();
    done.resize(g.len(), false);

    let mut t: u64 = 0;
    while remaining > 0 {
        let mut issued = false;
        for &x in prio.iter() {
            if done[x.index()] || preds_left[x.index()] > 0 || est[x.index()] > t {
                continue;
            }
            // A ready node: find a free compatible unit.
            let class = g.node(x).class;
            let unit = machine.units_for(class).find(|&u| unit_free[u] <= t);
            let Some(u) = unit else { continue };
            let exec = g.exec_time(x);
            let completion = t + exec as u64;
            if deadlines.is_some_and(|d| completion as i64 > d.get(x)) {
                return Err(x);
            }
            sched.assign(x, t, u, exec);
            unit_free[u] = completion;
            done[x.index()] = true;
            remaining -= 1;
            issued = true;
            for e in g.out_edges_li(x) {
                if mask.contains(e.dst) && !done[e.dst.index()] {
                    preds_left[e.dst.index()] -= 1;
                    let ready = completion + e.latency as u64;
                    if ready > est[e.dst.index()] {
                        est[e.dst.index()] = ready;
                    }
                }
            }
        }
        if remaining == 0 {
            break;
        }
        // Advance to the next event: a unit freeing up or a node becoming
        // ready. If we issued something this cycle, re-scan at t+1 (new
        // readiness may have appeared for zero-latency edges only at
        // completion times, which the event scan below also finds).
        let mut next = u64::MAX;
        for &f in unit_free.iter() {
            if f > t {
                next = next.min(f);
            }
        }
        for id in mask.iter() {
            if !done[id.index()] && preds_left[id.index()] == 0 && est[id.index()] > t {
                next = next.min(est[id.index()]);
            }
        }
        if next == u64::MAX {
            if !issued {
                // Nothing issued and no future event: some pending node
                // has no compatible unit on this machine — a machine/
                // graph mismatch. Fail loudly rather than spin forever.
                let stuck = mask
                    .iter()
                    .find(|&id| !done[id.index()] && preds_left[id.index()] == 0)
                    .expect("a DAG always has a source pending");
                panic!(
                    "no functional unit on this machine can run node {stuck} \
                     (class {:?})",
                    g.node(stuck).class
                );
            }
            // This cycle's issues created the next work; step one cycle.
            next = t + 1;
        }
        debug_assert!(next > t, "time must advance");
        t = next;
    }
    Ok(sched)
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
