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
//! list: a bitset of ready positions is scanned in priority order, a node
//! whose predecessors are done waits in a pending list until its earliest
//! start arrives, and time jumps to the next unit-free cycle or pending
//! start. The cycles it visits and the `(start, unit)` it gives each node
//! are those of a scan over the whole list at every cycle; only the cost
//! differs.
//!
//! It reads only the cached [`Analysis`] of `(graph, mask)` — execution
//! times, FU classes, predecessor counts and CSR successors per local id
//! — and picks a unit by ANDing the node's class mask with the free-unit
//! mask ([`UnitMasks`](asched_graph::UnitMasks)): the lowest common bit
//! is the first compatible free unit. Every working vector and the
//! schedule under construction live in the context's [`ListScratch`],
//! sized by the mask, so on a warm context a pass allocates nothing
//! until its result is packed into a [`Schedule`]. There is one pass:
//! [`list_schedule`] maps its priority list onto it, and the Rank
//! Algorithm runs it on its rank and earliest-deadline-first lists.
//!
//! Inside the Rank Algorithm the pass also receives the deadlines and
//! stops at the first assignment that completes after its node's
//! deadline. Assignments are final, so that schedule can no longer meet
//! every deadline and the rest of the pass would be wasted: the
//! infeasible probes of `merge` and `Delay_Idle_Slots` — most Rank runs
//! in the multi-unit regime — pay only for the prefix up to the miss. A
//! pass that finishes has met every deadline. The check is one
//! comparison per assignment.

use asched_graph::{
    Analysis, DepGraph, ListScratch, MachineModel, NodeId, NodeSet, SchedCtx, SchedOpts, Schedule,
    Scratch,
};

/// Greedily schedule the nodes of `mask` following `priority`.
///
/// `priority` must contain every node of `mask` exactly once (extra nodes
/// outside the mask are ignored). Readiness of `x` at time `t` requires
/// every loop-independent predecessor of `x` inside the mask to satisfy
/// `completion(pred) + latency <= t`. The mask must be acyclic.
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
    let SchedCtx { cache, scratch } = ctx;
    let a = cache
        .analysis(g, mask)
        .expect("list_schedule needs an acyclic mask");
    let Scratch { list: ls, .. } = scratch;
    ls.units.load(machine);
    ls.order.clear();
    ls.order.extend(
        priority
            .iter()
            .filter_map(|&x| a.local(x))
            .map(|i| i as u32),
    );
    load_release(a, opts.release, &mut ls.release);
    match greedy_pass(a, machine, ls, None) {
        Ok(()) => built_schedule(a, ls, g.len()),
        Err(_) => unreachable!("a pass without deadlines cannot miss one"),
    }
}

/// Read the release time of every mask node into `buf`, indexed by
/// local id (all 0 without `release`).
pub(crate) fn load_release(a: &Analysis, release: Option<&[u64]>, buf: &mut Vec<u64>) {
    buf.clear();
    match release {
        Some(rel) => buf.extend(a.nodes().iter().map(|x| rel[x.index()])),
        None => buf.resize(a.len(), 0),
    }
}

/// The greedy scheduler proper, on `a`'s local ids: `ls.order` holds the
/// mask's local ids in priority order, `ls.release` their release times
/// and `ls.units` the machine's class masks. The schedule is left in the
/// scratch; [`built_schedule`] packs it.
///
/// With `deadline` (indexed by local id), the pass returns `Err(local
/// id)` as soon as it assigns a node that completes after its deadline;
/// `Ok` then means every deadline was met. Without, it always returns
/// `Ok`.
pub(crate) fn greedy_pass(
    a: &Analysis,
    machine: &MachineModel,
    ls: &mut ListScratch,
    deadline: Option<&[i64]>,
) -> Result<(), usize> {
    let ListScratch {
        order,
        pos,
        release,
        units,
        free,
        unit_free,
        preds_left,
        est,
        ready,
        pending,
        start,
        unit,
    } = ls;
    let m = order.len();
    assert_eq!(m, a.len(), "priority must cover the mask");
    let (exec, class) = (a.exec(), a.class());
    pos.clear();
    pos.resize(m, 0);
    preds_left.clear();
    est.clear();
    for (p, &x) in order.iter().enumerate() {
        pos[x as usize] = p as u32;
        preds_left.push(a.preds()[x as usize]);
        est.push(release[x as usize]);
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
        let mut idle = load_free(free, unit_free, t);
        for (wi, word) in ready.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 && idle > 0 {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let p = wi * 64 + b;
                let x = order[p] as usize;
                let Some(u) = first_common(units.of(class[x]), free) else {
                    continue;
                };
                let completion = t + exec[x] as u64;
                if deadline.is_some_and(|d| completion as i64 > d[x]) {
                    return Err(x);
                }
                *word &= !(1 << b);
                start[p] = t;
                unit[p] = u as u32;
                unit_free[u] = completion;
                free[u / 64] &= !(1 << (u % 64));
                idle -= 1;
                remaining -= 1;
                for &(s, lat) in a.local_succs(x) {
                    let q = pos[s as usize] as usize;
                    est[q] = est[q].max(completion + lat as u64);
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
                .map(|p| order[p] as usize)
                .min()
                .expect("a DAG always has a source pending");
            panic!(
                "no functional unit on this machine can run node {} \
                 (class {:?})",
                a.nodes()[stuck],
                class[stuck]
            );
        }
        t = next;
    }
    Ok(())
}

/// Mark in `free` the units whose next free cycle is at most `t`;
/// returns how many there are.
fn load_free(free: &mut Vec<u64>, unit_free: &[u64], t: u64) -> usize {
    free.clear();
    free.resize(unit_free.len().div_ceil(64), 0);
    let mut count = 0;
    for (u, &f) in unit_free.iter().enumerate() {
        if f <= t {
            free[u / 64] |= 1 << (u % 64);
            count += 1;
        }
    }
    count
}

/// The lowest unit set in both masks.
#[inline]
fn first_common(class_units: &[u64], free: &[u64]) -> Option<usize> {
    class_units
        .iter()
        .zip(free)
        .enumerate()
        .find_map(|(w, (&c, &f))| {
            let both = c & f;
            (both != 0).then(|| w * 64 + both.trailing_zeros() as usize)
        })
}

/// The schedule a finished [`greedy_pass`] built, over a graph of `n`
/// nodes.
pub(crate) fn built_schedule(a: &Analysis, ls: &ListScratch, n: usize) -> Schedule {
    let mut sched = Schedule::new(n);
    for (p, &x) in ls.order.iter().enumerate() {
        let x = x as usize;
        sched.assign(a.nodes()[x], ls.start[p], ls.unit[p] as usize, a.exec()[x]);
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
