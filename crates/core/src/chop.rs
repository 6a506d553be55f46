//! Procedure `chop` (paper Figure 6).
//!
//! After merging and idle-slot delaying, the prefix of the schedule up to
//! the last idle slot *prior to the last `W` nodes* can be *emitted*: an
//! idle slot with at least `W` instructions after it can never be filled
//! by a later block's instruction, because filling it would invert the
//! newcomer with more than `W - 1` emitted instructions and violate the
//! Window Constraint. The suffix is carried into the next merge with its
//! deadlines re-based to time zero.

use asched_graph::{MachineModel, NodeId, NodeSet, Schedule};
use asched_rank::Deadlines;

/// Result of chopping a merged schedule.
#[derive(Clone, Debug)]
pub struct ChopResult {
    /// Emitted nodes with their start times *within the chopped
    /// schedule* (the caller adds its running offset), ordered by start.
    pub emitted: Vec<(NodeId, u64)>,
    /// Nodes carried forward into the next merge.
    pub suffix: NodeSet,
    /// Length of the emitted prefix (`t_j + 1`): how far the global
    /// clock advances. Zero when nothing was emitted.
    pub offset: u64,
}

/// Chop `sched` (over `mask`) at the last idle slot `t_j` that still has
/// at least `W` nodes after it (i.e. the last idle slot *prior to the
/// last `W` nodes*), where `W` is `machine.window`.
///
/// `d` is updated in place: suffix deadlines are decremented by
/// `t_j + 1` (the paper's re-basing). If the schedule has no idle slot,
/// or has fewer than `W` nodes, everything is retained (`S⁻ = ∅`) —
/// dependences with non-zero latencies between `old` and `new` could
/// otherwise create avoidable idle time at the seam.
///
/// On multi-unit machines an "idle slot" for cutting purposes is a cycle
/// during which *every* unit is idle (a conservative, correct cut
/// point).
pub fn chop(
    machine: &MachineModel,
    sched: &Schedule,
    mask: &NodeSet,
    d: &mut Deadlines,
) -> ChopResult {
    let window = machine.window;
    let retain_all = |mask: &NodeSet| ChopResult {
        emitted: Vec::new(),
        suffix: mask.clone(),
        offset: 0,
    };

    if mask.len() < window {
        return retain_all(mask);
    }
    // Cycles where all units are idle. On a multi-unit machine a
    // whole-machine idle cycle is rarer than a single-unit stall, so
    // chop cuts less often there and merge re-schedules a longer
    // suffix — a fidelity choice, not an oversight: the paper's cut
    // point is an idle *slot* in the one-cycle-per-slot schedule, and
    // cutting at a partially-busy cycle would emit instructions whose
    // units are still occupied past the cut.
    let busy = sched.busy_map(machine);
    let idles: Vec<u64> = (0..sched.makespan())
        .filter(|&t| busy.iter().all(|row| !row[t as usize]))
        .collect();
    if idles.is_empty() {
        return retain_all(mask);
    }

    // Largest idle time with at least W nodes strictly after it.
    let starts: Vec<(u64, NodeId)> = {
        let mut v: Vec<(u64, NodeId)> = mask
            .iter()
            .map(|id| (sched.start(id).expect("schedule covers mask"), id))
            .collect();
        v.sort_unstable();
        v
    };
    let t_j = idles
        .iter()
        .rev()
        .copied()
        .find(|&t| starts.iter().filter(|(s, _)| *s > t).count() >= window);
    let Some(t_j) = t_j else {
        return retain_all(mask);
    };

    let emitted: Vec<(NodeId, u64)> = starts
        .iter()
        .copied()
        .filter(|(s, _)| *s < t_j)
        .map(|(s, id)| (id, s))
        .collect();
    let mut suffix = mask.clone();
    for &(id, _) in &emitted {
        suffix.remove(id);
    }
    let offset = t_j + 1;
    d.shift_all(&suffix, -(offset as i64));
    ChopResult {
        emitted,
        suffix,
        offset,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asched_graph::{BlockId, DepGraph, SchedCtx, SchedOpts};
    use asched_rank::rank_schedule_default;

    fn m(w: usize) -> MachineModel {
        MachineModel::single_unit(w)
    }

    fn rank(g: &DepGraph, mask: &NodeSet, machine: &MachineModel) -> Schedule {
        rank_schedule_default(&mut SchedCtx::new(), g, mask, machine).unwrap()
    }

    /// Figure 1's delayed schedule x e r w b _ a with W = 2: the idle
    /// slot at t=5 has only one node after it (fewer than W), so a
    /// next-block instruction could still fill it — everything must be
    /// retained, exactly as the paper's Figure 2 walk-through assumes.
    #[test]
    fn fig1_after_idle_delay_is_fully_retained_at_w2() {
        let (g, nodes) = fig1_delayed();
        let [_x, _e, _w, _b, _a, _r] = nodes;
        let mask = g.all_nodes();
        let s = rank(&g, &mask, &m(2));
        let mut d = Deadlines::uniform(&g, &mask, s.makespan() as i64);
        let s = asched_rank::delay_idle_slots(
            &mut SchedCtx::new(),
            &g,
            &mask,
            &m(2),
            s,
            &mut d,
            &SchedOpts::default(),
        );
        assert_eq!(s.idle_slots(&m(2)), vec![5]);
        let chop_res = chop(&m(2), &s, &mask, &mut d);
        assert!(chop_res.emitted.is_empty());
        assert_eq!(chop_res.suffix.len(), 6);
        assert_eq!(chop_res.offset, 0);
    }

    /// The same schedule with W = 1 (no lookahead): the slot at t=5 has
    /// one follower >= W, so x e r w b is emitted and {a} is carried with
    /// deadline 7 - 6 = 1.
    #[test]
    fn fig1_chops_at_w1() {
        let (g, nodes) = fig1_delayed();
        let [x, _e, _w, _b, a, _r] = nodes;
        let mask = g.all_nodes();
        let s = rank(&g, &mask, &m(2));
        let mut d = Deadlines::uniform(&g, &mask, s.makespan() as i64);
        let s = asched_rank::delay_idle_slots(
            &mut SchedCtx::new(),
            &g,
            &mask,
            &m(2),
            s,
            &mut d,
            &SchedOpts::default(),
        );
        let chop_res = chop(&m(1), &s, &mask, &mut d);
        assert_eq!(chop_res.offset, 6);
        assert_eq!(chop_res.emitted.len(), 5);
        assert_eq!(chop_res.emitted[0], (x, 0));
        assert_eq!(chop_res.suffix.iter().collect::<Vec<_>>(), vec![a]);
        assert_eq!(d.get(a), 1); // 7 re-based by 6
    }

    fn fig1_delayed() -> (DepGraph, [asched_graph::NodeId; 6]) {
        let mut g = DepGraph::new();
        let e = g.add_simple("e", BlockId(0));
        let x = g.add_simple("x", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        let w = g.add_simple("w", BlockId(0));
        let a = g.add_simple("a", BlockId(0));
        let r = g.add_simple("r", BlockId(0));
        for &(s, t) in &[(x, w), (x, b), (x, r), (e, w), (e, b), (w, a), (b, a)] {
            g.add_dep(s, t, 1);
        }
        (g, [x, e, w, b, a, r])
    }

    #[test]
    fn no_idle_slots_retains_all() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 0);
        let mask = g.all_nodes();
        let s = rank(&g, &mask, &m(2));
        let mut d = Deadlines::uniform(&g, &mask, 2);
        let r = chop(&m(2), &s, &mask, &mut d);
        assert!(r.emitted.is_empty());
        assert_eq!(r.suffix.len(), 2);
        assert_eq!(r.offset, 0);
        assert_eq!(d.get(a), 2); // untouched
    }

    #[test]
    fn fewer_than_w_nodes_retains_all() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let c = g.add_simple("c", BlockId(0));
        g.add_dep(a, c, 3); // idle slots exist
        let mask = g.all_nodes();
        let s = rank(&g, &mask, &m(8));
        let mut d = Deadlines::uniform(&g, &mask, s.makespan() as i64);
        let r = chop(&m(8), &s, &mask, &mut d);
        assert!(r.emitted.is_empty());
        assert_eq!(r.offset, 0);
    }

    #[test]
    fn idle_with_too_few_followers_is_kept() {
        // a b _ c with W = 3: the only idle slot (t=2) has one follower,
        // but W = 3 are needed; retain everything.
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        let c = g.add_simple("c", BlockId(0));
        g.add_dep(a, c, 2);
        g.add_dep(b, c, 1);
        let mask = g.all_nodes();
        let s = rank(&g, &mask, &m(3));
        assert_eq!(s.idle_slots(&m(3)), vec![2]);
        let mut d = Deadlines::uniform(&g, &mask, 4);
        let r = chop(&m(3), &s, &mask, &mut d);
        assert!(r.emitted.is_empty());
        assert_eq!(r.suffix.len(), 3);
    }

    #[test]
    fn picks_latest_qualifying_idle_slot() {
        // a _ b _ c d with W = 2: idle slots at 1 and 3; the later one
        // (3) has 2 >= W followers, so cut there.
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        let c = g.add_simple("c", BlockId(0));
        let dn = g.add_simple("d", BlockId(0));
        g.add_dep(a, b, 1);
        g.add_dep(b, c, 1);
        g.add_dep(b, dn, 1);
        let mask = g.all_nodes();
        let s = rank(&g, &mask, &m(2));
        assert_eq!(s.idle_slots(&m(2)), vec![1, 3]);
        let mut d = Deadlines::uniform(&g, &mask, s.makespan() as i64);
        let r = chop(&m(2), &s, &mask, &mut d);
        assert_eq!(r.offset, 4);
        assert_eq!(r.emitted.len(), 2); // a and b
        assert_eq!(r.suffix.len(), 2); // c and d
    }
}
