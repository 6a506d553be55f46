//! Moving idle slots as late as possible (paper Section 3).
//!
//! *"One of the key ideas in our solution is that of moving idle slots as
//! late as possible in a given basic block. This is a useful step because
//! it offers more opportunity for overlap with instructions at the start
//! of the next basic block."*
//!
//! [`move_idle_slot`] is procedure `Move_Idle_Slot` of Figure 4: it tries
//! to delay one idle slot by repeatedly tightening the deadline of the
//! *tail node* (the node completing just before the slot) and re-running
//! the Rank Algorithm. Deadline modifications are kept on success and
//! rolled back on failure. [`delay_idle_slots`] is `Delay_Idle_Slots` of
//! Figure 6: it processes the idle slots from earliest to latest, moving
//! each one as far as it will go.
//!
//! These are the hottest loops in the workspace — the attempts re-run
//! the Rank Algorithm on the *same* `(graph, mask)` — which is exactly
//! what the [`SchedCtx`] analysis cache and scratch buffers exist for:
//! after the first rank run, every retry reuses the cached topological
//! order and descendant sets and runs allocation-free.
//!
//! Most attempts cannot succeed, and they are decided without a rerun:
//!
//! * **From the idle-slot list.** The tail node is the node ending at
//!   `t_i` on the slot's unit, so it exists iff cycle `t_i − 1` is busy —
//!   iff `t_i − 1` is not the previous idle slot. A slot at `t_i = 0` or
//!   right after another idle cycle is stuck before any deadline
//!   snapshot, schedule copy or clamp. [`delay_idle_slots`] builds each
//!   unit's list once per schedule.
//! * **From the critical path.** No greedy schedule starts a node before
//!   its earliest start (release time plus exec and latency chains,
//!   [`asched_graph::earliest_starts`], computed once per call into
//!   mask-sized scratch). When
//!   that bound plus the tail node's execution time exceeds the deadline
//!   `t_i − 1` the edit would impose, both greedy passes of the rerun
//!   would miss it, so the attempt is stuck with its deadlines restored —
//!   what the failed rerun returns, minus its `rank_run` event.
//!
//! Every other rerun happens as in Figure 4, with the Rank Algorithm's
//! greedy passes stopping at their first missed deadline. Schedules,
//! final deadlines and `idle_move` events are those of the plain loop.
//!
//! On the restricted machine (0/1 latencies, unit execution times, single
//! functional unit) repeated application provably yields a
//! minimum-makespan schedule in which every idle slot occurs as late as
//! possible; with multiple units the same procedure is applied per unit
//! as a heuristic (Section 4.2 discusses choosing which unit's slots to
//! attack; we process units in order of decreasing demand).

use crate::deadline::Deadlines;
use crate::ranks::rank_schedule;
use asched_graph::{
    earliest_starts, DepGraph, MachineModel, NodeId, NodeSet, SchedCtx, SchedOpts, Schedule,
};
use asched_obs::{record, Event, Pass};

/// Result of one [`move_idle_slot`] attempt.
#[derive(Clone, Debug)]
pub enum MoveOutcome {
    /// The slot was delayed (or eliminated). The schedule is the new one;
    /// `new_start` is the slot's new start time, or `None` if the slot no
    /// longer exists at or before the makespan. Deadline modifications
    /// have been kept ("finalized").
    Moved {
        /// The improved schedule.
        schedule: Schedule,
        /// New start time of the processed slot (`None` = eliminated).
        new_start: Option<u64>,
    },
    /// The slot could not be moved; deadlines were restored and the input
    /// schedule stands.
    Stuck,
}

/// Try to delay the `slot_index`-th idle slot (0-based, in increasing
/// time order) of `unit` in `sched`.
///
/// `d` carries the current deadline assignments and is updated in place
/// on success (and restored on failure), mirroring the paper's
/// "finalize / undo all deadline modifications". `opts.release`
/// constrains the re-ranked schedules (Algorithm `Lookahead` carries
/// constraints from emitted instructions into retained suffixes); an
/// enabled `opts.rec` sees each attempt as an `idle_move` event (slot
/// position, where it landed, whether the deadline edits were kept) plus
/// the rank runs inside the attempt.
#[allow(clippy::too_many_arguments)]
pub fn move_idle_slot(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
    sched: &Schedule,
    d: &mut Deadlines,
    unit: usize,
    slot_index: usize,
    opts: &SchedOpts,
) -> MoveOutcome {
    let asap = mask_earliest_starts(ctx, g, mask, opts);
    let idles = sched.idle_slots_unit(machine, unit);
    let outcome = attempt(
        ctx, g, mask, machine, sched, &idles, &asap, d, unit, slot_index, opts,
    );
    ctx.scratch.asap = asap;
    outcome
}

/// The earliest start of every mask node, indexed by local id (the
/// mask's members in id order), in the context's `asap` buffer, taken
/// out of the context for the caller to hand back. A cyclic mask refutes
/// nothing here (all zeros); its rank run reports the cycle.
fn mask_earliest_starts(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
    opts: &SchedOpts,
) -> Vec<u64> {
    let mut asap = std::mem::take(&mut ctx.scratch.asap);
    match ctx.cache.analysis(g, mask) {
        Ok(analysis) => earliest_starts(analysis, opts.release, &mut asap),
        Err(_) => {
            asap.clear();
            asap.resize(mask.len(), 0);
        }
    }
    asap
}

/// One `Move_Idle_Slot` attempt on the slot `idles[slot_index]`, where
/// `idles` are the idle cycles of `unit` in `sched` and `asap` holds the
/// mask's earliest starts. Emits the attempt's `idle_move` event.
#[allow(clippy::too_many_arguments)]
fn attempt(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
    sched: &Schedule,
    idles: &[u64],
    asap: &[u64],
    d: &mut Deadlines,
    unit: usize,
    slot_index: usize,
    opts: &SchedOpts,
) -> MoveOutcome {
    let Some(&slot) = idles.get(slot_index) else {
        return MoveOutcome::Stuck;
    };
    let outcome = move_slot(
        ctx, g, mask, machine, sched, idles, asap, d, unit, slot_index, opts,
    );
    record!(
        opts.rec,
        Event::IdleMove {
            unit: unit as u32,
            slot,
            new_start: match &outcome {
                MoveOutcome::Moved { new_start, .. } => *new_start,
                MoveOutcome::Stuck => Some(slot),
            },
            moved: matches!(outcome, MoveOutcome::Moved { .. }),
        }
    );
    outcome
}

/// The tail node of the idle slot `idles[slot_index]` on `unit` (the
/// node completing exactly at the slot), unless the deadline
/// `t_i − 1` it would get is refuted by its earliest completion (`asap`
/// holds the earliest starts of `mask`'s members, by local id). `None`
/// means the attempt is stuck without a rerun.
fn live_tail(
    asap: &[u64],
    g: &DepGraph,
    mask: &NodeSet,
    sched: &Schedule,
    idles: &[u64],
    unit: usize,
    slot_index: usize,
) -> Option<NodeId> {
    let t_i = idles[slot_index];
    // No node completes at t = 0, nor right before a slot that follows
    // another idle cycle: such a slot has no tail node to force earlier.
    if t_i == 0 || (slot_index > 0 && idles[slot_index - 1] == t_i - 1) {
        return None;
    }
    // A tail outside the mask is no node the Rank runs can move.
    let a_i = sched.tail_node(unit, t_i).filter(|&x| mask.contains(x))?;
    // d(a_i) = t_i - 1 is unmeetable when a_i cannot even complete by
    // then from its earliest start (this covers exec(a_i) > t_i - 1).
    let earliest_completion = asap[mask.count_below(a_i)] + g.exec_time(a_i) as u64;
    (earliest_completion < t_i).then_some(a_i)
}

#[allow(clippy::too_many_arguments)]
fn move_slot(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
    sched: &Schedule,
    idles: &[u64],
    asap: &[u64],
    d: &mut Deadlines,
    unit: usize,
    slot_index: usize,
    opts: &SchedOpts,
) -> MoveOutcome {
    let t_i = idles[slot_index];
    let Some(mut a_i) = live_tail(asap, g, mask, sched, idles, unit, slot_index) else {
        return MoveOutcome::Stuck;
    };
    // Snapshot the mask's deadlines into the context's save buffer
    // instead of cloning: the loop below only set/tighten-edits values
    // of mask nodes (the horizon is untouched), so restoring them
    // restores the whole state.
    d.save_into(mask, &mut ctx.scratch.deadline_save);

    // "If there is any node y scheduled before t_i with rank(y) > t_i,
    // set rank(y) = t_i" — clamp everything already completing by t_i so
    // earlier idle slots cannot move (the paper's safety step).
    for id in mask.iter() {
        if let Some(c) = sched.completion(id) {
            if c <= t_i {
                d.tighten(id, t_i as i64);
            }
        }
    }

    // Each iteration strictly tightens some node's deadline, so the loop
    // terminates; the cap is belt and braces.
    let max_iters = (mask.len() as u64 + 2) * (sched.makespan() + 2);
    for _ in 0..max_iters {
        // d(a_i) = rank(a_i) = t_i - 1: force the tail node earlier.
        d.set(a_i, t_i as i64 - 1);
        let Ok(schedule) = rank_schedule(ctx, g, mask, machine, d, opts) else {
            // rank_alg cannot meet the tightened deadlines: undo.
            break;
        };
        let new_idles = schedule.idle_slots_unit(machine, unit);
        match new_idles.get(slot_index) {
            None => {
                // The slot vanished entirely (possible off the restricted
                // machine): that counts as moving it past the end.
                return MoveOutcome::Moved {
                    schedule,
                    new_start: None,
                };
            }
            Some(&t_new) if t_new > t_i => {
                return MoveOutcome::Moved {
                    schedule,
                    new_start: Some(t_new),
                };
            }
            Some(&t_new) if t_new == t_i => {
                // Same position: iterate with the new tail node, unless
                // the new schedule refutes it as well.
                match live_tail(asap, g, mask, &schedule, &new_idles, unit, slot_index) {
                    Some(next) => a_i = next,
                    None => break,
                }
            }
            Some(_) => {
                // Moved *earlier*: the clamp should prevent this; treat
                // as failure and restore.
                break;
            }
        }
    }
    d.restore_from(mask, &ctx.scratch.deadline_save);
    MoveOutcome::Stuck
}

/// Delay every idle slot of `sched` as far as possible (Figure 6).
///
/// Processes slots from earliest to latest, retrying each slot until it
/// stops moving. For multi-unit machines, units are processed in
/// decreasing order of demand (number of instructions that can only run
/// there), per the Section 4.2 heuristic. Returns the improved schedule;
/// `d` accumulates the finalized deadline modifications. With an enabled
/// `opts.rec` the whole sweep is one timed `delay_idle_slots` pass and
/// every slot attempt emits an `idle_move` event.
///
/// ```
/// use asched_graph::{BlockId, DepGraph, MachineModel, SchedCtx, SchedOpts};
/// use asched_rank::{delay_idle_slots, rank_schedule_default, Deadlines};
///
/// // a -(2)-> b plus a filler f: the rank schedule is a f _ b with the
/// // idle slot mid-block; delaying moves the filler into the gap... or
/// // rather moves the gap to the boundary where the next block can use
/// // it.
/// let mut g = DepGraph::new();
/// let a = g.add_simple("a", BlockId(0));
/// let b = g.add_simple("b", BlockId(0));
/// let f = g.add_simple("f", BlockId(0));
/// g.add_dep(a, b, 2);
///
/// let machine = MachineModel::single_unit(2);
/// let mask = g.all_nodes();
/// let mut ctx = SchedCtx::new();
/// let s0 = rank_schedule_default(&mut ctx, &g, &mask, &machine).unwrap();
/// let t = s0.makespan();
/// let mut d = Deadlines::uniform(&g, &mask, t as i64);
/// let s1 = delay_idle_slots(&mut ctx, &g, &mask, &machine, s0, &mut d, &SchedOpts::default());
/// assert_eq!(s1.makespan(), t); // never longer
/// ```
pub fn delay_idle_slots(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
    sched: Schedule,
    d: &mut Deadlines,
    opts: &SchedOpts,
) -> Schedule {
    asched_obs::timed(opts.rec, Pass::DelayIdleSlots, || {
        delay_idle_slots_inner(ctx, g, mask, machine, sched, d, opts)
    })
}

fn delay_idle_slots_inner(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
    sched: Schedule,
    d: &mut Deadlines,
    opts: &SchedOpts,
) -> Schedule {
    let mut units: Vec<usize> = (0..machine.num_units()).collect();
    if machine.num_units() > 1 {
        // Demand per unit = number of mask instructions whose class this
        // unit serves, weighted by 1/(units serving that class).
        let demand = |u: usize| -> u64 {
            mask.iter()
                .filter(|&id| machine.unit_accepts(u, g.node(id).class))
                .map(|id| {
                    let share = machine.capacity_for(g.node(id).class) as u64;
                    (1000 * g.exec_time(id) as u64) / share.max(1)
                })
                .sum()
        };
        // Stable sort: equal-demand units must keep ascending order.
        // `demand` walks the whole mask, so each unit's is computed once.
        units.sort_by_cached_key(|&u| std::cmp::Reverse(demand(u)));
    }

    let asap = mask_earliest_starts(ctx, g, mask, opts);
    let mut cur = sched;
    for unit in units {
        // The slot list changes only when a move succeeds.
        let mut idles = cur.idle_slots_unit(machine, unit);
        let mut i = 0;
        while i < idles.len() {
            match attempt(ctx, g, mask, machine, &cur, &idles, &asap, d, unit, i, opts) {
                MoveOutcome::Moved { schedule, .. } => {
                    cur = schedule;
                    idles = cur.idle_slots_unit(machine, unit);
                    // Retry the same index: the slot may move further, or
                    // (if eliminated) the index now denotes the next slot.
                }
                MoveOutcome::Stuck => {
                    i += 1;
                }
            }
        }
    }
    ctx.scratch.asap = asap;
    cur
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranks::{rank_schedule, rank_schedule_default};
    use asched_graph::validate::validate_schedule;
    use asched_graph::{BlockId, NodeId};

    fn m1() -> MachineModel {
        MachineModel::single_unit(2)
    }

    /// Paper Section 2.2: delaying Figure 1's idle slot from t=2 to t=5.
    #[test]
    fn fig1_idle_slot_delayed_to_five() {
        let (g, [x, _e, _w, _b, a, _r]) = crate::ranks::tests::fig1();
        let mask = g.all_nodes();
        let mut ctx = SchedCtx::new();
        let s0 = rank_schedule_default(&mut ctx, &g, &mask, &m1()).unwrap();
        assert_eq!(s0.idle_slots(&m1()), vec![2]);
        // Deadlines clamped to the optimal makespan T = 7 (the paper's
        // "decrement every deadline by D - T").
        let mut d = Deadlines::uniform(&g, &mask, s0.makespan() as i64);
        let s1 = delay_idle_slots(
            &mut ctx,
            &g,
            &mask,
            &m1(),
            s0,
            &mut d,
            &SchedOpts::default(),
        );
        assert_eq!(s1.makespan(), 7);
        assert_eq!(s1.idle_slots(&m1()), vec![5]);
        assert_eq!(s1.start(x), Some(0));
        assert_eq!(s1.start(a), Some(6));
        // The finalized deadline of x is 1, as in the paper.
        assert_eq!(d.get(x), 1);
        validate_schedule(&g, &mask, &m1(), &s1, Some(d.as_slice())).unwrap();
    }

    #[test]
    fn no_idle_slots_is_noop() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 0);
        let mask = g.all_nodes();
        let mut ctx = SchedCtx::new();
        let s0 = rank_schedule_default(&mut ctx, &g, &mask, &m1()).unwrap();
        assert!(s0.idle_slots(&m1()).is_empty());
        let mut d = Deadlines::uniform(&g, &mask, s0.makespan() as i64);
        let s1 = delay_idle_slots(
            &mut ctx,
            &g,
            &mask,
            &m1(),
            s0.clone(),
            &mut d,
            &SchedOpts::default(),
        );
        assert_eq!(s0, s1);
    }

    #[test]
    fn unmovable_slot_is_stuck() {
        // a -(2)-> b: schedule a _ _ b; the idle slots are forced by the
        // latency and cannot move.
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 2);
        let mask = g.all_nodes();
        let mut ctx = SchedCtx::new();
        let s0 = rank_schedule_default(&mut ctx, &g, &mask, &m1()).unwrap();
        assert_eq!(s0.idle_slots(&m1()), vec![1, 2]);
        let mut d = Deadlines::uniform(&g, &mask, s0.makespan() as i64);
        let saved = d.clone();
        match move_idle_slot(
            &mut ctx,
            &g,
            &mask,
            &m1(),
            &s0,
            &mut d,
            0,
            0,
            &SchedOpts::default(),
        ) {
            MoveOutcome::Stuck => {}
            MoveOutcome::Moved { .. } => panic!("slot should be stuck"),
        }
        // Deadlines restored on failure.
        assert_eq!(d, saved);
    }

    #[test]
    fn doomed_attempts_run_no_rank() {
        // p -(0)-> q -(2)-> r: schedule p q _ _ r. The slot at 2 would
        // need d(q) = 1, but q cannot complete before 2 (it waits for p);
        // the slot at 3 follows another idle cycle, so it has no tail
        // node. Both attempts are stuck without a single Rank rerun.
        let mut g = DepGraph::new();
        let p = g.add_simple("p", BlockId(0));
        let q = g.add_simple("q", BlockId(0));
        let r = g.add_simple("r", BlockId(0));
        g.add_dep(p, q, 0);
        g.add_dep(q, r, 2);
        let mask = g.all_nodes();
        let mut ctx = SchedCtx::new();
        let s0 = rank_schedule_default(&mut ctx, &g, &mask, &m1()).unwrap();
        assert_eq!(s0.idle_slots(&m1()), vec![2, 3]);
        let mut d = Deadlines::uniform(&g, &mask, s0.makespan() as i64);
        let saved = d.clone();
        let rec = asched_obs::ProfileRecorder::new();
        let opts = SchedOpts::default().with_recorder(&rec);
        let s1 = delay_idle_slots(&mut ctx, &g, &mask, &m1(), s0.clone(), &mut d, &opts);
        assert_eq!(s1, s0);
        assert_eq!(d, saved);
        let profile = rec.into_profile();
        assert_eq!(profile.counter("idle_moves_attempted"), 2);
        assert_eq!(profile.counter("rank_runs"), 0);
    }

    #[test]
    fn makespan_never_increases() {
        // Random-ish fixed graphs: delaying idle slots must keep the
        // makespan (deadlines cap it at T).
        let (g, _) = crate::ranks::tests::fig1();
        let mask = g.all_nodes();
        let mut ctx = SchedCtx::new();
        let s0 = rank_schedule_default(&mut ctx, &g, &mask, &m1()).unwrap();
        let t0 = s0.makespan();
        let mut d = Deadlines::uniform(&g, &mask, t0 as i64);
        let s1 = delay_idle_slots(
            &mut ctx,
            &g,
            &mask,
            &m1(),
            s0,
            &mut d,
            &SchedOpts::default(),
        );
        assert_eq!(s1.makespan(), t0);
    }

    #[test]
    fn idle_slots_never_move_earlier() {
        let (g, _) = crate::ranks::tests::fig1();
        let mask = g.all_nodes();
        let mut ctx = SchedCtx::new();
        let s0 = rank_schedule_default(&mut ctx, &g, &mask, &m1()).unwrap();
        let before = s0.idle_slots(&m1());
        let mut d = Deadlines::uniform(&g, &mask, s0.makespan() as i64);
        let s1 = delay_idle_slots(
            &mut ctx,
            &g,
            &mask,
            &m1(),
            s0,
            &mut d,
            &SchedOpts::default(),
        );
        let after = s1.idle_slots(&m1());
        assert_eq!(before.len(), after.len());
        for (b, a) in before.iter().zip(after.iter()) {
            assert!(a >= b, "slot moved earlier: {b} -> {a}");
        }
    }

    #[test]
    fn slot_at_time_zero_is_stuck() {
        // Force an artificial schedule with an idle slot at t=0 by
        // deadline pressure is impossible via rank_schedule (greedy never
        // idles at 0 with a ready source), so test move_idle_slot's guard
        // directly on a handcrafted schedule.
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let mask = g.all_nodes();
        let mut s = Schedule::new(g.len());
        s.assign(a, 1, 0, 1); // idle at 0
        let mut d = Deadlines::uniform(&g, &mask, 2);
        let mut ctx = SchedCtx::new();
        assert!(matches!(
            move_idle_slot(
                &mut ctx,
                &g,
                &mask,
                &m1(),
                &s,
                &mut d,
                0,
                0,
                &SchedOpts::default()
            ),
            MoveOutcome::Stuck
        ));
    }

    #[test]
    fn second_block_style_chain_delays() {
        // x -> {w, b} lat 1; w -> a lat 1; plus filler f with no deps.
        // Rank order can leave an early idle slot; delaying pushes it
        // later while keeping makespan.
        let mut g = DepGraph::new();
        let x = g.add_simple("x", BlockId(0));
        let w = g.add_simple("w", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        let a = g.add_simple("a", BlockId(0));
        let f = g.add_simple("f", BlockId(0));
        g.add_dep(x, w, 1);
        g.add_dep(x, b, 1);
        g.add_dep(w, a, 1);
        let mask = g.all_nodes();
        let mut ctx = SchedCtx::new();
        let s0 = rank_schedule(
            &mut ctx,
            &g,
            &mask,
            &m1(),
            &Deadlines::unbounded(&g, &mask),
            &SchedOpts::default(),
        )
        .unwrap();
        let t = s0.makespan() as i64;
        let mut d = Deadlines::uniform(&g, &mask, t);
        let s1 = delay_idle_slots(
            &mut ctx,
            &g,
            &mask,
            &m1(),
            s0.clone(),
            &mut d,
            &SchedOpts::default(),
        );
        assert_eq!(s1.makespan() as i64, t);
        validate_schedule(&g, &mask, &m1(), &s1, Some(d.as_slice())).unwrap();
        // Whatever happened, the last idle slot should be as late as the
        // original schedule's (monotone improvement).
        let before = s0.idle_slots(&m1());
        let after = s1.idle_slots(&m1());
        if let (Some(b0), Some(a0)) = (before.first(), after.first()) {
            assert!(a0 >= b0);
        }
        let _ = (b, f, NodeId(0));
    }
}
