//! Procedure `merge` (paper Figure 7).
//!
//! `merge(old, new)` schedules the union of the carried-over suffix `old`
//! and the next block's instructions `new`, assigning deadlines so that
//! *"instructions from `new` do not displace instructions in `old`, but
//! only fill idle slots that may be present among instructions in
//! `old`"*:
//!
//! 1. Schedule `old ∪ new` with an artificially large deadline `D`; its
//!    makespan `T` is a lower bound for any legal merged schedule.
//! 2. Give every `old` node `d(w) = min(d_old(w), T_old)` where `T_old`
//!    is the makespan of `old` alone (tighter deadlines established
//!    earlier — e.g. by idle-slot delaying — are retained, *except* when
//!    the greedy scheduler proves the pinned set infeasible as a whole:
//!    then `schedule_or_relax`'s fallback replaces the pins with the
//!    completions an unconstrained schedule actually achieves).
//! 3. Give every `new` node deadline `T`; while infeasible, relax all
//!    `new` deadlines (exponential-then-binary search over the shared
//!    relaxation amount; the paper bounds the relaxation count by the
//!    window size; we bound it by the guaranteed-feasible
//!    concatenation).
//!
//! Four kinds of Rank run of the figure are skipped when their answer
//! is already known, with the same schedules, deadlines, rungs and
//! `merge_probe` events:
//!
//! * **The carried schedule.** When `chop` emitted nothing, the next
//!   merge's `old` is the previous block's whole schedule, under the
//!   same deadlines and release times. If that schedule is the Rank
//!   Algorithm's own output for them, the caller passes it in as
//!   `carried` and it stands for the `old`-alone run of step 2.
//! * **The ceiling on demand.** The relaxation ceiling needs a Rank run
//!   of `new` alone, but only failed probes read it. The search starts
//!   from a floor that replaces that makespan by `capacity_bound(new)`
//!   and makes the run only when its next step would pass the floor,
//!   so it probes the same deltas. A merge that ends in the
//!   concatenation rung has made that run, and splices it in.
//! * **The first block.** With `old = ∅`, probe(0)'s deadlines are step
//!   1's, all lowered by the same amount. Every rank drops by that
//!   amount, so the priority list and the greedy schedule are step 1's,
//!   and that schedule meets `T` by definition: probe(0) succeeds with
//!   step 1's schedule.
//! * **The refuted delta.** When the exponential search's last step was
//!   clamped to the ceiling, the binary search can probe the delta the
//!   exponential search refuted just before (0, 1, 2, 4 fail, 6 and 5
//!   succeed, then 4). That probe is decided without a Rank run.

use crate::config::LookaheadConfig;
use crate::error::CoreError;
use asched_graph::{
    capacity_bound, DepGraph, MachineModel, NodeSet, SchedCtx, SchedOpts, Schedule,
};
use asched_obs::{record, Event, MergeRung, Pass};
use asched_rank::{rank_schedule, Deadlines};

/// Merge `old` and `new` under the deadline discipline of Figure 7.
///
/// `d` holds the current deadlines of `old` nodes (entries for `new`
/// nodes are overwritten); on success it holds the final deadlines of
/// every node in `old ∪ new`. `opts.release`, if given, carries
/// earliest-start times from already-emitted instructions. With an
/// enabled `opts.rec` the whole call is one timed `merge` pass, every
/// relaxation probe emits a `merge_probe` accept/reject event, and the
/// final `merge_done` event names the fallback rung that produced the
/// schedule and the relaxation applied to the `new` deadlines.
///
/// `carried`, when given, must be what `rank_schedule` returns for
/// `old` under `d` and `opts.release`; it replaces that run. `Lookahead`
/// passes the previous block's final schedule when `chop` emitted
/// nothing and the schedule came out of a Rank run under the final
/// deadlines: a `Paper` or `PinnedOld` rung, or a `Delay_Idle_Slots`
/// move.
///
/// Every probe re-ranks the same `old ∪ new` set, so the `ctx` analysis
/// cache collapses the whole relaxation search onto one graph analysis.
///
/// Returns the schedule of `old ∪ new` and the rung that produced it.
#[allow(clippy::too_many_arguments)]
pub fn merge(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    old: &NodeSet,
    new: &NodeSet,
    d: &mut Deadlines,
    carried: Option<&Schedule>,
    cfg: &LookaheadConfig,
    opts: &SchedOpts,
) -> Result<(Schedule, MergeRung), CoreError> {
    let result = asched_obs::timed(opts.rec, Pass::Merge, || {
        merge_inner(ctx, g, machine, old, new, d, carried, cfg, opts)
    });
    if let Ok((s, rung, relaxed)) = &result {
        record!(
            opts.rec,
            Event::MergeDone {
                rung: *rung,
                makespan: s.makespan(),
                relaxed: *relaxed,
            }
        );
    }
    result.map(|(s, rung, _)| (s, rung))
}

#[allow(clippy::too_many_arguments)]
fn merge_inner(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    old: &NodeSet,
    new: &NodeSet,
    d: &mut Deadlines,
    carried: Option<&Schedule>,
    cfg: &LookaheadConfig,
    opts: &SchedOpts,
) -> Result<(Schedule, MergeRung, i64), CoreError> {
    debug_assert!(old.is_disjoint(new), "old and new must be disjoint");
    let cur = old.union(new);

    // Release times can push any schedule past the plain work+latency
    // horizon; widen the "unconstrained" probes accordingly.
    let slack: i64 = opts
        .release
        .map(|r| cur.iter().map(|id| r[id.index()]).max().unwrap_or(0) as i64)
        .unwrap_or(0);

    // Step 1: unconstrained lower bound T for the merged set.
    let d_free = free_deadlines(g, &cur, slack);
    let s0 = rank_schedule(ctx, g, &cur, machine, &d_free, opts)?;
    let t_lower = s0.makespan() as i64;

    if old.is_empty() {
        // The first block: probe(0) would rank `new` under `T` instead
        // of `D + slack`, which lowers every rank by the difference and
        // leaves the list, and so the schedule, as s0's.
        d.set_all(new, t_lower);
        record!(
            opts.rec,
            Event::MergeProbe {
                delta: 0,
                feasible: true
            }
        );
        return Ok((s0, MergeRung::Paper, 0));
    }

    // Makespan of `old` alone under its current deadlines. Off the
    // restricted machine the greedy scheduler may miss inherited
    // deadlines even though they were achievable in the larger context;
    // in that case re-derive achievable deadlines from an unconstrained
    // schedule of `old` alone.
    let fresh;
    let old_alone = match carried {
        Some(s) => s,
        None => {
            fresh = schedule_or_relax(ctx, g, machine, old, d, slack, opts)?;
            &fresh
        }
    };
    let t_old = old_alone.makespan() as i64;

    // Step 2: protect old; step 3: new gets the lower bound.
    if cfg.protect_old {
        for w in old.iter() {
            d.tighten(w, t_old);
        }
    } else {
        // Ablation: old nodes only get the merged bound.
        for w in old.iter() {
            d.tighten(w, t_lower);
        }
    }
    d.set_all(new, t_lower);

    let mut ceiling = Ceiling::new(g, machine, new, t_old, slack);

    // Rung 1 (the paper): relax only the `new` deadlines until feasible.
    match relax_loop(ctx, g, machine, &cur, new, d, t_lower, &mut ceiling, opts) {
        Ok((s, delta)) => return Ok((s, MergeRung::Paper, delta)),
        Err(CoreError::MergeFailed) => {}
        Err(e) => return Err(e),
    }

    // Rung 2 (robustification off the restricted machine): the uniform
    // `t_old` cap can be greedily unachievable even though `old` alone
    // schedules fine. Pin every old node to its completion in the
    // old-alone schedule — achievable by construction — and retry. `new`
    // can then still fill old's idle slots, which is all the paper's
    // protection is meant to allow.
    for id in old.iter() {
        d.set(id, old_alone.completion(id).expect("old scheduled") as i64);
    }
    d.set_all(new, t_lower);
    match relax_loop(ctx, g, machine, &cur, new, d, t_lower, &mut ceiling, opts) {
        Ok((s, delta)) => return Ok((s, MergeRung::PinnedOld, delta)),
        Err(CoreError::MergeFailed) => {}
        Err(e) => return Err(e),
    }

    // Rung 3: the concatenation the paper's feasibility argument relies
    // on — old alone, then new alone after the largest latency. Both
    // failed rungs read the exact ceiling, so `new` alone is scheduled.
    let s_new = ceiling.new_alone(ctx, g, machine, new, opts)?;
    concatenation_fallback(ctx, g, machine, old, new, s_new, d, slack, opts)
        .map(|s| (s, MergeRung::Concatenation, 0))
}

/// Deadlines that constrain nothing under release times up to `slack`:
/// the unbounded horizon `D`, shifted past the largest release.
fn free_deadlines(g: &DepGraph, mask: &NodeSet, slack: i64) -> Deadlines {
    let mut d = Deadlines::unbounded(g, mask);
    d.shift_all(mask, slack);
    d
}

/// The relaxation ceiling: the guaranteed-feasible concatenation's
/// length `t_old + max_latency + T_new`, where `T_new` is the makespan
/// of `new` scheduled alone (paper: "there is a feasible … schedule that
/// can be obtained by first scheduling all of the old nodes followed by
/// all of the new nodes, with possibly [max latency] idle time between
/// the two"). `T_new` costs a Rank run, so it is made on demand; until
/// then `floor` stands in, with `capacity_bound(new)` — which no
/// schedule of `new` beats — in place of `T_new`. The run is kept: the
/// concatenation rung splices in that very schedule.
struct Ceiling {
    /// `t_old + max_latency + capacity_bound(new)`, at most the ceiling.
    floor: i64,
    /// `t_old + max_latency`.
    base: i64,
    /// Release slack that widens the new-alone run's horizon.
    slack: i64,
    /// `new` scheduled alone under free deadlines, once run.
    new_alone: Option<Schedule>,
}

impl Ceiling {
    fn new(g: &DepGraph, machine: &MachineModel, new: &NodeSet, t_old: i64, slack: i64) -> Self {
        let base = t_old + g.max_latency() as i64;
        Ceiling {
            floor: base + capacity_bound(g, new, machine) as i64,
            base,
            slack,
            new_alone: None,
        }
    }

    /// `new` scheduled alone under free deadlines, run on first use.
    fn new_alone(
        &mut self,
        ctx: &mut SchedCtx,
        g: &DepGraph,
        machine: &MachineModel,
        new: &NodeSet,
        opts: &SchedOpts,
    ) -> Result<&Schedule, CoreError> {
        let s_new = match self.new_alone.take() {
            Some(s) => s,
            None => {
                let d = free_deadlines(g, new, self.slack);
                rank_schedule(ctx, g, new, machine, &d, opts)?
            }
        };
        Ok(self.new_alone.insert(s_new))
    }

    /// The ceiling, scheduling `new` alone on first use.
    fn exact(
        &mut self,
        ctx: &mut SchedCtx,
        g: &DepGraph,
        machine: &MachineModel,
        new: &NodeSet,
        opts: &SchedOpts,
    ) -> Result<i64, CoreError> {
        let base = self.base;
        let s_new = self.new_alone(ctx, g, machine, new, opts)?;
        Ok(base + s_new.makespan() as i64)
    }
}

/// The paper's relaxation loop: schedule `cur` under `d`; on
/// infeasibility raise every `new` deadline, up to `ceiling`. Per the
/// paper ("or log(W) if binary search is used") the search is
/// exponential-then-binary over the relaxation amount rather than
/// one-cycle steps, so a merge costs O(log(ceiling - T)) rank runs.
///
/// The exponential search reads the ceiling only to clamp its next step
/// and to give up after a failed probe at the ceiling. Neither can
/// happen while the next step stays within the floor, so the exact
/// ceiling is computed only once a step would pass it.
#[allow(clippy::too_many_arguments)]
fn relax_loop(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    cur: &NodeSet,
    new: &NodeSet,
    d: &mut Deadlines,
    t_lower: i64,
    ceiling: &mut Ceiling,
    opts: &SchedOpts,
) -> Result<(Schedule, i64), CoreError> {
    // Probe with `new` deadlines relaxed by `delta`; `d` holds the
    // baseline (delta = 0) assignment between probes.
    let probe =
        |ctx: &mut SchedCtx, delta: i64, d: &mut Deadlines| -> Result<Schedule, CoreError> {
            d.shift_all(new, delta);
            let r = rank_schedule(ctx, g, cur, machine, d, opts);
            d.shift_all(new, -delta);
            record!(
                opts.rec,
                Event::MergeProbe {
                    delta,
                    feasible: r.is_ok()
                }
            );
            match r {
                Ok(s) => Ok(s),
                Err(asched_rank::RankError::Cyclic(c)) => Err(CoreError::Cyclic(c)),
                Err(asched_rank::RankError::Infeasible { .. }) => Err(CoreError::MergeFailed),
            }
        };
    // Exponential probe for a feasible relaxation.
    let mut hi = 0i64;
    // The last relaxation the exponential phase refuted.
    let mut refuted = -1i64;
    let mut hi_sched = loop {
        match probe(ctx, hi, d) {
            Ok(s) => break s,
            Err(CoreError::MergeFailed) => {
                refuted = hi;
                let step = if hi == 0 { 1 } else { hi * 2 };
                if step <= ceiling.floor - t_lower {
                    hi = step;
                    continue;
                }
                let max_delta = ceiling.exact(ctx, g, machine, new, opts)? - t_lower;
                if hi >= max_delta {
                    return Err(CoreError::MergeFailed);
                }
                hi = step.min(max_delta);
            }
            Err(e) => return Err(e),
        }
    };
    // Binary search for the smallest feasible relaxation (assuming the
    // monotonicity the paper's bound relies on; a non-monotone pocket
    // merely yields a slightly larger-than-minimal delta).
    let mut lo = hi / 2 + i64::from(hi > 0); // smallest untried below hi, 0 if hi==0
    if hi == 0 {
        lo = 0;
    }
    let (mut lo, mut hi) = (lo.min(hi), hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        // When the last exponential step was clamped to the ceiling,
        // the search can come back to the delta refuted just before it;
        // a Rank run there would replay the same problem to the same
        // answer, so only its probe event is emitted.
        let verdict = if mid == refuted {
            record!(
                opts.rec,
                Event::MergeProbe {
                    delta: mid,
                    feasible: false
                }
            );
            Err(CoreError::MergeFailed)
        } else {
            probe(ctx, mid, d)
        };
        match verdict {
            Ok(s) => {
                hi_sched = s;
                hi = mid;
            }
            Err(CoreError::MergeFailed) => lo = mid + 1,
            Err(e) => return Err(e),
        }
    }
    d.shift_all(new, hi);
    Ok((hi_sched, hi))
}

/// Schedule `set` under `d`; if the greedy scheduler misses the
/// (inherited) deadlines, schedule unconstrained instead and overwrite
/// `d` with the completions actually achieved — which are achievable by
/// construction and keep the rest of the pipeline monotone.
///
/// Contract: `d` is only rewritten on the *fallback* path, and only
/// after the unconstrained schedule succeeded — on an `Err` return `d`
/// is untouched. The rewrite intentionally supersedes deadlines pinned
/// earlier (e.g. by idle-slot delaying): those pins were advisory
/// targets for this very scheduling attempt, and once proven
/// greedy-infeasible the achieved completions are the tightest sound
/// replacement.
fn schedule_or_relax(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    set: &NodeSet,
    d: &mut Deadlines,
    slack: i64,
    opts: &SchedOpts,
) -> Result<Schedule, CoreError> {
    match rank_schedule(ctx, g, set, machine, d, opts) {
        Ok(s) => Ok(s),
        Err(asched_rank::RankError::Cyclic(c)) => Err(CoreError::Cyclic(c)),
        Err(asched_rank::RankError::Infeasible { .. }) => {
            let s = rank_schedule(ctx, g, set, machine, &free_deadlines(g, set, slack), opts)?;
            for id in set.iter() {
                d.set(id, s.completion(id).expect("scheduled") as i64);
            }
            Ok(s)
        }
    }
}

/// The guaranteed-feasible schedule: `old` under its deadlines, then
/// `s_new` (`new` scheduled alone under free deadlines) starting
/// `max_latency` after `old` completes. Every cross edge `old -> new`
/// has latency at most `max_latency`, so the gap satisfies them all;
/// release times were honoured by both sub-schedules.
#[allow(clippy::too_many_arguments)]
fn concatenation_fallback(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    old: &NodeSet,
    new: &NodeSet,
    s_new: &Schedule,
    d: &mut Deadlines,
    slack: i64,
    opts: &SchedOpts,
) -> Result<Schedule, CoreError> {
    let s_old = schedule_or_relax(ctx, g, machine, old, d, slack, opts)?;
    // Splice after the makespan of the old schedule we ACTUALLY use —
    // schedule_or_relax may have rescheduled `old` past the `t_old` the
    // relaxation rungs used, and splicing at that stale offset would
    // overlap units or violate cross-block latencies.
    let offset = s_old.makespan() + g.max_latency() as u64;

    let mut sched = Schedule::new(g.len());
    for id in old.iter() {
        let st = s_old.start(id).expect("old scheduled");
        sched.assign(id, st, s_old.unit(id).unwrap(), g.exec_time(id));
    }
    for id in new.iter() {
        let st = s_new.start(id).expect("new scheduled") + offset;
        sched.assign(id, st, s_new.unit(id).unwrap(), g.exec_time(id));
        d.set(id, (st + g.exec_time(id) as u64) as i64);
    }
    Ok(sched)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use asched_graph::validate::validate_schedule;
    use asched_graph::{BlockId, NodeId};
    use proptest::prelude::*;

    fn m1() -> MachineModel {
        MachineModel::single_unit(2)
    }

    /// The Figure 1 block (BB1) plus the Figure 2 block (BB2) and the
    /// latency-1 edge w -> z. Returns (graph, BB1 nodes, BB2 nodes).
    pub(crate) fn fig2() -> (DepGraph, [NodeId; 6], [NodeId; 5]) {
        let mut g = DepGraph::new();
        // BB1 (insertion order fixes paper tie-breaks).
        let e = g.add_simple("e", BlockId(0));
        let x = g.add_simple("x", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        let w = g.add_simple("w", BlockId(0));
        let a = g.add_simple("a", BlockId(0));
        let r = g.add_simple("r", BlockId(0));
        for &(s, t) in &[(x, w), (x, b), (x, r), (e, w), (e, b), (w, a), (b, a)] {
            g.add_dep(s, t, 1);
        }
        // BB2: z -(1)-> q -(0)-> p -(1)-> v, z -(1)-> g.
        let z = g.add_simple("z", BlockId(1));
        let q = g.add_simple("q", BlockId(1));
        let p = g.add_simple("p", BlockId(1));
        let v = g.add_simple("v", BlockId(1));
        let gg = g.add_simple("g", BlockId(1));
        g.add_dep(z, q, 1);
        g.add_dep(q, p, 0);
        g.add_dep(p, v, 1);
        g.add_dep(z, gg, 1);
        // The cross-block edge of Figure 2.
        g.add_dep(w, z, 1);
        (g, [x, e, w, b, a, r], [z, q, p, v, gg])
    }

    /// Paper Figure 2: merged ranks with deadline 100 everywhere.
    #[test]
    fn fig2_merged_ranks_match_paper() {
        let (g, [x, e, w, b, a, r], [z, q, p, v, gg]) = fig2();
        let d = Deadlines::uniform(&g, &g.all_nodes(), 100);
        let mut ctx = SchedCtx::new();
        let ranks = asched_rank::compute_ranks(
            &mut ctx,
            &g,
            &g.all_nodes(),
            &m1(),
            &d,
            &SchedOpts::default(),
        )
        .unwrap();
        let rk = |n: NodeId| ranks[n.index()];
        assert_eq!(rk(gg), 100);
        assert_eq!(rk(v), 100);
        assert_eq!(rk(a), 100);
        assert_eq!(rk(r), 100);
        assert_eq!(rk(p), 98);
        assert_eq!(rk(b), 98);
        assert_eq!(rk(q), 97);
        assert_eq!(rk(z), 95);
        assert_eq!(rk(w), 93);
        assert_eq!(rk(e), 91);
        assert_eq!(rk(x), 90);
    }

    /// The merged lower bound (and final merged makespan) is 11, as in
    /// the paper's walk-through.
    #[test]
    fn fig2_merge_produces_makespan_11() {
        let (g, bb1, bb2) = fig2();
        let old: NodeSet = NodeSet::from_iter_with_universe(g.len(), bb1);
        let new: NodeSet = NodeSet::from_iter_with_universe(g.len(), bb2);
        // BB1 enters the merge with deadline 7 (its own makespan) and
        // d(x) = 1 established by idle-slot delaying.
        let mut d = Deadlines::uniform(&g, &old, 7);
        d.set(bb1[0], 1); // x
        let cfg = LookaheadConfig::default();
        let mut ctx = SchedCtx::new();
        let (s, _) = merge(
            &mut ctx,
            &g,
            &m1(),
            &old,
            &new,
            &mut d,
            None,
            &cfg,
            &SchedOpts::default(),
        )
        .unwrap();
        assert_eq!(s.makespan(), 11);
        // Old nodes keep their protected deadlines.
        assert_eq!(d.get(bb1[0]), 1);
        assert!(bb1.iter().all(|&n| d.get(n) <= 7));
        // New nodes got the merged bound 11.
        assert!(bb2.iter().all(|&n| d.get(n) == 11));
        validate_schedule(&g, &old.union(&new), &m1(), &s, Some(d.as_slice())).unwrap();
        // x must still come first, and the whole of BB1 completes by 7.
        assert_eq!(s.start(bb1[0]), Some(0));
    }

    /// Without a cross edge the two blocks merge into makespan 11 as well
    /// (BB1 takes 7 with one idle slot; BB2's chain fills and extends).
    #[test]
    fn merge_empty_old_is_plain_scheduling() {
        let (g, bb1, _) = fig2();
        let new: NodeSet = NodeSet::from_iter_with_universe(g.len(), bb1);
        let old = NodeSet::new(g.len());
        let mut d = Deadlines::uniform(&g, &old, 0);
        let cfg = LookaheadConfig::default();
        let (s, _) = merge(
            &mut SchedCtx::new(),
            &g,
            &m1(),
            &old,
            &new,
            &mut d,
            None,
            &cfg,
            &SchedOpts::default(),
        )
        .unwrap();
        assert_eq!(s.makespan(), 7);
        assert!(bb1.iter().all(|&n| d.get(n) == 7));
    }

    /// When old's deadlines make the merged lower bound unreachable,
    /// merge relaxes only the new deadlines until feasible.
    #[test]
    fn merge_relaxes_new_deadlines() {
        // old: single node o pinned first (deadline 1, as idle-slot
        // delaying would leave it). new: chain n1 -(2)-> n2. The
        // unconstrained optimum starts n1 *before* o (n1@0, o@1, n2@3,
        // T = 4), but protection forbids that, so the bound must be
        // relaxed to 5 (o@0, n1@1, n2@4).
        let mut g = DepGraph::new();
        let o = g.add_simple("o", BlockId(0));
        let n1 = g.add_simple("n1", BlockId(1));
        let n2 = g.add_simple("n2", BlockId(1));
        g.add_dep(n1, n2, 2);
        let old = NodeSet::from_iter_with_universe(g.len(), [o]);
        let new = NodeSet::from_iter_with_universe(g.len(), [n1, n2]);
        let mut d = Deadlines::uniform(&g, &old, 1);
        let cfg = LookaheadConfig::default();
        let (s, _) = merge(
            &mut SchedCtx::new(),
            &g,
            &m1(),
            &old,
            &new,
            &mut d,
            None,
            &cfg,
            &SchedOpts::default(),
        )
        .unwrap();
        assert_eq!(s.start(o), Some(0));
        assert_eq!(s.start(n1), Some(1));
        assert_eq!(s.start(n2), Some(4));
        assert_eq!(s.makespan(), 5);
        // New deadlines were relaxed from the lower bound 4 to 5.
        assert_eq!(d.get(n2), 5);
        validate_schedule(&g, &old.union(&new), &m1(), &s, Some(d.as_slice())).unwrap();
    }

    /// Release times from emitted instructions hold back new nodes.
    #[test]
    fn merge_respects_release_times() {
        let mut g = DepGraph::new();
        let n1 = g.add_simple("n1", BlockId(0));
        let old = NodeSet::new(g.len());
        let new = NodeSet::from_iter_with_universe(g.len(), [n1]);
        let mut d = Deadlines::uniform(&g, &old, 0);
        let release = vec![5u64];
        let cfg = LookaheadConfig::default();
        let opts = SchedOpts::default().with_release(&release);
        let (s, _) = merge(
            &mut SchedCtx::new(),
            &g,
            &m1(),
            &old,
            &new,
            &mut d,
            None,
            &cfg,
            &opts,
        )
        .unwrap();
        assert_eq!(s.start(n1), Some(5));
    }

    /// A random Section 4.2 trace with release times: `blocks` blocks,
    /// edge latencies 0–3, execution times 1–2, 60% of the nodes bound
    /// to a concrete unit class, on `rs6000_like(W)` or `uniform(2, W)`
    /// with W ∈ {1, 2, 4, 8}; about a third of the nodes get a release
    /// time of 1–3.
    pub(crate) fn random_case(
        nodes: usize,
        blocks: usize,
        seed: u64,
        rs6000: bool,
        wi: usize,
    ) -> (DepGraph, MachineModel, Vec<u64>) {
        use asched_workloads::{random_trace_dag, DagParams};
        let g = random_trace_dag(&DagParams {
            nodes: nodes.max(blocks),
            blocks,
            edge_prob: 0.3,
            cross_prob: 0.2,
            max_latency: 3,
            max_exec: 2,
            class_fraction: 0.6,
            seed,
        });
        let w = [1, 2, 4, 8][wi % 4];
        let machine = if rs6000 {
            MachineModel::rs6000_like(w)
        } else {
            MachineModel::uniform(2, w)
        };
        let mut state = seed | 1;
        let release = (0..g.len())
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(3) {
                    1 + (state >> 8) % 3
                } else {
                    0
                }
            })
            .collect();
        (g, machine, release)
    }

    /// Keeps the `merge_probe`, `merge_done` and `idle_move` events, in
    /// order: what a merge or `Delay_Idle_Slots` decided, without the
    /// `rank_run` events of the runs behind it.
    #[derive(Default)]
    pub(crate) struct Decisions(pub(crate) std::cell::RefCell<Vec<String>>);

    impl asched_obs::Recorder for Decisions {
        fn enabled(&self) -> bool {
            true
        }

        fn record(&self, event: &Event<'_>) {
            if matches!(
                event,
                Event::MergeProbe { .. } | Event::MergeDone { .. } | Event::IdleMove { .. }
            ) {
                self.0.borrow_mut().push(format!("{event:?}"));
            }
        }
    }

    /// [`relax_loop`] with the ceiling computed up front: the reference
    /// the ceiling on demand must match.
    #[allow(clippy::too_many_arguments)]
    fn eager_relax_loop(
        ctx: &mut SchedCtx,
        g: &DepGraph,
        machine: &MachineModel,
        cur: &NodeSet,
        new: &NodeSet,
        d: &mut Deadlines,
        t_lower: i64,
        ceiling: i64,
        opts: &SchedOpts,
    ) -> Result<(Schedule, i64), CoreError> {
        let probe =
            |ctx: &mut SchedCtx, delta: i64, d: &mut Deadlines| -> Result<Schedule, CoreError> {
                d.shift_all(new, delta);
                let r = rank_schedule(ctx, g, cur, machine, d, opts);
                d.shift_all(new, -delta);
                record!(
                    opts.rec,
                    Event::MergeProbe {
                        delta,
                        feasible: r.is_ok()
                    }
                );
                r.map_err(CoreError::from)
            };
        let max_delta = ceiling - t_lower;
        let mut hi = 0i64;
        let mut hi_sched = loop {
            match probe(ctx, hi, d) {
                Ok(s) => break s,
                Err(CoreError::MergeFailed) => {
                    if hi >= max_delta {
                        return Err(CoreError::MergeFailed);
                    }
                    hi = if hi == 0 { 1 } else { (hi * 2).min(max_delta) };
                }
                Err(e) => return Err(e),
            }
        };
        let mut lo = hi / 2 + i64::from(hi > 0);
        if hi == 0 {
            lo = 0;
        }
        let (mut lo, mut hi) = (lo.min(hi), hi);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match probe(ctx, mid, d) {
                Ok(s) => {
                    hi_sched = s;
                    hi = mid;
                }
                Err(CoreError::MergeFailed) => lo = mid + 1,
                Err(e) => return Err(e),
            }
        }
        d.shift_all(new, hi);
        Ok((hi_sched, hi))
    }

    /// A clamped relaxation search (a 14-node trace found by searching
    /// seeds): deltas 0, 1, 2 and 4 fail, the step to 8 is clamped to the
    /// ceiling's 6, and 6 and 5 succeed, so the binary search comes back
    /// to 4. That probe keeps its `merge_probe` event but makes no Rank
    /// run, and the search ends where the eager reference, which reruns
    /// it, ends.
    #[test]
    fn refuted_delta_is_not_rerun() {
        let (g, m, release) = random_case(14, 2, 876, false, 0);
        let opts = SchedOpts::default().with_release(&release);
        let slack = release.iter().copied().max().unwrap_or(0) as i64;
        let mut ctx = SchedCtx::new();
        let bl = g.blocks();
        let (old, new) = (g.block_nodes(bl[0]), g.block_nodes(bl[1]));
        let cur = old.union(&new);
        let run = |ctx: &mut SchedCtx, mask: &NodeSet| {
            let free = free_deadlines(&g, mask, slack);
            rank_schedule(ctx, &g, mask, &m, &free, &opts).unwrap()
        };
        let t_lower = run(&mut ctx, &cur).makespan() as i64;
        let s_old = run(&mut ctx, &old);
        let mut d0 = Deadlines::uniform(&g, &cur, t_lower);
        for id in old.iter() {
            d0.set(id, s_old.completion(id).unwrap() as i64);
        }
        let ceiling = || Ceiling::new(&g, &m, &new, s_old.makespan() as i64, slack);
        let eager_ceiling = {
            let mut c = ceiling();
            c.exact(&mut ctx, &g, &m, &new, &opts).unwrap()
        };

        let (decisions, profile) = (Decisions::default(), asched_obs::ProfileRecorder::new());
        let tee = asched_obs::TeeRecorder::new(&decisions, &profile);
        let mut d = d0.clone();
        let lazy = relax_loop(
            &mut ctx,
            &g,
            &m,
            &cur,
            &new,
            &mut d,
            t_lower,
            &mut ceiling(),
            &opts.with_recorder(&tee),
        );
        let probes: Vec<String> = [
            (0, false),
            (1, false),
            (2, false),
            (4, false),
            (6, true),
            (5, true),
            (4, false),
        ]
        .into_iter()
        .map(|(delta, feasible)| format!("{:?}", Event::MergeProbe { delta, feasible }))
        .collect();
        assert_eq!(decisions.0.into_inner(), probes);
        let profile = profile.into_profile();
        assert_eq!(profile.counter("merge_probes"), 7);
        // Six probes and the ceiling's `new`-alone run.
        assert_eq!(profile.counter("rank_runs"), 7);

        let mut d_eager = d0.clone();
        let eager = eager_relax_loop(
            &mut ctx,
            &g,
            &m,
            &cur,
            &new,
            &mut d_eager,
            t_lower,
            eager_ceiling,
            &opts,
        );
        let lazy = relaxed(lazy);
        assert_eq!(lazy.as_ref().map(|r| r.1), Some(5));
        assert_eq!(lazy, relaxed(eager));
        assert_eq!(d, d_eager);
    }

    /// A relaxation result, with the one error the loops may return.
    type Relaxed = Option<(Schedule, i64)>;

    fn relaxed(r: Result<(Schedule, i64), CoreError>) -> Relaxed {
        match r {
            Ok(r) => Some(r),
            Err(CoreError::MergeFailed) => None,
            Err(e) => panic!("unexpected merge error {e}"),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The ceiling on demand probes the deltas the eager ceiling
        /// probes and settles on the same relaxation, in both rungs that
        /// share one ceiling, and the `new`-alone run it keeps for the
        /// concatenation rung is the eager one. Each seam of a random
        /// trace is relaxed from two deadline sets on `old`: its
        /// `old`-alone completions with some pinned up to two cycles
        /// earlier (often infeasible up to the ceiling), and the plain
        /// completions.
        #[test]
        fn ceiling_on_demand_matches_the_eager_ceiling(
            nodes in 6usize..28,
            blocks in 2usize..5,
            seed in any::<u64>(),
            rs6000 in any::<bool>(),
            wi in 0usize..4,
        ) {
            let (g, m, release) = random_case(nodes, blocks, seed, rs6000, wi);
            let opts = SchedOpts::default().with_release(&release);
            let slack = release.iter().copied().max().unwrap_or(0) as i64;
            let mut ctx = SchedCtx::new();
            let mut pick = seed;
            let bl = g.blocks();
            for k in 1..bl.len() {
                let old = (0..k).fold(NodeSet::new(g.len()), |acc, i| acc.union(&g.block_nodes(bl[i])));
                let new = g.block_nodes(bl[k]);
                let cur = old.union(&new);
                let free = |mask: &NodeSet| free_deadlines(&g, mask, slack);
                let run = |ctx: &mut SchedCtx, mask: &NodeSet| {
                    rank_schedule(ctx, &g, mask, &m, &free(mask), &opts).unwrap()
                };
                let t_lower = run(&mut ctx, &cur).makespan() as i64;
                let s_old = run(&mut ctx, &old);
                let t_old = s_old.makespan() as i64;
                let s_new = run(&mut ctx, &new);
                let eager = t_old + g.max_latency() as i64 + s_new.makespan() as i64;

                let mut pinned = Deadlines::uniform(&g, &cur, t_lower);
                let mut plain = pinned.clone();
                for id in old.iter() {
                    let c = s_old.completion(id).unwrap() as i64;
                    pick = pick.rotate_left(7) ^ 0x9E37_79B9;
                    pinned.set(id, if pick.is_multiple_of(3) { c - (pick >> 4) as i64 % 3 } else { c });
                    plain.set(id, c);
                }
                let mut ceiling = Ceiling::new(&g, &m, &new, t_old, slack);
                for d0 in [&pinned, &plain] {
                    let (lazy_rec, eager_rec) = (Decisions::default(), Decisions::default());
                    let (mut d_lazy, mut d_eager) = (d0.clone(), d0.clone());
                    let lazy = relax_loop(
                        &mut ctx, &g, &m, &cur, &new, &mut d_lazy, t_lower, &mut ceiling,
                        &opts.with_recorder(&lazy_rec),
                    );
                    let reference = eager_relax_loop(
                        &mut ctx, &g, &m, &cur, &new, &mut d_eager, t_lower, eager,
                        &opts.with_recorder(&eager_rec),
                    );
                    prop_assert_eq!(lazy_rec.0.into_inner(), eager_rec.0.into_inner());
                    prop_assert_eq!(relaxed(lazy), relaxed(reference));
                    prop_assert_eq!(d_lazy, d_eager);
                    prop_assert!(ceiling.new_alone.as_ref().is_none_or(|s| *s == s_new));
                }
            }
        }

        /// With `old = ∅` the merge is a real probe(0): `rank_schedule`
        /// under the merge's final deadlines gives the same schedule, and
        /// the merge reports that one feasible probe. Every block of a random trace is tried as the
        /// first, under release times.
        #[test]
        fn first_block_is_a_real_probe(
            nodes in 6usize..28,
            blocks in 2usize..5,
            seed in any::<u64>(),
            rs6000 in any::<bool>(),
            wi in 0usize..4,
        ) {
            let (g, m, release) = random_case(nodes, blocks, seed, rs6000, wi);
            let opts = SchedOpts::default().with_release(&release);
            let mut ctx = SchedCtx::new();
            let none = NodeSet::new(g.len());
            for blk in g.blocks() {
                let new = g.block_nodes(blk);
                let mut d = Deadlines::uniform(&g, &none, 0);
                let rec = Decisions::default();
                let (s, rung) = merge(
                    &mut ctx, &g, &m, &none, &new, &mut d, None,
                    &LookaheadConfig::default(), &opts.with_recorder(&rec),
                ).unwrap();
                let probe = rank_schedule(&mut ctx, &g, &new, &m, &d, &opts)
                    .expect("probe(0) is feasible");
                prop_assert_eq!(&s, &probe);
                prop_assert_eq!(rung, MergeRung::Paper);
                let makespan = s.makespan();
                prop_assert_eq!(
                    rec.0.into_inner(),
                    vec![
                        format!("{:?}", Event::MergeProbe { delta: 0, feasible: true }),
                        format!(
                            "{:?}",
                            Event::MergeDone { rung: MergeRung::Paper, makespan, relaxed: 0 }
                        ),
                    ]
                );
            }
        }
    }
}
