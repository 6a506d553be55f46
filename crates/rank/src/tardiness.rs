//! Tardiness utilities.
//!
//! The Rank Algorithm "constructs a minimum tardiness schedule if the
//! problem input has deadlines" (paper Section 6, citing Palem & Simons).
//! [`min_max_tardiness`] realizes that claim operationally: the minimum
//! uniform relaxation `delta` such that shifting every deadline by
//! `delta` becomes feasible equals the minimum achievable maximum
//! tardiness; a binary search over `delta` with the rank feasibility test
//! finds it.

use crate::deadline::Deadlines;
use crate::ranks::{rank_schedule, RankError};
use asched_graph::{DepGraph, MachineModel, NodeSet, SchedCtx, SchedOpts, Schedule};

/// Maximum tardiness of `sched` against deadlines `d` over `mask`:
/// `max(0, completion(x) - d(x))`.
pub fn max_tardiness(mask: &NodeSet, sched: &Schedule, d: &Deadlines) -> i64 {
    mask.iter()
        .map(|id| {
            let c = sched.completion(id).expect("schedule must cover the mask") as i64;
            (c - d.get(id)).max(0)
        })
        .max()
        .unwrap_or(0)
}

/// Minimum achievable maximum tardiness under deadlines `d`, together
/// with a schedule attaining it.
///
/// Exact on the restricted machine (0/1 latencies, unit execution times,
/// single unit), where the rank feasibility test is exact; a heuristic
/// otherwise. Returns `Err` only for cyclic graphs.
///
/// Every feasibility probe in the binary search re-ranks the same
/// `(g, mask)`, so the `ctx` analysis cache turns all but the first probe
/// into pure scratch-buffer work.
pub fn min_max_tardiness(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
    d: &Deadlines,
    opts: &SchedOpts,
) -> Result<(Schedule, i64), RankError> {
    // Fast path: already feasible.
    match rank_schedule(ctx, g, mask, machine, d, opts) {
        Ok(s) => return Ok((s, 0)),
        Err(RankError::Cyclic(c)) => return Err(RankError::Cyclic(c)),
        Err(RankError::Infeasible { .. }) => {}
    }
    // Upper bound: any valid schedule's tardiness; take the unconstrained
    // rank schedule.
    let free = rank_schedule(ctx, g, mask, machine, &Deadlines::unbounded(g, mask), opts)?;
    let hi0 = max_tardiness(mask, &free, d);
    debug_assert!(hi0 > 0, "infeasible instance must have positive tardiness");

    let feasible_with = |ctx: &mut SchedCtx, delta: i64| -> Option<Schedule> {
        let mut shifted = d.clone();
        shifted.shift_all(mask, delta);
        rank_schedule(ctx, g, mask, machine, &shifted, opts).ok()
    };

    let (mut lo, mut hi) = (0i64, hi0);
    let mut best = free;
    debug_assert!(feasible_with(ctx, hi).is_some());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match feasible_with(ctx, mid) {
            Some(s) => {
                best = s;
                hi = mid;
            }
            None => lo = mid + 1,
        }
    }
    // `hi` is the smallest feasible delta found; `best` is a schedule for
    // it (re-run in case the last probe failed).
    if max_tardiness(mask, &best, d) > hi {
        best = feasible_with(ctx, hi).expect("hi was verified feasible");
    }
    Ok((best, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asched_graph::BlockId;

    fn m1() -> MachineModel {
        MachineModel::single_unit(2)
    }

    #[test]
    fn zero_tardiness_when_feasible() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 0);
        let d = Deadlines::uniform(&g, &g.all_nodes(), 5);
        let (s, t) = min_max_tardiness(
            &mut SchedCtx::new(),
            &g,
            &g.all_nodes(),
            &m1(),
            &d,
            &SchedOpts::default(),
        )
        .unwrap();
        assert_eq!(t, 0);
        assert_eq!(max_tardiness(&g.all_nodes(), &s, &d), 0);
    }

    #[test]
    fn impossible_deadline_yields_exact_delta() {
        // Chain a -(1)-> b with both deadlines 1: b can complete at 3 at
        // best, so min max tardiness is 2.
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 1);
        let d = Deadlines::uniform(&g, &g.all_nodes(), 1);
        let (s, t) = min_max_tardiness(
            &mut SchedCtx::new(),
            &g,
            &g.all_nodes(),
            &m1(),
            &d,
            &SchedOpts::default(),
        )
        .unwrap();
        assert_eq!(t, 2);
        assert_eq!(max_tardiness(&g.all_nodes(), &s, &d), 2);
    }

    #[test]
    fn tardiness_counts_only_lateness() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let mut s = Schedule::new(g.len());
        s.assign(a, 0, 0, 1); // completes at 1
        let d = Deadlines::uniform(&g, &g.all_nodes(), 10);
        assert_eq!(max_tardiness(&g.all_nodes(), &s, &d), 0);
        let tight = Deadlines::uniform(&g, &g.all_nodes(), 0);
        assert_eq!(max_tardiness(&g.all_nodes(), &s, &tight), 1);
    }

    #[test]
    fn mixed_deadlines() {
        // Three independent nodes; deadlines 1,1,1 on a single unit force
        // tardiness 2 (completions 1,2,3).
        let mut g = DepGraph::new();
        for i in 0..3 {
            g.add_simple(format!("n{i}"), BlockId(0));
        }
        let d = Deadlines::uniform(&g, &g.all_nodes(), 1);
        let (_, t) = min_max_tardiness(
            &mut SchedCtx::new(),
            &g,
            &g.all_nodes(),
            &m1(),
            &d,
            &SchedOpts::default(),
        )
        .unwrap();
        assert_eq!(t, 2);
    }
}
