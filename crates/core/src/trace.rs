//! Per-block scheduling without trace information.
//!
//! The introduction's fallback: *"If the compiler has no trace or loop
//! information, a simple application of this idea is to move idle slots
//! as late as possible independently in each basic block."* With
//! `delay = false` this degenerates to plain local (Rank Algorithm)
//! scheduling — the classic baseline the experiments compare against.

use crate::error::CoreError;
use crate::lookahead::TraceResult;
use asched_graph::{DepGraph, MachineModel, NodeId, NodeSet, SchedCtx, SchedOpts, Schedule};
use asched_rank::{delay_idle_slots, rank_schedule, Deadlines};
use asched_sim::{schedule_of, simulate, InstStream, IssuePolicy};

/// Schedule every block of `g` independently; returns one emitted order
/// per block (ascending block id).
///
/// With `delay = true`, each block's idle slots are moved as late as
/// possible (anticipatory scheduling without trace information); with
/// `delay = false` this is plain per-block rank scheduling.
pub fn schedule_blocks_independent(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    delay: bool,
) -> Result<Vec<Vec<NodeId>>, CoreError> {
    let opts = SchedOpts::default();
    g.blocks()
        .into_iter()
        .map(|blk| {
            let mask = g.block_nodes(blk);
            Ok(block_schedule(ctx, g, &mask, machine, delay, &opts)?.order())
        })
        .collect()
}

/// The Rank Algorithm's schedule of `mask` on its own (no deadlines);
/// with `delay`, `Delay_Idle_Slots` then moves its idle slots as late as
/// its makespan allows. The one block schedule behind
/// [`schedule_blocks_independent`] and the single-block loop
/// scheduler's candidates.
pub(crate) fn block_schedule(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
    delay: bool,
    opts: &SchedOpts,
) -> Result<Schedule, CoreError> {
    let free = Deadlines::unbounded(g, mask);
    let sched = rank_schedule(ctx, g, mask, machine, &free, opts)?;
    if !delay {
        return Ok(sched);
    }
    let mut d = Deadlines::uniform(g, mask, sched.makespan() as i64);
    Ok(delay_idle_slots(ctx, g, mask, machine, sched, &mut d, opts))
}

/// The per-block fallback as a whole [`TraceResult`]: the orders of
/// [`schedule_blocks_independent`], measured on the Section 2.3 window
/// model, with the prediction rebuilt from the simulator's own issue
/// times so every field stays mutually consistent. Unrecorded.
///
/// The portfolio guard of [`crate::schedule_trace`] and the batch
/// engine's degraded path both emit this result.
pub fn per_block_fallback(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    delay: bool,
) -> Result<TraceResult, CoreError> {
    let orders = schedule_blocks_independent(ctx, g, machine, delay)?;
    let stream = InstStream::from_blocks(&orders);
    let opts = SchedOpts::default();
    let sim = simulate(ctx, g, machine, &stream, IssuePolicy::Strict, &opts);
    let predicted = schedule_of(g, machine, &stream, &sim);
    Ok(TraceResult {
        permutation: predicted.order(),
        makespan: sim.completion,
        predicted,
        block_orders: orders,
        blocks: g.blocks(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::tests::fig2;
    use asched_sim::{InstStream, IssuePolicy};

    fn m(w: usize) -> MachineModel {
        MachineModel::single_unit(w)
    }

    fn run(g: &DepGraph, machine: &MachineModel, delay: bool) -> Vec<Vec<NodeId>> {
        schedule_blocks_independent(&mut SchedCtx::new(), g, machine, delay).unwrap()
    }

    #[test]
    fn independent_scheduling_emits_all_blocks() {
        let (g, _, _) = fig2();
        let orders = run(&g, &m(2), true);
        assert_eq!(orders.len(), 2);
        assert_eq!(orders[0].len(), 6);
        assert_eq!(orders[1].len(), 5);
    }

    /// Idle-slot delaying without trace information already helps on
    /// Figure 2: BB1's delayed order x e r w b a lets z fill the idle
    /// slot even though BB2 was scheduled blindly.
    #[test]
    fn delaying_helps_even_without_trace_info() {
        let (g, _, _) = fig2();
        let plain = run(&g, &m(2), false);
        let delayed = run(&g, &m(2), true);
        let t_plain = asched_sim::simulate(
            &mut SchedCtx::new(),
            &g,
            &m(2),
            &InstStream::from_blocks(&plain),
            IssuePolicy::Strict,
            &SchedOpts::default(),
        )
        .completion;
        let t_delayed = asched_sim::simulate(
            &mut SchedCtx::new(),
            &g,
            &m(2),
            &InstStream::from_blocks(&delayed),
            IssuePolicy::Strict,
            &SchedOpts::default(),
        )
        .completion;
        assert!(
            t_delayed <= t_plain,
            "delayed {t_delayed} should not exceed plain {t_plain}"
        );
    }

    #[test]
    fn orders_respect_in_block_dependences() {
        let (g, _, _) = fig2();
        let orders = run(&g, &m(2), true);
        for order in &orders {
            let pos: std::collections::HashMap<_, _> =
                order.iter().enumerate().map(|(i, &n)| (n, i)).collect();
            for &id in order {
                for e in g.out_edges_li(id) {
                    if let (Some(&pi), Some(&pj)) = (pos.get(&e.src), pos.get(&e.dst)) {
                        assert!(pi < pj, "dependence {e} violated in emitted order");
                    }
                }
            }
        }
    }
}
