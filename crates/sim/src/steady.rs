//! Loop completion and steady-state period.
//!
//! Paper Section 2.4: *"a schedule which is optimal for a single basic
//! block can be suboptimal in steady-state, and a schedule which is
//! suboptimal for a single basic block can be optimal in steady-state."*
//! The anticipatory loop algorithms of Section 5 therefore select
//! candidate schedules by their steady-state behaviour; this module
//! measures it by running the window simulator over enough iterations for
//! the per-iteration increment to stabilize.
//!
//! A loop body is given as its per-block emitted orders in trace order;
//! a single-block loop passes one order (`&[order]`). Both measurements
//! simulate [`InstStream::loop_iterations`] of that body and thread the
//! caller's [`SchedCtx`] through to [`simulate`], so repeated
//! measurements reuse its simulator scratch.

use crate::stream::InstStream;
use crate::window::{simulate, IssuePolicy};
use asched_graph::{DepGraph, MachineModel, NodeId, SchedCtx, SchedOpts};

/// Completion time of `n` iterations of a loop whose body is emitted as
/// `block_orders` (0 for no iterations or an empty body).
pub fn loop_completion<B: AsRef<[NodeId]>>(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    block_orders: &[B],
    n: u32,
) -> u64 {
    let stream = InstStream::loop_iterations(block_orders, n);
    simulate(
        ctx,
        g,
        machine,
        &stream,
        IssuePolicy::Strict,
        &SchedOpts::default(),
    )
    .completion
}

/// Steady-state cycles per iteration as an exact rational:
/// `(completion(2·warm) − completion(warm), warm)`, with `warm` raised
/// to at least 2. The first `warm` iterations are the warm-up; the next
/// `warm` are measured.
///
/// For the periodic schedules the paper's loops settle into, this is the
/// exact cycles-per-iteration (e.g. Figure 3's schedules measure 7/1 and
/// 6/1; Figure 8's measure 5/1 and 4/1).
pub fn steady_period<B: AsRef<[NodeId]>>(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    block_orders: &[B],
    warm: u32,
) -> (u64, u64) {
    let warm = warm.max(2);
    let c1 = loop_completion(ctx, g, machine, block_orders, warm);
    let c2 = loop_completion(ctx, g, machine, block_orders, 2 * warm);
    (c2 - c1, warm as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use asched_graph::{BlockId, DepKind};

    /// Figure 8's three-node loop: 1 -(1)-> 3, 2 -(1)-> 3, and a
    /// loop-carried edge 3 -(1, distance 1)-> 1.
    fn fig8() -> (DepGraph, [NodeId; 3]) {
        let mut g = DepGraph::new();
        let n1 = g.add_simple("1", BlockId(0));
        let n2 = g.add_simple("2", BlockId(0));
        let n3 = g.add_simple("3", BlockId(0));
        g.add_dep(n1, n3, 1);
        g.add_dep(n2, n3, 1);
        g.add_edge(n3, n1, 1, 1, DepKind::Data);
        (g, [n1, n2, n3])
    }

    /// Paper Figure 8: schedule S1 = 1 2 3 completes n iterations in
    /// 5n - 1 cycles; S2 = 2 1 3 completes them in 4n cycles. The
    /// figure's completion times are those of the *constructed schedule*
    /// (the unrolled sequence executed in order), i.e. window size 1.
    #[test]
    fn fig8_completion_formulas() {
        let (g, [n1, n2, n3]) = fig8();
        let m = MachineModel::single_unit(1);
        let mut ctx = SchedCtx::new();
        for n in 1..=6u32 {
            let s1 = loop_completion(&mut ctx, &g, &m, &[[n1, n2, n3]], n);
            assert_eq!(s1, 5 * n as u64 - 1, "S1 at n={n}");
            let s2 = loop_completion(&mut ctx, &g, &m, &[[n2, n1, n3]], n);
            assert_eq!(s2, 4 * n as u64, "S2 at n={n}");
        }
    }

    #[test]
    fn fig8_steady_periods() {
        let (g, [n1, n2, n3]) = fig8();
        let m = MachineModel::single_unit(1);
        let mut ctx = SchedCtx::new();
        for warm in [16, 64] {
            assert_eq!(
                steady_period(&mut ctx, &g, &m, &[[n1, n2, n3]], warm),
                (5 * warm as u64, warm as u64)
            );
            assert_eq!(
                steady_period(&mut ctx, &g, &m, &[[n2, n1, n3]], warm),
                (4 * warm as u64, warm as u64)
            );
        }
    }

    /// With an actual lookahead window (W >= 2) the hardware itself
    /// recovers most of the bad order's loss — the paper's premise that
    /// hardware lookahead overlaps work across boundaries.
    #[test]
    fn fig8_lookahead_repairs_bad_order() {
        let (g, [n1, n2, n3]) = fig8();
        let w1 = MachineModel::single_unit(1);
        let w4 = MachineModel::single_unit(4);
        let mut ctx = SchedCtx::new();
        let bad_w1 = steady_period(&mut ctx, &g, &w1, &[[n1, n2, n3]], 64).0;
        let bad_w4 = steady_period(&mut ctx, &g, &w4, &[[n1, n2, n3]], 64).0;
        let good_w4 = steady_period(&mut ctx, &g, &w4, &[[n2, n1, n3]], 64).0;
        assert!(bad_w4 < bad_w1, "window should improve the bad order");
        assert!(good_w4 <= bad_w4);
    }

    #[test]
    fn zero_iterations() {
        let (g, [n1, n2, n3]) = fig8();
        let m = MachineModel::single_unit(4);
        assert_eq!(
            loop_completion(&mut SchedCtx::new(), &g, &m, &[[n1, n2, n3]], 0),
            0
        );
    }

    /// Blocks follow one another within an iteration, so splitting a
    /// body into blocks leaves its stream, and its completion, as is.
    #[test]
    fn split_body_completes_like_one_block() {
        let (g, [n1, n2, n3]) = fig8();
        let m = MachineModel::single_unit(4);
        let mut ctx = SchedCtx::new();
        let whole = loop_completion(&mut ctx, &g, &m, &[vec![n2, n1, n3]], 5);
        let split = loop_completion(&mut ctx, &g, &m, &[vec![n2], vec![n1, n3]], 5);
        assert_eq!(whole, split);
    }

    /// A self-recurrence bounds the period regardless of order.
    #[test]
    fn recurrence_bound_respected() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 0);
        g.add_edge(a, a, 5, 1, DepKind::Data); // II >= 6
        let m = MachineModel::single_unit(8);
        let (cycles, iters) = steady_period(&mut SchedCtx::new(), &g, &m, &[[a, b]], 64);
        assert!(
            cycles >= 6 * iters,
            "period {cycles}/{iters} below recurrence bound"
        );
    }
}
