//! Anticipatory scheduling for a loop enclosing a trace of blocks
//! (paper Section 5.1).
//!
//! *"Our solution is to simply use Algorithm Lookahead from Section 4,
//! and add an extra step in which BBm is scheduled with BB1 as a
//! successor, using the loop-carried data dependences to establish the
//! dependence constraints between the two sets."*
//!
//! The extra step builds an auxiliary two-block graph — BBm plus a frozen
//! copy of BB1's already-chosen order, joined by the distance-1
//! loop-carried edges — runs the trace scheduler on it, and takes BBm's
//! resulting subpermutation as the final emitted order for BBm.

use crate::config::LookaheadConfig;
use crate::error::CoreError;
use crate::lookahead::schedule_trace;
use crate::single_block::{schedule_single_block_loop, LOOP_EVAL_ITERS};
use asched_graph::{BlockId, DepGraph, MachineModel, NodeId, SchedCtx, SchedOpts};
use asched_sim::{loop_completion, steady_period};

/// Result of scheduling a loop that encloses a trace of basic blocks.
#[derive(Clone, Debug)]
pub struct LoopTraceResult {
    /// The emitted per-block orders, in trace order.
    pub block_orders: Vec<Vec<NodeId>>,
    /// Steady-state cycles per loop iteration (numerator, denominator),
    /// measured by the window simulator at the machine's window size.
    pub period: (u64, u64),
    /// Completion time of the first iteration.
    pub first_iter: u64,
}

/// Schedule a loop enclosing the trace formed by `g`'s blocks.
///
/// For a single-block loop this delegates to
/// [`schedule_single_block_loop`] (Section 5.2); for `m > 1` blocks it
/// runs Algorithm `Lookahead` and then the Section 5.1 wrap-around step.
pub fn schedule_loop_trace(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    cfg: &LookaheadConfig,
    opts: &SchedOpts,
) -> Result<LoopTraceResult, CoreError> {
    let blocks = g.blocks();
    let block_orders = if blocks.len() <= 1 {
        // 5.2.3 *selects* candidates at LOOP_EVAL_WINDOW (the paper's
        // literal-schedule semantics); this result's period is measured
        // at the machine's own window, as for a multi-block loop.
        vec![schedule_single_block_loop(ctx, g, machine, cfg, opts)?.order]
    } else {
        // Step 1: anticipatory scheduling of the trace, loop-carried
        // edges ignored (they have distance > 0, so the trace scheduler
        // already ignores them).
        let mut block_orders = schedule_trace(ctx, g, machine, cfg, opts)?.block_orders;

        // Step 2: re-schedule BBm against next-iteration BB1.
        let bb1 = blocks[0];
        let bbm = *blocks.last().expect("blocks nonempty");
        let wrap_edges: Vec<_> = g
            .loop_carried_edges()
            .filter(|e| e.distance == 1 && g.node(e.src).block == bbm && g.node(e.dst).block == bb1)
            .collect();
        if !wrap_edges.is_empty() {
            let m_index = blocks.len() - 1;
            block_orders[m_index] = reschedule_last_block(
                ctx,
                g,
                machine,
                cfg,
                opts,
                &block_orders[m_index],
                &block_orders[0],
                &wrap_edges,
            )?;
        }
        block_orders
    };
    Ok(LoopTraceResult {
        first_iter: loop_completion(ctx, g, machine, &block_orders, 1),
        period: steady_period(ctx, g, machine, &block_orders, LOOP_EVAL_ITERS),
        block_orders,
    })
}

/// Build the auxiliary graph (BBm as block 0, a frozen copy of BB1 as
/// block 1, wrap-around loop-carried edges as direct edges), run the
/// trace scheduler on it and extract BBm's order.
#[allow(clippy::too_many_arguments)]
fn reschedule_last_block(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    cfg: &LookaheadConfig,
    opts: &SchedOpts,
    bbm_order: &[NodeId],
    bb1_order: &[NodeId],
    wrap_edges: &[&asched_graph::DepEdge],
) -> Result<Vec<NodeId>, CoreError> {
    let mut aux = DepGraph::new();
    // orig -> aux id
    let mut to_aux: Vec<Option<NodeId>> = vec![None; g.len()];
    for (pos, &id) in bbm_order.iter().enumerate() {
        let mut data = g.node(id).clone();
        data.block = BlockId(0);
        data.source_pos = pos as u32;
        to_aux[id.index()] = Some(aux.add_node(data));
    }
    for (pos, &id) in bb1_order.iter().enumerate() {
        let mut data = g.node(id).clone();
        data.block = BlockId(1);
        data.source_pos = pos as u32;
        to_aux[id.index()] = Some(aux.add_node(data));
    }
    // BBm- then BB1-internal loop-independent edges (the latter for
    // timing fidelity).
    for &id in bbm_order.iter().chain(bb1_order) {
        for e in g.out_edges_li(id) {
            if let (Some(s), Some(d)) = (to_aux[e.src.index()], to_aux[e.dst.index()]) {
                if g.node(e.dst).block == g.node(e.src).block {
                    aux.add_edge(s, d, e.latency, 0, e.kind);
                }
            }
        }
    }
    // Freeze BB1's chosen order with zero-latency chain edges.
    for pair in bb1_order.windows(2) {
        let (a, b) = (
            to_aux[pair[0].index()].unwrap(),
            to_aux[pair[1].index()].unwrap(),
        );
        aux.add_edge(a, b, 0, 0, asched_graph::DepKind::Control);
    }
    // Wrap-around dependences become direct cross-block edges.
    for e in wrap_edges {
        let (s, d) = (
            to_aux[e.src.index()].unwrap(),
            to_aux[e.dst.index()].unwrap(),
        );
        aux.add_edge(s, d, e.latency, 0, e.kind);
    }

    let res = schedule_trace(ctx, &aux, machine, cfg, opts)?;
    // Map BBm's aux order back to original ids.
    let mut from_aux: Vec<NodeId> = vec![NodeId(0); aux.len()];
    for (orig, slot) in to_aux.iter().enumerate() {
        if let Some(a) = slot {
            from_aux[a.index()] = NodeId(orig as u32);
        }
    }
    Ok(res.block_orders[0]
        .iter()
        .map(|&a| from_aux[a.index()])
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use asched_graph::DepKind;

    fn m(w: usize) -> MachineModel {
        MachineModel::single_unit(w)
    }

    fn run(g: &DepGraph, machine: &MachineModel, cfg: &LookaheadConfig) -> LoopTraceResult {
        schedule_loop_trace(&mut SchedCtx::new(), g, machine, cfg, &SchedOpts::default()).unwrap()
    }

    /// A two-block loop where the wrap-around step matters: BB2 contains
    /// a producer p whose result the *next* iteration's BB1 needs with
    /// latency 3. Scheduling p early in BB2 shortens the steady state.
    fn wraparound_loop() -> (DepGraph, [NodeId; 5]) {
        let mut g = DepGraph::new();
        let u = g.add_simple("u", BlockId(0));
        let f = g.add_simple("f", BlockId(0));
        // BB2: two fillers inserted BEFORE p so that a loop-blind
        // scheduler (breaking rank ties by source order) emits p last.
        let q1 = g.add_simple("q1", BlockId(1));
        let q2 = g.add_simple("q2", BlockId(1));
        let p = g.add_simple("p", BlockId(1));
        g.add_edge(p, u, 3, 1, DepKind::Data); // wrap-around dependence
        (g, [u, f, q1, q2, p])
    }

    #[test]
    fn wraparound_step_improves_steady_state() {
        let (g, [u, f, q1, q2, p]) = wraparound_loop();
        let cfg = LookaheadConfig::default();
        let machine = m(2);
        let res = run(&g, &machine, &cfg);
        // The extra step must have moved p to the front of BB2.
        assert_eq!(res.block_orders[1][0], p);
        // Compare against the loop-blind orders.
        let blind =
            crate::trace::schedule_blocks_independent(&mut SchedCtx::new(), &g, &machine, true)
                .unwrap();
        assert_eq!(*blind[1].last().unwrap(), p); // p last without loop info
        let blind_period = steady_period(&mut SchedCtx::new(), &g, &machine, &blind, 16);
        assert_eq!(res.period.1, blind_period.1);
        assert!(
            res.period.0 < blind_period.0,
            "wrap-aware {:?} should beat blind {:?}",
            res.period,
            blind_period
        );
        let _ = (u, f, q1, q2);
    }

    /// With no wrap-around edges the result equals plain trace
    /// scheduling.
    #[test]
    fn no_wrap_edges_is_plain_trace() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(1));
        g.add_dep(a, b, 1);
        let cfg = LookaheadConfig::default();
        let res = run(&g, &m(2), &cfg);
        let base =
            schedule_trace(&mut SchedCtx::new(), &g, &m(2), &cfg, &SchedOpts::default()).unwrap();
        assert_eq!(res.block_orders, base.block_orders);
    }

    /// Single-block loops delegate to Section 5.2.
    #[test]
    fn single_block_delegates() {
        let (g, nodes) = crate::single_block::tests::fig3();
        let res = run(&g, &m(2), &LookaheadConfig::default());
        assert_eq!(res.block_orders.len(), 1);
        // Schedule 2 of Figure 3.
        assert_eq!(
            res.block_orders[0],
            vec![nodes[0], nodes[1], nodes[3], nodes[2], nodes[4]]
        );
        let _ = nodes;
    }

    /// The steady-state period always respects the recurrence bound
    /// (max over cycles of latency/distance).
    #[test]
    fn period_respects_recurrence() {
        let (g, _) = wraparound_loop();
        let res = run(&g, &m(4), &LookaheadConfig::default());
        // Recurrence: p -> u (3+1 exec) over distance 1 plus u..p path?
        // u and p are in different blocks with no forward path, so the
        // binding cycle is just p->u: period >= exec(p) + 3 = 4? No —
        // the wrap edge alone is not a cycle; the real lower bound is
        // total work / units = 5.
        assert!(res.period.0 >= 5 * res.period.1);
    }
}
