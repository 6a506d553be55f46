//! Anticipatory scheduling for a loop containing a single basic block
//! (paper Section 5.2).
//!
//! This is harder than the multi-block case *"because we now have to
//! consider the overlap among instructions in BB1[k] and BB1[k+1] which
//! belong to the same basic block"*. The paper's solution transforms the
//! cyclic dependence graph into an acyclic one:
//!
//! * **5.2.1 (single source)** — add a dummy *sink* `z` representing the
//!   next iteration's source; every node gets a zero-latency edge to `z`,
//!   and each loop-carried edge `(a, y)` becomes `(a, z)` with the same
//!   latency.
//! * **5.2.2 (single sink)** — the dual: a dummy *source* representing
//!   the previous iteration's sink.
//! * **5.2.3 (general)** — try 5.2.1 with every target of a loop-carried
//!   edge as the source candidate and 5.2.2 with every source of a
//!   loop-carried edge as the sink candidate, and keep the best
//!   steady-state schedule. (Figure 8 shows why a single transform is
//!   not enough.)

use crate::config::LookaheadConfig;
use crate::error::CoreError;
use crate::trace::block_schedule;
use asched_graph::{BlockId, DepGraph, MachineModel, NodeData, NodeId, SchedCtx, SchedOpts};
use asched_sim::{loop_completion, steady_period};

/// Window size at which Section 5.2.3 *evaluates* loop-schedule
/// candidates ("select the best"): the paper compares candidates by
/// their literal steady-state completion time, i.e. window 1.
pub const LOOP_EVAL_WINDOW: usize = 1;

/// Iterations used to warm up and measure a loop schedule's steady
/// state.
pub const LOOP_EVAL_ITERS: u32 = 16;

/// Which transformation produced a candidate schedule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CandidateKind {
    /// Section 5.2.1 with this node as the source: a dummy sink stands in
    /// for the node's next-iteration instance.
    DummySink(NodeId),
    /// Section 5.2.2 with this node as the sink: a dummy source stands in
    /// for the node's previous-iteration instance.
    DummySource(NodeId),
    /// The loop-blind local schedule (used when the loop has no
    /// loop-carried dependence, and reported for comparison).
    Local,
}

/// One evaluated candidate schedule.
#[derive(Clone, Debug)]
pub struct CandidateReport {
    /// The transformation that produced it.
    pub kind: CandidateKind,
    /// The emitted per-iteration instruction order.
    pub order: Vec<NodeId>,
    /// Steady-state cycles per iteration, as an exact rational
    /// (numerator, denominator).
    pub period: (u64, u64),
    /// Completion time of a single iteration in isolation.
    pub single_iter: u64,
}

/// Result of single-block loop scheduling.
#[derive(Clone, Debug)]
pub struct SingleBlockLoopResult {
    /// The selected (best steady-state) order.
    pub order: Vec<NodeId>,
    /// Its steady-state period (numerator, denominator).
    pub period: (u64, u64),
    /// Completion time of one iteration of the selected order.
    pub single_iter: u64,
    /// Every candidate that was evaluated, in generation order.
    pub candidates: Vec<CandidateReport>,
}

/// Section 5.2.1: dummy-sink transform with `source` as the candidate
/// source node. Returns the acyclic graph (same node ids as `g`, plus
/// the dummy as the last node) and the dummy's id.
pub fn dummy_sink_transform(g: &DepGraph, source: NodeId) -> (DepGraph, NodeId) {
    let mut g2 = copy_li(g);
    let z = g2.add_node(NodeData {
        label: format!("{}_next", g.node(source).label),
        exec_time: 1,
        class: asched_graph::FuClass::Any,
        block: BlockId(0),
        source_pos: g.len() as u32,
    });
    for id in g.node_ids() {
        g2.add_edge(id, z, 0, 0, asched_graph::DepKind::Control);
    }
    for e in g.loop_carried_edges() {
        if e.dst == source {
            g2.add_edge(e.src, z, e.latency, 0, e.kind);
        }
    }
    (g2, z)
}

/// Section 5.2.2: dummy-source transform with `sink` as the candidate
/// sink node (the dual of [`dummy_sink_transform`]).
pub fn dummy_source_transform(g: &DepGraph, sink: NodeId) -> (DepGraph, NodeId) {
    let mut g2 = copy_li(g);
    let z = g2.add_node(NodeData {
        label: format!("{}_prev", g.node(sink).label),
        exec_time: 1,
        class: asched_graph::FuClass::Any,
        block: BlockId(0),
        source_pos: g.len() as u32,
    });
    for id in g.node_ids() {
        g2.add_edge(z, id, 0, 0, asched_graph::DepKind::Control);
    }
    for e in g.loop_carried_edges() {
        if e.src == sink {
            g2.add_edge(z, e.dst, e.latency, 0, e.kind);
        }
    }
    (g2, z)
}

/// Copy of `g` with only the loop-independent edges (same node ids).
fn copy_li(g: &DepGraph) -> DepGraph {
    let mut g2 = DepGraph::new();
    for id in g.node_ids() {
        g2.add_node(g.node(id).clone());
    }
    for id in g.node_ids() {
        for e in g.out_edges_li(id) {
            g2.add_edge(e.src, e.dst, e.latency, 0, e.kind);
        }
    }
    g2
}

/// Schedule an acyclic candidate graph ([`block_schedule`], idle slots
/// delayed) and return the order of the *original* nodes (the dummy
/// dropped).
fn candidate_order(
    ctx: &mut SchedCtx,
    g2: &DepGraph,
    machine: &MachineModel,
    dummy: NodeId,
    opts: &SchedOpts,
) -> Result<Vec<NodeId>, CoreError> {
    let s = block_schedule(ctx, g2, &g2.all_nodes(), machine, true, opts)?;
    Ok(s.order().into_iter().filter(|&id| id != dummy).collect())
}

/// Section 5.2.3: schedule a single-block loop by trying every candidate
/// transformation and keeping the best steady-state order.
///
/// Candidate evaluation runs the window simulator with window
/// [`LOOP_EVAL_WINDOW`] (the paper's literal-schedule semantics) for
/// [`LOOP_EVAL_ITERS`] iterations. If the loop has no loop-carried
/// edges the loop-blind local schedule is returned directly.
///
/// ```
/// use asched_core::{schedule_single_block_loop, LookaheadConfig};
/// use asched_graph::{BlockId, DepGraph, DepKind, MachineModel, SchedCtx, SchedOpts};
///
/// // The paper's Figure 8 loop: the general case finds 2 1 3 at
/// // 4 cycles/iteration where the single-source transform is stuck at 5.
/// let mut g = DepGraph::new();
/// let n1 = g.add_simple("1", BlockId(0));
/// let n2 = g.add_simple("2", BlockId(0));
/// let n3 = g.add_simple("3", BlockId(0));
/// g.add_dep(n1, n3, 1);
/// g.add_dep(n2, n3, 1);
/// g.add_edge(n3, n1, 1, 1, DepKind::Data);
///
/// let machine = MachineModel::single_unit(2);
/// let res = schedule_single_block_loop(
///     &mut SchedCtx::new(),
///     &g,
///     &machine,
///     &LookaheadConfig::default(),
///     &SchedOpts::default(),
/// )
/// .unwrap();
/// assert_eq!(res.order, vec![n2, n1, n3]);
/// assert_eq!(res.period.0, 4 * res.period.1);
/// ```
pub fn schedule_single_block_loop(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    cfg: &LookaheadConfig,
    opts: &SchedOpts,
) -> Result<SingleBlockLoopResult, CoreError> {
    if g.blocks().len() > 1 {
        return Err(CoreError::BadLoopStructure(
            "single-block loop scheduling expects exactly one block",
        ));
    }
    // Release times are meaningless across the candidate graphs (their
    // node sets differ from `g`), so only the recorder and backward mode
    // propagate to the inner scheduling calls.
    let inner = SchedOpts {
        release: None,
        ..*opts
    };
    let eval_machine = machine.with_window(LOOP_EVAL_WINDOW);
    let evaluate = |ctx: &mut SchedCtx, order: &[NodeId]| {
        steady_period(ctx, g, &eval_machine, &[order], LOOP_EVAL_ITERS)
    };
    let single =
        |ctx: &mut SchedCtx, order: &[NodeId]| loop_completion(ctx, g, &eval_machine, &[order], 1);

    // The loop-blind local schedule is always computed for reporting.
    let local_order = block_schedule(ctx, g, &g.all_nodes(), machine, true, &inner)?.order();
    let mut candidates = vec![CandidateReport {
        kind: CandidateKind::Local,
        period: evaluate(ctx, &local_order),
        single_iter: single(ctx, &local_order),
        order: local_order.clone(),
    }];

    // Candidate source nodes: targets of loop-carried edges (5.2.1);
    // candidate sink nodes: sources of loop-carried edges (5.2.2).
    let mut sources: Vec<NodeId> = g.loop_carried_edges().map(|e| e.dst).collect();
    sources.sort_unstable();
    sources.dedup();
    let mut sinks: Vec<NodeId> = g.loop_carried_edges().map(|e| e.src).collect();
    sinks.sort_unstable();
    sinks.dedup();
    if cfg.filter_loop_candidates {
        // Paper Section 5.2.3, final paragraph: "For 0/1 latencies, we
        // can reduce the compile-time of this optimal solution by
        // observing that only instructions with no predecessors in G_li
        // need to be considered as candidate source nodes in step 1, and
        // only instructions with no successors in G_li need to be
        // considered as candidate sink nodes in step 2."
        let mask = g.all_nodes();
        sources.retain(|&v| g.preds_in(v, &mask).is_empty());
        sinks.retain(|&v| g.succs_in(v, &mask).is_empty());
    }

    for &y in &sources {
        let (g2, z) = dummy_sink_transform(g, y);
        let order = candidate_order(ctx, &g2, machine, z, &inner)?;
        candidates.push(CandidateReport {
            kind: CandidateKind::DummySink(y),
            period: evaluate(ctx, &order),
            single_iter: single(ctx, &order),
            order,
        });
    }
    for &y in &sinks {
        let (g2, z) = dummy_source_transform(g, y);
        let order = candidate_order(ctx, &g2, machine, z, &inner)?;
        candidates.push(CandidateReport {
            kind: CandidateKind::DummySource(y),
            period: evaluate(ctx, &order),
            single_iter: single(ctx, &order),
            order,
        });
    }

    // Select: smallest steady-state period; ties by single-iteration
    // makespan, then by generation order (deterministic).
    let best = candidates
        .iter()
        .enumerate()
        .min_by(|(i, a), (j, b)| {
            let pa = a.period.0 * b.period.1;
            let pb = b.period.0 * a.period.1;
            pa.cmp(&pb)
                .then(a.single_iter.cmp(&b.single_iter))
                .then(i.cmp(j))
        })
        .map(|(i, _)| i)
        .expect("at least the local candidate exists");
    let chosen = candidates[best].clone();
    Ok(SingleBlockLoopResult {
        order: chosen.order,
        period: chosen.period,
        single_iter: chosen.single_iter,
        candidates,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use asched_graph::DepKind;

    fn m1() -> MachineModel {
        MachineModel::single_unit(2)
    }

    fn run(g: &DepGraph, cfg: &LookaheadConfig) -> SingleBlockLoopResult {
        schedule_single_block_loop(&mut SchedCtx::new(), g, &m1(), cfg, &SchedOpts::default())
            .unwrap()
    }

    /// The Figure 3 partial-products loop: L(oad), S(tore), C(ompare),
    /// M(ultiply), BT (branch). Latencies: load 1, compare 1, multiply 4.
    pub(crate) fn fig3() -> (DepGraph, [NodeId; 5]) {
        let mut g = DepGraph::new();
        let l = g.add_simple("L4", BlockId(0));
        let s = g.add_simple("ST", BlockId(0));
        let c = g.add_simple("C4", BlockId(0));
        let mm = g.add_simple("M", BlockId(0));
        let bt = g.add_simple("BT", BlockId(0));
        // Loop-independent data dependences.
        g.add_dep(l, c, 1); // gr6 -> compare
        g.add_dep(l, mm, 1); // gr6 -> multiply
        g.add_dep(c, bt, 1); // cr1 -> branch
        g.add_edge(s, mm, 0, 0, DepKind::Anti); // S reads gr0, M overwrites it
                                                // Control dependences: everything precedes the branch.
        for &u in &[l, s, mm] {
            g.add_edge(u, bt, 0, 0, DepKind::Control);
        }
        // Loop-carried dependences.
        g.add_edge(mm, s, 4, 1, DepKind::Data); // y[i-1] value (software pipelined store)
        g.add_edge(mm, mm, 4, 1, DepKind::Data); // gr0 accumulator
        g.add_edge(l, l, 1, 1, DepKind::Data); // gr7 index update
        g.add_edge(s, s, 1, 1, DepKind::Data); // gr5 index update
        (g, [l, s, c, mm, bt])
    }

    /// Paper Figure 3, Schedule 1: the locally-optimal order
    /// L ST C4 M BT takes 5 cycles for one iteration but 7 per iteration
    /// in steady state.
    #[test]
    fn fig3_local_schedule_is_5_then_7() {
        let (g, [l, s, c, mm, bt]) = fig3();
        let res = run(&g, &LookaheadConfig::default());
        let local = res
            .candidates
            .iter()
            .find(|c| c.kind == CandidateKind::Local)
            .unwrap();
        assert_eq!(local.order, vec![l, s, c, mm, bt]);
        assert_eq!(local.single_iter, 5);
        assert_eq!(local.period, (7 * 16, 16));
    }

    /// Paper Figure 3, Schedule 2: the anticipatory order L ST M C4 BT
    /// takes 6 cycles for one iteration but sustains 6 per iteration —
    /// and the Section 5.2.3 algorithm selects it.
    #[test]
    fn fig3_algorithm_selects_schedule2() {
        let (g, [l, s, c, mm, bt]) = fig3();
        let res = run(&g, &LookaheadConfig::default());
        assert_eq!(res.order, vec![l, s, mm, c, bt]);
        assert_eq!(res.single_iter, 6);
        assert_eq!(res.period, (6 * 16, 16));
    }

    /// Figure 8: the dummy-SINK transform on a multiple-source graph is
    /// blind (the acyclic graph is symmetric in nodes 1 and 2) while the
    /// dummy-SOURCE transform finds 2 1 3; the general algorithm selects
    /// the 4-cycles-per-iteration schedule.
    #[test]
    fn fig8_general_case_picks_4n() {
        let mut g = DepGraph::new();
        let n1 = g.add_simple("1", BlockId(0));
        let n2 = g.add_simple("2", BlockId(0));
        let n3 = g.add_simple("3", BlockId(0));
        g.add_dep(n1, n3, 1);
        g.add_dep(n2, n3, 1);
        g.add_edge(n3, n1, 1, 1, DepKind::Data);
        let res = run(&g, &LookaheadConfig::default());
        assert_eq!(res.order, vec![n2, n1, n3]);
        assert_eq!(res.period, (4 * 16, 16));
        // The dummy-source candidate (sink node 3) is the winner.
        let src_cand = res
            .candidates
            .iter()
            .find(|c| matches!(c.kind, CandidateKind::DummySource(s) if s == n3))
            .unwrap();
        assert_eq!(src_cand.order, vec![n2, n1, n3]);
        // The dummy-sink candidate (source node 1) cannot break the
        // 1/2 symmetry and yields the 5-cycle schedule.
        let sink_cand = res
            .candidates
            .iter()
            .find(|c| matches!(c.kind, CandidateKind::DummySink(t) if t == n1))
            .unwrap();
        assert_eq!(sink_cand.period, (5 * 16, 16));
    }

    /// Loops without loop-carried edges fall back to the local schedule.
    #[test]
    fn no_loop_carried_edges_gives_local() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 1);
        let res = run(&g, &LookaheadConfig::default());
        assert_eq!(res.candidates.len(), 1);
        assert_eq!(res.order, vec![a, b]);
    }

    /// The 0/1 candidate filter (paper 5.2.3, final paragraph) preserves
    /// the selected schedule on Figure 8 while trying fewer candidates.
    #[test]
    fn candidate_filter_preserves_fig8_selection() {
        let mut g = DepGraph::new();
        let n1 = g.add_simple("1", BlockId(0));
        let n2 = g.add_simple("2", BlockId(0));
        let n3 = g.add_simple("3", BlockId(0));
        g.add_dep(n1, n3, 1);
        g.add_dep(n2, n3, 1);
        g.add_edge(n3, n1, 1, 1, DepKind::Data);
        let full = run(&g, &LookaheadConfig::default());
        let cfg = LookaheadConfig {
            filter_loop_candidates: true,
            ..LookaheadConfig::default()
        };
        let filtered = run(&g, &cfg);
        assert_eq!(filtered.order, full.order);
        assert_eq!(filtered.period, full.period);
        // n1 is a G_li source and a loop-carried target; n3 is a G_li
        // sink and a loop-carried source: both survive the filter, so
        // candidate counts coincide here — build a case where they don't:
        // n3 -> n2 loop-carried makes n2 a target, but n2 is not a G_li
        // source? n2 IS a source. Use n3 as target instead.
        let mut g2 = DepGraph::new();
        let a = g2.add_simple("a", BlockId(0));
        let b = g2.add_simple("b", BlockId(0));
        let c = g2.add_simple("c", BlockId(0));
        g2.add_dep(a, b, 1);
        g2.add_dep(b, c, 1);
        g2.add_edge(c, b, 2, 1, DepKind::Data); // target b is NOT a G_li source
        let full2 = run(&g2, &LookaheadConfig::default());
        let filt2 = run(&g2, &cfg);
        assert!(filt2.candidates.len() < full2.candidates.len());
    }

    #[test]
    fn multi_block_graph_rejected() {
        let mut g = DepGraph::new();
        g.add_simple("a", BlockId(0));
        g.add_simple("b", BlockId(1));
        assert!(matches!(
            schedule_single_block_loop(
                &mut SchedCtx::new(),
                &g,
                &m1(),
                &LookaheadConfig::default(),
                &SchedOpts::default()
            ),
            Err(CoreError::BadLoopStructure(_))
        ));
    }

    /// The transforms preserve node identity and add exactly one dummy.
    #[test]
    fn transforms_preserve_nodes() {
        let (g, [l, s, _c, mm, _bt]) = fig3();
        let (g2, z) = dummy_sink_transform(&g, s);
        assert_eq!(g2.len(), g.len() + 1);
        assert_eq!(z.index(), g.len());
        // M -> S <4,1> became M -> z <4,0>.
        assert!(g2.out_edges_li(mm).any(|e| e.dst == z && e.latency == 4));
        // No loop-carried edges remain.
        assert!(!g2.has_loop_carried());
        let (g3, z3) = dummy_source_transform(&g, mm);
        // M is the source of M->S and M->M: z3 -> S with latency 4.
        assert!(g3.out_edges_li(z3).any(|e| e.dst == s && e.latency == 4));
        assert!(!g3.has_loop_carried());
        let _ = l;
    }
}
