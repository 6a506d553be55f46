//! Algorithm `Lookahead` (paper Figure 5).
//!
//! ```text
//! sched := empty; old := ∅
//! for i := 1 to m:
//!     new := BBi
//!     (S, d) := merge(old, new, d_old, W)
//!     (S, d) := Delay_Idle_Slots(S, d)
//!     (S⁻, S⁺, d⁺) := chop(S, d)
//!     sched := concat(sched, S⁻); old := S⁺
//! sched := concat(sched, S⁺)
//! ```
//!
//! The output permutation's per-block subpermutations are the *emitted*
//! code (instructions never move across block boundaries — footnote 7);
//! the assembled global schedule is the algorithm's *prediction* of what
//! the lookahead hardware will achieve, which the `asched-sim` simulator
//! verifies independently.

use crate::chop::chop;
use crate::config::LookaheadConfig;
use crate::error::CoreError;
use crate::merge::merge;
use crate::trace::per_block_fallback;
use asched_graph::{
    capacity_bound, BlockId, DepGraph, MachineModel, NodeId, NodeSet, SchedCtx, SchedOpts, Schedule,
};
use asched_obs::{record, Event, MergeRung, Pass, Recorder, NULL};
use asched_rank::{delay_idle_slots, Deadlines};
use asched_sim::{InstStream, IssuePolicy, SimResult};

/// Output of anticipatory trace scheduling.
#[derive(Clone, Debug)]
pub struct TraceResult {
    /// The predicted global permutation (order of predicted issue).
    pub permutation: Vec<NodeId>,
    /// The algorithm's internal merged schedule — its *prediction* of the
    /// hardware's behaviour. In the restricted case (and whenever the
    /// prediction satisfies Definition 2.3) it coincides with `makespan`;
    /// off the restricted machine the heuristic's prediction can deviate
    /// (the paper notes the construction does not always yield a legal
    /// schedule), which is why `makespan` is measured, not predicted.
    pub predicted: Schedule,
    /// Completion time of the emitted code, **measured** on the paper's
    /// Section 2.3 lookahead-window model (the `asched-sim` simulator)
    /// with this machine's window.
    pub makespan: u64,
    /// The emitted code: one instruction order per basic block, in trace
    /// order. This is what the compiler actually outputs.
    pub block_orders: Vec<Vec<NodeId>>,
    /// The blocks, in trace order (parallel to `block_orders`).
    pub blocks: Vec<BlockId>,
}

/// Run Algorithm `Lookahead` over the trace formed by `g`'s blocks in
/// ascending [`BlockId`] order, for machine `machine` (whose `window` is
/// the paper's `W`).
///
/// The algorithm derives release times internally (edges from emitted
/// instructions into the retained suffix), so `opts.release` and
/// `opts.backward` are ignored at this level; `opts.rec`, when enabled,
/// sees the whole run as one timed `schedule_trace` pass with per-block
/// `block_begin` events, and the `merge`, idle-slot delaying and `chop`
/// stages forward their own events (merge probes and rungs, idle moves,
/// chop cuts).
///
/// The result is guarded by the per-block fallback: when Lookahead's
/// code simulates longer than the trace's lower bound
/// `max(capacity bound, critical path)`, which no code beats, the
/// independent per-block schedule is built and measured too, and the
/// shorter code is emitted. Our reconstruction has a tie residue (see
/// `asched-rank`'s fidelity note), and on multi-unit machines the
/// per-block code often simulates shorter, so the guard restores
/// "anticipatory never loses to local" by construction. Its scheduling
/// work is unrecorded; each guard run emits the `portfolio_runs` and
/// `portfolio_wins` counters. The recorder sees one simulation per
/// trace (window issue/stall/occupancy events), of the code that is
/// emitted; with a disabled recorder no simulation is added for it.
///
/// One `ctx` per trace: the merge relaxation probes and idle-slot
/// retries of each block all hit the same cached `(graph, old ∪ new)`
/// analysis, and the scratch buffers persist block to block. When
/// `chop` emits nothing and the block's schedule is a Rank run under
/// its final deadlines, the next merge takes it as its `old`-alone
/// schedule instead of rerunning Rank (see [`merge`]).
///
/// ```
/// use asched_core::{schedule_trace, LookaheadConfig};
/// use asched_graph::{BlockId, DepGraph, MachineModel, SchedCtx, SchedOpts};
///
/// // Block 0 ends in a latency gap; block 1 starts with independent
/// // work the hardware window can pull into that gap.
/// let mut g = DepGraph::new();
/// let a = g.add_simple("a", BlockId(0));
/// let b = g.add_simple("b", BlockId(0));
/// g.add_dep(a, b, 2);
/// let c = g.add_simple("c", BlockId(1));
///
/// let machine = MachineModel::single_unit(2);
/// let mut ctx = SchedCtx::new();
/// let res = schedule_trace(
///     &mut ctx,
///     &g,
///     &machine,
///     &LookaheadConfig::default(),
///     &SchedOpts::default(),
/// )
/// .unwrap();
/// // a @0, c fills the gap @1 (inside the window), b @3: 4 cycles,
/// // instead of the 5 a blind concatenation would take.
/// assert_eq!(res.makespan, 4);
/// assert_eq!(res.block_orders.len(), 2);
/// ```
pub fn schedule_trace(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    cfg: &LookaheadConfig,
    opts: &SchedOpts,
) -> Result<TraceResult, CoreError> {
    asched_obs::timed(opts.rec, Pass::ScheduleTrace, || {
        let rec = opts.rec;
        let mut result = lookahead(ctx, g, machine, cfg, rec)?;
        // The guard: code that meets the lower bound cannot be beaten.
        let mut guard_won = None;
        if result.makespan > trace_lower_bound(g, machine, &result.block_orders) {
            let local = per_block_fallback(ctx, g, machine, cfg.delay_idle_slots)?;
            let won = local.makespan < result.makespan;
            if won {
                result = local;
            }
            guard_won = Some(won);
        }
        if rec.enabled() {
            let emitted = InstStream::from_blocks(&result.block_orders);
            simulate(ctx, g, machine, &emitted, rec);
        }
        if let Some(won) = guard_won {
            for (name, delta) in [("portfolio_runs", 1), ("portfolio_wins", u64::from(won))] {
                record!(rec, Event::Counter { name, delta });
            }
        }
        Ok(result)
    })
}

/// Run `stream` on the Section 2.3 window model, reporting to `rec`.
fn simulate(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    stream: &InstStream,
    rec: &dyn Recorder,
) -> SimResult {
    let opts = SchedOpts::default().with_recorder(rec);
    asched_sim::simulate(ctx, g, machine, stream, IssuePolicy::Strict, &opts)
}

/// Algorithm `Lookahead` alone, without the guard: its emitted code,
/// prediction and measured (unrecorded) makespan.
pub(crate) fn lookahead(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    cfg: &LookaheadConfig,
    rec: &dyn Recorder,
) -> Result<TraceResult, CoreError> {
    let blocks = g.blocks();
    let n = g.len();
    // A trace follows control flow: every loop-independent dependence
    // must point forward (or stay inside a block). Reject bad input
    // here rather than panicking deep inside the measurement simulator.
    for id in g.node_ids() {
        for e in g.out_edges_li(id) {
            if g.node(e.src).block > g.node(e.dst).block {
                return Err(CoreError::BackwardCrossEdge {
                    src: e.src,
                    dst: e.dst,
                });
            }
        }
    }
    let mut predicted = Schedule::new(n);
    // Deadlines start unset (infinite); merge assigns them per block.
    let mut d = Deadlines::uniform(g, &NodeSet::new(n), 0);
    let mut old = NodeSet::new(n);
    let mut offset: u64 = 0;
    // Earliest *global* start for each unemitted node, induced by edges
    // from already-emitted instructions.
    let mut rel_global = vec![0u64; n];
    // Local (re-based) schedule of the carried suffix, and whether it is
    // also the next merge's `old`-alone Rank run: `chop` emitted nothing,
    // so `old`, its deadlines and the release times carry over
    // unchanged, and the schedule is the Rank Algorithm's output under
    // those deadlines (a `Paper` or `PinnedOld` rung, or a
    // `Delay_Idle_Slots` move; not a concatenation).
    let mut suffix_sched = Schedule::new(n);
    let mut suffix_is_rank_run = false;
    // Per-block release buffer, borrowed out of the context so the
    // allocation survives across blocks (and across traces). Taking it
    // leaves an empty Vec behind, which nothing inside the loop touches.
    let mut release = std::mem::take(&mut ctx.scratch.release);

    // Step budget: one step per node entering a block merge. Checked
    // before the merge so a pathological trace aborts instead of
    // burning an O(n²) rank run it has no budget for.
    let mut steps: u64 = 0;

    let mut run_blocks = || -> Result<(), CoreError> {
        for (bi, &blk) in blocks.iter().enumerate() {
            let new = g.block_nodes(blk);
            let cur = old.union(&new);
            steps = steps.saturating_add(cur.len() as u64);
            if let Some(budget) = cfg.step_budget {
                if steps > budget {
                    return Err(CoreError::StepBudgetExhausted { steps, budget });
                }
            }
            record!(
                rec,
                Event::BlockBegin {
                    block: bi as u32,
                    carried: old.len() as u32,
                    new_nodes: new.len() as u32,
                }
            );
            release.clear();
            release.extend((0..n).map(|i| rel_global[i].saturating_sub(offset)));
            let block_opts = SchedOpts::default()
                .with_release(&release)
                .with_recorder(rec);
            let carried = suffix_is_rank_run.then_some(&suffix_sched);
            let (mut s, rung) = merge(
                ctx,
                g,
                machine,
                &old,
                &new,
                &mut d,
                carried,
                cfg,
                &block_opts,
            )?;
            let mut is_rank_run = rung != MergeRung::Concatenation;
            if cfg.delay_idle_slots {
                // A move replaces the schedule with the Rank run under the
                // deadlines it keeps; a concatenation that no move touched
                // stays a splice.
                let splice = (!is_rank_run).then(|| s.clone());
                s = delay_idle_slots(ctx, g, &cur, machine, s, &mut d, &block_opts);
                is_rank_run |= splice.is_some_and(|splice| splice != s);
            }
            let chopped = asched_obs::timed(rec, Pass::Chop, || chop(machine, &s, &cur, &mut d));
            record!(
                rec,
                Event::Chop {
                    cut: chopped.offset.checked_sub(1),
                    emitted: chopped.emitted.len() as u32,
                    carried: chopped.suffix.len() as u32,
                    offset: chopped.offset,
                }
            );
            for &(id, st) in &chopped.emitted {
                let gstart = offset + st;
                predicted.assign(
                    id,
                    gstart,
                    s.unit(id).expect("emitted node scheduled"),
                    g.exec_time(id),
                );
                let completion = gstart + g.exec_time(id) as u64;
                for e in g.out_edges_li(id) {
                    let slot = &mut rel_global[e.dst.index()];
                    *slot = (*slot).max(completion + e.latency as u64);
                }
            }
            offset += chopped.offset;
            old = chopped.suffix;
            suffix_is_rank_run = chopped.offset == 0 && is_rank_run;
            suffix_sched = if chopped.offset == 0 {
                s
            } else {
                let mut suffix = s.restrict(&old);
                suffix.rebase(chopped.offset);
                suffix
            };
        }
        Ok(())
    };
    let blocks_result = run_blocks();
    // Return the buffer before propagating any error so the allocation
    // is never lost.
    ctx.scratch.release = release;
    blocks_result?;

    // Final: append the last suffix S⁺.
    for id in old.iter() {
        let st = suffix_sched.start(id).expect("suffix schedule covers old") + offset;
        predicted.assign(
            id,
            st,
            suffix_sched.unit(id).expect("suffix schedule covers old"),
            g.exec_time(id),
        );
    }

    let permutation = predicted.order();
    let block_orders: Vec<Vec<NodeId>> = blocks
        .iter()
        .map(|&b| {
            permutation
                .iter()
                .copied()
                .filter(|&id| g.node(id).block == b)
                .collect()
        })
        .collect();
    // The deliverable number: what the Section 2.3 hardware actually
    // does with the emitted code.
    let stream = InstStream::from_blocks(&block_orders);
    let makespan = simulate(ctx, g, machine, &stream, &NULL).completion;
    Ok(TraceResult {
        makespan,
        permutation,
        predicted,
        block_orders,
        blocks,
    })
}

/// `max(capacity bound, critical-path length)` of the whole trace: no
/// execution of it is shorter. The emitted code lists every producer
/// before its consumers, so one backward sweep over it gives the
/// critical path without a whole-trace graph analysis.
fn trace_lower_bound(g: &DepGraph, machine: &MachineModel, block_orders: &[Vec<NodeId>]) -> u64 {
    let mut height = vec![0u64; g.len()];
    let mut critical_path = 0;
    for &id in block_orders.iter().flatten().rev() {
        let tail = g
            .out_edges_li(id)
            .map(|e| e.latency as u64 + height[e.dst.index()])
            .max()
            .unwrap_or(0);
        height[id.index()] = g.exec_time(id) as u64 + tail;
        critical_path = critical_path.max(height[id.index()]);
    }
    critical_path.max(capacity_bound(g, &g.all_nodes(), machine))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::tests::{fig2, random_case, Decisions};
    use asched_graph::validate::validate_schedule;
    use asched_sim::{InstStream, IssuePolicy};
    use proptest::prelude::*;

    fn m(w: usize) -> MachineModel {
        MachineModel::single_unit(w)
    }

    /// Shorthand: schedule with a fresh context and the given config.
    fn run(g: &DepGraph, machine: &MachineModel, cfg: &LookaheadConfig) -> TraceResult {
        schedule_trace(&mut SchedCtx::new(), g, machine, cfg, &SchedOpts::default()).unwrap()
    }

    fn sim(g: &DepGraph, machine: &MachineModel, stream: &InstStream) -> asched_sim::SimResult {
        asched_sim::simulate(
            &mut SchedCtx::new(),
            g,
            machine,
            stream,
            IssuePolicy::Strict,
            &SchedOpts::default(),
        )
    }

    /// The full Figure 2 walk-through: anticipatory scheduling of BB1,
    /// BB2 with the w -> z edge and W = 2 achieves the paper's makespan
    /// of 11.
    #[test]
    fn fig2_trace_makespan_11() {
        let (g, [x, e, w, b, a, r], [z, q, p, v, gg]) = fig2();
        let res = run(&g, &m(2), &LookaheadConfig::default());
        assert_eq!(res.makespan, 11);
        // x is pinned first by idle-slot delaying of BB1.
        assert_eq!(res.permutation[0], x);
        // BB1's emitted order: x e r w b a (a last — it waited for w, b).
        assert_eq!(res.block_orders[0], vec![x, e, r, w, b, a]);
        // BB2's emitted order starts with z, which fills BB1's idle slot.
        assert_eq!(res.block_orders[1][0], z);
        validate_schedule(&g, &g.all_nodes(), &m(2), &res.predicted, None).unwrap();
        let _ = (e, w, b, r, q, p, v, gg);
    }

    /// The predicted makespan equals what the hardware simulator measures
    /// when executing the emitted per-block orders with the same window.
    #[test]
    fn fig2_predicted_equals_simulated() {
        let (g, _, _) = fig2();
        let res = run(&g, &m(2), &LookaheadConfig::default());
        let stream = InstStream::from_blocks(&res.block_orders);
        let s = sim(&g, &m(2), &stream);
        assert_eq!(s.completion, res.makespan);
        assert_eq!(s.completion, 11);
    }

    /// Local (per-block, no anticipation, no idle-slot delaying)
    /// scheduling of the same trace is strictly worse on the simulator.
    #[test]
    fn fig2_beats_naive_local_schedule() {
        let (g, [x, e, w, b, a, r], [z, q, p, v, gg]) = fig2();
        // Naive local: rank-schedule each block alone (no idle-slot
        // delaying). BB1 emits e x b w r a; BB2 emits z q p v g (or
        // similar); the w->z edge then stalls BB2.
        let naive =
            crate::trace::schedule_blocks_independent(&mut SchedCtx::new(), &g, &m(2), false)
                .unwrap();
        let stream = InstStream::from_blocks(&naive);
        let s = sim(&g, &m(2), &stream);
        let res = run(&g, &m(2), &LookaheadConfig::default());
        assert!(
            s.completion > res.makespan,
            "naive {} should exceed anticipatory {}",
            s.completion,
            res.makespan
        );
        let _ = (x, e, w, b, a, r, z, q, p, v, gg);
    }

    /// Single-block traces reduce to rank scheduling + idle-slot delay.
    #[test]
    fn single_block_trace() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 1);
        let res = run(&g, &m(2), &LookaheadConfig::default());
        assert_eq!(res.makespan, 3);
        assert_eq!(res.block_orders.len(), 1);
        assert_eq!(res.block_orders[0], vec![a, b]);
    }

    /// Regression (found in code review): a loop-independent dependence
    /// running backwards across block order is invalid trace input and
    /// must be rejected cleanly, not panic inside the simulator.
    #[test]
    fn backward_cross_edge_rejected() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let p = g.add_simple("p", BlockId(1));
        g.add_dep(p, a, 1); // backwards: later block feeds earlier block
        let err = schedule_trace(
            &mut SchedCtx::new(),
            &g,
            &m(2),
            &LookaheadConfig::default(),
            &SchedOpts::default(),
        )
        .unwrap_err();
        assert!(matches!(err, crate::CoreError::BackwardCrossEdge { .. }));
        assert!(err.to_string().contains("backwards"));
    }

    /// Empty graph.
    #[test]
    fn empty_trace() {
        let g = DepGraph::new();
        let res = run(&g, &m(2), &LookaheadConfig::default());
        assert_eq!(res.makespan, 0);
        assert!(res.permutation.is_empty());
    }

    /// Block orders always partition the nodes and never cross blocks.
    #[test]
    fn block_orders_partition_nodes() {
        let (g, _, _) = fig2();
        let res = run(&g, &m(4), &LookaheadConfig::default());
        let mut seen = NodeSet::new(g.len());
        for (bi, order) in res.block_orders.iter().enumerate() {
            for &id in order {
                assert_eq!(g.node(id).block, res.blocks[bi]);
                assert!(seen.insert(id), "node {id} appears twice");
            }
        }
        assert_eq!(seen.len(), g.len());
    }

    /// Regression: the latency-4 workload that once exhausted merge's
    /// relaxation loop (greedy deadline misses off the restricted
    /// machine) now resolves through the fallback rungs and yields a
    /// valid, measured result at every window size.
    #[test]
    fn merge_fallback_rungs_regression() {
        use asched_workloads::{random_trace_dag, DagParams};
        let g = random_trace_dag(&DagParams {
            nodes: 36,
            blocks: 4,
            edge_prob: 0.3,
            cross_prob: 0.15,
            max_latency: 4,
            seed: 6 * 7919 + 13,
            ..DagParams::default()
        });
        for w in [2usize, 4, 6, 8, 16] {
            let machine = m(w);
            let res = run(&g, &machine, &LookaheadConfig::default());
            validate_schedule(&g, &g.all_nodes(), &machine, &res.predicted, None).unwrap();
            let s = sim(&g, &machine, &InstStream::from_blocks(&res.block_orders));
            assert_eq!(s.completion, res.makespan);
        }
    }

    /// A long chain of blocks exercises chop: emitted prefixes accumulate
    /// and the result still validates and simulates to the prediction.
    #[test]
    fn many_blocks_with_chop() {
        let mut g = DepGraph::new();
        let mut prev: Option<NodeId> = None;
        for blk in 0..6u32 {
            let s1 = g.add_simple(format!("a{blk}"), BlockId(blk));
            let s2 = g.add_simple(format!("b{blk}"), BlockId(blk));
            let s3 = g.add_simple(format!("c{blk}"), BlockId(blk));
            g.add_dep(s1, s3, 1);
            g.add_dep(s2, s3, 1);
            if let Some(p) = prev {
                g.add_dep(p, s1, 1); // cross-block chain
            }
            prev = Some(s3);
        }
        let res = run(&g, &m(2), &LookaheadConfig::default());
        validate_schedule(&g, &g.all_nodes(), &m(2), &res.predicted, None).unwrap();
        let stream = InstStream::from_blocks(&res.block_orders);
        let s = sim(&g, &m(2), &stream);
        assert_eq!(s.completion, res.makespan);
    }

    /// A tight step budget aborts with `StepBudgetExhausted` before the
    /// trace finishes; a generous one changes nothing.
    #[test]
    fn step_budget_trips_and_relaxes() {
        let (g, _bb1, _bb2) = fig2();
        // Figure 2 consumes 6 steps for BB1's merge alone, so a budget
        // of 5 must trip on the very first block.
        let tight = LookaheadConfig::default().with_step_budget(5);
        match schedule_trace(
            &mut SchedCtx::new(),
            &g,
            &m(2),
            &tight,
            &SchedOpts::default(),
        ) {
            Err(CoreError::StepBudgetExhausted { steps, budget: 5 }) => assert!(steps > 5),
            other => panic!("expected StepBudgetExhausted, got {other:?}"),
        }
        // A budget covering every node of every merge is never hit and
        // reproduces the unbudgeted result exactly.
        let roomy = LookaheadConfig::default().with_step_budget(10_000);
        let unbounded = run(&g, &m(2), &LookaheadConfig::default());
        let budgeted = run(&g, &m(2), &roomy);
        assert_eq!(unbounded.makespan, budgeted.makespan);
        assert_eq!(unbounded.block_orders, budgeted.block_orders);
    }

    /// One context reused across traces gives byte-identical results to
    /// a fresh context per trace.
    #[test]
    fn reused_ctx_is_bit_identical() {
        let (g, _, _) = fig2();
        let cfg = LookaheadConfig::default();
        let mut ctx = SchedCtx::new();
        let first = schedule_trace(&mut ctx, &g, &m(2), &cfg, &SchedOpts::default()).unwrap();
        for _ in 0..3 {
            let again = schedule_trace(&mut ctx, &g, &m(2), &cfg, &SchedOpts::default()).unwrap();
            assert_eq!(first.makespan, again.makespan);
            assert_eq!(first.permutation, again.permutation);
            assert_eq!(first.predicted, again.predicted);
            assert_eq!(first.block_orders, again.block_orders);
        }
        assert!(ctx.cache.hits() > 0, "repeat traces must hit the cache");
    }

    /// Algorithm `Lookahead` without carried schedules, as the reference
    /// for them: the block loop of `schedule_trace` (merge,
    /// `Delay_Idle_Slots`, chop), where every merge schedules `old` alone
    /// itself. Wherever the loop's rule lets the block's schedule stand
    /// for that run, the block is also merged with it, which must give
    /// the same schedule, rung and deadlines.
    /// Returns the predicted schedule; `rec` sees the loop's events.
    fn reference_lookahead(
        g: &DepGraph,
        machine: &MachineModel,
        cfg: &LookaheadConfig,
        rec: &dyn Recorder,
    ) -> Schedule {
        let n = g.len();
        let mut ctx = SchedCtx::new();
        let mut predicted = Schedule::new(n);
        let mut d = Deadlines::uniform(g, &NodeSet::new(n), 0);
        let mut old = NodeSet::new(n);
        let mut offset = 0;
        let mut rel_global = vec![0u64; n];
        let mut suffix = Schedule::new(n);
        let mut carry = false;
        for blk in g.blocks() {
            let new = g.block_nodes(blk);
            let cur = old.union(&new);
            let release: Vec<u64> = rel_global
                .iter()
                .map(|r| r.saturating_sub(offset))
                .collect();
            let opts = SchedOpts::default().with_release(&release);
            if carry {
                let (mut d_fresh, mut d_carried) = (d.clone(), d.clone());
                let mut run = |d: &mut Deadlines, carried| {
                    merge(&mut ctx, g, machine, &old, &new, d, carried, cfg, &opts).unwrap()
                };
                let (fresh, fresh_rung) = run(&mut d_fresh, None);
                let (carried, carried_rung) = run(&mut d_carried, Some(&suffix));
                assert_eq!(carried, fresh);
                assert_eq!(carried_rung, fresh_rung);
                assert_eq!(d_carried, d_fresh);
            }
            let opts = opts.with_recorder(rec);
            let (mut s, rung) =
                merge(&mut ctx, g, machine, &old, &new, &mut d, None, cfg, &opts).unwrap();
            let mut is_rank_run = rung != MergeRung::Concatenation;
            if cfg.delay_idle_slots {
                let merged = s.clone();
                s = delay_idle_slots(&mut ctx, g, &cur, machine, s, &mut d, &opts);
                is_rank_run |= s != merged;
            }
            let chopped = chop(machine, &s, &cur, &mut d);
            for &(id, st) in &chopped.emitted {
                predicted.assign(id, offset + st, s.unit(id).unwrap(), g.exec_time(id));
                let completion = offset + st + g.exec_time(id) as u64;
                for e in g.out_edges_li(id) {
                    let slot = &mut rel_global[e.dst.index()];
                    *slot = (*slot).max(completion + e.latency as u64);
                }
            }
            offset += chopped.offset;
            old = chopped.suffix;
            carry = chopped.offset == 0 && is_rank_run;
            suffix = s.restrict(&old);
            suffix.rebase(chopped.offset);
        }
        for id in old.iter() {
            let st = suffix.start(id).unwrap() + offset;
            predicted.assign(id, st, suffix.unit(id).unwrap(), g.exec_time(id));
        }
        predicted
    }

    /// Merging with the carried schedule is merging without it:
    /// [`lookahead`] (no guard) predicts what the reference loop that
    /// never carries predicts, through the same merge probes, rungs and
    /// idle-slot moves, and every carry the reference's rule allows
    /// gives an identical merge (see [`reference_lookahead`]).
    fn assert_carrying_changes_nothing(g: &DepGraph, m: &MachineModel) {
        let cfg = LookaheadConfig::default();
        let (got, want) = (Decisions::default(), Decisions::default());
        let res = lookahead(&mut SchedCtx::new(), g, m, &cfg, &got).unwrap();
        let predicted = reference_lookahead(g, m, &cfg, &want);
        assert_eq!(res.predicted, predicted);
        assert_eq!(got.0.into_inner(), want.0.into_inner());
    }

    /// When the guard emits the per-block code, the recorder's one
    /// simulation is of that code: `issues` and the `stall_*` counters
    /// are those of a recorded simulation of the returned orders, not of
    /// Lookahead's discarded code.
    #[test]
    fn guard_win_records_the_emitted_code() {
        let (g, m, _) = random_case(20, 4, 1, true, 2);
        let traced = asched_obs::ProfileRecorder::new();
        let opts = SchedOpts::default().with_recorder(&traced);
        let cfg = LookaheadConfig::default();
        let res = schedule_trace(&mut SchedCtx::new(), &g, &m, &cfg, &opts).unwrap();
        let traced = traced.into_profile();
        assert_eq!(traced.counter("portfolio_wins"), 1);
        let emitted = asched_obs::ProfileRecorder::new();
        let stream = InstStream::from_blocks(&res.block_orders);
        simulate(&mut SchedCtx::new(), &g, &m, &stream, &emitted);
        // The simulation's counters: issues, stall_events, stall_cycles*.
        for (c, &v) in &emitted.into_profile().counters {
            assert_eq!(traced.counter(c), v, "{c}");
        }
    }

    /// Only a block that `chop` left whole is carried. On this trace,
    /// carrying a suffix left by a cut (its re-based start times are not
    /// a Rank run of the suffix) would change the predicted makespan
    /// from 137 to 129 cycles.
    #[test]
    fn suffix_after_a_cut_is_not_carried() {
        let (g, m, _) = random_case(161, 15, 7_139_143_672_850_303_840, true, 3);
        assert_carrying_changes_nothing(&g, &m);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// [`assert_carrying_changes_nothing`] on random traces.
        #[test]
        fn carried_schedule_changes_no_merge(
            nodes in 6usize..40,
            blocks in 2usize..7,
            seed in any::<u64>(),
            rs6000 in any::<bool>(),
            wi in 0usize..4,
        ) {
            let (g, m, _) = random_case(nodes, blocks, seed, rs6000, wi);
            assert_carrying_changes_nothing(&g, &m);
        }

        /// The guard is skipped only where it has nothing to find: the
        /// per-block code never simulates shorter than the result, and
        /// no result beats the trace's lower bound.
        #[test]
        fn skipped_guard_hides_no_shorter_code(
            nodes in 6usize..40,
            blocks in 2usize..7,
            seed in any::<u64>(),
            rs6000 in any::<bool>(),
            wi in 0usize..4,
        ) {
            let (g, m, _) = random_case(nodes, blocks, seed, rs6000, wi);
            let mut ctx = SchedCtx::new();
            let res = schedule_trace(
                &mut ctx, &g, &m, &LookaheadConfig::default(), &SchedOpts::default(),
            ).unwrap();
            let local = crate::trace::schedule_blocks_independent(&mut ctx, &g, &m, true).unwrap();
            let t_local = sim(&g, &m, &InstStream::from_blocks(&local)).completion;
            prop_assert!(res.makespan <= t_local, "{} > per-block {}", res.makespan, t_local);
            prop_assert!(res.makespan >= trace_lower_bound(&g, &m, &res.block_orders));
        }
    }
}
