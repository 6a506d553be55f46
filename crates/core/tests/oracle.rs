//! Oracle tests: Algorithm `Lookahead` against exact ground truth.
//!
//! Random traces are scheduled end-to-end and the measured trace
//! completion is sandwiched between two oracles:
//!
//! - **below** by the certified branch-and-bound solver
//!   (`asched-exact`), run over the *whole* trace DAG with no window
//!   and no block boundaries — every legal trace execution is a legal
//!   schedule of that relaxation, so its proven `lower_bound` is a
//!   true floor for any machine. Because the solver certifies an
//!   interval even when its node budget runs out, the sandwich runs on
//!   traces of up to 40 nodes;
//! - **above** by the independent per-block Rank baseline measured on
//!   the same Section 2.3 window simulator — the default config's
//!   portfolio guard promises "anticipatory never loses to local" *by
//!   construction*, and this is the property test holding it to that.
//!
//! A third property pins the restricted case (single universal unit,
//! 0/1 latencies, one block) to the paper's optimality neighbourhood:
//! within one cycle of the exact optimum (the residue is the known
//! tie-breaking gap documented in `asched-rank`'s fidelity note). The
//! solver itself is checked against a naive enumerator in
//! `asched-exact`'s differential tests.
//!
//! A fourth property starves the solver's budget and asserts the
//! certification contract: the returned interval still brackets the
//! true optimum and still lower-bounds Lookahead's measured makespan.

use asched_core::{schedule_blocks_independent, schedule_trace, LookaheadConfig};
use asched_exact::{certified_gap, certify, optimal_makespan, ExactConfig};
use asched_graph::{BlockId, DepGraph, MachineModel, NodeId, SchedCtx, SchedOpts};
use asched_sim::{simulate, InstStream, IssuePolicy};
use proptest::prelude::*;

/// Random multi-block trace: `blocks` blocks of 2..=`max_per_block`
/// unit-exec nodes, forward edges within blocks and across block seams,
/// latencies 0..=2. Sized for the budgeted exact solver.
fn arb_trace(max_blocks: usize, max_per_block: usize) -> impl Strategy<Value = DepGraph> {
    (
        1usize..=max_blocks,
        2usize..=max_per_block,
        any::<u64>(),
        0.15f64..0.5,
    )
        .prop_map(|(blocks, per_block, seed, density)| {
            let mut g = DepGraph::new();
            for b in 0..blocks {
                for i in 0..per_block {
                    g.add_simple(format!("b{b}n{i}"), BlockId(b as u32));
                }
            }
            let n = blocks * per_block;
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for i in 0..n {
                for j in (i + 1)..n {
                    let same_block = i / per_block == j / per_block;
                    let p = if same_block { density } else { density / 2.0 };
                    if (next() % 1000) as f64 / 1000.0 < p {
                        g.add_dep(NodeId(i as u32), NodeId(j as u32), (next() % 3) as u32);
                    }
                }
            }
            g
        })
}

/// Restricted-case single-block DAG: 0/1 latencies, unit exec times.
fn arb_dag01(max_n: usize) -> impl Strategy<Value = DepGraph> {
    (2usize..=max_n, any::<u64>(), 0.1f64..0.6).prop_map(|(n, seed, density)| {
        let mut g = DepGraph::new();
        for i in 0..n {
            g.add_simple(format!("n{i}"), BlockId(0));
        }
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n {
            for j in (i + 1)..n {
                if (next() % 1000) as f64 / 1000.0 < density {
                    g.add_dep(NodeId(i as u32), NodeId(j as u32), (next() % 2) as u32);
                }
            }
        }
        g
    })
}

/// Measure the independent per-block baseline the same way the
/// portfolio guard does: emit orders, run the window simulator.
fn baseline_completion(ctx: &mut SchedCtx, g: &DepGraph, m: &MachineModel) -> u64 {
    let orders = schedule_blocks_independent(ctx, g, m, true).expect("baseline must schedule");
    simulate(
        ctx,
        g,
        m,
        &InstStream::from_blocks(&orders),
        IssuePolicy::Strict,
        &SchedOpts::default(),
    )
    .completion
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lookahead's measured completion never beats the certified
    /// no-window whole-trace lower bound and never loses to the
    /// per-block baseline, for every window the service exposes.
    /// Traces go up to 40 nodes because the lower sandwich only needs
    /// the certificate's proven `lower_bound`, which is valid even when
    /// the budget runs out.
    #[test]
    fn lookahead_between_oracle_bounds(g in arb_trace(4, 10), wi in 0usize..3) {
        let w = [2usize, 4, 8][wi];
        let m = MachineModel::single_unit(w);
        let mut ctx = SchedCtx::new();
        let res = schedule_trace(
            &mut ctx, &g, &m, &LookaheadConfig::default(), &SchedOpts::default(),
        ).unwrap();
        let cert = certify(
            &mut ctx, &g, &g.all_nodes(), &m,
            &ExactConfig::with_node_budget(200_000), &SchedOpts::default(),
        ).unwrap();
        prop_assert!(cert.lower_bound <= cert.best_found);
        prop_assert!(
            res.makespan >= cert.lower_bound,
            "trace completion {} beats the certified relaxation bound {}",
            res.makespan, cert.lower_bound,
        );
        let local = baseline_completion(&mut ctx, &g, &m);
        prop_assert!(
            res.makespan <= local,
            "anticipatory lost to local: {} vs {}", res.makespan, local,
        );
    }

    /// Restricted case (paper Section 2): single universal unit, 0/1
    /// latencies, one block — within one cycle of the exact optimum.
    #[test]
    fn restricted_single_block_near_optimal(g in arb_dag01(12), wi in 0usize..3) {
        let w = [2usize, 4, 8][wi];
        let m = MachineModel::single_unit(w);
        let mut ctx = SchedCtx::new();
        let res = schedule_trace(
            &mut ctx, &g, &m, &LookaheadConfig::default(), &SchedOpts::default(),
        ).unwrap();
        let opt = optimal_makespan(
            &mut ctx, &g, &g.all_nodes(), &m,
            &ExactConfig::default(), &SchedOpts::default(),
        ).unwrap();
        prop_assert!(res.makespan >= opt);
        prop_assert!(
            res.makespan <= opt + 1,
            "restricted case drifted: {} vs optimum {}", res.makespan, opt,
        );
    }

    /// Budget exhaustion keeps the contract: a starved certification
    /// still returns an interval that brackets the true optimum (as
    /// established by a generous run) and still floors Lookahead's
    /// measured makespan, and `certified_gap` orders its bounds.
    #[test]
    fn budget_exhaustion_still_brackets(g in arb_trace(4, 10), wi in 0usize..3) {
        let w = [2usize, 4, 8][wi];
        let m = MachineModel::single_unit(w);
        let mut ctx = SchedCtx::new();
        let res = schedule_trace(
            &mut ctx, &g, &m, &LookaheadConfig::default(), &SchedOpts::default(),
        ).unwrap();
        let starved = certify(
            &mut ctx, &g, &g.all_nodes(), &m,
            &ExactConfig::with_node_budget(25), &SchedOpts::default(),
        ).unwrap();
        prop_assert!(starved.lower_bound <= starved.best_found);
        prop_assert!(
            res.makespan >= starved.lower_bound,
            "starved bound {} exceeds measured {}", starved.lower_bound, res.makespan,
        );
        let generous = certify(
            &mut ctx, &g, &g.all_nodes(), &m,
            &ExactConfig::with_node_budget(500_000), &SchedOpts::default(),
        ).unwrap();
        prop_assert!(starved.lower_bound <= generous.lower_bound);
        if generous.complete {
            prop_assert!(
                starved.contains(generous.best_found),
                "starved interval [{}, {}] misses the optimum {}",
                starved.lower_bound, starved.best_found, generous.best_found,
            );
        }
        let gap = certified_gap(
            &mut ctx, &g, &g.all_nodes(), &m, res.makespan,
            &ExactConfig::with_node_budget(25), &SchedOpts::default(),
        ).unwrap();
        prop_assert!(gap.gap_lower() <= gap.gap_upper());
    }

    /// A starved step budget degrades, never panics or mis-schedules:
    /// the error is the structured budget signal the engine (and the
    /// serving deadline path) rely on.
    #[test]
    fn step_budget_degrades_cleanly(g in arb_trace(3, 4)) {
        let m = MachineModel::single_unit(4);
        let mut ctx = SchedCtx::new();
        let cfg = LookaheadConfig::default().with_step_budget(1);
        match schedule_trace(&mut ctx, &g, &m, &cfg, &SchedOpts::default()) {
            Ok(res) => prop_assert!(res.makespan > 0),
            Err(e) => prop_assert!(
                matches!(e, asched_core::CoreError::StepBudgetExhausted { .. }),
                "unexpected error {e:?}",
            ),
        }
    }
}
