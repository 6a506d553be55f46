//! Differential property tests for the exact solver.
//!
//! Two ground truths hold it to account:
//!
//! 1. **Agreement with brute force.** On every instance small enough
//!    for the naive memoized enumeration in `naive/mod.rs` (this
//!    suite's test-only reference, sharing no code with the solver),
//!    the certified optimum must match it byte for byte — arbitrary
//!    latencies `0..=2`, execution times `1..=3`, one to four
//!    functional units, with and without assigned unit classes.
//! 2. **The bound ladder.** On larger random traces (past the
//!    enumerator's reach) the proven quantities must order themselves:
//!    `analytic lower bound ≤ certified lower bound ≤ certified best
//!    ≤ per-block baseline`, and the certified lower bound must floor
//!    Lookahead's measured completion (whose own ceiling is the same
//!    per-block baseline, by the portfolio guard).
//!
//! A third property starves the node budget and checks the interval
//! contract survives: the starved interval always brackets the
//! optimum established by a generous run.

use asched_core::{schedule_blocks_independent, schedule_trace, LookaheadConfig};
use asched_exact::{certify, optimal_makespan, ExactConfig};
use asched_graph::{
    makespan_lower_bound, BlockId, DepGraph, FuClass, MachineModel, NodeId, SchedCtx, SchedOpts,
};
use asched_sim::{simulate, InstStream, IssuePolicy};
use proptest::prelude::*;

mod naive;

/// Random DAG with arbitrary latencies `0..=2`, execution times
/// `1..=max_exec`, and (when `classed`) concrete unit classes on half
/// the nodes. Single block: both solvers ignore block structure.
fn arb_dag(max_n: usize, max_exec: u64, classed: bool) -> impl Strategy<Value = DepGraph> {
    (2usize..=max_n, any::<u64>(), 0.1f64..0.6).prop_map(move |(n, seed, density)| {
        let mut g = DepGraph::new();
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n {
            let id = g.add_simple(format!("n{i}"), BlockId(0));
            g.node_mut(id).exec_time = (next() % max_exec + 1) as u32;
            if classed && next() % 2 == 0 {
                let k = (next() % FuClass::CONCRETE.len() as u64) as usize;
                g.node_mut(id).class = FuClass::CONCRETE[k];
            }
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if (next() % 1000) as f64 / 1000.0 < density {
                    g.add_dep(NodeId(i as u32), NodeId(j as u32), (next() % 3) as u32);
                }
            }
        }
        g
    })
}

/// Random multi-block trace for the bound-ladder tests (same family as
/// the `asched-core` oracle tests).
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

fn machines() -> [MachineModel; 4] {
    [
        MachineModel::single_unit(2),
        MachineModel::uniform(2, 4),
        MachineModel::uniform(3, 4),
        MachineModel::rs6000_like(4),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Exact ≡ the naive reference everywhere it can run: uniform
    /// machines, arbitrary latencies and execution times.
    #[test]
    fn agrees_with_brute(g in arb_dag(12, 3, false), mi in 0usize..4) {
        let m = &machines()[mi];
        let mut ctx = SchedCtx::new();
        let exact = optimal_makespan(
            &mut ctx, &g, &g.all_nodes(), m,
            &ExactConfig::default(), &SchedOpts::default(),
        ).unwrap();
        let reference = naive::optimal_makespan(&g, &g.all_nodes(), m);
        prop_assert_eq!(exact, reference, "exact and the naive reference disagree");
    }

    /// Same, with assigned unit classes (the multi-FU regime the
    /// experiment corpus certifies).
    #[test]
    fn agrees_with_brute_classed(g in arb_dag(10, 3, true), mi in 0usize..4) {
        let m = &machines()[mi];
        let mut ctx = SchedCtx::new();
        let exact = optimal_makespan(
            &mut ctx, &g, &g.all_nodes(), m,
            &ExactConfig::default(), &SchedOpts::default(),
        ).unwrap();
        let reference = naive::optimal_makespan(&g, &g.all_nodes(), m);
        prop_assert_eq!(exact, reference, "exact and the naive reference disagree (classed)");
    }

    /// The bound ladder on traces past the naive reference's reach:
    /// analytic ≤ certified lower ≤ certified best, certified lower ≤
    /// Lookahead ≤ per-block baseline.
    #[test]
    fn bound_ladder_on_large_traces(g in arb_trace(4, 10), wi in 0usize..2) {
        let m = MachineModel::single_unit([2, 4][wi]);
        let mask = g.all_nodes();
        let mut ctx = SchedCtx::new();
        let analytic = makespan_lower_bound(&mut ctx, &g, &mask, &m).unwrap();
        let cert = certify(
            &mut ctx, &g, &mask, &m,
            &ExactConfig::with_node_budget(150_000), &SchedOpts::default(),
        ).unwrap();
        prop_assert!(analytic <= cert.lower_bound);
        prop_assert!(cert.lower_bound <= cert.best_found);

        let res = schedule_trace(
            &mut ctx, &g, &m, &LookaheadConfig::default(), &SchedOpts::default(),
        ).unwrap();
        prop_assert!(
            cert.lower_bound <= res.makespan,
            "certified bound {} exceeds Lookahead's completion {}",
            cert.lower_bound, res.makespan,
        );
        let orders = schedule_blocks_independent(&mut ctx, &g, &m, true).unwrap();
        let baseline = simulate(
            &mut ctx, &g, &m,
            &InstStream::from_blocks(&orders),
            IssuePolicy::Strict,
            &SchedOpts::default(),
        ).completion;
        prop_assert!(res.makespan <= baseline, "Lookahead lost to the baseline");
        prop_assert!(
            cert.lower_bound <= baseline,
            "certified bound {} exceeds the baseline {}", cert.lower_bound, baseline,
        );
    }

    /// Starved budgets keep the certification contract: the interval
    /// brackets the optimum established with a generous budget, and
    /// budgets only ever tighten monotonically.
    #[test]
    fn starved_interval_brackets_optimum(
        g in arb_dag(14, 2, true),
        budget in 0u64..200,
    ) {
        let m = MachineModel::rs6000_like(4);
        let mask = g.all_nodes();
        let mut ctx = SchedCtx::new();
        let starved = certify(
            &mut ctx, &g, &mask, &m,
            &ExactConfig::with_node_budget(budget), &SchedOpts::default(),
        ).unwrap();
        prop_assert!(starved.lower_bound <= starved.best_found);
        let generous = certify(
            &mut ctx, &g, &mask, &m,
            &ExactConfig::default(), &SchedOpts::default(),
        ).unwrap();
        if generous.complete {
            prop_assert!(
                starved.contains(generous.best_found),
                "starved interval [{}, {}] misses the optimum {}",
                starved.lower_bound, starved.best_found, generous.best_found,
            );
        }
        prop_assert!(starved.lower_bound <= generous.lower_bound);
        prop_assert!(starved.best_found >= generous.best_found);
    }
}

/// Deterministic stress sweep, broader than the proptest run: 2 000
/// seeded instances per machine against the naive reference (up to 10
/// nodes — the reference's cost, not exact's, is the runtime ceiling
/// here). Ignored by default; CI's exact-smoke job runs it. This sweep
/// is what caught the absolute-vs-relative memo bug in the enumerator,
/// then a library module (seed 29, single-unit machine: it reported 24
/// for a 23-optimal instance).
#[test]
#[ignore = "broad sweep; run explicitly (CI exact-smoke does)"]
fn stress_agrees_with_brute() {
    for mi in 0..4 {
        let m = &machines()[mi];
        for seed in 0..2_000u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let n = (next() % 9 + 2) as usize;
            let density = (next() % 600) as f64 / 1000.0 + 0.05;
            let classed = next() % 2 == 0;
            let mut g = DepGraph::new();
            for i in 0..n {
                let id = g.add_simple(format!("n{i}"), BlockId(0));
                g.node_mut(id).exec_time = (next() % 3 + 1) as u32;
                if classed && next() % 2 == 0 {
                    let k = (next() % FuClass::CONCRETE.len() as u64) as usize;
                    g.node_mut(id).class = FuClass::CONCRETE[k];
                }
            }
            for i in 0..n {
                for j in (i + 1)..n {
                    if (next() % 1000) as f64 / 1000.0 < density {
                        g.add_dep(NodeId(i as u32), NodeId(j as u32), (next() % 3) as u32);
                    }
                }
            }
            let mut ctx = SchedCtx::new();
            let exact = optimal_makespan(
                &mut ctx,
                &g,
                &g.all_nodes(),
                m,
                &ExactConfig::default(),
                &SchedOpts::default(),
            )
            .unwrap();
            let reference = naive::optimal_makespan(&g, &g.all_nodes(), m);
            assert_eq!(
                exact, reference,
                "disagreement at machine {mi}, seed {seed}: exact {exact} vs naive {reference}"
            );
        }
    }
}

/// Pinned regression: the instance (stress-sweep seed 29, single-unit
/// machine) on which the naive enumerator historically reported 24 for
/// a 23-optimal schedule. Its memo stored *absolute* makespans under a
/// *time-relative* canonical key, so a tail configuration reached again
/// at a different clock returned a stale value. Both solvers must now
/// agree with the memo-free ground truth (23).
#[test]
fn brute_relative_memo_regression() {
    let mut state = 29u64.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let n = (next() % 11 + 2) as usize;
    let density = (next() % 600) as f64 / 1000.0 + 0.05;
    let classed = next() % 2 == 0;
    let mut g = DepGraph::new();
    for i in 0..n {
        let id = g.add_simple(format!("n{i}"), BlockId(0));
        g.node_mut(id).exec_time = (next() % 3 + 1) as u32;
        if classed && next() % 2 == 0 {
            let k = (next() % FuClass::CONCRETE.len() as u64) as usize;
            g.node_mut(id).class = FuClass::CONCRETE[k];
        }
    }
    for i in 0..n {
        for j in (i + 1)..n {
            if (next() % 1000) as f64 / 1000.0 < density {
                g.add_dep(NodeId(i as u32), NodeId(j as u32), (next() % 3) as u32);
            }
        }
    }
    assert_eq!(n, 10, "generator drifted; regression no longer pinned");
    let m = MachineModel::single_unit(2);
    let mut ctx = SchedCtx::new();
    let exact = optimal_makespan(
        &mut ctx,
        &g,
        &g.all_nodes(),
        &m,
        &ExactConfig::default(),
        &SchedOpts::default(),
    )
    .unwrap();
    assert_eq!(exact, 23);
    assert_eq!(naive::optimal_makespan(&g, &g.all_nodes(), &m), 23);
}
