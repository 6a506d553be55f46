//! Property tests for the baseline schedulers.

use asched_baselines::{all_baselines, global_oracle};
use asched_exact::ExactConfig;
use asched_graph::validate::validate_schedule;
use asched_graph::{
    BlockId, DepGraph, MachineModel, NodeId, NodeSet, SchedCtx, SchedOpts, Schedule,
};
use asched_rank::list_schedule;
use proptest::prelude::*;

/// Greedy list schedule with a throwaway context (baselines are one-shot
/// comparators; the ctx cache buys nothing across distinct instances).
fn greedy(g: &DepGraph, mask: &NodeSet, machine: &MachineModel, prio: &[NodeId]) -> Schedule {
    list_schedule(
        &mut SchedCtx::new(),
        g,
        mask,
        machine,
        prio,
        &SchedOpts::default(),
    )
}

/// The exact optimum of the whole graph, from the workspace's one exact
/// oracle (the instances here are far inside its default budget).
fn optimal_makespan(g: &DepGraph, machine: &MachineModel) -> u64 {
    let (mut ctx, all) = (SchedCtx::new(), g.all_nodes());
    let (cfg, opts) = (ExactConfig::default(), SchedOpts::default());
    asched_exact::optimal_makespan(&mut ctx, g, &all, machine, &cfg, &opts)
        .expect("solved within budget")
}

fn arb_block(max_n: usize, max_lat: u32) -> impl Strategy<Value = DepGraph> {
    (2usize..max_n, any::<u64>(), 0.1f64..0.6).prop_map(move |(n, seed, density)| {
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
                    g.add_dep(
                        NodeId(i as u32),
                        NodeId(j as u32),
                        (next() % (max_lat as u64 + 1)) as u32,
                    );
                }
            }
        }
        g
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every baseline produces a valid greedy schedule on every machine
    /// shape, and never beats the exact optimum.
    #[test]
    fn baselines_are_valid_and_bounded(g in arb_block(10, 3), units in 1usize..3) {
        let machine = MachineModel::uniform(units, 4);
        let opt = optimal_makespan(&g, &machine);
        for b in all_baselines() {
            let orders = (b.run)(&g, &machine).unwrap();
            let s = greedy(&g, &g.all_nodes(), &machine, &orders[0]);
            validate_schedule(&g, &g.all_nodes(), &machine, &s, None)
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            prop_assert!(
                s.makespan() >= opt,
                "{} beat the optimum: {} < {}", b.name, s.makespan(), opt
            );
        }
    }

    /// Coffman–Graham is optimal on two unit-time processors without
    /// latencies (its classical guarantee).
    #[test]
    fn coffman_graham_two_processor_optimality(g in arb_block(9, 0)) {
        let machine = MachineModel::uniform(2, 1);
        let orders = asched_baselines::coffman_graham(&g, &machine).unwrap();
        let s = greedy(&g, &g.all_nodes(), &machine, &orders[0]);
        let opt = optimal_makespan(&g, &machine);
        prop_assert_eq!(s.makespan(), opt);
    }

    /// Bernstein–Gertner-style labelling is near-optimal on a single
    /// pipeline with 0/1 latencies (the setting the original exact
    /// algorithm was designed for; our baseline reimplements its
    /// labelling *idea*, not the full procedure, and stays within one
    /// cycle of the optimum).
    #[test]
    fn bernstein_gertner_restricted_near_optimality(g in arb_block(9, 1)) {
        let machine = MachineModel::single_unit(1);
        let orders = asched_baselines::bernstein_gertner(&g, &machine).unwrap();
        let s = greedy(&g, &g.all_nodes(), &machine, &orders[0]);
        let opt = optimal_makespan(&g, &machine);
        prop_assert!(s.makespan() >= opt);
        prop_assert!(
            s.makespan() <= opt + 1,
            "BG {} vs optimum {}", s.makespan(), opt
        );
    }

    /// The global oracle is at least as good as every per-block baseline
    /// when the graph is a single block (they solve the same problem).
    #[test]
    fn oracle_matches_critpath_on_single_blocks(g in arb_block(12, 2)) {
        let machine = MachineModel::single_unit(4);
        let oracle = global_oracle(&g, &machine).unwrap();
        let s_oracle = greedy(&g, &g.all_nodes(), &machine, &oracle);
        let cp = asched_baselines::critical_path(&g, &machine).unwrap();
        let s_cp = greedy(&g, &g.all_nodes(), &machine, &cp[0]);
        prop_assert_eq!(s_oracle.makespan(), s_cp.makespan());
    }
}
