//! Property-based tests over the whole pipeline: random workloads in,
//! invariants checked across crates.

use asched::baselines::all_baselines;
use asched::core::{
    legal, schedule_blocks_independent, schedule_trace, LookaheadConfig, SchedCtx, SchedOpts,
};
use asched::exact::{optimal_makespan, ExactConfig};
use asched::graph::validate::validate_schedule;
use asched::graph::MachineModel;
use asched::rank::{delay_idle_slots, rank_schedule_default, Deadlines};
use asched::sim::{simulate, InstStream, IssuePolicy};
use asched::workloads::{random_trace_dag, DagParams};
use proptest::prelude::*;

fn dag_params() -> impl Strategy<Value = DagParams> {
    (
        4usize..24,
        1usize..4,
        0.05f64..0.6,
        0.0f64..0.4,
        0u32..3,
        any::<u64>(),
    )
        .prop_map(
            |(nodes, blocks, edge_prob, cross_prob, max_latency, seed)| DagParams {
                nodes: nodes.max(blocks),
                blocks,
                edge_prob,
                cross_prob,
                max_latency,
                seed,
                ..DagParams::default()
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Rank Algorithm always produces dependence- and
    /// capacity-valid schedules.
    #[test]
    fn rank_schedules_validate(p in dag_params()) {
        let g = random_trace_dag(&p);
        let machine = MachineModel::single_unit(4);
        let mask = g.all_nodes();
        let s = rank_schedule_default(&mut SchedCtx::new(), &g, &mask, &machine).unwrap();
        validate_schedule(&g, &mask, &machine, &s, None).unwrap();
    }

    /// Idle-slot delaying never increases the makespan (in the
    /// restricted case it preserves it exactly; off it, the deadline
    /// re-runs occasionally find a *shorter* schedule), and when the
    /// makespan is unchanged no idle slot moves earlier.
    #[test]
    fn idle_delay_invariants(p in dag_params()) {
        let g = random_trace_dag(&p);
        let machine = MachineModel::single_unit(4);
        let mask = g.all_nodes();
        let mut sc = SchedCtx::new();
        let s0 = rank_schedule_default(&mut sc, &g, &mask, &machine).unwrap();
        let t = s0.makespan();
        let before = s0.idle_slots(&machine);
        let mut d = Deadlines::uniform(&g, &mask, t as i64);
        let s1 = delay_idle_slots(&mut sc, &g, &mask, &machine, s0, &mut d, &SchedOpts::default());
        prop_assert!(s1.makespan() <= t, "delaying must never lengthen the schedule");
        if s1.makespan() == t {
            let after = s1.idle_slots(&machine);
            prop_assert_eq!(before.len(), after.len());
            for (b, a) in before.iter().zip(after.iter()) {
                prop_assert!(a >= b, "idle slot moved earlier: {} -> {}", b, a);
            }
        }
        validate_schedule(&g, &mask, &machine, &s1, Some(d.as_slice())).unwrap();
    }

    /// Algorithm Lookahead's internal prediction is a valid schedule,
    /// its emitted block orders partition the nodes, its reported
    /// makespan is exactly the hardware measurement, and whenever the
    /// prediction is legal under Definition 2.3 it agrees with the
    /// measurement.
    #[test]
    fn lookahead_measured_consistency(p in dag_params(), w in 1usize..8) {
        let g = random_trace_dag(&p);
        let machine = MachineModel::single_unit(w);
        let mut sc = SchedCtx::new();
        let res = schedule_trace(&mut sc, &g, &machine, &LookaheadConfig::default(), &SchedOpts::default())
            .unwrap();
        validate_schedule(&g, &g.all_nodes(), &machine, &res.predicted, None).unwrap();
        let covered: usize = res.block_orders.iter().map(|o| o.len()).sum();
        prop_assert_eq!(covered, g.len());
        let sim = simulate(
            &mut sc,
            &g,
            &machine,
            &InstStream::from_blocks(&res.block_orders),
            IssuePolicy::Strict,
            &SchedOpts::default(),
        );
        prop_assert_eq!(sim.completion, res.makespan);
        if legal::is_legal(&mut sc, &g, &g.all_nodes(), &machine, &res.predicted) {
            prop_assert_eq!(
                res.predicted.makespan(),
                res.makespan,
                "legal predictions must match the hardware"
            );
        }
    }

    /// The emitted per-block orders always respect the in-block
    /// dependences (they are real programs), and the measured makespan
    /// respects the dependence-only lower bound.
    #[test]
    fn emitted_orders_are_programs(p in dag_params(), w in 1usize..8) {
        let g = random_trace_dag(&p);
        let machine = MachineModel::single_unit(w);
        let res = schedule_trace(
            &mut SchedCtx::new(),
            &g,
            &machine,
            &LookaheadConfig::default(),
            &SchedOpts::default(),
        )
        .unwrap();
        for order in &res.block_orders {
            let pos: std::collections::HashMap<_, _> =
                order.iter().enumerate().map(|(i, &x)| (x, i)).collect();
            for &id in order {
                for e in g.out_edges_li(id) {
                    if let (Some(&pi), Some(&pj)) = (pos.get(&e.src), pos.get(&e.dst)) {
                        prop_assert!(pi < pj, "dependence {} violated", e);
                    }
                }
            }
        }
        let cp = asched::graph::critical_path_length(&g, &g.all_nodes()).unwrap();
        prop_assert!(res.makespan >= cp.max(g.len() as u64));
    }

    /// On single blocks in the restricted case, rank + idle-delay is
    /// optimal (cross-checked against the exact solver).
    #[test]
    fn restricted_case_optimality(seed in any::<u64>(), n in 4usize..10) {
        let g = random_trace_dag(&DagParams {
            nodes: n,
            blocks: 1,
            edge_prob: 0.4,
            cross_prob: 0.0,
            max_latency: 1,
            seed,
            ..DagParams::default()
        });
        let machine = MachineModel::single_unit(2);
        let mask = g.all_nodes();
        let mut ctx = SchedCtx::new();
        let s = rank_schedule_default(&mut ctx, &g, &mask, &machine).unwrap();
        let opt = optimal_makespan(
            &mut ctx, &g, &mask, &machine, &ExactConfig::default(), &SchedOpts::default(),
        ).unwrap();
        prop_assert_eq!(s.makespan(), opt);
    }

    /// Every baseline emits dependence-respecting per-block orders, and
    /// the simulated trace completes (sanity across the whole registry).
    #[test]
    fn baselines_emit_valid_orders(p in dag_params()) {
        let g = random_trace_dag(&p);
        let machine = MachineModel::single_unit(4);
        let mut sc = SchedCtx::new();
        for b in all_baselines() {
            let orders = (b.run)(&g, &machine).unwrap();
            let sim = simulate(
                &mut sc,
                &g,
                &machine,
                &InstStream::from_blocks(&orders),
                IssuePolicy::Strict,
                &SchedOpts::default(),
            );
            prop_assert!(sim.completion >= (g.len() as u64).div_ceil(1));
        }
    }

    /// Anticipatory scheduling never loses to independent per-block
    /// scheduling in the restricted case.
    #[test]
    fn anticipatory_beats_local_restricted(p in dag_params(), w in 2usize..8) {
        let mut p = p;
        p.max_latency = 1;
        let g = random_trace_dag(&p);
        let machine = MachineModel::single_unit(w);
        let mut sc = SchedCtx::new();
        let local = schedule_blocks_independent(&mut sc, &g, &machine, true).unwrap();
        let lc = simulate(
            &mut sc,
            &g,
            &machine,
            &InstStream::from_blocks(&local),
            IssuePolicy::Strict,
            &SchedOpts::default(),
        )
        .completion;
        let ant = schedule_trace(&mut sc, &g, &machine, &LookaheadConfig::default(), &SchedOpts::default())
            .unwrap();
        let ac = simulate(
            &mut sc,
            &g,
            &machine,
            &InstStream::from_blocks(&ant.block_orders),
            IssuePolicy::Strict,
            &SchedOpts::default(),
        )
        .completion;
        prop_assert!(ac <= lc, "anticipatory {} vs local {}", ac, lc);
    }
}
