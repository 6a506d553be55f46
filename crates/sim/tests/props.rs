//! Property tests for the lookahead-window simulator.

use asched_graph::{critical_path_length, BlockId, DepGraph, MachineModel, NodeId};
use asched_sim::{loop_completion, simulate, InstStream, IssuePolicy, SchedCtx, SchedOpts};
use proptest::prelude::*;

/// Fresh-context shorthand used throughout (determinism tests make their
/// own warm contexts explicitly).
fn sim(
    g: &DepGraph,
    m: &MachineModel,
    s: &InstStream,
    policy: IssuePolicy,
) -> asched_sim::SimResult {
    simulate(&mut SchedCtx::new(), g, m, s, policy, &SchedOpts::default())
}

/// Random unit-exec DAG plus a dependence-respecting emission order.
fn arb_workload() -> impl Strategy<Value = (DepGraph, Vec<NodeId>)> {
    (3usize..16, any::<u64>(), 0.1f64..0.6).prop_map(|(n, seed, density)| {
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
                    g.add_dep(NodeId(i as u32), NodeId(j as u32), (next() % 4) as u32);
                }
            }
        }
        // Emission order = index order (respects all forward edges).
        let order: Vec<NodeId> = g.node_ids().collect();
        (g, order)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The simulator is deterministic and bounded: completion is at
    /// least the dependence critical path and the work bound, and at
    /// most the fully-serialized worst case.
    #[test]
    fn completion_bounds((g, order) in arb_workload(), w in 1usize..10) {
        let m = MachineModel::single_unit(w);
        let stream = InstStream::from_order(&order);
        let mut warm = SchedCtx::new();
        let r1 = simulate(&mut warm, &g, &m, &stream, IssuePolicy::Strict, &SchedOpts::default());
        let r2 = simulate(&mut warm, &g, &m, &stream, IssuePolicy::Strict, &SchedOpts::default());
        let fresh = sim(&g, &m, &stream, IssuePolicy::Strict);
        prop_assert_eq!(r1.completion, r2.completion, "determinism");
        prop_assert_eq!(r1.completion, fresh.completion, "warm ctx must match fresh");
        prop_assert_eq!(&r1.issue, &fresh.issue);
        prop_assert_eq!(&r1.finish, &fresh.finish);
        let cp = critical_path_length(&g, &g.all_nodes()).unwrap();
        prop_assert!(r1.completion >= cp.max(g.len() as u64));
        let worst: u64 = g.len() as u64 * (1 + g.max_latency() as u64);
        prop_assert!(r1.completion <= worst);
    }

    /// A larger window usually helps and never changes the bounds — but
    /// strict monotonicity is NOT a theorem (see
    /// `window_anomaly_regression` below for a concrete Graham-type
    /// anomaly where W=5 loses a cycle to W=4). Assert the sound
    /// envelope instead: both runs sit between the dependence/work lower
    /// bound and the fully-serialized worst case, and the wide-open
    /// window is never beaten by more than the anomaly slack.
    #[test]
    fn window_effect_is_bounded((g, order) in arb_workload(), w in 1usize..8) {
        let stream = InstStream::from_order(&order);
        let small = sim(&g, &MachineModel::single_unit(w), &stream, IssuePolicy::Strict);
        let big = sim(&g, &MachineModel::single_unit(w + 1), &stream, IssuePolicy::Strict);
        let cp = critical_path_length(&g, &g.all_nodes()).unwrap();
        let lower = cp.max(g.len() as u64);
        let worst: u64 = g.len() as u64 * (1 + g.max_latency() as u64);
        for r in [&small, &big] {
            prop_assert!(r.completion >= lower && r.completion <= worst);
        }
        // Anomalies are single-swap effects: allow one max-latency slack.
        prop_assert!(
            big.completion <= small.completion + 1 + g.max_latency() as u64,
            "W={} gave {}, W={} gave {}",
            w, small.completion, w + 1, big.completion
        );
    }

    /// An infinitely wide window on a single unit achieves exactly the
    /// greedy list schedule of the emission order.
    #[test]
    fn huge_window_equals_list_schedule((g, order) in arb_workload()) {
        let m = MachineModel::single_unit(1000);
        let stream = InstStream::from_order(&order);
        let mut ctx = SchedCtx::new();
        let r = simulate(&mut ctx, &g, &m, &stream, IssuePolicy::Strict, &SchedOpts::default());
        let sched =
            asched_rank::list_schedule(&mut ctx, &g, &g.all_nodes(), &m, &order, &SchedOpts::default());
        prop_assert_eq!(r.completion, sched.makespan());
    }

    /// Loop completion is superadditive-ish: n iterations take at least
    /// n times the per-iteration work, and completion is monotone in n.
    #[test]
    fn loop_completion_monotone((g, order) in arb_workload(), w in 1usize..6) {
        let m = MachineModel::single_unit(w);
        let mut prev = 0;
        for n in 1..=4u32 {
            let c = loop_completion(&mut SchedCtx::new(), &g, &m, &[&order], n);
            prop_assert!(c >= prev, "completion must be monotone in n");
            prop_assert!(c >= n as u64 * g.len() as u64, "work bound");
            prev = c;
        }
    }

    /// Scan policy never loses to Strict (it only adds issue
    /// opportunities) on a single unit they are identical.
    #[test]
    fn scan_equals_strict_on_single_unit((g, order) in arb_workload(), w in 1usize..8) {
        let m = MachineModel::single_unit(w);
        let stream = InstStream::from_order(&order);
        let strict = sim(&g, &m, &stream, IssuePolicy::Strict);
        let scan = sim(&g, &m, &stream, IssuePolicy::Scan);
        prop_assert_eq!(strict.completion, scan.completion);
        prop_assert_eq!(strict.issue, scan.issue);
    }
}

/// A 15-node, 0-3-latency instance (shrunk by proptest) where W=5
/// completes in 21 cycles but W=4 in 20: a Graham-type scheduling
/// anomaly — the wider window greedily issues an instruction whose
/// issue reshuffles later readiness for the worse. Window
/// monotonicity is NOT a theorem of the Section 2.3 model, which is
/// why the property test above only asserts bounds.
#[test]
fn window_anomaly_regression() {
    let mut g = DepGraph::new();
    for i in 0..15 {
        g.add_simple(format!("n{i}"), BlockId(0));
    }
    for (s, d, l) in [
        (0, 2, 1),
        (0, 4, 2),
        (0, 6, 2),
        (0, 7, 0),
        (0, 9, 0),
        (0, 10, 1),
        (0, 14, 3),
        (1, 2, 3),
        (1, 4, 3),
        (1, 5, 2),
        (1, 6, 1),
        (1, 11, 0),
        (1, 13, 3),
        (1, 14, 2),
        (2, 4, 1),
        (2, 8, 3),
        (2, 10, 3),
        (2, 12, 3),
        (2, 13, 0),
        (3, 8, 0),
        (3, 14, 2),
        (4, 5, 3),
        (4, 6, 0),
        (5, 10, 0),
        (5, 14, 1),
        (6, 7, 2),
        (6, 10, 1),
        (6, 12, 1),
        (6, 13, 1),
        (6, 14, 0),
        (7, 11, 2),
        (7, 12, 2),
        (8, 10, 0),
        (8, 11, 3),
        (8, 12, 1),
        (9, 11, 1),
        (9, 12, 3),
        (9, 13, 0),
        (9, 14, 2),
        (10, 12, 3),
        (10, 13, 2),
        (11, 13, 1),
        (11, 14, 2),
        (13, 14, 1),
        (0, 2, 1),
        (1, 2, 3),
        (0, 4, 2),
        (1, 4, 3),
        (2, 4, 1),
        (1, 5, 2),
        (4, 5, 3),
        (0, 6, 2),
        (1, 6, 1),
        (4, 6, 0),
        (0, 7, 0),
        (6, 7, 2),
        (2, 8, 3),
        (3, 8, 0),
        (0, 9, 0),
        (0, 10, 1),
        (2, 10, 3),
        (5, 10, 0),
        (6, 10, 1),
        (8, 10, 0),
        (1, 11, 0),
        (7, 11, 2),
        (8, 11, 3),
        (9, 11, 1),
        (2, 12, 3),
        (6, 12, 1),
        (7, 12, 2),
        (8, 12, 1),
        (9, 12, 3),
        (10, 12, 3),
        (1, 13, 3),
        (2, 13, 0),
        (6, 13, 1),
        (9, 13, 0),
        (10, 13, 2),
        (11, 13, 1),
        (0, 14, 3),
        (1, 14, 2),
        (3, 14, 2),
        (5, 14, 1),
        (6, 14, 0),
        (9, 14, 2),
        (11, 14, 2),
        (13, 14, 1),
    ] {
        g.add_dep(asched_graph::NodeId(s), asched_graph::NodeId(d), l);
    }
    let order: Vec<asched_graph::NodeId> = g.node_ids().collect();
    let stream = InstStream::from_order(&order);
    let w4 = sim(
        &g,
        &MachineModel::single_unit(4),
        &stream,
        IssuePolicy::Strict,
    );
    let w5 = sim(
        &g,
        &MachineModel::single_unit(5),
        &stream,
        IssuePolicy::Strict,
    );
    assert_eq!(w4.completion, 20);
    assert_eq!(
        w5.completion, 21,
        "the anomaly: a bigger window loses a cycle"
    );
}
