//! End-to-end reproduction of every figure of the paper, through the
//! facade crate (the same path a downstream user takes).

use asched::core::{
    legal, schedule_single_block_loop, schedule_trace, CandidateKind, LookaheadConfig,
};
use asched::graph::{MachineModel, SchedCtx, SchedOpts};
use asched::rank::{compute_ranks, delay_idle_slots, rank_schedule, Deadlines};
use asched::sim::{loop_completion, simulate, InstStream, IssuePolicy};
use asched::workloads::fixtures::{
    fig1, fig2, fig3_graph, fig8, FIG1_IDLE_AFTER, FIG1_IDLE_BEFORE, FIG1_MAKESPAN, FIG2_MAKESPAN,
    FIG3_SCHED1, FIG3_SCHED2, FIG8_PERIODS,
};

#[test]
fn figure_1_complete() {
    let (g, [x, e, w, b, a, r]) = fig1();
    let machine = MachineModel::single_unit(2);
    let mask = g.all_nodes();
    let d100 = Deadlines::uniform(&g, &mask, 100);
    let mut sc = SchedCtx::new();
    let opts = SchedOpts::default();
    let ranks = compute_ranks(&mut sc, &g, &mask, &machine, &d100, &opts)
        .unwrap()
        .to_vec();
    assert_eq!(
        [
            ranks[x.index()],
            ranks[e.index()],
            ranks[w.index()],
            ranks[b.index()],
            ranks[a.index()],
            ranks[r.index()]
        ],
        [95, 95, 98, 98, 100, 100]
    );
    let s0 = rank_schedule(&mut sc, &g, &mask, &machine, &d100, &opts).unwrap();
    assert_eq!(s0.makespan(), FIG1_MAKESPAN);
    assert_eq!(s0.idle_slots(&machine), vec![FIG1_IDLE_BEFORE]);
    let mut d = Deadlines::uniform(&g, &mask, FIG1_MAKESPAN as i64);
    let s1 = delay_idle_slots(&mut sc, &g, &mask, &machine, s0, &mut d, &opts);
    assert_eq!(s1.makespan(), FIG1_MAKESPAN);
    assert_eq!(s1.idle_slots(&machine), vec![FIG1_IDLE_AFTER]);
    assert_eq!(d.get(x), 1);
}

#[test]
fn figure_2_complete() {
    let (g, _, _) = fig2();
    let machine = MachineModel::single_unit(2);
    let mut sc = SchedCtx::new();
    let opts = SchedOpts::default();
    let res = schedule_trace(&mut sc, &g, &machine, &LookaheadConfig::default(), &opts).unwrap();
    assert_eq!(res.makespan, FIG2_MAKESPAN);
    // The hardware independently confirms the prediction.
    let sim = simulate(
        &mut sc,
        &g,
        &machine,
        &InstStream::from_blocks(&res.block_orders),
        IssuePolicy::Strict,
        &opts,
    );
    assert_eq!(sim.completion, FIG2_MAKESPAN);
    assert!(legal::is_legal(
        &mut sc,
        &g,
        &g.all_nodes(),
        &machine,
        &res.predicted
    ));
}

#[test]
fn figure_3_complete() {
    // Built from real IR through the dependence analysis.
    let g = fig3_graph();
    let machine = MachineModel::single_unit(2);
    let res = schedule_single_block_loop(
        &mut SchedCtx::new(),
        &g,
        &machine,
        &LookaheadConfig::default(),
        &SchedOpts::default(),
    )
    .unwrap();
    let local = res
        .candidates
        .iter()
        .find(|c| c.kind == CandidateKind::Local)
        .unwrap();
    assert_eq!(local.single_iter, FIG3_SCHED1.0);
    assert_eq!(local.period.0, FIG3_SCHED1.1 * local.period.1);
    assert_eq!(res.single_iter, FIG3_SCHED2.0);
    assert_eq!(res.period.0, FIG3_SCHED2.1 * res.period.1);
    // Emitted order is L ST M C4 BT.
    let labels: Vec<&str> = res
        .order
        .iter()
        .map(|&n| g.node(n).label.as_str())
        .collect();
    assert_eq!(labels, ["l4u", "st4u", "mul", "c4", "bt"]);
}

#[test]
fn figure_8_complete() {
    let (g, [n1, n2, n3]) = fig8();
    let w1 = MachineModel::single_unit(1);
    let mut sc = SchedCtx::new();
    for n in 1..=4u32 {
        assert_eq!(
            loop_completion(&mut sc, &g, &w1, &[[n1, n2, n3]], n),
            5 * n as u64 - 1
        );
        assert_eq!(
            loop_completion(&mut sc, &g, &w1, &[[n2, n1, n3]], n),
            4 * n as u64
        );
    }
    let res = schedule_single_block_loop(
        &mut sc,
        &g,
        &MachineModel::single_unit(2),
        &LookaheadConfig::default(),
        &SchedOpts::default(),
    )
    .unwrap();
    assert_eq!(res.order, vec![n2, n1, n3]);
    assert_eq!(res.period.0, FIG8_PERIODS.1 * res.period.1);
}
