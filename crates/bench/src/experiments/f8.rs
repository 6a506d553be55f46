//! Figure 8: the counter-example showing the single-source transform is
//! insufficient; the general case (5.2.3) finds the 4n schedule.

use crate::experiments::RunCtx;
use crate::report::{period, section, Table};
use asched_core::{schedule_single_block_loop, CandidateKind, LookaheadConfig};
use asched_graph::{MachineModel, SchedCtx, SchedOpts};
use asched_sim::loop_completion;
use asched_workloads::fixtures::{fig8, FIG8_PERIODS};
use std::io::{self, Write};

pub(crate) fn run(w: &mut RunCtx<'_>) -> io::Result<()> {
    writeln!(
        w,
        "{}",
        section(
            "F8",
            "Figure 8 — 1-(1)->3, 2-(1)->3, loop-carried 3-(1,1)->1"
        )
    )?;
    let (g, [n1, n2, n3]) = fig8();
    let w1 = MachineModel::single_unit(1);
    let mut sc = SchedCtx::new();

    // The two schedules of the figure, with their completion formulas.
    let mut t = Table::new(["n", "S1 = 1 2 3 (paper 5n-1)", "S2 = 2 1 3 (paper 4n)"]);
    for n in 1..=5u32 {
        t.row([
            n.to_string(),
            loop_completion(&mut sc, &g, &w1, &[[n1, n2, n3]], n).to_string(),
            loop_completion(&mut sc, &g, &w1, &[[n2, n1, n3]], n).to_string(),
        ]);
    }
    writeln!(w, "{}", t.render())?;

    let res = schedule_single_block_loop(
        &mut sc,
        &g,
        &MachineModel::single_unit(2),
        &LookaheadConfig::default(),
        &SchedOpts::default(),
    )
    .expect("schedules");
    let mut t2 = Table::new(["candidate", "order", "steady/iter"]);
    for c in &res.candidates {
        let kind = match c.kind {
            CandidateKind::Local => "local".to_string(),
            CandidateKind::DummySink(n) => format!("5.2.1 src={}", g.node(n).label),
            CandidateKind::DummySource(n) => format!("5.2.2 sink={}", g.node(n).label),
        };
        let order: Vec<&str> = c.order.iter().map(|&n| g.node(n).label.as_str()).collect();
        t2.row([kind, order.join(" "), period(c.period)]);
    }
    writeln!(w, "{}", t2.render())?;
    let sel: Vec<&str> = res
        .order
        .iter()
        .map(|&n| g.node(n).label.as_str())
        .collect();
    writeln!(
        w,
        "selected: {}  at {} cycles/iteration (paper: the general case must pick 2 1 3 at {})",
        sel.join(" "),
        period(res.period),
        FIG8_PERIODS.1
    )?;
    let sink_cand = res
        .candidates
        .iter()
        .find(|c| matches!(c.kind, CandidateKind::DummySink(s) if s == n1))
        .expect("dummy-sink candidate exists");
    writeln!(
        w,
        "single-source transform alone: {} cycles/iteration (paper {}; symmetric in 1,2 so it cannot win)",
        period(sink_cand.period),
        FIG8_PERIODS.0
    )?;
    let ok = res.order == vec![n2, n1, n3]
        && res.period.0 == FIG8_PERIODS.1 * res.period.1
        && sink_cand.period.0 == FIG8_PERIODS.0 * sink_cand.period.1;
    w.metric_f(
        "f8.general_cycles_per_iter",
        res.period.0 as f64 / res.period.1 as f64,
    );
    w.metric_f(
        "f8.single_source_cycles_per_iter",
        sink_cand.period.0 as f64 / sink_cand.period.1 as f64,
    );
    w.metric("f8.exact", ok as u64);
    writeln!(w, "reproduction: {}", if ok { "EXACT" } else { "MISMATCH" })?;
    Ok(())
}
