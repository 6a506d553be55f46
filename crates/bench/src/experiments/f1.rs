//! Figure 1: the Rank Algorithm on BB1 and idle-slot delaying.

use crate::experiments::RunCtx;
use crate::report::{section, Table};
use asched_graph::{MachineModel, SchedCtx, SchedOpts};
use asched_rank::{compute_ranks, delay_idle_slots, rank_schedule, Deadlines};
use asched_workloads::fixtures::{fig1, FIG1_IDLE_AFTER, FIG1_IDLE_BEFORE, FIG1_MAKESPAN};
use std::io::{self, Write};

pub(crate) fn run(w: &mut RunCtx<'_>) -> io::Result<()> {
    writeln!(
        w,
        "{}",
        section(
            "F1",
            "Figure 1 — rank schedule and Move_Idle_Slot on basic block BB1"
        )
    )?;
    let (g, [x, e, wn, b, a, r]) = fig1();
    let machine = MachineModel::single_unit(2);
    let mask = g.all_nodes();
    let mut sc = SchedCtx::new();
    let opts = SchedOpts::default();

    // Ranks with the paper's artificial deadline 100.
    let d100 = Deadlines::uniform(&g, &mask, 100);
    let ranks = compute_ranks(&mut sc, &g, &mask, &machine, &d100, &opts)
        .expect("fig1 is feasible")
        .to_vec();
    let mut t = Table::new(["node", "rank (paper)", "rank (ours)"]);
    let expected = [(x, 95), (e, 95), (wn, 98), (b, 98), (a, 100), (r, 100)];
    for (n, exp) in expected {
        t.row([
            g.node(n).label.clone(),
            exp.to_string(),
            ranks[n.index()].to_string(),
        ]);
    }
    writeln!(w, "{}", t.render())?;

    let s0 = rank_schedule(&mut sc, &g, &mask, &machine, &d100, &opts).expect("fig1 schedules");
    writeln!(
        w,
        "rank schedule        : {}   (makespan {}, paper {})",
        s0.gantt(&g, &machine),
        s0.makespan(),
        FIG1_MAKESPAN
    )?;
    let idles0 = s0.idle_slots(&machine);
    writeln!(
        w,
        "idle slot before     : t={}  (paper t={})",
        idles0[0], FIG1_IDLE_BEFORE
    )?;

    let mut d = Deadlines::uniform(&g, &mask, s0.makespan() as i64);
    let s1 = delay_idle_slots(&mut sc, &g, &mask, &machine, s0, &mut d, &opts);
    let idles1 = s1.idle_slots(&machine);
    writeln!(
        w,
        "after Delay_Idle_Slot: {}   (makespan {})",
        s1.gantt(&g, &machine),
        s1.makespan()
    )?;
    writeln!(
        w,
        "idle slot after      : t={}  (paper t={});  finalized d(x) = {} (paper 1)",
        idles1[0],
        FIG1_IDLE_AFTER,
        d.get(x)
    )?;
    let ok = s1.makespan() == FIG1_MAKESPAN
        && idles0 == vec![FIG1_IDLE_BEFORE]
        && idles1 == vec![FIG1_IDLE_AFTER]
        && d.get(x) == 1;
    w.metric("f1.makespan", s1.makespan());
    w.metric("f1.idle_slot_before", idles0[0]);
    w.metric("f1.idle_slot_after", idles1[0]);
    w.metric("f1.exact", ok as u64);
    writeln!(w, "reproduction: {}", if ok { "EXACT" } else { "MISMATCH" })?;
    Ok(())
}
