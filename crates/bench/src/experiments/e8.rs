//! E8: multiple functional units (the Section 4.2 heuristic).

use crate::experiments::{sim_blocks, RunCtx};
use crate::report::{section, Table};
use asched_baselines::{critical_path, warren};
use asched_core::schedule_blocks_independent;
use asched_engine::TraceTask;
use asched_graph::{MachineModel, SchedCtx, SchedOpts};
use asched_rank::{rank_schedule, BackwardMode, Deadlines};
use asched_workloads::{random_trace_dag, DagParams};
use std::io::{self, Write};

const SEEDS: u64 = 10;

fn machine_slug(name: &str) -> &'static str {
    match name {
        "1 universal unit" => "u1",
        "2 universal units" => "u2",
        _ => "rs6000",
    }
}

pub(crate) fn run(w: &mut RunCtx<'_>) -> io::Result<()> {
    writeln!(
        w,
        "{}",
        section(
            "E8",
            "multiple functional units at W=4 — mean cycles over 10 class-tagged traces"
        )
    )?;
    let machines: Vec<(&str, MachineModel)> = vec![
        ("1 universal unit", MachineModel::single_unit(4)),
        ("2 universal units", MachineModel::uniform(2, 4)),
        ("fixed/float/mem/branch", MachineModel::rs6000_like(4)),
    ];
    let mut sc = SchedCtx::new();
    let mut t = Table::new([
        "machine",
        "critpath",
        "warren",
        "local+delay",
        "anticipatory",
    ]);
    for (name, machine) in &machines {
        let mut sums = [0.0f64; 4];
        let mut graphs = Vec::new();
        let mut tasks = Vec::new();
        for seed in 0..SEEDS {
            let g = random_trace_dag(&DagParams {
                nodes: 32,
                blocks: 4,
                edge_prob: 0.3,
                cross_prob: 0.15,
                max_latency: 3,
                max_exec: 2,
                class_fraction: 1.0,
                seed: seed * 193 + 3,
            });
            tasks.push(TraceTask::new(
                format!("e8:{}:s{seed}", machine_slug(name)),
                g.clone(),
                machine.clone(),
            ));
            graphs.push(g);
        }
        let ants = w.trace_batch(tasks);
        for (g, ant) in graphs.iter().zip(&ants) {
            let cp = critical_path(g, machine).expect("schedules");
            sums[0] += sim_blocks(&mut sc, g, machine, &cp) as f64;
            let wa = warren(g, machine).expect("schedules");
            sums[1] += sim_blocks(&mut sc, g, machine, &wa) as f64;
            let local = schedule_blocks_independent(&mut sc, g, machine, true).expect("schedules");
            sums[2] += sim_blocks(&mut sc, g, machine, &local) as f64;
            sums[3] += sim_blocks(&mut sc, g, machine, &ant.block_orders) as f64;
        }
        let n = SEEDS as f64;
        w.metric_f(
            &format!("e8.{}.anticipatory", machine_slug(name)),
            sums[3] / n,
        );
        t.row([
            name.to_string(),
            format!("{:.1}", sums[0] / n),
            format!("{:.1}", sums[1] / n),
            format!("{:.1}", sums[2] / n),
            format!("{:.1}", sums[3] / n),
        ]);
    }
    writeln!(w, "{}", t.render())?;

    // Section 4.2's two backward-scheduling variants for non-unit
    // execution times: whole insertion vs piecewise (single-cycle
    // pieces). Per-block rank scheduling, simulated at W=4.
    let mut t2 = Table::new(["machine", "rank (whole)", "rank (piecewise)"]);
    for (name, machine) in &machines {
        let mut sums = [0.0f64; 2];
        for seed in 0..SEEDS {
            let g = random_trace_dag(&DagParams {
                nodes: 32,
                blocks: 4,
                edge_prob: 0.3,
                cross_prob: 0.15,
                max_latency: 3,
                max_exec: 3,
                class_fraction: 1.0,
                seed: seed * 811 + 9,
            });
            for (i, mode) in [BackwardMode::Whole, BackwardMode::Piecewise]
                .into_iter()
                .enumerate()
            {
                let mut orders = Vec::new();
                for blk in g.blocks() {
                    let mask = g.block_nodes(blk);
                    let free = Deadlines::unbounded(&g, &mask);
                    let opts = SchedOpts::default().with_backward(mode);
                    let s = rank_schedule(&mut sc, &g, &mask, machine, &free, &opts)
                        .expect("schedules");
                    orders.push(s.order());
                }
                sums[i] += sim_blocks(&mut sc, &g, machine, &orders) as f64;
            }
        }
        let n = SEEDS as f64;
        w.metric_f(
            &format!("e8.{}.rank_whole", machine_slug(name)),
            sums[0] / n,
        );
        w.metric_f(
            &format!("e8.{}.rank_piecewise", machine_slug(name)),
            sums[1] / n,
        );
        t2.row([
            name.to_string(),
            format!("{:.1}", sums[0] / n),
            format!("{:.1}", sums[1] / n),
        ]);
    }
    writeln!(w, "{}", t2.render())?;
    writeln!(
        w,
        "expected shape: the heuristic extension keeps (or extends) the anticipatory\n\
         advantage on assigned-unit machines; nothing is provably optimal here\n\
         (the problem is NP-hard — paper Section 4.2). The whole/piecewise backward\n\
         variants trade rank tightness against soundness and land within a few\n\
         percent of each other."
    )?;
    Ok(())
}
