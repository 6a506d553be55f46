//! Cross-crate integration: IR kernels through dependence analysis,
//! Section 5.2.3 loop scheduling, modulo scheduling and the anticipatory
//! post-pass.

use asched::core::{
    schedule_single_block_loop, CandidateKind, LookaheadConfig, SchedCtx, SchedOpts,
    LOOP_EVAL_WINDOW,
};
use asched::graph::MachineModel;
use asched::ir::{build_loop_graph, LatencyModel};
use asched::pipeline::{anticipatory_postpass, mii, modulo_schedule, rec_mii};
use asched::sim::steady_period;
use asched::workloads::kernels::all_kernels;

#[test]
fn every_kernel_schedules_and_respects_recurrence_bounds() {
    let machine = MachineModel::single_unit(1);
    let cfg = LookaheadConfig::default();
    let mut sc = SchedCtx::new();
    for (name, prog) in all_kernels() {
        let g = build_loop_graph(&prog, &LatencyModel::fig3());
        if g.blocks().len() != 1 {
            continue; // 5.2.3 is the single-block entry point
        }
        let res = schedule_single_block_loop(&mut sc, &g, &machine, &cfg, &SchedOpts::default())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let bound = rec_mii(&g);
        assert!(
            res.period.0 >= bound * res.period.1,
            "{name}: period {:?} beats the recurrence bound {bound}",
            res.period
        );
        // The selection can only improve on the loop-blind candidate.
        let local = res
            .candidates
            .iter()
            .find(|c| c.kind == CandidateKind::Local)
            .unwrap();
        assert!(
            res.period.0 * local.period.1 <= local.period.0 * res.period.1,
            "{name}: selected worse than local"
        );
    }
}

#[test]
fn modulo_schedule_hits_mii_on_kernels() {
    let machine = MachineModel::single_unit(1);
    for (name, prog) in all_kernels() {
        let g = build_loop_graph(&prog, &LatencyModel::fig3());
        if g.blocks().len() != 1 {
            continue;
        }
        let bound = mii(&g, &machine);
        let ms = modulo_schedule(&g, &machine).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(ms.ii >= bound, "{name}: II below MII");
        assert!(
            ms.ii <= bound + 2,
            "{name}: II {} far above MII {bound}",
            ms.ii
        );
    }
}

#[test]
fn postpass_never_degrades_any_kernel() {
    let machine = MachineModel::single_unit(1);
    let cfg = LookaheadConfig::default();
    let mut sc = SchedCtx::new();
    for (name, prog) in all_kernels() {
        let g = build_loop_graph(&prog, &LatencyModel::fig3());
        if g.blocks().len() != 1 {
            continue;
        }
        let r = anticipatory_postpass(&mut sc, &g, &machine, &cfg, &SchedOpts::default())
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
        assert!(
            r.after.0 * r.before.1 <= r.before.0 * r.after.1,
            "{name}: post-pass degraded the kernel"
        );
        // Consistency: the reported period really is what the simulator
        // measures for the chosen order on the kernel graph.
        let eval = machine.with_window(LOOP_EVAL_WINDOW);
        let measured = steady_period(&mut sc, &r.kernel.graph, &eval, &[&r.order], 64);
        assert_eq!(
            measured.0 * r.after.1,
            r.after.0 * measured.1,
            "{name}: reported period mismatch"
        );
    }
}

#[test]
fn pipelined_kernels_beat_or_match_unpipelined_schedules() {
    // Software pipelining should never lose to single-iteration
    // scheduling in steady state (it has strictly more freedom).
    let machine = MachineModel::single_unit(1);
    let cfg = LookaheadConfig::default();
    let mut sc = SchedCtx::new();
    for (name, prog) in all_kernels() {
        let g = build_loop_graph(&prog, &LatencyModel::fig3());
        if g.blocks().len() != 1 {
            continue;
        }
        let anticipatory =
            schedule_single_block_loop(&mut sc, &g, &machine, &cfg, &SchedOpts::default()).unwrap();
        let post =
            anticipatory_postpass(&mut sc, &g, &machine, &cfg, &SchedOpts::default()).unwrap();
        assert!(
            post.after.0 * anticipatory.period.1 <= anticipatory.period.0 * post.after.1,
            "{name}: modulo+postpass ({:?}) lost to plain anticipatory ({:?})",
            post.after,
            anticipatory.period
        );
    }
}
