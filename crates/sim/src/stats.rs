//! Execution statistics derived from a simulation.

use crate::stream::InstStream;
use crate::window::SimResult;
use asched_graph::{DepGraph, MachineModel, Schedule};

/// Summary statistics of a simulated stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SimStats {
    /// Total cycles (makespan).
    pub cycles: u64,
    /// Busy unit-cycles (sum of execution times).
    pub busy_unit_cycles: u64,
    /// Fraction of unit-cycles doing work: `busy / (cycles * units)`.
    pub utilization: f64,
    /// Cycles during which work was pending but nothing issued.
    pub stall_cycles: u64,
    /// Dynamic instruction count.
    pub instructions: u64,
}

/// Compute utilization statistics for a finished simulation.
pub fn utilization(
    g: &DepGraph,
    machine: &MachineModel,
    stream: &InstStream,
    result: &SimResult,
) -> SimStats {
    let busy: u64 = stream
        .items()
        .iter()
        .map(|i| g.exec_time(i.node) as u64)
        .sum();
    let cycles = result.completion;
    let denom = cycles.saturating_mul(machine.num_units() as u64);
    SimStats {
        cycles,
        busy_unit_cycles: busy,
        utilization: if denom == 0 {
            0.0
        } else {
            busy as f64 / denom as f64
        },
        stall_cycles: result.stall_cycles,
        instructions: stream.len() as u64,
    }
}

/// Reconstruct the per-unit placement of a finished simulation as a
/// [`Schedule`]: instances in issue order grab the first compatible unit
/// free at their cycle, mirroring the simulator's own scan order. This
/// is the single source of truth for turning a [`SimResult`] back into a
/// schedule (used by [`timeline`] and by `asched-core`'s portfolio
/// reconstruction).
///
/// Invariant: the reconstruction must mirror the simulator's unit
/// arbitration exactly — within a cycle the simulator issues in window
/// order (ascending stream position) and each instance takes the first
/// free unit of its class, which is what sorting by `(issue, position)`
/// and scanning `units_for` reproduces. A change to the arbitration in
/// `window.rs` must be reflected here; the `expect` below fails loudly
/// if the two ever diverge.
pub fn schedule_of(
    g: &DepGraph,
    machine: &MachineModel,
    stream: &InstStream,
    result: &SimResult,
) -> Schedule {
    let mut sched = Schedule::new(g.len());
    let mut unit_free = vec![0u64; machine.num_units()];
    let mut order: Vec<usize> = (0..stream.len()).collect();
    order.sort_by_key(|&j| (result.issue[j], j));
    let mut assigned: Vec<bool> = vec![false; g.len()];
    for j in order {
        let inst = stream.items()[j];
        let t = result.issue[j];
        let u = machine
            .units_for(g.node(inst.node).class)
            .find(|&u| unit_free[u] <= t)
            .expect("simulation was feasible");
        let exec = g.exec_time(inst.node);
        unit_free[u] = t + exec as u64;
        // Only single-occurrence streams (iter 0) can be expressed as a
        // static Schedule; later iterations are skipped.
        if !assigned[inst.node.index()] {
            assigned[inst.node.index()] = true;
            sched.assign(inst.node, t, u, exec);
        }
    }
    sched
}

/// Render the dynamic execution as one text line per functional unit
/// (`.` = continuation of a multi-cycle instruction, space = idle), with
/// instruction labels from the graph. Instances from iteration `k > 0`
/// are suffixed with `'` marks cyclically to stay compact.
pub fn timeline(
    g: &DepGraph,
    machine: &MachineModel,
    stream: &InstStream,
    result: &SimResult,
) -> String {
    let t_max = result.completion as usize;
    let mut rows: Vec<Vec<String>> = vec![vec![" ".to_string(); t_max]; machine.num_units()];
    // Same reconstruction as schedule_of, but per dynamic instance (a
    // Schedule can hold each node once; the timeline shows every
    // iteration).
    let mut unit_free = vec![0u64; machine.num_units()];
    let mut order: Vec<usize> = (0..stream.len()).collect();
    order.sort_by_key(|&j| (result.issue[j], j));
    for j in order {
        let inst = stream.items()[j];
        let class = g.node(inst.node).class;
        let t = result.issue[j];
        let u = machine
            .units_for(class)
            .find(|&u| unit_free[u] <= t)
            .expect("simulation was feasible");
        let exec = g.exec_time(inst.node) as u64;
        unit_free[u] = t + exec;
        let tick = "'".repeat((inst.iter % 3) as usize);
        rows[u][t as usize] = format!("{}{}", g.node(inst.node).label, tick);
        for k in 1..exec {
            rows[u][(t + k) as usize] = ".".to_string();
        }
    }
    rows.iter()
        .map(|r| format!("|{}|", r.join("|")))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{simulate, IssuePolicy};
    use asched_graph::{BlockId, SchedCtx, SchedOpts};

    fn sim(g: &DepGraph, m: &MachineModel, s: &InstStream) -> SimResult {
        simulate(
            &mut SchedCtx::new(),
            g,
            m,
            s,
            IssuePolicy::Strict,
            &SchedOpts::default(),
        )
    }

    #[test]
    fn full_utilization_without_gaps() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        let m = MachineModel::single_unit(2);
        let s = InstStream::from_order(&[a, b]);
        let r = sim(&g, &m, &s);
        let st = utilization(&g, &m, &s, &r);
        assert_eq!(st.cycles, 2);
        assert_eq!(st.busy_unit_cycles, 2);
        assert!((st.utilization - 1.0).abs() < 1e-9);
        assert_eq!(st.stall_cycles, 0);
        assert_eq!(st.instructions, 2);
    }

    #[test]
    fn stalls_reduce_utilization() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 3);
        let m = MachineModel::single_unit(1);
        let s = InstStream::from_order(&[a, b]);
        let r = sim(&g, &m, &s);
        let st = utilization(&g, &m, &s, &r);
        assert_eq!(st.cycles, 5);
        assert_eq!(st.stall_cycles, 3);
        assert!((st.utilization - 0.4).abs() < 1e-9);
    }

    #[test]
    fn schedule_of_reconstructs_valid_schedules() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 2);
        let m = MachineModel::single_unit(2);
        let s = InstStream::from_order(&[a, b]);
        let r = sim(&g, &m, &s);
        let sched = schedule_of(&g, &m, &s, &r);
        assert_eq!(sched.start(a), Some(0));
        assert_eq!(sched.start(b), Some(3));
        asched_graph::validate::validate_schedule(&g, &g.all_nodes(), &m, &sched, None).unwrap();
    }

    #[test]
    fn timeline_renders_gaps_and_iterations() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        g.add_edge(a, a, 1, 1, asched_graph::DepKind::Data);
        let m = MachineModel::single_unit(2);
        let s = InstStream::loop_iterations(&[[a]], 2);
        let r = sim(&g, &m, &s);
        let line = timeline(&g, &m, &s, &r);
        // a at 0, idle at 1, a' at 2.
        assert_eq!(line, "|a| |a'|");
    }

    #[test]
    fn empty_stream_zero_stats() {
        let g = DepGraph::new();
        let m = MachineModel::single_unit(1);
        let s = InstStream::default();
        let r = sim(&g, &m, &s);
        let st = utilization(&g, &m, &s, &r);
        assert_eq!(st.cycles, 0);
        assert_eq!(st.utilization, 0.0);
    }
}
