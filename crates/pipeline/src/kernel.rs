//! Kernel extraction: a modulo schedule as a new single-block loop.

use crate::modulo::ModuloSchedule;
use asched_graph::{BlockId, DepGraph, NodeData, NodeId};

/// The kernel of a software-pipelined loop, expressed as a new
/// single-block loop over the *same node ids*.
#[derive(Clone, Debug)]
pub struct KernelLoop {
    /// Dependence graph of the kernel: same nodes as the source loop,
    /// edges re-based by pipeline stage (`distance' = distance +
    /// stage(dst) - stage(src)`, always ≥ 0 for a valid schedule).
    pub graph: DepGraph,
    /// The kernel instruction order (one loop iteration of the emitted
    /// pipelined code).
    pub order: Vec<NodeId>,
    /// Pipeline stage per node.
    pub stage: Vec<u64>,
    /// The initiation interval achieved by the modulo schedule.
    pub ii: u64,
}

/// Build the kernel loop for modulo schedule `ms` of loop `g`.
pub fn kernel_loop(g: &DepGraph, ms: &ModuloSchedule) -> KernelLoop {
    let mut kg = DepGraph::new();
    let order = ms.kernel_order(g);
    // Re-number source positions to kernel order so stable tie-breaks
    // follow the pipelined code.
    let mut pos_of = vec![0u32; g.len()];
    for (i, &v) in order.iter().enumerate() {
        pos_of[v.index()] = i as u32;
    }
    for id in g.node_ids() {
        let d = g.node(id);
        kg.add_node(NodeData {
            label: d.label.clone(),
            exec_time: d.exec_time,
            class: d.class,
            block: BlockId(0),
            source_pos: pos_of[id.index()],
        });
    }
    for e in g.edges() {
        let d2 = e.distance as i64 + ms.stage(e.dst) as i64 - ms.stage(e.src) as i64;
        debug_assert!(d2 >= 0, "valid modulo schedules never rebase below 0");
        kg.add_edge(e.src, e.dst, e.latency, d2.max(0) as u32, e.kind);
    }
    let stage: Vec<u64> = g.node_ids().map(|v| ms.stage(v)).collect();
    KernelLoop {
        graph: kg,
        order,
        stage,
        ii: ms.ii,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulo::modulo_schedule;
    use asched_graph::MachineModel;

    fn m1() -> MachineModel {
        MachineModel::single_unit(1)
    }

    #[test]
    fn kernel_preserves_nodes_and_rebases_distances() {
        // a -(4)-> b, no recurrence: II 2, b one stage later.
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 4);
        let ms = modulo_schedule(&g, &m1()).unwrap();
        let kl = kernel_loop(&g, &ms);
        assert_eq!(kl.graph.len(), 2);
        // The a->b edge became loop-carried in the kernel.
        let e = kl.graph.out_edges(a).iter().find(|e| e.dst == b).unwrap();
        assert!(e.distance >= 1, "cross-stage edge must gain distance");
        assert_eq!(kl.ii, 2);
    }
}
