//! A uniform registry of the baseline schedulers, for the experiment
//! harness.

use crate::{
    bernstein_gertner, coffman_graham, critical_path, gibbons_muchnick, source_order, warren,
};
use asched_graph::{CycleError, DepGraph, MachineModel, NodeId};

/// The signature shared by every per-block baseline scheduler: emits one
/// instruction order per basic block.
pub type BlockScheduler = fn(&DepGraph, &MachineModel) -> Result<Vec<Vec<NodeId>>, CycleError>;

/// A named per-block baseline scheduler.
#[derive(Clone, Copy)]
pub struct Baseline {
    /// Short name used in experiment tables.
    pub name: &'static str,
    /// The scheduling function: emits one order per block.
    pub run: BlockScheduler,
}

/// Every per-block baseline, in a fixed reporting order.
pub fn all_baselines() -> Vec<Baseline> {
    vec![
        Baseline {
            name: "source",
            run: source_order,
        },
        Baseline {
            name: "critpath",
            run: critical_path,
        },
        Baseline {
            name: "gibbons",
            run: gibbons_muchnick,
        },
        Baseline {
            name: "coffman",
            run: coffman_graham,
        },
        Baseline {
            name: "bernstein",
            run: bernstein_gertner,
        },
        Baseline {
            name: "warren",
            run: warren,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use asched_graph::BlockId;

    #[test]
    fn all_baselines_run_and_cover_all_nodes() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        let c = g.add_simple("c", BlockId(1));
        g.add_dep(a, b, 1);
        g.add_dep(b, c, 2);
        let m = MachineModel::single_unit(2);
        for base in all_baselines() {
            let orders = (base.run)(&g, &m).unwrap();
            let total: usize = orders.iter().map(|o| o.len()).sum();
            assert_eq!(total, g.len(), "{} must cover all nodes", base.name);
            // Each order only contains its own block's nodes.
            for (bi, order) in orders.iter().enumerate() {
                for &id in order {
                    assert_eq!(g.node(id).block.index(), bi, "{}", base.name);
                }
            }
        }
        assert_eq!(all_baselines().len(), 6);
    }

    #[test]
    fn emitted_orders_respect_dependences() {
        let mut g = DepGraph::new();
        let n: Vec<_> = (0..6)
            .map(|i| g.add_simple(format!("n{i}"), BlockId(0)))
            .collect();
        g.add_dep(n[0], n[2], 1);
        g.add_dep(n[1], n[2], 0);
        g.add_dep(n[2], n[5], 2);
        g.add_dep(n[3], n[4], 1);
        let m = MachineModel::single_unit(2);
        for base in all_baselines() {
            let orders = (base.run)(&g, &m).unwrap();
            let pos: std::collections::HashMap<_, _> =
                orders[0].iter().enumerate().map(|(i, &x)| (x, i)).collect();
            for e in g.edges() {
                assert!(
                    pos[&e.src] < pos[&e.dst],
                    "{}: {} must precede {}",
                    base.name,
                    e.src,
                    e.dst
                );
            }
        }
    }
}
