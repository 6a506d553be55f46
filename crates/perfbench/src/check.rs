//! The correctness gate. It trusts only the input graph, the window
//! simulator and the analytic lower bound — never the scheduler whose
//! output it checks.

use asched_graph::{makespan_lower_bound, DepGraph, MachineModel, NodeId, SchedCtx, SchedOpts};
use asched_sim::{simulate, InstStream, IssuePolicy};

/// Check one emitted schedule: `block_orders` (one order per block, in
/// trace order) with its reported `makespan`. Returns the makespan
/// lower bound on success.
///
/// - each block order is a permutation of its block;
/// - no consumer precedes its producer inside a block, and no
///   dependence points backwards across blocks;
/// - re-simulating the emitted code takes exactly `makespan` cycles;
/// - `makespan` is at least `makespan_lower_bound`.
pub fn check_schedule(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    makespan: u64,
    block_orders: &[Vec<NodeId>],
) -> Result<u64, String> {
    let blocks = g.blocks();
    if block_orders.len() != blocks.len() {
        return Err(format!(
            "{} block orders for {} blocks",
            block_orders.len(),
            blocks.len()
        ));
    }
    // (block index, position in block) per node.
    let mut pos = vec![None; g.len()];
    for (bi, (&blk, order)) in blocks.iter().zip(block_orders).enumerate() {
        let members = g.block_nodes(blk);
        if order.len() != members.len() {
            return Err(format!("block {bi}: order is not a permutation"));
        }
        for (i, &id) in order.iter().enumerate() {
            if id.index() >= g.len() || !members.contains(id) || pos[id.index()].is_some() {
                return Err(format!("block {bi}: order is not a permutation"));
            }
            pos[id.index()] = Some((bi, i));
        }
    }
    for id in g.node_ids() {
        for e in g.out_edges_li(id) {
            if pos[e.src.index()] > pos[e.dst.index()] {
                return Err(format!(
                    "consumer {} issued before producer {}",
                    e.dst, e.src
                ));
            }
        }
    }
    let stream = InstStream::from_blocks(block_orders);
    let sim = simulate(
        ctx,
        g,
        machine,
        &stream,
        IssuePolicy::Strict,
        &SchedOpts::default(),
    );
    if sim.completion != makespan {
        return Err(format!(
            "reported makespan {makespan}, re-simulated {}",
            sim.completion
        ));
    }
    let bound =
        makespan_lower_bound(ctx, g, &g.all_nodes(), machine).map_err(|e| format!("{e:?}"))?;
    if makespan < bound {
        return Err(format!("makespan {makespan} below lower bound {bound}"));
    }
    Ok(bound)
}

/// Σ makespan ÷ Σ lower bound over a set of checked schedules.
#[derive(Default, Clone, Copy, PartialEq, Debug)]
pub struct Quality {
    pub makespan: u64,
    pub bound: u64,
    pub traces: u64,
}

impl Quality {
    pub fn add(&mut self, makespan: u64, bound: u64) {
        self.makespan += makespan;
        self.bound += bound;
        self.traces += 1;
    }

    pub fn cycles_over_bound(&self) -> f64 {
        crate::stats::ratio(self.makespan as f64, self.bound as f64)
    }
}
