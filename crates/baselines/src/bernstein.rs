//! A Bernstein–Gertner-style labelling (TOPLAS 1989).
//!
//! Bernstein & Gertner generalized the Coffman–Graham approach to a
//! single pipelined processor with latencies of 0 and 1: the label
//! comparison must account for *when* a successor's constraint bites.
//! We realize that idea by comparing successors by the pair
//! `(label, latency)` — a successor reached through a latency-1 edge is
//! more urgent than the same successor through a latency-0 edge — and
//! otherwise following the Coffman–Graham lexicographic discipline.
//! Bernstein–Gertner's full algorithm is optimal for 0/1 latencies on
//! one pipeline; this baseline reimplements its labelling *idea* and is
//! near-optimal there (within one cycle on thousands of random
//! instances — see the crate's property tests), which is what a
//! comparison baseline needs.

use crate::simple::{greedy, per_block};
use asched_graph::{CycleError, DepGraph, MachineModel, NodeId, NodeSet};

/// Labels (higher = schedule earlier), in the Bernstein–Gertner spirit.
fn labels(g: &DepGraph, mask: &NodeSet) -> Result<Vec<u64>, CycleError> {
    asched_graph::topo_order(g, mask)?;
    let n = mask.len();
    let mut label = vec![0u64; g.len()];
    let mut labelled = vec![false; g.len()];
    for next in 1..=n as u64 {
        let mut best: Option<(Vec<u64>, NodeId)> = None;
        for x in mask.iter() {
            if labelled[x.index()] {
                continue;
            }
            let succs = g.succs_in(x, mask);
            if succs.iter().any(|(s, _)| !labelled[s.index()]) {
                continue;
            }
            // Urgency-adjusted successor keys: latency-1 edges make the
            // successor effectively "one label more urgent".
            let mut ls: Vec<u64> = succs
                .iter()
                .map(|&(s, lat)| 2 * label[s.index()] + lat.min(1) as u64)
                .collect();
            ls.sort_unstable_by(|a, b| b.cmp(a));
            let better = match &best {
                None => true,
                Some((bl, bn)) => ls < *bl || (ls == *bl && g.stable_key(x) < g.stable_key(*bn)),
            };
            if better {
                best = Some((ls, x));
            }
        }
        let (_, x) = best.expect("acyclic graph always has a candidate");
        label[x.index()] = next;
        labelled[x.index()] = true;
    }
    Ok(label)
}

/// Schedule each block by the Bernstein–Gertner-style priority.
pub fn bernstein_gertner(
    g: &DepGraph,
    machine: &MachineModel,
) -> Result<Vec<Vec<NodeId>>, CycleError> {
    per_block(g, machine, |g, mask, machine| {
        let label = labels(g, mask)?;
        let mut prio: Vec<NodeId> = mask.iter().collect();
        prio.sort_by(|&a, &b| {
            label[b.index()]
                .cmp(&label[a.index()])
                .then_with(|| g.stable_key(a).cmp(&g.stable_key(b)))
        });
        Ok(greedy(g, mask, machine, &prio).order())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use asched_exact::{optimal_makespan, ExactConfig};
    use asched_graph::{BlockId, SchedCtx, SchedOpts};

    fn m1() -> MachineModel {
        MachineModel::single_unit(1)
    }

    #[test]
    fn latency_urgency_orders_producers_first() {
        // p feeds c via latency 1; q feeds c via latency 0. p should be
        // scheduled before q so the latency is hidden.
        let mut g = DepGraph::new();
        let q = g.add_simple("q", BlockId(0));
        let p = g.add_simple("p", BlockId(0));
        let c = g.add_simple("c", BlockId(0));
        g.add_dep(p, c, 1);
        g.add_dep(q, c, 0);
        let orders = bernstein_gertner(&g, &m1()).unwrap();
        let pos = |n| orders[0].iter().position(|&x| x == n).unwrap();
        assert!(pos(p) < pos(q), "latency-1 producer must go first");
        // Resulting schedule: p q c with no idle cycle = makespan 3.
        let s = crate::simple::greedy(&g, &g.all_nodes(), &m1(), &orders[0]);
        assert_eq!(s.makespan(), 3);
    }

    #[test]
    fn matches_optimum_on_small_01_instances() {
        // A handful of fixed 0/1-latency DAGs: BG should be optimal.
        let cases: Vec<fn() -> DepGraph> = vec![
            || {
                let mut g = DepGraph::new();
                let a = g.add_simple("a", BlockId(0));
                let b = g.add_simple("b", BlockId(0));
                let c = g.add_simple("c", BlockId(0));
                let d = g.add_simple("d", BlockId(0));
                g.add_dep(a, c, 1);
                g.add_dep(b, c, 0);
                g.add_dep(c, d, 1);
                g
            },
            || {
                let mut g = DepGraph::new();
                let s1 = g.add_simple("s1", BlockId(0));
                let s2 = g.add_simple("s2", BlockId(0));
                let m = g.add_simple("m", BlockId(0));
                let t = g.add_simple("t", BlockId(0));
                g.add_dep(s1, m, 1);
                g.add_dep(s2, m, 1);
                g.add_dep(m, t, 0);
                g
            },
        ];
        for mk in cases {
            let g = mk();
            let orders = bernstein_gertner(&g, &m1()).unwrap();
            let s = crate::simple::greedy(&g, &g.all_nodes(), &m1(), &orders[0]);
            let opt = optimal_makespan(
                &mut SchedCtx::new(),
                &g,
                &g.all_nodes(),
                &m1(),
                &ExactConfig::default(),
                &SchedOpts::default(),
            )
            .unwrap();
            assert_eq!(s.makespan(), opt, "BG should match optimum");
        }
    }
}
