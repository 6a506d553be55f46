//! Reachability over the loop-independent subgraph.
//!
//! The Rank Algorithm needs, for each node `x`, the set of *descendants*
//! of `x` (paper Section 2.1: "x must complete sufficiently early to allow
//! all of its descendants to complete by their ranks"). We compute all
//! descendant sets with one reverse-topological sweep of bitset unions.

use crate::graph::DepGraph;
use crate::set::NodeSet;
use crate::topo::{topo_order, CycleError};

/// For each node in `mask`, the set of its strict descendants within
/// `mask` (transitive successors over distance-0 edges).
///
/// The returned vector is indexed by `NodeId::index()`; entries for nodes
/// outside `mask` are empty sets. This is the plain reference form; the
/// scheduling hot paths read the mask-local rows of the cached
/// [`crate::Analysis`] instead.
pub fn descendants(g: &DepGraph, mask: &NodeSet) -> Result<Vec<NodeSet>, CycleError> {
    let order = topo_order(g, mask)?;
    let mut desc = vec![NodeSet::new(g.len()); g.len()];
    for &id in order.iter().rev() {
        let mut acc = NodeSet::new(g.len());
        for e in g.out_edges_li(id) {
            if mask.contains(e.dst) {
                acc.insert(e.dst);
                acc.union_with(&desc[e.dst.index()]);
            }
        }
        desc[id.index()] = acc;
    }
    Ok(desc)
}

/// For each node in `mask`, the set of its strict ancestors within `mask`
/// (transitive predecessors over distance-0 edges).
///
/// Not used by the Rank Algorithm itself (which needs descendants only);
/// kept as the public transpose for downstream analyses — e.g. live-range
/// or dominance-style filters over a trace — and pinned against
/// `descendants` by the transpose property test.
pub fn ancestors(g: &DepGraph, mask: &NodeSet) -> Result<Vec<NodeSet>, CycleError> {
    let order = topo_order(g, mask)?;
    let mut anc = vec![NodeSet::new(g.len()); g.len()];
    for &id in order.iter() {
        let mut acc = NodeSet::new(g.len());
        for e in g.in_edges_li(id) {
            if mask.contains(e.src) {
                acc.insert(e.src);
                acc.union_with(&anc[e.src.index()]);
            }
        }
        anc[id.index()] = acc;
    }
    Ok(anc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::BlockId;
    use crate::NodeId;

    fn fig1_like() -> (DepGraph, [NodeId; 6]) {
        // x -> {w,b,r}; e -> {w,b}; w -> a; b -> a (all latency 1).
        let mut g = DepGraph::new();
        let x = g.add_simple("x", BlockId(0));
        let e = g.add_simple("e", BlockId(0));
        let w = g.add_simple("w", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        let a = g.add_simple("a", BlockId(0));
        let r = g.add_simple("r", BlockId(0));
        g.add_dep(x, w, 1);
        g.add_dep(x, b, 1);
        g.add_dep(x, r, 1);
        g.add_dep(e, w, 1);
        g.add_dep(e, b, 1);
        g.add_dep(w, a, 1);
        g.add_dep(b, a, 1);
        (g, [x, e, w, b, a, r])
    }

    #[test]
    fn descendants_of_fig1() {
        let (g, [x, e, w, b, a, r]) = fig1_like();
        let d = descendants(&g, &g.all_nodes()).unwrap();
        let dx: Vec<NodeId> = d[x.index()].iter().collect();
        assert_eq!(dx, vec![w, b, a, r]);
        let de: Vec<NodeId> = d[e.index()].iter().collect();
        assert_eq!(de, vec![w, b, a]);
        assert_eq!(d[w.index()].iter().collect::<Vec<_>>(), vec![a]);
        assert!(d[a.index()].is_empty());
        assert!(d[r.index()].is_empty());
    }

    #[test]
    fn ancestors_mirror_descendants() {
        let (g, nodes) = fig1_like();
        let mask = g.all_nodes();
        let d = descendants(&g, &mask).unwrap();
        let a = ancestors(&g, &mask).unwrap();
        for &u in &nodes {
            for &v in &nodes {
                assert_eq!(
                    d[u.index()].contains(v),
                    a[v.index()].contains(u),
                    "descendant/ancestor mismatch for {u} {v}"
                );
            }
        }
    }

    #[test]
    fn mask_restricts_reach() {
        let (g, [x, _e, w, _b, a, _r]) = fig1_like();
        let mut mask = NodeSet::new(g.len());
        mask.insert(x);
        mask.insert(w);
        mask.insert(a);
        let d = descendants(&g, &mask).unwrap();
        assert_eq!(d[x.index()].iter().collect::<Vec<_>>(), vec![w, a]);
    }
}
