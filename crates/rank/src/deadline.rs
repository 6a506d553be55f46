//! Deadline vectors.
//!
//! In the paper, every scheduling decision — protecting `old` instructions
//! during `merge`, delaying idle slots, pinning loop-carried constraints —
//! is expressed by assigning *completion deadlines* to nodes and
//! re-running the Rank Algorithm. This module provides the deadline
//! container plus the "artificially large deadline" convention of Section
//! 2.1 (`D`, chosen large enough to introduce no constraint).

use asched_graph::{DepGraph, NodeId, NodeSet};

/// Per-node completion deadlines (indexed by `NodeId::index()`).
///
/// Deadlines are `i64`: they are decremented during idle-slot processing
/// and re-based during `chop`, and may transiently become small; a
/// deadline below a node's execution time makes the instance infeasible.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Deadlines {
    d: Vec<i64>,
}

impl Deadlines {
    /// Deadlines that constrain nothing: every node of `mask` gets the
    /// *horizon* `D = total work + total latency + 1`, which exceeds any
    /// schedule the greedy scheduler can produce (it never idles longer
    /// than the largest latency in a row).
    pub fn unbounded(g: &DepGraph, mask: &NodeSet) -> Self {
        let total_work = g.total_work(mask) as i64;
        let total_lat: i64 = mask
            .iter()
            .flat_map(|id| g.out_edges_li(id))
            .filter(|e| mask.contains(e.dst))
            .map(|e| e.latency as i64)
            .sum();
        let horizon = total_work + total_lat + 1;
        let mut d = vec![horizon; g.len()];
        for (i, v) in d.iter_mut().enumerate() {
            if !mask.contains(NodeId(i as u32)) {
                *v = i64::MAX;
            }
        }
        Deadlines { d }
    }

    /// Uniform deadline `val` for every node of `mask`.
    pub fn uniform(g: &DepGraph, mask: &NodeSet, val: i64) -> Self {
        let mut d = vec![i64::MAX; g.len()];
        for id in mask.iter() {
            d[id.index()] = val;
        }
        Deadlines { d }
    }

    /// Deadline of `id`.
    #[inline]
    pub fn get(&self, id: NodeId) -> i64 {
        self.d[id.index()]
    }

    /// Set the deadline of `id`.
    #[inline]
    pub fn set(&mut self, id: NodeId, val: i64) {
        self.d[id.index()] = val;
    }

    /// Lower the deadline of `id` to `val` if `val` is tighter.
    #[inline]
    pub fn tighten(&mut self, id: NodeId, val: i64) {
        let slot = &mut self.d[id.index()];
        *slot = (*slot).min(val);
    }

    /// Set every node of `mask` to `val` (e.g. "all `new` nodes get
    /// deadline `T`" in `merge`).
    pub fn set_all(&mut self, mask: &NodeSet, val: i64) {
        for id in mask.iter() {
            self.d[id.index()] = val;
        }
    }

    /// Add `delta` to every node of `mask` (used by `merge` when deadlines
    /// must be uniformly relaxed, and by `chop` with a negative delta when
    /// re-basing a suffix to time zero).
    pub fn shift_all(&mut self, mask: &NodeSet, delta: i64) {
        for id in mask.iter() {
            let slot = &mut self.d[id.index()];
            if *slot != i64::MAX {
                *slot += delta;
            }
        }
    }

    /// View as a slice for [`asched_graph::validate::validate_schedule`].
    #[inline]
    pub fn as_slice(&self) -> &[i64] {
        &self.d
    }

    /// Snapshot the deadlines of `mask`'s nodes into `buf` (a reusable
    /// scratch buffer, one entry per member in id order) without
    /// allocating once `buf` has capacity.
    ///
    /// The other nodes are *not* snapshotted: the idle-slot loops that
    /// use this only edit values of mask nodes via [`set`](Self::set) /
    /// [`tighten`](Self::tighten) between a save and its matching
    /// [`restore_from`](Self::restore_from), so the mask's entries
    /// capture the whole mutable state.
    #[inline]
    pub fn save_into(&self, mask: &NodeSet, buf: &mut Vec<i64>) {
        buf.clear();
        buf.extend(mask.iter().map(|id| self.d[id.index()]));
    }

    /// Restore the deadlines of `mask`'s nodes previously saved with
    /// [`save_into`](Self::save_into) on the same mask.
    #[inline]
    pub fn restore_from(&mut self, mask: &NodeSet, buf: &[i64]) {
        debug_assert_eq!(buf.len(), mask.len());
        for (id, &v) in mask.iter().zip(buf) {
            self.d[id.index()] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asched_graph::BlockId;

    fn graph() -> DepGraph {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 2);
        g
    }

    #[test]
    fn unbounded_exceeds_any_schedule() {
        let g = graph();
        let d = Deadlines::unbounded(&g, &g.all_nodes());
        // total work 2 + total latency 2 + 1 = 5
        assert_eq!(d.get(NodeId(0)), 5);
    }

    #[test]
    fn unbounded_ignores_unmasked_edges() {
        let g = graph();
        let mut mask = NodeSet::new(g.len());
        mask.insert(NodeId(0));
        let d = Deadlines::unbounded(&g, &mask);
        assert_eq!(d.get(NodeId(0)), 2); // work 1 + latency 0 + 1
        assert_eq!(d.get(NodeId(1)), i64::MAX);
    }

    #[test]
    fn tighten_only_lowers() {
        let g = graph();
        let mut d = Deadlines::uniform(&g, &g.all_nodes(), 10);
        d.tighten(NodeId(0), 12);
        assert_eq!(d.get(NodeId(0)), 10);
        d.tighten(NodeId(0), 3);
        assert_eq!(d.get(NodeId(0)), 3);
    }

    #[test]
    fn set_all_and_shift_all() {
        let g = graph();
        let mut d = Deadlines::uniform(&g, &g.all_nodes(), 10);
        let mask = g.all_nodes();
        d.set_all(&mask, 7);
        assert_eq!(d.get(NodeId(1)), 7);
        d.shift_all(&mask, -3);
        assert_eq!(d.get(NodeId(0)), 4);
        d.shift_all(&mask, 5);
        assert_eq!(d.get(NodeId(0)), 9);
    }

    #[test]
    fn save_and_restore_round_trip() {
        let g = graph();
        let mut d = Deadlines::uniform(&g, &g.all_nodes(), 10);
        let mut buf = Vec::new();
        d.save_into(&g.all_nodes(), &mut buf);
        d.set(NodeId(0), 3);
        d.tighten(NodeId(1), 1);
        assert_eq!(d.get(NodeId(0)), 3);
        d.restore_from(&g.all_nodes(), &buf);
        assert_eq!(d.get(NodeId(0)), 10);
        assert_eq!(d.get(NodeId(1)), 10);
        // A snapshot holds the mask's entries only.
        let mut mask = NodeSet::new(g.len());
        mask.insert(NodeId(1));
        d.save_into(&mask, &mut buf);
        assert_eq!(buf, [10]);
        d.set(NodeId(1), 2);
        d.restore_from(&mask, &buf);
        assert_eq!(d.get(NodeId(1)), 10);
    }

    #[test]
    fn shift_all_skips_infinite() {
        let g = graph();
        let mut mask = NodeSet::new(g.len());
        mask.insert(NodeId(0));
        let mut d = Deadlines::uniform(&g, &mask, 10);
        d.shift_all(&g.all_nodes(), 1);
        assert_eq!(d.get(NodeId(1)), i64::MAX);
        assert_eq!(d.get(NodeId(0)), 11);
    }
}
