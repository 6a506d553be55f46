//! Dense bitsets over graph nodes.
//!
//! Every algorithm in the workspace operates on a *subset* of a dependence
//! graph (e.g. `old ∪ new` in the paper's `merge` procedure), selected by a
//! [`NodeSet`]. Using subsets of one shared graph avoids re-indexing nodes
//! when blocks are merged, chopped and re-scheduled.

use crate::node::NodeId;
use std::fmt;

/// A set of [`NodeId`]s backed by a dense bitset.
#[derive(PartialEq, Eq, Hash, Default)]
pub struct NodeSet {
    words: Vec<u64>,
    /// Number of node ids the set can address (capacity, not cardinality).
    universe: usize,
}

impl NodeSet {
    /// Empty set able to hold ids `0..universe`.
    pub fn new(universe: usize) -> Self {
        NodeSet {
            words: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// Set containing every id in `0..universe`.
    pub fn full(universe: usize) -> Self {
        let mut s = NodeSet::new(universe);
        for i in 0..universe {
            s.insert(NodeId(i as u32));
        }
        s
    }

    /// Build a set from an iterator of ids.
    pub fn from_iter_with_universe(
        universe: usize,
        iter: impl IntoIterator<Item = NodeId>,
    ) -> Self {
        let mut s = NodeSet::new(universe);
        for id in iter {
            s.insert(id);
        }
        s
    }

    /// The number of ids this set can address.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The bitset words: id `i` is bit `i % 64` of word `i / 64`.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Insert a node; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, id: NodeId) -> bool {
        let (w, b) = (id.index() / 64, id.index() % 64);
        assert!(id.index() < self.universe, "node {id} outside set universe");
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Remove a node; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, id: NodeId) -> bool {
        if id.index() >= self.universe {
            return false;
        }
        let (w, b) = (id.index() / 64, id.index() % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        if id.index() >= self.universe {
            return false;
        }
        let (w, b) = (id.index() / 64, id.index() % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// In-place union.
    pub fn union_with(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection.
    pub fn intersect_with(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self \ other`).
    pub fn subtract(&mut self, other: &NodeSet) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// New set: union of the two operands.
    pub fn union(&self, other: &NodeSet) -> NodeSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// True if the two sets share no members. Universes may differ:
    /// words beyond the shorter set are treated as empty.
    pub fn is_disjoint(&self, other: &NodeSet) -> bool {
        // A shorter word vector means everything beyond it is absent, so
        // zip (which stops at the shorter) is exact for intersection.
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// True if every member of `self` is in `other`. Universes may
    /// differ: members of `self` beyond `other`'s universe make this
    /// false.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        for (i, &a) in self.words.iter().enumerate() {
            let b = other.words.get(i).copied().unwrap_or(0);
            if a & !b != 0 {
                return false;
            }
        }
        true
    }

    /// Number of members with an id below `id`: the local id of a member
    /// when members are numbered `0..len` in increasing id order.
    pub fn count_below(&self, id: NodeId) -> usize {
        let (w, b) = (id.index() / 64, id.index() % 64);
        let whole: usize = self.words[..w.min(self.words.len())]
            .iter()
            .map(|x| x.count_ones() as usize)
            .sum();
        let part = self
            .words
            .get(w)
            .map_or(0, |x| (x & ((1u64 << b) - 1)).count_ones());
        whole + part as usize
    }

    /// Iterate members in increasing id order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        set_bits(&self.words).map(|i| NodeId(i as u32))
    }
}

/// The indices of the set bits of `words` in increasing order (bit `i`
/// is bit `i % 64` of word `i / 64`).
pub fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(wi, &w)| {
        let mut bits = w;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let b = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(wi * 64 + b)
            }
        })
    })
}

impl Clone for NodeSet {
    fn clone(&self) -> Self {
        NodeSet {
            words: self.words.clone(),
            universe: self.universe,
        }
    }

    /// Reuses `self`'s word buffer: no allocation when it is big enough.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.universe = source.universe;
    }
}

impl fmt::Debug for NodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for NodeSet {
    /// Builds a set whose universe is just big enough for the largest id.
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        let ids: Vec<NodeId> = iter.into_iter().collect();
        let universe = ids.iter().map(|id| id.index() + 1).max().unwrap_or(0);
        NodeSet::from_iter_with_universe(universe, ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = NodeSet::new(130);
        assert!(s.insert(NodeId(0)));
        assert!(s.insert(NodeId(129)));
        assert!(!s.insert(NodeId(0)));
        assert!(s.contains(NodeId(0)));
        assert!(s.contains(NodeId(129)));
        assert!(!s.contains(NodeId(64)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(NodeId(0)));
        assert!(!s.remove(NodeId(0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn count_below_numbers_members_in_id_order() {
        let s = NodeSet::from_iter_with_universe(200, ids(&[3, 64, 65, 130, 199]));
        for (local, id) in s.iter().enumerate() {
            assert_eq!(s.count_below(id), local);
        }
        assert_eq!(s.count_below(NodeId(0)), 0);
        assert_eq!(s.count_below(NodeId(100)), 3);
        assert_eq!(s.count_below(NodeId(500)), 5);
    }

    #[test]
    fn out_of_universe_contains_is_false() {
        let s = NodeSet::new(10);
        assert!(!s.contains(NodeId(1000)));
    }

    #[test]
    fn iteration_order() {
        let mut s = NodeSet::new(200);
        for i in [5u32, 64, 65, 199, 0] {
            s.insert(NodeId(i));
        }
        let got: Vec<NodeId> = s.iter().collect();
        assert_eq!(got, ids(&[0, 5, 64, 65, 199]));
    }

    #[test]
    fn set_algebra() {
        let a = NodeSet::from_iter_with_universe(100, ids(&[1, 2, 3, 64]));
        let b = NodeSet::from_iter_with_universe(100, ids(&[3, 4, 64, 99]));
        let u = a.union(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), ids(&[1, 2, 3, 4, 64, 99]));

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), ids(&[3, 64]));

        let mut d = a.clone();
        d.subtract(&b);
        assert_eq!(d.iter().collect::<Vec<_>>(), ids(&[1, 2]));

        assert!(i.is_subset(&a));
        assert!(i.is_subset(&b));
        assert!(!a.is_disjoint(&b));
        assert!(d.is_disjoint(&b));
    }

    #[test]
    fn full_and_empty() {
        let f = NodeSet::full(70);
        assert_eq!(f.len(), 70);
        assert!(!f.is_empty());
        let e = NodeSet::new(70);
        assert!(e.is_empty());
        assert!(e.is_subset(&f));
    }

    /// Regression (found in code review): predicates across different
    /// universes must not silently truncate.
    #[test]
    fn predicates_across_universes() {
        let big: NodeSet = [NodeId(100)].into_iter().collect(); // universe 101
        let small = NodeSet::new(64);
        assert!(!big.is_subset(&small), "n100 is not in the empty small set");
        assert!(big.is_disjoint(&small));
        let mut small2 = NodeSet::new(64);
        small2.insert(NodeId(10));
        let mut big2: NodeSet = [NodeId(10), NodeId(100)].into_iter().collect();
        assert!(small2.is_subset(&big2));
        assert!(!big2.is_subset(&small2));
        assert!(!big2.is_disjoint(&small2));
        big2.remove(NodeId(10));
        assert!(big2.is_disjoint(&small2));
    }

    #[test]
    fn from_iterator_universe() {
        let s: NodeSet = ids(&[7, 3]).into_iter().collect();
        assert_eq!(s.universe(), 8);
        assert!(s.contains(NodeId(3)));
        assert!(s.contains(NodeId(7)));
        assert_eq!(s.len(), 2);
    }
}
