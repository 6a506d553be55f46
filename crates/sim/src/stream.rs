//! Dynamic instruction streams: the order in which emitted code enters
//! the lookahead window. A trace passes its blocks once
//! ([`InstStream::from_blocks`]); a loop passes its body's blocks once
//! per iteration ([`InstStream::loop_iterations`]), each instance tagged
//! with its iteration so loop-carried edges find their producers.

use asched_graph::NodeId;

/// One dynamic instance of an instruction: which static node, and in
/// which loop iteration (0 for straight-line code).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct StreamInst {
    /// The static instruction.
    pub node: NodeId,
    /// Iteration instance (paper notation `BBj[k]`).
    pub iter: u32,
}

/// A dynamic instruction stream: the exact order in which instructions
/// enter the lookahead window.
///
/// The compiler controls this order *within* each basic block; the
/// hardware window then overlaps execution across block (and iteration)
/// boundaries.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct InstStream {
    items: Vec<StreamInst>,
}

impl InstStream {
    /// Stream for a single pass over `order` (iteration 0).
    pub fn from_order(order: &[NodeId]) -> Self {
        InstStream {
            items: order
                .iter()
                .map(|&node| StreamInst { node, iter: 0 })
                .collect(),
        }
    }

    /// Stream for a trace: per-block emitted orders concatenated
    /// (iteration 0). This is footnote 7 of the paper: the emitted code
    /// keeps blocks contiguous; overlap happens only inside the window.
    pub fn from_blocks(block_orders: &[Vec<NodeId>]) -> Self {
        let mut items = Vec::new();
        for order in block_orders {
            items.extend(order.iter().map(|&node| StreamInst { node, iter: 0 }));
        }
        InstStream { items }
    }

    /// Stream for `n` iterations of a loop whose body is emitted as
    /// `block_orders` (paper Section 5: `BB1[1], …, BBm[1], BB1[2], …`);
    /// a single-block loop passes one order.
    pub fn loop_iterations<B: AsRef<[NodeId]>>(block_orders: &[B], n: u32) -> Self {
        let body: usize = block_orders.iter().map(|o| o.as_ref().len()).sum();
        let mut items = Vec::with_capacity(body * n as usize);
        for iter in 0..n {
            for order in block_orders {
                items.extend(order.as_ref().iter().map(|&node| StreamInst { node, iter }));
            }
        }
        InstStream { items }
    }

    /// The instances, in stream order.
    #[inline]
    pub fn items(&self) -> &[StreamInst] {
        &self.items
    }

    /// Number of dynamic instances.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if the stream is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Append another stream (used by the branch-misprediction model to
    /// splice off-trace continuations).
    pub fn extend(&mut self, other: &InstStream) {
        self.items.extend_from_slice(&other.items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn from_order_single_iter() {
        let s = InstStream::from_order(&ids(&[2, 0, 1]));
        assert_eq!(s.len(), 3);
        assert_eq!(
            s.items()[0],
            StreamInst {
                node: NodeId(2),
                iter: 0
            }
        );
        assert!(s.items().iter().all(|i| i.iter == 0));
    }

    #[test]
    fn from_blocks_concatenates() {
        let s = InstStream::from_blocks(&[ids(&[0, 1]), ids(&[2])]);
        let nodes: Vec<u32> = s.items().iter().map(|i| i.node.0).collect();
        assert_eq!(nodes, vec![0, 1, 2]);
    }

    #[test]
    fn loop_iterations_tag_iters() {
        let s = InstStream::loop_iterations(&[ids(&[0, 1])], 3);
        assert_eq!(s.len(), 6);
        assert_eq!(
            s.items()[2],
            StreamInst {
                node: NodeId(0),
                iter: 1
            }
        );
        assert_eq!(
            s.items()[5],
            StreamInst {
                node: NodeId(1),
                iter: 2
            }
        );
    }

    #[test]
    fn trace_loop_interleaves_blocks_within_iterations() {
        let s = InstStream::loop_iterations(&[ids(&[0]), ids(&[1])], 2);
        let got: Vec<(u32, u32)> = s.items().iter().map(|i| (i.node.0, i.iter)).collect();
        assert_eq!(got, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn extend_splices() {
        let mut a = InstStream::from_order(&ids(&[0]));
        let b = InstStream::from_order(&ids(&[1]));
        a.extend(&b);
        assert_eq!(a.len(), 2);
    }
}
