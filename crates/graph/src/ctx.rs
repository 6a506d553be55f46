//! Reusable per-thread scheduling context: cached graph analyses plus
//! scratch buffers.
//!
//! The paper's deadline-manipulation loops (`Delay_Idle_Slots`, Fig. 4;
//! `merge`, Fig. 6) call the Rank Algorithm repeatedly on the *same*
//! `(graph, mask)` with only the deadlines changing. Recomputing the
//! topological order, the descendant bitsets and the successor lists on
//! every call — and allocating fresh working vectors each time — is pure
//! overhead. A [`SchedCtx`] owns both halves of the fix:
//!
//! * [`AnalysisCache`] — a small memo of derived analyses keyed by
//!   `(graph stamp, mask)`. The stamp ([`DepGraph::stamp`]) is refreshed
//!   on every graph mutation, so stale entries can never be returned;
//!   they simply stop matching and age out of the FIFO. Each
//!   [`Analysis`] is stored flat over the mask's *local ids*
//!   `0..|mask|`, so a miss costs O(|mask|²/64 + in-mask edges) however
//!   large the graph is, and once the cache is full a miss computes into
//!   the buffers of the entry it evicts: a warm miss allocates nothing.
//! * [`Scratch`] — the working vectors of the rank/list/idle/sim hot
//!   loops, resized (never shrunk) per call so that a warmed-up context
//!   runs those loops without touching the allocator.
//!
//! Threading rules: a `SchedCtx` is an ordinary owned value with no
//! interior mutability — one per thread, created where the work happens
//! (the engine keeps one per worker, surviving across tasks). It is a
//! pure caching layer: every algorithm must produce bit-identical output
//! whether it is handed a fresh context or one warmed by arbitrary prior
//! calls.

use crate::graph::DepGraph;
use crate::machine::{FuClass, UnitMasks};
use crate::node::NodeId;
use crate::set::NodeSet;
use crate::topo::CycleError;
use asched_obs::Recorder;
use std::collections::HashMap;

/// How the Rank Algorithm packs descendants backwards from their
/// deadlines on a multi-unit machine (see `asched-rank`).
///
/// `Whole` treats the descendant set as one backward scheduling problem
/// (the paper's formulation); `Piecewise` packs each descendant
/// independently against its own deadline — cheaper, looser ranks. The
/// default reproduces the paper.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BackwardMode {
    /// Backward-schedule the whole descendant set together (paper).
    #[default]
    Whole,
    /// Bound each descendant independently (faster approximation).
    Piecewise,
}

/// Options shared by every scheduling entry point: release times, the
/// backward-packing mode and the event recorder. Each algorithm reads
/// the fields that apply to it and ignores the rest.
///
/// The [`Default`] value is the paper's configuration: no release
/// constraints, [`BackwardMode::Whole`], events dropped.
#[derive(Clone, Copy)]
pub struct SchedOpts<'a> {
    /// Per-node earliest-issue times (indexed by `NodeId::index()`), or
    /// `None` for "everything available at cycle 0". For the simulator,
    /// the index is the *stream position* instead.
    pub release: Option<&'a [u64]>,
    /// Backward-packing mode for rank computation.
    pub backward: BackwardMode,
    /// Event sink; use [`asched_obs::NULL`] to drop events at zero cost.
    pub rec: &'a dyn Recorder,
}

impl Default for SchedOpts<'_> {
    fn default() -> Self {
        SchedOpts {
            release: None,
            backward: BackwardMode::Whole,
            rec: &asched_obs::NULL,
        }
    }
}

impl<'a> SchedOpts<'a> {
    /// This option set with per-node release times.
    pub fn with_release(self, release: &'a [u64]) -> Self {
        SchedOpts {
            release: Some(release),
            ..self
        }
    }

    /// This option set with a backward-packing mode.
    pub fn with_backward(self, backward: BackwardMode) -> Self {
        SchedOpts { backward, ..self }
    }

    /// This option set with an event recorder.
    pub fn with_recorder(self, rec: &'a dyn Recorder) -> Self {
        SchedOpts { rec, ..self }
    }
}

/// Derived analyses of one `(graph, mask)` pair, computed once and
/// shared by every rank run on that pair.
///
/// Stored flat over *local ids* `0..|mask|`, numbered in global-id order,
/// so its size and the cost of building it follow the mask, not the
/// graph. Per local id it holds what a Rank run reads: the execution
/// time, the FU class, the position of the node's [`DepGraph::stable_key`]
/// among the mask's (the tie-break of every list), the count of distinct
/// in-mask predecessors, the CSR successor list (max latency over
/// parallel edges, the same list as [`DepGraph::succs_in`]) and the
/// descendant row; plus the topological order. [`Analysis::nodes`] and
/// [`Analysis::local`] translate between local and global ids.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Stamp of the analysed graph.
    stamp: u64,
    /// The analysed mask.
    mask: NodeSet,
    /// Mask members in the words before each mask word: the local id of
    /// `x` is `before[w]` plus the members below `x` in word `w`.
    before: Vec<u32>,
    /// Mask members by local id (increasing global id).
    nodes: Vec<NodeId>,
    /// Execution time per local id.
    exec: Vec<u32>,
    /// Functional-unit class per local id.
    class: Vec<FuClass>,
    /// Stable-key position per local id: `key[i] < key[j]` iff node `i`'s
    /// stable key is below node `j`'s.
    key: Vec<u32>,
    /// The local id at each stable-key position (the inverse of `key`).
    by_key: Vec<u32>,
    /// Distinct in-mask loop-independent predecessors per local id.
    preds: Vec<u32>,
    /// Topological order of the masked subgraph (loop-independent
    /// edges), as local ids.
    order: Vec<u32>,
    /// Words per descendant row.
    row_words: usize,
    /// Strict-descendant rows: bit `j` of row `i` is set iff local `j`
    /// is a descendant of local `i`.
    desc_bits: Vec<u64>,
    /// Offsets of each local id's successors in `succ_list`, plus the end.
    succ_start: Vec<u32>,
    /// Deduplicated max-latency successors restricted to the mask, as
    /// `(local id, latency)`.
    succ_list: Vec<(u32, u32)>,
}

impl Analysis {
    /// Number of mask members.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for an empty mask.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Mask members by local id (increasing global id).
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Execution time per local id.
    #[inline]
    pub fn exec(&self) -> &[u32] {
        &self.exec
    }

    /// Functional-unit class per local id.
    #[inline]
    pub fn class(&self) -> &[FuClass] {
        &self.class
    }

    /// Stable-key position per local id.
    #[inline]
    pub fn key(&self) -> &[u32] {
        &self.key
    }

    /// The local id at each stable-key position.
    #[inline]
    pub fn by_key(&self) -> &[u32] {
        &self.by_key
    }

    /// Distinct in-mask loop-independent predecessors per local id.
    #[inline]
    pub fn preds(&self) -> &[u32] {
        &self.preds
    }

    /// Topological order of the masked subgraph, as local ids.
    #[inline]
    pub fn local_order(&self) -> &[u32] {
        &self.order
    }

    /// Successors of local id `i` within the mask as `(local id, max
    /// latency)`, in first-edge order.
    #[inline]
    pub fn local_succs(&self, i: usize) -> &[(u32, u32)] {
        &self.succ_list[self.succ_start[i] as usize..self.succ_start[i + 1] as usize]
    }

    /// The strict descendants of local id `i` as a bitset over local ids
    /// (bit `j % 64` of word `j / 64`; see [`crate::set_bits`]).
    #[inline]
    pub fn desc_row(&self, i: usize) -> &[u64] {
        &self.desc_bits[i * self.row_words..(i + 1) * self.row_words]
    }

    /// The local id of `x`, or `None` outside the mask.
    #[inline]
    pub fn local(&self, x: NodeId) -> Option<usize> {
        self.mask.contains(x).then(|| self.local_of_member(x))
    }

    /// The local id of mask member `x`.
    #[inline]
    fn local_of_member(&self, x: NodeId) -> usize {
        let (w, b) = (x.index() / 64, x.index() % 64);
        let below = self.mask.words()[w] & ((1u64 << b) - 1);
        self.before[w] as usize + below.count_ones() as usize
    }

    /// Recompute this analysis for `(g, mask)` in place, reusing every
    /// buffer. On a cycle the contents are unspecified.
    fn compute(
        &mut self,
        g: &DepGraph,
        mask: &NodeSet,
        kahn: &mut KahnScratch,
    ) -> Result<(), CycleError> {
        self.stamp = g.stamp();
        self.mask.clone_from(mask);
        self.before.clear();
        let mut members = 0u32;
        for &w in mask.words() {
            self.before.push(members);
            members += w.count_ones();
        }
        self.nodes.clear();
        self.nodes.extend(mask.iter());
        let m = self.nodes.len();
        self.exec.clear();
        self.exec.extend(self.nodes.iter().map(|&x| g.exec_time(x)));
        self.class.clear();
        self.class
            .extend(self.nodes.iter().map(|&x| g.node(x).class));
        // Stable keys are unique, so the unstable sort is deterministic
        // and allocation-free.
        self.by_key.clear();
        self.by_key.extend(0..m as u32);
        self.by_key
            .sort_unstable_by_key(|&i| g.stable_key(self.nodes[i as usize]));
        self.key.clear();
        self.key.resize(m, 0);
        for (p, &i) in self.by_key.iter().enumerate() {
            self.key[i as usize] = p as u32;
        }

        // Successor lists in first-edge order, parallel edges folded to
        // their max latency (as `DepGraph::succs_in`).
        self.succ_start.clear();
        self.succ_list.clear();
        self.preds.clear();
        self.preds.resize(m, 0);
        for i in 0..m {
            let row = self.succ_list.len();
            self.succ_start.push(row as u32);
            for e in g.out_edges_li(self.nodes[i]) {
                if !mask.contains(e.dst) {
                    continue;
                }
                let j = self.local_of_member(e.dst) as u32;
                match self.succ_list[row..].iter_mut().find(|(d, _)| *d == j) {
                    Some((_, lat)) => *lat = (*lat).max(e.latency),
                    None => {
                        self.succ_list.push((j, e.latency));
                        self.preds[j as usize] += 1;
                    }
                }
            }
        }
        self.succ_start.push(self.succ_list.len() as u32);

        // Kahn's algorithm with `topo_order`'s choices: the ready queue
        // starts sorted by stable key and each pop appends its newly
        // ready successors in stable-key order.
        let KahnScratch {
            indeg,
            queue,
            newly,
        } = kahn;
        indeg.clone_from(&self.preds);
        let key = &self.key;
        queue.clear();
        queue.extend((0..m as u32).filter(|&i| indeg[i as usize] == 0));
        queue.sort_unstable_by_key(|&i| key[i as usize]);
        let mut cursor = 0;
        while cursor < queue.len() {
            let i = queue[cursor] as usize;
            cursor += 1;
            newly.clear();
            for k in self.succ_start[i]..self.succ_start[i + 1] {
                let j = self.succ_list[k as usize].0;
                indeg[j as usize] -= 1;
                if indeg[j as usize] == 0 {
                    newly.push(j);
                }
            }
            newly.sort_unstable_by_key(|&j| key[j as usize]);
            queue.extend_from_slice(newly);
        }
        if queue.len() != m {
            let i = indeg
                .iter()
                .position(|&k| k > 0)
                .expect("cycle implies a node with nonzero in-degree");
            return Err(CycleError {
                witness: self.nodes[i],
            });
        }
        self.order.clone_from(queue);

        // Descendant rows by one reverse-topological sweep of row unions.
        let rw = m.div_ceil(64);
        self.row_words = rw;
        self.desc_bits.clear();
        self.desc_bits.resize(m * rw, 0);
        for &i in self.order.iter().rev() {
            let i = i as usize;
            for k in self.succ_start[i]..self.succ_start[i + 1] {
                let j = self.succ_list[k as usize].0 as usize;
                self.desc_bits[i * rw + j / 64] |= 1 << (j % 64);
                for w in 0..rw {
                    self.desc_bits[i * rw + w] |= self.desc_bits[j * rw + w];
                }
            }
        }
        Ok(())
    }
}

/// Working vectors of [`Analysis::compute`]'s topological sort, indexed
/// by local id.
#[derive(Debug, Default)]
struct KahnScratch {
    /// Unpopped in-mask predecessors per node.
    indeg: Vec<u32>,
    /// The ready queue; once the sort completes, the order itself.
    queue: Vec<u32>,
    /// Successors made ready by the current pop.
    newly: Vec<u32>,
}

/// Default number of `(graph, mask)` analyses kept per context. Plenty
/// for a lookahead pass (which touches `old`, `new` and `old ∪ new` per
/// block boundary) while bounding memory on candidate-enumeration loops
/// that probe many throwaway graphs.
pub const DEFAULT_CACHE_CAPACITY: usize = 16;

/// FIFO-bounded memo of [`Analysis`] results keyed by
/// `(`[`DepGraph::stamp`]`, mask)`.
///
/// Because a stamp is refreshed on every mutation, invalidation is
/// implicit: a mutated graph can never hit a stale entry. Lookups on the
/// hit path are allocation-free (a linear scan of at most
/// `capacity` entries comparing stamp and bitset words). A miss computes
/// into spare buffers; once the cache is full, eviction hands the oldest
/// entry's buffers to the next miss, so misses stop allocating once the
/// buffers have grown to the masks in use.
pub struct AnalysisCache {
    entries: Vec<Analysis>,
    capacity: usize,
    /// The buffers the next miss computes into.
    spare: Analysis,
    kahn: KahnScratch,
    hits: u64,
    misses: u64,
}

impl AnalysisCache {
    /// Empty cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// Empty cache holding at most `capacity` analyses (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        AnalysisCache {
            entries: Vec::new(),
            capacity: capacity.max(1),
            spare: Analysis::default(),
            kahn: KahnScratch::default(),
            hits: 0,
            misses: 0,
        }
    }

    /// The analysis of `(g, mask)`: cached if present, computed (and
    /// cached) otherwise. Fails only if the masked subgraph is cyclic;
    /// failures are not cached (they are cheap to rediscover and a
    /// cyclic mask is always an error path).
    pub fn analysis(&mut self, g: &DepGraph, mask: &NodeSet) -> Result<&Analysis, CycleError> {
        if let Some(i) = self
            .entries
            .iter()
            .position(|e| e.stamp == g.stamp() && &e.mask == mask)
        {
            self.hits += 1;
            return Ok(&self.entries[i]);
        }
        self.misses += 1;
        self.spare.compute(g, mask, &mut self.kahn)?;
        let fresh = std::mem::take(&mut self.spare);
        if self.entries.len() >= self.capacity {
            self.spare = self.entries.remove(0); // FIFO: oldest first
        }
        self.entries.push(fresh);
        Ok(self.entries.last().expect("just pushed"))
    }

    /// Number of cache hits served so far.
    #[inline]
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of cache misses (fresh computations) so far.
    #[inline]
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of analyses currently held.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing is cached.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop every cached analysis (counters are kept).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

impl Default for AnalysisCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Mask-sized working vectors of one rank computation, indexed by
/// local id (see [`Analysis`]).
#[derive(Debug, Default)]
pub struct RankScratch {
    /// The run's deadlines, read once from the caller's deadline vector.
    pub deadline: Vec<i64>,
    /// Ranks; final in reverse topological order.
    pub rank: Vec<i64>,
    /// Backward start times, reused per node.
    pub back_start: Vec<i64>,
    /// Per-descendant tie-break key (`u32::MAX` = not a successor).
    pub urgency: Vec<u32>,
    /// Packed integer sort keys (descendant sorts and priority lists).
    pub keys: Vec<u128>,
    /// Per-unit earliest-completion bound in backward packing.
    pub unit_earliest: Vec<i64>,
}

/// Scratch state of the greedy list scheduler. `order`, `pos` and
/// `release` are indexed by local id (see [`Analysis`]), the rest by
/// *position* in the priority list.
#[derive(Debug, Default)]
pub struct ListScratch {
    /// The mask's local ids in priority order; positions in it index the
    /// pass's state. Callers load it before a pass.
    pub order: Vec<u32>,
    /// Position of each local id in `order`.
    pub pos: Vec<u32>,
    /// Release time per local id. Callers load it before a pass.
    pub release: Vec<u64>,
    /// Per-class unit bitmasks of the machine.
    pub units: UnitMasks,
    /// Bitmask of the units free at the current cycle.
    pub free: Vec<u64>,
    /// Next free cycle per functional unit.
    pub unit_free: Vec<u64>,
    /// Unscheduled in-mask predecessors per position.
    pub preds_left: Vec<u32>,
    /// Earliest start per position (final once `preds_left` is 0).
    pub est: Vec<u64>,
    /// Bitset of positions ready to issue at the current cycle.
    pub ready: Vec<u64>,
    /// Positions with no predecessor left whose earliest start is ahead.
    pub pending: Vec<u32>,
    /// Start cycle per position: the schedule under construction.
    pub start: Vec<u64>,
    /// Functional unit per position.
    pub unit: Vec<u32>,
}

/// Scratch state of the lookahead-window simulator.
#[derive(Debug, Default)]
pub struct SimScratch {
    /// Finish cycle of every completed dynamic instance, keyed by
    /// `(node id, iteration)`.
    pub occ: HashMap<(u32, u32), usize>,
    /// Producer list per stream position.
    pub producers: Vec<Vec<(usize, u32)>>,
    /// Issued flags per stream position.
    pub issued: Vec<bool>,
    /// Next free cycle per functional unit.
    pub unit_free: Vec<u64>,
}

/// Reusable working memory for the scheduling hot loops.
///
/// Buffers are cleared and resized at the start of each use; capacity is
/// retained, so after one warm-up call on a given problem size the loops
/// stop allocating. All fields are plain buffers with no semantic state
/// between calls — any entry point may clobber any of them.
#[derive(Debug, Default)]
pub struct Scratch {
    /// `compute_ranks`' output: ranks by `NodeId::index()`, `i64::MAX`
    /// outside the mask.
    pub rank: Vec<i64>,
    /// Mask-sized rank-computation scratch.
    pub ranks: RankScratch,
    /// List-scheduler scratch; Rank builds its priority lists in
    /// `list.order`.
    pub list: ListScratch,
    /// Earliest start per local id (idle-slot refutation).
    pub asap: Vec<u64>,
    /// Per-block release-time buffer (trace scheduling).
    pub release: Vec<u64>,
    /// The mask's deadlines, saved for restore in idle-slot moves.
    pub deadline_save: Vec<i64>,
    /// Simulator scratch.
    pub sim: SimScratch,
}

/// A per-thread scheduling context: the analysis cache plus the scratch
/// buffers, threaded as `&mut SchedCtx` through every algorithm layer
/// (rank → core → sim → engine).
///
/// The two halves are separate public fields so callers can split the
/// borrow: hold `&Analysis` out of [`SchedCtx::cache`] while mutating
/// [`SchedCtx::scratch`].
///
/// Contexts are cheap to create (empty vectors) — the value is in
/// *reuse*: keep one alive across calls (per worker thread, per trace)
/// and the hot loops hit the cache and stop allocating.
#[derive(Default)]
pub struct SchedCtx {
    /// Memoized `(graph, mask)` analyses.
    pub cache: AnalysisCache,
    /// Reusable working vectors.
    pub scratch: Scratch,
}

impl SchedCtx {
    /// A fresh, empty context.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::BlockId;
    use crate::set::set_bits;

    /// The analysis' topological order in global ids.
    fn order(a: &Analysis) -> Vec<NodeId> {
        a.local_order()
            .iter()
            .map(|&i| a.nodes()[i as usize])
            .collect()
    }

    /// The strict descendants of `x` in global ids (none outside the mask).
    fn desc(a: &Analysis, x: NodeId) -> Vec<NodeId> {
        a.local(x).map_or(Vec::new(), |i| {
            set_bits(a.desc_row(i)).map(|j| a.nodes()[j]).collect()
        })
    }

    /// The successors of `x` in global ids (none outside the mask).
    fn succs(a: &Analysis, x: NodeId) -> Vec<(NodeId, u32)> {
        a.local(x).map_or(Vec::new(), |i| {
            let row = a.local_succs(i).iter();
            row.map(|&(s, lat)| (a.nodes()[s as usize], lat)).collect()
        })
    }

    fn diamond() -> DepGraph {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        let c = g.add_simple("c", BlockId(0));
        let d = g.add_simple("d", BlockId(0));
        g.add_dep(a, b, 1);
        g.add_dep(a, c, 2);
        g.add_dep(b, d, 1);
        g.add_dep(c, d, 1);
        g
    }

    #[test]
    fn analysis_matches_direct_computation() {
        let g = diamond();
        let mask = g.all_nodes();
        let mut cache = AnalysisCache::new();
        let a = cache.analysis(&g, &mask).unwrap();
        assert_eq!(order(a), crate::topo::topo_order(&g, &mask).unwrap());
        let desc_ref = crate::reach::descendants(&g, &mask).unwrap();
        for id in mask.iter() {
            assert!(desc(a, id).into_iter().eq(desc_ref[id.index()].iter()));
            assert_eq!(succs(a, id), g.succs_in(id, &mask));
            let i = a.local(id).unwrap();
            assert_eq!(a.preds()[i] as usize, g.preds_in(id, &mask).len());
            assert_eq!(a.exec()[i], g.exec_time(id));
        }
    }

    #[test]
    fn second_lookup_hits() {
        let g = diamond();
        let mask = g.all_nodes();
        let mut cache = AnalysisCache::new();
        cache.analysis(&g, &mask).unwrap();
        cache.analysis(&g, &mask).unwrap();
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_masks_are_distinct_entries() {
        let g = diamond();
        let all = g.all_nodes();
        let mut sub = NodeSet::new(g.len());
        sub.insert(NodeId(0));
        sub.insert(NodeId(1));
        let mut cache = AnalysisCache::new();
        cache.analysis(&g, &all).unwrap();
        cache.analysis(&g, &sub).unwrap();
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.len(), 2);
        // Sub-mask analysis really is restricted.
        let a = cache.analysis(&g, &sub).unwrap();
        assert_eq!(order(a).len(), 2);
        assert!(desc(a, NodeId(2)).is_empty(), "n2 is outside the mask");
        assert!(succs(a, NodeId(2)).is_empty());
        assert_eq!(a.local(NodeId(2)), None);
    }

    #[test]
    fn mutation_invalidates() {
        let mut g = diamond();
        let mask = g.all_nodes();
        let mut cache = AnalysisCache::new();
        let before = desc(cache.analysis(&g, &mask).unwrap(), NodeId(0)).len();
        assert_eq!(before, 3);
        // New edge extends nobody's descendants (parallel), but the
        // stamp must still change and force a recompute.
        g.add_dep(NodeId(0), NodeId(3), 5);
        cache.analysis(&g, &mask).unwrap();
        assert_eq!(cache.misses(), 2, "mutation must miss the cache");
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn fifo_eviction_bounds_entries() {
        let g = diamond();
        let mut cache = AnalysisCache::with_capacity(2);
        let masks: Vec<NodeSet> = (1..=3)
            .map(|k| NodeSet::from_iter_with_universe(g.len(), (0..k).map(NodeId)))
            .collect();
        for m in &masks {
            cache.analysis(&g, m).unwrap();
        }
        assert_eq!(cache.len(), 2);
        // Oldest (masks[0]) was evicted; re-querying it misses.
        cache.analysis(&g, &masks[0]).unwrap();
        assert_eq!(cache.misses(), 4);
    }

    #[test]
    fn cyclic_mask_errors_and_is_not_cached() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 1);
        g.add_dep(b, a, 1);
        let mask = g.all_nodes();
        let mut cache = AnalysisCache::new();
        assert!(cache.analysis(&g, &mask).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn failed_miss_leaves_the_spare_reusable() {
        // A cyclic mask fails halfway through computing into the spare
        // buffers; the next miss must still compute from scratch.
        let mut g = diamond();
        g.add_dep(NodeId(3), NodeId(1), 0);
        let mut cache = AnalysisCache::with_capacity(1);
        let all = g.all_nodes();
        assert!(cache.analysis(&g, &all).is_err());
        let acyclic = NodeSet::from_iter_with_universe(g.len(), [NodeId(0), NodeId(1), NodeId(2)]);
        let a = cache.analysis(&g, &acyclic).unwrap();
        assert_eq!(order(a), [NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(desc(a, NodeId(0)), [NodeId(1), NodeId(2)]);
        assert_eq!(succs(a, NodeId(0)), [(NodeId(1), 1), (NodeId(2), 2)]);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn opts_builders() {
        let rel = [1u64, 2];
        let o = SchedOpts::default()
            .with_release(&rel)
            .with_backward(BackwardMode::Piecewise);
        assert_eq!(o.release, Some(&rel[..]));
        assert_eq!(o.backward, BackwardMode::Piecewise);
        assert!(!o.rec.enabled());
    }
}
