//! The rank computation and the Rank Algorithm proper.
//!
//! Paper Section 2.1: *"The deadline of instruction x, written d(x), is the
//! latest time at which x can be completed in any feasible schedule. The
//! rank of x is an upper bound on the completion time of x if x and all of
//! the descendants of x are to complete by their deadlines. The Rank
//! Algorithm executes the following steps: 1) compute the ranks of all the
//! nodes, 2) construct `list`, an ordered list of nodes in nondecreasing
//! order of their ranks, 3) apply a greedy scheduling algorithm to
//! `list`."*
//!
//! The rank of `x` is obtained by *backward-scheduling* the descendants of
//! `x` at the latest times consistent with their (already computed) ranks,
//! then bounding the completion of `x` by
//!
//! * `d(x)` itself,
//! * `start(s) − latency(x, s)` for every immediate successor `s`, and
//! * on a single-unit machine, the earliest start among all descendants
//!   (`x` must run before every one of them on the one unit).
//!
//! For multiple functional units the last bound is dropped and the
//! backward schedule packs each descendant onto the compatible unit that
//! allows the latest completion — the Section 4.2 heuristic.
//!
//! Every entry point takes a [`SchedCtx`]. The rank computation and the
//! greedy passes run on the flat arrays of the context's cached
//! [`Analysis`] of `(graph, mask)` (the deadline-manipulation loops
//! re-rank the same pair dozens of times): per local id `0..|mask|` the
//! execution time, FU class, stable-key position, topological order,
//! successors and descendant row. A run reads the deadlines and release
//! times once into mask-sized scratch, sorts descendants and lists by
//! packed integer keys, and writes `g.len()`-indexed output only for
//! results a caller keeps: [`compute_ranks`]' slice and a feasible
//! run's [`Schedule`]. The rank list and the earliest-deadline-first
//! list stay in the list scratch. A warmed-up context computes ranks,
//! and runs an infeasible Rank Algorithm, without allocating; a
//! feasible run allocates only its schedule.

use crate::deadline::Deadlines;
use crate::list::{built_schedule, greedy_pass, load_release};
use asched_graph::{set_bits, Analysis, BackwardMode, CycleError, RankScratch, SchedCtx};
use asched_graph::{DepGraph, MachineModel, NodeId, NodeSet, SchedOpts, Schedule, Scratch};
use asched_graph::{ListScratch, UnitMasks};
use std::fmt;

/// Failure modes of the rank computation / Rank Algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RankError {
    /// The loop-independent subgraph is cyclic.
    Cyclic(CycleError),
    /// The deadlines cannot all be met: the greedy pass over the rank
    /// list misses a deadline, and so does the earliest-deadline-first
    /// retry (skipped when it is the same list).
    Infeasible {
        /// The node whose deadline the last pass missed first.
        node: NodeId,
    },
}

impl fmt::Display for RankError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RankError::Cyclic(c) => write!(f, "{c}"),
            RankError::Infeasible { node } => {
                write!(f, "deadlines infeasible (witness node {node})")
            }
        }
    }
}

impl std::error::Error for RankError {}

impl From<CycleError> for RankError {
    fn from(c: CycleError) -> Self {
        RankError::Cyclic(c)
    }
}

/// Compute the rank of every node in `mask` under deadlines `d`,
/// returning a slice borrowed from the context's scratch (valid until
/// the context is used again), indexed by `NodeId::index()` with
/// `i64::MAX` outside the mask.
///
/// Ranks may drop below a node's execution time (or below zero) when the
/// deadlines are unachievable — or merely when the backward schedule's
/// tie-breaking was pessimistic. They are *priorities*: feasibility is
/// decided by [`rank_schedule`]'s deadline-checked greedy passes, never
/// by the rank values alone.
///
/// `opts.backward` selects the [`BackwardMode`] for non-unit execution
/// times on multi-unit machines (paper Section 4.2); the other options
/// do not affect ranks. On a warm context (analysis cached, scratch
/// sized) this performs no heap allocation.
pub fn compute_ranks<'c>(
    ctx: &'c mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
    d: &Deadlines,
    opts: &SchedOpts,
) -> Result<&'c [i64], RankError> {
    let SchedCtx { cache, scratch } = ctx;
    let a = cache.analysis(g, mask)?;
    let Scratch {
        rank, ranks, list, ..
    } = scratch;
    list.units.load(machine);
    local_ranks(a, machine, &list.units, d, opts.backward, ranks);
    scatter_ranks(a, &ranks.rank, g.len(), rank);
    Ok(rank)
}

/// The rank computation proper, on `a`'s local ids: the deadlines land
/// in `rs.deadline` and the ranks in `rs.rank`, both indexed by local
/// id. `units` holds `machine`'s class masks.
fn local_ranks(
    a: &Analysis,
    machine: &MachineModel,
    units: &UnitMasks,
    d: &Deadlines,
    mode: BackwardMode,
    rs: &mut RankScratch,
) {
    let m = a.len();
    let RankScratch {
        deadline,
        rank,
        back_start,
        urgency,
        keys,
        unit_earliest,
    } = rs;
    deadline.clear();
    deadline.extend(a.nodes().iter().map(|&x| d.get(x)));
    rank.clear();
    rank.resize(m, i64::MAX);
    // Backward-schedule start times, reused per node.
    back_start.clear();
    back_start.resize(m, 0);
    // Per-descendant tie-break key: the latency x must leave before the
    // descendant starts (u32::MAX for non-successors, which impose no
    // edge constraint on x at all).
    urgency.clear();
    urgency.resize(m, u32::MAX);
    let (exec, class, key, by_key) = (a.exec(), a.class(), a.key(), a.by_key());

    for &x in a.local_order().iter().rev() {
        let x = x as usize;
        // Gather descendants sorted by decreasing rank (ranks are already
        // final: reverse topological order). Among equal ranks, fill the
        // *latest* slots with the descendants whose placement constrains
        // x least: non-successors first, then successors through larger
        // latencies — this maximizes `min(start(s) - latency(x,s))` over
        // the pack and keeps the rank a tight-but-sound upper bound
        // (without it, a latency-0 successor parked late would slacken
        // while a latency-1 successor gets squeezed early). Remaining
        // ties break on the stable source key for determinism. The key
        // packs (rank, urgency, stable-key position) into one integer,
        // unique per node, so the (allocation-free) unstable sort is
        // deterministic; the position decodes back to the node.
        let succs = a.local_succs(x);
        for &(s, lat) in succs {
            urgency[s as usize] = lat;
        }
        keys.clear();
        keys.extend(set_bits(a.desc_row(x)).map(|y| {
            (u128::from(biased(rank[y])) << 64)
                | (u128::from(urgency[y]) << 32)
                | u128::from(key[y])
        }));
        keys.sort_unstable();
        let descending = keys
            .iter()
            .rev()
            .map(|&k| by_key[k as u32 as usize] as usize);

        let mut bound = deadline[x];
        if machine.is_single_unit() {
            // Pack descendants backward on the single unit.
            let mut earliest = i64::MAX;
            for y in descending {
                let start = rank[y].min(earliest) - exec[y] as i64;
                back_start[y] = start;
                earliest = start;
            }
            // x must run before all of its descendants.
            bound = bound.min(earliest);
        } else {
            // Multi-unit heuristic: per-unit backward packing, each
            // descendant on the compatible unit allowing the latest
            // completion.
            unit_earliest.clear();
            unit_earliest.resize(machine.num_units(), i64::MAX);
            for y in descending {
                let fits = units.of(class[y]);
                match mode {
                    BackwardMode::Whole => {
                        let (completion, u) = latest_unit(fits, unit_earliest, rank[y]);
                        let start = completion - exec[y] as i64;
                        back_start[y] = start;
                        unit_earliest[u] = start;
                    }
                    BackwardMode::Piecewise => {
                        // Place `exec` single-cycle pieces independently,
                        // each at the latest possible slot; the earliest
                        // piece start is the instruction's start.
                        let mut earliest_piece = i64::MAX;
                        for _ in 0..exec[y] {
                            let (completion, u) = latest_unit(fits, unit_earliest, rank[y]);
                            unit_earliest[u] = completion - 1;
                            earliest_piece = earliest_piece.min(completion - 1);
                        }
                        back_start[y] = earliest_piece;
                    }
                }
            }
        }
        // Immediate-successor constraints: start(s) - latency(x, s).
        for &(s, lat) in succs {
            bound = bound.min(back_start[s as usize] - lat as i64);
            urgency[s as usize] = u32::MAX; // reset for the next node
        }
        rank[x] = bound;
    }
}

/// The first unit of `fits` (in unit order) allowing the latest
/// completion `min(rank, unit_earliest[u])`, with that completion.
fn latest_unit(fits: &[u64], unit_earliest: &[i64], rank: i64) -> (i64, usize) {
    let mut best: Option<(i64, usize)> = None;
    for u in set_bits(fits) {
        let completion = rank.min(unit_earliest[u]);
        if best.is_none_or(|(c, _)| completion > c) {
            best = Some((completion, u));
            if completion == rank {
                break; // no unit completes later than the rank
            }
        }
    }
    best.expect("machine must have a unit for every class")
}

/// `v` mapped to `u64` preserving order.
#[inline]
fn biased(v: i64) -> u64 {
    (v as u64) ^ (1 << 63)
}

/// Local ranks `local` written into `out`, indexed by `NodeId::index()`
/// over a graph of `n` nodes, `i64::MAX` outside the mask.
fn scatter_ranks(a: &Analysis, local: &[i64], n: usize, out: &mut Vec<i64>) {
    out.clear();
    out.resize(n, i64::MAX);
    for (&x, &r) in a.nodes().iter().zip(local) {
        out[x.index()] = r;
    }
}

/// The full Rank Algorithm: ranks, nondecreasing-rank list, and a greedy
/// schedule checked against the deadlines as it is built.
///
/// In the restricted case (0/1 latencies, unit execution times, single
/// functional unit) the result is a minimum-makespan schedule and the
/// deadline check never fires when the deadlines are achievable
/// (Palem–Simons). In the general case this is the Section 4.2 heuristic
/// and the check guards callers such as `merge` that probe feasibility.
/// A pass stops at its first missed deadline, so an infeasible probe
/// costs only the schedule prefix up to the miss: once for the rank
/// list, and once more for the earliest-deadline-first retry unless that
/// list is the rank list itself (then the retry would replay the failed
/// pass to the same witness, and is skipped).
///
/// All variants are expressed through `opts`: per-node release times
/// (which only delay the greedy scheduler; ranks remain valid upper
/// bounds and the deadline check still guards feasibility), the
/// [`BackwardMode`], and the recorder — an enabled recorder sees one
/// timed `rank` pass plus a `rank_run` event carrying the node count,
/// the resulting makespan (0 on infeasibility) and the feasibility
/// verdict.
pub fn rank_schedule(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
    d: &Deadlines,
    opts: &SchedOpts,
) -> Result<Schedule, RankError> {
    let rec = opts.rec;
    let result = asched_obs::timed(rec, asched_obs::Pass::Rank, || {
        rank_schedule_inner(ctx, g, mask, machine, d, opts)
    });
    asched_obs::record!(
        rec,
        asched_obs::Event::RankRun {
            nodes: mask.len() as u32,
            makespan: result.as_ref().map(Schedule::makespan).unwrap_or(0),
            feasible: result.is_ok(),
        }
    );
    result
}

fn rank_schedule_inner(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
    d: &Deadlines,
    opts: &SchedOpts,
) -> Result<Schedule, RankError> {
    let SchedCtx { cache, scratch } = ctx;
    let a = cache.analysis(g, mask)?;
    let Scratch {
        ranks: rs, list, ..
    } = scratch;
    list.units.load(machine);
    local_ranks(a, machine, &list.units, d, opts.backward, rs);
    // Both greedy passes get the deadlines and stop at the first miss,
    // so an infeasible run pays only for the prefix up to it, and both
    // lists live in the list scratch: an infeasible run on a warm
    // context allocates nothing.
    rank_list(a, rs, list);
    load_release(a, opts.release, &mut list.release);
    if let Err(miss) = greedy_pass(a, machine, list, Some(&rs.deadline)) {
        // The rank list missed a deadline. Backward-schedule
        // tie-breaking makes our rank computation slightly pessimistic
        // in rare cases; before declaring infeasibility, try the
        // earliest-deadline-first list (ties by rank, then source
        // order), which meets deadlines in some of the instances the
        // rank list does not — unless it is the rank list itself.
        if !edf_list(rs, list) {
            return Err(RankError::Infeasible {
                node: a.nodes()[miss],
            });
        }
        if let Err(miss) = greedy_pass(a, machine, list, Some(&rs.deadline)) {
            return Err(RankError::Infeasible {
                node: a.nodes()[miss],
            });
        }
    }
    Ok(built_schedule(a, list, g.len()))
}

/// Load `list.order` with the rank list: local ids by nondecreasing
/// rank, ties by stable key. The packed key (rank, stable-key position,
/// local id) is unique, so the unstable sort is deterministic.
fn rank_list(a: &Analysis, rs: &mut RankScratch, list: &mut ListScratch) {
    let RankScratch { rank, keys, .. } = rs;
    keys.clear();
    keys.extend(
        a.key()
            .iter()
            .zip(rank.iter())
            .enumerate()
            .map(|(x, (&k, &r))| (u128::from(biased(r)) << 64) | (u128::from(k) << 32) | x as u128),
    );
    keys.sort_unstable();
    list.order.clear();
    list.order.extend(keys.iter().map(|&k| k as u32));
}

/// Turn the rank list in `list.order` into the earliest-deadline-first
/// list — nondecreasing deadline, ties by rank, then stable key — and
/// return true, or return false, leaving the list alone, when the two
/// lists are equal. The rank list is ordered by (rank, stable key), so
/// sorting it by (deadline, position) is the EDF order, and that order
/// is the rank list exactly when the deadlines never fall along it.
fn edf_list(rs: &mut RankScratch, list: &mut ListScratch) -> bool {
    let RankScratch { deadline, keys, .. } = rs;
    let order = &mut list.order;
    if order
        .windows(2)
        .all(|w| deadline[w[0] as usize] <= deadline[w[1] as usize])
    {
        return false;
    }
    keys.clear();
    keys.extend(order.iter().enumerate().map(|(p, &x)| {
        (u128::from(biased(deadline[x as usize])) << 64) | ((p as u128) << 32) | u128::from(x)
    }));
    keys.sort_unstable();
    order.clear();
    order.extend(keys.iter().map(|&k| k as u32));
    true
}

/// [`rank_schedule`] with unconstrained deadlines and default options: a
/// plain minimum-makespan scheduler (optimal in the restricted case).
pub fn rank_schedule_default(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
) -> Result<Schedule, RankError> {
    let d = Deadlines::unbounded(g, mask);
    rank_schedule(ctx, g, mask, machine, &d, &SchedOpts::default())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use asched_graph::validate::validate_schedule;
    use asched_graph::BlockId;

    /// The Figure 1 basic block BB1: x→{w,b,r}, e→{w,b}, w→a, b→a, all
    /// latency 1, unit execution times. Insertion order chosen so that
    /// rank ties break as in the paper's walk-through (e before x, b
    /// before w, a before r).
    pub(crate) fn fig1() -> (DepGraph, [NodeId; 6]) {
        let mut g = DepGraph::new();
        let e = g.add_simple("e", BlockId(0));
        let x = g.add_simple("x", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        let w = g.add_simple("w", BlockId(0));
        let a = g.add_simple("a", BlockId(0));
        let r = g.add_simple("r", BlockId(0));
        for &(s, t) in &[(x, w), (x, b), (x, r), (e, w), (e, b), (w, a), (b, a)] {
            g.add_dep(s, t, 1);
        }
        (g, [x, e, w, b, a, r])
    }

    #[test]
    fn fig1_ranks_match_paper() {
        // Paper: with deadline 100 for all nodes, rank(a)=rank(r)=100,
        // rank(w)=rank(b)=98, rank(x)=rank(e)=95.
        let (g, [x, e, w, b, a, r]) = fig1();
        let m = MachineModel::single_unit(2);
        let d = Deadlines::uniform(&g, &g.all_nodes(), 100);
        let mut ctx = SchedCtx::new();
        let ranks =
            compute_ranks(&mut ctx, &g, &g.all_nodes(), &m, &d, &SchedOpts::default()).unwrap();
        assert_eq!(ranks[a.index()], 100);
        assert_eq!(ranks[r.index()], 100);
        assert_eq!(ranks[w.index()], 98);
        assert_eq!(ranks[b.index()], 98);
        assert_eq!(ranks[x.index()], 95);
        assert_eq!(ranks[e.index()], 95);
    }

    #[test]
    fn fig1_schedule_matches_paper() {
        // Paper list e,x,b,w,a,r (nondecreasing rank, ties by source
        // order) gives schedule e x _ b w r a, makespan 7 with the idle
        // slot at t=2.
        let (g, [x, e, w, b, a, r]) = fig1();
        let m = MachineModel::single_unit(2);
        let mut ctx = SchedCtx::new();
        let d = Deadlines::uniform(&g, &g.all_nodes(), 100);
        let opts = SchedOpts::default();
        let ranks = compute_ranks(&mut ctx, &g, &g.all_nodes(), &m, &d, &opts).unwrap();
        let mut list: Vec<NodeId> = g.node_ids().collect();
        list.sort_by_key(|&id| (ranks[id.index()], id.index()));
        assert_eq!(list, vec![e, x, b, w, a, r]);
        let s = &rank_schedule(&mut ctx, &g, &g.all_nodes(), &m, &d, &opts).unwrap();
        assert_eq!(s.makespan(), 7);
        assert_eq!(s.start(e), Some(0));
        assert_eq!(s.start(x), Some(1));
        assert_eq!(s.start(b), Some(3));
        assert_eq!(s.start(w), Some(4));
        assert_eq!(s.start(r), Some(5));
        assert_eq!(s.start(a), Some(6));
        assert_eq!(s.idle_slots(&m), vec![2]);
        validate_schedule(&g, &g.all_nodes(), &m, s, None).unwrap();
    }

    #[test]
    fn fig1_forced_x_first() {
        // With d(x) = 1 the schedule becomes x e r ... with the idle slot
        // at t=5 (paper Section 2.2).
        let (g, [x, _e, _w, _b, a, _r]) = fig1();
        let m = MachineModel::single_unit(2);
        let mut d = Deadlines::uniform(&g, &g.all_nodes(), 7);
        d.set(x, 1);
        let mut ctx = SchedCtx::new();
        let s =
            &rank_schedule(&mut ctx, &g, &g.all_nodes(), &m, &d, &SchedOpts::default()).unwrap();
        assert_eq!(s.makespan(), 7);
        assert_eq!(s.start(x), Some(0));
        assert_eq!(s.idle_slots(&m), vec![5]);
        assert_eq!(s.start(a), Some(6));
        validate_schedule(&g, &g.all_nodes(), &m, s, Some(d.as_slice())).unwrap();
    }

    #[test]
    fn infeasible_deadline_detected() {
        let (g, [x, ..]) = fig1();
        let m = MachineModel::single_unit(2);
        let mut d = Deadlines::uniform(&g, &g.all_nodes(), 7);
        d.set(x, 0); // x can never complete by time 0
        let mut ctx = SchedCtx::new();
        // Ranks always compute (they are priorities)…
        assert!(compute_ranks(&mut ctx, &g, &g.all_nodes(), &m, &d, &SchedOpts::default()).is_ok());
        // …but the greedy schedule's deadline check reports infeasibility.
        assert!(matches!(
            rank_schedule(&mut ctx, &g, &g.all_nodes(), &m, &d, &SchedOpts::default()),
            Err(RankError::Infeasible { .. })
        ));
    }

    #[test]
    fn tight_but_feasible_deadlines() {
        // Chain a -(0)-> b: both can complete by 2.
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 0);
        let m = MachineModel::single_unit(2);
        let d = Deadlines::uniform(&g, &g.all_nodes(), 2);
        let mut ctx = SchedCtx::new();
        let opts = SchedOpts::default();
        let s = rank_schedule(&mut ctx, &g, &g.all_nodes(), &m, &d, &opts).unwrap();
        assert_eq!(s.makespan(), 2);
        let ranks = compute_ranks(&mut ctx, &g, &g.all_nodes(), &m, &d, &opts).unwrap();
        assert_eq!(ranks[a.index()], 1);
        assert_eq!(ranks[b.index()], 2);
    }

    #[test]
    fn rank_respects_mask() {
        let (g, [x, e, w, b, a, _r]) = fig1();
        let m = MachineModel::single_unit(2);
        // Schedule only {x, w, a}: chain with latency 1 => makespan 5.
        let mask: NodeSet = NodeSet::from_iter_with_universe(g.len(), [x, w, a]);
        let mut ctx = SchedCtx::new();
        let s = rank_schedule_default(&mut ctx, &g, &mask, &m).unwrap();
        assert_eq!(s.makespan(), 5);
        assert_eq!(s.num_scheduled(), 3);
        let _ = (e, b);
    }

    #[test]
    fn default_schedule_is_optimal_on_restricted_case() {
        // Figure 1's published optimum on a single unit is 7.
        let (g, _) = fig1();
        let m = MachineModel::single_unit(2);
        let mut ctx = SchedCtx::new();
        let s = rank_schedule_default(&mut ctx, &g, &g.all_nodes(), &m).unwrap();
        assert_eq!(s.makespan(), 7);
    }

    #[test]
    fn multi_unit_heuristic_is_valid() {
        let (g, _) = fig1();
        let m = MachineModel::uniform(2, 2);
        let mut ctx = SchedCtx::new();
        let s = rank_schedule_default(&mut ctx, &g, &g.all_nodes(), &m).unwrap();
        validate_schedule(&g, &g.all_nodes(), &m, &s, None).unwrap();
        // Two units can't be slower than one.
        assert!(s.makespan() <= 7);
    }

    #[test]
    fn piecewise_mode_equals_whole_on_single_unit() {
        let (g, _) = fig1();
        let m = MachineModel::single_unit(2);
        let d = Deadlines::uniform(&g, &g.all_nodes(), 100);
        let mut ctx = SchedCtx::new();
        let whole = compute_ranks(&mut ctx, &g, &g.all_nodes(), &m, &d, &SchedOpts::default())
            .unwrap()
            .to_vec();
        let piece = compute_ranks(
            &mut ctx,
            &g,
            &g.all_nodes(),
            &m,
            &d,
            &SchedOpts::default().with_backward(BackwardMode::Piecewise),
        )
        .unwrap()
        .to_vec();
        assert_eq!(whole, piece);
    }

    #[test]
    fn piecewise_ranks_never_tighter_than_whole() {
        // A multi-unit machine with a multi-cycle descendant: whole
        // insertion commits the 3-cycle op to one unit (start = rank-3),
        // piecewise spreads the pieces (start >= rank-2), so the
        // ancestor's piecewise rank is no smaller.
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let long = g.add_simple("long", BlockId(0));
        g.node_mut(long).exec_time = 3;
        g.add_dep(a, long, 0);
        let m = MachineModel::uniform(3, 2);
        let d = Deadlines::uniform(&g, &g.all_nodes(), 10);
        let mut ctx = SchedCtx::new();
        let whole = compute_ranks(&mut ctx, &g, &g.all_nodes(), &m, &d, &SchedOpts::default())
            .unwrap()
            .to_vec();
        let piece = compute_ranks(
            &mut ctx,
            &g,
            &g.all_nodes(),
            &m,
            &d,
            &SchedOpts::default().with_backward(BackwardMode::Piecewise),
        )
        .unwrap()
        .to_vec();
        for id in g.node_ids() {
            assert!(
                piece[id.index()] >= whole[id.index()],
                "piecewise must be the looser (sound) bound for {id}"
            );
        }
        // Concretely: whole places `long` at [7,10) so a <= 7; piecewise
        // places three pieces at [9,10) on three units so a <= 9.
        assert_eq!(whole[a.index()], 7);
        assert_eq!(piece[a.index()], 9);
    }

    #[test]
    fn piecewise_schedule_is_valid() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("div", BlockId(0));
        g.node_mut(b).exec_time = 4;
        let c = g.add_simple("c", BlockId(0));
        g.add_dep(a, b, 1);
        g.add_dep(b, c, 2);
        let m = MachineModel::uniform(2, 2);
        let d = Deadlines::unbounded(&g, &g.all_nodes());
        let mut ctx = SchedCtx::new();
        let s = rank_schedule(
            &mut ctx,
            &g,
            &g.all_nodes(),
            &m,
            &d,
            &SchedOpts::default().with_backward(BackwardMode::Piecewise),
        )
        .unwrap();
        asched_graph::validate::validate_schedule(&g, &g.all_nodes(), &m, &s, None).unwrap();
    }

    #[test]
    fn cyclic_graph_rejected() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 0);
        g.add_dep(b, a, 0);
        let m = MachineModel::single_unit(2);
        let mut ctx = SchedCtx::new();
        assert!(matches!(
            rank_schedule_default(&mut ctx, &g, &g.all_nodes(), &m),
            Err(RankError::Cyclic(_))
        ));
    }

    #[test]
    fn warm_context_is_bit_identical_to_fresh() {
        // The analysis cache and scratch reuse are pure caching: every
        // call must produce the same bytes as a fresh context.
        let (g, _) = fig1();
        let m = MachineModel::single_unit(2);
        let d = Deadlines::uniform(&g, &g.all_nodes(), 100);
        let mut warm = SchedCtx::new();
        let baseline =
            rank_schedule(&mut warm, &g, &g.all_nodes(), &m, &d, &SchedOpts::default()).unwrap();
        for _ in 0..3 {
            let again = rank_schedule(&mut warm, &g, &g.all_nodes(), &m, &d, &SchedOpts::default())
                .unwrap();
            assert_eq!(again, baseline);
        }
        assert!(warm.cache.hits() >= 3, "repeat calls must hit the cache");
    }
}
