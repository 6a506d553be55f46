//! The branch-and-bound engine behind [`crate::certify`].
//!
//! Threshold search (memoized IDA*): for `T = analytic lower bound,
//! T+1, …` run a depth-first decision search for a schedule of makespan
//! `< T+1`, pruning with per-state admissible bounds and a memo of
//! proven *relative* cost-to-go lower bounds. A refuted threshold
//! raises the certified lower bound; the first admitted threshold is
//! the exact optimum. The state space and timing model are exactly
//! those of naive enumeration (start a ready node on a free unit now,
//! or advance the clock to the next event), so the two agree everywhere
//! the enumerator can run — enforced by the differential property tests
//! against the test-only reference in `tests/naive/mod.rs`.

use crate::{Certificate, ExactConfig, ExactError};
use asched_graph::{
    earliest_starts, makespan_lower_bound, DepGraph, FuClass, MachineModel, NodeId, NodeSet,
    SchedCtx, SchedOpts,
};
use std::collections::HashMap;

/// Canonical state: `(done mask, per-node release offsets, per-unit
/// busy offsets sorted within unit-class segments)`, all relative to
/// the current clock. See the key-construction comment in `dfs`.
type Key = (u64, Vec<u16>, Vec<u16>);

struct Solver<'g> {
    g: &'g DepGraph,
    nodes: Vec<NodeId>,
    /// preds[i] = (pred position, latency), loop-independent, in-mask.
    preds: Vec<Vec<(usize, u32)>>,
    exec: Vec<u64>,
    /// Dependence-only remaining span per node (exec + latency tail).
    height: Vec<u64>,
    /// Static earliest start (release times + predecessor chains).
    asap: Vec<u64>,
    /// Positions in branch order: height descending, stable key.
    order: Vec<usize>,
    /// compat[i] = unit indices that can run node `i`.
    compat: Vec<Vec<usize>>,
    unit_class: Vec<FuClass>,
    /// Unit indices grouped by identical class (for key canonicalization:
    /// units of one class are interchangeable, so their busy offsets are
    /// sorted within each segment).
    segments: Vec<Vec<usize>>,
    /// Remaining work per concrete class (index = position in
    /// `FuClass::CONCRETE`) and the units that can absorb it.
    class_units: Vec<Vec<usize>>,
    /// Proven relative cost-to-go lower bounds: an entry `(key, v)`
    /// means no completion from `key` finishes before `clock + v`.
    memo: HashMap<Key, u64>,
    avail: Vec<u64>,
    expanded: u64,
    budget: u64,
    exhausted: bool,
    found: Option<u64>,
}

pub(crate) fn solve(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
    cfg: &ExactConfig,
    opts: &SchedOpts,
) -> Result<Certificate, ExactError> {
    let nodes: Vec<NodeId> = mask.iter().collect();
    if nodes.is_empty() {
        return Ok(Certificate {
            lower_bound: 0,
            best_found: 0,
            expanded: 0,
            complete: true,
        });
    }
    let n = nodes.len();
    let mut pos = vec![usize::MAX; g.len()];
    for (i, &id) in nodes.iter().enumerate() {
        pos[id.index()] = i;
    }
    let preds: Vec<Vec<(usize, u32)>> = nodes
        .iter()
        .map(|&id| {
            g.preds_in(id, mask)
                .into_iter()
                .map(|(p, lat)| (pos[p.index()], lat))
                .collect()
        })
        .collect();
    let exec: Vec<u64> = nodes.iter().map(|&id| g.exec_time(id) as u64).collect();

    // Heights and ASAP times from the ctx-cached analysis (one
    // topological sort shared with every other pass on this mask).
    // The analysis' local ids are the positions in `nodes`.
    let (height, asap) = {
        let analysis = ctx.cache.analysis(g, mask).map_err(ExactError::Cyclic)?;
        let mut height = vec![0u64; n];
        for &i in analysis.local_order().iter().rev() {
            let i = i as usize;
            let mut tail = 0u64;
            for &(s, lat) in analysis.local_succs(i) {
                tail = tail.max(lat as u64 + height[s as usize]);
            }
            height[i] = exec[i] + tail;
        }
        // ASAP: the shared forward sweep, floored at the static release
        // times.
        let mut asap = Vec::new();
        earliest_starts(analysis, opts.release, &mut asap);
        (height, asap)
    };

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        height[b]
            .cmp(&height[a])
            .then_with(|| g.stable_key(nodes[a]).cmp(&g.stable_key(nodes[b])))
    });

    let compat: Vec<Vec<usize>> = nodes
        .iter()
        .map(|&id| machine.units_for(g.node(id).class).collect())
        .collect();
    let unit_class = machine.units.clone();
    let mut segments: Vec<Vec<usize>> = Vec::new();
    for (u, &c) in unit_class.iter().enumerate() {
        match segments.iter_mut().find(|seg| unit_class[seg[0]] == c) {
            Some(seg) => seg.push(u),
            None => segments.push(vec![u]),
        }
    }
    let class_units: Vec<Vec<usize>> = FuClass::CONCRETE
        .iter()
        .map(|&c| machine.units_for(c).collect())
        .collect();

    // Feasible seeds: greedy height-priority list scheduling, plus the
    // Rank Algorithm when it applies. Both honor `opts` (release
    // times), so their makespans are legal upper bounds.
    let prio = asched_graph::height_priority(g, mask).map_err(ExactError::Cyclic)?;
    let mut seed = asched_rank::list_schedule(ctx, g, mask, machine, &prio, opts).makespan();
    let deadlines = asched_rank::Deadlines::unbounded(g, mask);
    if let Ok(s) = asched_rank::rank_schedule(ctx, g, mask, machine, &deadlines, opts) {
        seed = seed.min(s.makespan());
    }

    let mut solver = Solver {
        g,
        nodes,
        preds,
        exec,
        height,
        asap,
        order,
        compat,
        unit_class,
        segments,
        class_units,
        memo: HashMap::new(),
        avail: Vec::with_capacity(machine.num_units()),
        expanded: 0,
        budget: cfg.node_budget,
        exhausted: false,
        found: None,
    };

    // Root analytic bound: the per-state bound at the empty schedule,
    // combined with the cached whole-mask kernel from `asched-graph`.
    let mut finish = vec![0u64; n];
    let mut busy = vec![0u64; machine.num_units()];
    let root_lb = solver
        .state_bound(0, 0, &finish, &busy)
        .max(makespan_lower_bound(ctx, g, mask, machine).map_err(ExactError::Cyclic)?);

    if seed <= root_lb {
        return Ok(Certificate {
            lower_bound: root_lb,
            best_found: seed,
            expanded: 0,
            complete: true,
        });
    }

    // Threshold loop: refute "makespan <= T" for T = root_lb, root_lb+1, …
    // Every completed iteration raises the certified lower bound by one;
    // the first admitted threshold is the optimum.
    let mut proven = root_lb;
    loop {
        solver.dfs(0, 0, &mut finish, &mut busy, proven + 1);
        if let Some(ms) = solver.found {
            debug_assert_eq!(ms, proven, "admitted threshold must equal the proven bound");
            return Ok(Certificate {
                lower_bound: ms,
                best_found: ms,
                expanded: solver.expanded,
                complete: true,
            });
        }
        if solver.exhausted {
            return Ok(Certificate {
                lower_bound: proven,
                best_found: seed,
                expanded: solver.expanded,
                complete: false,
            });
        }
        proven += 1;
        if proven >= seed {
            // Every threshold below the seed refuted: the seed is optimal.
            return Ok(Certificate {
                lower_bound: seed,
                best_found: seed,
                expanded: solver.expanded,
                complete: true,
            });
        }
    }
}

impl Solver<'_> {
    /// Decision search: is there a completion from this state with
    /// makespan `< ub`? On success sets `self.found`; a clean return
    /// with neither `found` nor `exhausted` set is a refutation.
    fn dfs(&mut self, done: u64, t: u64, finish: &mut [u64], busy: &mut [u64], ub: u64) {
        let n = self.nodes.len();
        if done.count_ones() as usize == n {
            let ms = finish.iter().copied().max().unwrap_or(0);
            if ms < ub {
                self.found = Some(ms);
            }
            return;
        }
        if self.exhausted {
            return;
        }
        if self.expanded >= self.budget {
            self.exhausted = true;
            return;
        }
        self.expanded += 1;

        if self.state_bound(done, t, finish, busy) >= ub {
            return;
        }

        // Canonical key, relative to the clock. For an unscheduled node
        // the entry carries the release constraint inherited from its
        // *scheduled* predecessors (top bit marks outstanding ones —
        // those contribute identically in any continuation of the same
        // done-set, so partial-release + flag determines the cost-to-go).
        // Busy offsets are sorted within each unit-class segment:
        // same-class units are interchangeable.
        let key = {
            let rel = |v: u64| -> u16 { v.saturating_sub(t).min(0x7FFF) as u16 };
            let mut node_rel = Vec::with_capacity(n);
            for i in 0..n {
                if done & (1 << i) != 0 {
                    node_rel.push(0);
                } else {
                    let (partial, complete) = self.partial_release(i, done, finish);
                    let mut enc = rel(partial.max(self.asap[i]));
                    if !complete {
                        enc |= 0x8000;
                    }
                    node_rel.push(enc);
                }
            }
            let mut unit_rel = Vec::with_capacity(busy.len());
            for seg in &self.segments {
                let start = unit_rel.len();
                unit_rel.extend(seg.iter().map(|&u| rel(busy[u])));
                unit_rel[start..].sort_unstable();
            }
            (done, node_rel, unit_rel)
        };
        // The memo stores *relative* proven bounds ("no completion
        // before clock + v"), so a proof carries to any later clock at
        // which the same canonical state recurs — and across threshold
        // iterations.
        if let Some(&v) = self.memo.get(&key) {
            if t.saturating_add(v) >= ub {
                return;
            }
        }

        // Option A: start each startable node now, trying one free unit
        // per distinct unit class.
        let mut any_startable = false;
        for oi in 0..n {
            let i = self.order[oi];
            if done & (1 << i) != 0 {
                continue;
            }
            let r = self.release_time(i, done, finish);
            if r > t {
                continue;
            }
            let mut tried: Vec<FuClass> = Vec::new();
            for ci in 0..self.compat[i].len() {
                let u = self.compat[i][ci];
                if busy[u] > t {
                    continue;
                }
                let uc = self.unit_class[u];
                if tried.contains(&uc) {
                    continue;
                }
                tried.push(uc);
                any_startable = true;
                let (f0, b0) = (finish[i], busy[u]);
                finish[i] = t + self.exec[i];
                busy[u] = finish[i];
                self.dfs(done | (1 << i), t, finish, busy, ub);
                finish[i] = f0;
                busy[u] = b0;
                if self.found.is_some() || self.exhausted {
                    return;
                }
            }
        }

        // Option B: advance the clock to the next event (deliberate
        // idling — leaving a unit free for a later, more critical node).
        let mut next = u64::MAX;
        for i in 0..n {
            if done & (1 << i) != 0 {
                continue;
            }
            let r = self.release_time(i, done, finish);
            if r != u64::MAX && r > t {
                next = next.min(r);
            }
        }
        for &b in busy.iter() {
            if b > t {
                next = next.min(b);
            }
        }
        if next < u64::MAX {
            self.dfs(done, next, finish, busy, ub);
            if self.found.is_some() || self.exhausted {
                return;
            }
        } else if !any_startable {
            // No startable node and no future event: unreachable for a DAG.
            unreachable!("search deadlocked");
        }

        // Fully explored and refuted: no completion before `ub` from
        // this state. Record the relative bound for reuse.
        let v = self.memo.entry(key).or_insert(0);
        *v = (*v).max(ub - t);
    }

    /// Admissible lower bound on the final makespan from this state:
    /// `max(dependence bound, water-filled capacity bounds)`.
    fn state_bound(&mut self, done: u64, t: u64, finish: &[u64], busy: &[u64]) -> u64 {
        let n = self.nodes.len();
        let mut lb = finish.iter().copied().max().unwrap_or(0);
        let mut total = 0u64;
        let mut class_work = [0u64; FuClass::CONCRETE.len()];
        for i in 0..n {
            if done & (1 << i) != 0 {
                continue;
            }
            let (partial, _) = self.partial_release(i, done, finish);
            let est = t.max(self.asap[i]).max(partial);
            lb = lb.max(est + self.height[i]);
            total += self.exec[i];
            let class = self.g.node(self.nodes[i]).class;
            if let Some(k) = FuClass::CONCRETE.iter().position(|&c| c == class) {
                class_work[k] += self.exec[i];
            }
        }
        // Aggregate water-fill: all remaining work over all units.
        self.avail.clear();
        self.avail.extend(busy.iter().map(|&b| b.max(t)));
        lb = lb.max(water_fill(&mut self.avail, total));
        // Per-class water-fill over the units that can absorb the class.
        for (k, &work) in class_work.iter().enumerate() {
            if work == 0 {
                continue;
            }
            self.avail.clear();
            self.avail
                .extend(self.class_units[k].iter().map(|&u| busy[u].max(t)));
            lb = lb.max(water_fill(&mut self.avail, work));
        }
        lb
    }

    /// Earliest start of node `i`: static release/ASAP floor plus the
    /// finished predecessors; `u64::MAX` while a predecessor is
    /// unscheduled (the node is not startable yet).
    fn release_time(&self, i: usize, done: u64, finish: &[u64]) -> u64 {
        let mut r = self.asap[i];
        for &(p, lat) in &self.preds[i] {
            if done & (1 << p) != 0 {
                r = r.max(finish[p] + lat as u64);
            } else {
                return u64::MAX;
            }
        }
        r
    }

    /// The release constraint inherited from *scheduled* predecessors,
    /// plus whether it is complete (no predecessors outstanding).
    fn partial_release(&self, i: usize, done: u64, finish: &[u64]) -> (u64, bool) {
        let mut r = 0;
        let mut complete = true;
        for &(p, lat) in &self.preds[i] {
            if done & (1 << p) != 0 {
                r = r.max(finish[p] + lat as u64);
            } else {
                complete = false;
            }
        }
        (r, complete)
    }
}

/// Minimal `M` such that units with the given availability times can
/// absorb `work` cycles by `M`: the integer water-fill
/// `sum_u max(0, M - avail_u) >= work`. Admissible even for
/// multi-cycle instructions (contiguity is ignored, which only lowers
/// the bound). Sorts `avail` in place.
fn water_fill(avail: &mut [u64], work: u64) -> u64 {
    if work == 0 {
        return 0;
    }
    avail.sort_unstable();
    let mut prefix = 0u64;
    for j in 0..avail.len() {
        prefix += avail[j];
        let k = (j + 1) as u64;
        let m = (work + prefix).div_ceil(k);
        if j + 1 == avail.len() || m <= avail[j + 1] {
            return m;
        }
    }
    unreachable!("water level rises monotonically")
}

#[cfg(test)]
mod tests {
    use super::*;
    use asched_graph::BlockId;

    fn run(g: &DepGraph, m: &MachineModel, budget: u64) -> Certificate {
        let mut ctx = SchedCtx::new();
        solve(
            &mut ctx,
            g,
            &g.all_nodes(),
            m,
            &ExactConfig::with_node_budget(budget),
            &SchedOpts::default(),
        )
        .unwrap()
    }

    #[test]
    fn empty_graph() {
        let g = DepGraph::new();
        let m = MachineModel::single_unit(2);
        let c = run(&g, &m, 1_000);
        assert_eq!((c.lower_bound, c.best_found, c.complete), (0, 0, true));
    }

    #[test]
    fn chain_with_latency() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 3);
        let c = run(&g, &MachineModel::single_unit(2), 100_000);
        assert!(c.complete);
        assert_eq!(c.best_found, 5);
    }

    #[test]
    fn deliberate_idle_can_win() {
        // Greedy source order s2-first is worse; the search must find
        // s1 first (same instance as the naive reference's known-answer
        // test).
        let mut g = DepGraph::new();
        let s1 = g.add_simple("s1", BlockId(0));
        let _s2 = g.add_simple("s2", BlockId(0));
        let c1 = g.add_simple("c1", BlockId(0));
        let c2 = g.add_simple("c2", BlockId(0));
        g.add_dep(s1, c1, 2);
        g.add_dep(c1, c2, 2);
        let c = run(&g, &MachineModel::single_unit(1), 100_000);
        assert!(c.complete);
        assert_eq!(c.best_found, 7);
    }

    #[test]
    fn multicycle_instructions() {
        let mut g = DepGraph::new();
        let mul = g.add_simple("mul", BlockId(0));
        g.node_mut(mul).exec_time = 4;
        let _a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(mul, b, 0);
        let c = run(&g, &MachineModel::uniform(2, 1), 100_000);
        assert!(c.complete);
        assert_eq!(c.best_found, 5);
    }

    #[test]
    fn assigned_units_respect_classes() {
        // Three float ops on an RS/6000-like machine: only one float
        // unit, so the optimum is serial despite three other idle units.
        let mut g = DepGraph::new();
        for i in 0..3 {
            let id = g.add_simple(format!("f{i}"), BlockId(0));
            g.node_mut(id).class = FuClass::Float;
        }
        let c = run(&g, &MachineModel::rs6000_like(2), 100_000);
        assert!(c.complete);
        assert_eq!(c.best_found, 3);
    }

    #[test]
    fn zero_budget_still_certifies_an_interval() {
        let mut g = DepGraph::new();
        let s1 = g.add_simple("s1", BlockId(0));
        let _s2 = g.add_simple("s2", BlockId(0));
        let c1 = g.add_simple("c1", BlockId(0));
        let c2 = g.add_simple("c2", BlockId(0));
        g.add_dep(s1, c1, 2);
        g.add_dep(c1, c2, 2);
        let m = MachineModel::single_unit(1);
        let c = run(&g, &m, 0);
        assert_eq!(c.expanded, 0);
        assert!(c.lower_bound <= c.best_found);
        // The interval must bracket the true optimum (7).
        assert!(c.lower_bound <= 7 && 7 <= c.best_found);
    }

    #[test]
    fn certificates_are_deterministic() {
        let mut g = DepGraph::new();
        let mut prev = None;
        for i in 0..10 {
            let id = g.add_simple(format!("n{i}"), BlockId(0));
            if let Some(p) = prev {
                if i % 3 != 0 {
                    g.add_dep(p, id, (i % 2) as u32);
                }
            }
            prev = Some(id);
        }
        let m = MachineModel::uniform(2, 4);
        let a = run(&g, &m, 5_000);
        let b = run(&g, &m, 5_000);
        assert_eq!(a, b);
    }
}
