//! Property tests for the graph substrate.

use asched_graph::{
    ancestors, descendants, heights, set_bits, topo_order, AnalysisCache, BlockId, DepGraph,
    DepKind, MachineModel, NodeId, NodeSet, Schedule,
};
use proptest::prelude::*;

/// Random DAG: `n` nodes, forward edges only (guaranteed acyclic).
fn arb_dag() -> impl Strategy<Value = DepGraph> {
    (2usize..20, any::<u64>(), 0.05f64..0.7).prop_map(|(n, seed, density)| {
        let mut g = DepGraph::new();
        for i in 0..n {
            g.add_simple(format!("n{i}"), BlockId((i % 3) as u32));
        }
        // Deterministic pseudo-random edges from the seed.
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..n {
            for j in (i + 1)..n {
                if (next() % 1000) as f64 / 1000.0 < density {
                    let lat = (next() % 4) as u32;
                    g.add_dep(NodeId(i as u32), NodeId(j as u32), lat);
                }
            }
        }
        g
    })
}

/// A deterministic xorshift stream.
fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    }
}

/// Random DAG of up to `max_n` nodes, large enough for descendant rows
/// of several words, with parallel edges of different latencies,
/// loop-carried back edges (which analyses must ignore) and nodes in
/// random blocks, so stable-key order differs from id order.
fn arb_wide_dag(max_n: usize) -> impl Strategy<Value = DepGraph> {
    (2usize..max_n, any::<u64>(), 0.01f64..0.15).prop_map(|(n, seed, density)| {
        let mut g = DepGraph::new();
        let mut next = xorshift(seed);
        for i in 0..n {
            g.add_simple(format!("n{i}"), BlockId((next() % 4) as u32));
        }
        for i in 0..n {
            for j in (i + 1)..n {
                if (next() % 1000) as f64 / 1000.0 < density {
                    let (src, dst) = (NodeId(i as u32), NodeId(j as u32));
                    g.add_dep(src, dst, (next() % 4) as u32);
                    if next().is_multiple_of(4) {
                        g.add_dep(src, dst, (next() % 4) as u32);
                    }
                    if next().is_multiple_of(8) {
                        g.add_edge(dst, src, 1, 1, DepKind::Data);
                    }
                }
            }
        }
        g
    })
}

/// A random partial schedule of a graph of `n` nodes on `units` units:
/// about one node in six (the mask) is placed, each on a random unit
/// after 0-2 idle cycles behind that unit's previous node, with
/// execution times 1-3. Node ids are shuffled into place order so start
/// times do not follow ids.
fn arb_partial_schedule() -> impl Strategy<Value = (Schedule, usize)> {
    (2usize..300, 1usize..=4, any::<u64>()).prop_map(|(n, units, seed)| {
        let mut next = xorshift(seed);
        let mut ids: Vec<u32> = (0..n as u32).filter(|_| next().is_multiple_of(6)).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, (next() % (i as u64 + 1)) as usize);
        }
        let mut free = vec![0u64; units];
        let mut s = Schedule::new(n);
        for id in ids {
            let u = (next() % units as u64) as usize;
            let start = free[u] + next() % 3;
            let exec = (next() % 3 + 1) as u32;
            s.assign(NodeId(id), start, u, exec);
            free[u] = start + exec as u64;
        }
        (s, units)
    })
}

/// The node on `unit` whose `[start, completion)` satisfies `covers`,
/// by a scan of every slot of `s` (scheduled or not).
fn scan_for(s: &Schedule, unit: usize, covers: impl Fn(u64, u64) -> bool) -> Option<NodeId> {
    (0..s.capacity() as u32).map(NodeId).find(|&id| {
        s.unit(id) == Some(unit) && covers(s.start(id).unwrap(), s.completion(id).unwrap())
    })
}

/// `s`'s idle-slot, tail-node, occupant, busy-map and order queries
/// against a per-cycle scan of every slot.
fn assert_queries_match_scan(s: &Schedule, units: usize) {
    let m = MachineModel::uniform(units, 2);
    let placed: Vec<NodeId> = (0..s.capacity() as u32)
        .map(NodeId)
        .filter(|&id| s.start(id).is_some())
        .collect();
    assert_eq!(s.scheduled().collect::<Vec<_>>(), placed.clone());
    assert_eq!(s.num_scheduled(), placed.len());
    let mut order = placed;
    order.sort_by_key(|&id| (s.start(id), s.unit(id)));
    assert_eq!(s.order(), order);
    let busy = s.busy_map(&m);
    for (u, row) in busy.iter().enumerate() {
        assert_eq!(row.len() as u64, s.makespan());
        let mut idle = Vec::new();
        for t in 0..=s.makespan() + 1 {
            let occupant = scan_for(s, u, |st, e| st <= t && t < e);
            assert_eq!(s.occupant(u, t), occupant);
            assert_eq!(s.tail_node(u, t), scan_for(s, u, |_, e| e == t));
            if t < s.makespan() {
                assert_eq!(row[t as usize], occupant.is_some());
                if occupant.is_none() {
                    idle.push(t);
                }
            }
        }
        assert_eq!(s.idle_slots_unit(&m, u), idle);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A partial schedule's queries visit only its scheduled nodes; they
    /// must agree with a per-cycle scan of every slot, before and after
    /// a rebase and a restriction to half the scheduled nodes. Equality
    /// is "same assignments", whatever order they were made in.
    #[test]
    fn schedule_queries_match_a_slot_scan((s, units) in arb_partial_schedule()) {
        assert_queries_match_scan(&s, units);
        let mut rebuilt = Schedule::new(s.capacity());
        for id in s.order().into_iter().rev() {
            let st = s.start(id).unwrap();
            let exec = (s.completion(id).unwrap() - st) as u32;
            rebuilt.assign(id, st, s.unit(id).unwrap(), exec);
        }
        prop_assert_eq!(&rebuilt, &s);
        let first = s.scheduled().filter_map(|id| s.start(id)).min().unwrap_or(0);
        let mut rebased = s.clone();
        rebased.rebase(first);
        assert_queries_match_scan(&rebased, units);
        let half = NodeSet::from_iter_with_universe(s.capacity(), s.scheduled().step_by(2));
        assert_queries_match_scan(&s.restrict(&half), units);
    }

    /// The cached analysis, stored flat over mask-local ids, reads back
    /// as the plain reference forms for random non-contiguous masks:
    /// `order()` is `topo_order`, `desc(x)` is `descendants`' set and
    /// `succs(x)` is `DepGraph::succs_in` (both empty outside the mask).
    /// A two-entry cache makes later masks, of other sizes, compute into
    /// the buffers FIFO eviction recycled; earlier hits must survive it.
    #[test]
    fn cached_analysis_matches_reference(
        g in arb_wide_dag(150),
        seeds in proptest::collection::vec(any::<u64>(), 3..8),
    ) {
        let mut cache = AnalysisCache::with_capacity(2);
        let mut masks: Vec<NodeSet> = Vec::new();
        for &seed in &seeds {
            let mut next = xorshift(seed);
            let keep = 1 + next() % 4;
            masks.push(NodeSet::from_iter_with_universe(
                g.len(),
                g.node_ids().filter(|_| next() % 4 < keep),
            ));
        }
        for (k, mask) in masks.iter().enumerate() {
            // Revisit the previous mask too: a hit after a recycle.
            for mask in [mask, &masks[k.saturating_sub(1)]] {
                let a = cache.analysis(&g, mask).unwrap();
                let global = |i: usize| a.nodes()[i];
                prop_assert!(a
                    .local_order()
                    .iter()
                    .map(|&i| global(i as usize))
                    .eq(topo_order(&g, mask).unwrap()));
                prop_assert!(a.nodes().iter().copied().eq(mask.iter()));
                let desc = descendants(&g, mask).unwrap();
                for id in g.node_ids() {
                    let Some(i) = a.local(id) else {
                        prop_assert!(!mask.contains(id));
                        continue;
                    };
                    prop_assert!(set_bits(a.desc_row(i)).map(global).eq(desc[id.index()].iter()), "desc({})", id);
                    let succs = a.local_succs(i).iter().map(|&(s, lat)| (global(s as usize), lat));
                    prop_assert!(succs.eq(g.succs_in(id, mask)), "succs({})", id);
                }
                for (i, &id) in a.nodes().iter().enumerate() {
                    prop_assert_eq!(a.local(id), Some(i));
                    prop_assert_eq!(a.exec()[i], g.exec_time(id));
                    prop_assert_eq!(a.class()[i], g.node(id).class);
                    prop_assert_eq!(a.preds()[i] as usize, g.preds_in(id, mask).len());
                    prop_assert_eq!(a.by_key()[a.key()[i] as usize] as usize, i);
                }
                prop_assert!(a
                    .by_key()
                    .windows(2)
                    .all(|w| g.stable_key(a.nodes()[w[0] as usize]) < g.stable_key(a.nodes()[w[1] as usize])));
            }
        }
        prop_assert!(cache.len() <= 2);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Topological order places every edge source before its target.
    #[test]
    fn topo_respects_edges(g in arb_dag()) {
        let order = topo_order(&g, &g.all_nodes()).unwrap();
        prop_assert_eq!(order.len(), g.len());
        let pos: Vec<usize> = {
            let mut p = vec![0; g.len()];
            for (i, &id) in order.iter().enumerate() {
                p[id.index()] = i;
            }
            p
        };
        for e in g.edges() {
            prop_assert!(pos[e.src.index()] < pos[e.dst.index()]);
        }
    }

    /// descendants and ancestors are transposes of each other, and both
    /// are transitive.
    #[test]
    fn reachability_duality_and_transitivity(g in arb_dag()) {
        let mask = g.all_nodes();
        let d = descendants(&g, &mask).unwrap();
        let a = ancestors(&g, &mask).unwrap();
        for u in g.node_ids() {
            for v in g.node_ids() {
                prop_assert_eq!(d[u.index()].contains(v), a[v.index()].contains(u));
            }
        }
        for u in g.node_ids() {
            let du: Vec<NodeId> = d[u.index()].iter().collect();
            for &v in &du {
                for w in d[v.index()].iter() {
                    prop_assert!(
                        d[u.index()].contains(w),
                        "transitivity: {} -> {} -> {}", u, v, w
                    );
                }
            }
        }
    }

    /// Heights satisfy the defining recurrence as an inequality against
    /// every outgoing edge.
    #[test]
    fn heights_dominate_every_edge(g in arb_dag()) {
        let h = heights(&g, &g.all_nodes()).unwrap();
        for e in g.edges() {
            prop_assert!(
                h[e.src.index()]
                    >= g.exec_time(e.src) as u64 + e.latency as u64 + h[e.dst.index()]
            );
        }
        for id in g.node_ids() {
            prop_assert!(h[id.index()] >= g.exec_time(id) as u64);
        }
    }

    /// NodeSet algebra: commutativity, absorption, iteration order.
    #[test]
    fn nodeset_algebra(xs in proptest::collection::vec(0u32..200, 0..40),
                       ys in proptest::collection::vec(0u32..200, 0..40)) {
        let a = NodeSet::from_iter_with_universe(200, xs.iter().map(|&i| NodeId(i)));
        let b = NodeSet::from_iter_with_universe(200, ys.iter().map(|&i| NodeId(i)));
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert!(a.is_subset(&a.union(&b)));
        let mut i = a.clone();
        i.intersect_with(&b);
        prop_assert!(i.is_subset(&a) && i.is_subset(&b));
        let mut diff = a.clone();
        diff.subtract(&b);
        prop_assert!(diff.is_disjoint(&b));
        prop_assert_eq!(diff.len() + i.len(), a.len());
        // Iteration is sorted and duplicate-free.
        let items: Vec<NodeId> = a.iter().collect();
        let mut sorted = items.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(items, sorted);
    }

    /// Restricting a mask restricts reachability monotonically.
    #[test]
    fn mask_monotonicity(g in arb_dag()) {
        let full = g.all_nodes();
        // Drop the last node from the mask.
        let mut sub = full.clone();
        let last = NodeId(g.len() as u32 - 1);
        sub.remove(last);
        let d_full = descendants(&g, &full).unwrap();
        let d_sub = descendants(&g, &sub).unwrap();
        for u in sub.iter() {
            for v in d_sub[u.index()].iter() {
                prop_assert!(d_full[u.index()].contains(v));
            }
        }
    }
}
