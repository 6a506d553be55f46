//! The cycle-level window simulator.

use crate::stream::InstStream;
use asched_graph::{DepGraph, MachineModel, SchedCtx, SchedOpts};
use asched_obs::{record, Event, Pass, Recorder, StallKind};

/// How the hardware arbitrates when an earlier ready instruction cannot
/// issue (e.g. its functional unit is busy) but a later ready one could.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum IssuePolicy {
    /// The paper's Ordering Constraint, read strictly: the hardware never
    /// issues a later ready instruction before an earlier ready one, so
    /// the in-window scan stops at the first ready-but-blocked
    /// instruction. On a single-unit machine this is equivalent to
    /// [`IssuePolicy::Scan`].
    #[default]
    Strict,
    /// Scan past ready-but-blocked instructions and issue later ready
    /// ones on other units (a more aggressive multi-unit hardware).
    Scan,
}

/// Result of simulating a stream.
#[derive(Clone, Debug)]
pub struct SimResult {
    /// Completion time of the whole stream (makespan).
    pub completion: u64,
    /// Issue (start) cycle per stream index.
    pub issue: Vec<u64>,
    /// Finish cycle per stream index.
    pub finish: Vec<u64>,
    /// Cycles during which work was pending but nothing issued.
    pub stall_cycles: u64,
}

/// Simulate `stream` on `machine` with the paper's lookahead-window
/// model.
///
/// Dependences come from `g` (all edges, including loop-carried ones):
/// instance `(v, k)` waits for `finish(u, k - distance) + latency` for
/// every in-edge `u → v`; producer instances that are not in the stream
/// (e.g. iterations before the first) impose no constraint.
///
/// `opts.release` supplies per-*position* release times: stream position
/// `j` cannot issue before `release[j]`, regardless of its in-stream
/// producers (the branch-misprediction model uses this to carry
/// dependences from instructions that completed in a flushed-away window
/// segment). Note the positional meaning — every other algorithm indexes
/// release by node. An enabled `opts.rec` sees the run as one timed
/// `simulate` pass: every issue emits an `issue` event, every executed
/// cycle a `window_occupancy` snapshot, and every no-progress stretch
/// one `stall` event (classified `head_blocked` when the window head was
/// ready but its functional unit busy, `data_wait` otherwise) covering
/// all consecutive stalled cycles.
///
/// The simulator's working state (occurrence map, producer lists, issue
/// flags, unit clocks) lives in `ctx.scratch.sim`, so steady-state
/// measurements that simulate the same loop at many iteration counts
/// reuse their buffers; only the returned issue/finish vectors allocate.
///
/// ```
/// use asched_graph::{BlockId, DepGraph, MachineModel, SchedCtx, SchedOpts};
/// use asched_sim::{simulate, InstStream, IssuePolicy};
///
/// // a -(2 cycles)-> b, with independent c emitted after b.
/// let mut g = DepGraph::new();
/// let a = g.add_simple("a", BlockId(0));
/// let b = g.add_simple("b", BlockId(0));
/// let c = g.add_simple("c", BlockId(0));
/// g.add_dep(a, b, 2);
///
/// let stream = InstStream::from_order(&[a, b, c]);
/// let mut ctx = SchedCtx::new();
/// let opts = SchedOpts::default();
/// // No lookahead: c waits behind the stalled b.
/// let w1 = simulate(&mut ctx, &g, &MachineModel::single_unit(1), &stream, IssuePolicy::Strict, &opts);
/// assert_eq!(w1.completion, 5);
/// // A 2-entry window slides c into the latency gap.
/// let w2 = simulate(&mut ctx, &g, &MachineModel::single_unit(2), &stream, IssuePolicy::Strict, &opts);
/// assert_eq!(w2.completion, 4);
/// ```
///
/// # Panics
///
/// Panics if the stream places a producer *after* its same-iteration
/// consumer (a malformed emitted order — the hardware would deadlock),
/// or if `opts.release` is shorter than the stream.
pub fn simulate(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    stream: &InstStream,
    policy: IssuePolicy,
    opts: &SchedOpts,
) -> SimResult {
    asched_obs::timed(opts.rec, Pass::Simulate, || {
        simulate_inner(ctx, g, machine, stream, policy, opts.release, opts.rec)
    })
}

/// The cycle from which stream position `j` may issue: the latest of
/// its release time and each producer's finish plus latency, or `None`
/// while a producer has yet to issue.
#[inline]
fn ready_time(
    j: usize,
    release: Option<&[u64]>,
    producers: &[(usize, u32)],
    issued: &[bool],
    finish: &[u64],
) -> Option<u64> {
    let mut ready = release.map_or(0, |r| r[j]);
    for &(p, lat) in producers {
        if !issued[p] {
            return None;
        }
        ready = ready.max(finish[p] + lat as u64);
    }
    Some(ready)
}

fn simulate_inner(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    stream: &InstStream,
    policy: IssuePolicy,
    release: Option<&[u64]>,
    rec: &dyn Recorder,
) -> SimResult {
    let items = stream.items();
    if let Some(rel) = release {
        assert!(rel.len() >= items.len(), "release must cover the stream");
    }
    // A machine/graph mismatch would otherwise surface as a bogus
    // "deadlock" deep in the issue loop — reject it up front.
    for inst in items {
        let class = g.node(inst.node).class;
        assert!(
            machine.units_for(class).next().is_some(),
            "no functional unit on this machine can run node {} (class {class:?})",
            inst.node
        );
    }
    let n = items.len();
    let w = machine.window;
    let crate::SimScratch {
        occ,
        producers,
        issued,
        unit_free,
    } = &mut ctx.scratch.sim;

    // Occurrence map: (node, iter) -> stream position.
    occ.clear();
    occ.reserve(n);
    for (j, inst) in items.iter().enumerate() {
        let prev = occ.insert((inst.node.0, inst.iter), j);
        assert!(
            prev.is_none(),
            "instance ({}, iter {}) appears twice in the stream",
            inst.node,
            inst.iter
        );
    }

    // Per-instance producer lists: (producer position, latency). The
    // outer Vec is truncated, never shrunk, so inner allocations from
    // earlier (possibly longer) streams are reused.
    if producers.len() < n {
        producers.resize_with(n, Vec::new);
    }
    for (j, inst) in items.iter().enumerate() {
        let ps = &mut producers[j];
        ps.clear();
        for e in g.in_edges(inst.node) {
            if e.distance > inst.iter {
                continue; // before the first iteration: no constraint
            }
            let k = inst.iter - e.distance;
            if let Some(&p) = occ.get(&(e.src.0, k)) {
                assert!(
                    p != j,
                    "self-dependence with distance 0 in the stream at {j}"
                );
                assert!(
                    p < j,
                    "producer {} (iter {k}) appears after its consumer {} in the stream",
                    e.src,
                    e.dst
                );
                ps.push((p, e.latency));
            }
        }
    }

    issued.clear();
    issued.resize(n, false);
    let mut issue = vec![0u64; n];
    let mut finish = vec![0u64; n];
    unit_free.clear();
    unit_free.resize(machine.num_units(), 0);
    let mut head = 0usize;
    let mut stall_cycles = 0u64;
    let mut t = 0u64;

    while head < n {
        let mut issued_this_cycle = false;
        let end = (head + w).min(n);
        if rec.enabled() {
            let occupancy = (head..end).filter(|&j| !issued[j]).count() as u32;
            rec.record(&Event::WindowOccupancy {
                cycle: t,
                occupancy,
            });
        }
        'scan: for j in head..end {
            if issued[j] {
                continue;
            }
            if ready_time(j, release, &producers[j], issued, &finish).is_none_or(|r| r > t) {
                continue; // not ready: the window looks past it
            }
            // Ready: find a free compatible unit.
            let class = g.node(items[j].node).class;
            match machine.units_for(class).find(|&u| unit_free[u] <= t) {
                Some(u) => {
                    let exec = g.exec_time(items[j].node) as u64;
                    issued[j] = true;
                    issue[j] = t;
                    finish[j] = t + exec;
                    unit_free[u] = t + exec;
                    issued_this_cycle = true;
                    record!(
                        rec,
                        Event::Issue {
                            cycle: t,
                            pos: j as u32,
                            node: items[j].node.0,
                            unit: u as u32,
                        }
                    );
                }
                None => match policy {
                    // Ready but blocked: a strict machine will not let
                    // anything later overtake it.
                    IssuePolicy::Strict => break 'scan,
                    IssuePolicy::Scan => continue,
                },
            }
        }
        while head < n && issued[head] {
            head += 1;
        }
        if head >= n {
            break;
        }
        if issued_this_cycle {
            // The window may have admitted new instructions; they can
            // issue at the next cycle at the earliest.
            t += 1;
            continue;
        }
        stall_cycles += 1;
        // Nothing issued: jump to the next event.
        let mut next = u64::MAX;
        for &f in unit_free.iter() {
            if f > t {
                next = next.min(f);
            }
        }
        let end = (head + w).min(n);
        for j in head..end {
            if issued[j] {
                continue;
            }
            match ready_time(j, release, &producers[j], issued, &finish) {
                Some(ready) if ready > t => next = next.min(ready),
                _ => {}
            }
        }
        assert!(
            next != u64::MAX,
            "simulator deadlocked at cycle {t} (head {head})"
        );
        if rec.enabled() {
            // Classify: was the head ready this cycle (only its unit
            // was busy) or still waiting on operand latency?
            let ready = ready_time(head, release, &producers[head], issued, &finish);
            let kind = if ready.is_some_and(|r| r <= t) {
                StallKind::HeadBlocked
            } else {
                StallKind::DataWait
            };
            rec.record(&Event::Stall {
                cycle: t,
                head: head as u32,
                kind,
                cycles: next - t,
            });
        }
        // Count the skipped stall cycles too.
        stall_cycles += next - t - 1;
        t = next;
    }

    let completion = finish.iter().copied().max().unwrap_or(0);
    SimResult {
        completion,
        issue,
        finish,
        stall_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asched_graph::{BlockId, DepKind};

    fn m(window: usize) -> MachineModel {
        MachineModel::single_unit(window)
    }

    fn sim(g: &DepGraph, machine: &MachineModel, s: &InstStream, policy: IssuePolicy) -> SimResult {
        simulate(
            &mut SchedCtx::new(),
            g,
            machine,
            s,
            policy,
            &SchedOpts::default(),
        )
    }

    /// Straight-line chain with latency: matches the static schedule.
    #[test]
    fn chain_simulates_like_schedule() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 2);
        let s = InstStream::from_order(&[a, b]);
        let r = sim(&g, &m(2), &s, IssuePolicy::Strict);
        assert_eq!(r.issue, vec![0, 3]);
        assert_eq!(r.completion, 4);
        assert_eq!(r.stall_cycles, 2);
    }

    /// W = 1 forces strict in-order issue even when a later instruction
    /// is ready.
    #[test]
    fn window_one_has_no_lookahead() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        let c = g.add_simple("c", BlockId(0)); // independent
        g.add_dep(a, b, 2);
        let s = InstStream::from_order(&[a, b, c]);
        let r1 = sim(&g, &m(1), &s, IssuePolicy::Strict);
        assert_eq!(r1.issue, vec![0, 3, 4]);
        assert_eq!(r1.completion, 5);
        // W = 2: c slides into the latency gap.
        let r2 = sim(&g, &m(2), &s, IssuePolicy::Strict);
        assert_eq!(r2.issue, vec![0, 3, 1]);
        assert_eq!(r2.completion, 4);
    }

    /// The window advances only when its head has issued: an instruction
    /// W positions past a stalled head cannot issue.
    #[test]
    fn window_does_not_advance_past_stalled_head() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0)); // stalls on a
        let c = g.add_simple("c", BlockId(0)); // independent
        let d = g.add_simple("d", BlockId(0)); // independent
        g.add_dep(a, b, 3);
        let s = InstStream::from_order(&[a, b, c, d]);
        // W=2: after a issues, window = {b, c}; b stalls until 4, c can
        // issue at 1 — but the window does NOT slide past the unissued
        // head b, so d stays outside until b issues at 4. d issues at 5.
        let r = sim(&g, &m(2), &s, IssuePolicy::Strict);
        assert_eq!(r.issue, vec![0, 4, 1, 5]);
        assert_eq!(r.completion, 6);
        // W=1: everything in order.
        let r1 = sim(&g, &m(1), &s, IssuePolicy::Strict);
        assert_eq!(r1.issue, vec![0, 4, 5, 6]);
    }

    /// Loop-carried dependences constrain later iterations.
    #[test]
    fn loop_carried_dependence_respected() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        // a[k] depends on a[k-1] with latency 2.
        g.add_edge(a, a, 2, 1, DepKind::Data);
        let s = InstStream::loop_iterations(&[[a]], 3);
        let r = sim(&g, &m(4), &s, IssuePolicy::Strict);
        assert_eq!(r.issue, vec![0, 3, 6]);
        assert_eq!(r.completion, 7);
    }

    /// Ordering Constraint: an earlier *ready* instruction issues before
    /// a later ready one.
    #[test]
    fn in_window_priority_is_stream_order() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        let s = InstStream::from_order(&[a, b]);
        let r = sim(&g, &m(2), &s, IssuePolicy::Strict);
        assert_eq!(r.issue[0], 0);
        assert_eq!(r.issue[1], 1);
    }

    /// Multi-unit: Strict stops at a ready-but-blocked instruction; Scan
    /// lets a later one use the other unit class.
    #[test]
    fn strict_vs_scan_policies() {
        use asched_graph::{FuClass, NodeData};
        let mut g = DepGraph::new();
        let f1 = g.add_node(NodeData {
            label: "f1".into(),
            exec_time: 2,
            class: FuClass::Float,
            block: BlockId(0),
            source_pos: 0,
        });
        let f2 = g.add_node(NodeData {
            label: "f2".into(),
            exec_time: 1,
            class: FuClass::Float,
            block: BlockId(0),
            source_pos: 1,
        });
        let i1 = g.add_node(NodeData {
            label: "i1".into(),
            exec_time: 1,
            class: FuClass::Fixed,
            block: BlockId(0),
            source_pos: 2,
        });
        let machine = MachineModel {
            units: vec![FuClass::Float, FuClass::Fixed],
            window: 3,
        };
        let s = InstStream::from_order(&[f1, f2, i1]);
        // Cycle 0: f1 issues (float unit busy until 2). f2 is ready but
        // blocked; Strict stops the scan there, so i1 cannot overtake it
        // and waits until f2 issues at cycle 2.
        let strict = sim(&g, &machine, &s, IssuePolicy::Strict);
        assert_eq!(strict.issue, vec![0, 2, 2]);
        // Scan skips the blocked f2 and issues i1 immediately.
        let scan = sim(&g, &machine, &s, IssuePolicy::Scan);
        assert_eq!(scan.issue, vec![0, 2, 0]);
    }

    #[test]
    fn empty_stream() {
        let g = DepGraph::new();
        let r = sim(&g, &m(2), &InstStream::default(), IssuePolicy::Strict);
        assert_eq!(r.completion, 0);
    }

    /// Regression (found in code review): a machine lacking a node's
    /// unit class must fail with a configuration error, not a bogus
    /// "simulator deadlocked" panic.
    #[test]
    #[should_panic(expected = "no functional unit")]
    fn incompatible_machine_rejected_up_front() {
        use asched_graph::{FuClass, NodeData};
        let mut g = DepGraph::new();
        let f = g.add_node(NodeData {
            label: "fadd".into(),
            exec_time: 1,
            class: FuClass::Float,
            block: BlockId(0),
            source_pos: 0,
        });
        let machine = MachineModel {
            units: vec![FuClass::Fixed],
            window: 4,
        };
        sim(
            &g,
            &machine,
            &InstStream::from_order(&[f]),
            IssuePolicy::Strict,
        );
    }

    #[test]
    #[should_panic(expected = "appears after its consumer")]
    fn malformed_stream_panics() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, 1);
        let s = InstStream::from_order(&[b, a]);
        sim(&g, &m(2), &s, IssuePolicy::Strict);
    }
}
