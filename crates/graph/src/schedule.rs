//! Schedule container and idle-slot queries.

use crate::graph::DepGraph;
use crate::machine::MachineModel;
use crate::node::NodeId;
use crate::set::NodeSet;
use std::fmt;

/// A schedule: a start time and functional-unit assignment per node.
///
/// A schedule may cover only a subset of a graph's nodes (the `mask` the
/// scheduler ran on); unscheduled nodes report `None`. Times are integer
/// cycles starting at 0 (paper convention: the *completion time* of a node
/// starting at `t` with execution time `e` is `t + e`; makespan is the
/// completion time of the last instruction).
///
/// The scheduled ids are also kept as a [`NodeSet`], so every query
/// below visits the scheduled nodes (plus a scan of the set's words),
/// not all `n` slots: a Rank run's schedule of a ~25-node mask inside a
/// much longer trace is queried once per idle-slot attempt. The set is
/// a function of the start times, so equality still means "same
/// assignments".
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Schedule {
    start: Vec<Option<u64>>,
    end: Vec<Option<u64>>,
    unit: Vec<Option<u32>>,
    scheduled: NodeSet,
    makespan: u64,
}

impl Schedule {
    /// Empty schedule for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        Schedule {
            start: vec![None; n],
            end: vec![None; n],
            unit: vec![None; n],
            scheduled: NodeSet::new(n),
            makespan: 0,
        }
    }

    /// Record that `id` starts at `start` on unit `unit` and runs for
    /// `exec_time` cycles.
    pub fn assign(&mut self, id: NodeId, start: u64, unit: usize, exec_time: u32) {
        assert!(exec_time >= 1, "execution time must be positive");
        assert!(
            self.start[id.index()].is_none(),
            "node {id} scheduled twice"
        );
        let end = start + exec_time as u64;
        self.start[id.index()] = Some(start);
        self.end[id.index()] = Some(end);
        self.unit[id.index()] = Some(unit as u32);
        self.scheduled.insert(id);
        self.makespan = self.makespan.max(end);
    }

    /// Start time of `id`, if scheduled.
    #[inline]
    pub fn start(&self, id: NodeId) -> Option<u64> {
        self.start[id.index()]
    }

    /// Completion time of `id`, if scheduled.
    #[inline]
    pub fn completion(&self, id: NodeId) -> Option<u64> {
        self.end[id.index()]
    }

    /// Functional unit of `id`, if scheduled.
    #[inline]
    pub fn unit(&self, id: NodeId) -> Option<usize> {
        self.unit[id.index()].map(|u| u as usize)
    }

    /// Completion time of the last instruction (0 for an empty schedule).
    #[inline]
    pub fn makespan(&self) -> u64 {
        self.makespan
    }

    /// Number of node slots (the graph size this schedule was built for).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.start.len()
    }

    /// Ids of all scheduled nodes, in increasing id order.
    pub fn scheduled(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.scheduled.iter()
    }

    /// Number of scheduled nodes.
    pub fn num_scheduled(&self) -> usize {
        self.scheduled.len()
    }

    /// Scheduled nodes ordered by (start time, unit).
    ///
    /// On a single-unit machine this is the *permutation* the paper
    /// identifies a schedule with (Definition 2.1).
    pub fn order(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.scheduled().collect();
        v.sort_by_key(|&id| {
            (
                self.start[id.index()].unwrap(),
                self.unit[id.index()].unwrap(),
            )
        });
        v
    }

    /// Per-cycle busy counts for each unit: `busy[u][t]` is true iff unit
    /// `u` is executing some instruction during cycle `t`.
    pub fn busy_map(&self, machine: &MachineModel) -> Vec<Vec<bool>> {
        let t_max = self.makespan as usize;
        let mut busy = vec![vec![false; t_max]; machine.num_units()];
        for id in self.scheduled() {
            let u = self.unit(id).unwrap();
            let (s, e) = (self.start(id).unwrap(), self.completion(id).unwrap());
            for t in s..e {
                debug_assert!(!busy[u][t as usize], "unit {u} double-booked at {t}");
                busy[u][t as usize] = true;
            }
        }
        busy
    }

    /// Idle slots on a **single-unit** machine: the cycles `t <
    /// makespan` during which the unit is not executing anything, in
    /// increasing order.
    ///
    /// This is the paper's notion of an idle slot (Section 3). Panics if
    /// called for a multi-unit machine — use [`Schedule::idle_slots_unit`]
    /// there.
    pub fn idle_slots(&self, machine: &MachineModel) -> Vec<u64> {
        assert!(
            machine.is_single_unit(),
            "idle_slots is defined for single-unit machines; use idle_slots_unit"
        );
        self.idle_slots_unit(machine, 0)
    }

    /// Idle cycles of one particular unit, in increasing order.
    ///
    /// Builds only this unit's occupancy row — the idle-slot delaying
    /// loops call this once per iteration, so materializing the full
    /// [`Schedule::busy_map`] here would waste `num_units x makespan`
    /// work per call.
    pub fn idle_slots_unit(&self, machine: &MachineModel, unit: usize) -> Vec<u64> {
        assert!(unit < machine.num_units(), "unit {unit} out of range");
        let mut busy = vec![false; self.makespan as usize];
        for id in self.scheduled() {
            if self.unit(id) == Some(unit) {
                for t in self.start(id).unwrap()..self.completion(id).unwrap() {
                    busy[t as usize] = true;
                }
            }
        }
        (0..self.makespan).filter(|&t| !busy[t as usize]).collect()
    }

    /// The node occupying cycle `t` on `unit` (i.e. `start <= t < end`),
    /// if any.
    pub fn occupant(&self, unit: usize, t: u64) -> Option<NodeId> {
        self.scheduled().find(|&id| {
            self.unit(id) == Some(unit)
                && self.start(id).unwrap() <= t
                && t < self.completion(id).unwrap()
        })
    }

    /// The node that *completes exactly at* time `t` on `unit`, if any.
    ///
    /// For unit execution times this is the paper's *tail node*: the node
    /// scheduled at time `t - 1`, just prior to an idle slot at `t`.
    pub fn tail_node(&self, unit: usize, t: u64) -> Option<NodeId> {
        self.scheduled()
            .find(|&id| self.unit(id) == Some(unit) && self.completion(id) == Some(t))
    }

    /// Shift every start time down by `delta` (used by `chop` when
    /// re-basing a suffix schedule to time 0). Panics if any scheduled
    /// node would start before 0.
    pub fn rebase(&mut self, delta: u64) {
        let mut makespan = 0;
        for id in self.scheduled.iter() {
            let i = id.index();
            let s = self.start[i].unwrap();
            assert!(s >= delta, "rebase would move a node before time 0");
            self.start[i] = Some(s - delta);
            let e = self.end[i].unwrap() - delta;
            self.end[i] = Some(e);
            makespan = makespan.max(e);
        }
        self.makespan = makespan;
    }

    /// Restrict the schedule to `mask`, dropping all other assignments and
    /// recomputing the makespan.
    pub fn restrict(&self, mask: &NodeSet) -> Schedule {
        let mut s = Schedule::new(self.start.len());
        for id in self.scheduled() {
            if mask.contains(id) {
                let st = self.start(id).unwrap();
                let e = (self.completion(id).unwrap() - st) as u32;
                s.assign(id, st, self.unit(id).unwrap(), e);
            }
        }
        s
    }

    /// Render the schedule as a compact single-line Gantt string using the
    /// graph's node labels, e.g. `|x|e|r|w|b| |a|` (single unit only).
    pub fn gantt(&self, g: &DepGraph, machine: &MachineModel) -> String {
        let mut rows = Vec::new();
        for u in 0..machine.num_units() {
            let mut row = String::from("|");
            for t in 0..self.makespan {
                match self.occupant(u, t) {
                    Some(id) => {
                        let lab = &g.node(id).label;
                        if self.start(id) == Some(t) {
                            row.push_str(lab);
                        } else {
                            // continuation of a multi-cycle instruction
                            row.push('.');
                        }
                    }
                    None => row.push(' '),
                }
                row.push('|');
            }
            rows.push(row);
        }
        rows.join("\n")
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule[makespan={}](", self.makespan)?;
        let mut first = true;
        for id in self.order() {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "{}@{}", id, self.start(id).unwrap())?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::BlockId;

    fn machine() -> MachineModel {
        MachineModel::single_unit(2)
    }

    #[test]
    fn assign_and_makespan() {
        let mut s = Schedule::new(3);
        s.assign(NodeId(0), 0, 0, 1);
        s.assign(NodeId(2), 3, 0, 2);
        assert_eq!(s.makespan(), 5);
        assert_eq!(s.start(NodeId(0)), Some(0));
        assert_eq!(s.completion(NodeId(2)), Some(5));
        assert_eq!(s.start(NodeId(1)), None);
        assert_eq!(s.num_scheduled(), 2);
    }

    #[test]
    #[should_panic(expected = "scheduled twice")]
    fn double_assignment_panics() {
        let mut s = Schedule::new(1);
        s.assign(NodeId(0), 0, 0, 1);
        s.assign(NodeId(0), 1, 0, 1);
    }

    #[test]
    fn idle_slots_single_unit() {
        let mut s = Schedule::new(3);
        s.assign(NodeId(0), 0, 0, 1);
        s.assign(NodeId(1), 2, 0, 1); // idle at 1
        s.assign(NodeId(2), 5, 0, 1); // idle at 3, 4
        assert_eq!(s.idle_slots(&machine()), vec![1, 3, 4]);
    }

    #[test]
    fn idle_slots_with_multicycle_instruction() {
        let mut s = Schedule::new(2);
        s.assign(NodeId(0), 0, 0, 3); // busy 0,1,2
        s.assign(NodeId(1), 4, 0, 1);
        assert_eq!(s.idle_slots(&machine()), vec![3]);
    }

    #[test]
    fn tail_node_and_occupant() {
        let mut s = Schedule::new(2);
        s.assign(NodeId(0), 1, 0, 2); // occupies 1,2; completes at 3
        assert_eq!(s.occupant(0, 1), Some(NodeId(0)));
        assert_eq!(s.occupant(0, 2), Some(NodeId(0)));
        assert_eq!(s.occupant(0, 0), None);
        assert_eq!(s.tail_node(0, 3), Some(NodeId(0)));
        assert_eq!(s.tail_node(0, 2), None);
    }

    #[test]
    fn order_is_by_time_then_unit() {
        let m = MachineModel::uniform(2, 2);
        let mut s = Schedule::new(3);
        s.assign(NodeId(2), 0, 1, 1);
        s.assign(NodeId(1), 0, 0, 1);
        s.assign(NodeId(0), 1, 0, 1);
        assert_eq!(s.order(), vec![NodeId(1), NodeId(2), NodeId(0)]);
        // sanity: busy map has no double-booking
        let busy = s.busy_map(&m);
        assert!(busy[0][0] && busy[1][0] && busy[0][1]);
    }

    #[test]
    fn rebase_shifts_everything() {
        let mut s = Schedule::new(2);
        s.assign(NodeId(0), 3, 0, 1);
        s.assign(NodeId(1), 5, 0, 1);
        s.rebase(3);
        assert_eq!(s.start(NodeId(0)), Some(0));
        assert_eq!(s.start(NodeId(1)), Some(2));
        assert_eq!(s.makespan(), 3);
    }

    #[test]
    fn restrict_drops_other_nodes() {
        let mut s = Schedule::new(3);
        s.assign(NodeId(0), 0, 0, 1);
        s.assign(NodeId(1), 1, 0, 1);
        s.assign(NodeId(2), 2, 0, 1);
        let mut mask = NodeSet::new(3);
        mask.insert(NodeId(1));
        let r = s.restrict(&mask);
        assert_eq!(r.num_scheduled(), 1);
        assert_eq!(r.start(NodeId(1)), Some(1));
        assert_eq!(r.makespan(), 2);
    }

    #[test]
    fn gantt_rendering() {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        let mut s = Schedule::new(2);
        s.assign(a, 0, 0, 1);
        s.assign(b, 2, 0, 1);
        assert_eq!(s.gantt(&g, &machine()), "|a| |b|");
    }
}
