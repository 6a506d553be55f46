//! Dependence-graph substrate for anticipatory instruction scheduling.
//!
//! This crate provides the data structures shared by every other crate in
//! the workspace:
//!
//! * [`DepGraph`] — a dependence graph whose nodes are instructions (with an
//!   execution time and a functional-unit class) and whose edges carry a
//!   `<latency, distance>` label exactly as in Sarkar & Simons (SPAA 1996,
//!   Section 5): `distance = 0` is a loop-independent dependence and
//!   `distance > 0` a loop-carried one.
//! * [`NodeSet`] — a dense bitset over graph nodes, used to run every
//!   algorithm on an arbitrary subset of a graph (e.g. `old ∪ new` in the
//!   paper's `merge` procedure) without re-indexing.
//! * [`Schedule`] — start times and unit assignments, plus idle-slot
//!   queries (the paper's central notion).
//! * [`MachineModel`] — functional units plus the lookahead-window size
//!   `W` of the target processor.
//! * [`validate`] — an independent checker that a schedule satisfies all
//!   dependence, latency, unit-capacity and deadline constraints. Every
//!   scheduler in the workspace is tested against it.
//!
//! The graph is deliberately simple and owned (`Vec`-backed, `u32` ids):
//! basic blocks are small, and the algorithms of the paper are quadratic in
//! the worst case anyway, so clarity wins over pointer tricks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bound;
mod critical;
mod ctx;
mod dot;
mod edge;
mod graph;
mod machine;
mod node;
mod reach;
mod schedule;
mod set;
mod topo;
pub mod validate;

pub use bound::{capacity_bound, critical_path_bound, earliest_starts, makespan_lower_bound};
pub use critical::{critical_path_length, height_priority, heights};
pub use ctx::{
    Analysis, AnalysisCache, BackwardMode, ListScratch, RankScratch, SchedCtx, SchedOpts, Scratch,
    SimScratch, DEFAULT_CACHE_CAPACITY,
};
pub use dot::to_dot;
pub use edge::{DepEdge, DepKind};
pub use graph::DepGraph;
pub use machine::{FuClass, MachineModel, UnitMasks};
pub use node::{BlockId, NodeData, NodeId};
pub use reach::{ancestors, descendants};
pub use schedule::Schedule;
pub use set::{set_bits, NodeSet};
pub use topo::{topo_order, CycleError};
