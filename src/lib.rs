//! # asched — Anticipatory Instruction Scheduling
//!
//! A reproduction of *Anticipatory Instruction Scheduling* (Vivek Sarkar
//! and Barbara Simons, SPAA 1996) as a Rust workspace. This facade crate
//! re-exports every sub-crate under one roof; see the README for a tour.
//!
//! ```
//! use asched::graph::{DepGraph, BlockId, MachineModel, SchedCtx};
//! use asched::rank::rank_schedule_default;
//!
//! let mut g = DepGraph::new();
//! let a = g.add_simple("a", BlockId(0));
//! let b = g.add_simple("b", BlockId(0));
//! g.add_dep(a, b, 1);
//! let m = MachineModel::single_unit(2);
//! // One reusable context per thread: caches analyses, recycles scratch.
//! let mut sc = SchedCtx::new();
//! let sched = rank_schedule_default(&mut sc, &g, &g.all_nodes(), &m).unwrap();
//! assert_eq!(sched.makespan(), 3); // a at 0, one idle cycle, b at 2
//! ```

#![forbid(unsafe_code)]

/// Baseline local/global schedulers (paper Section 6 comparators).
pub use asched_baselines as baselines;
/// Anticipatory scheduling for traces and loops (paper Sections 4 and 5).
pub use asched_core as core;
/// Parallel, cache-backed batch scheduling engine (`asched-batch`).
pub use asched_engine as engine;
/// Exact branch-and-bound scheduling: the one exact-makespan oracle.
pub use asched_exact as exact;
/// Dependence graphs, machine models, schedules and validation.
pub use asched_graph as graph;
/// Mini RISC IR with dependence analysis (paper Section 2.4 substrate).
pub use asched_ir as ir;
/// Structured tracing, pass profiling and event logs (`--trace`/`--profile`).
pub use asched_obs as obs;
/// Software pipelining / modulo scheduling (paper Section 2.4 post-pass).
pub use asched_pipeline as pipeline;
/// The Rank Algorithm and idle-slot delaying (paper Sections 2.1 and 3).
pub use asched_rank as rank;
/// The hermetic HTTP scheduling service and its load generator.
pub use asched_serve as serve;
/// The lookahead-window machine simulator (paper Section 2.3 model).
pub use asched_sim as sim;
/// Span-trace analysis and bench-snapshot regression diffing.
pub use asched_trace as trace;
/// Workload generators and paper fixtures.
pub use asched_workloads as workloads;
