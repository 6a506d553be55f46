//! Baseline instruction schedulers.
//!
//! The comparators from the paper's Related Work section (Section 6) and
//! its future-work evaluation plan ("compare their effectiveness with
//! known local and global scheduling algorithms"):
//!
//! * [`source_order`] — emit instructions as written (no scheduling).
//! * [`critical_path`] — classic list scheduling by decreasing
//!   critical-path height.
//! * [`gibbons_muchnick`] — the O(n²) heuristic of Gibbons & Muchnick
//!   (SIGPLAN'86): prefer a ready instruction that does not interlock
//!   with the previously scheduled one, then one with more successors,
//!   then the longer path.
//! * [`coffman_graham`] — Coffman–Graham lexicographic labelling
//!   (optimal for two-processor unit-time scheduling; a strong list
//!   priority in general).
//! * [`bernstein_gertner`] — labelling in the spirit of Bernstein &
//!   Gertner (TOPLAS'89), which generalizes Coffman–Graham to latencies
//!   of 0/1 on a single pipeline.
//! * [`warren`] — a Warren-style (IBM RISC System/6000 product compiler)
//!   prioritized greedy scheduler: critical path first, ties by source
//!   order, with an interlock-avoidance nudge.
//! * [`global_oracle`] — *trace scheduling* upper bound: schedules the
//!   whole trace as one block, ignoring block boundaries (code motion
//!   the safe anticipatory scheduler is not allowed to perform).
//!
//! All of these schedule **each basic block independently** (except the
//! oracle) and are evaluated by running their emitted orders through the
//! lookahead-window simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bernstein;
mod coffman;
mod gibbons;
mod registry;
mod simple;
mod warren;

pub use bernstein::bernstein_gertner;
pub use coffman::{coffman_graham, coffman_graham_labels};
pub use gibbons::gibbons_muchnick;
pub use registry::{all_baselines, Baseline, BlockScheduler};
pub use simple::{critical_path, global_oracle, source_order};
pub use warren::warren;
