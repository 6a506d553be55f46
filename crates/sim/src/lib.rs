//! Lookahead-window machine simulator.
//!
//! Implements the hardware model of Sarkar & Simons (SPAA 1996), Section
//! 2.3: *"Let W be the size of the lookahead window. At any given instant,
//! the window contains a sequence of W instructions that occur
//! contiguously in the program's dynamic instruction stream. The processor
//! hardware is capable of issuing and executing any of these W
//! instructions in the window that is ready for execution. The window
//! moves ahead only when the first instruction in the window has been
//! issued."*
//!
//! The simulator consumes a *dynamic instruction stream* — per-block
//! compiler-emitted orders concatenated along a trace, or a loop body
//! repeated for `n` iterations — and executes it cycle by cycle. Within
//! the window, ready instructions issue in stream order (the paper's
//! Ordering Constraint: the hardware never issues a later ready
//! instruction before an earlier ready one).
//!
//! This is the ground truth for every experiment: a compile-time schedule
//! is only as good as the cycle count this model assigns to the emitted
//! instruction order.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod branch;
mod stats;
mod steady;
mod stream;
mod window;

pub use asched_graph::{SchedCtx, SchedOpts, SimScratch};
pub use branch::{expected_cycles, simulate_with_prediction};
pub use stats::{schedule_of, timeline, utilization, SimStats};
pub use steady::{loop_completion, steady_period};
pub use stream::{InstStream, StreamInst};
pub use window::{simulate, IssuePolicy, SimResult};
