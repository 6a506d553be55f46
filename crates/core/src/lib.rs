//! Anticipatory instruction scheduling (the paper's primary contribution).
//!
//! *Anticipatory instruction scheduling* rearranges instructions **within
//! each basic block** so as to minimize the completion time of a whole
//! trace of basic blocks *as executed by hardware instruction lookahead*,
//! without moving any instruction across a block boundary (Sarkar &
//! Simons, SPAA 1996).
//!
//! * [`schedule_trace`] — Algorithm `Lookahead` (paper Figure 5) for a
//!   trace `BB1, …, BBm` under window size `W`, built from [`merge`]
//!   (Figure 7), `Delay_Idle_Slots` (Figure 6, in `asched-rank`) and
//!   [`chop`] (Figure 6). Provably optimal in the restricted case (0/1
//!   latencies, unit execution times, single functional unit); the
//!   Section 4.2 heuristic otherwise.
//! * [`schedule_blocks_independent`] — the "no trace information"
//!   fallback from the introduction: schedule each block on its own and
//!   move its idle slots as late as possible.
//! * [`schedule_loop_trace`] — Section 5.1: a trace of two or more blocks
//!   enclosed in a loop.
//! * [`schedule_single_block_loop`] — Section 5.2: single-block loops via
//!   the dummy-sink (5.2.1), dummy-source (5.2.2) and general candidate
//!   (5.2.3) transformations, selecting the best steady-state schedule.
//! * [`legal`] — Definitions 2.1–2.3 (Window Constraint, Ordering
//!   Constraint) as an executable legality oracle.
//!
//! Every scheduling entry point takes a `&mut` [`SchedCtx`] (one per
//! trace or per worker thread) and a [`SchedOpts`]; see `asched-graph`
//! for the context/options contract. There is exactly one entry point
//! per algorithm — the former `*_rec` recorder variants are subsumed by
//! `SchedOpts::with_recorder`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chop;
mod config;
mod error;
pub mod legal;
mod lookahead;
mod loops;
mod merge;
mod single_block;
mod trace;

pub use asched_graph::{BackwardMode, SchedCtx, SchedOpts};
pub use chop::{chop, ChopResult};
pub use config::LookaheadConfig;
pub use error::CoreError;
pub use lookahead::{schedule_trace, TraceResult};
pub use loops::{schedule_loop_trace, LoopTraceResult};
pub use merge::merge;
pub use single_block::{
    dummy_sink_transform, dummy_source_transform, schedule_single_block_loop, CandidateKind,
    CandidateReport, SingleBlockLoopResult, LOOP_EVAL_ITERS, LOOP_EVAL_WINDOW,
};
pub use trace::{per_block_fallback, schedule_blocks_independent};
