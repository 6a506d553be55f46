//! The Rank Algorithm and idle-slot delaying.
//!
//! This crate implements the base scheduler of Sarkar & Simons (SPAA
//! 1996):
//!
//! * [`compute_ranks`] — the deadline-driven *rank* computation of Palem &
//!   Simons (TOPLAS'93), as summarized in paper Section 2.1. The rank of a
//!   node `x` is an upper bound on the completion time of `x` if `x` and
//!   all of its descendants are to complete by their deadlines.
//! * [`list_schedule`] — greedy list scheduling from an arbitrary priority
//!   list (the paper's step 3, also reused by every baseline scheduler).
//! * [`rank_schedule`] — ranks + nondecreasing-rank list + greedy,
//!   returning the schedule: the ranks only order the list, and every
//!   later step (merge probes, idle-slot moves, chop) reads the schedule
//!   and the deadlines alone, so the ranks and the list stay in the
//!   context's scratch ([`compute_ranks`] hands out the ranks). Optimal
//!   for 0/1 latencies, unit execution times and a single functional
//!   unit, and a minimum-tardiness scheduler under deadlines.
//! * [`move_idle_slot`] / [`delay_idle_slots`] — the paper's Section 3
//!   extension that pushes idle slots as late as possible by tightening
//!   deadlines (Figure 4 / Figure 6), the key enabler of anticipatory
//!   scheduling.
//!
//! The exact optimum these algorithms are checked against lives in the
//! `asched-exact` crate, the workspace's one exact-makespan oracle (the
//! property tests here and experiment E7 ask it).
//!
//! Every algorithm here takes a `&mut` [`SchedCtx`] (re-exported from
//! `asched-graph`) carrying the memoized graph analyses and reusable
//! scratch buffers, plus a [`SchedOpts`] bundling release times, the
//! backward-scheduling mode and the event recorder. There is exactly one
//! entry point per algorithm; the old `*_release` / `*_rec` / `*_mode`
//! variants are gone. Reusing one context across calls on the same
//! `(graph, mask)` makes repeated ranking — idle-slot delaying, merge
//! probes, tardiness searches — allocation-free after warm-up, with
//! bit-identical results to a fresh context.
//!
//! # Fidelity note
//!
//! The rank computation is reconstructed from the conference paper's
//! summary (the detailed TOPLAS'93 procedure and the companion TR are
//! not reproduced verbatim). The reconstruction is *sound* — every rank
//! is a valid upper bound, verified by property tests — and empirically
//! **makespan-optimal** in the restricted case (hundreds of instances
//! against the exact branch-and-bound optimum, experiment E7).
//! Deadline-*feasibility* probing is near-exact: on rare tie patterns
//! the greedy pass misses a feasible deadline assignment by one cycle,
//! so [`rank_schedule`] backs the rank list with an
//! earliest-deadline-first retry, and callers (`merge` in
//! `asched-core`, [`min_max_tardiness`]) treat infeasibility as a probe
//! answer with guaranteed-feasible fallbacks, never as a hard fact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod deadline;
mod idle;
mod list;
mod ranks;
mod tardiness;

pub use asched_graph::{BackwardMode, SchedCtx, SchedOpts};
pub use deadline::Deadlines;
pub use idle::{delay_idle_slots, move_idle_slot, MoveOutcome};
pub use list::list_schedule;
pub use ranks::{compute_ranks, rank_schedule, rank_schedule_default, RankError};
pub use tardiness::{max_tardiness, min_max_tardiness};
