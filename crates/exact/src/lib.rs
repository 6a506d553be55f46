//! Exact branch-and-bound scheduling with certified optimality intervals.
//!
//! This crate is the workspace's one exact-makespan oracle: experiment
//! E7 and every optimality property test ask it. It answers the
//! question *"how far from optimal is this schedule?"* with a
//! **certificate** — either the exact optimum, or a proven interval
//! `[lower_bound, best_found]` that brackets it — never with an
//! unbounded search. Its differential tests hold it to a naive memoized
//! enumerator that lives only under `tests/`.
//!
//! # Search design
//!
//! [`certify`] runs an iterative-deepening branch-and-bound over issue
//! slots (the same state space as naive enumeration: at each decision
//! point either start a ready instruction on a free unit *now*, or
//! advance time to the next event). Three ingredients make it scale well
//! past naive enumeration:
//!
//! * **Admissible analytic bounds.** Every state is bounded below by
//!   `max(dependence bound, capacity bound)`: the dependence bound is
//!   `max over unscheduled x of est(x) + height(x)` (with `est` the
//!   earliest start implied by ASAP times, inherited release
//!   constraints and the clock), and the capacity bound *water-fills*
//!   the remaining work of each unit class over the availability times
//!   of the units that can run it. These are the per-state refinement
//!   of [`asched_graph::makespan_lower_bound`] (critical path vs. work
//!   over capacity, take the max).
//! * **Dominance and symmetry rules.** States are canonicalized as
//!   `(done-set, per-node release offsets relative to now, per-unit
//!   busy offsets sorted within each unit class)`, so interchangeable
//!   functional units and shifted-in-time replicas of the same future
//!   collapse; branching tries one free unit per distinct unit class.
//! * **Threshold search with a proven-bound memo.** Instead of one
//!   open-ended descent, the solver asks the decision question *"does a
//!   schedule of makespan `T` exist?"* for `T = analytic lower bound,
//!   T+1, …`. Each refuted threshold raises the **certified** lower
//!   bound by one; the first admitted threshold is the exact optimum.
//!   Subtrees refuted at threshold `T` are memoized as *"no completion
//!   below `T+1` from this state"* and reused by later iterations, so
//!   the re-descent is cheap (classic memoized IDA*).
//!
//! # Certification semantics
//!
//! The search spends a configurable number of state expansions
//! ([`ExactConfig::node_budget`] — a deterministic node count, never
//! wall-clock, so results are reproducible and benchmark-gateable).
//! On exhaustion it returns the interval assembled so far:
//!
//! * `lower_bound` — the largest `T` such that *every* schedule was
//!   proven to need at least `T` cycles (analytic bound at worst,
//!   raised by each completed threshold iteration).
//! * `best_found` — the best *feasible* makespan in hand (greedy
//!   height-priority and rank seeds, improved if the search finds the
//!   optimum).
//!
//! `lower_bound == best_found` iff the instance is solved exactly
//! ([`Certificate::complete`]). The optimum always lies inside the
//! interval, which is what lets [`certified_gap`] bracket the
//! suboptimality of *any* measured schedule — including windowed
//! Lookahead executions, whose whole-trace optimum this solver bounds
//! from below.
//!
//! Every certification is timed as one `Pass::Exact` span via the
//! recorder in [`SchedOpts`], so `asched-obs` profiles and trace
//! analyses see exact-solver time alongside the production passes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bnb;

use asched_graph::{CycleError, DepGraph, MachineModel, NodeSet, SchedCtx, SchedOpts};
use asched_obs::{timed, Pass};
use std::fmt;

/// Hard cap on instance size: the done-set is a `u64` bitmask.
///
/// Beyond 64 nodes a slot-exact search is hopeless regardless of
/// pruning, and the analytic bounds of `asched-graph` are the only
/// certification tool.
pub const MAX_NODES: usize = 64;

/// Budget and limits for one exact search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExactConfig {
    /// Maximum number of search-state expansions across all threshold
    /// iterations. Deterministic (a node count, not a clock); when the
    /// budget runs out mid-iteration the certificate keeps the lower
    /// bound proven by the *completed* iterations. `0` certifies from
    /// the analytic bounds and greedy seeds alone.
    pub node_budget: u64,
}

impl ExactConfig {
    /// A config with the given expansion budget.
    pub fn with_node_budget(node_budget: u64) -> Self {
        ExactConfig { node_budget }
    }
}

impl Default for ExactConfig {
    /// One million expansions: exhaustive for the workspace's 32-node
    /// experiment corpus in the common case, a few milliseconds when
    /// the analytic bounds are tight.
    fn default() -> Self {
        ExactConfig {
            node_budget: 1_000_000,
        }
    }
}

/// A proven bracket on the optimal makespan of one instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Certificate {
    /// Proven: every legal schedule needs at least this many cycles.
    pub lower_bound: u64,
    /// Achieved: a legal schedule with this makespan exists.
    pub best_found: u64,
    /// Search states expanded before returning.
    pub expanded: u64,
    /// True iff `lower_bound == best_found` was *proven* (the search
    /// finished); false means the budget ran out and the optimum is
    /// somewhere in `[lower_bound, best_found]`.
    pub complete: bool,
}

impl Certificate {
    /// Whether `v` lies inside the certified interval.
    pub fn contains(&self, v: u64) -> bool {
        self.lower_bound <= v && v <= self.best_found
    }

    /// Width of the certified interval (`0` iff solved exactly).
    pub fn width(&self) -> u64 {
        self.best_found - self.lower_bound
    }
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.complete {
            write!(f, "optimal {} ({} states)", self.best_found, self.expanded)
        } else {
            write!(
                f,
                "in [{}, {}] ({} states, budget exhausted)",
                self.lower_bound, self.best_found, self.expanded
            )
        }
    }
}

/// Why an exact search refused an instance.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExactError {
    /// The mask exceeds [`MAX_NODES`] nodes.
    TooLarge {
        /// Nodes in the offending mask.
        nodes: usize,
        /// The documented cap ([`MAX_NODES`]).
        cap: usize,
    },
    /// The masked loop-independent subgraph is cyclic.
    Cyclic(CycleError),
    /// The node budget ran out before optimality was proven; the
    /// certified interval assembled so far is inside.
    /// (Only [`optimal_makespan`] reports this as an error —
    /// [`certify`] returns the interval as a normal result.)
    BudgetExhausted(Certificate),
}

impl fmt::Display for ExactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExactError::TooLarge { nodes, cap } => write!(
                f,
                "exact scheduler limited to {cap} nodes (got {nodes}); \
                 use the analytic bounds for larger instances"
            ),
            ExactError::Cyclic(c) => write!(f, "{c}"),
            ExactError::BudgetExhausted(cert) => {
                write!(f, "node budget exhausted: optimum {cert}")
            }
        }
    }
}

impl std::error::Error for ExactError {}

/// Certified optimality gap of one measured schedule.
///
/// Built by [`certified_gap`]: the measured makespan of any *legal*
/// schedule of the instance (a windowed execution, a baseline, a
/// hand schedule) combined with the solver's certificate. Because the
/// measured schedule is itself feasible, it tightens the upper side of
/// the interval: `best_found <= measured` always holds here.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GapBound {
    /// The measured makespan being judged.
    pub measured: u64,
    /// The (possibly tightened) certificate for the instance.
    pub certificate: Certificate,
}

impl GapBound {
    /// Largest possible suboptimality: `measured - lower_bound`.
    pub fn gap_upper(&self) -> u64 {
        self.measured - self.certificate.lower_bound
    }

    /// Smallest possible suboptimality: `measured - best_found`.
    pub fn gap_lower(&self) -> u64 {
        self.measured - self.certificate.best_found
    }

    /// True iff the gap is known exactly (`gap_lower == gap_upper`).
    pub fn is_exact(&self) -> bool {
        self.certificate.complete
    }
}

/// Certify the optimal makespan of `mask` on `machine`.
///
/// Returns the exact optimum (`complete == true`) when the search
/// finishes within [`ExactConfig::node_budget`] expansions, and a
/// proven `[lower_bound, best_found]` interval otherwise. Loop-carried
/// edges are ignored, like everywhere else in single-block scheduling;
/// `opts.release` per-node earliest-issue times are honored.
///
/// Deterministic: same instance + same budget ⇒ same certificate.
pub fn certify(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
    cfg: &ExactConfig,
    opts: &SchedOpts,
) -> Result<Certificate, ExactError> {
    let nodes = mask.len();
    if nodes > MAX_NODES {
        return Err(ExactError::TooLarge {
            nodes,
            cap: MAX_NODES,
        });
    }
    timed(opts.rec, Pass::Exact, || {
        bnb::solve(ctx, g, mask, machine, cfg, opts)
    })
}

/// The exact optimal makespan, or [`ExactError::BudgetExhausted`]
/// carrying the certified interval when the budget runs out first.
pub fn optimal_makespan(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
    cfg: &ExactConfig,
    opts: &SchedOpts,
) -> Result<u64, ExactError> {
    let cert = certify(ctx, g, mask, machine, cfg, opts)?;
    if cert.complete {
        Ok(cert.best_found)
    } else {
        Err(ExactError::BudgetExhausted(cert))
    }
}

/// Bracket the suboptimality of a measured makespan.
///
/// `measured` must come from a *legal* schedule of `(g, mask, machine)`
/// — e.g. a windowed Lookahead execution or a baseline — which makes it
/// a feasible upper bound: the certificate's `best_found` is tightened
/// to `min(best_found, measured)`, and if that closes the interval the
/// gap becomes exact even when the search itself was budget-limited.
pub fn certified_gap(
    ctx: &mut SchedCtx,
    g: &DepGraph,
    mask: &NodeSet,
    machine: &MachineModel,
    measured: u64,
    cfg: &ExactConfig,
    opts: &SchedOpts,
) -> Result<GapBound, ExactError> {
    let mut cert = certify(ctx, g, mask, machine, cfg, opts)?;
    debug_assert!(
        measured >= cert.lower_bound,
        "measured makespan {measured} beats the proven lower bound \
         {} — the schedule it came from cannot be legal",
        cert.lower_bound
    );
    if measured < cert.best_found {
        cert.best_found = measured;
        if cert.best_found == cert.lower_bound {
            cert.complete = true;
        }
    }
    Ok(GapBound {
        measured,
        certificate: cert,
    })
}
