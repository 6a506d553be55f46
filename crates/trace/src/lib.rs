//! # asched-trace — trace analysis and bench regression tooling
//!
//! The observability story has three layers: events (the JSONL wire
//! format `asched-obs` emits), spans (request/task correlation on top
//! of those events), and *this crate* — the offline toolchain that
//! turns a recorded trace back into answers:
//!
//! - [`model::Trace`] rebuilds the span forest from a JSONL file and
//!   checks its structure (zero orphans, zero unclosed spans);
//! - [`analyze`] renders span trees, per-pass and critical-path
//!   breakdowns, cache attribution, and folded stacks for flamegraph
//!   tooling;
//! - [`diff`] compares two `BENCH_*.json` snapshots with per-prefix
//!   drift thresholds (the `asched-bench-diff` binary, wired into CI).
//!
//! Binaries: `asched-trace FILE [--check] [--trees N] [--folded F]
//! [--min-coverage PCT]` and
//! `asched-bench-diff BASE NEW [--threshold PREFIX=FACTOR]...`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analyze;
pub mod diff;
pub mod json;
pub mod model;

pub use analyze::{
    cache_attribution, critical_path_passes, folded_stacks, pass_breakdown, render_tree, CacheRow,
};
pub use diff::{diff_metrics, drift_ratio, load_metrics, parse_threshold, DiffOutcome, DiffRow};
pub use model::{Orphan, Span, Trace};
