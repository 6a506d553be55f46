//! `asched-engine` — deterministic parallel batch scheduling.
//!
//! The paper's Algorithm `Lookahead` schedules one trace at a time;
//! this crate turns it into a corpus service. A batch of
//! [`TraceTask`]s (program × trace × window `W` × machine model) is
//! sharded across a `std::thread::scope` worker pool and resolved
//! against a content-addressed schedule cache keyed on what the
//! scheduler actually sees (block DAG + latencies + machine + config —
//! see [`fingerprint_task`]).
//!
//! Three properties are load-bearing:
//!
//! - **Determinism.** Results, cache counters and the emitted event
//!   stream (modulo `pass_end` wall-clock payloads) are byte-identical
//!   at any `jobs` setting: all cache decisions are planned
//!   sequentially in input order before workers start, and worker
//!   events are buffered and replayed in input order afterwards.
//! - **Robustness.** Every task runs under `catch_unwind` with an
//!   optional per-task step budget; a panic, scheduler error or
//!   exhausted budget degrades the task to the per-block Rank schedule
//!   (with a `Diagnostic` event) instead of aborting the batch.
//! - **Observability.** Cache traffic and task outcomes surface as
//!   `cache_query` / `cache_evict` / `task_done` events through the
//!   ordinary `asched-obs` [`Recorder`](asched_obs::Recorder) API,
//!   under a timed `engine` pass.
//!
//! See `docs/engine.md` for the architecture write-up and
//! `crates/bench/src/bin/batch.rs` (`asched-batch`) for the CLI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
mod engine;
mod fingerprint;
pub mod persist;
mod shared_cache;

pub use corpus::{machine_spec, parse_manifest, synth_corpus, CorpusError};
pub use engine::{BatchReport, Engine, EngineConfig, Solver, TaskReport, TaskValue, TraceTask};
pub use fingerprint::{fingerprint_task, Fingerprint, FINGERPRINT_DOMAIN};
pub use shared_cache::{SharedCacheStats, SharedScheduleCache, WarmStart};

/// Re-export of the outcome vocabulary shared with `asched-obs`.
pub use asched_obs::TaskOutcome;
