//! # asched-obs — observability for the anticipatory scheduling stack
//!
//! Structured tracing, pass profiling and cycle-level event logs for
//! the Sarkar–Simons scheduling pipeline. Three layers:
//!
//! * **Events** ([`event::Event`]): `Copy` descriptions of every
//!   observable decision — rank runs, idle-slot moves, `merge`
//!   probes/acceptances, `chop` cuts, window issues and stalls. Each is
//!   declared once, in the event table of [`event`], which also
//!   generates its JSONL writer and the validator's [`event::SCHEMA`].
//! * **Recorders** ([`recorder::Recorder`]): sinks. [`NullRecorder`]
//!   (the default) reports `enabled() == false`, so instrumented code
//!   never even constructs events; [`JsonlRecorder`] writes the
//!   documented JSONL schema; [`ProfileRecorder`] aggregates into a
//!   [`RunProfile`]; [`TeeRecorder`] composes them.
//! * **Profiles** ([`profile::RunProfile`]): counters + histograms +
//!   per-pass wall-clock, renderable as text (`--profile`) or JSON
//!   (bench reports, `BENCH_*.json`).
//!
//! Instrumented call sites look like:
//!
//! ```
//! use asched_obs::{record, Event, Recorder, NullRecorder};
//! fn hot_loop(rec: &dyn Recorder) {
//!     for cycle in 0..4u64 {
//!         record!(rec, Event::WindowOccupancy { cycle, occupancy: 2 });
//!     }
//! }
//! hot_loop(&NullRecorder); // no event is ever constructed
//! ```
//!
//! The JSONL wire format is documented in `docs/observability.md` and
//! machine-checked by [`schema::validate_line`]; [`json`] holds the
//! workspace's one JSON writer and one JSON reader.

#![warn(missing_docs)]

pub mod event;
pub mod json;
pub mod profile;
pub mod recorder;
pub mod schema;
pub mod span;

pub use event::{Event, MergeRung, OwnedEvent, Pass, Severity, StallKind, TaskOutcome};
pub use profile::{snapshot_json, Histogram, ProfileRecorder, RunProfile};
pub use recorder::{
    event_to_json, BufferRecorder, JsonlRecorder, NullRecorder, Recorder, StderrDiagnostics,
    TeeRecorder, NULL,
};
pub use span::{SpanAlloc, SpanId, SpanScope};

/// Record an event only when the recorder is enabled.
///
/// The event expression is **not evaluated** when the recorder is
/// disabled, which is what makes the default [`NullRecorder`] path
/// free: no construction, no formatting, no allocation.
#[macro_export]
macro_rules! record {
    ($rec:expr, $event:expr) => {
        if $crate::Recorder::enabled($rec) {
            $crate::Recorder::record($rec, &$event);
        }
    };
}

/// Time `f` as one invocation of `pass`, emitting `PassBegin`/`PassEnd`
/// events around it. When the recorder is disabled the closure runs
/// bare — no clock reads, no events.
pub fn timed<T>(rec: &dyn Recorder, pass: Pass, f: impl FnOnce() -> T) -> T {
    timed_span(rec, pass, None, f)
}

/// [`timed`], attributing the emitted `PassBegin`/`PassEnd` events to
/// `span` (if any); with `span: None` the wire format is byte-identical
/// to the un-attributed form. The batch engine times its `engine` pass
/// under its span this way; the scheduler's own passes emit untagged
/// events, which the engine attributes to their task span when it
/// replays them.
pub fn timed_span<T>(
    rec: &dyn Recorder,
    pass: Pass,
    span: Option<SpanId>,
    f: impl FnOnce() -> T,
) -> T {
    if !rec.enabled() {
        return f();
    }
    rec.record(&Event::PassBegin { pass, span });
    let start = std::time::Instant::now();
    let out = f();
    let nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    rec.record(&Event::PassEnd { pass, nanos, span });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_macro_skips_construction_when_disabled() {
        let mut constructed = false;
        let rec: &dyn Recorder = &NullRecorder;
        record!(rec, {
            constructed = true;
            Event::Counter {
                name: "x",
                delta: 1,
            }
        });
        assert!(!constructed, "event expression ran for a disabled recorder");

        let profile = ProfileRecorder::new();
        let rec: &dyn Recorder = &profile;
        record!(rec, {
            constructed = true;
            Event::Counter {
                name: "x",
                delta: 1,
            }
        });
        assert!(constructed);
        assert_eq!(profile.into_profile().counter("x"), 1);
    }

    #[test]
    fn timed_skips_clock_when_disabled() {
        let out = timed(&NullRecorder, Pass::Rank, || 41 + 1);
        assert_eq!(out, 42);

        let profile = ProfileRecorder::new();
        let out = timed(&profile, Pass::Rank, || 7);
        assert_eq!(out, 7);
        let p = profile.into_profile();
        assert_eq!(p.pass_calls.get("rank"), Some(&1));
    }
}
