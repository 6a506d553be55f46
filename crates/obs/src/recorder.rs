//! Recorder implementations: where events go.
//!
//! Hot loops gate on [`Recorder::enabled`] before even *constructing* an
//! event, so the default [`NullRecorder`] path compiles down to a
//! predictable branch on a constant `false` and performs no allocation
//! and no formatting. [`JsonlRecorder`] renders each event as one JSON
//! object per line; [`TeeRecorder`] fans events out to two recorders;
//! [`StderrDiagnostics`] prints only `Diagnostic` events, which is how
//! the CLI binaries route their human-facing warnings/errors through
//! the same event stream that traces capture.

use std::io;
use std::sync::Mutex;

use crate::event::{Event, OwnedEvent};
use crate::json::JsonObject;

/// Sink for structured events.
///
/// Implementations must be cheap to query via [`Recorder::enabled`]:
/// instrumented code calls it on hot paths (per probe, per cycle) and
/// only builds events when it returns `true`.
pub trait Recorder {
    /// Whether this recorder wants events at all. Call sites skip event
    /// construction entirely when this is `false`.
    fn enabled(&self) -> bool;

    /// Consume one event.
    fn record(&self, event: &Event<'_>);

    /// Flush any buffered output. Default: nothing to do.
    fn flush(&self) -> io::Result<()> {
        Ok(())
    }
}

/// The zero-cost default: drops everything, reports `enabled() == false`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    #[inline(always)]
    fn enabled(&self) -> bool {
        false
    }

    #[inline(always)]
    fn record(&self, _event: &Event<'_>) {}
}

/// Shared reference to the null recorder, for APIs taking `&dyn Recorder`.
pub static NULL: NullRecorder = NullRecorder;

/// Serializes events as JSON Lines: one self-describing object per
/// event, tagged by `"ev"` and numbered by `"seq"`.
///
/// The writer sits behind a mutex so a single recorder can be shared by
/// reference across the whole pipeline; the scheduling stack itself is
/// single-threaded, so the lock is uncontended.
pub struct JsonlRecorder<W: io::Write> {
    inner: Mutex<JsonlInner<W>>,
}

struct JsonlInner<W> {
    writer: W,
    seq: u64,
}

impl<W: io::Write> JsonlRecorder<W> {
    /// Wrap `writer`. Lines are written unbuffered relative to `writer`;
    /// hand in a `BufWriter` for file targets.
    pub fn new(writer: W) -> Self {
        JsonlRecorder {
            inner: Mutex::new(JsonlInner { writer, seq: 0 }),
        }
    }

    /// Unwrap the writer (flushing is the caller's business).
    pub fn into_inner(self) -> W {
        self.inner
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .writer
    }
}

/// Render one event as its wire-format JSON object (without the
/// trailing newline and without a `seq` field): the `"ev"` tag, then
/// the fields in declaration order. Optional fields (`warm`, span
/// attribution) are written only when set, so untraced runs keep
/// their historical byte-exact line format.
pub fn event_to_json(event: &Event<'_>) -> String {
    let mut o = JsonObject::new();
    o.str("ev", event.name());
    event.write_fields(&mut o);
    o.finish()
}

impl<W: io::Write> Recorder for JsonlRecorder<W> {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event<'_>) {
        let line = event_to_json(event);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let seq = inner.seq;
        inner.seq += 1;
        // Splice the seq in as the second field so every line carries a
        // stable ordinal even if writers interleave.
        let _ = writeln!(
            inner.writer,
            "{{\"seq\":{seq},{rest}",
            rest = &line[1..] // drop the '{' we re-open above
        );
    }

    fn flush(&self) -> io::Result<()> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .writer
            .flush()
    }
}

/// Fans every event out to both recorders; enabled if either is.
pub struct TeeRecorder<'a> {
    a: &'a dyn Recorder,
    b: &'a dyn Recorder,
}

impl<'a> TeeRecorder<'a> {
    /// Combine two recorders.
    pub fn new(a: &'a dyn Recorder, b: &'a dyn Recorder) -> Self {
        TeeRecorder { a, b }
    }
}

impl Recorder for TeeRecorder<'_> {
    fn enabled(&self) -> bool {
        self.a.enabled() || self.b.enabled()
    }

    fn record(&self, event: &Event<'_>) {
        if self.a.enabled() {
            self.a.record(event);
        }
        if self.b.enabled() {
            self.b.record(event);
        }
    }

    fn flush(&self) -> io::Result<()> {
        self.a.flush()?;
        self.b.flush()
    }
}

/// Buffers owned clones of every event for later replay.
///
/// This is the engine's bridge between worker threads and the caller's
/// recorder: sinks like `ProfileRecorder` are single-threaded by
/// design, so each worker captures its task's events into its own
/// `BufferRecorder` and the engine replays the buffers into the real
/// sink sequentially, in deterministic input order. The buffer sits
/// behind a mutex so the type is `Sync`; within the engine each buffer
/// is only ever touched by one thread at a time, so the lock is
/// uncontended.
#[derive(Default)]
pub struct BufferRecorder {
    events: Mutex<Vec<OwnedEvent>>,
}

impl BufferRecorder {
    /// An empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consume the buffer, yielding the captured events in order.
    pub fn into_events(self) -> Vec<OwnedEvent> {
        self.events.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    /// Replay a captured event sequence into another recorder,
    /// attributing every attributable event that does not already
    /// carry a span to `span` (when given).
    ///
    /// This is how the engine stamps worker-buffered pass/cache events
    /// with their task's span id at emit time, without the inner
    /// scheduling passes knowing about spans at all.
    pub fn replay(events: &[OwnedEvent], rec: &dyn Recorder, span: Option<u64>) {
        if !rec.enabled() {
            return;
        }
        for ev in events {
            rec.record(&ev.as_event().with_span(span));
        }
    }
}

impl Recorder for BufferRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event<'_>) {
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(OwnedEvent::from_event(event));
    }
}

/// Prints `Diagnostic` events to stderr (`warning:` / `error:` style)
/// and ignores everything else. The CLI binaries layer this under a
/// `TeeRecorder` so diagnostics reach both the terminal and any trace.
#[derive(Clone, Copy, Debug, Default)]
pub struct StderrDiagnostics;

impl Recorder for StderrDiagnostics {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&self, event: &Event<'_>) {
        if let Event::Diagnostic {
            severity,
            code,
            message,
            ..
        } = *event
        {
            eprintln!("{}[{code}]: {message}", severity.name());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MergeRung, Pass, StallKind};

    #[test]
    fn null_is_disabled() {
        assert!(!NullRecorder.enabled());
        NullRecorder.record(&Event::PassBegin {
            pass: Pass::Merge,
            span: None,
        });
        NullRecorder.flush().unwrap();
    }

    #[test]
    fn jsonl_lines_carry_seq_and_tag() {
        let rec = JsonlRecorder::new(Vec::new());
        rec.record(&Event::MergeDone {
            rung: MergeRung::Paper,
            makespan: 7,
            relaxed: 2,
        });
        rec.record(&Event::Stall {
            cycle: 3,
            head: 1,
            kind: StallKind::DataWait,
            cycles: 4,
        });
        let out = String::from_utf8(rec.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            r#"{"seq":0,"ev":"merge_done","rung":"paper","makespan":7,"relaxed":2}"#
        );
        assert_eq!(
            lines[1],
            r#"{"seq":1,"ev":"stall","cycle":3,"head":1,"kind":"data_wait","cycles":4}"#
        );
    }

    #[test]
    fn tee_enabled_when_either_is() {
        let jsonl = JsonlRecorder::new(Vec::new());
        let tee = TeeRecorder::new(&NULL, &jsonl);
        assert!(tee.enabled());
        tee.record(&Event::Counter {
            name: "probes",
            delta: 1,
        });
        let out = String::from_utf8(jsonl.into_inner()).unwrap();
        assert!(out.contains(r#""ev":"counter""#));

        let tee = TeeRecorder::new(&NULL, &NULL);
        assert!(!tee.enabled());
    }

    #[test]
    fn buffer_captures_and_replays_in_order() {
        let buf = BufferRecorder::new();
        buf.record(&Event::PassBegin {
            pass: Pass::Engine,
            span: None,
        });
        buf.record(&Event::Diagnostic {
            severity: crate::event::Severity::Warning,
            code: "task_degraded",
            message: "merge failed",
        });
        buf.record(&Event::Counter {
            name: "steps",
            delta: 3,
        });
        let events = buf.into_events();
        assert_eq!(events.len(), 3);

        let jsonl = JsonlRecorder::new(Vec::new());
        BufferRecorder::replay(&events, &jsonl, None);
        let out = String::from_utf8(jsonl.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].contains(r#""ev":"pass_begin","pass":"engine""#));
        assert!(lines[1].contains(r#""code":"task_degraded""#));
        assert!(lines[2].contains(r#""name":"steps","delta":3"#));
    }

    #[test]
    fn engine_events_serialize() {
        assert_eq!(
            event_to_json(&Event::CacheQuery {
                key: 0xab,
                hit: true,
                warm: false,
                span: None,
            }),
            r#"{"ev":"cache_query","key":"000000000000000000000000000000ab","hit":true}"#
        );
        assert_eq!(
            event_to_json(&Event::CacheEvict {
                key: 1,
                resident: 7,
                span: None,
            }),
            r#"{"ev":"cache_evict","key":"00000000000000000000000000000001","resident":7}"#
        );
        assert_eq!(
            event_to_json(&Event::TaskDone {
                task: 4,
                outcome: crate::event::TaskOutcome::Degraded,
                makespan: 12,
                span: None,
            }),
            r#"{"ev":"task_done","task":4,"outcome":"degraded","makespan":12}"#
        );
    }

    #[test]
    fn warm_and_attributed_cache_events_serialize() {
        assert_eq!(
            event_to_json(&Event::CacheQuery {
                key: 0xab,
                hit: true,
                warm: true,
                span: Some(2),
            }),
            r#"{"ev":"cache_query","key":"000000000000000000000000000000ab","hit":true,"warm":true,"span":2}"#
        );
        assert_eq!(
            event_to_json(&Event::CacheEvict {
                key: 1,
                resident: 7,
                span: Some(3),
            }),
            r#"{"ev":"cache_evict","key":"00000000000000000000000000000001","resident":7,"span":3}"#
        );
    }

    #[test]
    fn span_events_serialize() {
        assert_eq!(
            event_to_json(&Event::SpanStart {
                span: 3,
                parent: Some(1),
                name: "task",
            }),
            r#"{"ev":"span_start","span":3,"parent":1,"name":"task"}"#
        );
        assert_eq!(
            event_to_json(&Event::SpanStart {
                span: 1,
                parent: None,
                name: "request",
            }),
            r#"{"ev":"span_start","span":1,"parent":null,"name":"request"}"#
        );
        assert_eq!(
            event_to_json(&Event::SpanEnd { span: 3, nanos: 42 }),
            r#"{"ev":"span_end","span":3,"nanos":42}"#
        );
    }

    #[test]
    fn span_attribution_is_a_trailing_field() {
        assert_eq!(
            event_to_json(&Event::CacheQuery {
                key: 0xab,
                hit: false,
                warm: false,
                span: Some(9),
            }),
            r#"{"ev":"cache_query","key":"000000000000000000000000000000ab","hit":false,"span":9}"#
        );
        assert_eq!(
            event_to_json(&Event::PassEnd {
                pass: Pass::Rank,
                nanos: 5,
                span: Some(2),
            }),
            r#"{"ev":"pass_end","pass":"rank","nanos":5,"span":2}"#
        );
    }

    #[test]
    fn replay_tags_untagged_events_only() {
        let buf = BufferRecorder::new();
        buf.record(&Event::PassBegin {
            pass: Pass::Rank,
            span: None,
        });
        buf.record(&Event::CacheQuery {
            key: 2,
            hit: true,
            warm: false,
            span: Some(7),
        });
        buf.record(&Event::Counter {
            name: "probes",
            delta: 1,
        });
        let events = buf.into_events();

        let jsonl = JsonlRecorder::new(Vec::new());
        BufferRecorder::replay(&events, &jsonl, Some(11));
        let out = String::from_utf8(jsonl.into_inner()).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(
            lines[0].ends_with(r#""pass":"rank","span":11}"#),
            "untagged event gains the replay span: {}",
            lines[0]
        );
        assert!(
            lines[1].ends_with(r#""span":7}"#),
            "already-tagged event keeps its span: {}",
            lines[1]
        );
        assert!(
            !lines[2].contains("span"),
            "unattributable events stay span-free: {}",
            lines[2]
        );
    }
}
