//! Validation of the JSONL trace schema.
//!
//! Each trace line is a flat JSON object with a `"seq"` ordinal and an
//! `"ev"` tag naming one of the [`crate::event::Event`] variants; the
//! remaining required fields depend on the tag. The validator here
//! contains a deliberately small flat-object JSON parser (the build
//! environment has no serde) — enough to check traces in tests and for
//! downstream tools to trust the documented schema.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed flat JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// JSON null.
    Null,
    /// true / false.
    Bool(bool),
    /// Any JSON number (kept as f64; trace numbers fit exactly or are
    /// only range-checked).
    Num(f64),
    /// A string.
    Str(String),
}

/// Why a line failed validation.
#[derive(Clone, Debug, PartialEq)]
#[allow(missing_docs)] // field names are self-describing
pub enum SchemaError {
    /// The line is not a flat JSON object.
    Parse(String),
    /// No `"ev"` field or it is not a string.
    MissingTag,
    /// `"ev"` names no known event.
    UnknownTag(String),
    /// A required field is absent.
    MissingField { ev: String, field: &'static str },
    /// A field has the wrong JSON type.
    WrongType {
        ev: String,
        field: &'static str,
        want: &'static str,
    },
    /// A string field holds a value outside its enumeration.
    BadEnum {
        ev: String,
        field: &'static str,
        got: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::Parse(m) => write!(f, "not a flat JSON object: {m}"),
            SchemaError::MissingTag => write!(f, "missing string field \"ev\""),
            SchemaError::UnknownTag(t) => write!(f, "unknown event tag {t:?}"),
            SchemaError::MissingField { ev, field } => {
                write!(f, "{ev}: missing field {field:?}")
            }
            SchemaError::WrongType { ev, field, want } => {
                write!(f, "{ev}: field {field:?} must be {want}")
            }
            SchemaError::BadEnum { ev, field, got } => {
                write!(f, "{ev}: field {field:?} has unknown value {got:?}")
            }
        }
    }
}

/// Parse one flat JSON object (no nesting, no arrays — the trace schema
/// is flat by design).
pub fn parse_flat_object(line: &str) -> Result<BTreeMap<String, Value>, SchemaError> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    p.expect(b'{')?;
    let mut map = BTreeMap::new();
    p.skip_ws();
    if p.peek() == Some(b'}') {
        p.pos += 1;
    } else {
        loop {
            p.skip_ws();
            let key = p.string()?;
            p.skip_ws();
            p.expect(b':')?;
            p.skip_ws();
            let value = p.value()?;
            map.insert(key, value);
            p.skip_ws();
            match p.next() {
                Some(b',') => continue,
                Some(b'}') => break,
                _ => return Err(SchemaError::Parse("expected ',' or '}'".into())),
            }
        }
    }
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(SchemaError::Parse("trailing bytes after object".into()));
    }
    Ok(map)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }
    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }
    fn expect(&mut self, b: u8) -> Result<(), SchemaError> {
        if self.next() == Some(b) {
            Ok(())
        } else {
            Err(SchemaError::Parse(format!("expected {:?}", b as char)))
        }
    }
    fn string(&mut self) -> Result<String, SchemaError> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            match self.next() {
                None => return Err(SchemaError::Parse("unterminated string".into())),
                Some(b'"') => return Ok(s),
                Some(b'\\') => match self.next() {
                    Some(b'"') => s.push('"'),
                    Some(b'\\') => s.push('\\'),
                    Some(b'/') => s.push('/'),
                    Some(b'n') => s.push('\n'),
                    Some(b'r') => s.push('\r'),
                    Some(b't') => s.push('\t'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .next()
                                .ok_or_else(|| SchemaError::Parse("truncated \\u escape".into()))?;
                            code = code * 16
                                + (d as char)
                                    .to_digit(16)
                                    .ok_or_else(|| SchemaError::Parse("bad \\u escape".into()))?;
                        }
                        s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(SchemaError::Parse("bad escape".into())),
                },
                Some(b) if b < 0x20 => {
                    return Err(SchemaError::Parse("raw control char in string".into()))
                }
                Some(b) => {
                    // Re-assemble UTF-8 sequences byte-wise.
                    let start = self.pos - 1;
                    let len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    if start + len > self.bytes.len() {
                        return Err(SchemaError::Parse("truncated UTF-8".into()));
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..start + len])
                        .map_err(|_| SchemaError::Parse("invalid UTF-8".into()))?;
                    s.push_str(chunk);
                    self.pos = start + len;
                }
            }
        }
    }
    fn value(&mut self) -> Result<Value, SchemaError> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                text.parse::<f64>()
                    .map(Value::Num)
                    .map_err(|_| SchemaError::Parse(format!("bad number {text:?}")))
            }
            _ => Err(SchemaError::Parse("expected a value".into())),
        }
    }
    fn literal(&mut self, word: &str, v: Value) -> Result<Value, SchemaError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(SchemaError::Parse(format!("expected literal {word:?}")))
        }
    }
}

/// Field requirement kinds for the per-tag tables below.
enum Need {
    U,
    I,
    B,
    S,
    OptU,
    Enum(&'static [&'static str]),
}

const PASSES: &[&str] = &[
    "schedule_trace",
    "rank",
    "delay_idle_slots",
    "merge",
    "chop",
    "simulate",
    "driver",
    "engine",
    "exact",
];
const RUNGS: &[&str] = &["paper", "pinned_old", "concatenation"];
const STALLS: &[&str] = &["data_wait", "head_blocked"];
const SEVERITIES: &[&str] = &["info", "warning", "error"];
const OUTCOMES: &[&str] = &["scheduled", "cached", "degraded", "failed"];

fn requirements(ev: &str) -> Option<&'static [(&'static str, Need)]> {
    Some(match ev {
        "pass_begin" => &[("pass", Need::Enum(PASSES))],
        "pass_end" => &[("pass", Need::Enum(PASSES)), ("nanos", Need::U)],
        "rank_run" => &[
            ("nodes", Need::U),
            ("makespan", Need::U),
            ("feasible", Need::B),
        ],
        "idle_move" => &[
            ("unit", Need::U),
            ("slot", Need::U),
            ("new_start", Need::OptU),
            ("moved", Need::B),
        ],
        "block_begin" => &[
            ("block", Need::U),
            ("carried", Need::U),
            ("new_nodes", Need::U),
        ],
        "merge_probe" => &[("delta", Need::I), ("feasible", Need::B)],
        "merge_done" => &[
            ("rung", Need::Enum(RUNGS)),
            ("makespan", Need::U),
            ("relaxed", Need::I),
        ],
        "chop" => &[
            ("cut", Need::OptU),
            ("emitted", Need::U),
            ("carried", Need::U),
            ("offset", Need::U),
        ],
        "issue" => &[
            ("cycle", Need::U),
            ("pos", Need::U),
            ("node", Need::U),
            ("unit", Need::U),
        ],
        "stall" => &[
            ("cycle", Need::U),
            ("head", Need::U),
            ("kind", Need::Enum(STALLS)),
            ("cycles", Need::U),
        ],
        "window_occupancy" => &[("cycle", Need::U), ("occupancy", Need::U)],
        "counter" => &[("name", Need::S), ("delta", Need::U)],
        "diagnostic" => &[
            ("severity", Need::Enum(SEVERITIES)),
            ("code", Need::S),
            ("message", Need::S),
        ],
        "cache_query" => &[("key", Need::S), ("hit", Need::B)],
        "cache_evict" => &[("key", Need::S), ("resident", Need::U)],
        "task_done" => &[
            ("task", Need::U),
            ("outcome", Need::Enum(OUTCOMES)),
            ("makespan", Need::U),
        ],
        "req_accept" => &[("queue_depth", Need::U)],
        "req_shed" => &[("queue_depth", Need::U)],
        "req_done" => &[("status", Need::U), ("nanos", Need::U)],
        "span_start" => &[("span", Need::U), ("parent", Need::OptU), ("name", Need::S)],
        "span_end" => &[("span", Need::U), ("nanos", Need::U)],
        _ => return None,
    })
}

/// Validate one trace line against the schema. Returns the parsed
/// object (with its `"ev"` tag) on success so callers can assert on
/// payloads without re-parsing.
pub fn validate_line(line: &str) -> Result<BTreeMap<String, Value>, SchemaError> {
    let map = parse_flat_object(line)?;
    let ev = match map.get("ev") {
        Some(Value::Str(s)) => s.clone(),
        _ => return Err(SchemaError::MissingTag),
    };
    let reqs = requirements(&ev).ok_or_else(|| SchemaError::UnknownTag(ev.clone()))?;
    for &(field, ref need) in reqs {
        let value = map.get(field).ok_or(SchemaError::MissingField {
            ev: ev.clone(),
            field,
        })?;
        let ok = match need {
            Need::U => matches!(value, Value::Num(n) if *n >= 0.0 && n.fract() == 0.0),
            Need::I => matches!(value, Value::Num(n) if n.fract() == 0.0),
            Need::B => matches!(value, Value::Bool(_)),
            Need::S => matches!(value, Value::Str(_)),
            Need::OptU => {
                matches!(value, Value::Null)
                    || matches!(value, Value::Num(n) if *n >= 0.0 && n.fract() == 0.0)
            }
            Need::Enum(allowed) => match value {
                Value::Str(s) => {
                    if !allowed.contains(&s.as_str()) {
                        return Err(SchemaError::BadEnum {
                            ev,
                            field,
                            got: s.clone(),
                        });
                    }
                    true
                }
                _ => false,
            },
        };
        if !ok {
            let want = match need {
                Need::U => "a non-negative integer",
                Need::I => "an integer",
                Need::B => "a boolean",
                Need::S => "a string",
                Need::OptU => "a non-negative integer or null",
                Need::Enum(_) => "a string",
            };
            return Err(SchemaError::WrongType { ev, field, want });
        }
    }
    // Span ids are allocated from 1 (0 is the reserved "no span"
    // sentinel), so wherever a `"span"` field appears — as the identity
    // of a span_start/span_end or as optional attribution on another
    // event — it must be a positive integer.
    if let Some(value) = map.get("span") {
        if !matches!(value, Value::Num(n) if *n >= 1.0 && n.fract() == 0.0) {
            return Err(SchemaError::WrongType {
                ev,
                field: "span",
                want: "a positive integer",
            });
        }
    }
    // Cache attribution is optional (`"warm"` appears only on warm
    // hits, `"shard"` only when the emitter sets it) but typed when
    // present: `"shard"` is a non-negative integer and `"warm"` a
    // boolean, and both belong to cache events only.
    if let Some(value) = map.get("shard") {
        if !(ev == "cache_query" || ev == "cache_evict")
            || !matches!(value, Value::Num(n) if *n >= 0.0 && n.fract() == 0.0)
        {
            return Err(SchemaError::WrongType {
                ev,
                field: "shard",
                want: "a non-negative integer on a cache event",
            });
        }
    }
    if let Some(value) = map.get("warm") {
        if ev != "cache_query" || !matches!(value, Value::Bool(_)) {
            return Err(SchemaError::WrongType {
                ev,
                field: "warm",
                want: "a boolean on cache_query",
            });
        }
    }
    Ok(map)
}

/// Validate every non-empty line of a JSONL document; returns the tag
/// sequence on success and `(line_number, error)` on the first failure.
pub fn validate_document(text: &str) -> Result<Vec<String>, (usize, SchemaError)> {
    let mut tags = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let map = validate_line(line).map_err(|e| (i + 1, e))?;
        if let Some(Value::Str(tag)) = map.get("ev") {
            tags.push(tag.clone());
        }
    }
    Ok(tags)
}

/// A span-consistency violation found by [`check_spans`].
#[derive(Clone, Debug, PartialEq)]
pub enum SpanError {
    /// The same span id was started twice.
    DuplicateStart(u64),
    /// A span names itself as its parent.
    SelfParent(u64),
    /// A `span_start` references a parent that was never started
    /// earlier in the document (the "mismatched span/parent pair").
    UnknownParent {
        /// Span being started.
        span: u64,
        /// The parent id it claims, which is unknown at this point.
        parent: u64,
    },
    /// A `span_end` for a span id that was never started.
    EndWithoutStart(u64),
    /// A span was ended twice.
    DoubleEnd(u64),
}

impl fmt::Display for SpanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpanError::DuplicateStart(s) => write!(f, "span {s} started twice"),
            SpanError::SelfParent(s) => write!(f, "span {s} is its own parent"),
            SpanError::UnknownParent { span, parent } => {
                write!(f, "span {span} references unknown parent {parent}")
            }
            SpanError::EndWithoutStart(s) => write!(f, "span {s} ended but never started"),
            SpanError::DoubleEnd(s) => write!(f, "span {s} ended twice"),
        }
    }
}

/// Summary returned by a clean [`check_spans`] pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanReport {
    /// How many spans were started.
    pub started: usize,
    /// How many spans were ended.
    pub ended: usize,
    /// Span ids started but never ended, in start order. A complete
    /// trace has none; a trace truncated mid-run legitimately may.
    pub unclosed: Vec<u64>,
}

/// Check the span discipline of a JSONL document: every `span_start`
/// has a unique id, parents refer to previously started spans, and
/// every `span_end` closes an open span exactly once.
///
/// Lines that fail to parse as flat objects are skipped — run
/// [`validate_document`] first for schema errors; this pass only
/// checks cross-line span consistency. Returns `(line_number, error)`
/// on the first violation.
pub fn check_spans(text: &str) -> Result<SpanReport, (usize, SpanError)> {
    // Span state: started (known id) and whether it has ended.
    let mut ended: BTreeMap<u64, bool> = BTreeMap::new();
    let mut report = SpanReport::default();
    let mut start_order = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let map = match parse_flat_object(line.trim()) {
            Ok(m) => m,
            Err(_) => continue,
        };
        let tag = match map.get("ev") {
            Some(Value::Str(s)) => s.as_str(),
            _ => continue,
        };
        let num = |field: &str| -> Option<u64> {
            match map.get(field) {
                Some(Value::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
                _ => None,
            }
        };
        match tag {
            "span_start" => {
                let Some(span) = num("span") else { continue };
                if ended.contains_key(&span) {
                    return Err((lineno, SpanError::DuplicateStart(span)));
                }
                if let Some(parent) = num("parent") {
                    if parent == span {
                        return Err((lineno, SpanError::SelfParent(span)));
                    }
                    if !ended.contains_key(&parent) {
                        return Err((lineno, SpanError::UnknownParent { span, parent }));
                    }
                }
                ended.insert(span, false);
                start_order.push(span);
                report.started += 1;
            }
            "span_end" => {
                let Some(span) = num("span") else { continue };
                match ended.get_mut(&span) {
                    None => return Err((lineno, SpanError::EndWithoutStart(span))),
                    Some(true) => return Err((lineno, SpanError::DoubleEnd(span))),
                    Some(done) => {
                        *done = true;
                        report.ended += 1;
                    }
                }
            }
            _ => {}
        }
    }
    report.unclosed = start_order
        .into_iter()
        .filter(|s| ended.get(s) == Some(&false))
        .collect();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, MergeRung, Pass, Severity, StallKind, TaskOutcome};
    use crate::recorder::event_to_json;

    #[test]
    fn every_event_variant_round_trips() {
        let events = [
            Event::PassBegin {
                pass: Pass::Merge,
                span: None,
            },
            Event::PassEnd {
                pass: Pass::Simulate,
                nanos: 123,
                span: None,
            },
            Event::PassEnd {
                pass: Pass::Rank,
                nanos: 55,
                span: Some(3),
            },
            Event::RankRun {
                nodes: 4,
                makespan: 9,
                feasible: true,
            },
            Event::IdleMove {
                unit: 0,
                slot: 3,
                new_start: Some(5),
                moved: true,
            },
            Event::IdleMove {
                unit: 1,
                slot: 0,
                new_start: None,
                moved: false,
            },
            Event::BlockBegin {
                block: 2,
                carried: 1,
                new_nodes: 8,
            },
            Event::MergeProbe {
                delta: -1,
                feasible: false,
            },
            Event::MergeDone {
                rung: MergeRung::Concatenation,
                makespan: 11,
                relaxed: 0,
            },
            Event::Chop {
                cut: Some(6),
                emitted: 5,
                carried: 2,
                offset: 7,
            },
            Event::Chop {
                cut: None,
                emitted: 0,
                carried: 7,
                offset: 0,
            },
            Event::Issue {
                cycle: 1,
                pos: 0,
                node: 3,
                unit: 1,
            },
            Event::Stall {
                cycle: 2,
                head: 1,
                kind: StallKind::HeadBlocked,
                cycles: 3,
            },
            Event::WindowOccupancy {
                cycle: 0,
                occupancy: 4,
            },
            Event::Counter {
                name: "probes",
                delta: 2,
            },
            Event::Diagnostic {
                severity: Severity::Error,
                code: "unknown_experiment",
                message: "no such \"id\"",
            },
            Event::CacheQuery {
                key: u128::MAX,
                hit: false,
                shard: None,
                warm: false,
                span: None,
            },
            Event::CacheQuery {
                key: 7,
                hit: true,
                shard: Some(5),
                warm: true,
                span: Some(2),
            },
            Event::CacheEvict {
                key: 0xdead_beef,
                resident: 255,
                shard: None,
                span: None,
            },
            Event::CacheEvict {
                key: 0xdead_beef,
                resident: 3,
                shard: Some(0),
                span: None,
            },
            Event::TaskDone {
                task: 17,
                outcome: TaskOutcome::Cached,
                makespan: 42,
                span: Some(4),
            },
            Event::ReqAccept { queue_depth: 3 },
            Event::ReqShed { queue_depth: 64 },
            Event::ReqDone {
                status: 200,
                nanos: 1_234_567,
                span: Some(1),
            },
            Event::SpanStart {
                span: 1,
                parent: None,
                name: "request",
            },
            Event::SpanStart {
                span: 2,
                parent: Some(1),
                name: "engine",
            },
            Event::SpanEnd { span: 2, nanos: 99 },
        ];
        for ev in &events {
            let line = event_to_json(ev);
            let map = validate_line(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(map.get("ev"), Some(&Value::Str(ev.name().to_string())));
        }
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(matches!(
            validate_line("not json"),
            Err(SchemaError::Parse(_))
        ));
        assert!(matches!(
            validate_line(r#"{"x":1}"#),
            Err(SchemaError::MissingTag)
        ));
        assert!(matches!(
            validate_line(r#"{"ev":"nope"}"#),
            Err(SchemaError::UnknownTag(_))
        ));
        assert!(matches!(
            validate_line(r#"{"ev":"issue","cycle":1}"#),
            Err(SchemaError::MissingField { .. })
        ));
        assert!(matches!(
            validate_line(r#"{"ev":"stall","cycle":1,"head":0,"kind":"nap","cycles":2}"#),
            Err(SchemaError::BadEnum { .. })
        ));
        assert!(matches!(
            validate_line(r#"{"ev":"issue","cycle":-1,"pos":0,"node":0,"unit":0}"#),
            Err(SchemaError::WrongType { .. })
        ));
    }

    #[test]
    fn document_collects_tags() {
        let doc = "\
{\"seq\":0,\"ev\":\"pass_begin\",\"pass\":\"merge\"}\n\
\n\
{\"seq\":1,\"ev\":\"pass_end\",\"pass\":\"merge\",\"nanos\":5}\n";
        assert_eq!(
            validate_document(doc).unwrap(),
            vec!["pass_begin", "pass_end"]
        );
        let bad = "{\"ev\":\"chop\"}\n";
        assert_eq!(validate_document(bad).unwrap_err().0, 1);
    }

    #[test]
    fn rejects_bad_span_fields() {
        // Span id 0 is the reserved "no span" sentinel.
        assert!(matches!(
            validate_line(r#"{"ev":"span_start","span":0,"parent":null,"name":"x"}"#),
            Err(SchemaError::WrongType { field: "span", .. })
        ));
        assert!(matches!(
            validate_line(r#"{"ev":"span_end","span":1.5,"nanos":2}"#),
            Err(SchemaError::WrongType { field: "span", .. })
        ));
        // Optional attribution must still be a positive integer.
        assert!(matches!(
            validate_line(r#"{"ev":"cache_query","key":"00","hit":true,"span":0}"#),
            Err(SchemaError::WrongType { field: "span", .. })
        ));
        assert!(matches!(
            validate_line(r#"{"ev":"span_start","span":3,"name":"x"}"#),
            Err(SchemaError::MissingField { .. })
        ));
        // Shared-cache attribution is optional but typed and scoped.
        assert!(matches!(
            validate_line(r#"{"ev":"cache_query","key":"00","hit":true,"shard":-1}"#),
            Err(SchemaError::WrongType { field: "shard", .. })
        ));
        assert!(matches!(
            validate_line(r#"{"ev":"cache_query","key":"00","hit":true,"warm":1}"#),
            Err(SchemaError::WrongType { field: "warm", .. })
        ));
        assert!(matches!(
            validate_line(r#"{"ev":"counter","name":"x","delta":1,"shard":0}"#),
            Err(SchemaError::WrongType { field: "shard", .. })
        ));
        assert!(matches!(
            validate_line(r#"{"ev":"cache_evict","key":"00","resident":1,"warm":true}"#),
            Err(SchemaError::WrongType { field: "warm", .. })
        ));
        assert!(validate_line(r#"{"ev":"cache_evict","key":"00","resident":1,"shard":2}"#).is_ok());
    }

    #[test]
    fn span_checker_accepts_well_formed_forests() {
        let doc = "\
{\"seq\":0,\"ev\":\"span_start\",\"span\":1,\"parent\":null,\"name\":\"request\"}\n\
{\"seq\":1,\"ev\":\"span_start\",\"span\":2,\"parent\":1,\"name\":\"engine\"}\n\
{\"seq\":2,\"ev\":\"span_end\",\"span\":2,\"nanos\":10}\n\
{\"seq\":3,\"ev\":\"span_end\",\"span\":1,\"nanos\":20}\n\
{\"seq\":4,\"ev\":\"span_start\",\"span\":3,\"parent\":null,\"name\":\"request\"}\n";
        let report = check_spans(doc).unwrap();
        assert_eq!(report.started, 3);
        assert_eq!(report.ended, 2);
        assert_eq!(report.unclosed, vec![3]);
    }

    #[test]
    fn span_checker_rejects_mismatched_pairs() {
        let unknown_parent =
            "{\"ev\":\"span_start\",\"span\":2,\"parent\":9,\"name\":\"engine\"}\n";
        assert_eq!(
            check_spans(unknown_parent).unwrap_err(),
            (1, SpanError::UnknownParent { span: 2, parent: 9 })
        );

        let self_parent = "{\"ev\":\"span_start\",\"span\":2,\"parent\":2,\"name\":\"x\"}\n";
        assert_eq!(
            check_spans(self_parent).unwrap_err(),
            (1, SpanError::SelfParent(2))
        );

        let dup = "\
{\"ev\":\"span_start\",\"span\":1,\"parent\":null,\"name\":\"a\"}\n\
{\"ev\":\"span_start\",\"span\":1,\"parent\":null,\"name\":\"b\"}\n";
        assert_eq!(
            check_spans(dup).unwrap_err(),
            (2, SpanError::DuplicateStart(1))
        );

        let orphan_end = "{\"ev\":\"span_end\",\"span\":5,\"nanos\":1}\n";
        assert_eq!(
            check_spans(orphan_end).unwrap_err(),
            (1, SpanError::EndWithoutStart(5))
        );

        let double_end = "\
{\"ev\":\"span_start\",\"span\":1,\"parent\":null,\"name\":\"a\"}\n\
{\"ev\":\"span_end\",\"span\":1,\"nanos\":1}\n\
{\"ev\":\"span_end\",\"span\":1,\"nanos\":2}\n";
        assert_eq!(
            check_spans(double_end).unwrap_err(),
            (3, SpanError::DoubleEnd(1))
        );
    }
}
