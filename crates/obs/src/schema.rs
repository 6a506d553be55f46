//! Validation of the JSONL trace schema.
//!
//! Each trace line is a flat JSON object with a `"seq"` ordinal and an
//! `"ev"` tag naming one of the [`crate::event::Event`] variants. The
//! fields each tag requires, and the [`Kind`] of each, come from
//! [`SCHEMA`], which the event table in [`crate::event`] generates
//! alongside the writer — so the validator cannot drift from what the
//! recorders emit. Lines are read by the workspace's one JSON reader,
//! [`crate::json::parse`]; span structure across lines is checked by
//! `asched_trace::Trace`.

use std::collections::BTreeMap;
use std::fmt;

use crate::event::SCHEMA;
use crate::json::{self, Json};

/// The wire kind of an event field: how the writer renders it and what
/// the validator accepts.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// A non-negative integer (`u32`, `u64`).
    Unsigned,
    /// An integer (`i64`).
    Signed,
    /// A boolean.
    Bool,
    /// A string (`&str`).
    Text,
    /// A non-negative integer or `null` (`Option<u64>`).
    Nullable,
    /// A 128-bit fingerprint (`u128`), written as 32 hex digits; any
    /// string validates.
    Key,
    /// A span id (`u64`): a positive integer, as 0 means "no span".
    SpanId,
    /// One of a wire enum's names (`Pass`, `MergeRung`, ...).
    Choice(&'static [&'static str]),
    /// A boolean (`bool`), written only when `true`.
    OptTrue,
    /// Span attribution (`Option<u64>`): a positive integer, omitted
    /// when `None`.
    OptSpan,
}

impl Kind {
    /// Whether the writer omits the field while it is unset. Such a
    /// field may only appear on the events that declare it.
    pub fn optional(self) -> bool {
        matches!(self, Kind::OptTrue | Kind::OptSpan)
    }

    fn accepts(self, value: &Json) -> bool {
        let int_from = |min: f64| matches!(value, Json::Num(n) if *n >= min && n.fract() == 0.0);
        match self {
            Kind::Unsigned => int_from(0.0),
            Kind::Signed => int_from(f64::MIN),
            Kind::Bool | Kind::OptTrue => matches!(value, Json::Bool(_)),
            Kind::Text | Kind::Key | Kind::Choice(_) => matches!(value, Json::Str(_)),
            Kind::Nullable => *value == Json::Null || int_from(0.0),
            Kind::SpanId | Kind::OptSpan => int_from(1.0),
        }
    }

    fn want(self) -> &'static str {
        match self {
            Kind::Unsigned => "a non-negative integer",
            Kind::Signed => "an integer",
            Kind::Bool | Kind::OptTrue => "a boolean",
            Kind::Text | Kind::Key | Kind::Choice(_) => "a string",
            Kind::Nullable => "a non-negative integer or null",
            Kind::SpanId | Kind::OptSpan => "a positive integer",
        }
    }
}

/// One event's wire form: its `"ev"` tag and its fields, in the order
/// the writer emits them.
#[derive(Debug)]
pub struct EventSpec {
    /// The `"ev"` tag.
    pub tag: &'static str,
    /// The fields after the tag.
    pub fields: &'static [FieldSpec],
}

/// One field of an event's wire form.
#[derive(Debug)]
pub struct FieldSpec {
    /// JSON key (also the Rust field name).
    pub name: &'static str,
    /// How the value is written and checked.
    pub kind: Kind,
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

/// Parse one trace line: a JSON object whose values are all scalars
/// (the trace schema is flat by design).
pub fn parse_flat_object(line: &str) -> Result<BTreeMap<String, Json>, SchemaError> {
    match json::parse(line).map_err(SchemaError::Parse)? {
        Json::Obj(map)
            if map
                .values()
                .any(|v| matches!(v, Json::Arr(_) | Json::Obj(_))) =>
        {
            Err(SchemaError::Parse("nested value".into()))
        }
        Json::Obj(map) => Ok(map),
        _ => Err(SchemaError::Parse("not an object".into())),
    }
}

/// Validate one trace line against the schema. Returns the parsed
/// object (with its `"ev"` tag) on success so callers can assert on
/// payloads without re-parsing. Fields the schema does not know are
/// ignored, except that an optional field (`warm`, `span`) may only
/// appear on an event that declares it.
pub fn validate_line(line: &str) -> Result<BTreeMap<String, Json>, SchemaError> {
    let map = parse_flat_object(line)?;
    let ev = match map.get("ev") {
        Some(Json::Str(s)) => s.clone(),
        _ => return Err(SchemaError::MissingTag),
    };
    let Some(spec) = SCHEMA.iter().find(|spec| spec.tag == ev) else {
        return Err(SchemaError::UnknownTag(ev));
    };
    for &FieldSpec { name: field, kind } in spec.fields {
        match (map.get(field), kind) {
            (None, kind) if kind.optional() => {}
            (None, _) => return Err(SchemaError::MissingField { ev, field }),
            (Some(Json::Str(got)), Kind::Choice(names)) if !names.contains(&got.as_str()) => {
                let got = got.clone();
                return Err(SchemaError::BadEnum { ev, field, got });
            }
            (Some(value), kind) if !kind.accepts(value) => {
                let want = kind.want();
                return Err(SchemaError::WrongType { ev, field, want });
            }
            _ => {}
        }
    }
    let stray = SCHEMA.iter().flat_map(|other| other.fields).find(|f| {
        f.kind.optional()
            && map.contains_key(f.name)
            && spec.fields.iter().all(|own| own.name != f.name)
    });
    if let Some(f) = stray {
        let (field, want) = (f.name, "absent on this event");
        return Err(SchemaError::WrongType { ev, field, want });
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
        if let Some(Json::Str(tag)) = map.get("ev") {
            tags.push(tag.clone());
        }
    }
    Ok(tags)
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
                warm: false,
                span: None,
            },
            Event::CacheQuery {
                key: 7,
                hit: true,
                warm: true,
                span: Some(2),
            },
            Event::CacheEvict {
                key: 0xdead_beef,
                resident: 255,
                span: None,
            },
            Event::CacheEvict {
                key: 0xdead_beef,
                resident: 3,
                span: Some(5),
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
            assert_eq!(map.get("ev"), Some(&Json::Str(ev.name().to_string())));
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
        // Warm-hit attribution is optional but typed and scoped.
        assert!(matches!(
            validate_line(r#"{"ev":"cache_query","key":"00","hit":true,"warm":1}"#),
            Err(SchemaError::WrongType { field: "warm", .. })
        ));
        assert!(matches!(
            validate_line(r#"{"ev":"cache_evict","key":"00","resident":1,"warm":true}"#),
            Err(SchemaError::WrongType { field: "warm", .. })
        ));
        assert!(validate_line(r#"{"ev":"cache_evict","key":"00","resident":1,"span":2}"#).is_ok());
    }

    #[test]
    fn optional_fields_stay_on_their_events() {
        assert!(matches!(
            validate_line(r#"{"ev":"counter","name":"x","delta":1,"span":2}"#),
            Err(SchemaError::WrongType { field: "span", .. })
        ));
        assert!(validate_line(r#"{"ev":"pass_begin","pass":"exact","span":2}"#).is_ok());
        // Fields the schema does not know are ignored.
        assert!(
            validate_line(r#"{"seq":4,"ev":"counter","name":"x","delta":1,"extra":0}"#).is_ok()
        );
    }

    #[test]
    fn nested_field_values_are_parse_errors() {
        assert!(matches!(
            validate_line(r#"{"ev":"counter","name":"x","delta":[1]}"#),
            Err(SchemaError::Parse(_))
        ));
        let deep = format!(
            r#"{{"ev":"counter","name":"x","delta":{}{}}}"#,
            "[".repeat(200_000),
            "]".repeat(200_000)
        );
        assert!(matches!(validate_line(&deep), Err(SchemaError::Parse(_))));
    }
}
