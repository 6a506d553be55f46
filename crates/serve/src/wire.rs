//! Wire format for `POST /v1/schedule`: body → tasks, report → JSON.
//!
//! The endpoint accepts either of the two textual trace formats the
//! workspace already speaks — the corpus *manifest* grammar
//! (`asched-engine`) and the mini-RISC *IR* assembly (`asched-ir`) —
//! and auto-detects which one it was given. Responses render through
//! [`task_json`], which is deliberately free of batch-positional or
//! timing fields so that byte-for-byte comparison against a local
//! [`Engine::run_batch`](asched_engine::Engine::run_batch) reference is
//! meaningful regardless of how requests interleaved across workers.

use asched_core::LookaheadConfig;
use asched_engine::{machine_spec, parse_manifest, BatchReport, TaskReport, TraceTask};
use asched_graph::NodeId;
use asched_ir::{build_trace_graph, parse_program, LatencyModel, ProgramKind};
use asched_obs::json::JsonObject;

use crate::http::Request;

/// The two request body formats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BodyFormat {
    /// Corpus manifest lines (`dag ...` / `seam ...` / `prog ...`).
    Manifest,
    /// Mini-RISC assembly (`trace { ... }`).
    Ir,
}

/// A structured request-rejection: status + machine-readable code.
#[derive(Debug)]
pub struct WireError {
    /// HTTP status (always 4xx here).
    pub status: u16,
    /// Stable error code for the JSON body.
    pub code: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

fn bad(code: &'static str, detail: impl Into<String>) -> WireError {
    WireError {
        status: 400,
        code,
        detail: detail.into(),
    }
}

/// Guess the body format from its first meaningful token: `trace` or
/// `loop` means IR assembly, anything else is a manifest.
pub fn detect_format(body: &str) -> BodyFormat {
    for raw in body.lines() {
        let line = raw.split(['#', ';']).next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let first = line.split_whitespace().next().unwrap_or("");
        let first = first.split('{').next().unwrap_or("");
        return match first {
            "trace" | "loop" => BodyFormat::Ir,
            _ => BodyFormat::Manifest,
        };
    }
    BodyFormat::Manifest
}

/// Parse a `POST /v1/schedule` body into engine tasks.
///
/// Honors the `X-Asched-Format` header (`manifest` / `ir`) as an
/// override of [`detect_format`]. Rejects empty corpora, loop programs
/// (the service schedules traces) and batches larger than `max_tasks`.
pub fn parse_schedule_request(
    req: &Request,
    max_tasks: usize,
) -> Result<Vec<TraceTask>, WireError> {
    let body = String::from_utf8_lossy(&req.body);
    let format = match req.header("x-asched-format") {
        None => detect_format(&body),
        Some("manifest") => BodyFormat::Manifest,
        Some("ir") => BodyFormat::Ir,
        Some(v) => {
            return Err(bad(
                "bad_format_header",
                format!("X-Asched-Format must be \"manifest\" or \"ir\", got {v:?}"),
            ))
        }
    };

    let tasks = match format {
        BodyFormat::Manifest => {
            parse_manifest(&body).map_err(|e| bad("bad_manifest", e.to_string()))?
        }
        BodyFormat::Ir => {
            let prog = parse_program(&body).map_err(|e| bad("bad_ir", e.to_string()))?;
            if prog.kind == ProgramKind::Loop {
                return Err(bad(
                    "loop_not_servable",
                    "loop programs are not served here; submit a trace{...} program",
                ));
            }
            let machine = machine_spec(req.query("w"), req.query("units"))
                .map_err(|e| bad("bad_query", e))?;
            let graph = build_trace_graph(&prog, &LatencyModel::fig3());
            let label = req
                .query("label")
                .map(str::to_string)
                .unwrap_or_else(|| format!("ir:w{}", machine.window));
            let mut task = TraceTask::new(label, graph, machine);
            task.config = LookaheadConfig::default();
            vec![task]
        }
    };

    if tasks.is_empty() {
        return Err(bad("empty_request", "no tasks in request body"));
    }
    if tasks.len() > max_tasks {
        return Err(bad(
            "too_many_tasks",
            format!(
                "{} tasks exceeds the per-request cap of {max_tasks}",
                tasks.len()
            ),
        ));
    }
    Ok(tasks)
}

fn ids_json(ids: &[NodeId]) -> String {
    let mut s = String::from("[");
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&id.0.to_string());
    }
    s.push(']');
    s
}

/// Render one task report as JSON.
///
/// Deterministic for a given task input + outcome: no batch index, no
/// fingerprints, no timings. `blocks` is the emitted per-block node
/// orders (the compiler's actual output), `permutation` the predicted
/// global issue order.
pub fn task_json(t: &TaskReport) -> String {
    let mut o = JsonObject::new();
    o.str("label", &t.label)
        .str("outcome", t.outcome.name())
        .u64("makespan", t.makespan);
    match &t.result {
        Some(r) => {
            o.raw("permutation", &ids_json(&r.permutation));
            let mut blocks = String::from("[");
            for (i, order) in r.block_orders.iter().enumerate() {
                if i > 0 {
                    blocks.push(',');
                }
                blocks.push_str(&ids_json(order));
            }
            blocks.push(']');
            o.raw("blocks", &blocks);
        }
        None => {
            o.raw("permutation", "null").raw("blocks", "null");
        }
    }
    if let Some(e) = &t.error {
        o.str("error", e);
    }
    o.finish()
}

/// Render the full `POST /v1/schedule` response body.
pub fn schedule_response_json(report: &BatchReport, deadline_ms: u64, step_budget: u64) -> String {
    let mut o = JsonObject::new();
    o.str("schema", "asched-serve-v1")
        .u64("count", report.tasks.len() as u64)
        .u64("scheduled", report.scheduled)
        .u64("cached", report.cached)
        .u64("degraded", report.degraded)
        .u64("failed", report.failed)
        .u64("deadline_ms", deadline_ms)
        .u64("step_budget", step_budget);
    let mut tasks = String::from("[");
    for (i, t) in report.tasks.iter().enumerate() {
        if i > 0 {
            tasks.push(',');
        }
        tasks.push_str(&task_json(t));
    }
    tasks.push(']');
    o.raw("tasks", &tasks);
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn post(body: &str, target_query: &[(&str, &str)], headers: &[(&str, &str)]) -> Request {
        Request {
            method: "POST".into(),
            path: "/v1/schedule".into(),
            query: target_query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: headers
                .iter()
                .map(|(k, v)| (k.to_ascii_lowercase(), v.to_string()))
                .collect(),
            body: body.as_bytes().to_vec(),
        }
    }

    #[test]
    fn detects_formats() {
        assert_eq!(
            detect_format("# c\n\ndag nodes=8 w=2"),
            BodyFormat::Manifest
        );
        assert_eq!(detect_format("trace {\n}"), BodyFormat::Ir);
        assert_eq!(detect_format("trace{ b0: }"), BodyFormat::Ir);
        assert_eq!(detect_format("loop { }"), BodyFormat::Ir);
        assert_eq!(detect_format(""), BodyFormat::Manifest);
    }

    #[test]
    fn parses_manifest_and_ir() {
        let req = post(
            "dag nodes=8 seed=1 w=2\nseam blocks=3 seed=2 w=4\n",
            &[],
            &[],
        );
        let tasks = parse_schedule_request(&req, 16).unwrap();
        assert_eq!(tasks.len(), 2);
        assert_eq!(tasks[0].machine.window, 2);

        let ir = "trace {\n block A {\n  li gr1 = 5\n  add gr2 = gr1, gr1\n }\n}\n";
        let req = post(ir, &[("w", "8")], &[]);
        let tasks = parse_schedule_request(&req, 16).unwrap();
        assert_eq!(tasks.len(), 1);
        assert_eq!(tasks[0].machine.window, 8);
        assert_eq!(tasks[0].label, "ir:w8");
    }

    #[test]
    fn rejects_bad_bodies() {
        let cases = [
            post("", &[], &[]),
            post("dag nodes=zzz w=2\n", &[], &[]),
            post("loop {\n block A {\n li gr1 = 5\n }\n}", &[], &[]),
            post(
                "trace {\n block A {\n li gr1 = 5\n }\n}",
                &[("w", "0")],
                &[],
            ),
            post("dag nodes=8 w=2", &[], &[("X-Asched-Format", "xml")]),
        ];
        for req in cases {
            let err = parse_schedule_request(&req, 16).unwrap_err();
            assert_eq!(err.status, 400, "{}: {}", err.code, err.detail);
        }
        // Format override forces the wrong parser → 400 rather than a guess.
        let req = post("dag nodes=8 w=2", &[], &[("X-Asched-Format", "ir")]);
        assert!(parse_schedule_request(&req, 16).is_err());
        // Cap on batch size.
        let req = post("dag nodes=8 seed=1 w=2\ndag nodes=8 seed=2 w=2\n", &[], &[]);
        let err = parse_schedule_request(&req, 1).unwrap_err();
        assert_eq!(err.code, "too_many_tasks");
    }

    #[test]
    fn task_json_is_positionless() {
        use asched_engine::{Engine, EngineConfig};
        use asched_obs::NULL;
        let req = post("dag nodes=8 seed=1 w=2\n", &[], &[]);
        let tasks = parse_schedule_request(&req, 16).unwrap();
        let engine = Engine::new(EngineConfig::default());
        let report = engine.run_batch(&tasks, &NULL);
        let json = task_json(&report.tasks[0]);
        assert!(json.contains(r#""outcome":"scheduled""#), "{json}");
        assert!(!json.contains("index"), "{json}");
        assert!(!json.contains("fingerprint"), "{json}");
        let body = schedule_response_json(&report, 2000, 1000);
        assert!(body.contains(r#""schema":"asched-serve-v1""#), "{body}");
        assert!(body.contains(r#""count":1"#), "{body}");
    }
}
