//! Span telemetry, end to end: golden traces through the real server,
//! schema acceptance of span events, and byte-fuzz robustness of the
//! validator and the span-forest rebuild (`Trace::parse`, the one span
//! checker).

use std::sync::Arc;
use std::time::Duration;

use asched::obs::schema::{validate_document, validate_line};
use asched::obs::JsonlRecorder;
use asched::serve::{http_request, Server, ServerConfig};
use asched::trace::{folded_stacks, Orphan, Trace};
use proptest::prelude::*;

/// Drive a few requests through a real server with a JSONL recorder
/// attached and return the trace text.
fn server_trace(requests: usize) -> String {
    let rec = Arc::new(JsonlRecorder::new(Vec::new()));
    let h = Server::start(
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        Arc::clone(&rec) as Arc<dyn asched::obs::Recorder + Send + Sync>,
    )
    .expect("bind");
    let addr = h.addr();
    for i in 0..requests {
        let resp = http_request(
            addr,
            "POST",
            "/v1/schedule",
            &[("X-Asched-Format", "manifest")],
            format!("dag nodes=12 blocks=2 seed={i} w=4\n").as_bytes(),
            Duration::from_secs(10),
        )
        .expect("request completes");
        assert_eq!(resp.status, 200, "{}", resp.text());
    }
    h.shutdown();
    let Ok(rec) = Arc::try_unwrap(rec) else {
        panic!("server must release the recorder at shutdown");
    };
    String::from_utf8(rec.into_inner()).expect("trace is UTF-8")
}

#[test]
fn server_traces_form_complete_request_trees() {
    const N: usize = 8;
    let log = server_trace(N);

    // Schema-valid, span-consistent, fully closed: the analyzer
    // reconstructs one tree per request with zero orphans.
    validate_document(&log).unwrap_or_else(|(line, err)| panic!("line {line}: {err}"));
    let t = Trace::parse(&log);
    assert!(t.bad_lines.is_empty(), "{:?}", t.bad_lines);
    assert!(t.orphans.is_empty(), "{:?}", t.orphans);
    assert!(t.unclosed.is_empty(), "unclosed: {:?}", t.unclosed);
    // request + queue/read/handle/write + engine + one task, per request.
    assert_eq!(t.spans.len(), 7 * N);
    let requests = t.roots_named("request");
    assert_eq!(requests.len(), N);
    assert_eq!(t.req_done.len(), N);
    for (span, status, nanos) in &t.req_done {
        // Every req_done carries its root span, and the span_end for
        // that root reports the same latency.
        assert_ne!(*span, 0, "req_done without a span");
        assert_eq!(*status, 200);
        let root = &t.spans[span];
        assert_eq!(root.name, "request");
        assert_eq!(root.nanos, Some(*nanos));
        // Phase children: queue, read, handle, write — in that order.
        let names: Vec<&str> = root
            .children
            .iter()
            .map(|c| t.spans[c].name.as_str())
            .collect();
        assert_eq!(names, ["queue", "read", "handle", "write"]);
        // The engine's work hangs under "handle".
        let handle = root.children[2];
        let grand: Vec<&str> = t.spans[&handle]
            .children
            .iter()
            .map(|c| t.spans[c].name.as_str())
            .collect();
        assert_eq!(grand, ["engine"]);
    }

    // Folded stacks cover the full hierarchy down to task self-time.
    let folded = folded_stacks(&t);
    assert!(folded.contains("request;handle;engine;task "), "{folded}");
}

#[test]
fn golden_span_lines_validate() {
    // The wire format this PR documents, one line of each kind.
    for line in [
        r#"{"seq":0,"ev":"span_start","span":1,"parent":null,"name":"request"}"#,
        r#"{"seq":1,"ev":"span_start","span":2,"parent":1,"name":"queue"}"#,
        r#"{"seq":2,"ev":"span_end","span":2,"nanos":1234}"#,
        r#"{"seq":3,"ev":"pass_end","pass":"rank","nanos":5,"span":2}"#,
        r#"{"seq":4,"ev":"cache_query","key":"000000000000000000000000000000ab","hit":true,"span":2}"#,
        r#"{"seq":5,"ev":"req_done","status":200,"nanos":99,"span":1}"#,
    ] {
        validate_line(line).unwrap_or_else(|e| panic!("{line}: {e}"));
    }
}

#[test]
fn bad_span_fields_are_rejected() {
    // `span` must always be a positive integer; `span_start` needs a
    // name; mismatched pairs are caught when the forest is rebuilt.
    for line in [
        r#"{"seq":0,"ev":"span_start","span":0,"parent":null,"name":"x"}"#,
        r#"{"seq":0,"ev":"span_start","span":1,"parent":null}"#,
        r#"{"seq":0,"ev":"span_end","span":"one","nanos":1}"#,
        r#"{"seq":0,"ev":"pass_end","pass":"rank","nanos":5,"span":-3}"#,
        r#"{"seq":0,"ev":"req_done","status":200,"nanos":9,"span":1.5}"#,
    ] {
        assert!(validate_line(line).is_err(), "must reject: {line}");
    }

    let mismatched = "{\"ev\":\"span_start\",\"span\":2,\"parent\":7,\"name\":\"x\"}\n";
    assert_eq!(
        Trace::parse(mismatched).orphans,
        vec![Orphan::UnknownParent { span: 2, parent: 7 }],
        "mismatched pair must be flagged"
    );
    let double_end = "{\"ev\":\"span_start\",\"span\":1,\"parent\":null,\"name\":\"x\"}\n\
                      {\"ev\":\"span_end\",\"span\":1,\"nanos\":1}\n\
                      {\"ev\":\"span_end\",\"span\":1,\"nanos\":2}\n";
    let t = Trace::parse(double_end);
    assert_eq!(t.orphans, vec![Orphan::DoubleEnd(1)]);
    assert_eq!(t.spans.len(), 1);
    assert!(t.unclosed.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup never panics the validator or the trace
    /// analyzer — they return errors or skip.
    #[test]
    fn validators_never_panic_on_soup(lines in proptest::collection::vec(
        proptest::collection::vec(proptest::char::any(), 0..60), 0..8)) {
        let text: String = lines
            .iter()
            .map(|cs| cs.iter().collect::<String>())
            .collect::<Vec<_>>()
            .join("\n");
        let _ = validate_document(&text);
        let _ = Trace::parse(&text);
        for line in text.lines() {
            let _ = validate_line(line);
        }
    }

    /// JSON-shaped soup (balanced braces, random span ids) also never
    /// panics, and any line the validator accepts must round-trip
    /// through the analyzer without structural surprises.
    #[test]
    fn validators_never_panic_on_json_shaped_soup(
        spans in proptest::collection::vec(0u64..6, 0..12),
        ends in proptest::collection::vec(0u64..6, 0..12),
    ) {
        let mut text = String::new();
        for (i, s) in spans.iter().enumerate() {
            text.push_str(&format!(
                "{{\"seq\":{i},\"ev\":\"span_start\",\"span\":{s},\"parent\":null,\"name\":\"n\"}}\n"
            ));
        }
        for (i, s) in ends.iter().enumerate() {
            text.push_str(&format!(
                "{{\"seq\":{},\"ev\":\"span_end\",\"span\":{s},\"nanos\":1}}\n",
                spans.len() + i
            ));
        }
        let _ = validate_document(&text);
        let t = Trace::parse(&text);
        // The analyzer never invents spans.
        prop_assert!(t.spans.len() <= spans.len());
    }
}
