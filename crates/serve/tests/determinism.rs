//! Concurrency determinism: the service must be a pure function of the
//! request body, no matter how requests interleave across workers.
//!
//! The same 200-trace corpus is pushed through a 2-worker server by 8
//! closed-loop clients, and each response's `tasks` payload is compared
//! **byte for byte** against a local single-threaded
//! `Engine::run_batch` reference rendered through the same
//! [`task_json`] serializer. The server runs with its schedule cache
//! off so outcome labels (`scheduled` vs `cached`) cannot depend on
//! which worker saw a duplicate first — makespans and orders are
//! cache-invariant, but the label is not, and byte equality is the
//! whole point here.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use asched_engine::{parse_manifest, synth_manifest, Engine, EngineConfig};
use asched_obs::{NullRecorder, NULL};
use asched_serve::{http_request, task_json, Server, ServerConfig};

const TIMEOUT: Duration = Duration::from_secs(30);

/// The `"tasks":[...]` payload of a `/v1/schedule` response body. The
/// surrounding envelope carries the (time-dependent) step budget, so
/// equality is asserted on the payload only.
fn tasks_payload(body: &str) -> &str {
    let start = body.find(r#""tasks":"#).expect("tasks field");
    &body[start..body.len() - 1]
}

#[test]
fn eight_clients_match_single_threaded_reference() {
    let bodies = synth_manifest(200, 1234);

    // Local ground truth: one engine, one thread, no cache.
    let engine = Engine::new(EngineConfig {
        jobs: 1,
        cache: false,
        ..EngineConfig::default()
    });
    let expected: Vec<String> = bodies
        .iter()
        .map(|body| {
            let tasks = parse_manifest(body).expect(body);
            let report = engine.run_batch(&tasks, &NULL);
            let rendered: Vec<String> = report.tasks.iter().map(task_json).collect();
            format!("\"tasks\":[{}]", rendered.join(","))
        })
        .collect();

    let server = Server::start(
        ServerConfig {
            workers: 2,
            cache_capacity: 0, // outcome labels must not depend on interleaving
            deadline_ms: 60_000,
            ..ServerConfig::default()
        },
        Arc::new(NullRecorder),
    )
    .expect("bind");
    let addr = server.addr();

    let next = AtomicUsize::new(0);
    let got: Mutex<BTreeMap<usize, String>> = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let next = &next;
            let got = &got;
            let bodies = &bodies;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(body) = bodies.get(i) else { break };
                // Closed loop with shed retry: correctness may not
                // depend on load either.
                let resp = loop {
                    let resp =
                        http_request(addr, "POST", "/v1/schedule", &[], body.as_bytes(), TIMEOUT)
                            .expect("no dropped connections");
                    if resp.status != 503 {
                        break resp;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                };
                assert_eq!(resp.status, 200, "{body:?} → {}", resp.text());
                let text = resp.text();
                got.lock()
                    .unwrap()
                    .insert(i, tasks_payload(&text).to_string());
            });
        }
    });

    let got = got.into_inner().unwrap();
    assert_eq!(got.len(), bodies.len());
    for (i, expect) in expected.iter().enumerate() {
        assert_eq!(
            &got[&i], expect,
            "response {i} for {:?} diverged from the single-threaded reference",
            bodies[i],
        );
    }
    server.shutdown();
}

/// Fire a corpus at the server from 8 closed-loop clients and collect
/// the `tasks` payload of every response, indexed by corpus position.
fn blast(addr: std::net::SocketAddr, bodies: &[String]) -> BTreeMap<usize, String> {
    let next = AtomicUsize::new(0);
    let got: Mutex<BTreeMap<usize, String>> = Mutex::new(BTreeMap::new());
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let next = &next;
            let got = &got;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(body) = bodies.get(i) else { break };
                let resp = loop {
                    let resp =
                        http_request(addr, "POST", "/v1/schedule", &[], body.as_bytes(), TIMEOUT)
                            .expect("no dropped connections");
                    if resp.status != 503 {
                        break resp;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                };
                assert_eq!(resp.status, 200, "{body:?} → {}", resp.text());
                let text = resp.text();
                got.lock()
                    .unwrap()
                    .insert(i, tasks_payload(&text).to_string());
            });
        }
    });
    got.into_inner().unwrap()
}

/// Workers sharing one process-wide cache stay byte-deterministic once
/// the corpus is duplicate-free: phase 1 (cold cache) must match the
/// no-cache reference exactly — every response `"scheduled"` — and
/// phase 2 (same corpus again) must match a `"cached"`-label reference,
/// because by then every fingerprint is resident in the shared cache no
/// matter which worker computed it.
#[test]
fn shared_cache_is_deterministic_across_interleavings() {
    // Duplicate-free corpus, small enough to fit the shared cache
    // (512 slots ≥ 120 entries → no evictions).
    let bodies: Vec<String> = (0..120)
        .map(|i| format!("prog blocks=3 insts=9 seed={i} w=4\n"))
        .collect();

    // Reference A: cold results (no cache → "scheduled" labels).
    let cold_engine = Engine::new(EngineConfig {
        jobs: 1,
        cache: false,
        ..EngineConfig::default()
    });
    // Reference B: warm results — run each body twice through a
    // cached engine and keep the second report ("cached" labels, same
    // makespans and orders).
    let warm_engine = Engine::new(EngineConfig {
        jobs: 1,
        cache: true,
        cache_capacity: 512,
        ..EngineConfig::default()
    });
    let mut expect_cold = Vec::new();
    let mut expect_warm = Vec::new();
    for body in &bodies {
        let tasks = parse_manifest(body).expect(body);
        let render = |report: asched_engine::BatchReport| {
            let rendered: Vec<String> = report.tasks.iter().map(task_json).collect();
            format!("\"tasks\":[{}]", rendered.join(","))
        };
        expect_cold.push(render(cold_engine.run_batch(&tasks, &NULL)));
        warm_engine.run_batch(&tasks, &NULL);
        expect_warm.push(render(warm_engine.run_batch(&tasks, &NULL)));
    }

    let server = Server::start(
        ServerConfig {
            workers: 2,
            cache_capacity: 512,
            deadline_ms: 60_000,
            ..ServerConfig::default()
        },
        Arc::new(NullRecorder),
    )
    .expect("bind");
    let addr = server.addr();

    // Phase 1: every response is a cold miss regardless of which worker
    // serves it — the corpus has no duplicates.
    let phase1 = blast(addr, &bodies);
    assert_eq!(phase1.len(), bodies.len());
    for (i, expect) in expect_cold.iter().enumerate() {
        assert_eq!(&phase1[&i], expect, "phase 1 response {i} diverged");
    }

    // Phase 2: every fingerprint is now resident in the shared cache,
    // so every response is a warm hit regardless of interleaving.
    let phase2 = blast(addr, &bodies);
    assert_eq!(phase2.len(), bodies.len());
    for (i, expect) in expect_warm.iter().enumerate() {
        assert_eq!(&phase2[&i], expect, "phase 2 response {i} diverged");
    }

    server.shutdown();
}
