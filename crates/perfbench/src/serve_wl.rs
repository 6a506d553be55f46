//! `serve-hot`: one closed-loop client against an in-process server
//! (one worker, shared cache) whose cache already holds every request.

use std::sync::Arc;
use std::time::{Duration, Instant};

use asched_engine::{Engine, EngineConfig, TraceTask};
use asched_graph::{DepGraph, MachineModel, NodeId, SchedCtx};
use asched_ir::{build_trace_graph, parse_program, LatencyModel};
use asched_obs::{NullRecorder, Recorder};
use asched_serve::http::Request;
use asched_serve::{wire, Server, ServerConfig, ServerHandle};
use asched_trace::json::{self, Json};

use crate::check::{check_schedule, Quality};
use crate::client::Client;
use crate::gen::{serve_hot, HotRequest};
use crate::layers::{time_us, Layers, SharedProfile};
use crate::stats::{median, percentile, ratio, Report};

/// Requests per traced-run pass: every distinct request four times.
const TRACED_ROUNDS: usize = 4;
/// Per-task step budget the handler probe encodes, as the server does
/// for a one-task request at its default 2 s deadline.
const STEP_BUDGET: u64 = 200_000;

fn target(r: &HotRequest) -> String {
    format!("/v1/schedule?w={}", r.w)
}

fn start_server(rec: Arc<dyn Recorder + Send + Sync>) -> ServerHandle {
    let cfg = ServerConfig {
        workers: 1,
        cache_capacity: 1024,
        ..ServerConfig::default()
    };
    Server::start(cfg, rec).expect("start the in-process server")
}

/// The one task of a response body.
struct Task {
    outcome: String,
    makespan: u64,
    blocks: Vec<Vec<NodeId>>,
}

/// Read the task back from a response body; `None` unless the body is
/// one undegraded, unfailed task with a schedule.
fn parse_task(body: &[u8]) -> Option<Task> {
    let doc = json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let count = |key| doc.get(key).and_then(Json::as_f64);
    if count("count")? != 1.0 || count("degraded")? != 0.0 || count("failed")? != 0.0 {
        return None;
    }
    let Some(Json::Arr(tasks)) = doc.get("tasks") else {
        return None;
    };
    let task = tasks.first()?;
    let Some(Json::Arr(blocks)) = task.get("blocks") else {
        return None;
    };
    let id = |v: &Json| v.as_f64().map(|n| NodeId(n as u32));
    let blocks = blocks
        .iter()
        .map(|b| match b {
            Json::Arr(ids) => ids.iter().map(id).collect::<Option<Vec<_>>>(),
            _ => None,
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Task {
        outcome: task.get("outcome")?.as_str()?.to_string(),
        makespan: task.get("makespan")?.as_f64()? as u64,
        blocks,
    })
}

/// Response bodies are equal except for `step_budget`, which the server
/// derives from the milliseconds already spent on the request.
fn same_response(a: &[u8], b: &[u8]) -> bool {
    const KEY: &[u8] = b"\"step_budget\":";
    fn split(s: &[u8]) -> Option<(&[u8], &[u8])> {
        let at = s.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
        let digits = s[at..].iter().take_while(|c| c.is_ascii_digit()).count();
        Some((&s[..at], &s[at + digits..]))
    }
    matches!((split(a), split(b)), (Some(x), Some(y)) if x == y)
}

/// The distinct requests with the graphs their schedules refer to,
/// built from the generated programs (not from the server's parse).
struct Inputs {
    requests: Vec<HotRequest>,
    order: Vec<usize>,
    graphs: Vec<DepGraph>,
}

/// A server with every request cached, and one verified hot response
/// per request.
struct Hot {
    server: ServerHandle,
    client: Client,
    expected: Vec<Vec<u8>>,
    quality: Quality,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Hot {
    /// Start a server, fill its cache (every schedule checked) and take
    /// one hot response per request (checked again).
    fn start(inp: &Inputs, ctx: &mut SchedCtx, rec: Arc<dyn Recorder + Send + Sync>) -> Hot {
        let server = start_server(rec);
        let mut hot = Hot {
            client: Client::new(server.addr()),
            server,
            expected: vec![Vec::new(); inp.requests.len()],
            quality: Quality::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        };
        for (pass, want) in [(0, "scheduled"), (1, "cached")] {
            for &i in &inp.order {
                let r = &inp.requests[i];
                let machine = MachineModel::single_unit(r.w);
                hot.attempted += 1;
                let verdict = match hot.client.post(&target(r), &r.body) {
                    Ok(resp) if resp.status == 200 && !resp.degraded => {
                        match parse_task(&resp.body) {
                            Some(t) if t.outcome == want => {
                                let v = check_schedule(
                                    ctx,
                                    &inp.graphs[i],
                                    &machine,
                                    t.makespan,
                                    &t.blocks,
                                );
                                // Only a checked body becomes the reference,
                                // so every later copy of a bad one fails too.
                                match v {
                                    Ok(bound) if pass == 0 => hot.quality.add(t.makespan, bound),
                                    Ok(_) => hot.expected[i] = resp.body,
                                    Err(_) => {}
                                }
                                v.map(|_| ())
                            }
                            _ => Err("unexpected response body".to_string()),
                        }
                    }
                    Ok(resp) => Err(format!("status {}", resp.status)),
                    Err(e) => Err(e.to_string()),
                };
                if let Err(e) = verdict {
                    hot.failed += 1;
                    hot.errors.push(format!("request {i} (w={}): {e}", r.w));
                }
            }
        }
        hot
    }

    /// Post request `i` once; `None` when the response is not the
    /// verified hot response. Returns (client µs, bytes).
    fn post(&mut self, inp: &Inputs, i: usize) -> Option<(f64, usize)> {
        let r = &inp.requests[i];
        let t0 = Instant::now();
        let resp = self.client.post(&target(r), &r.body);
        let us = t0.elapsed().as_secs_f64() * 1e6;
        self.attempted += 1;
        match resp {
            Ok(resp)
                if resp.status == 200
                    && !resp.degraded
                    && same_response(&resp.body, &self.expected[i]) =>
            {
                Some((us, resp.bytes))
            }
            _ => {
                self.failed += 1;
                None
            }
        }
    }
}

fn inputs(seed: u64) -> Inputs {
    let (requests, order) = serve_hot(seed);
    let graphs = requests
        .iter()
        .map(|r| build_trace_graph(&r.program, &LatencyModel::fig3()))
        .collect();
    Inputs {
        requests,
        order,
        graphs,
    }
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut ctx = SchedCtx::new();
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..3 {
        drop(last.take());
        let t0 = Instant::now();
        let inp = inputs(seed);
        let hot = Hot::start(&inp, &mut ctx, Arc::new(NullRecorder));
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some((inp, hot));
    }
    let (inp, mut hot) = last.expect("set up above");

    // The timed window: closed loop, one request in flight.
    let mut lat = Vec::new();
    let window = Duration::from_secs_f64(seconds);
    let t0 = Instant::now();
    for &i in inp.order.iter().cycle() {
        if t0.elapsed() >= window {
            break;
        }
        if let Some((us, _)) = hot.post(&inp, i) {
            lat.push(us / 1e3);
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let done = lat.len() as u64;

    let mut report = Report::default();
    report.metric("throughput_per_s", "1/s", done as f64 / elapsed, done);
    report.metric("latency_p50_ms", "ms", median(&lat), done);
    report.metric("latency_p99_ms", "ms", percentile(&lat, 99.0), done);
    report.metric(
        "cycles_over_bound",
        "ratio",
        hot.quality.cycles_over_bound(),
        hot.quality.traces,
    );
    report.metric("peak_rss_mb", "MB", crate::stats::peak_rss_mb(), 1);
    report.metric("setup_s", "s", median(&setup_s), setup_s.len() as u64);

    if traced {
        let layers = traced_layers(&inp, &mut hot, &mut ctx, seed, &mut report);
        report.metrics.clear();
        layers.into_report(&mut report);
    }
    report.attempted += hot.attempted;
    report.failed += hot.failed;
    report.check_errors.append(&mut hot.errors);
    hot.server.shutdown();
    report
}

/// Client time per request (grouped by distinct request), response
/// bytes and wall time of one closed-loop pass over every request
/// `TRACED_ROUNDS` times.
struct Pass {
    client_us: Vec<Vec<f64>>,
    bytes: usize,
    requests: u64,
    connects: u64,
    secs: f64,
}

fn pass(inp: &Inputs, hot: &mut Hot) -> Pass {
    let connects = hot.client.connects;
    let mut p = Pass {
        client_us: vec![Vec::new(); inp.requests.len()],
        bytes: 0,
        requests: 0,
        connects: 0,
        secs: 0.0,
    };
    let t0 = Instant::now();
    for _ in 0..TRACED_ROUNDS {
        for &i in &inp.order {
            if let Some((us, bytes)) = hot.post(inp, i) {
                p.client_us[i].push(us);
                p.bytes += bytes;
            }
            p.requests += 1;
        }
    }
    p.secs = t0.elapsed().as_secs_f64();
    p.connects = hot.client.connects - connects;
    p
}

/// The traced run: untraced and traced passes alternate (the traced
/// server records into a `RunProfile`), then the benchmark times the
/// handler's own steps and the layer entry points directly.
fn traced_layers(
    inp: &Inputs,
    hot: &mut Hot,
    ctx: &mut SchedCtx,
    seed: u64,
    report: &mut Report,
) -> Layers {
    let profile = Arc::new(SharedProfile::default());
    let mut traced = Hot::start(inp, ctx, profile.clone());
    profile.take(); // drop the cache-fill work; measure hot requests only
    let mut untraced_passes = Vec::new();
    let mut traced_layers = Vec::new();
    let mut traced_s = 0.0;
    let mut traced_connects = 0;
    for _ in 0..2 {
        untraced_passes.push(pass(inp, hot));
        let p = pass(inp, &mut traced);
        traced_s += p.secs;
        traced_connects += p.connects;
        let mut l = Layers::default();
        l.absorb_profile(&profile.take(), p.requests);
        l.set(
            "serve.connects_per_request",
            ratio(p.connects as f64, p.requests as f64),
            p.requests,
        );
        traced_layers.push(l);
    }
    report.attempted += traced.attempted;
    report.failed += traced.failed;
    report.check_errors.append(&mut traced.errors);
    traced.server.shutdown();
    if traced_layers[0].deterministic() != traced_layers[1].deterministic() {
        report.check_errors.push(format!(
            "traced passes disagree: {:?} vs {:?}",
            traced_layers[0].deterministic(),
            traced_layers[1].deterministic()
        ));
    }
    if hot.quality != traced.quality {
        report
            .check_errors
            .push("the traced server's schedules differ from the untraced server's".into());
    }
    let mut layers = traced_layers.swap_remove(0);
    let untraced_s: f64 = untraced_passes.iter().map(|p| p.secs).sum();
    let requests: u64 = untraced_passes.iter().map(|p| p.requests).sum();
    let connects: u64 = untraced_passes.iter().map(|p| p.connects).sum();
    let bytes: usize = untraced_passes.iter().map(|p| p.bytes).sum();
    layers.set("obs.trace_overhead", ratio(untraced_s, traced_s), requests);
    if connects != traced_connects {
        report
            .check_errors
            .push("untraced and traced passes opened different connection counts".into());
    }
    layers.set(
        "serve.response_bytes",
        ratio(bytes as f64, requests as f64),
        requests,
    );

    // The handler's steps, timed from here on a pre-filled engine.
    let engine = Engine::new(EngineConfig {
        jobs: 1,
        cache: true,
        cache_capacity: 1024,
        step_budget: None,
        capture: false,
    });
    let http = |r: &HotRequest| Request {
        method: "POST".into(),
        path: "/v1/schedule".into(),
        query: vec![("w".into(), r.w.to_string())],
        headers: vec![("content-length".into(), r.body.len().to_string())],
        body: r.body.clone(),
    };
    let reqs: Vec<Request> = inp.requests.iter().map(http).collect();
    let mut handler_us = vec![Vec::new(); reqs.len()];
    let (mut encode, mut parse, mut deps) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..=TRACED_ROUNDS {
        for &i in &inp.order {
            let (parse_us, tasks) = time_us(|| wire::parse_schedule_request(&reqs[i], 512));
            let tasks = tasks.expect("generated request parses");
            let (engine_us, batch) =
                time_us(|| engine.run_batch_ctx(ctx, &tasks, &asched_obs::NULL));
            let (encode_us, _) =
                time_us(|| wire::schedule_response_json(&batch, 2_000, STEP_BUDGET));
            // Round 0 fills the engine's cache, as the server's was.
            if round > 0 {
                handler_us[i].push(parse_us + engine_us + encode_us);
                encode.push(encode_us);
            }
        }
    }
    for r in inp.requests.iter().step_by(3) {
        let text = std::str::from_utf8(&r.body).expect("generated IR is UTF-8");
        let (us, prog) = time_us(|| parse_program(text));
        parse.push(us);
        let prog = prog.expect("generated IR parses");
        deps.push(time_us(|| build_trace_graph(&prog, &LatencyModel::fig3())).0);
    }
    // Transport: client time minus handler time, per distinct body.
    let transport: Vec<f64> = (0..reqs.len())
        .map(|i| {
            let client: Vec<f64> = untraced_passes
                .iter()
                .flat_map(|p| p.client_us[i].iter().copied())
                .collect();
            median(&client) - median(&handler_us[i])
        })
        .collect();
    let n = reqs.len() as u64;
    layers.set("serve.transport_us", median(&transport), n);
    layers.set("serve.encode_us", median(&encode), encode.len() as u64);
    layers.set("ir.parse_us", median(&parse), parse.len() as u64);
    layers.set("ir.deps_us", median(&deps), deps.len() as u64);

    let tasks: Vec<TraceTask> = inp
        .requests
        .iter()
        .zip(&inp.graphs)
        .map(|(r, g)| TraceTask::new("ir", g.clone(), MachineModel::single_unit(r.w)))
        .collect();
    layers.probe_traces(ctx, &tasks.iter().collect::<Vec<_>>());
    layers.probe_compute_ranks(ctx, seed);
    layers
}
