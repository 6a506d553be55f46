//! `asched` — schedule an IR program from the command line.
//!
//! ```text
//! asched [OPTIONS] <file.asm>        # or `-` for stdin
//!
//! OPTIONS:
//!   --window W          lookahead window size (default 4)
//!   --machine M         single | uniformN | rs6000      (default single)
//!   --latency L         restricted | fig3 | rs6000      (default fig3)
//!   --scheduler S       anticipatory | local | source | critpath |
//!                       gibbons | coffman | bernstein | warren
//!   --iterations N      for loops: simulate N iterations (default 32)
//!   --unroll N          unroll a single-block loop N times first
//!   --rename            rename provably-dead register reuse first
//!   --dot               print the dependence graph in Graphviz DOT
//!   --stats             print cycle counts and utilization
//!   --timeline          print the per-unit execution timeline
//!   --trace FILE        write a JSONL event trace (see docs/observability.md)
//!   --profile           print per-pass timings and event counters
//! ```
//!
//! Reads a program in the `asched-ir` textual format, builds its
//! dependence graph, schedules it, and prints the scheduled program.
//! Loops (`loop { … }`) go through the Section 5 algorithms; traces
//! (`trace { … }`) through Algorithm `Lookahead`.

use asched::baselines::all_baselines;
use asched::core::{
    schedule_blocks_independent, schedule_loop_trace, schedule_trace, LookaheadConfig, SchedCtx,
    SchedOpts,
};
use asched::graph::{to_dot, DepGraph, MachineModel, NodeId};
use asched::ir::{
    build_loop_graph, build_trace_graph, format_scheduled_block, parse_program, LatencyModel,
    Program, ProgramKind,
};
use asched::obs::{JsonlRecorder, ProfileRecorder, Recorder, TeeRecorder, NULL};
use asched::sim::{loop_completion, simulate, steady_period, utilization, InstStream, IssuePolicy};
use std::io::Read;
use std::process::ExitCode;

struct Options {
    window: usize,
    machine: String,
    latency: String,
    scheduler: String,
    iterations: u32,
    unroll: u32,
    rename: bool,
    dot: bool,
    stats: bool,
    timeline: bool,
    trace: Option<String>,
    profile: bool,
    input: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: asched [--window W] [--machine single|uniformN|rs6000] \
         [--latency restricted|fig3|rs6000] [--scheduler NAME] \
         [--iterations N] [--unroll N] [--rename] [--dot] [--stats] \
         [--timeline] [--trace FILE] [--profile] <file.asm | ->"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut o = Options {
        window: 4,
        machine: "single".into(),
        latency: "fig3".into(),
        scheduler: "anticipatory".into(),
        iterations: 32,
        unroll: 1,
        rename: false,
        dot: false,
        stats: false,
        timeline: false,
        trace: None,
        profile: false,
        input: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--window" => {
                o.window = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--machine" => o.machine = args.next().unwrap_or_else(|| usage()),
            "--latency" => o.latency = args.next().unwrap_or_else(|| usage()),
            "--scheduler" => o.scheduler = args.next().unwrap_or_else(|| usage()),
            "--iterations" => {
                o.iterations = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--unroll" => {
                o.unroll = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--rename" => o.rename = true,
            "--dot" => o.dot = true,
            "--stats" => o.stats = true,
            "--timeline" => o.timeline = true,
            "--trace" => o.trace = Some(args.next().unwrap_or_else(|| usage())),
            "--profile" => o.profile = true,
            "--help" | "-h" => usage(),
            _ if o.input.is_none() && !a.starts_with("--") => o.input = Some(a),
            _ => usage(),
        }
    }
    if o.input.is_none() {
        usage();
    }
    if o.window == 0 {
        eprintln!("--window must be at least 1");
        std::process::exit(2);
    }
    if o.unroll == 0 {
        eprintln!("--unroll must be at least 1");
        std::process::exit(2);
    }
    o
}

fn machine_model(o: &Options) -> MachineModel {
    if o.machine == "single" {
        MachineModel::single_unit(o.window)
    } else if o.machine == "rs6000" {
        MachineModel::rs6000_like(o.window)
    } else if let Some(n) = o.machine.strip_prefix("uniform") {
        let n: usize = n.parse().unwrap_or_else(|_| usage());
        if n == 0 {
            eprintln!("--machine uniformN needs at least one unit");
            std::process::exit(2);
        }
        MachineModel::uniform(n, o.window)
    } else {
        usage()
    }
}

fn latency_model(o: &Options) -> LatencyModel {
    match o.latency.as_str() {
        "restricted" => LatencyModel::restricted_01(),
        "fig3" => LatencyModel::fig3(),
        "rs6000" => LatencyModel::rs6000_like(),
        _ => usage(),
    }
}

fn schedule(
    sc: &mut SchedCtx,
    o: &Options,
    g: &DepGraph,
    machine: &MachineModel,
    is_loop: bool,
    rec: &dyn Recorder,
) -> Result<Vec<Vec<NodeId>>, String> {
    let cfg = LookaheadConfig::default();
    let opts = SchedOpts::default().with_recorder(rec);
    match o.scheduler.as_str() {
        "anticipatory" => {
            if is_loop {
                schedule_loop_trace(sc, g, machine, &cfg, &opts)
                    .map(|r| r.block_orders)
                    .map_err(|e| e.to_string())
            } else {
                schedule_trace(sc, g, machine, &cfg, &opts)
                    .map(|r| r.block_orders)
                    .map_err(|e| e.to_string())
            }
        }
        "local" => schedule_blocks_independent(sc, g, machine, true).map_err(|e| e.to_string()),
        name => {
            let b = all_baselines()
                .into_iter()
                .find(|b| b.name == name)
                .ok_or_else(|| format!("unknown scheduler `{name}`"))?;
            (b.run)(g, machine).map_err(|e| e.to_string())
        }
    }
}

fn report_stats(
    sc: &mut SchedCtx,
    o: &Options,
    prog: &Program,
    g: &DepGraph,
    machine: &MachineModel,
    orders: &[Vec<NodeId>],
) {
    if prog.kind == ProgramKind::Loop {
        let n = o.iterations.max(2);
        let completion = loop_completion(sc, g, machine, orders, n);
        let (cycles, iters) = steady_period(sc, g, machine, orders, n);
        println!(
            "# {n} iterations: {completion} cycles; steady state {:.2} cycles/iteration",
            cycles as f64 / iters as f64
        );
    } else {
        let stream = InstStream::from_blocks(orders);
        let r = simulate(
            sc,
            g,
            machine,
            &stream,
            IssuePolicy::Strict,
            &SchedOpts::default(),
        );
        let st = utilization(g, machine, &stream, &r);
        println!(
            "# {} cycles, {} instructions, utilization {:.1}%, {} stall cycles",
            r.completion,
            st.instructions,
            st.utilization * 100.0,
            st.stall_cycles
        );
    }
}

fn main() -> ExitCode {
    let o = parse_args();
    let src = match o.input.as_deref() {
        Some("-") => {
            let mut s = String::new();
            if std::io::stdin().read_to_string(&mut s).is_err() {
                eprintln!("error reading stdin");
                return ExitCode::FAILURE;
            }
            s
        }
        Some(path) => match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error reading {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => unreachable!(),
    };

    let mut prog = match parse_program(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if o.unroll > 1 {
        if prog.kind != ProgramKind::Loop || prog.blocks.len() != 1 {
            eprintln!("--unroll needs a single-block loop");
            return ExitCode::FAILURE;
        }
        prog = asched::ir::transform::unroll(&prog, o.unroll);
    }
    if o.rename {
        prog = asched::ir::transform::rename_locals(&prog);
    }
    let prog = prog;
    let lat = latency_model(&o);
    let machine = machine_model(&o);
    let is_loop = prog.kind == ProgramKind::Loop;
    let g = if is_loop {
        build_loop_graph(&prog, &lat)
    } else {
        build_trace_graph(&prog, &lat)
    };

    if o.dot {
        print!("{}", to_dot(&g, o.input.as_deref().unwrap_or("program")));
        return ExitCode::SUCCESS;
    }

    // Observability sinks: a JSONL trace file and/or an aggregated
    // profile, tee'd together. With neither flag both sides are the
    // null recorder and the tee reports disabled, so instrumented code
    // never constructs an event.
    let tracer = match o.trace.as_deref() {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some(JsonlRecorder::new(std::io::BufWriter::new(f))),
            Err(e) => {
                eprintln!("error creating trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let profiler = o.profile.then(ProfileRecorder::new);
    let trace_rec: &dyn Recorder = tracer.as_ref().map_or(&NULL as &dyn Recorder, |r| r);
    let profile_rec: &dyn Recorder = profiler.as_ref().map_or(&NULL as &dyn Recorder, |r| r);
    let tee = TeeRecorder::new(trace_rec, profile_rec);
    let rec: &dyn Recorder = &tee;

    let mut sc = SchedCtx::new();
    let orders = match schedule(&mut sc, &o, &g, &machine, is_loop, rec) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("scheduling failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "# scheduled by `{}` for {} (W = {})",
        o.scheduler, o.machine, machine.window
    );
    let kind = if is_loop { "loop" } else { "trace" };
    println!("{kind} {{");
    for (bi, order) in orders.iter().enumerate() {
        for line in format_scheduled_block(&prog, bi, order).lines() {
            println!("  {line}");
        }
    }
    println!("}}");
    if o.stats {
        report_stats(&mut sc, &o, &prog, &g, &machine, &orders);
    }
    if o.timeline {
        let stream = if is_loop && orders.len() == 1 {
            InstStream::loop_iterations(&orders, o.iterations.clamp(2, 8))
        } else {
            InstStream::from_blocks(&orders)
        };
        let r = simulate(
            &mut sc,
            &g,
            &machine,
            &stream,
            IssuePolicy::Strict,
            &SchedOpts::default(),
        );
        println!("# timeline (one row per unit; ' marks iteration mod 3):");
        println!("{}", asched::sim::timeline(&g, &machine, &stream, &r));
    }
    if let Some(p) = profiler {
        print!("{}", p.into_profile());
    }
    if let Some(t) = tracer {
        let mut w = t.into_inner();
        if let Err(e) = std::io::Write::flush(&mut w) {
            eprintln!("error writing trace file: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
