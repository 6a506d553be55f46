//! The experiment registry.
//!
//! Each experiment regenerates one figure of the paper or one table of
//! the future-work evaluation, writing a self-describing report to the
//! given writer. Experiment ids match DESIGN.md / EXPERIMENTS.md.

use asched_core::TraceResult;
use asched_engine::{Engine, TraceTask};
use asched_graph::{DepGraph, MachineModel, NodeId, SchedCtx, SchedOpts};
use asched_obs::{record, Event, Recorder, SpanAlloc, SpanScope, NULL};
use asched_sim::{simulate, InstStream, IssuePolicy};
use std::io::{self, Write};

mod e10;
mod e12;
mod e13;
mod e14;
mod e15;
mod e5;
mod e6;
mod e7;
mod e8;
mod e9;
mod f1;
mod f2;
mod f3;
mod f8;

/// Context threaded through every experiment: the report writer, the
/// active event [`Recorder`], the batch [`Engine`] that schedules every
/// trace corpus, and the machine-readable metrics the experiment
/// publishes alongside its text tables (the cycle counts that end up in
/// `BENCH_<label>.json` snapshots).
///
/// `RunCtx` implements [`io::Write`] by delegating to the report
/// writer, so experiment code keeps using `writeln!`.
pub struct RunCtx<'a> {
    out: &'a mut dyn Write,
    rec: &'a dyn Recorder,
    engine: Engine,
    metrics: Vec<(String, f64)>,
    /// Span ids for `--trace` runs. One allocator for the whole repro,
    /// drawn from only in the engine's sequential phases, so traces are
    /// byte-identical across `--jobs` settings (modulo `nanos`).
    spans: SpanAlloc,
}

impl<'a> RunCtx<'a> {
    /// Context writing to `out`, with recording disabled.
    pub fn new(out: &'a mut dyn Write) -> Self {
        RunCtx::with_recorder(out, &NULL)
    }

    /// Context writing to `out` and reporting events to `rec`. The
    /// engine defaults to sequential execution with the cache off, so
    /// the output is the reference (single-threaded) reproduction.
    pub fn with_recorder(out: &'a mut dyn Write, rec: &'a dyn Recorder) -> Self {
        RunCtx::with_engine(out, rec, Engine::default())
    }

    /// Context with a caller-configured engine (`repro --jobs N`).
    pub fn with_engine(out: &'a mut dyn Write, rec: &'a dyn Recorder, engine: Engine) -> Self {
        RunCtx {
            out,
            rec,
            engine,
            metrics: Vec::new(),
            spans: SpanAlloc::new(),
        }
    }

    /// The active recorder, for experiment code that calls a scheduler
    /// directly (pass it on with `SchedOpts::with_recorder`).
    pub fn recorder(&self) -> &'a dyn Recorder {
        self.rec
    }

    /// Schedule a corpus of trace tasks through the batch engine and
    /// return the results in input order. Experiments collect their
    /// (graph, machine, config) triples up front and batch them here,
    /// so `repro --jobs N` parallelizes every embarrassingly-parallel
    /// sweep without changing its output — the engine's results are a
    /// pure function of the corpus.
    ///
    /// Panics if a task fails even the engine's rank fallback; the
    /// experiment corpora are all schedulable by construction, so a
    /// failure here is a bug, exactly like the `.expect("schedules")`
    /// calls it replaces.
    pub fn trace_batch(&self, tasks: Vec<TraceTask>) -> Vec<TraceResult> {
        // Each batch becomes one root "engine" span with a "task" span
        // per task; with recording disabled the traced path collapses
        // to the plain one and allocates no ids.
        self.engine
            .run_batch_traced(None, &tasks, self.rec, Some(SpanScope::root(&self.spans)))
            .into_results()
            .expect("experiment corpus schedules")
    }

    /// Publish one integer metric (typically a cycle count). Mirrored
    /// onto the event stream as a `counter` event so profiles and
    /// traces see the same numbers as the snapshot.
    pub fn metric(&mut self, name: &str, value: u64) {
        record!(self.rec, Event::Counter { name, delta: value });
        self.metrics.push((name.to_string(), value as f64));
    }

    /// Publish one fractional metric (means, ratios). Snapshot-only:
    /// the event stream's counters are integral.
    pub fn metric_f(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// All metrics published so far, in insertion order.
    pub fn metrics(&self) -> &[(String, f64)] {
        &self.metrics
    }
}

impl io::Write for RunCtx<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.out.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.out.flush()
    }
}

/// One registered experiment.
pub struct Experiment {
    /// Identifier (`f1`, `e5`, …).
    pub id: &'static str,
    /// One-line description.
    pub title: &'static str,
    /// Run it, writing the report and publishing metrics.
    pub run: fn(&mut RunCtx<'_>) -> io::Result<()>,
    /// Included in the default `repro` run (and therefore in the
    /// byte-identical `repro_output.txt` reference). Non-default
    /// experiments run only when named explicitly, so new families can
    /// join the registry without perturbing the reference report.
    pub default: bool,
}

/// All experiments, in presentation order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            id: "f1",
            title: "Figure 1: rank schedule and idle-slot delaying for BB1",
            run: f1::run,
            default: true,
        },
        Experiment {
            id: "f2",
            title: "Figure 2: anticipatory scheduling of BB1,BB2 at W=2",
            run: f2::run,
            default: true,
        },
        Experiment {
            id: "f3",
            title: "Figure 3: partial-products loop (from IR) and Section 5.2.3",
            run: f3::run,
            default: true,
        },
        Experiment {
            id: "f8",
            title: "Figure 8: single-source counter-example, general case wins",
            run: f8::run,
            default: true,
        },
        Experiment {
            id: "e5",
            title: "E5: window-size sweep, all schedulers on random traces",
            run: e5::run,
            default: true,
        },
        Experiment {
            id: "e6",
            title: "E6: trace-length sweep at W=4",
            run: e6::run,
            default: true,
        },
        Experiment {
            id: "e7",
            title: "E7: optimality check against the exact optimum (restricted case)",
            run: e7::run,
            default: true,
        },
        Experiment {
            id: "e8",
            title: "E8: multiple functional units (Section 4.2 heuristic)",
            run: e8::run,
            default: true,
        },
        Experiment {
            id: "e9",
            title: "E9: loop steady state — local vs 5.2.3 vs modulo vs post-pass",
            run: e9::run,
            default: true,
        },
        Experiment {
            id: "e10",
            title: "E10: ablations — idle-slot delaying and old-protection",
            run: e10::run,
            default: true,
        },
        Experiment {
            id: "e12",
            title: "E12: branch-prediction accuracy sensitivity",
            run: e12::run,
            default: true,
        },
        Experiment {
            id: "e13",
            title: "E13: loop unrolling x anticipatory scheduling",
            run: e13::run,
            default: true,
        },
        Experiment {
            id: "e14",
            title: "E14: register pressure and local renaming",
            run: e14::run,
            default: true,
        },
        Experiment {
            id: "e15",
            title: "E15: certified optimality gaps via the exact solver (non-default)",
            run: e15::run,
            default: false,
        },
    ]
}

/// Run every *default* experiment — the byte-identical reference
/// reproduction. Non-default experiments (`e15`) run only by id.
pub fn run_all(ctx: &mut RunCtx<'_>) -> io::Result<()> {
    for e in all() {
        if e.default {
            (e.run)(ctx)?;
        }
    }
    Ok(())
}

/// Run one experiment by id. Returns false if the id is unknown.
pub fn run_by_id(id: &str, ctx: &mut RunCtx<'_>) -> io::Result<bool> {
    for e in all() {
        if e.id.eq_ignore_ascii_case(id) {
            (e.run)(ctx)?;
            return Ok(true);
        }
    }
    Ok(false)
}

/// Simulated completion of emitted per-block orders.
pub(crate) fn sim_blocks(
    sc: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    orders: &[Vec<NodeId>],
) -> u64 {
    let stream = InstStream::from_blocks(orders);
    simulate(
        sc,
        g,
        machine,
        &stream,
        IssuePolicy::Strict,
        &SchedOpts::default(),
    )
    .completion
}

/// Simulated completion of a single global order (the trace-scheduling
/// oracle's code after global motion).
pub(crate) fn sim_order(
    sc: &mut SchedCtx,
    g: &DepGraph,
    machine: &MachineModel,
    order: &[NodeId],
) -> u64 {
    let stream = InstStream::from_order(order);
    simulate(
        sc,
        g,
        machine,
        &stream,
        IssuePolicy::Strict,
        &SchedOpts::default(),
    )
    .completion
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<&str> = all().iter().map(|e| e.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert_eq!(n, 14);
        // The reference report covers exactly the 13 default
        // experiments; e15 joins only when named.
        assert_eq!(all().iter().filter(|e| e.default).count(), 13);
        assert!(!all().iter().find(|e| e.id == "e15").unwrap().default);
    }

    #[test]
    fn unknown_id_reports_false() {
        let mut sink = Vec::new();
        let mut ctx = RunCtx::new(&mut sink);
        assert!(!run_by_id("zz", &mut ctx).unwrap());
    }

    /// Every experiment runs without error and produces output
    /// containing its section id. This is the smoke test that keeps the
    /// whole harness wired.
    #[test]
    fn all_experiments_run() {
        for e in all() {
            let mut out = Vec::new();
            let mut ctx = RunCtx::new(&mut out);
            (e.run)(&mut ctx).unwrap_or_else(|err| panic!("{} failed: {err}", e.id));
            assert!(
                !ctx.metrics().is_empty(),
                "{} must publish at least one metric",
                e.id
            );
            drop(ctx);
            let text = String::from_utf8(out).unwrap();
            assert!(
                text.to_lowercase()
                    .contains(&format!("[{}]", e.id).to_lowercase()),
                "{} output must carry its id",
                e.id
            );
            assert!(text.len() > 100, "{} output too small", e.id);
            if e.id.starts_with('f') {
                assert!(
                    text.contains("reproduction: EXACT"),
                    "{} must reproduce the paper exactly",
                    e.id
                );
            }
        }
    }
}
