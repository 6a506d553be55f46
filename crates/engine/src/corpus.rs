//! Corpus construction: manifest parsing and seeded synthesis.
//!
//! A corpus manifest is a plain text file, one task per line (the
//! build is hermetic — no serde — so the format is `key=value` words):
//!
//! ```text
//! # kind   parameters...                          machine
//! dag  nodes=36 blocks=4 edge_prob=0.3 seed=7     w=4 units=1
//! seam blocks=5 fillers=3 seed=3                  w=2 units=1
//! prog blocks=3 insts=10 regs=8 seed=11           w=4 units=rs6000
//! ```
//!
//! Kinds map onto the `asched-workloads` generators: `dag` →
//! [`random_trace_dag`], `seam` → [`seam_trace`], `prog` →
//! [`random_program`] lowered through `asched-ir`'s dependence
//! analysis with the paper's Figure-3 latencies. Unspecified keys keep
//! the generator's defaults; `w` (window) and `units` (a unit count or
//! `rs6000`) describe the machine ([`machine_spec`]), `label` overrides
//! the default `kind:seed:wW` label.
//!
//! Parameters are checked before any generator runs, so a served
//! manifest cannot panic a generator or ask it for unbounded work:
//! `dag` needs `nodes >= blocks >= 1`, `prog` needs `regs` in `1..=32`,
//! every probability and fraction must be finite and within `[0, 1]`,
//! latencies and execution times are at most 64 cycles, a machine has
//! at most 64 units, and one line generates at most 4,096 nodes.

use asched_graph::MachineModel;
use asched_ir::{build_trace_graph, LatencyModel};
use asched_workloads::{random_program, random_trace_dag, seam_trace};
use asched_workloads::{DagParams, ProgParams, SeamParams};
use std::fmt;

use crate::engine::TraceTask;

/// Why a manifest failed to parse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorpusError {
    /// 1-based manifest line.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "manifest line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for CorpusError {}

/// Most nodes one manifest line may generate. Every manifest in the
/// repository builds 32 or fewer; the generators' cost grows with the
/// square of the node count before any deadline applies.
const MAX_LINE_NODES: usize = 4096;

/// Most functional units a machine spec may name. The largest machine
/// in the repository has four (`rs6000`); every list pass walks all
/// units per node, and the unit table is allocated up front.
const MAX_UNITS: usize = 64;

/// Largest latency or execution time, in cycles, one manifest key may
/// ask for. The repository's experiments use at most 4; idle-slot
/// queries and `chop`'s busy map cost time and memory linear in the
/// makespan, which grows with these values.
const MAX_CYCLES: u32 = 64;

fn err(line: usize, message: impl Into<String>) -> CorpusError {
    CorpusError {
        line,
        message: message.into(),
    }
}

struct Line<'a> {
    no: usize,
    pairs: Vec<(&'a str, &'a str)>,
    used: Vec<bool>,
}

impl<'a> Line<'a> {
    fn parse(no: usize, words: &[&'a str]) -> Result<Self, CorpusError> {
        let mut pairs = Vec::new();
        for w in words {
            let (k, v) = w
                .split_once('=')
                .ok_or_else(|| err(no, format!("expected key=value, got {w:?}")))?;
            pairs.push((k, v));
        }
        let used = vec![false; pairs.len()];
        Ok(Line { no, pairs, used })
    }

    fn get(&mut self, key: &str) -> Option<&'a str> {
        for (i, (k, v)) in self.pairs.iter().enumerate() {
            if *k == key {
                self.used[i] = true;
                return Some(v);
            }
        }
        None
    }

    fn num<T: std::str::FromStr>(&mut self, key: &str, default: T) -> Result<T, CorpusError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(self.no, format!("bad value for {key}: {v:?}"))),
        }
    }

    /// A probability or fraction: finite and within `[0, 1]`.
    fn fraction(&mut self, key: &str, default: f64) -> Result<f64, CorpusError> {
        let v: f64 = self.num(key, default)?;
        if !(0.0..=1.0).contains(&v) {
            return Err(err(
                self.no,
                format!("{key} must be within [0, 1], got {v}"),
            ));
        }
        Ok(v)
    }

    /// A latency or execution time: at most [`MAX_CYCLES`].
    fn cycles(&mut self, key: &str, default: u32) -> Result<u32, CorpusError> {
        let v: u32 = self.num(key, default)?;
        if v > MAX_CYCLES {
            return Err(err(
                self.no,
                format!("{key} must be at most {MAX_CYCLES} cycles, got {v}"),
            ));
        }
        Ok(v)
    }

    /// Reject a line that would generate more than [`MAX_LINE_NODES`]
    /// nodes (`None`: the count overflowed).
    fn node_cap(&self, nodes: Option<usize>) -> Result<(), CorpusError> {
        match nodes {
            Some(n) if n <= MAX_LINE_NODES => Ok(()),
            _ => Err(err(
                self.no,
                format!("a line may generate at most {MAX_LINE_NODES} nodes"),
            )),
        }
    }

    fn finish(&self) -> Result<(), CorpusError> {
        for (i, (k, _)) in self.pairs.iter().enumerate() {
            if !self.used[i] {
                return Err(err(self.no, format!("unknown key {k:?}")));
            }
        }
        Ok(())
    }
}

/// The machine named by a window `w` and a `units` spec, as manifest
/// lines and `POST /v1/schedule` query strings write them.
///
/// `w` defaults to 4 and must be a positive integer. Without `units`
/// the machine has one universal unit; `rs6000` is
/// [`MachineModel::rs6000_like`]; a number `n` in `1..=64` is `n`
/// uniform universal units.
pub fn machine_spec(w: Option<&str>, units: Option<&str>) -> Result<MachineModel, String> {
    let w: usize = match w {
        None => 4,
        Some(v) => v
            .parse()
            .ok()
            .filter(|&w| w >= 1)
            .ok_or_else(|| format!("w must be a positive integer, got {v:?}"))?,
    };
    match units {
        None => Ok(MachineModel::single_unit(w)),
        Some("rs6000") => Ok(MachineModel::rs6000_like(w)),
        Some(v) => {
            let n: usize = v
                .parse()
                .ok()
                .filter(|n| (1..=MAX_UNITS).contains(n))
                .ok_or_else(|| {
                    format!("units must be \"rs6000\" or an integer in 1..={MAX_UNITS}, got {v:?}")
                })?;
            Ok(MachineModel::uniform(n, w))
        }
    }
}

/// Parse a corpus manifest into tasks. Blank lines and `#` comments are
/// skipped; errors carry the offending 1-based line number.
pub fn parse_manifest(text: &str) -> Result<Vec<TraceTask>, CorpusError> {
    let mut tasks = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let no = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let words: Vec<&str> = line.split_whitespace().collect();
        let (kind, rest) = words.split_first().expect("non-empty line");
        let mut l = Line::parse(no, rest)?;
        let machine = machine_spec(l.get("w"), l.get("units")).map_err(|e| err(no, e))?;
        let label_override = l.get("label").map(str::to_owned);
        let (graph, seed) = match *kind {
            "dag" => {
                let p = DagParams {
                    nodes: l.num("nodes", DagParams::default().nodes)?,
                    blocks: l.num("blocks", DagParams::default().blocks)?,
                    edge_prob: l.fraction("edge_prob", DagParams::default().edge_prob)?,
                    cross_prob: l.fraction("cross_prob", DagParams::default().cross_prob)?,
                    max_latency: l.cycles("max_latency", DagParams::default().max_latency)?,
                    max_exec: l.cycles("max_exec", DagParams::default().max_exec)?,
                    class_fraction: l
                        .fraction("class_fraction", DagParams::default().class_fraction)?,
                    seed: l.num("seed", 0)?,
                };
                if !(p.nodes >= p.blocks && p.blocks >= 1) {
                    return Err(err(
                        no,
                        format!(
                            "need nodes >= blocks >= 1, got nodes={} blocks={}",
                            p.nodes, p.blocks
                        ),
                    ));
                }
                l.node_cap(Some(p.nodes))?;
                (random_trace_dag(&p), p.seed)
            }
            "seam" => {
                let p = SeamParams {
                    blocks: l.num("blocks", SeamParams::default().blocks)?,
                    fillers: l.num("fillers", SeamParams::default().fillers)?,
                    seam_latency: l.cycles("seam_latency", SeamParams::default().seam_latency)?,
                    chain_latency: l
                        .cycles("chain_latency", SeamParams::default().chain_latency)?,
                    seed: l.num("seed", 0)?,
                };
                // Two heads, the fillers, a chain consumer and a producer.
                l.node_cap(
                    p.fillers
                        .checked_add(4)
                        .and_then(|k| k.checked_mul(p.blocks)),
                )?;
                (seam_trace(&p), p.seed)
            }
            "prog" => {
                let p = ProgParams {
                    blocks: l.num("blocks", ProgParams::default().blocks)?,
                    insts_per_block: l.num("insts", ProgParams::default().insts_per_block)?,
                    regs: l.num("regs", ProgParams::default().regs)?,
                    mem_fraction: l.fraction("mem", ProgParams::default().mem_fraction)?,
                    mul_fraction: l.fraction("mul", ProgParams::default().mul_fraction)?,
                    is_loop: false,
                    accumulators: 0,
                    with_branches: l.num::<u8>("branches", 0)? != 0,
                    seed: l.num("seed", 0)?,
                };
                if !(1..=32).contains(&p.regs) {
                    return Err(err(no, format!("regs must be in 1..=32, got {}", p.regs)));
                }
                // A branching block ends with a compare and a branch.
                let per_block = p.insts_per_block.checked_add(2 * p.with_branches as usize);
                l.node_cap(per_block.and_then(|k| k.checked_mul(p.blocks)))?;
                let prog = random_program(&p);
                (build_trace_graph(&prog, &LatencyModel::fig3()), p.seed)
            }
            other => return Err(err(no, format!("unknown task kind {other:?}"))),
        };
        l.finish()?;
        let label =
            label_override.unwrap_or_else(|| format!("{kind}:{seed}:w{w}", w = machine.window));
        tasks.push(TraceTask::new(label, graph, machine));
    }
    Ok(tasks)
}

/// Synthesize a seeded mixed corpus of `count` tasks.
///
/// Tasks cycle through the three generator families, and the parameter
/// space deliberately wraps (seed pool and window cycle repeat after
/// `3 × pool` variants per family) so a large corpus contains exact
/// duplicates — the workload a schedule cache exists for. The corpus
/// is a pure function of `(count, seed)`.
pub fn synth_corpus(count: usize, seed: u64) -> Vec<TraceTask> {
    const WINDOWS: [usize; 3] = [2, 4, 8];
    let pool = (count / 16).max(1) as u64;
    let mut tasks = Vec::with_capacity(count);
    for i in 0..count {
        let family = i % 3;
        let variant = (i / 3) as u64 % (3 * pool);
        let w = WINDOWS[(variant / pool) as usize];
        let sd = seed.wrapping_add(variant % pool);
        let (kind, graph) = match family {
            0 => (
                "dag",
                random_trace_dag(&DagParams {
                    nodes: 32,
                    blocks: 4,
                    edge_prob: 0.3,
                    cross_prob: 0.15,
                    seed: sd,
                    ..DagParams::default()
                }),
            ),
            1 => (
                "seam",
                seam_trace(&SeamParams {
                    blocks: 5,
                    fillers: 3,
                    seed: sd,
                    ..SeamParams::default()
                }),
            ),
            _ => {
                let prog = random_program(&ProgParams {
                    blocks: 3,
                    insts_per_block: 9,
                    with_branches: false,
                    seed: sd,
                    ..ProgParams::default()
                });
                ("prog", build_trace_graph(&prog, &LatencyModel::fig3()))
            }
        };
        tasks.push(TraceTask::new(
            format!("{kind}:{sd}:w{w}"),
            graph,
            MachineModel::single_unit(w),
        ));
    }
    tasks
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trip() {
        let text = "\
# a comment\n\
\n\
dag nodes=12 blocks=2 seed=7 w=2 units=1\n\
seam blocks=3 fillers=2 seed=1 w=4   # trailing comment\n\
prog blocks=2 insts=6 seed=5 w=8 units=rs6000 label=hot-loop\n";
        let tasks = parse_manifest(text).unwrap();
        assert_eq!(tasks.len(), 3);
        assert_eq!(tasks[0].label, "dag:7:w2");
        assert_eq!(tasks[0].graph.len(), 12);
        assert_eq!(tasks[0].machine.window, 2);
        assert_eq!(tasks[1].machine.window, 4);
        assert_eq!(tasks[2].label, "hot-loop");
        assert_eq!(tasks[2].machine.units.len(), 4);
    }

    #[test]
    fn manifest_errors_carry_line_numbers() {
        assert_eq!(parse_manifest("warp speed=9\n").unwrap_err().line, 1);
        assert_eq!(parse_manifest("dag nodes\n").unwrap_err().line, 1);
        assert_eq!(parse_manifest("\ndag nodes=zz\n").unwrap_err().line, 2);
        assert_eq!(parse_manifest("dag zorp=1\n").unwrap_err().line, 1);
        assert_eq!(parse_manifest("dag w=0\n").unwrap_err().line, 1);
    }

    #[test]
    fn out_of_range_parameters_are_rejected_before_generating() {
        for line in [
            "dag nodes=0",
            "dag blocks=0",
            "dag nodes=5 blocks=10",
            "dag cross_prob=nan",
            "dag edge_prob=1.5",
            "dag class_fraction=-0.1",
            "dag edge_prob=inf",
            "dag nodes=10000000 blocks=4",
            "dag nodes=4097 blocks=1",
            "seam blocks=1000 fillers=1000",
            "seam blocks=2 fillers=18446744073709551615",
            "prog regs=0",
            "prog regs=33",
            "prog mul=nan",
            "prog mem=2",
            "prog blocks=100 insts=100",
            "prog blocks=2 insts=18446744073709551615 branches=1",
            "dag units=0",
            "dag units=65",
            "dag units=1000000000000",
            "dag max_latency=65",
            "dag max_latency=4294967295",
            "dag max_exec=65",
            "seam seam_latency=65",
            "seam chain_latency=20000000",
        ] {
            let e = parse_manifest(&format!("# ok\n{line} w=2\n")).unwrap_err();
            assert_eq!(e.line, 2, "{line}: {e}");
        }
        // The bounds themselves are accepted.
        let text = "dag nodes=4096 blocks=4096 edge_prob=0 cross_prob=1\n\
                    seam blocks=512 fillers=4\n\
                    prog blocks=2 insts=3 regs=32 mem=1 mul=0 branches=1\n\
                    dag nodes=8 max_latency=64 max_exec=64 units=64\n\
                    seam seam_latency=64 chain_latency=64\n";
        let tasks = parse_manifest(text).unwrap();
        assert_eq!(tasks[0].graph.len(), MAX_LINE_NODES);
        assert_eq!(tasks[1].graph.len(), MAX_LINE_NODES);
        assert_eq!(tasks[2].graph.len(), 10);
        assert_eq!(tasks[3].machine.units.len(), MAX_UNITS);
    }

    #[test]
    fn synth_is_deterministic_and_contains_duplicates() {
        let a = synth_corpus(96, 42);
        let b = synth_corpus(96, 42);
        assert_eq!(a.len(), 96);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.graph.len(), y.graph.len());
        }
        // The parameter space wraps: 96 tasks over a pool of 6 seeds ×
        // 3 windows per family must repeat labels.
        let mut labels: Vec<&str> = a.iter().map(|t| t.label.as_str()).collect();
        let total = labels.len();
        labels.sort_unstable();
        labels.dedup();
        assert!(labels.len() < total, "expected duplicate tasks");
    }
}
