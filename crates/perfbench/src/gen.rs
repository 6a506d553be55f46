//! Seeded workload inputs. The program under test receives only what
//! these functions build.

use asched_engine::{synth_corpus, TraceTask};
use asched_graph::MachineModel;
use asched_ir::{format_program, Program};
use asched_workloads::{random_program, random_trace_dag, DagParams, ProgParams};

use crate::stats::Rng;

/// A stream of engine tasks cut into equal batches, plus the distinct
/// trace each stream slot carries.
pub struct TaskStream {
    /// One cycle of the stream; the timed loop wraps around it.
    pub tasks: Vec<TraceTask>,
    /// Distinct-trace index of every slot of `tasks`.
    pub ids: Vec<usize>,
    /// Number of distinct traces.
    pub distinct: usize,
    /// Tasks per `run_batch_ctx` call.
    pub batch: usize,
    /// Engine schedule-cache capacity, in entries.
    pub cache_capacity: usize,
    /// Slots run by the untimed warm-up pass (a multiple of `batch`).
    pub warmup_slots: usize,
    /// Leading slots the traced run's extra passes cover.
    pub traced_slots: usize,
    /// Leading distinct traces the traced run's layer probes time.
    pub probe_traces: usize,
}

impl TaskStream {
    /// The first slot carrying each distinct trace.
    pub fn first_slots(&self) -> Vec<usize> {
        let mut first = vec![usize::MAX; self.distinct];
        for (slot, &d) in self.ids.iter().enumerate().rev() {
            first[d] = slot;
        }
        first
    }
}

/// `batch-paper`: paper-shaped traces (the `synth_corpus` families:
/// ~30 nodes in 3–5 blocks, one unit, W ∈ {2, 4, 8}) in batches of 32
/// through one engine whose cache holds fewer entries than there are
/// distinct traces. Each slot repeats one of the last 256 fresh traces
/// with probability ½ (a cache hit, or a within-batch alias); otherwise
/// it takes the next distinct trace in turn, which was evicted since
/// its last use (a miss that publishes and evicts). The stream cycle
/// passes six times through the distinct set, so the p99 batch time
/// rests on ~430 batch compositions rather than on a seed's few
/// heaviest batches.
pub fn batch_paper(seed: u64) -> TaskStream {
    const POOL: usize = 128; // synth_corpus pool: 9 × POOL distinct traces
    const BATCH: usize = 32;
    const RECENT: usize = 256;
    const PASSES: usize = 6;
    let distinct: Vec<TraceTask> = {
        let mut all = synth_corpus(16 * POOL, Rng::new(seed, 1).next_u64());
        all.truncate(9 * POOL);
        all
    };
    let n = distinct.len();
    let mut rng = Rng::new(seed, 2);
    let mut ids = Vec::new();
    let mut fresh = 0;
    let mut first_pass = 0; // slots up to the end of the first pass
    while fresh < PASSES * n || ids.len() % BATCH != 0 {
        let repeat = fresh > 0 && (fresh >= PASSES * n || rng.chance(0.5));
        if repeat {
            let back = 1 + rng.below(fresh.min(RECENT));
            ids.push((fresh - back) % n);
        } else {
            ids.push(fresh % n);
            fresh += 1;
            if fresh == n {
                first_pass = ids.len().next_multiple_of(BATCH);
            }
        }
    }
    TaskStream {
        tasks: ids.iter().map(|&d| distinct[d].clone()).collect(),
        warmup_slots: first_pass,
        traced_slots: first_pass,
        ids,
        distinct: n,
        batch: BATCH,
        cache_capacity: 512,
        probe_traces: 256,
    }
}

/// `trace-large`: 2,000 distinct 64–256-node traces in 8-node blocks on
/// the RS/6000-like machine (W ∈ {4, 8}); latencies 0–3, execution
/// times 1–2, ~70% of nodes bound to a unit class. One trace per
/// `run_batch_ctx` call; the cache is smaller than the cycle, so it
/// publishes and evicts but never hits.
pub fn trace_large(seed: u64) -> TaskStream {
    const TRACES: usize = 2000;
    let mut rng = Rng::new(seed, 3);
    let tasks: Vec<TraceTask> = (0..TRACES)
        .map(|i| {
            let nodes = 64 + 8 * rng.below(25);
            let w = [4, 8][rng.below(2)];
            large_task(format!("large:{i}:n{nodes}:w{w}"), nodes, w, rng.next_u64())
        })
        .collect();
    TaskStream {
        ids: (0..tasks.len()).collect(),
        distinct: tasks.len(),
        tasks,
        batch: 1,
        cache_capacity: 32,
        warmup_slots: 24,
        traced_slots: 48,
        probe_traces: 128,
    }
}

/// One trace-large-shaped task of `nodes` nodes.
pub fn large_task(label: String, nodes: usize, w: usize, seed: u64) -> TraceTask {
    let graph = random_trace_dag(&DagParams {
        nodes,
        blocks: nodes / 8,
        edge_prob: 0.3,
        cross_prob: 0.1,
        max_latency: 3,
        max_exec: 2,
        class_fraction: 0.7,
        seed,
    });
    TraceTask::new(label, graph, MachineModel::rs6000_like(w))
}

/// One `serve-hot` request: an IR trace body and its window.
pub struct HotRequest {
    pub program: Program,
    pub body: Vec<u8>,
    pub w: usize,
}

/// `serve-hot`: 96 seeded `random_program` traces of 4 blocks × 10
/// instructions, each posted at W = 2, 4 and 8 (288 distinct requests,
/// about 1 KB of IR each), and the seeded order the client cycles.
pub fn serve_hot(seed: u64) -> (Vec<HotRequest>, Vec<usize>) {
    const PROGRAMS: usize = 96;
    let mut rng = Rng::new(seed, 4);
    let mut requests = Vec::with_capacity(3 * PROGRAMS);
    for _ in 0..PROGRAMS {
        let program = random_program(&ProgParams {
            blocks: 4,
            insts_per_block: 10,
            with_branches: true,
            seed: rng.next_u64(),
            ..ProgParams::default()
        });
        let body = format_program(&program).into_bytes();
        for w in [2, 4, 8] {
            requests.push(HotRequest {
                program: program.clone(),
                body: body.clone(),
                w,
            });
        }
    }
    // Fisher–Yates over the distinct requests: the order the timed
    // client cycles through.
    let mut order: Vec<usize> = (0..requests.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    (requests, order)
}
