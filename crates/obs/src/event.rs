//! The structured event vocabulary of the scheduling stack.
//!
//! Every observable decision the paper's algorithms make — where
//! `Delay_Idle_Slots` pushes an idle slot, what `merge` accepts or
//! rejects, how much suffix `chop` carries forward, when the W-entry
//! window stalls — is described by one [`Event`] variant. Events are
//! plain `Copy` data (numeric payloads plus borrowed strings), so
//! *constructing* one never allocates; recorders decide what to do with
//! them. The JSONL wire form of each variant is documented in
//! `docs/observability.md` and enforced by [`crate::schema`].

use std::fmt;

/// A named pass, for span timing and per-pass wall-clock aggregation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
#[non_exhaustive]
pub enum Pass {
    /// Whole-trace anticipatory scheduling (`Algorithm Lookahead`).
    ScheduleTrace,
    /// One rank computation + greedy list schedule.
    Rank,
    /// `Delay_Idle_Slots` over one block/suffix.
    DelayIdleSlots,
    /// Procedure `merge` for one block.
    Merge,
    /// Procedure `chop` for one block.
    Chop,
    /// The cycle-level window simulator.
    Simulate,
    /// Experiment or CLI driver work that is none of the above.
    Driver,
    /// A batch run of the parallel scheduling engine (`asched-engine`).
    Engine,
    /// One exact branch-and-bound certification (`asched-exact`).
    Exact,
}

impl Pass {
    /// Stable lower-snake name used in JSONL and profile tables.
    pub fn name(self) -> &'static str {
        match self {
            Pass::ScheduleTrace => "schedule_trace",
            Pass::Rank => "rank",
            Pass::DelayIdleSlots => "delay_idle_slots",
            Pass::Merge => "merge",
            Pass::Chop => "chop",
            Pass::Simulate => "simulate",
            Pass::Driver => "driver",
            Pass::Engine => "engine",
            Pass::Exact => "exact",
        }
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which rung of `merge`'s fallback ladder produced the result.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MergeRung {
    /// The paper's relaxation loop over `new` deadlines succeeded.
    Paper,
    /// Old nodes re-pinned to their stand-alone completions, then the
    /// relaxation loop succeeded.
    PinnedOld,
    /// The guaranteed-feasible concatenation (old, gap, new).
    Concatenation,
}

impl MergeRung {
    /// Stable lower-snake name used in JSONL.
    pub fn name(self) -> &'static str {
        match self {
            MergeRung::Paper => "paper",
            MergeRung::PinnedOld => "pinned_old",
            MergeRung::Concatenation => "concatenation",
        }
    }
}

/// Why the simulated window made no progress this cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StallKind {
    /// Every in-window instruction is waiting on operand latency.
    DataWait,
    /// The head (or an earlier in-window instruction) is ready but its
    /// functional unit is busy, and the issue policy refuses to let
    /// later instructions overtake it.
    HeadBlocked,
}

impl StallKind {
    /// Stable lower-snake name used in JSONL.
    pub fn name(self) -> &'static str {
        match self {
            StallKind::DataWait => "data_wait",
            StallKind::HeadBlocked => "head_blocked",
        }
    }
}

/// How one engine batch task was resolved.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskOutcome {
    /// Algorithm `Lookahead` ran to completion.
    Scheduled,
    /// The result was served from the content-addressed schedule cache.
    Cached,
    /// `Lookahead` failed (error, panic or exhausted step budget) and
    /// the engine fell back to the per-block Rank schedule.
    Degraded,
    /// Even the fallback failed; the task produced no schedule.
    Failed,
}

impl TaskOutcome {
    /// Stable lower-snake name used in JSONL.
    pub fn name(self) -> &'static str {
        match self {
            TaskOutcome::Scheduled => "scheduled",
            TaskOutcome::Cached => "cached",
            TaskOutcome::Degraded => "degraded",
            TaskOutcome::Failed => "failed",
        }
    }
}

/// Diagnostic severity (CLI/driver messages routed through recorders).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Informational.
    Info,
    /// Something degraded but the run continues.
    Warning,
    /// The operation failed.
    Error,
}

impl Severity {
    /// Stable lower-snake name used in JSONL.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One structured observation. All payloads are `Copy`; string payloads
/// are borrowed, so building an event allocates nothing.
#[derive(Clone, Copy, Debug)]
#[non_exhaustive]
pub enum Event<'a> {
    /// A timed pass begins.
    PassBegin {
        /// Which pass.
        pass: Pass,
        /// Enclosing span, when the pass is span-attributed.
        span: Option<u64>,
    },
    /// A timed pass ended after `nanos` wall-clock nanoseconds.
    PassEnd {
        /// Which pass.
        pass: Pass,
        /// Elapsed wall-clock nanoseconds.
        nanos: u64,
        /// Enclosing span, when the pass is span-attributed.
        span: Option<u64>,
    },
    /// One rank computation + greedy schedule finished.
    RankRun {
        /// Number of nodes in the scheduled mask.
        nodes: u32,
        /// Makespan of the greedy schedule (0 when infeasible).
        makespan: u64,
        /// Whether every deadline was met.
        feasible: bool,
    },
    /// `Move_Idle_Slot` attempted to delay one idle slot.
    IdleMove {
        /// Functional unit owning the slot.
        unit: u32,
        /// The slot's start cycle before the attempt.
        slot: u64,
        /// Where the slot landed (`None` = eliminated past the end);
        /// meaningless when `moved` is false.
        new_start: Option<u64>,
        /// Whether the slot moved (deadline edits kept) or the attempt
        /// was rolled back.
        moved: bool,
    },
    /// Algorithm `Lookahead` starts merging one block of the trace.
    BlockBegin {
        /// Block id in trace order.
        block: u32,
        /// Carried-over suffix size (`old`).
        carried: u32,
        /// Incoming block size (`new`).
        new_nodes: u32,
    },
    /// `merge` probed one relaxation amount of the `new` deadlines.
    MergeProbe {
        /// Relaxation added to every `new` deadline for this probe.
        delta: i64,
        /// Whether the rank schedule met the relaxed deadlines
        /// (accept) or missed them (reject).
        feasible: bool,
    },
    /// `merge` finished.
    MergeDone {
        /// Which fallback rung produced the schedule.
        rung: MergeRung,
        /// Makespan of the merged schedule.
        makespan: u64,
        /// Final relaxation of the `new` deadlines over the merged
        /// lower bound (rung `paper`/`pinned_old`; 0 otherwise).
        relaxed: i64,
    },
    /// `chop` cut (or declined to cut) the merged schedule.
    Chop {
        /// The cut cycle `t_j` (`None` = nothing emitted).
        cut: Option<u64>,
        /// Instructions emitted (`S⁻`).
        emitted: u32,
        /// Instructions carried forward (`S⁺`).
        carried: u32,
        /// How far the global clock advanced (`t_j + 1`, 0 if no cut).
        offset: u64,
    },
    /// The simulated window issued one instruction.
    Issue {
        /// Issue cycle.
        cycle: u64,
        /// Stream position.
        pos: u32,
        /// Node id.
        node: u32,
        /// Functional unit.
        unit: u32,
    },
    /// The simulated window made no progress for `cycles` cycles.
    Stall {
        /// First stalled cycle.
        cycle: u64,
        /// Stream position of the window head.
        head: u32,
        /// Why nothing issued.
        kind: StallKind,
        /// Consecutive stalled cycles covered by this event.
        cycles: u64,
    },
    /// Occupancy snapshot of the window at the start of a cycle.
    WindowOccupancy {
        /// Cycle.
        cycle: u64,
        /// Unissued instructions currently inside the W-entry window.
        occupancy: u32,
    },
    /// A named monotonic counter increment.
    Counter {
        /// Counter name (stable, lower-snake).
        name: &'a str,
        /// Increment.
        delta: u64,
    },
    /// A human-facing diagnostic routed through the recorder stack.
    Diagnostic {
        /// Severity.
        severity: Severity,
        /// Stable machine-readable code (e.g. `unknown_experiment`).
        code: &'a str,
        /// Human-readable message.
        message: &'a str,
    },
    /// The engine probed its schedule cache for one task.
    CacheQuery {
        /// Content-addressed task fingerprint (128-bit).
        key: u128,
        /// Whether a cached `TraceResult` was found.
        hit: bool,
        /// Shard the key maps to. The engine always sets it (`0` for
        /// an engine's own one-shard cache); `None` omits the field.
        shard: Option<u32>,
        /// Whether the hit was served by an entry loaded from an
        /// on-disk cache file (warm-start) rather than computed by
        /// this process. Always `false` on a miss.
        warm: bool,
        /// The task span this query belongs to, when tracing spans.
        span: Option<u64>,
    },
    /// The engine's FIFO cache evicted an entry to make room.
    CacheEvict {
        /// Fingerprint of the evicted entry.
        key: u128,
        /// Entries resident in the evicting shard after the eviction.
        resident: u64,
        /// Shard the eviction happened in (the engine always sets it;
        /// `None` omits the field). Always the shard of the *inserted*
        /// key: an insert only ever evicts within its own shard.
        shard: Option<u32>,
        /// The task span whose admission caused the eviction.
        span: Option<u64>,
    },
    /// One engine batch task finished (in deterministic input order).
    TaskDone {
        /// Task index within the batch.
        task: u32,
        /// How the task was resolved.
        outcome: TaskOutcome,
        /// Makespan of the produced schedule (0 when `failed`).
        makespan: u64,
        /// The task's span, when tracing spans.
        span: Option<u64>,
    },
    /// The scheduling service accepted a connection into its queue.
    ReqAccept {
        /// Queue depth right after the connection was enqueued.
        queue_depth: u32,
    },
    /// The scheduling service shed a connection (queue full): the
    /// client was answered `503` with a `Retry-After` header.
    ReqShed {
        /// Queue depth at the moment of shedding (the full capacity).
        queue_depth: u32,
    },
    /// The scheduling service finished one request.
    ReqDone {
        /// HTTP status code of the response.
        status: u32,
        /// Wall-clock nanoseconds from accept to response written.
        nanos: u64,
        /// The request's root span, when tracing spans.
        span: Option<u64>,
    },
    /// A span opened: a named interval of work begins.
    SpanStart {
        /// The span's id (sequential per trace, never 0).
        span: u64,
        /// Parent span (`None`/null = a root span).
        parent: Option<u64>,
        /// What the span covers (`request`, `queue`, `read`, `handle`,
        /// `write`, `engine`, `task`, ...).
        name: &'a str,
    },
    /// A span closed after `nanos` wall-clock nanoseconds.
    SpanEnd {
        /// The span's id.
        span: u64,
        /// Elapsed wall-clock nanoseconds inside the span.
        nanos: u64,
    },
}

impl Event<'_> {
    /// The stable `"ev"` tag of this variant in the JSONL schema.
    pub fn name(&self) -> &'static str {
        match self {
            Event::PassBegin { .. } => "pass_begin",
            Event::PassEnd { .. } => "pass_end",
            Event::RankRun { .. } => "rank_run",
            Event::IdleMove { .. } => "idle_move",
            Event::BlockBegin { .. } => "block_begin",
            Event::MergeProbe { .. } => "merge_probe",
            Event::MergeDone { .. } => "merge_done",
            Event::Chop { .. } => "chop",
            Event::Issue { .. } => "issue",
            Event::Stall { .. } => "stall",
            Event::WindowOccupancy { .. } => "window_occupancy",
            Event::Counter { .. } => "counter",
            Event::Diagnostic { .. } => "diagnostic",
            Event::CacheQuery { .. } => "cache_query",
            Event::CacheEvict { .. } => "cache_evict",
            Event::TaskDone { .. } => "task_done",
            Event::ReqAccept { .. } => "req_accept",
            Event::ReqShed { .. } => "req_shed",
            Event::ReqDone { .. } => "req_done",
            Event::SpanStart { .. } => "span_start",
            Event::SpanEnd { .. } => "span_end",
        }
    }

    /// This event attributed to `span`, when the variant carries a span
    /// field that is still unset. Variants without span attribution
    /// (and events already attributed) are returned unchanged — the
    /// engine uses this to tag a worker's buffered events with the task
    /// span that is only allocated later, in the deterministic emit
    /// phase.
    pub fn with_span(self, span: u64) -> Self {
        match self {
            Event::PassBegin { pass, span: None } => Event::PassBegin {
                pass,
                span: Some(span),
            },
            Event::PassEnd {
                pass,
                nanos,
                span: None,
            } => Event::PassEnd {
                pass,
                nanos,
                span: Some(span),
            },
            Event::CacheQuery {
                key,
                hit,
                shard,
                warm,
                span: None,
            } => Event::CacheQuery {
                key,
                hit,
                shard,
                warm,
                span: Some(span),
            },
            Event::CacheEvict {
                key,
                resident,
                shard,
                span: None,
            } => Event::CacheEvict {
                key,
                resident,
                shard,
                span: Some(span),
            },
            Event::TaskDone {
                task,
                outcome,
                makespan,
                span: None,
            } => Event::TaskDone {
                task,
                outcome,
                makespan,
                span: Some(span),
            },
            Event::ReqDone {
                status,
                nanos,
                span: None,
            } => Event::ReqDone {
                status,
                nanos,
                span: Some(span),
            },
            other => other,
        }
    }
}

/// An owned (`'static`) clone of an [`Event`], for buffering.
///
/// Worker threads cannot share a `&dyn Recorder` (sinks such as
/// [`crate::ProfileRecorder`] are deliberately single-threaded), so the
/// engine captures each task's events into a buffer of `OwnedEvent`s
/// and replays them into the real recorder afterwards, in input order.
/// Only the string-carrying variants differ from [`Event`]: their
/// payloads are owned `String`s.
#[derive(Clone, Debug)]
pub enum OwnedEvent {
    /// Owned form of [`Event::Counter`].
    Counter {
        /// Counter name.
        name: String,
        /// Increment.
        delta: u64,
    },
    /// Owned form of [`Event::Diagnostic`].
    Diagnostic {
        /// Severity.
        severity: Severity,
        /// Machine-readable code.
        code: String,
        /// Human-readable message.
        message: String,
    },
    /// Owned form of [`Event::SpanStart`].
    SpanStart {
        /// Span id.
        span: u64,
        /// Parent span.
        parent: Option<u64>,
        /// Span name.
        name: String,
    },
    /// Any `Copy` variant, stored as-is with its borrowed-string
    /// variants unreachable (they are covered above).
    Plain(Event<'static>),
}

impl OwnedEvent {
    /// Clone a borrowed event into an owned one.
    pub fn from_event(ev: &Event<'_>) -> Self {
        match *ev {
            Event::Counter { name, delta } => OwnedEvent::Counter {
                name: name.to_owned(),
                delta,
            },
            Event::Diagnostic {
                severity,
                code,
                message,
            } => OwnedEvent::Diagnostic {
                severity,
                code: code.to_owned(),
                message: message.to_owned(),
            },
            Event::SpanStart { span, parent, name } => OwnedEvent::SpanStart {
                span,
                parent,
                name: name.to_owned(),
            },
            Event::PassBegin { pass, span } => OwnedEvent::Plain(Event::PassBegin { pass, span }),
            Event::PassEnd { pass, nanos, span } => {
                OwnedEvent::Plain(Event::PassEnd { pass, nanos, span })
            }
            Event::RankRun {
                nodes,
                makespan,
                feasible,
            } => OwnedEvent::Plain(Event::RankRun {
                nodes,
                makespan,
                feasible,
            }),
            Event::IdleMove {
                unit,
                slot,
                new_start,
                moved,
            } => OwnedEvent::Plain(Event::IdleMove {
                unit,
                slot,
                new_start,
                moved,
            }),
            Event::BlockBegin {
                block,
                carried,
                new_nodes,
            } => OwnedEvent::Plain(Event::BlockBegin {
                block,
                carried,
                new_nodes,
            }),
            Event::MergeProbe { delta, feasible } => {
                OwnedEvent::Plain(Event::MergeProbe { delta, feasible })
            }
            Event::MergeDone {
                rung,
                makespan,
                relaxed,
            } => OwnedEvent::Plain(Event::MergeDone {
                rung,
                makespan,
                relaxed,
            }),
            Event::Chop {
                cut,
                emitted,
                carried,
                offset,
            } => OwnedEvent::Plain(Event::Chop {
                cut,
                emitted,
                carried,
                offset,
            }),
            Event::Issue {
                cycle,
                pos,
                node,
                unit,
            } => OwnedEvent::Plain(Event::Issue {
                cycle,
                pos,
                node,
                unit,
            }),
            Event::Stall {
                cycle,
                head,
                kind,
                cycles,
            } => OwnedEvent::Plain(Event::Stall {
                cycle,
                head,
                kind,
                cycles,
            }),
            Event::WindowOccupancy { cycle, occupancy } => {
                OwnedEvent::Plain(Event::WindowOccupancy { cycle, occupancy })
            }
            Event::CacheQuery {
                key,
                hit,
                shard,
                warm,
                span,
            } => OwnedEvent::Plain(Event::CacheQuery {
                key,
                hit,
                shard,
                warm,
                span,
            }),
            Event::CacheEvict {
                key,
                resident,
                shard,
                span,
            } => OwnedEvent::Plain(Event::CacheEvict {
                key,
                resident,
                shard,
                span,
            }),
            Event::TaskDone {
                task,
                outcome,
                makespan,
                span,
            } => OwnedEvent::Plain(Event::TaskDone {
                task,
                outcome,
                makespan,
                span,
            }),
            Event::ReqAccept { queue_depth } => OwnedEvent::Plain(Event::ReqAccept { queue_depth }),
            Event::ReqShed { queue_depth } => OwnedEvent::Plain(Event::ReqShed { queue_depth }),
            Event::ReqDone {
                status,
                nanos,
                span,
            } => OwnedEvent::Plain(Event::ReqDone {
                status,
                nanos,
                span,
            }),
            Event::SpanEnd { span, nanos } => OwnedEvent::Plain(Event::SpanEnd { span, nanos }),
        }
    }

    /// Re-borrow this owned event as an [`Event`].
    pub fn as_event(&self) -> Event<'_> {
        match self {
            OwnedEvent::Counter { name, delta } => Event::Counter {
                name,
                delta: *delta,
            },
            OwnedEvent::Diagnostic {
                severity,
                code,
                message,
            } => Event::Diagnostic {
                severity: *severity,
                code,
                message,
            },
            OwnedEvent::SpanStart { span, parent, name } => Event::SpanStart {
                span: *span,
                parent: *parent,
                name,
            },
            OwnedEvent::Plain(ev) => *ev,
        }
    }
}
