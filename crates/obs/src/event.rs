//! The structured event vocabulary of the scheduling stack.
//!
//! Every observable decision the paper's algorithms make — where
//! `Delay_Idle_Slots` pushes an idle slot, what `merge` accepts or
//! rejects, how much suffix `chop` carries forward, when the W-entry
//! window stalls — is described by one [`Event`] variant. Events are
//! plain `Copy` data (numeric payloads plus borrowed strings), so
//! *constructing* one never allocates; recorders decide what to do with
//! them.
//!
//! Each event is declared exactly once, in the `events!` table below:
//! its `"ev"` tag and, per field, the name, Rust type and wire
//! [`Kind`]. The table generates [`Event`], [`OwnedEvent`], the JSONL
//! writer behind [`crate::event_to_json`] and the validator's
//! [`SCHEMA`]; each wire enum ([`Pass`], [`MergeRung`], ...) likewise
//! declares its variants and their wire names once, in a `wire_enum!`
//! block. Adding a field means adding one table row (plus its row in
//! `docs/observability.md`, which `tests/docs_table.rs` checks).

use std::fmt;

use crate::json::JsonObject;
use crate::schema::{EventSpec, FieldSpec, Kind};

/// Declares a wire enum: the Rust enum, its `name()` and its `NAMES`
/// (the values the validator accepts), from `Variant = "wire"` pairs.
macro_rules! wire_enum {
    ($(#[$meta:meta])* pub enum $Enum:ident {
        $($(#[$vmeta:meta])* $Variant:ident = $wire:literal,)*
    }) => {
        $(#[$meta])*
        pub enum $Enum {
            $($(#[$vmeta])* $Variant,)*
        }

        impl $Enum {
            /// Every wire name, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$($wire),*];

            /// Stable lower-snake name used in JSONL and profile tables.
            pub fn name(self) -> &'static str {
                match self {
                    $($Enum::$Variant => $wire,)*
                }
            }
        }
    };
}

wire_enum! {
    /// A named pass, for span timing and per-pass wall-clock aggregation.
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    #[non_exhaustive]
    pub enum Pass {
        /// Whole-trace anticipatory scheduling (`Algorithm Lookahead`).
        ScheduleTrace = "schedule_trace",
        /// One rank computation + greedy list schedule.
        Rank = "rank",
        /// `Delay_Idle_Slots` over one block/suffix.
        DelayIdleSlots = "delay_idle_slots",
        /// Procedure `merge` for one block.
        Merge = "merge",
        /// Procedure `chop` for one block.
        Chop = "chop",
        /// The cycle-level window simulator.
        Simulate = "simulate",
        /// A batch run of the parallel scheduling engine (`asched-engine`).
        Engine = "engine",
        /// One exact branch-and-bound certification (`asched-exact`).
        Exact = "exact",
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

wire_enum! {
    /// Which rung of `merge`'s fallback ladder produced the result.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum MergeRung {
        /// The paper's relaxation loop over `new` deadlines succeeded.
        Paper = "paper",
        /// Old nodes re-pinned to their stand-alone completions, then the
        /// relaxation loop succeeded.
        PinnedOld = "pinned_old",
        /// The guaranteed-feasible concatenation (old, gap, new).
        Concatenation = "concatenation",
    }
}

wire_enum! {
    /// Why the simulated window made no progress this cycle.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum StallKind {
        /// Every in-window instruction is waiting on operand latency.
        DataWait = "data_wait",
        /// The head (or an earlier in-window instruction) is ready but its
        /// functional unit is busy, and the issue policy refuses to let
        /// later instructions overtake it.
        HeadBlocked = "head_blocked",
    }
}

wire_enum! {
    /// How one engine batch task was resolved.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub enum TaskOutcome {
        /// Algorithm `Lookahead` ran to completion.
        Scheduled = "scheduled",
        /// The result was served from the content-addressed schedule cache.
        Cached = "cached",
        /// `Lookahead` failed (error, panic or exhausted step budget) and
        /// the engine fell back to the per-block Rank schedule.
        Degraded = "degraded",
        /// Even the fallback failed; the task produced no schedule.
        Failed = "failed",
    }
}

wire_enum! {
    /// Diagnostic severity (CLI and experiment messages routed through
    /// recorders).
    #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
    pub enum Severity {
        /// Informational.
        Info = "info",
        /// Something degraded but the run continues.
        Warning = "warning",
        /// The operation failed.
        Error = "error",
    }
}

/// `Text` is the one borrowed kind: an [`OwnedEvent`] holds it as a
/// `String`, and every other field as is.
macro_rules! owned_ty {
    (Text, $ty:ty) => {
        String
    };
    ($kind:ident, $ty:ty) => {
        $ty
    };
}
macro_rules! to_owned {
    (Text, $v:ident) => {
        $v.to_owned()
    };
    ($kind:ident, $v:ident) => {
        $v
    };
}
macro_rules! reborrow {
    (Text, $v:ident) => {
        $v.as_str()
    };
    ($kind:ident, $v:ident) => {
        *$v
    };
}

/// The validator's [`Kind`] of a field; a `Choice` carries its enum's
/// wire names.
macro_rules! wire_kind {
    (Choice, $ty:ty) => {
        Kind::Choice(<$ty>::NAMES)
    };
    ($kind:ident, $ty:ty) => {
        Kind::$kind
    };
}

/// Append one field to `o` in its wire form. Fields of the three
/// `Opt*` kinds are omitted while unset.
macro_rules! write_field {
    ($o:ident, Unsigned, $name:expr, $v:expr) => {
        $o.u64($name, u64::from($v))
    };
    ($o:ident, Signed, $name:expr, $v:expr) => {
        $o.i64($name, $v)
    };
    ($o:ident, Bool, $name:expr, $v:expr) => {
        $o.bool($name, $v)
    };
    ($o:ident, Text, $name:expr, $v:expr) => {
        $o.str($name, $v)
    };
    ($o:ident, Nullable, $name:expr, $v:expr) => {
        $o.opt_u64($name, $v)
    };
    ($o:ident, Key, $name:expr, $v:expr) => {
        $o.str($name, &format!("{:032x}", $v))
    };
    ($o:ident, SpanId, $name:expr, $v:expr) => {
        $o.u64($name, $v)
    };
    ($o:ident, Choice, $name:expr, $v:expr) => {
        $o.str($name, $v.name())
    };
    ($o:ident, OptTrue, $name:expr, $v:expr) => {
        if $v {
            $o.bool($name, true);
        }
    };
    ($o:ident, OptSpan, $name:expr, $v:expr) => {
        if let Some(v) = $v {
            $o.u64($name, v);
        }
    };
}

/// Fill an unset `OptSpan` field with `$id`; other kinds are left alone.
macro_rules! attribute {
    (OptSpan, $field:ident, $id:ident) => {
        if $field.is_none() {
            *$field = Some($id);
        }
    };
    ($kind:ident, $field:ident, $id:ident) => {
        let _ = $field;
    };
}

/// The event table: generates [`Event`], [`OwnedEvent`] and their
/// conversions, the JSONL field writer, span attribution and
/// [`SCHEMA`]. Fields are written in declaration order.
macro_rules! events {
    ($(
        $(#[$vmeta:meta])*
        $Variant:ident = $tag:literal {
            $($(#[$fmeta:meta])* $field:ident: $ty:ty = $kind:ident,)*
        }
    )*) => {
        /// One structured observation. All payloads are `Copy`; string
        /// payloads are borrowed, so building an event allocates nothing.
        #[derive(Clone, Copy, Debug)]
        #[non_exhaustive]
        pub enum Event<'a> {
            $($(#[$vmeta])* $Variant { $($(#[$fmeta])* $field: $ty,)* },)*
        }

        /// An owned (`'static`) clone of an [`Event`], for buffering.
        ///
        /// Worker threads cannot share a `&dyn Recorder` (sinks such as
        /// [`crate::ProfileRecorder`] are deliberately single-threaded),
        /// so the engine captures each task's events into a buffer of
        /// `OwnedEvent`s and replays them into the real recorder
        /// afterwards, in input order. Variants and fields mirror
        /// [`Event`]; string payloads are owned `String`s.
        #[derive(Clone, Debug)]
        pub enum OwnedEvent {
            $($(#[$vmeta])* $Variant { $($(#[$fmeta])* $field: owned_ty!($kind, $ty),)* },)*
        }

        /// The wire schema, generated from the event table: every
        /// event's `"ev"` tag and its fields in emission order.
        pub static SCHEMA: &[EventSpec] = &[$(EventSpec {
            tag: $tag,
            fields: &[$(FieldSpec {
                name: stringify!($field),
                kind: wire_kind!($kind, $ty),
            },)*],
        },)*];

        impl Event<'_> {
            /// The stable `"ev"` tag of this variant in the JSONL schema.
            pub fn name(&self) -> &'static str {
                match self {
                    $(Event::$Variant { .. } => $tag,)*
                }
            }

            /// Append this event's fields, in wire form, to `o`.
            pub(crate) fn write_fields(&self, o: &mut JsonObject) {
                match *self {
                    $(Event::$Variant { $($field,)* } => {
                        $(write_field!(o, $kind, stringify!($field), $field);)*
                    })*
                }
            }

            /// This event attributed to `span`, when the variant carries
            /// a span field that is still unset. Variants without span
            /// attribution (and events already attributed) are returned
            /// unchanged — the engine uses this to tag a worker's
            /// buffered events with the task span that is only allocated
            /// later, in the deterministic emit phase.
            pub(crate) fn with_span(mut self, span: Option<u64>) -> Self {
                if let Some(id) = span {
                    match &mut self {
                        $(Event::$Variant { $($field,)* } => {
                            $(attribute!($kind, $field, id);)*
                        })*
                    }
                }
                self
            }
        }

        impl OwnedEvent {
            /// Clone a borrowed event into an owned one.
            pub fn from_event(ev: &Event<'_>) -> Self {
                match *ev {
                    $(Event::$Variant { $($field,)* } => OwnedEvent::$Variant {
                        $($field: to_owned!($kind, $field),)*
                    },)*
                }
            }

            /// Re-borrow this owned event as an [`Event`].
            pub fn as_event(&self) -> Event<'_> {
                match self {
                    $(OwnedEvent::$Variant { $($field,)* } => Event::$Variant {
                        $($field: reborrow!($kind, $field),)*
                    },)*
                }
            }
        }
    };
}

events! {
    /// A timed pass begins.
    PassBegin = "pass_begin" {
        /// Which pass.
        pass: Pass = Choice,
        /// Enclosing span, when the pass is span-attributed.
        span: Option<u64> = OptSpan,
    }
    /// A timed pass ended after `nanos` wall-clock nanoseconds.
    PassEnd = "pass_end" {
        /// Which pass.
        pass: Pass = Choice,
        /// Elapsed wall-clock nanoseconds.
        nanos: u64 = Unsigned,
        /// Enclosing span, when the pass is span-attributed.
        span: Option<u64> = OptSpan,
    }
    /// One rank computation + greedy schedule finished.
    RankRun = "rank_run" {
        /// Number of nodes in the scheduled mask.
        nodes: u32 = Unsigned,
        /// Makespan of the greedy schedule (0 when infeasible).
        makespan: u64 = Unsigned,
        /// Whether every deadline was met.
        feasible: bool = Bool,
    }
    /// `Move_Idle_Slot` attempted to delay one idle slot.
    IdleMove = "idle_move" {
        /// Functional unit owning the slot.
        unit: u32 = Unsigned,
        /// The slot's start cycle before the attempt.
        slot: u64 = Unsigned,
        /// Where the slot landed (`None` = eliminated past the end);
        /// meaningless when `moved` is false.
        new_start: Option<u64> = Nullable,
        /// Whether the slot moved (deadline edits kept) or the attempt
        /// was rolled back.
        moved: bool = Bool,
    }
    /// Algorithm `Lookahead` starts merging one block of the trace.
    BlockBegin = "block_begin" {
        /// Block id in trace order.
        block: u32 = Unsigned,
        /// Carried-over suffix size (`old`).
        carried: u32 = Unsigned,
        /// Incoming block size (`new`).
        new_nodes: u32 = Unsigned,
    }
    /// `merge` probed one relaxation amount of the `new` deadlines.
    MergeProbe = "merge_probe" {
        /// Relaxation added to every `new` deadline for this probe.
        delta: i64 = Signed,
        /// Whether the rank schedule met the relaxed deadlines
        /// (accept) or missed them (reject).
        feasible: bool = Bool,
    }
    /// `merge` finished.
    MergeDone = "merge_done" {
        /// Which fallback rung produced the schedule.
        rung: MergeRung = Choice,
        /// Makespan of the merged schedule.
        makespan: u64 = Unsigned,
        /// Final relaxation of the `new` deadlines over the merged
        /// lower bound (rung `paper`/`pinned_old`; 0 otherwise).
        relaxed: i64 = Signed,
    }
    /// `chop` cut (or declined to cut) the merged schedule.
    Chop = "chop" {
        /// The cut cycle `t_j` (`None` = nothing emitted).
        cut: Option<u64> = Nullable,
        /// Instructions emitted (`S⁻`).
        emitted: u32 = Unsigned,
        /// Instructions carried forward (`S⁺`).
        carried: u32 = Unsigned,
        /// How far the global clock advanced (`t_j + 1`, 0 if no cut).
        offset: u64 = Unsigned,
    }
    /// The simulated window issued one instruction.
    Issue = "issue" {
        /// Issue cycle.
        cycle: u64 = Unsigned,
        /// Stream position.
        pos: u32 = Unsigned,
        /// Node id.
        node: u32 = Unsigned,
        /// Functional unit.
        unit: u32 = Unsigned,
    }
    /// The simulated window made no progress for `cycles` cycles.
    Stall = "stall" {
        /// First stalled cycle.
        cycle: u64 = Unsigned,
        /// Stream position of the window head.
        head: u32 = Unsigned,
        /// Why nothing issued.
        kind: StallKind = Choice,
        /// Consecutive stalled cycles covered by this event.
        cycles: u64 = Unsigned,
    }
    /// Occupancy snapshot of the window at the start of a cycle.
    WindowOccupancy = "window_occupancy" {
        /// Cycle.
        cycle: u64 = Unsigned,
        /// Unissued instructions currently inside the W-entry window.
        occupancy: u32 = Unsigned,
    }
    /// A named monotonic counter increment.
    Counter = "counter" {
        /// Counter name (stable, lower-snake).
        name: &'a str = Text,
        /// Increment.
        delta: u64 = Unsigned,
    }
    /// A human-facing diagnostic routed through the recorder stack.
    Diagnostic = "diagnostic" {
        /// Severity.
        severity: Severity = Choice,
        /// Stable machine-readable code (e.g. `unknown_experiment`).
        code: &'a str = Text,
        /// Human-readable message.
        message: &'a str = Text,
    }
    /// The engine probed its schedule cache for one task.
    CacheQuery = "cache_query" {
        /// Content-addressed task fingerprint (128-bit).
        key: u128 = Key,
        /// Whether a cached `TraceResult` was found.
        hit: bool = Bool,
        /// Whether the hit was served by an entry loaded from an
        /// on-disk cache file (warm-start) rather than computed by
        /// this process. Always `false` on a miss.
        warm: bool = OptTrue,
        /// The task span this query belongs to, when tracing spans.
        span: Option<u64> = OptSpan,
    }
    /// The engine's FIFO cache evicted an entry to make room.
    CacheEvict = "cache_evict" {
        /// Fingerprint of the evicted entry.
        key: u128 = Key,
        /// Entries resident in the cache after the eviction.
        resident: u64 = Unsigned,
        /// The task span whose admission caused the eviction.
        span: Option<u64> = OptSpan,
    }
    /// One engine batch task finished (in deterministic input order).
    TaskDone = "task_done" {
        /// Task index within the batch.
        task: u32 = Unsigned,
        /// How the task was resolved.
        outcome: TaskOutcome = Choice,
        /// Makespan of the produced schedule (0 when `failed`).
        makespan: u64 = Unsigned,
        /// The task's span, when tracing spans.
        span: Option<u64> = OptSpan,
    }
    /// The scheduling service accepted a connection into its queue.
    ReqAccept = "req_accept" {
        /// Queue depth right after the connection was enqueued.
        queue_depth: u32 = Unsigned,
    }
    /// The scheduling service shed a connection (queue full): the
    /// client was answered `503` with a `Retry-After` header.
    ReqShed = "req_shed" {
        /// Queue depth at the moment of shedding (the full capacity).
        queue_depth: u32 = Unsigned,
    }
    /// The scheduling service finished one request.
    ReqDone = "req_done" {
        /// HTTP status code of the response.
        status: u32 = Unsigned,
        /// Wall-clock nanoseconds from accept to response written.
        nanos: u64 = Unsigned,
        /// The request's root span, when tracing spans.
        span: Option<u64> = OptSpan,
    }
    /// A span opened: a named interval of work begins.
    SpanStart = "span_start" {
        /// The span's id (sequential per trace, never 0).
        span: u64 = SpanId,
        /// Parent span (`None`/null = a root span).
        parent: Option<u64> = Nullable,
        /// What the span covers (`request`, `queue`, `read`, `handle`,
        /// `write`, `engine`, `task`, ...).
        name: &'a str = Text,
    }
    /// A span closed after `nanos` wall-clock nanoseconds.
    SpanEnd = "span_end" {
        /// The span's id.
        span: u64 = SpanId,
        /// Elapsed wall-clock nanoseconds inside the span.
        nanos: u64 = Unsigned,
    }
}
