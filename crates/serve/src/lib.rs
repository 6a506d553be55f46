//! # asched-serve — the scheduling service
//!
//! A hermetic, `std`-only HTTP/1.1 service that exposes the batch
//! scheduling [`Engine`](asched_engine::Engine) over the network, plus
//! `asched-load`, its load generator. No async runtime, no external
//! HTTP crate: a bounded accept queue feeds a small pool of worker
//! threads, each owning a long-lived
//! [`SchedCtx`](asched_graph::SchedCtx) and a cache-backed engine.
//!
//! Endpoints:
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /v1/schedule` | schedule a manifest- or IR-format trace batch |
//! | `GET /healthz` | liveness + drain state |
//! | `GET /metrics` | counters, latency percentiles, engine profile (JSON; `?format=prometheus` for text exposition) |
//! | `GET /admin/flight` | flight recorder: last N request summaries |
//! | `POST /admin/drain` | begin graceful drain |
//!
//! Overload and failure policy, in one paragraph: when the accept
//! queue is full, requests are **shed** with `503` + `Retry-After`
//! (never queued unboundedly, never hung); when a request's deadline
//! is near, its remaining time becomes a step budget and the scheduler
//! **degrades** to the per-block Rank fallback (a valid schedule,
//! flagged, not an error); when a handler panics, the worker answers
//! `500` and lives on; when the server drains, everything accepted is
//! finished first. See `docs/serve.md` for the wire format.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod flight;
pub mod http;
pub mod loadgen;
pub mod metrics;
pub mod policy;
pub mod prom;
pub mod server;
pub mod wire;

pub use client::{http_request, ClientResponse};
pub use flight::{FlightRecorder, RequestSummary};
pub use loadgen::{run_closed_loop, synth_request_bodies, LoadReport};
pub use metrics::{ServeMetrics, WorkerCacheStats};
pub use policy::{Admission, AdmissionPolicy, DeadlinePolicy};
pub use prom::validate_exposition;
pub use server::{Server, ServerConfig, ServerHandle};
pub use wire::{task_json, BodyFormat};
