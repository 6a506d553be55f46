//! The workspace's one JSON reader, re-exported from
//! [`asched_obs::json`] where it sits beside the writer. This crate
//! reads the documents that are not flat with it — `BENCH_*.json`
//! snapshots (a metrics object nested inside the envelope) and
//! service-model files — and trace lines through
//! [`asched_obs::schema::parse_flat_object`].

pub use asched_obs::json::{parse, Json};
