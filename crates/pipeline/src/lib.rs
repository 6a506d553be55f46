//! Software pipelining (modulo scheduling) and the anticipatory
//! post-pass.
//!
//! Paper Section 2.4 observes that the Figure 3 loop had already been
//! software-pipelined (the store belongs to the previous iteration) and
//! that *"anticipatory instruction scheduling can be used as a post-pass
//! to software pipelining (the two techniques are complementary)"*. This
//! crate provides the substrate to demonstrate that:
//!
//! * [`res_mii`] / [`rec_mii`] — the classic initiation-interval lower
//!   bounds (resource and recurrence constrained);
//! * [`modulo_schedule`] — simplified iterative modulo scheduling (Rau):
//!   height-priority placement into a modulo reservation table with
//!   bounded eviction;
//! * [`kernel_loop`] — re-expresses the modulo schedule as a new
//!   single-block loop (same nodes, re-based `<latency, distance>`
//!   edges) whose emitted order is the kernel;
//! * [`anticipatory_postpass`] — runs the paper's Section 5.2 loop
//!   scheduler over the kernel and reports the steady-state improvement;
//! * [`optimal_ii`] — a certified bracket on the optimal initiation
//!   interval for small loops (analytic MII below, exhaustive windowed
//!   placement search above), mirroring the `asched-exact` certificate
//!   style.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod kernel;
mod mii;
mod modulo;
mod optii;
mod postpass;

pub use kernel::{kernel_loop, KernelLoop};
pub use mii::{mii, rec_mii, res_mii};
pub use modulo::{modulo_schedule, ModuloSchedule, PipelineError};
pub use optii::{optimal_ii, IiCertificate};
pub use postpass::{anticipatory_postpass, PostpassReport};
