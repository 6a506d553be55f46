//! The serving tier's *decision* logic, factored out of the request
//! path of the live server ([`crate::server`]).
//!
//! Everything here is a pure function of its inputs — no clocks, no
//! sockets, no locks — so each decision can be checked without a
//! server: `tests/policy_extraction.rs` compares it with the original
//! inline logic over hand-picked edge cases and a seeded random sweep.
//!
//! Three decisions live here:
//!
//! - **admission** ([`AdmissionPolicy::admit`]): may a newly accepted
//!   connection join the queue, or is it shed with `503` and a
//!   `Retry-After` hint ([`AdmissionPolicy::retry_after_secs`])?
//! - **deadline tightening** ([`DeadlinePolicy::effective_deadline_ms`]):
//!   how the `X-Asched-Deadline-Ms` request header combines with the
//!   server default (it may only tighten, never relax);
//! - **deadline → step budget** ([`DeadlinePolicy::per_task_step_budget`]):
//!   how the wall-clock remaining on a request's deadline becomes the
//!   per-task `LookaheadConfig::step_budget` that makes an overdue
//!   request *degrade* to the Rank fallback instead of erroring.

/// Admission control for the bounded accept queue.
///
/// Mirrors the server's shed rule byte for byte: a connection is shed
/// exactly when the queue already holds `queue_capacity.max(1)` jobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionPolicy {
    /// Accept-queue bound. Values below 1 behave as 1, exactly like
    /// [`crate::ServerConfig::queue_capacity`].
    pub queue_capacity: usize,
}

/// The admission verdict for one arriving connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// Join the queue; `depth` is the queue length *after* joining.
    Accept {
        /// Queue depth including this request.
        depth: usize,
    },
    /// Shed with `503` + `Retry-After: {retry_after_secs}`.
    Shed {
        /// Queue depth observed at the shed decision.
        queue_depth: usize,
        /// The `Retry-After` value, in whole seconds.
        retry_after_secs: u64,
    },
}

impl AdmissionPolicy {
    /// Decide admission for a connection arriving while the queue holds
    /// `queue_len` jobs.
    pub fn admit(&self, queue_len: usize) -> Admission {
        if queue_len >= self.queue_capacity.max(1) {
            Admission::Shed {
                queue_depth: queue_len,
                retry_after_secs: self.retry_after_secs(queue_len),
            }
        } else {
            Admission::Accept {
                depth: queue_len + 1,
            }
        }
    }

    /// The `Retry-After` hint sent with a shed, in seconds. One knob,
    /// one place: a well-behaved client (`asched-load` among them)
    /// waits this long before retrying a 503.
    pub fn retry_after_secs(&self, _queue_len: usize) -> u64 {
        1
    }
}

/// Deadline handling: header tightening and step-budget conversion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeadlinePolicy {
    /// Server default per-request deadline, measured from accept
    /// ([`crate::ServerConfig::deadline_ms`]).
    pub default_deadline_ms: u64,
    /// Deadline→step-budget conversion rate
    /// ([`crate::ServerConfig::steps_per_ms`]).
    pub steps_per_ms: u64,
}

impl DeadlinePolicy {
    /// Combine the server default with an optional
    /// `X-Asched-Deadline-Ms` header value. The header may only
    /// *tighten* the deadline; a malformed header is an error the
    /// server answers with `400 bad_deadline`.
    pub fn effective_deadline_ms(&self, header: Option<&str>) -> Result<u64, String> {
        match header {
            None => Ok(self.default_deadline_ms),
            Some(v) => match v.parse::<u64>() {
                Ok(ms) => Ok(ms.min(self.default_deadline_ms)),
                Err(_) => Err(format!(
                    "X-Asched-Deadline-Ms must be an integer, got {v:?}"
                )),
            },
        }
    }

    /// Wall-clock budget left on a deadline after `elapsed_ms` already
    /// passed (queue wait + reading the request), saturating at zero.
    pub fn remaining_ms(&self, deadline_ms: u64, elapsed_ms: u64) -> u64 {
        deadline_ms.saturating_sub(elapsed_ms)
    }

    /// Convert remaining wall-clock into the per-task step budget for a
    /// batch of `tasks` tasks. Never zero: an overdue request still
    /// gets a budget of 1, which degrades it to the Rank fallback — a
    /// valid schedule, not an error.
    pub fn per_task_step_budget(&self, remaining_ms: u64, tasks: usize) -> u64 {
        (remaining_ms * self.steps_per_ms / tasks.max(1) as u64).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_sheds_exactly_at_capacity() {
        let p = AdmissionPolicy { queue_capacity: 2 };
        assert_eq!(p.admit(0), Admission::Accept { depth: 1 });
        assert_eq!(p.admit(1), Admission::Accept { depth: 2 });
        assert_eq!(
            p.admit(2),
            Admission::Shed {
                queue_depth: 2,
                retry_after_secs: 1
            }
        );
        // Capacity 0 behaves as capacity 1, like ServerConfig.
        let p = AdmissionPolicy { queue_capacity: 0 };
        assert_eq!(p.admit(0), Admission::Accept { depth: 1 });
        assert!(matches!(p.admit(1), Admission::Shed { .. }));
    }

    #[test]
    fn deadlines_only_tighten() {
        let p = DeadlinePolicy {
            default_deadline_ms: 2_000,
            steps_per_ms: 100,
        };
        assert_eq!(p.effective_deadline_ms(None), Ok(2_000));
        assert_eq!(p.effective_deadline_ms(Some("500")), Ok(500));
        assert_eq!(p.effective_deadline_ms(Some("9999")), Ok(2_000));
        assert!(p.effective_deadline_ms(Some("soon")).is_err());
    }

    #[test]
    fn budget_conversion_floors_at_one() {
        let p = DeadlinePolicy {
            default_deadline_ms: 2_000,
            steps_per_ms: 100,
        };
        assert_eq!(p.remaining_ms(2_000, 150), 1_850);
        assert_eq!(p.remaining_ms(100, 2_000), 0);
        assert_eq!(p.per_task_step_budget(1_850, 5), 37_000);
        assert_eq!(p.per_task_step_budget(0, 5), 1);
        assert_eq!(p.per_task_step_budget(10, 0), 1_000);
    }
}
