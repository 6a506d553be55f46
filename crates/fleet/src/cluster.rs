//! The cluster model: M replicas of the serving tier behind a
//! round-robin load balancer, driven by the DES kernel.
//!
//! Fidelity comes from *reusing the server's decision code*, not
//! re-implementing it: admission (shed vs queue) is
//! [`asched_serve::AdmissionPolicy::admit`] and deadline → step-budget
//! conversion is [`asched_serve::DeadlinePolicy`] — the exact
//! functions `asched-serve` calls on the request path. What the
//! simulator *models* (rather than executes) is everything with a
//! clock or a socket in it:
//!
//! - **replica** — a bounded accept queue feeding `workers` workers;
//! - **schedule cache** — a FIFO set of request fingerprints with the
//!   engine cache's insert-on-miss/evict-oldest behavior; a hit/miss
//!   decides which calibrated service-time distribution the request
//!   samples from. `cache_scope=worker` gives each worker its own
//!   cache of `cache` entries, a what-if since the server no longer
//!   offers per-worker caches; `cache_scope=replica` pools the same
//!   memory into one cache of `cache × workers` entries per replica,
//!   the simulated counterpart of the server's shared cache;
//! - **degradation** — at dispatch, the queue-wait-decayed deadline is
//!   converted to a step budget; a request whose schedule needs more
//!   steps than the budget degrades to the Rank fallback (cheaper,
//!   counted, exactly like `engine_tasks_degraded` in production);
//! - **clients** — a shed request honors the server's `Retry-After`
//!   (plus deterministic jitter, mirroring how real clients
//!   desynchronize) up to a retry budget, then gives up.
//!
//! One seeded [`StdRng`] drives everything — arrivals, fingerprints,
//! size classes, service samples, retry jitter — so the entire run is
//! a deterministic function of `(scenario, model)`.

use std::collections::VecDeque;

use asched_serve::{Admission, AdmissionPolicy, DeadlinePolicy};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::kernel::{nanos_from_secs, EventQueue, SimNanos, SECOND};
use crate::report::FleetReport;
use crate::scenario::{CacheScope, Scenario};
use crate::service::ServiceSampler;

/// Degraded (Rank-fallback) service time divisor: the fallback skips
/// the anticipatory passes, which dominate scheduling cost, so a
/// degraded task is modeled at a quarter of its sampled full cost.
const DEGRADED_COST_DIV: u64 = 4;

/// Retry jitter window, nanoseconds (0–100 ms): clients that were shed
/// together must not return in lockstep.
const RETRY_JITTER_NS: u64 = 100_000_000;

enum Ev {
    /// The traffic generator emits the next fresh request.
    Fresh,
    /// A request (fresh or retry) reaches the load balancer.
    Arrive { req: u32 },
    /// A worker finishes its in-flight request.
    Done { replica: u32, worker: u32 },
}

struct Req {
    born: SimNanos,
    attempts: u32,
    class: u32,
    fp: u64,
}

struct Replica {
    queue: VecDeque<(u32, SimNanos)>,
    /// Per worker: the in-flight request id, if busy.
    workers: Vec<Option<u32>>,
    /// FIFO schedule caches of resident fingerprints: one per worker
    /// (`cache_scope=worker`) or a single pooled one
    /// (`cache_scope=replica`).
    caches: Vec<VecDeque<u64>>,
}

struct Sim<'a> {
    sc: &'a Scenario,
    sampler: &'a ServiceSampler,
    admission: AdmissionPolicy,
    deadline: DeadlinePolicy,
    deadline_ms: u64,
    rng: StdRng,
    q: EventQueue<Ev>,
    reqs: Vec<Req>,
    replicas: Vec<Replica>,
    rr_next: usize,
    fresh_emitted: u64,
    fresh_clock_secs: f64,
    report: FleetReport,
}

/// Run one scenario to completion and return its report.
pub fn simulate(sc: &Scenario, sampler: &ServiceSampler) -> FleetReport {
    let deadline = DeadlinePolicy {
        default_deadline_ms: sc.deadline_ms,
        steps_per_ms: sc.steps_per_ms,
    };
    // Simulated clients send no deadline header; the effective deadline
    // is the server default, resolved through the same policy call the
    // server makes.
    let deadline_ms = deadline
        .effective_deadline_ms(None)
        .expect("no header is always valid");
    let sim = Sim {
        sc,
        sampler,
        admission: AdmissionPolicy {
            queue_capacity: sc.queue,
        },
        deadline,
        deadline_ms,
        rng: StdRng::seed_from_u64(sc.seed),
        q: EventQueue::new(),
        reqs: Vec::new(),
        replicas: (0..sc.replicas)
            .map(|_| Replica {
                queue: VecDeque::new(),
                workers: vec![None; sc.workers],
                caches: match sc.cache_scope {
                    CacheScope::Worker => vec![VecDeque::new(); sc.workers],
                    CacheScope::Replica => vec![VecDeque::new()],
                },
            })
            .collect(),
        rr_next: 0,
        fresh_emitted: 0,
        fresh_clock_secs: 0.0,
        report: FleetReport::new(sc.line()),
    };
    sim.run()
}

impl Sim<'_> {
    fn run(mut self) -> FleetReport {
        if self.sc.requests > 0 {
            self.fresh_clock_secs = self
                .sc
                .traffic
                .next_arrival_secs(&mut self.rng, self.fresh_clock_secs);
            self.q
                .push(nanos_from_secs(self.fresh_clock_secs), Ev::Fresh);
        }
        while let Some((now, ev)) = self.q.pop() {
            match ev {
                Ev::Fresh => self.on_fresh(now),
                Ev::Arrive { req } => self.arrive(req, now),
                Ev::Done { replica, worker } => {
                    self.on_done(replica as usize, worker as usize, now)
                }
            }
        }
        self.report.makespan_ns = self.q.now();
        self.report.requests = self.fresh_emitted;
        // Conservation: every fresh request either completed or gave
        // up, and every arrival was either served or shed.
        debug_assert_eq!(self.report.ok + self.report.gave_up, self.report.requests);
        debug_assert_eq!(self.report.ok + self.report.shed, self.report.attempts);
        self.report
    }

    fn on_fresh(&mut self, now: SimNanos) {
        let class = self.sample_class();
        let fp = self.rng.gen_range(0..self.sc.distinct.max(1));
        let id = self.reqs.len() as u32;
        self.reqs.push(Req {
            born: now,
            attempts: 0,
            class,
            fp,
        });
        self.fresh_emitted += 1;
        if self.fresh_emitted < self.sc.requests {
            self.fresh_clock_secs = self
                .sc
                .traffic
                .next_arrival_secs(&mut self.rng, self.fresh_clock_secs);
            self.q
                .push(nanos_from_secs(self.fresh_clock_secs), Ev::Fresh);
        }
        self.arrive(id, now);
    }

    /// Geometric size classes: each doubling happens with probability
    /// `tail`, capped at `tail_max` — a heavy-tailed trace-size mix.
    fn sample_class(&mut self) -> u32 {
        let mut k = 0;
        if self.sc.tail > 0.0 {
            while k < self.sc.tail_max && self.rng.gen_bool(self.sc.tail) {
                k += 1;
            }
        }
        k
    }

    fn arrive(&mut self, req: u32, now: SimNanos) {
        self.report.attempts += 1;
        let rep = self.rr_next % self.sc.replicas;
        self.rr_next = self.rr_next.wrapping_add(1);
        match self.admission.admit(self.replicas[rep].queue.len()) {
            Admission::Accept { depth } => {
                self.report.queue_depth.record(depth as u64);
                self.replicas[rep].queue.push_back((req, now));
                self.dispatch(rep, now);
            }
            Admission::Shed {
                retry_after_secs, ..
            } => {
                self.report.shed += 1;
                let r = &mut self.reqs[req as usize];
                r.attempts += 1;
                if r.attempts <= self.sc.retries {
                    self.report.retried += 1;
                    let jitter = self.rng.gen_range(0..RETRY_JITTER_NS);
                    self.q
                        .push(now + retry_after_secs * SECOND + jitter, Ev::Arrive { req });
                } else {
                    self.report.gave_up += 1;
                }
            }
        }
    }

    /// Start queued requests on idle workers until one side runs out.
    fn dispatch(&mut self, rep: usize, now: SimNanos) {
        loop {
            let Some(widx) = self.replicas[rep].workers.iter().position(Option::is_none) else {
                return;
            };
            let Some((req, enq)) = self.replicas[rep].queue.pop_front() else {
                return;
            };
            // The server computes the step budget at schedule time,
            // after queue wait has already eaten into the deadline.
            let elapsed_ms = (now - enq) / 1_000_000;
            let remaining_ms = self.deadline.remaining_ms(self.deadline_ms, elapsed_ms);
            let budget = self.deadline.per_task_step_budget(remaining_ms, 1);
            let (class, fp) = {
                let r = &self.reqs[req as usize];
                (r.class, r.fp)
            };
            let size_mult = 1u64 << class.min(32);
            let steps_needed = self.sc.base_steps.saturating_mul(size_mult);
            let degraded = budget < steps_needed;

            // FIFO schedule cache: hit if resident; insert on miss,
            // evicting the oldest entry at capacity — the engine
            // cache's replacement behavior. Replica scope pools the
            // workers' capacity into one cache.
            let hit = if self.sc.cache == 0 {
                false
            } else {
                let (cidx, capacity) = match self.sc.cache_scope {
                    CacheScope::Worker => (widx, self.sc.cache),
                    CacheScope::Replica => (0, self.sc.cache * self.sc.workers),
                };
                let cache = &mut self.replicas[rep].caches[cidx];
                if cache.contains(&fp) {
                    self.report.cache_hits += 1;
                    true
                } else {
                    self.report.cache_misses += 1;
                    cache.push_back(fp);
                    if cache.len() > capacity {
                        cache.pop_front();
                        self.report.cache_evictions += 1;
                    }
                    false
                }
            };

            let mut task_us = self
                .sampler
                .sample_task_us(&mut self.rng, hit)
                .saturating_mul(size_mult);
            if degraded {
                self.report.degraded += 1;
                task_us = task_us / DEGRADED_COST_DIV + 1;
            }
            let service_us = task_us + self.sampler.sample_overhead_us(&mut self.rng);
            self.report.service_us.record(service_us);
            self.replicas[rep].workers[widx] = Some(req);
            self.q.push(
                now.saturating_add(service_us.saturating_mul(1_000)),
                Ev::Done {
                    replica: rep as u32,
                    worker: widx as u32,
                },
            );
        }
    }

    fn on_done(&mut self, rep: usize, widx: usize, now: SimNanos) {
        let req = self.replicas[rep].workers[widx]
            .take()
            .expect("Done event for an idle worker");
        self.report.ok += 1;
        let born = self.reqs[req as usize].born;
        self.report.latency_us.record((now - born) / 1_000);
        self.dispatch(rep, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn run(line: &str) -> FleetReport {
        let sc = Scenario::parse(line).expect(line);
        simulate(&sc, &ServiceSampler::synthetic_default())
    }

    #[test]
    fn conservation_holds_under_every_regime() {
        for line in crate::scenario::default_sweep() {
            // Shrink for test speed; the invariants are size-free.
            let mut sc = Scenario::parse(line).unwrap();
            sc.requests = 5_000;
            let r = simulate(&sc, &ServiceSampler::synthetic_default());
            assert_eq!(r.ok + r.gave_up, r.requests, "{line}");
            assert_eq!(r.ok + r.shed, r.attempts, "{line}");
            assert_eq!(r.latency_us.count(), r.ok, "{line}");
        }
    }

    #[test]
    fn underload_sheds_nothing() {
        let r = run("poisson rate=100 reqs=3000 replicas=4 workers=2");
        assert_eq!(r.shed, 0);
        assert_eq!(r.ok, 3000);
        assert_eq!(r.gave_up, 0);
        // Goodput tracks the offered rate.
        assert!(
            (r.goodput_rps() / 100.0 - 1.0).abs() < 0.15,
            "{}",
            r.goodput_rps()
        );
    }

    #[test]
    fn overload_sheds_and_retries() {
        // ~640 req/s/worker capacity at full miss cost; 8000 req/s
        // into 2 workers with a tiny queue is hard overload.
        let r = run("poisson rate=8000 reqs=5000 replicas=1 workers=2 queue=4 retries=2 cache=0");
        assert!(r.shed > 0, "{}", r.render());
        assert!(r.retried > 0);
        assert!(
            r.gave_up > 0,
            "retry budget must exhaust under sustained overload"
        );
        assert!(r.shed_rate() > 0.3, "shed rate {}", r.shed_rate());
    }

    #[test]
    fn tight_deadline_degrades_instead_of_failing() {
        // budget = 5ms * 10 steps/ms = 50 < base_steps 64 even with no
        // queue wait: every request degrades, none are lost.
        let r = run("poisson rate=100 reqs=2000 deadline_ms=5 steps_per_ms=10 base_steps=64");
        assert_eq!(r.degraded, r.ok);
        assert_eq!(r.ok, 2000);
        // And a roomy deadline degrades nothing.
        let r = run("poisson rate=100 reqs=2000 deadline_ms=2000 steps_per_ms=100");
        assert_eq!(r.degraded, 0);
    }

    #[test]
    fn cache_warmth_follows_population_size() {
        // Population fits in cache: high hit rate after warmup.
        let warm = run("poisson rate=200 reqs=10000 replicas=1 workers=1 distinct=64 cache=128");
        // Population far exceeds cache: mostly misses, evictions flow.
        let cold =
            run("poisson rate=200 reqs=10000 replicas=1 workers=1 distinct=100000 cache=128");
        assert!(warm.cache_hit_rate() > 0.9, "{}", warm.cache_hit_rate());
        assert!(cold.cache_hit_rate() < 0.1, "{}", cold.cache_hit_rate());
        assert!(cold.cache_evictions > 0);
        assert_eq!(warm.cache_evictions, 0);
        // The cache gap shows up as a service-time gap.
        let warm_p50 = warm.service_us.percentile(0.5).unwrap();
        let cold_p50 = cold.service_us.percentile(0.5).unwrap();
        assert!(cold_p50 > 3 * warm_p50, "warm {warm_p50} cold {cold_p50}");
    }

    #[test]
    fn replica_scope_pools_worker_caches() {
        // 4 private 64-entry caches thrash against 200 distinct
        // fingerprints; one pooled 256-entry cache holds them all.
        let worker = run("poisson rate=200 reqs=10000 replicas=1 workers=4 distinct=200 cache=64");
        let replica = run(
            "poisson rate=200 reqs=10000 replicas=1 workers=4 distinct=200 cache=64 \
             cache_scope=replica",
        );
        assert!(
            replica.cache_hit_rate() > worker.cache_hit_rate() + 0.1,
            "worker {} replica {}",
            worker.cache_hit_rate(),
            replica.cache_hit_rate()
        );
        assert_eq!(replica.cache_evictions, 0);
        assert!(worker.cache_evictions > 0);
    }

    #[test]
    fn heavy_tail_stretches_service_times() {
        let thin = run("poisson rate=50 reqs=4000 tail=0");
        let heavy = run("poisson rate=50 reqs=4000 tail=0.4 tail_max=6");
        let thin_max = thin.service_us.max().unwrap();
        let heavy_max = heavy.service_us.max().unwrap();
        assert!(
            heavy_max > 2 * thin_max,
            "thin {thin_max} heavy {heavy_max}"
        );
    }

    #[test]
    fn retry_latency_includes_backoff() {
        // Every retried-then-served request carries at least the 1s
        // Retry-After in its end-to-end latency.
        let r = run("poisson rate=8000 reqs=3000 replicas=1 workers=1 queue=2 retries=3 cache=0");
        assert!(r.retried > 0);
        let max_us = r.latency_us.max().unwrap();
        assert!(max_us >= 1_000_000, "max latency {max_us}us");
    }
}
