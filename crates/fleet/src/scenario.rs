//! The scenario grammar: one line fully describes one simulated run.
//!
//! ```text
//! poisson rate=800 reqs=1000000 replicas=4 workers=2 queue=64 seed=42
//! onoff hi=1500 lo=100 period_s=4 duty=0.3 reqs=200000
//! diurnal rate=700 amp=0.8 period_s=30 reqs=200000 replicas=3
//! ```
//!
//! The first token picks the traffic shape ([`crate::Traffic`]); the
//! rest are `key=value` pairs, every one optional, with the defaults
//! below. A scenario is *closed over its knobs*: [`Scenario::line`]
//! re-emits the canonical normalized form (every knob explicit, fixed
//! order), which is what reports echo and what makes two runs
//! comparable at a glance.
//!
//! | key | default | meaning |
//! |-----|---------|---------|
//! | `name` | the kind | label used in sweep tables and metric names |
//! | `rate` | 500 | mean req/s (poisson, diurnal) |
//! | `hi`/`lo` | 1500/100 | on/off burst and quiet rates (onoff) |
//! | `period_s` | 10 | burst or sinusoid period, seconds |
//! | `duty` | 0.3 | burst fraction of each period (onoff) |
//! | `amp` | 0.8 | relative sinusoid swing (diurnal) |
//! | `reqs` | 100000 | fresh requests offered |
//! | `replicas` | 4 | serve replicas behind the round-robin LB |
//! | `workers` | 2 | workers per replica |
//! | `queue` | 64 | accept-queue bound per replica |
//! | `deadline_ms` | 2000 | server default deadline |
//! | `steps_per_ms` | 100 | deadline→step-budget conversion |
//! | `cache` | 128 | per-worker schedule-cache capacity (0 = off) |
//! | `cache_scope` | worker | `worker` = per-worker caches (a what-if: the server no longer offers them); `replica` = one shared cache per replica of capacity `cache × workers` |
//! | `distinct` | 256 | distinct request fingerprints in the population |
//! | `retries` | 3 | client retry budget after a 503 |
//! | `tail` | 0 | per-doubling probability of a larger request |
//! | `tail_max` | 6 | cap on size-class doublings |
//! | `base_steps` | 64 | schedule length of a size-class-0 request |
//! | `seed` | 42 | the one RNG seed for the whole run |

use crate::traffic::Traffic;

/// How a replica's workers share their schedule cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CacheScope {
    /// Each worker owns a cache of `cache` entries. A what-if: the
    /// server no longer offers per-worker caches.
    #[default]
    Worker,
    /// All workers of a replica share one cache of `cache × workers`
    /// entries — same aggregate memory, pooled. The simulated
    /// counterpart of the server's one shared cache.
    Replica,
}

impl CacheScope {
    fn token(self) -> &'static str {
        match self {
            CacheScope::Worker => "worker",
            CacheScope::Replica => "replica",
        }
    }
}

/// A fully-specified simulation scenario. See the module docs for the
/// line grammar and knob meanings.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Label for tables and metric prefixes.
    pub name: String,
    /// Fresh-request arrival process.
    pub traffic: Traffic,
    /// Fresh requests offered (retries come on top).
    pub requests: u64,
    /// Serve replicas behind the load balancer.
    pub replicas: usize,
    /// Workers per replica.
    pub workers: usize,
    /// Accept-queue bound per replica ([`asched_serve::AdmissionPolicy`]).
    pub queue: usize,
    /// Server default deadline ([`asched_serve::DeadlinePolicy`]).
    pub deadline_ms: u64,
    /// Deadline→step-budget conversion rate.
    pub steps_per_ms: u64,
    /// Per-worker schedule-cache capacity; 0 disables the cache model.
    pub cache: usize,
    /// Whether workers of a replica pool their cache capacity.
    pub cache_scope: CacheScope,
    /// Distinct request fingerprints (uniform popularity).
    pub distinct: u64,
    /// Client retry budget after a shed.
    pub retries: u32,
    /// Probability a request doubles in size, applied repeatedly
    /// (geometric size classes); 0 = all requests identical.
    pub tail: f64,
    /// Maximum number of size doublings.
    pub tail_max: u32,
    /// Steps needed by a size-class-0 request; compared against the
    /// deadline-derived step budget to decide degradation.
    pub base_steps: u64,
    /// RNG seed for the entire run.
    pub seed: u64,
}

impl Scenario {
    fn with_traffic(kind: &str, traffic: Traffic) -> Self {
        Scenario {
            name: kind.to_string(),
            traffic,
            requests: 100_000,
            replicas: 4,
            workers: 2,
            queue: 64,
            deadline_ms: 2_000,
            steps_per_ms: 100,
            cache: 128,
            cache_scope: CacheScope::default(),
            distinct: 256,
            retries: 3,
            tail: 0.0,
            tail_max: 6,
            base_steps: 64,
            seed: 42,
        }
    }

    /// Parse a scenario line. Errors name the offending token.
    pub fn parse(line: &str) -> Result<Scenario, String> {
        let mut tokens = line.split_whitespace();
        let kind = tokens.next().ok_or("empty scenario line")?;
        // Traffic-shape knobs, folded into the Traffic value at the end.
        let (mut rate, mut hi, mut lo) = (500.0f64, 1_500.0f64, 100.0f64);
        let (mut period_s, mut duty, mut amp) = (10.0f64, 0.3f64, 0.8f64);
        if !matches!(kind, "poisson" | "onoff" | "diurnal") {
            return Err(format!(
                "unknown traffic kind {kind:?} (poisson, onoff, diurnal)"
            ));
        }
        let mut sc = Scenario::with_traffic(kind, Traffic::Poisson { rate });
        for tok in tokens {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {tok:?}"))?;
            let f = || -> Result<f64, String> { val.parse().map_err(|e| format!("{key}: {e}")) };
            let u = || -> Result<u64, String> { val.parse().map_err(|e| format!("{key}: {e}")) };
            match key {
                "name" => sc.name = val.to_string(),
                "rate" => rate = f()?,
                "hi" => hi = f()?,
                "lo" => lo = f()?,
                "period_s" => period_s = f()?,
                "duty" => duty = f()?,
                "amp" => amp = f()?,
                "reqs" => sc.requests = u()?,
                "replicas" => sc.replicas = u()? as usize,
                "workers" => sc.workers = u()? as usize,
                "queue" => sc.queue = u()? as usize,
                "deadline_ms" => sc.deadline_ms = u()?,
                "steps_per_ms" => sc.steps_per_ms = u()?,
                "cache" => sc.cache = u()? as usize,
                "cache_scope" => {
                    sc.cache_scope = match val {
                        "worker" => CacheScope::Worker,
                        "replica" => CacheScope::Replica,
                        other => {
                            return Err(format!(
                                "cache_scope must be worker or replica, got {other:?}"
                            ))
                        }
                    }
                }
                "distinct" => sc.distinct = u()?,
                "retries" => sc.retries = u()? as u32,
                "tail" => sc.tail = f()?,
                "tail_max" => sc.tail_max = u()? as u32,
                "base_steps" => sc.base_steps = u()?,
                "seed" => sc.seed = u()?,
                other => return Err(format!("unknown scenario key {other:?}")),
            }
        }
        sc.traffic = match kind {
            "poisson" => Traffic::Poisson { rate },
            "onoff" => Traffic::OnOff {
                rate_hi: hi,
                rate_lo: lo,
                period_secs: period_s,
                duty,
            },
            "diurnal" => Traffic::Diurnal {
                rate,
                amplitude: amp,
                period_secs: period_s,
            },
            _ => unreachable!(),
        };
        sc.validate()?;
        Ok(sc)
    }

    fn validate(&self) -> Result<(), String> {
        let bad = |msg: &str| Err(msg.to_string());
        match self.traffic {
            Traffic::Poisson { rate } if rate <= 0.0 => return bad("rate must be > 0"),
            Traffic::OnOff {
                rate_hi,
                rate_lo,
                period_secs,
                duty,
            } => {
                if rate_hi <= 0.0 || rate_lo < 0.0 {
                    return bad("onoff needs hi > 0 and lo >= 0");
                }
                if period_secs <= 0.0 {
                    return bad("period_s must be > 0");
                }
                if !(0.0 < duty && duty <= 1.0) {
                    return bad("duty must be in (0, 1]");
                }
            }
            Traffic::Diurnal {
                rate,
                amplitude,
                period_secs,
            } => {
                if rate <= 0.0 {
                    return bad("rate must be > 0");
                }
                if !(0.0..1.0).contains(&amplitude) {
                    return bad("amp must be in [0, 1)");
                }
                if period_secs <= 0.0 {
                    return bad("period_s must be > 0");
                }
            }
            _ => {}
        }
        if self.replicas == 0 || self.workers == 0 {
            return bad("replicas and workers must be >= 1");
        }
        if !(0.0..1.0).contains(&self.tail) {
            return bad("tail must be in [0, 1)");
        }
        if self.base_steps == 0 {
            return bad("base_steps must be >= 1");
        }
        if self.name.is_empty() || self.name.contains(char::is_whitespace) {
            return bad("name must be non-empty without whitespace");
        }
        Ok(())
    }

    /// Canonical normalized form: every knob explicit, fixed order.
    /// `Scenario::parse(sc.line()) == sc` for any valid scenario.
    pub fn line(&self) -> String {
        let shape = match self.traffic {
            Traffic::Poisson { rate } => format!("poisson rate={rate}"),
            Traffic::OnOff {
                rate_hi,
                rate_lo,
                period_secs,
                duty,
            } => format!("onoff hi={rate_hi} lo={rate_lo} period_s={period_secs} duty={duty}"),
            Traffic::Diurnal {
                rate,
                amplitude,
                period_secs,
            } => format!("diurnal rate={rate} amp={amplitude} period_s={period_secs}"),
        };
        format!(
            "{shape} name={} reqs={} replicas={} workers={} queue={} deadline_ms={} \
             steps_per_ms={} cache={} cache_scope={} distinct={} retries={} tail={} \
             tail_max={} base_steps={} seed={}",
            self.name,
            self.requests,
            self.replicas,
            self.workers,
            self.queue,
            self.deadline_ms,
            self.steps_per_ms,
            self.cache,
            self.cache_scope.token(),
            self.distinct,
            self.retries,
            self.tail,
            self.tail_max,
            self.base_steps,
            self.seed,
        )
    }
}

/// The default sweep: one scenario per regime the serving tier must
/// handle — steady underload, hard overload, bursts, a diurnal swing,
/// deadline pressure, and a cache-hostile population. These are the
/// rows of `BENCH_fleet.json`.
pub fn default_sweep() -> Vec<&'static str> {
    vec![
        "poisson name=baseline rate=600 reqs=200000 replicas=4 workers=2 queue=64",
        "poisson name=overload rate=4000 reqs=200000 replicas=2 workers=2 queue=16 retries=2",
        "onoff name=bursty hi=2500 lo=100 period_s=4 duty=0.3 reqs=200000 replicas=3 workers=2 queue=32",
        "diurnal name=diurnal rate=700 amp=0.8 period_s=30 reqs=200000 replicas=3 workers=2",
        "poisson name=tight_deadline rate=500 reqs=100000 replicas=2 workers=2 deadline_ms=5 steps_per_ms=10",
        "poisson name=cold_cache rate=500 reqs=100000 replicas=2 workers=2 distinct=100000 cache=64",
        "poisson name=shared_cache rate=600 reqs=200000 replicas=4 workers=2 queue=64 cache_scope=replica",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_line() {
        for line in default_sweep() {
            let sc = Scenario::parse(line).expect(line);
            let again = Scenario::parse(&sc.line()).expect("normalized form parses");
            assert_eq!(sc, again, "{line}");
        }
    }

    #[test]
    fn defaults_fill_in() {
        let sc = Scenario::parse("poisson").unwrap();
        assert_eq!(sc.name, "poisson");
        assert_eq!(sc.requests, 100_000);
        assert_eq!(sc.replicas, 4);
        assert_eq!(sc.traffic, Traffic::Poisson { rate: 500.0 });
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Scenario::parse("").is_err());
        assert!(Scenario::parse("waves rate=3").is_err());
        assert!(Scenario::parse("poisson rate").is_err());
        assert!(Scenario::parse("poisson bogus=1").is_err());
        assert!(Scenario::parse("poisson rate=0").is_err());
        assert!(Scenario::parse("poisson replicas=0").is_err());
        assert!(Scenario::parse("onoff duty=1.5").is_err());
        assert!(Scenario::parse("diurnal amp=1.0").is_err());
        assert!(Scenario::parse("poisson tail=1.0").is_err());
        assert!(Scenario::parse("poisson cache_scope=global").is_err());
    }

    #[test]
    fn cache_scope_parses_and_round_trips() {
        let sc = Scenario::parse("poisson cache_scope=replica").unwrap();
        assert_eq!(sc.cache_scope, CacheScope::Replica);
        assert!(sc.line().contains("cache_scope=replica"));
        assert_eq!(
            Scenario::parse("poisson").unwrap().cache_scope,
            CacheScope::Worker
        );
    }
}
