//! Configuration knobs for Algorithm `Lookahead`.

/// Tunable behaviour of the anticipatory scheduler.
///
/// The defaults implement the paper exactly; the switches exist for the
/// ablation experiments (E10) that quantify how much each ingredient
/// contributes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LookaheadConfig {
    /// Run `Delay_Idle_Slots` on every merged schedule (paper Figure 5).
    /// Turning this off removes the paper's key idea and reduces the
    /// algorithm to deadline-protected block merging.
    pub delay_idle_slots: bool,
    /// Protect `old` instructions in `merge` by capping their deadlines
    /// at the `old`-only makespan (paper Figure 7). Turning this off lets
    /// `new` instructions displace `old` ones in the *predicted*
    /// schedule, which the hardware cannot actually do — useful only to
    /// demonstrate why the protection exists.
    pub protect_old: bool,
    /// Section 5.2.3's compile-time optimization for 0/1 latencies:
    /// consider only `G_li` sources as dummy-sink candidates and only
    /// `G_li` sinks as dummy-source candidates. Sound for 0/1 latencies;
    /// off by default because the general-latency loops (e.g. Figure 3)
    /// need the full candidate set.
    pub filter_loop_candidates: bool,
    /// Per-run step budget for Algorithm `Lookahead`. One step is one
    /// node entering a block merge (`|old ∪ new|` per trace block), so
    /// the budget bounds the dominant `rank`-driven work. When the
    /// running total would exceed the budget, `schedule_trace` aborts
    /// with [`crate::CoreError::StepBudgetExhausted`] instead of
    /// finishing — batch drivers (the `asched-engine` worker pool) use
    /// this to keep one pathological task from starving a corpus run,
    /// degrading it to the per-block Rank schedule instead. `None`
    /// (the default, and the paper's behaviour) means unbounded.
    pub step_budget: Option<u64>,
}

impl Default for LookaheadConfig {
    fn default() -> Self {
        LookaheadConfig {
            delay_idle_slots: true,
            protect_old: true,
            filter_loop_candidates: false,
            step_budget: None,
        }
    }
}

impl LookaheadConfig {
    /// The ablated configuration without idle-slot delaying (E10).
    pub fn without_idle_delay() -> Self {
        LookaheadConfig {
            delay_idle_slots: false,
            ..Self::default()
        }
    }

    /// The ablated configuration without `old`-deadline protection (E10).
    pub fn without_old_protection() -> Self {
        LookaheadConfig {
            protect_old: false,
            ..Self::default()
        }
    }

    /// This configuration with a per-run step budget (see
    /// [`LookaheadConfig::step_budget`]).
    pub fn with_step_budget(self, budget: u64) -> Self {
        LookaheadConfig {
            step_budget: Some(budget),
            ..self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_the_paper() {
        let c = LookaheadConfig::default();
        assert!(c.delay_idle_slots);
        assert!(c.protect_old);
        assert!(!c.filter_loop_candidates);
    }

    #[test]
    fn ablations_flip_one_switch() {
        assert!(!LookaheadConfig::without_idle_delay().delay_idle_slots);
        assert!(LookaheadConfig::without_idle_delay().protect_old);
        assert!(!LookaheadConfig::without_old_protection().protect_old);
    }
}
