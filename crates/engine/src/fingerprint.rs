//! Content-addressed task fingerprints.
//!
//! The schedule cache keys on *what the scheduler sees*: the block DAG
//! (execution times, classes, block membership, tie-break positions and
//! every `<latency, distance>` edge), the machine model (unit classes
//! and window size `W`) and the [`LookaheadConfig`] switches that
//! `schedule_trace` reads (`delay_idle_slots`, `protect_old`). Node labels
//! are deliberately excluded — they never influence a scheduling
//! decision, so `add r1,r2` and `add r5,r6` with identical dependence
//! structure share one cache entry. The step budget is also excluded:
//! a budget only bounds how much work the scheduler may spend — it can
//! abort a computation, but it never alters a *completed* result — so
//! two tasks differing only in budget would compute identical
//! schedules. Keying on it would make every deadline-derived budget
//! (which varies with server load) a distinct cache entry and defeat
//! warm-starting; instead, only fully-computed (non-degraded) values
//! are published to shared/persistent caches, so a budget-truncated
//! run can never satisfy a later, more generous one.
//!
//! The hash is a 128-bit FNV-1a variant (two independently seeded
//! 64-bit lanes over the same canonical byte stream). It is not
//! cryptographic; it only needs to make accidental collisions across a
//! corpus run vanishingly unlikely, and it must be dependency-free and
//! deterministic across platforms (the build is hermetic).

use asched_core::LookaheadConfig;
use asched_graph::{DepGraph, DepKind, FuClass, MachineModel};
use std::fmt;

/// Domain tag mixed into every fingerprint and stamped into cache-file
/// headers. Bump it whenever the fingerprint scheme changes so stale
/// on-disk caches are rejected instead of silently mis-keyed.
pub const FINGERPRINT_DOMAIN: &str = "asched-engine-v3";

/// A 128-bit content fingerprint of one scheduling task.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Fingerprint(pub u128);

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Second-lane seed (the 64-bit golden ratio); a different starting
/// state decorrelates the two lanes over the same byte stream.
const LANE2_OFFSET: u64 = 0x9e37_79b9_7f4a_7c15;

struct Hasher2 {
    a: u64,
    b: u64,
}

impl Hasher2 {
    fn new() -> Self {
        Hasher2 {
            a: FNV_OFFSET,
            b: LANE2_OFFSET,
        }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &x in bytes {
            self.a = (self.a ^ u64::from(x)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(x)).wrapping_mul(FNV_PRIME);
        }
    }

    fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }

    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn finish(self) -> Fingerprint {
        Fingerprint((u128::from(self.a) << 64) | u128::from(self.b))
    }
}

fn class_tag(c: FuClass) -> u8 {
    match c {
        FuClass::Any => 0,
        FuClass::Fixed => 1,
        FuClass::Float => 2,
        FuClass::Memory => 3,
        FuClass::Branch => 4,
    }
}

fn kind_tag(k: DepKind) -> u8 {
    match k {
        DepKind::Data => 0,
        DepKind::Anti => 1,
        DepKind::Output => 2,
        DepKind::Memory => 3,
        DepKind::Control => 4,
    }
}

/// Fingerprint one scheduling task: graph structure + machine + config.
pub fn fingerprint_task(
    g: &DepGraph,
    machine: &MachineModel,
    cfg: &LookaheadConfig,
) -> Fingerprint {
    // Domain tag doubles as the persistence-format domain: bumping it
    // (v1 → v2 when the step budget left the key, v2 → v3 when the
    // loop-scheduler and guard knobs did) invalidates every on-disk
    // cache file written under the old scheme.
    let mut h = Hasher2::new();
    h.bytes(FINGERPRINT_DOMAIN.as_bytes());

    // Graph: nodes in id order, then each node's out-edges in insertion
    // order (both orders are part of the scheduler's deterministic
    // tie-breaking, so they belong in the key).
    h.u32(g.len() as u32);
    for id in g.node_ids() {
        let n = g.node(id);
        h.u32(n.exec_time);
        h.u8(class_tag(n.class));
        h.u32(n.block.0);
        h.u32(n.source_pos);
    }
    for id in g.node_ids() {
        let out = g.out_edges(id);
        h.u32(out.len() as u32);
        for e in out {
            h.u32(e.dst.index() as u32);
            h.u32(e.latency);
            h.u32(e.distance);
            h.u8(kind_tag(e.kind));
        }
    }

    // Machine model.
    h.u32(machine.units.len() as u32);
    for &u in &machine.units {
        h.u8(class_tag(u));
    }
    h.u64(machine.window as u64);

    // Every config knob that can change a completed `schedule_trace`
    // result is keyed. `step_budget` is deliberately absent — see the
    // module docs — and `filter_loop_candidates` only steers the loop
    // schedulers, which the engine never runs.
    h.u8(cfg.delay_idle_slots as u8);
    h.u8(cfg.protect_old as u8);

    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asched_graph::BlockId;

    fn chain(latency: u32) -> DepGraph {
        let mut g = DepGraph::new();
        let a = g.add_simple("a", BlockId(0));
        let b = g.add_simple("b", BlockId(0));
        g.add_dep(a, b, latency);
        g
    }

    #[test]
    fn identical_tasks_share_a_fingerprint() {
        let cfg = LookaheadConfig::default();
        let m = MachineModel::single_unit(4);
        assert_eq!(
            fingerprint_task(&chain(2), &m, &cfg),
            fingerprint_task(&chain(2), &m, &cfg)
        );
    }

    #[test]
    fn labels_do_not_key_the_cache() {
        let cfg = LookaheadConfig::default();
        let m = MachineModel::single_unit(2);
        let mut relabeled = DepGraph::new();
        let a = relabeled.add_simple("load", BlockId(0));
        let b = relabeled.add_simple("store", BlockId(0));
        relabeled.add_dep(a, b, 2);
        assert_eq!(
            fingerprint_task(&chain(2), &m, &cfg),
            fingerprint_task(&relabeled, &m, &cfg)
        );
    }

    #[test]
    fn structure_machine_and_config_all_key_the_cache() {
        let cfg = LookaheadConfig::default();
        let m = MachineModel::single_unit(2);
        let base = fingerprint_task(&chain(2), &m, &cfg);
        // Different edge latency.
        assert_ne!(base, fingerprint_task(&chain(3), &m, &cfg));
        // Different window.
        assert_ne!(
            base,
            fingerprint_task(&chain(2), &MachineModel::single_unit(4), &cfg)
        );
        // Different unit mix.
        assert_ne!(
            base,
            fingerprint_task(&chain(2), &MachineModel::uniform(2, 2), &cfg)
        );
        // Different config.
        assert_ne!(
            base,
            fingerprint_task(&chain(2), &m, &LookaheadConfig::without_idle_delay())
        );
    }

    #[test]
    fn step_budget_does_not_key_the_cache() {
        // A budget bounds work; it never changes a completed result.
        // Keying on it would shatter warm-start reuse across the
        // deadline-derived budgets a serving tier computes per request.
        let cfg = LookaheadConfig::default();
        let m = MachineModel::single_unit(2);
        let base = fingerprint_task(&chain(2), &m, &cfg);
        assert_eq!(
            base,
            fingerprint_task(&chain(2), &m, &cfg.with_step_budget(100))
        );
        assert_eq!(
            base,
            fingerprint_task(&chain(2), &m, &cfg.with_step_budget(7))
        );
    }
}
