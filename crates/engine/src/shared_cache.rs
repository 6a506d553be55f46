//! The engine's content-addressed, sharded schedule cache.
//!
//! It is the only schedule cache. [`Engine::new`] owns a one-shard
//! instance; one instance can also back any number of [`Engine`]s —
//! every serve worker, say — so N workers stop paying N cold misses
//! for the same hot fingerprint. The key design points:
//!
//! - **Sharded.** Entries live in `2^k` shards selected by the *high*
//!   bits of the 128-bit fingerprint (FNV output is well-mixed, and
//!   the high bits are independent of any HashMap bucketing of the low
//!   bits). Each shard has its own mutex and its own FIFO, so
//!   concurrent engines mostly touch disjoint locks and an eviction
//!   never scans other shards.
//! - **Deterministic per engine.** An engine still makes every cache
//!   decision in its sequential plan phase, in input order; the shared
//!   cache is only probed/inserted from there, never from worker
//!   threads. With a single engine, results and the
//!   `cache_query`/`cache_evict` stream remain a pure function of the
//!   corpus at any `jobs` setting. Within-batch duplicates are aliased
//!   by the *engine* (a batch-local pending map), not by this cache,
//!   so one batch never blocks on another's in-flight compute.
//! - **Placeholders, not promises.** A planned miss inserts a
//!   [`Slot::Placeholder`] that holds FIFO residency. A *different*
//!   batch probing a placeholder treats it as a miss and computes the
//!   value itself (without inserting again): schedules are pure
//!   functions of the fingerprinted inputs, so duplicated work is
//!   merely wasted, never wrong, and nobody waits on a foreign batch.
//!   Whoever publishes first upgrades the placeholder; later publishes
//!   of the same fingerprint are no-ops.
//! - **Only completed values are stored.** `publish` refuses degraded
//!   or failed values (the placeholder is dropped instead). The
//!   fingerprint deliberately ignores step budgets, so a
//!   budget-truncated fallback must never satisfy a later, more
//!   generous request.
//! - **Warm-startable.** [`SharedScheduleCache::warm_start`] replays a
//!   [`persist`](crate::persist) cache file into the shards (marking
//!   entries *warm*, which cache events report) and attaches an
//!   appender: every subsequent first publish of a fingerprint is
//!   appended to the file, so the next process restart starts hot.
//!
//! [`Engine`]: crate::Engine
//! [`Engine::new`]: crate::Engine::new

use std::collections::{HashMap, VecDeque};
use std::fs::OpenOptions;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::engine::TaskValue;
use crate::fingerprint::Fingerprint;
use crate::persist;

/// One shard slot: a finished value, or residency held for an
/// in-flight compute planned by some batch.
enum Slot {
    Placeholder,
    Ready { value: Arc<TaskValue>, warm: bool },
}

struct Shard {
    map: HashMap<u128, Slot>,
    /// Exactly the map's keys, oldest first.
    fifo: VecDeque<u128>,
    capacity: usize,
}

impl Shard {
    /// Evict the oldest entry. Returns `(evicted_key, resident_after)`.
    fn evict_one(&mut self) -> Option<(u128, u64)> {
        let old = self.fifo.pop_front()?;
        self.map.remove(&old);
        Some((old, self.map.len() as u64))
    }
}

/// How one shared-cache probe resolved (plan-phase only).
pub(crate) enum SharedProbe {
    /// A finished value is resident; `warm` when it was loaded from a
    /// cache file rather than computed by this process.
    Hit { value: Arc<TaskValue>, warm: bool },
    /// Not resident (or resident only as a foreign placeholder, in
    /// which case nothing was inserted and `evicted` is `None`).
    Miss { evicted: Option<(u128, u64)> },
}

/// Aggregate counters of a shared cache, for `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SharedCacheStats {
    /// Plan-phase probe hits across every attached engine.
    pub hits: u64,
    /// Plan-phase probe misses.
    pub misses: u64,
    /// FIFO evictions across all shards.
    pub evictions: u64,
    /// Hits served by entries loaded from a cache file.
    pub warm_hits: u64,
    /// Entries loaded from a cache file at warm-start.
    pub loaded: u64,
    /// Records appended to the cache file by this process.
    pub persisted: u64,
    /// Entries currently resident (sums every shard).
    pub resident: u64,
    /// Total capacity across shards.
    pub capacity: u64,
    /// Shard count.
    pub shards: u64,
}

impl SharedCacheStats {
    /// Hit rate over all probes so far (0.0 before any probe).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Outcome of a [`SharedScheduleCache::warm_start`] load.
#[derive(Clone, Copy, Debug, Default)]
pub struct WarmStart {
    /// Records loaded into the cache.
    pub loaded: u64,
    /// CRC-intact records dropped (fingerprint mismatch or undecodable
    /// payload).
    pub skipped: u64,
    /// Torn/corrupt tail bytes truncated before appending resumes.
    pub truncated: u64,
}

/// A sharded schedule cache, owned by one engine or shared by many.
/// See the module docs.
pub struct SharedScheduleCache {
    shards: Vec<Mutex<Shard>>,
    /// `128 - log2(shards.len())`: shift that maps a fingerprint's
    /// high bits to its shard index.
    shard_shift: u32,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    warm_hits: AtomicU64,
    loaded: AtomicU64,
    persisted: AtomicU64,
    appender: Mutex<Option<std::fs::File>>,
}

impl SharedScheduleCache {
    /// Build a cache with `capacity` total entries spread over
    /// `shards` shards. The shard count is rounded up to a power of
    /// two (minimum 1); per-shard capacity is `capacity / shards`,
    /// floored at 1.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = (capacity.max(1) / shards).max(1);
        SharedScheduleCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        fifo: VecDeque::new(),
                        capacity: per_shard,
                    })
                })
                .collect(),
            shard_shift: 128 - shards.trailing_zeros(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            warm_hits: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            persisted: AtomicU64::new(0),
            appender: Mutex::new(None),
        }
    }

    /// The shard a fingerprint maps to (also the `shard` attribution
    /// on cache events).
    pub fn shard_of(&self, fp: Fingerprint) -> u32 {
        if self.shards.len() == 1 {
            0
        } else {
            (fp.0 >> self.shard_shift) as u32
        }
    }

    fn shard(&self, fp: Fingerprint) -> &Mutex<Shard> {
        &self.shards[self.shard_of(fp) as usize]
    }

    /// Probe-and-reserve for one planned task. Called only from an
    /// engine's sequential plan phase.
    pub(crate) fn plan(&self, fp: Fingerprint) -> SharedProbe {
        let mut shard = self.shard(fp).lock().unwrap_or_else(|e| e.into_inner());
        match shard.map.get(&fp.0) {
            Some(Slot::Ready { value, warm }) => {
                let (value, warm) = (Arc::clone(value), *warm);
                drop(shard);
                self.hits.fetch_add(1, Ordering::Relaxed);
                if warm {
                    self.warm_hits.fetch_add(1, Ordering::Relaxed);
                }
                SharedProbe::Hit { value, warm }
            }
            Some(Slot::Placeholder) => {
                // A foreign batch is computing this. Recompute rather
                // than wait or alias; see the module docs.
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                SharedProbe::Miss { evicted: None }
            }
            None => {
                let mut evicted = None;
                if shard.map.len() >= shard.capacity {
                    evicted = shard.evict_one();
                }
                shard.map.insert(fp.0, Slot::Placeholder);
                shard.fifo.push_back(fp.0);
                drop(shard);
                self.misses.fetch_add(1, Ordering::Relaxed);
                if evicted.is_some() {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                SharedProbe::Miss { evicted }
            }
        }
    }

    /// Publish a computed value. Upgrades the placeholder to `Ready`
    /// when the value is storable; drops it otherwise (degraded and
    /// failed values must not outlive their batch — the key ignores
    /// step budgets). No-op when the entry was evicted meanwhile or
    /// another batch already published it. The first upgrade is also
    /// appended to the attached cache file, if any.
    pub(crate) fn publish(&self, fp: Fingerprint, value: &Arc<TaskValue>) {
        let storable = persist::storable(value);
        let upgraded = {
            let mut shard = self.shard(fp).lock().unwrap_or_else(|e| e.into_inner());
            // Only a placeholder may be acted on: a `Ready` entry means
            // another batch already published (same value — schedules
            // are pure functions of the key), and absence means the
            // entry was evicted while the batch ran.
            if !matches!(shard.map.get(&fp.0), Some(Slot::Placeholder)) {
                false
            } else if storable {
                shard.map.insert(
                    fp.0,
                    Slot::Ready {
                        value: Arc::clone(value),
                        warm: false,
                    },
                );
                true
            } else {
                shard.map.remove(&fp.0);
                // Rare path, so a linear scan keeps the FIFO exact.
                shard.fifo.retain(|&key| key != fp.0);
                false
            }
        };
        if upgraded {
            self.append_record(fp, value);
        }
    }

    /// Insert an entry loaded from a cache file. Later records for the
    /// same fingerprint supersede earlier ones in place (no second
    /// FIFO slot).
    fn insert_warm(&self, fp: Fingerprint, value: Arc<TaskValue>) {
        let mut shard = self.shard(fp).lock().unwrap_or_else(|e| e.into_inner());
        let slot = Slot::Ready { value, warm: true };
        match shard.map.get_mut(&fp.0) {
            Some(existing) => *existing = slot,
            None => {
                if shard.map.len() >= shard.capacity && shard.evict_one().is_some() {
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                shard.map.insert(fp.0, slot);
                shard.fifo.push_back(fp.0);
            }
        }
    }

    /// Load a cache file into the shards and attach an appender to it.
    ///
    /// Missing file: created (header only). Damaged file: the valid
    /// prefix is loaded, the torn tail is truncated, and appending
    /// resumes from there — a crash mid-append costs at most the last
    /// record. A file from another fingerprint domain is reset
    /// entirely. Never fatal for cache correctness; only I/O errors on
    /// the path itself are returned.
    pub fn warm_start(&self, path: &Path) -> io::Result<WarmStart> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        let dec = persist::decode_file(&bytes);
        let mut out = WarmStart {
            loaded: dec.records.len() as u64,
            skipped: dec.skipped,
            truncated: (bytes.len() - dec.valid_len) as u64,
        };
        for (fp, value) in dec.records {
            self.insert_warm(Fingerprint(fp), Arc::new(value));
        }
        self.loaded.store(out.loaded, Ordering::Relaxed);

        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        if dec.valid_len == 0 {
            // Empty, torn-at-header or foreign-domain file: reset.
            out.truncated = bytes.len() as u64;
            file.set_len(0)?;
            file.write_all(&persist::header())?;
        } else {
            file.set_len(dec.valid_len as u64)?;
            file.seek(SeekFrom::End(0))?;
        }
        *self.appender.lock().unwrap_or_else(|e| e.into_inner()) = Some(file);
        Ok(out)
    }

    fn append_record(&self, fp: Fingerprint, value: &Arc<TaskValue>) {
        let mut guard = self.appender.lock().unwrap_or_else(|e| e.into_inner());
        let Some(file) = guard.as_mut() else { return };
        let Some(frame) = persist::encode_record(fp.0, value) else {
            return;
        };
        // Best-effort: a full disk must not take the serving tier
        // down, so an append failure just detaches the appender.
        if file.write_all(&frame).and_then(|()| file.flush()).is_err() {
            *guard = None;
            return;
        }
        self.persisted.fetch_add(1, Ordering::Relaxed);
    }

    /// Entries currently resident, across all shards.
    pub fn resident(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).map.len() as u64)
            .sum()
    }

    /// Total capacity across shards.
    pub fn capacity(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).capacity as u64)
            .sum()
    }

    /// Snapshot every counter.
    pub fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            loaded: self.loaded.load(Ordering::Relaxed),
            persisted: self.persisted.load(Ordering::Relaxed),
            resident: self.resident(),
            capacity: self.capacity(),
            shards: self.shards.len() as u64,
        }
    }
}

impl std::fmt::Debug for SharedScheduleCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedScheduleCache")
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value() -> Arc<TaskValue> {
        // Storable stand-in: tests here only exercise slot mechanics,
        // not serialization, so an empty-but-complete result works.
        Arc::new(TaskValue {
            result: Some(asched_core::TraceResult {
                permutation: vec![],
                predicted: asched_graph::Schedule::new(0),
                makespan: 0,
                block_orders: vec![],
                blocks: vec![],
            }),
            degraded: false,
            error: None,
        })
    }

    fn degraded() -> Arc<TaskValue> {
        Arc::new(TaskValue {
            result: None,
            degraded: true,
            error: Some("budget".into()),
        })
    }

    #[test]
    fn shard_count_rounds_up_to_a_power_of_two() {
        assert_eq!(SharedScheduleCache::new(64, 3).stats().shards, 4);
        assert_eq!(SharedScheduleCache::new(64, 0).stats().shards, 1);
        // Per-shard capacity floors at 1, so total can round up too.
        assert_eq!(SharedScheduleCache::new(2, 8).capacity(), 8);
    }

    #[test]
    fn high_bits_pick_the_shard() {
        let c = SharedScheduleCache::new(64, 4);
        assert_eq!(c.shard_of(Fingerprint(0)), 0);
        assert_eq!(c.shard_of(Fingerprint(1 << 126)), 1);
        assert_eq!(c.shard_of(Fingerprint(u128::MAX)), 3);
        let one = SharedScheduleCache::new(64, 1);
        assert_eq!(one.shard_of(Fingerprint(u128::MAX)), 0);
    }

    #[test]
    fn miss_then_publish_then_hit() {
        let c = SharedScheduleCache::new(16, 2);
        let fp = Fingerprint(42);
        assert!(matches!(c.plan(fp), SharedProbe::Miss { evicted: None }));
        // A second probe before publish sees the placeholder: miss,
        // no second insert.
        assert!(matches!(c.plan(fp), SharedProbe::Miss { evicted: None }));
        c.publish(fp, &value());
        match c.plan(fp) {
            SharedProbe::Hit { warm, .. } => assert!(!warm),
            SharedProbe::Miss { .. } => panic!("expected a hit after publish"),
        }
        let stats = c.stats();
        assert_eq!((stats.hits, stats.misses), (1, 2));
        assert_eq!(stats.resident, 1);
    }

    #[test]
    fn degraded_values_are_never_shared() {
        let c = SharedScheduleCache::new(16, 1);
        let fp = Fingerprint(7);
        c.plan(fp);
        c.publish(fp, &degraded());
        assert_eq!(c.resident(), 0);
        // The next probe misses (and re-reserves a placeholder).
        assert!(matches!(c.plan(fp), SharedProbe::Miss { .. }));
    }

    #[test]
    fn eviction_is_fifo_within_a_shard() {
        let c = SharedScheduleCache::new(2, 1);
        let (a, b, d) = (Fingerprint(1), Fingerprint(2), Fingerprint(3));
        for fp in [a, b] {
            c.plan(fp);
            c.publish(fp, &value());
        }
        match c.plan(d) {
            SharedProbe::Miss { evicted } => assert_eq!(evicted, Some((1, 1))),
            SharedProbe::Hit { .. } => panic!("d was never inserted"),
        }
        // b survived (probing it inserts nothing); a was the FIFO head.
        assert!(matches!(c.plan(b), SharedProbe::Hit { .. }));
        assert!(matches!(c.plan(a), SharedProbe::Miss { .. }));
    }

    #[test]
    fn dropped_placeholders_do_not_consume_evictions() {
        let c = SharedScheduleCache::new(2, 1);
        let (a, b, d) = (Fingerprint(1), Fingerprint(2), Fingerprint(3));
        c.plan(a);
        c.publish(a, &degraded()); // placeholder dropped
        c.plan(b);
        c.publish(b, &value());
        // Shard is at len 1 < capacity 2: no eviction for d.
        match c.plan(d) {
            SharedProbe::Miss { evicted } => assert_eq!(evicted, None),
            SharedProbe::Hit { .. } => panic!("d was never inserted"),
        }
        assert_eq!(c.resident(), 2);
    }

    #[test]
    fn a_replanned_dropped_key_is_evicted_in_fifo_order() {
        let c = SharedScheduleCache::new(2, 1);
        let (a, b, d) = (Fingerprint(1), Fingerprint(2), Fingerprint(3));
        c.plan(a);
        c.publish(a, &degraded()); // placeholder dropped
        for fp in [b, a] {
            c.plan(fp);
            c.publish(fp, &value());
        }
        // b is now the oldest entry; the re-inserted a is the newest.
        match c.plan(d) {
            SharedProbe::Miss { evicted } => assert_eq!(evicted, Some((2, 1))),
            SharedProbe::Hit { .. } => panic!("d was never inserted"),
        }
        assert!(matches!(c.plan(a), SharedProbe::Hit { .. }));
    }

    #[test]
    fn publish_after_eviction_is_a_no_op() {
        let c = SharedScheduleCache::new(1, 1);
        let (a, b) = (Fingerprint(1), Fingerprint(2));
        c.plan(a);
        c.plan(b); // evicts a's placeholder
        c.publish(a, &value());
        assert!(matches!(c.plan(a), SharedProbe::Miss { .. }));
    }

    #[test]
    fn warm_start_round_trips_through_a_file() {
        let dir = std::env::temp_dir().join(format!(
            "asched-shared-cache-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.bin");
        let _ = std::fs::remove_file(&path);

        let c = SharedScheduleCache::new(16, 2);
        let ws = c.warm_start(&path).unwrap();
        assert_eq!(ws.loaded, 0);
        let fp = Fingerprint(99);
        c.plan(fp);
        c.publish(fp, &value());
        assert_eq!(c.stats().persisted, 1);

        // Fresh cache, same file: the entry comes back warm.
        let c2 = SharedScheduleCache::new(16, 2);
        let ws2 = c2.warm_start(&path).unwrap();
        assert_eq!(ws2.loaded, 1);
        match c2.plan(fp) {
            SharedProbe::Hit { warm, .. } => assert!(warm),
            SharedProbe::Miss { .. } => panic!("expected a warm hit"),
        }
        assert_eq!(c2.stats().warm_hits, 1);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }
}
