//! The engine's content-addressed schedule cache.
//!
//! It is the only schedule cache. [`Engine::new`] owns an instance;
//! one instance can also back any number of [`Engine`]s — every serve
//! worker, say — so N workers stop paying N cold misses for the same
//! hot fingerprint. The key design points:
//!
//! - **One lock, one FIFO.** Entries live in one mutex-guarded map
//!   whose FIFO holds exactly `capacity` keys, so the cache evicts
//!   only when it is full. Each planned task takes the lock for one
//!   map probe and at most one insert; each computed task, for one
//!   publish.
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
//!   [`persist`](crate::persist) cache file into the cache (marking
//!   entries *warm*, which cache events report) and attaches an
//!   appender: every subsequent first publish of a fingerprint is
//!   appended to the file, so the next process restart starts hot.
//!
//! Hits, misses and evictions are counted by the engines, per task
//! (`BatchReport`, and the `cache_*` profile counters their events
//! feed); the cache counts only what no event carries.
//!
//! [`Engine`]: crate::Engine
//! [`Engine::new`]: crate::Engine::new

use std::collections::{HashMap, VecDeque};
use std::fs::OpenOptions;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::engine::TaskValue;
use crate::fingerprint::Fingerprint;
use crate::persist;

/// One cache slot: a finished value, or residency held for an
/// in-flight compute planned by some batch.
enum Slot {
    Placeholder,
    Ready { value: Arc<TaskValue>, warm: bool },
}

struct Entries {
    map: HashMap<u128, Slot>,
    /// Exactly the map's keys, oldest first.
    fifo: VecDeque<u128>,
}

impl Entries {
    /// Make room for one insert into a cache of `capacity` entries:
    /// evict the oldest entry when full. Returns
    /// `(evicted_key, resident_after)`.
    fn make_room(&mut self, capacity: usize) -> Option<(u128, u64)> {
        if self.map.len() < capacity {
            return None;
        }
        let old = self.fifo.pop_front()?;
        self.map.remove(&old);
        Some((old, self.map.len() as u64))
    }

    fn push(&mut self, key: u128, slot: Slot) {
        self.map.insert(key, slot);
        self.fifo.push_back(key);
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

/// The cache's own facts, which no cache event carries, for
/// `/metrics` and the batch CLI.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SharedCacheStats {
    /// Hits served by entries loaded from a cache file.
    pub warm_hits: u64,
    /// Entries loaded from a cache file at warm-start.
    pub loaded: u64,
    /// Records appended to the cache file by this process.
    pub persisted: u64,
    /// Entries currently resident.
    pub resident: u64,
    /// Capacity in entries.
    pub capacity: u64,
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

/// A FIFO schedule cache, owned by one engine or shared by many. See
/// the module docs.
pub struct SharedScheduleCache {
    entries: Mutex<Entries>,
    capacity: usize,
    warm_hits: AtomicU64,
    loaded: AtomicU64,
    persisted: AtomicU64,
    appender: Mutex<Option<std::fs::File>>,
}

impl SharedScheduleCache {
    /// Build a cache of `capacity` entries (floored at 1).
    pub fn new(capacity: usize) -> Self {
        SharedScheduleCache {
            entries: Mutex::new(Entries {
                map: HashMap::new(),
                fifo: VecDeque::new(),
            }),
            capacity: capacity.max(1),
            warm_hits: AtomicU64::new(0),
            loaded: AtomicU64::new(0),
            persisted: AtomicU64::new(0),
            appender: Mutex::new(None),
        }
    }

    fn entries(&self) -> MutexGuard<'_, Entries> {
        self.entries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Probe-and-reserve for one planned task. Called only from an
    /// engine's sequential plan phase.
    pub(crate) fn plan(&self, fp: Fingerprint) -> SharedProbe {
        let mut entries = self.entries();
        match entries.map.get(&fp.0) {
            Some(Slot::Ready { value, warm }) => {
                if *warm {
                    self.warm_hits.fetch_add(1, Ordering::Relaxed);
                }
                SharedProbe::Hit {
                    value: Arc::clone(value),
                    warm: *warm,
                }
            }
            // A foreign batch is computing this. Recompute rather than
            // wait or alias; see the module docs.
            Some(Slot::Placeholder) => SharedProbe::Miss { evicted: None },
            None => {
                let evicted = entries.make_room(self.capacity);
                entries.push(fp.0, Slot::Placeholder);
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
            let mut entries = self.entries();
            // Only a placeholder may be acted on: a `Ready` entry means
            // another batch already published (same value — schedules
            // are pure functions of the key), and absence means the
            // entry was evicted while the batch ran.
            if !matches!(entries.map.get(&fp.0), Some(Slot::Placeholder)) {
                false
            } else if storable {
                entries.map.insert(
                    fp.0,
                    Slot::Ready {
                        value: Arc::clone(value),
                        warm: false,
                    },
                );
                true
            } else {
                entries.map.remove(&fp.0);
                // Rare path, so a linear scan keeps the FIFO exact.
                entries.fifo.retain(|&key| key != fp.0);
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
        let mut entries = self.entries();
        let slot = Slot::Ready { value, warm: true };
        match entries.map.get_mut(&fp.0) {
            Some(existing) => *existing = slot,
            None => {
                entries.make_room(self.capacity);
                entries.push(fp.0, slot);
            }
        }
    }

    /// Load a cache file into the cache and attach an appender to it.
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

    /// Entries currently resident.
    pub fn resident(&self) -> u64 {
        self.entries().map.len() as u64
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> u64 {
        self.capacity as u64
    }

    /// Snapshot every counter.
    pub fn stats(&self) -> SharedCacheStats {
        SharedCacheStats {
            warm_hits: self.warm_hits.load(Ordering::Relaxed),
            loaded: self.loaded.load(Ordering::Relaxed),
            persisted: self.persisted.load(Ordering::Relaxed),
            resident: self.resident(),
            capacity: self.capacity(),
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
    fn capacity_is_exactly_the_argument() {
        for capacity in [1, 2, 8, 100] {
            let c = SharedScheduleCache::new(capacity);
            assert_eq!(c.capacity(), capacity as u64);
            // Keys that share their high bits fill the whole cache.
            for fp in (0..capacity as u128).map(Fingerprint) {
                assert!(matches!(c.plan(fp), SharedProbe::Miss { evicted: None }));
                c.publish(fp, &value());
            }
            assert_eq!(c.resident(), capacity as u64);
            for fp in (0..capacity as u128).map(Fingerprint) {
                assert!(matches!(c.plan(fp), SharedProbe::Hit { .. }));
            }
            // One more key evicts the oldest.
            let next = Fingerprint(capacity as u128);
            match c.plan(next) {
                SharedProbe::Miss { evicted } => {
                    assert_eq!(evicted, Some((0, capacity as u64 - 1)));
                }
                SharedProbe::Hit { .. } => panic!("{next} was never inserted"),
            }
        }
        assert_eq!(SharedScheduleCache::new(0).capacity(), 1);
    }

    #[test]
    fn miss_then_publish_then_hit() {
        let c = SharedScheduleCache::new(16);
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
        assert_eq!(c.resident(), 1);
    }

    #[test]
    fn degraded_values_are_never_shared() {
        let c = SharedScheduleCache::new(16);
        let fp = Fingerprint(7);
        c.plan(fp);
        c.publish(fp, &degraded());
        assert_eq!(c.resident(), 0);
        // The next probe misses (and re-reserves a placeholder).
        assert!(matches!(c.plan(fp), SharedProbe::Miss { .. }));
    }

    #[test]
    fn eviction_is_fifo() {
        let c = SharedScheduleCache::new(2);
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
        let c = SharedScheduleCache::new(2);
        let (a, b, d) = (Fingerprint(1), Fingerprint(2), Fingerprint(3));
        c.plan(a);
        c.publish(a, &degraded()); // placeholder dropped
        c.plan(b);
        c.publish(b, &value());
        // 1 resident < capacity 2: no eviction for d.
        match c.plan(d) {
            SharedProbe::Miss { evicted } => assert_eq!(evicted, None),
            SharedProbe::Hit { .. } => panic!("d was never inserted"),
        }
        assert_eq!(c.resident(), 2);
    }

    #[test]
    fn a_replanned_dropped_key_is_evicted_in_fifo_order() {
        let c = SharedScheduleCache::new(2);
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
        let c = SharedScheduleCache::new(1);
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

        let c = SharedScheduleCache::new(16);
        let ws = c.warm_start(&path).unwrap();
        assert_eq!(ws.loaded, 0);
        let fp = Fingerprint(99);
        c.plan(fp);
        c.publish(fp, &value());
        assert_eq!(c.stats().persisted, 1);

        // Fresh cache, same file: the entry comes back warm.
        let c2 = SharedScheduleCache::new(16);
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
