//! Fingerprint-keyed memoization of (model, test) verdicts.
//!
//! The §4.2 experiment (and any sweep over a model space) asks the same
//! admissibility question many times: lattice construction, distinguishing-
//! set search and repeated explorations all revisit (model, test) pairs.
//! A [`VerdictCache`] memoizes the boolean verdict keyed by
//!
//! * the **model fingerprint** — a hash of the must-not-reorder formula
//!   only (not the display name), so `TSO` and its digit alias `M4044`
//!   share entries; and
//! * the **test fingerprint** — [`mcm_gen::canon::fingerprint`], the hash
//!   of the test's canonical symmetry-orbit representative, so all
//!   symmetric variants of a test share entries.
//!
//! The cache is sharded (a fixed array of mutex-protected maps indexed by
//! key hash) so concurrent sweep workers do not serialise on one lock, and
//! the parallel engine additionally batches its insertions: workers record
//! newly computed verdicts locally and merge them shard-by-shard when the
//! sweep finishes (see [`crate::space`]).
//!
//! The RAM shards can sit in front of a durable tier (`mcm-store`'s
//! `DiskCache`): entries hydrated from disk are tagged with their
//! provenance so hit counters distinguish `hits_ram` (computed this
//! process) from `hits_disk` (recovered from an earlier process), and a
//! [`DurableSink`] installed with [`VerdictCache::set_sink`] receives
//! every freshly computed verdict for write-through persistence.
//!
//! Keys are 128 bits of hash; a collision would silently reuse a verdict.
//! With 64-bit fingerprints on each side the collision probability across
//! even millions of distinct pairs is negligible (~`n²/2⁶⁵` per side).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, TryLockError};

use mcm_core::MemoryModel;

/// Number of independent shards; a power of two so the shard index is a
/// mask of the key hash.
const SHARDS: usize = 16;

/// A cache key: (model fingerprint, canonical-test fingerprint).
pub type Key = (u64, u64);

/// One memoized verdict plus its provenance tier.
#[derive(Clone, Copy, Debug)]
struct Slot {
    allowed: bool,
    /// `true` when the entry was hydrated from a durable store rather
    /// than computed by a checker in this process.
    durable: bool,
}

/// A durable write-through target for freshly computed verdicts: the
/// sweep engine merges worker batches into the RAM shards, and any sink
/// installed with [`VerdictCache::set_sink`] sees the same batches so a
/// disk tier can persist them on batch boundaries.
pub trait DurableSink: Send + Sync {
    /// Persists a batch of fresh `(key, allowed)` verdicts. Called after
    /// the RAM shards were updated; entries already present with the same
    /// verdict are filtered out before this is called.
    fn persist(&self, batch: &[(Key, bool)]);
}

/// Result of a tier-aware row lookup ([`VerdictCache::get_row_tiered`]).
#[derive(Clone, Debug, Default)]
pub struct RowLookup {
    /// Per-model verdicts, `None` where the cache had no entry.
    pub verdicts: Vec<Option<bool>>,
    /// Hits answered by entries computed in this process.
    pub hits_ram: u64,
    /// Hits answered by entries hydrated from a durable store.
    pub hits_disk: u64,
}

/// A sharded, thread-safe memo table for (model, test) verdicts.
#[derive(Default)]
pub struct VerdictCache {
    shards: [Mutex<HashMap<Key, Slot>>; SHARDS],
    hits_ram: AtomicU64,
    hits_disk: AtomicU64,
    misses: AtomicU64,
    contention: AtomicU64,
    /// Optional durable tier notified of every fresh verdict.
    sink: OnceLock<Arc<dyn DurableSink>>,
    // Lazily resolved handles into the global metric registry, so the
    // lookup path never takes the registry lock after first use.
    obs_hits: OnceLock<Arc<mcm_obs::metrics::Counter>>,
    obs_hits_ram: OnceLock<Arc<mcm_obs::metrics::Counter>>,
    obs_hits_disk: OnceLock<Arc<mcm_obs::metrics::Counter>>,
    obs_misses: OnceLock<Arc<mcm_obs::metrics::Counter>>,
    obs_contention: OnceLock<Arc<mcm_obs::metrics::Counter>>,
}

impl fmt::Debug for VerdictCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerdictCache")
            .field("entries", &self.len())
            .field("hits_ram", &self.hits_ram())
            .field("hits_disk", &self.hits_disk())
            .field("misses", &self.misses())
            .field("has_sink", &self.sink.get().is_some())
            .finish()
    }
}

impl VerdictCache {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        VerdictCache::default()
    }

    /// Fingerprint of a model: a hash of its formula, ignoring the name.
    #[must_use]
    pub fn model_fingerprint(model: &MemoryModel) -> u64 {
        let mut hasher = DefaultHasher::new();
        model.formula().hash(&mut hasher);
        hasher.finish()
    }

    fn shard(key: Key) -> usize {
        // Mix both halves so shard load stays balanced even when one
        // fingerprint is constant (single-model sweeps).
        ((key.0 ^ key.1.rotate_left(32)) as usize) & (SHARDS - 1)
    }

    /// Locks shard `i`, counting the acquisition as contended when
    /// another worker already holds it (`try_lock` would block). The
    /// count feeds `shard_contention` in [`VerdictCache::counters`]
    /// and the global `mcm_cache_shard_contention_total` series — the
    /// signal that says whether [`SHARDS`] needs to grow.
    fn lock_shard(&self, i: usize) -> MutexGuard<'_, HashMap<Key, Slot>> {
        match self.shards[i].try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                if mcm_obs::enabled() {
                    self.obs_contention
                        .get_or_init(|| {
                            mcm_obs::metrics::counter("mcm_cache_shard_contention_total", &[])
                        })
                        .inc();
                }
                self.shards[i].lock().expect("cache shard poisoned")
            }
            Err(TryLockError::Poisoned(_)) => panic!("cache shard poisoned"),
        }
    }

    /// Mirrors a batch of lookup results into the process-wide metric
    /// series scraped by `GET /metricsz`.
    fn observe_lookups(&self, hits_ram: u64, hits_disk: u64, misses: u64) {
        if !mcm_obs::enabled() {
            return;
        }
        if hits_ram + hits_disk > 0 {
            self.obs_hits
                .get_or_init(|| mcm_obs::metrics::counter("mcm_cache_hits_total", &[]))
                .add(hits_ram + hits_disk);
        }
        if hits_ram > 0 {
            self.obs_hits_ram
                .get_or_init(|| mcm_obs::metrics::counter("mcm_cache_hits_ram_total", &[]))
                .add(hits_ram);
        }
        if hits_disk > 0 {
            self.obs_hits_disk
                .get_or_init(|| mcm_obs::metrics::counter("mcm_cache_hits_disk_total", &[]))
                .add(hits_disk);
        }
        if misses > 0 {
            self.obs_misses
                .get_or_init(|| mcm_obs::metrics::counter("mcm_cache_misses_total", &[]))
                .add(misses);
        }
    }

    /// Installs the durable write-through tier. At most one sink can be
    /// installed per cache; returns `false` (and leaves the existing sink
    /// in place) when one was already set.
    pub fn set_sink(&self, sink: Arc<dyn DurableSink>) -> bool {
        self.sink.set(sink).is_ok()
    }

    /// Hands a batch of fresh verdicts to the durable tier, if one is
    /// installed.
    fn persist(&self, fresh: &[(Key, bool)]) {
        if fresh.is_empty() {
            return;
        }
        if let Some(sink) = self.sink.get() {
            sink.persist(fresh);
        }
    }

    /// Pre-loads verdicts recovered from a durable store, tagging them as
    /// disk-tier so later lookups count as `hits_disk`. Does not notify
    /// the sink (the records are already durable) and does not touch the
    /// hit/miss statistics.
    pub fn hydrate(&self, records: impl IntoIterator<Item = (Key, bool)>) {
        let mut by_shard: [Vec<(Key, Slot)>; SHARDS] = Default::default();
        for (key, allowed) in records {
            by_shard[Self::shard(key)].push((
                key,
                Slot {
                    allowed,
                    durable: true,
                },
            ));
        }
        for (i, entries) in by_shard.into_iter().enumerate() {
            if entries.is_empty() {
                continue;
            }
            self.lock_shard(i).extend(entries);
        }
    }

    /// Looks a verdict up, recording a hit or miss.
    #[must_use]
    pub fn get(&self, key: Key) -> Option<bool> {
        let found = self.lock_shard(Self::shard(key)).get(&key).copied();
        match found {
            Some(slot) if slot.durable => self.hits_disk.fetch_add(1, Ordering::Relaxed),
            Some(_) => self.hits_ram.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        let (ram, disk) = match found {
            Some(slot) => (u64::from(!slot.durable), u64::from(slot.durable)),
            None => (0, 0),
        };
        self.observe_lookups(ram, disk, u64::from(found.is_none()));
        found.map(|slot| slot.allowed)
    }

    /// Looks up a whole sweep row — every model fingerprint paired with
    /// one test fingerprint — taking each shard lock at most once instead
    /// of once per key. This is the lookup shape of the test-major engine,
    /// whose unit of work is a test row, not a cell. Records one hit or
    /// miss per key.
    #[must_use]
    pub fn get_row(&self, model_fps: &[u64], test_fp: u64) -> Vec<Option<bool>> {
        self.get_row_tiered(model_fps, test_fp).verdicts
    }

    /// [`VerdictCache::get_row`] with the hit counts of the lookup split
    /// by provenance tier, so the sweep engine can attribute row hits to
    /// RAM vs disk in [`crate::SweepStats`].
    #[must_use]
    pub fn get_row_tiered(&self, model_fps: &[u64], test_fp: u64) -> RowLookup {
        let mut out = RowLookup {
            verdicts: vec![None; model_fps.len()],
            ..RowLookup::default()
        };
        let mut by_shard: [Vec<usize>; SHARDS] = Default::default();
        for (i, &model_fp) in model_fps.iter().enumerate() {
            by_shard[Self::shard((model_fp, test_fp))].push(i);
        }
        let mut misses = 0u64;
        for (s, indices) in by_shard.iter().enumerate() {
            if indices.is_empty() {
                continue;
            }
            let shard = self.lock_shard(s);
            for &i in indices {
                match shard.get(&(model_fps[i], test_fp)) {
                    Some(slot) => {
                        out.verdicts[i] = Some(slot.allowed);
                        if slot.durable {
                            out.hits_disk += 1;
                        } else {
                            out.hits_ram += 1;
                        }
                    }
                    None => misses += 1,
                }
            }
        }
        self.hits_ram.fetch_add(out.hits_ram, Ordering::Relaxed);
        self.hits_disk.fetch_add(out.hits_disk, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        self.observe_lookups(out.hits_ram, out.hits_disk, misses);
        out
    }

    /// Records a verdict (RAM tier; written through to the sink when one
    /// is installed and the verdict is new).
    pub fn insert(&self, key: Key, allowed: bool) {
        let fresh = {
            let mut shard = self.lock_shard(Self::shard(key));
            let prev = shard.insert(
                key,
                Slot {
                    allowed,
                    durable: false,
                },
            );
            prev.is_none_or(|slot| slot.allowed != allowed)
        };
        if fresh {
            self.persist(&[(key, allowed)]);
        }
    }

    /// Merges a batch of verdicts (one worker's sweep-local results),
    /// grouping by shard so each lock is taken at most once. Entries not
    /// already present (or present with a different verdict) are written
    /// through to the durable sink as one batch.
    pub fn merge(&self, batch: impl IntoIterator<Item = (Key, bool)>) {
        let mut by_shard: [Vec<(Key, bool)>; SHARDS] = Default::default();
        for (key, allowed) in batch {
            by_shard[Self::shard(key)].push((key, allowed));
        }
        let mut fresh: Vec<(Key, bool)> = Vec::new();
        for (i, entries) in by_shard.into_iter().enumerate() {
            if entries.is_empty() {
                continue;
            }
            let mut shard = self.lock_shard(i);
            for (key, allowed) in entries {
                let prev = shard.insert(
                    key,
                    Slot {
                        allowed,
                        durable: false,
                    },
                );
                if prev.is_none_or(|slot| slot.allowed != allowed) {
                    fresh.push((key, allowed));
                }
            }
        }
        self.persist(&fresh);
    }

    /// Number of memoized pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").len())
            .sum()
    }

    /// Whether the cache holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total lookup hits since construction, both tiers.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits_ram() + self.hits_disk()
    }

    /// Lookup hits answered by entries computed in this process.
    #[must_use]
    pub fn hits_ram(&self) -> u64 {
        self.hits_ram.load(Ordering::Relaxed)
    }

    /// Lookup hits answered by entries hydrated from a durable store.
    #[must_use]
    pub fn hits_disk(&self) -> u64 {
        self.hits_disk.load(Ordering::Relaxed)
    }

    /// Total lookup misses since construction.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Shard-lock acquisitions that found the lock already held (a
    /// measure of worker serialisation on the cache).
    #[must_use]
    pub fn shard_contention(&self) -> u64 {
        self.contention.load(Ordering::Relaxed)
    }

    /// The cache totals as stable `(name, value)` pairs — the structured
    /// view serializable reports and the serve layer's `/statsz` endpoint
    /// render from, mirroring `SweepStats::counters`. The same names,
    /// prefixed `mcm_cache_` and suffixed `_total`, appear in
    /// `/metricsz`. `hits` is the sum of the two tier counters.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("entries", self.len() as u64),
            ("hits", self.hits()),
            ("hits_ram", self.hits_ram()),
            ("hits_disk", self.hits_disk()),
            ("misses", self.misses()),
            ("shard_contention", self.shard_contention()),
        ]
    }

    /// Drops all entries and statistics (the sink, if any, stays
    /// installed).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard poisoned").clear();
        }
        self.hits_ram.store(0, Ordering::Relaxed);
        self.hits_disk.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.contention.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_core::Formula;

    #[test]
    fn get_insert_roundtrip_and_stats() {
        let cache = VerdictCache::new();
        assert!(cache.is_empty());
        assert_eq!(cache.get((1, 2)), None);
        cache.insert((1, 2), true);
        cache.insert((1, 3), false);
        assert_eq!(cache.get((1, 2)), Some(true));
        assert_eq!(cache.get((1, 3)), Some(false));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.hits_ram(), 2);
        assert_eq!(cache.hits_disk(), 0);
        assert_eq!(cache.misses(), 1);
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn get_row_matches_per_key_lookups() {
        let cache = VerdictCache::new();
        let model_fps: Vec<u64> = (0..40).collect();
        for &m in &model_fps {
            if m % 3 != 0 {
                cache.insert((m, 7), m % 2 == 0);
            }
        }
        let row = cache.get_row(&model_fps, 7);
        for (i, &m) in model_fps.iter().enumerate() {
            let expected = (m % 3 != 0).then_some(m % 2 == 0);
            assert_eq!(row[i], expected, "row lookup differs at model {m}");
        }
        // 40 lookups: hits for the inserted keys, misses for the rest.
        assert_eq!(cache.hits() + cache.misses(), 40);
        assert_eq!(cache.misses(), model_fps.iter().filter(|m| *m % 3 == 0).count() as u64);
    }

    #[test]
    fn counters_mirror_the_accessors() {
        let cache = VerdictCache::new();
        cache.insert((1, 2), true);
        let _ = cache.get((1, 2));
        let _ = cache.get((9, 9));
        assert_eq!(
            cache.counters(),
            [
                ("entries", 1),
                ("hits", 1),
                ("hits_ram", 1),
                ("hits_disk", 0),
                ("misses", 1),
                ("shard_contention", 0)
            ]
        );
    }

    #[test]
    fn merge_batches_by_shard() {
        let cache = VerdictCache::new();
        let batch: Vec<(Key, bool)> = (0..100).map(|i| ((i, i * 7), i % 2 == 0)).collect();
        cache.merge(batch);
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.get((4, 28)), Some(true));
        assert_eq!(cache.get((5, 35)), Some(false));
    }

    #[test]
    fn hydrated_entries_count_as_disk_hits() {
        let cache = VerdictCache::new();
        cache.hydrate([((1, 2), true), ((3, 4), false)]);
        cache.insert((5, 6), true);
        assert_eq!(cache.get((1, 2)), Some(true));
        assert_eq!(cache.get((3, 4)), Some(false));
        assert_eq!(cache.get((5, 6)), Some(true));
        assert_eq!(cache.hits_disk(), 2);
        assert_eq!(cache.hits_ram(), 1);
        let row = {
            let cache = VerdictCache::new();
            cache.hydrate([((1, 7), true)]);
            cache.insert((2, 7), false);
            cache.get_row_tiered(&[1, 2, 3], 7)
        };
        assert_eq!(row.verdicts, vec![Some(true), Some(false), None]);
        assert_eq!(row.hits_disk, 1);
        assert_eq!(row.hits_ram, 1);
    }

    #[test]
    fn sink_sees_fresh_verdicts_once() {
        struct Recorder(Mutex<Vec<(Key, bool)>>);
        impl DurableSink for Recorder {
            fn persist(&self, batch: &[(Key, bool)]) {
                self.0.lock().unwrap().extend_from_slice(batch);
            }
        }
        let cache = VerdictCache::new();
        let sink = Arc::new(Recorder(Mutex::new(Vec::new())));
        assert!(cache.set_sink(sink.clone()));
        assert!(!cache.set_sink(sink.clone()), "second sink must be refused");
        cache.hydrate([((9, 9), true)]);
        cache.insert((1, 2), true);
        cache.insert((1, 2), true); // unchanged: not re-persisted
        cache.merge([((1, 2), true), ((3, 4), false)]);
        let seen = sink.0.lock().unwrap().clone();
        assert_eq!(seen, vec![((1, 2), true), ((3, 4), false)]);
    }

    #[test]
    fn model_fingerprint_ignores_the_name() {
        let a = MemoryModel::new("TSO", Formula::always());
        let b = MemoryModel::new("M4044", Formula::always());
        let c = MemoryModel::new("weak", Formula::never());
        assert_eq!(
            VerdictCache::model_fingerprint(&a),
            VerdictCache::model_fingerprint(&b)
        );
        assert_ne!(
            VerdictCache::model_fingerprint(&a),
            VerdictCache::model_fingerprint(&c)
        );
    }

    #[test]
    fn model_fingerprints_are_pinned() {
        // Verdict logs and checkpoint `model_fps` persist these values
        // (docs/STORE_FORMAT.md); a change to how `MemoryModel` stores
        // its formula must not silently orphan existing stores.
        use mcm_models::{named, DigitModel};
        let m4044 = "M4044".parse::<DigitModel>().unwrap().to_model();
        let pinned = [
            (named::sc(), 0xc8d9_2d1f_e77b_6f16_u64),
            (named::tso(), 0x044a_b8e5_a9be_a3a6),
            (m4044, 0x3a98_4efb_3f04_be67),
        ];
        for (model, fingerprint) in pinned {
            assert_eq!(
                VerdictCache::model_fingerprint(&model),
                fingerprint,
                "fingerprint of {} moved",
                model.name()
            );
            let renamed = model.renamed("renamed");
            assert_eq!(VerdictCache::model_fingerprint(&renamed), fingerprint);
            assert_eq!(model.clone(), model);
        }
    }
}
