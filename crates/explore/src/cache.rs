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
//! ## Layout: one verdict row per test
//!
//! The sweep engine's unit of work is a test row (one test against every
//! model), so the cache is keyed the same way. Each test fingerprint owns
//! one row of three bitsets — `known`, `allowed` and `durable` —
//! indexed by a dense **model id** that the cache hands out once per
//! model fingerprint, in first-seen order. A whole-row lookup is one
//! shard lock, one hash probe and one bit test per model
//! ([`VerdictCache::lookup_row`]); a worker's fresh verdicts merge back
//! as rows ([`VerdictRowsBuf`], [`VerdictCache::merge_rows`]) with
//! word-wide bit operations. The single-cell [`VerdictCache::get`] and
//! [`VerdictCache::insert`] of the CEGIS oracle take the same path for
//! one bit and never allocate, apart from the first row of a new test in
//! a cache holding more than 128 models.
//!
//! Rows are sharded by test fingerprint (a fixed array of mutex-protected
//! maps) so concurrent sweep workers do not serialise on one lock. Both
//! fingerprints are already 64-bit hashes, so the maps hash them with a
//! single multiply-fold rather than SipHash. That is sound only because
//! both keys are hashes this program computes (of a formula, of a
//! canonical test), never raw outside input that could be chosen to
//! collide.
//!
//! The RAM shards can sit in front of a durable tier (`mcm-store`'s
//! `DiskCache`): entries hydrated from disk carry the `durable` bit, so
//! hit counters distinguish `hits_ram` (computed this process) from
//! `hits_disk` (recovered from an earlier process). Both directions move
//! whole rows ([`VerdictRows`]): [`VerdictCache::hydrate_rows`] loads
//! them, and a [`DurableSink`] installed with [`VerdictCache::set_sink`]
//! receives the fresh part of every merged row for write-through
//! persistence.
//!
//! Keys are 128 bits of hash; a collision would silently reuse a verdict.
//! With 64-bit fingerprints on each side the collision probability across
//! even millions of distinct pairs is negligible (~`n²/2⁶⁵` per side).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock, TryLockError};

use mcm_core::MemoryModel;

/// Number of independent shards; a power of two so the shard index is
/// the top bits of the mixed test fingerprint.
const SHARDS: usize = 16;

/// A cache key: (model fingerprint, canonical-test fingerprint).
pub type Key = (u64, u64);

/// Odd multiplier of [`FoldHasher`] (2⁶⁴ / φ).
const FOLD_K: u64 = 0x9e37_79b9_7f4a_7c15;

/// The 128-bit product of `x` and [`FOLD_K`], its halves xor-folded.
fn fold(x: u64) -> u64 {
    let product = u128::from(x) * u128::from(FOLD_K);
    (product as u64) ^ ((product >> 64) as u64)
}

/// A one-multiply hasher for keys that are already 64-bit hashes: the
/// fold spreads every input bit over both the low bits (bucket index)
/// and the high bits (control tag) a `HashMap` reads.
#[derive(Clone, Copy, Debug, Default)]
struct FoldHasher(u64);

impl Hasher for FoldHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = fold(self.0 ^ x);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

type FoldMap<V> = HashMap<u64, V, BuildHasherDefault<FoldHasher>>;

/// Bit planes of one 64-model group of a [`Row`].
const KNOWN: usize = 0;
const ALLOWED: usize = 1;
const DURABLE: usize = 2;

/// Groups of 64 model ids stored inline in every [`Row`].
const INLINE_GROUPS: usize = 2;

/// One memoized verdict plus its provenance tier.
#[derive(Clone, Copy, Debug)]
struct Slot {
    allowed: bool,
    /// `true` when the entry was hydrated from a durable store rather
    /// than computed by a checker in this process.
    durable: bool,
}

/// One test's verdicts over every model id, as three bitsets: `known`
/// (a verdict is memoized), `allowed` (the verdict) and `durable` (it was
/// loaded from disk, not computed in this process). Model id `i` is bit
/// `i % 64` of group `i / 64`, and a group holds the three planes' words
/// side by side. The first [`INLINE_GROUPS`] groups (ids below 128) live
/// inline, so rows over the 90-model space never allocate.
#[derive(Clone, Debug, Default)]
struct Row {
    head: [[u64; 3]; INLINE_GROUPS],
    tail: Vec<[u64; 3]>,
}

impl Row {
    fn group(&self, g: usize) -> Option<&[u64; 3]> {
        match g.checked_sub(INLINE_GROUPS) {
            None => Some(&self.head[g]),
            Some(t) => self.tail.get(t),
        }
    }

    fn group_mut(&mut self, g: usize) -> &mut [u64; 3] {
        match g.checked_sub(INLINE_GROUPS) {
            None => &mut self.head[g],
            Some(t) => {
                if self.tail.len() <= t {
                    self.tail.resize(t + 1, [0; 3]);
                }
                &mut self.tail[t]
            }
        }
    }

    fn groups(&self) -> impl Iterator<Item = &[u64; 3]> {
        self.head.iter().chain(&self.tail)
    }

    /// Memoized verdicts in the row.
    fn known(&self) -> u64 {
        self.groups()
            .map(|g| u64::from(g[KNOWN].count_ones()))
            .sum()
    }

    fn get(&self, id: u32) -> Option<Slot> {
        let bit = 1u64 << (id % 64);
        let group = self.group(id as usize / 64)?;
        (group[KNOWN] & bit != 0).then(|| Slot {
            allowed: group[ALLOWED] & bit != 0,
            durable: group[DURABLE] & bit != 0,
        })
    }

    /// Writes one verdict. Returns `(newly known, fresh)`, where fresh
    /// means the cell was unknown or held the opposite verdict.
    fn set(&mut self, id: u32, slot: Slot) -> (bool, bool) {
        let bit = 1u64 << (id % 64);
        let group = self.group_mut(id as usize / 64);
        let was_known = group[KNOWN] & bit != 0;
        let was_allowed = group[ALLOWED] & bit != 0;
        group[KNOWN] |= bit;
        for (plane, on) in [(ALLOWED, slot.allowed), (DURABLE, slot.durable)] {
            if on {
                group[plane] |= bit;
            } else {
                group[plane] &= !bit;
            }
        }
        (!was_known, !was_known || was_allowed != slot.allowed)
    }
}

/// The dense model ids a cache has handed out, in first-seen order.
#[derive(Debug, Default)]
struct ModelIndex {
    ids: FoldMap<u32>,
    /// The interned fingerprints, by id.
    fps: Vec<u64>,
}

impl ModelIndex {
    fn intern(&mut self, model_fp: u64) -> u32 {
        let next = u32::try_from(self.fps.len()).expect("fewer than 2^32 models");
        let id = *self.ids.entry(model_fp).or_insert(next);
        if id == next {
            self.fps.push(model_fp);
        }
        id
    }
}

/// A sweep's model fingerprints resolved to one cache's model ids, once
/// per sweep ([`VerdictCache::model_ids`]). Only meaningful for the
/// cache that made it.
#[derive(Clone, Debug)]
pub struct ModelIds {
    ids: Vec<u32>,
    /// The cache's model fingerprints by id, up to the largest id in
    /// `ids`: the model table of the rows a sweep merges back, so that
    /// [`VerdictCache::merge_rows`] takes its word-wide path.
    table: Vec<u64>,
}

impl ModelIds {
    /// An empty row buffer for a sweep's fresh verdicts, over the cache's
    /// own model table; the verdict of the sweep's model `i` goes to
    /// table position [`ModelIds::position`]`(i)`.
    #[must_use]
    pub fn rows_buf(&self) -> VerdictRowsBuf {
        VerdictRowsBuf::new(self.table.clone())
    }

    /// The table position, in [`ModelIds::rows_buf`], of the sweep's
    /// model `i`.
    #[must_use]
    pub fn position(&self, i: usize) -> usize {
        self.ids[i] as usize
    }
}

/// Set bit positions of `word`, lowest first.
fn bits(word: u64) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(word), |&w| Some(w & w.wrapping_sub(1)))
        .take_while(|&w| w != 0)
        .map(|w| w.trailing_zeros() as usize)
}

/// Verdicts of whole test rows over one model table: what a sweep worker
/// hands [`VerdictCache::merge_rows`], what the durable tier receives
/// ([`DurableSink::persist`]) and loads back
/// ([`VerdictCache::hydrate_rows`]), and the payload of one `mcm-store`
/// log frame. Row `r` answers test `test_fps[r]`; the model at position
/// `p` of the table is bit `p % 64` of word `p / 64` of the row's `known`
/// mask (a verdict is present) and of its `allowed` mask (the verdict).
/// Each mask spans [`VerdictRows::words`] words.
#[derive(Clone, Copy, Debug)]
pub struct VerdictRows<'a> {
    model_fps: &'a [u64],
    test_fps: &'a [u64],
    /// Per row, the `known` words, then as many `allowed` words.
    masks: &'a [u64],
}

impl<'a> VerdictRows<'a> {
    /// Rows over `model_fps`: `masks` holds, per test of `test_fps`, the
    /// row's `known` words followed by its `allowed` words. `None` when
    /// the masks do not fit the table: not `2 × words` words per row, a
    /// bit past the table's last model, or an `allowed` bit whose `known`
    /// bit is clear.
    #[must_use]
    pub fn new(model_fps: &'a [u64], test_fps: &'a [u64], masks: &'a [u64]) -> Option<Self> {
        let w = Self::words(model_fps.len());
        if masks.len() != test_fps.len().checked_mul(2 * w)? {
            return None;
        }
        // Bits of the last word that lie past the table's end.
        let spare = match model_fps.len() % 64 {
            0 => 0,
            used => !0u64 << used,
        };
        let fits = masks.chunks_exact(2 * w.max(1)).all(|row| {
            let (known, allowed) = row.split_at(w);
            known.last().is_none_or(|&k| k & spare == 0)
                && known.iter().zip(allowed).all(|(&k, &a)| a & !k == 0)
        });
        fits.then_some(VerdictRows {
            model_fps,
            test_fps,
            masks,
        })
    }

    /// Words of one mask over `model_count` models: `⌈model_count / 64⌉`.
    #[must_use]
    pub fn words(model_count: usize) -> usize {
        model_count.div_ceil(64)
    }

    /// The model table.
    #[must_use]
    pub fn model_fps(&self) -> &'a [u64] {
        self.model_fps
    }

    /// The rows' test fingerprints, in row order.
    #[must_use]
    pub fn test_fps(&self) -> &'a [u64] {
        self.test_fps
    }

    /// Every row's `known` then `allowed` words, in row order.
    #[must_use]
    pub fn masks(&self) -> &'a [u64] {
        self.masks
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.test_fps.len()
    }

    /// Whether there are no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.test_fps.is_empty()
    }

    /// The rows in order, as `(test_fp, known, allowed)`.
    pub fn rows(&self) -> impl Iterator<Item = (u64, &'a [u64], &'a [u64])> + 'a {
        let (test_fps, masks) = (self.test_fps, self.masks);
        let w = Self::words(self.model_fps.len());
        (0..test_fps.len()).map(move |r| {
            let (known, allowed) = masks[2 * w * r..2 * w * (r + 1)].split_at(w);
            (test_fps[r], known, allowed)
        })
    }

    /// Verdicts held: the set `known` bits of every row.
    #[must_use]
    pub fn cell_count(&self) -> u64 {
        self.rows()
            .flat_map(|(_, known, _)| known)
            .map(|k| u64::from(k.count_ones()))
            .sum()
    }

    /// Every verdict as a `(key, allowed)` cell: row by row, each row's
    /// models in table order.
    pub fn cells(&self) -> impl Iterator<Item = (Key, bool)> + 'a {
        let model_fps = self.model_fps;
        self.rows().flat_map(move |(test_fp, known, allowed)| {
            known.iter().enumerate().flat_map(move |(g, &k)| {
                bits(k).map(move |b| {
                    let cell = (model_fps[64 * g + b], test_fp);
                    (cell, (allowed[g] >> b) & 1 != 0)
                })
            })
        })
    }
}

/// An owned [`VerdictRows`], built a row at a time: each sweep worker
/// collects its fresh verdicts in one and merges it with
/// [`VerdictCache::merge_rows`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VerdictRowsBuf {
    model_fps: Vec<u64>,
    test_fps: Vec<u64>,
    masks: Vec<u64>,
}

impl VerdictRowsBuf {
    /// No rows yet, over the model table `model_fps`.
    #[must_use]
    pub fn new(model_fps: Vec<u64>) -> Self {
        VerdictRowsBuf {
            model_fps,
            test_fps: Vec::new(),
            masks: Vec::new(),
        }
    }

    /// Packs `cells` into rows without reordering them: the table lists
    /// the models in first-seen order, and a row runs on while the test
    /// stays the same and each model sits later in the table than the
    /// one before. So [`VerdictRows::cells`] gives back exactly `cells`,
    /// duplicates included, and cells written row by row in one model
    /// order take one row per test.
    #[must_use]
    pub fn from_cells<I>(cells: I) -> Self
    where
        I: IntoIterator<Item = (Key, bool)>,
        I::IntoIter: Clone,
    {
        let cells = cells.into_iter();
        let mut position: FoldMap<usize> = FoldMap::default();
        let mut model_fps = Vec::new();
        for ((model_fp, _), _) in cells.clone() {
            position.entry(model_fp).or_insert_with(|| {
                model_fps.push(model_fp);
                model_fps.len() - 1
            });
        }
        let mut buf = VerdictRowsBuf::new(model_fps);
        let mut last: Option<(u64, usize)> = None;
        for ((model_fp, test_fp), allowed) in cells {
            let p = position[&model_fp];
            if last.is_none_or(|(t, q)| t != test_fp || q >= p) {
                buf.push_row(test_fp);
            }
            buf.set(p, allowed);
            last = Some((test_fp, p));
        }
        buf
    }

    /// Starts the row of `test_fp`; later [`VerdictRowsBuf::set`] calls
    /// fill it.
    pub fn push_row(&mut self, test_fp: u64) {
        self.test_fps.push(test_fp);
        let w = VerdictRows::words(self.model_fps.len());
        self.masks.resize(self.masks.len() + 2 * w, 0);
    }

    /// Records the verdict of the model at `position` of the table in
    /// the current row; setting a position twice keeps the last verdict.
    ///
    /// # Panics
    ///
    /// Panics when no row was started or `position` is outside the table.
    pub fn set(&mut self, position: usize, allowed: bool) {
        assert!(position < self.model_fps.len(), "model outside the table");
        let w = VerdictRows::words(self.model_fps.len());
        let start = self
            .masks
            .len()
            .checked_sub(2 * w)
            .expect("push_row before set");
        let (g, bit) = (position / 64, 1u64 << (position % 64));
        let row = &mut self.masks[start..];
        row[g] |= bit;
        if allowed {
            row[w + g] |= bit;
        } else {
            row[w + g] &= !bit;
        }
    }

    /// The rows built so far.
    #[must_use]
    pub fn as_rows(&self) -> VerdictRows<'_> {
        VerdictRows::new(&self.model_fps, &self.test_fps, &self.masks)
            .expect("set keeps every bit inside the table")
    }
}

/// A durable write-through target for freshly computed verdicts: the
/// sweep engine merges worker rows into the RAM shards, and any sink
/// installed with [`VerdictCache::set_sink`] sees the fresh part of the
/// same rows so a disk tier can persist them on batch boundaries.
pub trait DurableSink: Send + Sync {
    /// Persists a batch of fresh verdicts, as whole rows. Called after
    /// the RAM shards were updated, never with an empty batch; verdicts
    /// already present with the same value are left out of the rows.
    fn persist(&self, rows: VerdictRows<'_>);
}

/// Result of a tier-aware row lookup ([`VerdictCache::get_row_tiered`],
/// [`VerdictCache::lookup_row`]).
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
    shards: [Mutex<FoldMap<Row>>; SHARDS],
    models: RwLock<ModelIndex>,
    /// Memoized (model, test) pairs: bumped whenever a `known` bit goes
    /// from 0 to 1, so [`VerdictCache::len`] reads one atomic.
    entries: AtomicU64,
    hits_ram: AtomicU64,
    hits_disk: AtomicU64,
    misses: AtomicU64,
    contention: AtomicU64,
    /// Optional durable tier notified of every fresh verdict.
    sink: OnceLock<Arc<dyn DurableSink>>,
}

mcm_obs::counter_table! {
    /// A [`VerdictCache`]'s totals at one moment ([`VerdictCache::stats`]):
    /// the structured view reports, `/statsz` and `/metricsz` (as
    /// `mcm_cache_*`) render from.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct CacheStats {
        /// Memoized (model, test) pairs.
        entries: usize = gauge,
        /// Lookups answered from the cache, both tiers
        /// (`hits_ram + hits_disk`).
        hits: u64 = counter,
        /// Hits on entries computed earlier in this process (RAM tier).
        hits_ram: u64 = counter,
        /// Hits on entries hydrated from a durable store (disk tier) —
        /// verdicts a previous process paid for.
        hits_disk: u64 = counter,
        /// Lookups that fell through to a checker.
        misses: u64 = counter,
        /// Shard-lock acquisitions that found the lock already held (a
        /// measure of worker convoying on the cache).
        shard_contention: u64 = counter,
    }
}

impl fmt::Display for CacheStats {
    /// The standard cache line every report prints.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache: {} entries, {} hits ({} ram + {} disk), {} misses",
            self.entries, self.hits, self.hits_ram, self.hits_disk, self.misses,
        )
    }
}

impl fmt::Debug for VerdictCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VerdictCache")
            .field("stats", &self.stats())
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

    fn shard(test_fp: u64) -> usize {
        (fold(test_fp) >> (64 - SHARDS.trailing_zeros())) as usize
    }

    /// Locks the shard holding `test_fp`'s row, counting the acquisition
    /// as contended when another worker already holds it (`try_lock`
    /// would block). The count is [`CacheStats::shard_contention`], the
    /// signal that says whether [`SHARDS`] needs to grow.
    fn lock_shard(&self, test_fp: u64) -> MutexGuard<'_, FoldMap<Row>> {
        let shard = &self.shards[Self::shard(test_fp)];
        match shard.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::WouldBlock) => {
                self.contention.fetch_add(1, Ordering::Relaxed);
                shard.lock().expect("cache shard poisoned")
            }
            Err(TryLockError::Poisoned(_)) => panic!("cache shard poisoned"),
        }
    }

    /// The id of a model fingerprint, `None` when the cache never saw it
    /// (and so holds no verdict for it).
    fn model_id(&self, model_fp: u64) -> Option<u32> {
        self.models
            .read()
            .expect("model index poisoned")
            .ids
            .get(&model_fp)
            .copied()
    }

    /// The id of a model fingerprint, handing out the next one when new.
    fn intern(&self, model_fp: u64) -> u32 {
        match self.model_id(model_fp) {
            Some(id) => id,
            None => self
                .models
                .write()
                .expect("model index poisoned")
                .intern(model_fp),
        }
    }

    /// Resolves a sweep's model fingerprints to this cache's model ids,
    /// handing out ids to the ones it has not seen. Resolve once per
    /// sweep, then look rows up with [`VerdictCache::lookup_row`].
    #[must_use]
    pub fn model_ids(&self, model_fps: &[u64]) -> ModelIds {
        let mut index = self.models.write().expect("model index poisoned");
        let ids: Vec<u32> = model_fps.iter().map(|&fp| index.intern(fp)).collect();
        let end = ids.iter().max().map_or(0, |&id| id as usize + 1);
        ModelIds {
            ids,
            table: index.fps[..end].to_vec(),
        }
    }

    /// Adds one lookup's tallies to the cache's counters.
    fn count_lookups(&self, hits_ram: u64, hits_disk: u64, misses: u64) {
        self.hits_ram.fetch_add(hits_ram, Ordering::Relaxed);
        self.hits_disk.fetch_add(hits_disk, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
    }

    /// Installs the durable write-through tier. At most one sink can be
    /// installed per cache; returns `false` (and leaves the existing sink
    /// in place) when one was already set.
    pub fn set_sink(&self, sink: Arc<dyn DurableSink>) -> bool {
        self.sink.set(sink).is_ok()
    }

    /// Pre-loads verdicts recovered from a durable store, tagging them as
    /// disk-tier so later lookups count as `hits_disk`. Rows apply in
    /// order, so a later verdict for the same cell overwrites an earlier
    /// one. Does not notify the sink (the verdicts are already durable)
    /// and does not touch the hit/miss statistics.
    pub fn hydrate_rows(&self, rows: VerdictRows<'_>) {
        self.absorb_rows(rows, true, None);
    }

    /// Looks a verdict up, recording a hit or miss.
    #[must_use]
    pub fn get(&self, key: Key) -> Option<bool> {
        let (model_fp, test_fp) = key;
        let found = self.model_id(model_fp).and_then(|id| {
            self.lock_shard(test_fp)
                .get(&test_fp)
                .and_then(|row| row.get(id))
        });
        match found {
            Some(slot) => self.count_lookups(u64::from(!slot.durable), u64::from(slot.durable), 0),
            None => self.count_lookups(0, 0, 1),
        }
        found.map(|slot| slot.allowed)
    }

    /// Looks up a whole sweep row — every model fingerprint paired with
    /// one test fingerprint — with one shard lock and one probe. This is
    /// the lookup shape of the test-major engine, whose unit of work is a
    /// test row, not a cell. Records one hit or miss per key, and returns
    /// the hit counts split by provenance tier, so the sweep engine can
    /// attribute row hits to RAM vs disk in [`crate::SweepStats`].
    #[must_use]
    pub fn get_row_tiered(&self, model_fps: &[u64], test_fp: u64) -> RowLookup {
        let mut out = RowLookup::default();
        self.lookup_row(&self.model_ids(model_fps), test_fp, &mut out);
        out
    }

    /// [`VerdictCache::get_row_tiered`] over model ids resolved once per
    /// sweep, into a caller-owned buffer: `out.verdicts[i]` answers the
    /// model at position `i` of `ids`.
    pub fn lookup_row(&self, ids: &ModelIds, test_fp: u64, out: &mut RowLookup) {
        out.verdicts.clear();
        out.hits_ram = 0;
        out.hits_disk = 0;
        {
            let shard = self.lock_shard(test_fp);
            match shard.get(&test_fp) {
                Some(row) => {
                    for &id in &ids.ids {
                        let slot = row.get(id);
                        if let Some(slot) = slot {
                            if slot.durable {
                                out.hits_disk += 1;
                            } else {
                                out.hits_ram += 1;
                            }
                        }
                        out.verdicts.push(slot.map(|slot| slot.allowed));
                    }
                }
                None => out.verdicts.resize(ids.ids.len(), None),
            }
        }
        let misses = ids.ids.len() as u64 - out.hits_ram - out.hits_disk;
        self.count_lookups(out.hits_ram, out.hits_disk, misses);
    }

    /// Writes one RAM-tier verdict; returns whether it is fresh.
    fn set(&self, key: Key, allowed: bool) -> bool {
        let (model_fp, test_fp) = key;
        let id = self.intern(model_fp);
        let slot = Slot {
            allowed,
            durable: false,
        };
        let mut shard = self.lock_shard(test_fp);
        let (known, fresh) = shard.entry(test_fp).or_default().set(id, slot);
        if known {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        fresh
    }

    /// Records a verdict (RAM tier; written through to the sink as a
    /// one-model row when one is installed and the verdict is new).
    pub fn insert(&self, key: Key, allowed: bool) {
        if !self.set(key, allowed) {
            return;
        }
        if let Some(sink) = self.sink.get() {
            let (model_fp, test_fp) = key;
            let masks = [1, u64::from(allowed)];
            let row = VerdictRows::new(
                std::slice::from_ref(&model_fp),
                std::slice::from_ref(&test_fp),
                &masks,
            );
            sink.persist(row.expect("one model, one row"));
        }
    }

    /// Merges a batch of verdicts, in order (a later duplicate key wins):
    /// [`VerdictCache::merge_rows`] over the cells packed into rows by
    /// [`VerdictRowsBuf::from_cells`].
    pub fn merge(&self, batch: impl IntoIterator<Item = (Key, bool)>) {
        let cells: Vec<(Key, bool)> = batch.into_iter().collect();
        self.merge_rows(VerdictRowsBuf::from_cells(cells.iter().copied()).as_rows());
    }

    /// Merges whole rows of RAM-tier verdicts, in order, with one shard
    /// lock per row. The verdicts that are fresh — unknown before, or
    /// known with the opposite value — go to the durable sink as one
    /// batch of rows over the same model table.
    pub fn merge_rows(&self, rows: VerdictRows<'_>) {
        let Some(sink) = self.sink.get() else {
            self.absorb_rows(rows, false, None);
            return;
        };
        let mut fresh = VerdictRowsBuf::new(rows.model_fps().to_vec());
        self.absorb_rows(rows, false, Some(&mut fresh));
        if !fresh.test_fps.is_empty() {
            sink.persist(fresh.as_rows());
        }
    }

    /// Interns a row table's models: their ids, and whether those are
    /// `0, 1, 2, …` in order (the table is a prefix of the cache's own).
    fn intern_table(&self, model_fps: &[u64]) -> (Vec<u32>, bool) {
        let mut index = self.models.write().expect("model index poisoned");
        let ids: Vec<u32> = model_fps.iter().map(|&fp| index.intern(fp)).collect();
        let aligned = ids.iter().enumerate().all(|(p, &id)| id as usize == p);
        (ids, aligned)
    }

    /// Writes `rows` into the shards on the RAM or the disk tier, and
    /// collects into `fresh` the rows' fresh verdicts. The table's models
    /// are interned once; when they hold model ids `0, 1, 2, …` in order
    /// each row merges a 64-model word at a time, and otherwise a verdict
    /// at a time, in table order. Sweeps build their rows over the
    /// cache's own table ([`ModelIds::rows_buf`]), and so do the frames
    /// they persist, so only frames written by another cache (another
    /// process's ids, a version-1 log) and the cell-level
    /// [`VerdictCache::merge`] can take the per-verdict path.
    fn absorb_rows(
        &self,
        rows: VerdictRows<'_>,
        durable: bool,
        mut fresh: Option<&mut VerdictRowsBuf>,
    ) {
        if rows.is_empty() {
            return;
        }
        let (ids, aligned) = self.intern_table(rows.model_fps());
        let w = VerdictRows::words(ids.len());
        let mut fresh_row = vec![0u64; 2 * w];
        for (test_fp, known, allowed) in rows.rows() {
            fresh_row.fill(0);
            let (fresh_known, fresh_allowed) = fresh_row.split_at_mut(w);
            {
                let mut shard = self.lock_shard(test_fp);
                let row = shard.entry(test_fp).or_default();
                let mut newly_known = 0u64;
                for (g, &k) in known.iter().enumerate() {
                    if k == 0 {
                        continue;
                    }
                    let a = allowed[g] & k;
                    if aligned {
                        let group = row.group_mut(g);
                        let newly = k & !group[KNOWN];
                        fresh_known[g] = newly | (k & (group[ALLOWED] ^ a));
                        fresh_allowed[g] = fresh_known[g] & a;
                        newly_known += u64::from(newly.count_ones());
                        group[KNOWN] |= k;
                        group[ALLOWED] = (group[ALLOWED] & !k) | a;
                        if durable {
                            group[DURABLE] |= k;
                        } else {
                            group[DURABLE] &= !k;
                        }
                        continue;
                    }
                    for b in bits(k) {
                        let bit = 1u64 << b;
                        let slot = Slot {
                            allowed: a & bit != 0,
                            durable,
                        };
                        let (newly, changed) = row.set(ids[64 * g + b], slot);
                        newly_known += u64::from(newly);
                        if changed {
                            fresh_known[g] |= bit;
                            fresh_allowed[g] |= a & bit;
                        }
                    }
                }
                // Counted under the shard lock, so `clear` never subtracts
                // bits whose addition is still pending.
                self.entries.fetch_add(newly_known, Ordering::Relaxed);
            }
            if let Some(out) = fresh.as_deref_mut() {
                if fresh_known.iter().any(|&k| k != 0) {
                    out.test_fps.push(test_fp);
                    out.masks.extend_from_slice(&fresh_row);
                }
            }
        }
    }

    /// Number of memoized pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed) as usize
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

    /// A snapshot of the cache's totals. `hits` is the sum of the two
    /// tier counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.len(),
            hits: self.hits(),
            hits_ram: self.hits_ram(),
            hits_disk: self.hits_disk(),
            misses: self.misses(),
            shard_contention: self.shard_contention(),
        }
    }

    /// Drops all entries and statistics (the sink, if any, stays
    /// installed, and model ids stay assigned).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard poisoned");
            let dropped: u64 = shard.values().map(Row::known).sum();
            shard.clear();
            self.entries.fetch_sub(dropped, Ordering::Relaxed);
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
        let row = cache.get_row_tiered(&model_fps, 7).verdicts;
        for (i, &m) in model_fps.iter().enumerate() {
            let expected = (m % 3 != 0).then_some(m % 2 == 0);
            assert_eq!(row[i], expected, "row lookup differs at model {m}");
        }
        // 40 lookups: hits for the inserted keys, misses for the rest.
        assert_eq!(cache.hits() + cache.misses(), 40);
        assert_eq!(
            cache.misses(),
            model_fps.iter().filter(|m| *m % 3 == 0).count() as u64
        );
    }

    #[test]
    fn counters_mirror_the_accessors() {
        let cache = VerdictCache::new();
        cache.insert((1, 2), true);
        let _ = cache.get((1, 2));
        let _ = cache.get((9, 9));
        assert_eq!(
            cache.stats().counters(),
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

    fn hydrate(cache: &VerdictCache, cells: &[(Key, bool)]) {
        cache.hydrate_rows(VerdictRowsBuf::from_cells(cells.iter().copied()).as_rows());
    }

    #[test]
    fn sweep_rows_merge_word_wide_after_a_sweep_over_other_models() {
        let cache = VerdictCache::new();
        let all: Vec<u64> = (1..=100).collect();
        let _ = cache.model_ids(&all);
        // A later sweep over a reordered subset, plus one new model.
        let subset = [70, 3, 41, 500];
        let ids = cache.model_ids(&subset);
        let mut rows = ids.rows_buf();
        let table = rows.as_rows().model_fps().to_vec();
        assert_eq!(table.len(), 101);
        assert_eq!((&table[..100], table[100]), (&all[..], 500));
        let (_, aligned) = cache.intern_table(&table);
        assert!(aligned, "the table is the cache's id order");
        rows.push_row(9);
        for (i, allowed) in [true, false, true, false].into_iter().enumerate() {
            rows.set(ids.position(i), allowed);
        }
        cache.merge_rows(rows.as_rows());
        let row = cache.get_row_tiered(&subset, 9).verdicts;
        assert_eq!(row, vec![Some(true), Some(false), Some(true), Some(false)]);
        assert_eq!(cache.get_row_tiered(&[1, 2], 9).verdicts, vec![None, None]);
        // A table in another order is not aligned.
        assert!(!cache.intern_table(&[3, 70]).1);
    }

    #[test]
    fn hydrated_entries_count_as_disk_hits() {
        let cache = VerdictCache::new();
        hydrate(&cache, &[((1, 2), true), ((3, 4), false)]);
        cache.insert((5, 6), true);
        assert_eq!(cache.get((1, 2)), Some(true));
        assert_eq!(cache.get((3, 4)), Some(false));
        assert_eq!(cache.get((5, 6)), Some(true));
        assert_eq!(cache.hits_disk(), 2);
        assert_eq!(cache.hits_ram(), 1);
        let row = {
            let cache = VerdictCache::new();
            hydrate(&cache, &[((1, 7), true)]);
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
            fn persist(&self, rows: VerdictRows<'_>) {
                self.0.lock().unwrap().extend(rows.cells());
            }
        }
        let cache = VerdictCache::new();
        let sink = Arc::new(Recorder(Mutex::new(Vec::new())));
        assert!(cache.set_sink(sink.clone()));
        assert!(!cache.set_sink(sink.clone()), "second sink must be refused");
        hydrate(&cache, &[((9, 9), true)]);
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
