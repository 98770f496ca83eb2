//! [`DiskCache`]: the verdict cache with a durable tier underneath.
//!
//! Opening a `DiskCache` replays the verdict log into a fresh
//! [`VerdictCache`], one frame of rows at a time straight into the
//! cache's per-test verdict rows (those entries count as *disk-tier* hits
//! when a sweep uses them), and installs a [`DurableSink`] so every batch
//! of fresh verdict rows the cache absorbs is appended to the log as one
//! checksummed frame. The write path is an optimization, never a
//! correctness dependency: append errors are counted and the in-RAM
//! cache keeps serving; torn tails from a crash are shed on the next
//! open.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mcm_explore::{DurableSink, VerdictCache, VerdictRows};

use crate::log::LogWriter;

mcm_obs::counter_table! {
    /// Counters describing a [`DiskCache`]'s life so far: the structured
    /// view reports, `/statsz` and `/metricsz` (as `mcm_store_*`) render
    /// from.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct StoreStats {
        /// Verdicts replayed from the log when the cache opened.
        hydrated: u64 = gauge,
        /// Fresh verdicts appended to the log since opening.
        appended: u64 = counter,
        /// Frames flushed (one per batch of fresh verdict rows).
        flushes: u64 = counter,
        /// Append failures (counted, not propagated — the RAM tier keeps
        /// serving).
        write_errors: u64 = counter,
        /// Current log size in bytes.
        bytes: u64 = gauge,
        /// Whether the open recovered from a torn/corrupt tail.
        recovered_tail: bool = gauge,
    }
}

/// The write half shared between the cache (as its [`DurableSink`]) and
/// the owning [`DiskCache`]. Holds only the log writer and counters —
/// never the cache — so there is no `Arc` cycle.
#[derive(Debug)]
struct SinkInner {
    writer: Mutex<LogWriter>,
    appended: AtomicU64,
    flushes: AtomicU64,
    write_errors: AtomicU64,
}

impl SinkInner {
    fn bytes(&self) -> u64 {
        self.writer.lock().expect("store writer lock poisoned").bytes()
    }
}

impl DurableSink for SinkInner {
    fn persist(&self, rows: VerdictRows<'_>) {
        let timer = mcm_obs::Stopwatch::start();
        let mut writer = self.writer.lock().expect("store writer lock poisoned");
        match writer.append_rows(rows) {
            Ok(()) => {
                self.appended
                    .fetch_add(rows.cell_count(), Ordering::Relaxed);
                self.flushes.fetch_add(1, Ordering::Relaxed);
                if mcm_obs::enabled() {
                    timer.record(&mcm_obs::metrics::histogram("mcm_store_flush_us", &[]));
                }
            }
            Err(_) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl Drop for SinkInner {
    fn drop(&mut self) {
        // Best-effort durability on clean shutdown; crash tolerance comes
        // from the frame checksums, not from this sync.
        if let Ok(writer) = self.writer.lock() {
            let _ = writer.sync();
        }
    }
}

/// A [`VerdictCache`] whose contents survive the process: hydrated from
/// an append-only verdict log on open, written through to it batch by
/// batch. Hand [`DiskCache::cache`] to the engine exactly like a plain
/// cache.
#[derive(Debug)]
pub struct DiskCache {
    cache: Arc<VerdictCache>,
    sink: Arc<SinkInner>,
    path: PathBuf,
    hydrated: u64,
    recovered_tail: bool,
}

impl DiskCache {
    /// Opens (or creates) the verdict log at `path` and builds a cache
    /// hydrated with its live verdicts. The log's intact prefix always
    /// loads; a torn tail is shed and noted in [`StoreStats`]. A log of
    /// an older format version is rewritten at the current one before
    /// anything is appended.
    pub fn open(path: &Path) -> io::Result<DiskCache> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let cache = Arc::new(VerdictCache::new());
        // Each frame's rows load into the cache as the frame is read. Log
        // order means later (fresher) duplicates overwrite earlier ones
        // during hydration, matching last-write-wins compaction.
        let (scan, writer) = LogWriter::append_with(path, |rows| cache.hydrate_rows(rows))?;
        let sink = Arc::new(SinkInner {
            writer: Mutex::new(writer),
            appended: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        });
        assert!(
            cache.set_sink(sink.clone() as Arc<dyn DurableSink>),
            "a freshly built cache has no sink yet"
        );
        Ok(DiskCache {
            cache,
            sink,
            path: path.to_path_buf(),
            hydrated: scan.records,
            recovered_tail: scan.tail.is_some(),
        })
    }

    /// The cache to sweep with — share it with the engine via `clone`.
    #[must_use]
    pub fn cache(&self) -> &Arc<VerdictCache> {
        &self.cache
    }

    /// The log path this cache persists to.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Forces appended frames to stable storage now (also attempted on
    /// drop).
    pub fn sync(&self) -> io::Result<()> {
        self.sink
            .writer
            .lock()
            .expect("store writer lock poisoned")
            .sync()
    }

    /// A snapshot of the store's counters.
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hydrated: self.hydrated,
            appended: self.sink.appended.load(Ordering::Relaxed),
            flushes: self.sink.flushes.load(Ordering::Relaxed),
            write_errors: self.sink.write_errors.load(Ordering::Relaxed),
            bytes: self.sink.bytes(),
            recovered_tail: self.recovered_tail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("mcm-store-disk-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.log", std::process::id()))
    }

    #[test]
    fn verdicts_survive_a_reopen_as_disk_tier_hits() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
        {
            let store = DiskCache::open(&path).unwrap();
            store.cache().insert((11, 101), true);
            store.cache().insert((22, 101), false);
            let stats = store.stats();
            assert_eq!(stats.hydrated, 0);
            assert_eq!(stats.appended, 2);
            assert_eq!(stats.flushes, 2);
            assert_eq!(stats.write_errors, 0);
            // First-process lookups are RAM-tier.
            let row = store.cache().get_row_tiered(&[11, 22], 101);
            assert_eq!((row.hits_ram, row.hits_disk), (2, 0));
        }
        let store = DiskCache::open(&path).unwrap();
        let stats = store.stats();
        assert_eq!(stats.hydrated, 2);
        assert_eq!(stats.appended, 0);
        assert!(!stats.recovered_tail);
        let row = store.cache().get_row_tiered(&[11, 22], 101);
        assert_eq!(row.verdicts, vec![Some(true), Some(false)]);
        assert_eq!(
            (row.hits_ram, row.hits_disk),
            (0, 2),
            "hydrated entries answer from the disk tier"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn known_verdicts_are_not_reappended() {
        let path = temp_path("dedupe");
        let _ = std::fs::remove_file(&path);
        {
            let store = DiskCache::open(&path).unwrap();
            store.cache().merge([((1, 2), true)]);
            store.cache().merge([((1, 2), true)]);
            assert_eq!(store.stats().appended, 1, "duplicate write-throughs skipped");
        }
        {
            let store = DiskCache::open(&path).unwrap();
            // Re-learning a hydrated verdict must not grow the log either.
            store.cache().merge([((1, 2), true)]);
            assert_eq!(store.stats().appended, 0);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_log_still_opens_and_keeps_accepting_writes() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        {
            let store = DiskCache::open(&path).unwrap();
            store.cache().insert((5, 50), true);
        }
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0x77; 5]);
        std::fs::write(&path, &bytes).unwrap();
        let store = DiskCache::open(&path).unwrap();
        assert!(store.stats().recovered_tail);
        assert_eq!(store.stats().hydrated, 1);
        store.cache().insert((6, 60), false);
        drop(store);
        let store = DiskCache::open(&path).unwrap();
        assert_eq!(store.stats().hydrated, 2);
        assert!(!store.stats().recovered_tail);
        std::fs::remove_file(&path).unwrap();
    }
}
