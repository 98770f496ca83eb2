//! Service counters, live gauges, and the `/statsz` and `/metricsz`
//! documents.
//!
//! Both documents render one [`Snapshot`], whose sections are counter
//! tables ([`mcm_obs::counter_table!`]): the request counters and live
//! gauges declared here ([`RequestStats`], [`ServiceGauges`]), engine
//! totals absorbed from each sweep's [`SweepStats`], the shared cache's
//! [`CacheStats`] and, with `--store-dir`, the verdict store's
//! [`StoreStats`]. `/statsz` renders each table's JSON and `/metricsz`
//! its Prometheus text, prefixed per layer (`mcm_serve_`, `mcm_engine_`,
//! `mcm_cache_`, `mcm_store_`). Per-kind query counts sit beside the
//! tables, and the global [`mcm_obs::metrics`] registry contributes the
//! per-query-kind latency histograms recorded around each `/query`.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use mcm_core::json::Json;
use mcm_explore::{CacheStats, SweepStats};
use mcm_store::StoreStats;

/// Query kinds tracked per-kind, in wire-format order.
pub const KINDS: [&str; 10] = [
    "sweep",
    "compare",
    "distinguish",
    "analyze",
    "synth",
    "synth_matrix",
    "check",
    "suite",
    "catalog",
    "figures",
];

mcm_obs::counter_table! {
    /// What the service did with the connections it accepted.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct RequestStats {
        /// Connections accepted (before any queueing decision).
        accepted: u64 = counter,
        /// Responses written, any status.
        completed: u64 = counter,
        /// Connections shed with `503` because the queue was full.
        rejected: u64 = counter,
        /// Responses with a `4xx` status.
        client_errors: u64 = counter,
        /// Responses with a `5xx` status.
        server_errors: u64 = counter,
        /// Peers that vanished before a response could be written.
        hangups: u64 = counter,
    }
}

/// The service-wide counter set. One instance lives for the whole
/// server; every worker and the acceptor share it.
#[derive(Debug, Default)]
pub struct ServeStats {
    requests: Mutex<RequestStats>,
    in_flight: AtomicI64,
    kinds: [AtomicU64; KINDS.len()],
    engine: Mutex<SweepStats>,
}

/// Locks a counter table. Every update under the lock is whole-field
/// arithmetic, so a table poisoned by a panicking worker still holds
/// valid counts.
fn lock<T>(table: &Mutex<T>) -> MutexGuard<'_, T> {
    table
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl ServeStats {
    /// All counters at zero.
    #[must_use]
    pub fn new() -> ServeStats {
        ServeStats::default()
    }

    /// A connection was accepted (before any queueing decision).
    pub fn record_accepted(&self) {
        lock(&self.requests).accepted += 1;
    }

    /// A connection was shed with `503` because the queue was full.
    pub fn record_rejected(&self) {
        lock(&self.requests).rejected += 1;
    }

    /// The peer vanished before a response could be written.
    pub fn record_hangup(&self) {
        lock(&self.requests).hangups += 1;
    }

    /// A response with `status` was written.
    pub fn record_response(&self, status: u16) {
        let mut requests = lock(&self.requests);
        requests.completed += 1;
        match status {
            400..=499 => requests.client_errors += 1,
            500..=599 => requests.server_errors += 1,
            _ => {}
        }
    }

    /// A query of `kind` was admitted for execution.
    pub fn record_kind(&self, kind: &str) {
        if let Some(i) = KINDS.iter().position(|k| *k == kind) {
            self.kinds[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A query entered execution: raises the in-flight gauge. Pair
    /// with [`ServeStats::query_finished`] on every exit path.
    pub fn query_started(&self) {
        self.in_flight.fetch_add(1, Ordering::Relaxed);
    }

    /// A query left execution (success, error, or panic): lowers the
    /// in-flight gauge and records the query's latency into the global
    /// `mcm_serve_request_latency_us{kind=…}` histogram — the series
    /// `/metricsz` exposes with p50/p90/p99 lines.
    pub fn query_finished(&self, kind: &str, started: mcm_obs::Stopwatch) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
        if let Some(us) = started.elapsed_us() {
            mcm_obs::metrics::histogram("mcm_serve_request_latency_us", &[("kind", kind)])
                .record(us);
        }
    }

    /// Queries currently executing on worker threads (a live gauge:
    /// returns to zero when the service drains).
    #[must_use]
    pub fn in_flight(&self) -> i64 {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Folds one sweep's engine counters into the service totals.
    pub fn absorb_engine(&self, stats: &SweepStats) {
        lock(&self.engine).absorb(*stats);
    }

    /// One moment of the service, given the shared cache's counters, the
    /// queue depth and, with `--store-dir`, the store's counters.
    #[must_use]
    pub fn snapshot(
        &self,
        cache: CacheStats,
        queue_depth: usize,
        store: Option<StoreStats>,
    ) -> Snapshot {
        Snapshot {
            requests: *lock(&self.requests),
            gauges: ServiceGauges {
                queue_depth,
                in_flight: u64::try_from(self.in_flight()).unwrap_or(0),
            },
            queries: std::array::from_fn(|i| self.kinds[i].load(Ordering::Relaxed)),
            engine: *lock(&self.engine),
            cache,
            store,
        }
    }
}

mcm_obs::counter_table! {
    /// The service's live levels: instantaneous, zero when it is drained.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct ServiceGauges {
        /// Accepted connections waiting for a worker.
        queue_depth: usize = gauge,
        /// Queries executing on worker threads.
        in_flight: u64 = gauge,
    }
}

/// One moment of the whole service. `/statsz` is its JSON rendering and
/// `/metricsz` its Prometheus rendering, so the two cannot disagree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Request outcomes.
    pub requests: RequestStats,
    /// Live levels.
    pub gauges: ServiceGauges,
    /// Queries admitted per kind, in the wire format's kind order.
    pub queries: [u64; KINDS.len()],
    /// Engine totals over every sweep served.
    pub engine: SweepStats,
    /// The shared verdict cache's counters.
    pub cache: CacheStats,
    /// The verdict store's counters, with `--store-dir`.
    pub store: Option<StoreStats>,
}

impl Snapshot {
    /// The `/statsz` document: every table as a JSON section, the
    /// per-kind query counts, and `store: null` without a store.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let queries = KINDS
            .iter()
            .zip(self.queries)
            .map(|(name, count)| ((*name).to_string(), Json::from(count)));
        Json::object([
            ("schema_version", Json::Int(2)),
            ("kind", Json::from("serve_stats")),
            ("requests", self.requests.to_json()),
            ("gauges", self.gauges.to_json()),
            ("queries", Json::Object(queries.collect())),
            ("engine", self.engine.to_json()),
            ("cache", self.cache.to_json()),
            (
                "store",
                self.store.as_ref().map_or(Json::Null, StoreStats::to_json),
            ),
        ])
    }

    /// The `/metricsz` document: the global `mcm_obs` registry (per-kind
    /// request latency, per-checker check latency, store flush latency,
    /// CEGIS iteration latency), then every table under its layer
    /// prefix and the per-kind query counts.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = mcm_obs::metrics::global().render_prometheus();
        self.requests.render_prometheus("mcm_serve_", &mut out);
        let _ = writeln!(out, "# TYPE mcm_serve_queries_total counter");
        for (name, count) in KINDS.iter().zip(self.queries) {
            let _ = writeln!(out, "mcm_serve_queries_total{{kind=\"{name}\"}} {count}");
        }
        self.gauges.render_prometheus("mcm_serve_", &mut out);
        self.engine.render_prometheus("mcm_engine_", &mut out);
        self.cache.render_prometheus("mcm_cache_", &mut out);
        if let Some(store) = &self.store {
            store.render_prometheus("mcm_store_", &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_explore::VerdictCache;

    #[test]
    fn snapshot_reflects_recorded_events() {
        let stats = ServeStats::new();
        let cache = VerdictCache::new();
        cache.insert((1, 2), true);
        stats.record_accepted();
        stats.record_accepted();
        stats.record_rejected();
        stats.record_response(200);
        stats.record_response(400);
        stats.record_response(500);
        stats.record_kind("sweep");
        stats.record_kind("sweep");
        stats.record_kind("catalog");
        stats.record_kind("nonsense"); // ignored, never panics
        let sweep = SweepStats {
            total_pairs: 10,
            checker_calls: 4,
            ..SweepStats::default()
        };
        stats.absorb_engine(&sweep);
        stats.absorb_engine(&sweep);

        let store = StoreStats {
            hydrated: 5,
            appended: 7,
            flushes: 2,
            write_errors: 0,
            bytes: 131,
            recovered_tail: true,
        };
        let doc = stats.snapshot(cache.stats(), 3, Some(store)).to_json();
        let requests = doc.get("requests").unwrap();
        assert_eq!(requests.get("accepted").and_then(Json::as_i64), Some(2));
        assert_eq!(requests.get("rejected").and_then(Json::as_i64), Some(1));
        assert_eq!(requests.get("completed").and_then(Json::as_i64), Some(3));
        assert_eq!(requests.get("client_errors").and_then(Json::as_i64), Some(1));
        assert_eq!(requests.get("server_errors").and_then(Json::as_i64), Some(1));
        let gauges = doc.get("gauges").unwrap();
        assert_eq!(gauges.get("queue_depth").and_then(Json::as_i64), Some(3));
        assert_eq!(gauges.get("in_flight").and_then(Json::as_i64), Some(0));
        let queries = doc.get("queries").unwrap();
        assert_eq!(queries.get("sweep").and_then(Json::as_i64), Some(2));
        assert_eq!(queries.get("catalog").and_then(Json::as_i64), Some(1));
        let engine = doc.get("engine").unwrap();
        assert_eq!(engine.get("total_pairs").and_then(Json::as_i64), Some(20));
        assert_eq!(engine.get("checker_calls").and_then(Json::as_i64), Some(8));
        let cache_doc = doc.get("cache").unwrap();
        assert_eq!(cache_doc.get("entries").and_then(Json::as_i64), Some(1));
        let store_doc = doc.get("store").unwrap();
        assert_eq!(store_doc.get("hydrated").and_then(Json::as_i64), Some(5));
        assert_eq!(store_doc.get("appended").and_then(Json::as_i64), Some(7));
        assert_eq!(
            store_doc.get("recovered_tail").and_then(Json::as_bool),
            Some(true)
        );

        // Without a store the section is explicitly null, not absent.
        let bare = stats.snapshot(cache.stats(), 3, None).to_json();
        assert_eq!(bare.get("store"), Some(&Json::Null));
    }

    #[test]
    fn in_flight_gauge_rises_and_falls() {
        let stats = ServeStats::new();
        assert_eq!(stats.in_flight(), 0);
        stats.query_started();
        stats.query_started();
        assert_eq!(stats.in_flight(), 2);
        stats.query_finished("sweep", mcm_obs::Stopwatch::start());
        stats.query_finished("sweep", mcm_obs::Stopwatch::start());
        assert_eq!(stats.in_flight(), 0);
    }

    #[test]
    fn statsz_and_metricsz_use_identical_base_names() {
        let stats = ServeStats::new();
        let snapshot = stats.snapshot(VerdictCache::new().stats(), 0, Some(StoreStats::default()));
        let (doc, text) = (snapshot.to_json(), snapshot.to_prometheus());
        // Every key of every table section of /statsz appears in /metricsz
        // under its layer prefix: `_total` for counters, bare otherwise.
        for (section, layer) in [
            ("requests", "serve"),
            ("gauges", "serve"),
            ("engine", "engine"),
            ("cache", "cache"),
            ("store", "store"),
        ] {
            let keys = doc.get(section).and_then(Json::as_object).unwrap();
            assert!(!keys.is_empty(), "/statsz section {section} is empty");
            for (name, _) in keys {
                assert!(
                    text.contains(&format!("\nmcm_{layer}_{name}_total "))
                        || text.contains(&format!("\nmcm_{layer}_{name} ")),
                    "/statsz {section}.{name} is missing from /metricsz"
                );
            }
        }
        for kind in KINDS {
            assert!(
                text.contains(&format!("mcm_serve_queries_total{{kind=\"{kind}\"}}")),
                "missing per-kind counter {kind} in /metricsz"
            );
        }
    }

    #[test]
    fn peak_batch_is_a_high_water_mark_not_a_sum() {
        let stats = ServeStats::new();
        let sweep = SweepStats {
            tests_streamed: 80,
            peak_batch: 80,
            ..SweepStats::default()
        };
        stats.absorb_engine(&sweep);
        stats.absorb_engine(&sweep);
        let snapshot = stats.snapshot(CacheStats::default(), 0, None);
        let doc = snapshot.to_json();
        let engine = doc.get("engine").unwrap();
        assert_eq!(engine.get("peak_batch").and_then(Json::as_i64), Some(80));
        assert_eq!(
            engine.get("tests_streamed").and_then(Json::as_i64),
            Some(160)
        );
        let text = snapshot.to_prometheus();
        assert!(text.contains("# TYPE mcm_engine_peak_batch gauge\nmcm_engine_peak_batch 80\n"));
        assert!(!text.contains("mcm_engine_peak_batch_total"));
    }
}
