//! Lock-free service counters, live gauges, and the `/statsz` and
//! `/metricsz` documents.
//!
//! Everything here is an `AtomicU64`/`AtomicI64` bumped with relaxed
//! ordering on the request path — observability must never contend
//! with the work it observes. The `/statsz` endpoint renders its
//! sections from existing structured views: request counters owned by
//! this module ([`ServeStats::counters`]), live gauges (queue depth,
//! in-flight queries), engine totals accumulated from each sweep's
//! [`SweepStats::counters`], and the shared [`VerdictCache::counters`].
//! `/metricsz` renders the *same names* — prefixed per layer
//! (`mcm_serve_`, `mcm_engine_`, `mcm_cache_`) and suffixed `_total`
//! for counters, Prometheus-style — merged with every series in the
//! global [`mcm_obs::metrics`] registry, which contributes the
//! per-query-kind latency histograms recorded around each `/query`.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

use mcm_core::json::Json;
use mcm_explore::{SweepStats, VerdictCache};
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

/// One engine total per [`SweepStats::counters`] entry, which also
/// names them; [`ServeStats::absorb_engine`] fails to compile if the two
/// lengths drift apart.
const ENGINE_SLOTS: usize = 12;

/// The service-wide counter set. One instance lives for the whole
/// server; every worker and the acceptor share it.
#[derive(Debug, Default)]
pub struct ServeStats {
    accepted: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    client_errors: AtomicU64,
    server_errors: AtomicU64,
    hangups: AtomicU64,
    in_flight: AtomicI64,
    kinds: [AtomicU64; KINDS.len()],
    engine: [AtomicU64; ENGINE_SLOTS],
}

impl ServeStats {
    /// All counters at zero.
    #[must_use]
    pub fn new() -> ServeStats {
        ServeStats::default()
    }

    /// A connection was accepted (before any queueing decision).
    pub fn record_accepted(&self) {
        self.accepted.fetch_add(1, Ordering::Relaxed);
    }

    /// A connection was shed with `503` because the queue was full.
    pub fn record_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// The peer vanished before a response could be written.
    pub fn record_hangup(&self) {
        self.hangups.fetch_add(1, Ordering::Relaxed);
    }

    /// A response with `status` was written.
    pub fn record_response(&self, status: u16) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        match status {
            400..=499 => self.client_errors.fetch_add(1, Ordering::Relaxed),
            500..=599 => self.server_errors.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
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

    /// The request counters as stable `(name, value)` pairs — the one
    /// place the names live. `/statsz` renders them verbatim;
    /// `/metricsz` renders each as `mcm_serve_<name>_total`.
    #[must_use]
    pub fn counters(&self) -> [(&'static str, u64); 6] {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        [
            ("accepted", load(&self.accepted)),
            ("completed", load(&self.completed)),
            ("rejected", load(&self.rejected)),
            ("client_errors", load(&self.client_errors)),
            ("server_errors", load(&self.server_errors)),
            ("hangups", load(&self.hangups)),
        ]
    }

    /// Folds one sweep's engine counters into the service totals.
    pub fn absorb_engine(&self, stats: &SweepStats) {
        let counters: [(&str, u64); ENGINE_SLOTS] = stats.counters();
        for ((_, value), total) in counters.iter().zip(&self.engine) {
            total.fetch_add(*value, Ordering::Relaxed);
        }
    }

    /// The engine totals under [`SweepStats::counters`]' names.
    fn engine_counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        SweepStats::default()
            .counters()
            .into_iter()
            .zip(&self.engine)
            .map(|((name, _), total)| (name, total.load(Ordering::Relaxed)))
    }

    /// Responses written so far (any status).
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed.load(Ordering::Relaxed)
    }

    /// Connections shed with `503` so far.
    #[must_use]
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// The `/statsz` document: request counters, live gauges (queue
    /// depth and in-flight queries — instantaneous levels, zero when
    /// drained), per-kind query counts, engine totals, the shared
    /// cache's counters, and — when the server runs with `--store-dir`
    /// — the verdict store's counters (`Json::Null` otherwise).
    #[must_use]
    pub fn snapshot(
        &self,
        cache: &VerdictCache,
        queue_depth: usize,
        store: Option<&StoreStats>,
    ) -> Json {
        let load = |counter: &AtomicU64| Json::Int(counter.load(Ordering::Relaxed) as i64);
        Json::object([
            ("schema_version", Json::Int(2)),
            ("kind", Json::from("serve_stats")),
            (
                "requests",
                Json::Object(
                    self.counters()
                        .iter()
                        .map(|(name, value)| ((*name).to_string(), Json::Int(*value as i64)))
                        .collect(),
                ),
            ),
            (
                "gauges",
                Json::object([
                    ("queue_depth", Json::Int(queue_depth as i64)),
                    ("in_flight", Json::Int(self.in_flight())),
                ]),
            ),
            (
                "queries",
                Json::Object(
                    KINDS
                        .iter()
                        .zip(&self.kinds)
                        .map(|(name, counter)| ((*name).to_string(), load(counter)))
                        .collect(),
                ),
            ),
            (
                "engine",
                Json::Object(
                    self.engine_counters()
                        .map(|(name, value)| (name.to_string(), Json::Int(value as i64)))
                        .collect(),
                ),
            ),
            (
                "cache",
                Json::Object(
                    cache
                        .counters()
                        .iter()
                        .map(|(name, value)| ((*name).to_string(), Json::Int(*value as i64)))
                        .collect(),
                ),
            ),
            (
                "store",
                match store {
                    None => Json::Null,
                    Some(store) => Json::Object(
                        store
                            .counters()
                            .iter()
                            .map(|(name, value)| ((*name).to_string(), Json::Int(*value as i64)))
                            .collect(),
                    ),
                },
            ),
        ])
    }

    /// The `/metricsz` document: Prometheus exposition text. Serve,
    /// engine and cache counters use the same base names as `/statsz`,
    /// layer-prefixed and `_total`-suffixed; the global `mcm_obs`
    /// registry contributes everything instrumented below the wire
    /// (per-kind request latency, per-checker check latency, cache
    /// hit/miss totals, CEGIS iteration latency).
    #[must_use]
    pub fn render_prometheus(
        &self,
        cache: &VerdictCache,
        queue_depth: usize,
        store: Option<&StoreStats>,
    ) -> String {
        use std::fmt::Write;
        let mut out = mcm_obs::metrics::global().render_prometheus();
        for (name, value) in self.counters() {
            let _ = writeln!(out, "# TYPE mcm_serve_{name}_total counter");
            let _ = writeln!(out, "mcm_serve_{name}_total {value}");
        }
        let _ = writeln!(out, "# TYPE mcm_serve_queries_total counter");
        for (name, counter) in KINDS.iter().zip(&self.kinds) {
            let _ = writeln!(
                out,
                "mcm_serve_queries_total{{kind=\"{name}\"}} {}",
                counter.load(Ordering::Relaxed)
            );
        }
        for (gauge, value) in [
            ("queue_depth", queue_depth as i64),
            ("in_flight", self.in_flight()),
        ] {
            let _ = writeln!(out, "# TYPE mcm_serve_{gauge} gauge");
            let _ = writeln!(out, "mcm_serve_{gauge} {value}");
        }
        for (name, value) in self.engine_counters() {
            let _ = writeln!(out, "# TYPE mcm_engine_{name}_total counter");
            let _ = writeln!(out, "mcm_engine_{name}_total {value}");
        }
        // Entries is a level, not a flow; hits/misses/contention flows
        // are already global registry series (`mcm_cache_*_total`).
        let _ = writeln!(out, "# TYPE mcm_cache_entries gauge");
        let _ = writeln!(out, "mcm_cache_entries {}", cache.len());
        if let Some(store) = store {
            for (name, value) in store.counters() {
                // hydrated/bytes/recovered_tail are levels, the rest flows.
                if matches!(name, "hydrated" | "bytes" | "recovered_tail") {
                    let _ = writeln!(out, "# TYPE mcm_store_{name} gauge");
                    let _ = writeln!(out, "mcm_store_{name} {value}");
                } else {
                    let _ = writeln!(out, "# TYPE mcm_store_{name}_total counter");
                    let _ = writeln!(out, "mcm_store_{name}_total {value}");
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let doc = stats.snapshot(&cache, 3, Some(&store));
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
        assert_eq!(store_doc.get("recovered_tail").and_then(Json::as_i64), Some(1));

        // Without a store the section is explicitly null, not absent.
        let bare = stats.snapshot(&cache, 3, None);
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
        let cache = VerdictCache::new();
        let store = StoreStats {
            hydrated: 1,
            appended: 2,
            flushes: 3,
            write_errors: 0,
            bytes: 46,
            recovered_tail: false,
        };
        let text = stats.render_prometheus(&cache, 0, Some(&store));
        // Every /statsz key appears in /metricsz under its layer prefix.
        for (name, _) in stats.counters() {
            assert!(
                text.contains(&format!("mcm_serve_{name}_total ")),
                "missing serve counter {name} in /metricsz"
            );
        }
        for (name, _) in SweepStats::default().counters() {
            assert!(
                text.contains(&format!("mcm_engine_{name}_total ")),
                "missing engine counter {name} in /metricsz"
            );
        }
        for kind in KINDS {
            assert!(
                text.contains(&format!("mcm_serve_queries_total{{kind=\"{kind}\"}}")),
                "missing per-kind counter {kind} in /metricsz"
            );
        }
        for gauge in ["queue_depth", "in_flight"] {
            assert!(
                text.contains(&format!("mcm_serve_{gauge} ")),
                "missing gauge {gauge} in /metricsz"
            );
        }
        assert!(text.contains("mcm_cache_entries "));
        for gauge in ["hydrated", "bytes", "recovered_tail"] {
            assert!(
                text.contains(&format!("mcm_store_{gauge} ")),
                "missing store gauge {gauge} in /metricsz"
            );
        }
        for counter in ["appended", "flushes", "write_errors"] {
            assert!(
                text.contains(&format!("mcm_store_{counter}_total ")),
                "missing store counter {counter} in /metricsz"
            );
        }
    }
}
