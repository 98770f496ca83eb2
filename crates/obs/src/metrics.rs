//! Atomic metric primitives and the global series registry.
//!
//! Series are identified by a metric name plus a sorted label set
//! (`mcm_check_latency_us{checker="sat"}`). Handles are `Arc`s:
//! resolve once (one registry lock), then increment/record lock-free
//! forever after. Histograms use fixed power-of-two microsecond
//! buckets, so two histograms merge by adding bucket arrays — exactly
//! what work-stealing sweep workers and snapshot deltas need.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets. Bucket `i` (for `i >= 1`) holds
/// values in `[2^(i-1), 2^i - 1]` microseconds; bucket 0 holds zero;
/// the last bucket absorbs everything from ~2^38 µs (~76 hours) up.
pub const BUCKETS: usize = 40;

/// A monotonically increasing event count. Lock-free.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// New counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A fixed-bucket log-scale latency histogram over microseconds.
///
/// `record` is three relaxed atomic adds — no locks, no allocation —
/// so it is safe on the sweep's work-stealing hot path. Quantiles are
/// estimated from bucket upper bounds, which for power-of-two buckets
/// means at most 2x overestimate; good enough to rank checkers.
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Bucket index for a microsecond value: 0 for 0, else the bit
    /// length of the value, capped at the overflow bucket.
    #[inline]
    fn index(us: u64) -> usize {
        ((u64::BITS - us.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Record one observation of `us` microseconds.
    #[inline]
    pub fn record(&self, us: u64) {
        self.buckets[Self::index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(us, Ordering::Relaxed);
    }

    /// Copy the current state out as a plain (non-atomic) snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// Fold another histogram's counts into this one (used when a
    /// worker-local histogram drains into a shared one).
    pub fn merge(&self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            mine.fetch_add(*theirs, Ordering::Relaxed);
        }
        self.count.fetch_add(other.count, Ordering::Relaxed);
        self.sum.fetch_add(other.sum, Ordering::Relaxed);
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count)
            .field("sum", &s.sum)
            .finish()
    }
}

/// A plain-data copy of a [`Histogram`]: mergeable, subtractable, and
/// the unit the report `timings` sections are computed from.
#[derive(Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`BUCKETS`]).
    pub buckets: [u64; BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values, µs.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl fmt::Debug for HistogramSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("HistogramSnapshot")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("p50_us", &self.quantile(0.50))
            .field("p99_us", &self.quantile(0.99))
            .finish()
    }
}

impl HistogramSnapshot {
    /// Add another snapshot's counts into this one.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += *theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// The observations recorded since `base` was taken (saturating,
    /// so a fresh series that wasn't in `base` passes through).
    pub fn delta_since(&self, base: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| {
                self.buckets[i].saturating_sub(base.buckets[i])
            }),
            count: self.count.saturating_sub(base.count),
            sum: self.sum.saturating_sub(base.sum),
        }
    }

    /// Estimated quantile `q` in `[0, 1]`, reported as the upper bound
    /// (µs) of the bucket holding the rank-`ceil(q*count)` value.
    /// Returns 0 for an empty histogram. Monotone in `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(BUCKETS - 1)
    }
}

/// Inclusive upper bound (µs) of histogram bucket `i`: 0, 1, 3, 7, …
/// `2^i - 1`, with the last bucket unbounded.
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= BUCKETS - 1 {
        u64::MAX
    } else if i == 0 {
        0
    } else {
        (1u64 << i) - 1
    }
}

/// One registered series: its kind decides the handle type.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Histogram(Arc<Histogram>),
}

type SeriesKey = (String, Vec<(String, String)>);

/// A named collection of metric series. Use [`global`] for the
/// process-wide registry; tests can build private ones.
#[derive(Debug, Default)]
pub struct Registry {
    series: Mutex<BTreeMap<SeriesKey, Metric>>,
}

fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
    let mut labels: Vec<(String, String)> = labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect();
    labels.sort();
    (name.to_string(), labels)
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Resolve (registering on first use) the counter `name{labels}`.
    ///
    /// # Panics
    /// If the series exists with a different kind — that is a
    /// programming error, not a runtime condition.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let mut map = self.series.lock().unwrap();
        let entry = map
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())));
        match entry {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("series `{name}` already registered with a different kind"),
        }
    }

    /// Resolve (registering on first use) the histogram `name{labels}`.
    ///
    /// # Panics
    /// If the series exists with a different kind.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let mut map = self.series.lock().unwrap();
        let entry = map
            .entry(key(name, labels))
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())));
        match entry {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("series `{name}` already registered with a different kind"),
        }
    }

    /// Point-in-time copy of every series, sorted by name then labels.
    pub fn snapshot(&self) -> Snapshot {
        let map = self.series.lock().unwrap();
        Snapshot {
            series: map
                .iter()
                .map(|((name, labels), metric)| SeriesSnapshot {
                    name: name.clone(),
                    labels: labels.clone(),
                    value: match metric {
                        Metric::Counter(c) => Value::Counter(c.get()),
                        Metric::Histogram(h) => Value::Histogram(Box::new(h.snapshot())),
                    },
                })
                .collect(),
        }
    }

    /// Render every series as Prometheus exposition text
    /// (`text/plain; version=0.0.4`). Histograms emit cumulative
    /// `_bucket{le=…}` series plus `_sum`, `_count`, and estimated
    /// `_p50`/`_p90`/`_p99` gauge series so scrapers that cannot do
    /// quantile math still see latency percentiles.
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry all instrumentation records into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Shorthand: resolve a counter in the global registry.
pub fn counter(name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
    global().counter(name, labels)
}

/// Shorthand: resolve a histogram in the global registry.
pub fn histogram(name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
    global().histogram(name, labels)
}

/// The value of one series at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// Monotonic count.
    Counter(u64),
    /// Latency distribution (boxed: the bucket array dwarfs a count).
    Histogram(Box<HistogramSnapshot>),
}

/// One series (name + labels) with its snapshotted value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeriesSnapshot {
    /// Metric name, e.g. `mcm_check_latency_us`.
    pub name: String,
    /// Sorted label pairs, e.g. `[("checker", "sat")]`.
    pub labels: Vec<(String, String)>,
    /// The snapshotted value.
    pub value: Value,
}

/// A point-in-time copy of a whole registry, sorted by series key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// All series, sorted by name then labels.
    pub series: Vec<SeriesSnapshot>,
}

impl Snapshot {
    /// Counters and histograms become "what happened since `base`"
    /// (saturating subtraction; series absent from `base` pass
    /// through whole).
    pub fn delta_since(&self, base: &Snapshot) -> Snapshot {
        type BaseMap<'a> = BTreeMap<(&'a str, &'a [(String, String)]), &'a Value>;
        let base_map: BaseMap<'_> = base
            .series
            .iter()
            .map(|s| ((s.name.as_str(), s.labels.as_slice()), &s.value))
            .collect();
        Snapshot {
            series: self
                .series
                .iter()
                .map(|s| {
                    let value = match (&s.value, base_map.get(&(s.name.as_str(), s.labels.as_slice()))) {
                        (Value::Counter(now), Some(Value::Counter(then))) => {
                            Value::Counter(now.saturating_sub(*then))
                        }
                        (Value::Histogram(now), Some(Value::Histogram(then))) => {
                            Value::Histogram(Box::new(now.delta_since(then)))
                        }
                        (value, _) => value.clone(),
                    };
                    SeriesSnapshot {
                        name: s.name.clone(),
                        labels: s.labels.clone(),
                        value,
                    }
                })
                .collect(),
        }
    }

    /// Every histogram series named `name`, as `(labels, snapshot)`.
    pub fn histograms<'a>(
        &'a self,
        name: &str,
    ) -> Vec<(&'a [(String, String)], &'a HistogramSnapshot)> {
        self.series
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match &s.value {
                Value::Histogram(h) => Some((s.labels.as_slice(), h.as_ref())),
                _ => None,
            })
            .collect()
    }

    /// Render as Prometheus exposition text (see
    /// [`Registry::render_prometheus`]).
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut typed: Option<&str> = None;
        for s in &self.series {
            let labels = render_labels(&s.labels);
            match &s.value {
                Value::Counter(v) => {
                    if typed != Some(s.name.as_str()) {
                        let _ = writeln!(out, "# TYPE {} counter", s.name);
                    }
                    let _ = writeln!(out, "{}{} {}", s.name, labels, v);
                }
                Value::Histogram(h) => {
                    if typed != Some(s.name.as_str()) {
                        let _ = writeln!(out, "# TYPE {} histogram", s.name);
                    }
                    let mut cumulative = 0u64;
                    for (i, &n) in h.buckets.iter().enumerate() {
                        cumulative += n;
                        if n == 0 && i + 1 != BUCKETS {
                            continue;
                        }
                        let le = if i + 1 == BUCKETS {
                            "+Inf".to_string()
                        } else {
                            bucket_upper_bound(i).to_string()
                        };
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {}",
                            s.name,
                            render_labels_with(&s.labels, "le", &le),
                            cumulative
                        );
                    }
                    let _ = writeln!(out, "{}_sum{} {}", s.name, labels, h.sum);
                    let _ = writeln!(out, "{}_count{} {}", s.name, labels, h.count);
                    for (suffix, q) in [("p50", 0.50), ("p90", 0.90), ("p99", 0.99)] {
                        let _ = writeln!(
                            out,
                            "{}_{suffix}{} {}",
                            s.name,
                            labels,
                            h.quantile(q)
                        );
                    }
                }
            }
            typed = Some(s.name.as_str());
        }
        out
    }
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    format!("{{{}}}", inner.join(","))
}

fn render_labels_with(labels: &[(String, String)], extra_k: &str, extra_v: &str) -> String {
    let mut inner: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    inner.push(format!("{extra_k}=\"{}\"", escape_label(extra_v)));
    format!("{{{}}}", inner.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let r = Registry::new();
        let c = r.counter("hits", &[]);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        // Same key resolves to the same underlying counter.
        assert_eq!(r.counter("hits", &[]).get(), 3);
    }

    #[test]
    fn label_order_does_not_matter() {
        let r = Registry::new();
        r.counter("c", &[("a", "1"), ("b", "2")]).inc();
        assert_eq!(r.counter("c", &[("b", "2"), ("a", "1")]).get(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x", &[]);
        r.histogram("x", &[]);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::new();
        for us in [0, 1, 2, 3, 100, 1000, 100_000] {
            h.record(us);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 101_106);
        // Quantile estimates are bucket upper bounds, hence >= truth
        // and < 2x truth (for in-range values).
        let p50 = s.quantile(0.5);
        assert!((3..=127).contains(&p50), "p50 = {p50}");
        assert!(s.quantile(1.0) >= 100_000);
        assert_eq!(s.quantile(0.0), 0);
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.quantile(0.5), 0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        a.record(10);
        b.record(10_000);
        b.record(7);
        a.merge(&b.snapshot());
        let s = a.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.sum, 10_017);
    }

    #[test]
    fn snapshot_delta_subtracts_counters_and_histograms() {
        let r = Registry::new();
        let c = r.counter("c", &[]);
        let h = r.histogram("h", &[]);
        c.add(5);
        h.record(10);
        let base = r.snapshot();
        c.add(2);
        h.record(20);
        let delta = r.snapshot().delta_since(&base);
        for s in &delta.series {
            match (s.name.as_str(), &s.value) {
                ("c", Value::Counter(v)) => assert_eq!(*v, 2),
                ("h", Value::Histogram(hs)) => {
                    assert_eq!(hs.count, 1);
                    assert_eq!(hs.sum, 20);
                }
                other => panic!("unexpected series {other:?}"),
            }
        }
    }

    #[test]
    fn prometheus_render_contains_expected_series() {
        let r = Registry::new();
        r.counter("mcm_cache_hits_total", &[]).add(4);
        let h = r.histogram("mcm_serve_request_latency_us", &[("kind", "sweep")]);
        h.record(100);
        h.record(5000);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE mcm_cache_hits_total counter"));
        assert!(text.contains("mcm_cache_hits_total 4"));
        assert!(text.contains("# TYPE mcm_serve_request_latency_us histogram"));
        assert!(text.contains("mcm_serve_request_latency_us_count{kind=\"sweep\"} 2"));
        assert!(text.contains("mcm_serve_request_latency_us_bucket{kind=\"sweep\",le=\"+Inf\"} 2"));
        assert!(text.contains("mcm_serve_request_latency_us_p50{kind=\"sweep\"}"));
        assert!(text.contains("mcm_serve_request_latency_us_p99{kind=\"sweep\"}"));
    }
}
