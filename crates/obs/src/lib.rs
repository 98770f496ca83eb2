//! Zero-dependency observability for the `mcm` workspace.
//!
//! Four parts, all built on `std` alone:
//!
//! 1. **Metrics** ([`metrics`]) — a global registry of named series:
//!    atomic [`metrics::Counter`]s and fixed-bucket log-scale
//!    [`metrics::Histogram`]s. The hot path (increment,
//!    record) is lock-free; the registry mutex is taken only when a
//!    handle is first resolved, so instrumented code caches its
//!    `Arc` handles at construction time. Snapshots are mergeable and
//!    subtractable, which is how per-run `timings` sections are
//!    computed, and the whole registry renders to Prometheus
//!    exposition text for `GET /metricsz`.
//!
//! 2. **Spans** ([`trace`]) — hierarchical regions with monotonic
//!    microsecond timestamps kept on a thread-local span stack.
//!    Guards emit balanced begin/end events into per-thread buffers
//!    that drain into a process-wide sink.
//!
//! 3. **Sink** — [`trace::install`] opens a trace file and
//!    [`trace::finish`] writes every buffered event as Chrome
//!    `trace_event` JSON (one event per line inside a schema-versioned
//!    envelope), directly loadable by `chrome://tracing` and Perfetto
//!    and parseable by `mcm_core::json`.
//!
//! 4. **Counter tables** ([`table`]) — [`counter_table!`] declares one
//!    layer's work counters once; their struct, merging, checkpoint
//!    order, JSON and Prometheus views are all derived from it.
//!
//! Instrumentation sites gate on [`enabled`] (a single relaxed atomic
//! load) so the whole subsystem can be switched off; `mcm-explore`'s
//! `obs_overhead` test holds the on-vs-off cost under 3%.

pub mod metrics;
pub mod table;
pub mod trace;

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(true);

/// Is instrumentation currently enabled? A single relaxed load; every
/// instrumentation site checks this before touching a clock or a
/// metric so that [`set_enabled`]`(false)` reduces observability cost
/// to (almost) nothing.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Globally enable or disable instrumentation. On by default.
///
/// Disabling stops new metric samples and span events; already
/// recorded state stays in the registry and sink.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// A started wall-clock measurement, or nothing when instrumentation
/// is disabled. The `Option<Instant>` is the entire state, so a
/// disabled stopwatch costs one branch and no syscall.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Option<std::time::Instant>);

impl Stopwatch {
    /// Start timing now, or record nothing if instrumentation is off.
    #[inline]
    pub fn start() -> Self {
        Stopwatch(enabled().then(std::time::Instant::now))
    }

    /// Elapsed microseconds since [`Stopwatch::start`], if running.
    #[inline]
    pub fn elapsed_us(&self) -> Option<u64> {
        self.0.map(|t| t.elapsed().as_micros() as u64)
    }

    /// Record the elapsed time into `hist` (no-op when disabled).
    #[inline]
    pub fn record(&self, hist: &metrics::Histogram) {
        if let Some(us) = self.elapsed_us() {
            hist.record(us);
        }
    }
}

/// Serializes tests that flip the process-global [`set_enabled`]
/// flag against tests that record through it.
#[cfg(test)]
pub(crate) static ENABLE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_respects_enable_flag() {
        let _guard = ENABLE_LOCK.lock().unwrap();
        set_enabled(false);
        let off = Stopwatch::start();
        assert_eq!(off.elapsed_us(), None);
        set_enabled(true);
        let on = Stopwatch::start();
        assert!(on.elapsed_us().is_some());
    }
}
