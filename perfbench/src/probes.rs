//! Outside-in probes for traced runs. Each wraps a public seam of the
//! library — the test iterator handed to the streaming engine, and the
//! checker its `make_checker` factory returns — so layer time is
//! measured from the benchmark's side without spans inside the program.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use mcm_axiomatic::{BatchChecker, BatchStats, CheckerKind, Verdict};
use mcm_core::{Execution, LitmusTest, MemoryModel};
use mcm_sat::SolverStats;

/// Time spent inside the wrapped iterator's `next()` (the `gen` layer).
#[derive(Clone, Default)]
pub struct LeaderClock {
    pub seconds: Rc<Cell<f64>>,
    pub leaders: Rc<Cell<u64>>,
}

pub struct TimedIter<I> {
    inner: I,
    clock: LeaderClock,
}

impl<I> TimedIter<I> {
    pub fn new(inner: I, clock: &LeaderClock) -> TimedIter<I> {
        TimedIter {
            inner,
            clock: clock.clone(),
        }
    }
}

impl<I: Iterator<Item = LitmusTest>> Iterator for TimedIter<I> {
    type Item = LitmusTest;

    fn next(&mut self) -> Option<LitmusTest> {
        let start = Instant::now();
        let next = self.inner.next();
        self.clock
            .seconds
            .set(self.clock.seconds.get() + start.elapsed().as_secs_f64());
        if next.is_some() {
            self.clock.leaders.set(self.clock.leaders.get() + 1);
        }
        next
    }
}

/// What every checker built by one [`TimedFactory`] saw (the `axiomatic`
/// layer): per-row latencies, busy time, and the instant of the first
/// checker call.
#[derive(Default)]
pub struct CheckerProbe {
    pub row_us: Mutex<Vec<f64>>,
    pub busy_ns: AtomicU64,
    pub rows: AtomicU64,
    pub models_checked: AtomicU64,
    pub first_call: OnceLock<Instant>,
}

/// Builds checkers of one kind, each wrapped in a [`TimedChecker`].
pub struct TimedFactory {
    pub kind: CheckerKind,
    pub probe: Arc<CheckerProbe>,
}

impl TimedFactory {
    pub fn new(kind: CheckerKind) -> TimedFactory {
        TimedFactory {
            kind,
            probe: Arc::new(CheckerProbe::default()),
        }
    }

    pub fn make(&self) -> Box<dyn BatchChecker> {
        Box::new(TimedChecker {
            inner: self.kind.build_batch(),
            probe: Arc::clone(&self.probe),
            local: RefCell::new(Vec::new()),
        })
    }
}

/// Forwards every call to the real checker, timing each row.
struct TimedChecker {
    inner: Box<dyn BatchChecker>,
    probe: Arc<CheckerProbe>,
    local: RefCell<Vec<f64>>,
}

impl BatchChecker for TimedChecker {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn check_all_executions(&self, exec: &Execution, models: &[MemoryModel]) -> Vec<Verdict> {
        let start = Instant::now();
        self.probe.first_call.get_or_init(|| start);
        let verdicts = self.inner.check_all_executions(exec, models);
        let elapsed = start.elapsed();
        self.local.borrow_mut().push(elapsed.as_secs_f64() * 1e6);
        self.probe
            .busy_ns
            .fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        self.probe.rows.fetch_add(1, Ordering::Relaxed);
        self.probe
            .models_checked
            .fetch_add(models.len() as u64, Ordering::Relaxed);
        verdicts
    }

    fn batch_stats(&self) -> Option<BatchStats> {
        self.inner.batch_stats()
    }

    fn solver_stats(&self) -> Option<SolverStats> {
        self.inner.solver_stats()
    }
}

impl Drop for TimedChecker {
    fn drop(&mut self) {
        if let Ok(mut rows) = self.probe.row_us.lock() {
            rows.append(self.local.get_mut());
        }
    }
}
