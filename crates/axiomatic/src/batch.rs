//! Test-major batched admissibility: one test, many models, shared work.
//!
//! A model-space sweep asks the same test against every model of a row,
//! and almost all of the per-cell cost is model-independent: the explicit
//! checker re-enumerates read-from maps and coherence orders for each of
//! the 36 (or 90) models, and the per-rf SAT checker re-enumerates the
//! read-from maps and rebuilds each map's partial-order, coherence and
//! read-from clauses, even though only the model's must-not-reorder
//! formula differs across the row. The [`BatchChecker`] interface turns
//! the core test-major:
//!
//! * [`BatchExplicitChecker`] enumerates the per-test execution space —
//!   read-from maps, coherence orders and each candidate's model-free
//!   forced edges ([`crate::hb::base_edges`]) — **once**, and evaluates
//!   each model against the shared candidates. Models whose formulas
//!   force the same program-order pairs on this execution (a very common
//!   collapse: fence or dependency clauses are inert on most tests) share
//!   one *group*, so the per-candidate work is one ignore-local check
//!   plus one cheap graph union per still-undecided group.
//! * [`crate::BatchRfSatChecker`] (the paper's §4.1 checker) enumerates
//!   the read-from maps once per row and builds one solver per map with
//!   the model-free encoding only; each undecided group is one
//!   [`mcm_sat::Solver::solve_with_assumptions`] over its forced ordering
//!   literals, and a satisfying assignment also decides every other group
//!   whose forced pairs hold in it.
//!
//! [`crate::ExplicitChecker`] answers the row one cell at a time, sharing
//! nothing: it is the sequential reference every batched path is
//! property-tested against.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

use mcm_core::{EventId, Execution, LitmusTest, MemoryModel};
use mcm_sat::SolverStats;

use crate::checker::{Verdict, Witness};
use crate::co::enumerate_co_orders;
use crate::hb::{base_edges, collect_edges, forced_po_pairs};
use crate::rf::enumerate_rf_maps;

mcm_obs::counter_table! {
    /// Work counters of a batched checker: how much per-test work was shared
    /// across a row of models. Totals cover every row the instance answered.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct BatchStats {
        /// Rows answered: one per `check_all` / `check_all_executions` call.
        rows: u64 = counter,
        /// Model verdicts produced across all rows.
        models_checked: u64 = counter,
        /// Distinct forced-program-order groups evaluated (summed over rows).
        /// `models_checked / model_groups` is the row collapse factor.
        model_groups: u64 = counter,
        /// Shared `(rf, co)` candidate executions enumerated (explicit path)
        /// — enumerated once per row instead of once per cell.
        shared_candidates: u64 = counter,
        /// Per-group acyclicity checks actually performed (explicit path).
        group_evals: u64 = counter,
        /// Assumption-selected solver queries (SAT path): one per undecided
        /// group and read-from map.
        assumption_solves: u64 = counter,
    }
}

impl BatchStats {
    /// `models_checked / model_groups`: how many model verdicts each
    /// distinct forced-program-order group answered on average — the row
    /// collapse factor reports print (∞-free: 0 groups reports against 1).
    #[must_use]
    pub fn row_collapse(&self) -> f64 {
        self.models_checked as f64 / (self.model_groups.max(1)) as f64
    }
}

/// Records one answered row into the global metric registry: latency
/// into `mcm_check_latency_us{checker=…}` and the row's shared-work
/// unit count (explicit: candidate executions; SAT: assumption solves)
/// into `mcm_check_candidates_total`.
/// No-op when `mcm_obs` instrumentation is disabled — the stopwatch
/// never started, so this costs one branch.
///
/// Both series are resolved once per worker thread and checker name, so
/// the row path never takes the global registry lock after first use.
pub(crate) fn observe_row(checker: &'static str, started: mcm_obs::Stopwatch, candidates: u64) {
    let Some(us) = started.elapsed_us() else {
        return;
    };
    ROW_SERIES.with_borrow_mut(|series| {
        let i = match series.iter().position(|s| s.checker == checker) {
            Some(i) => i,
            None => {
                series.push(RowSeries {
                    checker,
                    latency: mcm_obs::metrics::histogram(
                        "mcm_check_latency_us",
                        &[("checker", checker)],
                    ),
                    candidates: None,
                });
                series.len() - 1
            }
        };
        let row = &mut series[i];
        row.latency.record(us);
        if candidates > 0 {
            row.candidates
                .get_or_insert_with(|| {
                    mcm_obs::metrics::counter("mcm_check_candidates_total", &[("checker", checker)])
                })
                .add(candidates);
        }
    });
}

/// One checker's handles into the global metric registry.
struct RowSeries {
    checker: &'static str,
    latency: Arc<mcm_obs::metrics::Histogram>,
    /// Resolved on the first row with shared work, so a checker that
    /// never reports any registers no candidate series.
    candidates: Option<Arc<mcm_obs::metrics::Counter>>,
}

thread_local! {
    static ROW_SERIES: RefCell<Vec<RowSeries>> = const { RefCell::new(Vec::new()) };
}

/// An admissibility checker: decides whether a litmus test's demanded
/// outcome is allowed under each model of a row, amortizing the
/// model-independent work across the row.
///
/// Each [`crate::CheckerKind`] builds one implementation; the
/// [`crate::ExplicitChecker`] reference answers cell by cell. Verdicts
/// are returned in model order and agree bit-for-bit across
/// implementations (the property suites enforce this).
pub trait BatchChecker {
    /// Short name for reports and metric labels.
    fn name(&self) -> &'static str;

    /// Decides admissibility of a pre-derived candidate execution under
    /// every model, in order.
    fn check_all_executions(&self, exec: &Execution, models: &[MemoryModel]) -> Vec<Verdict>;

    /// Decides admissibility of a litmus test under every model, in order.
    fn check_all(&self, test: &LitmusTest, models: &[MemoryModel]) -> Vec<Verdict> {
        self.check_all_executions(&test.execution(), models)
    }

    /// Decides admissibility of a litmus test under one model: a
    /// one-model row.
    fn check(&self, model: &MemoryModel, test: &LitmusTest) -> Verdict {
        self.check_all(test, std::slice::from_ref(model))
            .pop()
            .expect("one model, one verdict")
    }

    /// Convenience: just the boolean of [`BatchChecker::check`].
    fn is_allowed(&self, model: &MemoryModel, test: &LitmusTest) -> bool {
        self.check(model, test).allowed
    }

    /// Accumulated amortization counters, for checkers that share work
    /// across a row. The reference checker returns `None` (the default).
    fn batch_stats(&self) -> Option<BatchStats> {
        None
    }

    /// Accumulated SAT-solver work counters, for checkers backed by
    /// `mcm-sat`. Totals cover every row this instance answered.
    /// Checkers with no solver return `None` (the default).
    fn solver_stats(&self) -> Option<SolverStats> {
        None
    }
}

/// The model row quotiented by forced program-order pairs: two models
/// whose formulas force the same same-thread orderings *on this
/// execution* are indistinguishable here and share every downstream
/// answer — the witness edges included, which are built from the group's
/// pairs rather than re-derived from a representative's formula.
pub(crate) struct ModelGroups {
    /// One entry per group: the forced program-order pairs its models
    /// share, in [`forced_po_pairs`] order.
    pub(crate) groups: Vec<Vec<(EventId, EventId)>>,
    /// Model index → group index.
    pub(crate) group_of: Vec<usize>,
}

pub(crate) fn group_models(exec: &Execution, models: &[MemoryModel]) -> ModelGroups {
    let mut groups: Vec<Vec<(EventId, EventId)>> = Vec::new();
    let mut index: HashMap<Vec<(EventId, EventId)>, usize> = HashMap::new();
    let mut group_of = Vec::with_capacity(models.len());
    for model in models {
        let pairs = forced_po_pairs(model, exec);
        let group = *index.entry(pairs.clone()).or_insert_with(|| {
            groups.push(pairs);
            groups.len() - 1
        });
        group_of.push(group);
    }
    ModelGroups { groups, group_of }
}

/// Batched admissibility by `(rf, co)` enumeration shared across the row.
///
/// Produces exactly the per-cell [`crate::ExplicitChecker`] verdicts —
/// including the same witnesses, because candidates are visited in the
/// same order and each group is decided at its first admitting candidate.
#[derive(Clone, Debug, Default)]
pub struct BatchExplicitChecker {
    /// Amortization counters; interior mutability because the trait takes
    /// `&self` (mirrors the SAT checker's stats cells).
    stats: Cell<BatchStats>,
}

impl BatchExplicitChecker {
    /// Creates the checker.
    #[must_use]
    pub fn new() -> Self {
        BatchExplicitChecker::default()
    }
}

impl BatchChecker for BatchExplicitChecker {
    fn name(&self) -> &'static str {
        "explicit"
    }

    fn check_all_executions(&self, exec: &Execution, models: &[MemoryModel]) -> Vec<Verdict> {
        let started = mcm_obs::Stopwatch::start();
        let mut stats = self.stats.get();
        let candidates_before = stats.shared_candidates;
        stats.rows += 1;
        stats.models_checked += models.len() as u64;

        let rf_maps = enumerate_rf_maps(exec);
        if rf_maps.is_empty() {
            // Value-infeasible outcome: forbidden everywhere, no grouping
            // or coherence enumeration needed.
            self.stats.set(stats);
            observe_row(self.name(), started, 0);
            return models.iter().map(|_| Verdict::forbidden()).collect();
        }

        let ModelGroups { groups, group_of } = group_models(exec, models);
        stats.model_groups += groups.len() as u64;
        let co_orders = enumerate_co_orders(exec);

        let mut verdicts: Vec<Option<Verdict>> = vec![None; groups.len()];
        let mut undecided = groups.len();
        'candidates: for rf in &rf_maps {
            for co in &co_orders {
                stats.shared_candidates += 1;
                let base = base_edges(exec, rf, co);
                // Ignore-local is a property of the model-free edges only
                // (program-order edges always point forwards): one check
                // retires the candidate for the whole row.
                if !base.respects_ignore_local(exec) {
                    continue;
                }
                for (g, pairs) in groups.iter().enumerate() {
                    if verdicts[g].is_some() {
                        continue;
                    }
                    stats.group_evals += 1;
                    if base.acyclic_with(pairs) {
                        // The group's pairs are every member's
                        // `forced_po_pairs`, so the shared constructor
                        // yields the per-cell checker's witness exactly.
                        let edges = collect_edges(exec, rf, co, pairs);
                        verdicts[g] = Some(Verdict::allowed(Witness {
                            rf: rf.clone(),
                            co: co.clone(),
                            hb_edges: edges.labeled,
                        }));
                        undecided -= 1;
                    }
                }
                if undecided == 0 {
                    break 'candidates;
                }
            }
        }

        self.stats.set(stats);
        observe_row(
            self.name(),
            started,
            stats.shared_candidates - candidates_before,
        );
        group_of
            .iter()
            .map(|&g| verdicts[g].clone().unwrap_or_else(Verdict::forbidden))
            .collect()
    }

    fn batch_stats(&self) -> Option<BatchStats> {
        Some(self.stats.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExplicitChecker;
    use mcm_core::{Formula, Loc, Outcome, Program, Reg, ThreadId, Value};

    fn sb() -> LitmusTest {
        let program = Program::builder()
            .thread()
            .write(Loc::X, Value(1))
            .read(Loc::Y, Reg(1))
            .thread()
            .write(Loc::Y, Value(1))
            .read(Loc::X, Reg(2))
            .build()
            .unwrap();
        let outcome = Outcome::new()
            .constrain(ThreadId(0), Reg(1), Value(0))
            .constrain(ThreadId(1), Reg(2), Value(0));
        LitmusTest::new("SB", program, outcome).unwrap()
    }

    fn models() -> Vec<MemoryModel> {
        vec![
            MemoryModel::new("SC", Formula::always()),
            MemoryModel::new("weakest", Formula::never()),
            MemoryModel::new("weakest-twin", Formula::never()),
        ]
    }

    #[test]
    fn batch_explicit_matches_per_cell_on_sb() {
        let test = sb();
        let batch = BatchExplicitChecker::new();
        let verdicts = batch.check_all(&test, &models());
        let per_cell = ExplicitChecker::new();
        for (model, verdict) in models().iter().zip(&verdicts) {
            assert_eq!(
                verdict.allowed,
                per_cell.is_allowed(model, &test),
                "batch disagrees on {}",
                model.name()
            );
        }
        let stats = batch.batch_stats().expect("native batch has stats");
        assert_eq!(stats.rows, 1);
        assert_eq!(stats.models_checked, 3);
        assert_eq!(stats.model_groups, 2, "the weakest twins share a group");
    }

    #[test]
    fn batch_explicit_witnesses_equal_per_cell_witnesses() {
        let test = sb();
        let verdicts = BatchExplicitChecker::new().check_all(&test, &models());
        let per_cell = ExplicitChecker::new().check(&models()[1], &test);
        let batch_witness = verdicts[1].witness.as_ref().expect("allowed");
        let cell_witness = per_cell.witness.expect("allowed");
        assert_eq!(batch_witness.rf, cell_witness.rf);
        assert_eq!(batch_witness.co, cell_witness.co);
        assert_eq!(batch_witness.hb_edges, cell_witness.hb_edges);
    }

    fn lb() -> LitmusTest {
        // Load buffering: R X=1; W Y=1 || R Y=1; W X=1.
        let program = Program::builder()
            .thread()
            .read(Loc::X, Reg(1))
            .write(Loc::Y, Value(1))
            .thread()
            .read(Loc::Y, Reg(2))
            .write(Loc::X, Value(1))
            .build()
            .unwrap();
        let outcome = Outcome::new()
            .constrain(ThreadId(0), Reg(1), Value(1))
            .constrain(ThreadId(1), Reg(2), Value(1));
        LitmusTest::new("LB", program, outcome).unwrap()
    }

    #[test]
    fn batch_sat_lb_under_sc_and_weakest() {
        let checker = crate::BatchRfSatChecker::new();
        assert!(!checker.is_allowed(&models()[0], &lb()));
        assert!(checker.is_allowed(&models()[1], &lb()));
    }

    #[test]
    fn value_infeasible_rows_are_forbidden_everywhere() {
        let program = Program::builder()
            .thread()
            .read(Loc::X, Reg(1))
            .build()
            .unwrap();
        let outcome = Outcome::new().constrain(ThreadId(0), Reg(1), Value(9));
        let test = LitmusTest::new("inf", program, outcome).unwrap();
        for checker in [
            Box::new(BatchExplicitChecker::new()) as Box<dyn BatchChecker>,
            Box::new(crate::BatchRfSatChecker::new()),
        ] {
            assert!(checker
                .check_all(&test, &models())
                .iter()
                .all(|v| !v.allowed));
        }
    }

    #[test]
    fn stats_absorb_accumulates() {
        let mut a = BatchStats {
            rows: 1,
            models_checked: 3,
            model_groups: 2,
            shared_candidates: 5,
            group_evals: 7,
            assumption_solves: 0,
        };
        let b = a;
        a.absorb(b);
        assert_eq!(a.rows, 2);
        assert_eq!(a.group_evals, 14);
    }
}
