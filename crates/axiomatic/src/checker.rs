//! The admissibility interface shared by all checkers.

use std::fmt;

use mcm_core::{EventId, Execution, LitmusTest, MemoryModel};
use mcm_sat::SolverStats;

use crate::co::CoOrder;
use crate::hb::EdgeKind;
use crate::rf::RfMap;

/// Evidence that an execution is allowed: the read-from map, coherence
/// order and forced happens-before edges of a consistent choice.
#[derive(Clone, Debug)]
pub struct Witness {
    /// The read-from map.
    pub rf: RfMap,
    /// The coherence order.
    pub co: CoOrder,
    /// The forced happens-before edges (acyclic).
    pub hb_edges: Vec<(EventId, EventId, EdgeKind)>,
}

/// The answer to "is this test admissible under this model?".
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Whether the demanded outcome is allowed.
    pub allowed: bool,
    /// A witness when allowed (checkers always produce one).
    pub witness: Option<Witness>,
}

impl Verdict {
    /// An "allowed" verdict carrying its witness.
    #[must_use]
    pub fn allowed(witness: Witness) -> Self {
        Verdict {
            allowed: true,
            witness: Some(witness),
        }
    }

    /// A "forbidden" verdict.
    #[must_use]
    pub fn forbidden() -> Self {
        Verdict {
            allowed: false,
            witness: None,
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.allowed {
            write!(f, "allowed")
        } else {
            write!(f, "forbidden")
        }
    }
}

/// An admissibility checker: decides whether a litmus test's demanded
/// outcome is allowed under a memory model.
///
/// Three independent implementations exist — [`crate::ExplicitChecker`]
/// (enumeration + cycle detection), [`crate::SatChecker`] (the paper's
/// architecture: SAT over happens-before ordering variables) and
/// [`crate::MonolithicSatChecker`] (read-from choices encoded as SAT
/// variables too) — and the test suite cross-validates them.
pub trait Checker {
    /// Short name for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Decides admissibility of a pre-derived candidate execution.
    fn check_execution(&self, model: &MemoryModel, exec: &Execution) -> Verdict;

    /// Decides admissibility of a litmus test under `model`.
    fn check(&self, model: &MemoryModel, test: &LitmusTest) -> Verdict {
        self.check_execution(model, &test.execution())
    }

    /// Convenience: just the boolean.
    fn is_allowed(&self, model: &MemoryModel, test: &LitmusTest) -> bool {
        self.check(model, test).allowed
    }

    /// Accumulated SAT-solver work counters, for checkers that are backed
    /// by `mcm-sat` ([`crate::SatChecker`], [`crate::MonolithicSatChecker`]).
    /// Totals cover every query this checker instance has answered.
    /// Checkers with no solver return `None` (the default).
    fn solver_stats(&self) -> Option<SolverStats> {
        None
    }
}

/// The built-in checkers, as data: names, construction and capabilities
/// in one place, so CLI `--checker` resolution and cross-validation test
/// matrices dispatch on an enum instead of string-matching display names.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CheckerKind {
    /// [`crate::ExplicitChecker`] — exhaustive `(rf, co)` enumeration.
    Explicit,
    /// [`crate::SatChecker`] — the paper's §4.1 architecture: one SAT
    /// query per read-from map.
    Sat,
    /// [`crate::MonolithicSatChecker`] — one SAT query per test with
    /// read-from selector variables.
    Monolithic,
}

impl CheckerKind {
    /// Every built-in checker kind.
    pub const ALL: [CheckerKind; 3] =
        [CheckerKind::Explicit, CheckerKind::Sat, CheckerKind::Monolithic];

    /// The stable CLI / report name (`explicit`, `sat`, `monolithic`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CheckerKind::Explicit => "explicit",
            CheckerKind::Sat => "sat",
            CheckerKind::Monolithic => "monolithic",
        }
    }

    /// Resolves a (case-insensitive) name back to its kind.
    #[must_use]
    pub fn from_name(name: &str) -> Option<CheckerKind> {
        CheckerKind::ALL
            .into_iter()
            .find(|kind| kind.name().eq_ignore_ascii_case(name))
    }

    /// Whether this checker is backed by `mcm-sat` (and so reports
    /// [`Checker::solver_stats`]).
    #[must_use]
    pub fn sat_backed(self) -> bool {
        !matches!(self, CheckerKind::Explicit)
    }

    /// Builds the per-cell checker.
    #[must_use]
    pub fn build(self) -> Box<dyn Checker> {
        match self {
            CheckerKind::Explicit => Box::new(crate::ExplicitChecker::new()),
            CheckerKind::Sat => Box::new(crate::SatChecker::new()),
            CheckerKind::Monolithic => Box::new(crate::MonolithicSatChecker::new()),
        }
    }

    /// Builds the batched (test-major) counterpart: the shared-candidate
    /// enumerator for [`CheckerKind::Explicit`], one model-free encoding
    /// per read-from map with model groups selected by assumptions for
    /// [`CheckerKind::Sat`], and the assumption-selected incremental
    /// encoding for [`CheckerKind::Monolithic`] (whose base clauses it
    /// shares). Each shares the row's model-independent work.
    #[must_use]
    pub fn build_batch(self) -> Box<dyn crate::BatchChecker> {
        match self {
            CheckerKind::Explicit => Box::new(crate::BatchExplicitChecker::new()),
            CheckerKind::Sat => Box::new(crate::BatchRfSatChecker::new()),
            CheckerKind::Monolithic => Box::new(crate::BatchSatChecker::new()),
        }
    }
}

impl fmt::Display for CheckerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_display() {
        assert_eq!(Verdict::forbidden().to_string(), "forbidden");
        assert!(!Verdict::forbidden().allowed);
        assert!(Verdict::forbidden().witness.is_none());
    }

    #[test]
    fn kinds_round_trip_their_names() {
        for kind in CheckerKind::ALL {
            assert_eq!(CheckerKind::from_name(kind.name()), Some(kind));
            assert_eq!(
                CheckerKind::from_name(&kind.name().to_uppercase()),
                Some(kind)
            );
            // Display names may be longer (`sat-monolithic`), but always
            // contain the stable kind name.
            assert!(kind.build().name().contains(kind.name()));
        }
        assert_eq!(CheckerKind::from_name("powerpc"), None);
    }

    #[test]
    fn capabilities_match_the_implementations() {
        assert!(!CheckerKind::Explicit.sat_backed());
        assert!(CheckerKind::Sat.sat_backed());
        assert!(CheckerKind::Monolithic.sat_backed());
        for kind in CheckerKind::ALL {
            assert_eq!(kind.build().solver_stats().is_some(), kind.sat_backed());
            // Every kind's batched build shares work across the row.
            assert!(kind.build_batch().batch_stats().is_some());
        }
        assert_eq!(CheckerKind::Explicit.build_batch().name(), "batch-explicit");
        assert_eq!(CheckerKind::Monolithic.build_batch().name(), "batch-sat");
        assert_eq!(CheckerKind::Sat.build_batch().name(), "sat");
    }
}
