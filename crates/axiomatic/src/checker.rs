//! Verdicts, witnesses and the built-in checker kinds.

use std::fmt;

use mcm_core::EventId;

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

/// The built-in checkers, as data: names and construction in one place,
/// so CLI `--checker` resolution and cross-validation test matrices
/// dispatch on an enum instead of string-matching display names.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CheckerKind {
    /// [`crate::BatchExplicitChecker`] — `(rf, co)` enumeration shared
    /// across the row.
    Explicit,
    /// [`crate::BatchRfSatChecker`] — the paper's §4.1 architecture: SAT
    /// queries per read-from map.
    Sat,
}

impl CheckerKind {
    /// Every built-in checker kind.
    pub const ALL: [CheckerKind; 2] = [CheckerKind::Explicit, CheckerKind::Sat];

    /// The stable CLI / report name (`explicit`, `sat`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CheckerKind::Explicit => "explicit",
            CheckerKind::Sat => "sat",
        }
    }

    /// Resolves a (case-insensitive) name back to its kind.
    #[must_use]
    pub fn from_name(name: &str) -> Option<CheckerKind> {
        CheckerKind::ALL
            .into_iter()
            .find(|kind| kind.name().eq_ignore_ascii_case(name))
    }

    /// Builds the checker: the shared-candidate enumerator for
    /// [`CheckerKind::Explicit`], one model-free encoding per read-from
    /// map with model groups selected by assumptions for
    /// [`CheckerKind::Sat`]. Each shares the row's model-independent
    /// work. Its [`crate::BatchChecker::name`] is [`CheckerKind::name`].
    #[must_use]
    pub fn build_batch(self) -> Box<dyn crate::BatchChecker> {
        match self {
            CheckerKind::Explicit => Box::new(crate::BatchExplicitChecker::new()),
            CheckerKind::Sat => Box::new(crate::BatchRfSatChecker::new()),
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
            assert_eq!(kind.build_batch().name(), kind.name());
        }
        assert_eq!(CheckerKind::from_name("powerpc"), None);
    }

    #[test]
    fn capabilities_match_the_implementations() {
        for kind in CheckerKind::ALL {
            let checker = kind.build_batch();
            // Every kind shares work across the row; the SAT one is backed
            // by `mcm-sat`.
            assert!(checker.batch_stats().is_some());
            assert_eq!(
                checker.solver_stats().is_some(),
                kind != CheckerKind::Explicit
            );
        }
    }
}
