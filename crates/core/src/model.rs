//! Memory models as named must-not-reorder functions.

use std::fmt;
use std::sync::Arc;

use crate::execution::Execution;
use crate::formula::Formula;
use crate::ids::EventId;

/// A memory consistency model in the paper's class (§2.2): a name plus a
/// must-not-reorder function `F`.
///
/// The model's meaning — the set of allowed program executions — is given
/// by the happens-before axioms, implemented in the `mcm-axiomatic` crate;
/// this type only carries the specification.
///
/// The name and the formula are shared behind [`Arc`], so cloning a model
/// (as sweeps do for every checked row) is O(1). `Hash`, `Eq` and `Debug`
/// see through the `Arc`s and match a plain `String` + [`Formula`] pair
/// byte for byte, so fingerprints derived from them are unaffected.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct MemoryModel {
    name: Arc<str>,
    formula: Arc<Formula>,
}

impl MemoryModel {
    /// Creates a model from a name and its must-not-reorder function.
    #[must_use]
    pub fn new(name: impl Into<String>, formula: Formula) -> Self {
        let name: String = name.into();
        MemoryModel {
            name: Arc::from(name),
            formula: Arc::new(formula),
        }
    }

    /// The model's display name (e.g. `TSO`, `M4044`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The must-not-reorder function.
    #[must_use]
    pub fn formula(&self) -> &Formula {
        &self.formula
    }

    /// Evaluates `F(x, y)` on two events of `exec`.
    ///
    /// Program-order happens-before edges are generated for same-thread
    /// pairs with `x` po-before `y` where this returns true.
    #[must_use]
    pub fn must_not_reorder(&self, exec: &Execution, x: EventId, y: EventId) -> bool {
        self.formula.eval(exec, x, y)
    }

    /// Returns a copy with a different display name (used when a digit
    /// model is given its conventional name, e.g. `M4044` → `TSO`); the
    /// formula is shared, not copied.
    #[must_use]
    pub fn renamed(&self, name: impl Into<String>) -> Self {
        let name: String = name.into();
        MemoryModel {
            name: Arc::from(name),
            formula: Arc::clone(&self.formula),
        }
    }
}

impl fmt::Display for MemoryModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: F(x,y) = {}", self.name, self.formula)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execution::Outcome;
    use crate::formula::{ArgPos, Atom};
    use crate::ids::{Loc, Reg, ThreadId, Value};
    use crate::program::Program;

    #[test]
    fn model_evaluates_its_formula() {
        let program = Program::builder()
            .thread()
            .write(Loc::X, Value(1))
            .read(Loc::Y, Reg(1))
            .build()
            .unwrap();
        let outcome = Outcome::new().constrain(ThreadId(0), Reg(1), Value(0));
        let exec = Execution::from_program(&program, &outcome).unwrap();
        let ids = exec.thread_events(ThreadId(0)).to_vec();

        let model = MemoryModel::new("ww-only", Formula::pair(
            Atom::IsWrite(ArgPos::First),
            Atom::IsWrite(ArgPos::Second),
            Formula::always(),
        ));
        assert!(!model.must_not_reorder(&exec, ids[0], ids[1]));
        let sc = MemoryModel::new("SC", Formula::always());
        assert!(sc.must_not_reorder(&exec, ids[0], ids[1]));
    }

    #[test]
    fn renamed_keeps_formula() {
        let m = MemoryModel::new("M4044", Formula::always());
        let renamed = m.renamed("TSO");
        assert_eq!(renamed.name(), "TSO");
        assert_eq!(renamed.formula(), m.formula());
        assert!(
            std::ptr::eq(renamed.formula(), m.formula()),
            "formula is shared"
        );
    }

    #[test]
    fn clones_share_and_hash_like_owned_fields() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let m = MemoryModel::new("TSO", Formula::always());
        let copy = m.clone();
        assert_eq!(copy, m);
        assert!(std::ptr::eq(copy.formula(), m.formula()));
        // Hash sees through the Arcs: same bytes as (String, Formula).
        let digest = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut hasher = DefaultHasher::new();
            h(&mut hasher);
            hasher.finish()
        };
        assert_eq!(
            digest(&|h| m.hash(h)),
            digest(&|h| {
                String::from("TSO").hash(h);
                Formula::always().hash(h);
            })
        );
        assert_eq!(
            format!("{m:?}"),
            format!(
                "MemoryModel {{ name: {:?}, formula: {:?} }}",
                "TSO",
                Formula::always()
            )
        );
    }

    #[test]
    fn display_includes_name_and_formula() {
        let m = MemoryModel::new("SC", Formula::always());
        assert_eq!(m.to_string(), "SC: F(x,y) = True");
    }
}
