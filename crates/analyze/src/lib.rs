//! Static semantic analysis of must-not-reorder formulas.
//!
//! The paper's model class (§2.3) specifies a memory model by a
//! quantifier-free *positive* boolean function `F(x, y)` over a finite
//! predicate set. That makes implication and equivalence between formulas
//! decidable by finite truth-table analysis over the **feasible**
//! valuations of the atom universe — no litmus test ever needs to run.
//! This crate carves out that statically decidable fragment:
//!
//! * [`universe`] — the atom universe and its structural feasibility
//!   constraints (an event is exactly one of read/write/fence/op,
//!   `SameAddr` needs two accesses, `DataDep` needs a read `x`, …);
//! * [`table`] — a [`TruthTable`] per formula: its value on every
//!   feasible valuation, a canonical [`SemanticKey`], and sound pointwise
//!   implication (`F ⊨ G` pointwise ⇒ `G` forces a superset of edges ⇒
//!   `allowed(G) ⊆ allowed(F)`, i.e. `G` is the stronger model);
//! * [`dnf`] — an irredundant minimized positive-DNF normal form that is
//!   a verdict-preserving drop-in for the original formula;
//! * [`elide`] — Theorem A, a *conditional* equivalence beyond pointwise
//!   analysis: under a semantically checkable guard the same-address
//!   `Write(x) ∧ Read(y)` ordering is unobservable and can be elided.
//!   This is exactly what merges the paper's 8 equivalent pairs in the
//!   90-model space without executing a single test;
//! * [`strength`] — the behavioural equivalence classes of any model set
//!   ([`ModelClasses`], the cheap tables-only step) and its static
//!   strength preorder/lattice, built from the normalized tables;
//! * [`prefilter`] — the sweep prefilter: per test, the set of valuations
//!   its program-order pairs realize (the *relaxation signature*); models
//!   whose tables agree on that restriction provably share the test's
//!   verdict and need one checker call per group;
//! * [`lint`] — static lints over formulas (redundant conjuncts, absorbed
//!   disjuncts, infeasible terms, constant formulas), model sets
//!   (catalog duplicates) and litmus tests (never-read writes,
//!   non-canonical form).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dnf;
pub mod elide;
pub mod lint;
pub mod prefilter;
pub mod strength;
pub mod table;
pub mod universe;

pub use dnf::minimized_dnf;
pub use elide::{elidable, guarded_fragment, normalize};
pub use lint::{lint_formula, lint_models, lint_test, Finding};
pub use prefilter::SweepPrefilter;
pub use strength::{ModelAnalysis, ModelClasses, StrengthAnalysis};
pub use table::{SemanticKey, TruthTable};
pub use universe::{AtomUniverse, Kind, Valuation};

/// The canonical semantic key of a formula: two formulas get equal keys
/// **iff** they agree on every feasible valuation of every execution —
/// the sound dedup key the sweep engine shares verdict rows under.
#[must_use]
pub fn semantic_key(formula: &mcm_core::formula::Formula) -> SemanticKey {
    SemanticKey::of(formula)
}
