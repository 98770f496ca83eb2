//! # mcm-synth
//!
//! CEGIS-based symbolic synthesis of minimal distinguishing litmus tests.
//!
//! The rest of the workspace answers the paper's central question — *how
//! long must a litmus test be to distinguish two memory models?* — by
//! enumerate-then-check: stream every canonical orbit leader of a bounded
//! space through a checker and compare verdict vectors. This crate answers
//! it by **synthesis**: the unknown test itself becomes constraint
//! variables.
//!
//! A *symbolic test skeleton* of bounded shape is encoded into the
//! workspace SAT solver: per-slot selector variables for op kind, location,
//! fence and data dependency; read-from selector variables for each read's
//! observed source; and symmetry-breaking constraints (first-use location
//! ordering, descending thread sizes, canonical write values) so the
//! solver ranges over near-canonical candidates only. The skeleton is
//! conjoined with a symbolic execution — the [`mcm_axiomatic::OrderVars`]
//! partial-order scaffolding plus the happens-before axioms of model `A`,
//! conditioned on the skeleton selectors — so every SAT model *is* a test
//! that `A` allows, together with its witnessing execution.
//!
//! Each SAT model is decoded (via [`mcm_core::TestSkeleton`]) to a
//! concrete [`mcm_core::LitmusTest`] and verified against model `B` with the
//! existing axiomatic checker as oracle. If `B` also allows it, a blocking
//! clause removes the candidate and the loop refines; if `B` forbids it, a
//! distinguishing witness has been synthesized. Slot counts are selected
//! with `solve_with_assumptions` over size-indexed activation variables,
//! so one incremental solver serves every shape of a bounded search, and a
//! bottom-up search on test length — each size UNSAT-certified before the
//! next is tried — yields a per-pair **SAT-certified or statically
//! proven minimal distinguishing length**, re-deriving the paper's
//! Theorem 1 bounds by synthesis. The results are cross-validated against
//! the exhaustive streaming sweep (`mcm_explore::distinguish`) on
//! enumerable sizes.
//!
//! The search is static-first. What the models' constraint forms decide
//! is not searched for ([`mcm_analyze::ModelClasses`]): a pair of models
//! with equal truth tables, or equal after Theorem A's elision, is
//! indistinguishable by any test (its [`PairSynthesis::source`] says
//! which proof); other pairs are searched once per pair of behavioural
//! classes; and a direction in which the allowing model is statically
//! at least as strong as the forbidding one is never searched.
//!
//! ## Example
//!
//! Store buffering is the shortest witness separating SC from TSO:
//!
//! ```
//! use mcm_core::{Formula, MemoryModel};
//! use mcm_synth::{SynthBounds, Synthesizer};
//!
//! let sc = MemoryModel::new("SC", Formula::always());
//! let weakest = MemoryModel::new("weakest", Formula::never());
//! let mut synth =
//!     Synthesizer::new(vec![sc, weakest], SynthBounds::default()).unwrap();
//! let pair = synth.pair(0, 1, 6);
//! assert_eq!(pair.length, Some(3));
//! let witness = pair.witness.unwrap();
//! assert_eq!(witness.program().access_count(), 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cegis;
mod encode;

use std::fmt;

use mcm_core::{ArgPos, Atom, Formula};
use mcm_sat::SolverStats;

pub use cegis::{MatrixSynthesis, PairSynthesis, Synthesizer};

/// Bounds of the synthesized space: the same box the streaming
/// enumeration sweeps, so synthesized minimal lengths are directly
/// comparable to exhaustive ones. Every thread of a synthesized test is
/// non-empty.
pub use mcm_gen::stream::StreamBounds as SynthBounds;

/// Why a synthesis request cannot be served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SynthError {
    /// The bounds are outside the supported box.
    InvalidBounds(String),
    /// A model's must-not-reorder formula falls outside what the symbolic
    /// encoding can represent faithfully.
    UnsupportedModel {
        /// The model's name.
        model: String,
        /// What the encoding cannot express.
        reason: String,
    },
}

impl fmt::Display for SynthError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SynthError::InvalidBounds(reason) => {
                write!(f, "invalid synthesis bounds: {reason}")
            }
            SynthError::UnsupportedModel { model, reason } => {
                write!(f, "model {model} is not synthesizable: {reason}")
            }
        }
    }
}

impl std::error::Error for SynthError {}

mcm_obs::counter_table! {
    /// What the CEGIS engine actually did, layer by layer.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct SynthStats {
        /// SAT queries issued (one per synthesized structure plus one per
        /// exhaustion certificate).
        sat_queries: u64 = counter,
        /// Structures (programs) synthesized by the solver.
        structures: u64 = counter,
        /// Candidate tests decoded (structures × their outcome variants).
        candidates: u64 = counter,
        /// Distinguishing witnesses found by a fresh SAT search of a
        /// shape. Witnesses read back from a memoised, already searched
        /// sub-space, and pairs answered from the class-pair memo or
        /// statically, are not counted.
        witnesses: u64 = counter,
        /// `(shape, allower)` sub-spaces proven exhausted (the UNSAT halves of
        /// the minimality certificates).
        shapes_exhausted: u64 = counter,
        /// Oracle verdicts answered by the cross-pair verdict cache.
        oracle_cache_hits: u64 = counter,
        /// Oracle verdicts computed by the axiomatic checker.
        oracle_calls: u64 = counter,
        /// Candidates the symbolic encoding admitted but the oracle rejected.
        /// Always zero unless the encoding and the checker disagree; the test
        /// suite asserts on it.
        encoding_mismatches: u64 = counter,
    }
    groups {
        /// SAT-solver work totals, summed over every per-model incremental
        /// solver.
        solver: SolverStats,
    }
}

/// Whether `formula` orders a full fence against every access in both
/// directions — the property that lets the encoding model fences as
/// "order everything across them" instead of materialising fence events.
///
/// Holds for every model in the paper's §4.2 space (their formulas all
/// contain the `Fence(x) ∨ Fence(y)` disjunct) and for SC (`True`).
#[must_use]
pub fn formula_forces_fences(formula: &Formula) -> bool {
    // Evaluate the formula on (fence, access) and (access, fence) pairs
    // for both access kinds. Atoms are decided exactly: a fence is neither
    // read nor write nor access, has no location and takes part in no
    // dependency; the skeleton space has no branches or special fences.
    let eval = |first_kind: SlotKindForCheck, second_kind: SlotKindForCheck| {
        eval_formula_on_kinds(formula, first_kind, second_kind)
    };
    use SlotKindForCheck::{Fence, Read, Write};
    [
        eval(Fence, Read),
        eval(Fence, Write),
        eval(Read, Fence),
        eval(Write, Fence),
    ]
    .iter()
    .all(|&ordered| ordered)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum SlotKindForCheck {
    Read,
    Write,
    Fence,
}

fn eval_formula_on_kinds(
    formula: &Formula,
    first: SlotKindForCheck,
    second: SlotKindForCheck,
) -> bool {
    let kind_of = |pos: ArgPos| match pos {
        ArgPos::First => first,
        ArgPos::Second => second,
    };
    let atom = |a: &Atom| match a {
        Atom::IsRead(pos) => kind_of(*pos) == SlotKindForCheck::Read,
        Atom::IsWrite(pos) => kind_of(*pos) == SlotKindForCheck::Write,
        Atom::IsFence(pos) => kind_of(*pos) == SlotKindForCheck::Fence,
        Atom::IsAccess(pos) => kind_of(*pos) != SlotKindForCheck::Fence,
        // The synthesized space has no special fences or branches, and a
        // pair involving a fence shares no address and no dependency.
        Atom::IsSpecialFence(..) | Atom::SameAddr | Atom::DataDep | Atom::CtrlDep => false,
    };
    fn go(f: &Formula, atom: &dyn Fn(&Atom) -> bool) -> bool {
        match f {
            Formula::Const(b) => *b,
            Formula::Atom(a) => atom(a),
            Formula::And(children) => children.iter().all(|c| go(c, atom)),
            Formula::Or(children) => children.iter().any(|c| go(c, atom)),
        }
    }
    go(formula, &atom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bounds_match_the_streaming_box() {
        let bounds = SynthBounds::default();
        assert_eq!(bounds.max_total(), 6);
        assert_eq!(bounds.min_total(), 2);
        assert_eq!(bounds.max_locs, 4);
        assert!(!bounds.include_fences);
    }

    #[test]
    fn digit_models_and_sc_force_fences() {
        use mcm_models::DigitModel;
        assert!(formula_forces_fences(&Formula::always()));
        for digit in DigitModel::all() {
            assert!(
                formula_forces_fences(&digit.formula()),
                "{} must order across fences",
                digit.name()
            );
        }
    }

    #[test]
    fn fence_blind_formulas_are_detected() {
        // The weakest model orders nothing, fences included.
        assert!(!formula_forces_fences(&Formula::never()));
        // Ordering only write pairs ignores fences too.
        let ww = Formula::and([
            Formula::atom(Atom::IsWrite(ArgPos::First)),
            Formula::atom(Atom::IsWrite(ArgPos::Second)),
        ]);
        assert!(!formula_forces_fences(&ww));
    }

    #[test]
    fn errors_render_readably() {
        let e = SynthError::InvalidBounds("threads must be 2..=4".to_string());
        assert!(e.to_string().contains("threads"));
        let e = SynthError::UnsupportedModel {
            model: "weird".to_string(),
            reason: "fence-blind".to_string(),
        };
        assert!(e.to_string().contains("weird"));
    }
}
