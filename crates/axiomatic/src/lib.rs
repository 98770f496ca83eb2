//! # mcm-axiomatic
//!
//! The happens-before semantics of the paper's class of memory models
//! (§2.2) and two independent admissibility checkers, one per
//! [`CheckerKind`], each answering a whole row of models per test
//! through the one checker trait, [`BatchChecker`]:
//!
//! * [`BatchExplicitChecker`] — enumerates read-from maps ([`rf`]) and
//!   coherence orders ([`co`]) once per test, builds the forced
//!   happens-before edges ([`hb`]) and decides each model group by cycle
//!   detection ([`graph`]);
//! * [`BatchRfSatChecker`] — the paper's §4.1 architecture: read-from maps
//!   are enumerated, the rest of the axioms become CNF over ordering
//!   variables solved by `mcm-sat` (the MiniSat substitute), one solver
//!   per map with the models selected by assumptions.
//!
//! [`ExplicitChecker`] is the sequential reference: the same enumeration
//! one cell at a time, sharing nothing across the row. Both backends
//! agree with it and are cross-validated by property tests; the
//! exploration layer uses the explicit backend for speed and the SAT
//! backend for fidelity to the paper.
//!
//! ## Example
//!
//! Store buffering is forbidden under SC but allowed once nothing keeps a
//! write ordered before a program-later read:
//!
//! ```
//! use mcm_axiomatic::{BatchChecker, ExplicitChecker};
//! use mcm_core::{Formula, LitmusTest, Loc, MemoryModel, Outcome, Program, Reg, ThreadId, Value};
//!
//! # fn main() -> Result<(), mcm_core::CoreError> {
//! let program = Program::builder()
//!     .thread().write(Loc::X, Value(1)).read(Loc::Y, Reg(1))
//!     .thread().write(Loc::Y, Value(1)).read(Loc::X, Reg(2))
//!     .build()?;
//! let outcome = Outcome::new()
//!     .constrain(ThreadId(0), Reg(1), Value(0))
//!     .constrain(ThreadId(1), Reg(2), Value(0));
//! let sb = LitmusTest::new("SB", program, outcome)?;
//!
//! let sc = MemoryModel::new("SC", Formula::always());
//! let weakest = MemoryModel::new("weakest", Formula::never());
//! let checker = ExplicitChecker::new();
//! assert!(!checker.is_allowed(&sc, &sb));
//! assert!(checker.is_allowed(&weakest, &sb));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
mod checker;
pub mod co;
pub mod explain;
mod explicit;
pub mod graph;
pub mod hb;
pub mod rf;
pub mod sat_common;
mod sat_hb;

pub use batch::{BatchChecker, BatchExplicitChecker, BatchStats};
pub use checker::{CheckerKind, Verdict, Witness};
pub use explicit::ExplicitChecker;
pub use hb::EdgeKind;
pub use sat_common::{ClauseSink, OrderVars};
pub use sat_hb::{encode_all_cnf, encode_cnf, BatchRfSatChecker};

/// All built-in checkers, one per [`CheckerKind`], for cross-validation
/// loops.
#[must_use]
pub fn all_batch_checkers() -> Vec<Box<dyn BatchChecker>> {
    CheckerKind::ALL
        .iter()
        .map(|kind| kind.build_batch())
        .collect()
}
