//! Enumeration-based admissibility checker.
//!
//! Enumerates every read-from map and coherence order, builds the forced
//! happens-before edges and checks for a consistent partial order. Exact
//! and fast on litmus-sized executions; serves both as the exploration
//! engine's workhorse and as a SAT-free cross-check of the paper's
//! SAT-based tool architecture.

use mcm_core::{Execution, MemoryModel};

use crate::batch::BatchChecker;
use crate::checker::{Verdict, Witness};
use crate::co::{enumerate_co_orders, CoOrder};
use crate::hb::required_edges;
use crate::rf::{enumerate_rf_maps, RfMap};

/// Admissibility by exhaustive `(rf, co)` enumeration, one cell at a time.
///
/// The sequential reference: it shares no work across a row and records
/// no row metrics, so every batched checker and engine path is compared
/// against it.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExplicitChecker;

impl ExplicitChecker {
    /// Creates the checker (stateless).
    #[must_use]
    pub fn new() -> Self {
        ExplicitChecker
    }
}

impl BatchChecker for ExplicitChecker {
    fn name(&self) -> &'static str {
        "explicit"
    }

    fn check_all_executions(&self, exec: &Execution, models: &[MemoryModel]) -> Vec<Verdict> {
        let rf_maps = enumerate_rf_maps(exec);
        let co_orders = enumerate_co_orders(exec);
        models
            .iter()
            .map(|model| check_cell(model, exec, &rf_maps, &co_orders))
            .collect()
    }
}

/// The first `(rf, co)` candidate, in enumeration order, whose forced
/// edges admit a partial order under `model`.
fn check_cell(
    model: &MemoryModel,
    exec: &Execution,
    rf_maps: &[RfMap],
    co_orders: &[CoOrder],
) -> Verdict {
    for rf in rf_maps {
        for co in co_orders {
            let edges = required_edges(model, exec, rf, co);
            if edges.admits_partial_order(exec) {
                return Verdict::allowed(Witness {
                    rf: rf.clone(),
                    co: co.clone(),
                    hb_edges: edges.labeled,
                });
            }
        }
    }
    Verdict::forbidden()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_core::{Formula, LitmusTest, Loc, Outcome, Program, Reg, ThreadId, Value};

    fn sc() -> MemoryModel {
        MemoryModel::new("SC", Formula::always())
    }

    fn weakest() -> MemoryModel {
        MemoryModel::new("weakest", Formula::never())
    }

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

    #[test]
    fn sb_forbidden_under_sc_allowed_when_unordered() {
        let checker = ExplicitChecker::new();
        assert!(!checker.is_allowed(&sc(), &sb()));
        assert!(checker.is_allowed(&weakest(), &sb()));
    }

    #[test]
    fn allowed_verdicts_carry_witnesses() {
        let checker = ExplicitChecker::new();
        let verdict = checker.check(&weakest(), &sb());
        let witness = verdict.witness.expect("allowed verdict has witness");
        assert_eq!(witness.rf.pairs.len(), 2);
    }

    #[test]
    fn reference_answers_rows_cell_by_cell() {
        let checker: Box<dyn BatchChecker> = Box::new(ExplicitChecker::new());
        let verdicts = checker.check_all(&sb(), &[sc(), weakest()]);
        assert_eq!(checker.name(), "explicit");
        assert!(!verdicts[0].allowed);
        assert!(verdicts[1].allowed);
        assert!(checker.batch_stats().is_none(), "the reference has no row stats");
    }

    #[test]
    fn value_infeasible_outcome_is_forbidden_everywhere() {
        let program = Program::builder()
            .thread()
            .write(Loc::X, Value(1))
            .thread()
            .read(Loc::X, Reg(1))
            .build()
            .unwrap();
        let outcome = Outcome::new().constrain(ThreadId(1), Reg(1), Value(9));
        let test = LitmusTest::new("bad-value", program, outcome).unwrap();
        let checker = ExplicitChecker::new();
        assert!(!checker.is_allowed(&weakest(), &test));
    }

    #[test]
    fn sequential_program_allows_its_sequential_outcome() {
        let program = Program::builder()
            .thread()
            .write(Loc::X, Value(1))
            .read(Loc::X, Reg(1))
            .build()
            .unwrap();
        let outcome = Outcome::new().constrain(ThreadId(0), Reg(1), Value(1));
        let test = LitmusTest::new("seq", program, outcome).unwrap();
        assert!(ExplicitChecker::new().is_allowed(&sc(), &test));
    }
}
