//! Every checker backend must agree with the sequential reference
//! checker on every (model, test) pair, and every "allowed" verdict must
//! carry a witness that re-validates. This is the workspace's strongest
//! evidence that the SAT encodings implement exactly the five axioms of
//! §2.2.

use mcm_axiomatic::hb::required_edges;
use mcm_axiomatic::rf::enumerate_rf_maps;
use mcm_axiomatic::{BatchChecker, CheckerKind, ExplicitChecker, Verdict};
use mcm_core::{
    ArgPos, Atom, Execution, Formula, LitmusTest, Loc, MemoryModel, Outcome, Program, Reg,
    ThreadId, Value,
};
use proptest::prelude::*;

/// A pool of structurally diverse must-not-reorder functions: the named
/// models of §2.4 plus assorted corner cases.
fn model_pool() -> Vec<MemoryModel> {
    use ArgPos::{First, Second};
    let read_x = || Formula::atom(Atom::IsRead(First));
    let fence = Formula::fence_either;
    let ww = || {
        Formula::and([
            Formula::atom(Atom::IsWrite(First)),
            Formula::atom(Atom::IsWrite(Second)),
        ])
    };
    vec![
        MemoryModel::new("SC", Formula::always()),
        MemoryModel::new("weakest", Formula::never()),
        MemoryModel::new("fences-only", fence()),
        MemoryModel::new(
            "TSO",
            Formula::or([ww(), read_x(), fence()]),
        ),
        MemoryModel::new(
            "PSO",
            Formula::or([
                Formula::and([ww(), Formula::atom(Atom::SameAddr)]),
                read_x(),
                fence(),
            ]),
        ),
        MemoryModel::new(
            "RMO-ish",
            Formula::or([
                Formula::and([
                    Formula::atom(Atom::IsWrite(Second)),
                    Formula::atom(Atom::SameAddr),
                ]),
                Formula::atom(Atom::DataDep),
                Formula::atom(Atom::CtrlDep),
                fence(),
            ]),
        ),
        MemoryModel::new("same-addr-only", Formula::atom(Atom::SameAddr)),
        MemoryModel::new("deps-only", Formula::atom(Atom::DataDep)),
    ]
}

/// One randomly-shaped thread instruction menu entry.
#[derive(Clone, Copy, Debug)]
enum Step {
    Write { loc: u8, value: i64 },
    Read { loc: u8, value: i64 },
    Fence,
    /// read; dep-op; dependent write chain (3 instructions).
    DepChain { loc_read: u8, loc_write: u8, read_value: i64 },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0u8..3, 1i64..3).prop_map(|(loc, value)| Step::Write { loc, value }),
        (0u8..3, 0i64..3).prop_map(|(loc, value)| Step::Read { loc, value }),
        Just(Step::Fence),
        (0u8..3, 0u8..3, 0i64..3).prop_map(|(loc_read, loc_write, read_value)| {
            Step::DepChain {
                loc_read,
                loc_write,
                read_value,
            }
        }),
    ]
}

fn build_test(threads: &[Vec<Step>]) -> Option<LitmusTest> {
    let mut builder = Program::builder();
    let mut outcome = Outcome::new();
    for (t, steps) in threads.iter().enumerate() {
        builder = builder.thread();
        let tid = ThreadId(t as u8);
        let mut next_reg = 1u8;
        for step in steps {
            match *step {
                Step::Write { loc, value } => {
                    builder = builder.write(Loc(loc), Value(value));
                }
                Step::Read { loc, value } => {
                    let reg = Reg(next_reg);
                    next_reg += 1;
                    builder = builder.read(Loc(loc), reg);
                    outcome = outcome.constrain(tid, reg, Value(value));
                }
                Step::Fence => {
                    builder = builder.fence();
                }
                Step::DepChain {
                    loc_read,
                    loc_write,
                    read_value,
                } => {
                    let reg = Reg(next_reg);
                    let tmp = Reg(next_reg + 1);
                    next_reg += 2;
                    builder = builder
                        .read(Loc(loc_read), reg)
                        .dep_const(tmp, reg, Value(1))
                        .write_expr(Loc(loc_write), mcm_core::RegExpr::Reg(tmp));
                    outcome = outcome.constrain(tid, reg, Value(read_value));
                }
            }
        }
    }
    let program = builder.build().ok()?;
    LitmusTest::new("random", program, outcome).ok()
}

/// Whether an "allowed" verdict's witness re-validates: its read-from map
/// is one of the test's value-consistent maps, and its read-from map and
/// coherence order force acyclic happens-before edges under `model` —
/// exactly the edges the witness lists. "Forbidden" verdicts pass.
fn witness_revalidates(model: &MemoryModel, exec: &Execution, verdict: &Verdict) -> bool {
    if !verdict.allowed {
        return verdict.witness.is_none();
    }
    let Some(witness) = &verdict.witness else {
        return false;
    };
    let edges = required_edges(model, exec, &witness.rf, &witness.co);
    enumerate_rf_maps(exec).contains(&witness.rf)
        && edges.admits_partial_order(exec)
        && edges.labeled == witness.hb_edges
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn checkers_agree_on_random_tests(
        t1 in proptest::collection::vec(step_strategy(), 1..4),
        t2 in proptest::collection::vec(step_strategy(), 1..4),
        model_idx in 0usize..8,
    ) {
        let Some(test) = build_test(&[t1, t2]) else {
            return Ok(()); // builder rejected the shape; nothing to check
        };
        let pool = model_pool();
        let model = &pool[model_idx];
        let exec = test.execution();
        let reference = ExplicitChecker::new();
        let expected = reference.check(model, &test);
        let expected_row = reference.check_all(&test, &pool);
        prop_assert!(witness_revalidates(model, &exec, &expected));
        for kind in CheckerKind::ALL {
            let checker = kind.build_batch();
            // The one-model row.
            let verdict = checker.check(model, &test);
            prop_assert_eq!(
                verdict.allowed, expected.allowed,
                "{} disagrees with the reference on {} under {}", kind, test, model
            );
            prop_assert!(
                witness_revalidates(model, &exec, &verdict),
                "{} witness for {} under {} does not re-validate", kind, test, model
            );
            // The whole pool row.
            let row = checker.check_all(&test, &pool);
            for ((pool_model, verdict), expected) in pool.iter().zip(&row).zip(&expected_row) {
                prop_assert_eq!(
                    verdict.allowed, expected.allowed,
                    "{} row disagrees with the reference on {} under {}", kind, test, pool_model
                );
                prop_assert!(
                    witness_revalidates(pool_model, &exec, verdict),
                    "{} row witness for {} under {} does not re-validate", kind, test, pool_model
                );
            }
        }
    }

    #[test]
    fn allowed_never_shrinks_for_weaker_models(
        t1 in proptest::collection::vec(step_strategy(), 1..4),
        t2 in proptest::collection::vec(step_strategy(), 1..4),
    ) {
        // SC is the strongest model in the class: anything SC allows, every
        // other pool model allows too (their F is weaker pointwise).
        let Some(test) = build_test(&[t1, t2]) else { return Ok(()); };
        let checker = ExplicitChecker::new();
        let sc = MemoryModel::new("SC", Formula::always());
        if checker.is_allowed(&sc, &test) {
            for model in &model_pool() {
                prop_assert!(
                    checker.is_allowed(model, &test),
                    "{} forbids an SC-allowed outcome of {}", model, test
                );
            }
        }
    }
}
