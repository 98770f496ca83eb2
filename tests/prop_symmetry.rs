//! §2.3 requires every predicate to "preserve some symmetry, such that a
//! read can be permuted with any other read (and a write by any other
//! write)". For our predicate set that means verdicts are invariant under
//! renaming locations and permuting threads. These properties exercise the
//! whole pipeline: program construction, dataflow, formula evaluation and
//! the checkers.

use litmus_mcm::axiomatic::{BatchChecker, ExplicitChecker};
use litmus_mcm::core::{
    AddrExpr, Instruction, LitmusTest, Loc, MemoryModel, Outcome, Program, RegExpr, Thread,
    ThreadId,
};
use litmus_mcm::models::{catalog, named, DigitModel};
use proptest::prelude::*;

fn rename_loc_in_expr(expr: &RegExpr, map: &dyn Fn(Loc) -> Loc) -> RegExpr {
    match expr {
        RegExpr::Const(v) => RegExpr::Const(*v),
        RegExpr::Reg(r) => RegExpr::Reg(*r),
        RegExpr::LocAddr(l) => RegExpr::LocAddr(map(*l)),
        RegExpr::Add(a, b) => RegExpr::Add(
            Box::new(rename_loc_in_expr(a, map)),
            Box::new(rename_loc_in_expr(b, map)),
        ),
        RegExpr::Sub(a, b) => RegExpr::Sub(
            Box::new(rename_loc_in_expr(a, map)),
            Box::new(rename_loc_in_expr(b, map)),
        ),
    }
}

fn rename_locations(test: &LitmusTest, map: &dyn Fn(Loc) -> Loc) -> LitmusTest {
    let threads = test
        .program()
        .threads
        .iter()
        .map(|t| Thread {
            instructions: t
                .instructions
                .iter()
                .map(|i| match i {
                    Instruction::Read { addr, dst } => Instruction::Read {
                        addr: match addr {
                            AddrExpr::Loc(l) => AddrExpr::Loc(map(*l)),
                            AddrExpr::Reg(r) => AddrExpr::Reg(*r),
                        },
                        dst: *dst,
                    },
                    Instruction::Write { addr, val } => Instruction::Write {
                        addr: match addr {
                            AddrExpr::Loc(l) => AddrExpr::Loc(map(*l)),
                            AddrExpr::Reg(r) => AddrExpr::Reg(*r),
                        },
                        val: rename_loc_in_expr(val, map),
                    },
                    Instruction::Op { dst, expr } => Instruction::Op {
                        dst: *dst,
                        expr: rename_loc_in_expr(expr, map),
                    },
                    other => other.clone(),
                })
                .collect(),
        })
        .collect();
    let mut outcome = Outcome::new();
    for &(t, r, v) in test.outcome().constraints() {
        outcome = outcome.constrain(t, r, v);
    }
    LitmusTest::new(test.name(), Program { threads }, outcome)
        .expect("renaming preserves well-formedness")
}

fn swap_threads(test: &LitmusTest) -> LitmusTest {
    let mut threads = test.program().threads.clone();
    threads.reverse();
    let n = test.program().threads.len() as u8;
    let mut outcome = Outcome::new();
    for &(t, r, v) in test.outcome().constraints() {
        outcome = outcome.constrain(ThreadId(n - 1 - t.0), r, v);
    }
    LitmusTest::new(test.name(), Program { threads }, outcome)
        .expect("thread permutation preserves well-formedness")
}

fn all_models() -> Vec<MemoryModel> {
    let mut models = vec![
        named::sc(),
        named::tso(),
        named::pso(),
        named::ibm370(),
        named::rmo(),
        named::alpha(),
    ];
    models.extend(
        ["M1011", "M4031", "M1432"]
            .iter()
            .map(|n| n.parse::<DigitModel>().unwrap().to_model()),
    );
    models
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn verdicts_are_invariant_under_location_renaming(
        test_idx in 0usize..15,
        offset in 1u8..4,
    ) {
        let tests = catalog::all_tests();
        let test = &tests[test_idx % tests.len()];
        // A permutation of locations: rotate within the first 8 names.
        let map = move |l: Loc| Loc((l.0 + offset) % 8);
        let renamed = rename_locations(test, &map);
        let checker = ExplicitChecker::new();
        for model in all_models() {
            prop_assert_eq!(
                checker.is_allowed(&model, test),
                checker.is_allowed(&model, &renamed),
                "renaming changed the verdict of {} under {}",
                test.name(),
                model.name()
            );
        }
    }

    #[test]
    fn verdicts_are_invariant_under_thread_permutation(test_idx in 0usize..15) {
        let tests = catalog::all_tests();
        let test = &tests[test_idx % tests.len()];
        let swapped = swap_threads(test);
        let checker = ExplicitChecker::new();
        for model in all_models() {
            prop_assert_eq!(
                checker.is_allowed(&model, test),
                checker.is_allowed(&model, &swapped),
                "thread swap changed the verdict of {} under {}",
                test.name(),
                model.name()
            );
        }
    }
}
