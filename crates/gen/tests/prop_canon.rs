//! Properties of the canonicalization pass (§2.3 symmetries):
//!
//! 1. **Idempotence** — canonicalizing a canonical test changes nothing,
//!    and the fingerprint is stable across the round trip;
//! 2. **Verdict preservation** — every model in the paper's class gives
//!    the same verdict to a test and to its canonical form (this is what
//!    makes checking one representative per orbit sound);
//! 3. **Orbit invariance** — mechanically transformed symmetric variants
//!    (thread permutation, location rotation) land in the same orbit.

use mcm_axiomatic::{BatchChecker, ExplicitChecker};
use mcm_core::{
    AddrExpr, Instruction, LitmusTest, Loc, MemoryModel, Outcome, Program, RegExpr, Thread,
    ThreadId,
};
use mcm_gen::{canon, local, template_suite_extended};
use mcm_models::{named, DigitModel};
use proptest::prelude::*;

fn all_generated() -> Vec<LitmusTest> {
    let mut tests = template_suite_extended(true, true).tests;
    for n in 1..=3 {
        tests.push(local::special_chain_contrast_test(n));
    }
    tests
}

fn model_pool() -> Vec<MemoryModel> {
    let mut models = vec![
        named::sc(),
        named::tso(),
        named::pso(),
        named::ibm370(),
        named::rmo(),
        named::alpha(),
    ];
    models.extend(
        ["M1011", "M4031", "M1432", "M4044", "M1014"]
            .iter()
            .map(|n| n.parse::<DigitModel>().unwrap().to_model()),
    );
    models
}

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

/// Applies an injective location renaming (same transformation as the
/// workspace's symmetry property test).
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn canonicalization_is_idempotent(index in 0usize..1000) {
        let tests = all_generated();
        let test = &tests[index % tests.len()];
        let once = canon::canonicalize(test);
        let twice = canon::canonicalize(&once);
        prop_assert_eq!(once.program(), twice.program(), "program changed: {}", test.name());
        prop_assert_eq!(once.outcome(), twice.outcome(), "outcome changed: {}", test.name());
        prop_assert_eq!(
            canon::fingerprint(test),
            canon::fingerprint(&once),
            "fingerprint unstable: {}", test.name()
        );
    }

    #[test]
    fn canonicalization_preserves_verdicts(
        index in 0usize..1000,
        model_idx in 0usize..11,
    ) {
        let tests = all_generated();
        let test = &tests[index % tests.len()];
        let canonical = canon::canonicalize(test);
        let model = &model_pool()[model_idx];
        let checker = ExplicitChecker::new();
        prop_assert_eq!(
            checker.is_allowed(model, test),
            checker.is_allowed(model, &canonical),
            "canonicalization changed the verdict of {} under {}",
            test.name(),
            model.name()
        );
    }

    #[test]
    fn symmetric_variants_share_an_orbit(
        index in 0usize..1000,
        offset in 1u8..4,
        swap in proptest::bool::ANY,
    ) {
        let tests = all_generated();
        let test = &tests[index % tests.len()];
        let map = move |l: Loc| Loc((l.0 + offset) % 8);
        let mut variant = rename_locations(test, &map);
        if swap {
            variant = swap_threads(&variant);
        }
        prop_assert_eq!(
            canon::fingerprint(test),
            canon::fingerprint(&variant),
            "variant of {} left its orbit",
            test.name()
        );
        prop_assert_eq!(
            canon::canonicalize(test).program(),
            canon::canonicalize(&variant).program(),
            "canonical programs differ for {}",
            test.name()
        );
    }
}

#[test]
fn verdicts_preserved_exhaustively_on_the_suite() {
    // The deterministic backstop: every suite test, three diverse models.
    let checker = ExplicitChecker::new();
    let models = [named::sc(), named::tso(), named::rmo()];
    for test in template_suite_extended(true, false).tests {
        let canonical = canon::canonicalize(&test);
        for model in &models {
            assert_eq!(
                checker.is_allowed(model, &test),
                checker.is_allowed(model, &canonical),
                "verdict changed for {} under {}",
                test.name(),
                model.name()
            );
        }
    }
}
