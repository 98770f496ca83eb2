//! Pins the verdicts of Figure 1's Test A and Figure 3's L1–L9 against the
//! named models, as derived by hand from the paper's §4.2 discussion:
//!
//! * L1 probes write-write reordering (allowed iff `ww = 1`);
//! * L2 probes same-address read-read reordering (`rr ∈ {0, 2}`);
//! * L3 probes independent read-read reordering (`rr ≠ 4`);
//! * L4 probes *dependent* read-read reordering (`rr ∈ {0, 1}`);
//! * L5 probes independent read-write reordering (`rw ∈ {1, 3}`);
//! * L6 probes *dependent* read-write reordering (`rw = 1`);
//! * L7 probes write-read reordering to different addresses (`wr ≠ 4`);
//! * L8 probes write-read-same-address given ordered reads
//!   (allowed iff `wr = 0 ∨ rr ∈ {0, 1}`);
//! * L9 probes write-read-same-address given ordered read-writes
//!   (allowed iff `rw = 1 ∨ (wr = 0 ∧ ww = 1)`).
//!
//! Every checker must produce the same table.

use litmus_mcm::axiomatic::{all_batch_checkers, BatchChecker};
use litmus_mcm::core::{LitmusTest, MemoryModel};
use litmus_mcm::models::{catalog, named};

/// (test, [SC, TSO, PSO, IBM370, RMO-nodep, RMO, Alpha] verdicts).
fn expected_table() -> Vec<(LitmusTest, [bool; 7])> {
    vec![
        // name                     SC     TSO    PSO    IBM    M1010  RMO    Alpha
        // Test A probes write-read forwarding to the same address: IBM370
        // orders `W Y; R Y` (its F keeps same-address write-read pairs) so
        // it forbids the outcome; TSO's load forwarding allows it.
        (catalog::test_a(), [false, true, true, false, true, true, true]),
        (catalog::l1(), [false, false, true, false, true, true, true]),
        (catalog::l2(), [false, false, false, false, true, true, true]),
        (catalog::l3(), [false, false, false, false, true, true, true]),
        (catalog::l4(), [false, false, false, false, true, false, true]),
        (catalog::l5(), [false, false, false, false, true, true, true]),
        (catalog::l6(), [false, false, false, false, true, false, false]),
        (catalog::l7(), [false, true, true, true, true, true, true]),
        (catalog::l8(), [false, true, true, false, true, true, true]),
        (catalog::l9(), [false, false, true, false, true, true, true]),
    ]
}

fn models() -> Vec<MemoryModel> {
    vec![
        named::sc(),
        named::tso(),
        named::pso(),
        named::ibm370(),
        named::rmo_without_dependencies(),
        named::rmo(),
        named::alpha(),
    ]
}

#[test]
fn nine_tests_verdicts_match_the_paper() {
    let models = models();
    for checker in all_batch_checkers() {
        for (test, expected) in expected_table() {
            for (model, &want) in models.iter().zip(expected.iter()) {
                let got = checker.is_allowed(model, &test);
                assert_eq!(
                    got,
                    want,
                    "checker `{}`: test {} under {} — expected {}, got {}",
                    checker.name(),
                    test.name(),
                    model.name(),
                    if want { "allowed" } else { "forbidden" },
                    if got { "allowed" } else { "forbidden" },
                );
            }
        }
    }
}

/// The checker ablation's premise: every checker gives the same verdict
/// on the whole catalog under SC, TSO and RMO.
#[test]
fn every_checker_agrees_on_the_catalog() {
    let checkers = all_batch_checkers();
    for test in catalog::all_tests() {
        for model in [named::sc(), named::tso(), named::rmo()] {
            let verdicts: Vec<bool> = checkers
                .iter()
                .map(|checker| checker.is_allowed(&model, &test))
                .collect();
            assert!(
                verdicts.windows(2).all(|w| w[0] == w[1]),
                "checkers disagree on {} under {}: {verdicts:?}",
                test.name(),
                model.name()
            );
        }
    }
}

#[test]
fn classics_behave_as_folklore_says() {
    let checker = litmus_mcm::axiomatic::ExplicitChecker::new();
    // SB allowed on TSO, forbidden on SC.
    assert!(checker.is_allowed(&named::tso(), &catalog::sb()));
    assert!(!checker.is_allowed(&named::sc(), &catalog::sb()));
    // MP forbidden on TSO (no write-write or read-read reordering).
    assert!(!checker.is_allowed(&named::tso(), &catalog::mp()));
    // MP allowed on PSO (writes reorder) and RMO (reads reorder too).
    assert!(checker.is_allowed(&named::pso(), &catalog::mp()));
    assert!(checker.is_allowed(&named::rmo(), &catalog::mp()));
    // LB forbidden on TSO, allowed on RMO.
    assert!(!checker.is_allowed(&named::tso(), &catalog::lb()));
    assert!(checker.is_allowed(&named::rmo(), &catalog::lb()));
    // CoRR forbidden on TSO and even IBM370.
    assert!(!checker.is_allowed(&named::tso(), &catalog::corr()));
    assert!(!checker.is_allowed(&named::ibm370(), &catalog::corr()));
    // IRIW with fenced readers is forbidden across the whole digit space —
    // the class is store-atomic (§2.2 excludes PowerPC-style models), so
    // once the reader threads keep their reads ordered no model lets the
    // two readers disagree about the write order. (A pathological `F =
    // False` model ignores even fences, so the weakest *digit* model — RMO
    // without dependencies, which honours fences — is the right probe.)
    assert!(!checker.is_allowed(
        &named::rmo_without_dependencies(),
        &catalog::iriw_fenced()
    ));
}

#[test]
fn digit_counterparts_agree_on_the_nine_tests() {
    // TSO ≡ M4044, PSO ≡ M1044, IBM370 ≡ M4144, SC ≡ M4444 — verdict-for-
    // verdict on the catalog (full equivalence is established by the
    // exploration suite).
    use litmus_mcm::models::DigitModel;
    let pairs: Vec<(MemoryModel, &str)> = vec![
        (named::sc(), "M4444"),
        (named::tso(), "M4044"),
        (named::pso(), "M1044"),
        (named::ibm370(), "M4144"),
        (named::rmo_without_dependencies(), "M1010"),
        (named::rmo(), "M1032"),
        (named::alpha(), "M1030"),
    ];
    let checker = litmus_mcm::axiomatic::ExplicitChecker::new();
    for (model, digits) in pairs {
        let digit_model = digits.parse::<DigitModel>().unwrap().to_model();
        for test in catalog::all_tests() {
            assert_eq!(
                checker.is_allowed(&model, &test),
                checker.is_allowed(&digit_model, &test),
                "{} vs {} disagree on {}",
                model.name(),
                digits,
                test.name()
            );
        }
    }
}
