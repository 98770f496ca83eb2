//! Agreement of the operational reference machines with the axiomatic
//! layer, machine by machine and checker by checker.
//!
//! The machines explore concrete interleavings / buffer schedules and
//! know nothing of happens-before; the axiomatic checkers know nothing of
//! machine states. On every catalog test (Test A, L1–L9, SB, MP, LB,
//! CoRR, IRIW) each machine must coincide with its axiomatic model under
//! **every** checker — each [`mcm_axiomatic::CheckerKind`] backend and the
//! sequential [`mcm_axiomatic::ExplicitChecker`] reference — both cell by
//! cell and on the whole four-model machine row.

use mcm_axiomatic::{BatchChecker, CheckerKind, ExplicitChecker};
use mcm_core::{LitmusTest, MemoryModel};
use mcm_models::{catalog, named};
use mcm_operational::{ibm370_allows, pso_allows, sc_allows, tso_allows};

/// An operational machine's admissibility predicate.
type Machine = fn(&LitmusTest) -> bool;

/// The four machines and their axiomatic counterparts.
fn machine_models() -> Vec<(&'static str, Machine, MemoryModel)> {
    vec![
        ("interleaving-SC", sc_allows as Machine, named::sc()),
        ("store-buffer-TSO", tso_allows, named::tso()),
        ("no-forwarding-IBM370", ibm370_allows, named::ibm370()),
        ("per-location-PSO", pso_allows, named::pso()),
    ]
}

/// Every backend, then the reference.
fn every_checker() -> Vec<Box<dyn BatchChecker>> {
    CheckerKind::ALL
        .into_iter()
        .map(CheckerKind::build_batch)
        .chain([Box::new(ExplicitChecker::new()) as Box<dyn BatchChecker>])
        .collect()
}

#[test]
fn every_checker_agrees_with_every_machine_on_the_catalog() {
    let machines = machine_models();
    let models: Vec<MemoryModel> = machines.iter().map(|(_, _, m)| m.clone()).collect();
    for checker in every_checker() {
        for test in catalog::all_tests() {
            let row = checker.check_all(&test, &models);
            for ((machine_name, allows, model), verdict) in machines.iter().zip(&row) {
                let operational = allows(&test);
                assert_eq!(
                    checker.is_allowed(model, &test),
                    operational,
                    "{}: {machine_name} disagrees with the {} checker on {}\n{test}",
                    model.name(),
                    checker.name(),
                    test.name()
                );
                assert_eq!(
                    verdict.allowed,
                    operational,
                    "{}: {machine_name} disagrees with the {} checker's row on {}\n{test}",
                    model.name(),
                    checker.name(),
                    test.name()
                );
            }
        }
    }
}

#[test]
fn digit_aliases_of_the_machines_agree_too() {
    // The machines also pin down the digit models the paper identifies
    // them with: M4444 = SC, M4044 = TSO, M4144 = IBM370, M1044 = PSO.
    let aliases: Vec<(Machine, &str)> = vec![
        (sc_allows, "M4444"),
        (tso_allows, "M4044"),
        (ibm370_allows, "M4144"),
        (pso_allows, "M1044"),
    ];
    let models: Vec<MemoryModel> = aliases
        .iter()
        .map(|(_, name)| {
            name.parse::<mcm_models::DigitModel>()
                .expect("alias digits are valid")
                .to_model()
        })
        .collect();
    for batch in every_checker() {
        for test in catalog::all_tests() {
            let verdicts = batch.check_all(&test, &models);
            for ((allows, name), verdict) in aliases.iter().zip(&verdicts) {
                assert_eq!(
                    verdict.allowed,
                    allows(&test),
                    "digit alias {name} disagrees with its machine on {} ({})",
                    test.name(),
                    batch.name()
                );
            }
        }
    }
}
