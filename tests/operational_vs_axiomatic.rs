//! Cross-validation of the axiomatic semantics against *operational*
//! reference machines — evidence fully independent of the happens-before
//! construction:
//!
//! * SC (the paper's `F = True`) must coincide with Lamport's
//!   interleaving machine;
//! * TSO (`F_TSO`, digit model M4044) must coincide with the store-buffer
//!   machine — the classic x86-TSO operational/axiomatic equivalence.
//!
//! Checked over the paper catalog, the full dependency-aware template
//! suite, and the naive bounded universe.

use litmus_mcm::axiomatic::{BatchChecker, ExplicitChecker};
use litmus_mcm::core::LitmusTest;
use litmus_mcm::gen::stream::{leaders, StreamBounds};
use litmus_mcm::models::{catalog, named};
use litmus_mcm::operational::{sc_allows, tso_allows};

fn check_corpus(tests: &[LitmusTest], corpus_name: &str) {
    let checker = ExplicitChecker::new();
    let sc_model = named::sc();
    let tso_model = named::tso();
    for test in tests {
        let axiomatic_sc = checker.is_allowed(&sc_model, test);
        let operational_sc = sc_allows(test);
        assert_eq!(
            axiomatic_sc,
            operational_sc,
            "{corpus_name}/{}: axiomatic SC says {axiomatic_sc}, interleaving machine says \
             {operational_sc}\n{test}",
            test.name()
        );
        let axiomatic_tso = checker.is_allowed(&tso_model, test);
        let operational_tso = tso_allows(test);
        assert_eq!(
            axiomatic_tso,
            operational_tso,
            "{corpus_name}/{}: axiomatic TSO says {axiomatic_tso}, store-buffer machine says \
             {operational_tso}\n{test}",
            test.name()
        );
    }
}

#[test]
fn catalog_agrees() {
    check_corpus(&catalog::all_tests(), "catalog");
}

#[test]
fn template_suite_agrees() {
    let suite = litmus_mcm::explore::paper::comparison_tests(true);
    check_corpus(&suite, "template-suite");
}

#[test]
fn naive_universe_agrees() {
    let bounds = StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: true,
        include_deps: false,
    };
    let tests = leaders(&bounds).collect::<Vec<_>>();
    assert!(tests.len() > 500);
    check_corpus(&tests, "naive");
}

#[test]
fn ibm370_and_pso_machines_agree_with_their_axiomatic_models() {
    use litmus_mcm::operational::{ibm370_allows, pso_allows};
    let checker = ExplicitChecker::new();
    let ibm = named::ibm370();
    let pso = named::pso();
    let mut corpus = catalog::all_tests();
    corpus.extend(litmus_mcm::explore::paper::comparison_tests(true));
    for test in &corpus {
        assert_eq!(
            checker.is_allowed(&ibm, test),
            ibm370_allows(test),
            "IBM370 mismatch on {}\n{test}",
            test.name()
        );
        assert_eq!(
            checker.is_allowed(&pso, test),
            pso_allows(test),
            "PSO mismatch on {}\n{test}",
            test.name()
        );
    }
}

#[test]
fn ibm370_and_pso_machines_agree_on_the_naive_universe() {
    use litmus_mcm::operational::{ibm370_allows, pso_allows};
    let checker = ExplicitChecker::new();
    let ibm = named::ibm370();
    let pso = named::pso();
    let bounds = StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: true,
        include_deps: false,
    };
    for test in leaders(&bounds) {
        assert_eq!(
            checker.is_allowed(&ibm, &test),
            ibm370_allows(&test),
            "IBM370 mismatch on {}\n{test}",
            test.name()
        );
        assert_eq!(
            checker.is_allowed(&pso, &test),
            pso_allows(&test),
            "PSO mismatch on {}\n{test}",
            test.name()
        );
    }
}
