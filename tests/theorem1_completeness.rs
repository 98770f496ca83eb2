//! Empirical check of Theorem 1's *completeness*: if two models differ at
//! all, they differ on the template suite.
//!
//! We enumerate a bounded naive universe of litmus tests (2 threads, up to
//! 2 accesses each, 2 locations — thousands of tests) and verify that any
//! pair of digit models distinguished by *some* naive test is also
//! distinguished by the template suite. Theorem 1 proves this for the
//! unbounded universe; the bounded check catches implementation bugs in
//! either the suite or the semantics.

use litmus_mcm::axiomatic::ExplicitChecker;
use litmus_mcm::explore::paper::comparison_tests;
use litmus_mcm::explore::Exploration;
use litmus_mcm::gen::stream::{leaders, StreamBounds};
use litmus_mcm::models::DigitModel;

#[test]
fn naive_distinctions_are_covered_by_the_template_suite() {
    let bounds = StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: true,
        include_deps: false,
    };
    let naive_tests = leaders(&bounds).collect::<Vec<_>>();
    assert!(
        naive_tests.len() > 500,
        "universe too small to be meaningful: {}",
        naive_tests.len()
    );

    // A representative slice of the digit space (full 90×90 over the naive
    // universe would be slow in CI; these cover every digit position).
    let names = [
        "M1010", "M1110", "M4010", "M1044", "M4044", "M4144", "M4444", "M1032", "M1030",
        "M4441", "M1411", "M4034",
    ];
    let models: Vec<_> = names
        .iter()
        .map(|n| n.parse::<DigitModel>().unwrap().to_model())
        .collect();

    let checker = ExplicitChecker::new();
    let naive_expl = Exploration::run(models.clone(), naive_tests, &checker);
    let template_expl = Exploration::run(models, comparison_tests(true), &checker);

    for i in 0..naive_expl.models.len() {
        for j in (i + 1)..naive_expl.models.len() {
            let naive_distinguishes = !naive_expl.distinguishing_tests(i, j).is_empty();
            let template_distinguishes = !template_expl.distinguishing_tests(i, j).is_empty();
            if naive_distinguishes {
                assert!(
                    template_distinguishes,
                    "{} vs {}: naive universe distinguishes them but the template suite does not \
                     — the suite is incomplete",
                    naive_expl.models[i].name(),
                    naive_expl.models[j].name()
                );
            }
        }
    }
}

#[test]
fn template_distinctions_on_equivalent_pairs_never_happen() {
    // Dual direction on the paper's equivalent pairs: the naive universe
    // must not distinguish models the template suite says are equivalent.
    let bounds = StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: true,
        include_deps: false,
    };
    let naive_tests = leaders(&bounds).collect::<Vec<_>>();
    let pairs = [("M1010", "M1110"), ("M4040", "M4140"), ("M4031", "M4131")];
    let checker = ExplicitChecker::new();
    for (a, b) in pairs {
        let models = vec![
            a.parse::<DigitModel>().unwrap().to_model(),
            b.parse::<DigitModel>().unwrap().to_model(),
        ];
        let expl = Exploration::run(models, naive_tests.clone(), &checker);
        assert!(
            expl.distinguishing_tests(0, 1).is_empty(),
            "{a} vs {b} should be equivalent but a bounded naive test separates them"
        );
    }
}

/// Digit-wise monotonicity: making any single choice stricter (digit-wise
/// stronger in the order 0 < 1 < 3 < 4, 0 < 2 < 3, with 1 and 2
/// incomparable) can only shrink the allowed set.
#[test]
fn digitwise_stronger_models_allow_subsets() {
    fn choice_leq(a: u8, b: u8) -> bool {
        // a ≤ b: b's must-not-reorder condition implies a's (b stronger).
        match (a, b) {
            (x, y) if x == y => true,
            (0, _) => true,
            (_, 4) => true,
            (1, 3) | (2, 3) => true,
            _ => false,
        }
    }
    let digits = |m: &DigitModel| [m.ww.digit(), m.wr.digit(), m.rw.digit(), m.rr.digit()];
    let all = DigitModel::all();
    let tests = comparison_tests(true);
    let models: Vec<_> = all.iter().map(DigitModel::to_model).collect();
    let expl = Exploration::run(models, tests, &ExplicitChecker::new());

    let mut checked = 0usize;
    for i in 0..all.len() {
        for j in 0..all.len() {
            if i == j {
                continue;
            }
            let di = digits(&all[i]);
            let dj = digits(&all[j]);
            // i digit-wise weaker-or-equal than j => model j ⊆ model i.
            if di.iter().zip(&dj).all(|(a, b)| choice_leq(*a, *b)) {
                assert!(
                    expl.verdicts[j].subset_of(&expl.verdicts[i]),
                    "{} should allow a subset of {}",
                    all[j].name(),
                    all[i].name()
                );
                checked += 1;
            }
        }
    }
    assert!(checked > 500, "only {checked} comparable pairs checked");
}
