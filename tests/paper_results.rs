//! Pins every quantitative claim of the paper's §4.2 against the
//! exploration pipeline (experiment ids E5–E8 in DESIGN.md).

use litmus_mcm::explore::{distinguish, paper};
use litmus_mcm::gen::count;
use litmus_mcm::models::DigitModel;
use litmus_mcm::query::{ModelSpec, Query, SweepReport, TestSource};

/// The full §4.2 sweep: the 90-model space over the with-dependencies
/// comparison suite.
fn ninety_model_sweep() -> SweepReport {
    Query::sweep()
        .models(ModelSpec::Full90)
        .tests(TestSource::TemplateSuite { with_deps: true })
        .run()
        .expect("the 90-model sweep runs")
}

/// §4.2: "there are two available choices for write-write, three choices
/// for write-read and read-write and all five choices are available for
/// read-read, which result in 90 possible memory models."
#[test]
fn ninety_models_in_the_space() {
    assert_eq!(DigitModel::all().len(), 90);
    assert_eq!(DigitModel::all_without_dependencies().len(), 36);
}

/// §3.4 / Corollary 1: 230 tests with `DataDep`, 124 without.
#[test]
fn corollary1_bounds() {
    assert_eq!(count::paper_bound(true), 230);
    assert_eq!(count::paper_bound(false), 124);
}

/// §4.2: "Out of the 90 different models, eight pairs of models are
/// equivalent. All equivalent pairs of models are models that differ only
/// with the choice of whether to allow reordering of writes with later
/// reads to the same address."
#[test]
fn eight_equivalent_pairs_differing_only_in_wr_same_addr() {
    let report = ninety_model_sweep();
    assert_eq!(report.equivalent_pairs.len(), 8, "expected 8 equivalent pairs");

    for (a, b) in &report.equivalent_pairs {
        let da: DigitModel = a.split_whitespace().next().unwrap().parse().unwrap();
        let db: DigitModel = b.split_whitespace().next().unwrap().parse().unwrap();
        assert_eq!(da.ww, db.ww, "{a} vs {b}: ww must match");
        assert_eq!(da.rw, db.rw, "{a} vs {b}: rw must match");
        assert_eq!(da.rr, db.rr, "{a} vs {b}: rr must match");
        assert_ne!(da.wr, db.wr, "{a} vs {b}: wr must differ");
        // The differing choice is specifically 0 (always) vs 1 (different
        // addresses) — i.e. whether a write may reorder with a later read
        // of the same address.
        let mut wr = [da.wr.digit(), db.wr.digit()];
        wr.sort_unstable();
        assert_eq!(wr, [0, 1], "{a} vs {b}");
    }

    // §4.2's analysis, made precise: the pairs are exactly those where
    // neither the L8 shape (needs rr ∈ {2,3,4}) nor the L9 shape (needs
    // rw ∈ {3,4} and ww = 1, or any rw with ww = 4 blocked) can witness
    // the write-read-same-address reordering: rr ∈ {0,1} and
    // (rw = 1 or ww = 4).
    let expected = [
        ("M1010", "M1110"),
        ("M1011", "M1111"),
        ("M4010", "M4110"),
        ("M4011", "M4111"),
        ("M4030", "M4130"),
        ("M4031", "M4131"),
        ("M4040", "M4140"),
        ("M4041", "M4141"),
    ];
    for (a, b) in expected {
        assert!(
            report.equivalent_pairs.iter().any(|(x, y)| {
                let x = x.split_whitespace().next().unwrap();
                let y = y.split_whitespace().next().unwrap();
                (x == a && y == b) || (x == b && y == a)
            }),
            "missing expected pair ({a}, {b})"
        );
    }
}

/// §4.2: "a set of nine different litmus tests is sufficient to contrast
/// any two non-equivalent memory models in this space" — and, beyond the
/// paper, nine is *minimum* (SAT certificate).
#[test]
fn nine_tests_suffice_and_are_minimum() {
    let report = ninety_model_sweep();
    assert_eq!(
        report.nine_tests_sufficient,
        Some(true),
        "L1–L9 must distinguish all non-equivalent models"
    );
    assert_eq!(report.nine_test_indices.len(), 9);
    let minimal = report.minimal_set.as_ref().expect("a materialized sweep");
    assert_eq!(minimal.tests.len(), 9, "minimum distinguishing set size");
    assert!(minimal.proved_minimum);
    // Cross-check the certificate boundary directly.
    assert!(!distinguish::cover_of_size_exists(&report.exploration, 8));
    assert!(distinguish::cover_of_size_exists(&report.exploration, 9));
}

/// The exploration is deterministic and the parallel path agrees with the
/// sequential one (spot-checked on the dependency-free space).
#[test]
fn parallel_and_sequential_agree_on_the_nodep_space() {
    use litmus_mcm::axiomatic::{BatchExplicitChecker, ExplicitChecker};
    use litmus_mcm::explore::{EngineConfig, Exploration};
    let models = paper::digit_space_models(false);
    let tests = paper::comparison_tests(false);
    let seq = Exploration::run(models.clone(), tests.clone(), &ExplicitChecker::new());
    let par = Exploration::run_engine(
        models,
        tests,
        || Box::new(BatchExplicitChecker::new()),
        &EngineConfig::default(),
        None,
    )
    .0;
    assert_eq!(seq.verdicts, par.verdicts);
}
