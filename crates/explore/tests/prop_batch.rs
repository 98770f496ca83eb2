//! Properties of the test-major batched checking core:
//!
//! 1. **Cell agreement** — `BatchChecker::check_all` returns exactly the
//!    per-cell `Checker::check` verdicts for all 36 Figure-4 models, on
//!    sampled tests of at most 3 accesses (with fences and dependency
//!    idioms in the sample space), for both the explicit and the SAT
//!    (assumption-selected) backends;
//! 2. **Witness validity** — every batched "allowed" verdict carries a
//!    witness whose forced edges admit a partial order; the explicit
//!    backend's witness *equals* the per-cell explicit witness (same
//!    `rf`, `co` and labeled happens-before edges);
//! 3. **Restriction** — the 90-model streamed sweep, restricted to the 36
//!    dependency-free models, reproduces the Figure-4 sweep exactly, row
//!    for row.

use mcm_axiomatic::{
    BatchChecker, BatchExplicitChecker, BatchSatChecker, Checker, ExplicitChecker,
};
use mcm_core::LitmusTest;
use mcm_explore::paper;
use mcm_explore::{EngineConfig, Exploration, StreamControl};
use mcm_gen::stream::{leaders, StreamBounds};
use proptest::prelude::*;

/// Every orbit leader of at most 3 accesses, with fences and data
/// dependencies available to the enumeration.
fn sampled_tests() -> Vec<LitmusTest> {
    let bounds = StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: true,
        include_deps: true,
    };
    let tests: Vec<LitmusTest> = leaders(&bounds)
        .filter(|t| t.program().access_count() <= 3)
        .collect();
    assert!(tests.len() > 100, "sample space is non-trivial");
    tests
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn batch_verdicts_equal_per_cell_verdicts(index in 0usize..10_000) {
        let tests = sampled_tests();
        let test = &tests[index % tests.len()];
        let models = paper::digit_space_models(false);
        let per_cell = ExplicitChecker::new();
        let expected: Vec<_> = models.iter().map(|m| per_cell.check(m, test)).collect();
        for batch in [
            Box::new(BatchExplicitChecker::new()) as Box<dyn BatchChecker>,
            Box::new(BatchSatChecker::new()),
        ] {
            let verdicts = batch.check_all(test, &models);
            prop_assert_eq!(verdicts.len(), models.len());
            for ((model, verdict), expected) in
                models.iter().zip(&verdicts).zip(&expected)
            {
                prop_assert_eq!(
                    verdict.allowed,
                    expected.allowed,
                    "{} disagrees with per-cell explicit on {} under {}",
                    batch.name(),
                    test.name(),
                    model.name()
                );
                prop_assert_eq!(
                    verdict.allowed,
                    verdict.witness.is_some(),
                    "allowed verdicts carry witnesses"
                );
                if let Some(witness) = &verdict.witness {
                    let exec = test.execution();
                    let edges =
                        mcm_axiomatic::hb::required_edges(model, &exec, &witness.rf, &witness.co);
                    prop_assert!(
                        edges.admits_partial_order(&exec),
                        "witness of {} on {} is not realisable",
                        batch.name(),
                        test.name()
                    );
                    // The explicit backend visits candidates in the
                    // per-cell order, so its witness is the same one.
                    if batch.name() == "batch-explicit" {
                        let cell = expected.witness.as_ref().expect("allowed per cell");
                        let at = format!("{} on {}", model.name(), test.name());
                        prop_assert_eq!(&witness.rf, &cell.rf, "rf of {}", at);
                        prop_assert_eq!(&witness.co, &cell.co, "co of {}", at);
                        prop_assert_eq!(
                            &witness.hb_edges,
                            &cell.hb_edges,
                            "hb edges of {}",
                            at
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn checker_kinds_report_their_batching_capability_honestly() {
    // `natively_batched` must track reality: a natively batched build
    // shares work across the row and therefore reports `BatchStats`; a
    // per-cell adapter reports none. (Catches drift between the
    // capability flag and `build_batch`.)
    use mcm_axiomatic::CheckerKind;
    let models = paper::digit_space_models(false);
    let test = &sampled_tests()[0];
    for kind in CheckerKind::ALL {
        let batch = kind.build_batch();
        let _ = batch.check_all(test, &models);
        assert_eq!(
            batch.batch_stats().is_some(),
            kind.natively_batched(),
            "{} capability flag disagrees with its build_batch implementation",
            kind.name()
        );
    }
}

#[test]
fn ninety_model_sweep_restricts_to_the_figure4_sweep() {
    let bounds = StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: true,
        include_deps: true,
    };
    let config = EngineConfig::default();
    let (full, _) = Exploration::run_engine_streaming_with(
        paper::digit_space_models(true),
        leaders(&bounds),
        || Box::new(BatchExplicitChecker::new()),
        &config,
        None,
        StreamControl::default(),
    )
    .expect("a cold sweep cannot fail to resume");
    let (figure4, _) = Exploration::run_engine_streaming_with(
        paper::digit_space_models(false),
        leaders(&bounds),
        || Box::new(BatchExplicitChecker::new()),
        &config,
        None,
        StreamControl::default(),
    )
    .expect("a cold sweep cannot fail to resume");
    assert_eq!(full.models.len(), 90);
    assert_eq!(figure4.models.len(), 36);
    assert_eq!(full.tests.len(), figure4.tests.len());
    // Every Figure-4 model appears in the 90-model space under the same
    // name; its verdict row must be bit-identical.
    for (i, model) in figure4.models.iter().enumerate() {
        let j = full
            .models
            .iter()
            .position(|m| m.name() == model.name())
            .expect("the 36 dependency-free models are a subset of the 90");
        assert_eq!(
            figure4.verdicts[i], full.verdicts[j],
            "restriction differs for {}",
            model.name()
        );
    }
}
