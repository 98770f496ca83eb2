//! Properties of the test-major batched checking core:
//!
//! 1. **Cell agreement** — `BatchChecker::check_all` returns exactly the
//!    per-cell reference `ExplicitChecker` verdicts for all 36 Figure-4
//!    models, on sampled tests of at most 3 accesses (with fences and
//!    dependency idioms in the sample space), for every
//!    `CheckerKind::build_batch` backend;
//! 2. **Witness validity** — every batched "allowed" verdict carries a
//!    witness whose forced edges admit a partial order; the explicit
//!    backend's witness *equals* the per-cell explicit witness (same
//!    `rf`, `co` and labeled happens-before edges);
//! 3. **Shuffled 90-model rows** — the same two properties on rows of 90
//!    models drawn with repetition from the 90-model space in random
//!    order, so model grouping and the per-rf SAT checker's reuse of a
//!    satisfying assignment both fire. The tests are the
//!    leaders of up to 4 accesses that SC forbids and the weakest model
//!    allows, each also with a third thread repeating a write some read
//!    takes its value from, so that read has two sources and a model can
//!    be refused by one read-from map and admitted by a later one;
//! 4. **Restriction** — the 90-model streamed sweep, restricted to the 36
//!    dependency-free models, reproduces the Figure-4 sweep exactly, row
//!    for row;
//! 5. **Whole grid** — the full Figure-4 sweep (36 models × the complete
//!    comparison suite) through the batched explicit checker equals the
//!    per-cell sweep bit for bit, and on its first 12 tests the per-rf
//!    SAT rows agree with the per-cell reference cell for cell.

use std::sync::OnceLock;

use mcm_axiomatic::{BatchChecker, BatchExplicitChecker, CheckerKind, ExplicitChecker};
use mcm_core::{AddrExpr, Formula, Instruction, LitmusTest, MemoryModel, Program, RegExpr, Thread};
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

/// The orbit leaders of two threads of at most 2 accesses each whose
/// outcome SC forbids and the weakest model allows: the rows where
/// models differ, so every read-from map has something to refuse.
fn distinguishing_tests() -> &'static [LitmusTest] {
    static TESTS: OnceLock<Vec<LitmusTest>> = OnceLock::new();
    TESTS.get_or_init(|| {
        let sc = MemoryModel::new("SC", Formula::always());
        let weakest = MemoryModel::new("weakest", Formula::never());
        let checker = ExplicitChecker::new();
        leaders(&StreamBounds {
            max_accesses_per_thread: 2,
            threads: 2,
            max_locs: 2,
            include_fences: true,
            include_deps: true,
        })
        .filter(|t| !checker.is_allowed(&sc, t) && checker.is_allowed(&weakest, t))
        .collect()
    })
}

/// `test` plus a thread that repeats its `k`-th write (cyclically) among
/// those some read takes its value from, so that read has a second
/// source later in enumeration order: the test has several read-from
/// maps, and a model refused by the first can be admitted by a later one.
fn with_twin_writer(test: &LitmusTest, k: usize) -> LitmusTest {
    let exec = test.execution();
    let read_from: Vec<_> = exec
        .writes()
        .filter(|w| {
            exec.reads()
                .any(|r| (r.loc(), r.value()) == (w.loc(), w.value()))
        })
        .collect();
    if read_from.is_empty() {
        return test.clone();
    }
    let write = read_from[k % read_from.len()];
    let twin = Instruction::Write {
        addr: AddrExpr::Loc(write.loc().expect("writes have a location")),
        val: RegExpr::Const(write.value().expect("writes have a value")),
    };
    let mut threads = test.program().threads.clone();
    threads.push(Thread {
        instructions: vec![twin],
    });
    LitmusTest::new(test.name(), Program { threads }, test.outcome().clone())
        .expect("a constant write keeps the test well-formed")
}

/// Checks every `build_batch` backend's row against the per-cell
/// explicit verdicts: same verdicts in model order, a realisable witness
/// on every "allowed" cell, and the explicit backend's exact witness.
fn rows_agree_with_per_cell(
    test: &LitmusTest,
    models: &[MemoryModel],
) -> Result<(), TestCaseError> {
    let per_cell = ExplicitChecker::new();
    let expected: Vec<_> = models.iter().map(|m| per_cell.check(m, test)).collect();
    let exec = test.execution();
    for kind in CheckerKind::ALL {
        let batch = kind.build_batch();
        let verdicts = batch.check_all(test, models);
        prop_assert_eq!(verdicts.len(), models.len());
        for ((model, verdict), expected) in models.iter().zip(&verdicts).zip(&expected) {
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
                let edges =
                    mcm_axiomatic::hb::required_edges(model, &exec, &witness.rf, &witness.co);
                prop_assert!(
                    edges.admits_partial_order(&exec),
                    "witness of {} on {} under {} is not realisable",
                    batch.name(),
                    test.name(),
                    model.name()
                );
                // The explicit backend visits candidates in the
                // per-cell order, so its witness is the same one.
                if kind == CheckerKind::Explicit {
                    let cell = expected.witness.as_ref().expect("allowed per cell");
                    let at = format!("{} on {}", model.name(), test.name());
                    prop_assert_eq!(&witness.rf, &cell.rf, "rf of {}", at);
                    prop_assert_eq!(&witness.co, &cell.co, "co of {}", at);
                    prop_assert_eq!(&witness.hb_edges, &cell.hb_edges, "hb edges of {}", at);
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn batch_verdicts_equal_per_cell_verdicts(index in 0usize..10_000) {
        let tests = sampled_tests();
        rows_agree_with_per_cell(&tests[index % tests.len()], &paper::digit_space_models(false))?;
    }

    #[test]
    fn shuffled_ninety_model_rows_equal_per_cell_verdicts(
        index in 0usize..10_000,
        twin in 0usize..4,
        picks in proptest::collection::vec(0usize..90, 90),
    ) {
        let tests = distinguishing_tests();
        let test = &tests[index % tests.len()];
        let space = paper::digit_space_models(true);
        let row: Vec<MemoryModel> = picks.iter().map(|&i| space[i].clone()).collect();
        rows_agree_with_per_cell(test, &row)?;
        rows_agree_with_per_cell(&with_twin_writer(test, twin), &row)?;
    }
}

#[test]
fn every_batched_build_reports_row_stats() {
    // Every kind's `build_batch` is natively test-major: it shares work
    // across the row and therefore reports `BatchStats` for it.
    let models = paper::digit_space_models(false);
    let test = &sampled_tests()[0];
    for kind in CheckerKind::ALL {
        let batch = kind.build_batch();
        let _ = batch.check_all(test, &models);
        let stats = batch
            .batch_stats()
            .unwrap_or_else(|| panic!("{} build_batch reports no row stats", kind.name()));
        assert_eq!((stats.rows, stats.models_checked), (1, models.len() as u64));
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

/// Zero verdict mismatches between two sweeps of the same grid.
fn assert_same_verdicts(label: &str, a: &Exploration, b: &Exploration) {
    let mismatches: usize = a
        .verdicts
        .iter()
        .zip(&b.verdicts)
        .map(|(x, y)| x.diff_indices(y).len())
        .sum();
    assert_eq!(mismatches, 0, "{label}");
}

#[test]
fn figure4_grid_batched_equals_per_cell() {
    let models = paper::digit_space_models(false);
    let tests = paper::comparison_tests(false);
    let config = EngineConfig {
        jobs: Some(1),
        ..EngineConfig::default()
    };
    let sweep = |tests: &[LitmusTest], make: &(dyn Fn() -> Box<dyn BatchChecker> + Sync)| {
        Exploration::run_engine(models.clone(), tests.to_vec(), make, &config, None)
    };

    let (per_cell, per_cell_stats) = sweep(&tests, &|| Box::new(ExplicitChecker::new()));
    let (batched, batched_stats) = sweep(&tests, &|| Box::new(BatchExplicitChecker::new()));
    assert_same_verdicts(
        "the batched sweep must be bit-identical to the per-cell sweep",
        &per_cell,
        &batched,
    );
    assert_eq!(per_cell_stats.checker_calls, batched_stats.checker_calls);
    assert!(batched_stats.batch.rows > 0, "the batched path must batch");

    let grid = &tests[..12];
    let (per_cell, _) = sweep(grid, &|| Box::new(ExplicitChecker::new()));
    let (per_rf, per_rf_stats) = sweep(grid, &|| CheckerKind::Sat.build_batch());
    assert_same_verdicts(
        "per-rf row SAT must agree with the per-cell reference",
        &per_cell,
        &per_rf,
    );
    assert!(per_rf_stats.batch.assumption_solves > 0);
}
