//! Test-major batched sweep vs the per-cell sweep, old against new.
//!
//! Reported before the timed benches run (and asserted, so CI catches
//! regressions):
//!
//! * **verdict identity** — the Figure-4 sweep (36 models × the full
//!   comparison suite) through the batched explicit checker and through
//!   the per-cell adapter produce bit-identical verdict lattices (zero
//!   mismatches), and on a reduced grid the per-cell per-rf SAT checker,
//!   its row form and the monolithic row encoding agree cell for cell;
//! * **amortization** — wall-clock of old (per-cell) vs new (batched)
//!   on the same grid, with the row-collapse counters that explain the
//!   gap: the per-cell path enumerates each test's `(rf, co)` space 36
//!   times, the batched path once.
//!
//! Run with `cargo bench -p mcm-bench --bench batch_sweep`; CI runs it
//! with `-- --test`, which executes everything once, untimed.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, Criterion};
use mcm_axiomatic::{
    BatchChecker, BatchExplicitChecker, BatchSatChecker, CheckerKind, ExplicitChecker, SatChecker,
};
use mcm_explore::{paper, EngineConfig, Exploration};

fn figure4_space() -> (Vec<mcm_core::MemoryModel>, Vec<mcm_core::LitmusTest>) {
    (paper::digit_space_models(false), paper::comparison_tests(false))
}

/// One thread, no cache: pure checking cost, old vs new.
fn single_thread_config() -> EngineConfig {
    EngineConfig {
        jobs: Some(1),
        ..EngineConfig::default()
    }
}

/// The correctness assertion behind the bench: zero verdict mismatches
/// between the per-cell and the batched sweeps, plus the recorded
/// old-vs-new wall times.
fn report_equivalence_and_speedup() {
    let (models, tests) = figure4_space();
    let config = single_thread_config();

    let start = Instant::now();
    let (old, old_stats) = Exploration::run_engine(
        models.clone(),
        tests.clone(),
        || Box::new(ExplicitChecker::new()),
        &config,
        None,
    );
    let old_wall = start.elapsed();

    let start = Instant::now();
    let (new, new_stats) = Exploration::run_engine(
        models,
        tests,
        || Box::new(BatchExplicitChecker::new()),
        &config,
        None,
    );
    let new_wall = start.elapsed();

    let mismatches: usize = old
        .verdicts
        .iter()
        .zip(&new.verdicts)
        .map(|(a, b)| a.diff_indices(b).len())
        .sum();
    assert_eq!(
        mismatches, 0,
        "the batched sweep must be bit-identical to the per-cell sweep"
    );
    assert_eq!(old_stats.checker_calls, new_stats.checker_calls);
    assert!(new_stats.batch.rows > 0, "the batched path must batch");
    println!(
        "figure-4 sweep ({} models x {} tests, 1 thread): per-cell {:.2?} \
         -> batched {:.2?} ({:.2}x), 0 verdict mismatches",
        old.models.len(),
        old.tests.len(),
        old_wall,
        new_wall,
        old_wall.as_secs_f64() / new_wall.as_secs_f64().max(1e-9),
    );
    println!(
        "amortization: {} rows, {} verdicts in {} groups ({:.1}x row collapse), \
         {} shared (rf, co) candidates",
        new_stats.batch.rows,
        new_stats.batch.models_checked,
        new_stats.batch.model_groups,
        new_stats.batch.models_checked as f64 / new_stats.batch.model_groups.max(1) as f64,
        new_stats.batch.shared_candidates,
    );
}

/// The SAT trio on a grid small enough for the per-cell side: the
/// per-cell per-rf checker, its row form (`CheckerKind::Sat.build_batch()`:
/// one model-free encoding per read-from map, groups selected by
/// assumptions) and the assumption-selected monolithic encoding. All
/// three must agree cell for cell.
fn report_sat_equivalence() {
    let models = paper::digit_space_models(false);
    let tests: Vec<mcm_core::LitmusTest> = paper::comparison_tests(false)
        .into_iter()
        .take(12)
        .collect();
    let config = single_thread_config();
    let sweep = |make: &(dyn Fn() -> Box<dyn BatchChecker> + Sync)| {
        let start = Instant::now();
        let (expl, stats) =
            Exploration::run_engine(models.clone(), tests.clone(), make, &config, None);
        (expl, stats, start.elapsed())
    };

    let (per_cell, _, per_cell_wall) = sweep(&|| Box::new(SatChecker::new()));
    let (per_rf, per_rf_stats, per_rf_wall) = sweep(&|| CheckerKind::Sat.build_batch());
    let (monolithic, monolithic_stats, monolithic_wall) =
        sweep(&|| Box::new(BatchSatChecker::new()));

    for (name, other) in [("per-rf row", &per_rf), ("monolithic row", &monolithic)] {
        let mismatches: usize = per_cell
            .verdicts
            .iter()
            .zip(&other.verdicts)
            .map(|(a, b)| a.diff_indices(b).len())
            .sum();
        assert_eq!(mismatches, 0, "{name} SAT must agree with per-cell SAT");
    }
    assert!(per_rf_stats.batch.assumption_solves > 0);
    assert!(monolithic_stats.batch.assumption_solves > 0);
    println!(
        "SAT sweep ({} models x {} tests, 1 thread), 0 mismatches among all three: \
         per-cell per-rf {:.2?}; per-rf row {:.2?} ({:.2}x, {} solves); \
         monolithic row {:.2?} ({:.2}x, {} solves); {} verdicts",
        per_cell.models.len(),
        per_cell.tests.len(),
        per_cell_wall,
        per_rf_wall,
        per_cell_wall.as_secs_f64() / per_rf_wall.as_secs_f64().max(1e-9),
        per_rf_stats.batch.assumption_solves,
        monolithic_wall,
        per_cell_wall.as_secs_f64() / monolithic_wall.as_secs_f64().max(1e-9),
        monolithic_stats.batch.assumption_solves,
        per_rf_stats.batch.models_checked,
    );
}

fn bench_batch_sweep(c: &mut Criterion) {
    report_equivalence_and_speedup();
    report_sat_equivalence();
    if criterion::is_test_mode() {
        return;
    }
    let mut group = c.benchmark_group("batch_sweep");
    group.sample_size(10);
    group.bench_function("figure4/per-cell", |b| {
        b.iter(|| {
            let (models, tests) = figure4_space();
            let (expl, _) = Exploration::run_engine(
                models,
                tests,
                || Box::new(ExplicitChecker::new()),
                &single_thread_config(),
                None,
            );
            black_box(expl.verdicts.len())
        })
    });
    group.bench_function("figure4/batched", |b| {
        b.iter(|| {
            let (models, tests) = figure4_space();
            let (expl, _) = Exploration::run_engine(
                models,
                tests,
                || Box::new(BatchExplicitChecker::new()),
                &single_thread_config(),
                None,
            );
            black_box(expl.verdicts.len())
        })
    });
    group.finish();
}

criterion_group!(benches, bench_batch_sweep);
criterion_main!(benches);
