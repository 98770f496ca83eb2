//! The sweep prefilter: how many checker calls does static analysis save?
//!
//! The prefilter restricts every model's truth table to the valuations a
//! test's program-order pairs can actually realize (its relaxation
//! signature) and groups models whose restricted tables coincide — one
//! checker call per provably-equal group instead of one per model.
//!
//! Reported before the timed benches run (and asserted, so CI catches
//! regressions):
//!
//! * **soundness** — the full 90-model streamed sweep produces the
//!   bit-identical verdict matrix with the prefilter on and off;
//! * **the reduction** — checker calls with the prefilter on, versus
//!   off, over the same stream (saved calls are counted by the engine
//!   itself, so `on + saved == off` is asserted too).
//!
//! Run with `cargo bench -p mcm-bench --bench analyze_prune`; CI runs it
//! with `-- --test`, which executes everything once, untimed.

use criterion::{criterion_group, criterion_main, Criterion};
use mcm_axiomatic::{BatchChecker, BatchExplicitChecker};
use mcm_explore::{paper, report, EngineConfig, Exploration, StreamControl, SweepStats};
use mcm_gen::stream::{self, StreamBounds};
use std::hint::black_box;

fn factory() -> Box<dyn BatchChecker> {
    Box::new(BatchExplicitChecker::new())
}

/// The dependency-discriminating bounds the 90-model space needs.
fn dep_bounds() -> StreamBounds {
    StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: true,
        include_deps: true,
    }
}

fn run_sweep(
    models: Vec<mcm_core::MemoryModel>,
    prefilter: bool,
    limit: usize,
) -> (Exploration, SweepStats) {
    let config = EngineConfig {
        prefilter,
        ..EngineConfig::default()
    };
    Exploration::run_engine_streaming_with(
        models,
        stream::leaders(&dep_bounds()).take(limit),
        factory,
        &config,
        None,
        StreamControl::default(),
    )
    .expect("a cold sweep cannot fail to resume")
}

fn report_prefilter_soundness_and_savings(limit: usize) {
    let models = paper::digit_space_models(true);
    assert_eq!(models.len(), 90);
    let (on, on_stats) = run_sweep(models.clone(), true, limit);
    let (off, off_stats) = run_sweep(models, false, limit);

    // Bit-identical verdicts: same tests, same per-model verdict vectors.
    assert_eq!(on.tests.len(), off.tests.len());
    for (row, (a, b)) in on.verdicts.iter().zip(&off.verdicts).enumerate() {
        assert_eq!(
            a, b,
            "prefilter changed the verdict vector of {}",
            on.models[row].name(),
        );
    }

    // The engine's own accounting must balance: every call the prefilter
    // skipped is a call the unfiltered sweep made.
    assert_eq!(off_stats.prefilter_saved_calls, 0);
    assert_eq!(
        on_stats.checker_calls + on_stats.prefilter_saved_calls,
        off_stats.checker_calls,
        "prefilter accounting must balance against the unfiltered sweep"
    );

    let saved = on_stats.prefilter_saved_calls;
    let percent = 100.0 * saved as f64 / off_stats.checker_calls.max(1) as f64;
    println!(
        "prefilter soundness: 90-model sweep over {} streamed leaders is \
         bit-identical on vs off",
        on.tests.len(),
    );
    println!(
        "prefilter reduction: {} checker calls with, {} without — \
         {saved} saved ({percent:.1}%) across {} groups",
        on_stats.checker_calls, off_stats.checker_calls, on_stats.prefilter_groups,
    );
    println!("  on:  {}", report::streaming_summary(&on_stats));
    println!("  off: {}", report::streaming_summary(&off_stats));
}

fn bench_analyze_prune(c: &mut Criterion) {
    let limit = if criterion::is_test_mode() { 1_000 } else { 10_000 };
    report_prefilter_soundness_and_savings(limit);

    let models = paper::digit_space_models(true);
    let mut group = c.benchmark_group("analyze_prune");
    group.sample_size(10);

    group.bench_function("sweep-90/prefilter-on", |b| {
        b.iter(|| {
            let (expl, _) = run_sweep(black_box(models.clone()), true, 500);
            black_box(expl.tests.len())
        });
    });

    group.bench_function("sweep-90/prefilter-off", |b| {
        b.iter(|| {
            let (expl, _) = run_sweep(black_box(models.clone()), false, 500);
            black_box(expl.tests.len())
        });
    });

    group.finish();
}

criterion_group!(benches, bench_analyze_prune);
criterion_main!(benches);
