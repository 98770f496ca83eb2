//! Observability must be close to free: the full 90-model streamed
//! sweep with `mcm-obs` instrumentation **enabled** (the default: every
//! checked row records into latency histograms, spans take their two
//! atomic loads) must produce
//! **bit-identical verdicts** and `SweepStats` to the same sweep with
//! `mcm_obs::set_enabled(false)`, within a 3% wall-clock overhead budget
//! (plus a 5 ms floor; best of 3 on both sides, so scheduler noise does
//! not decide the verdict).
//!
//! A wall-clock gate, so the test is ignored by default and run in
//! release: `cargo test --release -p mcm-explore --test obs_overhead --
//! --ignored`. It is the only test in this file because it flips the
//! process-wide instrumentation switch.

use std::time::{Duration, Instant};

use mcm_axiomatic::CheckerKind;
use mcm_explore::{paper, EngineConfig, Exploration, StreamControl, SweepStats};
use mcm_gen::stream::{self, StreamBounds};

/// `mcm explore --models 90 --stream` on two workers, so both sides
/// schedule identically.
fn streamed_sweep() -> (Exploration, SweepStats) {
    Exploration::run_engine_streaming_with(
        paper::digit_space_models(true),
        stream::leaders(&StreamBounds::default()),
        || CheckerKind::Explicit.build_batch(),
        &EngineConfig {
            jobs: Some(2),
            ..EngineConfig::default()
        },
        None,
        StreamControl::default(),
    )
    .expect("a cold sweep cannot fail to resume")
}

/// The verdict matrix as plain bits, for exact comparison.
fn verdict_bits(exploration: &Exploration) -> Vec<bool> {
    let tests = exploration.tests.len();
    exploration
        .verdicts
        .iter()
        .flat_map(|row| (0..tests).map(move |t| row.allowed(t)))
        .collect()
}

/// Best-of-N wall clock of one sweep, returning the last exploration.
fn best_of(n: usize) -> (Duration, Exploration, SweepStats) {
    let mut best = Duration::MAX;
    let mut last = None;
    for _ in 0..n {
        let start = Instant::now();
        let (exploration, stats) = streamed_sweep();
        best = best.min(start.elapsed());
        last = Some((exploration, stats));
    }
    let (exploration, stats) = last.expect("n > 0");
    (best, exploration, stats)
}

#[test]
#[ignore = "wall-clock gate; run in release with --ignored"]
fn instrumented_sweep_is_bit_identical_and_within_three_percent() {
    assert!(mcm_obs::enabled(), "instrumentation starts enabled");
    let (on_time, on_expl, on_stats) = best_of(3);

    mcm_obs::set_enabled(false);
    let (off_time, off_expl, off_stats) = best_of(3);
    mcm_obs::set_enabled(true);

    // Identical answers first: instrumentation observes, never steers.
    assert_eq!(on_expl.models.len(), off_expl.models.len(), "same model space");
    assert_eq!(on_expl.tests.len(), off_expl.tests.len(), "same leaders");
    assert_eq!(
        verdict_bits(&on_expl),
        verdict_bits(&off_expl),
        "verdicts must be bit-identical with obs on and off"
    );
    assert_eq!(
        on_stats, off_stats,
        "engine counters must not depend on instrumentation"
    );

    // Then the budget. Sub-millisecond sweeps cannot resolve a 3% ratio,
    // so a small absolute floor sits alongside the relative budget.
    let budget = off_time.mul_f64(1.03).max(off_time + Duration::from_millis(5));
    println!(
        "obs_overhead: enabled {on_time:.2?} vs disabled {off_time:.2?} \
         (best of 3; {} models x {} streamed leaders; budget {budget:.2?})",
        on_expl.models.len(),
        on_expl.tests.len(),
    );
    assert!(
        on_time <= budget,
        "instrumentation overhead exceeds 3%: enabled {on_time:?} vs \
         disabled {off_time:?}"
    );
}
