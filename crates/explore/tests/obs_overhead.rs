//! Observability must be close to free: the full 90-model streamed
//! sweep with `mcm-obs` instrumentation **enabled** (the default: every
//! checked row records into latency histograms, spans take their two
//! atomic loads) must produce
//! **bit-identical verdicts** and `SweepStats` to the same sweep with
//! `mcm_obs::set_enabled(false)`, within a 3% wall-clock overhead budget
//! (plus a 5 ms floor). The two sides run in alternating pairs, each pair
//! in the opposite order to the last, and the gate compares the medians
//! of each side: a slow spell of a shared host lands on both sides, and
//! one stalled run cannot decide the verdict.
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

/// Alternating on/off pairs of the sweep.
const PAIRS: usize = 7;

/// One side of the gate (instrumentation off or on): its wall clocks and
/// its last sweep.
type Side = (Vec<Duration>, Option<(Exploration, SweepStats)>);

/// One timed sweep with instrumentation switched `on` or off.
fn timed(on: bool) -> (Duration, (Exploration, SweepStats)) {
    mcm_obs::set_enabled(on);
    let start = Instant::now();
    let swept = streamed_sweep();
    let elapsed = start.elapsed();
    mcm_obs::set_enabled(true);
    (elapsed, swept)
}

fn median(mut samples: Vec<Duration>) -> Duration {
    samples.sort();
    samples[samples.len() / 2]
}

#[test]
#[ignore = "wall-clock gate; run in release with --ignored"]
fn instrumented_sweep_is_bit_identical_and_within_three_percent() {
    assert!(mcm_obs::enabled(), "instrumentation starts enabled");
    let mut sides: [Side; 2] = Default::default();
    for pair in 0..PAIRS {
        // Even pairs run instrumented first, odd pairs second.
        for on in [pair % 2 == 0, pair % 2 == 1] {
            let (elapsed, swept) = timed(on);
            let side = &mut sides[usize::from(on)];
            side.0.push(elapsed);
            side.1 = Some(swept);
        }
    }
    let [(off_times, Some((off_expl, off_stats))), (on_times, Some((on_expl, on_stats)))] = sides
    else {
        unreachable!("every pair runs both sides")
    };
    let (on_time, off_time) = (median(on_times), median(off_times));

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
         (medians of {PAIRS} alternating pairs; {} models x {} streamed \
         leaders; budget {budget:.2?})",
        on_expl.models.len(),
        on_expl.tests.len(),
    );
    assert!(
        on_time <= budget,
        "instrumentation overhead exceeds 3%: enabled {on_time:?} vs \
         disabled {off_time:?}"
    );
}
