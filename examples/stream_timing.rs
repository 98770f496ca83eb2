//! How long do litmus tests need to be? — asked empirically, one step
//! past Theorem 1, with the streaming canonical-first enumeration.
//!
//! Sweeps the Figure 4 model space (the 36 dependency-free digit models)
//! with streamed orbit leaders of growing length — three accesses per
//! thread (the Theorem 1 bound), then four, both with fences and the
//! paper's `r - r + k` dependency idiom enabled — and reports whether any
//! model pair that three-access tests consider equivalent is split by the
//! longer tests. Theorem 1 predicts none, and the sweep corroborates it
//! without ever materializing a raw space that, at size 4, no longer fits
//! in memory at all.
//!
//! Run with: `cargo run --release --example stream_timing`

use std::time::Instant;

use mcm_axiomatic::BatchExplicitChecker;
use mcm_explore::{paper, report, EngineConfig, Exploration, Relation, StreamControl};
use mcm_gen::stream::{self, StreamBounds};

fn sweep(bounds: &StreamBounds, limit: usize) -> (Exploration, mcm_explore::SweepStats) {
    Exploration::run_engine_streaming_with(
        paper::digit_space_models(false),
        stream::leaders(bounds).take(limit),
        || Box::new(BatchExplicitChecker::new()),
        &EngineConfig::default(),
        None,
        StreamControl::default(),
    )
    .expect("a cold sweep cannot fail to resume")
}

fn main() {
    let defaults = StreamBounds::default();
    let start = Instant::now();
    let leaders = stream::count_leaders(&defaults);
    println!(
        "Theorem 1 box (3 accesses, 4 locations): {} raw tests -> {} orbit leaders, counted in {:.2?}",
        stream::count_raw(&defaults),
        leaders,
        start.elapsed(),
    );

    // Past Theorem 1 the raw space stops being countable by enumeration,
    // let alone storable; the stream does not care.
    let size4 = StreamBounds::size4(2);
    match stream::try_count_raw(&size4, 10_000_000) {
        Some(raw) => println!("size-4 box (2 locations, fences, deps): {raw} raw tests"),
        None => println!("size-4 box (2 locations, fences, deps): raw size impractical to count"),
    }

    let limit = 20_000;
    let size3 = StreamBounds {
        max_accesses_per_thread: 3,
        max_locs: 2,
        include_fences: true,
        include_deps: true,
        ..StreamBounds::default()
    };
    let start = Instant::now();
    let (three, stats3) = sweep(&size3, limit);
    println!("\nsize-3 sweep ({:.2?}): {}", start.elapsed(), report::streaming_summary(&stats3));
    let start = Instant::now();
    let (four, stats4) = sweep(&size4, limit);
    println!("size-4 sweep ({:.2?}): {}", start.elapsed(), report::streaming_summary(&stats4));

    let pairs = three.equivalent_pairs();
    let split = pairs
        .iter()
        .filter(|&&(i, j)| four.relation(i, j) != Relation::Equivalent)
        .count();
    println!(
        "\nHow long do litmus tests need to be? {split} of {} size-3-equivalent model pairs \
         were split by four-access tests (Theorem 1 predicts 0 over the complete space).",
        pairs.len(),
    );
}
