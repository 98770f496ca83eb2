//! Prints the measured quantities recorded in EXPERIMENTS.md: naive
//! enumeration sizes, Corollary 1 breakdowns, and exploration timings.
//!
//! Run with `cargo run --release --example gather_numbers`.

use std::time::Instant;

use litmus_mcm::axiomatic::{BatchRfSatChecker, ExplicitChecker};
use litmus_mcm::explore::{paper, Exploration};
use litmus_mcm::gen::count;
use litmus_mcm::gen::stream::{count_leaders, count_raw, StreamBounds};

fn main() {
    let bounds = StreamBounds::default();
    let with_fences = StreamBounds {
        include_fences: true,
        ..StreamBounds::default()
    };
    println!("naive raw (no fences): {}", count_raw(&bounds));
    println!("naive canonical (no fences): {}", count_leaders(&bounds));
    println!("naive raw (with fences): {}", count_raw(&with_fences));
    println!("per-case bounds with deps: {:?}", count::per_case_bounds(true));
    println!("per-case bounds no deps: {:?}", count::per_case_bounds(false));
    println!(
        "extended bound (DataDep + ControlDep): {}",
        count::extended_bound(true, true)
    );

    let models = paper::digit_space_models(true);
    let tests = paper::comparison_tests(true);
    let start = Instant::now();
    let expl = Exploration::run(models, tests, &ExplicitChecker::new());
    println!(
        "sequential 90-model exploration: {:.2?} ({} classes)",
        start.elapsed(),
        expl.equivalence_classes().len()
    );

    let start = Instant::now();
    let pair = Exploration::run(
        vec![
            litmus_mcm::models::named::tso(),
            litmus_mcm::models::named::ibm370(),
        ],
        paper::comparison_tests(true),
        &BatchRfSatChecker::new(),
    );
    println!(
        "single pair via SAT checker: {:.2?} (relation: {})",
        start.elapsed(),
        pair.relation(0, 1)
    );
}
