//! Prints Figure 3 — the nine contrasting litmus tests L1–L9 — and the
//! verdict of every named hardware model on each, reproducing the
//! correspondence between tests and reordering choices described in §4.2.
//!
//! Run with `cargo run --example nine_tests`.

use litmus_mcm::axiomatic::{BatchChecker, ExplicitChecker};
use litmus_mcm::models::{catalog, named};

fn main() {
    let models = vec![
        named::sc(),
        named::ibm370(),
        named::tso(),
        named::pso(),
        named::rmo(),
        named::alpha(),
        named::rmo_without_dependencies(),
    ];
    let checker = ExplicitChecker::new();

    for test in catalog::nine_tests() {
        println!("{test}");
        println!("  probes: {}", test.description());
        for model in &models {
            let verdict = checker.check(model, &test);
            println!("    {:10} {}", model.name(), verdict);
        }
        println!();
    }

    // The verdict matrix as a compact table.
    println!("{:8}", "test");
    print!("{:8}", "");
    for model in &models {
        print!("{:>10}", model.name());
    }
    println!();
    for test in catalog::nine_tests() {
        print!("{:8}", test.name());
        for model in &models {
            let allowed = checker.is_allowed(model, &test);
            print!("{:>10}", if allowed { "allowed" } else { "-" });
        }
        println!();
    }
}
