//! Runs the four operational reference machines (interleaving SC,
//! store-buffer TSO, no-forwarding IBM370, per-location-buffer PSO) over
//! the paper's litmus catalog, next to the axiomatic verdicts — the two
//! semantics agree test-for-test.
//!
//! Run with `cargo run --release --example operational_machines`.

use litmus_mcm::axiomatic::{BatchChecker, ExplicitChecker};
use litmus_mcm::models::{catalog, named};
use litmus_mcm::operational::{ibm370_allows, pso_allows, sc_allows, tso_allows};

fn main() {
    let checker = ExplicitChecker::new();
    let axiomatic = [named::sc(), named::tso(), named::ibm370(), named::pso()];

    println!(
        "{:12} {:>14} {:>14} {:>14} {:>14}",
        "test", "SC op/ax", "TSO op/ax", "IBM370 op/ax", "PSO op/ax"
    );
    for test in catalog::all_tests() {
        let operational = [
            sc_allows(&test),
            tso_allows(&test),
            ibm370_allows(&test),
            pso_allows(&test),
        ];
        let mut row = format!("{:12}", test.name());
        for (machine, model) in operational.iter().zip(&axiomatic) {
            let ax = checker.is_allowed(model, &test);
            let mark = |b: bool| if b { "Y" } else { "n" };
            row.push_str(&format!(
                "{:>13}{}",
                format!("{}/{}", mark(*machine), mark(ax)),
                if *machine == ax { ' ' } else { '!' }
            ));
        }
        println!("{row}");
    }
    println!("\n(Y = outcome reachable/allowed, n = not; `!` would flag a mismatch.)");
}
