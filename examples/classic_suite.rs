//! Runs the classic community litmus tests (SB, MP, LB, CoRR, IRIW) under
//! the named hardware models and prints the folklore table, then parses a
//! test from the text format to show the round trip.
//!
//! Run with `cargo run --example classic_suite`.

use litmus_mcm::axiomatic::{BatchChecker, ExplicitChecker};
use litmus_mcm::core::parse;
use litmus_mcm::models::{catalog, named};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let models = vec![
        named::sc(),
        named::ibm370(),
        named::tso(),
        named::pso(),
        named::alpha(),
        named::rmo(),
    ];
    let tests = vec![
        catalog::sb(),
        catalog::mp(),
        catalog::lb(),
        catalog::corr(),
        catalog::iriw_fenced(),
    ];
    let checker = ExplicitChecker::new();

    print!("{:14}", "test");
    for model in &models {
        print!("{:>9}", model.name());
    }
    println!();
    for test in &tests {
        print!("{:14}", test.name());
        for model in &models {
            print!(
                "{:>9}",
                if checker.is_allowed(model, test) { "allowed" } else { "-" }
            );
        }
        println!();
    }

    // ----- the text format ----------------------------------------------
    let source = r#"
test MP+fences "message passing with fences" {
  thread {
    write X = 1
    fence
    write Y = 1
  }
  thread {
    read Y -> r1
    fence
    read X -> r2
  }
  outcome { T1:r1 = 1; T1:r2 = 0 }
}
"#
    .replace("T1:r1", "T2:r1")
    .replace("T1:r2", "T2:r2");
    let test = parse::parse_litmus(&source)?;
    println!("\nparsed from source:\n{test}");
    for model in &models {
        println!(
            "  {:8} {}",
            model.name(),
            checker.check(model, &test)
        );
    }
    println!("\nround-trip source:\n{}", parse::to_source(&test));
    Ok(())
}
