//! Quickstart: define a memory model, write a litmus test, check whether
//! the outcome is allowed — reproducing Figure 1 of the paper along the
//! way.
//!
//! Run with `cargo run --example quickstart`.

use litmus_mcm::axiomatic::{BatchChecker, BatchRfSatChecker, ExplicitChecker};
use litmus_mcm::core::{
    Formula, LitmusTest, Loc, MemoryModel, Outcome, Program, Reg, ThreadId, Value,
};
use litmus_mcm::models::{catalog, named};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ----- 1. The paper's Figure 1: Test A under TSO and SC ------------
    let test_a = catalog::test_a();
    println!("{test_a}");

    let checker = ExplicitChecker::new();
    for model in [named::tso(), named::sc(), named::ibm370()] {
        let verdict = checker.check(&model, &test_a);
        println!("under {:8} the outcome is {}", model.name(), verdict);
    }
    // TSO allows it (load forwarding lets T2 read its own W Y=2 early);
    // SC and IBM370 forbid it.

    // ----- 2. Build your own test and model ----------------------------
    // Store buffering by hand:
    let program = Program::builder()
        .thread()
        .write(Loc::X, Value(1))
        .read(Loc::Y, Reg(1))
        .thread()
        .write(Loc::Y, Value(1))
        .read(Loc::X, Reg(2))
        .build()?;
    let outcome = Outcome::new()
        .constrain(ThreadId(0), Reg(1), Value(0))
        .constrain(ThreadId(1), Reg(2), Value(0));
    let sb = LitmusTest::new("SB", program, outcome)?;

    // A custom model: "keep everything ordered except write→read pairs"
    // (that is exactly TSO, written as a must-not-reorder function).
    let my_model = MemoryModel::new(
        "my-tso",
        Formula::or([
            Formula::and([
                Formula::atom(litmus_mcm::core::Atom::IsWrite(litmus_mcm::core::ArgPos::First)),
                Formula::atom(litmus_mcm::core::Atom::IsWrite(litmus_mcm::core::ArgPos::Second)),
            ]),
            Formula::atom(litmus_mcm::core::Atom::IsRead(litmus_mcm::core::ArgPos::First)),
            Formula::fence_either(),
        ]),
    );
    println!("\n{sb}");
    println!("under {} the outcome is {}", my_model.name(), checker.check(&my_model, &sb));

    // ----- 3. The SAT checker agrees (the paper's tool architecture) ---
    let sat = BatchRfSatChecker::new();
    assert_eq!(
        sat.is_allowed(&my_model, &sb),
        checker.is_allowed(&my_model, &sb)
    );
    println!("\nSAT checker and explicit checker agree.");

    // ----- 4. Inspect the happens-before witness ------------------------
    let verdict = checker.check(&named::tso(), &test_a);
    if let Some(witness) = verdict.witness {
        println!("\nWitness for Test A under TSO (forced happens-before edges):");
        for (from, to, kind) in witness.hb_edges {
            let exec = test_a.execution();
            println!("  {} --{kind}--> {}", exec.event(from), exec.event(to));
        }
    }
    Ok(())
}
