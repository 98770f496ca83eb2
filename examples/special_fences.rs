//! §3.3: how long must the *local segments* be? This example builds the
//! paper's hypothetical model family with `n` special fence flavours and
//! shows that the contrasting litmus test needs a local segment of `n + 2`
//! instructions — the Theorem 1 bound covers memory accesses, but the
//! non-memory instruction count depends on the predicate set.
//!
//! Run with `cargo run --example special_fences`.

use litmus_mcm::axiomatic::{BatchChecker, ExplicitChecker};
use litmus_mcm::gen::local;

fn main() {
    let checker = ExplicitChecker::new();
    for n in 1..=4u8 {
        let (f1, f2) = local::special_chain_models(n);
        println!("=== n = {n} ===");
        println!("{f1}");
        println!("{f2}");
        println!(
            "local segment bound from equivalence classes: {} instructions",
            local::local_segment_bound(f1.formula())
        );

        let full = local::special_chain_contrast_test(n);
        let f1_full = checker.is_allowed(&f1, &full);
        let f2_full = checker.is_allowed(&f2, &full);
        println!(
            "full chain ({} instructions per thread): F1 {}, F2 {} => {}",
            n + 2,
            if f1_full { "allows" } else { "forbids" },
            if f2_full { "allows" } else { "forbids" },
            if f1_full != f2_full { "CONTRASTS" } else { "agrees" },
        );

        for omit in 1..=n {
            let flavours: Vec<u8> = (1..=n).filter(|&f| f != omit).collect();
            let test = local::special_chain_test(n, &flavours);
            let a = checker.is_allowed(&f1, &test);
            let b = checker.is_allowed(&f2, &test);
            println!(
                "chain without f{omit}: F1 {}, F2 {} => {}",
                if a { "allows" } else { "forbids" },
                if b { "allows" } else { "forbids" },
                if a != b { "contrasts (!)" } else { "agrees (as §3.3 predicts)" },
            );
        }
        println!();
    }
}
