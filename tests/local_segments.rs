//! E11 (§3.3): the number of non-memory instructions in a contrasting
//! litmus test depends on the predicate set. The special-fence family
//! `F1 = SameAddr ∨ special(x,y)` vs `F2 = SameAddr` requires a local
//! segment of `n + 2` instructions (`Read X, f1, …, fn, Write Y`): the
//! full chain distinguishes the models, and *every* incomplete chain fails
//! to.

use litmus_mcm::axiomatic::{all_batch_checkers, BatchChecker};
use litmus_mcm::gen::local;

#[test]
fn full_chain_contrasts_the_models() {
    for n in 1..=4u8 {
        let (f1, f2) = local::special_chain_models(n);
        let test = local::special_chain_contrast_test(n);
        for checker in all_batch_checkers() {
            assert!(
                checker.is_allowed(&f2, &test),
                "n={n}: F2 (SameAddr only) must allow the outcome ({})",
                checker.name()
            );
            assert!(
                !checker.is_allowed(&f1, &test),
                "n={n}: F1 (with the fence chain) must forbid it ({})",
                checker.name()
            );
        }
    }
}

#[test]
fn any_incomplete_chain_fails_to_contrast() {
    let checker = litmus_mcm::axiomatic::ExplicitChecker::new();
    for n in 2..=4u8 {
        let (f1, f2) = local::special_chain_models(n);
        // Drop each flavour in turn: the broken chain no longer creates
        // the transitive order, so both models allow the outcome.
        for omit in 1..=n {
            let flavours: Vec<u8> = (1..=n).filter(|&f| f != omit).collect();
            let test = local::special_chain_test(n, &flavours);
            assert!(
                checker.is_allowed(&f1, &test),
                "n={n}, omitting f{omit}: F1 should allow"
            );
            assert!(
                checker.is_allowed(&f2, &test),
                "n={n}, omitting f{omit}: F2 should allow"
            );
        }
        // The empty chain certainly fails to contrast.
        let bare = local::special_chain_test(n, &[]);
        assert_eq!(
            checker.is_allowed(&f1, &bare),
            checker.is_allowed(&f2, &bare)
        );
    }
}

#[test]
fn segment_length_matches_the_equivalence_class_bound() {
    for n in 1..=4u8 {
        let (f1, _) = local::special_chain_models(n);
        let bound = local::local_segment_bound(f1.formula());
        let test = local::special_chain_contrast_test(n);
        let longest_thread = test
            .program()
            .threads
            .iter()
            .map(|t| t.instructions.len())
            .max()
            .unwrap();
        assert!(
            longest_thread <= bound,
            "n={n}: witness segment length {longest_thread} exceeds bound {bound}"
        );
        assert_eq!(longest_thread, usize::from(n) + 2);
    }
}

#[test]
fn reordering_the_chain_fails_to_contrast() {
    // The predicate chains f1→f2→…→fn in order; a permuted chain breaks
    // the links, so the models agree again.
    let checker = litmus_mcm::axiomatic::ExplicitChecker::new();
    let n = 3u8;
    let (f1, f2) = local::special_chain_models(n);
    let test = local::special_chain_test(n, &[2, 1, 3]);
    assert_eq!(checker.is_allowed(&f1, &test), checker.is_allowed(&f2, &test));
}
