//! Properties of the streaming canonical-first enumeration:
//!
//! 1. **Fixed points** — every streamed test is a fixed point of
//!    [`canon::canonical`] (the leader of its own orbit);
//! 2. **Completeness** — on bounds small enough to materialize, the
//!    streamed leader set equals `dedup(raw enumeration)` orbit for
//!    orbit: same fingerprints, no more, no fewer;
//! 3. **Irredundancy** — no two streamed leaders share an orbit.
//!
//! Together these are the soundness argument for sweeping a bounded space
//! through the stream instead of materializing it: the stream visits
//! exactly one representative of every orbit the raw space contains.

use mcm_gen::stream::{self, StreamBounds};
use mcm_gen::{canon, naive};
use proptest::prelude::*;

fn bounds_strategy() -> impl Strategy<Value = StreamBounds> {
    (1usize..=2, 1usize..=2, 1u8..=2, proptest::bool::ANY, proptest::bool::ANY).prop_map(
        |(accesses, threads, locs, fences, deps)| StreamBounds {
            max_accesses_per_thread: accesses,
            threads,
            max_locs: locs,
            include_fences: fences,
            include_deps: deps,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    fn streamed_tests_are_canonical_fixed_points(bounds in bounds_strategy()) {
        for test in stream::leaders(&bounds).take(600) {
            prop_assert!(
                canon::is_leader(&test),
                "{} is not its own canonical form:\n{test}",
                test.name()
            );
        }
    }

    fn streamed_leaders_are_pairwise_distinct_orbits(bounds in bounds_strategy()) {
        let mut fingerprints: Vec<u64> = stream::leaders(&bounds)
            .take(600)
            .map(|t| canon::fingerprint(&t))
            .collect();
        let len = fingerprints.len();
        fingerprints.sort_unstable();
        fingerprints.dedup();
        prop_assert_eq!(fingerprints.len(), len);
    }

    fn stream_equals_dedup_of_materialized_enumeration(
        accesses in 1usize..=2,
        locs in 1u8..=2,
        fences in proptest::bool::ANY,
    ) {
        // The dependency-free slice is the one the materializing baseline
        // can enumerate; compare orbit sets exactly on it.
        let bounds = StreamBounds {
            max_accesses_per_thread: accesses,
            threads: 2,
            max_locs: locs,
            include_fences: fences,
            include_deps: false,
        };
        let raw = naive::enumerate_tests_raw(&bounds, usize::MAX);
        let mut materialized: Vec<u64> = canon::dedup(&raw).fingerprints;
        materialized.sort_unstable();
        let mut streamed: Vec<u64> = stream::leaders(&bounds)
            .map(|t| canon::fingerprint(&t))
            .collect();
        streamed.sort_unstable();
        prop_assert_eq!(streamed, materialized);
    }
}
