//! Cross-validation of the CEGIS synthesizer against the exhaustive
//! streaming sweep.
//!
//! The two engines answer the paper's central question by opposite means
//! — enumerate-then-check versus constraint synthesis — over the *same*
//! bounded space, so their per-pair minimal distinguishing lengths must
//! agree exactly. The deterministic test below checks every Figure-4
//! model pair; the property tests sample pairs under extended predicates
//! (data dependencies) and re-verify witness properties.

use mcm_axiomatic::{BatchChecker, BatchExplicitChecker, ExplicitChecker};
use mcm_core::MemoryModel;
use mcm_explore::{paper, EngineConfig, Exploration};
use mcm_gen::{canon, stream, StreamBounds};
use mcm_models::named;
use mcm_synth::{SynthBounds, Synthesizer};
use proptest::prelude::*;

/// Exhaustive per-pair minimal lengths over the streamed orbit leaders of
/// `bounds`, restricted to tests of at most `max_total` accesses.
fn sweep_lengths(
    models: &[MemoryModel],
    bounds: &StreamBounds,
    max_total: usize,
) -> Vec<Vec<Option<usize>>> {
    let tests: Vec<_> = stream::leaders(bounds)
        .filter(|t| t.program().access_count() <= max_total)
        .collect();
    let exploration = Exploration::run_engine(
        models.to_vec(),
        tests,
        || Box::new(BatchExplicitChecker::new()),
        &EngineConfig::default(),
        None,
    )
    .0;
    mcm_explore::distinguish::minimal_length_matrix(&exploration)
}

/// The satellite contract: for every Figure-4 model pair, the synthesized
/// minimal length at small sizes equals the exhaustive streaming sweep's,
/// and every synthesized witness is a canonical leader the allower admits
/// and the forbidder rejects.
#[test]
fn figure4_minimal_lengths_match_the_exhaustive_sweep() {
    let models = paper::digit_space_models(false);
    let stream_bounds = StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 4,
        include_fences: false,
        include_deps: false,
    };
    let max_total = 3;
    let expected = sweep_lengths(&models, &stream_bounds, max_total);

    let mut synth =
        Synthesizer::new(models.clone(), stream_bounds).expect("valid bounds");
    let checker = ExplicitChecker::new();
    let mut distinguishable = 0usize;
    for i in 0..models.len() {
        for j in (i + 1)..models.len() {
            let pair = synth.pair(i, j, max_total);
            assert_eq!(
                pair.length, expected[i][j],
                "minimal length mismatch for {} vs {}",
                models[i].name(),
                models[j].name()
            );
            if let Some(length) = pair.length {
                distinguishable += 1;
                let witness = pair.witness.expect("a length implies a witness");
                assert_eq!(witness.program().access_count(), length);
                assert!(
                    canon::is_leader(&witness),
                    "witness for {} vs {} is not a canonical leader:\n{witness}",
                    models[i].name(),
                    models[j].name()
                );
                let allowed = checker.is_allowed(&models[i], &witness);
                let other = checker.is_allowed(&models[j], &witness);
                assert_ne!(
                    allowed,
                    other,
                    "witness fails to distinguish {} from {}",
                    models[i].name(),
                    models[j].name()
                );
            }
        }
    }
    assert!(
        distinguishable > 0,
        "some Figure-4 pairs must distinguish at three accesses"
    );
    let stats = synth.stats();
    assert_eq!(
        stats.encoding_mismatches, 0,
        "the symbolic encoding and the axiomatic oracle must agree"
    );
    assert!(stats.shapes_exhausted > 0, "minimality certificates were produced");
}

/// The same contract on a named-model panel through the matrix entry
/// point: SC, TSO, PSO and IBM370 over two threads of at most two
/// accesses on two locations, at up to four total accesses.
#[test]
fn named_panel_matrix_matches_the_exhaustive_sweep() {
    let models = vec![named::sc(), named::tso(), named::pso(), named::ibm370()];
    let stream_bounds = StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: false,
        include_deps: false,
    };
    let expected = sweep_lengths(&models, &stream_bounds, usize::MAX);
    let mut synth =
        Synthesizer::new(models.clone(), stream_bounds).expect("valid bounds");
    let matrix = synth.matrix(4);
    let checker = ExplicitChecker::new();
    for i in 0..models.len() {
        for j in (i + 1)..models.len() {
            assert_eq!(
                matrix.lengths[i][j],
                expected[i][j],
                "synth vs sweep disagree on {} / {}",
                models[i].name(),
                models[j].name()
            );
            if let Some(witness) = matrix.witnesses.get(&(i, j)) {
                assert_ne!(
                    checker.is_allowed(&models[i], witness),
                    checker.is_allowed(&models[j], witness),
                );
            }
        }
    }
    assert_eq!(synth.stats().encoding_mismatches, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random Figure-4 pairs, one size past the deterministic test: the
    /// synthesized minimal length at four total accesses still matches
    /// the sweep.
    #[test]
    fn sampled_pairs_agree_at_four_accesses(a in 0usize..36, offset in 1usize..36) {
        let b = (a + offset) % 36;
        let models = paper::digit_space_models(false);
        let stream_bounds = StreamBounds {
            max_accesses_per_thread: 2,
            threads: 2,
            max_locs: 4,
            include_fences: false,
            include_deps: false,
        };
        let pair_models = vec![models[a].clone(), models[b].clone()];
        let expected = sweep_lengths(&pair_models, &stream_bounds, 4)[0][1];
        let mut synth = Synthesizer::new(pair_models, stream_bounds)
            .expect("valid bounds");
        let result = synth.pair(0, 1, 4);
        prop_assert_eq!(result.length, expected);
        prop_assert_eq!(synth.stats().encoding_mismatches, 0);
    }

    /// Dependency-discriminating models need the dep idiom in the space:
    /// sampled pairs from the full 90-model space, with dependencies
    /// enabled on both engines, agree at three total accesses.
    #[test]
    fn sampled_dependency_pairs_agree(a in 0usize..90, offset in 1usize..90) {
        let b = (a + offset) % 90;
        let models = paper::digit_space_models(true);
        let stream_bounds = StreamBounds {
            max_accesses_per_thread: 2,
            threads: 2,
            max_locs: 2,
            include_fences: false,
            include_deps: true,
        };
        let pair_models = vec![models[a].clone(), models[b].clone()];
        let expected = sweep_lengths(&pair_models, &stream_bounds, 3)[0][1];
        let mut synth = Synthesizer::new(pair_models, stream_bounds)
            .expect("valid bounds");
        let result = synth.pair(0, 1, 3);
        prop_assert_eq!(result.length, expected);
        prop_assert_eq!(synth.stats().encoding_mismatches, 0);
    }

    /// Fenced spaces: witnesses synthesized with fences in bounds are
    /// still canonical leaders with oracle-confirmed verdicts.
    #[test]
    fn fenced_witnesses_are_canonical_and_confirmed(a in 0usize..36, offset in 1usize..36) {
        let b = (a + offset) % 36;
        let models = paper::digit_space_models(false);
        let bounds = SynthBounds {
            max_accesses_per_thread: 2,
            threads: 2,
            max_locs: 2,
            include_fences: true,
            include_deps: false,
        };
        let pair_models = vec![models[a].clone(), models[b].clone()];
        let mut synth = Synthesizer::new(pair_models.clone(), bounds).expect("valid bounds");
        let result = synth.pair(0, 1, 4);
        if let Some(witness) = result.witness {
            let checker = ExplicitChecker::new();
            prop_assert!(canon::is_leader(&witness));
            prop_assert!(
                checker.is_allowed(&pair_models[0], &witness)
                    != checker.is_allowed(&pair_models[1], &witness)
            );
        }
        prop_assert_eq!(synth.stats().encoding_mismatches, 0);
    }
}
