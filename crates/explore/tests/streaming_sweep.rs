//! The streaming sweep must be indistinguishable from the materialized
//! path: same verdict per (model, orbit), same lattice.
//!
//! The CI streaming-smoke job runs this file: the identity on tiny
//! bounds, a check that 2,000-leader prefixes of the size-3 and size-4
//! streams never split a truly equivalent model pair, and a check that
//! every stream the query layer builds is already one test per orbit (why
//! the stream core has no dedup layer).

use std::collections::{HashMap, HashSet};

use mcm_axiomatic::{BatchChecker, BatchExplicitChecker};
use mcm_core::{LitmusTest, MemoryModel};
use mcm_explore::{paper, EngineConfig, Exploration, Relation, StreamControl};
use mcm_gen::stream::{self, Shard, StreamBounds};
use mcm_gen::{canon, naive};
use proptest::prelude::*;

fn factory() -> Box<dyn BatchChecker> {
    Box::new(BatchExplicitChecker::new())
}

fn tiny_bounds() -> StreamBounds {
    StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: false,
        include_deps: false,
    }
}

/// Sweeps the materialized raw space as it is, symmetric duplicates and
/// all: every raw test is checked.
fn raw_sweep(models: &[MemoryModel]) -> Exploration {
    let raw = naive::enumerate_tests_raw(&tiny_bounds(), usize::MAX);
    let (expl, stats) =
        Exploration::run_engine(models.to_vec(), raw, factory, &EngineConfig::default(), None);
    assert_eq!(stats.canonical_tests, expl.tests.len());
    expl
}

/// Each model's verdict keyed by orbit fingerprint, asserting on the way
/// that every test of an orbit gets the same verdict (§2.3).
fn orbit_verdicts(expl: &Exploration) -> Vec<HashMap<u64, bool>> {
    expl.verdicts
        .iter()
        .zip(&expl.models)
        .map(|(vector, model)| {
            let mut by_orbit = HashMap::new();
            for (t, test) in expl.tests.iter().enumerate() {
                let allowed = vector.allowed(t);
                let first = *by_orbit.entry(canon::fingerprint(test)).or_insert(allowed);
                assert_eq!(
                    first,
                    allowed,
                    "{} splits the orbit of {}",
                    model.name(),
                    test.name()
                );
            }
            by_orbit
        })
        .collect()
}

fn streamed(models: Vec<MemoryModel>, chunk: usize) -> (Exploration, mcm_explore::SweepStats) {
    Exploration::run_engine_streaming_with(
        models,
        stream::leaders(&tiny_bounds()),
        factory,
        &EngineConfig {
            stream_chunk: chunk,
            ..EngineConfig::default()
        },
        None,
        StreamControl::default(),
    )
    .expect("a cold sweep cannot fail to resume")
}

#[test]
fn streamed_lattice_equals_materialized_lattice() {
    let models = paper::digit_space_models(false);
    let mat_expl = raw_sweep(&models);
    let materialized = orbit_verdicts(&mat_expl);
    let (stream_expl, stats) = streamed(models.clone(), 64);
    // Orbit-for-orbit: every streamed leader's verdict matches the verdict
    // of its orbit in the materialized sweep, for every model.
    assert_eq!(stream_expl.tests.len() as u64, stats.tests_streamed);
    for (m, verdicts) in materialized.iter().enumerate() {
        assert_eq!(
            verdicts.len(),
            stream_expl.tests.len(),
            "orbit counts diverge for {}",
            models[m].name()
        );
        for (t, test) in stream_expl.tests.iter().enumerate() {
            let fp = canon::fingerprint(test);
            assert_eq!(
                verdicts.get(&fp).copied(),
                Some(stream_expl.verdicts[m].allowed(t)),
                "verdict diverges for {} on {}",
                models[m].name(),
                test.name()
            );
        }
    }
    // The lattice (pairwise relations) is therefore identical too; check
    // it directly as the CI smoke assertion.
    for i in 0..mat_expl.models.len() {
        for j in 0..mat_expl.models.len() {
            assert_eq!(
                mat_expl.relation(i, j),
                stream_expl.relation(i, j),
                "lattice relation {i},{j} diverges"
            );
        }
    }
    // Streaming in small chunks really did bound memory below the raw
    // space.
    assert!(stats.peak_batch <= 64);
}

#[test]
fn chunk_size_does_not_change_the_outcome() {
    let models = vec![
        mcm_models::named::sc(),
        mcm_models::named::tso(),
        mcm_models::named::pso(),
        mcm_models::named::rmo(),
    ];
    let (a, _) = streamed(models.clone(), 1);
    let (b, _) = streamed(models.clone(), 7);
    let (c, _) = streamed(models, usize::MAX);
    assert_eq!(a.verdicts, b.verdicts);
    assert_eq!(a.verdicts, c.verdicts);
    assert_eq!(a.tests.len(), b.tests.len());
}

/// The title question one step past Theorem 1, on stream prefixes:
/// models that are *truly* equivalent (same verdict on the complete
/// Theorem 1 template suite, hence on every test) must stay equivalent
/// on the first 2,000 leaders of the size-3 stream (fences and
/// dependencies included) and of the size-4 stream. A split would be a
/// bug in the stream or the engine, not a refutation of the paper.
#[test]
fn size3_and_size4_prefixes_split_no_truly_equivalent_pair() {
    let models = paper::digit_space_models(false);
    let prefix = |bounds: &StreamBounds| {
        Exploration::run_engine_streaming_with(
            models.clone(),
            stream::leaders(bounds).take(2_000),
            factory,
            &EngineConfig::default(),
            None,
            StreamControl::default(),
        )
        .expect("a cold sweep cannot fail to resume")
        .0
    };
    let size3 = prefix(&StreamBounds {
        max_accesses_per_thread: 3,
        threads: 2,
        max_locs: 2,
        include_fences: true,
        include_deps: true,
    });
    let size4 = prefix(&StreamBounds::size4(2));
    let (truth, _) = Exploration::run_engine(
        models,
        paper::comparison_tests(false),
        factory,
        &EngineConfig::default(),
        None,
    );
    let pairs = truth.equivalent_pairs();
    assert!(!pairs.is_empty(), "the Figure-4 space has equivalent pairs");
    for (i, j) in pairs {
        for (label, sweep) in [("size-3", &size3), ("size-4", &size4)] {
            assert_eq!(
                sweep.relation(i, j),
                Relation::Equivalent,
                "{label} prefix split the truly equivalent pair {} == {}",
                truth.models[i].name(),
                truth.models[j].name(),
            );
        }
    }
}

/// Why the stream core needs no dedup layer of its own: on every stream
/// the query layer builds (default bounds, with fences and deps, the
/// size-4 box, each stripe of a 3-way shard), canonicalization keeps every
/// leader, in order, unchanged and under its own name, and no two leaders
/// share an orbit fingerprint. Collapsing a chunk, or dropping tests seen
/// in earlier chunks, would remove nothing.
#[test]
fn leader_streams_are_already_one_test_per_orbit() {
    let with_fences_and_deps = StreamBounds {
        include_fences: true,
        include_deps: true,
        ..StreamBounds::default()
    };
    let first = |bounds: &StreamBounds| stream::leaders(bounds).take(3_000).collect();
    let mut prefixes: Vec<(String, Vec<LitmusTest>)> = vec![
        ("default".into(), first(&StreamBounds::default())),
        ("fences+deps".into(), first(&with_fences_and_deps)),
        ("size-4".into(), first(&StreamBounds::size4(4))),
    ];
    for i in 0..3 {
        let shard = Shard::new(i, 3).expect("a valid shard");
        let leaders = stream::leaders_sharded(&StreamBounds::default(), shard);
        prefixes.push((format!("shard {i}/3"), leaders.take(1_000).collect()));
    }
    for (label, tests) in prefixes {
        assert!(!tests.is_empty(), "{label}: the stream yields leaders");
        let suite = canon::dedup(&tests);
        assert_eq!(suite.tests, tests, "{label}: dedup changed the stream");
        assert_eq!(
            suite.class_of,
            (0..tests.len()).collect::<Vec<_>>(),
            "{label}: dedup merged leaders"
        );
        let distinct: HashSet<u64> = suite.fingerprints.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            tests.len(),
            "{label}: two leaders share an orbit fingerprint"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    fn streamed_verdicts_match_materialized_for_sampled_models(
        digit in 0usize..36,
        chunk in 1usize..48,
    ) {
        let models = vec![paper::digit_space_models(false)[digit].clone()];
        let materialized = orbit_verdicts(&raw_sweep(&models));
        let (stream_expl, _) = streamed(models, chunk);
        for (t, test) in stream_expl.tests.iter().enumerate() {
            let fp = canon::fingerprint(test);
            prop_assert_eq!(
                materialized[0].get(&fp).copied(),
                Some(stream_expl.verdicts[0].allowed(t)),
                "verdict diverges on {}",
                test.name()
            );
        }
    }
}
