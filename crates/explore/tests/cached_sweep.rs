//! The verdict cache must make a repeated sweep free: the second
//! `Exploration::run_engine` over the same (model space, suite) performs
//! **zero** checker invocations, and still produces identical verdicts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mcm_axiomatic::{BatchChecker, BatchExplicitChecker, ExplicitChecker, Verdict};
use mcm_core::{Execution, MemoryModel};
use mcm_explore::{
    cache::VerdictCache, paper, EngineConfig, Exploration, StreamControl, SweepStats,
};
use mcm_gen::canon;
use mcm_models::{catalog, named};

/// An explicit checker that counts the (model, test) cells it decides.
struct CountingChecker {
    inner: ExplicitChecker,
    calls: Arc<AtomicU64>,
}

impl BatchChecker for CountingChecker {
    fn name(&self) -> &'static str {
        "counting-explicit"
    }

    fn check_all_executions(&self, exec: &Execution, models: &[MemoryModel]) -> Vec<Verdict> {
        self.calls.fetch_add(models.len() as u64, Ordering::Relaxed);
        self.inner.check_all_executions(exec, models)
    }
}

fn space() -> (Vec<MemoryModel>, Vec<mcm_core::LitmusTest>) {
    (
        vec![
            named::sc(),
            named::tso(),
            named::x86(),
            named::pso(),
            named::ibm370(),
            named::rmo(),
        ],
        catalog::all_tests(),
    )
}

/// On the named-model catalog space and on the paper's full §4.2 space
/// (the 90 digit models over the catalog + template comparison suite).
#[test]
fn second_sweep_hits_the_cache_for_every_pair() {
    let spaces = [
        space(),
        (paper::digit_space_models(true), paper::comparison_tests(true)),
    ];
    for (models, tests) in spaces {
        let cache = VerdictCache::new();
        let calls = Arc::new(AtomicU64::new(0));
        let factory = || {
            Box::new(CountingChecker {
                inner: ExplicitChecker::new(),
                calls: Arc::clone(&calls),
            }) as Box<dyn BatchChecker>
        };
        let config = EngineConfig::default();

        let (first, first_stats) =
            Exploration::run_engine(models.clone(), tests.clone(), factory, &config, Some(&cache));
        let first_calls = calls.load(Ordering::Relaxed);
        assert!(first_calls > 0, "cold sweep must invoke the checker");
        assert_eq!(first_stats.checker_calls, first_calls);
        assert_eq!(first_stats.cache_hits, 0, "cold cache cannot hit");
        // One grid checks every test, symmetric duplicates included: the
        // prefilter fans each group verdict out to every member, so checked
        // plus saved calls cover every (row, test) pair.
        assert_eq!(
            first_stats.checker_calls + first_stats.prefilter_saved_calls,
            (first_stats.distinct_models * tests.len()) as u64
        );
        // The cache keys tests by orbit fingerprint, so duplicates share an
        // entry: it holds one per (row, orbit) pair.
        assert_eq!(
            cache.len(),
            first_stats.distinct_models * canon::dedup(&tests).len()
        );

        let (second, second_stats) =
            Exploration::run_engine(models, tests, factory, &config, Some(&cache));
        let second_calls = calls.load(Ordering::Relaxed) - first_calls;
        assert_eq!(
            second_stats.checker_calls, 0,
            "warm sweep must answer everything from the cache"
        );
        assert_eq!(second_calls, 0, "checker was invoked despite a warm cache");
        assert_eq!(second_stats.cache_hits, second_stats.unique_pairs);
        assert_eq!(first.verdicts, second.verdicts);
    }
}

/// Both entry points key verdicts by orbit fingerprint, so whatever one
/// computed answers the other: after a cold sweep through either path, a
/// sweep through the other makes no checker call, in both orders. Verdict
/// logs written by either path stay warm for both.
#[test]
fn materialized_and_streamed_sweeps_share_cache_keys() {
    let (models, tests) = space();
    let config = EngineConfig {
        stream_chunk: 7,
        ..EngineConfig::default()
    };
    for materialized_first in [true, false] {
        let cache = VerdictCache::new();
        let calls = Arc::new(AtomicU64::new(0));
        let factory = || {
            Box::new(CountingChecker {
                inner: ExplicitChecker::new(),
                calls: Arc::clone(&calls),
            }) as Box<dyn BatchChecker>
        };
        let materialized = || {
            Exploration::run_engine(models.clone(), tests.clone(), factory, &config, Some(&cache))
                .1
        };
        let streamed = || {
            Exploration::run_engine_streaming_with(
                models.clone(),
                tests.clone(),
                factory,
                &config,
                Some(&cache),
                StreamControl::default(),
            )
            .unwrap()
            .1
        };
        let (cold, warm): (&dyn Fn() -> SweepStats, &dyn Fn() -> SweepStats) =
            if materialized_first {
                (&materialized, &streamed)
            } else {
                (&streamed, &materialized)
            };
        let context = format!("materialized_first={materialized_first}");
        assert!(cold().checker_calls > 0, "{context}: cold sweep");
        let cold_calls = calls.load(Ordering::Relaxed);
        let warm_stats = warm();
        assert_eq!(warm_stats.checker_calls, 0, "{context}: warm sweep");
        assert_eq!(warm_stats.cache_hits, warm_stats.unique_pairs, "{context}");
        assert_eq!(calls.load(Ordering::Relaxed), cold_calls, "{context}");
    }
}

#[test]
fn cache_is_shared_across_different_model_subsets() {
    // TSO and x86 have identical formulas: sweeping one then the other
    // must be free, even without canonicalization.
    let tests = catalog::all_tests();
    let cache = VerdictCache::new();
    let config = EngineConfig::default();
    let factory = || Box::new(BatchExplicitChecker::new()) as Box<dyn BatchChecker>;

    let (_, cold) = Exploration::run_engine(
        vec![named::tso()],
        tests.clone(),
        factory,
        &config,
        Some(&cache),
    );
    assert_eq!(cold.checker_calls, tests.len() as u64);

    let (warm_expl, warm) = Exploration::run_engine(
        vec![named::x86()],
        tests.clone(),
        factory,
        &config,
        Some(&cache),
    );
    assert_eq!(warm.checker_calls, 0, "x86 shares TSO's formula");
    assert_eq!(warm.cache_hits, tests.len() as u64);

    // And the verdicts are the real TSO verdicts.
    let direct = Exploration::run(vec![named::x86()], tests, &ExplicitChecker::new());
    assert_eq!(warm_expl.verdicts, direct.verdicts);
}

/// The catalog + template suite holds symmetric duplicates (catalog tests
/// are symmetric variants of template instances), and a sweep checks each
/// of them: no engine layer collapses a suite to its orbits.
#[test]
fn the_paper_suite_holds_symmetric_duplicates_and_a_sweep_checks_each() {
    let models = vec![named::sc(), named::tso()];
    let tests = mcm_explore::paper::comparison_tests(true);
    assert!(
        canon::dedup(&tests).dedup_ratio() > 1.0,
        "the catalog + template suite holds symmetric duplicates"
    );
    let total = (models.len() * tests.len()) as u64;
    let (swept, stats) = Exploration::run_engine(
        models,
        tests.clone(),
        || Box::new(BatchExplicitChecker::new()),
        &EngineConfig::default(),
        None,
    );
    assert_eq!(swept.tests, tests);
    assert_eq!(stats.total_pairs, total);
    assert_eq!(stats.tests_streamed, tests.len() as u64);
    assert_eq!(stats.canonical_tests, tests.len());
    assert_eq!(stats.unique_pairs, total, "SC and TSO take a row each");
    assert_eq!(stats.checker_calls + stats.prefilter_saved_calls, total);
}
