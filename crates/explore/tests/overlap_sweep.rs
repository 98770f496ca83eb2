//! A streamed sweep on several jobs pulls chunk k+1 while the grid checks
//! chunk k, and builds each execution in the worker that checks it. None
//! of that may show: kept tests, names, verdicts, `SweepStats`, every
//! checkpoint and the cache contents must equal the single-job sweep,
//! which runs everything on the calling thread, for every chunk size,
//! with and without a cache, and when a checkpoint hook stops the sweep
//! early.

use std::cell::RefCell;

use mcm_axiomatic::{BatchChecker, BatchExplicitChecker};
use mcm_core::{LitmusTest, MemoryModel};
use mcm_explore::{
    EngineConfig, Exploration, StreamCheckpoint, StreamControl, SweepStats, VerdictCache,
};
use mcm_gen::stream::StreamBounds;
use mcm_gen::{canon, naive};
use mcm_models::{named, DigitModel};

fn factory() -> Box<dyn BatchChecker> {
    Box::new(BatchExplicitChecker::new())
}

fn models() -> Vec<MemoryModel> {
    let mut models = vec![named::sc(), named::tso(), named::x86(), named::pso()];
    // M1010/M1110 agree on many tests, so the prefilter groups rows.
    models.extend(
        ["M1010", "M1110", "M4044"]
            .iter()
            .map(|s| s.parse::<DigitModel>().unwrap().to_model()),
    );
    models
}

/// A non-canonical stream: the raw space repeats every orbit under
/// several namings, so cached sweeps hit entries of earlier chunks and
/// of the same chunk.
fn raw_tests() -> Vec<LitmusTest> {
    let bounds = StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: false,
        include_deps: false,
    };
    naive::enumerate_tests_raw(&bounds, 300)
}

struct Outcome {
    exploration: Exploration,
    stats: SweepStats,
    checkpoints: Vec<StreamCheckpoint>,
    cache: Option<VerdictCache>,
}

/// One sweep; the hook records every checkpoint and stops the sweep
/// after `stop_after` chunks when given.
fn sweep(jobs: usize, chunk: usize, cached: bool, stop_after: Option<usize>) -> Outcome {
    let cache = cached.then(VerdictCache::new);
    let checkpoints = RefCell::new(Vec::new());
    let (exploration, stats) = Exploration::run_engine_streaming_with(
        models(),
        raw_tests(),
        factory,
        &EngineConfig {
            jobs: Some(jobs),
            stream_chunk: chunk,
        },
        cache.as_ref(),
        StreamControl {
            on_checkpoint: Some(Box::new(|state: &StreamCheckpoint| {
                checkpoints.borrow_mut().push(state.clone());
                stop_after.is_none_or(|k| checkpoints.borrow().len() < k)
            })),
            resume: None,
        },
    )
    .expect("a cold sweep cannot fail to resume");
    Outcome {
        exploration,
        stats,
        checkpoints: checkpoints.into_inner(),
        cache,
    }
}

fn names(exploration: &Exploration) -> Vec<&str> {
    exploration.tests.iter().map(LitmusTest::name).collect()
}

/// Every verdict a cache holds for the sweep's models and tests.
fn cache_contents(cache: &VerdictCache) -> (usize, Vec<Option<bool>>) {
    let tests = raw_tests();
    let contents = models()
        .iter()
        .flat_map(|model| {
            let model_fp = VerdictCache::model_fingerprint(model);
            tests
                .iter()
                .map(move |test| cache.get((model_fp, canon::fingerprint(test))))
                .collect::<Vec<_>>()
        })
        .collect();
    (cache.len(), contents)
}

fn assert_same(label: &str, want: &Outcome, got: &Outcome) {
    assert_eq!(
        names(&got.exploration),
        names(&want.exploration),
        "{label}: kept tests"
    );
    assert_eq!(
        got.exploration.verdicts, want.exploration.verdicts,
        "{label}: verdicts"
    );
    assert_eq!(got.stats, want.stats, "{label}: SweepStats");
    assert_eq!(got.checkpoints, want.checkpoints, "{label}: checkpoints");
    match (&want.cache, &got.cache) {
        (Some(want), Some(got)) => {
            assert_eq!(
                cache_contents(got),
                cache_contents(want),
                "{label}: cache contents"
            );
        }
        (None, None) => {}
        _ => unreachable!("both sweeps use a cache or neither does"),
    }
}

#[test]
fn every_job_count_matches_the_single_job_sweep() {
    for chunk in [1, 7, 4096] {
        for cached in [false, true] {
            let single = sweep(1, chunk, cached, None);
            assert!(!single.checkpoints.is_empty());
            for jobs in [2, 3] {
                let label = format!("chunk {chunk}, jobs {jobs}, cache {cached}");
                assert_same(&label, &single, &sweep(jobs, chunk, cached, None));
            }
        }
    }
}

#[test]
fn an_early_stop_leaves_what_the_single_job_sweep_leaves() {
    for chunk in [1, 7] {
        for stop_after in [1, 3, 10] {
            let single = sweep(1, chunk, true, Some(stop_after));
            assert_eq!(single.checkpoints.len(), stop_after);
            assert!(
                single.stats.tests_streamed < raw_tests().len() as u64,
                "the stop must cut the sweep short"
            );
            for jobs in [2, 3] {
                let label = format!("chunk {chunk}, jobs {jobs}, stop after {stop_after}");
                assert_same(&label, &single, &sweep(jobs, chunk, true, Some(stop_after)));
            }
        }
    }
}
