//! Durable verdicts and checkpoint/resume: what does persistence cost,
//! and what does it buy back?
//!
//! Reported before the timed benches run (and asserted, so CI catches
//! regressions):
//!
//! * **warm-from-disk identity** — a streamed sweep run with a verdict
//!   log (`--store`), then re-run over the same log the way a freshly
//!   restarted process would, makes **zero** checker calls the second
//!   time, answers every pair from the disk tier, and produces the
//!   bit-identical verdict matrix and equivalence classes;
//! * **resume identity** — the engine contract behind
//!   `--checkpoint`/`--resume`: a sweep resumed from its mid-stream
//!   checkpoint finishes bit-identical to the uninterrupted run, and the
//!   replayed prefix costs zero checker calls.
//!
//! The timed benches put numbers on the trade: the cold sweep with no
//! store, the same sweep paying the append-and-flush cost of the log,
//! the warm sweep that hydrates the log instead of checking, and the
//! resume that replays half the stream before doing new work. Run with
//! `cargo bench -p mcm-bench --bench store_resume`; CI runs it with
//! `-- --test`, which executes everything once, untimed.

use std::cell::RefCell;
use std::path::{Path, PathBuf};

use criterion::{criterion_group, criterion_main, Criterion};
use mcm_axiomatic::{BatchChecker, BatchExplicitChecker};
use mcm_explore::{paper, EngineConfig, Exploration, StreamCheckpoint, StreamControl, SweepStats};
use mcm_gen::stream::{self, StreamBounds};
use mcm_query::{ModelSpec, Query, SweepReport, TestSource};
use std::hint::black_box;

fn factory() -> Box<dyn BatchChecker> {
    Box::new(BatchExplicitChecker::new())
}

/// Bounds small enough that a full sweep is bench-iteration cheap.
fn tiny_bounds() -> StreamBounds {
    StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: false,
        include_deps: false,
    }
}

/// A scratch path namespaced by pid so parallel CI jobs cannot collide.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mcm-bench-store");
    std::fs::create_dir_all(&dir).expect("create bench scratch dir");
    dir.join(format!("{}-{name}", std::process::id()))
}

/// The product-level sweep: the same query `mcm explore --stream
/// [--store FILE]` builds, single-threaded so timings are stable.
fn sweep(store: Option<&Path>) -> SweepReport {
    let mut query = Query::sweep()
        .models(ModelSpec::Figure4)
        .tests(TestSource::Stream {
            bounds: tiny_bounds(),
            limit: None,
            shard: None,
        })
        .engine(EngineConfig {
            jobs: Some(1),
            ..EngineConfig::default()
        });
    if let Some(path) = store {
        query = query.store(path);
    }
    query.run().expect("streamed sweep cannot fail")
}

/// Bit-identity of the sweep outcome: same kept tests, same packed
/// verdict words, same equivalence classes.
fn assert_same_outcome(label: &str, a: &SweepReport, b: &SweepReport) {
    let names = |r: &SweepReport| -> Vec<String> {
        r.exploration.tests.iter().map(|t| t.name().to_string()).collect()
    };
    assert_eq!(names(a), names(b), "{label}: kept tests diverge");
    assert_eq!(
        a.exploration.verdicts, b.exploration.verdicts,
        "{label}: verdict bit-vectors diverge"
    );
    assert_eq!(
        a.equivalent_pairs, b.equivalent_pairs,
        "{label}: equivalence classes diverge"
    );
}

fn report_warm_from_disk() {
    let log = scratch("warm.log");
    let _ = std::fs::remove_file(&log);

    let cold = sweep(Some(&log));
    let cold_calls = cold.stats.checker_calls;
    let cold_store = cold.store.as_ref().expect("cold run opened a store");
    assert!(cold_calls > 0, "the cold sweep must actually check");
    assert!(cold_store.appended > 0, "the cold sweep must append verdicts");

    // A second run over the same log is what a restarted process sees:
    // the log is hydrated into the disk tier and the whole sweep is
    // answered without a single checker call.
    let warm = sweep(Some(&log));
    let warm_cache = warm.cache.as_ref().expect("warm run has a cache");
    let warm_store = warm.store.as_ref().expect("warm run opened the store");
    assert_eq!(
        warm.stats.checker_calls, 0,
        "a warm-from-disk sweep must make zero checker calls"
    );
    assert_eq!(
        warm_cache.hits, warm_cache.hits_disk,
        "a fresh process has no RAM-tier history: every hit is disk-tier"
    );
    assert!(
        warm_cache.hits_disk >= cold_calls,
        "the disk tier must answer at least every pair the cold run checked"
    );
    assert_eq!(
        warm_store.appended, 0,
        "a fully warm sweep discovers nothing new to append"
    );
    assert_same_outcome("cold vs warm-from-disk", &cold, &warm);
    println!(
        "warm-from-disk: cold run checked {} batches and appended {} verdicts \
         ({} bytes); warm run checked 0, answered {} lookups from disk, \
         bit-identical outcome",
        cold_calls, cold_store.appended, warm_store.bytes, warm_cache.hits_disk,
    );

    let _ = std::fs::remove_file(&log);
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        stream_chunk: 16,
        jobs: Some(1),
        ..EngineConfig::default()
    }
}

fn run_cold_engine(models: Vec<mcm_core::MemoryModel>) -> (Exploration, SweepStats) {
    Exploration::run_engine_streaming_with(
        models,
        stream::leaders(&tiny_bounds()),
        factory,
        &engine_config(),
        None,
        StreamControl::default(),
    )
    .expect("a cold sweep cannot fail to resume")
}

fn run_resumed_engine(
    models: Vec<mcm_core::MemoryModel>,
    state: StreamCheckpoint,
) -> (Exploration, SweepStats) {
    Exploration::run_engine_streaming_with(
        models,
        stream::leaders(&tiny_bounds()),
        factory,
        &engine_config(),
        None,
        StreamControl {
            on_checkpoint: None,
            resume: Some(state),
        },
    )
    .expect("resume from a same-sweep checkpoint cannot be rejected")
}

/// Captures the checkpoint roughly halfway through the stream — the
/// state a killed `--checkpoint` run would leave on disk.
fn mid_checkpoint(models: Vec<mcm_core::MemoryModel>, total_streamed: u64) -> StreamCheckpoint {
    let grabbed: RefCell<Option<StreamCheckpoint>> = RefCell::new(None);
    let _ = Exploration::run_engine_streaming_with(
        models,
        stream::leaders(&tiny_bounds()),
        factory,
        &engine_config(),
        None,
        StreamControl {
            on_checkpoint: Some(Box::new(|state: &StreamCheckpoint| {
                if state.tests_streamed * 2 >= total_streamed && grabbed.borrow().is_none() {
                    *grabbed.borrow_mut() = Some(state.clone());
                }
                true
            })),
            resume: None,
        },
    )
    .expect("checkpoint-capturing run cannot fail");
    grabbed.into_inner().expect("stream is long enough to have a midpoint")
}

fn report_resume_identity() -> (Vec<mcm_core::MemoryModel>, StreamCheckpoint) {
    let models = paper::digit_space_models(false);
    let baseline = run_cold_engine(models.clone());
    let state = mid_checkpoint(models.clone(), baseline.1.tests_streamed);
    let replayed = state.tests_streamed;

    let resumed = run_resumed_engine(models.clone(), state.clone());
    let names = |e: &Exploration| -> Vec<String> {
        e.tests.iter().map(|t| t.name().to_string()).collect()
    };
    assert_eq!(names(&baseline.0), names(&resumed.0), "resume: kept tests diverge");
    assert_eq!(
        baseline.0.verdicts, resumed.0.verdicts,
        "resume: verdict bit-vectors diverge"
    );
    assert_eq!(baseline.1, resumed.1, "resume: SweepStats diverge");
    println!(
        "resume identity: killed at {replayed}/{} streamed tests, resumed run \
         replays the prefix through dedup only and finishes bit-identical",
        baseline.1.tests_streamed,
    );
    (models, state)
}

fn bench_store_resume(c: &mut Criterion) {
    report_warm_from_disk();
    let (models, mid) = report_resume_identity();

    let mut group = c.benchmark_group("store_resume");
    group.sample_size(10);

    group.bench_function("sweep/cold-no-store", |b| {
        b.iter(|| black_box(sweep(None).stats.checker_calls));
    });

    let append_log = scratch("bench-append.log");
    group.bench_function("sweep/cold-appending-log", |b| {
        b.iter(|| {
            // Each iteration is a genuinely cold run: the log from the
            // previous iteration would otherwise make it warm.
            let _ = std::fs::remove_file(&append_log);
            black_box(sweep(Some(&append_log)).stats.checker_calls)
        });
    });
    let _ = std::fs::remove_file(&append_log);

    let warm_log = scratch("bench-warm.log");
    let _ = std::fs::remove_file(&warm_log);
    let _ = sweep(Some(&warm_log)); // populate once; every iter hydrates it
    group.bench_function("sweep/warm-from-log", |b| {
        b.iter(|| black_box(sweep(Some(&warm_log)).cache.as_ref().unwrap().hits_disk));
    });
    let _ = std::fs::remove_file(&warm_log);

    group.bench_function("engine/cold-full-stream", |b| {
        b.iter(|| black_box(run_cold_engine(models.clone()).1.checker_calls));
    });

    group.bench_function("engine/resume-from-mid-checkpoint", |b| {
        b.iter(|| black_box(run_resumed_engine(models.clone(), mid.clone()).1.checker_calls));
    });

    group.finish();
}

criterion_group!(benches, bench_store_resume);
criterion_main!(benches);
