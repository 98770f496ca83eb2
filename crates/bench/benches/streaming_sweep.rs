//! Streaming canonical-first sweep vs the materialize-then-dedup pipeline.
//!
//! Reported before the timed benches run (and asserted, so CI catches
//! regressions):
//!
//! * **lattice identity** — on bounds small enough to materialize, the
//!   streamed leader sweep and the materialized + canonicalized sweep
//!   produce identical pairwise model relations (the same Hasse diagram),
//!   while the streaming path's peak test count stays a fraction of the
//!   raw space;
//! * **the size-4 sweep** — the paper's title question, asked one step
//!   past Theorem 1: sweeping tests with up to *four* accesses per thread
//!   (plus fences and the `r - r + k` dependency idiom) over the Figure 4
//!   model space and reporting how many size-3-equivalent model pairs the
//!   longer tests split. Theorem 1 predicts none; the streamed sweep
//!   corroborates it empirically without ever materializing the
//!   billion-test raw space.
//!
//! The timed benches compare wall-clock of the two pipelines on equal
//! bounds. Run with `cargo bench -p mcm-bench --bench streaming_sweep`;
//! CI runs it with `-- --test`, which executes everything once, untimed.

use criterion::{criterion_group, criterion_main, Criterion};
use mcm_axiomatic::{BatchChecker, BatchExplicitChecker};
use mcm_explore::{paper, report, EngineConfig, Exploration, Relation, StreamControl};
use mcm_gen::stream::{self, StreamBounds};
use mcm_gen::naive;
use std::hint::black_box;

fn factory() -> Box<dyn BatchChecker> {
    Box::new(BatchExplicitChecker::new())
}

/// Bounds small enough to materialize the whole raw space.
fn tiny_bounds() -> StreamBounds {
    StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: false,
        include_deps: false,
    }
}

fn tiny_naive_bounds() -> naive::NaiveBounds {
    naive::NaiveBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: false,
    }
}

/// The materialize-then-dedup pipeline: enumerate the raw space, then let
/// the engine collapse it to orbit representatives.
fn run_materialized(models: Vec<mcm_core::MemoryModel>) -> (Exploration, usize) {
    let raw = naive::enumerate_tests_raw(&tiny_naive_bounds(), usize::MAX);
    let peak = raw.len();
    let (expl, _) = Exploration::run_engine(
        models,
        raw,
        factory,
        &EngineConfig::canonicalizing(),
        None,
    );
    (expl, peak)
}

fn run_streamed(
    models: Vec<mcm_core::MemoryModel>,
    bounds: &StreamBounds,
    limit: usize,
) -> (Exploration, mcm_explore::SweepStats) {
    Exploration::run_engine_streaming_with(
        models,
        stream::leaders(bounds).take(limit),
        factory,
        &EngineConfig::default(),
        None,
        StreamControl::default(),
    )
    .expect("a cold sweep cannot fail to resume")
}

/// Every pairwise model relation must agree — the two paths may order
/// their (identical) orbit sets differently, but the lattice they induce
/// is the same.
fn assert_same_lattice(a: &Exploration, b: &Exploration) {
    assert_eq!(a.models.len(), b.models.len());
    for i in 0..a.models.len() {
        for j in 0..a.models.len() {
            assert_eq!(
                a.relation(i, j),
                b.relation(i, j),
                "{} vs {} disagree between pipelines",
                a.models[i].name(),
                a.models[j].name(),
            );
        }
    }
}

fn report_lattice_identity() {
    let models = paper::digit_space_models(false);
    let (materialized, raw_peak) = run_materialized(models.clone());
    let (streamed, stats) = run_streamed(models, &tiny_bounds(), usize::MAX);
    assert_eq!(
        streamed.tests.len() as u64,
        stats.tests_streamed,
        "a leader stream contains no duplicates to drop"
    );
    assert_same_lattice(&materialized, &streamed);
    println!(
        "lattice identity: streamed {} leaders == dedup of {} raw tests; \
         peak in memory {} (streamed) vs {} (materialized)",
        streamed.tests.len(),
        raw_peak,
        stats.peak_batch,
        raw_peak,
    );
    println!("  {}", report::streaming_summary(&stats));
}

fn report_size4_sweep() {
    // The title question, one step past Theorem 1: do litmus tests with
    // four accesses per thread (plus fences and dependencies) tell the
    // Figure 4 model space apart any further than three-access tests do?
    let limit = if criterion::is_test_mode() { 2_000 } else { 40_000 };
    let models = paper::digit_space_models(false);
    let size3 = StreamBounds {
        max_accesses_per_thread: 3,
        threads: 2,
        max_locs: 2,
        include_fences: true,
        include_deps: true,
    };
    let size4 = StreamBounds::size4(2);
    let (base, base_stats) = run_streamed(models.clone(), &size3, limit);
    let (four, four_stats) = run_streamed(models.clone(), &size4, limit);
    println!("size-3 sweep: {}", report::streaming_summary(&base_stats));
    println!("size-4 sweep: {}", report::streaming_summary(&four_stats));

    // Sound assertion: models that are *truly* equivalent — same verdict
    // on the complete Theorem 1 template suite, hence on every test in
    // the class — must not be split by any streamed sweep. A split here
    // would be a bug in the stream or the engine, not a refutation of
    // the paper.
    let (truth, _) = Exploration::run_engine(
        models,
        paper::comparison_tests(false),
        factory,
        &EngineConfig::default(),
        None,
    );
    for (i, j) in truth.equivalent_pairs() {
        assert_eq!(
            base.relation(i, j),
            Relation::Equivalent,
            "size-3 sweep split the truly equivalent pair {} == {}",
            truth.models[i].name(),
            truth.models[j].name(),
        );
        assert_eq!(
            four.relation(i, j),
            Relation::Equivalent,
            "size-4 sweep split the truly equivalent pair {} == {}",
            truth.models[i].name(),
            truth.models[j].name(),
        );
    }

    // Observational headline (prefix-vs-prefix, so reported rather than
    // asserted: the two streams enumerate their spaces in different
    // orders, and Theorem 1 only promises stability over the *complete*
    // unrestricted space): how many model pairs the size-3 prefix calls
    // equivalent does the size-4 prefix split?
    let base_pairs = base.equivalent_pairs();
    let split = base_pairs
        .iter()
        .filter(|&&(i, j)| four.relation(i, j) != Relation::Equivalent)
        .count();
    println!(
        "size-4 sweep: {split} of {} size-3-equivalent model pairs split by \
         four-access tests (Theorem 1 predicts 0 over the complete space)",
        base_pairs.len(),
    );
}

fn bench_streaming_sweep(c: &mut Criterion) {
    report_lattice_identity();
    report_size4_sweep();

    let models = paper::digit_space_models(false);
    let mut group = c.benchmark_group("streaming_sweep");
    group.sample_size(10);

    group.bench_function("materialize+dedup/tiny-bounds", |b| {
        b.iter(|| {
            let (expl, _) = run_materialized(black_box(models.clone()));
            black_box(expl.tests.len())
        });
    });

    group.bench_function("leader-stream/tiny-bounds", |b| {
        b.iter(|| {
            let (expl, _) = run_streamed(black_box(models.clone()), &tiny_bounds(), usize::MAX);
            black_box(expl.tests.len())
        });
    });

    group.bench_function("leader-stream/size4-prefix", |b| {
        b.iter(|| {
            let (expl, _) = run_streamed(black_box(models.clone()), &StreamBounds::size4(2), 500);
            black_box(expl.tests.len())
        });
    });

    group.finish();
}

criterion_group!(benches, bench_streaming_sweep);
criterion_main!(benches);
