//! The query layer is a front door, not a different engine:
//!
//! * `Query::sweep()` over the Figure-4 space gives the same
//!   `SweepStats` and verdicts as `Exploration::run_engine`, and the
//!   same lattice, equivalent pairs and minimal set as
//!   `Lattice::build` and `distinguish::minimal_distinguishing_set`
//!   called on that exploration;
//! * `Query::distinguish()` is a view of the same sweep: its stats,
//!   classes and minimal set are those of `Query::sweep()` over the same
//!   space;
//! * a streamed sweep with a verdict log (`--store`), re-run over the
//!   same log the way a restarted process would, makes zero checker
//!   calls, answers every lookup from the disk tier, appends nothing and
//!   reproduces the cold outcome bit for bit;
//! * a checkpoint with its `canonicalize` byte set, as older builds
//!   wrote it, resumes to the uninterrupted run's CSV and counters;
//! * `Query::check` on the catalog gives the reference checker's verdicts
//!   and witness text under every `CheckerKind`, and each backend's
//!   witness re-validates.

use std::path::{Path, PathBuf};

use mcm_axiomatic::hb::required_edges;
use mcm_axiomatic::{explain, BatchChecker, ExplicitChecker, Verdict};
use mcm_explore::{
    distinguish, paper, EngineConfig, Exploration, Lattice, StreamCheckpoint, StreamControl,
};
use mcm_gen::stream::{self, StreamBounds};
use mcm_models::{catalog, named};
use mcm_query::{
    CheckerKind, Format, ModelSpec, Query, Render, SweepQuery, SweepReport, TestSource,
};
use mcm_store::{checkpoint, SweepMeta};

/// One worker, no cache: deterministic counters on both paths.
fn one_job() -> EngineConfig {
    EngineConfig {
        jobs: Some(1),
        ..EngineConfig::default()
    }
}

#[test]
fn query_sweep_equals_run_engine_lattice_and_minimal_set() {
    let (direct, direct_stats) = Exploration::run_engine(
        paper::digit_space_models(false),
        paper::comparison_tests(false),
        || CheckerKind::Explicit.build_batch(),
        &one_job(),
        None,
    );
    let report = Query::sweep()
        .models(ModelSpec::Figure4)
        .tests(TestSource::TemplateSuite { with_deps: false })
        .checker(CheckerKind::Explicit)
        .engine(one_job())
        .run()
        .expect("the Figure 4 space resolves");

    assert_eq!(
        report.stats, direct_stats,
        "Query must drive the engine with identical settings"
    );
    assert_eq!(report.exploration.models.len(), direct.models.len());
    assert_eq!(report.exploration.tests.len(), direct.tests.len());
    assert_eq!(
        report.exploration.verdicts, direct.verdicts,
        "verdict lattices must be bit-identical"
    );
    let lattice = Lattice::build(&direct);
    let classes = |l: &Lattice| -> Vec<Vec<usize>> {
        l.classes.iter().map(|c| c.members.clone()).collect()
    };
    assert_eq!(classes(&report.lattice), classes(&lattice));
    assert_eq!(
        report.lattice.edges.len(),
        lattice.edges.len(),
        "covering edges diverge"
    );
    assert_eq!(report.equivalent_pairs, direct.equivalent_pair_names());
    let minimal = distinguish::minimal_distinguishing_set(&direct);
    let report_minimal = report.minimal_set.as_ref().expect("a materialized sweep");
    assert_eq!(report_minimal.tests, minimal.tests);
    assert_eq!(report_minimal.proved_minimum, minimal.proved_minimum);
}

#[test]
fn query_distinguish_is_a_view_of_query_sweep() {
    let space = || ModelSpec::List(["SC", "TSO", "PSO", "RMO"].map(String::from).to_vec());
    let sweep = Query::sweep()
        .models(space())
        .tests(TestSource::TemplateSuite { with_deps: true })
        .engine(one_job())
        .run()
        .expect("four named models resolve");
    let view = Query::distinguish()
        .models(space())
        .engine(one_job())
        .run_distinguish()
        .expect("four models are enough to distinguish");

    assert_eq!(view.sweep.stats, sweep.stats);
    assert_eq!(
        view.sweep.exploration.equivalence_classes(),
        sweep.exploration.equivalence_classes(),
    );
    let members = |r: &SweepReport| -> Vec<Vec<usize>> {
        r.lattice.classes.iter().map(|c| c.members.clone()).collect()
    };
    assert_eq!(members(&view.sweep), members(&sweep));
    assert_eq!(members(&sweep), sweep.exploration.equivalence_classes());
    let minimal = sweep.minimal_set.as_ref().expect("a materialized sweep");
    assert_eq!(view.minimal().tests, minimal.tests);
    assert_eq!(view.minimal().proved_minimum, minimal.proved_minimum);
}

/// A scratch path namespaced by pid so parallel runs cannot collide.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("mcm-query-store-tests");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir.join(format!("{}-{name}", std::process::id()))
}

/// The bounds of `--stream --max-accesses 2 --max-locs 2`.
fn tiny_bounds() -> StreamBounds {
    StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: false,
        include_deps: false,
    }
}

/// `mcm explore --models figure4 --stream --max-accesses 2 --max-locs 2`.
fn tiny_stream_sweep() -> SweepQuery {
    Query::sweep().models(ModelSpec::Figure4).tests(TestSource::Stream {
        bounds: tiny_bounds(),
        limit: None,
        shard: None,
    })
}

/// The query `mcm explore --models figure4 --stream --max-accesses 2
/// --max-locs 2 --store FILE` builds, on one worker.
fn stored_sweep(log: &Path) -> SweepReport {
    tiny_stream_sweep()
        .engine(one_job())
        .store(log)
        .run()
        .expect("streamed sweep cannot fail")
}

#[test]
fn warm_from_disk_sweep_makes_no_checker_calls() {
    let log = scratch("warm.log");
    let _ = std::fs::remove_file(&log);

    let cold = stored_sweep(&log);
    let cold_calls = cold.stats.checker_calls;
    let cold_store = cold.store.as_ref().expect("cold run opened a store");
    assert!(cold_calls > 0, "the cold sweep must actually check");
    assert!(cold_store.appended > 0, "the cold sweep must append verdicts");

    let warm = stored_sweep(&log);
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

    let names = |r: &SweepReport| -> Vec<String> {
        r.exploration.tests.iter().map(|t| t.name().to_string()).collect()
    };
    assert_eq!(names(&cold), names(&warm), "kept tests diverge");
    assert_eq!(
        cold.exploration.verdicts, warm.exploration.verdicts,
        "verdict bit-vectors diverge"
    );
    assert_eq!(
        cold.equivalent_pairs, warm.equivalent_pairs,
        "equivalence classes diverge"
    );

    let _ = std::fs::remove_file(&log);
}

/// Older builds had an engine option that a checkpoint recorded in its
/// `canonicalize` byte. It never changed a streamed sweep, so a checkpoint
/// with the byte set resumes like any other, to the uninterrupted run's
/// CSV and counters; any other meta mismatch is still refused.
#[test]
fn a_checkpoint_with_the_canonicalize_byte_set_resumes_bit_identically() {
    let engine = EngineConfig {
        stream_chunk: 16,
        ..one_job()
    };
    let whole = tiny_stream_sweep()
        .engine(engine.clone())
        .run()
        .expect("streamed sweep cannot fail");
    // The state a process killed after two chunks leaves behind.
    let mut cut = None;
    Exploration::run_engine_streaming_with(
        paper::digit_space_models(false),
        stream::leaders(&tiny_bounds()),
        || CheckerKind::Explicit.build_batch(),
        &engine,
        None,
        StreamControl {
            on_checkpoint: Some(Box::new(|state: &StreamCheckpoint| {
                cut = Some(state.clone());
                state.tests_streamed < 32
            })),
            resume: None,
        },
    )
    .expect("a cold sweep cannot fail to resume");
    let state = cut.expect("the sweep reached a checkpoint");
    assert_eq!(state.tests_streamed, 32);
    assert!(state.tests_streamed < whole.stats.tests_streamed, "the cut is mid-stream");

    let path = scratch("canonicalize.ckpt");
    let save = |stream_chunk: u64| {
        let meta = SweepMeta {
            bounds: tiny_bounds(),
            limit: None,
            shard: None,
            canonicalize: true,
            stream_chunk,
        };
        checkpoint::save(&path, &meta, &state).expect("save the checkpoint");
    };
    save(16);
    let resumed = tiny_stream_sweep()
        .engine(engine.clone())
        .resume(&path)
        .run()
        .expect("the byte is no part of the sweep's identity");
    let resumed_at = resumed.checkpoint.as_ref().and_then(|c| c.resumed_at);
    assert_eq!(resumed_at, Some(32));
    assert_eq!(
        resumed.render(Format::Csv).unwrap(),
        whole.render(Format::Csv).unwrap()
    );
    assert_eq!(resumed.stats, whole.stats);

    // Different chunking is a different sweep, byte or no byte.
    save(17);
    let err = tiny_stream_sweep()
        .engine(engine)
        .resume(&path)
        .run()
        .expect_err("a checkpoint at another chunking is refused");
    assert!(err.to_string().contains("different sweep"), "{err}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn check_gives_the_reference_verdicts_and_witnesses_under_every_checker() {
    let tests = catalog::all_tests();
    let reference = ExplicitChecker::new();
    let models = [
        named::sc(),
        named::tso(),
        named::x86(),
        named::pso(),
        named::ibm370(),
        named::rmo(),
        named::alpha(),
    ];
    for model in models {
        let expected: Vec<Verdict> = tests.iter().map(|t| reference.check(&model, t)).collect();
        for kind in CheckerKind::ALL {
            let report = Query::check(model.name(), TestSource::Catalog)
                .checker(kind)
                .witness(true)
                .run()
                .expect("the catalog checks");
            assert_eq!(report.checker, kind.name());
            assert_eq!(report.entries.len(), tests.len());
            let backend = kind.build_batch();
            for ((test, entry), want) in tests.iter().zip(&report.entries).zip(&expected) {
                let context = format!("{} under {} ({kind})", test.name(), model.name());
                assert_eq!(entry.test, test.name(), "{context}");
                assert_eq!(entry.allowed, want.allowed, "{context}");
                let exec = test.execution();
                let verdict = backend.check(&model, test);
                assert_eq!(verdict.allowed, want.allowed, "{context}");
                if verdict.allowed {
                    let witness = verdict.witness.as_ref().expect("allowed has a witness");
                    let edges = required_edges(&model, &exec, &witness.rf, &witness.co);
                    assert!(edges.admits_partial_order(&exec), "{context}");
                    assert_eq!(edges.labeled, witness.hb_edges, "{context}");
                }
                let rendered = entry.witness.as_deref().expect("witness requested");
                assert_eq!(rendered, explain::render(&model, &exec, &verdict), "{context}");
                assert_eq!(rendered, explain::render(&model, &exec, want), "{context}");
            }
        }
    }
}
