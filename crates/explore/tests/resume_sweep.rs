//! Checkpoint/resume correctness for the streaming engine.
//!
//! The contract `mcm explore --stream --checkpoint/--resume` relies on:
//! for a deterministic leader stream, a sweep checkpointed after any
//! chunk and resumed from that checkpoint produces a final exploration
//! and [`SweepStats`] **bit-identical** to the uninterrupted run — the
//! resumed process pulls the consumed stream prefix again without
//! checking it (zero checker calls for it) and continues where the dead
//! process stopped.

use std::cell::RefCell;

use mcm_axiomatic::{BatchChecker, BatchExplicitChecker};
use mcm_core::MemoryModel;
use mcm_explore::{
    paper, EngineConfig, Exploration, StreamCheckpoint, StreamControl, SweepStats,
};
use mcm_gen::stream::{self, StreamBounds};

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

fn config(chunk: usize) -> EngineConfig {
    EngineConfig {
        stream_chunk: chunk,
        jobs: Some(1),
    }
}

fn run_cold(models: Vec<MemoryModel>, chunk: usize) -> (Exploration, SweepStats) {
    Exploration::run_engine_streaming_with(
        models,
        stream::leaders(&tiny_bounds()),
        factory,
        &config(chunk),
        None,
        StreamControl::default(),
    )
    .expect("a cold sweep cannot fail to resume")
}

/// Asserts two finished sweeps are bit-identical: same kept tests (names
/// included), same packed verdict words, same counters.
fn assert_identical(
    label: &str,
    a: &(Exploration, SweepStats),
    b: &(Exploration, SweepStats),
) {
    let names = |e: &Exploration| -> Vec<String> {
        e.tests.iter().map(|t| t.name().to_string()).collect()
    };
    assert_eq!(names(&a.0), names(&b.0), "{label}: kept tests diverge");
    assert_eq!(
        a.0.verdicts, b.0.verdicts,
        "{label}: verdict bit-vectors diverge"
    );
    assert_eq!(a.1, b.1, "{label}: SweepStats diverge");
}

#[test]
fn resume_from_every_chunk_is_bit_identical() {
    let models = paper::digit_space_models(false);
    let chunk = 16;
    let baseline = run_cold(models.clone(), chunk);

    // One instrumented run captures the checkpoint after every chunk.
    let checkpoints: RefCell<Vec<StreamCheckpoint>> = RefCell::new(Vec::new());
    let instrumented = Exploration::run_engine_streaming_with(
        models.clone(),
        stream::leaders(&tiny_bounds()),
        factory,
        &config(chunk),
        None,
        StreamControl {
            on_checkpoint: Some(Box::new(|state: &StreamCheckpoint| {
                checkpoints.borrow_mut().push(state.clone());
                true
            })),
            resume: None,
        },
    )
    .expect("cold instrumented run cannot fail");
    assert_identical("instrumented run", &baseline, &instrumented);
    let checkpoints = checkpoints.into_inner();
    assert!(
        checkpoints.len() >= 3,
        "expected several chunks, got {} checkpoints",
        checkpoints.len()
    );
    assert_eq!(
        checkpoints.last().unwrap().tests_streamed,
        baseline.1.tests_streamed,
        "the final checkpoint sits at the end of the stream"
    );

    // Resuming from every captured checkpoint reproduces the baseline
    // exactly.
    for (i, state) in checkpoints.into_iter().enumerate() {
        let resumed = Exploration::run_engine_streaming_with(
            models.clone(),
            stream::leaders(&tiny_bounds()),
            factory,
            &config(chunk),
            None,
            StreamControl {
                on_checkpoint: None,
                resume: Some(state),
            },
        )
        .unwrap_or_else(|e| panic!("resume from checkpoint {i} rejected: {e}"));
        assert_identical(&format!("resume from checkpoint {i}"), &baseline, &resumed);
    }
}

/// The acceptance scenario: a 90-model streamed sweep killed mid-run
/// (the checkpoint hook refusing to continue) and resumed from its last
/// checkpoint finishes with a bit-identical lattice.
#[test]
fn killed_90_model_sweep_resumes_bit_identically() {
    let models = paper::digit_space_models(true);
    assert_eq!(models.len(), 90, "the paper's digit space");
    let chunk = 32;
    let baseline = run_cold(models.clone(), chunk);

    // "Kill" the process after the third chunk: the hook stops the sweep
    // exactly as SIGTERM stops the CLI after its last completed chunk.
    let last: RefCell<Option<StreamCheckpoint>> = RefCell::new(None);
    let killed = RefCell::new(0u32);
    let _partial = Exploration::run_engine_streaming_with(
        models.clone(),
        stream::leaders(&tiny_bounds()),
        factory,
        &config(chunk),
        None,
        StreamControl {
            on_checkpoint: Some(Box::new(|state: &StreamCheckpoint| {
                *last.borrow_mut() = Some(state.clone());
                *killed.borrow_mut() += 1;
                *killed.borrow() < 3
            })),
            resume: None,
        },
    )
    .expect("the killed run itself cannot fail");
    let state = last.into_inner().expect("at least one checkpoint fired");
    assert!(
        state.tests_streamed < baseline.1.tests_streamed,
        "the kill must land mid-stream for the test to mean anything"
    );

    let resumed = Exploration::run_engine_streaming_with(
        models.clone(),
        stream::leaders(&tiny_bounds()),
        factory,
        &config(chunk),
        None,
        StreamControl {
            on_checkpoint: None,
            resume: Some(state),
        },
    )
    .expect("resume from the kill point");
    assert_identical("killed+resumed 90-model sweep", &baseline, &resumed);
}

#[test]
fn mismatched_checkpoints_are_rejected_not_misapplied() {
    let models = paper::digit_space_models(false);
    let chunk = 16;
    let last: RefCell<Option<StreamCheckpoint>> = RefCell::new(None);
    let _ = Exploration::run_engine_streaming_with(
        models.clone(),
        stream::leaders(&tiny_bounds()),
        factory,
        &config(chunk),
        None,
        StreamControl {
            on_checkpoint: Some(Box::new(|state: &StreamCheckpoint| {
                *last.borrow_mut() = Some(state.clone());
                false
            })),
            resume: None,
        },
    )
    .unwrap();
    let state = last.into_inner().unwrap();

    // Different model list → rejected.
    let err = Exploration::run_engine_streaming_with(
        models[..3].to_vec(),
        stream::leaders(&tiny_bounds()),
        factory,
        &config(chunk),
        None,
        StreamControl {
            on_checkpoint: None,
            resume: Some(state.clone()),
        },
    )
    .expect_err("a 3-model sweep must reject a 90-digit-space checkpoint");
    assert!(
        err.0.contains("different model list"),
        "unexpected rejection: {err}"
    );

    // Stream shorter than the cursor → rejected.
    let err = Exploration::run_engine_streaming_with(
        models,
        stream::leaders(&tiny_bounds())
            .take(state.tests_streamed as usize / 2),
        factory,
        &config(chunk),
        None,
        StreamControl {
            on_checkpoint: None,
            resume: Some(state),
        },
    )
    .expect_err("a truncated stream cannot reach the checkpoint cursor");
    assert!(
        err.0.contains("shorter than the checkpoint cursor"),
        "unexpected rejection: {err}"
    );
}
