//! CEGIS synthesis vs exhaustive sweep: the paper's question, answered
//! both ways.
//!
//! Reported before the timed benches run (and asserted, so CI catches
//! regressions):
//!
//! * **cross-validation** — over a box small enough to sweep, the
//!   synthesized per-pair minimal distinguishing lengths equal the
//!   exhaustive streaming sweep's for every model pair of a named-model
//!   panel, and the synthesized witnesses are oracle-confirmed on both
//!   sides;
//! * **Theorem 1 by synthesis** — the headline bounds re-derived without
//!   enumeration: SC vs TSO needs 4 accesses (store buffering), TSO vs
//!   IBM370 needs the full 6 (the same-address write-read case), each
//!   with an UNSAT certificate that nothing shorter works.
//!
//! The timed benches compare a CEGIS pair query against the equivalent
//! exhaustive sweep. Run with `cargo bench -p mcm-bench --bench
//! synth_cegis`; CI runs it with `-- --test` (everything once, untimed).

use criterion::{criterion_group, criterion_main, Criterion};
use mcm_axiomatic::{BatchExplicitChecker, Checker, ExplicitChecker};
use mcm_explore::{EngineConfig, Exploration};
use mcm_gen::stream::{self, StreamBounds};
use mcm_models::named;
use mcm_synth::{SynthBounds, Synthesizer};
use std::hint::black_box;

fn panel() -> Vec<mcm_core::MemoryModel> {
    vec![named::sc(), named::tso(), named::pso(), named::ibm370()]
}

fn small_stream_bounds() -> StreamBounds {
    StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: false,
        include_deps: false,
    }
}

fn small_synth_bounds() -> SynthBounds {
    SynthBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: false,
        include_deps: false,
    }
}

/// Per-pair minimal lengths by exhaustive sweep of the streamed leaders.
fn sweep_lengths(models: &[mcm_core::MemoryModel]) -> Vec<Vec<Option<usize>>> {
    let tests: Vec<_> = stream::leaders(&small_stream_bounds()).collect();
    let expl = Exploration::run_engine(
        models.to_vec(),
        tests,
        || Box::new(BatchExplicitChecker::new()),
        &EngineConfig::default(),
        None,
    )
    .0;
    mcm_explore::distinguish::minimal_length_matrix(&expl)
}

fn report_cross_validation() {
    let models = panel();
    let expected = sweep_lengths(&models);
    let mut synth =
        Synthesizer::new(models.clone(), small_synth_bounds()).expect("valid bounds");
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
    let stats = synth.stats();
    assert_eq!(stats.encoding_mismatches, 0);
    println!(
        "cross-validation: {} models, all pairwise minimal lengths match the \
         exhaustive sweep ({} SAT queries -> {} structures -> {} candidates)",
        models.len(),
        stats.sat_queries,
        stats.structures,
        stats.candidates,
    );
}

fn report_theorem1_by_synthesis() {
    let mut synth = Synthesizer::new(
        vec![named::sc(), named::tso(), named::ibm370()],
        SynthBounds::default(),
    )
    .expect("valid bounds");
    let sc_tso = synth.pair(0, 1, 6);
    assert_eq!(sc_tso.length, Some(4), "SC vs TSO: store buffering");
    let tso_ibm = synth.pair(1, 2, 6);
    assert_eq!(
        tso_ibm.length,
        Some(6),
        "TSO vs IBM370: the same-address write-read case needs Theorem 1's full bound"
    );
    println!(
        "Theorem 1 by synthesis: SC|TSO at {} accesses, TSO|IBM370 at {} \
         (UNSAT-certified minimal; {} sub-spaces exhausted)",
        sc_tso.length.expect("distinguishable"),
        tso_ibm.length.expect("distinguishable"),
        synth.stats().shapes_exhausted,
    );
}

fn bench_pair_synthesis(c: &mut Criterion) {
    report_cross_validation();
    report_theorem1_by_synthesis();

    let mut group = c.benchmark_group("synth_cegis");
    group.bench_function("cegis_pair_sc_tso", |b| {
        b.iter(|| {
            let mut synth = Synthesizer::new(
                vec![named::sc(), named::tso()],
                small_synth_bounds(),
            )
            .expect("valid bounds");
            black_box(synth.pair(0, 1, 4).length)
        });
    });
    group.bench_function("sweep_pair_sc_tso", |b| {
        b.iter(|| {
            let models = vec![named::sc(), named::tso()];
            black_box(sweep_lengths(&models)[0][1])
        });
    });
    group.bench_function("cegis_equivalence_certificate", |b| {
        b.iter(|| {
            let mut synth = Synthesizer::new(
                vec![named::tso(), named::x86()],
                small_synth_bounds(),
            )
            .expect("valid bounds");
            black_box(synth.pair(0, 1, 4).length)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_pair_synthesis);
criterion_main!(benches);
