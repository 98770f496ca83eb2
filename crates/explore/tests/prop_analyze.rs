//! Cross-layer properties: the static analyzer against the real sweep.
//!
//! The analyzer claims three things it never runs a test to establish —
//! equivalence (equal normalized tables), order (pointwise implication)
//! and normal forms (minimized DNF drop-ins). Each claim is checked here
//! against verdicts computed by the actual checkers over the complete
//! dependency template suite, which decides equivalence for the model
//! class (Theorem 1 / Corollary 1). `elision_theorem_exhaustive` covers
//! the *whole* finite domain of Theorem A, so the elision rule is
//! machine-verified, not sampled. The sweep prefilter's grouping is
//! pinned to the checker's own quotient, `forced_po_pairs`, on every test
//! it is checked against, and a streamed sweep, which always prefilters,
//! is bit-identical to the sequential reference, with every skipped
//! checker call accounted for.

use mcm_analyze::{
    elidable, minimized_dnf, AtomUniverse, StrengthAnalysis, SweepPrefilter, TruthTable,
};
use mcm_axiomatic::hb::forced_po_pairs;
use mcm_axiomatic::{BatchExplicitChecker, ExplicitChecker};
use mcm_core::formula::{ArgPos, Atom, Formula};
use mcm_core::{EventId, Execution, LitmusTest, MemoryModel};
use mcm_explore::space::Exploration;
use mcm_explore::{EngineConfig, StreamControl};
use mcm_gen::stream::{leaders, StreamBounds};
use mcm_models::DigitModel;

fn ninety_models() -> Vec<MemoryModel> {
    DigitModel::all().into_iter().map(|d| d.to_model()).collect()
}

fn comparison_suite() -> Vec<mcm_core::LitmusTest> {
    mcm_explore::paper::comparison_tests(true)
}

#[test]
fn static_equivalence_matches_the_materialized_sweep() {
    let models = ninety_models();
    let analysis = StrengthAnalysis::build(&models);
    let expl = Exploration::run(models, comparison_suite(), &ExplicitChecker::new());

    let mut swept: Vec<(usize, usize)> = expl.equivalent_pairs();
    let mut claimed: Vec<(usize, usize)> = analysis
        .equivalent_pairs()
        .into_iter()
        .map(|(i, j, _)| (i, j))
        .collect();
    swept.sort_unstable();
    claimed.sort_unstable();
    assert_eq!(
        claimed, swept,
        "analyzer equivalences must coincide with sweep equivalences"
    );

    // And equivalent pairs have bit-identical verdict vectors.
    for (i, j) in claimed {
        assert_eq!(expl.verdicts[i], expl.verdicts[j]);
    }
}

#[test]
fn static_order_is_never_contradicted_by_verdicts() {
    let models = ninety_models();
    let analysis = StrengthAnalysis::build(&models);
    let expl = Exploration::run(models, comparison_suite(), &ExplicitChecker::new());

    for i in 0..analysis.models.len() {
        for j in 0..analysis.models.len() {
            if i == j {
                continue;
            }
            // i implies j statically => j is stronger-or-equal => j's
            // allowed set is a subset of i's on every suite.
            if analysis.models[i].normalized.implies(&analysis.models[j].normalized) {
                assert!(
                    expl.verdicts[j].subset_of(&expl.verdicts[i]),
                    "{} <= {} statically, but the sweep disagrees",
                    analysis.models[j].name,
                    analysis.models[i].name,
                );
            }
        }
    }
}

#[test]
fn minimized_dnf_is_a_verdict_preserving_drop_in() {
    // Mixed bag: named models and dependency-sensitive digit models.
    let originals: Vec<MemoryModel> = ["M4044", "M4144", "M1132", "M4432", "M1010"]
        .iter()
        .map(|s| s.parse::<DigitModel>().unwrap().to_model())
        .chain([
            mcm_models::named::rmo(),
            mcm_models::named::alpha(),
            mcm_models::named::sc(),
        ])
        .collect();
    let rewritten: Vec<MemoryModel> = originals
        .iter()
        .map(|m| MemoryModel::new(m.name(), minimized_dnf(m.formula())))
        .collect();

    let tests = comparison_suite();
    let a = Exploration::run(originals, tests.clone(), &ExplicitChecker::new());
    let b = Exploration::run(rewritten.clone(), tests.clone(), &ExplicitChecker::new());
    assert_eq!(a.verdicts, b.verdicts, "explicit checker must not notice");

    let sat = Exploration::run(rewritten, tests, &*mcm_axiomatic::CheckerKind::Sat.build_batch());
    assert_eq!(a.verdicts, sat.verdicts, "nor the SAT checker");
}

/// One guarded-fragment formula: the free slots are the same-address
/// `R→R` dependency bits, the different-address `R→W` dependency bits and
/// the different-address `W→W` bit; `wr` selects the elidable slot.
fn guarded_formula(rr: u8, rw: u8, ww: bool, wr_ordered: bool) -> Formula {
    let same = || Formula::atom(Atom::SameAddr);
    let dep = || Formula::atom(Atom::DataDep);
    let w = Atom::IsWrite;
    let r = Atom::IsRead;
    let rr_cond = match rr {
        0b00 => Formula::never(),
        0b01 => Formula::and([same(), dep()]),
        _ => same(),
    };
    let rw_cond = match rw {
        0b00 => same(),
        0b01 => Formula::or([same(), dep()]),
        _ => Formula::always(),
    };
    let ww_cond = if ww { Formula::always() } else { same() };
    let wr_cond = if wr_ordered { same() } else { Formula::never() };
    Formula::or([
        Formula::fence_either(),
        Formula::pair(w(ArgPos::First), w(ArgPos::Second), ww_cond),
        Formula::pair(w(ArgPos::First), r(ArgPos::Second), wr_cond),
        Formula::pair(r(ArgPos::First), w(ArgPos::Second), rw_cond),
        Formula::pair(r(ArgPos::First), r(ArgPos::Second), rr_cond),
    ])
}

#[test]
fn elision_theorem_exhaustive() {
    // Theorem A's domain is finite: twelve guard-satisfying tables. For
    // every one, the formula with the same-address W→R slot ordered and
    // the one without must produce bit-identical verdicts over the
    // complete dependency template suite — which decides equivalence for
    // this class — so the theorem is verified over its whole domain.
    let universe = AtomUniverse::base();
    let suite: Vec<mcm_core::LitmusTest> =
        mcm_gen::suite::template_suite_extended(true, true).tests;
    assert!(!suite.is_empty());

    let fragment = mcm_analyze::guarded_fragment();
    assert_eq!(fragment.len(), 12);
    for (rr, rw, ww) in fragment {
        let without = guarded_formula(rr, rw, ww, false);
        let with = guarded_formula(rr, rw, ww, true);
        for f in [&without, &with] {
            assert!(
                elidable(&TruthTable::build(f, &universe), &universe),
                "fragment member (rr={rr:#04b}, rw={rw:#04b}, ww={ww}) must satisfy the guard"
            );
        }
        let models = vec![
            MemoryModel::new("e0", without),
            MemoryModel::new("e1", with),
        ];
        let expl = Exploration::run(models, suite.clone(), &ExplicitChecker::new());
        assert_eq!(
            expl.verdicts[0], expl.verdicts[1],
            "elision must be invisible for (rr={rr:#04b}, rw={rw:#04b}, ww={ww})"
        );
    }
}

#[test]
fn non_guarded_wr_elision_is_observable() {
    // The guard is not vacuous: TSO (M4044) vs IBM370 (M4144) differ in
    // exactly the same slot but fail the guard, and the suite does
    // distinguish them.
    let models = vec![
        "M4044".parse::<DigitModel>().unwrap().to_model(),
        "M4144".parse::<DigitModel>().unwrap().to_model(),
    ];
    let expl = Exploration::run(models, comparison_suite(), &ExplicitChecker::new());
    assert_ne!(expl.verdicts[0], expl.verdicts[1]);
}

/// Labels each input row with the index of its class, classes numbered
/// in order of first appearance in `rows`.
fn first_appearance_labels<K: PartialEq>(rows: &[usize], key: impl Fn(usize) -> K) -> Vec<usize> {
    let mut seen: Vec<K> = Vec::new();
    rows.iter()
        .map(|&row| {
            let k = key(row);
            seen.iter().position(|s| *s == k).unwrap_or_else(|| {
                seen.push(k);
                seen.len() - 1
            })
        })
        .collect()
}

/// Asserts that `group_rows` partitions `rows` exactly as equality of
/// `forced_po_pairs` does, with groups in first-appearance order and
/// members in input order.
fn assert_prefilter_matches_forced_pairs(
    prefilter: &SweepPrefilter,
    models: &[MemoryModel],
    test: &LitmusTest,
    rows: &[usize],
) {
    let exec: Execution = test.execution();
    let pairs: Vec<Vec<(EventId, EventId)>> =
        models.iter().map(|m| forced_po_pairs(m, &exec)).collect();
    let groups = prefilter.group_rows(&exec, rows);
    let mut group_labels = vec![usize::MAX; models.len()];
    for (g, group) in groups.iter().enumerate() {
        for &row in group {
            group_labels[row] = g;
        }
    }
    let grouped: Vec<usize> = rows.iter().map(|&row| group_labels[row]).collect();
    let expected = first_appearance_labels(rows, |row| pairs[row].clone());
    // Equal label vectors under first-appearance numbering mean the same
    // partition *and* the same group order.
    assert_eq!(
        grouped,
        expected,
        "prefilter groups differ from forced_po_pairs classes on {}",
        test.name()
    );
    let flattened: usize = groups.iter().map(Vec::len).sum();
    assert_eq!(flattened, rows.len(), "every row lands in one group");
    for group in &groups {
        let positions: Vec<usize> = group
            .iter()
            .map(|row| rows.iter().position(|r| r == row).unwrap())
            .collect();
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "members keep input order on {}",
            test.name()
        );
    }
}

#[test]
fn prefilter_groups_exactly_when_forced_pairs_agree() {
    let models = ninety_models();
    let refs: Vec<&MemoryModel> = models.iter().collect();
    let prefilter = SweepPrefilter::new(&refs);
    let forward: Vec<usize> = (0..models.len()).collect();
    let reversed: Vec<usize> = forward.iter().rev().copied().collect();

    // The batched-core property space: at most 3 accesses, fences and
    // data dependencies on.
    let sampled = StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: true,
        include_deps: true,
    };
    let sampled: Vec<LitmusTest> = leaders(&sampled)
        .filter(|t| t.program().access_count() <= 3)
        .collect();
    assert!(sampled.len() > 100);
    // And the head of the default stream the 90-model sweep runs.
    let stream: Vec<LitmusTest> = leaders(&StreamBounds::default()).take(1000).collect();
    assert_eq!(stream.len(), 1000);

    for test in sampled.iter().chain(&stream) {
        assert_prefilter_matches_forced_pairs(&prefilter, &models, test, &forward);
    }
    // Order is first appearance in the *input*, not in model order.
    for test in stream.iter().step_by(10) {
        assert_prefilter_matches_forced_pairs(&prefilter, &models, test, &reversed);
    }
}

/// The prefilter's soundness and accounting on the 90-model streamed
/// sweep over the first 1,000 leaders of the dependency-discriminating
/// bounds: verdicts bit-identical to the sequential reference, which has
/// no prefilter, and `checker_calls + prefilter_saved_calls ==
/// unique_pairs`.
#[test]
fn prefiltered_stream_is_bit_identical_and_balances_its_calls() {
    let bounds = StreamBounds {
        max_accesses_per_thread: 2,
        threads: 2,
        max_locs: 2,
        include_fences: true,
        include_deps: true,
    };
    let models = mcm_explore::paper::digit_space_models(true);
    let tests: Vec<LitmusTest> = leaders(&bounds).take(1_000).collect();
    let (swept, stats) = Exploration::run_engine_streaming_with(
        models.clone(),
        tests.clone(),
        || Box::new(BatchExplicitChecker::new()),
        &EngineConfig::default(),
        None,
        StreamControl::default(),
    )
    .expect("a cold sweep cannot fail to resume");
    let reference = Exploration::run(models, tests, &BatchExplicitChecker::new());
    assert_eq!(swept.models.len(), 90);
    assert_eq!(swept.tests.len(), reference.tests.len());
    for (row, (a, b)) in swept.verdicts.iter().zip(&reference.verdicts).enumerate() {
        assert_eq!(
            a, b,
            "prefilter changed the verdict vector of {}",
            swept.models[row].name(),
        );
    }
    assert!(stats.prefilter_saved_calls > 0, "some tests must group models");
    assert_eq!(
        stats.checker_calls + stats.prefilter_saved_calls,
        stats.unique_pairs,
        "prefilter accounting must balance against the unique pairs"
    );
}
