//! One-call reproduction of the paper's §4.2 exploration.

use mcm_axiomatic::BatchExplicitChecker;
use mcm_core::{LitmusTest, MemoryModel};
use mcm_gen::suite::template_suite;
use mcm_models::{catalog, DigitModel};

use crate::distinguish::{self, MinimalSet};
use crate::lattice::Lattice;
use crate::space::{EngineConfig, Exploration};

/// The models of the §4.2 space: all 90 digit models, or the 36
/// dependency-free ones drawn in Figure 4.
#[must_use]
pub fn digit_space_models(with_deps: bool) -> Vec<MemoryModel> {
    let digits = if with_deps {
        DigitModel::all()
    } else {
        DigitModel::all_without_dependencies()
    };
    digits
        .into_iter()
        .map(|d| {
            let model = d.to_model();
            match d.conventional_name() {
                Some(conventional) => model.renamed(format!("{} ({conventional})", d.name())),
                None => model,
            }
        })
        .collect()
}

/// The comparison suite: the Theorem 1 template suite extended with the
/// paper's own Figure 1/Figure 3 tests (which are template instances, kept
/// under their paper names so reports read like the paper).
#[must_use]
pub fn comparison_tests(with_deps: bool) -> Vec<LitmusTest> {
    let mut tests = vec![catalog::test_a()];
    tests.extend(catalog::nine_tests());
    if !with_deps {
        // The dependency-free space cannot observe dependency idioms, but
        // keeping L4/L6/L8/L9 (whose dependencies are then inert) is
        // harmless and keeps Figure 4's edge labels available.
    }
    tests.extend(template_suite(with_deps).tests);
    tests
}

/// Everything §4.2 reports, computed in one call.
#[derive(Clone, Debug)]
pub struct SpaceReport {
    /// The exploration (models × tests verdict matrix).
    pub exploration: Exploration,
    /// The Hasse diagram of model classes.
    pub lattice: Lattice,
    /// Pairs of equivalent models, by name.
    pub equivalent_pairs: Vec<(String, String)>,
    /// A minimum distinguishing set (with SAT minimality certificate).
    pub minimal_set: MinimalSet,
    /// Indices of the paper's nine tests within the suite.
    pub nine_test_indices: Vec<usize>,
    /// Whether the paper's nine tests alone distinguish every
    /// non-equivalent pair (the paper's §4.2 claim).
    pub nine_tests_sufficient: bool,
}

/// Runs the full §4.2 experiment: explore the digit space, group
/// equivalent models, build the lattice and compute distinguishing sets.
///
/// With `with_deps = true` this is the 90-model exploration (expect **8
/// equivalent pairs**); with `false`, the 36-model space of Figure 4.
#[must_use]
pub fn explore_digit_space(with_deps: bool) -> SpaceReport {
    let models = digit_space_models(with_deps);
    let tests = comparison_tests(with_deps);
    let (exploration, _) = Exploration::run_engine(
        models,
        tests,
        || Box::new(BatchExplicitChecker::new()),
        &EngineConfig::default(),
        None,
    );
    report_from(exploration)
}

/// Builds a [`SpaceReport`] from an existing exploration (exposed so the
/// CLI can reuse a sequential or custom-checker run).
#[must_use]
pub fn report_from(exploration: Exploration) -> SpaceReport {
    let lattice = Lattice::build(&exploration);
    let equivalent_pairs = exploration.equivalent_pair_names();
    let minimal_set = distinguish::minimal_distinguishing_set(&exploration);
    let nine_test_indices: Vec<usize> = ["L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9"]
        .iter()
        .filter_map(|name| exploration.tests.iter().position(|t| t.name() == *name))
        .collect();
    let nine_tests_sufficient =
        distinguish::is_sufficient(&exploration, &nine_test_indices);
    SpaceReport {
        exploration,
        lattice,
        equivalent_pairs,
        minimal_set,
        nine_test_indices,
        nine_tests_sufficient,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_space_sizes() {
        assert_eq!(digit_space_models(true).len(), 90);
        assert_eq!(digit_space_models(false).len(), 36);
    }

    #[test]
    fn comparison_suite_contains_the_paper_tests() {
        let tests = comparison_tests(true);
        for name in ["TestA", "L1", "L5", "L9"] {
            assert!(tests.iter().any(|t| t.name() == name), "missing {name}");
        }
        // No more than Corollary 1's bound plus the ten catalog tests.
        assert!(tests.len() as u64 <= 230 + 10);
    }
}
