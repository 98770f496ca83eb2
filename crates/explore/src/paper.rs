//! The paper's §4.2 experiment inputs: the digit model space and the
//! comparison suite it is swept over.

use mcm_core::{LitmusTest, MemoryModel};
use mcm_gen::suite::template_suite;
use mcm_models::{catalog, DigitModel};

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
