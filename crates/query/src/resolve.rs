//! Model- and model-set-name resolution, shared by every query kind.

use mcm_core::MemoryModel;
use mcm_models::{named, DigitModel};

use crate::error::QueryError;

/// Resolves a model name: the named §2.4 models (case-insensitive) or a
/// digit model `M####`.
///
/// # Errors
///
/// [`QueryError::InvalidSpec`] naming the unknown model.
pub fn model(name: &str) -> Result<MemoryModel, QueryError> {
    match name.to_ascii_lowercase().as_str() {
        "sc" => return Ok(named::sc()),
        "tso" => return Ok(named::tso()),
        "x86" => return Ok(named::x86()),
        "pso" => return Ok(named::pso()),
        "ibm370" => return Ok(named::ibm370()),
        "rmo" => return Ok(named::rmo()),
        "rmo-nodep" => return Ok(named::rmo_without_dependencies()),
        "alpha" => return Ok(named::alpha()),
        _ => {}
    }
    name.parse::<DigitModel>()
        .map(|d| d.to_model())
        .map_err(|e| {
            QueryError::InvalidSpec(format!(
                "unknown model `{name}`: {e}; try SC/TSO/x86/PSO/IBM370/RMO/Alpha or M####"
            ))
        })
}

/// A declarative model-space choice — one leg of a query. Holds either a
/// symbolic set name (resolved lazily, so specs can be built without
/// touching the model catalog) or an explicit list of built models.
#[derive(Clone, Debug)]
pub enum ModelSpec {
    /// The 36 dependency-free digit models of Figure 4.
    Figure4,
    /// The full §4.2 space of 90 dependency-discriminating digit models.
    Full90,
    /// The named hardware models of §2.4 (SC, TSO, x86, PSO, IBM370,
    /// RMO, RMO-nodep, Alpha).
    Named,
    /// An explicit list of model names, each resolved by [`model`].
    List(Vec<String>),
    /// Already-built models, used verbatim.
    Models(Vec<MemoryModel>),
}

impl ModelSpec {
    /// Parses a model-set specification string (the CLI's `--models`, the
    /// wire's `models`):
    ///
    /// * `figure4` (aliases `fig4`, `36`) — the 36 dependency-free digit
    ///   models drawn in Figure 4;
    /// * `90` (aliases `full`, `all`) — the paper's full §4.2 space of 90
    ///   dependency-discriminating digit models;
    /// * `named` — the named hardware models of §2.4;
    /// * anything else — a comma-separated list of model names, each
    ///   resolved by [`model`] (e.g. `SC,TSO,M1032`).
    ///
    /// Never fails — unknown names surface from [`ModelSpec::resolve`].
    #[must_use]
    pub fn parse(spec: &str) -> ModelSpec {
        match spec.to_ascii_lowercase().as_str() {
            "figure4" | "fig4" | "36" => ModelSpec::Figure4,
            "90" | "full" | "all" => ModelSpec::Full90,
            "named" => ModelSpec::Named,
            _ => ModelSpec::List(
                spec.split(',')
                    .map(str::trim)
                    .filter(|name| !name.is_empty())
                    .map(str::to_string)
                    .collect(),
            ),
        }
    }

    /// Builds the model list this spec names.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidSpec`] when a listed name is unknown or the
    /// list is empty.
    pub fn resolve(&self) -> Result<Vec<MemoryModel>, QueryError> {
        match self {
            ModelSpec::Figure4 => Ok(mcm_explore::paper::digit_space_models(false)),
            ModelSpec::Full90 => Ok(mcm_explore::paper::digit_space_models(true)),
            ModelSpec::Named => Ok(named::all_named()),
            ModelSpec::List(names) => {
                let models: Vec<MemoryModel> =
                    names.iter().map(|n| model(n)).collect::<Result<_, _>>()?;
                if models.is_empty() {
                    return Err(QueryError::InvalidSpec(
                        "the model set names no models; try figure4, 90, named \
                         or a comma-separated list like SC,TSO,M1032"
                            .to_string(),
                    ));
                }
                Ok(models)
            }
            ModelSpec::Models(models) => Ok(models.clone()),
        }
    }
}

/// Whether any of `models` can observe the dependency idioms — the
/// condition under which a comparison suite should include them.
#[must_use]
pub fn models_use_dependencies(models: &[MemoryModel]) -> bool {
    models.iter().any(|m| m.formula().uses_dependencies())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_models_resolve_case_insensitively() {
        assert_eq!(model("tso").unwrap().name(), "TSO");
        assert_eq!(model("TSO").unwrap().name(), "TSO");
        assert_eq!(model("Ibm370").unwrap().name(), "IBM370");
    }

    #[test]
    fn digit_models_resolve() {
        assert_eq!(model("M4044").unwrap().name(), "M4044");
    }

    #[test]
    fn nonsense_is_an_error() {
        assert!(model("powerpc").is_err());
        assert!(model("M9999").is_err());
    }

    #[test]
    fn model_sets_resolve() {
        assert_eq!(ModelSpec::parse("figure4").resolve().unwrap().len(), 36);
        assert_eq!(ModelSpec::parse("36").resolve().unwrap().len(), 36);
        assert_eq!(ModelSpec::parse("90").resolve().unwrap().len(), 90);
        assert_eq!(ModelSpec::parse("full").resolve().unwrap().len(), 90);
        assert_eq!(ModelSpec::parse("named").resolve().unwrap().len(), 8);
        let listed = ModelSpec::parse("SC, TSO,M1032").resolve().unwrap();
        assert_eq!(listed.len(), 3);
        assert_eq!(listed[0].name(), "SC");
        assert_eq!(listed[2].name(), "M1032");
    }

    #[test]
    fn bad_model_sets_are_errors() {
        assert!(ModelSpec::parse("SC,powerpc").resolve().is_err());
        assert!(ModelSpec::parse(",, ,").resolve().is_err());
        assert!(ModelSpec::parse("SC,powerpc").resolve().unwrap_err().is_usage());
    }

    #[test]
    fn explicit_model_lists_pass_through() {
        let models = ModelSpec::Models(vec![named::sc()]).resolve().unwrap();
        assert_eq!(models.len(), 1);
        assert_eq!(models[0].name(), "SC");
    }

    #[test]
    fn dependency_detection_matches_the_formulas() {
        assert!(models_use_dependencies(&ModelSpec::parse("90").resolve().unwrap()));
        assert!(!models_use_dependencies(&ModelSpec::parse("figure4").resolve().unwrap()));
        assert!(models_use_dependencies(&[named::rmo()]));
        assert!(!models_use_dependencies(&[named::sc(), named::tso()]));
    }
}
