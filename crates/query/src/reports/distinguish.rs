//! The minimum-distinguishing-set report.

use std::fmt::Write as _;

use mcm_core::json::Json;
use mcm_explore::distinguish::MinimalSet;
use mcm_explore::report;

use crate::render::{duration_json, duration_text, Render};
use crate::reports::sweep::stats_json;
use crate::reports::SweepReport;

/// What a distinguish query produced: a view of the materialized sweep it
/// ran ([`crate::SweepQuery::run_distinguish`]) that reads off the
/// equivalence classes and the SAT-certified minimum distinguishing set.
#[derive(Clone, Debug)]
pub struct DistinguishReport {
    /// The sweep the view reads from.
    pub sweep: SweepReport,
}

impl DistinguishReport {
    /// The minimum distinguishing set with its minimality certificate.
    ///
    /// # Panics
    ///
    /// Never for a report built by [`crate::SweepQuery::run_distinguish`],
    /// which rejects streamed sources (the only ones without a set).
    #[must_use]
    pub fn minimal(&self) -> &MinimalSet {
        self.sweep
            .minimal_set
            .as_ref()
            .expect("a distinguish sweep is materialized")
    }
}

impl Render for DistinguishReport {
    fn kind(&self) -> &'static str {
        "distinguish"
    }

    fn text(&self) -> String {
        let sweep = &self.sweep;
        let expl = &sweep.exploration;
        let minimal = self.minimal();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "swept {} models x {} tests in {}",
            expl.models.len(),
            expl.tests.len(),
            duration_text(sweep.elapsed),
        );
        out.push_str(&report::sweep_stats_text(&sweep.stats));
        let _ = writeln!(out, "equivalence classes: {}", sweep.lattice.classes.len());
        let _ = writeln!(
            out,
            "minimum distinguishing set: {} tests (SAT-certified minimum: {})",
            minimal.tests.len(),
            minimal.proved_minimum,
        );
        for &t in &minimal.tests {
            let test = &expl.tests[t];
            let _ = writeln!(out, "  {:44} {}", test.name(), test.description());
        }
        if let Some(cache) = &sweep.cache {
            let _ = writeln!(out, "{cache}");
        }
        out
    }

    fn json_fields(&self) -> Vec<(String, Json)> {
        let sweep = &self.sweep;
        let expl = &sweep.exploration;
        let minimal = self.minimal();
        let models = Json::array_of(&expl.models, |m| Json::from(m.name()));
        let classes = Json::array_of(&sweep.lattice.classes, |class| {
            Json::array_of(&class.members, |&m| Json::from(expl.models[m].name()))
        });
        let minimal = Json::object([
            (
                "tests",
                Json::array_of(&minimal.tests, |&t| {
                    let test = &expl.tests[t];
                    Json::object([
                        ("name", Json::from(test.name())),
                        ("description", Json::from(test.description())),
                    ])
                }),
            ),
            ("proved_minimum", Json::Bool(minimal.proved_minimum)),
        ]);
        vec![
            ("models".to_string(), models),
            ("tests".to_string(), Json::from(expl.tests.len())),
            ("stats".to_string(), stats_json(&sweep.stats)),
            ("classes".to_string(), classes),
            ("minimal_set".to_string(), minimal),
            (
                "cache".to_string(),
                sweep
                    .cache
                    .as_ref()
                    .map_or(Json::Null, mcm_explore::CacheStats::to_json),
            ),
            ("elapsed_ms".to_string(), duration_json(sweep.elapsed)),
        ]
    }

    fn csv(&self) -> Option<String> {
        self.sweep.csv()
    }
}
