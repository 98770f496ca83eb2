//! The minimum-distinguishing-set report.

use std::fmt::Write as _;
use std::time::Duration;

use mcm_core::json::Json;
use mcm_explore::distinguish::MinimalSet;
use mcm_explore::{report, Exploration, SweepStats};

use crate::render::{duration_json, duration_text, Render};
use crate::reports::sweep::stats_json;

/// What a distinguish query produced: the sweep, its equivalence
/// classes, and a SAT-certified minimum distinguishing test set.
#[derive(Clone, Debug)]
pub struct DistinguishReport {
    /// The models × tests verdict matrix the set was computed from.
    pub exploration: Exploration,
    /// Layer-by-layer engine counters of the sweep.
    pub stats: SweepStats,
    /// The equivalence classes (model indices).
    pub classes: Vec<Vec<usize>>,
    /// The minimum distinguishing set with its minimality certificate.
    pub minimal: MinimalSet,
    /// Cache totals, when the query ran with a verdict cache.
    pub cache: Option<mcm_explore::CacheStats>,
    /// Wall-clock of the sweep.
    pub elapsed: Duration,
}

impl Render for DistinguishReport {
    fn kind(&self) -> &'static str {
        "distinguish"
    }

    fn text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "swept {} models x {} tests in {}",
            self.exploration.models.len(),
            self.exploration.tests.len(),
            duration_text(self.elapsed),
        );
        out.push_str(&report::sweep_stats_text(&self.stats));
        let _ = writeln!(out, "equivalence classes: {}", self.classes.len());
        let _ = writeln!(
            out,
            "minimum distinguishing set: {} tests (SAT-certified minimum: {})",
            self.minimal.tests.len(),
            self.minimal.proved_minimum,
        );
        for &t in &self.minimal.tests {
            let test = &self.exploration.tests[t];
            let _ = writeln!(out, "  {:44} {}", test.name(), test.description());
        }
        if let Some(cache) = &self.cache {
            let _ = writeln!(out, "{cache}");
        }
        out
    }

    fn json_fields(&self) -> Vec<(String, Json)> {
        let models = Json::array_of(&self.exploration.models, |m| Json::from(m.name()));
        let classes = Json::array_of(&self.classes, |members| {
            Json::array_of(members, |&m| {
                Json::from(self.exploration.models[m].name())
            })
        });
        let minimal = Json::object([
            (
                "tests",
                Json::array_of(&self.minimal.tests, |&t| {
                    let test = &self.exploration.tests[t];
                    Json::object([
                        ("name", Json::from(test.name())),
                        ("description", Json::from(test.description())),
                    ])
                }),
            ),
            ("proved_minimum", Json::Bool(self.minimal.proved_minimum)),
        ]);
        vec![
            ("models".to_string(), models),
            (
                "tests".to_string(),
                Json::from(self.exploration.tests.len()),
            ),
            ("stats".to_string(), stats_json(&self.stats)),
            ("classes".to_string(), classes),
            ("minimal_set".to_string(), minimal),
            (
                "cache".to_string(),
                self.cache
                    .as_ref()
                    .map_or(Json::Null, mcm_explore::CacheStats::to_json),
            ),
            ("elapsed_ms".to_string(), duration_json(self.elapsed)),
        ]
    }

    fn csv(&self) -> Option<String> {
        Some(report::csv_matrix(&self.exploration))
    }
}
