//! The CEGIS synthesis report: per-pair minimal distinguishing lengths.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Duration;

use mcm_core::json::Json;
use mcm_core::LitmusTest;
use mcm_explore::report::length_matrix_text;
use mcm_synth::{SynthBounds, SynthStats};

use crate::render::{counters_json, duration_json, duration_text, test_json, Render};

/// The answer for one synthesized model pair.
#[derive(Clone, Debug)]
pub struct SynthPair {
    /// Name of the left model.
    pub left: String,
    /// Name of the right model.
    pub right: String,
    /// Minimal distinguishing length (total accesses), `None` when the
    /// pair is UNSAT-certified or statically proven indistinguishable
    /// within the bounds.
    pub length: Option<usize>,
    /// A synthesized witness of that length.
    pub witness: Option<LitmusTest>,
    /// Name of the model allowing the witness.
    pub allowed_by: Option<String>,
    /// Name of the model forbidding the witness.
    pub forbidden_by: Option<String>,
    /// Where the answer came from: `"cegis"`, or `"pointwise"` /
    /// `"theorem-a"` for a statically proven equivalence
    /// ([`mcm_synth::PairSynthesis::source`]).
    pub source: &'static str,
}

/// The pairwise minimal-length matrix over a model list.
#[derive(Clone, Debug)]
pub struct SynthMatrix {
    /// Model names indexing the matrix.
    pub names: Vec<String>,
    /// `lengths[i][j]`: minimal distinguishing length for models `i`,
    /// `j` (`None` on the diagonal and for indistinguishable pairs).
    pub lengths: Vec<Vec<Option<usize>>>,
    /// `sources[i][j]`: where that cell came from (`None` on the
    /// diagonal).
    pub sources: Vec<Vec<Option<&'static str>>>,
}

impl SynthMatrix {
    /// `(length, pair count)` histogram plus the number of pairs not
    /// separated within bounds.
    #[must_use]
    pub fn histogram(&self) -> (BTreeMap<usize, usize>, usize) {
        let n = self.names.len();
        let mut per_length = BTreeMap::new();
        let mut unseparated = 0usize;
        for i in 0..n {
            for j in (i + 1)..n {
                match self.lengths[i][j] {
                    Some(len) => *per_length.entry(len).or_insert(0) += 1,
                    None => unseparated += 1,
                }
            }
        }
        (per_length, unseparated)
    }

    /// Pairs per source (`"cegis"`, `"pointwise"`, `"theorem-a"`).
    #[must_use]
    pub fn sources(&self) -> BTreeMap<&'static str, usize> {
        let mut per_source = BTreeMap::new();
        for (i, row) in self.sources.iter().enumerate() {
            for source in row[i + 1..].iter().flatten() {
                *per_source.entry(*source).or_insert(0) += 1;
            }
        }
        per_source
    }
}

/// What a synth query produced: one pair's certified minimal length (and
/// witness), or the whole pairwise matrix.
#[derive(Clone, Debug)]
pub struct SynthReport {
    /// The bounded search box.
    pub bounds: SynthBounds,
    /// The length cap the search ran to.
    pub max_size: usize,
    /// One pair's answer (pair mode).
    pub pair: Option<SynthPair>,
    /// The pairwise matrix (matrix mode).
    pub matrix: Option<SynthMatrix>,
    /// CEGIS engine counters.
    pub stats: SynthStats,
    /// Include solver counters in the text rendering.
    pub verbose: bool,
    /// CEGIS iteration and checker latency percentiles observed during
    /// the synthesis (`None` when obs was disabled). JSON-only.
    pub timings: Option<crate::reports::Timings>,
    /// Wall-clock of the synthesis.
    pub elapsed: Duration,
}

impl SynthReport {
    fn stats_text(&self, out: &mut String) {
        let stats = &self.stats;
        let _ = writeln!(
            out,
            "cegis: {} SAT queries -> {} structures -> {} candidates, {} witnesses, \
             {} sub-spaces exhausted, {} oracle calls (+{} cached)",
            stats.sat_queries,
            stats.structures,
            stats.candidates,
            stats.witnesses,
            stats.shapes_exhausted,
            stats.oracle_calls,
            stats.oracle_cache_hits,
        );
        if self.verbose {
            let _ = writeln!(
                out,
                "solver: {} decisions, {} propagations, {} conflicts, {} restarts, \
                 {} learnt clauses retained",
                stats.solver.decisions,
                stats.solver.propagations,
                stats.solver.conflicts,
                stats.solver.restarts,
                stats.solver.learnt_clauses,
            );
            if stats.encoding_mismatches > 0 {
                let _ = writeln!(
                    out,
                    "WARNING: {} encoding/oracle mismatches (please report)",
                    stats.encoding_mismatches
                );
            }
        }
    }

    fn pair_text(&self, pair: &SynthPair, out: &mut String) {
        match (&pair.length, &pair.witness) {
            (Some(length), Some(witness)) => {
                let _ = writeln!(
                    out,
                    "minimal distinguishing length for {} vs {}: {} accesses \
                     (SAT-certified minimum, {})",
                    pair.left,
                    pair.right,
                    length,
                    duration_text(self.elapsed),
                );
                let _ = writeln!(
                    out,
                    "witness (allowed by {}, forbidden by {}):",
                    pair.allowed_by.as_deref().unwrap_or("?"),
                    pair.forbidden_by.as_deref().unwrap_or("?"),
                );
                let _ = write!(out, "{witness}");
            }
            _ if pair.source != "cegis" => {
                let _ = writeln!(
                    out,
                    "{} and {} are indistinguishable by any test \
                     (statically proven: {} equivalence, {})",
                    pair.left,
                    pair.right,
                    pair.source,
                    duration_text(self.elapsed),
                );
            }
            _ => {
                let _ = writeln!(
                    out,
                    "{} and {} are indistinguishable by any test of <= {} \
                     accesses within these bounds (UNSAT-certified, {})",
                    pair.left,
                    pair.right,
                    self.max_size,
                    duration_text(self.elapsed),
                );
            }
        }
    }

    fn matrix_text(&self, matrix: &SynthMatrix, out: &mut String) {
        let _ = writeln!(
            out,
            "synthesizing the pairwise minimal-length matrix for {} models \
             (<= {} accesses/thread, {} locs{}{}, lengths <= {}) ...",
            matrix.names.len(),
            self.bounds.max_accesses_per_thread,
            self.bounds.max_locs,
            if self.bounds.include_fences { ", fences" } else { "" },
            if self.bounds.include_deps { ", deps" } else { "" },
            self.max_size,
        );
        let _ = write!(out, "{}", length_matrix_text(&matrix.names, &matrix.lengths));
        let (per_length, unseparated) = matrix.histogram();
        let histogram: Vec<String> = per_length
            .iter()
            .map(|(len, count)| format!("{count} pairs at length {len}"))
            .collect();
        let n = matrix.names.len();
        let _ = writeln!(
            out,
            "{} pairs synthesized in {}: {}; {} pairs equivalent within bounds",
            n * (n - 1) / 2,
            duration_text(self.elapsed),
            histogram.join(", "),
            unseparated,
        );
        let sources: Vec<String> = matrix
            .sources()
            .iter()
            .map(|(source, count)| format!("{count} {source}"))
            .collect();
        let _ = writeln!(out, "pair sources: {}", sources.join(", "));
    }
}

impl Render for SynthReport {
    fn kind(&self) -> &'static str {
        "synth"
    }

    fn text(&self) -> String {
        let mut out = String::new();
        if let Some(pair) = &self.pair {
            self.pair_text(pair, &mut out);
        }
        if let Some(matrix) = &self.matrix {
            self.matrix_text(matrix, &mut out);
        }
        self.stats_text(&mut out);
        out
    }

    fn json_fields(&self) -> Vec<(String, Json)> {
        let bounds = Json::object([
            (
                "max_accesses_per_thread",
                Json::from(self.bounds.max_accesses_per_thread),
            ),
            ("threads", Json::from(self.bounds.threads)),
            ("max_locs", Json::from(u64::from(self.bounds.max_locs))),
            ("include_fences", Json::Bool(self.bounds.include_fences)),
            ("include_deps", Json::Bool(self.bounds.include_deps)),
        ]);
        let pair = match &self.pair {
            None => Json::Null,
            Some(pair) => Json::object([
                ("left", Json::from(pair.left.as_str())),
                ("right", Json::from(pair.right.as_str())),
                ("length", Json::from(pair.length.map(|l| l as u64))),
                (
                    "witness",
                    match &pair.witness {
                        Some(test) => test_json(test),
                        None => Json::Null,
                    },
                ),
                ("allowed_by", Json::from(pair.allowed_by.as_deref())),
                ("forbidden_by", Json::from(pair.forbidden_by.as_deref())),
                ("source", Json::from(pair.source)),
            ]),
        };
        let matrix = match &self.matrix {
            None => Json::Null,
            Some(matrix) => {
                let (per_length, unseparated) = matrix.histogram();
                Json::object([
                    (
                        "names",
                        Json::array_of(&matrix.names, |n| Json::from(n.as_str())),
                    ),
                    (
                        "lengths",
                        Json::array_of(&matrix.lengths, |row| {
                            Json::array_of(row, |cell| Json::from(cell.map(|l| l as u64)))
                        }),
                    ),
                    (
                        "sources",
                        Json::array_of(&matrix.sources, |row| {
                            Json::array_of(row, |cell| Json::from(*cell))
                        }),
                    ),
                    (
                        "histogram",
                        Json::array_of(per_length, |(length, pairs)| {
                            Json::object([
                                ("length", Json::from(length)),
                                ("pairs", Json::from(pairs)),
                            ])
                        }),
                    ),
                    ("unseparated", Json::from(unseparated)),
                ])
            }
        };
        let mut stats = self.stats.json_fields();
        stats.push((
            "solver".to_string(),
            counters_json(&self.stats.solver.counters()),
        ));
        vec![
            ("bounds".to_string(), bounds),
            ("max_size".to_string(), Json::from(self.max_size)),
            ("pair".to_string(), pair),
            ("matrix".to_string(), matrix),
            ("stats".to_string(), Json::Object(stats)),
            (
                "timings".to_string(),
                crate::reports::timings::timings_json(&self.timings),
            ),
            ("elapsed_ms".to_string(), duration_json(self.elapsed)),
        ]
    }
}
