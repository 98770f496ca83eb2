//! Text and CSV reports of an exploration.

use std::fmt::Write as _;

use crate::space::{Exploration, SweepStats};

/// Renders the layer-by-layer sweep counters as the standard multi-line
/// stats block: pair reduction, batching amortization (when the batched
/// checkers ran) and SAT-solver totals (when a solver-backed checker ran).
/// Shared by the CLI's text reports so every sweep prints identically.
#[must_use]
pub fn sweep_stats_text(stats: &SweepStats) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sweep: {} pairs -> {} after formula dedup ({} distinct formulas x {} tests), \
         {} cache hits, {} checker calls ({:.1}x reduction)",
        stats.total_pairs,
        stats.unique_pairs,
        stats.distinct_models,
        stats.canonical_tests,
        stats.cache_hits,
        stats.checker_calls,
        stats.reduction_factor(),
    );
    if stats.semantic_merged_models > 0 || stats.prefilter_saved_calls > 0 {
        let _ = writeln!(
            out,
            "sweep analysis: {} models merged semantically, {} prefilter groups \
             saved {} checker calls",
            stats.semantic_merged_models,
            stats.prefilter_groups,
            stats.prefilter_saved_calls,
        );
    }
    if stats.batch.rows > 0 {
        let _ = writeln!(
            out,
            "sweep batching: {} test rows, {} model verdicts in {} groups \
             ({:.1}x row collapse), {} shared candidates, {} assumption solves",
            stats.batch.rows,
            stats.batch.models_checked,
            stats.batch.model_groups,
            stats.batch.row_collapse(),
            stats.batch.shared_candidates,
            stats.batch.assumption_solves,
        );
    }
    if stats.sat != mcm_sat::SolverStats::default() {
        let _ = writeln!(
            out,
            "sweep solver: {} decisions, {} propagations, {} conflicts, {} restarts",
            stats.sat.decisions,
            stats.sat.propagations,
            stats.sat.conflicts,
            stats.sat.restarts,
        );
    }
    out
}

/// One-line summary of a streaming sweep: how much was pulled from the
/// stream, how many orbit leaders were kept, and the size of the largest
/// chunk pulled at once ([`SweepStats::peak_batch`]). The kept tests stay
/// in memory besides, so the chunk size bounds the input side only.
#[must_use]
pub fn streaming_summary(stats: &SweepStats) -> String {
    let mut line = format!(
        "streamed {} tests -> {} kept ({} distinct models, chunks of ≤{} tests), \
         {} cache hits, {} checker calls ({:.1}x reduction)",
        stats.tests_streamed,
        stats.canonical_tests,
        stats.distinct_models,
        stats.peak_batch,
        stats.cache_hits,
        stats.checker_calls,
        stats.reduction_factor(),
    );
    if stats.semantic_merged_models > 0 || stats.prefilter_saved_calls > 0 {
        line.push_str(&format!(
            "; {} models merged semantically, prefilter saved {} calls",
            stats.semantic_merged_models, stats.prefilter_saved_calls,
        ));
    }
    if stats.batch.rows > 0 {
        line.push_str(&format!(
            "; batched {} rows into {} model groups ({:.1}x row collapse)",
            stats.batch.rows,
            stats.batch.model_groups,
            stats.batch.row_collapse(),
        ));
    }
    line
}

/// Renders a pairwise minimal-distinguishing-length matrix
/// (`matrix[i][j]` = fewest total accesses separating models `i` and `j`,
/// `None` = not separated) as a compact numbered table with a legend.
///
/// Shared by the exhaustive sweep (`distinguish::minimal_length_matrix`)
/// and the synthesis engine's CEGIS-derived matrix, so the two reports are
/// directly comparable.
#[must_use]
pub fn length_matrix_text(names: &[String], matrix: &[Vec<Option<usize>>]) -> String {
    let n = names.len();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "pairwise minimal distinguishing length (total accesses; '-' = not \
         distinguishable within bounds):"
    );
    let _ = write!(out, "      ");
    for j in 0..n {
        let _ = write!(out, "{j:>3}");
    }
    out.push('\n');
    for (i, row) in matrix.iter().enumerate() {
        let _ = write!(out, "  {i:>3} ");
        for (j, cell) in row.iter().enumerate() {
            match (i == j, cell) {
                (true, _) => {
                    let _ = write!(out, "  .");
                }
                (false, Some(len)) => {
                    let _ = write!(out, "{len:>3}");
                }
                (false, None) => {
                    let _ = write!(out, "  -");
                }
            }
        }
        out.push('\n');
    }
    let _ = writeln!(out, "legend:");
    for (i, name) in names.iter().enumerate() {
        let _ = writeln!(out, "  {i:>3} = {name}");
    }
    out
}

/// Renders the verdict matrix as CSV: one row per model, one column per
/// test, cells `allowed` / `forbidden`.
#[must_use]
pub fn csv_matrix(expl: &Exploration) -> String {
    let mut out = String::from("model");
    for test in &expl.tests {
        let _ = write!(out, ",{}", test.name());
    }
    out.push('\n');
    for (m, model) in expl.models.iter().enumerate() {
        let _ = write!(out, "{}", model.name().replace(',', ";"));
        for t in 0..expl.tests.len() {
            let _ = write!(
                out,
                ",{}",
                if expl.verdicts[m].allowed(t) {
                    "allowed"
                } else {
                    "forbidden"
                }
            );
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_axiomatic::ExplicitChecker;
    use mcm_models::{catalog, named};

    #[test]
    fn streaming_summary_reads_like_a_sentence() {
        let stats = crate::space::SweepStats {
            total_pairs: 200,
            unique_pairs: 100,
            cache_hits: 40,
            cache_hits_disk: 0,
            checker_calls: 60,
            canonical_tests: 50,
            distinct_models: 2,
            tests_streamed: 100,
            peak_batch: 8,
            semantic_merged_models: 1,
            prefilter_groups: 30,
            prefilter_saved_calls: 10,
            sat: Default::default(),
            batch: mcm_axiomatic::BatchStats {
                rows: 50,
                models_checked: 100,
                model_groups: 25,
                ..Default::default()
            },
        };
        let line = streaming_summary(&stats);
        assert!(line.contains("streamed 100 tests"));
        assert!(line.contains("50 kept"));
        assert!(line.contains("chunks of ≤8 tests"));
        assert!(line.contains("60 checker calls"));
        assert!(line.contains("1 models merged semantically"));
        assert!(line.contains("prefilter saved 10 calls"));
        assert!(line.contains("batched 50 rows into 25 model groups"));
        assert!(line.contains("4.0x row collapse"));
    }

    #[test]
    fn length_matrix_renders_cells_and_legend() {
        let names = vec!["SC".to_string(), "TSO".to_string(), "PSO".to_string()];
        let matrix = vec![
            vec![None, Some(4), Some(4)],
            vec![Some(4), None, None],
            vec![Some(4), None, None],
        ];
        let text = length_matrix_text(&names, &matrix);
        assert!(text.contains("minimal distinguishing length"));
        assert!(text.contains("  4"));
        assert!(text.contains("  -"));
        assert!(text.contains("0 = SC"));
        assert!(text.contains("2 = PSO"));
    }

    #[test]
    fn csv_matrix_is_rectangular() {
        let expl = Exploration::run(
            vec![named::sc(), named::tso()],
            catalog::nine_tests(),
            &ExplicitChecker::new(),
        );
        let csv = csv_matrix(&expl);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3); // header + 2 models
        let columns = lines[0].split(',').count();
        for line in &lines {
            assert_eq!(line.split(',').count(), columns);
        }
        assert!(lines[1].starts_with("SC,"));
        assert!(csv.contains("forbidden"));
    }
}
