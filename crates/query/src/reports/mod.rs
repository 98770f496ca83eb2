//! The typed reports every query returns.
//!
//! Each report is plain data — verdict matrices, equivalence classes,
//! certificates, counters — plus a [`crate::Render`] implementation
//! producing the CLI's human-readable text, a schema-versioned JSON
//! document, and (where natural) CSV and Graphviz DOT views.

mod analyze;
mod check;
mod compare;
mod distinguish;
mod figures;
mod misc;
mod sweep;
mod synth;
mod timings;

pub use analyze::{AnalyzeFinding, AnalyzeModelEntry, AnalyzePair, AnalyzeReport};
pub use check::{CheckEntry, CheckReport};
pub use compare::{CompareReport, CompareWitness};
pub use distinguish::DistinguishReport;
pub use figures::{CountsFigure, Fig1Figure, Fig4Figure, FigureSelection, FiguresReport};
pub use misc::{CatalogReport, ParseReport, SuiteReport};
pub use sweep::{CheckpointSummary, StoreSummary, StreamSummary, SweepReport, WarmSummary};
pub use synth::{SynthMatrix, SynthPair, SynthReport};
pub use timings::{
    CheckerTiming, LatencySummary, Timings, TimingsCapture, TIMINGS_SCHEMA_VERSION,
};
