//! # mcm-query
//!
//! The unified query API of the workspace — the library face of the
//! paper's §4.1 tool, designed so a CLI, a server, a batch harness or a
//! notebook all drive the same machinery and get structured results
//! back.
//!
//! A query composes four declarative legs:
//!
//! * a [`ModelSpec`] — which models (`figure4` | `90` | `named` | an
//!   explicit list);
//! * a [`TestSource`] — which tests (template suite | streamed
//!   enumeration | catalog | a `.litmus` file);
//! * a [`CheckerKind`] — which admissibility backend;
//! * an [`EngineConfig`] — how hard to drive the sweep engine.
//!
//! [`Query`] offers one constructor per question ([`Query::sweep`],
//! [`Query::compare`], [`Query::distinguish`], [`Query::synth`],
//! [`Query::check`], plus [`Query::suite`] / [`Query::catalog`] /
//! [`Query::parse_file`] / [`Query::figures`]); running a query executes
//! through the existing batched sweep / streaming / CEGIS cores and
//! returns a **typed report** ([`SweepReport`], [`CompareReport`],
//! [`DistinguishReport`], [`SynthReport`], [`CheckReport`], ...). Every
//! report implements [`Render`]: human-readable `text`, a
//! schema-versioned `json` document (emitted and re-parseable by
//! [`mcm_core::json`], no external dependencies), and `csv` / `dot`
//! where the report has a tabular or graph view.
//!
//! ## Example
//!
//! Sweep two models over the built-in catalog and read the result as
//! data — or serialize it:
//!
//! ```
//! use mcm_query::{Format, ModelSpec, Query, Render, TestSource};
//!
//! let report = Query::sweep()
//!     .models(ModelSpec::List(vec!["SC".into(), "TSO".into()]))
//!     .tests(TestSource::Catalog)
//!     .run()
//!     .unwrap();
//!
//! // Typed access ...
//! assert_eq!(report.exploration.models.len(), 2);
//! assert_eq!(report.lattice.classes.len(), 2);
//!
//! // ... or machine-readable output that round-trips through the
//! // in-tree parser.
//! let json = report.render(Format::Json).unwrap();
//! let doc = mcm_core::json::Json::parse(&json).unwrap();
//! assert_eq!(doc.get("kind").and_then(|k| k.as_str()), Some("sweep"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod query;
mod render;
pub mod reports;
pub mod resolve;
mod source;
pub mod wire;

pub use error::QueryError;
pub use query::{
    AnalyzeQuery, CheckQuery, CompareQuery, Query, SuiteQuery, SweepQuery, SynthMode, SynthQuery,
};
pub use render::{Format, Render, SCHEMA_VERSION};
pub use reports::{
    AnalyzeFinding, AnalyzeModelEntry, AnalyzePair, AnalyzeReport, CatalogReport,
    CheckEntry, CheckReport, CheckpointSummary, CompareReport, CompareWitness, CountsFigure,
    DistinguishReport, Fig1Figure, Fig4Figure, FigureSelection, FiguresReport, ParseReport,
    StoreSummary, StreamSummary, CheckerTiming, LatencySummary, SuiteReport, SweepReport,
    SynthMatrix, SynthPair, SynthReport, Timings, TimingsCapture, WarmSummary,
    TIMINGS_SCHEMA_VERSION,
};
pub use resolve::{models_use_dependencies, ModelSpec};
pub use source::TestSource;

// The types a query is built from, re-exported so callers (the CLI
// included) need only this crate.
pub use mcm_axiomatic::CheckerKind;
pub use mcm_core::json::Json;
pub use mcm_explore::EngineConfig;
pub use mcm_gen::{Shard, StreamBounds};
pub use mcm_synth::SynthBounds;
