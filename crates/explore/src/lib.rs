//! # mcm-explore
//!
//! Exploring and comparing memory models (§4.2):
//!
//! * [`verdict`] — per-model verdict vectors over a suite and the
//!   equivalent / stronger / weaker / incomparable classification;
//! * [`space`] — the sweep engine: running a model space against a suite
//!   sequentially, or work-stealing across cores with formula dedup,
//!   prefiltering and verdict memoization;
//! * [`cache`] — the fingerprint-keyed verdict cache shared across
//!   sweeps;
//! * [`lattice`] — equivalence classes and the transitively reduced
//!   strictly-weaker order (the Figure 4 Hasse diagram);
//! * [`distinguish`] — greedy and SAT-certified minimum distinguishing
//!   test sets (the paper's nine tests);
//! * [`dot`] — Graphviz rendering of Figure 4;
//! * [`paper`] — the §4.2 digit model space and comparison suite.
//!
//! ## Example
//!
//! ```
//! use mcm_axiomatic::ExplicitChecker;
//! use mcm_explore::space::Exploration;
//! use mcm_explore::verdict::Relation;
//! use mcm_models::{catalog, named};
//!
//! let expl = Exploration::run(
//!     vec![named::sc(), named::tso(), named::x86()],
//!     catalog::all_tests(),
//!     &ExplicitChecker::new(),
//! );
//! assert_eq!(expl.relation(1, 2), Relation::Equivalent); // TSO ≡ x86
//! assert_eq!(expl.relation(0, 1), Relation::StrictlyStronger); // SC ⊊ TSO
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod distinguish;
pub mod dot;
pub mod lattice;
pub mod paper;
pub mod report;
pub mod space;
pub mod verdict;

pub use cache::{
    CacheStats, DurableSink, ModelIds, RowLookup, VerdictCache, VerdictRows, VerdictRowsBuf,
};
pub use lattice::{Lattice, LatticeEdge, ModelClass};
pub use space::{
    EngineConfig, Exploration, ResumeError, StreamCheckpoint, StreamControl, SweepStats,
};
pub use verdict::{Relation, VerdictVector};
