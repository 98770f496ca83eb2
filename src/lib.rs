//! # litmus-mcm
//!
//! A reproduction of *"Litmus Tests for Comparing Memory Consistency Models:
//! How Long Do They Need to Be?"* (Mador-Haim, Alur, Martin — DAC 2011).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`core`] — litmus programs, instruction executions, predicates and the
//!   *must-not-reorder* formula DSL (paper §2.1–2.3).
//! * [`axiomatic`] — the happens-before semantics and three independent
//!   admissibility checkers (paper §2.2, §4.1).
//! * [`models`] — named hardware models (SC, TSO, PSO, RMO, IBM370, …), the
//!   90-model digit space `M{ww}{wr}{rw}{rr}`, and the L1–L9 test catalog
//!   (paper §2.4, §4.2, Figures 1 and 3).
//! * [`gen`] — local segments, the seven litmus-test templates of Theorem 1,
//!   Corollary 1 counting, and the naive enumeration baseline (paper §3).
//! * [`explore`] — model comparison, equivalence, the Figure 4 lattice, and
//!   minimal distinguishing test sets (paper §4.2).
//! * [`analyze`] — static semantic analysis of the formulas themselves:
//!   feasible-valuation truth tables, the static strength lattice (the
//!   paper's 8 equivalent pairs with zero tests executed), minimized
//!   normal forms, the sweep prefilter, and the lint pass (extension).
//! * [`sat`] — the CDCL SAT solver used as the admissibility oracle
//!   (substitute for MiniSat, paper §4.1).
//! * [`synth`] — CEGIS-based symbolic synthesis of minimal distinguishing
//!   litmus tests: the dual of enumerate-then-check (extension).
//! * [`query`] — the unified query API: declarative model/test/checker
//!   composition returning typed, serializable reports (text, JSON, CSV,
//!   DOT) — the library face the `mcm` CLI is a thin renderer over.
//! * [`serve`] — the query API as a long-lived HTTP service: shared warm
//!   verdict cache, bounded-queue backpressure, graceful shutdown
//!   (`mcm serve`).
//! * [`store`] — disk persistence: the append-only verdict log under the
//!   RAM cache (`--store`, `mcm serve --store-dir`), checkpoint/resume
//!   for streaming sweeps (`--checkpoint` / `--resume`); the shards of
//!   a sweep append to one shared log (extension).
//! * [`operational`] — interleaving-SC and store-buffer-TSO reference
//!   machines that cross-validate the axiomatic semantics (extension).
//! * [`obs`] — zero-dependency observability: the global metrics
//!   registry (counters, gauges, log-scale latency histograms), span
//!   tracing with a Chrome `trace_event` sink (`--trace-out`), and the
//!   Prometheus text exposition behind `GET /metricsz` (extension).
//!
//! ## Quickstart
//!
//! Check the paper's Figure 1 test against TSO and SC:
//!
//! ```
//! use litmus_mcm::axiomatic::{BatchChecker, ExplicitChecker};
//! use litmus_mcm::models::{catalog, named};
//!
//! let test = catalog::test_a();
//! let checker = ExplicitChecker::new();
//! assert!(checker.is_allowed(&named::tso(), &test));
//! assert!(!checker.is_allowed(&named::sc(), &test));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mcm_analyze as analyze;
pub use mcm_axiomatic as axiomatic;
pub use mcm_core as core;
pub use mcm_explore as explore;
pub use mcm_gen as gen;
pub use mcm_models as models;
pub use mcm_obs as obs;
pub use mcm_operational as operational;
pub use mcm_query as query;
pub use mcm_sat as sat;
pub use mcm_serve as serve;
pub use mcm_store as store;
pub use mcm_synth as synth;

/// Crate version, re-exported for tooling.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");
