//! The [`Query`] constructors and per-kind builders.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::Instant;

use mcm_axiomatic::{explain, BatchChecker, CheckerKind, ExplicitChecker};
use mcm_core::MemoryModel;
use mcm_explore::dot::{render_dot, DotOptions};
use mcm_explore::{
    distinguish, paper, EngineConfig, Exploration, Lattice, StreamControl, VerdictCache,
};
use mcm_gen::{count, stream, template_suite, StreamBounds};
use mcm_models::catalog;
use mcm_store::{checkpoint, CheckpointFile, DiskCache, SweepMeta};
use mcm_synth::SynthBounds;

use crate::error::QueryError;
use crate::reports::{
    AnalyzeFinding, AnalyzeModelEntry, AnalyzePair, AnalyzeReport, CatalogReport, CheckEntry,
    CheckReport, CheckpointSummary, CompareReport, CompareWitness, CountsFigure, DistinguishReport,
    Fig1Figure, Fig4Figure, FigureSelection, FiguresReport, ParseReport, StoreSummary,
    StreamSummary, SuiteReport, SweepReport, SynthMatrix, SynthPair, SynthReport, TimingsCapture,
    WarmSummary,
};
use crate::resolve::{self, ModelSpec};
use crate::source::TestSource;

/// The entry point of the query API: one constructor per question the
/// tool answers. Each returns a builder whose `run()` produces the
/// matching typed report.
///
/// ```
/// use mcm_query::{ModelSpec, Query, Render, TestSource};
///
/// let report = Query::sweep()
///     .models(ModelSpec::List(vec!["SC".into(), "TSO".into()]))
///     .tests(TestSource::Catalog)
///     .run()
///     .unwrap();
/// assert_eq!(report.exploration.models.len(), 2);
/// assert!(report.json().get("verdicts").is_some());
/// ```
pub struct Query;

impl Query {
    /// A models × tests sweep: verdict matrix, lattice, equivalence data
    /// and (for materialized suites) a minimum distinguishing set.
    #[must_use]
    pub fn sweep() -> SweepQuery {
        SweepQuery {
            models: ModelSpec::Figure4,
            source: TestSource::TemplateSuite { with_deps: false },
            checker: CheckerKind::Explicit,
            engine: EngineConfig::default(),
            cache: None,
            store: None,
            checkpoint: None,
            resume: None,
            warm_figure4_demo: false,
        }
    }

    /// Static semantic analysis of a model set: the strength lattice,
    /// equivalent pairs, minimized normal forms and lint findings — with
    /// zero litmus tests executed.
    #[must_use]
    pub fn analyze() -> AnalyzeQuery {
        AnalyzeQuery {
            models: ModelSpec::Full90,
            tests: None,
        }
    }

    /// The relation between two models over the complete comparison
    /// suite, with every separating test.
    #[must_use]
    pub fn compare(left: impl Into<String>, right: impl Into<String>) -> CompareQuery {
        CompareQuery {
            left: left.into(),
            right: right.into(),
            with_deps: true,
        }
    }

    /// A SAT-certified minimum distinguishing test set for a model space:
    /// a sweep of the 90-model space over the with-dependencies comparison
    /// suite, run with [`SweepQuery::run_distinguish`].
    #[must_use]
    pub fn distinguish() -> SweepQuery {
        Query::sweep()
            .models(ModelSpec::Full90)
            .tests(TestSource::TemplateSuite { with_deps: true })
    }

    /// CEGIS synthesis of a minimal distinguishing test for one pair.
    #[must_use]
    pub fn synth(left: impl Into<String>, right: impl Into<String>) -> SynthQuery {
        SynthQuery {
            mode: SynthMode::Pair {
                left: left.into(),
                right: right.into(),
            },
            ..Query::synth_matrix(ModelSpec::Figure4)
        }
    }

    /// CEGIS synthesis of the whole pairwise minimal-length matrix.
    #[must_use]
    pub fn synth_matrix(models: ModelSpec) -> SynthQuery {
        SynthQuery {
            mode: SynthMode::Matrix(models),
            bounds: SynthBounds::default(),
            max_size: None,
            verbose: false,
        }
    }

    /// Per-test admissibility of a litmus source under one model.
    #[must_use]
    pub fn check(model: impl Into<String>, source: TestSource) -> CheckQuery {
        CheckQuery {
            model: model.into(),
            source,
            checker: CheckerKind::Explicit,
            witness: false,
        }
    }

    /// The Theorem 1 template suite and its Corollary 1 bound.
    #[must_use]
    pub fn suite(with_deps: bool) -> SuiteQuery {
        SuiteQuery {
            with_deps,
            full: false,
        }
    }

    /// The built-in test catalog, grouped by provenance.
    #[must_use]
    pub fn catalog() -> CatalogReport {
        CatalogReport {
            sections: catalog::sections(),
        }
    }

    /// Validates a `.litmus` file and reports its tests.
    ///
    /// # Errors
    ///
    /// [`QueryError::Io`] when the file cannot be read,
    /// [`QueryError::Parse`] when its contents do not parse.
    pub fn parse_file(path: impl Into<std::path::PathBuf>) -> Result<ParseReport, QueryError> {
        let path = path.into();
        let source = path.display().to_string();
        let tests = TestSource::File(path).load()?;
        Ok(ParseReport { source, tests })
    }

    /// Regenerates the requested paper figures as data.
    #[must_use]
    pub fn figures(selection: FigureSelection) -> FiguresReport {
        figures_report(selection)
    }
}

/// Builder for [`Query::sweep`]. Like every query builder, its fields
/// are public: the wire format parses a request into one, and a policy
/// layer (the server's ceilings) may edit it before it runs.
#[derive(Clone, Debug)]
pub struct SweepQuery {
    /// The model space to sweep.
    pub models: ModelSpec,
    /// Where the tests come from (materialized or streamed).
    pub source: TestSource,
    /// The checker backend (built test-major via
    /// [`CheckerKind::build_batch`]).
    pub checker: CheckerKind,
    /// Engine tuning: worker count, stream chunk size.
    pub engine: EngineConfig,
    /// Verdict memoization: `Some(true)` asks for a [`VerdictCache`],
    /// `Some(false)` refuses one, `None` lets the runner decide — a server
    /// supplies its process-wide shared cache, a direct [`SweepQuery::run`]
    /// uses none. The report carries the cache's totals.
    pub cache: Option<bool>,
    /// Back the verdict cache with the append-only log at this path
    /// ([`mcm_store::DiskCache`]): known verdicts hydrate from disk before
    /// the sweep, fresh ones are written through batch by batch. Outranks
    /// every other cache.
    pub store: Option<PathBuf>,
    /// For streamed sweeps: save a resumable checkpoint here after every
    /// processed chunk (atomic rename-over, so a kill mid-save keeps the
    /// previous one). Ignored for materialized sources.
    pub checkpoint: Option<PathBuf>,
    /// For streamed sweeps: resume from the checkpoint here instead of
    /// starting cold. A missing file is a cold start (first run of a
    /// `--checkpoint F --resume F` loop); a checkpoint taken over a
    /// different sweep (models, bounds, shard, chunking) is rejected.
    pub resume: Option<PathBuf>,
    /// After a cached full-space template sweep, re-sweep the Figure 4
    /// subspace to demonstrate cross-sweep memoization (ignored unless
    /// both the cache and the with-deps template suite are in play).
    pub warm_figure4_demo: bool,
}

impl SweepQuery {
    /// Sets [`SweepQuery::models`].
    #[must_use]
    pub fn models(mut self, models: ModelSpec) -> Self {
        self.models = models;
        self
    }

    /// Sets [`SweepQuery::source`].
    #[must_use]
    pub fn tests(mut self, source: TestSource) -> Self {
        self.source = source;
        self
    }

    /// Sets [`SweepQuery::checker`].
    #[must_use]
    pub fn checker(mut self, checker: CheckerKind) -> Self {
        self.checker = checker;
        self
    }

    /// Sets [`SweepQuery::engine`].
    #[must_use]
    pub fn engine(mut self, config: EngineConfig) -> Self {
        self.engine = config;
        self
    }

    /// Memoize verdicts in a fresh [`VerdictCache`] (or refuse any
    /// cache); see [`SweepQuery::cache`].
    #[must_use]
    pub fn cache(mut self, cache: bool) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Sets [`SweepQuery::store`].
    #[must_use]
    pub fn store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store = Some(path.into());
        self
    }

    /// Sets [`SweepQuery::checkpoint`].
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>) -> Self {
        self.checkpoint = Some(path.into());
        self
    }

    /// Sets [`SweepQuery::resume`].
    #[must_use]
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume = Some(path.into());
        self
    }

    /// Sets [`SweepQuery::warm_figure4_demo`].
    #[must_use]
    pub fn warm_figure4_demo(mut self, demo: bool) -> Self {
        self.warm_figure4_demo = demo;
        self
    }

    /// Runs the sweep.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidSpec`] for unresolvable models;
    /// [`QueryError::Io`] / [`QueryError::Parse`] for file-backed test
    /// sources.
    pub fn run(self) -> Result<SweepReport, QueryError> {
        self.run_with(None)
    }

    /// Runs the sweep and reads the distinguish view off its report: the
    /// equivalence classes and the certified minimum distinguishing set.
    ///
    /// # Errors
    ///
    /// As [`SweepQuery::run`], plus [`QueryError::InvalidSpec`] for a
    /// space of fewer than two models or a streamed test source, both
    /// raised before any checker runs.
    pub fn run_distinguish(self) -> Result<DistinguishReport, QueryError> {
        self.distinguish_with(None)
    }

    /// [`SweepQuery::run`] with the runner's shared cache, used unless
    /// the query refused caching.
    pub(crate) fn run_with(self, shared: Option<&VerdictCache>) -> Result<SweepReport, QueryError> {
        let models = resolve_models(&self.models)?;
        self.sweep(models, shared)
    }

    /// [`SweepQuery::run_distinguish`] with the runner's shared cache.
    pub(crate) fn distinguish_with(
        self,
        shared: Option<&VerdictCache>,
    ) -> Result<DistinguishReport, QueryError> {
        let models = resolve_models(&self.models)?;
        if models.len() < 2 {
            return Err(QueryError::InvalidSpec(
                "distinguish needs at least two models".to_string(),
            ));
        }
        if matches!(self.source, TestSource::Stream { .. }) {
            return Err(QueryError::InvalidSpec(
                "distinguish needs a materializable test source, not a stream".to_string(),
            ));
        }
        Ok(DistinguishReport {
            sweep: self.sweep(models, shared)?,
        })
    }

    /// The §4.2 sweep over resolved models. The source decides the engine
    /// call and its own report sections: the stream summary and
    /// checkpointing for streamed sources; the minimal set, the nine-test
    /// check and the warm re-sweep for materialized ones.
    fn sweep(
        self,
        models: Vec<MemoryModel>,
        shared: Option<&VerdictCache>,
    ) -> Result<SweepReport, QueryError> {
        // A disk-backed store supplies the cache when requested; it
        // outranks the shared and owned caches so its write-through sink
        // sees every fresh verdict of the sweep.
        let disk = match &self.store {
            Some(path) => {
                let _span = mcm_obs::trace::span("query.store_open");
                Some(DiskCache::open(path).map_err(|e| io_error(path, &e))?)
            }
            None => None,
        };
        let shared = shared.filter(|_| self.cache != Some(false));
        let owned = (disk.is_none() && shared.is_none() && self.cache == Some(true))
            .then(VerdictCache::new);
        let cache: Option<&VerdictCache> = disk
            .as_ref()
            .map(|d| d.cache().as_ref())
            .or(shared)
            .or(owned.as_ref());
        let checker = self.checker;
        let saves = Cell::new(0u64);
        let save_errors = Cell::new(0u64);
        let mut stream = None;
        let mut resumed_at = None;
        let timings = TimingsCapture::start();
        let start = Instant::now();
        let (exploration, stats) = match &self.source {
            TestSource::Stream {
                bounds,
                limit,
                shard,
            } => {
                let raw_space = {
                    let _span = mcm_obs::trace::span("query.raw_count");
                    mcm_gen::stream::try_count_raw(bounds, 20_000_000)
                };
                stream = Some(StreamSummary {
                    bounds: *bounds,
                    limit: *limit,
                    shard: *shard,
                    raw_space,
                });
                let meta = SweepMeta {
                    bounds: *bounds,
                    limit: limit.map(|l| l as u64),
                    shard: *shard,
                    canonicalize: false,
                    stream_chunk: self.engine.stream_chunk as u64,
                };
                let resume = match &self.resume {
                    None => None,
                    Some(path) => {
                        let _span = mcm_obs::trace::span("query.checkpoint_load");
                        match CheckpointFile::load(path).map_err(|e| io_error(path, &e))? {
                            // Cold start: the checkpoint was never written
                            // (first run of a `--checkpoint F --resume F` loop).
                            None => None,
                            // The `canonicalize` byte that older builds
                            // could set never changed a streamed sweep, so
                            // it is no part of the sweep's identity.
                            Some(ckpt)
                                if SweepMeta {
                                    canonicalize: false,
                                    ..ckpt.meta
                                } != meta =>
                            {
                                return Err(QueryError::InvalidSpec(format!(
                                    "checkpoint {} was taken over a different sweep \
                                     (bounds, limit, shard or engine chunking differ)",
                                    path.display()
                                )));
                            }
                            Some(ckpt) => Some(ckpt.state),
                        }
                    }
                };
                resumed_at = resume.as_ref().map(|s| s.tests_streamed);
                let mut control = StreamControl {
                    on_checkpoint: None,
                    resume,
                };
                if let Some(path) = &self.checkpoint {
                    control.on_checkpoint = Some(Box::new(|state| {
                        match checkpoint::save(path, &meta, state) {
                            Ok(()) => saves.set(saves.get() + 1),
                            Err(_) => save_errors.set(save_errors.get() + 1),
                        }
                        true
                    }));
                }
                let leaders = match shard {
                    Some(shard) => mcm_gen::stream::leaders_sharded(bounds, *shard),
                    None => mcm_gen::stream::leaders(bounds),
                }
                .take(limit.unwrap_or(usize::MAX));
                Exploration::run_engine_streaming_with(
                    models,
                    leaders,
                    || checker.build_batch(),
                    &self.engine,
                    cache,
                    control,
                )
                .map_err(|e| QueryError::InvalidSpec(e.to_string()))?
            }
            source => {
                let tests = {
                    let _span = mcm_obs::trace::span("query.load");
                    source.load()?
                };
                Exploration::run_engine(models, tests, || checker.build_batch(), &self.engine, cache)
            }
        };
        let elapsed = start.elapsed();
        let timings = timings.finish();
        let materialized = stream.is_none();
        let report_span = mcm_obs::trace::span("query.report");
        let lattice = Lattice::build(&exploration);
        let equivalent_pairs = exploration.equivalent_pair_names();
        let (minimal_set, nine_test_indices, nine_tests_sufficient) = if materialized {
            let nine: Vec<usize> = ["L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9"]
                .iter()
                .filter_map(|name| exploration.tests.iter().position(|t| t.name() == *name))
                .collect();
            let sufficient = distinguish::is_sufficient(&exploration, &nine);
            (
                Some(distinguish::minimal_distinguishing_set(&exploration)),
                nine,
                Some(sufficient),
            )
        } else {
            (None, Vec::new(), None)
        };
        drop(report_span);
        // The warm re-sweep demo is only honest after a sweep that covered
        // the full 90-model digit space and its dependency-bearing suite —
        // anything smaller leaves the Figure 4 subspace cold.
        let warm = match (cache, self.warm_figure4_demo, &self.source) {
            (Some(cache), true, TestSource::TemplateSuite { with_deps: true }) => {
                let _span = mcm_obs::trace::span("query.warm");
                let warm_start = Instant::now();
                let (_, warm_stats) = Exploration::run_engine(
                    paper::digit_space_models(false),
                    paper::comparison_tests(false),
                    || checker.build_batch(),
                    &self.engine,
                    Some(cache),
                );
                Some(WarmSummary {
                    elapsed: warm_start.elapsed(),
                    cache_hits: warm_stats.cache_hits,
                    checker_calls: warm_stats.checker_calls,
                })
            }
            _ => None,
        };
        Ok(SweepReport {
            exploration,
            stats,
            lattice,
            equivalent_pairs,
            minimal_set,
            nine_test_indices,
            nine_tests_sufficient,
            cache: cache.map(VerdictCache::stats),
            store: disk.as_ref().map(store_summary),
            // Reported for a saving run AND a resume-only run of a
            // streamed sweep — the latter still needs its cursor surfaced.
            checkpoint: self
                .checkpoint
                .as_ref()
                .or(self.resume.as_ref())
                .filter(|_| !materialized)
                .map(|path| CheckpointSummary {
                    path: path.display().to_string(),
                    saves: saves.get(),
                    save_errors: save_errors.get(),
                    resumed_at,
                }),
            warm,
            stream,
            timings,
            elapsed,
        })
    }
}

/// Builder for [`Query::analyze`].
#[derive(Clone, Debug)]
pub struct AnalyzeQuery {
    /// The model set to analyze.
    pub models: ModelSpec,
    /// Also lint the tests of a (materialized) source: never-read writes,
    /// non-canonical form.
    pub tests: Option<TestSource>,
}

impl AnalyzeQuery {
    /// Sets [`AnalyzeQuery::models`].
    #[must_use]
    pub fn models(mut self, models: ModelSpec) -> Self {
        self.models = models;
        self
    }

    /// Sets [`AnalyzeQuery::tests`].
    #[must_use]
    pub fn tests(mut self, source: TestSource) -> Self {
        self.tests = Some(source);
        self
    }

    /// Runs the analysis. Purely static: no checker is built, no litmus
    /// test is executed.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidSpec`] for unresolvable models or a streamed
    /// test source; [`QueryError::Io`] / [`QueryError::Parse`] for
    /// file-backed test sources.
    pub fn run(self) -> Result<AnalyzeReport, QueryError> {
        let models = self.models.resolve()?;
        let start = Instant::now();
        let analysis = mcm_analyze::StrengthAnalysis::build(&models);

        let mut findings: Vec<AnalyzeFinding> = Vec::new();
        let mut absorb = |batch: Vec<mcm_analyze::Finding>| {
            findings.extend(batch.into_iter().map(|f| AnalyzeFinding {
                target: f.target,
                code: f.code.to_string(),
                message: f.message,
            }));
        };
        absorb(mcm_analyze::lint_models(&models));
        for model in &models {
            absorb(mcm_analyze::lint_formula(model.name(), model.formula()));
        }
        let mut tests_linted = 0;
        if let Some(source) = &self.tests {
            let tests = source.load()?;
            tests_linted = tests.len();
            for test in &tests {
                absorb(mcm_analyze::lint_test(test));
            }
        }

        let entries: Vec<AnalyzeModelEntry> = analysis
            .models
            .iter()
            .enumerate()
            .map(|(i, m)| AnalyzeModelEntry {
                name: m.name.clone(),
                formula: m.formula.to_string(),
                minimized: m.minimized.to_string(),
                fingerprint: format!("{:016x}", m.key.fingerprint()),
                class: analysis.class_of(i),
                elided: m.elided,
            })
            .collect();
        let equivalent_pairs = analysis
            .equivalent_pairs()
            .into_iter()
            .map(|(i, j, how)| AnalyzePair {
                left: analysis.models[i].name.clone(),
                right: analysis.models[j].name.clone(),
                how: how.to_string(),
            })
            .collect();
        Ok(AnalyzeReport {
            models: entries,
            classes: analysis.classes.clone(),
            edges: analysis.edges.clone(),
            minimal_classes: analysis.minimal_classes(),
            maximal_classes: analysis.maximal_classes(),
            equivalent_pairs,
            findings,
            tests_linted,
            elapsed: start.elapsed(),
        })
    }
}

/// Builder for [`Query::compare`].
#[derive(Clone, Debug)]
pub struct CompareQuery {
    /// Left model name.
    pub left: String,
    /// Right model name.
    pub right: String,
    /// Include the dependency-idiom templates in the comparison suite.
    pub with_deps: bool,
}

impl CompareQuery {
    /// Sets [`CompareQuery::with_deps`].
    #[must_use]
    pub fn with_deps(mut self, with_deps: bool) -> Self {
        self.with_deps = with_deps;
        self
    }

    /// Runs the comparison.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidSpec`] for unknown model names.
    pub fn run(self) -> Result<CompareReport, QueryError> {
        let left = resolve::model(&self.left)?;
        let right = resolve::model(&self.right)?;
        let start = Instant::now();
        let expl = Exploration::run(
            vec![left, right],
            paper::comparison_tests(self.with_deps),
            &ExplicitChecker::new(),
        );
        let relation = expl.relation(0, 1);
        let witnesses = expl
            .distinguishing_tests(0, 1)
            .into_iter()
            .map(|t| {
                let allowed_left = expl.verdicts[0].allowed(t);
                let (allowed_by, forbidden_by) = if allowed_left {
                    (expl.models[0].name(), expl.models[1].name())
                } else {
                    (expl.models[1].name(), expl.models[0].name())
                };
                CompareWitness {
                    test: expl.tests[t].name().to_string(),
                    allowed_by: allowed_by.to_string(),
                    forbidden_by: forbidden_by.to_string(),
                }
            })
            .collect();
        Ok(CompareReport {
            left: expl.models[0].name().to_string(),
            right: expl.models[1].name().to_string(),
            relation,
            tests: expl.tests.len(),
            witnesses,
            elapsed: start.elapsed(),
        })
    }
}

/// What a [`SynthQuery`] synthesizes.
#[derive(Clone, Debug)]
pub enum SynthMode {
    /// One minimal distinguishing test for a named pair.
    Pair {
        /// Left model name.
        left: String,
        /// Right model name.
        right: String,
    },
    /// The pairwise minimal-length matrix of a model space (at least two
    /// models once resolved).
    Matrix(ModelSpec),
}

/// Builder for [`Query::synth`] / [`Query::synth_matrix`].
#[derive(Clone, Debug)]
pub struct SynthQuery {
    /// Pair or matrix.
    pub mode: SynthMode,
    /// The bounded search box.
    pub bounds: SynthBounds,
    /// Cap on the searched test length (default: the box maximum).
    pub max_size: Option<usize>,
    /// Include solver counters in the text rendering.
    pub verbose: bool,
}

impl SynthQuery {
    /// Sets [`SynthQuery::bounds`].
    #[must_use]
    pub fn bounds(mut self, bounds: SynthBounds) -> Self {
        self.bounds = bounds;
        self
    }

    /// Sets [`SynthQuery::max_size`].
    #[must_use]
    pub fn max_size(mut self, max_size: usize) -> Self {
        self.max_size = Some(max_size);
        self
    }

    /// Sets [`SynthQuery::verbose`].
    #[must_use]
    pub fn verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Runs the synthesis.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidSpec`] for unresolvable models or a matrix of
    /// fewer than two; [`QueryError::Synth`] when the engine rejects the
    /// bounds or a model.
    pub fn run(self) -> Result<SynthReport, QueryError> {
        let max_size = self.max_size.unwrap_or_else(|| self.bounds.max_total());
        let models = match &self.mode {
            SynthMode::Pair { left, right } => vec![resolve::model(left)?, resolve::model(right)?],
            SynthMode::Matrix(spec) => spec.resolve()?,
        };
        if models.len() < 2 {
            return Err(QueryError::InvalidSpec(
                "a synthesis matrix needs at least two models".to_string(),
            ));
        }
        let timings = TimingsCapture::start();
        let start = Instant::now();
        let mut synthesizer = mcm_synth::Synthesizer::new(models, self.bounds)
            .map_err(|e| QueryError::Synth(e.to_string()))?;
        let (pair, matrix) = match self.mode {
            SynthMode::Pair { left, right } => {
                let pair = synthesizer.pair(0, 1, max_size);
                let pair = SynthPair {
                    left,
                    right,
                    length: pair.length,
                    witness: pair.witness,
                    allowed_by: pair.allowed_by,
                    forbidden_by: pair.forbidden_by,
                    source: pair.source,
                };
                (Some(pair), None)
            }
            SynthMode::Matrix(_) => {
                let matrix = synthesizer.matrix(max_size);
                let matrix = SynthMatrix {
                    names: matrix.names,
                    lengths: matrix.lengths,
                    sources: matrix.sources,
                };
                (None, Some(matrix))
            }
        };
        let elapsed = start.elapsed();
        let timings = timings.finish();
        Ok(SynthReport {
            bounds: self.bounds,
            max_size,
            pair,
            matrix,
            stats: synthesizer.stats(),
            verbose: self.verbose,
            timings,
            elapsed,
        })
    }
}

/// Builder for [`Query::check`].
#[derive(Clone, Debug)]
pub struct CheckQuery {
    /// The model name.
    pub model: String,
    /// The tests to check (materializable sources only).
    pub source: TestSource,
    /// The checker backend.
    pub checker: CheckerKind,
    /// Render a witness / refutation explanation per test.
    pub witness: bool,
}

impl CheckQuery {
    /// Sets [`CheckQuery::checker`].
    #[must_use]
    pub fn checker(mut self, checker: CheckerKind) -> Self {
        self.checker = checker;
        self
    }

    /// Sets [`CheckQuery::witness`].
    #[must_use]
    pub fn witness(mut self, witness: bool) -> Self {
        self.witness = witness;
        self
    }

    /// Runs the checks.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidSpec`] for unknown models;
    /// [`QueryError::Io`] / [`QueryError::Parse`] for the test source.
    pub fn run(self) -> Result<CheckReport, QueryError> {
        let model = resolve::model(&self.model)?;
        let tests = self.source.load()?;
        let checker = self.checker.build_batch();
        let entries = tests
            .iter()
            .map(|test| {
                let verdict = checker.check(&model, test);
                let witness = self.witness.then(|| {
                    let exec = test.execution();
                    explain::render(&model, &exec, &verdict)
                });
                CheckEntry {
                    test: test.name().to_string(),
                    allowed: verdict.allowed,
                    witness,
                }
            })
            .collect();
        Ok(CheckReport {
            model: model.name().to_string(),
            checker: self.checker.name(),
            entries,
        })
    }
}

/// Builder for [`Query::suite`].
#[derive(Clone, Copy, Debug)]
pub struct SuiteQuery {
    /// Include the dependency-idiom template variants.
    pub with_deps: bool,
    /// Render full test bodies instead of names in text mode.
    pub full: bool,
}

impl SuiteQuery {
    /// Sets [`SuiteQuery::full`].
    #[must_use]
    pub fn full(mut self, full: bool) -> Self {
        self.full = full;
        self
    }

    /// Materializes the suite.
    #[must_use]
    pub fn run(self) -> SuiteReport {
        let suite = template_suite(self.with_deps);
        SuiteReport {
            with_deps: self.with_deps,
            corollary1_bound: suite.corollary1_bound,
            tests: suite.tests,
            full: self.full,
        }
    }
}

/// Resolves a model spec under its own trace span.
fn resolve_models(spec: &ModelSpec) -> Result<Vec<MemoryModel>, QueryError> {
    let _span = mcm_obs::trace::span("query.resolve");
    spec.resolve()
}

fn io_error(path: &Path, error: &impl std::fmt::Display) -> QueryError {
    QueryError::Io {
        path: path.display().to_string(),
        message: error.to_string(),
    }
}

fn store_summary(disk: &DiskCache) -> StoreSummary {
    StoreSummary {
        path: disk.path().display().to_string(),
        stats: disk.stats(),
    }
}

fn figures_report(selection: FigureSelection) -> FiguresReport {
    use FigureSelection as S;
    let want = |s: S| selection == s || selection == S::All;
    let fig1 = want(S::Fig1).then(|| {
        let test = catalog::test_a();
        let checker = ExplicitChecker::new();
        let verdicts = [
            mcm_models::named::tso(),
            mcm_models::named::sc(),
            mcm_models::named::ibm370(),
        ]
        .into_iter()
        .map(|model| {
            let allowed = checker.is_allowed(&model, &test);
            (model.name().to_string(), allowed)
        })
        .collect();
        Fig1Figure { test, verdicts }
    });
    let fig2 = want(S::Fig2).then(|| {
        use mcm_gen::{template, Segment, SegmentType};
        let rw = Segment::enumerate(SegmentType::ReadWrite, true);
        let ww = Segment::enumerate(SegmentType::WriteWrite, true);
        let wr = Segment::enumerate(SegmentType::WriteRead, true);
        let rr = Segment::enumerate(SegmentType::ReadRead, true);
        [
            template::case1(rw[1]),
            template::case2(ww[1]),
            template::case3a(rr[1], ww[1]),
            template::case3b(rr[1], wr[1], rw[1]),
            template::case4(wr[1]),
            template::case5a(wr[0], rr[3]),
            template::case5b(wr[0], rw[3]),
        ]
        .into_iter()
        .flatten()
        .collect()
    });
    let fig3 = want(S::Fig3).then(catalog::nine_tests);
    let counts = want(S::Counts).then(|| {
        let bounds = StreamBounds::default();
        CountsFigure {
            bound_with_deps: count::paper_bound(true),
            bound_without_deps: count::paper_bound(false),
            naive_raw: stream::count_raw(&bounds),
            naive_canonical: stream::count_leaders(&bounds),
            suite_with_deps: template_suite(true).len(),
            suite_without_deps: template_suite(false).len(),
        }
    });
    let fig4 = want(S::Fig4).then(|| {
        let report = Query::sweep()
            .run()
            .expect("the default sweep's models resolve and its suite loads");
        let dot = render_dot(
            &report.exploration,
            &report.lattice,
            &DotOptions {
                name: "figure4".to_string(),
                preferred_tests: report.nine_test_indices,
                ..DotOptions::default()
            },
        );
        Fig4Figure {
            models: report.exploration.models.len(),
            classes: report.lattice.classes.len(),
            edges: report.lattice.edges.len(),
            merged: report.equivalent_pairs,
            dot,
        }
    });
    FiguresReport {
        fig1,
        fig2,
        fig3,
        counts,
        fig4,
    }
}
