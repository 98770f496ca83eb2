//! Exploring a space of memory models over a litmus suite (§4.2).
//!
//! Two sweeps, one core:
//!
//! * [`Exploration::run`] — the sequential reference: any
//!   [`BatchChecker`] (typically [`mcm_axiomatic::ExplicitChecker`]), no
//!   deduplication, no cache. Every engine test compares against it.
//! * [`Exploration::run_engine_streaming_with`] — **the** sweep engine:
//!   consumes any test iterator (typically `mcm_gen::stream::leaders`,
//!   which yields one canonical representative per symmetry orbit
//!   without materialising the raw space) in fixed-size chunks and checks
//!   every test it yields, in order: each chunk runs through formula
//!   dedup, the [`VerdictCache`], the sweep prefilter and a work-stealing
//!   test-major grid that writes one verdict row per test. On two or more
//!   jobs the calling thread pulls the next chunk while the grid checks
//!   the current one, so up to two chunks of pulled tests are alive at
//!   once, besides the kept tests and their verdict rows; a
//!   [`StreamControl`] adds per-chunk checkpoints and resume.
//!
//! [`Exploration::run_engine`] is that core over a `Vec`, as a single
//! chunk. No engine layer canonicalizes: symmetry reduction (§2.3)
//! happens before a sweep, in the leader stream and the symmetry-
//! irredundant templates, and the [`VerdictCache`] keys tests by orbit
//! fingerprint, so a later sweep re-checks no symmetric variant of a test
//! an earlier one checked.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use mcm_analyze::SweepPrefilter;
use mcm_axiomatic::{BatchChecker, BatchStats};
use mcm_core::{LitmusTest, MemoryModel};
use mcm_gen::canon;
use mcm_sat::SolverStats;

use crate::cache::{ModelIds, RowLookup, VerdictCache, VerdictRows};
use crate::verdict::{Relation, VerdictVector};

/// Tuning knobs for [`Exploration::run_engine`] and
/// [`Exploration::run_engine_streaming_with`].
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Worker threads; `None` uses all available cores, `Some(1)` runs
    /// the whole sweep on the calling thread. On two or more, the calling
    /// thread is one of the grid's workers: a streamed sweep has it pull
    /// the next chunk first, then join the grid.
    pub jobs: Option<usize>,
    /// Tests pulled per chunk by the streaming engine. On two or more
    /// jobs the next chunk is pulled while the current one is checked, so
    /// up to two chunks are in memory. [`Exploration::run_engine`] ignores
    /// it: a materialized suite is a single chunk.
    pub stream_chunk: usize,
}

/// Work items — **test rows**, each checked against every model at once
/// — a grid worker claims per scheduling step. Small batches steal well
/// when per-row cost is uneven; large batches lower contention.
const ROW_BATCH: usize = 4;

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            jobs: None,
            stream_chunk: 4096,
        }
    }
}

mcm_obs::counter_table! {
    /// What a sweep actually did, layer by layer.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct SweepStats {
        /// `models × tests`: the naive cost before any engine layer.
        total_pairs: u64 = counter,
        /// Work items after formula dedup: `distinct formulas × tests
        /// checked`. (The name predates the removal of the engine's
        /// canonicalization layer; it stays for schema stability.)
        unique_pairs: u64 = counter,
        /// Verdicts answered by the [`VerdictCache`] instead of a checker,
        /// both tiers.
        cache_hits: u64 = counter,
        /// The subset of [`SweepStats::cache_hits`] answered by entries
        /// hydrated from a durable store (disk tier) rather than computed
        /// earlier in this process.
        cache_hits_disk: u64 = counter,
        /// Actual checker invocations (`unique_pairs - cache_hits -
        /// prefilter_saved_calls`).
        checker_calls: u64 = counter,
        /// Tests checked: every test the sweep was given, so this equals
        /// [`SweepStats::tests_streamed`]. (The name predates the removal
        /// of the engine's canonicalization layer; it stays for schema
        /// stability.)
        canonical_tests: usize = counter,
        /// Distinct must-not-reorder formulas actually checked.
        distinct_models: usize = counter,
        /// Tests pulled from the input suite or stream (equals the input
        /// length for materialized sweeps).
        tests_streamed: u64 = counter,
        /// Largest number of input tests in one chunk: the chunk size for
        /// the streaming engine (which on two or more jobs holds the next
        /// chunk as well while it checks one), the whole deduplicated suite
        /// otherwise.
        peak_batch: usize = max,
        /// Models merged into a shared verdict row *beyond* syntactic formula
        /// equality — semantically identical formulas spelled differently,
        /// found by the analyzer's truth-table key.
        semantic_merged_models: usize = counter,
        /// Model groups the sweep prefilter formed across all checked tests
        /// (each group costs one checker call).
        prefilter_groups: u64 = counter,
        /// Checker calls the prefilter proved unnecessary: group members
        /// beyond the representative, answered by fan-out.
        prefilter_saved_calls: u64 = counter,
    }
    groups {
        /// SAT-solver work totals, summed over every worker's checker. All
        /// zeros when the sweep ran a solver-free checker (the explicit one).
        sat: SolverStats,
        /// Per-row amortization counters from the batched checkers: rows
        /// answered, model-group collapses, shared candidate executions and
        /// assumption-selected solves. All zeros when the sweep ran the
        /// per-cell reference checker (which shares nothing across a row).
        batch: BatchStats,
    }
}

impl SweepStats {
    /// `total_pairs / checker_calls`: the end-to-end work reduction
    /// delivered by dedup plus memoization (∞-free: 0 calls reports the
    /// reduction against 1).
    #[must_use]
    pub fn reduction_factor(&self) -> f64 {
        self.total_pairs as f64 / (self.checker_calls.max(1)) as f64
    }
}

/// Resumable state of a streaming sweep, captured at a chunk boundary.
///
/// Everything [`Exploration::run_engine_streaming_with`] needs to pick a
/// sweep back up where a previous process left off: how far into the
/// (deterministic) test stream it got, the verdict rows so far, and the
/// accumulated counters. The tests themselves are *not* stored — on
/// resume the engine pulls the consumed prefix of the stream again,
/// without a single checker call. The engine keeps its state in this
/// form; `mcm-store`'s `checkpoint` module serializes it to disk.
#[derive(Clone, Debug, PartialEq)]
pub struct StreamCheckpoint {
    /// Tests consumed from the input iterator so far.
    pub tests_streamed: u64,
    /// Tests checked, one verdict row each. A streamed sweep checks every
    /// test it pulls, so this equals [`StreamCheckpoint::tests_streamed`];
    /// resume rejects a checkpoint where the two differ.
    pub tests_kept: u64,
    /// Distinct-formula model fingerprints, in row order. Resume validates
    /// these against the new run's model list: a checkpoint taken over
    /// different models is rejected, not silently misapplied.
    pub model_fps: Vec<u64>,
    /// The kept tests' verdicts, one row per test in test order: test
    /// `t`'s row is words `t·w..t·w+w`, `w = ⌈model_fps.len() / 64⌉`,
    /// and bit `m % 64` of word `m / 64` is set when the model at
    /// position `m` of [`StreamCheckpoint::model_fps`] allows the test.
    pub rows: Vec<u64>,
    /// Engine counters accumulated up to the checkpoint.
    pub stats: SweepStats,
}

impl StreamCheckpoint {
    /// The per-model column view of [`StreamCheckpoint::rows`]: one
    /// [`VerdictVector`] over the kept tests per model of `model_fps`.
    /// Panics unless there are `tests_kept` rows.
    #[must_use]
    pub fn columns(&self) -> Vec<VerdictVector> {
        let (models, tests) = (self.model_fps.len(), self.tests_kept as usize);
        assert_eq!(self.rows.len(), tests * VerdictRows::words(models));
        let words = transpose(&self.rows, tests, models);
        let w = tests.div_ceil(64);
        (0..models)
            .map(|m| VerdictVector::from_words(words[m * w..(m + 1) * w].to_vec(), tests))
            .collect::<Option<_>>()
            .expect("no verdict past the last test")
    }

    /// The inverse of [`StreamCheckpoint::columns`]: the test rows of
    /// per-model `columns`, each over `tests` tests.
    #[must_use]
    pub fn rows_from_columns(columns: &[VerdictVector], tests: usize) -> Vec<u64> {
        assert!(columns.iter().all(|c| c.len() == tests), "ragged columns");
        let words: Vec<u64> = columns.iter().flat_map(|c| c.words()).copied().collect();
        transpose(&words, columns.len(), tests)
    }
}

/// Transposes a bit matrix of `rows` rows of `cols` bits, each row
/// `⌈cols / 64⌉` words with column `c` at bit `c % 64` of word `c / 64`,
/// into `cols` rows of `rows` bits, in 64×64 blocks. A block row packs
/// `64 / lane` rows of a narrow slice: two-model rows fill a block per
/// 2,048 rows, not per 64.
fn transpose(src: &[u64], rows: usize, cols: usize) -> Vec<u64> {
    let (sw, dw) = (cols.div_ceil(64), rows.div_ceil(64));
    let mut dst = vec![0; cols * dw];
    for g in 0..sw {
        let width = (cols - 64 * g).min(64);
        let (lane, keep) = (width.next_power_of_two(), u64::MAX >> (64 - width));
        for i in (0..dw).step_by(64 / lane) {
            let packed = (64 / lane).min(dw - i);
            let mut block = [0u64; 64];
            for s in 0..packed {
                for (j, word) in block.iter_mut().enumerate() {
                    let x = src.get((64 * (i + s) + j) * sw + g).copied().unwrap_or(0);
                    *word |= (x & keep) << (s * lane);
                }
            }
            // Swap ever smaller off-diagonal blocks of the 64×64 block.
            for j in [32, 16, 8, 4, 2, 1] {
                let low = u64::MAX / ((1 << j) + 1); // low `j` of each `2j` bits
                for k in (0..64).filter(|k| k & j == 0) {
                    let t = ((block[k] >> j) ^ block[k + j]) & low;
                    block[k] ^= t << j;
                    block[k + j] ^= t;
                }
            }
            for (s, b) in (0..packed).flat_map(|s| (0..width).map(move |b| (s, b))) {
                dst[(64 * g + b) * dw + i + s] = block[s * lane + b];
            }
        }
    }
    dst
}

/// Why a [`StreamCheckpoint`] could not be applied to a resumed sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResumeError(pub String);

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot resume sweep: {}", self.0)
    }
}

impl std::error::Error for ResumeError {}

/// Per-chunk control of a streaming sweep: checkpoint capture and resume.
///
/// The default value changes nothing — no checkpoints are taken and the
/// sweep starts cold.
#[derive(Default)]
pub struct StreamControl<'a> {
    /// Called after every processed chunk with the current resumable
    /// state. Returning `false` stops the sweep early — the engine
    /// returns the partial exploration built so far; tests and kill/
    /// resume demos use this to bound work deterministically.
    #[allow(clippy::type_complexity)]
    pub on_checkpoint: Option<Box<dyn FnMut(&StreamCheckpoint) -> bool + 'a>>,
    /// Resume from this state instead of starting cold.
    pub resume: Option<StreamCheckpoint>,
}

/// The result of checking every model against every test.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// The models, in input order.
    pub models: Vec<MemoryModel>,
    /// The tests, in input order.
    pub tests: Vec<LitmusTest>,
    /// `verdicts[m]` is model `m`'s vector over `tests`.
    pub verdicts: Vec<VerdictVector>,
}

/// The model side of a sweep. Layer 1: models with *semantically* identical
/// must-not-reorder formulas share a verdict row. Identity is the
/// analyzer's truth-table key ([`mcm_analyze::SemanticKey`]), which
/// subsumes structural equality — `Access(x)` and `Read(x) ∨ Write(x)`
/// share a row even though the formulas differ syntactically.
struct FormulaRows {
    /// Model index -> row index.
    row_of: Vec<usize>,
    /// Row index -> first model index with that formula.
    row_models: Vec<usize>,
    /// Models merged beyond what syntactic formula equality finds.
    semantic_merged: usize,
    /// Layer 3, over the rows; `None` below two rows.
    prefilter: Option<SweepPrefilter>,
}

fn formula_rows(models: &[MemoryModel]) -> FormulaRows {
    let mut row_of: Vec<usize> = Vec::with_capacity(models.len());
    let mut row_models: Vec<usize> = Vec::new();
    let mut keys: Vec<mcm_analyze::SemanticKey> = Vec::new();
    let mut syntactic_rows = 0usize;
    for (m, model) in models.iter().enumerate() {
        if !models[..m]
            .iter()
            .any(|prior| prior.formula() == model.formula())
        {
            syntactic_rows += 1;
        }
        let key = mcm_analyze::semantic_key(model.formula());
        match keys.iter().position(|k| *k == key) {
            Some(r) => row_of.push(r),
            None => {
                row_of.push(row_models.len());
                row_models.push(m);
                keys.push(key);
            }
        }
    }
    // Group models that provably agree on a test before calling the
    // checker ([`SweepPrefilter`]): per test, models whose truth tables
    // coincide on the valuations its program-order pairs realize force
    // identical edges, so one group representative is checked and the
    // verdict fanned out. Sound unconditionally; the skipped calls are
    // counted in `SweepStats::prefilter_saved_calls`.
    let prefilter = (row_models.len() >= 2).then(|| {
        let _span = mcm_obs::trace::span("engine.prefilter");
        let refs: Vec<&MemoryModel> = row_models.iter().map(|&m| &models[m]).collect();
        SweepPrefilter::new(&refs)
    });
    FormulaRows {
        semantic_merged: syntactic_rows - row_models.len(),
        row_of,
        row_models,
        prefilter,
    }
}

fn resolve_jobs(config: &EngineConfig) -> usize {
    config
        .jobs
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        })
        .max(1)
}

/// The shared sweep core, test-major: the unit of parallel work is a
/// **test row** — one execution checked against every distinct-formula
/// model at once through a [`BatchChecker`] — scheduled work-stealing
/// across workers. Cache lookups are row-keyed (the rows' model ids are
/// resolved once, then [`VerdictCache::lookup_row`] takes one shard lock
/// and one probe per test row), each worker merges its fresh verdicts
/// back as rows over the cache's own model table
/// ([`crate::ModelIds::rows_buf`]), and only the missing models of a
/// row reach the checker; with a [`SweepPrefilter`] those are further
/// grouped into provably-agreeing sets, so the checker sees one
/// representative per group and the verdict fans out (and is cached once
/// per member). The worker that claims a row computes its cache
/// fingerprint (when there is a cache), and builds its
/// [`mcm_core::Execution`] only when
/// some model's verdict is missing from the cache: warm rows cost neither
/// an execution nor checker work, and cold rows amortize candidate
/// enumeration / encoding across the whole model space.
///
/// On two or more jobs, `meanwhile` runs on the calling thread while the
/// spawned workers check, and the calling thread then joins the grid as
/// one more worker (the streaming engine pulls its next chunk there).
/// With one job nothing is spawned and `meanwhile` is not called.
///
/// Returns the tests' verdict rows, laid out as [`StreamCheckpoint::rows`],
/// and the grid's layer counters.
fn sweep_grid<F>(
    models: &[MemoryModel],
    rows: &FormulaRows,
    tests: &[LitmusTest],
    make_checker: &F,
    config: &EngineConfig,
    cached: Option<&(&VerdictCache, ModelIds)>,
    meanwhile: &mut dyn FnMut(),
) -> (Vec<u64>, SweepStats)
where
    F: Fn() -> Box<dyn BatchChecker> + Sync,
{
    let _span = mcm_obs::trace::span_with(
        "engine.grid",
        &[
            ("tests", &tests.len().to_string()),
            ("rows", &rows.row_models.len().to_string()),
        ],
    );
    let jobs = resolve_jobs(config);
    let reps = tests.len();
    let row_count = rows.row_models.len();
    let w = VerdictRows::words(row_count);
    let workers = jobs.min(reps.div_ceil(ROW_BATCH)).max(1);

    // The distinct-formula models, cloned once per sweep so rows that
    // reach the checker whole (no prefilter, or every row its own group)
    // check against a ready-made slice.
    let row_models: Vec<MemoryModel> = rows
        .row_models
        .iter()
        .map(|&m| models[m].clone())
        .collect();

    // Shared state: a claim cursor over test rows, and `w` allowed words
    // per test, stored once by the test's worker and read after the join
    // (so `Relaxed`). Each worker counts into its own `SweepStats`.
    let cursor = AtomicUsize::new(0);
    let slots: Vec<AtomicU64> = (0..reps * w).map(|_| AtomicU64::new(0)).collect();

    let work = || {
        // Outermost on a spawned thread, so its drop flushes the thread's
        // trace buffer (scoped threads join before TLS destructors run).
        let _span = mcm_obs::trace::span("engine.grid.worker");
        let checker = make_checker();
        let mut local_batch = cached.map(|(_, ids)| ids.rows_buf());
        let mut counts = SweepStats::default();
        let mut row = vec![0u64; w];
        let mut missing_rows: Vec<usize> = Vec::new();
        let mut missing_models: Vec<MemoryModel> = Vec::new();
        let mut lookup = RowLookup::default();
        loop {
            let start = cursor.fetch_add(ROW_BATCH, Ordering::Relaxed);
            if start >= reps {
                break;
            }
            let end = (start + ROW_BATCH).min(reps);
            for rep in start..end {
                row.fill(0);
                missing_rows.clear();
                let fp = cached.map_or(0, |_| canon::fingerprint(&tests[rep]));
                match cached {
                    Some((cache, ids)) => {
                        cache.lookup_row(ids, fp, &mut lookup);
                        counts.cache_hits += lookup.hits_ram + lookup.hits_disk;
                        counts.cache_hits_disk += lookup.hits_disk;
                        for (r, &memoized) in lookup.verdicts.iter().enumerate() {
                            match memoized {
                                Some(allowed) => row[r / 64] |= u64::from(allowed) << (r % 64),
                                None => missing_rows.push(r),
                            }
                        }
                    }
                    None => missing_rows.extend(0..row_count),
                }
                if !missing_rows.is_empty() {
                    let exec = tests[rep].execution();
                    // Layer 3: group rows whose formulas provably agree
                    // on this test; only representatives are checked.
                    let groups: Vec<Vec<usize>> = match &rows.prefilter {
                        Some(pf) if missing_rows.len() > 1 => pf.group_rows(&exec, &missing_rows),
                        _ => missing_rows.iter().map(|&r| vec![r]).collect(),
                    };
                    if rows.prefilter.is_some() {
                        counts.prefilter_groups += groups.len() as u64;
                        counts.prefilter_saved_calls += (missing_rows.len() - groups.len()) as u64;
                    }
                    counts.checker_calls += groups.len() as u64;
                    let verdicts = if groups.len() == row_count {
                        checker.check_all_executions(&exec, &row_models)
                    } else {
                        // Partial coverage — the common case once the
                        // prefilter groups rows: batch only the group
                        // representatives. `MemoryModel` clones share their
                        // name and formula, so this costs O(1) per group.
                        missing_models.clear();
                        missing_models.extend(groups.iter().map(|g| row_models[g[0]].clone()));
                        checker.check_all_executions(&exec, &missing_models)
                    };
                    for (group, verdict) in groups.iter().zip(&verdicts) {
                        for &r in group {
                            row[r / 64] |= u64::from(verdict.allowed) << (r % 64);
                        }
                    }
                    if let (Some(local), Some((_, ids))) = (local_batch.as_mut(), cached) {
                        local.push_row(fp);
                        for &r in &missing_rows {
                            local.set(ids.position(r), row[r / 64] >> (r % 64) & 1 == 1);
                        }
                    }
                }
                for (slot, &word) in slots[rep * w..(rep + 1) * w].iter().zip(&row) {
                    slot.store(word, Ordering::Relaxed);
                }
            }
        }
        counts.sat = checker.solver_stats().unwrap_or_default();
        counts.batch = checker.batch_stats().unwrap_or_default();
        (local_batch, counts)
    };
    let outcomes = if jobs <= 1 {
        vec![work()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
            meanwhile();
            // Join the grid unless the spawned workers already claimed
            // every row (a checker built for no row is wasted work).
            let mut outcomes: Vec<_> = (cursor.load(Ordering::Relaxed) < reps)
                .then(&work)
                .into_iter()
                .collect();
            outcomes.extend(
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("sweep workers do not panic")),
            );
            outcomes
        })
    };
    let mut stats = SweepStats::default();
    for (local, counts) in outcomes {
        if let (Some((cache, _)), Some(local)) = (cached, local) {
            cache.merge_rows(local.as_rows());
        }
        stats.absorb(counts);
    }
    let words = slots.into_iter().map(AtomicU64::into_inner).collect();
    (words, stats)
}

impl Exploration {
    /// Runs the exploration sequentially with the given checker.
    #[must_use]
    pub fn run(
        models: Vec<MemoryModel>,
        tests: Vec<LitmusTest>,
        checker: &dyn BatchChecker,
    ) -> Self {
        let mut verdicts = vec![VerdictVector::new(tests.len()); models.len()];
        for (t, test) in tests.iter().enumerate() {
            for (vector, verdict) in verdicts.iter_mut().zip(checker.check_all(test, &models)) {
                vector.set(t, verdict.allowed);
            }
        }
        Exploration {
            models,
            tests,
            verdicts,
        }
    }

    /// The materialized sweep: [`Exploration::run_engine_streaming_with`]
    /// over a `Vec`, as one cold chunk. Every test is checked, in input
    /// order:
    ///
    /// 1. models with semantically identical must-not-reorder formulas are
    ///    checked once (`TSO` and `x86` share a row);
    /// 2. with a [`VerdictCache`], rows answered in an earlier sweep — by
    ///    either entry point, the keys are the same orbit fingerprints —
    ///    are never re-checked.
    ///
    /// `make_checker` is called once per worker thread, so checkers need
    /// not be `Sync` (the SAT checkers carry per-instance solver state).
    /// Pass a [`mcm_axiomatic::CheckerKind::build_batch`] checker to
    /// amortize candidate enumeration / encoding across each row.
    #[must_use]
    pub fn run_engine<F>(
        models: Vec<MemoryModel>,
        tests: Vec<LitmusTest>,
        make_checker: F,
        config: &EngineConfig,
        cache: Option<&VerdictCache>,
    ) -> (Self, SweepStats)
    where
        F: Fn() -> Box<dyn BatchChecker> + Sync,
    {
        let _span = mcm_obs::trace::span_with("engine.run", &[("tests", &tests.len().to_string())]);
        let one_chunk = EngineConfig {
            stream_chunk: tests.len().max(1),
            ..config.clone()
        };
        Exploration::run_engine_streaming_with(
            models,
            tests,
            make_checker,
            &one_chunk,
            cache,
            StreamControl::default(),
        )
        .expect("a cold sweep cannot fail to resume")
    }

    /// The sweep engine core, bounded-memory and streaming.
    ///
    /// Consumes any test iterator — typically
    /// `mcm_gen::stream::leaders(..)`, which yields exactly one canonical
    /// representative per symmetry orbit of a bounded space — in chunks of
    /// [`EngineConfig::stream_chunk`] tests, runs each chunk through the
    /// formula-dedup + [`VerdictCache`] + prefilter + work-stealing grid,
    /// and appends its verdict rows to a [`StreamCheckpoint`], whose
    /// [`StreamCheckpoint::columns`] are built once, at the end. The raw
    /// space behind the iterator is never materialized; peak memory is one
    /// chunk (two on two or more jobs, which pull the next chunk while
    /// checking this one) plus the kept tests and their verdict rows.
    /// The iterator and the checkpoint hook are only ever used on the
    /// calling thread, so neither needs to be `Send`.
    ///
    /// Every test the iterator yields is checked, in order: the returned
    /// [`Exploration`]'s `tests` are exactly the stream. There is no dedup
    /// layer, because a leader stream is already one representative per
    /// orbit.
    ///
    /// Per-chunk [`StreamControl`] adds a checkpoint hook observing a
    /// [`StreamCheckpoint`] after every chunk (and able to stop the sweep
    /// early), and an optional resume state from an earlier run.
    ///
    /// On resume the engine pulls the already-consumed prefix of the
    /// stream again — no checker is ever called for it — then restores
    /// the verdict rows and counters from the checkpoint and continues.
    /// Because the stream is deterministic, an interrupted-and-resumed
    /// sweep produces bit-identical verdicts to an uninterrupted one (the
    /// resume-correctness tests assert exactly this). Errors when the
    /// checkpoint does not match the current models or stream.
    pub fn run_engine_streaming_with<I, F>(
        models: Vec<MemoryModel>,
        tests: I,
        make_checker: F,
        config: &EngineConfig,
        cache: Option<&VerdictCache>,
        mut control: StreamControl<'_>,
    ) -> Result<(Self, SweepStats), ResumeError>
    where
        I: IntoIterator<Item = LitmusTest>,
        F: Fn() -> Box<dyn BatchChecker> + Sync,
    {
        let _span = mcm_obs::trace::span("engine.stream");
        let rows = formula_rows(&models);
        let chunk_size = config.stream_chunk.max(1);
        let mut iter = tests.into_iter();
        let mut kept: Vec<LitmusTest> = Vec::new();
        let mut state = StreamCheckpoint {
            tests_streamed: 0,
            tests_kept: 0,
            model_fps: (rows.row_models.iter())
                .map(|&m| VerdictCache::model_fingerprint(&models[m]))
                .collect(),
            rows: Vec::new(),
            stats: SweepStats {
                distinct_models: rows.row_models.len(),
                semantic_merged_models: rows.semantic_merged,
                ..SweepStats::default()
            },
        };

        if let Some(resumed) = control.resume.take() {
            let reject = |why: &str| Err(ResumeError(why.to_string()));
            if resumed.model_fps != state.model_fps {
                return reject("checkpoint was taken over a different model list");
            }
            let w = VerdictRows::words(state.model_fps.len()) as u64;
            if resumed.tests_kept != resumed.tests_streamed
                || resumed.tests_kept.checked_mul(w) != Some(resumed.rows.len() as u64)
            {
                return reject("checkpoint verdict rows are inconsistent");
            }
            // Pull the consumed prefix again: no checker work.
            let _replay_span = mcm_obs::trace::span("engine.replay");
            kept.extend(iter.by_ref().take(resumed.tests_streamed as usize));
            if (kept.len() as u64) < resumed.tests_streamed {
                return reject("stream is shorter than the checkpoint cursor");
            }
            state = resumed;
        }
        // The rows' cache model ids, resolved once for the whole sweep.
        let cached = cache.map(|cache| (cache, cache.model_ids(&state.model_fps)));

        // The leader phase: pulls the next chunk out of the (lazily
        // enumerated) test stream; `None` once the stream is exhausted.
        // Always on the calling thread: the iterator need not be `Send`.
        let pull = |iter: &mut I::IntoIter| -> Option<Vec<LitmusTest>> {
            let _lead_span = mcm_obs::trace::span("engine.lead");
            let chunk: Vec<LitmusTest> = iter.by_ref().take(chunk_size).collect();
            (!chunk.is_empty()).then_some(chunk)
        };
        // With two or more jobs the calling thread pulls chunk k+1 while
        // the grid checks chunk k. Chunk k+1's grid starts only after
        // chunk k is merged and its checkpoint hook returned, so results,
        // counters, cache contents and checkpoints do not depend on the
        // overlap; an early stop only drops the prefetched chunk.
        let mut next = pull(&mut iter);
        while let Some(batch) = next {
            let _chunk_span =
                mcm_obs::trace::span_with("engine.chunk", &[("tests", &batch.len().to_string())]);
            let stats = &mut state.stats;
            stats.tests_streamed += batch.len() as u64;
            stats.peak_batch = stats.peak_batch.max(batch.len());
            // `Some` once the grid has pulled the next chunk (or found the
            // stream exhausted) on the calling thread.
            let mut prefetched = None;
            let (batch_rows, grid_stats) = sweep_grid(
                &models,
                &rows,
                &batch,
                &make_checker,
                config,
                cached.as_ref(),
                &mut || prefetched = Some(pull(&mut iter)),
            );
            stats.absorb(grid_stats);
            kept.extend(batch);
            stats.total_pairs = models.len() as u64 * stats.tests_streamed;
            stats.unique_pairs = (rows.row_models.len() * kept.len()) as u64;
            stats.canonical_tests = kept.len();
            state.tests_streamed = stats.tests_streamed;
            state.tests_kept = kept.len() as u64;
            state.rows.extend(batch_rows);
            if let Some(hook) = control.on_checkpoint.as_mut() {
                if !hook(&state) {
                    break;
                }
            }
            next = prefetched.unwrap_or_else(|| pull(&mut iter));
        }
        let columns = state.columns();
        let verdicts = rows.row_of.iter().map(|&r| columns[r].clone()).collect();
        Ok((
            Exploration {
                models,
                tests: kept,
                verdicts,
            },
            state.stats,
        ))
    }

    /// Number of models.
    #[must_use]
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the exploration is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// The relation between models `i` and `j`.
    #[must_use]
    pub fn relation(&self, i: usize, j: usize) -> Relation {
        Relation::classify(&self.verdicts[i], &self.verdicts[j])
    }

    /// Indices of tests that distinguish models `i` and `j`.
    #[must_use]
    pub fn distinguishing_tests(&self, i: usize, j: usize) -> Vec<usize> {
        self.verdicts[i].diff_indices(&self.verdicts[j])
    }

    /// Groups model indices with identical verdict vectors, preserving
    /// input order of first members.
    #[must_use]
    pub fn equivalence_classes(&self) -> Vec<Vec<usize>> {
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for (i, vector) in self.verdicts.iter().enumerate() {
            if let Some(class) = classes
                .iter_mut()
                .find(|c| &self.verdicts[c[0]] == vector)
            {
                class.push(i);
            } else {
                classes.push(vec![i]);
            }
        }
        classes
    }

    /// All unordered pairs of equivalent (but distinct) models.
    #[must_use]
    pub fn equivalent_pairs(&self) -> Vec<(usize, usize)> {
        let mut pairs = Vec::new();
        for class in self.equivalence_classes() {
            for (a, &i) in class.iter().enumerate() {
                for &j in &class[a + 1..] {
                    pairs.push((i, j));
                }
            }
        }
        pairs
    }

    /// [`Exploration::equivalent_pairs`] by model name.
    #[must_use]
    pub fn equivalent_pair_names(&self) -> Vec<(String, String)> {
        self.equivalent_pairs()
            .into_iter()
            .map(|(i, j)| {
                let name = |m: usize| self.models[m].name().to_string();
                (name(i), name(j))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcm_axiomatic::{BatchExplicitChecker, ExplicitChecker};
    use mcm_models::catalog;
    use mcm_models::named;

    /// A cold streaming sweep with the explicit checker.
    fn stream<I: IntoIterator<Item = LitmusTest>>(
        models: Vec<MemoryModel>,
        tests: I,
        config: &EngineConfig,
        cache: Option<&VerdictCache>,
    ) -> (Exploration, SweepStats) {
        Exploration::run_engine_streaming_with(
            models,
            tests,
            || Box::new(BatchExplicitChecker::new()),
            config,
            cache,
            StreamControl::default(),
        )
        .unwrap()
    }

    fn small_exploration() -> Exploration {
        let models = vec![named::sc(), named::tso(), named::x86(), named::pso()];
        let tests = vec![catalog::l1(), catalog::l7(), catalog::test_a()];
        Exploration::run(models, tests, &ExplicitChecker::new())
    }

    #[test]
    fn tso_and_x86_are_equivalent() {
        let expl = small_exploration();
        assert_eq!(expl.relation(1, 2), Relation::Equivalent);
        assert_eq!(expl.equivalent_pairs(), vec![(1, 2)]);
        assert_eq!(expl.equivalence_classes().len(), 3);
    }

    #[test]
    fn sc_is_strictly_stronger_than_tso() {
        let expl = small_exploration();
        assert_eq!(expl.relation(0, 1), Relation::StrictlyStronger);
        assert_eq!(expl.relation(1, 0), Relation::StrictlyWeaker);
        let tests = expl.distinguishing_tests(0, 1);
        assert!(!tests.is_empty());
        // All distinguishing tests are allowed by TSO and forbidden by SC.
        for t in tests {
            assert!(expl.verdicts[1].allowed(t));
            assert!(!expl.verdicts[0].allowed(t));
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let models = vec![named::sc(), named::tso(), named::pso(), named::rmo()];
        let tests = catalog::all_tests();
        let seq = Exploration::run(
            models.clone(),
            tests.clone(),
            &ExplicitChecker::new(),
        );
        let (par, _) = Exploration::run_engine(
            models,
            tests,
            || Box::new(BatchExplicitChecker::new()),
            &EngineConfig::default(),
            None,
        );
        assert_eq!(seq.verdicts, par.verdicts);
    }

    #[test]
    fn batched_engine_matches_sequential_and_amortizes_rows() {
        let models = vec![named::sc(), named::tso(), named::x86(), named::pso(), named::rmo()];
        let tests = catalog::all_tests();
        let seq = Exploration::run(models.clone(), tests.clone(), &ExplicitChecker::new());
        let (engine, stats) = Exploration::run_engine(
            models,
            tests,
            || Box::new(BatchExplicitChecker::new()),
            &EngineConfig::default(),
            None,
        );
        assert_eq!(seq.verdicts, engine.verdicts);
        // One batched row per test; the prefilter may shrink what each
        // row hands the checker, so count against actual calls.
        assert_eq!(stats.batch.rows, engine.tests.len() as u64);
        assert_eq!(stats.batch.models_checked, stats.checker_calls);
        assert!(
            stats.batch.model_groups <= stats.batch.models_checked,
            "grouping never exceeds the model count"
        );
        assert!(stats.batch.shared_candidates > 0);
        // The per-cell reference shares nothing and reports no row counters.
        let (_, per_cell) = Exploration::run_engine(
            vec![named::sc(), named::tso()],
            catalog::all_tests(),
            || Box::new(ExplicitChecker::new()),
            &EngineConfig::default(),
            None,
        );
        assert_eq!(per_cell.batch, mcm_axiomatic::BatchStats::default());
    }

    #[test]
    fn batch_sat_engine_matches_the_explicit_rows() {
        let models = vec![named::sc(), named::tso(), named::ibm370()];
        let tests = vec![catalog::l7(), catalog::mp(), catalog::test_a()];
        let seq = Exploration::run(models.clone(), tests.clone(), &ExplicitChecker::new());
        let (engine, stats) = Exploration::run_engine(
            models,
            tests,
            || Box::new(mcm_axiomatic::BatchRfSatChecker::new()),
            &EngineConfig::default(),
            None,
        );
        assert_eq!(seq.verdicts, engine.verdicts);
        assert!(stats.batch.assumption_solves > 0);
        assert!(stats.sat.propagations > 0, "assumption solves count work");
    }

    #[test]
    fn sat_backed_sweeps_report_solver_work() {
        let models = vec![named::sc(), named::tso()];
        let tests = vec![catalog::l7(), catalog::mp()];
        let (_, stats) = Exploration::run_engine(
            models.clone(),
            tests.clone(),
            || mcm_axiomatic::CheckerKind::Sat.build_batch(),
            &EngineConfig::default(),
            None,
        );
        assert!(stats.sat.propagations > 0, "SAT sweep must count work");
        assert!(stats.batch.assumption_solves > 0, "per-rf rows count solves");
        let (_, explicit) = Exploration::run_engine(
            models,
            tests,
            || Box::new(BatchExplicitChecker::new()),
            &EngineConfig::default(),
            None,
        );
        assert_eq!(explicit.sat, mcm_sat::SolverStats::default());
    }

    #[test]
    fn single_job_engine_runs_on_the_calling_thread() {
        let models = vec![named::sc(), named::tso()];
        let tests = catalog::all_tests();
        let seq = Exploration::run(models.clone(), tests.clone(), &ExplicitChecker::new());
        let (engine, stats) = Exploration::run_engine(
            models,
            tests,
            || Box::new(BatchExplicitChecker::new()),
            &EngineConfig {
                jobs: Some(1),
                ..EngineConfig::default()
            },
            None,
        );
        assert_eq!(seq.verdicts, engine.verdicts);
        assert_eq!(
            stats.checker_calls + stats.prefilter_saved_calls,
            stats.unique_pairs
        );
    }

    #[test]
    fn streaming_engine_matches_materialized_on_a_fixed_suite() {
        let models = vec![named::sc(), named::tso(), named::x86(), named::pso()];
        let tests = catalog::all_tests();
        let seq = Exploration::run(models.clone(), tests.clone(), &ExplicitChecker::new());
        // Tiny chunks force many grid sweeps and verdict growth.
        let (streamed, stats) = stream(
            models,
            tests.clone(),
            &EngineConfig {
                stream_chunk: 3,
                ..EngineConfig::default()
            },
            None,
        );
        assert_eq!(seq.verdicts, streamed.verdicts);
        assert_eq!(streamed.tests.len(), tests.len());
        assert_eq!(stats.tests_streamed, tests.len() as u64);
        assert!(stats.peak_batch <= 3);
        assert_eq!(
            stats.checker_calls + stats.prefilter_saved_calls,
            stats.unique_pairs
        );
    }

    #[test]
    fn streaming_engine_uses_the_cache() {
        let models = vec![named::sc(), named::tso(), named::pso()];
        let tests = catalog::all_tests();
        let cache = VerdictCache::new();
        let config = EngineConfig {
            stream_chunk: 5,
            ..EngineConfig::default()
        };
        let (_, cold) = stream(
            models.clone(),
            tests.clone(),
            &config,
            Some(&cache),
        );
        assert!(cold.checker_calls > 0);
        let (warm_expl, warm) = stream(
            models,
            tests,
            &config,
            Some(&cache),
        );
        assert_eq!(warm.checker_calls, 0, "warm streamed sweep must be checker-free");
        assert_eq!(warm.cache_hits, warm.unique_pairs);
        assert!(!warm_expl.tests.is_empty());
    }

    #[test]
    fn prefilter_is_sound_and_saves_calls() {
        use mcm_models::DigitModel;
        // M1010/M1110 agree on every test without a same-address W→R po
        // pair; plenty of the catalog qualifies.
        let models: Vec<MemoryModel> = ["M1010", "M1110", "M4044", "M4444"]
            .iter()
            .map(|s| s.parse::<DigitModel>().unwrap().to_model())
            .collect();
        let tests = catalog::all_tests();
        let seq = Exploration::run(models.clone(), tests.clone(), &ExplicitChecker::new());
        let (engine, stats) = Exploration::run_engine(
            models,
            tests,
            || Box::new(BatchExplicitChecker::new()),
            &EngineConfig::default(),
            None,
        );
        assert_eq!(seq.verdicts, engine.verdicts, "the prefilter must be invisible");
        assert!(stats.prefilter_saved_calls > 0, "some tests must group models");
        // Without a cache every unique pair is either checked or saved.
        assert_eq!(
            stats.checker_calls + stats.prefilter_saved_calls,
            stats.unique_pairs
        );
    }

    #[test]
    fn semantically_equal_formulas_share_a_row() {
        use mcm_core::formula::{ArgPos, Atom, Formula};
        // Access(x) spelled two ways: syntactically different, one row.
        let spelled_out = Formula::or([
            Formula::atom(Atom::IsRead(ArgPos::First)),
            Formula::atom(Atom::IsWrite(ArgPos::First)),
        ]);
        let models = vec![
            MemoryModel::new("direct", Formula::atom(Atom::IsAccess(ArgPos::First))),
            MemoryModel::new("spelled", spelled_out),
        ];
        let tests = vec![catalog::l1(), catalog::test_a()];
        let seq = Exploration::run(models.clone(), tests.clone(), &ExplicitChecker::new());
        let (engine, stats) = Exploration::run_engine(
            models,
            tests,
            || Box::new(BatchExplicitChecker::new()),
            &EngineConfig::default(),
            None,
        );
        assert_eq!(seq.verdicts, engine.verdicts);
        assert_eq!(stats.distinct_models, 1);
        assert_eq!(stats.semantic_merged_models, 1);
    }

    #[test]
    fn columns_and_rows_are_inverse_across_word_boundaries() {
        // 70 models take two words per test row, and 130 tests three words
        // per column; 3 models pack 16 test rows into each block row.
        for (models, tests) in [(70, 130), (3, 3000)] {
            columns_and_rows_are_inverse(models, tests);
        }
    }

    fn columns_and_rows_are_inverse(models: usize, tests: usize) {
        let columns: Vec<VerdictVector> = (0..models)
            .map(|m| {
                let mut column = VerdictVector::new(tests);
                for t in (0..tests).filter(|t| (m * 7 + t * 3) % 5 == 0) {
                    column.set(t, true);
                }
                column
            })
            .collect();
        let state = StreamCheckpoint {
            tests_streamed: tests as u64,
            tests_kept: tests as u64,
            model_fps: (0..models as u64).collect(),
            rows: StreamCheckpoint::rows_from_columns(&columns, tests),
            stats: SweepStats::default(),
        };
        let w = models.div_ceil(64);
        assert_eq!(state.rows.len(), w * tests);
        for t in 0..tests {
            for (m, column) in columns.iter().enumerate() {
                let bit = state.rows[w * t + m / 64] >> (m % 64) & 1;
                assert_eq!(bit == 1, column.allowed(t), "test {t}, model {m}");
            }
        }
        assert_eq!(state.columns(), columns);
    }

    #[test]
    fn resume_rejects_rows_that_do_not_match_the_cursor() {
        let models = vec![named::sc(), named::tso(), named::pso()];
        let config = EngineConfig {
            jobs: Some(1),
            stream_chunk: 4,
        };
        let sweep = |resume: Option<StreamCheckpoint>| {
            let mut last = None;
            let result = Exploration::run_engine_streaming_with(
                models.clone(),
                catalog::all_tests(),
                || Box::new(BatchExplicitChecker::new()),
                &config,
                None,
                StreamControl {
                    on_checkpoint: Some(Box::new(|state: &StreamCheckpoint| {
                        last = Some(state.clone());
                        false
                    })),
                    resume,
                },
            )
            .map(|_| ());
            (result, last)
        };
        let (cold, first) = sweep(None);
        assert_eq!(cold, Ok(()));
        let first = first.expect("one chunk was checked");
        assert_eq!(first.rows.len(), 4, "one word per test over 3 rows");
        let (resumed, _) = sweep(Some(first.clone()));
        assert_eq!(resumed, Ok(()), "the untouched checkpoint resumes");

        let mut short_rows = first.clone();
        short_rows.rows.pop();
        let mut long_rows = first.clone();
        long_rows.rows.push(0);
        let mut fewer_kept = first.clone();
        fewer_kept.tests_kept -= 1;
        fewer_kept.rows.pop();
        for (label, bad) in [
            ("rows short of tests_kept", short_rows),
            ("rows past tests_kept", long_rows),
            ("tests_kept below tests_streamed", fewer_kept),
        ] {
            let (result, hooked) = sweep(Some(bad));
            let inconsistent = "checkpoint verdict rows are inconsistent".to_string();
            assert_eq!(result, Err(ResumeError(inconsistent)), "{label}");
            assert!(hooked.is_none(), "{label}: no chunk ran on the bad state");
        }
    }

    #[test]
    fn streaming_an_empty_iterator_is_empty() {
        let (expl, stats) = stream(
            vec![named::sc()],
            std::iter::empty(),
            &EngineConfig::default(),
            None,
        );
        assert!(expl.tests.is_empty());
        assert_eq!(expl.verdicts[0].len(), 0);
        assert_eq!(stats.tests_streamed, 0);
        assert_eq!(stats.peak_batch, 0);
    }
}
