//! `sweep90`: the 90-model streamed sweep of §4.2 (36,764 size-≤3
//! leaders), cold and uncached, in three phases — the explicit checker on
//! every core, the same on one thread, and the per-rf SAT checker. The
//! phases split bookkeeping from checking: grid bookkeeping and the
//! prefilter weigh most in the explicit phases, the checker in the SAT
//! phase.

use std::hint::black_box;

use mcm_analyze::SweepPrefilter;
use mcm_axiomatic::CheckerKind;
use mcm_core::{LitmusTest, MemoryModel};
use mcm_explore::{EngineConfig, Exploration, Lattice, StreamControl, SweepStats, VerdictCache};
use mcm_gen::stream::{leaders, StreamBounds};
use mcm_query::{Format, ModelSpec, Query, Render, SweepQuery, SweepReport, TestSource};

use crate::probes::{LeaderClock, TimedFactory, TimedIter};
use crate::util::{mean, median, quantile, reference, time, Digest, Report, Rng, Spans};
use crate::Run;

/// The §4.2 model space in a seed-chosen order. The engine's verdicts do
/// not depend on model order, so every digest is taken by model name.
pub fn models90(seed: u64) -> Vec<MemoryModel> {
    let mut models = ModelSpec::Full90
        .resolve()
        .expect("the 90-model space resolves");
    Rng::new(seed).shuffle(&mut models);
    models
}

/// Set-up of a streamed sweep: resolve the models and build the stream.
pub fn setup_seconds(seed: u64) -> f64 {
    repeated_setup(|| {
        black_box(models90(seed));
        black_box(leaders(&StreamBounds::default()));
    })
}

/// Times `setup` 51 times after 5 untimed warm-up calls and reports the
/// median, so neither first-call costs nor one stall can move it.
pub fn repeated_setup(mut setup: impl FnMut()) -> f64 {
    for _ in 0..5 {
        setup();
    }
    let samples: Vec<f64> = (0..51).map(|_| time(&mut setup).1).collect();
    median(&samples)
}

pub fn stream_query(models: &[MemoryModel]) -> SweepQuery {
    Query::sweep()
        .models(ModelSpec::Models(models.to_vec()))
        .tests(TestSource::Stream {
            bounds: StreamBounds::default(),
            limit: None,
            shard: None,
        })
}

/// A sweep query run and rendered to JSON, as the CLI does it.
pub struct Swept {
    pub report: SweepReport,
    pub run_s: f64,
    pub render_s: f64,
    pub bytes: usize,
}

impl Swept {
    pub fn wall(&self) -> f64 {
        self.run_s + self.render_s
    }
}

pub fn run_query(query: SweepQuery) -> Swept {
    let (report, run_s) = time(|| query.run().expect("the benchmark's sweeps are valid"));
    let (json, render_s) = time(|| report.render(Format::Json).expect("sweeps render JSON"));
    Swept {
        report,
        run_s,
        render_s,
        bytes: black_box(json).len(),
    }
}

/// Digest of the verdict matrix: kept test names in stream order, then
/// every model's verdict bits, models in name order.
pub fn verdict_digest(exploration: &Exploration) -> String {
    let mut digest = Digest::new();
    for test in &exploration.tests {
        digest.str(test.name());
    }
    let mut order: Vec<usize> = (0..exploration.models.len()).collect();
    order.sort_by_key(|&m| exploration.models[m].name());
    for m in order {
        digest.str(exploration.models[m].name());
        let vector = &exploration.verdicts[m];
        let bits: Vec<u8> = (0..vector.len())
            .map(|t| u8::from(vector.allowed(t)))
            .collect();
        digest.bytes(&bits);
    }
    digest.hex()
}

/// Digest of a normalized pair list.
fn pairs_digest(pairs: &[(String, String)]) -> String {
    let mut digest = Digest::new();
    for (a, b) in pairs {
        digest.str(a).str(b);
    }
    digest.hex()
}

/// The paper's 8 equivalent pairs of the 90-model space, found
/// statically by the analyzer (no litmus test executed).
pub fn paper_pairs(models: &[MemoryModel]) -> Vec<(String, String)> {
    let analysis = mcm_analyze::StrengthAnalysis::build(models);
    analysis
        .equivalent_pairs()
        .into_iter()
        .map(|(i, j, _)| {
            (
                analysis.models[i].name.clone(),
                analysis.models[j].name.clone(),
            )
        })
        .collect()
}

fn normalized(pairs: &[(String, String)]) -> Vec<(String, String)> {
    let mut sorted: Vec<(String, String)> = pairs
        .iter()
        .map(|(a, b)| {
            if a <= b {
                (a.clone(), b.clone())
            } else {
                (b.clone(), a.clone())
            }
        })
        .collect();
    sorted.sort();
    sorted
}

/// The correctness gate of one sweep: the verdict matrix and its
/// equivalent pairs match the committed reference, and the paper's 8
/// equivalent pairs are among them.
pub fn gate_sweep(
    report: &mut Report,
    label: &str,
    swept: &SweepReport,
    paper: &[(String, String)],
) {
    let verdicts = verdict_digest(&swept.exploration);
    report.gate(
        verdicts == reference("sweep90.verdicts"),
        format!("{label}: verdict digest {verdicts}"),
    );
    let found = normalized(&swept.equivalent_pairs);
    let pairs = pairs_digest(&found);
    report.gate(
        pairs == reference("sweep90.equivalent_pairs"),
        format!("{label}: {} equivalent pairs, digest {pairs}", found.len()),
    );
    let missing = normalized(paper)
        .into_iter()
        .filter(|pair| !found.contains(pair))
        .count();
    report.gate(
        paper.len() == 8 && missing == 0,
        format!(
            "{label}: {missing} of the paper's {} equivalent pairs missing",
            paper.len()
        ),
    );
}

const PHASES: [(&str, CheckerKind, Option<usize>); 3] = [
    ("wall_s", CheckerKind::Explicit, None),
    ("wall_1job_s", CheckerKind::Explicit, Some(1)),
    ("wall_sat_s", CheckerKind::Sat, None),
];

fn engine(jobs: Option<usize>) -> EngineConfig {
    EngineConfig {
        jobs,
        ..EngineConfig::default()
    }
}

/// One untraced round: the three phases through `Query::sweep()` plus
/// the JSON render, each gated, with `between` called after each phase.
fn untraced_round(
    models: &[MemoryModel],
    paper: &[(String, String)],
    report: &mut Report,
    between: &mut dyn FnMut(),
) -> Vec<Swept> {
    PHASES
        .iter()
        .map(|&(label, kind, jobs)| {
            let query = stream_query(models).checker(kind).engine(engine(jobs));
            let swept = run_query(query);
            gate_sweep(report, label, &swept.report, paper);
            between();
            swept
        })
        .collect()
}

pub fn sweep90(run: &Run, report: &mut Report) {
    let models = models90(run.seed);
    let paper = paper_pairs(&models);
    if run.trace {
        return traced(&models, &paper, report);
    }
    let mut walls: [Vec<f64>; 3] = Default::default();
    let mut leaders_swept = 0u64;
    let mut pairs = 0u64;
    let mut setup = crate::SetupProbes::new("sweep90", run);
    let started = std::time::Instant::now();
    while walls[0].is_empty()
        || started.elapsed().as_secs_f64() * (walls[0].len() + 1) as f64 / walls[0].len() as f64
            <= run.seconds
    {
        let round = untraced_round(&models, &paper, report, &mut || setup.tick());
        for (phase, swept) in round.iter().enumerate() {
            walls[phase].push(swept.wall());
        }
        crate::util::log_round(&round.iter().map(Swept::wall).collect::<Vec<_>>());
        if walls[0].len() == 1 {
            report.set("peak_rss_mb", crate::util::peak_rss_mb());
        }
        leaders_swept = round[0].report.stats.tests_streamed;
        pairs = round[0].report.stats.total_pairs;
    }
    let wall_s = mean(&walls[0]);
    report.set("setup_s", setup.seconds());
    report.set("wall_s", wall_s);
    report.set("wall_1job_s", mean(&walls[1]));
    report.set("wall_sat_s", mean(&walls[2]));
    set_batch_common(report, &walls[0], leaders_swept, pairs);
    report.set("warm_s", wall_s);
    report.set("resume_s", wall_s);
}

/// The end-to-end metrics a batch workload shares with the server
/// workload: its primary query is one request, so latency is that
/// query's wall and the request rates are its inverse. A run makes too
/// few such requests for a tail percentile, so p99 reads as the median.
pub fn set_batch_common(report: &mut Report, primary: &[f64], tests: u64, pairs: u64) {
    let wall = mean(primary);
    report.set("tests_per_s", tests as f64 / wall);
    report.set("pairs_per_s", pairs as f64 / wall);
    report.set("latency_p50_ms", wall * 1e3);
    report.set("latency_p99_ms", wall * 1e3);
    report.set("requests_per_s", 1.0 / wall);
    report.set("sustained_rps", 1.0 / wall);
}

/// One phase through the engine directly, with the leader iterator and
/// every checker wrapped in probes.
pub struct TracedPhase {
    pub exploration: Exploration,
    pub stats: SweepStats,
    pub clock: LeaderClock,
    pub factory: TimedFactory,
    pub engine_s: f64,
    pub lattice_s: f64,
}

pub fn traced_engine(
    spans: &mut Spans,
    models: &[MemoryModel],
    kind: CheckerKind,
    config: &EngineConfig,
    cache: Option<&VerdictCache>,
    control: StreamControl<'_>,
) -> TracedPhase {
    let clock = LeaderClock::default();
    let factory = TimedFactory::new(kind);
    let stream = TimedIter::new(leaders(&StreamBounds::default()), &clock);
    let ((exploration, stats), engine_s) = time(|| {
        spans.record("explore.engine", || {
            Exploration::run_engine_streaming_with(
                models.to_vec(),
                stream,
                || factory.make(),
                config,
                cache,
                control,
            )
            .expect("the benchmark's checkpoints match their sweep")
        })
    });
    let (_, lattice_s) = time(|| spans.record("explore.lattice", || Lattice::build(&exploration)));
    TracedPhase {
        exploration,
        stats,
        clock,
        factory,
        engine_s,
        lattice_s,
    }
}

/// The row representatives the engine hands its prefilter: the first
/// model of each semantic-key class, in model order.
pub fn row_models(models: &[MemoryModel]) -> Vec<&MemoryModel> {
    let mut keys = Vec::new();
    let mut reps = Vec::new();
    for model in models {
        let key = mcm_analyze::semantic_key(model.formula());
        if !keys.contains(&key) {
            keys.push(key);
            reps.push(model);
        }
    }
    reps
}

/// Replays the `core` and `analyze` work of a sweep over its kept tests.
pub fn replay_layers(
    spans: &mut Spans,
    report: &mut Report,
    models: &[MemoryModel],
    tests: &[LitmusTest],
    stats: &SweepStats,
) {
    let (execs, execution_s) = time(|| {
        spans.record("core.execution", || {
            tests.iter().map(LitmusTest::execution).collect::<Vec<_>>()
        })
    });
    let reps = row_models(models);
    let (prefilter, build_s) =
        time(|| spans.record("analyze.prefilter", || SweepPrefilter::new(&reps)));
    let rows: Vec<usize> = (0..reps.len()).collect();
    let (groups, group_s) = time(|| {
        spans.record("analyze.group_rows", || {
            execs
                .iter()
                .map(|exec| prefilter.group_rows(exec, &rows).len() as u64)
                .sum::<u64>()
        })
    });
    report.gate(
        groups == stats.prefilter_groups,
        format!(
            "replayed prefilter formed {groups} groups, the sweep {}",
            stats.prefilter_groups
        ),
    );
    report.set("core.execution_s", execution_s);
    report.set("analyze.prefilter_build_s", build_s);
    report.set("analyze.group_rows_s", group_s);
    report.set("analyze.groups", groups as f64);
    report.set(
        "analyze.saved_ratio",
        stats.prefilter_saved_calls as f64
            / (stats.checker_calls + stats.prefilter_saved_calls).max(1) as f64,
    );
}

/// Per-layer metrics of a traced engine phase: `gen`, `explore`, and the
/// checker's rows as the wrapper saw them.
pub fn report_phase(report: &mut Report, phase: &TracedPhase) {
    let probe = &phase.factory.probe;
    let busy_s = probe.busy_ns.load(std::sync::atomic::Ordering::Relaxed) as f64 / 1e9;
    let leader_s = phase.clock.seconds.get();
    report.set("gen.leaders", phase.clock.leaders.get() as f64);
    report.set("gen.leader_s", leader_s);
    report.set("explore.engine_s", phase.engine_s);
    report.set("explore.self_s", phase.engine_s - leader_s - busy_s);
    report.set(
        "explore.self_share",
        (phase.engine_s - leader_s - busy_s) / phase.engine_s,
    );
    report.set("explore.checker_calls", phase.stats.checker_calls as f64);
    report.set("explore.lattice_s", phase.lattice_s);
}

pub fn report_checker(report: &mut Report, phase: &TracedPhase) {
    let probe = &phase.factory.probe;
    let rows = probe.row_us.lock().expect("no checker panicked").clone();
    report.set(
        "axiomatic.rows",
        probe.rows.load(std::sync::atomic::Ordering::Relaxed) as f64,
    );
    report.set(
        "axiomatic.models_checked",
        probe
            .models_checked
            .load(std::sync::atomic::Ordering::Relaxed) as f64,
    );
    report.set(
        "axiomatic.busy_s",
        probe.busy_ns.load(std::sync::atomic::Ordering::Relaxed) as f64 / 1e9,
    );
    if !rows.is_empty() {
        report.set("axiomatic.row_p50_us", quantile(&rows, 0.5));
        report.set("axiomatic.row_p99_us", quantile(&rows, 0.99));
    }
}

fn traced(models: &[MemoryModel], paper: &[(String, String)], report: &mut Report) {
    let untraced = untraced_round(models, paper, report, &mut || {});
    let untraced_s: f64 = untraced.iter().map(|s| s.run_s).sum();
    report.set("query.render_s", untraced[0].render_s);
    report.set("query.render_bytes", untraced[0].bytes as f64);

    let mut spans = Spans::new();
    let phases: Vec<TracedPhase> = PHASES
        .iter()
        .map(|&(_, kind, jobs)| {
            traced_engine(
                &mut spans,
                models,
                kind,
                &engine(jobs),
                None,
                StreamControl::default(),
            )
        })
        .collect();
    let traced_s: f64 = phases.iter().map(|p| p.engine_s + p.lattice_s).sum();
    for ((label, _, _), (phase, swept)) in PHASES.iter().zip(phases.iter().zip(&untraced)) {
        report.gate(
            phase.stats == swept.report.stats,
            format!("{label}: traced SweepStats differ from the untraced run"),
        );
        report.gate(
            verdict_digest(&phase.exploration) == reference("sweep90.verdicts"),
            format!("{label}: traced verdicts differ from the reference"),
        );
    }
    let one_job = &phases[1];
    report_phase(report, one_job);
    report.set(
        "axiomatic.shared_candidates",
        one_job.stats.batch.shared_candidates as f64,
    );
    report.set(
        "axiomatic.group_evals",
        one_job.stats.batch.group_evals as f64,
    );
    replay_layers(
        &mut spans,
        report,
        models,
        &one_job.exploration.tests,
        &one_job.stats,
    );
    let sat = &phases[2];
    report_checker(report, sat);
    report.set("sat.decisions", sat.stats.sat.decisions as f64);
    report.set("sat.propagations", sat.stats.sat.propagations as f64);
    report.set("sat.conflicts", sat.stats.sat.conflicts as f64);
    report.set("sat.learnt_clauses", sat.stats.sat.learnt_clauses as f64);
    report.set("trace.untraced_s", untraced_s);
    report.set("trace.traced_s", traced_s);
    report.set("trace.overhead_share", traced_s / untraced_s - 1.0);
    report.set("trace.unattributed_s", spans.unattributed());
}
