//! `synth_fig4`: CEGIS synthesis of the pairwise minimal-length matrix
//! over the 36 Figure-4 models (630 pairs), single-threaded. The SAT
//! solver and the CEGIS loop do nearly all the work; the sweep engine,
//! the store and the server are never entered, so this is the control
//! workload for engine changes.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};

use mcm_core::MemoryModel;
use mcm_query::{Format, ModelSpec, Query, Render};
use mcm_synth::{SynthBounds, Synthesizer};

use crate::util::{mean, quantile, reference, time, Digest, Report, Spans};
use crate::{Run, SetupProbes};

/// The Figure-4 models in their catalog order. Unlike the sweeps, the
/// CEGIS work depends on model order (which pairs fill the per-allower
/// memo first moves the candidate count by ~10%), so the seed does not
/// reorder them: this workload's input is the same for every seed.
fn models36() -> Vec<MemoryModel> {
    ModelSpec::Figure4
        .resolve()
        .expect("the Figure-4 space resolves")
}

/// Set-up of the synthesizer: `Synthesizer::new` over the 36 models.
pub fn setup_seconds() -> f64 {
    let models = models36();
    crate::sweep::repeated_setup(|| {
        black_box(Synthesizer::new(models.clone(), SynthBounds::default()).ok());
    })
}

/// Digest of the length matrix over name-sorted pairs, plus the number
/// of pairs indistinguishable within the bounds.
fn lengths_digest(names: &[String], lengths: &[Vec<Option<usize>>]) -> (String, usize) {
    let mut entries: Vec<(&str, &str, Option<usize>)> = Vec::new();
    for i in 0..names.len() {
        for j in (i + 1)..names.len() {
            let (a, b) = if names[i] <= names[j] { (i, j) } else { (j, i) };
            entries.push((&names[a], &names[b], lengths[i][j]));
        }
    }
    entries.sort();
    let mut digest = Digest::new();
    for (a, b, length) in &entries {
        digest
            .str(a)
            .str(b)
            .str(&length.map_or("-".to_string(), |l| l.to_string()));
    }
    let equivalent = entries.iter().filter(|e| e.2.is_none()).count();
    (digest.hex(), equivalent)
}

fn gate_lengths(
    report: &mut Report,
    label: &str,
    names: &[String],
    lengths: &[Vec<Option<usize>>],
) {
    let (digest, equivalent) = lengths_digest(names, lengths);
    report.gate(
        digest == reference("synth_fig4.lengths") && equivalent == 7 && names.len() == 36,
        format!("{label}: lengths digest {digest}, {equivalent} pairs equivalent within bounds"),
    );
}

/// Runs `work`, with set-up probes taken meanwhile from another thread
/// when `setup` is given: the matrix is one call that takes most of the
/// run, and it leaves the second core idle.
fn alongside<T>(setup: Option<&mut SetupProbes>, work: impl FnOnce() -> T) -> T {
    let Some(setup) = setup else {
        return work();
    };
    /// Stops the probing thread when `work` returns or panics, so the
    /// scope can join it either way.
    struct Done<'a>(&'a AtomicBool);
    impl Drop for Done<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                setup.tick();
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        });
        let _done = Done(&done);
        work()
    })
}

pub fn synth_fig4(run: &Run, report: &mut Report) {
    let models = models36();
    let mut walls = Vec::new();
    let mut last = None;
    let mut setup = (!run.trace).then(|| SetupProbes::new("synth_fig4", run));
    let started = std::time::Instant::now();
    while walls.is_empty()
        || (!run.trace
            && started.elapsed().as_secs_f64() * (walls.len() + 1) as f64 / walls.len() as f64
                <= run.seconds)
    {
        let query = Query::synth_matrix(ModelSpec::Models(models.clone()));
        let (synth, run_s) = alongside(setup.as_mut(), || {
            time(|| query.run().expect("the Figure-4 matrix synthesizes"))
        });
        let (json, render_s) = time(|| synth.render(Format::Json).expect("synth renders JSON"));
        black_box(json);
        let matrix = synth
            .matrix
            .as_ref()
            .expect("a matrix query reports a matrix");
        gate_lengths(report, "matrix", &matrix.names, &matrix.lengths);
        walls.push(run_s + render_s);
        last = Some((synth, run_s));
    }
    let (synth, untraced_s) = last.expect("at least one round ran");
    if run.trace {
        return traced(&models, &synth.stats, untraced_s, report);
    }
    let wall_s = mean(&walls);
    let pairs = models.len() * (models.len() - 1) / 2;
    let setup = setup.expect("an untraced run takes set-up probes");
    report.set("setup_s", setup.seconds());
    report.set("wall_s", wall_s);
    report.set("wall_1job_s", wall_s);
    report.set("wall_sat_s", wall_s);
    report.set("warm_s", wall_s);
    report.set("resume_s", wall_s);
    crate::sweep::set_batch_common(report, &walls, synth.stats.candidates, pairs as u64);
}

/// The same matrix through `Synthesizer::pair` in matrix order, each
/// pair timed.
fn traced(
    models: &[MemoryModel],
    untraced: &mcm_synth::SynthStats,
    untraced_s: f64,
    report: &mut Report,
) {
    let mut spans = Spans::new();
    let (synthesizer, new_s) = time(|| {
        spans.record("synth.new", || {
            Synthesizer::new(models.to_vec(), SynthBounds::default())
                .expect("the Figure-4 models synthesize")
        })
    });
    let mut synthesizer = synthesizer;
    let max_total = SynthBounds::default().max_total();
    let n = models.len();
    let mut lengths = vec![vec![None; n]; n];
    let mut pair_ms = Vec::new();
    let started = std::time::Instant::now();
    let pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect();
    for (i, j) in pairs {
        let (pair, seconds) =
            time(|| spans.record("synth.pair", || synthesizer.pair(i, j, max_total)));
        lengths[i][j] = pair.length;
        lengths[j][i] = pair.length;
        pair_ms.push(seconds * 1e3);
    }
    let traced_s = new_s + started.elapsed().as_secs_f64();
    let names: Vec<String> = models.iter().map(|m| m.name().to_string()).collect();
    gate_lengths(report, "traced pairs", &names, &lengths);
    let stats = synthesizer.stats();
    report.gate(
        stats == *untraced,
        "traced SynthStats differ from the untraced run",
    );
    report.set("synth.new_s", new_s);
    report.set("synth.pair_p50_ms", quantile(&pair_ms, 0.5));
    report.set("synth.pair_p98_ms", quantile(&pair_ms, 0.98));
    report.set("synth.pair_max_ms", quantile(&pair_ms, 1.0));
    report.set("synth.sat_queries", stats.sat_queries as f64);
    report.set("synth.candidates", stats.candidates as f64);
    report.set("synth.oracle_calls", stats.oracle_calls as f64);
    report.set(
        "synth.oracle_hit_ratio",
        stats.oracle_cache_hits as f64
            / (stats.oracle_cache_hits + stats.oracle_calls).max(1) as f64,
    );
    report.set("synth.shapes_exhausted", stats.shapes_exhausted as f64);
    report.set("sat.decisions", stats.solver.decisions as f64);
    report.set("sat.propagations", stats.solver.propagations as f64);
    report.set("sat.conflicts", stats.solver.conflicts as f64);
    report.set("sat.learnt_clauses", stats.solver.learnt_clauses as f64);
    report.set("trace.untraced_s", untraced_s);
    report.set("trace.traced_s", traced_s);
    report.set("trace.overhead_share", traced_s / untraced_s - 1.0);
    report.set("trace.unattributed_s", spans.unattributed());
}
