//! `store_resume`: the `sweep90` stream through a durable verdict log, in
//! three phases — a cold run writing the log and a checkpoint after every
//! chunk, a warm run that opens the log afresh and answers from its disk
//! tier, and a resume from a seed-chosen mid-stream checkpoint. The only
//! workload that enters `mcm-store`.

use std::cell::{Cell, RefCell};
use std::path::{Path, PathBuf};

use mcm_axiomatic::CheckerKind;
use mcm_core::MemoryModel;
use mcm_explore::{EngineConfig, Exploration, StreamCheckpoint, StreamControl};
use mcm_gen::stream::{leaders, StreamBounds};
use mcm_store::{CheckpointFile, DiskCache, SweepMeta};

use crate::sweep::{
    models90, paper_pairs, replay_layers, report_checker, report_phase, run_query,
    set_batch_common, stream_query, traced_engine, verdict_digest, Swept,
};
use crate::util::{mean, reference, time, Report, Rng, Spans};
use crate::Run;

/// Chunks of 1024 leaders (36 in all), fine enough that the seed-chosen
/// resume point moves the resumed work by under 3% of the stream.
const CHUNK: usize = 1024;

fn config() -> EngineConfig {
    EngineConfig {
        stream_chunk: CHUNK,
        ..EngineConfig::default()
    }
}

fn meta() -> SweepMeta {
    SweepMeta {
        bounds: StreamBounds::default(),
        limit: None,
        shard: None,
        canonicalize: false,
        stream_chunk: CHUNK as u64,
    }
}

/// Files the workload writes, in a directory of its own inside the
/// checkout's ignored build directory; removed when the run ends.
struct WorkDir {
    dir: PathBuf,
}

impl WorkDir {
    fn new() -> WorkDir {
        let dir = PathBuf::from(".bench_build").join(format!("perfbench-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create the benchmark's work directory");
        WorkDir { dir }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Runs the stream until `chunks` chunks are done and returns the state
/// a killed `--checkpoint` run would have left on disk.
fn mid_checkpoint(models: &[MemoryModel], chunks: u64) -> StreamCheckpoint {
    let grabbed: RefCell<Option<StreamCheckpoint>> = RefCell::new(None);
    let _ = Exploration::run_engine_streaming_with(
        models.to_vec(),
        leaders(&StreamBounds::default()),
        || CheckerKind::Explicit.build_batch(),
        &config(),
        None,
        StreamControl {
            on_checkpoint: Some(Box::new(|state: &StreamCheckpoint| {
                if state.tests_streamed < chunks * CHUNK as u64 {
                    return true;
                }
                *grabbed.borrow_mut() = Some(state.clone());
                false
            })),
            resume: None,
        },
    )
    .expect("a cold sweep cannot fail to resume");
    grabbed
        .into_inner()
        .expect("the stream outlives the resume point")
}

struct Files {
    log: PathBuf,
    checkpoint: PathBuf,
    mid: PathBuf,
}

fn same_outcome(a: &Exploration, b: &Exploration) -> bool {
    a.tests.len() == b.tests.len()
        && a.tests
            .iter()
            .zip(&b.tests)
            .all(|(x, y)| x.name() == y.name())
        && a.verdicts == b.verdicts
}

/// One untraced round, each phase gated: cold, warm, resume; `between` is
/// called after each phase.
fn untraced_round(
    models: &[MemoryModel],
    paper: &[(String, String)],
    files: &Files,
    resumed_at: u64,
    report: &mut Report,
    between: &mut dyn FnMut(),
) -> [Swept; 3] {
    let _ = std::fs::remove_file(&files.log);
    let _ = std::fs::remove_file(&files.checkpoint);
    let cold = run_query(
        stream_query(models)
            .engine(config())
            .store(&files.log)
            .checkpoint(&files.checkpoint),
    );
    crate::sweep::gate_sweep(report, "cold", &cold.report, paper);
    let appended = cold.report.store.as_ref().map_or(0, |s| s.appended);
    let saves = cold.report.checkpoint.as_ref().map_or(0, |c| c.saves);
    report.gate(
        appended > 0
            && saves as usize == cold.report.stats.tests_streamed.div_ceil(CHUNK as u64) as usize,
        format!("cold: appended {appended} verdicts and saved {saves} checkpoints"),
    );
    between();

    let warm = run_query(stream_query(models).engine(config()).store(&files.log));
    let stats = warm.report.stats;
    report.gate(
        stats.checker_calls == 0
            && stats.cache_hits > 0
            && stats.cache_hits == stats.cache_hits_disk,
        format!(
            "warm: {} checker calls, {} hits of which {} from disk",
            stats.checker_calls, stats.cache_hits, stats.cache_hits_disk
        ),
    );
    report.gate(
        same_outcome(&cold.report.exploration, &warm.report.exploration),
        "warm: outcome differs from the cold run",
    );
    between();

    let resume = run_query(stream_query(models).engine(config()).resume(&files.mid));
    let at = resume.report.checkpoint.as_ref().and_then(|c| c.resumed_at);
    report.gate(
        at == Some(resumed_at)
            && same_outcome(&cold.report.exploration, &resume.report.exploration),
        format!("resume from {at:?}: outcome differs from the cold run"),
    );
    between();
    [cold, warm, resume]
}

pub fn store_resume(run: &Run, report: &mut Report) {
    let models = models90(run.seed);
    let paper = paper_pairs(&models);
    let work = WorkDir::new();
    let files = Files {
        log: work.path("verdicts.log"),
        checkpoint: work.path("sweep.ckpt"),
        mid: work.path("mid.ckpt"),
    };
    // The resume point: a seed-chosen chunk boundary near mid-stream.
    let chunks = 16 + Rng::new(run.seed).below(4);
    let mid = mid_checkpoint(&models, chunks);
    let resumed_at = mid.tests_streamed;
    CheckpointFile {
        meta: meta(),
        state: mid,
    }
    .save(&files.mid)
    .expect("write the mid-stream checkpoint");
    if run.trace {
        return traced(&models, &paper, &files, resumed_at, report);
    }

    let mut walls: [Vec<f64>; 3] = Default::default();
    let mut leaders_swept = 0;
    let mut pairs = 0;
    let mut setup = crate::SetupProbes::new("store_resume", run);
    let started = std::time::Instant::now();
    while walls[0].is_empty()
        || started.elapsed().as_secs_f64() * (walls[0].len() + 1) as f64 / walls[0].len() as f64
            <= run.seconds
    {
        let round = untraced_round(&models, &paper, &files, resumed_at, report, &mut || {
            setup.tick()
        });
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
    report.set("warm_s", mean(&walls[1]));
    report.set("resume_s", mean(&walls[2]));
    report.set("wall_1job_s", wall_s);
    report.set("wall_sat_s", wall_s);
    set_batch_common(report, &walls[0], leaders_swept, pairs);
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn traced(
    models: &[MemoryModel],
    paper: &[(String, String)],
    files: &Files,
    resumed_at: u64,
    report: &mut Report,
) {
    let untraced = untraced_round(models, paper, files, resumed_at, report, &mut || {});
    let untraced_s: f64 = untraced.iter().map(|s| s.run_s).sum();
    report.set("query.render_s", untraced[0].render_s);
    report.set("query.render_bytes", untraced[0].bytes as f64);

    let mut spans = Spans::new();
    let _ = std::fs::remove_file(&files.log);
    // Cold: a fresh log, and a checkpoint saved after every chunk by the
    // benchmark's own callback, which times each save.
    let save_s = Cell::new(0.0);
    let saves = Cell::new(0u64);
    let save_bytes = Cell::new(0u64);
    let disk = DiskCache::open(&files.log).expect("open a fresh verdict log");
    let cold = traced_engine(
        &mut spans,
        models,
        CheckerKind::Explicit,
        &config(),
        Some(disk.cache()),
        StreamControl {
            on_checkpoint: Some(Box::new(|state: &StreamCheckpoint| {
                let file = CheckpointFile {
                    meta: meta(),
                    state: state.clone(),
                };
                let (saved, seconds) = time(|| file.save(&files.checkpoint));
                saved.expect("save a checkpoint");
                save_s.set(save_s.get() + seconds);
                saves.set(saves.get() + 1);
                save_bytes.set(save_bytes.get() + file_len(&files.checkpoint));
                true
            })),
            resume: None,
        },
    );
    let store = disk.stats();
    drop(disk);
    let cold_wall = cold.engine_s + cold.lattice_s;

    // Warm: a fresh open of that log, timed, then the same sweep.
    let (disk, open_s) = time(|| {
        spans.record("store.open", || {
            DiskCache::open(&files.log).expect("reopen the verdict log")
        })
    });
    let hydrated = disk.stats().hydrated;
    let warm = traced_engine(
        &mut spans,
        models,
        CheckerKind::Explicit,
        &config(),
        Some(disk.cache()),
        StreamControl::default(),
    );
    let cache = disk.cache();
    let (hits_ram, hits_disk, misses, contention) = (
        cache.hits_ram(),
        cache.hits_disk(),
        cache.misses(),
        cache.shard_contention(),
    );
    drop(disk);

    // Resume: load the mid-stream checkpoint, timed, then continue.
    let (loaded, load_s) = time(|| {
        spans.record("store.checkpoint_load", || {
            CheckpointFile::load(&files.mid).expect("read the mid-stream checkpoint")
        })
    });
    let state = loaded.expect("the mid-stream checkpoint exists").state;
    let resume_start = std::time::Instant::now();
    let resume = traced_engine(
        &mut spans,
        models,
        CheckerKind::Explicit,
        &config(),
        None,
        StreamControl {
            on_checkpoint: None,
            resume: Some(state),
        },
    );
    let replay_s = resume.factory.probe.first_call.get().map_or(0.0, |first| {
        first.duration_since(resume_start).as_secs_f64()
    });
    let traced_s = cold_wall
        + open_s
        + warm.engine_s
        + warm.lattice_s
        + load_s
        + resume.engine_s
        + resume.lattice_s;

    for (label, phase, swept) in [
        ("cold", &cold, &untraced[0]),
        ("warm", &warm, &untraced[1]),
        ("resume", &resume, &untraced[2]),
    ] {
        report.gate(
            phase.stats == swept.report.stats,
            format!("{label}: traced SweepStats differ from the untraced run"),
        );
        report.gate(
            verdict_digest(&phase.exploration) == reference("sweep90.verdicts"),
            format!("{label}: traced verdicts differ from the reference"),
        );
    }

    let (_, fingerprint_s) = time(|| {
        spans.record("gen.fingerprint", || {
            cold.exploration
                .tests
                .iter()
                .map(mcm_gen::canon::fingerprint)
                .fold(0u64, u64::wrapping_add)
        })
    });
    report_phase(report, &cold);
    report_checker(report, &cold);
    report.set("gen.fingerprint_s", fingerprint_s);
    report.set(
        "axiomatic.shared_candidates",
        cold.stats.batch.shared_candidates as f64,
    );
    report.set("axiomatic.group_evals", cold.stats.batch.group_evals as f64);
    replay_layers(
        &mut spans,
        report,
        models,
        &cold.exploration.tests,
        &cold.stats,
    );
    report.set("explore.cache_hits_ram", hits_ram as f64);
    report.set("explore.cache_hits_disk", hits_disk as f64);
    report.set("explore.cache_misses", misses as f64);
    report.set("explore.cache_shard_contention", contention as f64);
    report.set("explore.replay_s", replay_s);
    report.set("store.open_s", open_s);
    report.set("store.hydrated", hydrated as f64);
    report.set("store.appended", store.appended as f64);
    report.set("store.bytes", store.bytes as f64);
    report.set("store.flushes", store.flushes as f64);
    report.set("store.checkpoint_save_s", save_s.get());
    report.set("store.checkpoint_saves", saves.get() as f64);
    report.set("store.checkpoint_bytes", save_bytes.get() as f64);
    report.set("store.checkpoint_load_s", load_s);
    report.set("trace.untraced_s", untraced_s);
    report.set("trace.traced_s", traced_s);
    report.set("trace.overhead_share", traced_s / untraced_s - 1.0);
    report.set("trace.unattributed_s", spans.unattributed());
}
