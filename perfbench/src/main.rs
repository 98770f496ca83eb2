//! The repository benchmark: four workloads driven in-process through
//! the library's public API, each printing its metrics as one JSON line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep90 --seed 1 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with the benchmark's
//! probes off; `--trace 1` runs the workload once untraced and once
//! through the probes and prints the per-layer metrics. See README.md.

mod probes;
mod serve;
mod store;
mod sweep;
mod synth;
mod util;

use util::Report;

/// Every end-to-end metric and its unit; each run prints all of them.
pub const END_TO_END: [(&str, &str); 14] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wall_1job_s", "s"),
    ("wall_sat_s", "s"),
    ("warm_s", "s"),
    ("resume_s", "s"),
    ("tests_per_s", "1/s"),
    ("pairs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("requests_per_s", "1/s"),
    ("sustained_rps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
];

/// Every per-layer metric and its unit; each traced run prints all of
/// them, with 0 for a layer the workload never enters.
pub const PER_LAYER: [(&str, &str); 76] = [
    ("gen.leaders", "count"),
    ("gen.leader_s", "s"),
    ("gen.fingerprint_s", "s"),
    ("core.execution_s", "s"),
    ("analyze.prefilter_build_s", "s"),
    ("analyze.group_rows_s", "s"),
    ("analyze.groups", "count"),
    ("analyze.saved_ratio", "ratio"),
    ("axiomatic.rows", "count"),
    ("axiomatic.models_checked", "count"),
    ("axiomatic.busy_s", "s"),
    ("axiomatic.row_p50_us", "us"),
    ("axiomatic.row_p99_us", "us"),
    ("axiomatic.shared_candidates", "count"),
    ("axiomatic.group_evals", "count"),
    ("sat.decisions", "count"),
    ("sat.propagations", "count"),
    ("sat.conflicts", "count"),
    ("sat.learnt_clauses", "count"),
    ("explore.engine_s", "s"),
    ("explore.self_s", "s"),
    ("explore.self_share", "ratio"),
    ("explore.checker_calls", "count"),
    ("explore.cache_hits_ram", "count"),
    ("explore.cache_hits_disk", "count"),
    ("explore.cache_misses", "count"),
    ("explore.cache_shard_contention", "count"),
    ("explore.lattice_s", "s"),
    ("explore.replay_s", "s"),
    ("synth.new_s", "s"),
    ("synth.pair_p50_ms", "ms"),
    ("synth.pair_p98_ms", "ms"),
    ("synth.pair_max_ms", "ms"),
    ("synth.sat_queries", "count"),
    ("synth.candidates", "count"),
    ("synth.oracle_calls", "count"),
    ("synth.oracle_hit_ratio", "ratio"),
    ("synth.shapes_exhausted", "count"),
    ("query.render_s", "s"),
    ("query.render_bytes", "bytes"),
    ("query.wire_parse_s", "s"),
    ("store.open_s", "s"),
    ("store.hydrated", "count"),
    ("store.appended", "count"),
    ("store.bytes", "bytes"),
    ("store.flushes", "count"),
    ("store.checkpoint_save_s", "s"),
    ("store.checkpoint_saves", "count"),
    ("store.checkpoint_bytes", "bytes"),
    ("store.checkpoint_load_s", "s"),
    ("serve.sent", "count"),
    ("serve.ok", "count"),
    ("serve.refused", "count"),
    ("serve.failed", "count"),
    ("serve.read.p50_ms", "ms"),
    ("serve.read.p99_ms", "ms"),
    ("serve.warm_sweep.p50_ms", "ms"),
    ("serve.warm_sweep.p99_ms", "ms"),
    ("serve.cold_sweep.p50_ms", "ms"),
    ("serve.cold_sweep.p99_ms", "ms"),
    ("serve.generator_lag_p99_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.rate1.failed_ratio", "ratio"),
    ("serve.rate2.failed_ratio", "ratio"),
    ("serve.rate3.failed_ratio", "ratio"),
    ("serve.rate1.p50_ms", "ms"),
    ("serve.rate2.p50_ms", "ms"),
    ("serve.rate3.p50_ms", "ms"),
    ("serve.rate1.p99_ms", "ms"),
    ("serve.rate2.p99_ms", "ms"),
    ("serve.rate3.p99_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.untraced_s", "s"),
    ("trace.traced_s", "s"),
];

pub const WORKLOADS: [&str; 4] = ["sweep90", "synth_fig4", "serve_mixed", "store_resume"];

/// What one workload run is asked to do.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<(String, Run), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; try {}",
            WORKLOADS.join("|")
        ));
    }
    let seed = value("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = value("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| *s > 0.0)
        .ok_or("--seconds needs a positive number")?;
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace needs 0 or 1, got `{other}`")),
    };
    Ok((
        workload,
        Run {
            seed,
            seconds,
            trace,
        },
    ))
}

/// The fewest set-up probes averaged into `setup_s`. Set-up takes well under
/// a millisecond, so one probe sees the machine as it is for a moment: on
/// the shared 2-vCPU host the benchmark was sized on, the same set-up ran
/// up to 1.5x slower for a few seconds at a time. Probes spread over the
/// whole run average that out, as the timed phases' rounds do.
const SETUP_PROBES: usize = 12;

/// `setup_s`: child processes (this executable, run with `--setup-probe`),
/// each printing its median set-up time, taken at points spread over the
/// run; the mean of their results. Separate processes, because one
/// process's set-up time also depends on its memory layout.
pub struct SetupProbes {
    workload: &'static str,
    seed: u64,
    every: std::time::Duration,
    last: Option<std::time::Instant>,
    samples: Vec<f64>,
}

impl SetupProbes {
    pub fn new(workload: &'static str, run: &Run) -> SetupProbes {
        SetupProbes {
            workload,
            seed: run.seed,
            every: std::time::Duration::from_secs_f64(run.seconds / SETUP_PROBES as f64),
            last: None,
            samples: Vec::new(),
        }
    }

    /// Takes a probe unless one was taken less than a `SETUP_PROBES`-th of
    /// the run ago. Called between timed units of work, never inside one.
    pub fn tick(&mut self) {
        if self.last.map_or(true, |last| last.elapsed() >= self.every) {
            self.take();
        }
    }

    fn take(&mut self) {
        let exe = std::env::current_exe().expect("the benchmark knows its own path");
        let out = std::process::Command::new(exe)
            .args(["--setup-probe", self.workload, &self.seed.to_string()])
            .output()
            .expect("run a set-up probe");
        assert!(
            out.status.success(),
            "the set-up probe of {} failed",
            self.workload
        );
        let seconds = String::from_utf8_lossy(&out.stdout)
            .trim()
            .parse::<f64>()
            .expect("a set-up probe prints its seconds");
        self.samples.push(seconds);
        self.last = Some(std::time::Instant::now());
    }

    /// The mean over every probe taken, topped up to `SETUP_PROBES`.
    pub fn seconds(mut self) -> f64 {
        while self.samples.len() < SETUP_PROBES {
            self.take();
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }
}

/// `--setup-probe WORKLOAD SEED`: print this process's median set-up time.
fn setup_probe(workload: &str, seed: u64) -> f64 {
    match workload {
        "sweep90" | "store_resume" => sweep::setup_seconds(seed),
        "synth_fig4" => synth::setup_seconds(),
        "serve_mixed" => serve::setup_seconds(),
        _ => unreachable!("only the benchmark's own workloads are probed"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if let [_, "--setup-probe", workload, seed] =
        args.iter().map(String::as_str).collect::<Vec<_>>()[..]
    {
        let seed = seed.parse().expect("the probe's seed is a number");
        println!("{}", setup_probe(workload, seed));
        return;
    }
    let (workload, run) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(2);
        }
    };
    let mut report = Report::new();
    match workload.as_str() {
        "sweep90" => sweep::sweep90(&run, &mut report),
        "synth_fig4" => synth::synth_fig4(&run, &mut report),
        "serve_mixed" => serve::serve_mixed(&run, &mut report),
        "store_resume" => store::store_resume(&run, &mut report),
        _ => unreachable!("workload names are validated"),
    }
    if run.trace {
        report.finish(&PER_LAYER, false);
    } else {
        report.finish(&END_TO_END, true);
    }
    report.print();
    if report.failed > 0 {
        std::process::exit(1);
    }
}
