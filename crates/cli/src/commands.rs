//! Subcommand implementations: a thin shell over [`mcm_query`].
//!
//! Each subcommand parses its flags into a [`Query`], runs it, and
//! renders the typed report through the global `--format text|json|csv|
//! dot` / `--out FILE` options. No model resolution, checker
//! construction or report formatting happens here — that all lives in
//! the query layer, where a server or a notebook can reach it too.

use std::fs;

use mcm_query::reports::FigureSelection;
use mcm_query::{
    CheckerKind, EngineConfig, Format, ModelSpec, Query, QueryError, Render, Shard, StreamBounds,
    SynthBounds, TestSource,
};
use mcm_serve::{Server, ServerConfig};

/// A subcommand failure, split along the exit-code contract: usage
/// errors (malformed request — exit 2) versus run failures (the request
/// was well-formed but executing it failed — exit 1).
pub enum CliError {
    /// The command line was malformed (exit 2).
    Usage(String),
    /// The run itself failed: unreadable file, parse error (exit 1).
    Run(String),
}

impl From<QueryError> for CliError {
    fn from(err: QueryError) -> CliError {
        if err.is_usage() {
            CliError::Usage(err.to_string())
        } else {
            CliError::Run(err.to_string())
        }
    }
}

fn usage(message: impl Into<String>) -> CliError {
    CliError::Usage(message.into())
}

/// The flags (valueless) and options (value-taking) one subcommand knows.
/// Every command validates its arguments against its spec up front, so an
/// unknown `--flag`, a misspelt option or an option with a missing value
/// is a proper error instead of being silently ignored.
struct ArgSpec {
    flags: &'static [&'static str],
    options: &'static [&'static str],
}

/// The output options every subcommand accepts.
const OUTPUT_OPTIONS: [&str; 2] = ["--format", "--out"];

impl ArgSpec {
    /// Rejects unknown `--` arguments and options without a value.
    fn validate(&self, args: &[String]) -> Result<(), CliError> {
        let known_option =
            |a: &str| self.options.contains(&a) || OUTPUT_OPTIONS.contains(&a);
        let mut i = 0;
        while i < args.len() {
            let a = args[i].as_str();
            if known_option(a) {
                match args.get(i + 1) {
                    Some(value) if !value.starts_with("--") => i += 2,
                    _ => return Err(usage(format!("{a} requires a value"))),
                }
            } else if self.flags.contains(&a) {
                i += 1;
            } else if a.starts_with("--") {
                return Err(usage(format!("unknown flag `{a}`; try `mcm help`")));
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    /// The non-flag arguments, with option values skipped.
    fn positional<'a>(&self, args: &'a [String]) -> Vec<&'a String> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if self.options.contains(&a.as_str()) || OUTPUT_OPTIONS.contains(&a.as_str()) {
                i += 2;
            } else if a.starts_with("--") {
                i += 1;
            } else {
                out.push(a);
                i += 1;
            }
        }
        out
    }
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn option_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Resolves the global `--format` option (default `text`).
fn output_format(args: &[String]) -> Result<Format, CliError> {
    match option_value(args, "--format") {
        None => Ok(Format::Text),
        Some(name) => Format::from_name(name).ok_or_else(|| {
            usage(format!("unknown format `{name}`; try text|json|csv|dot"))
        }),
    }
}

/// Renders `report` in the requested `--format` and delivers it: stdout
/// by default, the `--out` file when given.
fn emit(report: &dyn Render, args: &[String]) -> Result<(), CliError> {
    let rendered = report.render(output_format(args)?)?;
    let _span = mcm_obs::trace::span_with("cli.write", &[("bytes", &rendered.len().to_string())]);
    match option_value(args, "--out") {
        Some(path) => fs::write(path, &rendered)
            .map_err(|e| CliError::Run(format!("cannot write {path}: {e}"))),
        None => {
            print!("{rendered}");
            Ok(())
        }
    }
}

/// Parses the sweep-engine flags shared by `explore` and `distinguish`:
/// `--canonicalize`, `--cache`, `--jobs N`.
fn engine_options(args: &[String]) -> Result<(EngineConfig, bool), CliError> {
    let jobs = match option_value(args, "--jobs") {
        None => None,
        Some(n) => Some(
            n.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| usage(format!("--jobs needs a positive integer, got `{n}`")))?,
        ),
    };
    let config = EngineConfig {
        canonicalize: flag(args, "--canonicalize"),
        jobs,
        ..EngineConfig::default()
    };
    Ok((config, flag(args, "--cache")))
}

/// Resolves `--checker` to a [`CheckerKind`] (defaulting to the explicit
/// checker).
fn checker_kind_from(args: &[String]) -> Result<CheckerKind, CliError> {
    let name = option_value(args, "--checker").unwrap_or("explicit");
    CheckerKind::from_name(name).ok_or_else(|| {
        let known: Vec<&str> = CheckerKind::ALL.iter().map(|k| k.name()).collect();
        usage(format!(
            "unknown checker `{name}`; try one of {}",
            known.join("/")
        ))
    })
}

/// Resolves the model space shared by `explore` and `distinguish`:
/// `--models SPEC` (see [`mcm_query::resolve::model_set`]) wins;
/// otherwise the digit space honoring `--no-deps`. Returns the models
/// plus whether the comparison suite should include dependency idioms
/// (true iff some model can observe them).
fn models_from(args: &[String]) -> Result<(ModelSpec, bool), CliError> {
    match option_value(args, "--models") {
        Some(spec) => {
            if flag(args, "--no-deps") {
                return Err(usage("--no-deps conflicts with --models; name the set once"));
            }
            let models = mcm_query::resolve::model_set(spec)?;
            let with_deps = mcm_query::models_use_dependencies(&models);
            Ok((ModelSpec::Models(models), with_deps))
        }
        None => {
            let with_deps = !flag(args, "--no-deps");
            let spec = if with_deps {
                ModelSpec::Full90
            } else {
                ModelSpec::Figure4
            };
            Ok((spec, with_deps))
        }
    }
}

const SYNTH_SPEC: ArgSpec = ArgSpec {
    flags: &["--matrix", "--fences", "--deps", "--verbose"],
    options: &["--max-size", "--max-accesses", "--max-locs", "--models"],
};

/// Parses the synthesis bounds shared by both `synth` modes: the
/// streamed-enumeration box plus `--max-size`.
fn synth_bounds(args: &[String]) -> Result<(SynthBounds, usize), CliError> {
    let bounds = stream_bounds(args)?;
    let max_size = match option_value(args, "--max-size") {
        None => bounds.max_total(),
        Some(n) => n
            .parse::<usize>()
            .ok()
            .filter(|&n| (bounds.min_total()..=bounds.max_total()).contains(&n))
            .ok_or_else(|| {
                usage(format!(
                    "--max-size needs {}..={} for these bounds, got `{n}`",
                    bounds.min_total(),
                    bounds.max_total()
                ))
            })?,
    };
    Ok((bounds, max_size))
}

/// `mcm synth <MODEL> <MODEL> [--max-size N] [--max-accesses N]
/// [--max-locs N] [--fences] [--deps] [--verbose]`, or
/// `mcm synth --matrix [MODEL...]` for the full pairwise minimal-length
/// matrix (the Figure 4 space when no models are named).
pub fn synth(args: &[String]) -> Result<(), CliError> {
    SYNTH_SPEC.validate(args)?;
    let (bounds, max_size) = synth_bounds(args)?;
    let verbose = flag(args, "--verbose");
    let names = SYNTH_SPEC.positional(args);
    if flag(args, "--matrix") {
        let spec = synth_matrix_models(args, &names, &bounds)?;
        // Progress note on stderr: the full Figure-4 matrix takes ~20 s
        // and stdout must stay a clean document in non-text formats.
        eprintln!("synthesizing the pairwise minimal-length matrix ...");
        let report = Query::synth_matrix(spec)
            .bounds(bounds)
            .max_size(max_size)
            .verbose(verbose)
            .run()?;
        return emit(&report, args);
    }
    if option_value(args, "--models").is_some() {
        return Err(usage("--models requires --matrix"));
    }
    let [left, right] = names.as_slice() else {
        return Err(usage(
            "usage: mcm synth <MODEL> <MODEL> [--max-size N] [--max-accesses N] \
             [--max-locs N] [--fences] [--deps] [--verbose], or mcm synth --matrix",
        ));
    };
    let report = Query::synth(left.as_str(), right.as_str())
        .bounds(bounds)
        .max_size(max_size)
        .verbose(verbose)
        .run()?;
    emit(&report, args)
}

/// The model space of a `synth --matrix` request: positional names, a
/// `--models` spec, or the paper's digit space (dependency-free unless
/// `--deps` widens the search to idioms only the 90-model space can
/// observe).
fn synth_matrix_models(
    args: &[String],
    names: &[&String],
    bounds: &SynthBounds,
) -> Result<ModelSpec, CliError> {
    if !names.is_empty() && option_value(args, "--models").is_some() {
        return Err(usage("name models positionally or via --models, not both"));
    }
    if let Some(spec) = option_value(args, "--models") {
        Ok(ModelSpec::parse(spec))
    } else if names.is_empty() {
        Ok(if bounds.include_deps {
            ModelSpec::Full90
        } else {
            ModelSpec::Figure4
        })
    } else if names.len() == 1 {
        Err(usage("--matrix needs zero or at least two models"))
    } else {
        Ok(ModelSpec::List(
            names.iter().map(|n| n.to_string()).collect(),
        ))
    }
}

const CHECK_SPEC: ArgSpec = ArgSpec {
    flags: &["--witness"],
    options: &["--checker"],
};

/// `mcm check <MODEL> <FILE>`.
pub fn check(args: &[String]) -> Result<(), CliError> {
    CHECK_SPEC.validate(args)?;
    let pos = CHECK_SPEC.positional(args);
    let [model_name, path] = pos.as_slice() else {
        return Err(usage(
            "usage: mcm check <MODEL> <FILE> [--checker C] [--witness]",
        ));
    };
    let report = Query::check(model_name.as_str(), TestSource::File(path.into()))
        .checker(checker_kind_from(args)?)
        .witness(flag(args, "--witness"))
        .run()?;
    emit(&report, args)
}

const COMPARE_SPEC: ArgSpec = ArgSpec {
    flags: &["--no-deps"],
    options: &[],
};

/// `mcm compare <MODEL> <MODEL>`.
pub fn compare(args: &[String]) -> Result<(), CliError> {
    COMPARE_SPEC.validate(args)?;
    let pos = COMPARE_SPEC.positional(args);
    let [left, right] = pos.as_slice() else {
        return Err(usage("usage: mcm compare <MODEL> <MODEL> [--no-deps]"));
    };
    let report = Query::compare(left.as_str(), right.as_str())
        .with_deps(!flag(args, "--no-deps"))
        .run()?;
    emit(&report, args)
}

/// Parses the streamed-enumeration bounds: `--max-accesses N`,
/// `--max-locs N`, `--fences`, `--deps`.
fn stream_bounds(args: &[String]) -> Result<StreamBounds, CliError> {
    let mut bounds = StreamBounds::default();
    if let Some(n) = option_value(args, "--max-accesses") {
        bounds.max_accesses_per_thread = n
            .parse::<usize>()
            .ok()
            .filter(|&n| (1..=4).contains(&n))
            .ok_or_else(|| usage(format!("--max-accesses needs 1..=4, got `{n}`")))?;
    }
    if let Some(n) = option_value(args, "--max-locs") {
        bounds.max_locs = n
            .parse::<u8>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| usage(format!("--max-locs needs 1..=255, got `{n}`")))?;
    }
    bounds.include_fences = flag(args, "--fences");
    bounds.include_deps = flag(args, "--deps");
    Ok(bounds)
}

/// Writes the legacy `--csv FILE` / `--dot FILE` side outputs of
/// `explore`, which predate the global `--format`.
fn write_side_outputs(report: &mcm_query::SweepReport, args: &[String]) -> Result<(), CliError> {
    let announce = output_format(args)? == Format::Text;
    let write_artifact = |path: &str, content: String| -> Result<(), CliError> {
        fs::write(path, content)
            .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
        if announce {
            println!("wrote {path}");
        }
        Ok(())
    };
    // Rendered lazily: a plain `mcm explore` never builds these strings.
    if let Some(path) = option_value(args, "--csv") {
        write_artifact(path, report.csv().expect("sweep reports render csv"))?;
    }
    if let Some(path) = option_value(args, "--dot") {
        write_artifact(path, report.dot().expect("sweep reports render dot"))?;
    }
    Ok(())
}

/// `mcm explore --stream`: sweep the streamed leader enumeration instead
/// of the materialized template suite. The raw bounded space is never
/// stored — tests flow from the canonical-first iterator straight into
/// the chunked engine.
fn explore_stream(args: &[String]) -> Result<(), CliError> {
    let (config, use_cache) = engine_options(args)?;
    let bounds = stream_bounds(args)?;
    let limit = match option_value(args, "--limit") {
        None => None,
        Some(n) => Some(
            n.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| usage(format!("--limit needs a positive integer, got `{n}`")))?,
        ),
    };
    let shard = match option_value(args, "--shard") {
        None => None,
        Some(s) => Some(
            s.parse::<Shard>()
                .map_err(|e| usage(format!("--shard: {e}")))?,
        ),
    };
    let (models, _) = models_from(args)?;
    // Progress note on stderr: the sweep can run for seconds and stdout
    // must stay a clean document in non-text formats.
    eprintln!(
        "sweeping streamed leaders (<= {} accesses/thread, {} locs{}{}{}) ...",
        bounds.max_accesses_per_thread,
        bounds.max_locs,
        if bounds.include_fences { ", fences" } else { "" },
        if bounds.include_deps { ", deps" } else { "" },
        shard.map_or(String::new(), |s| format!(", shard {s}")),
    );
    let mut query = Query::sweep()
        .models(models)
        .tests(TestSource::Stream { bounds, limit, shard })
        .checker(checker_kind_from(args)?)
        .engine(config)
        .cache(use_cache);
    if let Some(path) = option_value(args, "--store") {
        query = query.store(path);
    }
    if let Some(path) = option_value(args, "--checkpoint") {
        query = query.checkpoint(path);
    }
    if let Some(path) = option_value(args, "--resume") {
        query = query.resume(path);
    }
    let report = query.run()?;
    emit(&report, args)?;
    write_side_outputs(&report, args)
}

const EXPLORE_SPEC: ArgSpec = ArgSpec {
    flags: &[
        "--no-deps",
        "--canonicalize",
        "--cache",
        "--stream",
        "--fences",
        "--deps",
    ],
    options: &[
        "--jobs",
        "--csv",
        "--dot",
        "--max-accesses",
        "--max-locs",
        "--limit",
        "--shard",
        "--store",
        "--checkpoint",
        "--resume",
        "--models",
        "--checker",
    ],
};

/// `mcm explore [--models figure4|90|named|LIST] [--checker C] [--no-deps]
/// [--canonicalize] [--cache] [--jobs N] [--csv FILE] [--dot FILE]
/// [--stream [--max-accesses N] [--max-locs N] [--fences] [--deps]
/// [--limit N] [--shard I/N] [--store FILE] [--checkpoint FILE]
/// [--resume FILE]]`.
pub fn explore(args: &[String]) -> Result<(), CliError> {
    EXPLORE_SPEC.validate(args)?;
    if flag(args, "--stream") {
        return explore_stream(args);
    }
    // Bound arguments configure the streamed enumeration only; accepting
    // them without --stream would silently ignore them.
    for stream_only in [
        "--max-accesses",
        "--max-locs",
        "--limit",
        "--fences",
        "--deps",
        "--shard",
        "--store",
        "--checkpoint",
        "--resume",
    ] {
        if args.iter().any(|a| a == stream_only) {
            return Err(usage(format!("{stream_only} requires --stream")));
        }
    }
    let (models, with_deps) = models_from(args)?;
    let (config, use_cache) = engine_options(args)?;
    // The warm re-sweep demo is only honest when the sweep covers the
    // full 90-model digit space — a custom `--models` list would leave
    // the Figure-4 subspace cold and the "for free" claim false.
    let full_digit_space = match option_value(args, "--models") {
        None => true,
        Some(spec) => matches!(spec.to_ascii_lowercase().as_str(), "90" | "full" | "all"),
    };
    let report = Query::sweep()
        .models(models)
        .tests(TestSource::TemplateSuite { with_deps })
        .checker(checker_kind_from(args)?)
        .engine(config)
        .cache(use_cache)
        .warm_figure4_demo(use_cache && full_digit_space)
        .run()?;
    emit(&report, args)?;
    write_side_outputs(&report, args)
}

const DISTINGUISH_SPEC: ArgSpec = ArgSpec {
    flags: &["--no-deps", "--canonicalize", "--cache"],
    options: &["--jobs", "--models", "--checker"],
};

/// `mcm distinguish [MODEL...] [--models figure4|90|named|LIST]
/// [--checker C] [--no-deps] [--canonicalize] [--cache] [--jobs N]`.
///
/// Computes a minimum distinguishing test set for the given models (two
/// or more, positionally or as a `--models` set), or for the whole digit
/// space when none are named — the paper's "nine tests" experiment as a
/// standalone command.
pub fn distinguish_cmd(args: &[String]) -> Result<(), CliError> {
    DISTINGUISH_SPEC.validate(args)?;
    let (config, use_cache) = engine_options(args)?;
    let names = DISTINGUISH_SPEC.positional(args);
    if !names.is_empty() && option_value(args, "--models").is_some() {
        return Err(usage("name models positionally or via --models, not both"));
    }
    let (models, with_deps) = if names.is_empty() {
        models_from(args)?
    } else if names.len() == 1 {
        return Err(usage("distinguish needs zero or at least two models"));
    } else {
        (
            ModelSpec::List(names.iter().map(|n| n.to_string()).collect()),
            !flag(args, "--no-deps"),
        )
    };
    let report = Query::distinguish()
        .models(models)
        .tests(TestSource::TemplateSuite { with_deps })
        .checker(checker_kind_from(args)?)
        .engine(config)
        .cache(use_cache)
        .run_distinguish()?;
    emit(&report, args)
}

const ANALYZE_SPEC: ArgSpec = ArgSpec {
    flags: &[],
    options: &["--models", "--tests"],
};

/// `mcm analyze [MODEL...] [--models figure4|90|named|LIST]
/// [--tests FILE]`.
///
/// Purely static: builds the semantic strength lattice over the model
/// set, reports every statically proven equivalent pair and minimized
/// formula, and lints models (and, with `--tests`, a litmus file) —
/// without executing a single litmus test.
pub fn analyze(args: &[String]) -> Result<(), CliError> {
    ANALYZE_SPEC.validate(args)?;
    let names = ANALYZE_SPEC.positional(args);
    if !names.is_empty() && option_value(args, "--models").is_some() {
        return Err(usage("name models positionally or via --models, not both"));
    }
    let models = if !names.is_empty() {
        ModelSpec::List(names.iter().map(|n| n.to_string()).collect())
    } else {
        match option_value(args, "--models") {
            Some(spec) => ModelSpec::parse(spec),
            None => ModelSpec::Full90,
        }
    };
    let mut query = Query::analyze().models(models);
    if let Some(path) = option_value(args, "--tests") {
        query = query.tests(TestSource::File(path.into()));
    }
    emit(&query.run()?, args)
}

const SUITE_SPEC: ArgSpec = ArgSpec {
    flags: &["--no-deps", "--print"],
    options: &[],
};

/// `mcm suite [--no-deps] [--print]`.
pub fn suite(args: &[String]) -> Result<(), CliError> {
    SUITE_SPEC.validate(args)?;
    let report = Query::suite(!flag(args, "--no-deps"))
        .full(flag(args, "--print"))
        .run();
    emit(&report, args)
}

/// `mcm catalog`.
pub fn catalog(args: &[String]) -> Result<(), CliError> {
    ArgSpec {
        flags: &[],
        options: &[],
    }
    .validate(args)?;
    emit(&Query::catalog(), args)
}

const PARSE_SPEC: ArgSpec = ArgSpec {
    flags: &[],
    options: &[],
};

/// `mcm parse <FILE>`.
pub fn parse(args: &[String]) -> Result<(), CliError> {
    PARSE_SPEC.validate(args)?;
    let pos = PARSE_SPEC.positional(args);
    let [path] = pos.as_slice() else {
        return Err(usage("usage: mcm parse <FILE>"));
    };
    let report = Query::parse_file(path.as_str())?;
    emit(&report, args)
}

const FIGURES_SPEC: ArgSpec = ArgSpec {
    flags: &[],
    options: &["--dot"],
};

/// `mcm figures <fig1|fig2|fig3|fig4|counts|all>`.
pub fn figures(args: &[String]) -> Result<(), CliError> {
    FIGURES_SPEC.validate(args)?;
    let which = FIGURES_SPEC
        .positional(args)
        .first()
        .map(|s| s.as_str())
        .unwrap_or("all")
        .to_string();
    let selection = FigureSelection::from_name(&which)
        .ok_or_else(|| usage(format!("unknown figure `{which}`")))?;
    let report = Query::figures(selection);
    emit(&report, args)?;
    // Figure 4's artifact is its DOT rendering; write it alongside the
    // text report (json consumers get the data inline instead).
    if let Some(fig4) = &report.fig4 {
        if output_format(args)? == Format::Text {
            let path = option_value(args, "--dot").unwrap_or("figure4.dot");
            fs::write(path, &fig4.dot)
                .map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))?;
            println!("  wrote {path}");
        }
    }
    Ok(())
}

const SERVE_SPEC: ArgSpec = ArgSpec {
    flags: &[],
    options: &[
        "--addr",
        "--workers",
        "--queue-depth",
        "--max-jobs",
        "--max-body-bytes",
        "--max-stream-tests",
        "--read-timeout-ms",
        "--store-dir",
    ],
};

fn serve_usize(args: &[String], name: &str, default: usize) -> Result<usize, CliError> {
    match option_value(args, name) {
        None => Ok(default),
        Some(n) => n
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| usage(format!("{name} needs a positive integer, got `{n}`"))),
    }
}

/// `mcm serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
/// [--max-jobs N] [--max-body-bytes N] [--max-stream-tests N]
/// [--read-timeout-ms N] [--store-dir DIR]`.
///
/// Runs until SIGTERM/SIGINT (or a fatal bind error), serving
/// `POST /query` wire-format documents plus `GET /healthz` and
/// `GET /statsz` — see `mcm_serve` for the request lifecycle.
pub fn serve(args: &[String]) -> Result<(), CliError> {
    SERVE_SPEC.validate(args)?;
    if !SERVE_SPEC.positional(args).is_empty() {
        return Err(usage("serve takes no positional arguments"));
    }
    let defaults = ServerConfig::default();
    let config = ServerConfig {
        addr: option_value(args, "--addr")
            .unwrap_or("127.0.0.1:8323")
            .to_string(),
        workers: serve_usize(args, "--workers", defaults.workers)?,
        queue_depth: serve_usize(args, "--queue-depth", defaults.queue_depth)?,
        max_jobs: serve_usize(args, "--max-jobs", defaults.max_jobs)?,
        max_body_bytes: serve_usize(args, "--max-body-bytes", defaults.max_body_bytes)?,
        max_stream_tests: serve_usize(args, "--max-stream-tests", defaults.max_stream_tests)?,
        read_timeout: std::time::Duration::from_millis(
            serve_usize(args, "--read-timeout-ms", 10_000)? as u64,
        ),
        store_dir: option_value(args, "--store-dir").map(Into::into),
        ..defaults
    };
    let addr = config.addr.clone();
    let server = Server::bind(config)
        .map_err(|e| CliError::Run(format!("cannot bind {addr}: {e}")))?;
    let handle = server.shutdown_handle();
    if mcm_serve::signal::install() {
        mcm_serve::signal::spawn_watcher(handle);
    }
    // Stderr, so stdout stays a clean report channel for tooling that
    // wraps the server.
    eprintln!("mcm serve: listening on http://{}", server.local_addr());
    eprintln!(
        "mcm serve: POST /query, GET /healthz, GET /statsz, GET /metricsz; \
         ctrl-c drains and exits"
    );
    server
        .run()
        .map_err(|e| CliError::Run(format!("serve failed: {e}")))?;
    eprintln!("mcm serve: drained and shut down");
    Ok(())
}
