//! The `mcm` subcommands, as a client of the wire format: each one turns
//! its arguments into the request document `mcm serve` takes and parses
//! it with [`WireRequest::from_json`], so both front ends share one query
//! parser. Each declares its options once, in a table read by validation,
//! the document builder and error messages. What the hermetic wire format
//! forbids (file sources, side outputs, `serve`'s flags) stays here, as
//! do two rules on default models; the `mcm_query::wire` docs list them.

mod args;

use std::fs;

use mcm_query::wire::{QuerySpec, WireRequest};
use mcm_query::{
    models_use_dependencies, Format, Json, ModelSpec, Query, QueryError, Render, SynthMode,
    TestSource,
};
use mcm_serve::{Server, ServerConfig};

use args::Takes::{Int, Text};
use args::To::{Cli, CliStream, Wire};
use args::{opt, Args, Opt, OFF, ON};

/// A subcommand failure, split along the exit-code contract: usage
/// errors (malformed request — exit 2) versus run failures (the request
/// was well-formed but executing it failed — exit 1).
#[derive(Debug)]
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

const EXPLORE: &[Opt] = &[
    opt("--models", Text, Wire("models")),
    opt("--checker", Text, Wire("checker")),
    opt("--no-deps", ON, Cli),
    opt("--cache", ON, Wire("cache")),
    opt("--jobs", Int, Wire("engine.jobs")),
    opt("--csv", Text, Cli),
    opt("--dot", Text, Cli),
    opt("--stream", ON, Cli),
    opt("--max-accesses", Int, Wire("tests.stream.max_accesses")),
    opt("--max-locs", Int, Wire("tests.stream.max_locs")),
    opt("--fences", ON, Wire("tests.stream.fences")),
    opt("--deps", ON, Wire("tests.stream.deps")),
    opt("--limit", Int, Wire("tests.stream.limit")),
    opt("--shard", Text, Wire("tests.stream.shard")),
    opt("--store", Text, CliStream),
    opt("--checkpoint", Text, CliStream),
    opt("--resume", Text, CliStream),
];

/// `distinguish` takes `explore`'s model and engine options: its first five.
const DISTINGUISH: &[Opt] = EXPLORE.split_at(5).0;

const ANALYZE: &[Opt] = &[
    opt("--models", Text, Wire("models")),
    opt("--tests", Text, Cli),
];

const SYNTH: &[Opt] = &[
    opt("--matrix", ON, Cli),
    opt("--models", Text, Wire("models")),
    opt("--max-size", Int, Wire("max_size")),
    opt("--max-accesses", Int, Wire("bounds.max_accesses")),
    opt("--max-locs", Int, Wire("bounds.max_locs")),
    opt("--fences", ON, Wire("bounds.fences")),
    opt("--deps", ON, Wire("bounds.deps")),
    opt("--verbose", ON, Wire("verbose")),
];

const CHECK: &[Opt] = &[
    opt("--checker", Text, Wire("checker")),
    opt("--witness", ON, Wire("witness")),
];

const COMPARE: &[Opt] = &[opt("--no-deps", OFF, Wire("with_deps"))];

const SUITE: &[Opt] = &[
    opt("--no-deps", OFF, Wire("with_deps")),
    opt("--print", ON, Wire("full")),
];

const FIGURES: &[Opt] = &[opt("--dot", Text, Cli)];

const SERVE: &[Opt] = &[
    opt("--addr", Text, Cli),
    opt("--workers", Int, Cli),
    opt("--queue-depth", Int, Cli),
    opt("--max-jobs", Int, Cli),
    opt("--max-body-bytes", Int, Cli),
    opt("--max-stream-tests", Int, Cli),
    opt("--read-timeout-ms", Int, Cli),
    opt("--store-dir", Text, Cli),
];

/// The wire request a subcommand's arguments (those after its name)
/// stand for, with any file source or streamed-sweep output set on its
/// builder. `parse` and `serve` have no wire request.
///
/// # Errors
///
/// [`CliError::Usage`] for an unknown command or flag, a missing value, a
/// broken CLI rule, or a request the wire format rejects; a value error
/// names the flag typed.
pub fn request(command: &str, args: &[String]) -> Result<WireRequest, CliError> {
    invocation(command, args).map(|(request, _)| request)
}

/// A request builder: checked arguments → wire request.
type Build = fn(&Args) -> Result<WireRequest, CliError>;

fn invocation<'a>(command: &str, args: &'a [String]) -> Result<(WireRequest, Args<'a>), CliError> {
    let (table, build): (&'static [Opt], Build) = match command {
        "explore" => (EXPLORE, explore),
        "distinguish" => (DISTINGUISH, distinguish),
        "analyze" => (ANALYZE, analyze),
        "synth" => (SYNTH, synth),
        "check" => (CHECK, check),
        "compare" => (COMPARE, compare),
        "suite" => (SUITE, |args| {
            args.positional_at_most(0)?;
            args.request("suite", Vec::new())
        }),
        "catalog" => (&[], |args| {
            args.positional_at_most(0)?;
            args.request("catalog", Vec::new())
        }),
        "figures" => (FIGURES, figures),
        other => return Err(usage(format!("unknown command `{other}`; try `mcm help`"))),
    };
    let args = Args::new(table, args)?;
    Ok((build(&args)?, args))
}

/// Runs one subcommand; `args` are those after its name.
///
/// # Errors
///
/// As [`request`], plus whatever the run reports.
pub fn run(command: &str, args: &[String]) -> Result<(), CliError> {
    match command {
        "parse" => return parse(args),
        "serve" => return serve(args),
        _ => {}
    }
    let (request, args) = invocation(command, args)?;
    // Progress notes on stderr: these runs take seconds, and stdout must
    // stay a clean document in non-text formats.
    match &request.spec {
        QuerySpec::Sweep(query) => {
            if let TestSource::Stream { bounds, shard, .. } = &query.source {
                let fences = if bounds.include_fences {
                    ", fences"
                } else {
                    ""
                };
                let deps = if bounds.include_deps { ", deps" } else { "" };
                let shard = shard.map_or(String::new(), |s| format!(", shard {s}"));
                eprintln!(
                    "sweeping streamed leaders (<= {} accesses/thread, {} locs{fences}{deps}{shard}) ...",
                    bounds.max_accesses_per_thread, bounds.max_locs,
                );
            }
        }
        QuerySpec::Synth(query) if matches!(query.mode, SynthMode::Matrix(_)) => {
            eprintln!("synthesizing the pairwise minimal-length matrix ...");
        }
        _ => {}
    }
    let report = request.spec.run(None)?.report;
    emit(&*report, request.format, &args)?;
    let text = request.format == Format::Text;
    let write = |path: &str, content: String| {
        fs::write(path, content).map_err(|e| CliError::Run(format!("cannot write {path}: {e}")))
    };
    match command {
        // The `--csv`/`--dot` side outputs predate `--format`; rendered
        // lazily, so a plain `mcm explore` never builds them.
        "explore" => {
            for (flag, view) in [("--csv", Format::Csv), ("--dot", Format::Dot)] {
                if let Some(path) = args.value(flag) {
                    write(path, report.render(view)?)?;
                    if text {
                        println!("wrote {path}");
                    }
                }
            }
        }
        // Figure 4's artifact is its DOT rendering, written alongside the
        // text report (json consumers get it inline instead).
        "figures" => {
            if let Some(dot) = report.dot().filter(|_| text) {
                let path = args.value("--dot").unwrap_or("figure4.dot");
                write(path, dot)?;
                println!("  wrote {path}");
            }
        }
        _ => {}
    }
    Ok(())
}

/// Renders `report` in `format` and delivers it: stdout by default, the
/// `--out` file when given.
fn emit(report: &dyn Render, format: Format, args: &Args) -> Result<(), CliError> {
    let rendered = report.render(format)?;
    let _span = mcm_obs::trace::span_with("cli.write", &[("bytes", &rendered.len().to_string())]);
    match args.value("--out") {
        Some(path) => fs::write(path, &rendered)
            .map_err(|e| CliError::Run(format!("cannot write {path}: {e}"))),
        None => {
            print!("{rendered}");
            Ok(())
        }
    }
}

/// The model space of `explore`, and of `distinguish` without named
/// models: `--models SPEC`, else all 90 models (Figure 4's 36 under
/// `--no-deps`); plus whether the template suite includes the dependency
/// idioms (iff some model can observe them).
fn model_space(args: &Args) -> Result<(String, bool), CliError> {
    match args.value("--models") {
        Some(_) if args.has("--no-deps") => Err(usage(
            "--no-deps conflicts with --models; name the set once",
        )),
        Some(spec) => {
            let with_deps = models_use_dependencies(&ModelSpec::parse(spec).resolve()?);
            Ok((spec.to_string(), with_deps))
        }
        None if args.has("--no-deps") => Ok(("figure4".to_string(), false)),
        None => Ok(("90".to_string(), true)),
    }
}

/// The models named positionally, as a wire name list.
fn named_models(args: &Args) -> Result<Option<Json>, CliError> {
    let names = args.positional();
    if names.is_empty() {
        return Ok(None);
    }
    if args.has("--models") {
        return Err(usage("name models positionally or via --models, not both"));
    }
    Ok(Some(Json::array_of(names, |&name| Json::from(name))))
}

/// `mcm explore`: a `sweep` over the template suite, or over the streamed
/// leader enumeration with `--stream`.
fn explore(args: &Args) -> Result<WireRequest, CliError> {
    args.positional_at_most(0)?;
    let stream = args.has("--stream");
    if !stream {
        // Accepting a stream-only option without --stream would silently
        // ignore it.
        if let Some(flag) = args.stream_only() {
            return Err(usage(format!("{flag} requires --stream")));
        }
    }
    let (models, with_deps) = model_space(args)?;
    let tests = if stream {
        ("tests.stream", Json::Object(Vec::new()))
    } else {
        ("tests.template_suite.with_deps", Json::Bool(with_deps))
    };
    // The warm re-sweep demo is only honest after a sweep of the full
    // 90-model space: anything smaller leaves the Figure-4 subspace cold.
    let warm = args.has("--cache") && matches!(ModelSpec::parse(&models), ModelSpec::Full90);
    let mut request = args.request(
        "sweep",
        vec![
            ("models", Json::from(models)),
            tests,
            ("warm_figure4_demo", Json::Bool(warm)),
        ],
    )?;
    if let QuerySpec::Sweep(query) = &mut request.spec {
        query.store = args.value("--store").map(Into::into);
        query.checkpoint = args.value("--checkpoint").map(Into::into);
        query.resume = args.value("--resume").map(Into::into);
    }
    Ok(request)
}

/// `mcm distinguish [MODEL...]`: the minimum distinguishing test set of
/// the named models, a `--models` set, or the whole digit space.
fn distinguish(args: &Args) -> Result<WireRequest, CliError> {
    let (models, with_deps) = match named_models(args)? {
        Some(names) => (names, !args.has("--no-deps")),
        None => {
            let (spec, with_deps) = model_space(args)?;
            (Json::from(spec), with_deps)
        }
    };
    args.request(
        "distinguish",
        vec![("models", models), ("with_deps", Json::Bool(with_deps))],
    )
}

/// `mcm analyze [MODEL...]`: purely static, no litmus test executed.
fn analyze(args: &Args) -> Result<WireRequest, CliError> {
    let models = named_models(args)?.unwrap_or_else(|| Json::from("90"));
    let mut request = args.request("analyze", vec![("models", models)])?;
    if let (QuerySpec::Analyze(query), Some(path)) = (&mut request.spec, args.value("--tests")) {
        query.tests = Some(TestSource::File(path.into()));
    }
    Ok(request)
}

/// `mcm synth <MODEL> <MODEL>`, or `mcm synth --matrix [MODEL...]` for
/// the pairwise minimal-length matrix.
fn synth(args: &Args) -> Result<WireRequest, CliError> {
    if args.has("--matrix") {
        let space = if args.has("--deps") { "90" } else { "figure4" };
        let models = named_models(args)?.unwrap_or_else(|| Json::from(space));
        return args.request("synth_matrix", vec![("models", models)]);
    }
    if args.has("--models") {
        return Err(usage("--models requires --matrix"));
    }
    let [left, right] = args.positional() else {
        return Err(usage(
            "usage: mcm synth <MODEL> <MODEL> [--max-size N] [--max-accesses N] \
             [--max-locs N] [--fences] [--deps] [--verbose], or mcm synth --matrix",
        ));
    };
    args.request(
        "synth",
        vec![("left", Json::from(*left)), ("right", Json::from(*right))],
    )
}

/// `mcm check <MODEL> <FILE>`.
fn check(args: &Args) -> Result<WireRequest, CliError> {
    let [model, path] = args.positional() else {
        return Err(usage(
            "usage: mcm check <MODEL> <FILE> [--checker C] [--witness]",
        ));
    };
    // The wire has no file source: the catalog stands in until the parsed
    // builder takes the file, before anything runs.
    let mut request = args.request(
        "check",
        vec![
            ("model", Json::from(*model)),
            ("tests", Json::from("catalog")),
        ],
    )?;
    if let QuerySpec::Check(query) = &mut request.spec {
        query.source = TestSource::File(path.into());
    }
    Ok(request)
}

/// `mcm compare <MODEL> <MODEL>`.
fn compare(args: &Args) -> Result<WireRequest, CliError> {
    let [left, right] = args.positional() else {
        return Err(usage("usage: mcm compare <MODEL> <MODEL> [--no-deps]"));
    };
    args.request(
        "compare",
        vec![("left", Json::from(*left)), ("right", Json::from(*right))],
    )
}

/// `mcm figures <fig1|fig2|fig3|fig4|counts|all>`.
fn figures(args: &Args) -> Result<WireRequest, CliError> {
    let which = args.positional_at_most(1)?.first().map_or("all", |w| *w);
    args.request("figures", vec![("which", Json::from(which))])
}

/// `mcm parse <FILE>`: file-backed, so it has no wire request.
fn parse(args: &[String]) -> Result<(), CliError> {
    let args = Args::new(&[], args)?;
    let [path] = args.positional() else {
        return Err(usage("usage: mcm parse <FILE>"));
    };
    let report = Query::parse_file(*path)?;
    emit(
        &report,
        args.value("--format").unwrap_or("text").parse()?,
        &args,
    )
}

/// `mcm serve [--addr HOST:PORT] [--workers N] [--queue-depth N]
/// [--max-jobs N] [--max-body-bytes N] [--max-stream-tests N]
/// [--read-timeout-ms N] [--store-dir DIR]`.
///
/// Runs until SIGTERM/SIGINT (or a fatal bind error), serving
/// `POST /query` wire-format documents plus `GET /healthz` and
/// `GET /statsz` — see `mcm_serve` for the request lifecycle.
fn serve(args: &[String]) -> Result<(), CliError> {
    let args = Args::new(SERVE, args)?;
    if !args.positional().is_empty() {
        return Err(usage("serve takes no positional arguments"));
    }
    // Each request names its own format; the server writes no file.
    if let Some(flag) = ["--format", "--out"].into_iter().find(|&f| args.has(f)) {
        return Err(usage(format!("serve does not take {flag}")));
    }
    let number = |name: &str, default: usize| match args.value(name) {
        None => Ok(default),
        Some(n) => n
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| usage(format!("{name} needs a positive integer, got `{n}`"))),
    };
    let defaults = ServerConfig::default();
    let read_timeout_ms = number(
        "--read-timeout-ms",
        defaults.read_timeout.as_millis() as usize,
    )?;
    let config = ServerConfig {
        addr: args.value("--addr").unwrap_or("127.0.0.1:8323").to_string(),
        workers: number("--workers", defaults.workers)?,
        queue_depth: number("--queue-depth", defaults.queue_depth)?,
        max_jobs: number("--max-jobs", defaults.max_jobs)?,
        max_body_bytes: number("--max-body-bytes", defaults.max_body_bytes)?,
        max_stream_tests: number("--max-stream-tests", defaults.max_stream_tests)?,
        read_timeout: std::time::Duration::from_millis(read_timeout_ms as u64),
        store_dir: args.value("--store-dir").map(Into::into),
        ..defaults
    };
    let addr = config.addr.clone();
    let server =
        Server::bind(config).map_err(|e| CliError::Run(format!("cannot bind {addr}: {e}")))?;
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
