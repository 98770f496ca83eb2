//! `mcm` — compare memory consistency models with bounded litmus tests.
//!
//! The command-line face of the workspace, and a client of the wire
//! format (`mcm_query::wire`): every subcommand turns its flags into the
//! request document `mcm serve` would take, parses it the way the server
//! does, runs the query, and prints the typed report in the requested
//! `--format` (human text by default, schema-versioned JSON / CSV / DOT
//! on demand). See the `mcm_cli` library for the flag tables.
//!
//! Exit codes: `0` success, `1` run failure (unreadable file, parse
//! error), `2` usage error (unknown command, flag, model or format).

use std::process::ExitCode;

use mcm_cli::CliError;

const USAGE: &str = "\
mcm — compare memory consistency models with bounded litmus tests
(reproduction of Mador-Haim, Alur, Martin: \"Litmus Tests for Comparing
Memory Consistency Models: How Long Do They Need to Be?\", DAC 2011)

USAGE:
    mcm <COMMAND> [ARGS] [--format text|json|csv|dot] [--out FILE]
                         [--trace-out FILE]

COMMANDS:
    check <MODEL> <FILE>      verdict of every test in a .litmus file
                              [--checker explicit|sat] [--witness]
    compare <MODEL> <MODEL>   relation between two models over the
                              complete template suite [--no-deps]
    explore                   the §4.2 exploration of the digit space,
                              test-major batched: every model row is
                              answered per test over shared work
                              [--models figure4|90|named|M1,M2,...]
                              [--checker explicit|sat]
                              [--no-deps] [--cache] [--jobs N]
                              [--csv FILE] [--dot FILE]
                              [--stream] sweep the streamed leader
                              enumeration instead of the template suite,
                              never materializing the raw space:
                              [--max-accesses 1..4] [--max-locs N]
                              [--fences] [--deps] [--limit N]
                              [--shard I/N (sweep stripe I of N)]
                              [--store FILE (durable verdict log)]
                              [--checkpoint FILE (save resumable state
                              after every chunk)] [--resume FILE (pick a
                              killed sweep back up, bit-identically)]
                              (mcm explore --models 90 --stream is the
                              full 90-model dependency sweep)
    distinguish [MODEL...]    minimum distinguishing test set for the
                              given models (or the whole digit space)
                              [--models SPEC] [--checker C] [--no-deps]
                              [--cache] [--jobs N]
    analyze [MODEL...]        static semantic analysis — no litmus test
                              is ever executed: the strength lattice
                              over the model set, statically proven
                              equivalent pairs, minimized formulas, and
                              lints for redundant or degenerate formulas
                              (--format dot renders the lattice)
                              [--models SPEC] [--tests FILE (lint too)]
    synth <MODEL> <MODEL>     CEGIS-synthesize a minimal distinguishing
                              litmus test for the pair: the unknown test
                              becomes SAT variables, the axiomatic
                              checker is the refuting oracle
                              [--max-size N] [--max-accesses 1..4]
                              [--max-locs N] [--fences] [--deps]
                              [--verbose (solver stats)]
    synth --matrix [MODEL...] SAT-certified or statically proven
                              pairwise minimal-length matrix (Figure
                              4's 36 dependency-free models; --deps
                              switches to all 90; [--models SPEC]
                              picks any named set)
    suite                     generate the Theorem 1 template suite
                              [--no-deps] [--print]
    catalog                   print Test A, L1–L9 and the classic tests
    figures <WHICH>           regenerate paper artifacts:
                              fig1 | fig2 | fig3 | fig4 | counts | all
    parse <FILE>              validate and pretty-print a .litmus file
    serve                     long-lived HTTP query service: POST /query
                              takes any query as JSON (same reports as
                              the CLI), with one warm verdict cache
                              shared across requests, bounded-queue
                              backpressure (503 + Retry-After) and
                              graceful drain on SIGTERM/ctrl-c
                              [--addr HOST:PORT (default 127.0.0.1:8323)]
                              [--workers N] [--queue-depth N]
                              [--max-jobs N] [--max-body-bytes N]
                              [--max-stream-tests N] [--read-timeout-ms N]
                              [--store-dir DIR (verdict log surviving
                              restarts: a rebooted server answers seen
                              sweeps with zero checker calls)]
    help                      this message

OUTPUT:
    Every command but serve accepts --format text|json|csv|dot and
    --out FILE (a served request names its own format).
    JSON documents are schema-versioned and round-trip through the
    in-tree parser (mcm_core::json); csv renders verdict matrices and
    dot renders lattices, where the report has one.

OBSERVABILITY:
    Every command accepts --trace-out FILE: the run's engine, solver
    and serve phases are recorded as hierarchical spans and written as
    a Chrome trace_event JSON file — open it at chrome://tracing or
    https://ui.perfetto.dev. `mcm serve` additionally exposes
    GET /metricsz (Prometheus text: counters, gauges and latency
    histograms with estimated p50/p90/p99 series).

MODELS:
    SC, TSO, x86, PSO, IBM370, RMO, RMO-nodep, Alpha, or any digit model
    M{ww}{wr}{rw}{rr} (e.g. M4044) with digits 0=always reorder,
    1=different addresses, 2=no data deps, 3=both, 4=never.

EXIT CODES:
    0 success; 1 run failure (unreadable file, parse error);
    2 usage error (unknown command, flag, model or format).
";

/// Strips the global `--trace-out FILE` (or `--trace-out=FILE`) flag
/// from the argument list, wherever it appears — it is shared by every
/// subcommand, so the per-command parsers never see it.
fn take_trace_out(args: &mut Vec<String>) -> Result<Option<String>, CliError> {
    let mut found = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--trace-out" {
            // A value that looks like a flag is the next option, not a file.
            if args.get(i + 1).is_none_or(|value| value.starts_with("--")) {
                return Err(CliError::Usage(
                    "--trace-out needs a FILE argument".to_string(),
                ));
            }
            args.remove(i);
            found = Some(args.remove(i));
        } else if let Some(value) = args[i].strip_prefix("--trace-out=") {
            found = Some(value.to_string());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    Ok(found)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace_out = match take_trace_out(&mut args) {
        Ok(trace_out) => trace_out,
        Err(CliError::Usage(message)) | Err(CliError::Run(message)) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &trace_out {
        mcm_obs::trace::install(path.as_str());
    }
    let command = args.first().cloned();
    let result = {
        let _span = command
            .as_deref()
            .map(|c| mcm_obs::trace::span(&format!("cli.{c}")));
        dispatch(&args)
    };
    if trace_out.is_some() {
        if let Err(e) = mcm_obs::trace::finish() {
            eprintln!("error: could not write trace file: {e}");
            return ExitCode::from(1);
        }
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Run(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(1)
        }
        Err(CliError::Usage(message)) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(args: &[String]) -> Result<(), CliError> {
    match args.first().map(String::as_str) {
        Some("help" | "--help" | "-h") | None => {
            print!("{USAGE}");
            Ok(())
        }
        Some(command) => mcm_cli::run(command, &args[1..]),
    }
}
