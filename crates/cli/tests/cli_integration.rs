//! End-to-end tests of the `mcm` binary.

use std::process::Command;

fn mcm(args: &[&str]) -> (bool, String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_mcm"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
    )
}

#[test]
fn help_prints_usage() {
    let (ok, stdout, _) = mcm(&["help"]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
    assert!(stdout.contains("compare"));
}

#[test]
fn no_args_prints_usage() {
    let (ok, stdout, _) = mcm(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn unknown_command_fails() {
    let (ok, _, stderr) = mcm(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn compare_tso_with_its_digit_model() {
    let (ok, stdout, _) = mcm(&["compare", "TSO", "M4044"]);
    assert!(ok);
    assert!(stdout.contains("equivalent"));
}

#[test]
fn compare_tso_ibm370_lists_witnesses() {
    let (ok, stdout, _) = mcm(&["compare", "TSO", "IBM370"]);
    assert!(ok);
    assert!(stdout.contains("strictly weaker"));
    assert!(stdout.contains("L8") || stdout.contains("TestA"));
}

#[test]
fn compare_rejects_unknown_models() {
    let (ok, _, stderr) = mcm(&["compare", "TSO", "powerpc"]);
    assert!(!ok);
    assert!(stderr.contains("unknown model"));
}

#[test]
fn check_reads_a_litmus_file() {
    let dir = std::env::temp_dir().join("mcm-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sb.litmus");
    std::fs::write(
        &path,
        "test SB {\n thread { write X = 1; read Y -> r1 }\n thread { write Y = 1; read X -> r2 }\n outcome { T1:r1 = 0; T2:r2 = 0 }\n}\n",
    )
    .unwrap();
    let path = path.to_str().unwrap();
    let (ok, stdout, _) = mcm(&["check", "TSO", path]);
    assert!(ok);
    assert!(stdout.contains("SB: allowed under TSO"));
    let (ok, stdout, _) = mcm(&["check", "SC", path, "--witness"]);
    assert!(ok);
    assert!(stdout.contains("SB: forbidden under SC"));
    assert!(stdout.contains("FORBIDDEN"));
    let (ok, stdout, _) = mcm(&["check", "TSO", path, "--checker", "sat"]);
    assert!(ok);
    assert!(stdout.contains("allowed"));
}

#[test]
fn suite_reports_corollary1_bounds() {
    let (ok, stdout, _) = mcm(&["suite", "--no-deps"]);
    assert!(ok);
    assert!(stdout.contains("Corollary 1 bound = 124"));
    let (ok, stdout, _) = mcm(&["suite"]);
    assert!(ok);
    assert!(stdout.contains("Corollary 1 bound = 230"));
}

#[test]
fn figures_counts_reports_paper_numbers() {
    let (ok, stdout, _) = mcm(&["figures", "counts"]);
    assert!(ok);
    assert!(stdout.contains("230 tests"));
    assert!(stdout.contains("124 tests"));
}

#[test]
fn figures_fig3_prints_all_nine() {
    let (ok, stdout, _) = mcm(&["figures", "fig3"]);
    assert!(ok);
    for name in ["L1", "L2", "L3", "L4", "L5", "L6", "L7", "L8", "L9"] {
        assert!(stdout.contains(&format!("Test {name}")), "missing {name}");
    }
}

#[test]
fn explore_nodep_writes_dot() {
    let dir = std::env::temp_dir().join("mcm-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let dot_path = dir.join("fig4.dot");
    let dot = dot_path.to_str().unwrap();
    let (ok, stdout, _) = mcm(&["explore", "--no-deps", "--dot", dot]);
    assert!(ok);
    assert!(stdout.contains("explored 36 models"));
    assert!(stdout.contains("equivalence classes: 30"));
    assert!(stdout.contains("equivalent pairs: 6"));
    let written = std::fs::read_to_string(&dot_path).unwrap();
    assert!(written.starts_with("digraph"));
}

#[test]
fn explore_stream_sweeps_tiny_bounds() {
    let (ok, stdout, _) = mcm(&[
        "explore",
        "--stream",
        "--max-accesses",
        "2",
        "--max-locs",
        "2",
    ]);
    assert!(ok);
    assert!(stdout.contains("never materialized"), "{stdout}");
    assert!(stdout.contains("streamed 276 tests"), "{stdout}");
    assert!(stdout.contains("lattice:"), "{stdout}");
}

#[test]
fn explore_stream_honours_fences_deps_and_limit() {
    let (ok, stdout, _) = mcm(&[
        "explore", "--stream", "--max-accesses", "2", "--max-locs", "2", "--fences", "--deps",
        "--limit", "100",
    ]);
    assert!(ok);
    assert!(stdout.contains("fences, deps"), "{stdout}");
    assert!(stdout.contains("streamed 100 tests"), "{stdout}");
}

#[test]
fn explore_stream_rejects_bad_bounds() {
    let (ok, _, stderr) = mcm(&["explore", "--stream", "--max-accesses", "9"]);
    assert!(!ok);
    assert!(stderr.contains("--max-accesses"), "{stderr}");
    let (ok, _, stderr) = mcm(&["explore", "--stream", "--limit", "zero"]);
    assert!(!ok);
    assert!(stderr.contains("--limit"), "{stderr}");
}

#[test]
fn synth_finds_store_buffering_for_sc_vs_tso() {
    let (ok, stdout, _) = mcm(&["synth", "SC", "TSO", "--verbose"]);
    assert!(ok);
    assert!(
        stdout.contains("minimal distinguishing length for SC vs TSO: 4 accesses"),
        "{stdout}"
    );
    assert!(stdout.contains("allowed by TSO, forbidden by SC"), "{stdout}");
    assert!(stdout.contains("Outcome:"), "{stdout}");
    assert!(stdout.contains("solver:"), "--verbose must print solver stats: {stdout}");
}

#[test]
fn synth_certifies_equivalence_within_bounds() {
    // M1041 and M1044 (PSO) differ only on longer tests, and no theorem
    // relates them: the search exhausts every shape.
    let (ok, stdout, _) = mcm(&[
        "synth", "M1041", "M1044", "--max-accesses", "2", "--max-locs", "2",
    ]);
    assert!(ok);
    assert!(stdout.contains("indistinguishable"), "{stdout}");
    assert!(stdout.contains("UNSAT-certified"), "{stdout}");
}

#[test]
fn synth_proves_equivalence_statically() {
    let (ok, stdout, _) = mcm(&[
        "synth", "TSO", "x86", "--max-accesses", "2", "--max-locs", "2",
    ]);
    assert!(ok);
    assert!(stdout.contains("indistinguishable by any test"), "{stdout}");
    assert!(stdout.contains("statically proven: pointwise"), "{stdout}");
    assert!(stdout.contains("cegis: 0 SAT queries"), "{stdout}");
}

#[test]
fn synth_matrix_reports_lengths_and_legend() {
    let (ok, stdout, _) = mcm(&[
        "synth", "--matrix", "SC", "TSO", "PSO", "--max-accesses", "2",
    ]);
    assert!(ok);
    assert!(stdout.contains("pairwise minimal distinguishing length"), "{stdout}");
    assert!(stdout.contains("0 = SC"), "{stdout}");
    assert!(stdout.contains("pairs at length 4"), "{stdout}");
    assert!(stdout.contains("pair sources: 3 cegis"), "{stdout}");
    assert!(stdout.contains("cegis:"), "{stdout}");
}

#[test]
fn synth_rejects_bad_arguments() {
    let (ok, _, stderr) = mcm(&["synth", "SC", "powerpc"]);
    assert!(!ok);
    assert!(stderr.contains("unknown model"), "{stderr}");
    let (ok, _, stderr) = mcm(&["synth", "SC", "TSO", "--max-size", "99"]);
    assert!(!ok);
    assert!(stderr.contains("--max-size"), "{stderr}");
    let (ok, _, stderr) = mcm(&["synth", "SC", "TSO", "--max-accesses", "9"]);
    assert!(!ok);
    assert!(stderr.contains("--max-accesses"), "{stderr}");
    let (ok, _, stderr) = mcm(&["synth", "SC"]);
    assert!(!ok);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn unknown_flags_are_rejected_not_ignored() {
    for args in [
        &["explore", "--streem"][..],
        &["compare", "TSO", "SC", "--nodeps"][..],
        &["synth", "SC", "TSO", "--fancy"][..],
        &["suite", "--deps"][..],
        &["catalog", "--verbose"][..],
    ] {
        let (ok, _, stderr) = mcm(args);
        assert!(!ok, "{args:?} must fail");
        assert!(stderr.contains("unknown flag"), "{args:?}: {stderr}");
    }
}

#[test]
fn options_without_values_are_rejected() {
    let (ok, _, stderr) = mcm(&["explore", "--stream", "--limit"]);
    assert!(!ok);
    assert!(stderr.contains("--limit requires a value"), "{stderr}");
    let (ok, _, stderr) = mcm(&["explore", "--jobs", "--stream"]);
    assert!(!ok);
    assert!(stderr.contains("--jobs requires a value"), "{stderr}");
    let (ok, _, stderr) = mcm(&["synth", "SC", "TSO", "--max-locs"]);
    assert!(!ok);
    assert!(stderr.contains("--max-locs requires a value"), "{stderr}");
}

#[test]
fn stream_only_bounds_require_stream() {
    for option in [
        "--limit",
        "--max-accesses",
        "--max-locs",
        "--shard",
        "--store",
        "--checkpoint",
        "--resume",
    ] {
        let (ok, _, stderr) = mcm(&["explore", option, "2"]);
        assert!(!ok, "{option} without --stream must fail");
        assert!(stderr.contains("requires --stream"), "{option}: {stderr}");
    }
    let (ok, _, stderr) = mcm(&["explore", "--fences"]);
    assert!(!ok);
    assert!(stderr.contains("requires --stream"), "{stderr}");
}

#[test]
fn zero_valued_limits_are_rejected_not_clamped() {
    let (ok, _, stderr) = mcm(&["explore", "--stream", "--limit", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--limit"), "{stderr}");
    let (ok, _, stderr) = mcm(&["explore", "--jobs", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--jobs"), "{stderr}");
    let (ok, _, stderr) = mcm(&["explore", "--stream", "--max-locs", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--max-locs"), "{stderr}");
}

#[test]
fn explore_accepts_model_set_specs() {
    let (ok, stdout, _) = mcm(&["explore", "--models", "named"]);
    assert!(ok);
    assert!(stdout.contains("explored 8 models"), "{stdout}");
    assert!(stdout.contains("sweep batching"), "{stdout}");
    let (ok, stdout, _) = mcm(&["explore", "--models", "SC,TSO,IBM370"]);
    assert!(ok);
    assert!(stdout.contains("explored 3 models"), "{stdout}");
}

#[test]
fn explore_models_90_streams_the_dependency_space() {
    // The headline sweep, truncated so CI stays fast: the full §4.2
    // space of 90 dependency-discriminating models over streamed leaders.
    let (ok, stdout, _) = mcm(&[
        "explore", "--models", "90", "--stream", "--max-accesses", "2", "--max-locs", "2",
    ]);
    assert!(ok);
    assert!(stdout.contains("against 90 models"), "{stdout}");
    assert!(stdout.contains("batched"), "{stdout}");
    assert!(stdout.contains("equivalence classes"), "{stdout}");
}

#[test]
fn model_set_errors_are_reported() {
    let (ok, _, stderr) = mcm(&["explore", "--models", "powerpc,arm"]);
    assert!(!ok);
    assert!(stderr.contains("unknown model"), "{stderr}");
    let (ok, _, stderr) = mcm(&["explore", "--models", "figure4", "--no-deps"]);
    assert!(!ok);
    assert!(stderr.contains("conflicts"), "{stderr}");
    let (ok, _, stderr) = mcm(&["distinguish", "SC", "TSO", "--models", "named"]);
    assert!(!ok);
    assert!(stderr.contains("not both"), "{stderr}");
    let (ok, _, stderr) = mcm(&["synth", "SC", "TSO", "--models", "named"]);
    assert!(!ok);
    assert!(stderr.contains("requires --matrix"), "{stderr}");
}

#[test]
fn explore_checker_is_kind_resolved() {
    let (ok, stdout, _) = mcm(&["explore", "--models", "SC,TSO", "--checker", "sat"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("assumption solves"), "{stdout}");
    assert!(stdout.contains("sweep solver"), "{stdout}");
    // Any other name, `monolithic` included, is refused with the known list.
    for name in ["quantum", "monolithic"] {
        let (ok, _, stderr) = mcm(&["explore", "--checker", name]);
        assert!(!ok, "{name}");
        assert!(stderr.contains("unknown checker"), "{stderr}");
        assert!(stderr.contains("explicit/sat"), "{stderr}");
    }
}

#[test]
fn distinguish_model_set_matches_positional() {
    let (ok, a, _) = mcm(&["distinguish", "--models", "SC,TSO,PSO"]);
    assert!(ok);
    let (ok, b, _) = mcm(&["distinguish", "SC", "TSO", "PSO"]);
    assert!(ok);
    let line = |s: &str| {
        s.lines()
            .find(|l| l.contains("minimum distinguishing set"))
            .unwrap()
            .to_string()
    };
    assert_eq!(line(&a), line(&b));
}

#[test]
fn analyze_finds_the_papers_eight_pairs_statically() {
    let (ok, stdout, _) = mcm(&["analyze", "--models", "90"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("0 litmus tests executed"), "{stdout}");
    assert!(stdout.contains("equivalent pairs: 8"), "{stdout}");
    // Left-hand names may carry aliases ("M1010 (RMO (no deps))"), so
    // match each pair by its unaliased right-hand member.
    for right in [
        "M1110", "M1111", "M4110", "M4111", "M4130", "M4131", "M4140", "M4141",
    ] {
        let pair = format!("== {right}  (theorem-a)");
        assert!(stdout.contains(&pair), "missing {pair}: {stdout}");
    }
}

#[test]
fn analyze_renders_the_lattice_and_lints_tests() {
    let (ok, stdout, _) = mcm(&["analyze", "SC", "TSO", "PSO", "--format", "dot"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph strength"), "{stdout}");
    let dir = std::env::temp_dir().join("mcm-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("dead-write.litmus");
    std::fs::write(
        &path,
        "test DeadWrite {\n thread { write X = 1; read Y -> r1 }\n thread { write Y = 1 }\n outcome { T1:r1 = 0 }\n}\n",
    )
    .unwrap();
    let (ok, stdout, _) = mcm(&["analyze", "SC", "TSO", "--tests", path.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("never-read-write"), "{stdout}");
    let (ok, _, stderr) = mcm(&["analyze", "SC", "TSO", "--models", "named"]);
    assert!(!ok);
    assert!(stderr.contains("not both"), "{stderr}");
}

#[test]
fn parse_validates_files() {
    let dir = std::env::temp_dir().join("mcm-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("bad.litmus");
    std::fs::write(&path, "test Bad { thread { wibble } }").unwrap();
    let (ok, _, stderr) = mcm(&["parse", path.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("wibble"));
}

// ---------------------------------------------------------------------------
// Exit codes: usage errors exit 2, run failures exit 1.
// ---------------------------------------------------------------------------

fn mcm_code(args: &[&str]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_mcm"))
        .args(args)
        .output()
        .expect("binary runs")
        .status
        .code()
        .expect("exit code")
}

#[test]
fn usage_errors_exit_2() {
    assert_eq!(mcm_code(&["frobnicate"]), 2);
    assert_eq!(mcm_code(&["compare", "TSO"]), 2);
    assert_eq!(mcm_code(&["compare", "TSO", "powerpc"]), 2);
    assert_eq!(mcm_code(&["explore", "--streem"]), 2);
    assert_eq!(mcm_code(&["explore", "--jobs"]), 2);
    assert_eq!(mcm_code(&["explore", "--checker", "quantum"]), 2);
    assert_eq!(mcm_code(&["suite", "--format", "yaml"]), 2);
    assert_eq!(mcm_code(&["figures", "wibble"]), 2);
    assert_eq!(mcm_code(&["synth", "SC"]), 2);
}

#[test]
fn canonicalize_is_not_an_option() {
    for args in [
        &["explore", "--canonicalize"][..],
        &["distinguish", "SC", "TSO", "--canonicalize"][..],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_mcm"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("--canonicalize"), "{args:?}: {stderr}");
    }
}

#[test]
fn extra_positional_arguments_are_rejected_not_ignored() {
    for args in [
        &["catalog", "foo"][..],
        &["suite", "x", "y"],
        &["figures", "fig3", "bogus"],
        &["explore", "SC", "TSO", "--models", "figure4", "--stream", "--limit", "5"],
    ] {
        assert_eq!(mcm_code(args), 2, "{args:?}");
        let (_, _, stderr) = mcm(args);
        assert!(stderr.contains("unexpected argument"), "{args:?}: {stderr}");
    }
    // The positionals these commands do take still work.
    assert_eq!(mcm_code(&["figures", "fig3"]), 0);
    assert_eq!(mcm_code(&["distinguish", "SC", "TSO"]), 0);
}

#[test]
fn serve_rejects_output_options_before_binding() {
    // `/nonexistent/x` and an unknown format would only fail later: the
    // usage error must come first, without the server ever binding.
    for output_options in [
        &["--format", "yaml", "--out", "/nonexistent/x"][..],
        &["--format", "json"],
        &["--out", "/nonexistent/x"],
    ] {
        let args = [&["serve", "--addr", "127.0.0.1:0"][..], output_options].concat();
        let output = Command::new(env!("CARGO_BIN_EXE_mcm"))
            .args(&args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("serve does not take"), "{args:?}: {stderr}");
        assert!(!stderr.contains("listening"), "{args:?}: {stderr}");
    }
}

#[test]
fn run_failures_exit_1() {
    // A well-formed request on an unreadable file is a run failure.
    assert_eq!(mcm_code(&["check", "TSO", "/no/such/file.litmus"]), 1);
    assert_eq!(mcm_code(&["parse", "/no/such/file.litmus"]), 1);
    // A file that exists but does not parse is a run failure too.
    let dir = std::env::temp_dir().join("mcm-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("broken.litmus");
    std::fs::write(&path, "test Bad { thread { wibble } }").unwrap();
    assert_eq!(mcm_code(&["parse", path.to_str().unwrap()]), 1);
    assert_eq!(mcm_code(&["check", "SC", path.to_str().unwrap()]), 1);
}

#[test]
fn success_exits_0() {
    assert_eq!(mcm_code(&["help"]), 0);
    assert_eq!(mcm_code(&["compare", "TSO", "x86"]), 0);
}

// ---------------------------------------------------------------------------
// --format json: every subcommand emits a schema-versioned document that
// round-trips through the in-tree parser.
// ---------------------------------------------------------------------------

fn parsed_json(args: &[&str]) -> mcm_core::json::Json {
    let (ok, stdout, stderr) = mcm(args);
    assert!(ok, "{args:?} failed: {stderr}");
    let doc = mcm_core::json::Json::parse(&stdout)
        .unwrap_or_else(|e| panic!("{args:?} produced invalid json: {e}\n{stdout}"));
    assert_eq!(
        doc.get("schema_version").and_then(mcm_core::json::Json::as_u64),
        Some(mcm_query::SCHEMA_VERSION),
        "{args:?}: missing schema_version"
    );
    doc
}

/// Asserts that the CLI's `--format json` document is the one the wire
/// request `request` gives when run in-process, as `mcm serve` runs it
/// (`elapsed_ms` and `timings` vary run to run, so both sides drop them).
fn assert_same_as_wire(cli: &mcm_core::json::Json, request: mcm_core::json::Json) {
    use mcm_query::wire::WireRequest;
    let parsed = WireRequest::from_json(&request).expect("the wire request parses");
    let report = parsed.spec.run(None).expect("the wire request runs").report;
    let rendered = report.render(mcm_query::Format::Json).expect("renders json");
    let mut wire = mcm_core::json::Json::parse(&rendered).expect("re-parses");
    let mut cli = cli.clone();
    for doc in [&mut wire, &mut cli] {
        doc.strip_keys(&["elapsed_ms", "timings"]);
    }
    assert_eq!(cli, wire, "CLI and wire documents differ for {}", request.compact());
}

/// Parses a request document written as JSON text.
fn wire_doc(text: &str) -> mcm_core::json::Json {
    mcm_core::json::Json::parse(text).expect("test requests are valid JSON")
}

#[test]
fn every_subcommand_speaks_json() {
    let dir = std::env::temp_dir().join("mcm-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sb-json.litmus");
    std::fs::write(
        &path,
        "test SB {\n thread { write X = 1; read Y -> r1 }\n thread { write Y = 1; read X -> r2 }\n outcome { T1:r1 = 0; T2:r2 = 0 }\n}\n",
    )
    .unwrap();
    let path = path.to_str().unwrap();
    let kind = |doc: &mcm_core::json::Json| {
        doc.get("kind").and_then(mcm_core::json::Json::as_str).unwrap().to_string()
    };

    let doc = parsed_json(&["check", "TSO", path, "--format", "json"]);
    assert_eq!(kind(&doc), "check");
    let litmus = std::fs::read_to_string(path).unwrap();
    let inline = mcm_core::json::Json::object([("inline", mcm_core::json::Json::from(litmus))]);
    assert_same_as_wire(
        &doc,
        mcm_core::json::Json::object([
            ("query", mcm_core::json::Json::from("check")),
            ("model", mcm_core::json::Json::from("TSO")),
            ("tests", inline),
        ]),
    );
    let doc = parsed_json(&["compare", "TSO", "x86", "--format", "json"]);
    assert_eq!(kind(&doc), "compare");
    assert_eq!(doc.get("relation").and_then(mcm_core::json::Json::as_str), Some("equivalent"));
    assert_same_as_wire(&doc, wire_doc(r#"{"query": "compare", "left": "TSO", "right": "x86"}"#));
    let doc = parsed_json(&["explore", "--models", "SC,TSO,IBM370", "--format", "json"]);
    assert_eq!(kind(&doc), "sweep");
    assert_eq!(doc.get("models").and_then(mcm_core::json::Json::as_array).unwrap().len(), 3);
    assert_same_as_wire(
        &doc,
        wire_doc(r#"{"query": "sweep", "models": "SC,TSO,IBM370"}"#),
    );
    let doc = parsed_json(&[
        "explore", "--stream", "--max-accesses", "2", "--max-locs", "2", "--limit", "50",
        "--models", "SC,TSO", "--format", "json",
    ]);
    assert!(!doc.get("stream").unwrap().is_null(), "streamed sweep documents carry bounds");
    assert_same_as_wire(
        &doc,
        wire_doc(
            r#"{"query": "sweep", "models": "SC,TSO",
                "tests": {"stream": {"max_accesses": 2, "max_locs": 2, "limit": 50}}}"#,
        ),
    );
    let doc = parsed_json(&["distinguish", "SC", "TSO", "--format", "json"]);
    assert_eq!(kind(&doc), "distinguish");
    assert_same_as_wire(&doc, wire_doc(r#"{"query": "distinguish", "models": ["SC", "TSO"]}"#));
    let doc = parsed_json(&["analyze", "SC", "TSO", "--format", "json"]);
    assert_eq!(kind(&doc), "analyze");
    assert_eq!(doc.get("models").and_then(mcm_core::json::Json::as_array).unwrap().len(), 2);
    assert_same_as_wire(&doc, wire_doc(r#"{"query": "analyze", "models": "SC,TSO"}"#));
    let doc = parsed_json(&[
        "synth", "SC", "TSO", "--max-accesses", "2", "--max-locs", "2", "--format", "json",
    ]);
    assert_eq!(kind(&doc), "synth");
    assert_eq!(
        doc.get("pair").unwrap().get("length").and_then(mcm_core::json::Json::as_u64),
        Some(4),
        "SB is the shortest SC/TSO separator"
    );
    assert_same_as_wire(
        &doc,
        wire_doc(
            r#"{"query": "synth", "left": "SC", "right": "TSO",
                "bounds": {"max_accesses": 2, "max_locs": 2}}"#,
        ),
    );
    let doc = parsed_json(&[
        "synth", "--matrix", "SC", "TSO", "--max-accesses", "2", "--max-locs", "2", "--format",
        "json",
    ]);
    assert_eq!(kind(&doc), "synth");
    assert_same_as_wire(
        &doc,
        wire_doc(
            r#"{"query": "synth_matrix", "models": ["SC", "TSO"],
                "bounds": {"max_accesses": 2, "max_locs": 2}}"#,
        ),
    );
    let doc = parsed_json(&["suite", "--no-deps", "--format", "json"]);
    assert_eq!(doc.get("corollary1_bound").and_then(mcm_core::json::Json::as_u64), Some(124));
    assert_same_as_wire(&doc, wire_doc(r#"{"query": "suite", "with_deps": false}"#));
    let doc = parsed_json(&["catalog", "--format", "json"]);
    assert_eq!(kind(&doc), "catalog");
    assert_same_as_wire(&doc, wire_doc(r#"{"query": "catalog"}"#));
    let doc = parsed_json(&["parse", path, "--format", "json"]);
    assert_eq!(doc.get("count").and_then(mcm_core::json::Json::as_u64), Some(1));
    let doc = parsed_json(&["figures", "counts", "--format", "json"]);
    assert_eq!(kind(&doc), "figures");
    assert!(doc.get("fig1").unwrap().is_null());
    assert!(!doc.get("counts").unwrap().is_null());
    assert_same_as_wire(&doc, wire_doc(r#"{"query": "figures", "which": "counts"}"#));
}

#[test]
fn out_writes_the_document_to_a_file() {
    let dir = std::env::temp_dir().join("mcm-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("compare.json");
    let out_str = out.to_str().unwrap();
    let (ok, stdout, _) = mcm(&["compare", "TSO", "x86", "--format", "json", "--out", out_str]);
    assert!(ok);
    assert!(stdout.is_empty(), "--out redirects the document: {stdout}");
    let written = std::fs::read_to_string(&out).unwrap();
    let doc = mcm_core::json::Json::parse(&written).unwrap();
    assert_eq!(doc.get("kind").and_then(mcm_core::json::Json::as_str), Some("compare"));
}

#[test]
fn csv_and_dot_formats_render_where_supported() {
    let (ok, stdout, _) = mcm(&["explore", "--models", "SC,TSO", "--format", "csv"]);
    assert!(ok);
    assert!(stdout.starts_with("model,"), "{stdout}");
    let (ok, stdout, _) = mcm(&["explore", "--models", "SC,TSO", "--format", "dot"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph"), "{stdout}");
    // Reports without a tabular view reject csv as a usage error.
    let (ok, _, stderr) = mcm(&["compare", "TSO", "x86", "--format", "csv"]);
    assert!(!ok);
    assert!(stderr.contains("cannot be rendered"), "{stderr}");
    assert_eq!(mcm_code(&["compare", "TSO", "x86", "--format", "csv"]), 2);
}

#[test]
fn trace_out_writes_a_balanced_chrome_trace() {
    use mcm_core::json::Json;
    let dir = std::env::temp_dir().join("mcm-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("explore-trace.json");
    let trace_str = trace.to_str().unwrap();
    let (ok, _, stderr) = mcm(&[
        "explore", "--models", "SC,TSO", "--trace-out", trace_str,
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&trace).unwrap();
    let doc = Json::parse(&text).expect("trace re-parses with the in-tree parser");
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("trace"));
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let phase_count = |name: &str, ph: &str| {
        events
            .iter()
            .filter(|e| {
                e.get("name").and_then(Json::as_str) == Some(name)
                    && e.get("ph").and_then(Json::as_str) == Some(ph)
            })
            .count()
    };
    // The CLI wraps the whole command in one span; the query layer and
    // the engine add their phases underneath. Every begin has its end.
    for name in [
        "cli.explore",
        "query.resolve",
        "query.load",
        "engine.run",
        "engine.grid",
        "engine.grid.worker",
        "query.report",
    ] {
        assert_eq!(phase_count(name, "B"), phase_count(name, "E"), "{name}");
        assert!(phase_count(name, "B") >= 1, "missing span {name}");
    }
    std::fs::remove_file(&trace).ok();

    // A streamed sweep also names its raw-space count.
    let (ok, _, stderr) = mcm(&[
        "explore", "--models", "SC,TSO", "--stream", "--limit", "1", "--trace-out", trace_str,
    ]);
    assert!(ok, "{stderr}");
    let doc = Json::parse(&std::fs::read_to_string(&trace).unwrap()).unwrap();
    let names: Vec<&str> = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array")
        .iter()
        .filter_map(|e| e.get("name").and_then(Json::as_str))
        .collect();
    for name in ["query.raw_count", "engine.stream", "query.report"] {
        assert!(names.contains(&name), "missing span {name}");
    }
    std::fs::remove_file(&trace).ok();
}

#[test]
fn trace_out_without_a_file_is_a_usage_error() {
    // A following flag is not a file name: it must not be swallowed.
    for args in [
        &["explore", "--models", "SC,TSO", "--trace-out"][..],
        &["explore", "--models", "SC,TSO", "--trace-out", "--no-deps"][..],
    ] {
        let (ok, _, stderr) = mcm(args);
        assert!(!ok);
        assert!(stderr.contains("--trace-out"), "{stderr}");
        assert_eq!(mcm_code(args), 2);
    }
}

#[test]
fn explore_stream_shards_partition_the_sweep() {
    use mcm_core::json::Json;
    let streamed = |doc: &Json| {
        doc.get("stats")
            .and_then(|s| s.get("tests_streamed"))
            .and_then(Json::as_u64)
            .expect("stats.tests_streamed")
    };
    let base = [
        "explore", "--stream", "--max-accesses", "2", "--max-locs", "2", "--models", "SC,TSO",
        "--format", "json",
    ];
    let whole = parsed_json(&base);
    let mut sharded_total = 0;
    for shard in ["0/2", "1/2"] {
        let mut args = base.to_vec();
        args.extend(["--shard", shard]);
        let doc = parsed_json(&args);
        assert_eq!(
            doc.get("stream").and_then(|s| s.get("shard")).and_then(Json::as_str),
            Some(shard)
        );
        sharded_total += streamed(&doc);
    }
    assert_eq!(
        sharded_total,
        streamed(&whole),
        "two complementary shards must cover the stream exactly"
    );

    let (ok, _, stderr) = mcm(&["explore", "--stream", "--shard", "2/2"]);
    assert!(!ok);
    assert!(stderr.contains("--shard"), "{stderr}");
}

#[test]
fn explore_stream_store_survives_across_runs() {
    let dir = std::env::temp_dir().join("mcm-cli-store-test");
    std::fs::create_dir_all(&dir).unwrap();
    let log = dir.join(format!("verdicts-{}.log", std::process::id()));
    let _ = std::fs::remove_file(&log);
    let log = log.to_str().unwrap();
    let base = [
        "explore", "--stream", "--max-accesses", "2", "--max-locs", "2", "--models", "SC,TSO",
        "--store", log,
    ];
    let (ok, stdout, _) = mcm(&base);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("store: "), "{stdout}");
    // The second process answers every pair from the disk tier.
    let (ok, stdout, _) = mcm(&base);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("0 ram + "), "{stdout}");
    assert!(!stdout.contains(" + 0 disk"), "{stdout}");
    std::fs::remove_file(log).ok();
}

#[test]
fn explore_stream_resumes_from_a_checkpoint_bit_identically() {
    use mcm_core::json::Json;
    let dir = std::env::temp_dir().join("mcm-cli-ckpt-test");
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join(format!("sweep-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&ckpt);
    let ckpt = ckpt.to_str().unwrap();
    let base = [
        "explore", "--stream", "--max-accesses", "2", "--max-locs", "2", "--models", "SC,TSO",
        "--format", "json",
    ];
    let with = |extra: &[&str]| {
        let mut args = base.to_vec();
        args.extend_from_slice(extra);
        parsed_json(&args)
    };
    let cold = with(&["--checkpoint", ckpt]);
    assert!(std::path::Path::new(ckpt).exists(), "checkpoint file written");
    let resumed = with(&["--resume", ckpt]);
    assert!(
        resumed
            .get("checkpoint")
            .and_then(|c| c.get("resumed_at"))
            .and_then(Json::as_u64)
            .is_some(),
        "the resumed run reports its cursor"
    );
    let strip = |mut doc: Json| {
        doc.strip_keys(&["elapsed_ms", "timings", "stats", "cache", "store", "checkpoint"]);
        doc
    };
    assert_eq!(
        strip(cold),
        strip(resumed),
        "resume from the final checkpoint replays to the same lattice"
    );

    // A checkpoint from different bounds is rejected, not misapplied.
    let mismatch = [
        "explore", "--stream", "--max-accesses", "2", "--max-locs", "3", "--models", "SC,TSO",
        "--resume", ckpt,
    ];
    let (ok, _, stderr) = mcm(&mismatch);
    assert!(!ok);
    assert!(stderr.contains("different sweep"), "{stderr}");
    std::fs::remove_file(ckpt).ok();
}

#[test]
fn serve_store_dir_is_a_recognised_option() {
    // A bad value fails at bind time (the parent of the log must be
    // creatable), proving the flag reaches the server config.
    let (ok, _, stderr) = mcm(&["serve", "--store-dir"]);
    assert!(!ok);
    assert!(stderr.contains("--store-dir"), "{stderr}");
}
