//! Golden-file tests pinning the JSON schema of every report type.
//!
//! Each test builds a deterministic report (single-threaded engine,
//! explicit checker, wall-clock zeroed), renders it as JSON, and
//! compares against the checked-in document under `tests/golden/` —
//! **after round-tripping both sides through the in-tree parser**, so
//! formatting is normalized and only the data matters.
//!
//! To regenerate after an intentional schema change:
//! `MCM_BLESS=1 cargo test -p mcm-query --test golden_json`.

use std::time::Duration;

use mcm_query::{
    CheckerKind, EngineConfig, Format, ModelSpec, Query, Render, TestSource,
};
use mcm_core::json::Json;
use mcm_query::reports::FigureSelection;

const SB: &str = "test SB {\n thread { write X = 1; read Y -> r1 }\n \
                  thread { write Y = 1; read X -> r2 }\n \
                  outcome { T1:r1 = 0; T2:r2 = 0 }\n}\n";

/// Deterministic engine settings: one worker, no scheduling races in
/// any counter.
fn one_job() -> EngineConfig {
    EngineConfig {
        jobs: Some(1),
        ..EngineConfig::default()
    }
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.json"))
}

/// Renders `report` as JSON and compares it (parsed) against the golden
/// file (parsed). With `MCM_BLESS=1`, rewrites the golden instead.
fn assert_golden(name: &str, report: &dyn Render) {
    let rendered = report.render(Format::Json).expect("json renders");
    let document = Json::parse(&rendered).expect("rendered json re-parses");
    assert_eq!(
        document.get("schema_version").and_then(Json::as_u64),
        Some(mcm_query::SCHEMA_VERSION),
        "{name}: schema_version missing"
    );
    let path = golden_path(name);
    if std::env::var_os("MCM_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden_text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); run with MCM_BLESS=1 to create", path.display())
    });
    let golden = Json::parse(&golden_text).expect("golden json parses");
    assert_eq!(
        document,
        golden,
        "{name}: schema drifted from {} — if intentional, bless with MCM_BLESS=1",
        path.display()
    );
}

#[test]
fn sweep_report_schema() {
    let mut report = Query::sweep()
        .models(ModelSpec::List(vec!["SC".into(), "TSO".into()]))
        .tests(TestSource::Catalog)
        .checker(CheckerKind::Explicit)
        .engine(one_job())
        .run()
        .unwrap();
    report.elapsed = Duration::ZERO;
    report.timings = Some(mcm_query::Timings::sample());
    assert_golden("sweep", &report);
}

#[test]
fn streamed_sweep_report_schema() {
    let mut report = Query::sweep()
        .models(ModelSpec::List(vec!["SC".into(), "TSO".into()]))
        .tests(TestSource::Stream {
            bounds: mcm_query::StreamBounds {
                max_accesses_per_thread: 2,
                threads: 2,
                max_locs: 2,
                include_fences: false,
                include_deps: false,
            },
            limit: Some(40),
            shard: None,
        })
        .engine(one_job())
        .run()
        .unwrap();
    report.elapsed = Duration::ZERO;
    report.timings = Some(mcm_query::Timings::sample());
    assert_golden("sweep_stream", &report);
}

#[test]
fn compare_report_schema() {
    let mut report = Query::compare("TSO", "IBM370").run().unwrap();
    report.elapsed = Duration::ZERO;
    assert_golden("compare", &report);
}

#[test]
fn distinguish_report_schema() {
    let mut report = Query::distinguish()
        .models(ModelSpec::List(vec![
            "SC".into(),
            "TSO".into(),
            "PSO".into(),
        ]))
        .tests(TestSource::TemplateSuite { with_deps: false })
        .engine(one_job())
        .run_distinguish()
        .unwrap();
    report.sweep.elapsed = Duration::ZERO;
    assert_golden("distinguish", &report);
}

#[test]
fn analyze_report_schema() {
    let mut report = Query::analyze()
        .models(ModelSpec::List(vec![
            "SC".into(),
            "TSO".into(),
            "IBM370".into(),
            "M4040".into(),
            "M4140".into(),
        ]))
        .tests(TestSource::Inline(SB.to_string()))
        .run()
        .unwrap();
    report.elapsed = Duration::ZERO;
    assert_golden("analyze", &report);
}

#[test]
fn synth_report_schema() {
    let mut report = Query::synth("SC", "TSO").verbose(true).run().unwrap();
    report.elapsed = Duration::ZERO;
    report.timings = Some(mcm_query::Timings::sample());
    assert_golden("synth", &report);
}

#[test]
fn check_report_schema() {
    let report = Query::check("SC", TestSource::Inline(SB.to_string()))
        .witness(true)
        .run()
        .unwrap();
    assert_golden("check", &report);
}

#[test]
fn suite_report_schema() {
    let report = Query::suite(false).run();
    assert_golden("suite", &report);
}

#[test]
fn catalog_report_schema() {
    assert_golden("catalog", &Query::catalog());
}

#[test]
fn parse_report_schema() {
    let report = mcm_query::ParseReport {
        source: "<inline>".to_string(),
        tests: TestSource::Inline(SB.to_string()).load().unwrap(),
    };
    assert_golden("parse", &report);
}

#[test]
fn figures_counts_report_schema() {
    assert_golden("figures_counts", &Query::figures(FigureSelection::Counts));
}

#[test]
fn figures_fig1_report_schema() {
    assert_golden("figures_fig1", &Query::figures(FigureSelection::Fig1));
}
