//! Property: `Render::json` output always re-parses through the in-tree
//! JSON parser, to an equal document, for every report type — over
//! randomly sampled model pairs, checker backends and test sources. A
//! sweep's JSON, whose verdict matrix is written straight from the
//! verdict bits, is byte-identical to laying out the whole document as a
//! tree.

use mcm_core::json::Json;
use mcm_query::{
    CheckerKind, EngineConfig, Format, ModelSpec, Query, Render, SweepReport, TestSource,
};
use proptest::prelude::*;

/// A pool of model names spanning named models and digit models.
const MODEL_POOL: [&str; 8] = [
    "SC", "TSO", "PSO", "IBM370", "RMO", "Alpha", "M1011", "M4044",
];

/// The report's JSON must re-parse, carry the envelope, and the
/// re-parsed document must equal a second round trip (emitter and
/// parser are mutual inverses on report output).
fn assert_json_roundtrips(report: &dyn Render) -> Result<(), TestCaseError> {
    let rendered = report.render(Format::Json).expect("json is total");
    let parsed = Json::parse(&rendered)
        .map_err(|e| TestCaseError::fail(format!("json failed to re-parse: {e}\n{rendered}")))?;
    prop_assert_eq!(
        parsed.get("schema_version").and_then(Json::as_u64),
        Some(mcm_query::SCHEMA_VERSION)
    );
    prop_assert_eq!(
        parsed.get("kind").and_then(Json::as_str),
        Some(report.kind())
    );
    // Second round trip: emit the parsed document and parse again.
    let re_rendered = parsed.pretty();
    let re_parsed = Json::parse(&re_rendered)
        .map_err(|e| TestCaseError::fail(format!("second round trip failed: {e}")))?;
    prop_assert_eq!(re_parsed, parsed);
    // Text is total too.
    prop_assert!(!report.text().is_empty());
    Ok(())
}

/// The oracle: the sweep document built whole as a tree — one
/// `Json::Bool` per verdict cell — and laid out by `Json::pretty`.
fn tree_render(report: &SweepReport) -> String {
    let mut doc = report.json();
    let Json::Object(fields) = &mut doc else {
        unreachable!("a report document is an object")
    };
    let (_, verdicts) = fields
        .iter_mut()
        .find(|(key, _)| key == "verdicts")
        .expect("a sweep document has a verdict matrix");
    *verdicts = Json::Array(
        report
            .exploration
            .verdicts
            .iter()
            .map(|row| Json::Array((0..row.len()).map(|t| Json::Bool(row.allowed(t))).collect()))
            .collect(),
    );
    doc.pretty()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sweep_json_is_byte_identical_to_the_tree_render(
        picks in proptest::collection::vec(0usize..8, 1..5),
        streamed in proptest::bool::ANY,
        limit in 0usize..80,
        jobs in 1usize..3,
    ) {
        let source = if streamed {
            TestSource::Stream {
                bounds: mcm_query::StreamBounds {
                    max_accesses_per_thread: 2,
                    threads: 2,
                    max_locs: 2,
                    include_fences: false,
                    include_deps: false,
                },
                limit: Some(limit),
                shard: None,
            }
        } else {
            TestSource::Catalog
        };
        let report = Query::sweep()
            .models(ModelSpec::List(picks.iter().map(|&m| MODEL_POOL[m].to_string()).collect()))
            .tests(source)
            .engine(EngineConfig { jobs: Some(jobs), ..EngineConfig::default() })
            .run()
            .unwrap();
        let rendered = report.render(Format::Json).expect("json is total");
        prop_assert_eq!(rendered, tree_render(&report));
    }

    #[test]
    fn compare_reports_roundtrip(left in 0usize..8, right in 0usize..8) {
        let report = Query::compare(MODEL_POOL[left], MODEL_POOL[right % 8])
            .run()
            .unwrap();
        assert_json_roundtrips(&report)?;
    }

    #[test]
    fn check_reports_roundtrip(model in 0usize..8, witness in proptest::bool::ANY) {
        let sb = "test SB {\n thread { write X = 1; read Y -> r1 }\n \
                  thread { write Y = 1; read X -> r2 }\n \
                  outcome { T1:r1 = 0; T2:r2 = 0 }\n}\n";
        let report = Query::check(MODEL_POOL[model], TestSource::Inline(sb.to_string()))
            .witness(witness)
            .run()
            .unwrap();
        assert_json_roundtrips(&report)?;
    }

    #[test]
    fn sweep_reports_roundtrip(
        left in 0usize..8,
        right in 0usize..8,
        checker in 0usize..CheckerKind::ALL.len(),
    ) {
        let report = Query::sweep()
            .models(ModelSpec::List(vec![
                MODEL_POOL[left].to_string(),
                MODEL_POOL[right].to_string(),
            ]))
            .tests(TestSource::Catalog)
            .checker(CheckerKind::ALL[checker])
            .engine(EngineConfig { jobs: Some(1), ..EngineConfig::default() })
            .cache(left % 2 == 0)
            .run()
            .unwrap();
        assert_json_roundtrips(&report)?;
    }

    #[test]
    fn distinguish_reports_roundtrip(a in 0usize..8, b in 0usize..8, c in 0usize..8) {
        let report = Query::distinguish()
            .models(ModelSpec::List(vec![
                MODEL_POOL[a].to_string(),
                MODEL_POOL[b].to_string(),
                MODEL_POOL[c].to_string(),
            ]))
            .tests(TestSource::TemplateSuite { with_deps: false })
            .engine(EngineConfig { jobs: Some(1), ..EngineConfig::default() })
            .run_distinguish()
            .unwrap();
        assert_json_roundtrips(&report)?;
    }

    #[test]
    fn synth_reports_roundtrip(left in 0usize..6, right in 0usize..6) {
        // Restrict to the cheap named models and a tiny box so the
        // CEGIS loop stays fast under many cases.
        let report = Query::synth(MODEL_POOL[left], MODEL_POOL[right])
            .bounds(mcm_query::SynthBounds {
                max_accesses_per_thread: 2,
                max_locs: 2,
                ..mcm_query::SynthBounds::default()
            })
            .run()
            .unwrap();
        assert_json_roundtrips(&report)?;
    }

    #[test]
    fn streamed_sweep_reports_roundtrip(limit in 1usize..60) {
        let report = Query::sweep()
            .models(ModelSpec::List(vec!["SC".to_string(), "RMO".to_string()]))
            .tests(TestSource::Stream {
                bounds: mcm_query::StreamBounds {
                    max_accesses_per_thread: 2,
                    threads: 2,
                    max_locs: 2,
                    include_fences: false,
                    include_deps: false,
                },
                limit: Some(limit),
                shard: None,
            })
            .engine(EngineConfig { jobs: Some(1), ..EngineConfig::default() })
            .run()
            .unwrap();
        assert_json_roundtrips(&report)?;
    }
}

#[test]
fn static_reports_roundtrip() {
    for report in [
        &Query::catalog() as &dyn Render,
        &Query::suite(true).run(),
        &Query::suite(false).full(true).run(),
    ] {
        assert_json_roundtrips(report).unwrap();
    }
}
