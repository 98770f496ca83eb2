//! The wire format: building a query **from** a JSON document — the
//! inverse of the render path, and the request language of `mcm serve`.
//!
//! Every report is serializable; this module closes the loop so a query
//! itself is data. A [`WireRequest`] is parsed from a JSON object with
//! [`WireRequest::parse`] (strictly: unknown fields, malformed values and
//! out-of-range bounds are [`QueryError::InvalidSpec`] usage errors, never
//! panics), executed with [`QuerySpec::run`], and the resulting report
//! rendered in the request's [`Format`].
//!
//! The request document names the query kind plus that kind's fields.
//! Each kind parses straight into its [`crate::Query`] builder: the parser
//! starts from the builder's constructor and overrides only the fields
//! the request names, so the wire defaults *are* the builder defaults.
//!
//! ```json
//! {
//!   "query": "sweep",
//!   "models": "figure4",
//!   "tests": {"template_suite": {"with_deps": false}},
//!   "checker": "explicit",
//!   "engine": {"jobs": 1},
//!   "cache": true,
//!   "format": "json"
//! }
//! ```
//!
//! Kinds: `sweep`, `compare`, `distinguish`, `analyze`, `synth`,
//! `synth_matrix`, `check`, `suite`, `catalog`, `figures`. Test sources: `"catalog"`,
//! `"template_suite"`, `{"template_suite": {"with_deps": bool}}`,
//! `{"stream": {"max_accesses": N, "max_locs": N, "fences": bool,
//! "deps": bool, "limit": N, "shard": "i/n"}}`,
//! `{"inline": "<litmus text>"}`. The wire
//! format is deliberately **hermetic**: there is no file-backed source,
//! so a server executing wire requests never touches the filesystem.
//!
//! A malformed or out-of-range integer or shard is a
//! [`QueryError::BadValue`], which carries the field's dotted path
//! (`tests.stream.limit`) next to its message.
//!
//! ## The CLI is a wire client
//!
//! Each `mcm` subcommand turns its flags into a request document and
//! parses it with [`WireRequest::from_json`], then names the flag behind a
//! [`QueryError::BadValue`] path. Only what this format forbids stays in
//! the CLI: file sources (`check FILE`, `parse FILE`, `analyze --tests
//! FILE`), side outputs (`--out`, `--csv`, `--dot`, `--store`,
//! `--checkpoint`, `--resume`, `--trace-out`) and `serve`'s flags. So do
//! two rules: the template suite has the dependency idioms iff some model
//! observes them, and `mcm explore` defaults to all 90 models where a bare
//! `{"query": "sweep"}` is Figure 4's 36, so the CLI always writes
//! `models` and `tests`.
//!
//! ## Example
//!
//! ```
//! use mcm_query::wire::WireRequest;
//!
//! let request = WireRequest::parse(
//!     r#"{"query": "compare", "left": "TSO", "right": "x86"}"#,
//! ).unwrap();
//! let outcome = request.spec.run(None).unwrap();
//! let body = outcome.report.render(request.format).unwrap();
//! assert!(body.contains("equivalent"));
//! ```

use std::ops::RangeInclusive;
use std::sync::Arc;

use mcm_axiomatic::CheckerKind;
use mcm_core::json::Json;
use mcm_explore::{EngineConfig, SweepStats, VerdictCache};
use mcm_gen::{Shard, StreamBounds};

use crate::error::QueryError;
use crate::query::{
    AnalyzeQuery, CheckQuery, CompareQuery, SuiteQuery, SweepQuery, SynthMode, SynthQuery,
};
use crate::render::{Format, Render};
use crate::reports::FigureSelection;
use crate::resolve::ModelSpec;
use crate::source::TestSource;
use crate::Query;

/// A parsed wire request: what to run and how to render it.
#[derive(Clone, Debug)]
pub struct WireRequest {
    /// The query to execute.
    pub spec: QuerySpec,
    /// The requested output format (default [`Format::Json`]).
    pub format: Format,
}

impl WireRequest {
    /// Parses a complete request document from JSON text.
    ///
    /// # Errors
    ///
    /// [`QueryError::InvalidSpec`] for JSON that fails to parse, is not
    /// an object, or names an unknown query kind or field;
    /// [`QueryError::BadValue`], carrying the field's path, for a
    /// malformed or out-of-range integer or shard.
    pub fn parse(text: &str) -> Result<WireRequest, QueryError> {
        let doc = Json::parse(text)
            .map_err(|e| QueryError::InvalidSpec(format!("request is not valid JSON: {e}")))?;
        WireRequest::from_json(&doc)
    }

    /// Parses a request from an already-parsed JSON document.
    ///
    /// # Errors
    ///
    /// As for [`WireRequest::parse`].
    pub fn from_json(doc: &Json) -> Result<WireRequest, QueryError> {
        let pairs = expect_object(doc, "request")?;
        let format = match get(pairs, "format") {
            None => Format::Json,
            Some(v) => as_str(v, "format")?.parse()?,
        };
        Ok(WireRequest {
            spec: QuerySpec::from_json(doc)?,
            format,
        })
    }
}

/// A declarative, executable query: every [`crate::Query`] kind as data,
/// each variant holding its builder. The builders' fields are public, so
/// a policy layer (the server's ceilings) can clamp them before running.
#[derive(Clone, Debug)]
pub enum QuerySpec {
    /// [`Query::sweep`].
    Sweep(SweepQuery),
    /// [`Query::compare`].
    Compare(CompareQuery),
    /// [`Query::distinguish`]: a sweep rendered as its distinguish view
    /// ([`SweepQuery::run_distinguish`]).
    Distinguish(SweepQuery),
    /// [`Query::analyze`].
    Analyze(AnalyzeQuery),
    /// [`Query::synth`] or [`Query::synth_matrix`].
    Synth(SynthQuery),
    /// [`Query::check`].
    Check(CheckQuery),
    /// [`Query::suite`].
    Suite(SuiteQuery),
    /// [`Query::catalog`].
    Catalog,
    /// [`Query::figures`].
    Figures(FigureSelection),
}

/// What executing a [`QuerySpec`] produced: the report (render it in any
/// [`Format`]) plus, for engine-driven kinds, the sweep counters a
/// service aggregates into its `/statsz` view.
pub struct WireOutcome {
    /// The typed report, behind the common render trait.
    pub report: Box<dyn Render>,
    /// Engine counters, when the query ran the sweep engine.
    pub stats: Option<SweepStats>,
}

impl QuerySpec {
    /// The stable kind name (`sweep`, `compare`, ...), matching the
    /// `query` field that selects it on the wire.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            QuerySpec::Sweep(_) => "sweep",
            QuerySpec::Compare(_) => "compare",
            QuerySpec::Distinguish(_) => "distinguish",
            QuerySpec::Analyze(_) => "analyze",
            QuerySpec::Synth(query) => match query.mode {
                SynthMode::Pair { .. } => "synth",
                SynthMode::Matrix(_) => "synth_matrix",
            },
            QuerySpec::Check(_) => "check",
            QuerySpec::Suite(_) => "suite",
            QuerySpec::Catalog => "catalog",
            QuerySpec::Figures(_) => "figures",
        }
    }

    /// Parses the query portion of a request document.
    ///
    /// # Errors
    ///
    /// As for [`WireRequest::parse`].
    pub fn from_json(doc: &Json) -> Result<QuerySpec, QueryError> {
        let pairs = expect_object(doc, "request")?;
        let kind = as_str(
            get(pairs, "query").ok_or_else(|| invalid("request is missing `query`"))?,
            "query",
        )?;
        match kind {
            "sweep" => parse_sweep(pairs),
            "compare" => parse_compare(pairs),
            "distinguish" => parse_distinguish(pairs),
            "analyze" => parse_analyze(pairs),
            "synth" => parse_synth(pairs),
            "synth_matrix" => parse_synth_matrix(pairs),
            "check" => parse_check(pairs),
            "suite" => parse_suite(pairs),
            "catalog" => {
                check_fields(pairs, &[])?;
                Ok(QuerySpec::Catalog)
            }
            "figures" => parse_figures(pairs),
            other => Err(invalid(format!(
                "unknown query kind `{other}`; try sweep|compare|distinguish|analyze|\
                 synth|synth_matrix|check|suite|catalog|figures"
            ))),
        }
    }

    /// Executes the query. `shared` is the runner's process-wide
    /// [`VerdictCache`], used by the sweep-running kinds unless the
    /// request said `"cache": false`; with no shared cache,
    /// `"cache": true` builds a fresh one (the CLI's `--cache` semantics).
    ///
    /// # Errors
    ///
    /// Whatever the underlying query's `run` reports — unresolvable
    /// models, bad bounds, litmus text that fails to parse.
    pub fn run(&self, shared: Option<&Arc<VerdictCache>>) -> Result<WireOutcome, QueryError> {
        let shared = shared.map(Arc::as_ref);
        let (report, stats): (Box<dyn Render>, _) = match self.clone() {
            QuerySpec::Sweep(query) => {
                let report = query.run_with(shared)?;
                let stats = report.stats;
                (Box::new(report), Some(stats))
            }
            QuerySpec::Distinguish(query) => {
                let report = query.distinguish_with(shared)?;
                let stats = report.sweep.stats;
                (Box::new(report), Some(stats))
            }
            QuerySpec::Compare(query) => (Box::new(query.run()?), None),
            QuerySpec::Analyze(query) => (Box::new(query.run()?), None),
            QuerySpec::Synth(query) => (Box::new(query.run()?), None),
            QuerySpec::Check(query) => (Box::new(query.run()?), None),
            QuerySpec::Suite(query) => (Box::new(query.run()), None),
            QuerySpec::Catalog => (Box::new(Query::catalog()), None),
            QuerySpec::Figures(selection) => (Box::new(Query::figures(selection)), None),
        };
        Ok(WireOutcome { report, stats })
    }
}

// ---------------------------------------------------------------------------
// Per-kind field parsing: start from the builder, override named fields.

/// The fields every request document may carry regardless of kind.
const COMMON_FIELDS: [&str; 2] = ["query", "format"];

/// Overwrites `slot` when the request named the field.
fn set<T>(slot: &mut T, value: Option<T>) {
    if let Some(value) = value {
        *slot = value;
    }
}

fn parse_sweep(pairs: &[(String, Json)]) -> Result<QuerySpec, QueryError> {
    check_fields(
        pairs,
        &[
            "models",
            "tests",
            "checker",
            "engine",
            "cache",
            "warm_figure4_demo",
        ],
    )?;
    let mut query = Query::sweep();
    set(&mut query.models, parse_models(pairs)?);
    set(&mut query.source, parse_tests(pairs)?);
    set(&mut query.checker, parse_checker(pairs)?);
    parse_engine(pairs, &mut query.engine).map_err(under("engine"))?;
    set(&mut query.cache, opt_bool(pairs, "cache")?.map(Some));
    set(
        &mut query.warm_figure4_demo,
        opt_bool(pairs, "warm_figure4_demo")?,
    );
    Ok(QuerySpec::Sweep(query))
}

fn parse_compare(pairs: &[(String, Json)]) -> Result<QuerySpec, QueryError> {
    check_fields(pairs, &["left", "right", "with_deps"])?;
    let mut query = Query::compare(required_str(pairs, "left")?, required_str(pairs, "right")?);
    set(&mut query.with_deps, opt_bool(pairs, "with_deps")?);
    Ok(QuerySpec::Compare(query))
}

fn parse_distinguish(pairs: &[(String, Json)]) -> Result<QuerySpec, QueryError> {
    check_fields(
        pairs,
        &["models", "with_deps", "checker", "engine", "cache"],
    )?;
    let mut query = Query::distinguish();
    set(&mut query.models, parse_models(pairs)?);
    set(
        &mut query.source,
        opt_bool(pairs, "with_deps")?.map(|with_deps| TestSource::TemplateSuite { with_deps }),
    );
    set(&mut query.checker, parse_checker(pairs)?);
    parse_engine(pairs, &mut query.engine).map_err(under("engine"))?;
    set(&mut query.cache, opt_bool(pairs, "cache")?.map(Some));
    Ok(QuerySpec::Distinguish(query))
}

fn parse_analyze(pairs: &[(String, Json)]) -> Result<QuerySpec, QueryError> {
    check_fields(pairs, &["models", "tests"])?;
    let mut query = Query::analyze();
    set(&mut query.models, parse_models(pairs)?);
    set(&mut query.tests, parse_tests(pairs)?.map(Some));
    if matches!(query.tests, Some(TestSource::Stream { .. })) {
        return Err(invalid(
            "analyze lints a materializable test source, not a stream",
        ));
    }
    Ok(QuerySpec::Analyze(query))
}

fn parse_synth(pairs: &[(String, Json)]) -> Result<QuerySpec, QueryError> {
    check_fields(pairs, &["left", "right", "bounds", "max_size", "verbose"])?;
    let query = Query::synth(required_str(pairs, "left")?, required_str(pairs, "right")?);
    parse_synth_options(pairs, query)
}

fn parse_synth_matrix(pairs: &[(String, Json)]) -> Result<QuerySpec, QueryError> {
    check_fields(pairs, &["models", "bounds", "max_size", "verbose"])?;
    let query = Query::synth_matrix(parse_models(pairs)?.unwrap_or(ModelSpec::Figure4));
    parse_synth_options(pairs, query)
}

/// The fields `synth` and `synth_matrix` share: the search box, the
/// length cap (checked against that box) and verbosity.
fn parse_synth_options(
    pairs: &[(String, Json)],
    mut query: SynthQuery,
) -> Result<QuerySpec, QueryError> {
    if let Some(value) = get(pairs, "bounds") {
        let inner = expect_object(value, "bounds")?;
        check_named_fields(
            inner,
            "bounds",
            &["max_accesses", "max_locs", "fences", "deps"],
        )?;
        parse_space(inner, "bounds", &mut query.bounds).map_err(under("bounds"))?;
    }
    if let Some(n) = opt_int(pairs, "max_size")? {
        let range = query.bounds.min_total()..=query.bounds.max_total();
        let size = in_range(n, range, "max_size", "max_size".into(), " for these bounds")?;
        query.max_size = Some(size);
    }
    set(&mut query.verbose, opt_bool(pairs, "verbose")?);
    Ok(QuerySpec::Synth(query))
}

fn parse_check(pairs: &[(String, Json)]) -> Result<QuerySpec, QueryError> {
    check_fields(pairs, &["model", "tests", "checker", "witness"])?;
    let source = parse_tests(pairs)?.ok_or_else(|| invalid("check requires `tests`"))?;
    if matches!(source, TestSource::Stream { .. }) {
        return Err(invalid(
            "check needs a materializable test source, not a stream",
        ));
    }
    let mut query = Query::check(required_str(pairs, "model")?, source);
    set(&mut query.checker, parse_checker(pairs)?);
    set(&mut query.witness, opt_bool(pairs, "witness")?);
    Ok(QuerySpec::Check(query))
}

fn parse_suite(pairs: &[(String, Json)]) -> Result<QuerySpec, QueryError> {
    check_fields(pairs, &["with_deps", "full"])?;
    let mut query = Query::suite(opt_bool(pairs, "with_deps")?.unwrap_or(true));
    set(&mut query.full, opt_bool(pairs, "full")?);
    Ok(QuerySpec::Suite(query))
}

fn parse_figures(pairs: &[(String, Json)]) -> Result<QuerySpec, QueryError> {
    check_fields(pairs, &["which"])?;
    let which = get(pairs, "which").map_or(Ok("all"), |v| as_str(v, "which"))?;
    let selection = FigureSelection::from_name(which)
        .ok_or_else(|| invalid(format!("unknown figure `{which}`")))?;
    Ok(QuerySpec::Figures(selection))
}

// ---------------------------------------------------------------------------
// Shared field parsers: `None` when the request leaves the field out.

fn parse_models(pairs: &[(String, Json)]) -> Result<Option<ModelSpec>, QueryError> {
    match get(pairs, "models") {
        None => Ok(None),
        Some(Json::Str(spec)) => Ok(Some(ModelSpec::parse(spec))),
        Some(Json::Array(items)) => {
            let names: Vec<String> = items
                .iter()
                .map(|item| as_str(item, "models[]").map(str::to_string))
                .collect::<Result<_, _>>()?;
            Ok(Some(ModelSpec::List(names)))
        }
        Some(_) => Err(invalid(
            "`models` must be a set name (figure4|90|named|comma-list) or an array of names",
        )),
    }
}

fn parse_tests(pairs: &[(String, Json)]) -> Result<Option<TestSource>, QueryError> {
    get(pairs, "tests").map(parse_source).transpose()
}

fn parse_source(value: &Json) -> Result<TestSource, QueryError> {
    match value {
        Json::Str(name) => match name.as_str() {
            "catalog" => Ok(TestSource::Catalog),
            "template_suite" => Ok(TestSource::TemplateSuite { with_deps: false }),
            other => Err(invalid(format!(
                "unknown test source `{other}`; try catalog, template_suite, \
                 or an object form (template_suite/stream/inline)"
            ))),
        },
        Json::Object(pairs) => {
            let [(key, body)] = pairs.as_slice() else {
                return Err(invalid(
                    "a test-source object must have exactly one field \
                     (template_suite, stream or inline)",
                ));
            };
            match key.as_str() {
                "template_suite" => {
                    let inner = expect_object(body, "tests.template_suite")?;
                    check_named_fields(inner, "tests.template_suite", &["with_deps"])?;
                    Ok(TestSource::TemplateSuite {
                        with_deps: opt_bool(inner, "with_deps")?.unwrap_or(false),
                    })
                }
                "stream" => parse_stream(body).map_err(under("tests.stream")),
                "inline" => Ok(TestSource::Inline(
                    as_str(body, "tests.inline")?.to_string(),
                )),
                other => Err(invalid(format!(
                    "unknown test source `{other}`; the wire format has no file-backed \
                     sources — use inline litmus text"
                ))),
            }
        }
        _ => Err(invalid("`tests` must be a source name or a source object")),
    }
}

fn parse_stream(body: &Json) -> Result<TestSource, QueryError> {
    let inner = expect_object(body, "tests.stream")?;
    check_named_fields(
        inner,
        "tests.stream",
        &[
            "max_accesses",
            "max_locs",
            "fences",
            "deps",
            "limit",
            "shard",
        ],
    )?;
    let mut bounds = StreamBounds::default();
    parse_space(inner, "stream", &mut bounds)?;
    let limit = opt_positive(inner, "limit", "stream limit")?;
    let shard = match get(inner, "shard") {
        None => None,
        Some(v) => Some(
            as_str(v, "tests.stream.shard")?
                .parse::<Shard>()
                .map_err(|e| bad_value("shard", "stream shard:", e))?,
        ),
    };
    Ok(TestSource::Stream {
        bounds,
        limit,
        shard,
    })
}

/// The bounded-space fields stream sources and synth boxes share:
/// accesses per thread and locations, then fences and dependencies.
fn parse_space(
    inner: &[(String, Json)],
    what: &str,
    bounds: &mut StreamBounds,
) -> Result<(), QueryError> {
    if let Some(n) = opt_int(inner, "max_accesses")? {
        let label = format!("{what} max_accesses");
        bounds.max_accesses_per_thread = in_range(n, 1..=4, "max_accesses", label, "")?;
    }
    if let Some(n) = opt_int(inner, "max_locs")? {
        bounds.max_locs = in_range(n, 1..=255, "max_locs", format!("{what} max_locs"), "")?;
    }
    set(&mut bounds.include_fences, opt_bool(inner, "fences")?);
    set(&mut bounds.include_deps, opt_bool(inner, "deps")?);
    Ok(())
}

fn parse_checker(pairs: &[(String, Json)]) -> Result<Option<CheckerKind>, QueryError> {
    let Some(value) = get(pairs, "checker") else {
        return Ok(None);
    };
    let name = as_str(value, "checker")?;
    CheckerKind::from_name(name).map(Some).ok_or_else(|| {
        let known: Vec<&str> = CheckerKind::ALL.iter().map(|k| k.name()).collect();
        invalid(format!(
            "unknown checker `{name}`; try one of {}",
            known.join("/")
        ))
    })
}

fn parse_engine(pairs: &[(String, Json)], config: &mut EngineConfig) -> Result<(), QueryError> {
    let Some(value) = get(pairs, "engine") else {
        return Ok(());
    };
    let inner = expect_object(value, "engine")?;
    check_named_fields(inner, "engine", &["jobs", "stream_chunk"])?;
    set(
        &mut config.jobs,
        opt_positive(inner, "jobs", "engine jobs")?.map(Some),
    );
    set(
        &mut config.stream_chunk,
        opt_positive(inner, "stream_chunk", "engine stream_chunk")?,
    );
    Ok(())
}

// ---------------------------------------------------------------------------
// JSON plumbing: strict field checks and typed getters.

fn invalid(message: impl Into<String>) -> QueryError {
    QueryError::InvalidSpec(message.into())
}

/// A value error on the field `field` (a key here; [`under`] roots it).
fn bad_value(field: &str, label: impl Into<String>, problem: impl Into<String>) -> QueryError {
    QueryError::BadValue {
        field: field.to_string(),
        label: label.into(),
        problem: problem.into(),
    }
}

/// Roots the path of a value error raised inside the sub-object at `path`.
fn under(path: &'static str) -> impl Fn(QueryError) -> QueryError {
    move |mut err| {
        if let QueryError::BadValue { field, .. } = &mut err {
            field.insert_str(0, &format!("{path}."));
        }
        err
    }
}

fn expect_object<'a>(value: &'a Json, what: &str) -> Result<&'a [(String, Json)], QueryError> {
    value
        .as_object()
        .ok_or_else(|| invalid(format!("{what} must be a JSON object")))
}

/// Rejects fields outside `allowed` + the common envelope fields.
fn check_fields(pairs: &[(String, Json)], allowed: &[&str]) -> Result<(), QueryError> {
    for (key, _) in pairs {
        if !allowed.contains(&key.as_str()) && !COMMON_FIELDS.contains(&key.as_str()) {
            return Err(invalid(format!("unknown request field `{key}`")));
        }
    }
    Ok(())
}

/// Rejects fields of a named sub-object outside `allowed`.
fn check_named_fields(
    pairs: &[(String, Json)],
    what: &str,
    allowed: &[&str],
) -> Result<(), QueryError> {
    for (key, _) in pairs {
        if !allowed.contains(&key.as_str()) {
            return Err(invalid(format!("unknown {what} field `{key}`")));
        }
    }
    Ok(())
}

fn get<'a>(pairs: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_str<'a>(value: &'a Json, what: &str) -> Result<&'a str, QueryError> {
    value
        .as_str()
        .ok_or_else(|| invalid(format!("`{what}` must be a string")))
}

fn required_str(pairs: &[(String, Json)], key: &str) -> Result<String, QueryError> {
    get(pairs, key)
        .ok_or_else(|| invalid(format!("request is missing `{key}`")))
        .and_then(|v| as_str(v, key))
        .map(str::to_string)
}

fn opt_bool(pairs: &[(String, Json)], key: &str) -> Result<Option<bool>, QueryError> {
    match get(pairs, key) {
        None => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| invalid(format!("`{key}` must be a boolean"))),
    }
}

fn opt_int(pairs: &[(String, Json)], key: &str) -> Result<Option<i64>, QueryError> {
    match get(pairs, key) {
        None => Ok(None),
        Some(v) => v
            .as_i64()
            .map(Some)
            .ok_or_else(|| bad_value(key, format!("`{key}`"), "must be an integer")),
    }
}

/// `n` as a `T` inside `range`, or a value error on `key` that names the
/// range (`{label} needs 1..=4{note}, got 9`).
fn in_range<T>(
    n: i64,
    range: RangeInclusive<T>,
    key: &str,
    label: String,
    note: &str,
) -> Result<T, QueryError>
where
    T: TryFrom<i64> + PartialOrd + std::fmt::Display,
{
    T::try_from(n)
        .ok()
        .filter(|v| range.contains(v))
        .ok_or_else(|| {
            let (lo, hi) = (range.start(), range.end());
            bad_value(key, label, format!("needs {lo}..={hi}{note}, got {n}"))
        })
}

fn opt_positive(
    pairs: &[(String, Json)],
    key: &str,
    what: &str,
) -> Result<Option<usize>, QueryError> {
    opt_int(pairs, key)?
        .map(|n| {
            usize::try_from(n)
                .ok()
                .filter(|&n| n >= 1)
                .ok_or_else(|| bad_value(key, what, format!("needs a positive integer, got {n}")))
        })
        .transpose()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_json(text: &str) -> String {
        let request = WireRequest::parse(text).expect("request parses");
        let outcome = request.spec.run(None).expect("request runs");
        outcome.report.render(request.format).expect("renders")
    }

    #[test]
    fn minimal_requests_of_every_kind_parse() {
        for (text, kind) in [
            (r#"{"query": "sweep"}"#, "sweep"),
            (r#"{"query": "compare", "left": "SC", "right": "TSO"}"#, "compare"),
            (r#"{"query": "distinguish"}"#, "distinguish"),
            (r#"{"query": "analyze", "models": ["SC", "TSO"]}"#, "analyze"),
            (r#"{"query": "synth", "left": "SC", "right": "TSO"}"#, "synth"),
            (r#"{"query": "synth_matrix", "models": ["SC", "TSO"]}"#, "synth_matrix"),
            (
                r#"{"query": "check", "model": "SC", "tests": "catalog"}"#,
                "check",
            ),
            (r#"{"query": "suite"}"#, "suite"),
            (r#"{"query": "catalog"}"#, "catalog"),
            (r#"{"query": "figures", "which": "fig3"}"#, "figures"),
        ] {
            let request = WireRequest::parse(text).expect(text);
            assert_eq!(request.spec.kind(), kind, "{text}");
            assert_eq!(request.format, Format::Json, "{text}");
        }
    }

    #[test]
    fn wire_round_trip_matches_the_builder_path() {
        let body = run_json(
            r#"{"query": "sweep", "models": ["SC", "TSO"], "tests": "catalog",
                "engine": {"jobs": 1}}"#,
        );
        let direct = Query::sweep()
            .models(ModelSpec::List(vec!["SC".into(), "TSO".into()]))
            .tests(TestSource::Catalog)
            .engine(EngineConfig {
                jobs: Some(1),
                ..EngineConfig::default()
            })
            .run()
            .unwrap();
        let mut served = Json::parse(&body).unwrap();
        let mut expected = Json::parse(&direct.render(Format::Json).unwrap()).unwrap();
        served.strip_keys(&["elapsed_ms", "timings"]);
        expected.strip_keys(&["elapsed_ms", "timings"]);
        assert_eq!(served, expected);
    }

    #[test]
    fn formats_and_defaults_resolve() {
        let request = WireRequest::parse(
            r#"{"query": "suite", "format": "text", "with_deps": false, "full": true}"#,
        )
        .unwrap();
        assert_eq!(request.format, Format::Text);
        let QuerySpec::Suite(spec) = &request.spec else {
            panic!("expected a suite spec");
        };
        assert!(!spec.with_deps);
        assert!(spec.full);
    }

    #[test]
    fn stream_sources_parse_with_bounds() {
        let request = WireRequest::parse(
            r#"{"query": "sweep",
                "tests": {"stream": {"max_accesses": 2, "max_locs": 2, "fences": true,
                                     "limit": 50, "shard": "1/4"}}}"#,
        )
        .unwrap();
        let QuerySpec::Sweep(spec) = &request.spec else {
            panic!("expected a sweep spec");
        };
        let TestSource::Stream { bounds, limit, shard } = &spec.source else {
            panic!("expected a stream source");
        };
        assert_eq!(bounds.max_accesses_per_thread, 2);
        assert_eq!(bounds.max_locs, 2);
        assert!(bounds.include_fences);
        assert!(!bounds.include_deps);
        assert_eq!(*limit, Some(50));
        assert_eq!(shard.map(|s| (s.index(), s.count())), Some((1, 4)));
    }

    #[test]
    fn malformed_requests_are_usage_errors() {
        for bad in [
            "not json at all",
            "[1, 2, 3]",
            r#"{"format": "json"}"#,
            r#"{"query": "teleport"}"#,
            r#"{"query": "sweep", "warp": 9}"#,
            r#"{"query": "sweep", "models": 7}"#,
            r#"{"query": "sweep", "tests": {"file": "/etc/passwd"}}"#,
            r#"{"query": "sweep", "tests": {"stream": {"max_accesses": 99}}}"#,
            r#"{"query": "sweep", "tests": {"stream": {"shard": "3/2"}}}"#,
            r#"{"query": "sweep", "tests": {"stream": {"shard": 2}}}"#,
            r#"{"query": "sweep", "tests": {"stream": {"shard": "banana"}}}"#,
            r#"{"query": "sweep", "engine": {"jobs": 0}}"#,
            r#"{"query": "sweep", "engine": {"jobs": "many"}}"#,
            r#"{"query": "distinguish", "engine": {"prefilter": false}}"#,
            r#"{"query": "sweep", "checker": "oracle"}"#,
            r#"{"query": "sweep", "checker": "monolithic"}"#,
            r#"{"query": "sweep", "format": "yaml"}"#,
            r#"{"query": "compare", "left": "SC"}"#,
            r#"{"query": "compare", "left": "SC", "right": 4}"#,
            r#"{"query": "analyze", "models": 7}"#,
            r#"{"query": "analyze", "tests": {"stream": {}}}"#,
            r#"{"query": "analyze", "checker": "sat"}"#,
            r#"{"query": "check", "model": "SC"}"#,
            r#"{"query": "check", "model": "SC", "tests": {"stream": {}}}"#,
            r#"{"query": "synth", "left": "SC", "right": "TSO", "max_size": 99}"#,
            r#"{"query": "figures", "which": "fig9"}"#,
            r#"{"query": "catalog", "extra": true}"#,
        ] {
            let err = WireRequest::parse(bad).expect_err(bad);
            assert!(err.is_usage(), "`{bad}` must be a usage error, got {err}");
        }
    }

    #[test]
    fn engine_canonicalize_is_an_unknown_field() {
        for kind in ["sweep", "distinguish"] {
            let text = format!(r#"{{"query": "{kind}", "engine": {{"canonicalize": true}}}}"#);
            let err = WireRequest::parse(&text).expect_err(&text);
            assert!(err.is_usage(), "{text}: {err}");
            assert_eq!(err.to_string(), "unknown engine field `canonicalize`", "{text}");
        }
    }

    #[test]
    fn value_errors_carry_the_field_path() {
        for (text, field, message) in [
            (
                r#"{"query": "sweep", "tests": {"stream": {"limit": 0}}}"#,
                "tests.stream.limit",
                "stream limit needs a positive integer, got 0",
            ),
            (
                r#"{"query": "sweep", "tests": {"stream": {"shard": "2/2"}}}"#,
                "tests.stream.shard",
                r#"stream shard: shard must be i/n with i < n, got "2/2""#,
            ),
            (
                r#"{"query": "distinguish", "engine": {"jobs": "many"}}"#,
                "engine.jobs",
                "`jobs` must be an integer",
            ),
            (
                r#"{"query": "synth_matrix", "bounds": {"max_locs": 0}}"#,
                "bounds.max_locs",
                "bounds max_locs needs 1..=255, got 0",
            ),
            (
                r#"{"query": "synth", "left": "SC", "right": "TSO", "max_size": 99}"#,
                "max_size",
                "max_size needs 2..=6 for these bounds, got 99",
            ),
        ] {
            let err = WireRequest::parse(text).expect_err(text);
            assert_eq!(err.to_string(), message, "{text}");
            let QueryError::BadValue { field: path, .. } = &err else {
                panic!("{text}: expected a value error, got {err:?}");
            };
            assert_eq!(path, field, "{text}");
        }
    }

    #[test]
    fn shared_cache_is_honoured_unless_refused() {
        let cache = Arc::new(VerdictCache::new());
        let request = WireRequest::parse(
            r#"{"query": "sweep", "models": ["SC", "TSO"], "tests": "catalog",
                "engine": {"jobs": 1}}"#,
        )
        .unwrap();
        let _ = request.spec.run(Some(&cache)).unwrap();
        assert!(!cache.is_empty(), "the shared cache must be populated");
        let warm_before = cache.hits();
        let _ = request.spec.run(Some(&cache)).unwrap();
        assert!(cache.hits() > warm_before, "a re-run must hit the shared cache");

        // "cache": false opts out of the shared cache entirely.
        let refused = WireRequest::parse(
            r#"{"query": "sweep", "models": ["SC", "TSO"], "tests": "catalog",
                "cache": false, "engine": {"jobs": 1}}"#,
        )
        .unwrap();
        let len_before = cache.len();
        let hits_before = cache.hits();
        let _ = refused.spec.run(Some(&cache)).unwrap();
        assert_eq!(cache.len(), len_before);
        assert_eq!(cache.hits(), hits_before);
    }

    #[test]
    fn distinguish_rejects_a_lone_model_before_checking_anything() {
        let cache = Arc::new(VerdictCache::new());
        let request = WireRequest::parse(r#"{"query": "distinguish", "models": ["SC"]}"#).unwrap();
        let err = request.spec.run(Some(&cache)).err().expect("one model");
        assert!(err.is_usage(), "{err}");
        assert!(cache.is_empty(), "no checker ran");

        // A streamed source has no minimal set to read off.
        let QuerySpec::Distinguish(mut query) = request.spec else {
            panic!("expected distinguish");
        };
        query.models = ModelSpec::List(vec!["SC".into(), "TSO".into()]);
        query.source = TestSource::Stream {
            bounds: StreamBounds::default(),
            limit: Some(1),
            shard: None,
        };
        let err = query.distinguish_with(Some(&cache)).expect_err("a stream");
        assert!(err.is_usage(), "{err}");
        assert!(cache.is_empty(), "no checker ran");
    }
}
