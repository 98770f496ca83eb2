//! Property: the CLI is a wire client. A random query, spelled once as
//! `mcm` arguments (flag names) and once as a wire request document
//! (field names, with the CLI's own defaults written out), parses to the
//! same `QuerySpec` and output format — `mcm explore …` builds exactly the
//! query that POSTing the document to `mcm serve` builds.

use mcm_cli::CliError;
use mcm_query::wire::WireRequest;
use mcm_query::{Json, StreamBounds};
use proptest::prelude::*;

/// Model names for positional lists.
const NAMES: [&str; 5] = ["SC", "TSO", "PSO", "IBM370", "RMO"];

/// `--models` specs, each with whether some model observes dependencies
/// (which decides the template suite).
const SPECS: [(&str, bool); 5] = [
    ("figure4", false),
    ("90", true),
    ("named", true),
    ("SC,TSO", false),
    ("SC,RMO", true),
];

/// Draws choices from a fixed random tape.
struct Tape(Vec<u64>, usize);

impl Tape {
    fn pick(&mut self, n: usize) -> usize {
        self.1 += 1;
        (self.0[(self.1 - 1) % self.0.len()] % n as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.pick(2) == 1
    }

    fn maybe(&mut self, lo: usize, hi: usize) -> Option<usize> {
        self.coin().then(|| lo + self.pick(hi - lo + 1))
    }

    fn names(&mut self, min: usize) -> Vec<&'static str> {
        let mut names = NAMES.to_vec();
        names.truncate(min + self.pick(NAMES.len() - min + 1));
        let turn = self.pick(names.len());
        names.rotate_left(turn);
        names
    }
}

/// One query, spelled both ways.
struct Spelling {
    command: &'static str,
    positional: Vec<String>,
    /// Option groups (a flag, or a flag and its value), in any order.
    options: Vec<Vec<String>>,
    doc: Vec<(String, Json)>,
}

impl Spelling {
    fn new(command: &'static str, kind: &str) -> Self {
        Spelling {
            command,
            positional: Vec::new(),
            options: Vec::new(),
            doc: vec![
                ("query".into(), Json::from(kind)),
                ("format".into(), Json::from("text")),
            ],
        }
    }

    fn flag(&mut self, flag: &str) {
        self.options.push(vec![flag.to_string()]);
    }

    fn option(&mut self, flag: &str, value: impl ToString) {
        self.options.push(vec![flag.to_string(), value.to_string()]);
    }

    fn field(&mut self, key: &str, value: impl Into<Json>) {
        self.doc.push((key.to_string(), value.into()));
    }

    fn names(&mut self, names: &[&str]) -> Json {
        self.positional.extend(names.iter().map(|n| n.to_string()));
        Json::array_of(names, |&n| Json::from(n))
    }

    /// `--format`.
    fn format(&mut self, tape: &mut Tape) {
        if let Some(i) = tape.maybe(0, 3) {
            let format = ["text", "json", "csv", "dot"][i];
            self.option("--format", format);
            self.doc[1].1 = Json::from(format);
        }
    }

    /// `--checker` and the engine options.
    fn engine(&mut self, tape: &mut Tape) {
        if let Some(i) = tape.maybe(0, 1) {
            let checker = ["explicit", "sat"][i];
            self.option("--checker", checker);
            self.field("checker", checker);
        }
        if let Some(jobs) = tape.maybe(1, 4) {
            self.option("--jobs", jobs);
            self.field("engine", Json::object([("jobs", Json::from(jobs))]));
        }
    }

    /// The model space of `explore`, and of `distinguish` without names:
    /// `--models SPEC`, else 90 models (Figure 4 under `--no-deps`).
    /// Returns the spec and whether it observes dependencies.
    fn model_space(&mut self, tape: &mut Tape) -> (&'static str, bool) {
        match tape.maybe(0, SPECS.len() - 1) {
            Some(i) => {
                self.option("--models", SPECS[i].0);
                SPECS[i]
            }
            None if tape.coin() => {
                self.flag("--no-deps");
                ("figure4", false)
            }
            None => ("90", true),
        }
    }

    /// The CLI's arguments, options shuffled, positionals first.
    fn argv(&self, tape: &mut Tape) -> Vec<String> {
        let mut options = self.options.clone();
        let mut argv = self.positional.clone();
        while !options.is_empty() {
            argv.extend(options.remove(tape.pick(options.len())));
        }
        argv
    }
}

fn sweep(tape: &mut Tape) -> Spelling {
    let mut q = Spelling::new("explore", "sweep");
    let (spec, with_deps) = q.model_space(tape);
    q.field("models", spec);
    if tape.coin() {
        q.flag("--stream");
        let mut stream = Vec::new();
        for (flag, key, hi) in [
            ("--max-accesses", "max_accesses", 3),
            ("--max-locs", "max_locs", 3),
            ("--limit", "limit", 500),
        ] {
            if let Some(n) = tape.maybe(1, hi) {
                q.option(flag, n);
                stream.push((key, Json::from(n)));
            }
        }
        for (flag, key) in [("--fences", "fences"), ("--deps", "deps")] {
            if tape.coin() {
                q.flag(flag);
                stream.push((key, Json::Bool(true)));
            }
        }
        if let Some(count) = tape.maybe(1, 3) {
            let shard = format!("{}/{count}", tape.pick(count));
            q.option("--shard", &shard);
            stream.push(("shard", Json::from(shard)));
        }
        q.field("tests", Json::object([("stream", Json::object(stream))]));
    } else {
        let suite = Json::object([("with_deps", Json::Bool(with_deps))]);
        q.field("tests", Json::object([("template_suite", suite)]));
    }
    let cache = tape.coin();
    if cache {
        q.flag("--cache");
        q.field("cache", true);
    }
    q.field("warm_figure4_demo", cache && spec == "90");
    q.engine(tape);
    q
}

fn distinguish(tape: &mut Tape) -> Spelling {
    let mut q = Spelling::new("distinguish", "distinguish");
    if tape.coin() {
        let names = q.names(&tape.names(2));
        q.field("models", names);
        let no_deps = tape.coin();
        if no_deps {
            q.flag("--no-deps");
        }
        q.field("with_deps", !no_deps);
    } else {
        let (spec, with_deps) = q.model_space(tape);
        q.field("models", spec);
        q.field("with_deps", with_deps);
    }
    if tape.coin() {
        q.flag("--cache");
        q.field("cache", true);
    }
    q.engine(tape);
    q
}

fn synth(tape: &mut Tape) -> Spelling {
    let matrix = tape.coin();
    let mut q = Spelling::new("synth", if matrix { "synth_matrix" } else { "synth" });
    let mut bounds = StreamBounds::default();
    let mut box_fields = Vec::new();
    if let Some(n) = tape.maybe(1, 3) {
        q.option("--max-accesses", n);
        box_fields.push(("max_accesses", Json::from(n)));
        bounds.max_accesses_per_thread = n;
    }
    if let Some(n) = tape.maybe(1, 3) {
        q.option("--max-locs", n);
        box_fields.push(("max_locs", Json::from(n)));
        bounds.max_locs = n as u8;
    }
    for (flag, key, slot) in [
        ("--fences", "fences", &mut bounds.include_fences),
        ("--deps", "deps", &mut bounds.include_deps),
    ] {
        if tape.coin() {
            q.flag(flag);
            box_fields.push((key, Json::Bool(true)));
            *slot = true;
        }
    }
    if !box_fields.is_empty() {
        q.field("bounds", Json::object(box_fields));
    }
    if let Some(size) = tape.maybe(bounds.min_total(), bounds.max_total()) {
        q.option("--max-size", size);
        q.field("max_size", size);
    }
    if tape.coin() {
        q.flag("--verbose");
        q.field("verbose", true);
    }
    if matrix {
        q.flag("--matrix");
        let models = match tape.pick(3) {
            0 => q.names(&tape.names(2)),
            1 => {
                let spec = SPECS[tape.pick(SPECS.len())].0;
                q.option("--models", spec);
                Json::from(spec)
            }
            _ => Json::from(if bounds.include_deps { "90" } else { "figure4" }),
        };
        q.field("models", models);
    } else {
        let pair = tape.names(2);
        q.positional = vec![pair[0].to_string(), pair[1].to_string()];
        q.field("left", pair[0]);
        q.field("right", pair[1]);
    }
    q
}

fn compare(tape: &mut Tape) -> Spelling {
    let mut q = Spelling::new("compare", "compare");
    let pair = tape.names(2);
    q.positional = vec![pair[0].to_string(), pair[1].to_string()];
    q.field("left", pair[0]);
    q.field("right", pair[1]);
    if tape.coin() {
        q.flag("--no-deps");
        q.field("with_deps", false);
    }
    q
}

fn analyze(tape: &mut Tape) -> Spelling {
    let mut q = Spelling::new("analyze", "analyze");
    let models = match tape.pick(3) {
        0 => q.names(&tape.names(1)),
        1 => {
            let spec = SPECS[tape.pick(SPECS.len())].0;
            q.option("--models", spec);
            Json::from(spec)
        }
        _ => Json::from("90"),
    };
    q.field("models", models);
    q
}

fn suite(tape: &mut Tape) -> Spelling {
    let mut q = Spelling::new("suite", "suite");
    if tape.coin() {
        q.flag("--no-deps");
        q.field("with_deps", false);
    }
    if tape.coin() {
        q.flag("--print");
        q.field("full", true);
    }
    q
}

fn figures(tape: &mut Tape) -> Spelling {
    let mut q = Spelling::new("figures", "figures");
    let which = match tape.maybe(0, 5) {
        Some(i) => {
            let which = ["fig1", "fig2", "fig3", "fig4", "counts", "all"][i];
            q.positional.push(which.to_string());
            which
        }
        None => "all",
    };
    q.field("which", which);
    q
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn argv_and_wire_documents_build_the_same_query(
        tape in proptest::collection::vec(0u64..1 << 32, 64),
    ) {
        let mut tape = Tape(tape, 0);
        let build = [sweep, distinguish, synth, compare, analyze, suite, figures];
        let mut q = build[tape.pick(build.len())](&mut tape);
        q.format(&mut tape);
        let argv = q.argv(&mut tape);
        let doc = Json::Object(q.doc);
        let from_argv = mcm_cli::request(q.command, &argv)
            .map_err(|e| TestCaseError::fail(format!("mcm {} {argv:?}: {e:?}", q.command)))?;
        let from_doc = WireRequest::from_json(&doc)
            .map_err(|e| TestCaseError::fail(format!("{}: {e}", doc.compact())))?;
        prop_assert_eq!(
            format!("{:?}", from_argv.spec),
            format!("{:?}", from_doc.spec),
            "mcm {} {:?} vs {}", q.command, argv, doc.compact()
        );
        prop_assert_eq!(from_argv.format, from_doc.format);
    }
}

#[test]
fn value_errors_name_the_flag_typed() {
    for (argv, flag) in [
        (
            &["explore", "--stream", "--max-accesses", "9"][..],
            "--max-accesses",
        ),
        (
            &["explore", "--stream", "--max-locs", "0"][..],
            "--max-locs",
        ),
        (&["explore", "--stream", "--limit", "zero"][..], "--limit"),
        (&["explore", "--stream", "--shard", "2/2"][..], "--shard"),
        (&["explore", "--jobs", "0"][..], "--jobs"),
        (&["distinguish", "SC", "TSO", "--jobs", "1.5"][..], "--jobs"),
        (
            &["synth", "SC", "TSO", "--max-size", "99"][..],
            "--max-size",
        ),
        (
            &["synth", "SC", "TSO", "--max-accesses", "0"][..],
            "--max-accesses",
        ),
        (
            &["synth", "--matrix", "--max-locs", "300"][..],
            "--max-locs",
        ),
    ] {
        let args: Vec<String> = argv[1..].iter().map(|a| a.to_string()).collect();
        match mcm_cli::request(argv[0], &args) {
            Err(CliError::Usage(message)) => {
                assert!(
                    message.starts_with(&format!("{flag}: ")),
                    "{argv:?}: {message}"
                );
            }
            other => panic!("{argv:?} must be a usage error, got {other:?}"),
        }
    }
}
