//! The sweep report: a full models × tests exploration with lattice,
//! certificates and layer-by-layer engine counters.

use std::fmt::Write as _;
use std::time::Duration;

use mcm_core::json::{Json, Writer};
use mcm_core::LitmusTest;
use mcm_explore::distinguish::MinimalSet;
use mcm_explore::dot::{render_dot, DotOptions};
use mcm_explore::{report, CacheStats, Exploration, Lattice, SweepStats};
use mcm_gen::StreamBounds;
use mcm_store::StoreStats;

use crate::render::{duration_json, duration_text, envelope, Render};

/// What the disk-backed verdict store did during a query
/// (`--store` / `mcm serve --store-dir`): the log path and the store's
/// counters, whose fields read through (`summary.appended`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreSummary {
    /// The verdict-log path.
    pub path: String,
    /// The store's counters after the query.
    pub stats: StoreStats,
}

impl std::ops::Deref for StoreSummary {
    type Target = StoreStats;

    fn deref(&self) -> &StoreStats {
        &self.stats
    }
}

impl StoreSummary {
    /// The report's `store` section: the path, then the counters.
    fn to_json(&self) -> Json {
        let mut fields = vec![("path".to_string(), Json::from(self.path.as_str()))];
        fields.extend(self.stats.json_fields());
        Json::Object(fields)
    }
}

impl std::fmt::Display for StoreSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "store: {} ({} hydrated, {} appended, {} bytes)",
            self.path, self.hydrated, self.appended, self.bytes,
        )
    }
}

/// Checkpointing activity of a streamed sweep (`--checkpoint` /
/// `--resume`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CheckpointSummary {
    /// The checkpoint-file path.
    pub path: String,
    /// Checkpoints saved (one per processed chunk).
    pub saves: u64,
    /// Save failures (counted, never fatal — the sweep continues).
    pub save_errors: u64,
    /// The stream cursor this run resumed from, when it did.
    pub resumed_at: Option<u64>,
}

/// The warm re-sweep demonstration: after a cached full-space sweep, the
/// Figure 4 subspace re-checks without a single checker call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WarmSummary {
    /// Wall-clock of the warm re-sweep.
    pub elapsed: Duration,
    /// Cache hits during the re-sweep.
    pub cache_hits: u64,
    /// Checker calls during the re-sweep (0 when fully warm).
    pub checker_calls: u64,
}

/// How a streamed sweep was bounded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamSummary {
    /// The enumerated box.
    pub bounds: StreamBounds,
    /// The leader-count cap, when one was requested.
    pub limit: Option<usize>,
    /// The stripe this sweep covered (`--shard i/n`), when sharded.
    pub shard: Option<mcm_gen::Shard>,
    /// Size of the raw (pre-canonicalization) space, when small enough
    /// to count by shape.
    pub raw_space: Option<u64>,
}

/// Everything a sweep query produced: the verdict matrix, the Figure-4
/// style lattice, equivalence data, the minimal distinguishing set (for
/// materialized suites) and the engine's work counters.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// The models × tests verdict matrix.
    pub exploration: Exploration,
    /// Layer-by-layer engine counters.
    pub stats: SweepStats,
    /// The Hasse diagram of model classes.
    pub lattice: Lattice,
    /// Pairs of equivalent models, by name.
    pub equivalent_pairs: Vec<(String, String)>,
    /// A minimum distinguishing set with SAT minimality certificate
    /// (materialized suites only).
    pub minimal_set: Option<MinimalSet>,
    /// Indices of the paper's nine tests within the suite (empty when the
    /// suite does not contain them).
    pub nine_test_indices: Vec<usize>,
    /// Whether L1–L9 alone distinguish every non-equivalent pair
    /// (materialized suites only).
    pub nine_tests_sufficient: Option<bool>,
    /// Cache totals, when the query ran with a verdict cache.
    pub cache: Option<CacheStats>,
    /// Disk-store activity, when the cache was backed by a verdict log.
    pub store: Option<StoreSummary>,
    /// Checkpointing activity, when a streamed sweep ran with
    /// `--checkpoint` (and possibly `--resume`).
    pub checkpoint: Option<CheckpointSummary>,
    /// The warm re-sweep demonstration, when requested and applicable.
    pub warm: Option<WarmSummary>,
    /// Stream bounds, when this was a streamed sweep.
    pub stream: Option<StreamSummary>,
    /// Per-checker latency percentiles observed during the sweep
    /// (`None` when obs was disabled). JSON-only: profiling data, not
    /// part of the human-readable story.
    pub timings: Option<crate::reports::Timings>,
    /// Wall-clock of the sweep: preparing the test source and running the
    /// engine. The lattice, minimal set and warm re-sweep come after it.
    pub elapsed: Duration,
}

impl SweepReport {
    fn cache_text(&self, out: &mut String) {
        if let Some(cache) = &self.cache {
            let _ = writeln!(out, "{cache}");
        }
        if let Some(store) = &self.store {
            let _ = writeln!(out, "{store}");
        }
        if let Some(ckpt) = &self.checkpoint {
            let resumed = match ckpt.resumed_at {
                Some(cursor) => format!(", resumed at leader {cursor}"),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "checkpoint: {} ({} saves{resumed})",
                ckpt.path, ckpt.saves,
            );
        }
    }

    fn streamed_text(&self, stream: &StreamSummary) -> String {
        let mut out = String::new();
        let bounds = &stream.bounds;
        let raw = match stream.raw_space {
            Some(count) => format!("{count} tests"),
            None => "too many tests to even count by shape".to_string(),
        };
        let shard = match &stream.shard {
            Some(shard) => format!(", shard {shard}"),
            None => String::new(),
        };
        let _ = writeln!(
            out,
            "streaming leaders: <= {} accesses/thread x {} threads, {} locs{}{}{shard} \
             (raw space: {raw}, never materialized) against {} models ...",
            bounds.max_accesses_per_thread,
            bounds.threads,
            bounds.max_locs,
            if bounds.include_fences { ", fences" } else { "" },
            if bounds.include_deps { ", deps" } else { "" },
            self.exploration.models.len(),
        );
        let _ = writeln!(
            out,
            "swept {} models x {} streamed leaders in {}",
            self.exploration.models.len(),
            self.exploration.tests.len(),
            duration_text(self.elapsed),
        );
        let _ = writeln!(out, "{}", report::streaming_summary(&self.stats));
        let _ = writeln!(
            out,
            "lattice: {} equivalence classes, {} covering edges",
            self.lattice.classes.len(),
            self.lattice.edges.len(),
        );
        let _ = writeln!(out, "equivalent pairs: {}", self.equivalent_pairs.len());
        for (a, b) in self.equivalent_pairs.iter().take(12) {
            let _ = writeln!(out, "  {a} == {b}");
        }
        if self.equivalent_pairs.len() > 12 {
            let _ = writeln!(out, "  ... and {} more", self.equivalent_pairs.len() - 12);
        }
        self.cache_text(&mut out);
        out
    }

    fn materialized_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "explored {} models against {} tests in {}",
            self.exploration.models.len(),
            self.exploration.tests.len(),
            duration_text(self.elapsed),
        );
        out.push_str(&report::sweep_stats_text(&self.stats));
        if let Some(warm) = &self.warm {
            let _ = writeln!(
                out,
                "warm re-sweep of the dependency-free subspace in {}: \
                 {} cache hits, {} checker calls",
                duration_text(warm.elapsed),
                warm.cache_hits,
                warm.checker_calls,
            );
        }
        self.cache_text(&mut out);
        let _ = writeln!(out, "equivalence classes: {}", self.lattice.classes.len());
        let _ = writeln!(out, "equivalent pairs: {}", self.equivalent_pairs.len());
        for (a, b) in &self.equivalent_pairs {
            let _ = writeln!(out, "  {a} == {b}");
        }
        if let Some(minimal) = &self.minimal_set {
            let names: Vec<&str> = minimal
                .tests
                .iter()
                .map(|&t| self.exploration.tests[t].name())
                .collect();
            let _ = writeln!(
                out,
                "minimum distinguishing set: {} tests (SAT-certified: {}): {names:?}",
                minimal.tests.len(),
                minimal.proved_minimum,
            );
        }
        if let Some(sufficient) = self.nine_tests_sufficient {
            let _ = writeln!(out, "paper's L1–L9 sufficient: {sufficient}");
        }
        out
    }

    fn test_name(&self, t: usize) -> &str {
        self.exploration.tests[t].name()
    }

    /// The class members of class `c`, by model name.
    fn class_names(&self, members: &[usize]) -> Json {
        Json::array_of(members, |&m| {
            Json::from(self.exploration.models[m].name())
        })
    }
}

/// JSON view of the engine counters, nested groups included.
pub(crate) fn stats_json(stats: &SweepStats) -> Json {
    let mut fields = stats.json_fields();
    fields.push(("batch".to_string(), stats.batch.to_json()));
    fields.push((
        "sat".to_string(),
        crate::render::counters_json(&stats.sat.counters()),
    ));
    Json::Object(fields)
}

fn checkpoint_json(checkpoint: &Option<CheckpointSummary>) -> Json {
    match checkpoint {
        None => Json::Null,
        Some(ckpt) => Json::object([
            ("path", Json::from(ckpt.path.as_str())),
            ("saves", Json::from(ckpt.saves)),
            ("save_errors", Json::from(ckpt.save_errors)),
            ("resumed_at", Json::from(ckpt.resumed_at)),
        ]),
    }
}

pub(crate) fn tests_names_json(tests: &[LitmusTest]) -> Json {
    Json::array_of(tests, |t| Json::from(t.name()))
}

impl Render for SweepReport {
    fn kind(&self) -> &'static str {
        "sweep"
    }

    fn text(&self) -> String {
        match &self.stream {
            Some(stream) => self.streamed_text(stream),
            None => self.materialized_text(),
        }
    }

    fn json_fields(&self) -> Vec<(String, Json)> {
        let verdicts = Json::array_of(&self.exploration.verdicts, |v| {
            Json::Array((0..v.len()).map(|t| Json::Bool(v.allowed(t))).collect())
        });
        self.fields(verdicts)
    }

    /// The document with its verdict matrix written row by row straight
    /// from the verdict bits: 90 models over 36,764 leaders are 3.3M cells,
    /// which as a tree cost more than the rest of the render.
    fn write_json(&self, writer: &mut Writer<'_>) {
        let mut fields = envelope(self.kind());
        fields.extend(self.fields(Json::Null));
        let verdicts = &self.exploration.verdicts;
        writer.object(0, fields.len(), |w, i| {
            let (key, value) = &fields[i];
            w.key(key);
            if key == VERDICTS {
                w.array(1, verdicts.len(), |w, m| {
                    let row = &verdicts[m];
                    w.array(2, row.len(), |w, t| w.value(&Json::Bool(row.allowed(t)), 3));
                });
            } else {
                w.value(value, 1);
            }
        });
    }

    fn csv(&self) -> Option<String> {
        Some(report::csv_matrix(&self.exploration))
    }

    fn dot(&self) -> Option<String> {
        Some(render_dot(
            &self.exploration,
            &self.lattice,
            &DotOptions {
                name: "models".to_string(),
                preferred_tests: self.nine_test_indices.clone(),
                ..DotOptions::default()
            },
        ))
    }
}

/// The key of the sweep document's verdict matrix.
const VERDICTS: &str = "verdicts";

impl SweepReport {
    /// The document's own fields in order, with `verdicts` as the value
    /// of the verdict matrix.
    fn fields(&self, verdicts: Json) -> Vec<(String, Json)> {
        let expl = &self.exploration;
        let models = Json::array_of(&expl.models, |m| Json::from(m.name()));
        let tests = tests_names_json(&expl.tests);
        let classes = Json::array_of(&self.lattice.classes, |c| self.class_names(&c.members));
        let edges = Json::array_of(&self.lattice.edges, |e| {
            let label = e
                .distinguishing
                .iter()
                .find(|t| self.nine_test_indices.contains(t))
                .or_else(|| e.distinguishing.first())
                .map(|&t| self.test_name(t));
            Json::object([
                ("weaker", Json::from(e.weaker)),
                ("stronger", Json::from(e.stronger)),
                ("label", Json::from(label)),
                (
                    "distinguishing_count",
                    Json::from(e.distinguishing.len()),
                ),
            ])
        });
        let minimal = match &self.minimal_set {
            None => Json::Null,
            Some(minimal) => Json::object([
                (
                    "tests",
                    Json::array_of(&minimal.tests, |&t| Json::from(self.test_name(t))),
                ),
                ("proved_minimum", Json::Bool(minimal.proved_minimum)),
            ]),
        };
        let warm = match &self.warm {
            None => Json::Null,
            Some(warm) => Json::object([
                ("elapsed_ms", duration_json(warm.elapsed)),
                ("cache_hits", Json::from(warm.cache_hits)),
                ("checker_calls", Json::from(warm.checker_calls)),
            ]),
        };
        let stream = match &self.stream {
            None => Json::Null,
            Some(stream) => Json::object([
                (
                    "max_accesses_per_thread",
                    Json::from(stream.bounds.max_accesses_per_thread),
                ),
                ("threads", Json::from(stream.bounds.threads)),
                ("max_locs", Json::from(u64::from(stream.bounds.max_locs))),
                ("include_fences", Json::Bool(stream.bounds.include_fences)),
                ("include_deps", Json::Bool(stream.bounds.include_deps)),
                ("limit", Json::from(stream.limit.map(|l| l as u64))),
                (
                    "shard",
                    match &stream.shard {
                        Some(shard) => Json::from(shard.to_string().as_str()),
                        None => Json::Null,
                    },
                ),
                ("raw_space", Json::from(stream.raw_space)),
            ]),
        };
        vec![
            ("models".to_string(), models),
            ("tests".to_string(), tests),
            (VERDICTS.to_string(), verdicts),
            ("stats".to_string(), stats_json(&self.stats)),
            ("classes".to_string(), classes),
            ("edges".to_string(), edges),
            (
                "equivalent_pairs".to_string(),
                Json::array_of(&self.equivalent_pairs, |(a, b)| {
                    Json::Array(vec![Json::from(a.as_str()), Json::from(b.as_str())])
                }),
            ),
            ("minimal_set".to_string(), minimal),
            (
                "nine_tests_sufficient".to_string(),
                Json::from(self.nine_tests_sufficient),
            ),
            (
                "cache".to_string(),
                self.cache.as_ref().map_or(Json::Null, CacheStats::to_json),
            ),
            (
                "store".to_string(),
                self.store
                    .as_ref()
                    .map_or(Json::Null, StoreSummary::to_json),
            ),
            ("checkpoint".to_string(), checkpoint_json(&self.checkpoint)),
            ("warm".to_string(), warm),
            ("stream".to_string(), stream),
            (
                "timings".to_string(),
                crate::reports::timings::timings_json(&self.timings),
            ),
            ("elapsed_ms".to_string(), duration_json(self.elapsed)),
        ]
    }
}
