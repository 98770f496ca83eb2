//! Where a query's litmus tests come from.

use std::path::PathBuf;

use mcm_core::parse::parse_litmus_file;
use mcm_core::LitmusTest;
use mcm_gen::{Shard, StreamBounds};
use mcm_models::catalog;

use crate::error::QueryError;

/// A declarative test-suite choice — the second leg of a query.
///
/// Materialized sources ([`TestSource::load`]) produce a `Vec`; the
/// [`TestSource::Stream`] variant instead drives the bounded-memory
/// streaming engine, which never materializes the raw space.
#[derive(Clone, Debug)]
pub enum TestSource {
    /// The Theorem 1 template suite extended with the paper's own
    /// Figure 1 / Figure 3 tests (the §4.2 comparison suite).
    TemplateSuite {
        /// Include the data-dependency template variants.
        with_deps: bool,
    },
    /// The canonical-first streamed enumeration of a bounded space —
    /// one orbit leader per §2.3 symmetry class, never materialized.
    Stream {
        /// The bounded box to enumerate.
        bounds: StreamBounds,
        /// Stop after this many leaders (`None` = exhaust the space).
        limit: Option<usize>,
        /// Sweep only stripe `i` of `n` (`--shard i/n`); `None` sweeps
        /// the whole stream. Shards of the same bounds partition the
        /// enumeration, so N processes can split a space by appending
        /// to one shared verdict log (`--store`).
        shard: Option<Shard>,
    },
    /// The built-in catalog: Test A, L1–L9 and the classic tests.
    Catalog,
    /// Every test of a `.litmus` file on disk.
    File(PathBuf),
    /// Every test of an in-memory `.litmus` document.
    Inline(String),
    /// Explicitly provided tests, used verbatim.
    Tests(Vec<LitmusTest>),
}

impl TestSource {
    /// Materializes the source into a test list.
    ///
    /// # Errors
    ///
    /// [`QueryError::Io`] when a file cannot be read,
    /// [`QueryError::Parse`] when litmus source fails to parse or
    /// contains no tests, and [`QueryError::InvalidSpec`] for
    /// [`TestSource::Stream`] — streamed enumerations are consumed by the
    /// streaming sweep engine, not loaded wholesale.
    pub fn load(&self) -> Result<Vec<LitmusTest>, QueryError> {
        match self {
            TestSource::TemplateSuite { with_deps } => {
                Ok(mcm_explore::paper::comparison_tests(*with_deps))
            }
            TestSource::Stream { .. } => Err(QueryError::InvalidSpec(
                "a streamed source cannot be materialized; run it through a sweep query"
                    .to_string(),
            )),
            TestSource::Catalog => Ok(catalog::all_tests()),
            TestSource::File(path) => {
                let display = path.display().to_string();
                let text = std::fs::read_to_string(path)
                    .map_err(|e| QueryError::Io {
                        path: display.clone(),
                        message: e.to_string(),
                    })?;
                parse_named(&text, &display)
            }
            TestSource::Inline(text) => parse_named(text, "<inline>"),
            TestSource::Tests(tests) => Ok(tests.clone()),
        }
    }
}

fn parse_named(text: &str, origin: &str) -> Result<Vec<LitmusTest>, QueryError> {
    let tests = parse_litmus_file(text).map_err(|e| QueryError::Parse(e.to_string()))?;
    if tests.is_empty() {
        return Err(QueryError::Parse(format!("{origin} contains no tests")));
    }
    Ok(tests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn materialized_sources_load() {
        assert_eq!(TestSource::Catalog.load().unwrap().len(), 15);
        // 70 materialized templates plus the 10 catalog paper tests.
        assert_eq!(
            TestSource::TemplateSuite { with_deps: false }
                .load()
                .unwrap()
                .len(),
            80
        );
        let sb = "test SB {\n thread { write X = 1; read Y -> r1 }\n \
                  thread { write Y = 1; read X -> r2 }\n \
                  outcome { T1:r1 = 0; T2:r2 = 0 }\n}\n";
        let tests = TestSource::Inline(sb.to_string()).load().unwrap();
        assert_eq!(tests.len(), 1);
        assert_eq!(tests[0].name(), "SB");
        assert_eq!(
            TestSource::Tests(tests.clone()).load().unwrap()[0].name(),
            "SB"
        );
    }

    #[test]
    fn failures_classify_correctly() {
        let missing = TestSource::File(PathBuf::from("/no/such/file.litmus"))
            .load()
            .unwrap_err();
        assert!(!missing.is_usage(), "IO failures are run failures");
        let bad = TestSource::Inline("test Bad { thread { wibble } }".to_string())
            .load()
            .unwrap_err();
        assert!(bad.to_string().contains("wibble"));
        let empty = TestSource::Inline(String::new()).load().unwrap_err();
        assert!(empty.to_string().contains("no tests"));
        let stream = TestSource::Stream {
            bounds: StreamBounds::default(),
            limit: None,
            shard: None,
        }
        .load()
        .unwrap_err();
        assert!(stream.is_usage());
    }
}
