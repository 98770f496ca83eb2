//! The [`Render`] trait: one report, four output formats.

use mcm_core::json::{Json, Writer};

use crate::error::QueryError;

/// Version stamp carried by every JSON document the query layer emits.
/// Bump when a report's field set changes incompatibly; the golden-file
/// tests pin the schema at the current version.
pub const SCHEMA_VERSION: u64 = 2;

/// An output format for a report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Format {
    /// Human-readable text — what the CLI has always printed.
    Text,
    /// A schema-versioned JSON document (see [`SCHEMA_VERSION`]).
    Json,
    /// Comma-separated values (verdict matrices); not every report has a
    /// tabular view.
    Csv,
    /// Graphviz DOT (lattices); not every report has a graph view.
    Dot,
}

impl Format {
    /// Every format, in `--format` documentation order.
    pub const ALL: [Format; 4] = [Format::Text, Format::Json, Format::Csv, Format::Dot];

    /// The stable CLI name (`text`, `json`, `csv`, `dot`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Format::Text => "text",
            Format::Json => "json",
            Format::Csv => "csv",
            Format::Dot => "dot",
        }
    }

    /// Resolves a (case-insensitive) name back to its format.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Format> {
        Format::ALL
            .into_iter()
            .find(|f| f.name().eq_ignore_ascii_case(name))
    }
}

impl std::str::FromStr for Format {
    type Err = QueryError;

    /// [`Format::from_name`], as a usage error naming the choices.
    fn from_str(name: &str) -> Result<Format, QueryError> {
        Format::from_name(name).ok_or_else(|| {
            QueryError::InvalidSpec(format!("unknown format `{name}`; try text|json|csv|dot"))
        })
    }
}

impl std::fmt::Display for Format {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A typed report that can render itself in every supported [`Format`].
///
/// `text` and `json` are total: every report has a human-readable story
/// and a machine-readable document. `csv` and `dot` are partial — only
/// reports with a natural tabular or graph view implement them — and
/// [`Render::render`] turns the gap into a [`QueryError::Unsupported`]
/// usage error.
pub trait Render {
    /// The stable document kind (`sweep`, `compare`, `distinguish`,
    /// `synth`, `check`, ...) — the `kind` field of the JSON document.
    fn kind(&self) -> &'static str;

    /// Human-readable text, newline-terminated: exactly what the CLI
    /// prints in `text` mode.
    fn text(&self) -> String;

    /// The report's own JSON fields, in documented order —
    /// [`Render::json`] prepends the envelope (`schema_version`, `kind`).
    fn json_fields(&self) -> Vec<(String, Json)>;

    /// The complete schema-versioned JSON document.
    fn json(&self) -> Json {
        let mut fields = envelope(self.kind());
        fields.extend(self.json_fields());
        Json::Object(fields)
    }

    /// Writes the complete document through `writer`. The default lays
    /// out [`Render::json`]; a report with a field too large to build as
    /// a tree overrides it to write that field straight from its data,
    /// byte for byte what laying out the tree would give.
    fn write_json(&self, writer: &mut Writer<'_>) {
        writer.value(&self.json(), 0);
    }

    /// CSV view, when the report has one.
    fn csv(&self) -> Option<String> {
        None
    }

    /// Graphviz DOT view, when the report has one.
    fn dot(&self) -> Option<String> {
        None
    }

    /// Renders in `format`, newline-terminated.
    ///
    /// # Errors
    ///
    /// [`QueryError::Unsupported`] when the report has no view in the
    /// requested format.
    fn render(&self, format: Format) -> Result<String, QueryError> {
        let _span = mcm_obs::trace::span_with("query.render", &[("format", format.name())]);
        let unsupported = || QueryError::Unsupported {
            report: self.kind(),
            format: format.name(),
        };
        match format {
            Format::Text => Ok(self.text()),
            Format::Json => {
                let mut out = String::new();
                self.write_json(&mut Writer::pretty(&mut out));
                out.push('\n');
                Ok(out)
            }
            Format::Csv => self.csv().ok_or_else(unsupported),
            Format::Dot => self.dot().ok_or_else(unsupported),
        }
    }
}

/// The envelope every JSON document starts with: `schema_version`, then
/// `kind`.
pub(crate) fn envelope(kind: &'static str) -> Vec<(String, Json)> {
    vec![
        ("schema_version".to_string(), Json::from(SCHEMA_VERSION)),
        ("kind".to_string(), Json::from(kind)),
    ]
}

/// Formats a wall-clock duration the way the CLI always has (`{:.2?}`).
pub(crate) fn duration_text(d: std::time::Duration) -> String {
    format!("{d:.2?}")
}

/// A duration as fractional milliseconds for JSON documents.
pub(crate) fn duration_json(d: std::time::Duration) -> Json {
    Json::Float(d.as_secs_f64() * 1000.0)
}

/// JSON view of a litmus test: its name plus its parseable `.litmus`
/// source (the pretty-printer and [`mcm_core::parse`] round-trip).
pub(crate) fn test_json(test: &mcm_core::LitmusTest) -> Json {
    let mut fields = vec![
        ("name".to_string(), Json::from(test.name())),
        ("accesses".to_string(), Json::from(test.program().access_count())),
    ];
    if !test.description().is_empty() {
        fields.push(("description".to_string(), Json::from(test.description())));
    }
    fields.push(("text".to_string(), Json::from(test.to_string())));
    Json::Object(fields)
}

/// JSON view of a `(name, value)` counter list (a `counters()` view).
pub(crate) fn counters_json(counters: &[(&'static str, u64)]) -> Json {
    Json::Object(
        counters
            .iter()
            .map(|&(name, value)| (name.to_string(), Json::from(value)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_names_round_trip() {
        for format in Format::ALL {
            assert_eq!(Format::from_name(format.name()), Some(format));
            assert_eq!(
                Format::from_name(&format.name().to_uppercase()),
                Some(format)
            );
            assert_eq!(format.to_string(), format.name());
        }
        assert_eq!(Format::from_name("yaml"), None);
    }

    struct Dummy;
    impl Render for Dummy {
        fn kind(&self) -> &'static str {
            "dummy"
        }
        fn text(&self) -> String {
            "hello\n".to_string()
        }
        fn json_fields(&self) -> Vec<(String, Json)> {
            vec![("x".to_string(), Json::from(1u64))]
        }
    }

    #[test]
    fn json_documents_carry_the_envelope() {
        let doc = Dummy.json();
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_u64),
            Some(SCHEMA_VERSION)
        );
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("dummy"));
        assert_eq!(doc.get("x").and_then(Json::as_u64), Some(1));
        // The envelope comes first.
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys[..2], ["schema_version", "kind"]);
    }

    #[test]
    fn unsupported_formats_are_usage_errors() {
        assert!(Dummy.render(Format::Text).is_ok());
        assert!(Dummy.render(Format::Json).is_ok());
        let err = Dummy.render(Format::Csv).unwrap_err();
        assert!(err.is_usage());
        assert!(err.to_string().contains("dummy"));
        assert!(Dummy.render(Format::Dot).is_err());
    }
}
