//! The error type shared by query building, execution and rendering.

use std::fmt;

/// Why a query cannot be built, run or rendered.
///
/// The variants split along the CLI's exit-code boundary:
/// [`QueryError::is_usage`] distinguishes *the request was malformed*
/// (unknown model, bad bounds, unsupported format — exit 2) from *the run
/// failed* (unreadable file, parse error — exit 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The request names something that does not exist or combines
    /// options that cannot go together (a usage error).
    InvalidSpec(String),
    /// A request field holds a malformed or out-of-range value (a usage
    /// error). The field's path is data, so a front end that filled it
    /// from its own syntax (the CLI's flags) can name what its user typed.
    BadValue {
        /// The field's dotted path in the request (`tests.stream.limit`).
        field: String,
        /// The field as the message names it (`stream limit`).
        label: String,
        /// What is wrong, without the field's name (`needs a positive
        /// integer, got 0`).
        problem: String,
    },
    /// The report type cannot be rendered in the requested format (a
    /// usage error): e.g. `csv` of a synthesis report.
    Unsupported {
        /// The report kind (`sweep`, `compare`, ...).
        report: &'static str,
        /// The requested format name.
        format: &'static str,
    },
    /// A file could not be read or written (a run failure).
    Io {
        /// The offending path.
        path: String,
        /// The OS error message.
        message: String,
    },
    /// Input (a `.litmus` file) failed to parse (a run failure).
    Parse(String),
    /// The synthesis engine rejected the request (a run failure).
    Synth(String),
}

impl QueryError {
    /// Whether this is a malformed *request* (CLI exit 2) rather than a
    /// failed *run* (CLI exit 1).
    #[must_use]
    pub fn is_usage(&self) -> bool {
        matches!(
            self,
            QueryError::InvalidSpec(_)
                | QueryError::BadValue { .. }
                | QueryError::Unsupported { .. }
        )
    }

    /// Wraps an I/O failure on `path`.
    pub fn io(path: impl Into<String>, err: &std::io::Error) -> Self {
        QueryError::Io {
            path: path.into(),
            message: err.to_string(),
        }
    }
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::InvalidSpec(message) => write!(f, "{message}"),
            QueryError::BadValue { label, problem, .. } => write!(f, "{label} {problem}"),
            QueryError::Unsupported { report, format } => {
                write!(f, "{report} reports cannot be rendered as {format}")
            }
            QueryError::Io { path, message } => write!(f, "cannot access {path}: {message}"),
            QueryError::Parse(message) => write!(f, "{message}"),
            QueryError::Synth(message) => write!(f, "{message}"),
        }
    }
}

impl std::error::Error for QueryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_classification_follows_the_exit_code_contract() {
        assert!(QueryError::InvalidSpec("x".into()).is_usage());
        assert!(QueryError::BadValue {
            field: "engine.jobs".into(),
            label: "engine jobs".into(),
            problem: "needs a positive integer, got 0".into(),
        }
        .is_usage());
        assert!(QueryError::Unsupported {
            report: "synth",
            format: "csv"
        }
        .is_usage());
        assert!(!QueryError::Parse("x".into()).is_usage());
        assert!(!QueryError::Synth("x".into()).is_usage());
        assert!(!QueryError::Io {
            path: "f".into(),
            message: "m".into()
        }
        .is_usage());
    }

    #[test]
    fn messages_render_readably() {
        let err = QueryError::Unsupported {
            report: "synth",
            format: "csv",
        };
        assert!(err.to_string().contains("synth"));
        assert!(err.to_string().contains("csv"));
        let err = QueryError::io("missing.litmus", &std::io::Error::other("nope"));
        assert!(err.to_string().contains("missing.litmus"));
    }
}
