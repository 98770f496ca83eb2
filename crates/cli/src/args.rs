//! Option tables and the argv → request-document translation.
//!
//! Each subcommand declares its options once, as a table of [`Opt`]s:
//! the flag, what it takes, and where that goes — a wire field by dotted
//! path, or the command itself. Validation, positional extraction, the
//! request document and the flag a value error names all read that table.

use mcm_query::wire::WireRequest;
use mcm_query::{Json, QueryError};

use crate::{usage, CliError};

/// What an option takes.
#[derive(Clone, Copy)]
pub(crate) enum Takes {
    /// Nothing: a switch. A wire field it fills gets this boolean.
    Switch(bool),
    /// An integer, written to the request as a JSON integer literal.
    Int,
    /// Text: a name, a model-set spec, a shard or a file path.
    Text,
}

/// Where an option's value goes.
#[derive(Clone, Copy)]
pub(crate) enum To {
    /// The request field at this dotted path (`tests.stream.limit`).
    Wire(&'static str),
    /// The command itself: a file source, a side output, or a switch one
    /// of its rules reads.
    Cli,
    /// As [`To::Cli`], for an input only a streamed sweep takes.
    CliStream,
}

/// One option of a subcommand.
pub(crate) struct Opt {
    flag: &'static str,
    takes: Takes,
    to: To,
}

/// A switch that sets its wire field.
pub(crate) const ON: Takes = Takes::Switch(true);
/// A switch that clears its wire field (`--no-deps` → `with_deps`).
pub(crate) const OFF: Takes = Takes::Switch(false);

/// An option: its flag, what it takes, and where that goes.
pub(crate) const fn opt(flag: &'static str, takes: Takes, to: To) -> Opt {
    Opt { flag, takes, to }
}

/// The output options every subcommand accepts.
static OUTPUT: [Opt; 2] = [
    opt("--format", Takes::Text, To::Wire("format")),
    opt("--out", Takes::Text, To::Cli),
];

/// A subcommand's arguments, checked against its option table.
pub(crate) struct Args<'a> {
    table: &'static [Opt],
    /// The options given, in order, each with its value (a switch carries
    /// its own flag).
    given: Vec<(&'static Opt, &'a str)>,
    positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Rejects unknown `--` arguments and options without a value, so a
    /// misspelt flag is an error instead of being silently ignored.
    pub(crate) fn new(table: &'static [Opt], args: &'a [String]) -> Result<Self, CliError> {
        let mut parsed = Args {
            table,
            given: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            match parsed.opts().find(|o| o.flag == arg) {
                Some(opt) if matches!(opt.takes, Takes::Switch(_)) => parsed.given.push((opt, arg)),
                Some(opt) => match args.next() {
                    Some(value) if !value.starts_with("--") => parsed.given.push((opt, value)),
                    _ => return Err(usage(format!("{arg} requires a value"))),
                },
                None if arg.starts_with("--") => {
                    return Err(usage(format!("unknown flag `{arg}`; try `mcm help`")));
                }
                None => parsed.positional.push(arg),
            }
        }
        Ok(parsed)
    }

    fn opts(&self) -> impl Iterator<Item = &'static Opt> {
        self.table.iter().chain(&OUTPUT)
    }

    /// Whether `flag` was given.
    pub(crate) fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// The value of the first `flag` given.
    pub(crate) fn value(&self, flag: &str) -> Option<&'a str> {
        self.given
            .iter()
            .find(|(opt, _)| opt.flag == flag)
            .map(|&(_, value)| value)
    }

    /// The arguments that are neither options nor option values.
    pub(crate) fn positional(&self) -> &[&'a str] {
        &self.positional
    }

    /// [`Args::positional`], for a command that takes at most `most`.
    pub(crate) fn positional_at_most(&self, most: usize) -> Result<&[&'a str], CliError> {
        match self.positional.get(most) {
            Some(extra) => Err(usage(format!(
                "unexpected argument `{extra}`; try `mcm help`"
            ))),
            None => Ok(&self.positional),
        }
    }

    /// The first option given that only a streamed sweep takes.
    pub(crate) fn stream_only(&self) -> Option<&'static str> {
        self.given.iter().find_map(|(opt, _)| match opt.to {
            To::Wire(path) if path.starts_with("tests.stream.") => Some(opt.flag),
            To::CliStream => Some(opt.flag),
            _ => None,
        })
    }

    /// Builds the request document `{"query": kind, "format": "text"}`,
    /// then the command's own `fields`, then every wire field an option
    /// given fills (each by dotted path), and parses it as `mcm serve`
    /// does.
    ///
    /// # Errors
    ///
    /// Whatever the wire format rejects, with a value error naming the
    /// flag typed.
    pub(crate) fn request(
        &self,
        kind: &str,
        fields: Vec<(&str, Json)>,
    ) -> Result<WireRequest, CliError> {
        let mut doc = Json::object([("query", Json::from(kind)), ("format", Json::from("text"))]);
        for (path, value) in fields {
            put(&mut doc, path, value);
        }
        // Reversed, so a repeated option's first value wins, as `value`
        // reads it.
        for &(opt, value) in self.given.iter().rev() {
            if let To::Wire(path) = opt.to {
                let value = match opt.takes {
                    Takes::Switch(on) => Json::Bool(on),
                    // Anything but an integer literal reaches the wire as
                    // text, and fails its type check there.
                    Takes::Int => Json::parse(value).unwrap_or_else(|_| Json::from(value)),
                    Takes::Text => Json::from(value),
                };
                put(&mut doc, path, value);
            }
        }
        WireRequest::from_json(&doc).map_err(|err| self.error(err))
    }

    /// A wire error as the user reads it: a value error names the flag
    /// that filled the field.
    fn error(&self, err: QueryError) -> CliError {
        if let QueryError::BadValue { field, problem, .. } = &err {
            let filled = |opt: &&Opt| matches!(opt.to, To::Wire(path) if path == field);
            if let Some(opt) = self.opts().find(filled) {
                return usage(format!("{}: {problem}", opt.flag));
            }
        }
        err.into()
    }
}

/// Sets the field at a dotted `path` of an object, creating the objects
/// on the way.
fn put(doc: &mut Json, path: &str, value: Json) {
    let Json::Object(fields) = doc else {
        unreachable!("option tables only nest fields inside objects")
    };
    let (key, rest) = path
        .split_once('.')
        .map_or((path, None), |(k, r)| (k, Some(r)));
    let at = fields
        .iter()
        .position(|(k, _)| k == key)
        .unwrap_or_else(|| {
            fields.push((key.to_string(), Json::Object(Vec::new())));
            fields.len() - 1
        });
    match rest {
        Some(rest) => put(&mut fields[at].1, rest, value),
        None => fields[at].1 = value,
    }
}
