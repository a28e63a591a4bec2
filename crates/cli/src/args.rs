//! Minimal flag parsing for the `halk` binary (no external parser crates —
//! the offline dependency set is deliberately small).
//!
//! Grammar: `halk <subcommand> [--flag value]...`. Flags are string-typed
//! here; each subcommand validates and converts what it needs.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: subcommand plus `--flag value` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The first positional argument.
    pub command: String,
    flags: BTreeMap<String, String>,
}

/// Command-line errors, printable as user-facing messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// A `--flag` without a value.
    MissingValue(String),
    /// A positional argument where a flag was expected.
    UnexpectedPositional(String),
    /// A required flag is absent.
    MissingFlag(&'static str),
    /// A flag value failed to parse.
    BadValue(&'static str, String),
    /// A flag the subcommand does not read.
    UnknownFlag(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no subcommand given (try `halk help`)"),
            ArgError::MissingValue(k) => write!(f, "flag --{k} needs a value"),
            ArgError::UnexpectedPositional(v) => write!(f, "unexpected argument '{v}'"),
            ArgError::MissingFlag(k) => write!(f, "required flag --{k} missing"),
            ArgError::BadValue(k, v) => write!(f, "cannot parse --{k} value '{v}'"),
            ArgError::UnknownFlag(k) => write!(f, "unknown flag --{k} (try `halk help`)"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses an argument list (excluding the program name).
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, ArgError> {
        let mut it = argv.into_iter();
        let command = it.next().ok_or(ArgError::MissingCommand)?;
        let mut flags = BTreeMap::new();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let value = it
                    .next()
                    .ok_or_else(|| ArgError::MissingValue(key.into()))?;
                flags.insert(key.to_string(), value);
            } else {
                return Err(ArgError::UnexpectedPositional(tok));
            }
        }
        Ok(Args { command, flags })
    }

    /// Fails on the first flag outside `known`, so a mistyped or retired
    /// flag is an error instead of being silently ignored.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), ArgError> {
        match self.flags.keys().find(|k| !known.contains(&k.as_str())) {
            Some(k) => Err(ArgError::UnknownFlag(k.clone())),
            None => Ok(()),
        }
    }

    /// A required string flag.
    pub fn required(&self, key: &'static str) -> Result<&str, ArgError> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or(ArgError::MissingFlag(key))
    }

    /// An optional string flag.
    pub fn optional(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// An optional parsed flag with a default.
    pub fn parsed_or<T: std::str::FromStr>(
        &self,
        key: &'static str,
        default: T,
    ) -> Result<T, ArgError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue(key, v.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse("gen --dataset fb237 --seed 7").unwrap();
        assert_eq!(a.command, "gen");
        assert_eq!(a.required("dataset").unwrap(), "fb237");
        assert_eq!(a.parsed_or::<u64>("seed", 0).unwrap(), 7);
    }

    #[test]
    fn defaults_apply() {
        let a = parse("gen").unwrap();
        assert_eq!(a.parsed_or::<usize>("steps", 100).unwrap(), 100);
        assert!(a.optional("out").is_none());
    }

    #[test]
    fn errors_are_specific() {
        assert_eq!(parse("").unwrap_err(), ArgError::MissingCommand);
        assert_eq!(
            parse("gen --seed").unwrap_err(),
            ArgError::MissingValue("seed".into())
        );
        assert_eq!(
            parse("gen stray").unwrap_err(),
            ArgError::UnexpectedPositional("stray".into())
        );
        let a = parse("gen --seed notanumber").unwrap();
        assert!(matches!(
            a.parsed_or::<u64>("seed", 0).unwrap_err(),
            ArgError::BadValue("seed", _)
        ));
        assert_eq!(a.required("out").unwrap_err(), ArgError::MissingFlag("out"));
    }
}
