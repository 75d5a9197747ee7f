//! Argument parsing and command plumbing for the `rpas-cli` binary.
//!
//! Deliberately dependency-free: flags are `--key value` pairs after a
//! subcommand. See `src/bin/cli.rs` for the command implementations.

use std::collections::BTreeMap;

/// A parsed command line: subcommand plus `--key value` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: BTreeMap<String, String>,
}

/// Errors from argument parsing and flag lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// No subcommand was supplied.
    MissingCommand,
    /// A flag was given without a value (or the value looks like a flag).
    MissingValue(String),
    /// A positional argument appeared where a flag was expected.
    UnexpectedPositional(String),
    /// A required flag is absent.
    MissingFlag(String),
    /// A flag's value failed to parse.
    BadValue {
        /// The flag name.
        flag: String,
        /// The offending raw value.
        value: String,
        /// Human-readable expectation.
        expected: &'static str,
    },
    /// A flag was supplied twice.
    DuplicateFlag(String),
    /// A flag the command does not read (a misspelling, usually).
    UnknownFlag {
        /// The flag name.
        flag: String,
        /// The command it was given to.
        command: String,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::MissingCommand => write!(f, "no subcommand given"),
            CliError::MissingValue(k) => write!(f, "flag --{k} needs a value"),
            CliError::UnexpectedPositional(a) => write!(f, "unexpected argument {a:?}"),
            CliError::MissingFlag(k) => write!(f, "required flag --{k} missing"),
            CliError::BadValue { flag, value, expected } => {
                write!(f, "--{flag} {value:?}: expected {expected}")
            }
            CliError::DuplicateFlag(k) => write!(f, "flag --{k} given twice"),
            CliError::UnknownFlag { flag, command } => {
                write!(f, "--{flag} is not a flag of {command}")
            }
        }
    }
}

impl std::error::Error for CliError {}

impl ParsedArgs {
    /// Parse `args` (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, CliError> {
        let mut it = args.into_iter();
        let command = it.next().ok_or(CliError::MissingCommand)?;
        if command.starts_with("--") {
            return Err(CliError::MissingCommand);
        }
        let mut flags = BTreeMap::new();
        while let Some(a) = it.next() {
            let key = a
                .strip_prefix("--")
                .ok_or_else(|| CliError::UnexpectedPositional(a.clone()))?
                .to_string();
            let value = it.next().ok_or_else(|| CliError::MissingValue(key.clone()))?;
            if value.starts_with("--") {
                return Err(CliError::MissingValue(key));
            }
            if flags.insert(key.clone(), value).is_some() {
                return Err(CliError::DuplicateFlag(key));
            }
        }
        Ok(Self { command, flags })
    }

    /// Refuse any flag outside `known`, so a misspelt flag is an error
    /// instead of silently falling back to a default.
    pub fn only(&self, known: &[&str]) -> Result<(), CliError> {
        match self.flags.keys().find(|k| !known.contains(&k.as_str())) {
            None => Ok(()),
            Some(flag) => {
                Err(CliError::UnknownFlag { flag: flag.clone(), command: self.command.clone() })
            }
        }
    }

    /// Optional string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(|s| s.as_str())
    }

    /// Required string flag.
    pub fn require(&self, key: &str) -> Result<&str, CliError> {
        self.get(key).ok_or_else(|| CliError::MissingFlag(key.to_string()))
    }

    /// Optional typed flag with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| CliError::BadValue {
                flag: key.to_string(),
                value: raw.to_string(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// Required typed flag.
    pub fn require_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, CliError> {
        let raw = self.require(key)?;
        raw.parse().map_err(|_| CliError::BadValue {
            flag: key.to_string(),
            value: raw.to_string(),
            expected: std::any::type_name::<T>(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<ParsedArgs, CliError> {
        ParsedArgs::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_flags() {
        let a = args(&["generate", "--preset", "alibaba", "--days", "14"]).unwrap();
        assert_eq!(a.command, "generate");
        assert_eq!(a.get("preset"), Some("alibaba"));
        assert_eq!(a.get_or("days", 0usize).unwrap(), 14);
        assert_eq!(a.get_or("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn missing_command_rejected() {
        assert_eq!(args(&[]).unwrap_err(), CliError::MissingCommand);
        assert_eq!(args(&["--oops", "1"]).unwrap_err(), CliError::MissingCommand);
    }

    #[test]
    fn missing_value_rejected() {
        assert_eq!(
            args(&["generate", "--preset"]).unwrap_err(),
            CliError::MissingValue("preset".into())
        );
        assert_eq!(
            args(&["generate", "--preset", "--days"]).unwrap_err(),
            CliError::MissingValue("preset".into())
        );
    }

    #[test]
    fn duplicate_flag_rejected() {
        assert_eq!(
            args(&["x", "--a", "1", "--a", "2"]).unwrap_err(),
            CliError::DuplicateFlag("a".into())
        );
    }

    #[test]
    fn positional_after_command_rejected() {
        assert_eq!(
            args(&["x", "stray"]).unwrap_err(),
            CliError::UnexpectedPositional("stray".into())
        );
    }

    #[test]
    fn flag_outside_the_known_list_rejected() {
        let a = args(&["fleet", "--tenant", "2", "--days", "2"]).unwrap();
        assert_eq!(
            a.only(&["tenants", "days"]),
            Err(CliError::UnknownFlag { flag: "tenant".into(), command: "fleet".into() })
        );
        assert_eq!(
            a.only(&["tenants", "days"]).unwrap_err().to_string(),
            "--tenant is not a flag of fleet"
        );
        assert_eq!(a.only(&["days", "tenant"]), Ok(()));
    }

    #[test]
    fn typed_flags() {
        let a = args(&["x", "--theta", "72.5", "--bad", "zzz"]).unwrap();
        assert_eq!(a.require_parsed::<f64>("theta").unwrap(), 72.5);
        assert!(matches!(a.require_parsed::<f64>("bad"), Err(CliError::BadValue { .. })));
        assert!(matches!(a.require("nope"), Err(CliError::MissingFlag(_))));
    }
}
