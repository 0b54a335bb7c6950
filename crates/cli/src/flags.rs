//! Minimal typed `--flag value` parser shared by the subcommands.
//!
//! Flags may repeat (`--method a --method b` accumulates); positional
//! arguments are collected in order. `--help` short-circuits into a
//! usage error carrying the command's help text.

use crate::CliError;
use std::collections::BTreeMap;
use std::str::FromStr;

/// Parsed flags + positionals for one subcommand.
#[derive(Debug, Default)]
pub struct Flags {
    values: BTreeMap<String, Vec<String>>,
    positionals: Vec<String>,
}

impl Flags {
    /// Parse `args`; `help` is returned as the usage error on `--help`.
    pub fn parse(args: &[String], help: &str) -> Result<Self, CliError> {
        Self::parse_with_switches(args, help, &[])
    }

    /// Like [`Flags::parse`], but flags named in `switches` are bare
    /// booleans (`--explain`) that never consume the next token; they
    /// record the value `"true"` and answer [`Flags::has`].
    pub fn parse_with_switches(
        args: &[String],
        help: &str,
        switches: &[&str],
    ) -> Result<Self, CliError> {
        let mut flags = Flags::default();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if a == "--help" || a == "-h" {
                return Err(CliError::usage(help.to_string()));
            }
            if let Some(name) = a.strip_prefix("--") {
                let value = if switches.contains(&name) {
                    "true".to_string()
                } else {
                    it.next()
                        .ok_or_else(|| CliError::usage(format!("flag --{name} needs a value")))?
                        .clone()
                };
                flags.values.entry(name.to_string()).or_default().push(value);
            } else {
                flags.positionals.push(a.clone());
            }
        }
        Ok(flags)
    }

    /// Whether a flag or switch was given at all.
    pub fn has(&self, name: &str) -> bool {
        self.values.contains_key(name)
    }

    /// The positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Exactly one required positional.
    pub fn one_positional(&self, what: &str) -> Result<&str, CliError> {
        match self.positionals.as_slice() {
            [one] => Ok(one),
            [] => Err(CliError::usage(format!("missing {what}"))),
            _ => Err(CliError::usage(format!("expected exactly one {what}"))),
        }
    }

    /// All values given for a repeatable flag.
    pub fn all(&self, name: &str) -> &[String] {
        self.values.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Last value of a flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).and_then(|v| v.last()).map(String::as_str)
    }

    /// Typed flag with default.
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        Ok(self.get_opt(name)?.unwrap_or(default))
    }

    /// Typed flag, `None` when absent.
    pub fn get_opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, CliError>
    where
        T::Err: std::fmt::Display,
    {
        self.get(name)
            .map(|raw| {
                raw.parse::<T>().map_err(|e| CliError::usage(format!("bad --{name} '{raw}': {e}")))
            })
            .transpose()
    }

    /// Comma-separated list flag, e.g. `--p 100,1000`.
    pub fn get_list<T: FromStr>(&self, name: &str, default: Vec<T>) -> Result<Vec<T>, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .split(',')
                .map(|tok| {
                    tok.trim()
                        .parse::<T>()
                        .map_err(|e| CliError::usage(format!("bad --{name} item '{tok}': {e}")))
                })
                .collect(),
        }
    }

    /// Reject any flag not in `known` (catches typos).
    pub fn expect_known(&self, known: &[&str]) -> Result<(), CliError> {
        for name in self.values.keys() {
            if !known.contains(&name.as_str()) {
                return Err(CliError::usage(format!("unknown flag --{name}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Flags {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        Flags::parse(&v, "help text").unwrap()
    }

    #[test]
    fn positionals_and_flags() {
        let f = parse(&["input.txt", "--dim", "32", "--method", "a", "--method", "b"]);
        assert_eq!(f.one_positional("input").unwrap(), "input.txt");
        assert_eq!(f.get_or("dim", 0usize).unwrap(), 32);
        assert_eq!(f.all("method"), &["a".to_string(), "b".to_string()]);
        assert_eq!(f.get("missing"), None);
    }

    #[test]
    fn typed_defaults_and_errors() {
        let f = parse(&["--seed", "notanumber"]);
        assert!(f.get_or("seed", 0u64).is_err());
        assert_eq!(f.get_or("dim", 64usize).unwrap(), 64);
        assert_eq!(f.get_opt::<usize>("dim").unwrap(), None);
        let err = f.get_opt::<u64>("seed").unwrap_err();
        assert_eq!((err.code, err.message.starts_with("bad --seed 'notanumber'")), (2, true));
    }

    #[test]
    fn list_parsing() {
        let f = parse(&["--p", "100, 1000,10000"]);
        assert_eq!(f.get_list("p", vec![1usize]).unwrap(), vec![100, 1000, 10000]);
        assert_eq!(f.get_list("q", vec![5usize]).unwrap(), vec![5]);
    }

    #[test]
    fn help_short_circuits() {
        let v: Vec<String> = vec!["--help".into()];
        let err = Flags::parse(&v, "the help").unwrap_err();
        assert_eq!(err.code, 2);
        assert_eq!(err.message, "the help");
    }

    #[test]
    fn unknown_flags_rejected() {
        let f = parse(&["--dim", "8"]);
        assert!(f.expect_known(&["dim"]).is_ok());
        assert!(f.expect_known(&["seed"]).is_err());
    }

    #[test]
    fn missing_value_is_error() {
        let v: Vec<String> = vec!["--dim".into()];
        assert!(Flags::parse(&v, "h").is_err());
    }

    #[test]
    fn switches_take_no_value() {
        let v: Vec<String> =
            ["--explain", "--k", "5", "--raw"].iter().map(|s| s.to_string()).collect();
        let f = Flags::parse_with_switches(&v, "h", &["explain", "raw"]).unwrap();
        assert!(f.has("explain"));
        assert!(f.has("raw"));
        assert!(!f.has("stats"));
        assert_eq!(f.get_or("k", 0usize).unwrap(), 5);
        // A trailing switch must not demand a value.
        let v: Vec<String> = vec!["--raw".into()];
        assert!(Flags::parse_with_switches(&v, "h", &["raw"]).is_ok());
    }
}
