//! Minimal dependency-free argument parsing for `pim-asm`.

use std::collections::HashMap;

/// Parsed command line: subcommand, positional arguments, `--key value`
/// options, and `--flag` switches.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first non-flag argument).
    pub command: String,
    /// Remaining positional arguments.
    pub positional: Vec<String>,
    /// `--key value` options.
    pub options: HashMap<String, String>,
    /// Bare `--flag` switches.
    pub flags: Vec<String>,
    /// The first value option given without a value: last on the line,
    /// or followed by another `--name`.
    pub missing_value: Option<String>,
}

/// Option keys that take a value, for any command (everything else
/// starting with `--` is a switch). Which of them a command accepts is
/// [`ParsedArgs::check_known`]'s business.
const VALUE_KEYS: [&str; 24] = [
    "k",
    "backend",
    "min-count",
    "coverage",
    "seed",
    "output",
    "pd",
    "simplify",
    "subarrays",
    "workers",
    "faults",
    "genome-len",
    "metrics-out",
    "trace-out",
    "metrics",
    "kernel",
    "cols",
    "slots",
    "stage",
    "read-len",
    "error-rate",
    "checkpoint-dir",
    "chunk-reads",
    "resume",
];

impl ParsedArgs {
    /// Parses an argument vector (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = ParsedArgs::default();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if VALUE_KEYS.contains(&key) {
                    match iter.next_if(|value| !value.starts_with("--")) {
                        Some(value) => {
                            out.options.insert(key.to_string(), value);
                        }
                        None => {
                            out.missing_value.get_or_insert_with(|| key.to_string());
                        }
                    }
                } else {
                    out.flags.push(key.to_string());
                }
            } else if out.command.is_empty() {
                out.command = arg;
            } else {
                out.positional.push(arg);
            }
        }
        out
    }

    /// A numeric option with a default; a value that does not parse is an
    /// error naming the option and the value.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key} expects a number, got {v:?}")),
            None => Ok(default),
        }
    }

    /// [`ParsedArgs::get_num`] restricted to the values `valid` accepts;
    /// any other value is an error naming the valid `range`.
    pub fn get_num_where<T: std::str::FromStr + std::fmt::Display + Copy>(
        &self,
        key: &str,
        default: T,
        valid: impl Fn(T) -> bool,
        range: &str,
    ) -> Result<T, String> {
        let value = self.get_num(key, default)?;
        if valid(value) {
            Ok(value)
        } else {
            Err(format!("--{key} must be {range}, got {value}"))
        }
    }

    /// A string option.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(String::as_str)
    }

    /// Whether a switch was passed.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// Rejects a command line the command cannot run as given, naming the
    /// first offender:
    /// * any `--name` the command does not accept (`options` take a value,
    ///   `switches` do not): switches in command-line order, then options
    ///   by name. A mistyped option parses as a switch, and its value as a
    ///   stray positional, so this check comes first;
    /// * an accepted option given without its value (last, or before
    ///   another `--name`);
    /// * a positional argument past the first `positionals`.
    pub fn check_known(
        &self,
        positionals: usize,
        options: &[&str],
        switches: &[&str],
    ) -> Result<(), String> {
        let command = if self.command.is_empty() { "pim-asm" } else { &self.command };
        let mut keys: Vec<&String> = self.options.keys().chain(&self.missing_value).collect();
        keys.sort();
        let unknown = self
            .flags
            .iter()
            .find(|f| !switches.contains(&f.as_str()))
            .or_else(|| keys.into_iter().find(|k| !options.contains(&k.as_str())));
        if let Some(name) = unknown {
            let mut accepted: Vec<String> = options
                .iter()
                .map(|o| format!("--{o}"))
                .chain(switches.iter().map(|s| format!("--{s}")))
                .collect();
            accepted.sort();
            let accepted =
                if accepted.is_empty() { "none".to_string() } else { accepted.join(", ") };
            return Err(format!("unknown option --{name} for {command} (accepted: {accepted})"));
        }
        if let Some(key) = &self.missing_value {
            return Err(format!("--{key} needs a value"));
        }
        match self.positional.get(positionals) {
            None => Ok(()),
            Some(extra) => {
                let takes = match positionals {
                    0 => "none".to_string(),
                    n => format!("at most {n}"),
                };
                Err(format!("unexpected argument {extra:?} for {command} (it takes {takes})"))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> ParsedArgs {
        ParsedArgs::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn subcommand_and_positionals() {
        let a = parse("assemble reads.fasta");
        assert_eq!(a.command, "assemble");
        assert_eq!(a.positional, vec!["reads.fasta"]);
    }

    #[test]
    fn options_and_flags() {
        let a = parse("assemble in.fa --k 21 --min-count 2 --correct --output out.fa");
        assert_eq!(a.get_num("k", 0usize), Ok(21));
        assert_eq!(a.get_num("min-count", 1u64), Ok(2));
        assert!(a.has_flag("correct"));
        assert_eq!(a.get_str("output"), Some("out.fa"));
    }

    #[test]
    fn defaults_apply() {
        let a = parse("assemble in.fa");
        assert_eq!(a.get_num("k", 17usize), Ok(17));
        assert!(!a.has_flag("correct"));
    }

    #[test]
    fn unknown_switches_and_misplaced_options_are_named() {
        let a = parse("assemble r.fa --checkpoint-dri D");
        assert_eq!(a.positional, vec!["r.fa", "D"], "the typo's value is a stray positional");
        let err = a.check_known(1, &["checkpoint-dir"], &["force"]).unwrap_err();
        assert_eq!(
            err,
            "unknown option --checkpoint-dri for assemble (accepted: --checkpoint-dir, --force)"
        );
        let err = parse("simulate g.fa --k 5").check_known(1, &["seed"], &[]).unwrap_err();
        assert!(err.starts_with("unknown option --k for simulate"), "{err}");
        let err = parse("throughput --fast").check_known(0, &[], &[]).unwrap_err();
        assert_eq!(err, "unknown option --fast for throughput (accepted: none)");
        assert_eq!(parse("assemble r.fa --k 5 --force").check_known(1, &["k"], &["force"]), Ok(()));
    }

    #[test]
    fn a_value_option_given_last_needs_its_value() {
        let a = parse("assemble r.fa --subarrays 8 --k");
        assert_eq!(a.missing_value.as_deref(), Some("k"));
        assert_eq!(a.get_num("k", 17usize), Ok(17), "parsing alone records no value");
        let err = a.check_known(1, &["k", "subarrays"], &[]).unwrap_err();
        assert_eq!(err, "--k needs a value");
        // An option the command does not take is unknown, value or not.
        let err = parse("simulate g.fa --k").check_known(1, &["seed"], &[]).unwrap_err();
        assert!(err.starts_with("unknown option --k for simulate"), "{err}");
    }

    #[test]
    fn a_value_option_does_not_swallow_the_next_option() {
        let a = parse("assemble r.fa --output --report");
        assert_eq!(a.get_str("output"), None, "--report is not a file name");
        assert!(a.has_flag("report"));
        assert_eq!(a.missing_value.as_deref(), Some("output"));
        let err = a.check_known(1, &["output"], &["report"]).unwrap_err();
        assert_eq!(err, "--output needs a value");
        // The first value-less option is the one named; a value that only
        // starts with one dash is still a value.
        let a = parse("map --seed --k --workers -1");
        assert_eq!(a.missing_value.as_deref(), Some("seed"));
        assert_eq!(a.get_str("workers"), Some("-1"));
    }

    #[test]
    fn bad_number_is_an_error_naming_the_option() {
        let err = parse("assemble --k banana").get_num::<usize>("k", 0).unwrap_err();
        assert_eq!(err, "--k expects a number, got \"banana\"");
    }
}
