//! One strict command-line parser for every `pulp-bench` binary.
//!
//! A binary declares its flags in `&[Flag]` tables (name, value
//! placeholder — `None` marks a switch — and help line), tokenizes argv
//! with [`Cli::parse`] and decodes the raw values through the typed
//! accessors, each of which names the flag and the offending value on
//! error. [`parse_env`] wires this to the process arguments: an unknown
//! flag, a missing value or a malformed value prints the error and the
//! usage on stderr and exits 2 before anything runs; `--help`/`-h` prints
//! the usage on stdout and exits 0. The usage text is generated from the
//! same tables, so it cannot drift from what the parser accepts.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// One declared command-line flag.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed, e.g. `--threads`.
    pub name: &'static str,
    /// Value placeholder shown in the usage (`None` marks a switch).
    pub value: Option<&'static str>,
    /// One-line description shown in the usage.
    pub help: &'static str,
}

impl Flag {
    /// A flag that takes no value.
    pub const fn switch(name: &'static str, help: &'static str) -> Self {
        Self {
            name,
            value: None,
            help,
        }
    }

    /// A flag that takes the next argument as its value.
    pub const fn valued(name: &'static str, value: &'static str, help: &'static str) -> Self {
        Self {
            name,
            value: Some(value),
            help,
        }
    }
}

/// A binary's synopsis lines plus the flag tables it accepts.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// Synopsis lines, each rendered after the program name.
    pub synopsis: &'static [&'static str],
    /// Every flag the binary accepts (besides `--help`/`-h`).
    pub tables: &'static [&'static [Flag]],
}

impl Usage {
    /// The usage of a binary that takes only flags.
    pub const fn options(tables: &'static [&'static [Flag]]) -> Self {
        Self {
            synopsis: &["[options]"],
            tables,
        }
    }

    /// The usage text: synopsis lines, then one aligned line per flag.
    pub fn render(&self, program: &str) -> String {
        let flags: Vec<&Flag> = self.tables.iter().flat_map(|t| t.iter()).collect();
        let spelled = |f: &Flag| match f.value {
            Some(v) => format!("{} <{v}>", f.name),
            None => f.name.to_string(),
        };
        let width = flags.iter().map(|f| spelled(f).len()).max().unwrap_or(0);
        let mut out = String::new();
        for (i, line) in self.synopsis.iter().enumerate() {
            let lead = if i == 0 { "usage:" } else { "   or:" };
            let _ = writeln!(out, "{lead} {program} {line}");
        }
        out.push_str("\noptions:\n");
        for f in flags {
            let _ = writeln!(out, "  {:<width$}  {}", spelled(f), f.help);
        }
        let _ = writeln!(out, "  {:<width$}  print this usage and exit", "-h, --help");
        out
    }
}

/// Tokenized command line: positionals plus the raw value of each flag
/// given. The typed accessors validate values; their errors name the
/// flag and the value.
#[derive(Debug, Default)]
pub struct Cli {
    declared: Vec<&'static str>,
    /// Each flag given, with its value (`None` for a switch).
    given: HashMap<&'static str, Option<String>>,
    positionals: Vec<String>,
    help: bool,
}

impl Cli {
    /// Splits `argv` into flags (looked up in `tables`) and positionals.
    /// An undeclared or repeated flag, or a value flag followed by nothing
    /// or by another `--flag`, is an error naming the flag.
    pub fn parse(
        argv: impl IntoIterator<Item = String>,
        tables: &[&'static [Flag]],
    ) -> Result<Self, String> {
        let flags = || tables.iter().flat_map(|t| t.iter());
        let mut cli = Self {
            declared: flags().map(|f| f.name).collect(),
            ..Self::default()
        };
        let mut argv = argv.into_iter();
        while let Some(token) = argv.next() {
            if token == "--help" || token == "-h" {
                cli.help = true;
                continue;
            }
            // `-x` and `--xyz` are flags; `-` alone is a positional.
            if token.len() < 2 || !token.starts_with('-') {
                cli.positionals.push(token);
                continue;
            }
            let Some(flag) = flags().find(|f| f.name == token) else {
                return Err(format!("unknown flag `{token}`"));
            };
            let value = match flag.value {
                None => None,
                Some(placeholder) => match argv.next() {
                    Some(v) if !v.starts_with("--") => Some(v),
                    _ => return Err(format!("{} requires a value <{placeholder}>", flag.name)),
                },
            };
            if cli.given.insert(flag.name, value).is_some() {
                return Err(format!("{} given more than once", flag.name));
            }
        }
        Ok(cli)
    }

    fn given(&self, name: &str) -> Option<&Option<String>> {
        debug_assert!(self.declared.contains(&name), "undeclared flag {name}");
        self.given.get(name)
    }

    fn raw(&self, name: &str) -> Option<&str> {
        self.given(name)?.as_deref()
    }

    /// Whether `--help`/`-h` was given.
    pub fn help(&self) -> bool {
        self.help
    }

    /// The non-flag arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Rejects stray positionals (binaries that take none), naming the
    /// first one.
    pub fn no_positionals(&self) -> Result<(), String> {
        match self.positionals.first() {
            Some(p) => Err(format!("unexpected argument `{p}`")),
            None => Ok(()),
        }
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given(name).is_some()
    }

    /// The value of `name`, unvalidated.
    pub fn string(&self, name: &str) -> Option<String> {
        self.raw(name).map(String::from)
    }

    /// The value of `name` as a path.
    pub fn path(&self, name: &str) -> Option<PathBuf> {
        self.raw(name).map(PathBuf::from)
    }

    fn typed<T: FromStr>(
        &self,
        name: &str,
        what: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, String> {
        let Some(v) = self.raw(name) else {
            return Ok(None);
        };
        match v.parse::<T>() {
            Ok(x) if ok(&x) => Ok(Some(x)),
            _ => Err(format!("{name} expects {what}, got `{v}`")),
        }
    }

    /// The value of `name` as an unsigned integer.
    pub fn non_negative<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.typed(name, "a non-negative integer", |_| true)
    }

    /// The value of `name` as an integer ≥ 1.
    pub fn positive<T: FromStr + PartialOrd + From<u8>>(
        &self,
        name: &str,
    ) -> Result<Option<T>, String> {
        self.typed(name, "a positive integer", |x| *x >= T::from(1))
    }

    /// The value of `name` as a finite number > 0 (`nan` and `inf` are
    /// errors).
    pub fn positive_f64(&self, name: &str) -> Result<Option<f64>, String> {
        self.typed(name, "a positive finite number", |x: &f64| {
            x.is_finite() && *x > 0.0
        })
    }

    /// The value of `name`, which must be one of `choices`.
    pub fn choice(
        &self,
        name: &str,
        choices: &[&'static str],
    ) -> Result<Option<&'static str>, String> {
        let Some(v) = self.raw(name) else {
            return Ok(None);
        };
        match choices.iter().find(|c| **c == v) {
            Some(c) => Ok(Some(c)),
            None => Err(format!(
                "{name} expects one of {}, got `{v}`",
                choices.join("|")
            )),
        }
    }
}

/// Parses the process arguments against `usage` and decodes them with
/// `decode`. Every value is validated before this returns, so a binary
/// runs nothing on bad input: any error prints it and the usage on
/// stderr and exits 2; `--help`/`-h` prints the usage on stdout and
/// exits 0.
pub fn parse_env<T>(usage: &Usage, decode: impl FnOnce(&Cli) -> Result<T, String>) -> T {
    let mut argv = std::env::args();
    let program = argv
        .next()
        .as_deref()
        .and_then(|p| Path::new(p).file_name()?.to_str().map(String::from))
        .unwrap_or_else(|| "pulp-bench".to_string());
    let parsed = Cli::parse(argv, usage.tables).and_then(|cli| Ok((decode(&cli)?, cli.help())));
    match parsed {
        Ok((value, false)) => value,
        Ok((_, true)) => {
            print!("{}", usage.render(&program));
            std::process::exit(0);
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", usage.render(&program));
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[rustfmt::skip]
    const TABLE: &[Flag] = &[
        Flag::switch("--quick",           "a switch"),
        Flag::valued("--threads", "n",    "a non-negative integer"),
        Flag::valued("--iters",   "n",    "a positive integer"),
        Flag::valued("--rate",    "x",    "a positive finite number"),
        Flag::valued("--model",   "tree|gbt", "a choice"),
        Flag::valued("--out",     "path", "a path"),
    ];

    /// Well-formed and malformed values for the value flag `TABLE[i]`; a
    /// value that looks like a flag counts as a missing value.
    #[rustfmt::skip]
    const VALUES: [(&[&str], &[&str]); 6] = [
        (&[], &[]),
        (&["0", "3", "+7"], &["-1", "x", "1.5", "", "--quick"]),
        (&["1", "31"], &["0", "-2", "many", "--iters"]),
        (&["0.5", "750", "1e3"], &["0", "-1", "nan", "inf", "fast"]),
        (&["tree", "gbt"], &["forest", "TREE", "--model"]),
        (&["a.json", "-", "-x", ""], &["--out", "--no-such"]),
    ];

    /// Validates every flag of [`TABLE`] the way a binary's decoder does.
    fn decode(cli: &Cli) -> Result<(), String> {
        cli.non_negative::<usize>("--threads")?;
        cli.positive::<u32>("--iters")?;
        cli.positive_f64("--rate")?;
        cli.choice("--model", &["tree", "gbt"])?;
        let _ = (cli.switch("--quick"), cli.path("--out"));
        Ok(())
    }

    fn parse(line: &str) -> Result<Cli, String> {
        Cli::parse(line.split_whitespace().map(String::from), &[TABLE])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// Parsing never panics, and succeeds exactly when every flag is
        /// declared and given once, and every value flag carries a
        /// well-formed value.
        /// Items are mostly well-formed so that a case usually hinges on
        /// one bad token.
        #[test]
        fn strict_parse_accepts_exactly_the_well_formed_argv(
            items in prop::collection::vec((0u8..8, 1usize..6, 0usize..8, 0u8..4), 0..6),
            dangling in 0usize..16,
        ) {
            let (mut argv, mut words, mut expect_ok) = (Vec::new(), Vec::new(), true);
            let mut seen = Vec::new();
            for (kind, flag, v, bad) in items {
                let flag = if kind == 0 { 0 } else { flag };
                if kind <= 4 {
                    expect_ok &= !seen.contains(&flag);
                    seen.push(flag);
                }
                match kind {
                    0 => argv.push("--quick".to_string()),
                    1..=4 => {
                        let (good, malformed) = VALUES[flag];
                        let pool = if bad == 0 { malformed } else { good };
                        argv.extend([TABLE[flag].name.to_string(), pool[v % pool.len()].to_string()]);
                        expect_ok &= bad != 0;
                    }
                    5 => {
                        let junk = ["--no-such-flag", "--quikc", "--cv-thread", "-q", "--threads=2"];
                        argv.push(junk[v % junk.len()].to_string());
                        expect_ok = false;
                    }
                    _ => {
                        words.push(format!("word{v}"));
                        argv.push(format!("word{v}"));
                    }
                }
            }
            // Sometimes end on a value flag with nothing after it.
            if dangling < TABLE.len() - 1 {
                argv.push(TABLE[1 + dangling].name.to_string());
                expect_ok = false;
            }
            let parsed = Cli::parse(argv, &[TABLE]);
            let decoded = parsed.as_ref().map_err(Clone::clone).and_then(decode);
            prop_assert_eq!(decoded.is_ok(), expect_ok);
            if let (Ok(cli), true) = (parsed, expect_ok) {
                prop_assert_eq!(cli.positionals(), &words[..]);
            }
        }
    }

    #[test]
    fn errors_name_the_flag_and_the_value() {
        for (line, want) in [
            ("--quikc", "unknown flag `--quikc`"),
            ("--threads", "--threads requires a value"),
            ("--out --quick", "--out requires a value"),
        ] {
            let err = parse(line).unwrap_err();
            assert!(err.contains(want), "{err}");
        }
        for (line, want) in [
            ("--rate nan", "`nan`"),
            ("--model forest", "tree|gbt, got `forest`"),
        ] {
            let err = decode(&parse(line).unwrap()).unwrap_err();
            assert!(
                err.contains(line.split(' ').next().unwrap()) && err.contains(want),
                "{err}"
            );
        }
    }

    #[test]
    fn help_positionals_and_repeats() {
        let cli = parse("a -h --threads 2 - b").unwrap();
        assert!(cli.help() && !parse("").unwrap().help());
        assert_eq!(cli.positionals(), ["a", "-", "b"]);
        assert_eq!(cli.non_negative::<usize>("--threads").unwrap(), Some(2));
        assert!(cli.no_positionals().unwrap_err().contains("`a`"));
        // A later occurrence must not silently replace an earlier,
        // malformed one.
        let err = parse("--threads x --threads 5").unwrap_err();
        assert!(err.contains("--threads given more than once"), "{err}");
    }

    #[test]
    fn usage_lists_every_declared_flag() {
        let usage = Usage {
            synopsis: &["[options]", "other MODE"],
            tables: &[TABLE],
        };
        let text = usage.render("prog");
        assert!(text.starts_with("usage: prog [options]\n   or: prog other MODE\n"));
        for f in TABLE {
            let line = text.lines().find(|l| l.trim_start().starts_with(f.name));
            assert!(line.is_some_and(|l| l.ends_with(f.help)), "{}", f.name);
        }
        assert!(text.contains("--model <tree|gbt>") && text.contains("-h, --help"));
    }
}
