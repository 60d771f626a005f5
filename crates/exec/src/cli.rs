//! Shared command-line entry point for the experiment binaries.
//!
//! Every `fig*`/`exp_*` binary and each subcommand of the root `csig`
//! CLI parse their arguments through [`CommonArgs`], declaring the
//! flags and positionals they read as [`Flag`]s. The shared execution
//! flags are:
//!
//! * `--jobs N` — worker count for campaign execution (`0` or absent
//!   means one worker per available core). Results are byte-identical
//!   for every worker count; `--jobs` only changes wall-clock.
//! * `--seed S` — override the experiment's default master seed
//!   (decimal or `0x` hex).
//! * `--paper` — run the full paper fidelity profile instead of the
//!   scaled one (interpreted by the binary; this module only parses).
//! * `--progress` — verbose per-scenario completion lines (index,
//!   elapsed, worker) instead of the default sparse `done/total` ones.
//! * `--metrics-out FILE` — write the campaign's metrics snapshot
//!   (JSON, see [`csig_obs::Snapshot::to_json`]) at campaign end. Every
//!   metric is a fact about the simulation, so two same-seed runs
//!   produce byte-identical files at any `--jobs`.
//! * `--trace-out FILE` — write the campaign's structured trace events
//!   as JSONL at campaign end.
//!
//! A binary accepts exactly the flags and positionals it declares, so
//! one that does not write `--metrics-out` rejects it. An undeclared
//! flag, a value flag without its value, a malformed `--jobs` or
//! `--seed` value, a positional beyond those declared or a malformed
//! [`Flag::Count`] is an error (exit status 2 from
//! [`CommonArgs::parse`]).
//!
//! Experiment-specific flags and positionals stay with the binary;
//! the accessor helpers here ([`CommonArgs::flag_value`],
//! [`CommonArgs::count_or`], …) keep their parsing uniform.

use std::str::FromStr;

use crate::{Executor, ProgressEvent};
use csig_obs::{Snapshot, TraceEvent};

/// A flag or positional a binary reads, as declared to
/// [`CommonArgs::parse`]. Positionals are taken in declaration order.
#[derive(Debug, Clone, Copy)]
pub enum Flag {
    /// A flag that stands alone, such as `--paper`.
    Switch(&'static str),
    /// A flag followed by its value, such as `--jobs 4`.
    Value(&'static str),
    /// A positional whole number (`u32`), such as the reps of
    /// `fig1 5`; read by [`CommonArgs::count_or`].
    Count(&'static str),
    /// A positional path, such as the capture of `csig inspect
    /// cap.pcap`; read by [`CommonArgs::positional`].
    Path(&'static str),
}

/// `--jobs N`, read by [`CommonArgs::executor`].
pub const JOBS: Flag = Flag::Value("--jobs");
/// `--seed S`, read by [`CommonArgs::seed_or`].
pub const SEED: Flag = Flag::Value("--seed");
/// `--paper`, read from [`CommonArgs::paper`].
pub const PAPER: Flag = Flag::Switch("--paper");
/// `--progress`, read by [`CommonArgs::progress_printer`].
pub const PROGRESS: Flag = Flag::Switch("--progress");
/// `--metrics-out FILE`, read by [`CommonArgs::write_metrics`].
pub const METRICS_OUT: Flag = Flag::Value("--metrics-out");
/// `--trace-out FILE`, read by [`CommonArgs::write_trace`].
pub const TRACE_OUT: Flag = Flag::Value("--trace-out");

impl Flag {
    /// The flag's spelling, or `None` for a positional.
    fn flag_name(self) -> Option<&'static str> {
        match self {
            Flag::Switch(name) | Flag::Value(name) => Some(name),
            Flag::Count(_) | Flag::Path(_) => None,
        }
    }
}

/// Parsed arguments: the declared flags given, the positionals, and
/// the common flags' values.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    /// Each flag given, in order, with its value (`None` for a switch).
    flags: Vec<(&'static str, Option<String>)>,
    /// Every argument that is neither a flag nor a flag's value, one
    /// per declared positional at most.
    positionals: Vec<String>,
    /// Worker count (`0` = one per core; resolved by [`Executor::new`]).
    pub jobs: usize,
    /// Master-seed override.
    pub seed: Option<u64>,
    /// Paper-fidelity profile requested.
    pub paper: bool,
    /// Verbose per-scenario progress requested.
    pub progress: bool,
    /// Where to write the deterministic metrics snapshot
    /// (`--metrics-out FILE`).
    pub metrics_out: Option<String>,
    /// Where to write the JSONL trace (`--trace-out FILE`).
    pub trace_out: Option<String>,
}

impl CommonArgs {
    /// Parse the process arguments (skipping the program name) against
    /// the `declared` flags and positionals. An undeclared flag or
    /// positional, a missing value or a malformed `--jobs`, `--seed` or
    /// [`Flag::Count`] value prints an error naming the argument and
    /// exits with status 2.
    pub fn parse(declared: &[Flag]) -> Self {
        Self::from_vec(std::env::args().skip(1).collect(), declared).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Parse `args` against the `declared` flags and positionals. Every
    /// argument starting with `--` must be a declared flag; a
    /// [`Flag::Value`] takes the next argument as its value unless that
    /// is itself a flag. Every other argument fills the next declared
    /// positional, and a [`Flag::Count`] must parse as a `u32`. The
    /// error names the offending argument.
    pub fn from_vec(args: Vec<String>, declared: &[Flag]) -> Result<Self, String> {
        let mut flags = Vec::new();
        let mut positionals = Vec::new();
        let mut slots = declared.iter().filter(|f| f.flag_name().is_none());
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                match slots.next() {
                    None => return Err(format!("unexpected argument `{arg}`")),
                    Some(Flag::Count(name)) if arg.parse::<u32>().is_err() => {
                        return Err(format!("bad {name} value `{arg}`"))
                    }
                    Some(_) => positionals.push(arg),
                }
                continue;
            }
            match declared
                .iter()
                .find(|f| f.flag_name() == Some(arg.as_str()))
            {
                Some(&Flag::Switch(name)) => flags.push((name, None)),
                Some(&Flag::Value(name)) => {
                    let value = args
                        .next_if(|v| !v.starts_with("--"))
                        .ok_or_else(|| format!("{name} needs a value"))?;
                    flags.push((name, Some(value)));
                }
                _ => {
                    let accepted: Vec<_> = declared.iter().filter_map(|f| f.flag_name()).collect();
                    return Err(format!(
                        "unknown flag `{arg}` (accepted: {})",
                        accepted.join(" ")
                    ));
                }
            }
        }
        let mut parsed = CommonArgs {
            flags,
            positionals,
            jobs: 0,
            seed: None,
            paper: false,
            progress: false,
            metrics_out: None,
            trace_out: None,
        };
        parsed.jobs = parsed.parsed_flag("--jobs")?.unwrap_or(0);
        parsed.seed = parsed.flag_parsed_with("--seed", parse_seed)?;
        parsed.paper = parsed.has_flag("--paper");
        parsed.progress = parsed.has_flag("--progress");
        parsed.metrics_out = parsed.flag_value("--metrics-out").cloned();
        parsed.trace_out = parsed.flag_value("--trace-out").cloned();
        Ok(parsed)
    }

    /// Write `snapshot` to the `--metrics-out` path, if one was given.
    /// The file is byte-identical across same-seed runs at any `--jobs`
    /// — the property `scripts/verify.sh` checks.
    pub fn write_metrics(&self, snapshot: &Snapshot) -> std::io::Result<()> {
        if let Some(path) = &self.metrics_out {
            std::fs::write(path, snapshot.to_json())?;
            eprintln!("metrics snapshot written to {path}");
        }
        Ok(())
    }

    /// Write `events` as JSONL to the `--trace-out` path, if one was
    /// given.
    pub fn write_trace(&self, events: &[TraceEvent]) -> std::io::Result<()> {
        if let Some(path) = &self.trace_out {
            let mut out = String::new();
            for e in events {
                out.push_str(&e.to_json_line());
                out.push('\n');
            }
            std::fs::write(path, out)?;
            eprintln!("{} trace events written to {path}", events.len());
        }
        Ok(())
    }

    /// An executor sized by `--jobs`.
    pub fn executor(&self) -> Executor {
        Executor::new(self.jobs)
    }

    /// The `--seed` override, or the experiment's default.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// The value of the value flag `flag`, if given.
    pub fn flag_value(&self, flag: &str) -> Option<&String> {
        self.flags
            .iter()
            .find(|(name, _)| *name == flag)
            .and_then(|(_, value)| value.as_ref())
    }

    /// Whether `flag` was given.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|(name, _)| *name == flag)
    }

    /// Parse the value of `flag`, erroring on malformed input and
    /// returning `None` when absent.
    pub fn parsed_flag<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.flag_parsed_with(flag, |v| v.parse().ok())
    }

    /// Parse the value of `flag` with `parse`: `None` when the flag is
    /// absent, an error naming the flag when `parse` rejects its value.
    fn flag_parsed_with<T>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.flag_value(flag) {
            None => Ok(None),
            Some(v) => parse(v)
                .map(Some)
                .ok_or_else(|| format!("bad {flag} value `{v}`")),
        }
    }

    /// The first positional argument.
    pub fn positional(&self) -> Option<&String> {
        self.positionals.first()
    }

    /// The first positional, declared as a [`Flag::Count`] (so
    /// [`CommonArgs::from_vec`] has checked that it parses), or
    /// `default` when it is absent.
    pub fn count_or(&self, default: u32) -> u32 {
        self.positionals
            .first()
            .and_then(|a| a.parse().ok())
            .unwrap_or(default)
    }

    /// A progress printer for campaign runs: with `--progress`, one
    /// line per completed scenario (index, elapsed, worker); otherwise
    /// a sparse `done/total` line every `every` completions.
    pub fn progress_printer(&self, every: usize) -> impl FnMut(ProgressEvent) {
        let verbose = self.progress;
        move |e: ProgressEvent| {
            if verbose {
                eprintln!(
                    "  [{:>6.1}s] scenario {:>4} {} ({}/{}, worker {})",
                    e.elapsed.as_secs_f64(),
                    e.index,
                    if e.ok { "done" } else { "FAILED" },
                    e.done,
                    e.total,
                    e.worker
                );
            } else if !e.ok {
                eprintln!("  scenario {} FAILED ({}/{})", e.index, e.done, e.total);
            } else if every > 0 && (e.done.is_multiple_of(every) || e.done == e.total) {
                eprintln!("  {}/{}", e.done, e.total);
            }
        }
    }
}

/// A seed in decimal or `0x`-prefixed hex.
fn parse_seed(v: &str) -> Option<u64> {
    match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => v.parse().ok(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Flag::{Count, Path, Switch, Value};

    /// A reps count, as the experiment binaries declare it.
    const REPS: Flag = Count("reps");

    /// A reps count and every shared execution flag.
    const COMMON: &[Flag] = &[REPS, JOBS, SEED, PAPER, PROGRESS, METRICS_OUT, TRACE_OUT];

    fn parse(list: &[&str], declared: &[Flag]) -> Result<CommonArgs, String> {
        CommonArgs::from_vec(list.iter().map(|s| s.to_string()).collect(), declared)
    }

    fn try_args(list: &[&str]) -> Result<CommonArgs, String> {
        parse(list, COMMON)
    }

    fn args(list: &[&str]) -> CommonArgs {
        try_args(list).unwrap()
    }

    #[test]
    fn common_flags_parse() {
        let a = args(&["7", "--jobs", "4", "--seed", "99", "--paper", "--progress"]);
        assert_eq!(a.jobs, 4);
        assert_eq!(a.seed, Some(99));
        assert!(a.paper && a.progress);
        assert_eq!(a.count_or(0), 7);
    }

    #[test]
    fn defaults_when_absent() {
        let a = args(&[]);
        assert_eq!(a.jobs, 0);
        assert_eq!(a.seed_or(42), 42);
        assert!(!a.paper && !a.progress);
        assert_eq!(a.count_or(5), 5);
    }

    #[test]
    fn seed_parses_decimal_and_hex() {
        assert_eq!(args(&["--seed", "0xBEEF"]).seed, Some(48879));
        assert_eq!(
            args(&["--seed", "0xbeef"]).seed,
            args(&["--seed", "48879"]).seed
        );
    }

    #[test]
    fn malformed_common_flags_are_errors_naming_the_flag() {
        for (flag, bad) in [
            ("--seed", "0xZZ"),
            ("--seed", "-1"),
            ("--seed", "beef"),
            ("--jobs", "x"),
            ("--jobs", "-2"),
        ] {
            let err = try_args(&[flag, bad]).expect_err(bad);
            assert!(err.contains(flag), "{err}");
        }
        let err = try_args(&["3", "--seed"]).expect_err("missing value");
        assert!(err.contains("--seed"), "{err}");
        // A flag is not a value.
        let err = try_args(&["--seed", "--paper"]).expect_err("flag as value");
        assert!(err.contains("--seed needs a value"), "{err}");
    }

    #[test]
    fn undeclared_flags_are_errors_naming_the_flag() {
        for flag in ["--frobnicate", "--deadline"] {
            let err = try_args(&[flag, "1"]).expect_err(flag);
            assert!(err.contains(&format!("`{flag}`")), "{err}");
        }
        // A shared flag the binary does not read is rejected too, so
        // `--metrics-out` never silently writes nothing.
        let err = parse(&["1", "--metrics-out", "m.json"], &[REPS, JOBS, SEED])
            .expect_err("undeclared shared flag");
        assert!(err.contains("`--metrics-out`"), "{err}");
        assert!(err.contains("(accepted: --jobs --seed)"), "{err}");
        // `--flag=value` is not a spelling of a declared flag.
        assert!(try_args(&["--seed=7"]).is_err());
    }

    #[test]
    fn declared_switch_does_not_swallow_the_next_positional() {
        let a = parse(&["--raw", "3"], &[Switch("--raw"), REPS]).unwrap();
        assert!(a.has_flag("--raw"));
        assert_eq!(a.flag_value("--raw"), None);
        assert_eq!(a.count_or(5), 3);
        assert_eq!(args(&["--paper", "3"]).count_or(5), 3);
    }

    #[test]
    fn declared_value_flag_value_is_not_a_positional() {
        // `fig3 --jobs 4` must not read `4` as the reps positional.
        assert_eq!(args(&["--jobs", "4"]).count_or(5), 5);
        let a = parse(&["--csv", "7", "3"], &[Value("--csv"), REPS]).unwrap();
        assert_eq!(a.flag_value("--csv").map(String::as_str), Some("7"));
        assert_eq!(a.positional().map(String::as_str), Some("3"));
        assert_eq!(a.count_or(5), 3);
        let err = parse(&["3", "--csv"], &[Value("--csv"), REPS]).expect_err("missing value");
        assert!(err.contains("--csv needs a value"), "{err}");
    }

    #[test]
    fn observability_flags_parse_and_values_are_not_positionals() {
        let a = args(&["--metrics-out", "m.json", "--trace-out", "t.jsonl", "3"]);
        assert_eq!(a.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(a.trace_out.as_deref(), Some("t.jsonl"));
        assert_eq!(a.count_or(9), 3);
        assert_eq!(args(&[]).metrics_out, None);
    }

    #[test]
    fn malformed_extra_or_undeclared_positionals_are_errors_naming_them() {
        for (list, want) in [
            (&["2x"][..], "bad reps value `2x`"),
            (&["abc", "3"][..], "bad reps value `abc`"),
            (&["-1"][..], "bad reps value `-1`"),
            (&["3", "4"][..], "unexpected argument `4`"),
        ] {
            let err = try_args(list).expect_err(want);
            assert!(err.contains(want), "{list:?}: {err}");
        }
        // A binary that declares no positional takes none.
        let err = parse(&["3"], &[JOBS]).expect_err("undeclared positional");
        assert!(err.contains("unexpected argument `3`"), "{err}");
    }

    #[test]
    fn path_positional_takes_any_value() {
        let a = parse(&["cap.pcap", "--jobs", "2"], &[Path("capture"), JOBS]).unwrap();
        assert_eq!(a.positional().map(String::as_str), Some("cap.pcap"));
        assert_eq!(a.jobs, 2);
        assert_eq!(parse(&[], &[Path("capture")]).unwrap().positional(), None);
    }

    #[test]
    fn parsed_flag_reports_errors() {
        let a = parse(&["--reps", "x"], &[Value("--reps"), Value("--threshold")]).unwrap();
        assert!(a.parsed_flag::<u32>("--reps").is_err());
        assert_eq!(a.parsed_flag::<u32>("--threshold").unwrap(), None);
    }
}
