//! Shared command-line entry point for the experiment binaries.
//!
//! Every `fig*`/`exp_*` binary and the root `csig` CLI parse the same
//! execution flags through [`CommonArgs`]:
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
//! * `--deadline SECS` — soft per-scenario deadline: a scenario that
//!   runs longer is reported as failed (with its seed) instead of its
//!   artifact; the rest of the campaign is unaffected.
//! * `--metrics-out FILE` — write the campaign's metrics snapshot
//!   (JSON, see [`csig_obs::Snapshot::to_json`]) at campaign end. Every
//!   metric is a fact about the simulation, so two same-seed runs
//!   produce byte-identical files at any `--jobs`.
//! * `--trace-out FILE` — write the campaign's structured trace events
//!   as JSONL at campaign end.
//!
//! A malformed `--jobs`, `--seed` or `--deadline` value is an error
//! (exit status 2 from [`CommonArgs::parse`]); unknown flags are
//! ignored.
//!
//! Experiment-specific flags and positionals stay with the binary;
//! the accessor helpers here ([`CommonArgs::flag_value`],
//! [`CommonArgs::positional_parsed`], …) keep their parsing uniform.

use std::str::FromStr;
use std::time::Duration;

use crate::{Executor, ProgressEvent};
use csig_obs::{Snapshot, TraceEvent};

/// Parsed common flags plus the raw argument list.
#[derive(Debug, Clone)]
pub struct CommonArgs {
    args: Vec<String>,
    /// Worker count (`0` = one per core; resolved by [`Executor::new`]).
    pub jobs: usize,
    /// Master-seed override.
    pub seed: Option<u64>,
    /// Paper-fidelity profile requested.
    pub paper: bool,
    /// Verbose per-scenario progress requested.
    pub progress: bool,
    /// Soft per-scenario deadline (`--deadline SECS`).
    pub deadline: Option<Duration>,
    /// Where to write the deterministic metrics snapshot
    /// (`--metrics-out FILE`).
    pub metrics_out: Option<String>,
    /// Where to write the JSONL trace (`--trace-out FILE`).
    pub trace_out: Option<String>,
}

impl CommonArgs {
    /// Parse from the process arguments (skipping the program name).
    /// A malformed `--jobs`, `--seed` or `--deadline` value prints an
    /// error naming the flag and exits with status 2.
    pub fn parse() -> Self {
        Self::from_vec(std::env::args().skip(1).collect()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// Parse from an explicit argument vector, rejecting a malformed
    /// `--jobs`, `--seed` or `--deadline` value with a message naming
    /// the flag. Unknown flags are not errors.
    pub fn from_vec(args: Vec<String>) -> Result<Self, String> {
        let mut parsed = CommonArgs {
            args,
            jobs: 0,
            seed: None,
            paper: false,
            progress: false,
            deadline: None,
            metrics_out: None,
            trace_out: None,
        };
        parsed.jobs = parsed.parsed_flag("--jobs")?.unwrap_or(0);
        parsed.seed = parsed.flag_parsed_with("--seed", parse_seed)?;
        parsed.paper = parsed.has_flag("--paper");
        parsed.progress = parsed.has_flag("--progress");
        // `--deadline 0` means no deadline.
        parsed.deadline = parsed
            .flag_parsed_with("--deadline", |v| {
                v.parse()
                    .ok()
                    .and_then(|s| Duration::try_from_secs_f64(s).ok())
            })?
            .filter(|d| !d.is_zero());
        parsed.metrics_out = parsed.flag_value("--metrics-out").cloned();
        parsed.trace_out = parsed.flag_value("--trace-out").cloned();
        Ok(parsed)
    }

    /// Whether either observability sink (`--metrics-out` /
    /// `--trace-out`) was requested — binaries use this to decide
    /// whether to run the instrumented campaign path.
    pub fn wants_observability(&self) -> bool {
        self.metrics_out.is_some() || self.trace_out.is_some()
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

    /// An executor sized by `--jobs`, with any `--deadline` applied.
    pub fn executor(&self) -> Executor {
        Executor::new(self.jobs).with_deadline(self.deadline)
    }

    /// The `--seed` override, or the experiment's default.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// The value following `flag`, if present.
    pub fn flag_value(&self, flag: &str) -> Option<&String> {
        self.args
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.args.get(i + 1))
    }

    /// Whether `flag` appears.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// Parse the value of `flag`, erroring on malformed input and
    /// returning `None` when absent.
    pub fn parsed_flag<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.flag_parsed_with(flag, |v| v.parse().ok())
    }

    /// Parse the value of `flag` with `parse`: `None` when the flag is
    /// absent, an error naming the flag when its value is missing or
    /// `parse` rejects it.
    fn flag_parsed_with<T>(
        &self,
        flag: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, String> {
        match self.flag_value(flag) {
            None if self.has_flag(flag) => Err(format!("{flag} needs a value")),
            None => Ok(None),
            Some(v) => parse(v)
                .map(Some)
                .ok_or_else(|| format!("bad {flag} value `{v}`")),
        }
    }

    /// Positional arguments: everything that is not a flag or the value
    /// of the flag preceding it.
    pub fn positionals(&self) -> impl Iterator<Item = &String> {
        self.args.iter().enumerate().filter_map(|(i, a)| {
            if a.starts_with("--") {
                return None;
            }
            match i.checked_sub(1).and_then(|j| self.args.get(j)) {
                Some(prev) if prev.starts_with("--") && takes_value(prev) => None,
                _ => Some(a),
            }
        })
    }

    /// The first positional argument.
    pub fn positional(&self) -> Option<&String> {
        self.positionals().next()
    }

    /// The first positional that parses as `T`, or `default`.
    pub fn positional_parsed<T: FromStr>(&self, default: T) -> T {
        self.positionals()
            .find_map(|a| a.parse().ok())
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

/// Flags whose next argument is a value, not a positional. Keeping this
/// list in one place is what lets `positionals()` skip values reliably
/// across all binaries.
fn takes_value(flag: &str) -> bool {
    !matches!(
        flag,
        "--paper" | "--progress" | "--full-grid" | "--raw" | "--external"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn try_args(list: &[&str]) -> Result<CommonArgs, String> {
        CommonArgs::from_vec(list.iter().map(|s| s.to_string()).collect())
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
        assert_eq!(a.positional_parsed(0u32), 7);
    }

    #[test]
    fn defaults_when_absent() {
        let a = args(&[]);
        assert_eq!(a.jobs, 0);
        assert_eq!(a.seed_or(42), 42);
        assert!(!a.paper && !a.progress);
        assert_eq!(a.positional_parsed(5u32), 5);
    }

    #[test]
    fn flag_values_are_not_positionals() {
        // `fig3 --jobs 4` must not read `4` as the reps positional.
        let a = args(&["--jobs", "4"]);
        assert_eq!(a.positional_parsed(5u32), 5);
        // …but boolean flags don't swallow the next argument.
        let b = args(&["--paper", "3"]);
        assert_eq!(b.positional_parsed(5u32), 3);
    }

    #[test]
    fn deadline_parses_and_feeds_executor() {
        let a = args(&["--deadline", "2.5"]);
        assert_eq!(a.deadline, Some(Duration::from_secs_f64(2.5)));
        assert_eq!(a.executor().deadline(), a.deadline);
        // Absent or zero means no deadline; a malformed value is an error.
        assert_eq!(args(&[]).deadline, None);
        assert!(try_args(&["--deadline", "x"]).is_err());
        assert_eq!(args(&["--deadline", "0"]).deadline, None);
        // The value is not a positional.
        assert_eq!(args(&["--deadline", "2"]).positional_parsed(9u32), 9);
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
            ("--deadline", "abc"),
            ("--deadline", "-1"),
            ("--deadline", "NaN"),
        ] {
            let err = try_args(&[flag, bad]).expect_err(bad);
            assert!(err.contains(flag), "{err}");
        }
        let err = try_args(&["3", "--seed"]).expect_err("missing value");
        assert!(err.contains("--seed"), "{err}");
        // Unknown flags are still ignored.
        assert!(try_args(&["--frobnicate", "1"]).is_ok());
    }

    #[test]
    fn observability_flags_parse_and_values_are_not_positionals() {
        let a = args(&["--metrics-out", "m.json", "--trace-out", "t.jsonl", "3"]);
        assert_eq!(a.metrics_out.as_deref(), Some("m.json"));
        assert_eq!(a.trace_out.as_deref(), Some("t.jsonl"));
        assert!(a.wants_observability());
        assert_eq!(a.positional_parsed(9u32), 3);
        assert!(!args(&[]).wants_observability());
    }

    #[test]
    fn parsed_flag_reports_errors() {
        let a = args(&["--reps", "x"]);
        assert!(a.parsed_flag::<u32>("--reps").is_err());
        assert_eq!(a.parsed_flag::<u32>("--threshold").unwrap(), None);
    }
}
