//! Strict command-line parsing: every flag is known, every value is
//! checked, and nothing falls back silently.

use std::fmt;

/// The campaign a run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    /// Figure-1 cells through `run_test` with the probe tap.
    TestbedFig1,
    /// The Dispute2014 NDT campaign.
    NdtDispute,
    /// 32 lean downloads through one bottleneck.
    Contended32,
}

impl WorkloadName {
    /// Every workload, by its command-line name.
    pub const ALL: [(&'static str, WorkloadName); 3] = [
        ("testbed_fig1", WorkloadName::TestbedFig1),
        ("ndt_dispute", WorkloadName::NdtDispute),
        ("contended_32", WorkloadName::Contended32),
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match Self::ALL.iter().find(|(_, w)| *w == self) {
            Some((name, _)) => name,
            None => unreachable!("ALL lists every workload"),
        }
    }
}

/// Validated options of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Which campaign to measure.
    pub workload: WorkloadName,
    /// Workload seed; every scenario input derives from it.
    pub seed: u64,
    /// How long the measured passes run.
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// A rejected command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// Usage text printed with every rejected command line.
pub const USAGE: &str = "usage: perfbench --workload <testbed_fig1|ndt_dispute|contended_32> \
--seed <decimal|0xHEX> [--seconds <1..=600>] [--trace <0|1>]";

fn err<T>(msg: impl Into<String>) -> Result<T, UsageError> {
    Err(UsageError(msg.into()))
}

/// Parse a seed written in decimal or as `0x` hexadecimal.
pub fn parse_seed(s: &str) -> Result<u64, UsageError> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) if !hex.is_empty() && hex.bytes().all(|b| b.is_ascii_hexdigit()) => {
            u64::from_str_radix(hex, 16).ok()
        }
        Some(_) => None,
        None if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) => s.parse().ok(),
        None => None,
    };
    match parsed {
        Some(seed) => Ok(seed),
        None => err(format!(
            "--seed {s:?} is not a decimal or 0x-hex 64-bit integer"
        )),
    }
}

/// Parse the arguments after the program name.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, UsageError> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return err(format!("{flag} needs a value"));
        };
        let slot_taken = match flag.as_str() {
            "--workload" => workload
                .replace(
                    match WorkloadName::ALL.iter().find(|(name, _)| *name == value) {
                        Some((_, w)) => *w,
                        None => return err(format!("unknown workload {value:?}")),
                    },
                )
                .is_some(),
            "--seed" => seed.replace(parse_seed(&value)?).is_some(),
            "--seconds" => match value.parse::<u64>() {
                Ok(s) if (1..=600).contains(&s) && !value.starts_with('+') => {
                    seconds.replace(s).is_some()
                }
                _ => {
                    return err(format!(
                        "--seconds {value:?} is not a whole number in 1..=600"
                    ))
                }
            },
            "--trace" => match value.as_str() {
                "0" => trace.replace(false).is_some(),
                "1" => trace.replace(true).is_some(),
                _ => return err(format!("--trace {value:?} is not 0 or 1")),
            },
            _ => return err(format!("unknown argument {flag:?}")),
        };
        if slot_taken {
            return err(format!("{flag} given twice"));
        }
    }
    let Some(workload) = workload else {
        return err("--workload is required");
    };
    let Some(seed) = seed else {
        return err("--seed is required");
    };
    Ok(Options {
        workload,
        seed,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_str(s: &str) -> Result<Options, UsageError> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn seeds_parse_in_decimal_and_hex() {
        assert_eq!(parse_seed("48879"), Ok(48879));
        assert_eq!(parse_seed("0xBEEF"), Ok(0xBEEF));
        assert_eq!(parse_seed("0Xbeef"), Ok(0xBEEF));
        assert_eq!(parse_seed("18446744073709551615"), Ok(u64::MAX));
    }

    #[test]
    fn malformed_seeds_are_errors() {
        for bad in [
            "",
            "0x",
            "0xG1",
            "-1",
            "+1",
            "1.5",
            "1e3",
            "0b101",
            " 7",
            "18446744073709551616",
        ] {
            assert!(parse_seed(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn full_command_line_parses() {
        let o = parse_str("--workload ndt_dispute --seed 0x10 --seconds 3 --trace 1").unwrap();
        assert_eq!(
            o,
            Options {
                workload: WorkloadName::NdtDispute,
                seed: 16,
                seconds: 3,
                trace: true
            }
        );
        let d = parse_str("--seed 1 --workload contended_32").unwrap();
        assert_eq!((d.seconds, d.trace), (10, false));
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for bad in [
            "--workload testbed_fig1",
            "--seed 1",
            "--workload nope --seed 1",
            "--workload testbed_fig1 --seed 1 --jobs 2",
            "--workload testbed_fig1 --seed 1 --trace 2",
            "--workload testbed_fig1 --seed 1 --seconds 0",
            "--workload testbed_fig1 --seed 1 --seconds 1.5",
            "--workload testbed_fig1 --seed 1 --seed 2",
            "--workload testbed_fig1 --seed",
        ] {
            assert!(parse_str(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn names_round_trip() {
        for (name, w) in WorkloadName::ALL {
            assert_eq!(w.name(), name);
        }
    }
}
