//! The `csig` binary end to end: `simulate` exports a capture that
//! `inspect` reads back, and usage errors exit with status 2.

use std::path::PathBuf;
use std::process::{Command, Output};

const HEADER: &str = "  flow  packets  acked(kB)  mean Mbps  ss end(s)   samples capacity est\n";

fn csig(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_csig"))
        .args(args)
        .output()
        .expect("csig runs")
}

/// `csig simulate <extra> --out <file>` then `csig inspect <file>`;
/// returns the inspect table.
fn simulate_then_inspect(name: &str, extra: &[&str]) -> String {
    let path: PathBuf = [env!("CARGO_TARGET_TMPDIR"), name].iter().collect();
    let path = path.to_str().expect("utf-8 path");
    let mut args = vec!["simulate"];
    args.extend_from_slice(extra);
    args.extend_from_slice(&["--out", path]);
    let sim = csig(&args);
    assert!(sim.status.success(), "simulate: {sim:?}");
    let inspect = csig(&["inspect", path]);
    assert!(inspect.status.success(), "inspect: {inspect:?}");
    String::from_utf8(inspect.stdout).expect("utf-8 table")
}

#[test]
fn inspect_reads_back_an_idle_path_capture() {
    assert_eq!(
        simulate_then_inspect("csig_cli_seed7.pcap", &["--seed", "7"]),
        format!(
            "{HEADER}     0    13619       9269      16.58       0.33       406    19.0 Mbps\n"
        )
    );
}

#[test]
fn inspect_reads_back_a_congested_interconnect_capture() {
    assert_eq!(
        simulate_then_inspect("csig_cli_ext8.pcap", &["--external", "--seed", "8"]),
        format!(
            "{HEADER}     0     1381        847       1.62       0.37       102     5.7 Mbps\n"
        )
    );
}

#[test]
fn missing_or_unknown_subcommand_is_a_usage_error() {
    for args in [&[][..], &["bogus"][..]] {
        let out = csig(args);
        assert_eq!(out.status.code(), Some(2), "csig {args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage:"), "csig {args:?}: {stderr}");
    }
}

#[test]
fn missing_capture_or_malformed_flag_value_is_a_usage_error() {
    for args in [
        &["inspect"][..],
        &["inspect", "cap.pcap", "--server-port", "abc"][..],
        &["train", "--reps", "abc"][..],
    ] {
        let out = csig(args);
        assert_eq!(out.status.code(), Some(2), "csig {args:?}: {out:?}");
    }
}
