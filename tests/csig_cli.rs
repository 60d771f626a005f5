//! The `csig` binary end to end: `simulate` exports a capture that
//! `inspect` and `classify` read back, usage errors exit with status
//! 2, and a malformed model file exits 1 naming the file and problem.

use std::path::PathBuf;
use std::process::{Command, Output};

use tcp_congestion_signatures::prelude::*;

const HEADER: &str = "  flow  packets  acked(kB)  mean Mbps  ss end(s)   samples capacity est\n";
const CLASSIFY_HEADER: &str = "  flow      class      conf  NormDiff      CoV    samples\n";

fn csig(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_csig"))
        .args(args)
        .output()
        .expect("csig runs")
}

/// A scratch file `name` under the test target directory.
fn tmp_path(name: &str) -> String {
    let path: PathBuf = [env!("CARGO_TARGET_TMPDIR"), name].iter().collect();
    path.to_str().expect("utf-8 path").to_owned()
}

/// `csig simulate <extra> --out <name>`; returns the capture's path.
fn simulate(name: &str, extra: &[&str]) -> String {
    let path = tmp_path(name);
    let mut args = vec!["simulate"];
    args.extend_from_slice(extra);
    args.extend_from_slice(&["--out", &path]);
    let sim = csig(&args);
    assert!(sim.status.success(), "simulate: {sim:?}");
    path
}

/// `csig simulate <extra> --out <file>` then `csig inspect <file>`;
/// returns the inspect table.
fn simulate_then_inspect(name: &str, extra: &[&str]) -> String {
    let path = simulate(name, extra);
    let inspect = csig(&["inspect", &path]);
    assert!(inspect.status.success(), "inspect: {inspect:?}");
    String::from_utf8(inspect.stdout).expect("utf-8 table")
}

/// A model trained on a hand-built dataset with the paper's geometry
/// (self-induced: high NormDiff and CoV; external: low), written as
/// JSON; returns its path.
fn tiny_model_json(name: &str) -> String {
    let mut d = Dataset::new();
    for i in 0..20 {
        let x = i as f64 / 20.0;
        d.push(vec![0.6 + 0.4 * x, 0.15 + 0.2 * x], 0);
        d.push(vec![0.3 * x, 0.05 * x], 1);
    }
    let clf = SignatureClassifier::train(
        &d,
        TreeParams::default(),
        ModelMeta {
            congestion_threshold: 0.8,
            trained_on: "unit".into(),
            n_train: 40,
            n_filtered: 0,
        },
    );
    let path = tmp_path(name);
    std::fs::write(&path, clf.to_json()).expect("model written");
    path
}

/// `csig simulate <extra>` then `csig classify <capture> --model
/// <tiny model>`; returns the classify table.
fn simulate_then_classify(name: &str, extra: &[&str]) -> String {
    let capture = simulate(&format!("{name}.pcap"), extra);
    let model = tiny_model_json(&format!("{name}.json"));
    let classify = csig(&["classify", &capture, "--model", &model]);
    assert!(classify.status.success(), "classify: {classify:?}");
    String::from_utf8(classify.stdout).expect("utf-8 table")
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

/// A second connection on the same 4-tuple appended to a capture (as in
/// a long `tcpdump` of one client) leaves the first flow's inspect row
/// as it was: like `classify`, `inspect` feeds a flow no records after
/// its FIN exchange.
#[test]
fn inspect_ignores_a_reused_four_tuple_after_close() {
    // One complete 4 MB download, captured at the server.
    let mut sim = Simulator::new(21);
    let server = sim.add_host(Box::new(TcpServerAgent::new(
        TcpConfig::default(),
        ServerSendPolicy::Fixed(4_000_000),
    )));
    let client = sim.add_host(Box::new(TcpClientAgent::new(
        server,
        TcpConfig::default(),
        ClientBehavior::Once,
        77,
    )));
    sim.add_duplex_link(
        server,
        client,
        LinkConfig::new(20_000_000, SimDuration::from_millis(20)).buffer_ms(100),
    );
    sim.compute_routes();
    let cap = sim.attach_capture(server);
    sim.run().expect_within_budget();
    let once = sim.take_capture(cap);
    // The same connection again, 20 s later.
    let mut twice = once.clone();
    twice.records.extend(once.records.iter().map(|rec| {
        let mut rec = rec.clone();
        rec.time += SimDuration::from_secs(20);
        rec
    }));

    let inspect = |name: &str, capture| {
        let path = tmp_path(name);
        let file = std::fs::File::create(&path).expect("capture file");
        tcp_congestion_signatures::trace::write_pcap(capture, file).expect("pcap written");
        let out = csig(&["inspect", &path]);
        assert!(out.status.success(), "inspect: {out:?}");
        String::from_utf8(out.stdout).expect("utf-8 table")
    };
    assert_eq!(
        inspect("csig_cli_reuse_twice.pcap", &twice),
        inspect("csig_cli_reuse_once.pcap", &once)
    );
}

#[test]
fn classify_reads_back_an_idle_path_capture() {
    assert_eq!(
        simulate_then_classify("csig_cli_classify_seed7", &["--seed", "7"]),
        format!("{CLASSIFY_HEADER}     0       self      100%     0.812    0.467        406\n")
    );
}

#[test]
fn classify_reads_back_a_congested_interconnect_capture() {
    assert_eq!(
        simulate_then_classify("csig_cli_classify_ext8", &["--external", "--seed", "8"]),
        format!("{CLASSIFY_HEADER}     0   external      100%     0.218    0.060        102\n")
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
fn stray_positional_is_a_usage_error_naming_it() {
    let out = csig(&["simulate", "stray"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`stray`"), "{stderr}");
}

#[test]
fn missing_capture_or_malformed_flag_value_is_a_usage_error() {
    for (args, named) in [
        (&["inspect"][..], "capture"),
        (
            &["inspect", "cap.pcap", "--server-port", "abc"][..],
            "--server-port",
        ),
        (&["train", "--reps", "abc"][..], "--reps"),
        (&["train", "--deadline", "5"][..], "`--deadline`"),
        (
            &["classify", "x.pcap", "--deadline", "5"][..],
            "`--deadline`",
        ),
    ] {
        let out = csig(args);
        assert_eq!(out.status.code(), Some(2), "csig {args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "csig {args:?}: {stderr}");
    }
}

#[test]
fn classify_rejects_a_malformed_model_naming_the_file_and_the_problem() {
    let capture = simulate("csig_cli_bad_model.pcap", &["--seed", "7"]);
    let good = std::fs::read_to_string(tiny_model_json("csig_cli_good_model.json")).expect("model");
    for (name, model, problem) in [
        (
            "truncated",
            &good[..good.len() / 2],
            "found the end of the input",
        ),
        (
            "unknown_variant",
            &good.replacen("\"Leaf\"", "\"Twig\"", 1),
            "unknown variant `Twig`",
        ),
        (
            "cyclic",
            &good.replacen("\"left\": 1", "\"left\": 0", 1),
            "node 0: `left` 0 is outside 1..",
        ),
    ] {
        let path = tmp_path(&format!("csig_cli_{name}_model.json"));
        std::fs::write(&path, model).expect("model written");
        let out = csig(&["classify", &capture, "--model", &path]);
        assert_eq!(out.status.code(), Some(1), "{name}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&path) && stderr.contains(problem),
            "{name}: {stderr}"
        );
    }
}
