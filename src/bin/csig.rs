//! `csig` — command-line interface to the congestion-signature
//! classifier.
//!
//! ```text
//! csig train [--out model.json] [--reps N] [--threshold T] [--full-grid]
//!     Run a labeled testbed sweep and write a trained model.
//!
//! csig classify <capture.pcap> [--model model.json] [--server-port P]
//!     Classify every TCP flow of a server-side packet capture
//!     (tcpdump microsecond/nanosecond pcap, Ethernet or raw-IP).
//!     Without --model, a default model is trained on the fly.
//!
//! csig simulate [--external] [--out capture.pcap] [--seed S]
//!     Run one simulated speed test and export its server-side capture.
//!
//! csig inspect <capture.pcap> [--server-port P]
//!     Per-flow RTT/slow-start statistics without classification.
//! ```
//!
//! Each subcommand accepts exactly the flags and positionals of its
//! `USAGE` line and exits with status 2 on any other
//! (`csig_exec::cli::CommonArgs`), as on a missing or unknown
//! subcommand, a missing capture path or a malformed flag value.

use std::fs;
use std::process::ExitCode;

use csig_core::{train_sweep_with, SignatureClassifier};
use csig_dtree::TreeParams;
use csig_exec::cli::{CommonArgs, Flag, JOBS, PROGRESS, SEED};
use csig_netsim::Capture;
use csig_testbed::{paper_grid, small_grid, AccessParams, Profile, Sweep, DRAIN_TAIL};
use csig_trace::{import_pcap, write_pcap, ServerSelector};
use Flag::{Path, Switch, Value};

fn main() -> ExitCode {
    let all: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = all.first().cloned() else {
        eprintln!("{}", USAGE);
        return ExitCode::from(2);
    };
    type Command = fn(&CommonArgs) -> Result<(), Failure>;
    let (run, flags): (Command, &[Flag]) = match cmd.as_str() {
        "train" => (
            cmd_train,
            &[
                Value("--out"),
                Value("--reps"),
                Value("--threshold"),
                Switch("--full-grid"),
                SEED,
                JOBS,
                PROGRESS,
            ],
        ),
        "classify" => (
            cmd_classify,
            &[
                Path("capture.pcap"),
                Value("--model"),
                Value("--server-port"),
                JOBS,
            ],
        ),
        "simulate" => (cmd_simulate, &[Switch("--external"), Value("--out"), SEED]),
        "inspect" => (cmd_inspect, &[Path("capture.pcap"), Value("--server-port")]),
        "-h" | "--help" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => {
            eprintln!("csig: unknown command `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let args = match CommonArgs::from_vec(all[1..].to_vec(), flags) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("csig {cmd}: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(e)) => {
            eprintln!("csig {cmd}: {e}");
            ExitCode::from(2)
        }
        Err(Failure::Run(e)) => {
            eprintln!("csig: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Why a subcommand failed: misuse exits with status 2, like an
/// unknown flag; anything else with status 1.
enum Failure {
    Usage(String),
    Run(String),
}

impl From<String> for Failure {
    fn from(e: String) -> Self {
        Failure::Run(e)
    }
}

impl From<&str> for Failure {
    fn from(e: &str) -> Self {
        Failure::Run(e.into())
    }
}

const USAGE: &str = "usage:
  csig train    [--out model.json] [--reps N] [--threshold T] [--full-grid]
                [--seed S] [--jobs N] [--progress]
  csig classify <capture.pcap> [--model model.json] [--server-port P]
                [--jobs N]
  csig simulate [--external] [--out capture.pcap] [--seed S]
  csig inspect  <capture.pcap> [--server-port P]";

fn cmd_train(args: &CommonArgs) -> Result<(), Failure> {
    let out = args
        .flag_value("--out")
        .cloned()
        .unwrap_or_else(|| "model.json".into());
    let reps: u32 = args
        .parsed_flag("--reps")
        .map_err(Failure::Usage)?
        .unwrap_or(4);
    let threshold: f64 = args
        .parsed_flag("--threshold")
        .map_err(Failure::Usage)?
        .unwrap_or(0.7);
    let grid = if args.has_flag("--full-grid") {
        paper_grid()
    } else {
        small_grid()
    };
    eprintln!(
        "training: {} grid points × {reps} reps × 2 scenarios on {} workers…",
        grid.len(),
        args.executor().jobs()
    );
    let sweep = Sweep {
        grid,
        reps,
        profile: Profile::Scaled,
        seed: args.seed_or(42),
    };
    let (_, model) = train_sweep_with(
        &sweep,
        threshold,
        TreeParams::default(),
        &args.executor(),
        args.progress_printer(10),
    );
    let clf = model.ok_or("sweep produced a single class; try a different threshold")?;
    fs::write(&out, clf.to_json()).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!(
        "model trained on {} flows ({} filtered), written to {out}",
        clf.meta.n_train, clf.meta.n_filtered
    );
    println!("{}", clf.render());
    let imp = clf.tree().feature_importances();
    println!(
        "feature importances: NormDiff={:.2} CoV={:.2}",
        imp[0], imp[1]
    );
    Ok(())
}

fn load_or_train_model(args: &CommonArgs) -> Result<SignatureClassifier, String> {
    match args.flag_value("--model") {
        Some(path) => {
            let json = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            SignatureClassifier::from_json(&json).map_err(|e| format!("parsing {path}: {e}"))
        }
        None => {
            eprintln!("no --model given; training a default model (~1 min)…");
            let sweep = Sweep {
                grid: small_grid(),
                reps: 4,
                profile: Profile::Scaled,
                seed: 42,
            };
            let (_, model) =
                train_sweep_with(&sweep, 0.7, TreeParams::default(), &args.executor(), |_| {});
            model.ok_or_else(|| "default training failed".into())
        }
    }
}

fn load_capture(args: &CommonArgs) -> Result<Capture, Failure> {
    let path = args
        .positional()
        .ok_or_else(|| Failure::Usage("missing capture path".into()))?;
    let selector = match args.parsed_flag("--server-port").map_err(Failure::Usage)? {
        Some(port) => ServerSelector::Port(port),
        None => ServerSelector::MostBytesSent,
    };
    let file = fs::File::open(path).map_err(|e| format!("opening {path}: {e}"))?;
    Ok(import_pcap(file, selector).map_err(|e| e.to_string())?)
}

fn cmd_classify(args: &CommonArgs) -> Result<(), Failure> {
    let capture = load_capture(args)?;
    let clf = load_or_train_model(args)?;
    let reports = csig_core::analyze_capture(&clf, &capture);
    if reports.is_empty() {
        return Err("no TCP flows found (wrong --server-port?)".into());
    }
    println!(
        "{:>6} {:>10} {:>9} {:>9} {:>8} {:>10}",
        "flow", "class", "conf", "NormDiff", "CoV", "samples"
    );
    for r in reports {
        match r.verdict {
            Ok(v) => println!(
                "{:>6} {:>10} {:>8.0}% {:>9.3} {:>8.3} {:>10}",
                r.flow.0,
                v.class.label(),
                v.confidence * 100.0,
                v.features.norm_diff,
                v.features.cov,
                v.features.samples
            ),
            Err(e) => println!("{:>6} {:>10}  ({e})", r.flow.0, "skipped"),
        }
    }
    Ok(())
}

fn cmd_simulate(args: &CommonArgs) -> Result<(), Failure> {
    let out = args
        .flag_value("--out")
        .cloned()
        .unwrap_or_else(|| "capture.pcap".into());
    let mut cfg = Profile::Scaled.config(AccessParams::figure1(), args.seed_or(7));
    if args.has_flag("--external") {
        cfg = cfg.externally_congested();
    }
    eprintln!(
        "simulating a speed test ({}; 20 Mbps plan, 100 ms buffer)…",
        if args.has_flag("--external") {
            "congested interconnect"
        } else {
            "idle path"
        }
    );
    let mut tb = csig_testbed::build(&cfg);
    let cap = tb
        .sim
        .attach_sink(tb.server1, Box::new(Capture::new(tb.server1)));
    tb.sim
        .run_until(tb.test_end + DRAIN_TAIL)
        .expect_within_budget();
    let capture = tb.sim.take_sink::<Capture>(cap).expect("a Capture tap");
    let file = fs::File::create(&out).map_err(|e| format!("creating {out}: {e}"))?;
    let n = write_pcap(&capture, file).map_err(|e| e.to_string())?;
    eprintln!("wrote {n} packets to {out}");
    Ok(())
}

fn cmd_inspect(args: &CommonArgs) -> Result<(), Failure> {
    let capture = load_capture(args)?;
    let flows = csig_core::probe_flows(&capture);
    if flows.is_empty() {
        return Err("no TCP flows found".into());
    }
    println!(
        "{:>6} {:>8} {:>10} {:>10} {:>10} {:>9} {:>12}",
        "flow", "packets", "acked(kB)", "mean Mbps", "ss end(s)", "samples", "capacity est"
    );
    for (probe, packets) in &flows {
        let tput = probe.throughput();
        let ss = probe.slow_start();
        let feat = probe.features();
        let cap_est = probe
            .capacity_estimate_bps()
            .map(|b| format!("{:.1} Mbps", b / 1e6))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:>6} {:>8} {:>10.0} {:>10.2} {:>10} {:>9} {:>12}",
            probe.flow().0,
            packets,
            tput.bytes_acked as f64 / 1e3,
            tput.mean_bps / 1e6,
            ss.end
                .map(|t| format!("{:.2}", t.as_secs_f64()))
                .unwrap_or_else(|| "-".into()),
            feat.map(|f| f.samples).unwrap_or(0),
            cap_est,
        );
    }
    Ok(())
}
