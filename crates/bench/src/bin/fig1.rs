//! Regenerate Figure 1: RTT signature CDFs for self-induced vs
//! external congestion (20 Mbps access, 100 ms buffer, 20 ms latency).
//!
//! `cargo run --release -p csig-bench --bin fig1 [reps] [--paper]
//!  [--jobs N] [--seed S] [--progress] [--metrics-out FILE]
//!  [--trace-out FILE]`
//!
//! Every cell counts its metrics; `--metrics-out` writes the merged
//! snapshot at the end. `--trace-out` gives every cell a trace ring and
//! writes the events as JSONL; without it no ring is attached, so the
//! snapshot then lacks `trace.dropped`.
//! Wall-clock timing per layer is `perfbench`'s job
//! (`perfbench --workload testbed_fig1 --trace 1`).

use csig_bench::fig1;
use csig_exec::cli::{CommonArgs, Flag, JOBS, METRICS_OUT, PAPER, PROGRESS, SEED, TRACE_OUT};
use csig_testbed::Profile;

fn main() {
    let args = CommonArgs::parse(&[
        Flag::Count("reps"),
        JOBS,
        SEED,
        PAPER,
        PROGRESS,
        METRICS_OUT,
        TRACE_OUT,
    ]);
    let reps = args.count_or(25);
    let profile = if args.paper {
        Profile::Paper
    } else {
        Profile::Scaled
    };
    let seed = args.seed_or(0xF161);
    eprintln!(
        "fig1: {reps} tests/scenario, {profile:?} profile, {} workers",
        args.executor().jobs()
    );
    let observed = fig1::run_with(
        reps,
        profile,
        seed,
        args.trace_out.is_some(),
        &args.executor(),
        args.progress_printer(10),
    );
    if let Err(e) = args.write_metrics(&observed.metrics) {
        eprintln!("error writing --metrics-out: {e}");
        std::process::exit(1);
    }
    if let Err(e) = args.write_trace(&observed.trace) {
        eprintln!("error writing --trace-out: {e}");
        std::process::exit(1);
    }
    fig1::print(&observed.data);
}
