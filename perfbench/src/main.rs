//! Campaign benchmark for the TCP congestion-signature reproduction.
//!
//! ```text
//! perfbench --workload <testbed_fig1|ndt_dispute|contended_32>
//!           --seed <decimal|0xHEX> [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! One single-process, single-worker run of one closed-loop workload.
//! With `--trace 0` it prints the end-to-end metrics (throughput,
//! set-up time, peak memory and output quality); with `--trace 1` the
//! per-layer metrics, taken by timing calls into the program's public
//! functions from this package only. The last line of standard output
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//! The exit code is 0 only when every output check passed; a malformed
//! command line exits with 2. See `README.md` for the workloads, the
//! metrics and the checks.

mod alloc;
mod args;
mod calibrate;
mod contended_32;
mod harness;
mod ndt_dispute;
mod reference;
mod report;
mod testbed_fig1;
mod timed;

use args::WorkloadName;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

fn main() -> ExitCode {
    let opts = match args::parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    timed::start_epoch();
    let outcome = match opts.workload {
        WorkloadName::TestbedFig1 => {
            harness::run(&testbed_fig1::TestbedFig1::new(opts.seed), &opts)
        }
        WorkloadName::NdtDispute => harness::run(&ndt_dispute::NdtDispute::new(opts.seed), &opts),
        WorkloadName::Contended32 => {
            harness::run(&contended_32::Contended32::new(opts.seed), &opts)
        }
    };
    for problem in &outcome.problems {
        eprintln!("perfbench: FAILED CHECK: {problem}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
