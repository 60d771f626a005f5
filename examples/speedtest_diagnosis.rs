//! Speed-test diagnosis: the paper's motivating application.
//!
//! A subscriber runs a speed test and gets less than they pay for. Is
//! the bottleneck their own access link (upgrade the plan) or a
//! congested interconnect (nothing they can do)? This example runs a
//! speed test in both worlds, analyzes the *server-side capture only*
//! (no client cooperation, no out-of-band probes), prints the verdicts
//! and exports a real pcap of one test.
//!
//! ```sh
//! cargo run --release --example speedtest_diagnosis
//! ```

use tcp_congestion_signatures::netsim::Capture;
use tcp_congestion_signatures::prelude::*;
use tcp_congestion_signatures::testbed;
use tcp_congestion_signatures::trace::write_pcap;

fn main() {
    // A pre-trained model would normally be loaded from JSON; train a
    // quick one here so the example is self-contained.
    println!("training a diagnosis model…");
    let results = Sweep {
        grid: testbed::small_grid(),
        reps: 4,
        profile: Profile::Scaled,
        seed: 7,
    }
    .run_with(&Executor::sequential(), |_| {});
    let clf = train_from_results(&results, 0.7, TreeParams::default()).expect("model");
    println!("model trained on {} labeled flows\n", clf.meta.n_train);

    // The subscriber: a 20 Mbps plan with a 100 ms modem buffer.
    let plan = AccessParams::figure1();

    for (world, external) in [("healthy interconnect", false), ("peering dispute", true)] {
        // A small fraction of tests lose their whole first window and
        // yield too few slow-start samples to classify (the paper
        // filters those as well); retry with a fresh seed if so.
        let mut capture = None;
        for attempt in 0..5u64 {
            let mut cfg = Profile::Scaled.config(plan, 0xBEEF + 16 * attempt + external as u64);
            if external {
                cfg = cfg.externally_congested();
            }
            // Run the test and capture at the server, like the paper.
            let mut tb = testbed::build(&cfg);
            let cap_h = tb
                .sim
                .attach_sink(tb.server1, Box::new(Capture::new(tb.server1)));
            let horizon = tb.test_end + testbed::DRAIN_TAIL;
            tb.sim.run_until(horizon).expect_within_budget();
            let cap = tb.sim.take_sink::<Capture>(cap_h).expect("a Capture tap");
            let classifiable = analyze_capture(&clf, &cap)
                .iter()
                .all(|r| r.verdict.is_ok());
            capture = Some(cap);
            if classifiable {
                break;
            }
        }
        let capture = capture.expect("at least one attempt ran");

        // Server-side analysis of every flow in the capture.
        let reports = analyze_capture(&clf, &capture);
        println!("[{world}] capture held {} flow(s):", reports.len());
        for report in reports {
            match report.verdict {
                Ok(v) => {
                    let advice = match v.class {
                        CongestionClass::SelfInduced => {
                            "your plan is the limit — consider upgrading"
                        }
                        CongestionClass::External => {
                            "congestion beyond your ISP plan — upgrading won't help"
                        }
                    };
                    println!(
                        "  flow {}: {} (confidence {:.0}%)\n    NormDiff={:.3} CoV={:.3} \
                         over {} slow-start samples\n    → {advice}",
                        report.flow,
                        v.class,
                        v.confidence * 100.0,
                        v.features.norm_diff,
                        v.features.cov,
                        v.features.samples,
                    );
                }
                Err(e) => println!("  flow {}: not classifiable ({e})", report.flow),
            }
        }

        // Export the second world's capture as a genuine pcap.
        if external {
            let path = std::env::temp_dir().join("speedtest_external.pcap");
            let mut file = std::fs::File::create(&path).expect("create pcap");
            let n = write_pcap(&capture, &mut file).expect("write pcap");
            println!(
                "  wrote {n} packets to {} (open it in wireshark)",
                path.display()
            );
        }
        println!();
    }
}
