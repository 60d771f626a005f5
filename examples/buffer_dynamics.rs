//! Watch the mechanism behind the signature: sample the bottleneck
//! buffer's occupancy and the flow's RTT while a download's slow start
//! fills it (self-induced), then repeat behind a congested interconnect
//! (external) — the §2 intuition of the paper, rendered in ASCII.
//!
//! ```sh
//! cargo run --release --example buffer_dynamics
//! ```

use tcp_congestion_signatures::prelude::*;
use tcp_congestion_signatures::testbed;

fn bar(v: f64, max: f64, width: usize) -> String {
    let n = ((v / max) * width as f64).clamp(0.0, width as f64) as usize;
    format!("{}{}", "#".repeat(n), " ".repeat(width - n))
}

fn main() {
    for (world, external) in [("self-induced", false), ("external", true)] {
        let mut cfg = Profile::Scaled.config(AccessParams::figure1(), 321);
        if external {
            cfg = cfg.externally_congested();
        }
        let mut tb = testbed::build(&cfg);
        let probe = tb
            .sim
            .attach_sink(tb.server1, Box::new(FlowProbe::new(testbed::TEST_FLOW)));

        // Sample the access-link buffer occupancy every 100 ms from
        // test start through the first 1.5 s of the test.
        let access = tb.access_down;
        let interconnect = tb.interconnect_down;
        let mut occupancy: Vec<(SimTime, u64, u64)> = Vec::new();
        let horizon = tb.test_start + SimDuration::from_millis(1500);
        let mut at = tb.test_start;
        while at < horizon {
            tb.sim.run_until(at).expect_within_budget();
            occupancy.push((
                at,
                tb.sim.link(access).queued_bytes(),
                tb.sim.link(interconnect).queued_bytes(),
            ));
            at += SimDuration::from_millis(100);
        }
        tb.sim
            .run_until(tb.test_end + testbed::DRAIN_TAIL)
            .expect_within_budget();

        let access_cap = tb.sim.link(access).buffer_capacity() as f64;
        let icl_cap = tb.sim.link(interconnect).buffer_capacity() as f64;

        println!("== {world} scenario ==");
        println!("time(s)  access buffer {:20}  interconnect buffer", "");
        for (t, acc, icl) in &occupancy {
            println!(
                "  {:5.2}  [{}] {:3.0}%   [{}] {:3.0}%",
                t.as_secs_f64(),
                bar(*acc as f64, access_cap, 20),
                100.0 * *acc as f64 / access_cap,
                bar(*icl as f64, icl_cap, 20),
                100.0 * *icl as f64 / icl_cap,
            );
        }

        // And the resulting slow-start RTT ramp, as the probe saw it.
        let probe: &FlowProbe = tb.sim.sink(probe).expect("probe tap");
        if let Ok(f) = probe.features() {
            println!(
                "slow-start RTT: {:.0} → {:.0} ms over {} samples  →  \
                 NormDiff={:.2} CoV={:.2}\n",
                f.min_rtt_ms, f.max_rtt_ms, f.samples, f.norm_diff, f.cov
            );
        } else {
            println!("slow start too short to featurize\n");
        }
    }
    println!(
        "self-induced: the ACCESS buffer ramps from empty to full during\n\
         slow start (the RTT climbs with it). external: the INTERCONNECT\n\
         buffer is already pegged before the test begins, so the flow\n\
         inherits a high but stable RTT."
    );
}
