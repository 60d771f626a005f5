//! Liveness soak: random path parameters, assert every transfer drains.
//! Exits 1 if any transfer stalls.
//!
//! `cargo run --release -p csig-tcp --example soak [runs]` (default 400)
use csig_netsim::*;
use csig_tcp::*;

fn main() {
    let n: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(400);
    let mut rng = csig_rng::StdRng::seed_from_u64(0x50A6);
    let mut stalls = 0;
    for i in 0..n {
        let size = rng.gen_range(5_000u64..800_000);
        let rate = rng.gen_range(1u64..80);
        let delay = rng.gen_range(1u64..80);
        let buf = rng.gen_range(5u64..200);
        let loss = rng.gen_range(0u32..50); // up to 5%
        let jitter = rng.gen_range(0u64..4);
        let cc = match i % 3 {
            0 => CcKind::NewReno,
            1 => CcKind::Cubic,
            _ => CcKind::BbrLite,
        };
        let sack = i % 2 == 0;
        let cfg = TcpConfig {
            cc,
            sack,
            ..TcpConfig::default()
        };
        let mut sim = Simulator::new(i);
        let server = sim.add_host(Box::new(TcpServerAgent::new(
            cfg.clone(),
            ServerSendPolicy::Fixed(size),
        )));
        let client = sim.add_host(Box::new(TcpClientAgent::new(
            server,
            cfg,
            ClientBehavior::Once,
            42,
        )));
        sim.add_duplex_link(
            server,
            client,
            LinkConfig::new(rate * 1_000_000, SimDuration::from_millis(delay))
                .buffer_ms(buf)
                .loss(loss as f64 / 1000.0)
                .jitter(SimDuration::from_millis(jitter)),
        );
        sim.compute_routes();
        sim.set_event_budget(200_000_000);
        let mut stop = sim.run_until(SimTime::from_secs(180));
        if stop == StopReason::Horizon {
            // Give pending (possibly stale) timers a chance to drain;
            // only a transfer still stuck afterwards is a real stall.
            stop = sim.run_until(SimTime::from_secs(600));
        }
        let got = sim.agent::<TcpClientAgent>(client).unwrap().total_bytes;
        if stop != StopReason::Drained || got != size {
            stalls += 1;
            println!("STALL i={i} size={size} rate={rate} delay={delay} buf={buf} loss={loss} jitter={jitter} cc={cc:?} sack={sack} stop={stop:?} got={got}");
            let s = sim.agent::<TcpServerAgent>(server).unwrap();
            match s.connection(FlowId(42)) {
                Some(c) => println!("  server: {}", c.debug_state()),
                None => println!("  server done: {}", s.completed.len()),
            }
            let cl = sim.agent::<TcpClientAgent>(client).unwrap();
            match cl.connection() {
                Some(c) => println!("  client: {}", c.debug_state()),
                None => println!("  client conn gone"),
            }
        }
    }
    println!("{n} runs, {stalls} stalls");
    if stalls > 0 {
        std::process::exit(1);
    }
}
