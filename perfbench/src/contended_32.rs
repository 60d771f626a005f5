//! `contended_32`: 32 lean TCP downloads through one unshaped 100 Mbps
//! bottleneck, on a topology the benchmark builds itself.
//!
//! No tap, no features, no classifier, no shaping and no sample
//! recording: scheduler and TCP work dominate, and because the benchmark
//! owns the topology it can wrap every TCP agent in a timer. There is no
//! verdict to score, so `classified_share` is transfers finished ÷
//! transfers and `accuracy` is finished transfers that delivered exactly
//! the requested bytes ÷ finished transfers.

use crate::alloc::allocations;
use crate::harness::{
    execute, fnv1a, Counts, Pass, Quality, ScenarioTrace, Times, TracedPass, Workload,
};
use crate::timed::{elapsed_ns, SpanLog, Tally, TimedAgent};
use csig_exec::{Campaign, Scenario};
use csig_netsim::rng::{derive_seed, splitmix64};
use csig_netsim::{Agent, LinkConfig, NodeId, SimDuration, SimTime, Simulator};
use csig_obs::MetricsRegistry;
use csig_tcp::{
    ClientBehavior, ConnStats, ServerSendPolicy, TcpClientAgent, TcpConfig, TcpServerAgent,
};
use std::hint::black_box;
use std::time::Instant;

/// Simulations per pass.
const SCENARIOS: u64 = 8;
/// Downloads per simulation.
const CLIENTS: u32 = 32;
/// Bytes each download fetches.
const BYTES: u64 = 1_000_000;
/// Seed stream of the campaign within the workload seed.
const CAMPAIGN_STREAM: u64 = 0xC032;

/// The workload for one seed.
pub struct Contended32 {
    seed: u64,
}

impl Contended32 {
    /// The workload whose inputs derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Contended32 { seed }
    }

    fn campaign(&self, traced: bool) -> Campaign<Downloads> {
        let mut campaign = Campaign::new(derive_seed(self.seed, CAMPAIGN_STREAM));
        for _ in 0..SCENARIOS {
            campaign.push(Downloads { traced });
        }
        campaign
    }
}

/// The benchmark's topology for one scenario seed.
struct Topology {
    sim: Simulator,
    server: NodeId,
    clients: Vec<NodeId>,
}

fn lean_tcp() -> TcpConfig {
    TcpConfig {
        record_samples: false,
        ..TcpConfig::default()
    }
}

/// Add `agent` as a host, wrapped in a timer when `traced`.
fn host<A: Agent>(sim: &mut Simulator, agent: A, traced: bool) -> NodeId {
    if traced {
        sim.add_host(Box::new(TimedAgent::new(agent)))
    } else {
        sim.add_host(Box::new(agent))
    }
}

/// One server behind a 100 Mbps, 10 ms bottleneck with 50 ms of buffer;
/// 32 clients on 1 Gbps links whose delays (1–5 ms) and start offsets
/// (0–19 ms) derive from `seed`.
fn topology(seed: u64, traced: bool) -> Topology {
    let ms = SimDuration::from_millis;
    let mut state = seed;
    let mut draw = |n: u64| {
        state = splitmix64(state);
        state % n
    };
    let mut sim = Simulator::new(seed);
    let mut server_agent = TcpServerAgent::new(lean_tcp(), ServerSendPolicy::Fixed(BYTES));
    server_agent.keep_completed = true;
    let server = host(&mut sim, server_agent, traced);
    let r1 = sim.add_router();
    let r2 = sim.add_router();
    sim.add_duplex_link(server, r1, LinkConfig::new(1_000_000_000, ms(1)));
    sim.add_duplex_link(r1, r2, LinkConfig::new(100_000_000, ms(10)).buffer_ms(50));
    let clients = (1..=CLIENTS)
        .map(|i| {
            let client = TcpClientAgent::new(server, lean_tcp(), ClientBehavior::Once, i << 16)
                .with_start_delay(ms(draw(20)));
            let node = host(&mut sim, client, traced);
            sim.add_duplex_link(r2, node, LinkConfig::new(1_000_000_000, ms(1 + draw(5))));
            node
        })
        .collect();
    sim.compute_routes();
    sim.set_event_budget(200_000_000);
    Topology {
        sim,
        server,
        clients,
    }
}

/// What a finished simulation leaves: its events, each client's
/// `(finish time, bytes)`, and the server's connection stats.
#[derive(Debug)]
struct Downloaded {
    events: u64,
    fetches: Vec<(Option<SimTime>, u64)>,
    server: Vec<ConnStats>,
}

impl Downloaded {
    fn read<C: Agent, S: Agent>(
        topo: &Topology,
        client: impl Fn(&C) -> &TcpClientAgent,
        server: impl Fn(&S) -> &TcpServerAgent,
    ) -> Self {
        let fetches = topo
            .clients
            .iter()
            .map(|&c| {
                topo.sim
                    .agent::<C>(c)
                    .and_then(|a| client(a).fetches.first())
                    .map_or((None, 0), |f| (f.finished, f.bytes))
            })
            .collect();
        let server = topo
            .sim
            .agent::<S>(topo.server)
            .map(|s| {
                server(s)
                    .completed
                    .iter()
                    .map(|(_, st)| st.clone())
                    .collect()
            })
            .unwrap_or_default();
        Downloaded {
            events: topo.sim.events_processed(),
            fetches,
            server,
        }
    }

    fn key(&self) -> u64 {
        fnv1a(format!("{}|{:?}", self.events, self.fetches).as_bytes())
    }
}

/// One simulation of the 32 downloads.
#[derive(Debug, Clone, Copy)]
struct Downloads {
    traced: bool,
}

impl Scenario for Downloads {
    type Artifact = (Downloaded, Option<ScenarioTrace>);

    fn run(&self, seed: u64) -> Self::Artifact {
        if !self.traced {
            let mut topo = topology(seed, false);
            topo.sim.run();
            return (
                Downloaded::read::<TcpClientAgent, TcpServerAgent>(&topo, |c| c, |s| s),
                None,
            );
        }
        let allocs = allocations();
        let mut log = SpanLog::new("exec.scenario", Instant::now());
        let mut topo = topology(seed, true);
        let reg = MetricsRegistry::new();
        topo.sim.attach_obs(&reg);
        let loop_allocs = allocations();
        let loop_start = Instant::now();
        topo.sim.run();
        let loop_ns = elapsed_ns(loop_start);
        let loop_allocs = allocations() - loop_allocs;
        let loop_span = log.call("netsim.run", 0, loop_start, loop_ns);

        let mut tally = Tally::default();
        let mut add = |t: Tally| {
            tally.calls += t.calls;
            tally.ns += t.ns;
            tally.allocs += t.allocs;
        };
        for &c in &topo.clients {
            if let Some(a) = topo.sim.agent::<TimedAgent<TcpClientAgent>>(c) {
                add(a.tally);
            }
        }
        if let Some(a) = topo.sim.agent::<TimedAgent<TcpServerAgent>>(topo.server) {
            add(a.tally);
        }
        log.aggregate("tcp.agent_callbacks", loop_span, tally);

        let outcome = Downloaded::read::<TimedAgent<TcpClientAgent>, TimedAgent<TcpServerAgent>>(
            &topo,
            |c| &c.inner,
            |s| &s.inner,
        );
        let snap = reg.snapshot();
        let counter = |name| snap.counter(name).unwrap_or(0);
        let total = |f: fn(&ConnStats) -> u64| outcome.server.iter().map(f).sum::<u64>();
        let mut counts = Counts {
            events: outcome.events,
            loop_allocs,
            peak_pending: topo.sim.peak_pending_events() as u64,
            peak_pool: topo.sim.peak_pool_packets() as u64,
            packets_sent: counter("sim.packets_sent"),
            packets_delivered: counter("sim.packets_delivered"),
            packets_dropped: counter("sim.packets_dropped"),
            queue_hwm_bytes: snap.gauge("sim.queue_hwm_bytes").unwrap_or(0),
            callbacks: tally.calls,
            callback_allocs: tally.allocs,
            segments_sent: total(|s| s.segments_sent),
            retransmits: total(|s| s.retransmits),
            timeouts: total(|s| s.timeouts),
            ..Counts::default()
        };
        let times = Times {
            sim_loop: loop_ns,
            callbacks: tally.ns,
            ..Times::default()
        };
        let key = outcome.key();
        counts.scenario_allocs = allocations() - allocs;
        let trace = ScenarioTrace {
            key,
            counts,
            times,
            spans: log.finish(),
        };
        (outcome, Some(trace))
    }
}

/// Every download finished and delivered exactly `BYTES`.
fn all_complete(outcomes: &[&Downloaded]) -> Result<(), String> {
    for (i, o) in outcomes.iter().enumerate() {
        for (c, (finished, bytes)) in o.fetches.iter().enumerate() {
            if finished.is_none() || *bytes != BYTES {
                return Err(format!(
                    "scenario {i} client {c}: transfer incomplete (finished {finished:?}, {bytes} of {BYTES} bytes)"
                ));
            }
        }
    }
    Ok(())
}

impl Workload for Contended32 {
    type Product = ();
    const SETUP_REPS: usize = 101;

    fn setup(&self, _tick: &mut dyn FnMut()) {
        for (seed, _) in self.campaign(false).iter() {
            black_box(topology(*seed, false));
        }
    }

    fn inspect(&self, _: &()) -> Result<(String, f64), String> {
        Ok((String::new(), 0.0))
    }

    fn pass(&self, _: &(), _campaign: usize, digest: bool, tick: &mut dyn FnMut()) -> Pass {
        let start = Instant::now();
        let (outcomes, exec) = execute(&self.campaign(false), tick);
        let done: Vec<&Downloaded> = outcomes
            .iter()
            .filter_map(|o| o.as_ref().ok())
            .map(|a| &a.0)
            .collect();
        let transfers = outcomes.len() * CLIENTS as usize;
        let finished = done
            .iter()
            .flat_map(|o| &o.fetches)
            .filter(|f| f.0.is_some())
            .count();
        let exact = done
            .iter()
            .flat_map(|o| &o.fetches)
            .filter(|f| f.0.is_some() && f.1 == BYTES)
            .count();
        let check = all_complete(&done);
        let wall = start.elapsed();
        Pass {
            wall,
            exec,
            keys: outcomes
                .iter()
                .map(|o| o.as_ref().ok().map(|a| a.0.key()))
                .collect(),
            quality: Quality {
                right: exact,
                judged: finished,
                classified: finished,
                flows: transfers,
            },
            check,
            digest: digest.then(|| fnv1a(format!("{done:?}").as_bytes())),
        }
    }

    fn traced_pass(&self, _: &()) -> TracedPass {
        let start = Instant::now();
        let (outcomes, _) = execute(&self.campaign(true), &mut || {});
        TracedPass {
            wall: start.elapsed(),
            scenarios: outcomes
                .into_iter()
                .map(|o| o.ok().and_then(|a| a.1))
                .collect(),
            classified: None,
        }
    }
}
