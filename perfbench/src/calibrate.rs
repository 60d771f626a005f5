//! Host-speed calibration: a fixed reference computation, owned by the
//! benchmark and independent of the program under test.
//!
//! Other tenants of a shared host can halve this process's speed for
//! seconds to minutes without any sign inside the guest (no steal time,
//! no run-queue wait). A [`Meter`] reads the host's speed with a short
//! calibration round at the start and end of each timed section and,
//! between scenarios, whenever [`INTERVAL`] has passed since the last
//! round, so that slow phases shorter than a section are read too. Each
//! stretch of program time between two rounds is scaled by the host
//! speed the two rounds read, and end-to-end times are reported at
//! [`REFERENCE_OPS_PER_S`]: a program change moves them as it moves wall
//! time, while a host slowdown moves the program and the calibration
//! alike and cancels out.

use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The host speed end-to-end times are reported at: calibration
/// operations per second of the development host when undisturbed.
pub const REFERENCE_OPS_PER_S: f64 = 16e6;

/// Operations per calibration round (about 3 ms undisturbed).
const OPS: u64 = 40_000;
/// Pending entries kept in the heap (the simulations' working set).
const PENDING: usize = 512;
/// Least program time between two rounds inside a section (a round
/// costs about 3 ms, so at most about 7% of the section).
const INTERVAL: Duration = Duration::from_millis(40);
/// Words in the table read at random (2 MiB, the size of one core's L2
/// cache on the development host).
const TABLE: usize = 1 << 18;

/// The calibration's state, allocated once per run.
pub struct Calibration {
    table: Vec<u64>,
    heap: BinaryHeap<std::cmp::Reverse<(u64, u64)>>,
}

impl Calibration {
    /// Allocate and touch the calibration's memory.
    pub fn new() -> Self {
        let mut c = Calibration {
            table: vec![1; TABLE],
            heap: BinaryHeap::with_capacity(PENDING + 1),
        };
        c.ops_per_s();
        c
    }

    /// Run one round; returns its operations per second.
    ///
    /// The table is read through once, untimed, before the round, so
    /// that the round starts from the same cache state whatever the
    /// program left behind. Starting cold instead made the reading depend
    /// on the preceding scenario's memory footprint.
    pub fn ops_per_s(&mut self) -> f64 {
        black_box(self.table.iter().fold(0u64, |a, &w| a.wrapping_add(w)));
        let start = Instant::now();
        self.heap.clear();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut acc = 0u64;
        for i in 0..OPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let slot = (x as usize) & (TABLE - 1);
            self.table[slot] = self.table[slot].wrapping_add(i);
            acc = acc.wrapping_add(self.table[(acc as usize ^ slot) & (TABLE - 1)]);
            self.heap.push(std::cmp::Reverse((x >> 40, i)));
            if self.heap.len() > PENDING {
                if let Some(std::cmp::Reverse((t, _))) = self.heap.pop() {
                    acc = acc.wrapping_add(t);
                }
            }
        }
        black_box(acc);
        OPS as f64 / start.elapsed().as_secs_f64()
    }
}

/// Program time of one timed section, with calibration rounds taken out.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// Wall seconds outside the calibration rounds.
    pub wall: f64,
    /// The same seconds at the reference host speed.
    pub at_reference: f64,
}

impl Timed {
    /// Mean host speed over the section, calibration operations/s.
    pub fn host_ops_per_s(&self) -> f64 {
        REFERENCE_OPS_PER_S * self.at_reference / self.wall
    }
}

/// Host-speed accounting of one timed section (a set-up or a pass).
pub struct Meter<'a> {
    cal: &'a mut Calibration,
    /// End of the last round: the current stretch of program time began.
    last: Instant,
    /// Speed the last round read.
    last_ops: f64,
    timed: Timed,
}

impl<'a> Meter<'a> {
    /// Open a section with a first round.
    pub fn start(cal: &'a mut Calibration) -> Self {
        let last_ops = cal.ops_per_s();
        Meter {
            cal,
            last: Instant::now(),
            last_ops,
            timed: Timed {
                wall: 0.0,
                at_reference: 0.0,
            },
        }
    }

    /// Between two scenarios: take a round if [`INTERVAL`] has passed
    /// since the last one.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= INTERVAL {
            self.round();
        }
    }

    /// Close the current stretch with a round, scaling it by the
    /// geometric mean of the speeds read at its two ends.
    fn round(&mut self) {
        let secs = self.last.elapsed().as_secs_f64();
        let ops = self.cal.ops_per_s();
        self.timed.wall += secs;
        self.timed.at_reference += at_reference(secs, (self.last_ops * ops).sqrt());
        self.last = Instant::now();
        self.last_ops = ops;
    }

    /// Close the section with a last round.
    pub fn finish(mut self) -> Timed {
        self.round();
        self.timed
    }
}

/// `secs` of wall time run at `ops_per_s`, in seconds at the reference
/// speed.
fn at_reference(secs: f64, ops_per_s: f64) -> f64 {
    secs * ops_per_s / REFERENCE_OPS_PER_S
}
