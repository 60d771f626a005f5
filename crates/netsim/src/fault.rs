//! Deterministic fault injection: composable link impairments.
//!
//! A [`FaultPlan`] attaches to a link and layers *hostile-path*
//! behaviour on top of the link's nominal configuration:
//!
//! * **Bursty loss** — a Gilbert–Elliott two-state Markov chain
//!   ([`GilbertElliott`]), the standard model for correlated wireless /
//!   congested-path loss; plain i.i.d. loss remains available as
//!   [`LossModel::Iid`].
//! * **Reordering** — a fraction of admitted packets is held back by an
//!   extra delay and exempted from the link's FIFO-delivery clamp, so it
//!   arrives behind packets serialized after it (netem `reorder`).
//! * **Duplication** — a fraction of admitted packets is enqueued twice
//!   (netem `duplicate`).
//! * **Scheduled events** — link down/up flaps at fixed simulated
//!   times ([`FaultAction`]). Rate and delay changes are link
//!   reconfigurations
//!   ([`Simulator::schedule_link_reconfig`](crate::sim::Simulator::schedule_link_reconfig)).
//!
//! Every random draw comes from a dedicated per-link PRNG stream derived
//! from the simulation's master seed (see [`crate::rng::stream_rng`]),
//! so identical seeds produce identical impairment sequences regardless
//! of worker count, host count, or unrelated configuration. A traced
//! simulator reports each impairment as a `sim` trace event (`drop`,
//! `reorder`, `duplicate`) naming the packet, so two runs compare
//! byte-for-byte through their trace lines.

use crate::time::{SimDuration, SimTime};
use csig_rng::StdRng;

/// Gilbert–Elliott two-state (good/bad) Markov loss model.
///
/// On every offered packet the chain first decides loss with the current
/// state's loss probability, then transitions. The stationary loss rate
/// is `π_bad · loss_bad + π_good · loss_good` with
/// `π_bad = p_enter_bad / (p_enter_bad + p_exit_bad)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GilbertElliott {
    /// Per-packet probability of moving good → bad.
    pub p_enter_bad: f64,
    /// Per-packet probability of moving bad → good. The mean burst
    /// length is `1 / p_exit_bad` packets.
    pub p_exit_bad: f64,
    /// Loss probability while in the good state.
    pub loss_good: f64,
    /// Loss probability while in the bad state.
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// The classic lossy-burst parameterization: no loss in the good
    /// state, certain loss in the bad state, mean burst length
    /// `burst_len` packets, stationary loss rate `mean_loss`.
    ///
    /// # Panics
    /// Panics if `burst_len < 1` or `mean_loss` is outside `[0, 1)`.
    pub fn bursty(burst_len: f64, mean_loss: f64) -> Self {
        assert!(burst_len >= 1.0, "mean burst length must be >= 1 packet");
        assert!(
            (0.0..1.0).contains(&mean_loss),
            "mean loss must be in [0,1)"
        );
        let p_exit_bad = 1.0 / burst_len;
        // π_bad = p / (p + r) = mean_loss  ⇒  p = r·mean_loss/(1-mean_loss)
        let p_enter_bad = p_exit_bad * mean_loss / (1.0 - mean_loss);
        GilbertElliott {
            p_enter_bad,
            p_exit_bad,
            loss_good: 0.0,
            loss_bad: 1.0,
        }
    }

    /// Stationary (long-run) loss rate of the chain.
    pub fn mean_loss(&self) -> f64 {
        let denom = self.p_enter_bad + self.p_exit_bad;
        if denom <= 0.0 {
            return self.loss_good;
        }
        let pi_bad = self.p_enter_bad / denom;
        pi_bad * self.loss_bad + (1.0 - pi_bad) * self.loss_good
    }
}

/// How a fault plan decides per-packet loss. Replaces the link's
/// configured i.i.d. loss while attached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Independent per-packet loss with this probability.
    Iid(f64),
    /// Correlated bursty loss.
    GilbertElliott(GilbertElliott),
}

/// Reordering impairment: with `probability`, an admitted packet's
/// arrival is delayed by `extra_delay` and exempted from the link's
/// in-order delivery clamp, so later packets overtake it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderSpec {
    /// Per-packet reorder probability in `[0, 1)`.
    pub probability: f64,
    /// How far behind its nominal arrival the packet is held.
    pub extra_delay: SimDuration,
}

/// A scheduled mid-flow fault applied to the link state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultAction {
    /// Take the link down: every offered packet is dropped; queued
    /// packets stay queued but are not serviced.
    Down,
    /// Bring the link back up; a backlog resumes draining immediately.
    Up,
}

/// One scheduled fault: apply `action` at simulated time `at`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What happens.
    pub action: FaultAction,
}

/// A composable set of impairments for one link.
///
/// Build with the fluent methods, then attach with
/// [`Simulator::attach_fault_plan`](crate::sim::Simulator::attach_fault_plan):
///
/// ```
/// use csig_netsim::{FaultPlan, GilbertElliott, SimDuration, SimTime};
///
/// let plan = FaultPlan::new()
///     .gilbert_elliott(GilbertElliott::bursty(8.0, 0.01))
///     .reorder(0.02, SimDuration::from_millis(5))
///     .duplicate(0.001)
///     .down_between(SimTime::from_secs(2), SimTime::from_secs(3));
/// assert_eq!(plan.events.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Loss model replacing the link's configured i.i.d. loss
    /// (`None` = keep the link's own `loss` setting).
    pub loss: Option<LossModel>,
    /// Optional reordering impairment.
    pub reorder: Option<ReorderSpec>,
    /// Per-packet duplication probability in `[0, 1)`.
    pub duplicate: f64,
    /// Scheduled mid-flow faults, in any order (the simulator's event
    /// queue sorts them by time).
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (no impairments).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// `true` when the plan impairs nothing.
    pub fn is_empty(&self) -> bool {
        self.loss.is_none()
            && self.reorder.is_none()
            && self.duplicate == 0.0
            && self.events.is_empty()
    }

    /// Builder: replace the link's loss with an i.i.d. model.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1)`.
    pub fn iid_loss(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "loss probability must be in [0,1)");
        self.loss = Some(LossModel::Iid(p));
        self
    }

    /// Builder: replace the link's loss with a Gilbert–Elliott chain.
    pub fn gilbert_elliott(mut self, ge: GilbertElliott) -> Self {
        self.loss = Some(LossModel::GilbertElliott(ge));
        self
    }

    /// Builder: reorder packets with probability `p`, holding them back
    /// by `extra_delay`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1)`.
    pub fn reorder(mut self, p: f64, extra_delay: SimDuration) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "reorder probability must be in [0,1)"
        );
        self.reorder = Some(ReorderSpec {
            probability: p,
            extra_delay,
        });
        self
    }

    /// Builder: duplicate admitted packets with probability `p`.
    ///
    /// # Panics
    /// Panics if `p` is outside `[0, 1)`.
    pub fn duplicate(mut self, p: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&p),
            "duplicate probability must be in [0,1)"
        );
        self.duplicate = p;
        self
    }

    /// Builder: schedule one fault.
    pub fn event(mut self, at: SimTime, action: FaultAction) -> Self {
        self.events.push(FaultEvent { at, action });
        self
    }

    /// Builder: flap the link down at `down` and back up at `up`.
    ///
    /// # Panics
    /// Panics unless `down < up`.
    pub fn down_between(self, down: SimTime, up: SimTime) -> Self {
        assert!(down < up, "link must come back up after it goes down");
        self.event(down, FaultAction::Down)
            .event(up, FaultAction::Up)
    }
}

/// Runtime state of an attached fault plan: the plan, its dedicated
/// PRNG stream and the loss chain's current state.
#[derive(Debug)]
pub struct FaultState {
    plan: FaultPlan,
    rng: StdRng,
    /// Gilbert–Elliott chain state (`true` = bad).
    ge_bad: bool,
}

impl FaultState {
    /// Runtime state for `plan` drawing from `rng` (a per-link stream).
    pub fn new(plan: FaultPlan, rng: StdRng) -> Self {
        FaultState {
            plan,
            rng,
            ge_bad: false,
        }
    }

    /// Whether the plan supplies its own loss model (overriding the
    /// link's configured i.i.d. loss).
    pub(crate) fn overrides_loss(&self) -> bool {
        self.plan.loss.is_some()
    }

    /// Per-packet loss decision; advances the Gilbert–Elliott chain.
    pub(crate) fn roll_loss(&mut self) -> bool {
        match self.plan.loss {
            None => false,
            Some(LossModel::Iid(p)) => p > 0.0 && self.rng.gen::<f64>() < p,
            Some(LossModel::GilbertElliott(ge)) => {
                let p = if self.ge_bad {
                    ge.loss_bad
                } else {
                    ge.loss_good
                };
                let lost = self.rng.gen::<f64>() < p;
                // Transition after the loss decision.
                let t = self.rng.gen::<f64>();
                self.ge_bad = if self.ge_bad {
                    t >= ge.p_exit_bad
                } else {
                    t < ge.p_enter_bad
                };
                lost
            }
        }
    }

    /// Per-admission reorder decision: the extra hold-back, if any.
    pub(crate) fn roll_reorder(&mut self) -> Option<SimDuration> {
        let spec = self.plan.reorder?;
        (spec.probability > 0.0 && self.rng.gen::<f64>() < spec.probability)
            .then_some(spec.extra_delay)
    }

    /// Per-admission duplication decision.
    pub(crate) fn roll_duplicate(&mut self) -> bool {
        self.plan.duplicate > 0.0 && self.rng.gen::<f64>() < self.plan.duplicate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream_rng;

    #[test]
    fn bursty_parameterization_hits_target_loss() {
        let ge = GilbertElliott::bursty(8.0, 0.02);
        assert!((ge.mean_loss() - 0.02).abs() < 1e-12);
        assert!((1.0 / ge.p_exit_bad - 8.0).abs() < 1e-12);
    }

    #[test]
    fn ge_chain_produces_bursts_at_the_target_rate() {
        let ge = GilbertElliott::bursty(10.0, 0.05);
        let mut st = FaultState::new(FaultPlan::new().gilbert_elliott(ge), stream_rng(7, 1));
        let n = 200_000;
        let mut losses = 0u32;
        let mut bursts = 0u32;
        let mut in_burst = false;
        for _ in 0..n {
            let lost = st.roll_loss();
            if lost {
                losses += 1;
                if !in_burst {
                    bursts += 1;
                }
            }
            in_burst = lost;
        }
        let rate = losses as f64 / n as f64;
        assert!((0.04..0.06).contains(&rate), "loss rate {rate}");
        // Mean burst length near 10 packets (correlated, not i.i.d.).
        let mean_burst = losses as f64 / bursts as f64;
        assert!((8.0..12.0).contains(&mean_burst), "burst {mean_burst}");
    }

    #[test]
    fn identical_streams_identical_decisions() {
        let plan = FaultPlan::new()
            .gilbert_elliott(GilbertElliott::bursty(4.0, 0.1))
            .reorder(0.05, SimDuration::from_millis(3))
            .duplicate(0.01);
        let mut a = FaultState::new(plan.clone(), stream_rng(42, 9));
        let mut b = FaultState::new(plan, stream_rng(42, 9));
        for _ in 0..10_000 {
            assert_eq!(a.roll_loss(), b.roll_loss());
            assert_eq!(a.roll_reorder(), b.roll_reorder());
            assert_eq!(a.roll_duplicate(), b.roll_duplicate());
        }
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::new();
        assert!(plan.is_empty());
        let mut st = FaultState::new(plan, stream_rng(1, 1));
        for _ in 0..100 {
            assert!(!st.roll_loss());
            assert!(st.roll_reorder().is_none());
            assert!(!st.roll_duplicate());
        }
    }

    #[test]
    #[should_panic]
    fn up_before_down_rejected() {
        let _ = FaultPlan::new().down_between(SimTime::from_secs(2), SimTime::from_secs(1));
    }
}
