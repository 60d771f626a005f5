//! Buffer management (queue disciplines) at the head of a link.
//!
//! The classifier studied by the paper depends on how the bottleneck
//! buffer absorbs a ramping flow, so the queue model is explicit: a FIFO
//! with a byte-denominated capacity, fronted by an admission policy —
//! classic drop-tail, or RED (Random Early Detection) for the §6
//! robustness experiments ("it will still work on other queuing
//! mechanisms such as RED as long as there is an increase in RTT").
//!
//! [`LinkQueue`] decides admission and counts occupancy in bytes; the
//! FIFO order itself lives in the link, which knows each packet's
//! departure instant (see [`crate::link`]). Admission is split from
//! counting ([`LinkQueue::try_admit`] then [`LinkQueue::admit`]) so a
//! dropped packet is rejected before a pool slot is ever allocated.

use csig_rng::StdRng;

/// Admission policy selector for a link buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum QueueKind {
    /// Plain drop-tail: admit while total queued bytes stay within
    /// capacity, else drop.
    #[default]
    DropTail,
    /// Random Early Detection with the given parameters.
    Red(RedParams),
}

/// RED parameters (Floyd & Jacobson 1993), with thresholds expressed as
/// fractions of the queue's byte capacity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedParams {
    /// Average-occupancy fraction below which no packet is dropped.
    pub min_th: f64,
    /// Average-occupancy fraction above which every packet is dropped.
    pub max_th: f64,
    /// Drop probability as the average reaches `max_th`.
    pub max_p: f64,
    /// EWMA weight for the average queue estimate.
    pub weight: f64,
}

impl Default for RedParams {
    fn default() -> Self {
        RedParams {
            min_th: 0.25,
            max_th: 0.75,
            max_p: 0.1,
            weight: 0.002,
        }
    }
}

/// Outcome of offering a packet to a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueResult {
    /// The packet was admitted; the caller must [`LinkQueue::admit`] it.
    Queued,
    /// The packet was dropped because the buffer was full.
    DroppedFull,
    /// The packet was dropped by early detection (RED).
    DroppedEarly,
}

/// The byte occupancy of a link buffer and its admission policy.
#[derive(Debug)]
pub struct LinkQueue {
    kind: QueueKind,
    capacity_bytes: u64,
    queued_bytes: u64,
    /// RED state: EWMA of occupancy (bytes) and count of packets since
    /// the last early drop.
    red_avg: f64,
    red_count: i64,
    /// High-water mark of queued bytes, for diagnostics.
    max_occupancy: u64,
}

impl LinkQueue {
    /// Create a queue holding at most `capacity_bytes` of packets.
    ///
    /// # Panics
    /// Panics if `capacity_bytes` is zero — a zero buffer would drop
    /// every packet on a busy link and is never what an experiment means.
    pub fn new(kind: QueueKind, capacity_bytes: u64) -> Self {
        assert!(capacity_bytes > 0, "queue capacity must be positive");
        if let QueueKind::Red(p) = &kind {
            assert!(
                0.0 <= p.min_th && p.min_th < p.max_th && p.max_th <= 1.0,
                "RED thresholds must satisfy 0 <= min_th < max_th <= 1"
            );
            assert!(0.0 < p.max_p && p.max_p <= 1.0, "RED max_p in (0,1]");
        }
        LinkQueue {
            kind,
            capacity_bytes,
            queued_bytes: 0,
            red_avg: 0.0,
            red_count: -1,
            max_occupancy: 0,
        }
    }

    /// Byte capacity the queue was built with.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_bytes
    }

    /// The admission policy.
    pub fn kind(&self) -> QueueKind {
        self.kind
    }

    /// Change the byte capacity (already-queued packets are kept even
    /// if they exceed the new capacity; the limit applies to future
    /// admissions).
    pub fn set_capacity(&mut self, capacity_bytes: u64) {
        assert!(capacity_bytes > 0, "queue capacity must be positive");
        self.capacity_bytes = capacity_bytes;
    }

    /// Change the admission policy in place.
    pub fn set_kind(&mut self, kind: QueueKind) {
        self.kind = kind;
        self.red_avg = 0.0;
        self.red_count = -1;
    }

    /// Bytes currently buffered.
    pub fn queued_bytes(&self) -> u64 {
        self.queued_bytes
    }

    /// Highest byte occupancy ever observed.
    pub fn max_occupancy(&self) -> u64 {
        self.max_occupancy
    }

    /// Admission decision for a packet of `size` bytes. On
    /// [`EnqueueResult::Queued`] the caller must follow up with
    /// [`LinkQueue::admit`]; on a drop the packet never enters the
    /// buffer (and need never enter the pool).
    pub fn try_admit(&mut self, size: u32, rng: &mut StdRng) -> EnqueueResult {
        if let QueueKind::Red(params) = self.kind {
            // Update EWMA of the instantaneous occupancy.
            self.red_avg += params.weight * (self.queued_bytes as f64 - self.red_avg);
            let min_b = params.min_th * self.capacity_bytes as f64;
            let max_b = params.max_th * self.capacity_bytes as f64;
            if self.red_avg >= max_b {
                self.red_count = 0;
                return EnqueueResult::DroppedEarly;
            }
            if self.red_avg > min_b {
                self.red_count += 1;
                let pb = params.max_p * (self.red_avg - min_b) / (max_b - min_b);
                // Spread drops: pa = pb / (1 - count * pb), per the RED paper.
                let denom = 1.0 - self.red_count as f64 * pb;
                let pa = if denom <= 0.0 {
                    1.0
                } else {
                    (pb / denom).min(1.0)
                };
                if rng.gen::<f64>() < pa {
                    self.red_count = 0;
                    return EnqueueResult::DroppedEarly;
                }
            } else {
                self.red_count = -1;
            }
        }
        if self.queued_bytes + size as u64 > self.capacity_bytes {
            return EnqueueResult::DroppedFull;
        }
        EnqueueResult::Queued
    }

    /// Count an admitted packet's `size` bytes. Must follow a
    /// [`LinkQueue::try_admit`] that returned [`EnqueueResult::Queued`]
    /// for the same size.
    pub fn admit(&mut self, size: u32) {
        debug_assert!(
            self.queued_bytes + size as u64 <= self.capacity_bytes,
            "admit without successful try_admit"
        );
        self.queued_bytes += size as u64;
        self.max_occupancy = self.max_occupancy.max(self.queued_bytes);
    }

    /// Stop counting a departed packet's `size` bytes.
    pub fn release(&mut self, size: u32) {
        self.queued_bytes -= size as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decide, then count, as the link does.
    fn offer(q: &mut LinkQueue, size: u32, rng: &mut StdRng) -> EnqueueResult {
        let r = q.try_admit(size, rng);
        if r == EnqueueResult::Queued {
            q.admit(size);
        }
        r
    }

    #[test]
    fn droptail_admits_to_capacity_then_drops() {
        let mut q = LinkQueue::new(QueueKind::DropTail, 3000);
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(offer(&mut q, 1500, &mut rng), EnqueueResult::Queued);
        assert_eq!(offer(&mut q, 1500, &mut rng), EnqueueResult::Queued);
        assert_eq!(offer(&mut q, 1, &mut rng), EnqueueResult::DroppedFull);
        assert_eq!(q.queued_bytes(), 3000);
        assert_eq!(q.max_occupancy(), 3000);
        q.release(1500);
        assert_eq!(q.queued_bytes(), 1500);
        assert_eq!(q.max_occupancy(), 3000);
    }

    #[test]
    fn red_drops_early_under_sustained_load() {
        let mut q = LinkQueue::new(
            QueueKind::Red(RedParams {
                min_th: 0.1,
                max_th: 0.5,
                max_p: 0.5,
                weight: 0.5, // aggressive EWMA so the test converges fast
            }),
            15_000,
        );
        let mut rng = StdRng::seed_from_u64(7);
        let mut early = 0;
        let mut full = 0;
        // Never release: occupancy climbs, RED must start dropping before
        // the buffer is physically full.
        for _ in 0..200 {
            match offer(&mut q, 1500, &mut rng) {
                EnqueueResult::DroppedEarly => early += 1,
                EnqueueResult::DroppedFull => full += 1,
                EnqueueResult::Queued => {}
            }
        }
        assert!(early > 0, "RED produced no early drops");
        // Early detection should keep average below the hard limit most
        // of the time; some full drops may still occur but queued bytes
        // must never exceed capacity.
        assert!(q.queued_bytes() <= q.capacity_bytes());
        let _ = full;
    }

    #[test]
    fn red_idle_queue_drops_nothing() {
        let mut q = LinkQueue::new(QueueKind::Red(RedParams::default()), 100_000);
        let mut rng = StdRng::seed_from_u64(3);
        // One packet at a time, released at once: average stays ~0.
        for _ in 0..100 {
            assert_eq!(offer(&mut q, 1500, &mut rng), EnqueueResult::Queued);
            q.release(1500);
        }
    }

    #[test]
    #[should_panic]
    fn zero_capacity_rejected() {
        let _ = LinkQueue::new(QueueKind::DropTail, 0);
    }

    #[test]
    #[should_panic]
    fn bad_red_thresholds_rejected() {
        let _ = LinkQueue::new(
            QueueKind::Red(RedParams {
                min_th: 0.9,
                max_th: 0.5,
                ..RedParams::default()
            }),
            1000,
        );
    }
}
