//! Sequence-number bookkeeping for captured packets.
//!
//! Every streaming core works in 64-bit stream offsets relative to a
//! flow's initial sequence number; [`OffsetTracker`] translates wire
//! sequence numbers into them, unwrapping the 32-bit sequence space.

use csig_tcp::seq::offset_of;

/// Incremental wire-seq → stream-offset translator for one direction of
/// one flow. Offsets are relative to `isn + 1` (the first payload byte).
#[derive(Debug, Clone)]
pub struct OffsetTracker {
    base: u32,
    near: u64,
}

impl OffsetTracker {
    /// Tracker for sequence numbers in a space whose ISS is `isn`.
    pub fn new(isn: u32) -> Self {
        OffsetTracker {
            base: isn.wrapping_add(1),
            near: 0,
        }
    }

    /// The wire sequence number of stream offset zero.
    pub fn base(&self) -> u32 {
        self.base.wrapping_sub(1)
    }

    /// Translate a wire sequence number, updating the unwrap reference.
    pub fn offset(&mut self, wire: u32) -> u64 {
        let off = offset_of(self.base, wire, self.near);
        // Keep the reference near the forward edge but never let a
        // stale/old packet drag it backwards.
        if off > self.near {
            self.near = off;
        }
        off
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_tracker_unwraps_forward() {
        let mut t = OffsetTracker::new(u32::MAX - 10);
        // First payload byte has wire seq ISS+1 = u32::MAX - 9.
        assert_eq!(t.offset(u32::MAX - 9), 0);
        assert_eq!(t.offset((u32::MAX - 9).wrapping_add(100)), 100);
        // Crossing the 32-bit wrap.
        let wrapped = (u32::MAX - 9).wrapping_add(20_000);
        assert_eq!(t.offset(wrapped), 20_000);
        // An old (retransmitted) packet does not drag the reference back.
        assert_eq!(t.offset(u32::MAX - 9), 0);
        assert_eq!(t.offset(wrapped), 20_000);
    }
}
