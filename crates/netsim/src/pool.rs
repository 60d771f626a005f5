//! Packet arena: slab storage with generational handles.
//!
//! The hot path used to move full [`Packet`] structs (~80 bytes) through
//! the event queue and link buffers. Instead, packets in flight live in
//! a [`PacketPool`] and everything else carries a small, `Copy`
//! [`PacketHandle`]. Slots are recycled through a free list, so a steady
//! simulation allocates nothing per packet; a generation counter per
//! slot turns use-after-free of a recycled handle into a deterministic
//! panic instead of silent corruption.
//!
//! # Lifetime rules
//!
//! * A handle is created by [`PacketPool::insert`] when a link buffer
//!   admits a packet fresh from a host (an agent's send or a router's
//!   probe reply). A fault plan's duplicate is inserted as a copy with
//!   a handle of its own.
//! * From admission until departure both the link's FIFO entry and the
//!   pending arrival name the packet; after departure only the arrival
//!   does.
//! * A packet keeps its handle from that first admission to its final
//!   delivery: a router forwards the handle itself to the next link. A
//!   drop on a later hop (loss, RED, buffer overflow, link down, no
//!   route) frees the slot with [`PacketPool::take`].
//! * A fault or reconfiguration that re-times the packet moves it to a
//!   new handle (take, then insert): the old `Deliver` now names a
//!   stale handle, which the simulator skips (`PacketPool::contains`).
//! * The simulator redeems the handle with [`PacketPool::take`] when the
//!   packet reaches its destination, freeing the slot.
//! * A packet dropped at its first hop is rejected *before* insertion
//!   and never touches the pool.

use crate::packet::Packet;

/// A small, copyable reference to a packet stored in a [`PacketPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketHandle {
    idx: u32,
    gen: u32,
}

#[derive(Debug)]
struct Slot {
    gen: u32,
    pkt: Option<Packet>,
}

/// Slab arena holding every packet currently queued or in flight.
#[derive(Debug, Default)]
pub struct PacketPool {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    high_water: usize,
}

impl PacketPool {
    /// An empty pool.
    pub fn new() -> Self {
        PacketPool::default()
    }

    /// Number of packets currently stored.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Highest number of simultaneously stored packets ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Store `pkt`, returning its handle.
    pub fn insert(&mut self, pkt: Packet) -> PacketHandle {
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.pkt.is_none(), "free-list slot still occupied");
                slot.pkt = Some(pkt);
                PacketHandle { idx, gen: slot.gen }
            }
            None => {
                let idx = self.slots.len() as u32;
                self.slots.push(Slot {
                    gen: 0,
                    pkt: Some(pkt),
                });
                PacketHandle { idx, gen: 0 }
            }
        }
    }

    /// Whether `h` still names a stored packet; `take` bumps the slot's
    /// generation, so a matching one means the packet is still there.
    pub(crate) fn contains(&self, h: PacketHandle) -> bool {
        self.slots
            .get(h.idx as usize)
            .is_some_and(|s| s.gen == h.gen)
    }

    /// Read a stored packet.
    ///
    /// # Panics
    /// Panics if the handle is stale (its packet was already taken).
    pub fn get(&self, h: PacketHandle) -> &Packet {
        match self.slots.get(h.idx as usize) {
            Some(slot) if slot.gen == h.gen => match &slot.pkt {
                Some(pkt) => pkt,
                None => panic!("stale packet handle (slot empty)"),
            },
            _ => panic!("stale packet handle (generation mismatch)"),
        }
    }

    /// Remove and return a stored packet, freeing its slot.
    ///
    /// # Panics
    /// Panics if the handle is stale (double free).
    pub fn take(&mut self, h: PacketHandle) -> Packet {
        let slot = match self.slots.get_mut(h.idx as usize) {
            Some(slot) if slot.gen == h.gen => slot,
            _ => panic!("stale packet handle (generation mismatch)"),
        };
        let Some(pkt) = slot.pkt.take() else {
            panic!("stale packet handle (double free)")
        };
        slot.gen = slot.gen.wrapping_add(1);
        self.live -= 1;
        self.free.push(h.idx);
        pkt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, NodeId, PacketId};
    use crate::packet::PacketKind;
    use crate::time::SimTime;

    fn pkt(id: u64) -> Packet {
        Packet {
            id: PacketId(id),
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            size: 100,
            sent_at: SimTime::ZERO,
            kind: PacketKind::Background,
        }
    }

    #[test]
    fn insert_get_take_roundtrip() {
        let mut pool = PacketPool::new();
        let h = pool.insert(pkt(7));
        assert_eq!(pool.get(h).id, PacketId(7));
        assert_eq!(pool.live(), 1);
        let p = pool.take(h);
        assert_eq!(p.id, PacketId(7));
        assert_eq!(pool.live(), 0);
    }

    #[test]
    fn slots_are_recycled_without_growth() {
        let mut pool = PacketPool::new();
        for i in 0..100 {
            let h = pool.insert(pkt(i));
            pool.take(h);
        }
        assert_eq!(pool.high_water(), 1);
        assert_eq!(pool.slots.len(), 1);
    }

    #[test]
    #[should_panic(expected = "stale packet handle")]
    fn stale_handle_panics() {
        let mut pool = PacketPool::new();
        let h = pool.insert(pkt(1));
        pool.take(h);
        // The slot was recycled with a bumped generation.
        let h2 = pool.insert(pkt(2));
        assert_ne!(h, h2);
        let _ = pool.get(h);
    }

    #[test]
    #[should_panic(expected = "stale packet handle")]
    fn double_take_panics() {
        let mut pool = PacketPool::new();
        let h = pool.insert(pkt(1));
        pool.take(h);
        let _ = pool.take(h);
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut pool = PacketPool::new();
        let hs: Vec<_> = (0..10).map(|i| pool.insert(pkt(i))).collect();
        for h in hs {
            pool.take(h);
        }
        assert_eq!(pool.high_water(), 10);
        assert_eq!(pool.live(), 0);
    }
}
