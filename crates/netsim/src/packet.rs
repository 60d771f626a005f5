//! Wire formats.
//!
//! The simulator is packet-level but not byte-level: a [`Packet`] carries
//! structured header fields and a payload *length* rather than payload
//! bytes. This is sufficient for congestion dynamics (which depend only
//! on sizes and sequence numbers) and keeps memory use low.

use crate::ids::{FlowId, NodeId, PacketId};
use crate::time::SimTime;
use std::fmt;

/// Bytes of IP + TCP header (with timestamp option), mirroring a typical
/// Linux segment: 20 (IP) + 20 (TCP) + 12 (options).
pub const TCP_HEADER_BYTES: u32 = 52;

/// Default maximum segment size used by endpoints. 1500-byte MTU minus
/// [`TCP_HEADER_BYTES`].
pub const DEFAULT_MSS: u32 = 1448;

/// TCP control-bit flags. Only the bits the model uses are defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// Synchronize sequence numbers (connection open).
    pub const SYN: TcpFlags = TcpFlags(0b0000_0001);
    /// Acknowledgment field is valid.
    pub const ACK: TcpFlags = TcpFlags(0b0000_0010);
    /// Sender has finished sending (connection close).
    pub const FIN: TcpFlags = TcpFlags(0b0000_0100);
    /// Abort the connection.
    pub const RST: TcpFlags = TcpFlags(0b0000_1000);

    /// Union of two flag sets.
    #[inline]
    pub const fn union(self, other: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | other.0)
    }

    /// Does this set contain every bit of `other`?
    #[inline]
    pub const fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Convenience predicates.
    #[inline]
    pub const fn syn(self) -> bool {
        self.contains(TcpFlags::SYN)
    }
    /// Is the ACK bit set?
    #[inline]
    pub const fn ack(self) -> bool {
        self.contains(TcpFlags::ACK)
    }
    /// Is the FIN bit set?
    #[inline]
    pub const fn fin(self) -> bool {
        self.contains(TcpFlags::FIN)
    }
    /// Is the RST bit set?
    #[inline]
    pub const fn rst(self) -> bool {
        self.contains(TcpFlags::RST)
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        self.union(rhs)
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut any = false;
        for (bit, name) in [
            (TcpFlags::SYN, "S"),
            (TcpFlags::ACK, "A"),
            (TcpFlags::FIN, "F"),
            (TcpFlags::RST, "R"),
        ] {
            if self.contains(bit) {
                f.write_str(name)?;
                any = true;
            }
        }
        if !any {
            f.write_str(".")?;
        }
        Ok(())
    }
}

/// SACK option: up to three `[start, end)` blocks in wire sequence
/// space, like the on-the-wire TCP SACK option (RFC 2018).
pub type SackBlocks = [Option<(u32, u32)>; 3];

/// An empty SACK option.
pub const NO_SACK: SackBlocks = [None, None, None];

/// The TCP header fields the model carries on the wire.
///
/// Sequence and acknowledgment numbers are 32-bit and wrap, exactly like
/// real TCP; use `csig_tcp::seq` helpers for comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// First sequence number of the segment payload (or of SYN/FIN).
    pub seq: u32,
    /// Cumulative acknowledgment number (valid when `flags.ack()`).
    pub ack: u32,
    /// Control bits.
    pub flags: TcpFlags,
    /// Payload bytes carried by this segment (0 for pure ACKs).
    pub payload_len: u32,
    /// Advertised receive window in bytes (already scaled).
    pub window: u32,
    /// Selective-acknowledgment blocks (RFC 2018), empty when unused.
    pub sack: SackBlocks,
}

impl TcpHeader {
    /// Sequence number consumed by this segment: payload plus one each
    /// for SYN and FIN.
    pub fn seq_len(&self) -> u32 {
        let mut len = self.payload_len;
        if self.flags.syn() {
            len += 1;
        }
        if self.flags.fin() {
            len += 1;
        }
        len
    }

    /// Sequence number immediately after this segment.
    pub fn seq_end(&self) -> u32 {
        self.seq.wrapping_add(self.seq_len())
    }
}

/// Direction/role of a latency probe packet ([`PacketKind::Probe`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeKind {
    /// Echo request travelling towards the target.
    Request,
    /// Echo reply carrying the request's send timestamp back.
    Reply {
        /// When the corresponding request was sent.
        sent_at: SimTime,
    },
}

/// What a packet *is*, above the link layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A TCP segment.
    Tcp(TcpHeader),
    /// An ICMP-like latency probe (used by the TSLP substrate). The
    /// `ident` lets the prober match replies to requests.
    Probe {
        /// Request or reply, with echo timestamp on replies.
        kind: ProbeKind,
        /// Prober-chosen identifier echoed in the reply.
        ident: u64,
    },
    /// Opaque background traffic (constant-bit-rate filler). Consumes
    /// link capacity and buffer space but is simply absorbed at the
    /// destination.
    Background,
}

/// A packet in flight. All fields are plain values, so packets are
/// `Copy` — the hot path moves them by bitwise copy, never by heap
/// allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Packet {
    /// Unique per-transmission id (assigned by the simulator).
    pub id: PacketId,
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Originating host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Total size on the wire in bytes (headers + payload).
    pub size: u32,
    /// When the source handed the packet to its first link.
    pub sent_at: SimTime,
    /// Protocol content.
    pub kind: PacketKind,
}

impl Packet {
    /// The TCP header if this is a TCP packet.
    pub fn tcp(&self) -> Option<&TcpHeader> {
        match &self.kind {
            PacketKind::Tcp(h) => Some(h),
            _ => None,
        }
    }
}

/// A packet as constructed by an agent, before the simulator assigns an
/// id and timestamp and routes it. See `Ctx::send`.
#[derive(Debug, Clone)]
pub struct PacketSpec {
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Destination host.
    pub dst: NodeId,
    /// Total size on the wire in bytes.
    pub size: u32,
    /// Protocol content.
    pub kind: PacketKind,
}

impl PacketSpec {
    /// A TCP segment spec; wire size is payload + [`TCP_HEADER_BYTES`].
    pub fn tcp(flow: FlowId, dst: NodeId, header: TcpHeader) -> Self {
        PacketSpec {
            flow,
            dst,
            size: header.payload_len + TCP_HEADER_BYTES,
            kind: PacketKind::Tcp(header),
        }
    }

    /// A fixed-size probe packet (64 bytes, like a small ICMP echo).
    pub fn probe(flow: FlowId, dst: NodeId, kind: ProbeKind, ident: u64) -> Self {
        PacketSpec {
            flow,
            dst,
            size: 64,
            kind: PacketKind::Probe { kind, ident },
        }
    }

    /// An opaque background packet of the given wire size.
    pub fn background(flow: FlowId, dst: NodeId, size: u32) -> Self {
        PacketSpec {
            flow,
            dst,
            size,
            kind: PacketKind::Background,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_union_and_contains() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.syn() && f.ack());
        assert!(!f.fin() && !f.rst());
        assert!(f.contains(TcpFlags::SYN));
        assert!(!TcpFlags::SYN.contains(f));
        assert_eq!(f.to_string(), "SA");
        assert_eq!(TcpFlags::default().to_string(), ".");
    }

    #[test]
    fn seq_len_counts_syn_and_fin() {
        let mut h = TcpHeader {
            seq: 100,
            ack: 0,
            flags: TcpFlags::default(),
            payload_len: 10,
            window: 65535,
            sack: NO_SACK,
        };
        assert_eq!(h.seq_len(), 10);
        assert_eq!(h.seq_end(), 110);
        h.flags = TcpFlags::SYN;
        assert_eq!(h.seq_len(), 11);
        h.flags = TcpFlags::SYN | TcpFlags::FIN;
        assert_eq!(h.seq_len(), 12);
    }

    #[test]
    fn seq_end_wraps() {
        let h = TcpHeader {
            seq: u32::MAX,
            ack: 0,
            flags: TcpFlags::default(),
            payload_len: 2,
            window: 0,
            sack: NO_SACK,
        };
        assert_eq!(h.seq_end(), 1);
    }

    #[test]
    fn tcp_spec_adds_header_bytes() {
        let h = TcpHeader {
            seq: 0,
            ack: 0,
            flags: TcpFlags::ACK,
            payload_len: 1448,
            window: 65535,
            sack: NO_SACK,
        };
        let spec = PacketSpec::tcp(FlowId(0), NodeId(1), h);
        assert_eq!(spec.size, 1500);
    }

    #[test]
    fn probe_spec_is_small() {
        let spec = PacketSpec::probe(FlowId(0), NodeId(1), ProbeKind::Request, 42);
        assert_eq!(spec.size, 64);
    }
}
