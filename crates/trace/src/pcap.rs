//! Real libpcap-format export of simulated captures.
//!
//! The simulator's packets carry structured headers rather than bytes,
//! so export synthesizes genuine IPv4 + TCP wire bytes (including SACK
//! options and valid IPv4 header checksums). Files use the nanosecond
//! pcap magic and `LINKTYPE_RAW` (101, raw IPv4), and are snapped to
//! headers-only (like `tcpdump -s 96`): `orig_len` records the true
//! on-wire size while payload bytes are not stored. Such files read
//! back through [`crate::pcap_import`] like any `tcpdump` capture;
//! `ServerSelector::Port(TAP_PORT)` makes the tap the server side.
//! Non-TCP simulator packets (probes, background filler) are skipped
//! on export.
//!
//! Addresses: node `n` becomes `10.(n>>16).(n>>8 & 255).(n & 255)`.
//! Ports: the data/tap side is 5001 (an iperf/NDT-style server port),
//! the peer side is `10000 + (flow % 50000)`.

use csig_netsim::{Capture, Direction, FlowId, NodeId, Packet, TcpHeader};
use std::io::{self, Write};

const PCAP_MAGIC_NANO: u32 = 0xA1B2_3C4D;
const LINKTYPE_RAW: u32 = 101;
const SNAPLEN: u32 = 96;

/// Synthesized IPv4 address for a node.
fn node_ip(node: NodeId) -> [u8; 4] {
    let n = node.0;
    [10, (n >> 16) as u8, (n >> 8) as u8, n as u8]
}

/// Synthesized peer TCP port for a flow.
pub fn flow_port(flow: FlowId) -> u16 {
    10_000 + (flow.0 % 50_000) as u16
}

/// The tap-side TCP port (NDT-style server port).
pub const TAP_PORT: u16 = 5001;

fn ipv4_checksum(header: &[u8]) -> u16 {
    let mut sum = 0u32;
    for chunk in header.chunks(2) {
        let word = ((chunk[0] as u32) << 8) | (*chunk.get(1).unwrap_or(&0) as u32);
        sum += word;
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Write a capture as a pcap file. Returns the number of packets
/// written (TCP only).
pub fn write_pcap<W: Write>(cap: &Capture, mut w: W) -> io::Result<usize> {
    // Global header.
    w.write_all(&PCAP_MAGIC_NANO.to_le_bytes())?;
    w.write_all(&2u16.to_le_bytes())?; // version major
    w.write_all(&4u16.to_le_bytes())?; // version minor
    w.write_all(&0i32.to_le_bytes())?; // thiszone
    w.write_all(&0u32.to_le_bytes())?; // sigfigs
    w.write_all(&SNAPLEN.to_le_bytes())?;
    w.write_all(&LINKTYPE_RAW.to_le_bytes())?;

    let mut written = 0;
    for rec in &cap.records {
        let Some(h) = rec.pkt.tcp() else { continue };
        let bytes = encode_ipv4_tcp(&rec.pkt, h, rec.dir, cap.node);
        let ns = rec.time.as_nanos();
        w.write_all(&((ns / 1_000_000_000) as u32).to_le_bytes())?;
        w.write_all(&((ns % 1_000_000_000) as u32).to_le_bytes())?;
        w.write_all(&(bytes.len() as u32).to_le_bytes())?; // incl_len (snapped)
        let orig = bytes.len() as u32 + h.payload_len;
        w.write_all(&orig.to_le_bytes())?;
        w.write_all(&bytes)?;
        written += 1;
    }
    Ok(written)
}

/// Encode the IPv4+TCP headers of one simulated packet.
fn encode_ipv4_tcp(pkt: &Packet, h: &TcpHeader, dir: Direction, tap: NodeId) -> Vec<u8> {
    // Determine addressing from the tap's point of view.
    let (src_ip, dst_ip, sport, dport) = match dir {
        Direction::Out => (
            node_ip(tap),
            node_ip(if pkt.dst == tap { pkt.src } else { pkt.dst }),
            TAP_PORT,
            flow_port(pkt.flow),
        ),
        Direction::In => (
            node_ip(pkt.src),
            node_ip(tap),
            flow_port(pkt.flow),
            TAP_PORT,
        ),
    };

    // TCP options: SACK blocks if present (kind 5), padded to 4 bytes.
    let mut options = Vec::new();
    let blocks: Vec<(u32, u32)> = h.sack.iter().flatten().copied().collect();
    if !blocks.is_empty() {
        options.push(1); // NOP
        options.push(1); // NOP
        options.push(5); // SACK
        options.push(2 + 8 * blocks.len() as u8);
        for (s, e) in &blocks {
            options.extend_from_slice(&s.to_be_bytes());
            options.extend_from_slice(&e.to_be_bytes());
        }
    }
    while options.len() % 4 != 0 {
        options.push(0);
    }
    let data_offset_words = 5 + options.len() / 4;

    let total_len = 20 + 20 + options.len(); // headers only (snapped)
    let ip_total = (20 + 20 + options.len() + h.payload_len as usize) as u16;

    let mut buf = Vec::with_capacity(total_len);
    // IPv4 header.
    buf.push(0x45);
    buf.push(0);
    buf.extend_from_slice(&ip_total.to_be_bytes());
    buf.extend_from_slice(&(pkt.id.0 as u16).to_be_bytes()); // identification
    buf.extend_from_slice(&0x4000u16.to_be_bytes()); // DF
    buf.push(64); // TTL
    buf.push(6); // TCP
    buf.extend_from_slice(&[0, 0]); // checksum placeholder
    buf.extend_from_slice(&src_ip);
    buf.extend_from_slice(&dst_ip);
    let csum = ipv4_checksum(&buf[..20]);
    buf[10..12].copy_from_slice(&csum.to_be_bytes());

    // TCP header.
    buf.extend_from_slice(&sport.to_be_bytes());
    buf.extend_from_slice(&dport.to_be_bytes());
    buf.extend_from_slice(&h.seq.to_be_bytes());
    buf.extend_from_slice(&h.ack.to_be_bytes());
    buf.push((data_offset_words as u8) << 4);
    let mut flags = 0u8;
    if h.flags.fin() {
        flags |= 0x01;
    }
    if h.flags.syn() {
        flags |= 0x02;
    }
    if h.flags.rst() {
        flags |= 0x04;
    }
    if h.flags.ack() {
        flags |= 0x10;
    }
    buf.push(flags);
    buf.extend_from_slice(&(h.window.min(65_535) as u16).to_be_bytes());
    buf.extend_from_slice(&[0, 0]); // TCP checksum not computed (like offload)
    buf.extend_from_slice(&[0, 0]); // urgent pointer
    buf.extend_from_slice(&options);
    buf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap_import::parse_pcap_tcp;
    use csig_netsim::{
        PacketId, PacketKind, SimDuration, SimTime, TcpFlags, NO_SACK, TCP_HEADER_BYTES,
    };

    fn mk_record(
        dir: Direction,
        t_ns: u64,
        seq: u32,
        ack: u32,
        len: u32,
        flags: TcpFlags,
        sack: csig_netsim::SackBlocks,
    ) -> csig_netsim::PacketRecord {
        let (src, dst) = match dir {
            Direction::Out => (NodeId(0), NodeId(1)),
            Direction::In => (NodeId(1), NodeId(0)),
        };
        csig_netsim::PacketRecord {
            time: SimTime::from_nanos(t_ns),
            dir,
            pkt: Packet {
                id: PacketId(3),
                flow: FlowId(42),
                src,
                dst,
                size: len + TCP_HEADER_BYTES,
                sent_at: SimTime::from_nanos(t_ns),
                kind: PacketKind::Tcp(TcpHeader {
                    seq,
                    ack,
                    flags,
                    payload_len: len,
                    window: 65_000,
                    sack,
                }),
            },
        }
    }

    #[test]
    fn roundtrip_preserves_tcp_fields() {
        let mut cap = Capture::new(NodeId(0));
        cap.records.push(mk_record(
            Direction::Out,
            1_234_567_891,
            1000,
            2000,
            1448,
            TcpFlags::ACK,
            NO_SACK,
        ));
        cap.records.push(mk_record(
            Direction::In,
            2_000_000_003,
            2000,
            2448,
            0,
            TcpFlags::ACK,
            [Some((3000, 4448)), Some((6000, 7448)), None],
        ));
        let mut buf = Vec::new();
        let n = write_pcap(&cap, &mut buf).unwrap();
        assert_eq!(n, 2);

        let parsed = parse_pcap_tcp(&buf[..]).unwrap();
        assert_eq!(parsed.len(), 2);
        for (orig, got) in cap.records.iter().zip(&parsed) {
            // The reader counts time from the first packet's whole second.
            assert_eq!(got.time + SimDuration::from_secs(1), orig.time);
            let oh = orig.pkt.tcp().unwrap();
            assert_eq!(oh.seq, got.seq);
            assert_eq!(oh.ack, got.ack);
            assert_eq!(oh.flags, got.flags);
            assert_eq!(oh.payload_len, got.payload_len);
            assert_eq!(oh.sack, got.sack);
            let client = flow_port(orig.pkt.flow);
            let (src, sport, dport) = match orig.dir {
                Direction::Out => (node_ip(NodeId(0)), TAP_PORT, client),
                Direction::In => (node_ip(NodeId(1)), client, TAP_PORT),
            };
            assert_eq!((got.src_ip, got.sport, got.dport), (src, sport, dport));
        }
    }

    #[test]
    fn non_tcp_packets_are_skipped_on_export() {
        let mut cap = Capture::new(NodeId(0));
        cap.records.push(csig_netsim::PacketRecord {
            time: SimTime::ZERO,
            dir: Direction::Out,
            pkt: Packet {
                id: PacketId(0),
                flow: FlowId(0),
                src: NodeId(0),
                dst: NodeId(1),
                size: 100,
                sent_at: SimTime::ZERO,
                kind: PacketKind::Background,
            },
        });
        let mut buf = Vec::new();
        assert_eq!(write_pcap(&cap, &mut buf).unwrap(), 0);
        assert_eq!(buf.len(), 24); // just the global header
    }

    #[test]
    fn ipv4_checksum_known_vector() {
        // Example from RFC 1071 style: verify checksum verifies itself.
        let mut hdr = vec![
            0x45, 0x00, 0x00, 0x3c, 0x1c, 0x46, 0x40, 0x00, 0x40, 0x06, 0x00, 0x00, 0xac, 0x10,
            0x0a, 0x63, 0xac, 0x10, 0x0a, 0x0c,
        ];
        let sum = ipv4_checksum(&hdr);
        hdr[10..12].copy_from_slice(&sum.to_be_bytes());
        // Re-checksumming a valid header yields zero.
        assert_eq!(ipv4_checksum(&hdr), 0);
    }

    #[test]
    fn node_addressing_is_injective_for_small_ids() {
        let mut seen = std::collections::HashSet::new();
        for n in 0..10_000u32 {
            assert!(seen.insert(node_ip(NodeId(n))));
        }
    }
}
