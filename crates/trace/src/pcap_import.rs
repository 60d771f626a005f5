//! Import of pcap files: real `tcpdump` output and the files
//! [`crate::pcap`] writes.
//!
//! Supports little-endian microsecond (`0xA1B2C3D4`) and nanosecond
//! (`0xA1B23C4D`) magics with `LINKTYPE_RAW` (101) or
//! `LINKTYPE_ETHERNET` (1) framing, IPv4/TCP with options (SACK blocks
//! are decoded). Packets are grouped into flows by 4-tuple and
//! converted into a server-side [`Capture`]: the "server" endpoint is
//! either given explicitly (by port) or inferred as the endpoint that
//! sent the most payload bytes (see [`ServerSelector`]).
//!
//! Malformed TCP packets are rejected with [`ImportError::Format`]
//! rather than silently repaired: an option with a declared length of 0
//! or 1, an option whose length points past the header, a missing
//! option length byte, and a data offset beyond the captured bytes are
//! all fatal, because the rest of the header cannot be delimited
//! trustworthily. Non-TCP and non-IPv4 frames are still skipped.

use csig_netsim::{
    Capture, Direction, FlowId, NodeId, Packet, PacketId, PacketKind, SackBlocks, SimTime,
    TcpFlags, TcpHeader, NO_SACK, TCP_HEADER_BYTES,
};
use std::collections::HashMap;
use std::io::{self, Read};

const MAGIC_MICRO: u32 = 0xA1B2_C3D4;
const MAGIC_NANO: u32 = 0xA1B2_3C4D;
const LINKTYPE_ETHERNET: u32 = 1;
const LINKTYPE_RAW: u32 = 101;

/// A TCP packet as parsed from a pcap file, endpoint-agnostic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawTcpPacket {
    /// Capture timestamp (nanoseconds since the first packet's second).
    pub time: SimTime,
    /// Source IPv4 address.
    pub src_ip: [u8; 4],
    /// Destination IPv4 address.
    pub dst_ip: [u8; 4],
    /// Source TCP port.
    pub sport: u16,
    /// Destination TCP port.
    pub dport: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Payload length (from the IP total length; falls back to captured
    /// length when the IP header lies, as some offloaded captures do).
    pub payload_len: u32,
    /// Advertised window (unscaled).
    pub window: u32,
    /// SACK blocks, if present.
    pub sack: SackBlocks,
}

/// Errors importing a foreign pcap.
#[derive(Debug)]
pub enum ImportError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Unsupported or corrupt file structure.
    Format(&'static str),
}

impl From<io::Error> for ImportError {
    fn from(e: io::Error) -> Self {
        ImportError::Io(e)
    }
}

impl std::fmt::Display for ImportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImportError::Io(e) => write!(f, "pcap import io error: {e}"),
            ImportError::Format(m) => write!(f, "pcap import format error: {m}"),
        }
    }
}

impl std::error::Error for ImportError {}

// Fixed-width reads at a caller-bounds-checked offset. Plain indexing
// keeps these panic-free for every call site (each is preceded by a
// length check) without `expect` on an infallible `try_into`.
fn le_u32(b: &[u8], o: usize) -> u32 {
    u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]])
}

fn be_u16(b: &[u8], o: usize) -> u16 {
    u16::from_be_bytes([b[o], b[o + 1]])
}

fn be_u32(b: &[u8], o: usize) -> u32 {
    u32::from_be_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]])
}

fn ip4(b: &[u8], o: usize) -> [u8; 4] {
    [b[o], b[o + 1], b[o + 2], b[o + 3]]
}

/// Parse every IPv4/TCP packet out of a pcap stream; non-TCP packets
/// are skipped silently.
pub fn parse_pcap_tcp<R: Read>(mut r: R) -> Result<Vec<RawTcpPacket>, ImportError> {
    let mut global = [0u8; 24];
    r.read_exact(&mut global)?;
    let magic = le_u32(&global, 0);
    let nanos_per_frac = match magic {
        MAGIC_MICRO => 1_000u64,
        MAGIC_NANO => 1,
        _ => return Err(ImportError::Format("unsupported magic (need LE pcap)")),
    };
    let linktype = le_u32(&global, 20);
    let l2_skip = match linktype {
        LINKTYPE_RAW => 0usize,
        LINKTYPE_ETHERNET => 14,
        _ => {
            return Err(ImportError::Format(
                "unsupported linktype (need RAW or EN10MB)",
            ))
        }
    };

    let mut packets = Vec::new();
    let mut hdr = [0u8; 16];
    let mut base_sec: Option<u64> = None;
    loop {
        match r.read_exact(&mut hdr) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        }
        let ts_sec = le_u32(&hdr, 0) as u64;
        let ts_frac = le_u32(&hdr, 4) as u64;
        let incl = le_u32(&hdr, 8) as usize;
        let orig = le_u32(&hdr, 12);
        if incl > 256 * 1024 {
            return Err(ImportError::Format("implausible packet length"));
        }
        let mut data = vec![0u8; incl];
        r.read_exact(&mut data)?;
        // Timestamps relative to the first packet's second keeps SimTime
        // in range for multi-year epoch values.
        let base = *base_sec.get_or_insert(ts_sec);
        let time = SimTime::from_nanos(
            ts_sec.saturating_sub(base) * 1_000_000_000 + ts_frac * nanos_per_frac,
        );

        let Some(ip) = data.get(l2_skip..) else {
            continue;
        };
        if linktype == LINKTYPE_ETHERNET {
            // Require the IPv4 ethertype.
            if data.len() < 14 || data[12] != 0x08 || data[13] != 0x00 {
                continue;
            }
        }
        if ip.len() < 40 || ip[0] >> 4 != 4 {
            continue;
        }
        let ihl = ((ip[0] & 0xF) as usize) * 4;
        if ip[9] != 6 || ip.len() < ihl + 20 {
            continue;
        }
        let ip_total = be_u16(ip, 2) as u32;
        let src_ip = ip4(ip, 12);
        let dst_ip = ip4(ip, 16);
        let tcp = &ip[ihl..];
        let doff = ((tcp[12] >> 4) as usize) * 4;
        if doff < 20 || tcp.len() < 20 {
            continue;
        }
        let fbyte = tcp[13];
        let mut flags = TcpFlags::default();
        if fbyte & 0x01 != 0 {
            flags = flags | TcpFlags::FIN;
        }
        if fbyte & 0x02 != 0 {
            flags = flags | TcpFlags::SYN;
        }
        if fbyte & 0x04 != 0 {
            flags = flags | TcpFlags::RST;
        }
        if fbyte & 0x10 != 0 {
            flags = flags | TcpFlags::ACK;
        }
        if tcp.len() < doff {
            return Err(ImportError::Format("TCP header overruns captured frame"));
        }
        let mut sack = NO_SACK;
        {
            let mut opts = &tcp[20..doff];
            while !opts.is_empty() {
                let kind = opts[0];
                match kind {
                    0 => break,
                    1 => {
                        opts = &opts[1..];
                        continue;
                    }
                    _ => {}
                }
                // Every other option carries a length byte covering the
                // whole option. A declared length of 0 or 1 (or one
                // pointing past the header) is not recoverable — the
                // rest of the option area cannot be delimited — so the
                // packet is rejected rather than silently mis-parsed.
                let Some(&l) = opts.get(1) else {
                    return Err(ImportError::Format("TCP option missing its length byte"));
                };
                let len = l as usize;
                if len < 2 {
                    return Err(ImportError::Format("TCP option with declared length < 2"));
                }
                if len > opts.len() {
                    return Err(ImportError::Format("TCP option overruns the header"));
                }
                if kind == 5 {
                    let nblocks = ((len - 2) / 8).min(3);
                    for (i, slot) in sack.iter_mut().enumerate().take(nblocks) {
                        let o = 2 + i * 8;
                        if o + 8 <= len {
                            *slot = Some((be_u32(opts, o), be_u32(opts, o + 4)));
                        }
                    }
                }
                opts = &opts[len..];
            }
        }
        // Payload from the IP total length; if zero/implausible (TSO
        // offload writes 0), fall back to the original wire length.
        let payload_len = if ip_total as usize >= ihl + doff {
            ip_total - (ihl + doff) as u32
        } else {
            orig.saturating_sub((l2_skip + ihl + doff) as u32)
        };
        packets.push(RawTcpPacket {
            time,
            src_ip,
            dst_ip,
            sport: be_u16(tcp, 0),
            dport: be_u16(tcp, 2),
            seq: be_u32(tcp, 4),
            ack: be_u32(tcp, 8),
            flags,
            payload_len,
            window: be_u16(tcp, 14) as u32,
            sack,
        });
    }
    Ok(packets)
}

/// How to pick the server (data-sending, tap-side) endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerSelector {
    /// The endpoint using this TCP port.
    Port(u16),
    /// The endpoint that transmitted the most payload bytes. Among
    /// endpoints tied on bytes, the one that sent first in capture
    /// order wins, so the choice never depends on hashing.
    MostBytesSent,
}

/// Group parsed packets into a server-side [`Capture`]: one synthetic
/// flow id per 4-tuple, `Out` for packets the server endpoint sent.
pub fn assemble_capture(packets: &[RawTcpPacket], server: ServerSelector) -> Capture {
    // Identify the server endpoint.
    let server_key: Option<([u8; 4], u16)> = match server {
        ServerSelector::Port(p) => packets.iter().find_map(|pkt| {
            if pkt.sport == p {
                Some((pkt.src_ip, pkt.sport))
            } else if pkt.dport == p {
                Some((pkt.dst_ip, pkt.dport))
            } else {
                None
            }
        }),
        ServerSelector::MostBytesSent => {
            // Bytes per endpoint, in the order the endpoints first sent.
            let mut index: HashMap<([u8; 4], u16), usize> = HashMap::new();
            let mut sent: Vec<(([u8; 4], u16), u64)> = Vec::new();
            for pkt in packets {
                let key = (pkt.src_ip, pkt.sport);
                let i = *index.entry(key).or_insert_with(|| {
                    sent.push((key, 0));
                    sent.len() - 1
                });
                sent[i].1 += pkt.payload_len as u64;
            }
            // `min_by_key` keeps the first of equal keys.
            sent.into_iter()
                .min_by_key(|&(_, b)| std::cmp::Reverse(b))
                .map(|(k, _)| k)
        }
    };
    let Some(server_key) = server_key else {
        return Capture::new(NodeId(0));
    };

    let mut cap = Capture::new(NodeId(0));
    let mut flow_ids: HashMap<([u8; 4], u16, [u8; 4], u16), FlowId> = HashMap::new();
    let mut next_flow = 0u32;
    let mut next_id = 0u64;
    for pkt in packets {
        let from_server = (pkt.src_ip, pkt.sport) == server_key;
        let to_server = (pkt.dst_ip, pkt.dport) == server_key;
        if !from_server && !to_server {
            continue; // unrelated traffic in the capture
        }
        // Canonical tuple: (client, server) ordering.
        let tuple = if from_server {
            (pkt.dst_ip, pkt.dport, pkt.src_ip, pkt.sport)
        } else {
            (pkt.src_ip, pkt.sport, pkt.dst_ip, pkt.dport)
        };
        let flow = *flow_ids.entry(tuple).or_insert_with(|| {
            let f = FlowId(next_flow);
            next_flow += 1;
            f
        });
        let dir = if from_server {
            Direction::Out
        } else {
            Direction::In
        };
        cap.records.push(csig_netsim::PacketRecord {
            time: pkt.time,
            dir,
            pkt: Packet {
                id: PacketId(next_id),
                flow,
                src: NodeId(u32::from(from_server)),
                dst: NodeId(u32::from(!from_server)),
                size: pkt.payload_len + TCP_HEADER_BYTES,
                sent_at: pkt.time,
                kind: PacketKind::Tcp(TcpHeader {
                    seq: pkt.seq,
                    ack: pkt.ack,
                    flags: pkt.flags,
                    payload_len: pkt.payload_len,
                    window: pkt.window,
                    sack: pkt.sack,
                }),
            },
        });
        next_id += 1;
    }
    cap
}

/// Convenience: parse + assemble in one call.
pub fn import_pcap<R: Read>(r: R, server: ServerSelector) -> Result<Capture, ImportError> {
    let packets = parse_pcap_tcp(r)?;
    Ok(assemble_capture(&packets, server))
}

#[cfg(test)]
mod tests {
    use super::*;
    use csig_rng::{cases, StdRng};

    /// Build a microsecond-magic Ethernet pcap with hand-rolled bytes.
    fn synthetic_ethernet_pcap() -> Vec<u8> {
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_MICRO.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes());
        buf.extend_from_slice(&4u16.to_le_bytes());
        buf.extend_from_slice(&0i32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&65535u32.to_le_bytes());
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());

        // One data packet server(10.0.0.1:5001) → client(10.0.0.2:40000)
        // and one pure ACK back.
        for (src, sport, dst, dport, seq, ack, payload, fl, t_us) in [
            (
                [10, 0, 0, 1],
                5001u16,
                [10, 0, 0, 2],
                40_000u16,
                1000u32,
                1u32,
                100u32,
                0x10u8,
                500u64,
            ),
            (
                [10, 0, 0, 2],
                40_000,
                [10, 0, 0, 1],
                5001,
                1,
                1100,
                0,
                0x10,
                40_500,
            ),
        ] {
            let mut frame = Vec::new();
            // Ethernet: dst mac, src mac, ethertype IPv4.
            frame.extend_from_slice(&[0u8; 12]);
            frame.extend_from_slice(&[0x08, 0x00]);
            // IPv4 header.
            frame.push(0x45);
            frame.push(0);
            frame.extend_from_slice(&((20 + 20 + payload) as u16).to_be_bytes());
            frame.extend_from_slice(&[0, 0, 0x40, 0, 64, 6, 0, 0]);
            frame.extend_from_slice(&src);
            frame.extend_from_slice(&dst);
            // TCP header.
            frame.extend_from_slice(&sport.to_be_bytes());
            frame.extend_from_slice(&dport.to_be_bytes());
            frame.extend_from_slice(&seq.to_be_bytes());
            frame.extend_from_slice(&ack.to_be_bytes());
            frame.push(5 << 4);
            frame.push(fl);
            frame.extend_from_slice(&65535u16.to_be_bytes());
            frame.extend_from_slice(&[0, 0, 0, 0]);
            // Payload bytes (zeros).
            frame.extend_from_slice(&vec![0u8; payload as usize]);

            buf.extend_from_slice(&((t_us / 1_000_000) as u32).to_le_bytes());
            buf.extend_from_slice(&((t_us % 1_000_000) as u32).to_le_bytes());
            buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
            buf.extend_from_slice(&frame);
        }
        buf
    }

    #[test]
    fn parses_microsecond_ethernet_captures() {
        let buf = synthetic_ethernet_pcap();
        let packets = parse_pcap_tcp(&buf[..]).unwrap();
        assert_eq!(packets.len(), 2);
        assert_eq!(packets[0].sport, 5001);
        assert_eq!(packets[0].payload_len, 100);
        assert_eq!(packets[0].time, SimTime::from_micros(500));
        assert_eq!(packets[1].payload_len, 0);
        assert_eq!(packets[1].ack, 1100);
        // Microsecond fraction scaled to nanoseconds.
        assert_eq!(packets[1].time, SimTime::from_micros(40_500));
    }

    #[test]
    fn assembles_server_side_capture_by_port() {
        let buf = synthetic_ethernet_pcap();
        let packets = parse_pcap_tcp(&buf[..]).unwrap();
        let cap = assemble_capture(&packets, ServerSelector::Port(5001));
        assert_eq!(cap.records.len(), 2);
        assert_eq!(cap.records[0].dir, Direction::Out);
        assert_eq!(cap.records[1].dir, Direction::In);
        assert_eq!(cap.records[0].pkt.flow, cap.records[1].pkt.flow);
    }

    #[test]
    fn server_inference_by_bytes_sent() {
        let buf = synthetic_ethernet_pcap();
        let packets = parse_pcap_tcp(&buf[..]).unwrap();
        // The 100-byte sender (port 5001) must be chosen automatically.
        let cap = assemble_capture(&packets, ServerSelector::MostBytesSent);
        assert_eq!(cap.records[0].dir, Direction::Out);
    }

    #[test]
    fn server_inference_breaks_byte_ties_by_first_sender() {
        let sender = |src: [u8; 4], sport: u16, dst: [u8; 4], dport: u16, t_ms: u64| RawTcpPacket {
            time: SimTime::from_millis(t_ms),
            src_ip: src,
            dst_ip: dst,
            sport,
            dport,
            seq: 1,
            ack: 1,
            flags: TcpFlags::ACK,
            payload_len: 100,
            window: 65535,
            sack: NO_SACK,
        };
        // Both endpoints send 100 payload bytes; 10.0.0.2:40000 first.
        let packets = [
            sender([10, 0, 0, 2], 40_000, [10, 0, 0, 1], 5001, 1),
            sender([10, 0, 0, 1], 5001, [10, 0, 0, 2], 40_000, 2),
        ];
        for _ in 0..64 {
            let cap = assemble_capture(&packets, ServerSelector::MostBytesSent);
            assert_eq!(
                cap.records[0].dir,
                Direction::Out,
                "first sender is the server"
            );
            assert_eq!(cap.records[1].dir, Direction::In);
        }
    }

    #[test]
    fn native_roundtrip_format_also_imports() {
        // Files written by crate::pcap (nanosecond, LINKTYPE_RAW) parse
        // through the generic importer too.
        use csig_netsim::{Capture, Packet, PacketKind};
        let mut cap = Capture::new(NodeId(3));
        cap.records.push(csig_netsim::PacketRecord {
            time: SimTime::from_millis(7),
            dir: Direction::Out,
            pkt: Packet {
                id: PacketId(0),
                flow: FlowId(9),
                src: NodeId(3),
                dst: NodeId(4),
                size: 100 + TCP_HEADER_BYTES,
                sent_at: SimTime::from_millis(7),
                kind: PacketKind::Tcp(TcpHeader {
                    seq: 5,
                    ack: 6,
                    flags: TcpFlags::ACK,
                    payload_len: 100,
                    window: 1000,
                    sack: NO_SACK,
                }),
            },
        });
        let mut buf = Vec::new();
        crate::pcap::write_pcap(&cap, &mut buf).unwrap();
        let packets = parse_pcap_tcp(&buf[..]).unwrap();
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].seq, 5);
        assert_eq!(packets[0].payload_len, 100);
    }

    /// A nanosecond/RAW pcap holding one TCP packet whose option area
    /// is exactly `opts` (must be padded to a multiple of 4 bytes).
    fn pcap_with_options(opts: &[u8]) -> Vec<u8> {
        assert!(opts.len().is_multiple_of(4));
        let doff = 20 + opts.len();
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_NANO.to_le_bytes());
        buf.extend_from_slice(&[2, 0, 4, 0]);
        buf.extend_from_slice(&[0u8; 12]);
        buf.extend_from_slice(&LINKTYPE_RAW.to_le_bytes());

        let mut frame = Vec::new();
        frame.push(0x45);
        frame.push(0);
        frame.extend_from_slice(&((20 + doff) as u16).to_be_bytes());
        frame.extend_from_slice(&[0, 0, 0x40, 0, 64, 6, 0, 0]);
        frame.extend_from_slice(&[10, 0, 0, 1]);
        frame.extend_from_slice(&[10, 0, 0, 2]);
        frame.extend_from_slice(&5001u16.to_be_bytes());
        frame.extend_from_slice(&40_000u16.to_be_bytes());
        frame.extend_from_slice(&1000u32.to_be_bytes());
        frame.extend_from_slice(&1u32.to_be_bytes());
        frame.push(((doff / 4) as u8) << 4);
        frame.push(0x10);
        frame.extend_from_slice(&65535u16.to_be_bytes());
        frame.extend_from_slice(&[0, 0, 0, 0]);
        frame.extend_from_slice(opts);

        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        buf.extend_from_slice(&frame);
        buf
    }

    #[test]
    fn decodes_valid_sack_blocks() {
        // NOP, NOP, SACK(len 10) with one block [7, 19].
        let mut opts = vec![1, 1, 5, 10];
        opts.extend_from_slice(&7u32.to_be_bytes());
        opts.extend_from_slice(&19u32.to_be_bytes());
        let packets = parse_pcap_tcp(&pcap_with_options(&opts)[..]).unwrap();
        assert_eq!(packets.len(), 1);
        assert_eq!(packets[0].sack[0], Some((7, 19)));
        assert_eq!(packets[0].sack[1], None);
    }

    #[test]
    fn rejects_zero_and_one_length_tcp_options() {
        // A declared option length of 0 or 1 cannot delimit the rest of
        // the option area; the old importer clamped it to 2 silently.
        for bad_len in [0u8, 1] {
            let err = parse_pcap_tcp(&pcap_with_options(&[8, bad_len, 0, 0])[..]).unwrap_err();
            assert!(
                matches!(err, ImportError::Format(m) if m.contains("declared length")),
                "len {bad_len}: {err}"
            );
        }
        // SACK with a bad declared length is rejected the same way.
        let err = parse_pcap_tcp(&pcap_with_options(&[5, 1, 0, 0])[..]).unwrap_err();
        assert!(matches!(err, ImportError::Format(_)), "{err}");
    }

    #[test]
    fn rejects_truncated_tcp_options() {
        // Length byte points past the end of the option area…
        let err = parse_pcap_tcp(&pcap_with_options(&[5, 34, 0, 0])[..]).unwrap_err();
        assert!(
            matches!(err, ImportError::Format(m) if m.contains("overruns")),
            "{err}"
        );
        // …or the option area ends before the length byte (EOL padding
        // after a bare kind would be mis-read as length 0).
        let err = parse_pcap_tcp(&pcap_with_options(&[1, 1, 1, 8])[..]).unwrap_err();
        assert!(
            matches!(err, ImportError::Format(m) if m.contains("length byte")),
            "{err}"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            parse_pcap_tcp(&[0u8; 24][..]),
            Err(ImportError::Format(_))
        ));
        assert!(matches!(
            parse_pcap_tcp(&[0u8; 3][..]),
            Err(ImportError::Io(_))
        ));
    }

    /// Up to 2047 arbitrary bytes.
    fn random_bytes(rng: &mut StdRng) -> Vec<u8> {
        let len = rng.gen_range(0..2048usize);
        (0..len).map(|_| rng.gen()).collect()
    }

    /// Arbitrary bytes never panic the importer — they error or parse
    /// to some packet list.
    #[test]
    fn prop_importer_is_total() {
        cases(256, "prop_importer_is_total", |rng| {
            let _ = parse_pcap_tcp(&random_bytes(rng)[..]);
        });
    }

    /// A valid header followed by arbitrary bytes never panics.
    #[test]
    fn prop_importer_survives_corrupt_bodies() {
        cases(256, "prop_importer_survives_corrupt_bodies", |rng| {
            let mut buf = Vec::new();
            buf.extend_from_slice(&MAGIC_MICRO.to_le_bytes());
            buf.extend_from_slice(&[2, 0, 4, 0]);
            buf.extend_from_slice(&[0u8; 12]);
            buf.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
            buf.extend_from_slice(&random_bytes(rng));
            let _ = parse_pcap_tcp(&buf[..]);
        });
    }

    #[test]
    fn empty_capture_when_no_server_match() {
        let buf = synthetic_ethernet_pcap();
        let packets = parse_pcap_tcp(&buf[..]).unwrap();
        let cap = assemble_capture(&packets, ServerSelector::Port(9999));
        assert!(cap.is_empty());
    }
}
