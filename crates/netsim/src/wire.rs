//! Byte-level wire encoding of simulated packets.
//!
//! The simulator moves typed [`crate::Packet`]s, but the capture subsystem
//! (and the pcap dump writer) needs an honest on-wire byte representation,
//! the way a real AP capture would see frames. This module defines the
//! fixed-size `SVRP` header that frames every simulated packet, with an
//! Internet-style ones-complement checksum over header and payload.
//!
//! Layout (network byte order, 28 bytes):
//!
//! ```text
//!  0      2      3      4      6      8      12     16     18     20     24     28
//!  +------+------+------+------+------+------+------+------+------+------+------+
//!  |magic |proto |flags |sport |dport | seq  | ack  |window| plen | src  | dst  |
//!  +------+------+------+------+------+------+------+------+------+------+------+
//!  | csum | payload ...
//!  +------+-------------
//! ```

use crate::packet::{Packet, Proto, TcpFlags, TransportHeader};
use crate::buf::{Bytes, BytesMut};

/// Magic bytes identifying an SVRP frame ("VR").
pub const MAGIC: u16 = 0x5652;

/// Encoded header length in bytes (before payload).
pub const HEADER_LEN: usize = 30;

/// Errors produced when decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Buffer shorter than the fixed header.
    Truncated {
        /// Bytes required.
        needed: usize,
        /// Bytes available.
        got: usize,
    },
    /// Magic bytes did not match.
    BadMagic(u16),
    /// Unknown protocol discriminant.
    BadProto(u8),
    /// Checksum over header+payload did not verify.
    BadChecksum {
        /// Checksum carried in the frame.
        expected: u16,
        /// Checksum computed over the received bytes.
        computed: u16,
    },
    /// Payload length field exceeds the remaining buffer.
    BadLength {
        /// Payload length claimed by the header.
        claimed: usize,
        /// Payload bytes actually present.
        present: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: need {needed} bytes, got {got}")
            }
            WireError::BadMagic(m) => write!(f, "bad magic 0x{m:04x}"),
            WireError::BadProto(p) => write!(f, "unknown protocol {p}"),
            WireError::BadChecksum { expected, computed } => {
                write!(f, "checksum mismatch: frame 0x{expected:04x}, computed 0x{computed:04x}")
            }
            WireError::BadLength { claimed, present } => {
                write!(f, "payload length {claimed} exceeds buffer ({present} present)")
            }
        }
    }
}

impl std::error::Error for WireError {}

fn proto_to_byte(p: Proto) -> u8 {
    match p {
        Proto::Udp => 17,
        Proto::Tcp => 6,
        Proto::Icmp => 1,
    }
}

fn proto_from_byte(b: u8) -> Result<Proto, WireError> {
    match b {
        17 => Ok(Proto::Udp),
        6 => Ok(Proto::Tcp),
        1 => Ok(Proto::Icmp),
        other => Err(WireError::BadProto(other)),
    }
}

/// RFC 1071 Internet checksum (ones-complement sum of 16-bit words).
pub fn internet_checksum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum >> 16 != 0 {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Encode a packet into its on-wire byte representation; the frame's
/// payload is the packet's `payload ++ body`.
pub fn encode(pkt: &Packet) -> Bytes {
    let h = &pkt.header;
    let mut buf = BytesMut::with_capacity(HEADER_LEN + pkt.payload_len());
    buf.put_u16(MAGIC);
    buf.put_u8(proto_to_byte(h.proto));
    buf.put_u8(h.flags.to_byte());
    buf.put_u16(h.src_port);
    buf.put_u16(h.dst_port);
    buf.put_u32(h.seq);
    buf.put_u32(h.ack);
    buf.put_u16(h.window);
    buf.put_u16(pkt.payload_len() as u16);
    buf.put_u32(pkt.src.index() as u32);
    buf.put_u32(pkt.dst.index() as u32);
    buf.put_u16(0); // checksum placeholder
    buf.extend_from_slice(&pkt.payload);
    buf.extend_from_slice(&pkt.body);
    let csum = internet_checksum(&buf);
    buf[HEADER_LEN - 2..HEADER_LEN].copy_from_slice(&csum.to_be_bytes());
    buf.freeze()
}

/// A decoded frame: header, payload, and routing metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedFrame {
    /// Transport header.
    pub header: TransportHeader,
    /// Payload bytes.
    pub payload: Bytes,
    /// Source node index carried in the frame.
    pub src: u32,
    /// Destination node index carried in the frame.
    pub dst: u32,
}

/// Decode and verify an SVRP frame.
pub fn decode(data: &[u8]) -> Result<DecodedFrame, WireError> {
    if data.len() < HEADER_LEN {
        return Err(WireError::Truncated { needed: HEADER_LEN, got: data.len() });
    }
    let magic = u16::from_be_bytes([data[0], data[1]]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let proto = proto_from_byte(data[2])?;
    let flags = TcpFlags::from_byte(data[3]);
    let src_port = u16::from_be_bytes([data[4], data[5]]);
    let dst_port = u16::from_be_bytes([data[6], data[7]]);
    let seq = u32::from_be_bytes([data[8], data[9], data[10], data[11]]);
    let ack = u32::from_be_bytes([data[12], data[13], data[14], data[15]]);
    let window = u16::from_be_bytes([data[16], data[17]]);
    let plen = u16::from_be_bytes([data[18], data[19]]) as usize;
    let src = u32::from_be_bytes([data[20], data[21], data[22], data[23]]);
    let dst = u32::from_be_bytes([data[24], data[25], data[26], data[27]]);
    let expected = u16::from_be_bytes([data[28], data[29]]);

    let present = data.len() - HEADER_LEN;
    if plen > present {
        return Err(WireError::BadLength { claimed: plen, present });
    }
    let frame = &data[..HEADER_LEN + plen];
    let mut zeroed = frame.to_vec();
    zeroed[HEADER_LEN - 2] = 0;
    zeroed[HEADER_LEN - 1] = 0;
    let computed = internet_checksum(&zeroed);
    if computed != expected {
        return Err(WireError::BadChecksum { expected, computed });
    }

    Ok(DecodedFrame {
        header: TransportHeader { proto, src_port, dst_port, seq, ack, flags, window },
        payload: Bytes::copy_from_slice(&frame[HEADER_LEN..]),
        src,
        dst,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TransportHeader;

    fn sample_packet(payload: &'static [u8]) -> Packet {
        let mut p = Packet::new(
            TransportHeader::tcp(443, 50123, 1000, 2000, TcpFlags::DATA),
            Bytes::from_static(payload),
        );
        p.src = crate::node::NodeId(3);
        p.dst = crate::node::NodeId(9);
        p
    }

    #[test]
    fn encode_decode_roundtrip() {
        let pkt = sample_packet(b"avatar-update");
        let bytes = encode(&pkt);
        let dec = decode(&bytes).unwrap();
        assert_eq!(dec.header, pkt.header);
        assert_eq!(dec.payload, pkt.payload);
        assert_eq!(dec.src, 3);
        assert_eq!(dec.dst, 9);
    }

    #[test]
    fn head_body_split_encodes_like_its_one_part_twin() {
        let pkt = sample_packet(b"app-header-bytes and the shared body after it");
        let whole = encode(&pkt);
        for at in 0..=pkt.payload_len() {
            assert_eq!(encode(&pkt.cut_at(at)), whole, "cut at {at}");
        }
    }

    #[test]
    fn truncated_frame_rejected() {
        let pkt = sample_packet(b"x");
        let bytes = encode(&pkt);
        let err = decode(&bytes[..10]).unwrap_err();
        assert!(matches!(err, WireError::Truncated { .. }));
    }

    #[test]
    fn bad_magic_rejected() {
        let pkt = sample_packet(b"x");
        let mut bytes = encode(&pkt).to_vec();
        bytes[0] = 0xAB;
        assert!(matches!(decode(&bytes).unwrap_err(), WireError::BadMagic(_)));
    }

    #[test]
    fn corrupt_payload_fails_checksum() {
        let pkt = sample_packet(b"hello world");
        let mut bytes = encode(&pkt).to_vec();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        assert!(matches!(decode(&bytes).unwrap_err(), WireError::BadChecksum { .. }));
    }

    #[test]
    fn corrupt_header_fails_checksum() {
        let pkt = sample_packet(b"hello world");
        let mut bytes = encode(&pkt).to_vec();
        bytes[8] ^= 0x01; // seq
        assert!(matches!(decode(&bytes).unwrap_err(), WireError::BadChecksum { .. }));
    }

    #[test]
    fn bad_proto_rejected() {
        let pkt = sample_packet(b"x");
        let mut bytes = encode(&pkt).to_vec();
        bytes[2] = 99;
        // Proto is checked before checksum, so this surfaces as BadProto.
        assert!(matches!(decode(&bytes).unwrap_err(), WireError::BadProto(99)));
    }

    #[test]
    fn length_overrun_rejected() {
        let pkt = sample_packet(b"abc");
        let mut bytes = encode(&pkt).to_vec();
        bytes[18] = 0xFF;
        bytes[19] = 0xFF;
        assert!(matches!(decode(&bytes).unwrap_err(), WireError::BadLength { .. }));
    }

    #[test]
    fn trailing_garbage_ignored() {
        // A capture buffer may hold more bytes than the frame; decode should
        // honor the length field.
        let pkt = sample_packet(b"abc");
        let mut bytes = encode(&pkt).to_vec();
        bytes.extend_from_slice(b"garbage");
        let dec = decode(&bytes).unwrap();
        assert_eq!(dec.payload, Bytes::from_static(b"abc"));
    }

    #[test]
    fn checksum_known_vector() {
        // RFC 1071 example-style check: sum of all-zero data is 0xFFFF.
        assert_eq!(internet_checksum(&[0, 0, 0, 0]), 0xFFFF);
        // Odd-length input pads with zero.
        assert_eq!(internet_checksum(&[0xFF]), internet_checksum(&[0xFF, 0x00]));
    }

    /// Property checks over inputs drawn from a fixed-seed RNG.
    #[test]
    fn prop_roundtrip_seeded() {
        let mut rng = crate::rng::SimRng::seed_from_u64(0x517E_0001);
        for _case in 0..128 {
            let payload: Vec<u8> = (0..rng.range_u64(0, 1399))
                .map(|_| rng.range_u64(0, 255) as u8)
                .collect();
            let proto = match rng.range_u64(0, 2) {
                0 => Proto::Udp,
                1 => Proto::Tcp,
                _ => Proto::Icmp,
            };
            let header = TransportHeader {
                proto,
                src_port: rng.range_u64(0, u16::MAX as u64) as u16,
                dst_port: rng.range_u64(0, u16::MAX as u64) as u16,
                seq: rng.range_u64(0, u32::MAX as u64) as u32,
                ack: rng.range_u64(0, u32::MAX as u64) as u32,
                flags: TcpFlags::from_byte(rng.range_u64(0, 31) as u8),
                window: rng.range_u64(0, u16::MAX as u64) as u16,
            };
            let mut pkt = Packet::new(header, Bytes::from(payload.clone()));
            pkt.src = crate::node::NodeId(1);
            pkt.dst = crate::node::NodeId(2);
            let enc = encode(&pkt);
            let dec = decode(&enc).unwrap();
            assert_eq!(dec.header, header);
            assert_eq!(dec.payload.as_ref(), payload.as_slice());
        }
    }

    #[test]
    fn prop_single_bitflip_detected_seeded() {
        let mut rng = crate::rng::SimRng::seed_from_u64(0x517E_0002);
        for _case in 0..128 {
            let payload: Vec<u8> = (0..rng.range_u64(1, 255))
                .map(|_| rng.range_u64(0, 255) as u8)
                .collect();
            let flip_bit = rng.range_u64(0, 63) as usize;
            let mut pkt = Packet::new(
                TransportHeader::datagram(Proto::Udp, 10, 20),
                Bytes::from(payload),
            );
            pkt.src = crate::node::NodeId(0);
            pkt.dst = crate::node::NodeId(1);
            let enc = encode(&pkt).to_vec();
            let byte = (flip_bit / 8) % enc.len();
            let bit = flip_bit % 8;
            let mut corrupted = enc.clone();
            corrupted[byte] ^= 1 << bit;
            // A single bit flip must never decode to the same frame content.
            if let Ok(frame) = decode(&corrupted) {
                let orig = decode(&enc).unwrap();
                assert_ne!(frame, orig);
            }
        }
    }
}
