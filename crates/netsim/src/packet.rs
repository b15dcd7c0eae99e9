//! Packets and transport headers.
//!
//! A [`Packet`] couples a typed transport header with an opaque payload.
//! The payload bytes are produced by real codecs in the higher crates
//! (avatar wire format, TLV control messages), so packet sizes on the
//! simulated wire are honest consequences of what is being carried —
//! the property the paper's throughput analysis (§5) depends on.

use crate::node::NodeId;
use crate::time::SimTime;
use crate::units::ByteSize;
use crate::buf::Bytes;
use std::fmt;

/// Transport protocol carried by a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Proto {
    /// User Datagram Protocol — the data channel of four of the five
    /// platforms (Table 2).
    Udp,
    /// Transmission Control Protocol — carries the HTTPS control channels.
    Tcp,
    /// ICMP echo, used by the RTT measurements of §4.2.
    Icmp,
}

impl Proto {
    /// L4 header length on the wire, in bytes.
    pub fn header_len(self) -> u64 {
        match self {
            Proto::Udp => 8,
            Proto::Tcp => 20,
            Proto::Icmp => 8,
        }
    }
}

impl fmt::Display for Proto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Proto::Udp => write!(f, "UDP"),
            Proto::Tcp => write!(f, "TCP"),
            Proto::Icmp => write!(f, "ICMP"),
        }
    }
}

/// TCP header flags (subset used by the simplified stack).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct TcpFlags {
    /// Synchronise sequence numbers (connection setup).
    pub syn: bool,
    /// Acknowledgement field significant.
    pub ack: bool,
    /// No more data from sender.
    pub fin: bool,
    /// Reset the connection.
    pub rst: bool,
}

impl TcpFlags {
    /// Pure data segment (ACK flag set, as on every established-state segment).
    pub const DATA: TcpFlags = TcpFlags { syn: false, ack: true, fin: false, rst: false };
    /// SYN segment.
    pub const SYN: TcpFlags = TcpFlags { syn: true, ack: false, fin: false, rst: false };
    /// SYN+ACK segment.
    pub const SYN_ACK: TcpFlags = TcpFlags { syn: true, ack: true, fin: false, rst: false };
    /// FIN+ACK segment.
    pub const FIN: TcpFlags = TcpFlags { syn: false, ack: true, fin: true, rst: false };
}

/// Typed transport header attached to every simulated packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TransportHeader {
    /// Transport protocol.
    pub proto: Proto,
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number (TCP byte sequence; datagram counter for UDP).
    pub seq: u32,
    /// Acknowledgement number (TCP only; zero otherwise).
    pub ack: u32,
    /// TCP flags (all-false for UDP/ICMP).
    pub flags: TcpFlags,
    /// Advertised receive window (TCP only).
    pub window: u16,
}

impl TransportHeader {
    /// A plain datagram header (UDP or ICMP).
    pub fn datagram(proto: Proto, src_port: u16, dst_port: u16) -> Self {
        TransportHeader {
            proto,
            src_port,
            dst_port,
            seq: 0,
            ack: 0,
            flags: TcpFlags::default(),
            window: 0,
        }
    }

    /// A TCP segment header.
    pub fn tcp(src_port: u16, dst_port: u16, seq: u32, ack: u32, flags: TcpFlags) -> Self {
        TransportHeader {
            proto: Proto::Tcp,
            src_port,
            dst_port,
            seq,
            ack,
            flags,
            window: 0xFFFF,
        }
    }
}

/// Fixed L2+L3 overhead per packet: Ethernet (14) + IPv4 (20) bytes.
pub const L2_L3_OVERHEAD: u64 = 34;

/// An all-zero payload of `len` bytes backed by a shared, thread-local
/// buffer: repeated padding bodies (status beacons, synthetic video
/// frames, fixed-size game ticks) alias one allocation instead of
/// building a fresh `Vec` per packet. Passed as a datagram body, the
/// slice reaches the wire and the receiver without being copied, so
/// every remote-render frame a thread emits references this one block.
/// The backing block grows monotonically to the largest size requested,
/// so steady-state calls are O(1) reference-count bumps.
pub fn zero_payload(len: usize) -> Bytes {
    use std::cell::RefCell;
    thread_local! {
        static ZEROS: RefCell<Bytes> = const { RefCell::new(Bytes::new()) };
    }
    ZEROS.with(|z| {
        let mut z = z.borrow_mut();
        if z.len() < len {
            *z = Bytes::from(vec![0u8; len.next_power_of_two()]);
        }
        z.slice(..len)
    })
}

/// A packet in flight.
///
/// Its application bytes are `payload ++ body`: a small head, such as a
/// datagram channel's own header, and a shared body that fan-outs and
/// repeated frames reference without copying. Sizes, captures, the wire
/// encoding and fault injection all see the concatenation, so a packet
/// and its one-part twin carrying the same bytes are indistinguishable
/// on the simulated wire. Protocols that frame their bytes themselves
/// (TCP, RTP, ICMP) leave `body` empty.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Transport header.
    pub header: TransportHeader,
    /// Application payload bytes (the head of `payload ++ body`).
    pub payload: Bytes,
    /// Application bytes carried after `payload`.
    pub body: Bytes,
    /// Node that originated the packet (filled in by [`crate::Network::send`]).
    pub src: NodeId,
    /// Final destination node (filled in by [`crate::Network::send`]).
    pub dst: NodeId,
    /// Time the packet entered the network (filled in by `send`).
    pub sent_at: SimTime,
    /// Unique per-network packet id, in send order (filled in by `send`).
    pub id: u64,
}

// Every event, queue slot and delivery moves a `Packet` by value.
// Padding it from 80 to 112 bytes, the size a second 32-byte buffer
// would give, made session-horizon's `step_ms_p50` 6% slower in the
// median, and slower in 5 of 6 paired benchmark runs on a 2-vCPU VM.
const _: () = assert!(std::mem::size_of::<Packet>() <= 80, "Packet grew past 80 bytes");

impl Packet {
    /// Build a one-part packet; routing fields are filled in by
    /// [`crate::Network::send`].
    pub fn new(header: TransportHeader, payload: Bytes) -> Self {
        Packet {
            header,
            payload,
            body: Bytes::new(),
            src: NodeId(u32::MAX),
            dst: NodeId(u32::MAX),
            sent_at: SimTime::ZERO,
            id: u64::MAX,
        }
    }

    /// Total size on the wire, headers included.
    pub fn wire_size(&self) -> ByteSize {
        ByteSize::from_bytes(L2_L3_OVERHEAD + self.header.proto.header_len() + self.payload_len() as u64)
    }

    /// Length of the application bytes, `payload ++ body`.
    pub fn payload_len(&self) -> usize {
        self.payload.len() + self.body.len()
    }
}

#[cfg(test)]
impl Packet {
    /// The same packet with its application bytes re-cut into
    /// `payload[..at]` and `body[at..]`: the head+body twin of a one-part
    /// packet, for equivalence tests.
    pub(crate) fn cut_at(&self, at: usize) -> Packet {
        let all = Bytes::from([&self.payload[..], &self.body[..]].concat());
        Packet { payload: all.slice(..at), body: all.slice(at..), ..self.clone() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_payload_aliases_one_allocation() {
        let a = zero_payload(100);
        let b = zero_payload(64);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(|&x| x == 0));
        assert_eq!(b.len(), 64);
        // Both slices view the same backing block.
        assert_eq!(a.as_slice()[..64].as_ptr(), b.as_slice().as_ptr());
        // Growing past the cached block reallocates once, then aliases.
        let big = zero_payload(5000);
        assert_eq!(big.len(), 5000);
        let again = zero_payload(5000);
        assert_eq!(big.as_slice().as_ptr(), again.as_slice().as_ptr());
    }

    #[test]
    fn wire_size_includes_all_headers() {
        let p = Packet::new(
            TransportHeader::datagram(Proto::Udp, 1, 2),
            Bytes::from_static(&[0u8; 100]),
        );
        assert_eq!(p.wire_size().as_bytes(), 34 + 8 + 100);
        let split = p.cut_at(16);
        assert_eq!((split.payload.len(), split.body.len()), (16, 84));
        assert_eq!((split.payload_len(), split.wire_size()), (100, p.wire_size()));
        let t = Packet::new(
            TransportHeader::tcp(1, 2, 0, 0, TcpFlags::SYN),
            Bytes::new(),
        );
        assert_eq!(t.wire_size().as_bytes(), 34 + 20);
    }

    #[test]
    fn proto_header_lengths() {
        assert_eq!(Proto::Udp.header_len(), 8);
        assert_eq!(Proto::Tcp.header_len(), 20);
        assert_eq!(Proto::Icmp.header_len(), 8);
    }

    #[test]
    fn datagram_header_has_no_tcp_fields() {
        let h = TransportHeader::datagram(Proto::Udp, 10, 20);
        assert_eq!(h.seq, 0);
        assert_eq!(h.ack, 0);
        assert_eq!(h.flags, TcpFlags::default());
    }
}
