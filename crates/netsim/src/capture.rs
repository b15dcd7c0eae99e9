//! Packet capture at a vantage node — "Wireshark on the WiFi AP" (§3.2).
//!
//! A [`CaptureTap`] installed on a node records every packet that transits
//! it, with a timestamp, the flow 5-tuple, the wire size, and the traffic
//! direction relative to the client devices behind the tap. The analysis
//! code in `svr-core` consumes these records exactly the way the paper's
//! scripts consumed pcap files.

use crate::flow::FlowKey;
use crate::node::NodeId;
use crate::packet::{Packet, Proto};
use crate::time::SimTime;

/// Traffic direction relative to the client device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client → server.
    Uplink,
    /// Server → client.
    Downlink,
}

/// One captured packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CaptureRecord {
    /// Capture timestamp (when the packet transited the tap node).
    pub ts: SimTime,
    /// Flow 5-tuple.
    pub flow: FlowKey,
    /// Size on the wire, headers included.
    pub wire_bytes: u64,
    /// Application payload length.
    pub payload_len: u32,
    /// Direction relative to the client side of the tap.
    pub direction: Direction,
    /// Globally unique packet id (send order).
    pub packet_id: u64,
}

/// A capture tap bound to one vantage node.
#[derive(Debug, Default)]
pub struct CaptureTap {
    records: Vec<CaptureRecord>,
}

impl CaptureTap {
    /// Create an empty tap.
    pub fn new() -> Self {
        CaptureTap::default()
    }

    /// Record a packet transiting the tap.
    pub fn record(&mut self, ts: SimTime, pkt: &Packet, direction: Direction) {
        self.records.push(CaptureRecord {
            ts,
            flow: FlowKey {
                src: pkt.src,
                dst: pkt.dst,
                src_port: pkt.header.src_port,
                dst_port: pkt.header.dst_port,
                proto: pkt.header.proto,
            },
            wire_bytes: pkt.wire_size().as_bytes(),
            payload_len: pkt.payload_len() as u32,
            direction,
            packet_id: pkt.id,
        });
    }

    /// All records, in capture order.
    pub fn records(&self) -> &[CaptureRecord] {
        &self.records
    }

    /// Move the records out, leaving the tap empty.
    pub fn take_records(&mut self) -> Vec<CaptureRecord> {
        std::mem::take(&mut self.records)
    }

    /// Number of captured packets.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing was captured.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// Filter records by transport protocol.
pub fn by_proto(records: &[CaptureRecord], p: Proto) -> Vec<CaptureRecord> {
    records.iter().filter(|r| r.flow.proto == p).copied().collect()
}

/// Filter records whose remote endpoint (the non-client end) is `server`.
pub fn by_server(records: &[CaptureRecord], server: NodeId) -> Vec<CaptureRecord> {
    records
        .iter()
        .filter(|r| match r.direction {
            Direction::Uplink => r.flow.dst == server,
            Direction::Downlink => r.flow.src == server,
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TransportHeader;
    use crate::buf::Bytes;

    fn mk_pkt(src: u32, dst: u32, proto: Proto, payload: usize, id: u64) -> Packet {
        let mut p = Packet::new(
            TransportHeader::datagram(proto, 40000, 443),
            Bytes::from(vec![0u8; payload]),
        );
        p.src = NodeId(src);
        p.dst = NodeId(dst);
        p.id = id;
        p
    }

    #[test]
    fn record_captures_flow_fields() {
        let mut tap = CaptureTap::new();
        let pkt = mk_pkt(1, 9, Proto::Udp, 120, 77);
        tap.record(SimTime::from_secs(5), &pkt, Direction::Uplink);
        let r = tap.records()[0];
        assert_eq!(r.flow.src, NodeId(1));
        assert_eq!(r.flow.dst, NodeId(9));
        assert_eq!(r.wire_bytes, 34 + 8 + 120);
        assert_eq!(r.payload_len, 120);
        assert_eq!(r.packet_id, 77);
        assert_eq!(r.direction, Direction::Uplink);
    }

    #[test]
    fn head_body_split_records_like_its_one_part_twin() {
        let one = mk_pkt(1, 9, Proto::Udp, 120, 77);
        let mut tap = CaptureTap::new();
        tap.record(SimTime::from_secs(5), &one, Direction::Uplink);
        tap.record(SimTime::from_secs(5), &one.cut_at(16), Direction::Uplink);
        let [a, b] = tap.records() else { panic!("two records") };
        assert_eq!((b.payload_len, b.wire_bytes), (120, 34 + 8 + 120));
        assert_eq!(a, b);
    }

    #[test]
    fn filters_compose() {
        let mut tap = CaptureTap::new();
        tap.record(SimTime::from_secs(1), &mk_pkt(1, 9, Proto::Udp, 10, 0), Direction::Uplink);
        tap.record(SimTime::from_secs(2), &mk_pkt(9, 1, Proto::Udp, 10, 1), Direction::Downlink);
        tap.record(SimTime::from_secs(3), &mk_pkt(1, 8, Proto::Tcp, 10, 2), Direction::Uplink);
        let recs = tap.records();
        assert_eq!(by_proto(recs, Proto::Tcp).len(), 1);
        // Server 9 matches both the uplink (dst) and downlink (src) packets.
        assert_eq!(by_server(recs, NodeId(9)).len(), 2);
        assert_eq!(by_server(recs, NodeId(8)).len(), 1);
    }

    #[test]
    fn take_records_empties_tap() {
        let mut tap = CaptureTap::new();
        tap.record(SimTime::ZERO, &mk_pkt(1, 9, Proto::Udp, 1, 0), Direction::Uplink);
        assert_eq!(tap.len(), 1);
        let recs = tap.take_records();
        assert_eq!(recs.len(), 1);
        assert!(tap.is_empty());
    }
}
