//! Sequenced UDP channels with keep-alives.
//!
//! Four of the five platforms deliver avatar and voice data over UDP
//! (Table 2). [`UdpChannel`] adds what those applications layer on top of
//! raw datagrams: a 16-byte application header (channel id, message kind,
//! sequence number, timestamp) for loss/reorder detection, periodic
//! keep-alives, and a liveness timeout — the mechanism behind the paper's
//! observation that Worlds' UDP session dies ~30 s after its traffic is
//! blocked and never recovers (§8.1).

use svr_netsim::buf::{Bytes, BytesMut};
use svr_netsim::{Packet, Proto, SimDuration, SimTime, TransportHeader};

/// Application-level header prepended to every channel datagram.
pub const APP_HEADER_LEN: usize = 16;

/// Message kinds multiplexed on one channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// Avatar embodiment / motion update.
    Avatar,
    /// Voice frame.
    Voice,
    /// Game state update.
    Game,
    /// Keep-alive probe.
    KeepAlive,
    /// Anything else (initialization blobs, etc.).
    Other,
}

impl MsgKind {
    /// The kind's wire byte, shared by datagram headers and stream frames.
    pub fn to_byte(self) -> u8 {
        match self {
            MsgKind::Avatar => 1,
            MsgKind::Voice => 2,
            MsgKind::Game => 3,
            MsgKind::KeepAlive => 4,
            MsgKind::Other => 5,
        }
    }

    /// Inverse of `to_byte`; unknown values map to `Other`.
    pub fn from_byte(b: u8) -> MsgKind {
        match b {
            1 => MsgKind::Avatar,
            2 => MsgKind::Voice,
            3 => MsgKind::Game,
            4 => MsgKind::KeepAlive,
            _ => MsgKind::Other,
        }
    }
}

/// A decoded channel datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelMsg {
    /// Channel identifier.
    pub channel: u16,
    /// Message kind.
    pub kind: MsgKind,
    /// Sender sequence number.
    pub seq: u32,
    /// Sender timestamp (microseconds).
    pub sent_us: u64,
    /// Application payload.
    pub body: Bytes,
}

/// Receiver-side delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdpRxStats {
    /// Datagrams received.
    pub received: u64,
    /// Highest sequence seen.
    pub max_seq: u32,
    /// Datagrams that arrived with a sequence lower than one already seen.
    pub reordered: u64,
    /// Estimated losses (gaps in sequence space).
    pub lost: u64,
}

/// One endpoint of a sequenced UDP channel.
#[derive(Debug)]
pub struct UdpChannel {
    /// Channel id carried in every datagram.
    pub channel: u16,
    local_port: u16,
    remote_port: u16,
    next_seq: u32,
    highest_rx_seq: Option<u32>,
    /// Receiver stats.
    pub rx: UdpRxStats,
    /// Keep-alive interval (`None` disables).
    keepalive_every: Option<SimDuration>,
    last_tx: SimTime,
    last_rx: SimTime,
    /// Liveness timeout: if nothing is received for this long the channel
    /// is declared dead (Worlds' ~30 s behaviour).
    timeout: Option<SimDuration>,
    dead: bool,
    opened_at: SimTime,
}

impl UdpChannel {
    /// Create a channel endpoint.
    pub fn new(channel: u16, local_port: u16, remote_port: u16, now: SimTime) -> Self {
        UdpChannel {
            channel,
            local_port,
            remote_port,
            next_seq: 0,
            highest_rx_seq: None,
            rx: UdpRxStats::default(),
            keepalive_every: None,
            last_tx: now,
            last_rx: now,
            timeout: None,
            dead: false,
            opened_at: now,
        }
    }

    /// Enable keep-alive probes at the given interval.
    pub fn with_keepalive(mut self, every: SimDuration) -> Self {
        self.keepalive_every = Some(every);
        self
    }

    /// Enable the liveness timeout.
    pub fn with_timeout(mut self, timeout: SimDuration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Whether the channel has been declared dead. A dead channel never
    /// recovers — matching the frozen-screen behaviour in §8.1.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Tear the channel down permanently (the platform session layer
    /// giving up, e.g. Worlds after its UDP has been gated behind TCP
    /// for too long, §8.1). A dead channel neither sends nor receives.
    pub fn kill(&mut self) {
        self.dead = true;
    }

    /// Local port.
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    /// Remote port.
    pub fn remote_port(&self) -> u16 {
        self.remote_port
    }

    fn encode(&mut self, kind: MsgKind, now: SimTime, body: &Bytes) -> Packet {
        let mut head = BytesMut::with_capacity(APP_HEADER_LEN);
        head.put_u16(self.channel);
        head.put_u8(kind.to_byte());
        head.put_u8(0); // reserved
        head.put_u32(self.next_seq);
        head.put_u64(now.as_micros());
        let mut hdr = TransportHeader::datagram(Proto::Udp, self.local_port, self.remote_port);
        hdr.seq = self.next_seq;
        self.next_seq += 1;
        self.last_tx = now;
        let mut pkt = Packet::new(hdr, head.freeze());
        pkt.body = body.clone();
        pkt
    }

    /// Build a datagram carrying `body`. The packet's payload is the
    /// application header alone and its body shares `body`'s storage, so
    /// a fan-out of one message copies no body bytes. Returns `None` if
    /// the channel is dead.
    pub fn send(&mut self, kind: MsgKind, now: SimTime, body: &Bytes) -> Option<Packet> {
        if self.dead {
            return None;
        }
        Some(self.encode(kind, now, body))
    }

    /// Decode an incoming datagram addressed to this channel and update
    /// receiver statistics. Returns `None` for foreign or malformed
    /// datagrams.
    pub fn on_packet(&mut self, now: SimTime, pkt: &Packet) -> Option<ChannelMsg> {
        if self.dead {
            return None; // frozen screen: incoming data is ignored
        }
        if pkt.header.proto != Proto::Udp || pkt.header.dst_port != self.local_port {
            return None;
        }
        if pkt.payload_len() < APP_HEADER_LEN {
            return None;
        }
        // The header is the first bytes of `payload ++ body`.
        let mut p = [0u8; APP_HEADER_LEN];
        let in_head = pkt.payload.len().min(APP_HEADER_LEN);
        p[..in_head].copy_from_slice(&pkt.payload[..in_head]);
        p[in_head..].copy_from_slice(&pkt.body[..APP_HEADER_LEN - in_head]);
        let channel = u16::from_be_bytes([p[0], p[1]]);
        if channel != self.channel {
            return None;
        }
        let kind = MsgKind::from_byte(p[2]);
        let seq = u32::from_be_bytes([p[4], p[5], p[6], p[7]]);
        let sent_us = u64::from_be_bytes([p[8], p[9], p[10], p[11], p[12], p[13], p[14], p[15]]);

        self.rx.received += 1;
        self.last_rx = now;
        match self.highest_rx_seq {
            None => self.highest_rx_seq = Some(seq),
            Some(h) if seq > h => {
                // Gap in sequence space counts as (provisional) loss.
                self.rx.lost += (seq - h - 1) as u64;
                self.highest_rx_seq = Some(seq);
            }
            Some(_) => {
                self.rx.reordered += 1;
                self.rx.lost = self.rx.lost.saturating_sub(1);
            }
        }
        self.rx.max_seq = self.highest_rx_seq.unwrap_or(0);

        Some(ChannelMsg {
            channel,
            kind,
            seq,
            sent_us,
            body: body_after_header(pkt),
        })
    }

    /// Periodic maintenance: emits a keep-alive when due and checks the
    /// liveness timeout. Call at least every few hundred milliseconds.
    pub fn on_tick(&mut self, now: SimTime) -> Option<Packet> {
        if self.dead {
            return None;
        }
        if let Some(timeout) = self.timeout {
            // Grace period from open: don't declare death before any data.
            let last_alive = self.last_rx.max(self.opened_at);
            if now.saturating_since(last_alive) >= timeout {
                self.dead = true;
                return None;
            }
        }
        if let Some(every) = self.keepalive_every {
            if now.saturating_since(self.last_tx) >= every {
                return Some(self.encode(MsgKind::KeepAlive, now, &Bytes::new()));
            }
        }
        None
    }

    /// Earliest future time at which [`UdpChannel::on_tick`] could act:
    /// the keep-alive due time or the liveness-timeout expiry, whichever
    /// comes first. `None` when the channel is dead or has no timers, so
    /// a driver may skip ticking it entirely.
    pub fn next_timer(&self) -> Option<SimTime> {
        if self.dead {
            return None;
        }
        let ka = self.keepalive_every.map(|every| self.last_tx + every);
        let to = self
            .timeout
            .map(|timeout| self.last_rx.max(self.opened_at) + timeout);
        match (ka, to) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// One-way delay of a message, derived from its embedded timestamp.
    /// Only meaningful when both endpoints share a clock domain (true in
    /// the simulator; the paper needed §7's clock sync to get this).
    pub fn one_way_delay(now: SimTime, msg: &ChannelMsg) -> SimDuration {
        now.saturating_since(SimTime::from_micros(msg.sent_us))
    }
}

/// The bytes of `payload ++ body` after the application header: the
/// sender's body itself when the header is exactly the payload, a slice
/// of a one-part payload, and a copy only when both parts hold body bytes.
fn body_after_header(pkt: &Packet) -> Bytes {
    let head = pkt.payload.len();
    if head <= APP_HEADER_LEN {
        pkt.body.slice(APP_HEADER_LEN - head..)
    } else if pkt.body.is_empty() {
        pkt.payload.slice(APP_HEADER_LEN..)
    } else {
        Bytes::from([&pkt.payload[APP_HEADER_LEN..], &pkt.body[..]].concat())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(now: SimTime) -> (UdpChannel, UdpChannel) {
        (
            UdpChannel::new(7, 4000, 5000, now),
            UdpChannel::new(7, 5000, 4000, now),
        )
    }

    #[test]
    fn roundtrip_preserves_message() {
        let now = SimTime::from_secs(1);
        let (mut tx, mut rx) = pair(now);
        let pkt = tx.send(MsgKind::Avatar, now, &Bytes::from_static(b"pose-data")).unwrap();
        let msg = rx.on_packet(now + SimDuration::from_millis(20), &pkt).unwrap();
        assert_eq!(msg.kind, MsgKind::Avatar);
        assert_eq!(msg.body.as_ref(), b"pose-data");
        assert_eq!(msg.seq, 0);
        assert_eq!(
            UdpChannel::one_way_delay(now + SimDuration::from_millis(20), &msg),
            SimDuration::from_millis(20)
        );
    }

    /// `pkt` with `payload ++ body` re-cut at `at`.
    fn cut_at(pkt: &Packet, at: usize) -> Packet {
        let all = Bytes::from([&pkt.payload[..], &pkt.body[..]].concat());
        let mut twin = pkt.clone();
        twin.payload = all.slice(..at);
        twin.body = all.slice(at..);
        twin
    }

    #[test]
    fn send_shares_the_callers_body() {
        let now = SimTime::from_secs(1);
        let (mut tx, mut rx) = pair(now);
        let body = Bytes::from(vec![0x5A; 600]);
        let pkt = tx.send(MsgKind::Avatar, now, &body).unwrap();
        assert_eq!((pkt.payload.len(), pkt.payload_len()), (APP_HEADER_LEN, APP_HEADER_LEN + 600));
        assert_eq!(pkt.body.as_ptr(), body.as_ptr(), "send copied the body");
        let msg = rx.on_packet(now, &pkt).unwrap();
        assert_eq!(msg.body.as_ptr(), body.as_ptr(), "on_packet copied the body");
    }

    #[test]
    fn on_packet_reads_a_head_body_split_like_its_one_part_twin() {
        let now = SimTime::from_secs(1);
        let (mut tx, mut rx) = pair(now);
        let pkt = tx.send(MsgKind::Voice, now, &Bytes::from_static(b"voice-frame-bytes")).unwrap();
        let expect = rx.on_packet(now, &pkt).unwrap();
        for at in 0..=pkt.payload_len() {
            let (_, mut rx) = pair(now);
            assert_eq!(rx.on_packet(now, &cut_at(&pkt, at)).as_ref(), Some(&expect), "cut at {at}");
        }
    }

    #[test]
    fn sequence_numbers_increment() {
        let now = SimTime::ZERO;
        let (mut tx, _) = pair(now);
        for i in 0..5u32 {
            let pkt = tx.send(MsgKind::Avatar, now, &Bytes::new()).unwrap();
            assert_eq!(pkt.header.seq, i);
        }
    }

    #[test]
    fn gap_counts_as_loss() {
        let now = SimTime::ZERO;
        let (mut tx, mut rx) = pair(now);
        let p0 = tx.send(MsgKind::Avatar, now, &Bytes::new()).unwrap();
        let _p1 = tx.send(MsgKind::Avatar, now, &Bytes::new()).unwrap(); // dropped
        let p2 = tx.send(MsgKind::Avatar, now, &Bytes::new()).unwrap();
        rx.on_packet(now, &p0);
        rx.on_packet(now, &p2);
        assert_eq!(rx.rx.lost, 1);
        assert_eq!(rx.rx.received, 2);
    }

    #[test]
    fn reorder_repairs_provisional_loss() {
        let now = SimTime::ZERO;
        let (mut tx, mut rx) = pair(now);
        let p0 = tx.send(MsgKind::Avatar, now, &Bytes::new()).unwrap();
        let p1 = tx.send(MsgKind::Avatar, now, &Bytes::new()).unwrap();
        rx.on_packet(now, &p0);
        // p1 skipped → provisional loss...
        let p2 = tx.send(MsgKind::Avatar, now, &Bytes::new()).unwrap();
        rx.on_packet(now, &p2);
        assert_eq!(rx.rx.lost, 1);
        // ...then p1 arrives late: loss repaired, reorder counted.
        rx.on_packet(now, &p1);
        assert_eq!(rx.rx.lost, 0);
        assert_eq!(rx.rx.reordered, 1);
    }

    #[test]
    fn foreign_packets_ignored() {
        let now = SimTime::ZERO;
        let (mut tx, mut rx) = pair(now);
        let mut other = UdpChannel::new(9, 4000, 5000, now);
        let pkt = other.send(MsgKind::Avatar, now, &Bytes::from_static(b"x")).unwrap();
        assert!(rx.on_packet(now, &pkt).is_none(), "wrong channel id");
        let pkt2 = tx.send(MsgKind::Avatar, now, &Bytes::from_static(b"x")).unwrap();
        let mut wrong_port = UdpChannel::new(7, 6000, 4000, now);
        assert!(wrong_port.on_packet(now, &pkt2).is_none(), "wrong port");
    }

    #[test]
    fn keepalive_fires_when_idle() {
        let now = SimTime::ZERO;
        let mut ch = UdpChannel::new(1, 1, 2, now).with_keepalive(SimDuration::from_secs(5));
        assert!(ch.on_tick(SimTime::from_secs(4)).is_none());
        let ka = ch.on_tick(SimTime::from_secs(5)).unwrap();
        let mut peer = UdpChannel::new(1, 2, 1, now);
        let msg = peer.on_packet(SimTime::from_secs(5), &ka).unwrap();
        assert_eq!(msg.kind, MsgKind::KeepAlive);
        // Sending data resets the keep-alive clock.
        ch.send(MsgKind::Avatar, SimTime::from_secs(6), &Bytes::new()).unwrap();
        assert!(ch.on_tick(SimTime::from_secs(10)).is_none());
        assert!(ch.on_tick(SimTime::from_secs(11)).is_some());
    }

    #[test]
    fn next_timer_tracks_keepalive_and_timeout() {
        let now = SimTime::ZERO;
        let plain = UdpChannel::new(1, 1, 2, now);
        assert!(plain.next_timer().is_none(), "no timers configured");
        let mut ch = UdpChannel::new(1, 1, 2, now)
            .with_keepalive(SimDuration::from_secs(5))
            .with_timeout(SimDuration::from_secs(30));
        assert_eq!(ch.next_timer(), Some(SimTime::from_secs(5)));
        // Sending data pushes the keep-alive deadline out.
        ch.send(MsgKind::Avatar, SimTime::from_secs(4), &Bytes::new()).unwrap();
        assert_eq!(ch.next_timer(), Some(SimTime::from_secs(9)));
        // Past the keep-alive horizon, the liveness timeout is next.
        let mut peer = UdpChannel::new(1, 2, 1, now);
        let pkt = peer.send(MsgKind::Avatar, SimTime::from_secs(6), &Bytes::new()).unwrap();
        ch.on_packet(SimTime::from_secs(6), &pkt);
        ch.send(MsgKind::Avatar, SimTime::from_secs(33), &Bytes::new()).unwrap();
        // Keep-alive due at 38, timeout (from last_rx = 6) due at 36.
        assert_eq!(ch.next_timer(), Some(SimTime::from_secs(36)));
        ch.kill();
        assert!(ch.next_timer().is_none(), "dead channels have no timers");
    }

    #[test]
    fn liveness_timeout_kills_channel_permanently() {
        let now = SimTime::ZERO;
        let mut ch = UdpChannel::new(1, 1, 2, now).with_timeout(SimDuration::from_secs(30));
        let (mut tx, _) = pair(now);
        let pkt = tx.send(MsgKind::Avatar, now, &Bytes::new()).unwrap();
        // Wrong channel id, but keeps the port; feed a matching one instead.
        let mut peer = UdpChannel::new(1, 2, 1, now);
        let pkt = {
            let _ = pkt;
            peer.send(MsgKind::Avatar, SimTime::from_secs(1), &Bytes::new()).unwrap()
        };
        ch.on_packet(SimTime::from_secs(1), &pkt);
        assert!(ch.on_tick(SimTime::from_secs(30)).is_none());
        assert!(!ch.is_dead());
        ch.on_tick(SimTime::from_secs(31));
        assert!(ch.is_dead());
        // Dead is forever: new incoming data does not resurrect sends.
        assert!(ch.send(MsgKind::Avatar, SimTime::from_secs(32), &Bytes::new()).is_none());
        assert!(ch.on_tick(SimTime::from_secs(33)).is_none());
    }

    #[test]
    fn short_payload_rejected() {
        let now = SimTime::ZERO;
        let (_, mut rx) = pair(now);
        let pkt = Packet::new(
            TransportHeader::datagram(Proto::Udp, 5000, 4000),
            Bytes::from_static(&[0u8; 4]),
        );
        assert!(rx.on_packet(now, &pkt).is_none());
    }

    #[test]
    fn msg_kind_byte_roundtrip() {
        for k in [MsgKind::Avatar, MsgKind::Voice, MsgKind::Game, MsgKind::KeepAlive, MsgKind::Other] {
            assert_eq!(MsgKind::from_byte(k.to_byte()), k);
        }
        assert_eq!(MsgKind::from_byte(200), MsgKind::Other);
    }
}
