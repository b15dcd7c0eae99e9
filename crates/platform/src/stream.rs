//! Message-oriented TLS/TCP stream — Hubs' data channel.
//!
//! Hubs carries avatar state over its HTTPS connection (§4.1) rather
//! than UDP: in practice a WebSocket-style message stream inside TLS.
//! [`StreamChannel`] reproduces that stack on our transports: 4-byte
//! length-prefixed messages, sealed into TLS records, carried by the
//! simplified TCP. The protocol/encryption overhead this adds per update
//! is one reason Hubs' avatar traffic is heavier than its embodiment
//! alone would suggest (§5.2).

use svr_netsim::buf::{Bytes, BytesMut};
use svr_netsim::{Packet, SimTime};
use svr_transport::tcp::{TcpConfig, TcpConnection, TcpEvent};
use svr_transport::tls::{
    seal, HandshakeProfile, RecordUnsealer, TlsSession, CONTENT_APPDATA, CONTENT_HANDSHAKE,
};

/// Events from the stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// TLS established; messages flow.
    Ready,
    /// A complete application message.
    Message(Bytes),
    /// The TCP connection died.
    Dead,
}

/// One endpoint of a message stream over TLS over TCP.
#[derive(Debug)]
pub struct StreamChannel {
    tcp: TcpConnection,
    tls: TlsSession,
    unsealer: RecordUnsealer,
    rx_buf: BytesMut,
    queued: Vec<Bytes>,
    ready_emitted: bool,
}

impl StreamChannel {
    /// Client side; returns the SYN to transmit.
    pub fn connect(cfg: TcpConfig, local_port: u16, remote_port: u16, now: SimTime) -> (Self, Vec<Packet>) {
        let (tcp, pkts) = TcpConnection::client(cfg, local_port, remote_port, now);
        (
            StreamChannel {
                tcp,
                tls: TlsSession::client(HandshakeProfile::default()),
                unsealer: RecordUnsealer::new(),
                rx_buf: BytesMut::new(),
                queued: Vec::new(),
                ready_emitted: false,
            },
            pkts,
        )
    }

    /// Server side; awaits the SYN.
    pub fn listen(cfg: TcpConfig, local_port: u16, remote_port: u16) -> Self {
        StreamChannel {
            tcp: TcpConnection::listen(cfg, local_port, remote_port),
            tls: TlsSession::server(HandshakeProfile::default()),
            unsealer: RecordUnsealer::new(),
            rx_buf: BytesMut::new(),
            queued: Vec::new(),
            ready_emitted: false,
        }
    }

    /// Whether messages currently flow without queueing.
    pub fn is_ready(&self) -> bool {
        self.tls.is_established()
    }

    /// Whether TCP holds unacknowledged data.
    pub fn has_unacked_data(&self) -> bool {
        self.tcp.has_unacked_data()
    }

    /// Queue/send one message. Returns packets to transmit now.
    pub fn send(&mut self, now: SimTime, msg: &[u8]) -> Vec<Packet> {
        if !self.tls.is_established() {
            self.queued.push(Bytes::copy_from_slice(msg));
            return Vec::new();
        }
        self.send_now(now, msg)
    }

    fn send_now(&mut self, now: SimTime, msg: &[u8]) -> Vec<Packet> {
        let mut framed = BytesMut::with_capacity(4 + msg.len());
        framed.put_u32(msg.len() as u32);
        framed.extend_from_slice(msg);
        self.tcp.send_chunks(now, seal(CONTENT_APPDATA, &framed, 0, 0))
    }

    fn drain_queued(&mut self, now: SimTime, out: &mut Vec<Packet>) {
        let queued = std::mem::take(&mut self.queued);
        for msg in queued {
            let pkts = self.send_now(now, &msg);
            out.extend(pkts);
        }
    }

    fn handle_tcp_events(
        &mut self,
        now: SimTime,
        tcp_events: Vec<TcpEvent>,
        out: &mut Vec<Packet>,
        events: &mut Vec<StreamEvent>,
    ) {
        for ev in tcp_events {
            match ev {
                TcpEvent::Connected => {
                    if let Some(flight) = self.tls.flight_to_send() {
                        out.extend(self.tcp.send_chunks(now, flight));
                    }
                }
                TcpEvent::Data(data) => {
                    let Ok(records) = self.unsealer.feed(&data) else { continue };
                    for rec in records {
                        if rec.content_type == CONTENT_HANDSHAKE {
                            if let Some(resp) = self.tls.on_handshake_record(&rec) {
                                out.extend(self.tcp.send_chunks(now, resp));
                            }
                            if self.tls.is_established() && !self.ready_emitted {
                                self.ready_emitted = true;
                                events.push(StreamEvent::Ready);
                                self.drain_queued(now, out);
                            }
                        } else {
                            self.rx_buf.extend_from_slice(&rec.plaintext);
                            self.extract_messages(events);
                        }
                    }
                }
                TcpEvent::Dead => events.push(StreamEvent::Dead),
                TcpEvent::Closed => {}
            }
        }
    }

    fn extract_messages(&mut self, events: &mut Vec<StreamEvent>) {
        loop {
            if self.rx_buf.len() < 4 {
                break;
            }
            let len = u32::from_be_bytes([
                self.rx_buf[0],
                self.rx_buf[1],
                self.rx_buf[2],
                self.rx_buf[3],
            ]) as usize;
            if self.rx_buf.len() < 4 + len {
                break;
            }
            let frame = self.rx_buf.split_to(4 + len).freeze();
            events.push(StreamEvent::Message(frame.slice(4..)));
        }
    }

    /// Process an incoming packet.
    pub fn on_packet(&mut self, now: SimTime, pkt: &Packet) -> (Vec<Packet>, Vec<StreamEvent>) {
        let (mut out, tcp_events) = self.tcp.on_packet(now, pkt);
        let mut events = Vec::new();
        self.handle_tcp_events(now, tcp_events, &mut out, &mut events);
        (out, events)
    }

    /// Drive TCP timers.
    pub fn on_tick(&mut self, now: SimTime) -> (Vec<Packet>, Vec<StreamEvent>) {
        let (mut out, tcp_events) = self.tcp.on_tick(now);
        let mut events = Vec::new();
        self.handle_tcp_events(now, tcp_events, &mut out, &mut events);
        (out, events)
    }

    /// Next TCP timer deadline.
    pub fn next_timer(&self) -> Option<SimTime> {
        self.tcp.next_timer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use svr_netsim::SimDuration;

    fn run(
        a: &mut StreamChannel,
        b: &mut StreamChannel,
        initial: Vec<Packet>,
        until: SimTime,
    ) -> (Vec<StreamEvent>, Vec<StreamEvent>) {
        let delay = SimDuration::from_millis(10);
        let mut a2b: VecDeque<(SimTime, Packet)> = VecDeque::new();
        let mut b2a: VecDeque<(SimTime, Packet)> = VecDeque::new();
        let mut now = SimTime::ZERO;
        let (mut ev_a, mut ev_b) = (Vec::new(), Vec::new());
        for p in initial {
            a2b.push_back((now + delay, p));
        }
        loop {
            let mut next = SimTime::MAX;
            for t in [
                a2b.front().map(|(t, _)| *t),
                b2a.front().map(|(t, _)| *t),
                a.next_timer(),
                b.next_timer(),
            ]
            .into_iter()
            .flatten()
            {
                next = next.min(t);
            }
            if next > until {
                break;
            }
            now = next;
            if a2b.front().map(|(t, _)| *t <= now).unwrap_or(false) {
                let (_, p) = a2b.pop_front().unwrap();
                let (pkts, evs) = b.on_packet(now, &p);
                ev_b.extend(evs);
                for q in pkts {
                    b2a.push_back((now + delay, q));
                }
                continue;
            }
            if b2a.front().map(|(t, _)| *t <= now).unwrap_or(false) {
                let (_, p) = b2a.pop_front().unwrap();
                let (pkts, evs) = a.on_packet(now, &p);
                ev_a.extend(evs);
                for q in pkts {
                    a2b.push_back((now + delay, q));
                }
                continue;
            }
            let (pkts, evs) = a.on_tick(now);
            ev_a.extend(evs);
            for q in pkts {
                a2b.push_back((now + delay, q));
            }
            let (pkts, evs) = b.on_tick(now);
            ev_b.extend(evs);
            for q in pkts {
                b2a.push_back((now + delay, q));
            }
        }
        (ev_a, ev_b)
    }

    #[test]
    fn messages_flow_both_ways_after_handshake() {
        let cfg = TcpConfig::default();
        let (mut a, syn) = StreamChannel::connect(cfg, 4000, 443, SimTime::ZERO);
        let mut b = StreamChannel::listen(cfg, 443, 4000);
        let mut initial = syn;
        initial.extend(a.send(SimTime::ZERO, b"early-avatar-update"));
        let (ev_a, ev_b) = run(&mut a, &mut b, initial, SimTime::from_secs(5));
        assert!(ev_a.contains(&StreamEvent::Ready));
        assert!(ev_b
            .iter()
            .any(|e| matches!(e, StreamEvent::Message(m) if m.as_ref() == b"early-avatar-update")));
    }

    #[test]
    fn large_and_small_messages_preserved_in_order() {
        let cfg = TcpConfig::default();
        let (mut a, syn) = StreamChannel::connect(cfg, 4000, 443, SimTime::ZERO);
        let mut b = StreamChannel::listen(cfg, 443, 4000);
        let mut initial = syn;
        let msgs: Vec<Vec<u8>> =
            vec![vec![1u8; 10], vec![2u8; 5_000], vec![3u8; 100], vec![4u8; 20_000]];
        for m in &msgs {
            initial.extend(a.send(SimTime::ZERO, m));
        }
        let (_, ev_b) = run(&mut a, &mut b, initial, SimTime::from_secs(30));
        let got: Vec<Bytes> = ev_b
            .into_iter()
            .filter_map(|e| match e {
                StreamEvent::Message(m) => Some(m),
                _ => None,
            })
            .collect();
        assert_eq!(got.len(), msgs.len());
        for (g, m) in got.iter().zip(msgs.iter()) {
            assert_eq!(g.as_ref(), m.as_slice());
        }
    }

    #[test]
    fn unacked_data_visible_during_flight() {
        let cfg = TcpConfig::default();
        let (mut a, syn) = StreamChannel::connect(cfg, 4000, 443, SimTime::ZERO);
        let mut b = StreamChannel::listen(cfg, 443, 4000);
        run(&mut a, &mut b, syn, SimTime::from_secs(5));
        assert!(a.is_ready());
        let _pkts = a.send(SimTime::from_secs(5), b"msg");
        assert!(a.has_unacked_data(), "segment in flight");
    }
}
