//! A simplified but real TCP.
//!
//! Implements the subset of TCP that shapes the behaviours the paper
//! observed on the platforms' HTTPS control channels: three-way
//! handshake, MSS segmentation, cumulative ACKs, out-of-order reassembly,
//! RTT estimation (RFC 6298), retransmission timeouts with exponential
//! backoff, Reno congestion control (slow start, congestion avoidance,
//! fast retransmit on three duplicate ACKs), and a give-up limit.
//!
//! Notable paper-relevant behaviours that *emerge* from this machine:
//!
//! * under §8.1's 100 % uplink loss, retransmissions back off but the
//!   connection survives a 60 s outage and recovers when loss is lifted —
//!   exactly what the paper saw for Worlds' TCP (while its UDP died);
//! * `has_unacked_data` exposes the signal Worlds' client uses to gate
//!   UDP sends behind TCP delivery (the TCP-priority interplay of §8.1).
//!
//! Deliberate simplifications (documented assumptions): no sequence-number
//! wrap (connections in the study move far less than 4 GiB), immediate
//! ACKs (no delayed-ACK timer), a fixed peer window, and no SACK.

use svr_netsim::buf::Bytes;
use std::collections::BTreeMap;
use std::collections::VecDeque;
use svr_netsim::{Packet, SimDuration, SimTime, TcpFlags, TransportHeader};

/// Tuning knobs for a connection.
#[derive(Debug, Clone, Copy)]
pub struct TcpConfig {
    /// Maximum segment size (payload bytes per segment).
    pub mss: usize,
    /// Initial congestion window in segments (RFC 6928 uses 10).
    pub initial_cwnd_segments: u32,
    /// Lower bound on the retransmission timeout.
    pub rto_min: SimDuration,
    /// Upper bound on the retransmission timeout.
    pub rto_max: SimDuration,
    /// Consecutive retransmissions of one segment before declaring the
    /// connection dead.
    pub max_retries: u32,
    /// Fixed peer receive window (flow-control cap on bytes in flight).
    pub peer_window: usize,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1400,
            initial_cwnd_segments: 10,
            rto_min: SimDuration::from_millis(200),
            rto_max: SimDuration::from_secs(60),
            max_retries: 15,
            peer_window: 256 * 1024,
        }
    }
}

/// Connection lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Passive open, waiting for SYN.
    Listen,
    /// Active open, SYN sent.
    SynSent,
    /// SYN received, SYN-ACK sent.
    SynReceived,
    /// Data may flow.
    Established,
    /// FIN sent, waiting for it to be acknowledged.
    FinSent,
    /// Closed cleanly.
    Closed,
    /// Given up after too many retransmissions.
    Dead,
}

/// Events surfaced to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TcpEvent {
    /// Handshake completed.
    Connected,
    /// In-order application data.
    Data(Bytes),
    /// Peer closed and all data was delivered.
    Closed,
    /// The connection retransmitted too many times and gave up.
    Dead,
}

#[derive(Debug)]
struct TxSegment {
    seq: u32,
    data: Bytes,
    first_sent: SimTime,
    retries: u32,
    retransmitted: bool,
}

/// One endpoint of a TCP connection.
#[derive(Debug)]
pub struct TcpConnection {
    cfg: TcpConfig,
    /// Current lifecycle state.
    pub state: TcpState,
    local_port: u16,
    remote_port: u16,

    // --- send side ---
    /// First unacknowledged sequence number.
    snd_una: u32,
    /// Next sequence number to use.
    snd_nxt: u32,
    /// App bytes accepted but not yet segmented, as the chunks they
    /// were written in; segments are cut from the front.
    tx_queue: VecDeque<Bytes>,
    /// Bytes in `tx_queue`.
    tx_queued: usize,
    /// Segments in flight.
    unacked: VecDeque<TxSegment>,
    /// Payload bytes in `unacked`.
    in_flight: usize,
    /// Congestion window in bytes.
    cwnd: usize,
    /// Slow-start threshold in bytes.
    ssthresh: usize,
    dup_acks: u32,
    fin_queued: bool,
    fin_sent_seq: Option<u32>,

    // --- receive side ---
    /// Next expected sequence number.
    rcv_nxt: u32,
    /// Out-of-order segments awaiting the gap fill.
    ooo: BTreeMap<u32, Bytes>,
    peer_fin_seq: Option<u32>,
    delivered_close: bool,

    // --- timers & RTT ---
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    rto: SimDuration,
    rto_deadline: Option<SimTime>,
    /// In an RTO episode: saved window state for Eifel/F-RTO-style undo
    /// when the timeout turns out to be spurious (a sudden RTT inflation
    /// rather than loss — §8.1's 5-15 s netem delays).
    rto_undo: Option<(usize, usize)>,


    // --- counters for analysis ---
    /// Total retransmitted segments.
    pub retransmissions: u64,
    /// Total payload bytes the peer has acknowledged.
    pub bytes_acked: u64,
    /// Total payload bytes delivered to the app in order.
    pub bytes_delivered: u64,
}

impl TcpConnection {
    fn new(cfg: TcpConfig, local_port: u16, remote_port: u16, state: TcpState) -> Self {
        TcpConnection {
            cfg,
            state,
            local_port,
            remote_port,
            snd_una: 0,
            snd_nxt: 0,
            tx_queue: VecDeque::new(),
            tx_queued: 0,
            unacked: VecDeque::new(),
            in_flight: 0,
            cwnd: cfg.mss * cfg.initial_cwnd_segments as usize,
            ssthresh: usize::MAX / 2,
            dup_acks: 0,
            fin_queued: false,
            fin_sent_seq: None,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            peer_fin_seq: None,
            delivered_close: false,
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: SimDuration::from_secs(1),
            rto_deadline: None,
            rto_undo: None,
            retransmissions: 0,
            bytes_acked: 0,
            bytes_delivered: 0,
        }
    }

    /// Active open: returns the connection and the initial SYN.
    pub fn client(cfg: TcpConfig, local_port: u16, remote_port: u16, now: SimTime) -> (Self, Vec<Packet>) {
        let mut c = Self::new(cfg, local_port, remote_port, TcpState::SynSent);
        let syn = c.make_packet(0, 0, TcpFlags::SYN, Bytes::new());
        c.snd_nxt = 1; // SYN consumes one sequence number
        c.arm_rto(now);
        (c, vec![syn])
    }

    /// Passive open: waits for a SYN.
    pub fn listen(cfg: TcpConfig, local_port: u16, remote_port: u16) -> Self {
        Self::new(cfg, local_port, remote_port, TcpState::Listen)
    }

    /// Local port of this endpoint.
    pub fn local_port(&self) -> u16 {
        self.local_port
    }

    /// Whether any sent data awaits acknowledgement (the Worlds UDP-gating
    /// signal). A connection still in its handshake counts: the SYN is
    /// unacknowledged sequence space.
    pub fn has_unacked_data(&self) -> bool {
        matches!(self.state, TcpState::SynSent) || !self.unacked.is_empty()
    }

    /// Payload bytes currently in flight.
    pub fn bytes_in_flight(&self) -> usize {
        self.in_flight
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> usize {
        self.cwnd
    }

    /// Smoothed RTT estimate, once at least one sample exists.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// When the retransmission timer fires next (drive [`Self::on_tick`]
    /// no later than this).
    pub fn next_timer(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    fn make_packet(&self, seq: u32, ack: u32, flags: TcpFlags, payload: Bytes) -> Packet {
        let mut hdr = TransportHeader::tcp(self.local_port, self.remote_port, seq, ack, flags);
        hdr.window = (self.cfg.peer_window / 1024).min(u16::MAX as usize) as u16;
        Packet::new(hdr, payload)
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = Some(now + self.rto);
    }

    fn disarm_rto(&mut self) {
        self.rto_deadline = None;
    }

    /// The un-backed-off timeout derived from the current RTT estimate
    /// (RFC 6298: the backoff is cleared once new data is acknowledged).
    fn base_rto(&self) -> SimDuration {
        match self.srtt {
            Some(srtt) => {
                let c = srtt + (self.rttvar * 4).max(SimDuration::from_millis(10));
                c.clamp(self.cfg.rto_min, self.cfg.rto_max)
            }
            None => SimDuration::from_secs(1),
        }
    }

    fn update_rtt(&mut self, sample: SimDuration) {
        // RFC 6298.
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let diff = if srtt > sample { srtt - sample } else { sample - srtt };
                self.rttvar = (self.rttvar * 3 + diff) / 4;
                self.srtt = Some((srtt * 7 + sample) / 8);
            }
        }
        let srtt = self.srtt.unwrap();
        let candidate = srtt + (self.rttvar * 4).max(SimDuration::from_millis(10));
        self.rto = candidate.clamp(self.cfg.rto_min, self.cfg.rto_max);
    }

    /// Accept application bytes for transmission. Returns segments that can
    /// be sent immediately under the congestion window.
    pub fn send_data(&mut self, now: SimTime, data: &[u8]) -> Vec<Packet> {
        self.send_chunks(now, [Bytes::copy_from_slice(data)])
    }

    /// [`send_data`](Self::send_data) for shared chunks, sent as their
    /// concatenation without a copy: every chunk is queued before one
    /// pump, so segment boundaries do not depend on how the bytes were
    /// split into chunks.
    pub fn send_chunks(&mut self, now: SimTime, chunks: impl IntoIterator<Item = Bytes>) -> Vec<Packet> {
        let pump = match self.state {
            TcpState::Established => true,
            // Buffer until established.
            TcpState::SynSent | TcpState::SynReceived => false,
            // Dropped when closed or dead.
            _ => return Vec::new(),
        };
        for chunk in chunks.into_iter().filter(|c| !c.is_empty()) {
            self.tx_queued += chunk.len();
            self.tx_queue.push_back(chunk);
        }
        if pump {
            self.pump_tx(now)
        } else {
            Vec::new()
        }
    }

    /// Cut the next `len` queued bytes off the front of the send queue:
    /// a slice of the front chunk when it holds them all, one gathered
    /// copy when they straddle chunks.
    fn take_tx(&mut self, len: usize) -> Bytes {
        self.tx_queued -= len;
        let front = self.tx_queue.front_mut().expect("queued bytes");
        if front.len() > len {
            let seg = front.slice(..len);
            *front = front.slice(len..);
            return seg;
        }
        if front.len() == len {
            return self.tx_queue.pop_front().expect("front exists");
        }
        let mut seg = Vec::with_capacity(len);
        while seg.len() < len {
            let front = self.tx_queue.front_mut().expect("queued bytes");
            let take = front.len().min(len - seg.len());
            seg.extend_from_slice(&front[..take]);
            if take == front.len() {
                self.tx_queue.pop_front();
            } else {
                *front = front.slice(take..);
            }
        }
        Bytes::from(seg)
    }

    /// Carve and emit as many segments as cwnd/flow control allow.
    fn pump_tx(&mut self, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        let window = self.cwnd.min(self.cfg.peer_window);
        while self.tx_queued > 0 && self.in_flight < window {
            let take = self.tx_queued.min(self.cfg.mss);
            let data = self.take_tx(take);
            let seq = self.snd_nxt;
            self.snd_nxt = self.snd_nxt.wrapping_add(take as u32);
            self.in_flight += take;
            out.push(self.make_packet(seq, self.rcv_nxt, TcpFlags::DATA, data.clone()));
            self.unacked.push_back(TxSegment {
                seq,
                data,
                first_sent: now,
                retries: 0,
                retransmitted: false,
            });
        }
        if self.tx_queued == 0 && self.fin_queued && self.fin_sent_seq.is_none() {
            let seq = self.snd_nxt;
            self.snd_nxt = self.snd_nxt.wrapping_add(1);
            self.fin_sent_seq = Some(seq);
            self.state = TcpState::FinSent;
            out.push(self.make_packet(seq, self.rcv_nxt, TcpFlags::FIN, Bytes::new()));
        }
        if (!self.unacked.is_empty() || self.fin_sent_seq.is_some())
            && self.rto_deadline.is_none() {
                self.arm_rto(now);
            }
        out
    }

    /// Begin a graceful close once all pending data is sent.
    pub fn close(&mut self, now: SimTime) -> Vec<Packet> {
        if matches!(self.state, TcpState::Closed | TcpState::Dead) {
            return Vec::new();
        }
        self.fin_queued = true;
        self.pump_tx(now)
    }

    /// Process an incoming segment addressed to this endpoint.
    pub fn on_packet(&mut self, now: SimTime, pkt: &Packet) -> (Vec<Packet>, Vec<TcpEvent>) {
        let mut out = Vec::new();
        let mut events = Vec::new();
        let h = &pkt.header;
        if h.dst_port != self.local_port || h.src_port != self.remote_port {
            return (out, events);
        }

        match self.state {
            TcpState::Listen => {
                if h.flags.syn && !h.flags.ack {
                    self.rcv_nxt = h.seq.wrapping_add(1);
                    out.push(self.make_packet(0, self.rcv_nxt, TcpFlags::SYN_ACK, Bytes::new()));
                    self.snd_nxt = 1;
                    self.state = TcpState::SynReceived;
                    self.arm_rto(now);
                }
                return (out, events);
            }
            TcpState::SynSent => {
                if h.flags.syn && h.flags.ack && h.ack == self.snd_nxt {
                    self.rcv_nxt = h.seq.wrapping_add(1);
                    self.snd_una = h.ack;
                    self.state = TcpState::Established;
                    self.disarm_rto();
                    events.push(TcpEvent::Connected);
                    out.push(self.make_packet(self.snd_nxt, self.rcv_nxt, TcpFlags::DATA, Bytes::new()));
                    out.extend(self.pump_tx(now));
                }
                return (out, events);
            }
            TcpState::SynReceived => {
                if h.flags.ack && h.ack == self.snd_nxt {
                    self.snd_una = h.ack;
                    self.state = TcpState::Established;
                    self.disarm_rto();
                    events.push(TcpEvent::Connected);
                    // Fall through: the ACK may carry data.
                } else if h.flags.syn {
                    // Duplicate SYN: re-send the SYN-ACK.
                    out.push(self.make_packet(0, self.rcv_nxt, TcpFlags::SYN_ACK, Bytes::new()));
                    return (out, events);
                } else {
                    return (out, events);
                }
            }
            TcpState::Closed | TcpState::Dead => return (out, events),
            TcpState::Established | TcpState::FinSent => {}
        }

        // --- ACK processing ---
        if h.flags.ack {
            let ack = h.ack;
            if seq_gt(ack, self.snd_una) && seq_le(ack, self.snd_nxt) {
                let advanced = ack.wrapping_sub(self.snd_una);
                self.snd_una = ack;
                self.dup_acks = 0;
                // Remove fully-acked segments; sample RTT per Karn.
                let mut acked_unretransmitted = false;
                while let Some(seg) = self.unacked.front() {
                    let seg_end = seg.seq.wrapping_add(seg.data.len() as u32);
                    if !seq_le(seg_end, ack) {
                        break;
                    }
                    let seg = self.unacked.pop_front().expect("front exists");
                    if !seg.retransmitted {
                        acked_unretransmitted = true;
                        let sample = now.saturating_since(seg.first_sent);
                        self.update_rtt(sample);
                    }
                    self.in_flight -= seg.data.len();
                    self.bytes_acked += seg.data.len() as u64;
                }
                // Eifel/F-RTO undo: a cumulative ACK covering segments we
                // never retransmitted proves the originals arrived — the
                // RTO was spurious (RTT inflation, not loss). Restore the
                // pre-timeout window instead of slow-starting from one
                // segment (what Linux does; without it, §8.1's delayed-TCP
                // gaps would stretch to several RTTs instead of ~one).
                if let Some((cwnd, ssthresh)) = self.rto_undo {
                    if acked_unretransmitted {
                        self.cwnd = self.cwnd.max(cwnd);
                        self.ssthresh = self.ssthresh.max(ssthresh);
                    }
                }
                if self.unacked.is_empty() {
                    self.rto_undo = None;
                }
                // New data acknowledged: clear the exponential backoff
                // (RFC 6298 §5.7). With the backoff gone, a multi-segment
                // loss drains at one cwnd-sized resend round per ~RTO
                // instead of one segment per exponentially-spaced timer.
                self.rto = self.base_rto();
                // FIN acknowledged?
                if let Some(fseq) = self.fin_sent_seq {
                    if seq_gt(ack, fseq) {
                        self.state = TcpState::Closed;
                        events.push(TcpEvent::Closed);
                    }
                }
                // Congestion control.
                if self.cwnd < self.ssthresh {
                    self.cwnd += advanced as usize; // slow start
                } else {
                    self.cwnd += (self.cfg.mss * self.cfg.mss) / self.cwnd.max(1);
                }
                if self.unacked.is_empty() && self.fin_sent_seq.is_none() {
                    self.disarm_rto();
                } else {
                    self.arm_rto(now);
                }
                out.extend(self.pump_tx(now));
            } else if ack == self.snd_una
                && !self.unacked.is_empty()
                && pkt.payload.is_empty()
                && !h.flags.fin
            {
                // Duplicate ACK.
                self.dup_acks += 1;
                if self.dup_acks == 3 {
                    // Fast retransmit + halve the window (Reno).
                    self.ssthresh = (self.bytes_in_flight() / 2).max(2 * self.cfg.mss);
                    self.cwnd = self.ssthresh;
                    if let Some(seg) = self.unacked.front_mut() {
                        seg.retransmitted = true;
                        seg.retries += 1;
                        self.retransmissions += 1;
                        let p = self.make_packet(
                            self.unacked[0].seq,
                            self.rcv_nxt,
                            TcpFlags::DATA,
                            self.unacked[0].data.clone(),
                        );
                        out.push(p);
                        self.arm_rto(now);
                    }
                }
            }
        }

        // --- data processing ---
        if !pkt.payload.is_empty() {
            let seq = h.seq;
            let end = seq.wrapping_add(pkt.payload.len() as u32);
            if seq_le(end, self.rcv_nxt) {
                // Entirely old: re-ACK.
                out.push(self.make_packet(self.snd_nxt, self.rcv_nxt, TcpFlags::DATA, Bytes::new()));
            } else if seq == self.rcv_nxt {
                self.deliver(pkt.payload.clone(), &mut events);
                self.drain_ooo(&mut events);
                out.push(self.make_packet(self.snd_nxt, self.rcv_nxt, TcpFlags::DATA, Bytes::new()));
            } else if seq_gt(seq, self.rcv_nxt) {
                // Out of order: stash and send a duplicate ACK.
                self.ooo.entry(seq).or_insert_with(|| pkt.payload.clone());
                out.push(self.make_packet(self.snd_nxt, self.rcv_nxt, TcpFlags::DATA, Bytes::new()));
            } else {
                // Partially old segment: deliver the new tail.
                let skip = self.rcv_nxt.wrapping_sub(seq) as usize;
                self.deliver(pkt.payload.slice(skip..), &mut events);
                self.drain_ooo(&mut events);
                out.push(self.make_packet(self.snd_nxt, self.rcv_nxt, TcpFlags::DATA, Bytes::new()));
            }
        }

        // --- FIN processing ---
        if h.flags.fin {
            let fin_seq = h.seq.wrapping_add(pkt.payload.len() as u32);
            self.peer_fin_seq = Some(fin_seq);
            self.try_deliver_close(&mut events);
            if self.peer_fin_seq.map(|f| f == self.rcv_nxt).unwrap_or(false) {
                self.rcv_nxt = self.rcv_nxt.wrapping_add(1);
            }
            out.push(self.make_packet(self.snd_nxt, self.rcv_nxt, TcpFlags::DATA, Bytes::new()));
            if self.state == TcpState::Established {
                self.state = TcpState::Closed;
            }
        }

        (out, events)
    }

    fn deliver(&mut self, data: Bytes, events: &mut Vec<TcpEvent>) {
        self.rcv_nxt = self.rcv_nxt.wrapping_add(data.len() as u32);
        self.bytes_delivered += data.len() as u64;
        events.push(TcpEvent::Data(data));
    }

    fn drain_ooo(&mut self, events: &mut Vec<TcpEvent>) {
        while let Some((&seq, _)) = self.ooo.iter().next() {
            if seq_gt(seq, self.rcv_nxt) {
                break;
            }
            let data = self.ooo.remove(&seq).unwrap();
            if seq == self.rcv_nxt {
                self.deliver(data, events);
            } else {
                // Overlaps already-delivered bytes.
                let skip = self.rcv_nxt.wrapping_sub(seq) as usize;
                if skip < data.len() {
                    self.deliver(data.slice(skip..), events);
                }
            }
        }
        self.try_deliver_close(events);
    }

    fn try_deliver_close(&mut self, events: &mut Vec<TcpEvent>) {
        if let Some(fin_seq) = self.peer_fin_seq {
            if fin_seq == self.rcv_nxt && !self.delivered_close {
                self.delivered_close = true;
                events.push(TcpEvent::Closed);
            }
        }
    }

    /// Drive timers; call at least as often as [`Self::next_timer`].
    pub fn on_tick(&mut self, now: SimTime) -> (Vec<Packet>, Vec<TcpEvent>) {
        let mut out = Vec::new();
        let mut events = Vec::new();
        let Some(deadline) = self.rto_deadline else {
            return (out, events);
        };
        if now < deadline {
            return (out, events);
        }

        match self.state {
            TcpState::SynSent => {
                out.push(self.make_packet(0, 0, TcpFlags::SYN, Bytes::new()));
            }
            TcpState::SynReceived => {
                out.push(self.make_packet(0, self.rcv_nxt, TcpFlags::SYN_ACK, Bytes::new()));
            }
            TcpState::Established | TcpState::FinSent => {
                if let Some(seg) = self.unacked.front_mut() {
                    seg.retransmitted = true;
                    seg.retries += 1;
                    self.retransmissions += 1;
                    if seg.retries > self.cfg.max_retries {
                        self.state = TcpState::Dead;
                        self.disarm_rto();
                        events.push(TcpEvent::Dead);
                        return (out, events);
                    }
                    // On the first timeout of an episode: save the window
                    // for spurious-RTO undo and collapse to one segment.
                    // Later timeouts in the same episode keep the
                    // ack-regrown window, so burst-loss recovery rounds
                    // grow 1, 2, 4, ... segments instead of re-collapsing.
                    if self.rto_undo.is_none() {
                        self.rto_undo = Some((self.cwnd, self.ssthresh));
                        self.ssthresh = (self.bytes_in_flight() / 2).max(2 * self.cfg.mss);
                        self.cwnd = self.cfg.mss;
                    }
                    // Resend up to one (post-collapse, ack-regrown) cwnd
                    // from the front: burst-loss recovery proceeds in
                    // cwnd-sized rounds rather than one segment per
                    // exponentially-spaced timeout.
                    let mut budget = self.cwnd.max(self.cfg.mss);
                    let mut resend: Vec<(u32, Bytes)> = Vec::new();
                    for seg in self.unacked.iter_mut() {
                        if budget < seg.data.len() {
                            break;
                        }
                        budget -= seg.data.len();
                        seg.retransmitted = true;
                        resend.push((seg.seq, seg.data.clone()));
                    }
                    self.retransmissions += resend.len().saturating_sub(1) as u64;
                    for (seq, data) in resend {
                        out.push(self.make_packet(seq, self.rcv_nxt, TcpFlags::DATA, data));
                    }
                } else if let Some(fseq) = self.fin_sent_seq {
                    out.push(self.make_packet(fseq, self.rcv_nxt, TcpFlags::FIN, Bytes::new()));
                } else {
                    self.disarm_rto();
                    return (out, events);
                }
            }
            _ => {
                self.disarm_rto();
                return (out, events);
            }
        }
        // Exponential backoff.
        self.rto = (self.rto * 2).min(self.cfg.rto_max);
        self.arm_rto(now);
        (out, events)
    }
}

// Wrapping sequence comparisons (RFC 793 style).
fn seq_gt(a: u32, b: u32) -> bool {
    (a.wrapping_sub(b) as i32) > 0
}
fn seq_le(a: u32, b: u32) -> bool {
    !seq_gt(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use svr_netsim::Proto;

    type DropFn = Box<dyn FnMut(u64, &Packet) -> bool>;

    /// Shuttle packets between two connections through an in-memory pipe
    /// with fixed one-way delay and a drop predicate (returns true to drop
    /// the n-th packet of that direction).
    struct Pipe {
        delay: SimDuration,
        now: SimTime,
        a_to_b: VecDeque<(SimTime, Packet)>,
        b_to_a: VecDeque<(SimTime, Packet)>,
        drop_a_to_b: DropFn,
        sent_a: u64,
    }

    impl Pipe {
        fn new(delay_ms: u64) -> Self {
            Pipe {
                delay: SimDuration::from_millis(delay_ms),
                now: SimTime::ZERO,
                a_to_b: VecDeque::new(),
                b_to_a: VecDeque::new(),
                drop_a_to_b: Box::new(|_, _| false),
                sent_a: 0,
            }
        }

        fn push_a(&mut self, pkts: Vec<Packet>) {
            for p in pkts {
                let n = self.sent_a;
                self.sent_a += 1;
                if !(self.drop_a_to_b)(n, &p) {
                    self.a_to_b.push_back((self.now + self.delay, p));
                }
            }
        }

        fn push_b(&mut self, pkts: Vec<Packet>) {
            for p in pkts {
                self.b_to_a.push_back((self.now + self.delay, p));
            }
        }

        /// Run both endpoints until quiescent or `until`.
        fn run(
            &mut self,
            a: &mut TcpConnection,
            b: &mut TcpConnection,
            until: SimTime,
        ) -> (Vec<TcpEvent>, Vec<TcpEvent>) {
            let mut ev_a = Vec::new();
            let mut ev_b = Vec::new();
            loop {
                // Next event: earliest queued packet or timer.
                let mut next = SimTime::MAX;
                if let Some((t, _)) = self.a_to_b.front() {
                    next = next.min(*t);
                }
                if let Some((t, _)) = self.b_to_a.front() {
                    next = next.min(*t);
                }
                if let Some(t) = a.next_timer() {
                    next = next.min(t);
                }
                if let Some(t) = b.next_timer() {
                    next = next.min(t);
                }
                if next > until {
                    self.now = until;
                    break;
                }
                self.now = next;
                if self.a_to_b.front().map(|(t, _)| *t <= self.now).unwrap_or(false) {
                    let (_, p) = self.a_to_b.pop_front().unwrap();
                    let (pkts, evs) = b.on_packet(self.now, &p);
                    ev_b.extend(evs);
                    self.push_b(pkts);
                    continue;
                }
                if self.b_to_a.front().map(|(t, _)| *t <= self.now).unwrap_or(false) {
                    let (_, p) = self.b_to_a.pop_front().unwrap();
                    let (pkts, evs) = a.on_packet(self.now, &p);
                    ev_a.extend(evs);
                    self.push_a(pkts);
                    continue;
                }
                let (pkts, evs) = a.on_tick(self.now);
                ev_a.extend(evs);
                self.push_a(pkts);
                let (pkts, evs) = b.on_tick(self.now);
                ev_b.extend(evs);
                self.push_b(pkts);
            }
            (ev_a, ev_b)
        }
    }

    fn established_pair(pipe: &mut Pipe) -> (TcpConnection, TcpConnection) {
        let cfg = TcpConfig::default();
        let (mut a, syn) = TcpConnection::client(cfg, 5000, 443, SimTime::ZERO);
        let mut b = TcpConnection::listen(cfg, 443, 5000);
        pipe.push_a(syn);
        let (ev_a, ev_b) = pipe.run(&mut a, &mut b, SimTime::from_secs(5));
        assert!(ev_a.contains(&TcpEvent::Connected));
        assert!(ev_b.contains(&TcpEvent::Connected));
        assert_eq!(a.state, TcpState::Established);
        assert_eq!(b.state, TcpState::Established);
        (a, b)
    }

    fn collect_data(events: &[TcpEvent]) -> Vec<u8> {
        let mut out = Vec::new();
        for e in events {
            if let TcpEvent::Data(d) = e {
                out.extend_from_slice(d);
            }
        }
        out
    }

    #[test]
    fn handshake_completes() {
        let mut pipe = Pipe::new(10);
        let _ = established_pair(&mut pipe);
    }

    #[test]
    fn data_transfers_in_order() {
        let mut pipe = Pipe::new(10);
        let (mut a, mut b) = established_pair(&mut pipe);
        let msg = vec![7u8; 10_000];
        let pkts = a.send_data(pipe.now, &msg);
        pipe.push_a(pkts);
        let (_, ev_b) = pipe.run(&mut a, &mut b, SimTime::from_secs(10));
        assert_eq!(collect_data(&ev_b), msg);
        assert_eq!(a.bytes_acked, 10_000);
        assert!(!a.has_unacked_data());
    }

    #[test]
    fn data_sent_before_established_is_buffered() {
        let cfg = TcpConfig::default();
        let (mut a, syn) = TcpConnection::client(cfg, 5000, 443, SimTime::ZERO);
        let mut b = TcpConnection::listen(cfg, 443, 5000);
        let none = a.send_data(SimTime::ZERO, b"early");
        assert!(none.is_empty());
        let mut pipe = Pipe::new(5);
        pipe.push_a(syn);
        let (_, ev_b) = pipe.run(&mut a, &mut b, SimTime::from_secs(5));
        assert_eq!(collect_data(&ev_b), b"early");
    }

    #[test]
    fn lost_segment_is_retransmitted() {
        let mut pipe = Pipe::new(10);
        let (mut a, mut b) = established_pair(&mut pipe);
        // Drop the first data segment from a.
        let mut dropped = false;
        pipe.drop_a_to_b = Box::new(move |_, p| {
            if !dropped && !p.payload.is_empty() && p.header.proto == Proto::Tcp {
                dropped = true;
                return true;
            }
            false
        });
        let msg = vec![3u8; 8_000];
        let pkts = a.send_data(pipe.now, &msg);
        pipe.push_a(pkts);
        let (_, ev_b) = pipe.run(&mut a, &mut b, SimTime::from_secs(30));
        assert_eq!(collect_data(&ev_b), msg);
        assert!(a.retransmissions >= 1);
    }

    #[test]
    fn out_of_order_data_is_reassembled() {
        let mut pipe = Pipe::new(10);
        let (mut a, mut b) = established_pair(&mut pipe);
        let msg: Vec<u8> = (0..20_000u32).map(|x| x as u8).collect();
        // Drop segment #2 on first transmission to force reordering.
        let mut count = 0;
        pipe.drop_a_to_b = Box::new(move |_, p| {
            if !p.payload.is_empty() {
                count += 1;
                return count == 2;
            }
            false
        });
        let pkts = a.send_data(pipe.now, &msg);
        pipe.push_a(pkts);
        let (_, ev_b) = pipe.run(&mut a, &mut b, SimTime::from_secs(30));
        assert_eq!(collect_data(&ev_b), msg, "reassembly must be exact");
    }

    #[test]
    fn survives_long_outage_and_recovers() {
        // §8.1: 100% loss for ~60 s; TCP must back off, survive, recover.
        let mut pipe = Pipe::new(10);
        let (mut a, mut b) = established_pair(&mut pipe);
        let start = pipe.now;
        let outage_end = start + SimDuration::from_secs(60);
        pipe.drop_a_to_b = Box::new(move |_, _| true);
        let pkts = a.send_data(pipe.now, b"blocked message");
        pipe.push_a(pkts);
        pipe.run(&mut a, &mut b, outage_end);
        assert_eq!(a.state, TcpState::Established, "must not die during 60 s outage");
        assert!(a.has_unacked_data());
        assert!(a.rto() > SimDuration::from_secs(10), "backoff grew: {}", a.rto());
        // Outage lifts.
        pipe.drop_a_to_b = Box::new(|_, _| false);
        let (_, ev_b) = pipe.run(&mut a, &mut b, outage_end + SimDuration::from_secs(120));
        assert_eq!(collect_data(&ev_b), b"blocked message");
        assert!(!a.has_unacked_data());
    }

    #[test]
    fn spurious_rto_undo_restores_window() {
        // A sudden 3 s RTT inflation (netem delay, §8.1) triggers RTOs,
        // but the originals eventually arrive: cwnd must be restored so
        // the next exchange completes in ~one (inflated) round trip.
        let mut pipe = Pipe::new(10);
        let (mut a, mut b) = established_pair(&mut pipe);
        // Grow cwnd with a warm-up transfer.
        let pkts = a.send_data(pipe.now, &vec![1u8; 60_000]);
        pipe.push_a(pkts);
        pipe.run(&mut a, &mut b, pipe.now + SimDuration::from_secs(10));
        let grown = a.cwnd();
        assert!(grown > 20_000, "warm cwnd {grown}");
        // Inflate the path RTT to 3 s and send a burst.
        pipe.delay = SimDuration::from_secs(3);
        let pkts = a.send_data(pipe.now, &vec![2u8; 10_000]);
        pipe.push_a(pkts);
        let start = pipe.now;
        let (_, ev_b) = pipe.run(&mut a, &mut b, start + SimDuration::from_secs(30));
        assert_eq!(
            collect_data(&ev_b).len(),
            10_000,
            "all data delivered despite RTO storms"
        );
        assert!(a.retransmissions > 0, "RTOs fired during the inflation");
        // The undo kept the window from collapsing to one segment.
        assert!(
            a.cwnd() >= grown / 2,
            "cwnd {} should be restored near {grown}",
            a.cwnd()
        );
        // And the RTT estimator adapted to the inflated path.
        assert!(a.srtt().unwrap() > SimDuration::from_secs(1));
    }

    #[test]
    fn rto_recovery_is_go_back_n_not_one_per_timeout() {
        // Drop an entire 26-segment burst once; the retransmissions must
        // complete within a handful of RTTs after the first RTO, not one
        // exponentially-spaced timeout per segment (which would take
        // minutes and starve §8.1's gated UDP forever).
        let mut pipe = Pipe::new(10);
        let (mut a, mut b) = established_pair(&mut pipe);
        let mut first_burst = true;
        pipe.drop_a_to_b = Box::new(move |_, p| {
            if first_burst && !p.payload.is_empty() {
                return true; // drop everything until the drops are disarmed
            }
            let _ = &mut first_burst;
            false
        });
        let msg = vec![5u8; 36_000];
        let start = pipe.now;
        let pkts = a.send_data(pipe.now, &msg);
        pipe.push_a(pkts);
        // Let the initial burst vanish, then re-open the pipe.
        pipe.run(&mut a, &mut b, start + SimDuration::from_millis(100));
        pipe.drop_a_to_b = Box::new(|_, _| false);
        // One initial RTO (~1 s) plus a few cwnd-doubling resend rounds at
        // the un-backed-off timeout must finish well within 8 s — one
        // exponentially-spaced timeout per segment would need minutes.
        let (_, ev_b) = pipe.run(&mut a, &mut b, start + SimDuration::from_secs(8));
        assert_eq!(collect_data(&ev_b), msg, "full stream recovered quickly");
    }

    #[test]
    fn gives_up_after_max_retries() {
        let cfg = TcpConfig {
            max_retries: 3,
            rto_max: SimDuration::from_secs(1),
            ..TcpConfig::default()
        };
        let mut pipe = Pipe::new(10);
        let (mut a0, syn) = TcpConnection::client(cfg, 5000, 443, SimTime::ZERO);
        let mut b0 = TcpConnection::listen(cfg, 443, 5000);
        pipe.push_a(syn);
        pipe.run(&mut a0, &mut b0, SimTime::from_secs(5));
        pipe.drop_a_to_b = Box::new(|_, _| true);
        let pkts = a0.send_data(pipe.now, b"doomed");
        pipe.push_a(pkts);
        let (ev_a, _) = pipe.run(&mut a0, &mut b0, SimTime::from_secs(200));
        assert!(ev_a.contains(&TcpEvent::Dead));
        assert_eq!(a0.state, TcpState::Dead);
        // A dead connection refuses further work.
        assert!(a0.send_data(pipe.now, b"more").is_empty());
    }

    #[test]
    fn rtt_estimate_tracks_path_delay() {
        let mut pipe = Pipe::new(25); // 50 ms RTT
        let (mut a, mut b) = established_pair(&mut pipe);
        for _ in 0..5 {
            let pkts = a.send_data(pipe.now, &[0u8; 500]);
            pipe.push_a(pkts);
            pipe.run(&mut a, &mut b, pipe.now + SimDuration::from_secs(1));
        }
        let srtt = a.srtt().expect("has RTT samples");
        assert!(
            (srtt.as_millis_f64() - 50.0).abs() < 10.0,
            "srtt {} should approximate 50 ms",
            srtt
        );
    }

    #[test]
    fn slow_start_grows_cwnd() {
        let mut pipe = Pipe::new(10);
        let (mut a, mut b) = established_pair(&mut pipe);
        let initial = a.cwnd();
        let pkts = a.send_data(pipe.now, &vec![1u8; 100_000]);
        pipe.push_a(pkts);
        pipe.run(&mut a, &mut b, pipe.now + SimDuration::from_secs(10));
        assert!(a.cwnd() > initial, "cwnd grew from {initial} to {}", a.cwnd());
        assert_eq!(b.bytes_delivered, 100_000);
    }

    #[test]
    fn graceful_close_delivers_closed_event() {
        let mut pipe = Pipe::new(10);
        let (mut a, mut b) = established_pair(&mut pipe);
        let pkts = a.send_data(pipe.now, b"bye");
        pipe.push_a(pkts);
        let pkts = a.close(pipe.now);
        pipe.push_a(pkts);
        let (ev_a, ev_b) = pipe.run(&mut a, &mut b, pipe.now + SimDuration::from_secs(10));
        assert_eq!(collect_data(&ev_b), b"bye");
        assert!(ev_b.contains(&TcpEvent::Closed), "receiver sees close: {ev_b:?}");
        assert!(ev_a.contains(&TcpEvent::Closed), "sender sees FIN acked");
        assert_eq!(a.state, TcpState::Closed);
    }

    #[test]
    fn fast_retransmit_on_triple_dup_ack() {
        let mut pipe = Pipe::new(10);
        let (mut a, mut b) = established_pair(&mut pipe);
        // Drop only the first data segment; subsequent segments trigger
        // dup ACKs and a fast retransmit well before the RTO.
        let mut count = 0;
        pipe.drop_a_to_b = Box::new(move |_, p| {
            if !p.payload.is_empty() {
                count += 1;
                return count == 1;
            }
            false
        });
        let msg = vec![9u8; 14_000]; // 10 segments
        let pkts = a.send_data(pipe.now, &msg);
        let t0 = pipe.now;
        pipe.push_a(pkts);
        let (_, ev_b) = pipe.run(&mut a, &mut b, t0 + SimDuration::from_secs(30));
        assert_eq!(collect_data(&ev_b), msg);
        assert!(a.retransmissions >= 1);
        // Recovery must be far faster than the 1 s initial RTO —
        // evidence the retransmit was dup-ACK-triggered.
        let done_by = b.bytes_delivered;
        assert_eq!(done_by, 14_000);
    }

    #[test]
    fn seq_comparisons_wrap() {
        assert!(seq_gt(1, 0));
        assert!(seq_gt(0, u32::MAX)); // wrap: 0 is "after" MAX
        assert!(seq_le(5, 5));
        assert!(!seq_gt(5, 10));
    }

    /// Exhaustive integrity under random bidirectional loss: whatever the
    /// drop pattern, the receiver must reconstruct the exact byte stream.
    fn lossy_transfer(seed: u64, loss: f64, len: usize) -> bool {
        use svr_netsim::SimRng;
        let cfg = TcpConfig { rto_max: SimDuration::from_secs(5), ..TcpConfig::default() };
        let (mut a, syn) = TcpConnection::client(cfg, 5000, 443, SimTime::ZERO);
        let mut b = TcpConnection::listen(cfg, 443, 5000);
        let mut rng = SimRng::seed_from_u64(seed);
        let delay = SimDuration::from_millis(10);
        let mut a2b: VecDeque<(SimTime, Packet)> = VecDeque::new();
        let mut b2a: VecDeque<(SimTime, Packet)> = VecDeque::new();
        let mut now = SimTime::ZERO;
        for p in syn {
            a2b.push_back((now + delay, p));
        }
        let msg: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
        let mut offered = false;
        let mut got: Vec<u8> = Vec::new();
        let deadline = SimTime::from_secs(600);
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
            if next > deadline || (got.len() == len && offered && !a.has_unacked_data()) {
                break;
            }
            now = next;
            if a2b.front().map(|(t, _)| *t <= now).unwrap_or(false) {
                let (_, p) = a2b.pop_front().unwrap();
                if rng.chance(loss) {
                    continue;
                }
                let (out, evs) = b.on_packet(now, &p);
                for e in evs {
                    if let TcpEvent::Data(d) = e {
                        got.extend_from_slice(&d);
                    }
                }
                for q in out {
                    b2a.push_back((now + delay, q));
                }
                continue;
            }
            if b2a.front().map(|(t, _)| *t <= now).unwrap_or(false) {
                let (_, p) = b2a.pop_front().unwrap();
                if rng.chance(loss) {
                    continue;
                }
                let (out, evs) = a.on_packet(now, &p);
                if !offered && evs.contains(&TcpEvent::Connected) {
                    offered = true;
                    for q in a.send_data(now, &msg) {
                        a2b.push_back((now + delay, q));
                    }
                }
                for q in out {
                    a2b.push_back((now + delay, q));
                }
                continue;
            }
            let (out, _) = a.on_tick(now);
            if !offered && a.state == TcpState::Established {
                offered = true;
                for q in a.send_data(now, &msg) {
                    a2b.push_back((now + delay, q));
                }
            }
            for q in out {
                a2b.push_back((now + delay, q));
            }
            let (out, _) = b.on_tick(now);
            for q in out {
                b2a.push_back((now + delay, q));
            }
        }
        got == msg
    }

    /// Stream integrity over loss rates and lengths drawn from a fixed-seed RNG.
    #[test]
    fn prop_integrity_under_random_loss_seeded() {
        let mut rng = svr_netsim::SimRng::seed_from_u64(0x7C9_0001);
        for _case in 0..24 {
            let seed = rng.next_u64();
            let loss = rng.range_f64(0.0, 0.35);
            let len = rng.range_u64(1, 19_999) as usize;
            assert!(
                lossy_transfer(seed, loss, len),
                "stream corrupted or stalled (seed {seed}, loss {loss:.2}, len {len})"
            );
        }
    }

    #[test]
    fn heavy_loss_still_delivers_exact_stream() {
        assert!(lossy_transfer(7, 0.3, 50_000));
    }

    /// Horizon Worlds' 5 MB initialization download, written as one
    /// chunk and cut into about 3,600 segments that view it.
    #[test]
    fn init_download_delivers_exact_stream() {
        assert!(
            lossy_transfer(11, 0.0, 5_000_000),
            "lossless download corrupted or stalled"
        );
        assert!(
            lossy_transfer(12, 0.02, 5_000_000),
            "download at 2% loss corrupted or stalled"
        );
    }

    /// A sender and its receiver, exchanging packets instantly, one
    /// simulated millisecond per round.
    struct Lane {
        tx: TcpConnection,
        rx: TcpConnection,
        /// Every data segment the sender put on the wire, in order.
        sent: Vec<Packet>,
    }

    impl Lane {
        fn established(now: &mut SimTime) -> Lane {
            let cfg = TcpConfig::default();
            let (tx, syn) = TcpConnection::client(cfg, 5000, 443, *now);
            let mut lane = Lane { tx, rx: TcpConnection::listen(cfg, 443, 5000), sent: Vec::new() };
            lane.drain(now, syn);
            assert_eq!((lane.tx.state, lane.rx.state), (TcpState::Established, TcpState::Established));
            lane
        }

        /// Deliver `to_rx` and everything it causes, firing the sender's
        /// retransmission timer whenever the wire falls silent with data
        /// unacknowledged.
        fn drain(&mut self, now: &mut SimTime, mut to_rx: Vec<Packet>) {
            loop {
                if to_rx.is_empty() {
                    match self.tx.next_timer() {
                        Some(at) if self.tx.has_unacked_data() => {
                            *now = (*now).max(at);
                            to_rx = self.tx.on_tick(*now).0;
                        }
                        _ => return,
                    }
                }
                *now += SimDuration::from_millis(1);
                self.sent.extend(to_rx.iter().filter(|p| !p.payload.is_empty()).cloned());
                let mut acks = Vec::new();
                for p in to_rx.drain(..) {
                    acks.extend(self.rx.on_packet(*now, &p).0);
                }
                for p in acks {
                    to_rx.extend(self.tx.on_packet(*now, &p).0);
                }
            }
        }
    }

    /// Writes given as 1–5 chunks must go on the wire as the same
    /// segments (count, `seq`, bytes) as the same writes given as one
    /// contiguous buffer, through acks and a retransmission; a segment
    /// that lies inside one chunk must be a view of that chunk.
    #[test]
    fn chunked_writes_segment_like_contiguous_ones() {
        let mss = TcpConfig::default().mss;
        let mut rng = svr_netsim::SimRng::seed_from_u64(0x7C9_0002);
        let mut lens = vec![1, mss - 1, mss, mss + 1, 0, 40_000, 2 * mss];
        lens.extend((0..25).map(|_| rng.range_u64(0, 40_000) as usize));
        let (mut now, mut start) = (SimTime::ZERO, SimTime::ZERO);
        let mut chunked = Lane::established(&mut now);
        let mut contiguous = Lane::established(&mut start);
        // Each write's stream offset and chunks, and every byte written.
        let mut writes: Vec<(usize, Vec<Bytes>)> = Vec::new();
        let mut stream: Vec<u8> = Vec::new();
        for (i, len) in lens.into_iter().enumerate() {
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut cuts: Vec<usize> =
                (0..rng.range_u64(0, 4)).map(|_| rng.range_u64(0, len as u64) as usize).collect();
            cuts.sort_unstable();
            let chunks: Vec<Bytes> = [0]
                .into_iter()
                .chain(cuts.iter().copied())
                .zip(cuts.iter().copied().chain([len]))
                .map(|(a, b)| Bytes::copy_from_slice(&data[a..b]))
                .collect();
            writes.push((stream.len(), chunks.clone()));
            stream.extend_from_slice(&data);
            let a = chunked.tx.send_chunks(now, chunks);
            let b = contiguous.tx.send_data(now, &data);
            // One write loses its first flight and is recovered by the
            // retransmission timer.
            let (a, b) = if i == 5 { (Vec::new(), Vec::new()) } else { (a, b) };
            chunked.drain(&mut now, a);
            contiguous.drain(&mut start, b);
            assert_eq!(now, start, "write {i}: the lanes diverged in time");
            for lane in [&chunked, &contiguous] {
                assert_eq!(lane.tx.bytes_in_flight(), 0, "write {i}");
                assert_eq!(lane.rx.bytes_delivered, stream.len() as u64, "write {i}");
            }
        }
        assert!(chunked.tx.retransmissions > 0, "no segment was retransmitted");
        assert_eq!(chunked.sent.len(), contiguous.sent.len(), "segment count");
        let mut shared = 0;
        for (x, y) in chunked.sent.iter().zip(&contiguous.sent) {
            assert_eq!(x.header.seq, y.header.seq);
            assert_eq!(x.payload, y.payload, "seq {}", x.header.seq);
            let at = x.header.seq as usize - 1;
            assert!(x.payload[..] == stream[at..at + x.payload.len()], "seq {}", x.header.seq);
            let (start, chunks) = writes.iter().rev().find(|(start, _)| *start <= at).unwrap();
            let mut chunk_at = *start;
            for chunk in chunks {
                let end = chunk_at + chunk.len();
                if chunk_at <= at && at + x.payload.len() <= end {
                    assert_eq!(x.payload.as_ptr(), chunk[at - chunk_at..].as_ptr(), "seq {} copied", x.header.seq);
                    shared += 1;
                }
                chunk_at = end;
            }
        }
        assert!(shared * 2 > chunked.sent.len(), "only {shared} segments lie inside one chunk");
    }

    #[test]
    fn duplicate_data_is_reacked_not_redelivered() {
        let mut pipe = Pipe::new(10);
        let (mut a, mut b) = established_pair(&mut pipe);
        let pkts = a.send_data(pipe.now, b"once");
        // Duplicate the data packet manually.
        let dup = pkts[0].clone();
        pipe.push_a(pkts);
        pipe.run(&mut a, &mut b, pipe.now + SimDuration::from_secs(2));
        let (_acks, evs) = b.on_packet(pipe.now, &dup);
        assert!(collect_data(&evs).is_empty(), "no double delivery");
        assert_eq!(b.bytes_delivered, 4);
    }
}
