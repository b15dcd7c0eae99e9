//! The client application state machine for all five platforms.
//!
//! A [`ClientApp`] drives one user's traffic: the HTTPS control channel
//! (initialization download, welcome-page menu interactions, the
//! periodic ~10 s report spikes of §4.1), the data channel (avatar
//! updates at the platform tick rate, status/telemetry, game state), and
//! the platform quirks — Worlds' TCP-priority gating of UDP sends and
//! its permanent UDP death after 30 s of silence (§8.1).

use crate::config::{DataTransport, PlatformConfig};
use crate::game::GameClient;
use crate::server::{stream_frame, DATA_SERVER_PORT};
use crate::stream::{StreamChannel, StreamEvent};
use svr_netsim::buf::{Bytes, BytesMut};
use std::collections::VecDeque;
use svr_avatar::codec::{encode_update_into, encoded_len, read_anchor, AvatarUpdate};
use svr_avatar::motion::MotionState;
use svr_avatar::skeleton::{Joint, Pose, Vec3};
use svr_netsim::packet::zero_payload;
use svr_netsim::{NodeId, Packet, SimDuration, SimRng, SimTime};
use svr_transport::http::{HttpClient, HttpEvent};
use svr_transport::rtp::{RtpReceiver, RtpSender};
use svr_transport::tcp::TcpConfig;
use svr_transport::udp::{MsgKind, UdpChannel};

/// Application lifecycle phase (§2.1's design pattern: welcome page →
/// social interaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Connecting / system initialization.
    Connecting,
    /// On the welcome page (control-channel traffic only).
    WelcomePage,
    /// In a social event (data channel active).
    SocialEvent,
}

/// A packet to transmit, with its destination node.
pub type Outgoing = (NodeId, Packet);

/// Events the session driver consumes.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientEvent {
    /// Control channel became ready (welcome page reached).
    WelcomeReached,
    /// An avatar update from a peer arrived (used for E2E latency and
    /// peer tracking).
    AvatarReceived {
        /// Peer avatar id.
        from: u32,
        /// Peer tick counter.
        tick: u32,
    },
    /// A marked action left the device (sender processing done).
    ActionSent {
        /// Action identifier.
        action_id: u64,
        /// The avatar tick carrying it.
        tick: u32,
        /// When the user performed the action.
        performed_at: SimTime,
    },
    /// The data channel died permanently (Worlds after 30 s of silence).
    DataChannelDead,
}

enum DataChannel {
    NotOpen,
    Udp(UdpChannel),
    Stream(Box<StreamChannel>),
}

/// One user's client application.
pub struct ClientApp {
    /// User / avatar identifier.
    pub user_id: u32,
    /// Platform configuration (owned copy).
    pub cfg: PlatformConfig,
    /// This client's network node.
    pub node: NodeId,
    /// Data-server node.
    pub data_server: NodeId,
    /// Control-server node.
    pub control_server: NodeId,
    /// Motion synthesizer (public so experiments can script it).
    pub motion: MotionState,
    /// The last avatar tick's synthesised pose and velocities, and the
    /// update delta-selected from them: kept so that every tick reuses
    /// their storage.
    pose: Pose,
    pose_velocities: Vec<Vec3>,
    update: AvatarUpdate,

    phase: Phase,
    data: DataChannel,
    control: HttpClient,
    data_port: u16,

    next_avatar: SimTime,
    next_status: SimTime,
    next_voice: SimTime,
    /// Whether the microphone is live (the paper's experiments join
    /// muted; unmute to study voice traffic).
    pub muted: bool,
    next_telemetry: SimTime,
    next_report: SimTime,
    /// A report/sync request is in flight; the next one waits for its
    /// response (request-response, not pipelined — which is why §8.1's
    /// UDP gaps track the TCP delay instead of merging into starvation).
    report_outstanding: bool,
    next_menu: SimTime,
    avatar_tick: u32,
    menus_remaining: u32,

    /// Worlds gating: UDP messages held while TCP has unacked data.
    gated: VecDeque<(MsgKind, Bytes)>,
    /// When continuous gating began (None when not gated).
    gated_since: Option<SimTime>,
    /// TCP bytes acked at the last progress check: any growth counts as
    /// progress and defers the give-up timer (heavily-throttled links
    /// deliver acks late but deliver them; only total TCP silence — the
    /// §8.1 100% loss stage — kills the session).
    last_acked_seen: u64,
    /// Running game, if any.
    pub game: Option<GameClient>,

    pending_action: Option<(u64, SimTime, SimTime)>, // (id, performed, send_at)
    next_action_id: u64,

    /// Peers seen recently: (peer id, last update time).
    peers: Vec<(u32, SimTime)>,
    /// Dead-reckoners per peer: motion prediction between updates, the
    /// §8.2 loss-tolerance mechanism.
    reckoners: Vec<(u32, svr_avatar::DeadReckoner)>,
    /// Hubs only: voice rides RTP/UDP while avatars ride the TLS stream
    /// (Table 2's "RTP/RTCP + HTTPS" data channel).
    rtp_voice: Option<(RtpSender, RtpReceiver)>,
    /// Voice frames received (any transport).
    pub voice_frames_received: u64,
    rng: SimRng,
    frozen_reported: bool,
    /// Total video bytes received (remote-rendering ablation).
    pub video_bytes: u64,
}

impl ClientApp {
    /// Create a client for `user_id` at `spawn`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        user_id: u32,
        cfg: PlatformConfig,
        node: NodeId,
        data_server: NodeId,
        control_server: NodeId,
        seed: u64,
        spawn: Vec3,
        heading: f32,
    ) -> Self {
        let hz = cfg.avatar_tick_hz;
        assert!(hz.is_finite() && hz > 0.0, "avatar_tick_hz must be finite and positive, got {hz}");
        for (field, hz) in [
            ("status_rate_hz", cfg.status_rate_hz),
            ("telemetry_rate_hz", cfg.telemetry_rate_hz),
            ("voice_frame_hz", cfg.voice_frame_hz),
        ] {
            assert!(
                hz.is_finite() && hz >= 0.0,
                "{field} must be finite and non-negative (0 disables it), got {hz}"
            );
        }
        let data_port = 40_000 + user_id as u16;
        ClientApp {
            user_id,
            node,
            data_server,
            control_server,
            motion: MotionState::new(seed ^ 0xA5A5, spawn, heading),
            pose: Pose::default(),
            pose_velocities: Vec::new(),
            update: AvatarUpdate {
                avatar_id: user_id,
                tick: 0,
                pose: Pose::default(),
                velocities: Vec::new(),
                precision: cfg.embodiment.precision,
            },
            phase: Phase::Connecting,
            data: DataChannel::NotOpen,
            control: HttpClient::connect(TcpConfig::default(), 50_000 + user_id as u16, 443, SimTime::ZERO).0,
            cfg,
            data_port,
            next_avatar: SimTime::ZERO,
            next_status: SimTime::ZERO,
            next_voice: SimTime::ZERO,
            muted: true,
            next_telemetry: SimTime::ZERO,
            next_report: SimTime::ZERO,
            report_outstanding: false,
            next_menu: SimTime::ZERO,
            avatar_tick: 0,
            menus_remaining: 0,
            gated: VecDeque::new(),
            gated_since: None,
            last_acked_seen: 0,
            game: None,
            pending_action: None,
            next_action_id: 0,
            peers: Vec::new(),
            reckoners: Vec::new(),
            rtp_voice: None,
            voice_frames_received: 0,
            rng: SimRng::seed_from_u64(seed ^ 0xC11E),
            frozen_reported: false,
            video_bytes: 0,
        }
    }

    /// Launch the app: opens the control channel and requests the
    /// initialization download (§5.2). Returns packets to transmit.
    pub fn launch(&mut self, now: SimTime) -> Vec<Outgoing> {
        let (control, syn) =
            HttpClient::connect(TcpConfig::default(), 50_000 + self.user_id as u16, 443, now);
        self.control = control;
        let mut out: Vec<Outgoing> =
            syn.into_iter().map(|p| (self.control_server, p)).collect();
        if self.cfg.init_download_bytes > 0 {
            let pkts = self.control.request(now, "GET", "/init", 0);
            out.extend(pkts.into_iter().map(|p| (self.control_server, p)));
        }
        self.phase = Phase::WelcomePage;
        self.menus_remaining = 16 + (self.rng.next_u64() % 6) as u32;
        self.next_menu = now + SimDuration::from_secs(3);
        if self.cfg.report_interval.is_some() {
            self.next_report = now + SimDuration::from_secs(5);
        }
        out
    }

    /// Join a social event: opens the data channel. The session must also
    /// register this user with the data server.
    pub fn enter_event(&mut self, now: SimTime) -> Vec<Outgoing> {
        self.phase = Phase::SocialEvent;
        let mut out = Vec::new();
        match self.cfg.data_transport {
            DataTransport::Udp => {
                let mut chan =
                    UdpChannel::new(self.user_id as u16, self.data_port, DATA_SERVER_PORT, now)
                        .with_keepalive(SimDuration::from_secs(2));
                if let Some(t) = self.cfg.udp_timeout {
                    chan = chan.with_timeout(t);
                }
                self.data = DataChannel::Udp(chan);
            }
            DataTransport::TlsStream => {
                let (chan, syn) =
                    StreamChannel::connect(TcpConfig::default(), self.data_port, DATA_SERVER_PORT, now);
                out.extend(syn.into_iter().map(|p| (self.data_server, p)));
                self.data = DataChannel::Stream(Box::new(chan));
                // Voice goes over RTP/UDP to the SFU (Table 2).
                let voice_port = crate::server::voice_port(self.user_id);
                self.rtp_voice = Some((
                    RtpSender::new(self.user_id, voice_port, crate::server::VOICE_SERVER_PORT),
                    RtpReceiver::new(self.user_id, voice_port, crate::server::VOICE_SERVER_PORT),
                ));
            }
        }
        // Hubs re-downloads the world on every join (§5.2's caching bug).
        if self.cfg.redownload_every_join && self.cfg.init_download_bytes > 0 {
            let pkts = self.control.request(now, "GET", "/world", 0);
            out.extend(pkts.into_iter().map(|p| (self.control_server, p)));
        }
        self.next_avatar = now;
        self.next_status = now;
        self.next_telemetry = now;
        out
    }

    /// Current lifecycle phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Whether the data channel died permanently (frozen screen, §8.1).
    pub fn is_frozen(&self) -> bool {
        matches!(&self.data, DataChannel::Udp(c) if c.is_dead())
    }

    /// Peers that sent an update within the last 2 s — the client's
    /// rendering load.
    pub fn active_peers(&self, now: SimTime) -> usize {
        self.peers
            .iter()
            .filter(|(_, t)| now.saturating_since(*t) < SimDuration::from_secs(2))
            .count()
    }

    /// 95th-percentile dead-reckoning pop across all peers, metres —
    /// how visible network losses were to this user (§8.2).
    pub fn prediction_p95_m(&self) -> f32 {
        self.reckoners
            .iter()
            .map(|(_, r)| r.p95_error_m())
            .fold(0.0, f32::max)
    }

    /// Start the platform's game (no-op if the platform has none).
    pub fn start_game(&mut self, now: SimTime) {
        if let Some(traffic) = self.cfg.game {
            self.game = Some(GameClient::new(traffic, now, self.user_id as u64));
        }
    }

    /// Stop the game.
    pub fn stop_game(&mut self) {
        self.game = None;
    }

    /// Perform a user action (the §7 finger-touch): the action is
    /// encoded into an avatar update that leaves the device after the
    /// sender-side processing latency. Returns the action id.
    pub fn perform_action(&mut self, now: SimTime) -> u64 {
        let id = self.next_action_id;
        self.next_action_id += 1;
        let delay_ms =
            self.rng.gaussian_at_least(self.cfg.sender_proc_ms, self.cfg.sender_proc_ms * 0.2, 2.0);
        let send_at = now + SimDuration::from_millis_f64(delay_ms);
        self.pending_action = Some((id, now, send_at));
        id
    }

    /// The client's earliest deadline: the first instant at which
    /// [`ClientApp::on_tick`] could do anything. Conservative — it may
    /// be earlier than the next actual emission (a spurious wake is a
    /// no-op, since every firing branch re-checks its own clock), but
    /// never later, so a driver may skip ticks until this time without
    /// changing behaviour. `None` means no timer is armed at all.
    pub fn next_timer(&self, now: SimTime) -> Option<SimTime> {
        let mut due: Option<SimTime> = None;
        let mut add = |t: SimTime| due = Some(due.map_or(t, |d: SimTime| d.min(t)));
        if let Some(t) = self.control.next_timer() {
            add(t);
        }
        if self.phase == Phase::WelcomePage && self.menus_remaining > 0 {
            add(self.next_menu);
        }
        if self.cfg.report_interval.is_some()
            && self.phase != Phase::Connecting
            && !self.report_outstanding
        {
            add(self.next_report);
        }
        if self.phase == Phase::SocialEvent {
            // Worlds' gating re-checks TCP ack progress every tick while
            // active, and the channel-death event fires on the tick after
            // the kill: both need an immediate wake.
            if self.cfg.tcp_priority && self.gated_since.is_some() {
                add(now);
            }
            match &self.data {
                DataChannel::NotOpen => {}
                DataChannel::Udp(c) => {
                    if let Some(t) = c.next_timer() {
                        add(t);
                    }
                    if c.is_dead() && !self.frozen_reported {
                        add(now);
                    }
                }
                DataChannel::Stream(s) => {
                    if let Some(t) = s.next_timer() {
                        add(t);
                    }
                }
            }
            if !self.is_frozen() {
                if let Some((_, _, send_at)) = self.pending_action {
                    add(send_at);
                }
                add(self.next_avatar);
                if !self.muted && self.cfg.voice_frame_hz > 0.0 {
                    add(self.next_voice);
                }
                if self.cfg.status_rate_hz > 0.0 {
                    add(self.next_status);
                }
                if self.cfg.telemetry_rate_hz > 0.0 {
                    add(self.next_telemetry);
                }
                if let Some(g) = &self.game {
                    add(g.next_timer());
                }
            }
        }
        due
    }

    // --- internals ---

    fn avatar_body(&mut self, dt: f64) -> Bytes {
        let e = &self.cfg.embodiment;
        self.motion.step_into(dt, e, &mut self.pose, &mut self.pose_velocities);
        // Delta selection: platforms ship only the joints that are
        // actually moving (root and head always go, to keep presence
        // alive). A walking avatar sends its full skeleton; a standing
        // one only the idle sway — the motion-driven traffic behind
        // Fig. 3's uplink/downlink matching.
        let update = &mut self.update;
        update.avatar_id = self.user_id;
        update.tick = self.avatar_tick;
        update.precision = e.precision;
        update.pose.joints.clear();
        update.velocities.clear();
        for (&(j, jp), &v) in self.pose.joints.iter().zip(&self.pose_velocities) {
            if matches!(j, Joint::Root | Joint::Head) || v.length() > 0.3 {
                update.pose.joints.push((j, jp));
                if e.velocities {
                    update.velocities.push(v);
                }
            }
        }
        update.pose.blendshapes.clone_from(&self.pose.blendshapes);
        self.avatar_tick += 1;
        let envelope = self.cfg.avatar_envelope_bytes;
        let mut body = BytesMut::with_capacity(encoded_len(update) + envelope);
        encode_update_into(update, &mut body);
        body.put_bytes(0, envelope);
        body.freeze()
    }

    /// Send (or gate) a data-channel message.
    fn send_data(&mut self, now: SimTime, kind: MsgKind, body: Bytes, out: &mut Vec<Outgoing>) {
        // Worlds' TCP-priority rule: hold UDP while TCP has unacked data.
        if self.cfg.tcp_priority && self.control.has_unacked_data() {
            self.gated_since.get_or_insert(now);
            self.gated.push_back((kind, body));
            return;
        }
        self.gated_since = None;
        self.transmit_data(now, kind, &body, out);
    }

    fn transmit_data(&mut self, now: SimTime, kind: MsgKind, body: &Bytes, out: &mut Vec<Outgoing>) {
        match &mut self.data {
            DataChannel::NotOpen => {}
            DataChannel::Udp(c) => {
                if let Some(p) = c.send(kind, now, body) {
                    out.push((self.data_server, p));
                }
            }
            DataChannel::Stream(s) => {
                for p in s.send(now, &stream_frame(kind, body)) {
                    out.push((self.data_server, p));
                }
            }
        }
    }

    fn flush_gated(&mut self, now: SimTime, out: &mut Vec<Outgoing>) {
        self.gated_since = None;
        if self.gated.is_empty() {
            return;
        }
        // Stale motion updates are superseded: keep only the most recent
        // avatar and game update, but every telemetry message.
        let mut latest_avatar: Option<Bytes> = None;
        let mut latest_game: Option<Bytes> = None;
        let mut others: Vec<(MsgKind, Bytes)> = Vec::new();
        for (kind, body) in self.gated.drain(..) {
            match kind {
                MsgKind::Avatar => latest_avatar = Some(body),
                MsgKind::Game => latest_game = Some(body),
                k => others.push((k, body)),
            }
        }
        for (k, b) in others {
            self.transmit_data(now, k, &b, out);
        }
        if let Some(b) = latest_avatar {
            self.transmit_data(now, MsgKind::Avatar, &b, out);
        }
        if let Some(b) = latest_game {
            self.transmit_data(now, MsgKind::Game, &b, out);
        }
    }

    fn handle_data_msg(&mut self, now: SimTime, kind: MsgKind, body: &[u8], events: &mut Vec<ClientEvent>) {
        match kind {
            MsgKind::Avatar => {
                if let Ok(anchor) = read_anchor(body) {
                    let from = anchor.avatar_id;
                    match self.peers.iter_mut().find(|(id, _)| *id == from) {
                        Some(p) => p.1 = now,
                        None => self.peers.push((from, now)),
                    }
                    events.push(ClientEvent::AvatarReceived { from, tick: anchor.tick });
                    // Dead reckoning: measure how far the extrapolated
                    // anchor had drifted, then re-anchor (§8.2).
                    let reckoner = match self.reckoners.iter_mut().find(|(id, _)| *id == from) {
                        Some((_, r)) => r,
                        None => {
                            self.reckoners.push((from, svr_avatar::DeadReckoner::new()));
                            &mut self.reckoners.last_mut().unwrap().1
                        }
                    };
                    reckoner.observe(now, anchor);
                }
            }
            MsgKind::Voice => {
                self.voice_frames_received += 1;
            }
            MsgKind::Other => {
                // Server housekeeping or remote-render video.
                self.video_bytes += body.len() as u64;
            }
            _ => {}
        }
    }

    /// Handle an incoming packet.
    pub fn on_packet(&mut self, now: SimTime, pkt: &Packet) -> (Vec<Outgoing>, Vec<ClientEvent>) {
        let mut out = Vec::new();
        let mut events = Vec::new();

        // Control channel (packets from the control server).
        if pkt.src == self.control_server {
            let (pkts, http_events) = self.control.on_packet(now, pkt);
            out.extend(pkts.into_iter().map(|p| (self.control_server, p)));
            for ev in http_events {
                match ev {
                    HttpEvent::Ready => events.push(ClientEvent::WelcomeReached),
                    HttpEvent::Response(x) => {
                        if x.path == "/sync" || x.path == "/report" {
                            self.report_outstanding = false;
                            if let Some(interval) = self.cfg.report_interval {
                                self.next_report = self.next_report.max(now + interval / 2);
                            }
                        }
                        if x.path == "/sync" {
                            if let Some(g) = &mut self.game {
                                g.apply_sync(now, now + SimDuration::from_secs(120));
                            }
                        }
                    }
                    HttpEvent::Dead => {}
                }
            }
            // TCP just made progress: maybe release gated UDP (§8.1).
            if self.cfg.tcp_priority && !self.control.has_unacked_data() {
                self.flush_gated(now, &mut out);
            }
            return (out, events);
        }

        // RTP voice (Hubs).
        if pkt.header.proto == svr_netsim::Proto::Udp {
            if let Some((_, rx)) = &mut self.rtp_voice {
                if rx.on_packet(now, pkt).is_some() {
                    self.voice_frames_received += 1;
                    return (out, events);
                }
            }
        }

        // Data channel.
        let mut msgs: Vec<(MsgKind, Bytes)> = Vec::new();
        match &mut self.data {
            DataChannel::NotOpen => {}
            DataChannel::Udp(c) => {
                if let Some(m) = c.on_packet(now, pkt) {
                    msgs.push((m.kind, m.body));
                }
            }
            DataChannel::Stream(s) => {
                let (pkts, stream_events) = s.on_packet(now, pkt);
                out.extend(pkts.into_iter().map(|p| (self.data_server, p)));
                for ev in stream_events {
                    if let StreamEvent::Message(m) = ev {
                        if let Some(msg) = crate::server::parse_stream_frame(&m) {
                            msgs.push(msg);
                        }
                    }
                }
            }
        }
        for (kind, body) in msgs {
            self.handle_data_msg(now, kind, &body, &mut events);
        }
        (out, events)
    }

    /// Drive timers. Call every few milliseconds.
    pub fn on_tick(&mut self, now: SimTime) -> (Vec<Outgoing>, Vec<ClientEvent>) {
        let mut out = Vec::new();
        let mut events = Vec::new();

        // Control-channel timers (TCP retransmits, TLS).
        if self.control.next_timer().map(|t| t <= now).unwrap_or(false) {
            let (pkts, _) = self.control.on_tick(now);
            out.extend(pkts.into_iter().map(|p| (self.control_server, p)));
        }

        // Welcome-page menu interactions (§5.1's bursty control traffic).
        if self.phase == Phase::WelcomePage && self.menus_remaining > 0 && now >= self.next_menu {
            self.menus_remaining -= 1;
            self.next_menu = now + SimDuration::from_secs_f64(self.rng.range_f64(3.0, 8.0));
            let up = self.rng.range_u64(2_000, 8_000) as usize;
            let pkts = self.control.request(now, "POST", "/menu", up);
            out.extend(pkts.into_iter().map(|p| (self.control_server, p)));
        }

        // Periodic client reports (the ~10 s HTTPS spikes of §4.1). A
        // report waits for the previous one's response.
        if let Some(interval) = self.cfg.report_interval {
            if now >= self.next_report && self.phase != Phase::Connecting && !self.report_outstanding {
                self.next_report = now + interval;
                self.report_outstanding = true;
                let path = if self.cfg.clock_sync && self.game.is_some() { "/sync" } else { "/report" };
                let pkts = self.control.request(now, "POST", path, self.cfg.report_up_bytes);
                out.extend(pkts.into_iter().map(|p| (self.control_server, p)));
            }
        }

        if self.phase == Phase::SocialEvent {
            self.data_channel_ticks(now, &mut out, &mut events);
        }

        (out, events)
    }

    fn data_channel_ticks(&mut self, now: SimTime, out: &mut Vec<Outgoing>, events: &mut Vec<ClientEvent>) {
        // The Worlds session layer gives up after its UDP has been gated
        // behind a TCP connection that made no progress for ~30 s (§8.1):
        // the UDP connection breaks and never recovers. Any ACK progress
        // (even seconds late under throttling) resets the timer.
        if self.cfg.tcp_priority {
            let acked = self.control.tcp().bytes_acked;
            if acked != self.last_acked_seen {
                self.last_acked_seen = acked;
                if let Some(since) = &mut self.gated_since {
                    *since = now;
                }
            }
            if let Some(since) = self.gated_since {
                if now.saturating_since(since) >= SimDuration::from_secs(30) {
                    if let DataChannel::Udp(c) = &mut self.data {
                        c.kill();
                    }
                    self.gated.clear();
                    self.gated_since = None;
                }
            }
        }
        // Channel maintenance: keep-alives & liveness.
        if let DataChannel::Udp(c) = &mut self.data {
            if let Some(p) = c.on_tick(now) {
                out.push((self.data_server, p));
            }
            if c.is_dead() && !self.frozen_reported {
                self.frozen_reported = true;
                events.push(ClientEvent::DataChannelDead);
            }
        }
        if let DataChannel::Stream(s) = &mut self.data {
            if s.next_timer().map(|t| t <= now).unwrap_or(false) {
                let (pkts, _) = s.on_tick(now);
                out.extend(pkts.into_iter().map(|p| (self.data_server, p)));
            }
        }
        if self.is_frozen() {
            return;
        }

        // Marked action: a dedicated update after sender processing.
        if let Some((id, performed, send_at)) = self.pending_action {
            if now >= send_at {
                self.pending_action = None;
                let tick = self.avatar_tick;
                let body = self.avatar_body(0.0);
                events.push(ClientEvent::ActionSent { action_id: id, tick, performed_at: performed });
                self.send_data(now, MsgKind::Avatar, body, out);
            }
        }

        // Avatar updates at the platform tick rate.
        let avatar_interval = SimDuration::from_secs_f64(1.0 / self.cfg.avatar_tick_hz);
        if now >= self.next_avatar {
            self.next_avatar = now + avatar_interval;
            let body = self.avatar_body(avatar_interval.as_secs_f64());
            self.send_data(now, MsgKind::Avatar, body, out);
        }

        // Voice frames (when unmuted).
        if !self.muted && self.cfg.voice_frame_hz > 0.0 && now >= self.next_voice {
            self.next_voice = now + SimDuration::from_secs_f64(1.0 / self.cfg.voice_frame_hz);
            let body = zero_payload(self.cfg.voice_frame_bytes);
            if let Some((tx, _)) = &mut self.rtp_voice {
                // Hubs: voice over RTP/UDP, avatar over HTTPS (§4.1).
                out.push((self.data_server, tx.media(&body)));
                if let Some(sr) = tx.on_tick(now) {
                    out.push((self.data_server, sr));
                }
            } else {
                self.send_data(now, MsgKind::Voice, body, out);
            }
        }

        // Status messages.
        if self.cfg.status_rate_hz > 0.0 && now >= self.next_status {
            self.next_status = now + SimDuration::from_secs_f64(1.0 / self.cfg.status_rate_hz);
            let body = zero_payload(self.cfg.status_bytes);
            self.send_data(now, MsgKind::Other, body, out);
        }

        // Telemetry (Worlds' server-kept uplink).
        if self.cfg.telemetry_rate_hz > 0.0 && now >= self.next_telemetry {
            self.next_telemetry =
                now + SimDuration::from_secs_f64(1.0 / self.cfg.telemetry_rate_hz);
            let body = zero_payload(self.cfg.telemetry_bytes);
            self.send_data(now, MsgKind::Other, body, out);
        }

        // Game updates.
        let game_body = self.game.as_mut().and_then(|g| g.on_tick(now));
        if let Some(body) = game_body {
            self.send_data(now, MsgKind::Game, Bytes::from(body), out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformId;
    use svr_avatar::codec::{encode_update, make_update};

    fn nodes() -> (NodeId, NodeId, NodeId) {
        let mut net = svr_netsim::Network::new(0);
        let a = net.add_node("u", svr_netsim::NodeKind::Headset);
        let b = net.add_node("data", svr_netsim::NodeKind::Server);
        let c = net.add_node("ctl", svr_netsim::NodeKind::Server);
        (a, b, c)
    }

    fn app(cfg: PlatformConfig) -> ClientApp {
        let (n, d, c) = nodes();
        ClientApp::new(1, cfg, n, d, c, 42, Vec3::ZERO, 0.0)
    }

    #[test]
    fn launch_opens_control_and_requests_init() {
        let mut a = app(PlatformConfig::vrchat());
        let out = a.launch(SimTime::ZERO);
        assert!(!out.is_empty(), "SYN leaves at launch");
        assert!(out.iter().all(|(dst, _)| *dst == a.control_server));
        assert_eq!(a.phase(), Phase::WelcomePage);
    }

    #[test]
    fn avatar_updates_tick_at_platform_rate() {
        let mut a = app(PlatformConfig::vrchat());
        a.launch(SimTime::ZERO);
        a.enter_event(SimTime::ZERO);
        // Keep walking so the delta encoder ships the full skeleton.
        a.motion.walk_to(Vec3::new(50.0, 0.0, 50.0));
        let mut avatar_packets = 0;
        for ms in (0..1000u64).step_by(2) {
            let (out, _) = a.on_tick(SimTime::from_millis(ms));
            avatar_packets += out
                .iter()
                .filter(|(dst, p)| *dst == a.data_server && p.payload_len() > 100)
                .count();
        }
        // VRChat: 14 Hz avatar updates (status msgs are smaller).
        assert!((13..=15).contains(&avatar_packets), "{avatar_packets} updates");
    }

    #[test]
    fn worlds_gates_udp_while_tcp_unacked() {
        let mut a = app(PlatformConfig::worlds());
        a.launch(SimTime::ZERO);
        a.enter_event(SimTime::ZERO);
        // The launch left TCP data in flight (SYN/TLS/init) that never
        // gets acked in this isolated test → every UDP send is gated.
        assert!(a.control.has_unacked_data() || {
            // Force a report to put data in flight.
            a.on_tick(SimTime::from_secs(6));
            a.control.has_unacked_data()
        });
        let mut udp_sent = 0;
        for ms in (0..500u64).step_by(2) {
            let (out, _) = a.on_tick(SimTime::from_millis(ms));
            udp_sent += out
                .iter()
                .filter(|(_, p)| p.header.proto == svr_netsim::Proto::Udp)
                .count();
        }
        assert_eq!(udp_sent, 0, "UDP blocked while TCP unacked (§8.1)");
        assert!(!a.gated.is_empty());
    }

    #[test]
    fn vrchat_does_not_gate_udp() {
        let mut a = app(PlatformConfig::vrchat());
        a.launch(SimTime::ZERO);
        a.enter_event(SimTime::ZERO);
        let mut udp_sent = 0;
        for ms in (0..500u64).step_by(2) {
            let (out, _) = a.on_tick(SimTime::from_millis(ms));
            udp_sent += out
                .iter()
                .filter(|(_, p)| p.header.proto == svr_netsim::Proto::Udp)
                .count();
        }
        assert!(udp_sent > 5, "non-Worlds platforms send UDP regardless of TCP");
    }

    #[test]
    fn gated_messages_flush_keeping_only_latest_avatar() {
        let mut a = app(PlatformConfig::worlds());
        a.launch(SimTime::ZERO);
        a.enter_event(SimTime::ZERO);
        for ms in (0..500u64).step_by(2) {
            a.on_tick(SimTime::from_millis(ms));
        }
        let gated_before = a.gated.len();
        assert!(gated_before > 10);
        let mut out = Vec::new();
        a.flush_gated(SimTime::from_secs(1), &mut out);
        // Telemetry all flushed; avatar collapsed to one.
        let avatars = out.iter().filter(|(_, p)| p.payload_len() > 500 && p.payload_len() < 700).count();
        assert!(avatars <= 2, "stale avatar updates dropped: {avatars}");
        assert!(a.gated.is_empty());
    }

    #[test]
    fn marked_action_sends_after_sender_processing() {
        let mut a = app(PlatformConfig::recroom());
        a.launch(SimTime::ZERO);
        a.enter_event(SimTime::ZERO);
        let t0 = SimTime::from_secs(1);
        let id = a.perform_action(t0);
        let mut sent_at = None;
        for ms in 1000..1300u64 {
            let (_, events) = a.on_tick(SimTime::from_millis(ms));
            for e in events {
                if let ClientEvent::ActionSent { action_id, performed_at, .. } = e {
                    assert_eq!(action_id, id);
                    assert_eq!(performed_at, t0);
                    sent_at = Some(SimTime::from_millis(ms));
                }
            }
        }
        let sent = sent_at.expect("action sent");
        let delay = sent.saturating_since(t0).as_millis_f64();
        // Rec Room sender processing ≈ 25.9 ms.
        assert!((10.0..60.0).contains(&delay), "sender delay {delay} ms");
    }

    #[test]
    fn peer_tracking_from_received_updates() {
        let cfg = PlatformConfig::vrchat();
        let mut a = app(cfg.clone());
        a.launch(SimTime::ZERO);
        a.enter_event(SimTime::ZERO);
        // Build a fake forwarded avatar update from peer 9 via the
        // server's UDP channel.
        let mut server_chan = UdpChannel::new(1, DATA_SERVER_PORT, a.data_port, SimTime::ZERO);
        let mut m = MotionState::new(9, Vec3::new(1.0, 0.0, 1.0), 0.0);
        let (pose, vel) = m.step(0.05, &cfg.embodiment);
        let body = encode_update(&make_update(9, 3, &cfg.embodiment, pose, vel));
        let mut pkt = server_chan.send(MsgKind::Avatar, SimTime::from_secs(1), &body).unwrap();
        pkt.src = a.data_server;
        pkt.dst = a.node;
        let (_, events) = a.on_packet(SimTime::from_secs(1), &pkt);
        assert!(events.contains(&ClientEvent::AvatarReceived { from: 9, tick: 3 }));
        assert_eq!(a.active_peers(SimTime::from_secs(1)), 1);
        assert_eq!(a.active_peers(SimTime::from_secs(10)), 0, "peers age out");
    }

    #[test]
    fn hubs_uses_stream_transport() {
        let mut a = app(PlatformConfig::hubs());
        a.launch(SimTime::ZERO);
        let out = a.enter_event(SimTime::ZERO);
        // The stream SYN goes to the data server over TCP.
        assert!(out
            .iter()
            .any(|(dst, p)| *dst == a.data_server && p.header.proto == svr_netsim::Proto::Tcp));
        assert!(matches!(a.data, DataChannel::Stream(_)));
    }

    #[test]
    fn worlds_udp_dies_after_30s_silence() {
        let mut a = app(PlatformConfig::worlds());
        a.launch(SimTime::ZERO);
        a.enter_event(SimTime::ZERO);
        let mut dead_event = false;
        for s in 0..40u64 {
            let (_, events) = a.on_tick(SimTime::from_secs(s));
            if events.contains(&ClientEvent::DataChannelDead) {
                dead_event = true;
                assert!(s >= 30, "died too early at {s}s");
            }
        }
        assert!(dead_event);
        assert!(a.is_frozen());
        // No recovery: still frozen later.
        a.on_tick(SimTime::from_secs(100));
        assert!(a.is_frozen());
    }

    /// The avatar body built anew: a fresh step, delta selection
    /// into new vectors, `make_update`, the encoded bytes copied out, then
    /// the envelope's zeros.
    fn reference_body(m: &mut MotionState, cfg: &PlatformConfig, tick: u32, dt: f64) -> Vec<u8> {
        let (pose, vel) = m.step(dt, &cfg.embodiment);
        let (mut joints, mut vels) = (Vec::new(), Vec::new());
        for (i, (j, jp)) in pose.joints.iter().enumerate() {
            let v = vel.get(i).copied().unwrap_or(Vec3::ZERO);
            if matches!(j, Joint::Root | Joint::Head) || v.length() > 0.3 {
                joints.push((*j, *jp));
                vels.push(v);
            }
        }
        let pose = Pose { joints, blendshapes: pose.blendshapes };
        let mut body = encode_update(&make_update(1, tick, &cfg.embodiment, pose, vels)).to_vec();
        body.resize(body.len() + cfg.avatar_envelope_bytes, 0);
        body
    }

    #[test]
    fn avatar_body_matches_a_fresh_encode_and_envelope() {
        for id in PlatformId::ALL {
            let cfg = PlatformConfig::of(id);
            let mut a = app(cfg.clone());
            // The app's own motion seed and spawn (see `app`).
            let mut m = MotionState::new(42 ^ 0xA5A5, Vec3::ZERO, 0.0);
            let mut sizes = Vec::new();
            for k in 0..150u32 {
                // Walk (whole skeleton moving), stand (root and head
                // only), then wander; every ninth body is a zero-dt
                // marked action.
                for m in [&mut a.motion, &mut m] {
                    match k {
                        0 => m.walk_to(Vec3::new(5.0, 0.0, 5.0)),
                        50 => m.stand(),
                        100 => m.wander(),
                        _ => {}
                    }
                }
                let dt = if k % 9 == 0 { 0.0 } else { 1.0 / cfg.avatar_tick_hz };
                let want = reference_body(&mut m, &cfg, k, dt);
                let got = a.avatar_body(dt);
                assert_eq!(got.as_slice(), want.as_slice(), "{id:?} tick {k}");
                sizes.push(got.len());
            }
            sizes.sort_unstable();
            sizes.dedup();
            assert!(sizes.len() >= 2, "{id:?}: delta selection never changed the joint set");
        }
    }

    #[test]
    #[should_panic(expected = "avatar_tick_hz must be finite and positive, got 0")]
    fn zero_avatar_rate_is_rejected() {
        let mut cfg = PlatformConfig::vrchat();
        cfg.avatar_tick_hz = 0.0;
        app(cfg);
    }

    #[test]
    #[should_panic(expected = "avatar_tick_hz must be finite and positive, got inf")]
    fn infinite_avatar_rate_is_rejected() {
        let mut cfg = PlatformConfig::worlds();
        cfg.avatar_tick_hz = f64::INFINITY;
        app(cfg);
    }

    #[test]
    #[should_panic(expected = "status_rate_hz must be finite and non-negative (0 disables it), got -1")]
    fn negative_status_rate_is_rejected() {
        let mut cfg = PlatformConfig::vrchat();
        cfg.status_rate_hz = -1.0;
        app(cfg);
    }

    #[test]
    #[should_panic(expected = "telemetry_rate_hz must be finite and non-negative (0 disables it), got NaN")]
    fn nan_telemetry_rate_is_rejected() {
        let mut cfg = PlatformConfig::worlds();
        cfg.telemetry_rate_hz = f64::NAN;
        app(cfg);
    }

    #[test]
    #[should_panic(expected = "voice_frame_hz must be finite and non-negative (0 disables it), got inf")]
    fn infinite_voice_rate_is_rejected() {
        let mut cfg = PlatformConfig::recroom();
        cfg.voice_frame_hz = f64::INFINITY;
        app(cfg);
    }

    #[test]
    fn platform_ids_consistent() {
        for id in PlatformId::ALL {
            let a = app(PlatformConfig::of(id));
            assert_eq!(a.cfg.id, id);
        }
    }
}
