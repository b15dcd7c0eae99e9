//! Platform data-channel servers and their forwarding policies.
//!
//! §6 identifies "the platform servers' direct forwarding of avatar data
//! ... without further processing" as the root cause of the scalability
//! issues, with AltspaceVR's viewport-adaptive variant as the only
//! optimisation found, and remote rendering (§6.3) as the proposed
//! architecture. [`DataServer`] implements all three policies over the
//! same registry, so the scalability experiments compare them on equal
//! footing.

use crate::config::{DataTransport, PlatformConfig};
use crate::stream::{StreamChannel, StreamEvent};
use svr_netsim::buf::Bytes;
use svr_netsim::packet::zero_payload;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use svr_avatar::motion::in_viewport;
use svr_avatar::skeleton::Vec3;
use svr_netsim::{Bitrate, NodeId, Packet, SimDuration, SimRng, SimTime};
use svr_transport::tcp::TcpConfig;
use svr_transport::udp::{MsgKind, UdpChannel};

/// The server's forwarding policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ForwardPolicy {
    /// Forward every avatar update to every other user (all platforms
    /// but AltspaceVR).
    Direct,
    /// Forward only updates from avatars inside the receiver's predicted
    /// viewport (AltspaceVR, ~150° wide, §6.1).
    ViewportAdaptive {
        /// Viewport width in degrees.
        width_deg: f32,
    },
    /// The §6.3 proposal: render server-side, stream encoded video to
    /// each user; downlink is independent of the user count.
    RemoteRender {
        /// Per-user video bitrate.
        bitrate: Bitrate,
        /// Encoded frame rate.
        frame_hz: f64,
    },
    /// §6.2's further optimisation (Donnybrook-style interest
    /// management): full update rate for the `focus` nearest avatars,
    /// a reduced rate for everyone else.
    InterestManagement {
        /// Avatars forwarded at full rate (the receiver's focus set).
        focus: usize,
        /// Update rate for out-of-focus avatars, Hz.
        background_hz: f64,
    },
}

/// Port the data server listens on.
pub const DATA_SERVER_PORT: u16 = 7_000;

/// Port the SFU listens on for RTP voice (stream-based platforms).
pub const VOICE_SERVER_PORT: u16 = 7_001;

/// The client-side RTP voice port for a user.
pub fn voice_port(user_id: u32) -> u16 {
    45_000 + user_id as u16
}

/// Prefix a stream message with its [`MsgKind::to_byte`] kind byte.
pub fn stream_frame(kind: MsgKind, body: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(1 + body.len());
    v.push(kind.to_byte());
    v.extend_from_slice(body);
    v
}

/// Split a stream message back into kind and body; the body shares the
/// message's storage.
pub fn parse_stream_frame(msg: &Bytes) -> Option<(MsgKind, Bytes)> {
    let &k = msg.first()?;
    Some((MsgKind::from_byte(k), msg.slice(1..)))
}

enum ServerChannel {
    Udp(UdpChannel),
    Stream(Box<StreamChannel>),
}

/// The cached focus-set boundary for one receiver: everything needed to
/// answer "is `sender` among my `focus` nearest?" in O(1) without
/// re-sorting the room.
///
/// Membership is decided on the lexicographic key `(distance, user id)`
/// — exactly the order the original stable distance sort produced, since
/// users iterate in ascending-id order out of the `BTreeMap` and a
/// stable sort keeps that order among equal distances.
#[derive(Debug, Clone, Copy)]
enum FocusBound {
    /// `focus == 0`: nobody is in focus.
    Empty,
    /// Fewer than `focus` other users: everybody is in focus.
    All,
    /// The `focus`-th smallest `(distance, id)` key; a sender is in
    /// focus iff its own key is ≤ this bound.
    Key(f32, u32),
}

#[derive(Debug, Clone, Copy)]
struct FocusCache {
    /// [`DataServer::pos_epoch`] the bound was computed at.
    epoch: u64,
    /// The `focus` parameter the bound was computed for.
    focus: usize,
    bound: FocusBound,
}

impl FocusCache {
    /// A cache that can never match a live epoch (epochs start at 1).
    const STALE: FocusCache = FocusCache { epoch: 0, focus: 0, bound: FocusBound::Empty };
}

struct UserEntry {
    node: NodeId,
    /// The client's data-channel source port (key of the address index).
    client_port: u16,
    chan: ServerChannel,
    position: Vec3,
    heading_deg: f32,
    next_status: SimTime,
    next_frame: SimTime,
    /// Last application data (keep-alives do not count).
    last_data: SimTime,
    /// Per-sender throttle clock for interest management:
    /// (sender, earliest next forward).
    background_next: Vec<(u32, SimTime)>,
    /// Cached k-NN boundary for this receiver's focus set.
    focus_cache: FocusCache,
}

/// The transferable state of a user crossing a shard boundary (portal
/// hop / world transfer): everything the destination [`DataServer`]
/// needs to continue the session without a fresh spawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UserProfile {
    /// The user's id.
    pub user_id: u32,
    /// Last known avatar root position.
    pub position: Vec3,
    /// Last known heading, degrees.
    pub heading_deg: f32,
}

/// Counters exposed to the experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Avatar/game messages forwarded to peers.
    pub forwards: u64,
    /// Forwards suppressed by the viewport policy.
    pub viewport_suppressed: u64,
    /// Messages consumed (status, telemetry, keep-alives).
    pub consumed: u64,
    /// Remote-render video frames emitted.
    pub video_frames: u64,
    /// Forwards throttled by interest management.
    pub interest_throttled: u64,
}

struct PendingForward {
    due: SimTime,
    seq: u64,
    dst_user: u32,
    kind: MsgKind,
    body: Bytes,
}

impl PartialEq for PendingForward {
    fn eq(&self, o: &Self) -> bool {
        (self.due, self.seq) == (o.due, o.seq)
    }
}
impl Eq for PendingForward {}
impl PartialOrd for PendingForward {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for PendingForward {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        (self.due, self.seq).cmp(&(o.due, o.seq))
    }
}

/// A platform data server.
pub struct DataServer {
    /// The network node the server occupies.
    pub node: NodeId,
    policy: ForwardPolicy,
    base_proc: SimDuration,
    queue_quad_ms: f64,
    server_status_rate_hz: f64,
    server_status_bytes: usize,
    transport: DataTransport,
    users: BTreeMap<u32, UserEntry>,
    /// `(source node, source port) → user`: O(1) packet-to-user lookup
    /// instead of a roster scan. Stream platforms get a second entry per
    /// user for the RTP voice port.
    addr_index: HashMap<(NodeId, u16), u32>,
    pending: BinaryHeap<Reverse<PendingForward>>,
    seq: u64,
    rng: SimRng,
    /// Bumped whenever any user's position changes or the roster
    /// changes; focus caches stamped with an older epoch are stale.
    pos_epoch: u64,
    /// Scratch for focus-bound selection, reused across messages.
    focus_scratch: Vec<(f32, u32)>,
    /// Scratch for the receiver list, reused across messages.
    recv_scratch: Vec<u32>,
    /// Counters.
    pub stats: ServerStats,
}

impl DataServer {
    /// Build the server for a platform.
    pub fn new(node: NodeId, cfg: &PlatformConfig, seed: u64) -> Self {
        DataServer {
            node,
            policy: cfg.forward_policy,
            base_proc: cfg.server_base_proc,
            queue_quad_ms: cfg.server_queue_quad_ms,
            server_status_rate_hz: cfg.server_status_rate_hz,
            server_status_bytes: cfg.server_status_bytes,
            transport: cfg.data_transport,
            users: BTreeMap::new(),
            addr_index: HashMap::new(),
            pending: BinaryHeap::new(),
            seq: 0,
            rng: SimRng::seed_from_u64(seed ^ 0x5345_5256),
            pos_epoch: 1,
            focus_scratch: Vec::new(),
            recv_scratch: Vec::new(),
            stats: ServerStats::default(),
        }
    }

    /// Register a user connecting over the platform's data transport.
    pub fn register(&mut self, user_id: u32, node: NodeId, client_port: u16, now: SimTime) {
        let chan = match self.transport {
            DataTransport::Udp => ServerChannel::Udp(UdpChannel::new(
                user_id as u16,
                DATA_SERVER_PORT,
                client_port,
                now,
            )),
            DataTransport::TlsStream => ServerChannel::Stream(Box::new(StreamChannel::listen(
                TcpConfig::default(),
                DATA_SERVER_PORT,
                client_port,
            ))),
        };
        // Re-registration replaces the old connection (and its index
        // entries) rather than leaking them.
        self.remove_user(user_id);
        self.addr_index.insert((node, client_port), user_id);
        if self.transport == DataTransport::TlsStream {
            self.addr_index.insert((node, voice_port(user_id)), user_id);
        }
        self.users.insert(
            user_id,
            UserEntry {
                node,
                client_port,
                chan,
                position: Vec3::ZERO,
                heading_deg: 0.0,
                next_status: now,
                next_frame: now,
                last_data: now,
                background_next: Vec::new(),
                focus_cache: FocusCache::STALE,
            },
        );
        self.pos_epoch += 1;
    }

    /// Drop a user from the roster and the address index; bumps the
    /// position epoch when the user existed.
    fn remove_user(&mut self, user_id: u32) -> Option<UserEntry> {
        let entry = self.users.remove(&user_id)?;
        self.addr_index.remove(&(entry.node, entry.client_port));
        if self.transport == DataTransport::TlsStream {
            self.addr_index.remove(&(entry.node, voice_port(user_id)));
        }
        self.pos_epoch += 1;
        Some(entry)
    }

    /// Remove a user (left the event).
    pub fn unregister(&mut self, user_id: u32) {
        self.remove_user(user_id);
    }

    /// Connected user count.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Iterate over connected user ids, in ascending order.
    pub fn user_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.users.keys().copied()
    }

    /// Whether `user_id` is currently connected.
    pub fn contains_user(&self, user_id: u32) -> bool {
        self.users.contains_key(&user_id)
    }

    /// The configured forwarding policy.
    pub fn policy(&self) -> ForwardPolicy {
        self.policy
    }

    /// Detach a user for a cross-shard hop: remove it from this server
    /// and hand back the state the destination shard needs to continue
    /// the session seamlessly. Returns `None` for unknown users.
    pub fn extract_user(&mut self, user_id: u32) -> Option<UserProfile> {
        let entry = self.remove_user(user_id)?;
        Some(UserProfile {
            user_id,
            position: entry.position,
            heading_deg: entry.heading_deg,
        })
    }

    /// Admit a hopped-in user: register it on this server's transport and
    /// restore the avatar state carried in its [`UserProfile`].
    pub fn admit_user(
        &mut self,
        profile: &UserProfile,
        node: NodeId,
        client_port: u16,
        now: SimTime,
    ) {
        self.register(profile.user_id, node, client_port, now);
        let entry = self.users.get_mut(&profile.user_id).expect("just registered");
        entry.position = profile.position;
        entry.heading_deg = profile.heading_deg;
    }

    /// The server's modelled processing latency at the current load:
    /// `base + quad×(N-2)² ms`, with multiplicative jitter.
    fn proc_delay(&mut self) -> SimDuration {
        let n = self.users.len() as f64;
        let queue_ms = self.queue_quad_ms * ((n - 2.0).max(0.0)).powi(2);
        let total_ms = self.base_proc.as_millis_f64() + queue_ms;
        let jittered = self.rng.gaussian_at_least(total_ms, total_ms * 0.12, 1.0);
        SimDuration::from_millis_f64(jittered)
    }

    fn schedule_forwards(&mut self, now: SimTime, from_user: u32, kind: MsgKind, body: &Bytes) {
        // Sender's position, for viewport checks.
        let sender_pos = match self.users.get(&from_user) {
            Some(u) => u.position,
            None => return,
        };
        let mut receivers = std::mem::take(&mut self.recv_scratch);
        receivers.clear();
        receivers.extend(self.users.keys().copied().filter(|u| *u != from_user));
        for dst in receivers.iter().copied() {
            if let ForwardPolicy::ViewportAdaptive { width_deg } = self.policy {
                let r = &self.users[&dst];
                if !in_viewport(r.position, r.heading_deg, width_deg, sender_pos) {
                    self.stats.viewport_suppressed += 1;
                    continue;
                }
            }
            if matches!(self.policy, ForwardPolicy::RemoteRender { .. }) {
                // Rendered server-side; no avatar data goes out.
                continue;
            }
            if let ForwardPolicy::InterestManagement { focus, background_hz } = self.policy {
                if kind == MsgKind::Avatar && !self.in_focus(dst, from_user, focus) {
                    let interval = SimDuration::from_secs_f64(1.0 / background_hz.max(0.01));
                    let entry = self.users.get_mut(&dst).expect("receiver exists");
                    let slot = entry
                        .background_next
                        .iter_mut()
                        .find(|(s, _)| *s == from_user);
                    let due = match slot {
                        Some((_, t)) => t,
                        None => {
                            entry.background_next.push((from_user, SimTime::ZERO));
                            &mut entry.background_next.last_mut().unwrap().1
                        }
                    };
                    if now < *due {
                        self.stats.interest_throttled += 1;
                        continue;
                    }
                    *due = now + interval;
                }
            }
            let due = now + self.proc_delay();
            let seq = self.seq;
            self.seq += 1;
            self.pending.push(Reverse(PendingForward { due, seq, dst_user: dst, kind, body: body.clone() }));
        }
        self.recv_scratch = receivers;
    }

    /// Whether `sender` is among `receiver`'s `focus` nearest avatars.
    ///
    /// Answered from the receiver's cached [`FocusBound`]; the k-NN
    /// boundary is recomputed (O(n) selection, no allocation) only when
    /// a position or the roster changed since it was stamped. Decisions
    /// are identical to the original full stable distance sort: both
    /// rank users by the lexicographic key `(distance, id)`, and
    /// `total_cmp` agrees with `partial_cmp` on the non-negative
    /// distances `sqrt` produces while also tolerating NaN positions
    /// (which sort last instead of panicking).
    fn in_focus(&mut self, receiver: u32, sender: u32, focus: usize) -> bool {
        let Some(r) = self.users.get(&receiver) else { return true };
        let r_pos = r.position;
        let cached = r.focus_cache;
        let bound = if cached.epoch == self.pos_epoch && cached.focus == focus {
            cached.bound
        } else {
            let bound = self.compute_focus_bound(receiver, r_pos, focus);
            let epoch = self.pos_epoch;
            if let Some(entry) = self.users.get_mut(&receiver) {
                entry.focus_cache = FocusCache { epoch, focus, bound };
            }
            bound
        };
        match bound {
            FocusBound::Empty => false,
            FocusBound::All => true,
            FocusBound::Key(bound_dist, bound_id) => {
                let Some(s) = self.users.get(&sender) else { return false };
                let d = s.position.distance(r_pos);
                match d.total_cmp(&bound_dist) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Equal => sender <= bound_id,
                    std::cmp::Ordering::Greater => false,
                }
            }
        }
    }

    /// Select the `focus`-th smallest `(distance, id)` key around
    /// `receiver` — the focus-set boundary — reusing the scratch vector.
    fn compute_focus_bound(&mut self, receiver: u32, r_pos: Vec3, focus: usize) -> FocusBound {
        if focus == 0 {
            return FocusBound::Empty;
        }
        let mut scratch = std::mem::take(&mut self.focus_scratch);
        scratch.clear();
        scratch.extend(
            self.users
                .iter()
                .filter(|(id, _)| **id != receiver)
                .map(|(id, u)| (u.position.distance(r_pos), *id)),
        );
        let bound = if scratch.len() <= focus {
            FocusBound::All
        } else {
            let (_, kth, _) = scratch
                .select_nth_unstable_by(focus - 1, |a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            FocusBound::Key(kth.0, kth.1)
        };
        self.focus_scratch = scratch;
        bound
    }

    fn handle_msg(&mut self, now: SimTime, from_user: u32, kind: MsgKind, body: Bytes) {
        if kind != MsgKind::KeepAlive {
            if let Some(u) = self.users.get_mut(&from_user) {
                u.last_data = now;
            }
        }
        match kind {
            MsgKind::Avatar => {
                // Track the sender's pose for viewport decisions.
                if let Ok(update) = svr_avatar::codec::decode_update(&body) {
                    let pos = update.pose.root_position();
                    let heading = update
                        .pose
                        .joint(svr_avatar::Joint::Root)
                        .or_else(|| update.pose.joint(svr_avatar::Joint::Head))
                        .map(|jp| {
                            2.0 * jp.rotation.y.atan2(jp.rotation.w).to_degrees()
                        })
                        .unwrap_or(0.0)
                        .rem_euclid(360.0);
                    if let Some(u) = self.users.get_mut(&from_user) {
                        // `!=` is false only for bit-equal non-NaN
                        // positions, so a NaN pose conservatively
                        // invalidates the focus caches too.
                        if u.position != pos {
                            self.pos_epoch += 1;
                        }
                        u.position = pos;
                        u.heading_deg = heading;
                    }
                }
                self.schedule_forwards(now, from_user, kind, &body);
            }
            MsgKind::Game | MsgKind::Voice => {
                self.schedule_forwards(now, from_user, kind, &body);
            }
            MsgKind::KeepAlive | MsgKind::Other => {
                self.stats.consumed += 1;
            }
        }
    }

    /// Process a packet delivered to the server node. Returns packets to
    /// transmit immediately (stream ACKs, handshakes).
    pub fn on_packet(&mut self, now: SimTime, pkt: &Packet) -> Vec<(NodeId, Packet)> {
        let mut out = Vec::new();
        // RTP voice for stream-based platforms: an SFU relay — forward the
        // frame verbatim to every other user's voice port (Table 2's
        // "central routing machine" for Hubs WebRTC).
        if self.transport == DataTransport::TlsStream
            && pkt.header.proto == svr_netsim::Proto::Udp
            && pkt.header.dst_port == VOICE_SERVER_PORT
        {
            let from = self
                .addr_index
                .get(&(pkt.src, pkt.header.src_port))
                .copied()
                .filter(|id| voice_port(*id) == pkt.header.src_port);
            if let Some(from_user) = from {
                if let Some(u) = self.users.get_mut(&from_user) {
                    u.last_data = now;
                }
                for (id, u) in &self.users {
                    if *id == from_user {
                        continue;
                    }
                    let mut fwd = pkt.clone();
                    fwd.header.src_port = VOICE_SERVER_PORT;
                    fwd.header.dst_port = voice_port(*id);
                    out.push((u.node, fwd));
                    self.stats.forwards += 1;
                }
            }
            return out;
        }
        // Find the owning user by source node + port: one index probe
        // instead of a roster scan (both transports connect from the
        // client's data port).
        let owner = self.addr_index.get(&(pkt.src, pkt.header.src_port)).copied();
        let Some(user_id) = owner.filter(|id| {
            self.users[id].client_port == pkt.header.src_port
        }) else {
            return out;
        };
        let node = self.users[&user_id].node;

        let mut msgs: Vec<(MsgKind, Bytes)> = Vec::new();
        match &mut self.users.get_mut(&user_id).unwrap().chan {
            ServerChannel::Udp(c) => {
                if let Some(m) = c.on_packet(now, pkt) {
                    msgs.push((m.kind, m.body));
                }
            }
            ServerChannel::Stream(s) => {
                let (pkts, events) = s.on_packet(now, pkt);
                for p in pkts {
                    out.push((node, p));
                }
                for ev in events {
                    if let StreamEvent::Message(m) = ev {
                        if let Some(msg) = parse_stream_frame(&m) {
                            msgs.push(msg);
                        }
                    }
                }
            }
        }
        for (kind, body) in msgs {
            self.handle_msg(now, user_id, kind, body);
        }
        out
    }

    fn send_to(
        entry: &mut UserEntry,
        now: SimTime,
        kind: MsgKind,
        body: &Bytes,
        out: &mut Vec<(NodeId, Packet)>,
    ) {
        match &mut entry.chan {
            ServerChannel::Udp(c) => {
                if let Some(p) = c.send(kind, now, body) {
                    out.push((entry.node, p));
                }
            }
            ServerChannel::Stream(s) => {
                for p in s.send(now, &stream_frame(kind, body)) {
                    out.push((entry.node, p));
                }
            }
        }
    }

    /// How long a client may stay silent (no application data) before the
    /// server drops it from the session (§8.1's server-side teardown).
    pub const CLIENT_TIMEOUT: SimDuration = SimDuration::from_secs(30);

    /// Drive timers: due forwards, housekeeping, remote-render frames,
    /// stream retransmissions. Call every few milliseconds.
    pub fn on_tick(&mut self, now: SimTime) -> Vec<(NodeId, Packet)> {
        let mut out = Vec::new();

        // Drop silent clients.
        let stale: Vec<u32> = self
            .users
            .iter()
            .filter(|(_, u)| now.saturating_since(u.last_data) > Self::CLIENT_TIMEOUT)
            .map(|(id, _)| *id)
            .collect();
        for id in stale {
            self.remove_user(id);
        }

        // Due forwards.
        while let Some(Reverse(head)) = self.pending.peek() {
            if head.due > now {
                break;
            }
            let Reverse(f) = self.pending.pop().unwrap();
            if let Some(entry) = self.users.get_mut(&f.dst_user) {
                Self::send_to(entry, now, f.kind, &f.body, &mut out);
                self.stats.forwards += 1;
            }
        }

        // Housekeeping + remote-render frames.
        let status_interval = if self.server_status_rate_hz > 0.0 {
            Some(SimDuration::from_secs_f64(1.0 / self.server_status_rate_hz))
        } else {
            None
        };
        // Every beacon and every frame shares one zero-filled body.
        let status_body = zero_payload(self.server_status_bytes);
        let render = match self.policy {
            ForwardPolicy::RemoteRender { bitrate, frame_hz } => {
                let frame_bytes = (bitrate.as_bps() as f64 / frame_hz / 8.0) as usize;
                Some((SimDuration::from_secs_f64(1.0 / frame_hz), zero_payload(frame_bytes)))
            }
            _ => None,
        };
        let mut video_frames = 0;
        for entry in self.users.values_mut() {
            if let Some(interval) = status_interval {
                if now >= entry.next_status {
                    entry.next_status = now + interval;
                    Self::send_to(entry, now, MsgKind::Other, &status_body, &mut out);
                }
            }
            if let Some((interval, frame)) = &render {
                if now >= entry.next_frame {
                    entry.next_frame = now + *interval;
                    Self::send_to(entry, now, MsgKind::Other, frame, &mut out);
                    video_frames += 1;
                }
            }
            // Stream maintenance (retransmits).
            if let ServerChannel::Stream(s) = &mut entry.chan {
                if s.next_timer().map(|t| t <= now).unwrap_or(false) {
                    let (pkts, _) = s.on_tick(now);
                    for p in pkts {
                        out.push((entry.node, p));
                    }
                }
            }
        }
        self.stats.video_frames += video_frames;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformConfig;
    use svr_avatar::codec::{encode_update, make_update};
    use svr_avatar::motion::MotionState;
    

    fn avatar_body(cfg: &PlatformConfig, seed: u64, pos: Vec3, heading: f32) -> Bytes {
        let mut m = MotionState::new(seed, pos, heading);
        let (pose, vel) = m.step(0.05, &cfg.embodiment);
        encode_update(&make_update(seed as u32, 0, &cfg.embodiment, pose, vel))
    }

    fn udp_avatar_packet(
        client: &mut UdpChannel,
        now: SimTime,
        body: &Bytes,
        src: NodeId,
        dst: NodeId,
    ) -> Packet {
        let mut p = client.send(MsgKind::Avatar, now, body).unwrap();
        p.src = src;
        p.dst = dst;
        p
    }

    fn node(i: u32) -> NodeId {
        // NodeId construction via a tiny helper network.
        let mut net = svr_netsim::Network::new(0);
        let mut last = None;
        for k in 0..=i {
            last = Some(net.add_node(format!("n{k}"), svr_netsim::NodeKind::Headset));
        }
        last.unwrap()
    }

    #[test]
    fn direct_policy_forwards_to_all_others() {
        let cfg = PlatformConfig::vrchat();
        let snode = node(9);
        let mut server = DataServer::new(snode, &cfg, 1);
        let mut clients: Vec<UdpChannel> = (0..3)
            .map(|i| {
                server.register(i, node(i), 40_000 + i as u16, SimTime::ZERO);
                UdpChannel::new(i as u16, 40_000 + i as u16, DATA_SERVER_PORT, SimTime::ZERO)
            })
            .collect();
        let body = avatar_body(&cfg, 0, Vec3::ZERO, 0.0);
        let pkt = udp_avatar_packet(&mut clients[0], SimTime::from_millis(10), &body, node(0), snode);
        server.on_packet(SimTime::from_millis(10), &pkt);
        // Forwards are delayed by server processing (~30 ms + queue);
        // only housekeeping status may go out immediately.
        let early = server.on_tick(SimTime::from_millis(11));
        assert!(early.iter().all(|(_, p)| p.payload_len() < 100), "no early forwards");
        let sent = server.on_tick(SimTime::from_millis(200));
        let forwards: Vec<_> = sent
            .iter()
            .filter(|(_, p)| p.payload_len() > 50) // avatar bodies, not status
            .collect();
        assert_eq!(forwards.len(), 2, "one forward per other user");
        assert_eq!(server.stats.forwards, 2);
    }

    #[test]
    fn forwards_and_frames_share_their_source_body() {
        let cfg = PlatformConfig::vrchat();
        let snode = node(9);
        let mut server = DataServer::new(snode, &cfg, 1);
        for i in 0..4 {
            server.register(i, node(i), 40_000 + i as u16, SimTime::ZERO);
        }
        let mut c0 = UdpChannel::new(0, 40_000, DATA_SERVER_PORT, SimTime::ZERO);
        let body = avatar_body(&cfg, 0, Vec3::ZERO, 0.0);
        let pkt = udp_avatar_packet(&mut c0, SimTime::from_millis(10), &body, node(0), snode);
        server.on_packet(SimTime::from_millis(10), &pkt);
        let sent = server.on_tick(SimTime::from_millis(500));
        let forwards: Vec<_> = sent.iter().filter(|(_, p)| p.body.len() == body.len()).collect();
        assert_eq!(forwards.len(), 3, "one forward per other user");
        for (_, p) in forwards {
            assert_eq!(p.body.as_ptr(), body.as_ptr(), "forward copied the upload's body");
        }

        let mut cfg = PlatformConfig::vrchat();
        cfg.forward_policy = ForwardPolicy::RemoteRender {
            bitrate: Bitrate::from_mbps(8),
            frame_hz: 60.0,
        };
        let mut server = DataServer::new(snode, &cfg, 2);
        server.register(0, node(0), 40_000, SimTime::ZERO);
        let sent = server.on_tick(SimTime::ZERO);
        let frame_bytes = 8_000_000 / 60 / 8;
        let frame = sent.iter().find(|(_, p)| p.body.len() == frame_bytes).expect("a frame");
        assert_eq!(frame.1.body.as_ptr(), zero_payload(frame_bytes).as_ptr(), "frame body copied");
    }

    #[test]
    fn server_processing_latency_matches_config() {
        let cfg = PlatformConfig::recroom();
        let snode = node(9);
        let mut server = DataServer::new(snode, &cfg, 2);
        server.register(0, node(0), 40_000, SimTime::ZERO);
        server.register(1, node(1), 40_001, SimTime::ZERO);
        let mut c0 = UdpChannel::new(0, 40_000, DATA_SERVER_PORT, SimTime::ZERO);
        let body = avatar_body(&cfg, 0, Vec3::ZERO, 0.0);
        let pkt = udp_avatar_packet(&mut c0, SimTime::ZERO, &body, node(0), snode);
        server.on_packet(SimTime::ZERO, &pkt);
        // No forward before ~base_proc; exactly one within 2× base.
        let base = cfg.server_base_proc.as_millis();
        let early = server.on_tick(SimTime::from_millis(base / 2));
        assert!(early.iter().all(|(_, p)| p.payload_len() < 100), "no early forwards");
        let sent = server.on_tick(SimTime::from_millis(base * 2));
        let forwards: Vec<_> = sent.iter().filter(|(_, p)| p.payload_len() > 100).collect();
        assert_eq!(forwards.len(), 1);
    }

    #[test]
    fn viewport_policy_suppresses_behind_receiver() {
        let cfg = PlatformConfig::altspace();
        let snode = node(9);
        let mut server = DataServer::new(snode, &cfg, 3);
        server.register(0, node(0), 40_000, SimTime::ZERO);
        server.register(1, node(1), 40_001, SimTime::ZERO);
        let mut c0 = UdpChannel::new(0, 40_000, DATA_SERVER_PORT, SimTime::ZERO);
        let mut c1 = UdpChannel::new(1, 40_001, DATA_SERVER_PORT, SimTime::ZERO);

        // User 1 stands at origin facing +Z (heading 0); user 0 is BEHIND
        // user 1 (at -Z).
        let b1 = avatar_body(&cfg, 1, Vec3::ZERO, 0.0);
        let p1 = udp_avatar_packet(&mut c1, SimTime::ZERO, &b1, node(1), snode);
        server.on_packet(SimTime::ZERO, &p1);
        server.on_tick(SimTime::from_secs(1)); // flush

        let before = server.stats.viewport_suppressed;
        let b0 = avatar_body(&cfg, 0, Vec3::new(0.0, 0.0, -5.0), 180.0);
        let p0 = udp_avatar_packet(&mut c0, SimTime::from_secs(1), &b0, node(0), snode);
        server.on_packet(SimTime::from_secs(1), &p0);
        server.on_tick(SimTime::from_secs(2));
        assert_eq!(server.stats.viewport_suppressed, before + 1, "0 is outside 1's viewport");

        // User 0 in FRONT of user 1: forwarded.
        let before_fwd = server.stats.forwards;
        let b0 = avatar_body(&cfg, 0, Vec3::new(0.0, 0.0, 5.0), 180.0);
        let p0 = udp_avatar_packet(&mut c0, SimTime::from_secs(2), &b0, node(0), snode);
        server.on_packet(SimTime::from_secs(2), &p0);
        server.on_tick(SimTime::from_secs(3));
        assert!(server.stats.forwards > before_fwd);
    }

    #[test]
    fn interest_policy_throttles_out_of_focus_senders() {
        let mut cfg = PlatformConfig::vrchat();
        cfg.forward_policy = ForwardPolicy::InterestManagement { focus: 1, background_hz: 1.0 };
        let snode = node(9);
        let mut server = DataServer::new(snode, &cfg, 7);
        // Three users a metre apart and one 30 m off: each receiver's
        // focus is its nearest neighbour, the other two senders are
        // background and get at most one forward per second.
        let xs = [0.0, 1.0, 2.0, 30.0];
        let n = xs.len() as u64;
        let mut clients: Vec<UdpChannel> = (0..n as u32)
            .map(|i| {
                server.register(i, node(i), 40_000 + i as u16, SimTime::ZERO);
                UdpChannel::new(i as u16, 40_000 + i as u16, DATA_SERVER_PORT, SimTime::ZERO)
            })
            .collect();
        let mut uploads = 0;
        for round in 0..5 {
            let now = SimTime::from_millis(100 * round);
            for (i, x) in xs.iter().enumerate() {
                let body = avatar_body(&cfg, i as u64, Vec3::new(*x, 0.0, 0.0), 0.0);
                let pkt = udp_avatar_packet(&mut clients[i], now, &body, node(i as u32), snode);
                server.on_packet(now, &pkt);
                uploads += 1;
            }
            server.on_tick(now);
        }
        server.on_tick(SimTime::from_secs(2)); // drain every scheduled forward
        let s = &server.stats;
        assert!(s.interest_throttled > 0, "no out-of-focus sender was throttled");
        // Every upload reaches each other user as a forward or a throttle.
        assert_eq!(s.forwards + s.interest_throttled, uploads * (n - 1));
    }

    #[test]
    fn remote_render_emits_constant_rate_video_instead_of_forwards() {
        let mut cfg = PlatformConfig::vrchat();
        cfg.forward_policy = ForwardPolicy::RemoteRender {
            bitrate: Bitrate::from_mbps(8),
            frame_hz: 60.0,
        };
        let snode = node(9);
        let mut server = DataServer::new(snode, &cfg, 4);
        for i in 0..5u32 {
            server.register(i, node(i), 40_000 + i as u16, SimTime::ZERO);
        }
        let mut c0 = UdpChannel::new(0, 40_000, DATA_SERVER_PORT, SimTime::ZERO);
        let body = avatar_body(&cfg, 0, Vec3::ZERO, 0.0);
        let pkt = udp_avatar_packet(&mut c0, SimTime::from_millis(5), &body, node(0), snode);
        server.on_packet(SimTime::from_millis(5), &pkt);
        // Drive one second of ticks.
        let mut video_bytes_per_user = std::collections::HashMap::new();
        for ms in 0..1000u64 {
            for (n, p) in server.on_tick(SimTime::from_millis(ms)) {
                *video_bytes_per_user.entry(n).or_insert(0u64) += p.payload_len() as u64;
            }
        }
        assert_eq!(server.stats.forwards, 0, "no avatar forwards");
        assert_eq!(video_bytes_per_user.len(), 5, "every user gets a stream");
        for (_, bytes) in video_bytes_per_user {
            let mbps = bytes as f64 * 8.0 / 1e6;
            assert!((mbps - 8.0).abs() < 1.0, "video ≈ 8 Mbps, got {mbps}");
        }
    }

    #[test]
    fn unknown_source_ignored() {
        let cfg = PlatformConfig::vrchat();
        let mut server = DataServer::new(node(9), &cfg, 5);
        server.register(0, node(0), 40_000, SimTime::ZERO);
        let mut foreign = UdpChannel::new(7, 41_000, DATA_SERVER_PORT, SimTime::ZERO);
        let body = avatar_body(&cfg, 7, Vec3::ZERO, 0.0);
        let pkt = udp_avatar_packet(&mut foreign, SimTime::ZERO, &body, node(5), node(9));
        assert!(server.on_packet(SimTime::ZERO, &pkt).is_empty());
        // Only housekeeping may appear; no forwards of the foreign data.
        let sent = server.on_tick(SimTime::from_secs(1));
        assert!(sent.iter().all(|(_, p)| p.payload_len() < 100));
        assert_eq!(server.stats.forwards, 0);
    }

    #[test]
    fn queue_latency_grows_quadratically_with_users() {
        let cfg = PlatformConfig::hubs();
        let mut s2 = DataServer::new(node(9), &cfg, 6);
        let mut s7 = DataServer::new(node(9), &cfg, 6);
        for i in 0..2 {
            s2.register(i, node(i), 40_000 + i as u16, SimTime::ZERO);
        }
        for i in 0..7 {
            s7.register(i, node(i), 40_000 + i as u16, SimTime::ZERO);
        }
        let d2: f64 = (0..200).map(|_| s2.proc_delay().as_millis_f64()).sum::<f64>() / 200.0;
        let d7: f64 = (0..200).map(|_| s7.proc_delay().as_millis_f64()).sum::<f64>() / 200.0;
        let expected_extra = cfg.server_queue_quad_ms * 25.0;
        assert!(
            ((d7 - d2) - expected_extra).abs() < expected_extra * 0.4,
            "Δ {} vs expected {expected_extra}",
            d7 - d2
        );
    }

    /// The pre-cache `in_focus`: full stable sort by distance, exactly
    /// as the original implementation (the reference the cache must
    /// reproduce decision-for-decision).
    fn brute_force_in_focus(server: &DataServer, receiver: u32, sender: u32, focus: usize) -> bool {
        let Some(r) = server.users.get(&receiver) else { return true };
        let mut dists: Vec<(u32, f32)> = server
            .users
            .iter()
            .filter(|(id, _)| **id != receiver)
            .map(|(id, u)| (*id, u.position.distance(r.position)))
            .collect();
        dists.sort_by(|a, b| a.1.total_cmp(&b.1));
        dists.iter().take(focus).any(|(id, _)| *id == sender)
    }

    /// Directly move a user (tests reach the private fields) and bump
    /// the epoch the way `handle_msg` would.
    fn place(server: &mut DataServer, id: u32, pos: Vec3) {
        let u = server.users.get_mut(&id).unwrap();
        if u.position != pos {
            server.pos_epoch += 1;
        }
        u.position = pos;
    }

    #[test]
    fn focus_cache_matches_brute_force_over_seeded_trace() {
        let mut cfg = PlatformConfig::vrchat();
        cfg.forward_policy = ForwardPolicy::InterestManagement { focus: 8, background_hz: 1.0 };
        let mut server = DataServer::new(node(0), &cfg, 11);
        let n: u32 = 200;
        for i in 0..n {
            server.register(i, node(0), 40_000 + i as u16, SimTime::ZERO);
        }
        let mut rng = svr_netsim::SimRng::seed_from_u64(0xF0C5);
        // Several epochs: move a random subset each round (including
        // coincident positions so distance ties exercise the id
        // tie-break), then compare every (receiver, sender) decision.
        for round in 0..6 {
            for i in 0..n {
                if round == 0 || rng.chance(0.3) {
                    // Snap to a coarse grid so exact distance ties occur.
                    let x = rng.range_u64(0, 8) as f32;
                    let z = rng.range_u64(0, 8) as f32;
                    place(&mut server, i, Vec3::new(x, 0.0, z));
                }
            }
            for focus in [0usize, 1, 8, 64, 199, 400] {
                for recv in (0..n).step_by(17) {
                    for sender in 0..n {
                        if sender == recv {
                            continue;
                        }
                        let expect = brute_force_in_focus(&server, recv, sender, focus);
                        let got = server.in_focus(recv, sender, focus);
                        assert_eq!(
                            got, expect,
                            "round {round} focus {focus} recv {recv} sender {sender}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn focus_cache_invalidates_on_roster_change() {
        let mut cfg = PlatformConfig::vrchat();
        cfg.forward_policy = ForwardPolicy::InterestManagement { focus: 1, background_hz: 1.0 };
        let mut server = DataServer::new(node(0), &cfg, 12);
        for i in 0..3u32 {
            server.register(i, node(0), 40_000 + i as u16, SimTime::ZERO);
        }
        place(&mut server, 0, Vec3::ZERO);
        place(&mut server, 1, Vec3::new(1.0, 0.0, 0.0));
        place(&mut server, 2, Vec3::new(5.0, 0.0, 0.0));
        // User 1 is 0's single focus neighbour; 2 is not.
        assert!(server.in_focus(0, 1, 1));
        assert!(!server.in_focus(0, 2, 1));
        // Drop user 1: user 2 becomes the nearest without any position
        // changing — the roster bump must invalidate the cached bound.
        server.unregister(1);
        assert!(server.in_focus(0, 2, 1));
        // A join reshuffles again.
        server.register(3, node(0), 40_003, SimTime::ZERO);
        place(&mut server, 3, Vec3::new(0.5, 0.0, 0.0));
        assert!(server.in_focus(0, 3, 1));
        assert!(!server.in_focus(0, 2, 1));
    }

    #[test]
    fn nan_position_does_not_panic_and_sorts_out_of_focus() {
        let mut cfg = PlatformConfig::vrchat();
        cfg.forward_policy = ForwardPolicy::InterestManagement { focus: 2, background_hz: 1.0 };
        let snode = node(9);
        let mut server = DataServer::new(snode, &cfg, 13);
        for i in 0..4u32 {
            server.register(i, node(i), 40_000 + i as u16, SimTime::ZERO);
        }
        place(&mut server, 0, Vec3::ZERO);
        place(&mut server, 1, Vec3::new(1.0, 0.0, 0.0));
        place(&mut server, 2, Vec3::new(2.0, 0.0, 0.0));
        place(&mut server, 3, Vec3::new(f32::NAN, 0.0, 0.0));
        // The original implementation panicked on `partial_cmp` here;
        // with `total_cmp` the NaN-positioned user ranks last.
        assert!(server.in_focus(0, 1, 2));
        assert!(server.in_focus(0, 2, 2));
        assert!(!server.in_focus(0, 3, 2));
        // A NaN receiver must not panic either (all distances NaN).
        for sender in [0u32, 1, 2] {
            let _ = server.in_focus(3, sender, 2);
        }
        // The full forwarding path still runs.
        let mut c1 = UdpChannel::new(1, 40_001, DATA_SERVER_PORT, SimTime::ZERO);
        let body = avatar_body(&cfg, 1, Vec3::new(1.0, 0.0, 0.0), 0.0);
        let pkt = udp_avatar_packet(&mut c1, SimTime::from_millis(5), &body, node(1), snode);
        server.on_packet(SimTime::from_millis(5), &pkt);
        server.on_tick(SimTime::from_secs(1));
    }

    #[test]
    fn addr_index_distinguishes_users_behind_one_node() {
        // Many users behind a single client node (the sharded-world
        // topology): only the source port tells them apart.
        let cfg = PlatformConfig::vrchat();
        let snode = node(9);
        let shared = node(3);
        let mut server = DataServer::new(snode, &cfg, 21);
        for i in 0..4u32 {
            server.register(i, shared, 40_000 + i as u16, SimTime::ZERO);
        }
        let mut c2 = UdpChannel::new(2, 40_002, DATA_SERVER_PORT, SimTime::ZERO);
        let body = avatar_body(&cfg, 2, Vec3::new(1.0, 0.0, 2.0), 0.0);
        let pkt = udp_avatar_packet(&mut c2, SimTime::from_millis(5), &body, shared, snode);
        server.on_packet(SimTime::from_millis(5), &pkt);
        server.on_tick(SimTime::from_secs(1));
        assert_eq!(server.stats.forwards, 3, "attributed to user 2, fanned to the other 3");
        // After unregistering, the same packet is ignored.
        server.unregister(2);
        let before = server.stats.forwards;
        let pkt = udp_avatar_packet(&mut c2, SimTime::from_secs(2), &body, shared, snode);
        server.on_packet(SimTime::from_secs(2), &pkt);
        server.on_tick(SimTime::from_secs(3));
        assert_eq!(server.stats.forwards, before, "stale index entry removed");
    }

    #[test]
    fn extract_then_admit_preserves_avatar_state() {
        let cfg = PlatformConfig::vrchat();
        let mut src = DataServer::new(node(8), &cfg, 22);
        let mut dst = DataServer::new(node(9), &cfg, 23);
        src.register(7, node(1), 40_007, SimTime::ZERO);
        place(&mut src, 7, Vec3::new(3.0, 0.0, -2.0));
        let profile = src.extract_user(7).expect("user present");
        assert_eq!(src.user_count(), 0);
        assert!(!src.contains_user(7));
        assert_eq!(profile.position, Vec3::new(3.0, 0.0, -2.0));
        dst.admit_user(&profile, node(2), 40_007, SimTime::from_secs(1));
        assert!(dst.contains_user(7));
        assert_eq!(dst.user_count(), 1);
        assert_eq!(dst.users[&7].position, Vec3::new(3.0, 0.0, -2.0));
        // Unknown users extract to None.
        assert!(src.extract_user(99).is_none());
    }

    #[test]
    fn stream_frame_roundtrip() {
        for kind in [MsgKind::Avatar, MsgKind::Game, MsgKind::Voice, MsgKind::KeepAlive] {
            let framed = Bytes::from(stream_frame(kind, b"body"));
            let (k, b) = parse_stream_frame(&framed).unwrap();
            assert_eq!(k, kind);
            assert_eq!(b, *b"body");
            assert_eq!(b.as_ptr(), framed[1..].as_ptr(), "body shares the frame");
        }
        assert!(parse_stream_frame(&Bytes::new()).is_none());
    }
}
