//! Session orchestration: the full testbed in one deterministic run.
//!
//! A [`SessionConfig`] describes an experiment the way §3/§6/§7/§8
//! describe theirs: which platform, how many users, when each joins,
//! scripted behaviours (turns, walks, games, marked actions), and any
//! netem impairments on U1's links. [`run_session`] builds the topology
//! (headsets behind tapped APs, a campus router, geo-placed control and
//! data servers), drives every component, and returns the raw material
//! the paper's analysis consumed: per-AP packet captures, per-device
//! OVR-style metric samples, end-to-end action latencies, and server
//! counters.

use crate::client_app::{ClientApp, ClientEvent};
use crate::config::PlatformConfig;
use crate::server::{DataServer, ServerStats};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use svr_avatar::skeleton::Vec3;
use svr_client::{Monitor, MonitorSummary, RenderLoad, RenderModel, ResourceModel};
use svr_geo::Site;
use svr_netsim::{
    CaptureRecord, LinkSpec, NetemSchedule, Network, NodeId, NodeKind, Proto, SimDuration, SimRng,
    SimTime,
};

/// Scripted user behaviours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Behavior {
    /// The user enters the social event.
    Join {
        /// User index.
        user: usize,
        /// When.
        at: SimTime,
    },
    /// Instant heading change (controller snap turn).
    Turn {
        /// User index.
        user: usize,
        /// When.
        at: SimTime,
        /// Degrees to rotate by.
        delta_deg: f32,
    },
    /// Face an absolute heading.
    SetHeading {
        /// User index.
        user: usize,
        /// When.
        at: SimTime,
        /// Heading in degrees.
        deg: f32,
    },
    /// Walk to a floor position.
    WalkTo {
        /// User index.
        user: usize,
        /// When.
        at: SimTime,
        /// Target x.
        x: f32,
        /// Target z.
        z: f32,
    },
    /// Wander the room continuously.
    Wander {
        /// User index.
        user: usize,
        /// When.
        at: SimTime,
    },
    /// Socialise: wander a small chat circle while facing the group
    /// (the paper's "walk around and chat with each other").
    Chat {
        /// User index.
        user: usize,
        /// When.
        at: SimTime,
    },
    /// Start the platform's game on every joined user.
    StartGame {
        /// When.
        at: SimTime,
    },
    /// Perform a marked action (the §7 finger-touch) on a user.
    Action {
        /// User index.
        user: usize,
        /// When.
        at: SimTime,
    },
    /// Unmute a user's microphone (experiments default to muted, §6.1).
    Unmute {
        /// User index.
        user: usize,
        /// When.
        at: SimTime,
    },
}

impl Behavior {
    /// When this behaviour fires.
    pub fn at(&self) -> SimTime {
        match self {
            Behavior::Join { at, .. }
            | Behavior::Turn { at, .. }
            | Behavior::SetHeading { at, .. }
            | Behavior::WalkTo { at, .. }
            | Behavior::Wander { at, .. }
            | Behavior::Chat { at, .. }
            | Behavior::StartGame { at }
            | Behavior::Action { at, .. }
            | Behavior::Unmute { at, .. } => *at,
        }
    }
}

/// One measured end-to-end action (§7's finger-touch).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActionLatency {
    /// Action id (unique per sender).
    pub action_id: u64,
    /// Sending user index.
    pub from: usize,
    /// Receiving user index.
    pub to: usize,
    /// When the sender performed the action.
    pub performed_at: SimTime,
    /// When the update left the sender's device.
    pub sent_at: SimTime,
    /// When the update was delivered to the receiver's device.
    pub arrived_at: SimTime,
    /// When the receiver's display reflected it.
    pub displayed_at: SimTime,
}

impl ActionLatency {
    /// The end-to-end latency.
    pub fn e2e(&self) -> SimDuration {
        self.displayed_at.saturating_since(self.performed_at)
    }

    /// Sender-side processing latency.
    pub fn sender(&self) -> SimDuration {
        self.sent_at.saturating_since(self.performed_at)
    }

    /// Receiver-side processing latency.
    pub fn receiver(&self) -> SimDuration {
        self.displayed_at.saturating_since(self.arrived_at)
    }

    /// Network transit plus server processing (the breakdown splits this
    /// further using the known path RTTs, as the paper did from traces).
    pub fn transit(&self) -> SimDuration {
        self.arrived_at.saturating_since(self.sent_at)
    }
}

/// The experiment description.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Platform under test.
    pub platform: PlatformConfig,
    /// Number of users.
    pub n_users: usize,
    /// Run length.
    pub duration: SimDuration,
    /// Random seed (a "trial" in paper terms: ≥20 seeds per experiment).
    pub seed: u64,
    /// Vantage point of the testbed.
    pub vantage: Site,
    /// Scripted behaviours.
    pub behaviors: Vec<Behavior>,
    /// Netem on user-0's uplink (headset→AP), all traffic.
    pub netem_uplink: Option<NetemSchedule>,
    /// Netem on user-0's downlink (AP→headset), all traffic.
    pub netem_downlink: Option<NetemSchedule>,
    /// Netem on user-0's uplink, TCP only (§8.1 Fig. 13 bottom).
    pub netem_tcp_uplink: Option<NetemSchedule>,
    /// Capture packets at every AP (default: first two users only).
    pub capture_all: bool,
    /// Driver step; must be positive.
    pub dt: SimDuration,
    /// Reference mode: tick every client every step instead of using the
    /// earliest-deadline queue. Produces identical results; kept as the
    /// oracle the equivalence test compares against.
    pub poll_all_clients: bool,
}

impl SessionConfig {
    /// A basic scenario: `n` users, all joining at `t=5s`, wandering and
    /// "chatting" (muted, like the paper's experiments) for `duration`.
    pub fn walk_and_chat(
        platform: PlatformConfig,
        n_users: usize,
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        let mut behaviors = Vec::new();
        for u in 0..n_users {
            behaviors.push(Behavior::Join { user: u, at: SimTime::from_secs(5) });
            behaviors.push(Behavior::Chat { user: u, at: SimTime::from_secs(6) });
        }
        SessionConfig {
            platform,
            n_users,
            duration,
            seed,
            vantage: Site::FairfaxVa,
            behaviors,
            netem_uplink: None,
            netem_downlink: None,
            netem_tcp_uplink: None,
            capture_all: false,
            dt: SimDuration::from_millis(2),
            poll_all_clients: false,
        }
    }
}

/// Per-user results.
#[derive(Debug)]
pub struct UserMetrics {
    /// Packets captured at this user's AP (empty unless tapped).
    pub ap_records: Vec<CaptureRecord>,
    /// OVR-style metric samples (1 Hz).
    pub samples: Vec<svr_client::MetricSample>,
    /// When the data channel died, if it did (§8.1's frozen screen).
    pub frozen_at: Option<SimTime>,
    /// This user's headset node.
    pub node: NodeId,
    /// This user's AP node.
    pub ap: NodeId,
    /// Data-channel client port (for flow classification).
    pub data_port: u16,
    /// Control-channel client port.
    pub control_port: u16,
    /// Avatar updates received.
    pub avatar_updates_received: u64,
    /// Video bytes received (remote-render ablation).
    pub video_bytes: u64,
    /// When this user joined the event (if they did).
    pub joined_at: Option<SimTime>,
    /// Seconds during which a running game's countdown board was stale
    /// (no clock sync within the staleness window, §8.1).
    pub countdown_stale_seconds: u64,
    /// 95th-percentile dead-reckoning pop, metres (§8.2 perceptibility).
    pub prediction_p95_m: f32,
}

impl UserMetrics {
    /// Summarise this user's monitor samples over `[from, to)`.
    pub fn summarize_between(&self, from: SimTime, to: SimTime) -> MonitorSummary {
        svr_client::monitor::summarize_between(&self.samples, from, to)
    }
}

/// Everything a run produced.
#[derive(Debug)]
pub struct SessionResult {
    /// Per-user metrics & captures.
    pub users: Vec<UserMetrics>,
    /// Measured end-to-end actions.
    pub actions: Vec<ActionLatency>,
    /// Data-server counters.
    pub server_stats: ServerStats,
    /// Data-server node (for flow classification).
    pub data_server_node: NodeId,
    /// Control-server node.
    pub control_server_node: NodeId,
    /// Run duration.
    pub duration: SimDuration,
}

/// Run one experiment session.
pub fn run_session(cfg: &SessionConfig) -> SessionResult {
    Session::build(cfg).run()
}

struct UserRuntime {
    app: ClientApp,
    monitor: Monitor,
    node: NodeId,
    ap: NodeId,
    control_server: svr_transport::HttpServer,
    frozen_at: Option<SimTime>,
    joined_at: Option<SimTime>,
    avatar_updates_received: u64,
    countdown_stale_seconds: u64,
    /// Rolling byte counter of data-channel downlink (current second).
    downlink_bytes_this_second: u64,
    downlink_mbps: f64,
    /// Avatar updates received this second (for reconciliation estimate).
    updates_this_second: u64,
}

struct PendingMarker {
    action_id: u64,
    from: usize,
    tick: u32,
    performed_at: SimTime,
    sent_at: SimTime,
}

struct Session {
    net: Network,
    users: Vec<UserRuntime>,
    server: DataServer,
    data_server_node: NodeId,
    control_server_node: NodeId,
    behaviors: Vec<Behavior>,
    next_behavior: usize,
    markers: Vec<PendingMarker>,
    actions: Vec<ActionLatency>,
    duration: SimDuration,
    dt: SimDuration,
    rng: SimRng,
    platform: PlatformConfig,
    next_sample: SimTime,
    poll_all_clients: bool,
    /// Earliest-deadline queue over per-user timers: idle clients are
    /// skipped instead of ticked every step. `user_due` holds the
    /// currently-armed deadline (`SimTime::MAX` for none), and a live
    /// heap entry holds each finite one; heap entries that disagree with
    /// it are stale and ignored (lazy invalidation).
    timer_heap: BinaryHeap<Reverse<(SimTime, usize)>>,
    user_due: Vec<SimTime>,
    due_scratch: Vec<usize>,
}

impl Session {
    fn build(cfg: &SessionConfig) -> Session {
        assert!(cfg.n_users >= 1, "need at least one user");
        assert!(cfg.dt > SimDuration::ZERO, "SessionConfig::dt must be positive, got {}", cfg.dt);
        let mut net = Network::new(cfg.seed);
        let router = net.add_node("campus-router", NodeKind::Router);

        // Servers, placed so the AP↔server RTT matches the geo model.
        let data_rtt = cfg.platform.data_pool.rtt_from(cfg.vantage);
        let ctl_rtt = cfg.platform.control_pool.rtt_from(cfg.vantage);
        let data_server_node = net.add_node("data-server", NodeKind::Server);
        let control_server_node = net.add_node("control-server", NodeKind::Server);
        let backbone = |rtt: SimDuration| {
            let one_way_us = (rtt / 2).as_micros().saturating_sub(350).max(50);
            LinkSpec::backbone(SimDuration::from_micros(one_way_us))
        };
        net.add_duplex_link(router, data_server_node, backbone(data_rtt), backbone(data_rtt));
        net.add_duplex_link(router, control_server_node, backbone(ctl_rtt), backbone(ctl_rtt));

        let server = DataServer::new(data_server_node, &cfg.platform, cfg.seed);

        let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0x005E_5510);
        let mut users = Vec::with_capacity(cfg.n_users);
        for u in 0..cfg.n_users {
            let headset = net.add_node(format!("U{}", u + 1), NodeKind::Headset);
            let ap = net.add_node(format!("AP{}", u + 1), NodeKind::AccessPoint);
            net.add_duplex_link(headset, ap, LinkSpec::wifi(), LinkSpec::wifi());
            net.add_duplex_link(ap, router, LinkSpec::campus(), LinkSpec::campus());
            if cfg.capture_all || u < 2 {
                net.add_tap(ap);
            }
            // Netem on user 0's wifi hop.
            if u == 0 {
                if let Some(sched) = &cfg.netem_uplink {
                    let l = net.link_between(headset, ap).unwrap();
                    net.link_mut(l).set_netem(sched.clone());
                }
                if let Some(sched) = &cfg.netem_tcp_uplink {
                    let l = net.link_between(headset, ap).unwrap();
                    net.link_mut(l).set_netem_filtered(sched.clone(), Proto::Tcp);
                }
                if let Some(sched) = &cfg.netem_downlink {
                    // Shape upstream of the AP so the AP capture (like
                    // Wireshark behind tc on the testbed AP) sees the
                    // post-shaping traffic the headset actually receives.
                    let l = net.link_between(router, ap).unwrap();
                    net.link_mut(l).set_netem(sched.clone());
                }
            }

            // Spawn in a rough circle so everyone is mutually visible by
            // default (the §6.1 center-of-the-room setup).
            let angle = u as f32 / cfg.n_users.max(1) as f32 * std::f32::consts::TAU;
            let spawn = Vec3::new(angle.cos() * 2.0, 0.0, angle.sin() * 2.0);
            // Face the room center.
            let heading = (-spawn.x).atan2(-spawn.z).to_degrees();

            let app = ClientApp::new(
                u as u32,
                cfg.platform.clone(),
                headset,
                data_server_node,
                control_server_node,
                cfg.seed ^ ((u as u64) << 32),
                spawn,
                heading,
            );

            // Control server endpoint for this client.
            let init_bytes = cfg.platform.init_download_bytes as usize;
            let report_down = cfg.platform.report_down_bytes;
            let mut resp_rng = rng.fork(u as u64 + 1);
            let responder: svr_transport::http::Responder =
                Box::new(move |path: &str, _len: usize| match path {
                    "/init" | "/world" => (200, init_bytes),
                    "/report" | "/sync" => (200, report_down),
                    _ => (200, resp_rng.range_u64(15_000, 120_000) as usize),
                });
            let control_server = svr_transport::HttpServer::listen(
                svr_transport::tcp::TcpConfig::default(),
                443,
                50_000 + u as u16,
                responder,
            );

            let monitor = Monitor::new(RenderModel::new(
                ResourceModel::new(cfg.platform.perf, cfg.platform.device().compute_scale),
                cfg.platform.device(),
            ));

            users.push(UserRuntime {
                app,
                monitor,
                node: headset,
                ap,
                control_server,
                frozen_at: None,
                joined_at: None,
                avatar_updates_received: 0,
                countdown_stale_seconds: 0,
                downlink_bytes_this_second: 0,
                downlink_mbps: 0.0,
                updates_this_second: 0,
            });
        }

        let mut behaviors = cfg.behaviors.clone();
        behaviors.sort_by_key(|b| b.at());

        let n = users.len();
        Session {
            net,
            users,
            server,
            data_server_node,
            control_server_node,
            behaviors,
            next_behavior: 0,
            markers: Vec::new(),
            actions: Vec::new(),
            duration: cfg.duration,
            dt: cfg.dt,
            rng,
            platform: cfg.platform.clone(),
            next_sample: SimTime::from_secs(1),
            poll_all_clients: cfg.poll_all_clients,
            timer_heap: BinaryHeap::with_capacity(n),
            user_due: vec![SimTime::MAX; n],
            due_scratch: Vec::with_capacity(n),
        }
    }

    /// (Re)arm user `idx`'s deadline from its component timers, no
    /// earlier than `floor`. Reference-mode sessions skip the bookkeeping
    /// entirely.
    fn arm(&mut self, idx: usize, now: SimTime, floor: SimTime) {
        if self.poll_all_clients {
            return;
        }
        let u = &self.users[idx];
        let app = u.app.next_timer(now);
        let ctl = u.control_server.next_timer();
        let due = match (app, ctl) {
            (Some(a), Some(b)) => a.min(b),
            (Some(a), None) => a,
            (None, Some(b)) => b,
            // Nothing armed: never wake spontaneously (packets re-arm).
            (None, None) => SimTime::MAX,
        }
        .max(floor);
        // An unchanged deadline already has its live entry.
        if due == self.user_due[idx] {
            return;
        }
        self.user_due[idx] = due;
        if due < SimTime::MAX {
            self.timer_heap.push(Reverse((due, idx)));
        }
    }

    fn joined_count(&self) -> usize {
        self.users.iter().filter(|u| u.joined_at.is_some()).count()
    }

    fn receiver_proc(&mut self, n_joined: usize) -> SimDuration {
        let mean = self.platform.receiver_proc_ms
            + self.platform.receiver_per_user_ms * (n_joined.saturating_sub(2)) as f64;
        SimDuration::from_millis_f64(self.rng.gaussian_at_least(mean, mean * 0.12, 2.0))
    }

    fn apply_behaviors(&mut self, now: SimTime) {
        while self.next_behavior < self.behaviors.len()
            && self.behaviors[self.next_behavior].at() <= now
        {
            let b = self.behaviors[self.next_behavior];
            self.next_behavior += 1;
            // A behaviour can arm new client timers (join, game start,
            // unmute, actions): re-arm the touched users afterwards.
            let touched: Option<usize> = match b {
                Behavior::StartGame { .. } => None, // touches everyone
                Behavior::Join { user, .. }
                | Behavior::Turn { user, .. }
                | Behavior::SetHeading { user, .. }
                | Behavior::WalkTo { user, .. }
                | Behavior::Wander { user, .. }
                | Behavior::Chat { user, .. }
                | Behavior::Action { user, .. }
                | Behavior::Unmute { user, .. } => Some(user),
            };
            match b {
                Behavior::Join { user, .. } => {
                    let joined = {
                        let u = &mut self.users[user];
                        if u.joined_at.is_some() {
                            continue;
                        }
                        u.joined_at = Some(now);
                        let out = u.app.enter_event(now);
                        let node = u.node;
                        (out, node)
                    };
                    let (out, node) = joined;
                    self.server.register(user as u32, node, 40_000 + user as u16, now);
                    for (dst, p) in out {
                        self.net.send(node, dst, p);
                    }
                }
                Behavior::Turn { user, delta_deg, .. } => {
                    self.users[user].app.motion.turn(delta_deg);
                }
                Behavior::SetHeading { user, deg, .. } => {
                    self.users[user].app.motion.set_heading(deg);
                }
                Behavior::WalkTo { user, x, z, .. } => {
                    self.users[user].app.motion.walk_to(Vec3::new(x, 0.0, z));
                }
                Behavior::Wander { user, .. } => {
                    self.users[user].app.motion.wander();
                }
                Behavior::Chat { user, .. } => {
                    let m = &mut self.users[user].app.motion;
                    m.set_bounds(2.5);
                    m.face_toward(Some(svr_avatar::Vec3::ZERO));
                    m.wander();
                }
                Behavior::StartGame { .. } => {
                    for u in &mut self.users {
                        if u.joined_at.is_some() {
                            u.app.start_game(now);
                        }
                    }
                }
                Behavior::Action { user, .. } => {
                    self.users[user].app.perform_action(now);
                }
                Behavior::Unmute { user, .. } => {
                    self.users[user].app.muted = false;
                }
            }
            match touched {
                Some(user) => self.arm(user, now, now),
                None => {
                    for idx in 0..self.users.len() {
                        self.arm(idx, now, now);
                    }
                }
            }
        }
    }

    fn handle_client_events(&mut self, user: usize, now: SimTime, events: Vec<ClientEvent>) {
        for ev in events {
            match ev {
                ClientEvent::ActionSent { action_id, tick, performed_at } => {
                    self.markers.push(PendingMarker {
                        action_id,
                        from: user,
                        tick,
                        performed_at,
                        sent_at: now,
                    });
                }
                ClientEvent::AvatarReceived { from, tick } => {
                    self.users[user].avatar_updates_received += 1;
                    self.users[user].updates_this_second += 1;
                    // Marked action arriving?
                    let n_joined = self.joined_count();
                    if let Some(pos) = self
                        .markers
                        .iter()
                        .position(|m| m.from as u32 == from && m.tick == tick)
                    {
                        let m = &self.markers[pos];
                        let (action_id, from_u, performed_at, sent_at) =
                            (m.action_id, m.from, m.performed_at, m.sent_at);
                        let proc = self.receiver_proc(n_joined);
                        self.actions.push(ActionLatency {
                            action_id,
                            from: from_u,
                            to: user,
                            performed_at,
                            sent_at,
                            arrived_at: now,
                            displayed_at: now + proc,
                        });
                        // Keep the marker: other receivers may still get it.
                    }
                }
                ClientEvent::DataChannelDead => {
                    if self.users[user].frozen_at.is_none() {
                        self.users[user].frozen_at = Some(now);
                    }
                }
                ClientEvent::WelcomeReached => {}
            }
        }
    }

    fn dispatch_delivery(&mut self, now: SimTime, delivery: svr_netsim::Delivery) {
        let dst = delivery.dst;
        let pkt = delivery.packet;
        if dst == self.data_server_node {
            for (node, p) in self.server.on_packet(now, &pkt) {
                self.net.send(self.data_server_node, node, p);
            }
            return;
        }
        if dst == self.control_server_node {
            // Find the owning per-user control endpoint by client port.
            let port = pkt.header.src_port;
            if let Some(idx) = self
                .users
                .iter()
                .position(|u| u.node == pkt.src && 50_000 + (u.app.user_id as u16) == port)
            {
                let node = self.users[idx].node;
                let out = self.users[idx].control_server.on_packet(now, &pkt);
                for p in out {
                    self.net.send(self.control_server_node, node, p);
                }
                self.arm(idx, now, now);
            }
            return;
        }
        // A client node.
        if let Some(idx) = self.users.iter().position(|u| u.node == dst) {
            // Track data-channel downlink bytes for the decode-load model.
            if pkt.src == self.data_server_node {
                self.users[idx].downlink_bytes_this_second += pkt.wire_size().as_bytes();
            }
            let (out, events) = self.users[idx].app.on_packet(now, &pkt);
            let node = self.users[idx].node;
            for (d, p) in out {
                self.net.send(node, d, p);
            }
            self.handle_client_events(idx, now, events);
            self.arm(idx, now, now);
        }
    }

    fn reconciliation_estimate(&self, user: usize, now: SimTime) -> f64 {
        // Fraction of expected peer updates that failed to arrive in the
        // last second — the §8.1 "process missing critical information"
        // load.
        let u = &self.users[user];
        if u.joined_at.is_none() {
            return 0.0;
        }
        let peers = u.app.active_peers(now).max(
            self.joined_count().saturating_sub(1).min(1), // at least 1 peer once others joined
        );
        if peers == 0 || self.joined_count() < 2 {
            return 0.0;
        }
        let expected = self.platform.avatar_tick_hz * peers as f64;
        if expected <= 0.0 {
            return 0.0;
        }
        (1.0 - u.updates_this_second as f64 / expected).clamp(0.0, 1.0)
    }

    fn sample_monitors(&mut self, now: SimTime) {
        for idx in 0..self.users.len() {
            let recon = self.reconciliation_estimate(idx, now);
            let u = &mut self.users[idx];
            // Downlink rate over the past second.
            u.downlink_mbps = u.downlink_bytes_this_second as f64 * 8.0 / 1e6;
            u.downlink_bytes_this_second = 0;
            u.updates_this_second = 0;
            let load = RenderLoad {
                visible_avatars: u.app.active_peers(now) as f64,
                downlink_mbps: u.downlink_mbps,
                game_active: u.app.game.is_some(),
                // Reconciliation work is game-state resync: only games
                // chase missing critical state (§8.1).
                reconciliation: if u.app.game.is_some() { recon } else { 0.0 },
            };
            u.monitor.sample(now, load, 1.0);
            if let Some(g) = &u.app.game {
                if g.countdown_stale(now) && g.last_sync.is_some() {
                    u.countdown_stale_seconds += 1;
                }
            }
        }
    }

    fn run(mut self) -> SessionResult {
        // Launch every app at t=0, then arm its first deadline.
        for idx in 0..self.users.len() {
            let now = SimTime::ZERO;
            let out = self.users[idx].app.launch(now);
            let node = self.users[idx].node;
            for (d, p) in out {
                self.net.send(node, d, p);
            }
            self.arm(idx, now, now);
        }

        let mut t = SimTime::ZERO;
        let end = SimTime::ZERO + self.duration;
        while t < end {
            t = (t + self.dt).min(end);
            self.apply_behaviors(t);

            // Network deliveries up to t.
            let deliveries = self.net.poll_all(t);
            for d in deliveries {
                self.dispatch_delivery(t, d);
            }

            // Component timers: only users whose earliest deadline has
            // arrived are ticked (every user, in reference mode). Ties
            // and early deadlines collapse onto this step's grid point,
            // in user order — exactly the schedule full polling runs.
            let mut due_users = std::mem::take(&mut self.due_scratch);
            due_users.clear();
            if self.poll_all_clients {
                due_users.extend(0..self.users.len());
            } else {
                while let Some(&Reverse((due, idx))) = self.timer_heap.peek() {
                    if due > t {
                        break;
                    }
                    self.timer_heap.pop();
                    if self.user_due[idx] == due {
                        due_users.push(idx);
                    } // else: stale entry, superseded by a re-arm
                }
                due_users.sort_unstable();
                due_users.dedup();
            }
            for &idx in &due_users {
                let (out, events) = self.users[idx].app.on_tick(t);
                let node = self.users[idx].node;
                for (d, p) in out {
                    self.net.send(node, d, p);
                }
                self.handle_client_events(idx, t, events);
                // Control server timers (TCP retransmits on big downloads).
                let pkts = self.users[idx].control_server.on_tick(t);
                let node = self.users[idx].node;
                for p in pkts {
                    self.net.send(self.control_server_node, node, p);
                }
                // Past this step: the next wake is at least one step out.
                self.arm(idx, t, t + self.dt);
            }
            self.due_scratch = due_users;
            for (node, p) in self.server.on_tick(t) {
                self.net.send(self.data_server_node, node, p);
            }

            // 1 Hz monitor sampling.
            if t >= self.next_sample {
                self.sample_monitors(t);
                self.next_sample += SimDuration::from_secs(1);
            }
        }

        let users = self
            .users
            .into_iter()
            .enumerate()
            .map(|(i, u)| UserMetrics {
                ap_records: self.net.take_tap_records(u.ap),
                samples: u.monitor.samples().to_vec(),
                frozen_at: u.frozen_at,
                node: u.node,
                ap: u.ap,
                data_port: 40_000 + i as u16,
                control_port: 50_000 + i as u16,
                avatar_updates_received: u.avatar_updates_received,
                video_bytes: u.app.video_bytes,
                joined_at: u.joined_at,
                countdown_stale_seconds: u.countdown_stale_seconds,
                prediction_p95_m: u.app.prediction_p95_m(),
            })
            .collect();

        SessionResult {
            users,
            actions: self.actions,
            server_stats: self.server.stats,
            data_server_node: self.data_server_node,
            control_server_node: self.control_server_node,
            duration: self.duration,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{PlatformConfig, PlatformId};
    use svr_netsim::capture::{by_server, Direction};

    fn short_session(platform: PlatformConfig, n: usize, secs: u64, seed: u64) -> SessionResult {
        let cfg = SessionConfig::walk_and_chat(
            platform,
            n,
            SimDuration::from_secs(secs),
            seed,
        );
        run_session(&cfg)
    }

    #[test]
    fn two_user_session_produces_data_traffic() {
        let r = short_session(PlatformConfig::vrchat(), 2, 30, 1);
        assert_eq!(r.users.len(), 2);
        // Both users received the other's avatar updates.
        for u in &r.users {
            assert!(
                u.avatar_updates_received > 100,
                "received {}",
                u.avatar_updates_received
            );
        }
        assert!(r.server_stats.forwards > 200);
        // The AP capture saw both directions of data traffic.
        let recs = &r.users[0].ap_records;
        let data = by_server(recs, r.data_server_node);
        assert!(!data.is_empty());
        assert!(data.iter().any(|x| x.direction == Direction::Uplink));
        assert!(data.iter().any(|x| x.direction == Direction::Downlink));
    }

    #[test]
    fn vrchat_two_user_throughput_matches_table3_shape() {
        let r = short_session(PlatformConfig::vrchat(), 2, 40, 2);
        let recs = &r.users[0].ap_records;
        let data = by_server(recs, r.data_server_node);
        // Steady-state window: 10–40 s (joined at 5 s).
        let up: u64 = data
            .iter()
            .filter(|x| x.direction == Direction::Uplink && x.ts >= SimTime::from_secs(10))
            .map(|x| x.wire_bytes)
            .sum();
        let kbps = up as f64 * 8.0 / 30.0 / 1e3;
        assert!(
            (20.0..45.0).contains(&kbps),
            "VRChat uplink {kbps:.1} Kbps vs paper 31.4"
        );
    }

    #[test]
    fn hubs_data_flows_over_tcp() {
        let r = short_session(PlatformConfig::hubs(), 2, 30, 3);
        let recs = &r.users[0].ap_records;
        let data = by_server(recs, r.data_server_node);
        assert!(!data.is_empty());
        assert!(data.iter().all(|x| x.flow.proto == Proto::Tcp), "Hubs data = HTTPS");
        assert!(r.users[0].avatar_updates_received > 50);
    }

    #[test]
    fn action_latency_measured_between_users() {
        let platform = PlatformConfig::recroom();
        let mut cfg = SessionConfig::walk_and_chat(platform, 2, SimDuration::from_secs(30), 4);
        for k in 0..5 {
            cfg.behaviors.push(Behavior::Action { user: 0, at: SimTime::from_secs(12 + k * 3) });
        }
        let r = run_session(&cfg);
        let to_u2: Vec<&ActionLatency> = r.actions.iter().filter(|a| a.to == 1).collect();
        assert!(to_u2.len() >= 4, "actions measured: {}", to_u2.len());
        for a in &to_u2 {
            let ms = a.e2e().as_millis_f64();
            // Rec Room ≈ 101.7 ms ± noise.
            assert!((70.0..160.0).contains(&ms), "RecRoom E2E {ms:.1} ms");
        }
    }

    #[test]
    fn monitors_track_joined_peers() {
        let r = short_session(PlatformConfig::vrchat(), 3, 25, 5);
        let u0 = &r.users[0];
        let late = u0.summarize_between(SimTime::from_secs(15), SimTime::from_secs(25));
        assert!(late.samples > 0);
        assert!(late.avg_fps > 30.0 && late.avg_fps <= 72.0);
        assert!(late.avg_cpu > 50.0);
    }

    #[test]
    fn edf_timer_queue_matches_full_polling() {
        // The earliest-deadline queue must be invisible: skipping idle
        // clients may not change a single packet. Compare against the
        // poll-every-client reference on platforms covering UDP, TLS
        // stream, TCP-priority gating, games, and voice.
        for (platform, secs, seed) in [
            (PlatformConfig::vrchat(), 25u64, 7u64),
            (PlatformConfig::hubs(), 20, 8),
            (PlatformConfig::worlds(), 20, 9),
        ] {
            let mut cfg = SessionConfig::walk_and_chat(platform, 3, SimDuration::from_secs(secs), seed);
            cfg.behaviors.push(Behavior::StartGame { at: SimTime::from_secs(10) });
            cfg.behaviors.push(Behavior::Unmute { user: 1, at: SimTime::from_secs(8) });
            cfg.behaviors.push(Behavior::Action { user: 0, at: SimTime::from_secs(12) });
            let edf = run_session(&cfg);
            let mut ref_cfg = cfg.clone();
            ref_cfg.poll_all_clients = true;
            let reference = run_session(&ref_cfg);
            assert_eq!(edf.server_stats, reference.server_stats);
            assert_eq!(edf.actions.len(), reference.actions.len());
            for (a, b) in edf.actions.iter().zip(&reference.actions) {
                assert_eq!((a.performed_at, a.sent_at, a.arrived_at), (b.performed_at, b.sent_at, b.arrived_at));
            }
            for (u, v) in edf.users.iter().zip(&reference.users) {
                assert_eq!(u.avatar_updates_received, v.avatar_updates_received);
                assert_eq!(u.ap_records.len(), v.ap_records.len());
                for (x, y) in u.ap_records.iter().zip(&v.ap_records) {
                    assert_eq!((x.ts, x.wire_bytes, x.payload_len), (y.ts, y.wire_bytes, y.payload_len));
                }
                assert_eq!(u.frozen_at, v.frozen_at);
                assert_eq!(u.video_bytes, v.video_bytes);
            }
        }
    }

    #[test]
    #[should_panic(expected = "SessionConfig::dt must be positive, got 0")]
    fn zero_step_is_rejected() {
        let mut cfg = SessionConfig::walk_and_chat(PlatformConfig::vrchat(), 2, SimDuration::from_secs(1), 1);
        cfg.dt = SimDuration::ZERO;
        run_session(&cfg);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = short_session(PlatformConfig::recroom(), 2, 15, 9);
        let b = short_session(PlatformConfig::recroom(), 2, 15, 9);
        assert_eq!(
            a.users[0].avatar_updates_received,
            b.users[0].avatar_updates_received
        );
        assert_eq!(a.server_stats, b.server_stats);
        assert_eq!(a.users[0].ap_records.len(), b.users[0].ap_records.len());
    }

    #[test]
    fn unmuted_user_adds_voice_traffic() {
        // Both runs identical except U1's microphone.
        let base = SessionConfig::walk_and_chat(
            PlatformConfig::vrchat(),
            2,
            SimDuration::from_secs(30),
            21,
        );
        let muted = run_session(&base);
        let mut unmuted_cfg = base.clone();
        unmuted_cfg.behaviors.push(Behavior::Unmute { user: 0, at: SimTime::from_secs(6) });
        let unmuted = run_session(&unmuted_cfg);
        let up = |r: &SessionResult| -> u64 {
            svr_netsim::capture::by_server(&r.users[0].ap_records, r.data_server_node)
                .iter()
                .filter(|x| {
                    x.direction == svr_netsim::capture::Direction::Uplink
                        && x.ts >= SimTime::from_secs(10)
                })
                .map(|x| x.wire_bytes)
                .sum()
        };
        let muted_kbps = up(&muted) as f64 * 8.0 / 20.0 / 1e3;
        let unmuted_kbps = up(&unmuted) as f64 * 8.0 / 20.0 / 1e3;
        let voice = unmuted_kbps - muted_kbps;
        // 50 Hz × (80 B + 58 B overhead) ≈ 55 Kbps.
        assert!(
            (40.0..70.0).contains(&voice),
            "voice contribution {voice:.1} Kbps (muted {muted_kbps:.1}, unmuted {unmuted_kbps:.1})"
        );
        // And the peer receives it: U2 downlink also grows.
        let down = |r: &SessionResult| -> u64 {
            svr_netsim::capture::by_server(&r.users[1].ap_records, r.data_server_node)
                .iter()
                .filter(|x| x.direction == svr_netsim::capture::Direction::Downlink)
                .map(|x| x.wire_bytes)
                .sum()
        };
        assert!(down(&unmuted) > down(&muted) + 50_000);
    }

    #[test]
    fn hubs_voice_rides_rtp_over_udp() {
        // Table 2: Hubs' data channel is "RTP/RTCP + HTTPS" — avatars on
        // the TLS stream, voice on UDP. Unmuting a Hubs user must produce
        // UDP traffic on an otherwise all-TCP platform, and the peer must
        // receive the frames.
        let mut cfg = SessionConfig::walk_and_chat(
            PlatformConfig::hubs(),
            2,
            SimDuration::from_secs(25),
            44,
        );
        cfg.behaviors.push(Behavior::Unmute { user: 0, at: SimTime::from_secs(8) });
        let r = run_session(&cfg);
        let recs =
            svr_netsim::capture::by_server(&r.users[0].ap_records, r.data_server_node);
        let udp = recs
            .iter()
            .filter(|x| x.flow.proto == svr_netsim::Proto::Udp)
            .count();
        let tcp = recs
            .iter()
            .filter(|x| x.flow.proto == svr_netsim::Proto::Tcp)
            .count();
        assert!(udp > 300, "RTP voice packets: {udp}");
        assert!(tcp > 300, "TLS avatar stream: {tcp}");
        // Muted U2 still *receives* U1's voice via the SFU.
        assert!(
            r.users[1].samples.len() > 10, // session ran
        );
        let u2_udp_down = svr_netsim::capture::by_server(
            &r.users[1].ap_records,
            r.data_server_node,
        )
        .iter()
        .filter(|x| {
            x.flow.proto == svr_netsim::Proto::Udp
                && x.direction == svr_netsim::capture::Direction::Downlink
        })
        .count();
        assert!(u2_udp_down > 300, "forwarded voice reaches U2: {u2_udp_down}");
    }

    #[test]
    fn interest_management_throttles_distant_avatars() {
        use crate::server::ForwardPolicy;
        let mut pcfg = PlatformConfig::vrchat();
        pcfg.forward_policy =
            ForwardPolicy::InterestManagement { focus: 2, background_hz: 2.0 };
        let cfg = SessionConfig::walk_and_chat(pcfg, 6, SimDuration::from_secs(25), 33);
        let r = run_session(&cfg);
        assert!(
            r.server_stats.interest_throttled > 200,
            "distant avatars throttled: {}",
            r.server_stats.interest_throttled
        );
        // Compare against direct forwarding: downlink must shrink.
        let direct_cfg = SessionConfig::walk_and_chat(
            PlatformConfig::vrchat(),
            6,
            SimDuration::from_secs(25),
            33,
        );
        let direct = run_session(&direct_cfg);
        let down = |res: &SessionResult| -> u64 {
            svr_netsim::capture::by_server(&res.users[0].ap_records, res.data_server_node)
                .iter()
                .filter(|x| x.direction == svr_netsim::capture::Direction::Downlink)
                .map(|x| x.wire_bytes)
                .sum()
        };
        assert!(
            down(&r) < down(&direct) * 8 / 10,
            "interest management cuts downlink: {} vs {}",
            down(&r),
            down(&direct)
        );
        // Everyone still receives *some* updates from everyone.
        assert!(r.users[0].avatar_updates_received > 100);
    }

    #[test]
    fn all_platforms_run_without_panic() {
        for id in PlatformId::ALL {
            let r = short_session(PlatformConfig::of(id), 2, 20, 11);
            assert!(
                r.users[0].avatar_updates_received > 0,
                "{id}: no avatar data"
            );
        }
    }
}
