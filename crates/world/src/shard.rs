//! One room shard: a private network, a shard-local data server, and
//! the shard's side of the cross-shard fact protocol.
//!
//! Topology per shard: a shared client node (residents are distinguished
//! by UDP port, exactly like many headsets behind one campus NAT), the
//! room's data server, and a boundary *gateway* node registered with
//! [`svr_netsim::Network::set_boundary`]. Packets addressed to the
//! gateway leave the shard: they accumulate in the network's egress
//! queue and are drained into [`Fact`]s instead of being delivered
//! locally — the only way anything escapes a shard.

use std::collections::BTreeMap;

use svr_avatar::codec::{encode_update, make_update};
use svr_avatar::motion::MotionState;
use svr_avatar::skeleton::Vec3;
use svr_netsim::buf::Bytes;
use svr_netsim::rng::splitmix64_mix;
use svr_netsim::{
    counters, LinkSpec, Network, NodeId, NodeKind, Packet, Proto, SimTime, TransportHeader,
};
use svr_platform::server::{DataServer, ServerStats, UserProfile, DATA_SERVER_PORT};
use svr_platform::PlatformConfig;
use svr_transport::udp::{MsgKind, UdpChannel};

use crate::config::WorldConfig;
use crate::fact::{Fact, FactPayload};

/// Gateway port cross-shard presence pings are addressed to.
pub const GATEWAY_PORT: u16 = 7_100;

/// First client port a shard hands out (re-used from a free list as
/// residents come and go, so long runs don't exhaust the port space).
const PORT_BASE: u16 = 20_000;

/// Most residents a shard can hold at once: one client port each, from
/// [`PORT_BASE`] up to but not including `u16::MAX`.
const MAX_RESIDENTS: usize = (u16::MAX - PORT_BASE) as usize;

/// Hash a tuple of values into a selection index. All workload choices
/// derive from this, never from thread scheduling.
fn mix(parts: &[u64]) -> u64 {
    let mut h = 0x9E37_79B9_7F4A_7C15;
    for &p in parts {
        h = splitmix64_mix(h ^ p);
    }
    h
}

/// Deterministic spawn spot for user `u`: the same loose spiral the
/// single-room bench uses, so distances (and therefore viewport and
/// focus decisions) are non-trivial.
pub fn spawn_spot(u: u32) -> Vec3 {
    let golden = 2.399_963_f32; // radians
    let k = (u % 4096) as f32;
    let r = 1.0 + 0.15 * k;
    let a = k * golden;
    Vec3::new(r * a.cos(), 0.0, r * a.sin())
}

fn presence_body(from_user: u32, to_user: u32) -> Bytes {
    let mut body = Vec::with_capacity(8);
    body.extend_from_slice(&from_user.to_le_bytes());
    body.extend_from_slice(&to_user.to_le_bytes());
    Bytes::from(body)
}

fn decode_presence(pkt: &Packet) -> Option<(u32, u32)> {
    if pkt.header.dst_port != GATEWAY_PORT {
        return None;
    }
    let body = pkt.payload.as_slice();
    if body.len() < 8 {
        return None;
    }
    let from = u32::from_le_bytes(body[0..4].try_into().ok()?);
    let to = u32::from_le_bytes(body[4..8].try_into().ok()?);
    Some((from, to))
}

/// Per-resident client state kept by the shard.
struct ClientSlot {
    port: u16,
    channel: UdpChannel,
    motion: MotionState,
}

/// Shard-local traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Presence pings this shard's residents pushed to the gateway.
    pub presence_tx: u64,
    /// Presence pings committed into this shard for a resident.
    pub presence_rx: u64,
    /// Packets delivered to the shared client node (forwards, frames,
    /// committed presence).
    pub client_rx: u64,
}

/// What one shard hands back from a parallel step.
#[derive(Debug, Clone)]
pub struct ShardOutput {
    /// The shard's room id.
    pub room: u32,
    /// Cross-shard facts produced this window, in shard-local order.
    pub facts: Vec<Fact>,
    /// Discrete network events processed during the step.
    pub events: u64,
    /// Packets delivered end-to-end during the step.
    pub packets: u64,
    /// Avatar messages injected by residents during the step.
    pub messages: u64,
}

/// One room of the world: private network + data server + residents.
pub struct RoomShard {
    /// Global room id; doubles as the shard id in fact keys.
    pub room: u32,
    /// Shard traffic counters.
    pub stats: ShardStats,
    seed: u64,
    rooms: u32,
    worlds: u32,
    total_users: u32,
    pcfg: PlatformConfig,
    net: Network,
    server: DataServer,
    client_node: NodeId,
    server_node: NodeId,
    gateway_node: NodeId,
    clients: BTreeMap<u32, ClientSlot>,
    free_ports: Vec<u16>,
    next_port: u16,
    fact_seq: u64,
    avatar_tick: u32,
}

impl RoomShard {
    /// Build an empty shard for room `room`.
    pub fn new(room: u32, cfg: &WorldConfig) -> RoomShard {
        let seed = mix(&[cfg.seed, 0x524F_4F4D, room as u64]);
        let mut net = Network::new(seed);
        let client_node = net.add_node(format!("R{room}-clients"), NodeKind::Headset);
        let server_node = net.add_node(format!("R{room}-server"), NodeKind::Server);
        let gateway_node = net.add_node(format!("R{room}-gw"), NodeKind::Server);
        net.add_duplex_link(client_node, server_node, LinkSpec::campus(), LinkSpec::campus());
        net.add_duplex_link(client_node, gateway_node, LinkSpec::campus(), LinkSpec::campus());
        net.set_boundary(gateway_node);

        // The shard tier models the data plane of one per-room pool
        // server: the paper's Table-4 processing latencies and status
        // broadcasts live in the session tier, so here they are scaled
        // to the commit window (see `WorldConfig`).
        let mut pcfg = PlatformConfig::vrchat();
        pcfg.forward_policy = cfg.policy;
        pcfg.server_base_proc = svr_netsim::SimDuration::from_millis_f64(cfg.server_base_proc_ms);
        pcfg.server_queue_quad_ms = cfg.server_queue_quad_ms;
        pcfg.server_status_rate_hz = cfg.server_status_rate_hz;
        let server = DataServer::new(server_node, &pcfg, seed);

        RoomShard {
            room,
            stats: ShardStats::default(),
            seed,
            rooms: cfg.rooms as u32,
            worlds: cfg.worlds as u32,
            total_users: cfg.total_users() as u32,
            pcfg,
            net,
            server,
            client_node,
            server_node,
            gateway_node,
            clients: BTreeMap::new(),
            free_ports: Vec::new(),
            next_port: PORT_BASE,
            fact_seq: 0,
            avatar_tick: 0,
        }
    }

    /// The world group this room belongs to.
    pub fn world_group(&self) -> u32 {
        self.room % self.worlds
    }

    /// Number of current residents.
    pub fn residents(&self) -> usize {
        self.clients.len()
    }

    /// Current resident ids, ascending.
    pub fn resident_ids(&self) -> Vec<u32> {
        self.clients.keys().copied().collect()
    }

    /// The shard server's forwarding counters.
    pub fn server_stats(&self) -> ServerStats {
        self.server.stats
    }

    /// Admit a user (initial population or a committed hop/transfer):
    /// allocate a client port, register on the shard server, and seed a
    /// motion state at the carried avatar position. Panics, naming the
    /// room, when the shard already holds `MAX_RESIDENTS` (45,535).
    pub fn admit(&mut self, profile: &UserProfile, now: SimTime) {
        let port = self.free_ports.pop().unwrap_or_else(|| {
            let p = self.next_port;
            self.next_port = p.checked_add(1).unwrap_or_else(|| {
                let room = self.room;
                panic!("room {room} shard is full: {MAX_RESIDENTS} residents use every client port")
            });
            p
        });
        self.server.admit_user(profile, self.client_node, port, now);
        let mseed = mix(&[self.seed, 0x4D4F_5449, profile.user_id as u64]);
        let mut motion = MotionState::new(mseed, profile.position, profile.heading_deg);
        motion.wander();
        self.clients.insert(
            profile.user_id,
            ClientSlot {
                port,
                channel: UdpChannel::new(profile.user_id as u16, port, DATA_SERVER_PORT, now),
                motion,
            },
        );
    }

    /// Extract a departing user: remove it from the shard server, free
    /// its port, and return the avatar state to carry across.
    pub fn extract(&mut self, user_id: u32) -> Option<UserProfile> {
        let profile = self.server.extract_user(user_id)?;
        if let Some(slot) = self.clients.remove(&user_id) {
            self.free_ports.push(slot.port);
        }
        Some(profile)
    }

    /// Commit a presence ping addressed to a resident: the gateway
    /// relays it onto the shard's own network. Returns `false` when the
    /// recipient is not (or no longer) resident here.
    pub fn deliver_presence(&mut self, from_user: u32, to_user: u32) -> bool {
        let Some(slot) = self.clients.get(&to_user) else {
            return false;
        };
        let hdr = TransportHeader::datagram(Proto::Udp, GATEWAY_PORT, slot.port);
        self.net.send(
            self.gateway_node,
            self.client_node,
            Packet::new(hdr, presence_body(from_user, to_user)),
        );
        self.stats.presence_rx += 1;
        true
    }

    /// Advance this shard through one commit window starting at `t0`.
    /// Runs entirely on shard-local state; safe to call from any pool
    /// worker. Counter deltas are snapshotted on the calling thread.
    pub fn step(&mut self, tick: u64, t0: SimTime, cfg: &WorldConfig) -> ShardOutput {
        let before = counters::snapshot();
        let mut facts = Vec::new();
        let mut messages = 0u64;
        for s in 0..cfg.subticks {
            let t = t0 + cfg.shard_dt * s;
            self.inject_avatars(tick, s, t, cfg, &mut messages);
            if s == 0 {
                self.send_presence_pings(tick, cfg);
            }
            self.pump(t, &mut facts);
        }
        let t_end = t0 + cfg.window();
        self.pump(t_end, &mut facts);
        self.select_departures(tick, t_end, cfg, &mut facts);
        let delta = counters::snapshot().since(before);
        ShardOutput {
            room: self.room,
            facts,
            events: delta.events,
            packets: delta.packets_delivered,
            messages,
        }
    }

    /// Sampled residents step their wander motion and upload one avatar
    /// update each.
    fn inject_avatars(
        &mut self,
        tick: u64,
        subtick: u64,
        t: SimTime,
        cfg: &WorldConfig,
        messages: &mut u64,
    ) {
        let residents = self.resident_ids();
        if residents.is_empty() {
            return;
        }
        let senders = cfg.senders_per_room.min(residents.len());
        for k in 0..senders {
            let pick = mix(&[self.seed, 0x5345_4E44, tick, subtick, k as u64]) as usize
                % residents.len();
            let user_id = residents[pick];
            self.avatar_tick += 1;
            let avatar_tick = self.avatar_tick;
            let embodiment = &self.pcfg.embodiment;
            let slot = self.clients.get_mut(&user_id).expect("resident has a slot");
            let (pose, vel) = slot.motion.step(cfg.shard_dt.as_secs_f64(), embodiment);
            let body = encode_update(&make_update(user_id, avatar_tick, embodiment, pose, vel));
            if let Some(p) = slot.channel.send(MsgKind::Avatar, t, &body) {
                self.net.send(self.client_node, self.server_node, p);
                *messages += 1;
            }
        }
    }

    /// Sampled residents ping a hash-chosen friend anywhere in the
    /// world; the packet leaves through the boundary gateway.
    fn send_presence_pings(&mut self, tick: u64, cfg: &WorldConfig) {
        let residents = self.resident_ids();
        if residents.is_empty() || self.total_users < 2 {
            return;
        }
        for k in 0..cfg.presence_per_room.min(residents.len()) {
            let pick =
                mix(&[self.seed, 0x5052_4553, tick, k as u64]) as usize % residents.len();
            let from = residents[pick];
            let mut to =
                (mix(&[self.seed, 0x4652_4E44, from as u64, tick]) % self.total_users as u64) as u32;
            if to == from {
                to = (to + 1) % self.total_users;
            }
            let port = self.clients[&from].port;
            let hdr = TransportHeader::datagram(Proto::Udp, port, GATEWAY_PORT);
            self.net.send(
                self.client_node,
                self.gateway_node,
                Packet::new(hdr, presence_body(from, to)),
            );
            self.stats.presence_tx += 1;
        }
    }

    /// Interleave deliveries, server processing, server timers, and the
    /// boundary egress drain up to time `t`.
    fn pump(&mut self, t: SimTime, facts: &mut Vec<Fact>) {
        for d in self.net.poll_all(t) {
            if d.dst == self.server_node {
                let replies = self.server.on_packet(d.at, &d.packet);
                for (node, p) in replies {
                    self.net.send(self.server_node, node, p);
                }
            } else {
                // Forwards, render frames and relayed presence land on
                // the shared client node; clients are sinks here.
                self.stats.client_rx += 1;
            }
        }
        for (node, p) in self.server.on_tick(t) {
            self.net.send(self.server_node, node, p);
        }
        for d in self.net.drain_egress() {
            if let Some((from_user, to_user)) = decode_presence(&d.packet) {
                let fact = self.fact(d.at, FactPayload::Presence { from_user, to_user });
                facts.push(fact);
            }
        }
    }

    /// End-of-window hop/transfer selection: extract the chosen users
    /// and emit the facts the coordinator will commit.
    fn select_departures(
        &mut self,
        tick: u64,
        t_end: SimTime,
        cfg: &WorldConfig,
        facts: &mut Vec<Fact>,
    ) {
        if self.rooms < 2 {
            return;
        }
        for k in 0..cfg.hops_per_room {
            let residents = self.resident_ids();
            if residents.len() < 2 {
                break;
            }
            let pick =
                mix(&[self.seed, 0x0048_4F50, tick, k as u64]) as usize % residents.len();
            let user_id = residents[pick];
            let mut to_room =
                (mix(&[self.seed, 0x4445_5354, user_id as u64, tick]) % self.rooms as u64) as u32;
            if to_room == self.room {
                to_room = (to_room + 1) % self.rooms;
            }
            if let Some(profile) = self.extract(user_id) {
                let fact = self.fact(t_end, FactPayload::PortalHop { profile, to_room });
                facts.push(fact);
            }
        }
        if self.worlds > 1 {
            for k in 0..cfg.transfers_per_room {
                let residents = self.resident_ids();
                if residents.len() < 2 {
                    break;
                }
                let pick =
                    mix(&[self.seed, 0x5846_4552, tick, k as u64]) as usize % residents.len();
                let user_id = residents[pick];
                let mut to_room = (mix(&[self.seed, 0x574F_524C, user_id as u64, tick])
                    % self.rooms as u64) as u32;
                while to_room % self.worlds == self.world_group() {
                    to_room = (to_room + 1) % self.rooms;
                }
                if let Some(mut profile) = self.extract(user_id) {
                    // A world transfer is a fresh join: respawn at the
                    // destination's deterministic spawn spot.
                    profile.position = spawn_spot(profile.user_id);
                    profile.heading_deg = 0.0;
                    let fact = self.fact(t_end, FactPayload::WorldTransfer { profile, to_room });
                    facts.push(fact);
                }
            }
        }
    }

    fn fact(&mut self, time: SimTime, payload: FactPayload) -> Fact {
        let seq = self.fact_seq;
        self.fact_seq += 1;
        Fact { time, shard: self.room, seq, payload }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shard_with_users(n: u32) -> (RoomShard, WorldConfig) {
        let cfg = WorldConfig::small(7).validated();
        let mut shard = RoomShard::new(0, &cfg);
        for u in 0..n {
            let profile =
                UserProfile { user_id: u, position: spawn_spot(u), heading_deg: 0.0 };
            shard.admit(&profile, SimTime::ZERO);
        }
        (shard, cfg)
    }

    #[test]
    fn admit_extract_round_trip_frees_and_reuses_ports() {
        let (mut shard, _cfg) = shard_with_users(4);
        assert_eq!(shard.residents(), 4);
        let profile = shard.extract(2).expect("resident");
        assert_eq!(profile.user_id, 2);
        assert_eq!(shard.residents(), 3);
        // Re-admitting reuses the freed port instead of growing the range.
        let next_before = shard.next_port;
        shard.admit(&profile, SimTime::ZERO);
        assert_eq!(shard.next_port, next_before);
        assert!(shard.extract(99).is_none());
    }

    #[test]
    #[should_panic(expected = "room 0 shard is full: 45535 residents use every client port")]
    fn admitting_past_the_port_limit_fails_loudly() {
        let (mut shard, _cfg) = shard_with_users(MAX_RESIDENTS as u32);
        assert_eq!(shard.residents(), MAX_RESIDENTS);
        let profile = UserProfile {
            user_id: MAX_RESIDENTS as u32,
            position: spawn_spot(0),
            heading_deg: 0.0,
        };
        shard.admit(&profile, SimTime::ZERO);
    }

    #[test]
    fn step_produces_messages_and_departure_facts() {
        let (mut shard, cfg) = shard_with_users(8);
        let out = shard.step(0, SimTime::ZERO, &cfg);
        assert_eq!(out.room, 0);
        assert!(out.messages > 0, "sampled senders should upload");
        assert!(out.events > 0, "the shard network processed events");
        let hops = out
            .facts
            .iter()
            .filter(|f| matches!(f.payload, FactPayload::PortalHop { .. }))
            .count();
        let transfers = out
            .facts
            .iter()
            .filter(|f| matches!(f.payload, FactPayload::WorldTransfer { .. }))
            .count();
        assert_eq!(hops, cfg.hops_per_room);
        assert_eq!(transfers, cfg.transfers_per_room);
        // Departed users are gone from the shard.
        assert_eq!(shard.residents(), 8 - hops - transfers);
        // Hop destinations never point back at this room, transfers
        // always change world group.
        for f in &out.facts {
            match f.payload {
                FactPayload::PortalHop { to_room, .. } => assert_ne!(to_room, 0),
                FactPayload::WorldTransfer { to_room, .. } => {
                    assert_ne!(to_room % cfg.worlds as u32, shard.world_group());
                }
                FactPayload::Presence { .. } => {}
            }
        }
    }

    #[test]
    fn presence_pings_cross_the_boundary_as_facts() {
        let (mut shard, cfg) = shard_with_users(8);
        let out = shard.step(0, SimTime::ZERO, &cfg);
        let presence: Vec<_> = out
            .facts
            .iter()
            .filter_map(|f| match f.payload {
                FactPayload::Presence { from_user, to_user } => Some((from_user, to_user)),
                _ => None,
            })
            .collect();
        assert_eq!(presence.len(), cfg.presence_per_room);
        assert_eq!(shard.stats.presence_tx, cfg.presence_per_room as u64);
        for (from, to) in presence {
            assert_ne!(from, to);
            assert!(to < cfg.total_users() as u32);
        }
    }

    #[test]
    fn deliver_presence_requires_a_resident_recipient() {
        let (mut shard, _cfg) = shard_with_users(4);
        let rx_before = shard.stats.presence_rx;
        assert!(shard.deliver_presence(1, 0));
        assert_eq!(shard.stats.presence_rx, rx_before + 1);
        assert!(!shard.deliver_presence(1, 9_999));
    }

    #[test]
    fn identical_seeds_step_identically() {
        let (mut a, cfg) = shard_with_users(8);
        let (mut b, _) = shard_with_users(8);
        let out_a = a.step(0, SimTime::ZERO, &cfg);
        let out_b = b.step(0, SimTime::ZERO, &cfg);
        assert_eq!(out_a.facts, out_b.facts);
        assert_eq!(out_a.messages, out_b.messages);
        assert_eq!(out_a.events, out_b.events);
    }
}
