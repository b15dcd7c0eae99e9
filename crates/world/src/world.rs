//! The world coordinator: parallel shard dispatch, then one ordered
//! commit of cross-shard facts per tick.

use std::collections::BTreeMap;
use std::fmt;

use svr_netsim::SimTime;
use svr_platform::server::UserProfile;

use crate::config::{policy_label, WorldConfig};
use crate::fact::{digest_fact, order_facts, Fact, FactPayload, DIGEST_SEED};
use crate::pool;
use crate::shard::{spawn_spot, RoomShard};

/// Aggregate world counters, accumulated across ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorldStats {
    /// Avatar messages residents injected.
    pub messages: u64,
    /// Portal hops committed.
    pub hops: u64,
    /// World transfers committed.
    pub transfers: u64,
    /// Presence facts committed (sent through a gateway).
    pub presence_sent: u64,
    /// Presence facts that reached a resident recipient.
    pub presence_delivered: u64,
    /// Presence facts whose recipient was mid-hop or unknown.
    pub presence_dropped: u64,
    /// Discrete network events processed across all shards.
    pub sim_events: u64,
    /// Packets delivered end-to-end across all shards.
    pub sim_packets: u64,
    /// Running FNV-1a digest of the committed fact stream; equal at any
    /// worker count.
    pub fact_digest: u64,
}

/// A sharded world mid-run.
pub struct World {
    cfg: WorldConfig,
    shards: Vec<RoomShard>,
    user_room: BTreeMap<u32, u32>,
    tick: u64,
    /// Aggregate counters so far.
    pub stats: WorldStats,
}

impl World {
    /// Build the world: one shard per room, densely populated.
    pub fn new(cfg: WorldConfig) -> World {
        let cfg = cfg.validated();
        let mut shards: Vec<RoomShard> =
            (0..cfg.rooms as u32).map(|r| RoomShard::new(r, &cfg)).collect();
        let mut user_room = BTreeMap::new();
        for u in 0..cfg.total_users() as u32 {
            let room = u / cfg.users_per_room as u32;
            let profile = UserProfile { user_id: u, position: spawn_spot(u), heading_deg: 0.0 };
            shards[room as usize].admit(&profile, SimTime::ZERO);
            user_room.insert(u, room);
        }
        let stats = WorldStats { fact_digest: DIGEST_SEED, ..WorldStats::default() };
        World { cfg, shards, user_room, tick: 0, stats }
    }

    /// The validated configuration this world runs under.
    pub fn cfg(&self) -> &WorldConfig {
        &self.cfg
    }

    /// Which room each user currently occupies.
    pub fn user_room(&self) -> &BTreeMap<u32, u32> {
        &self.user_room
    }

    /// The shards, in room order.
    pub fn shards(&self) -> &[RoomShard] {
        &self.shards
    }

    /// Advance one commit window: dispatch every shard in parallel,
    /// then commit the combined cross-shard facts in `(time, shard,
    /// seq)` order. Returns the committed facts, in commit order.
    pub fn tick(&mut self) -> Vec<Fact> {
        let (tick, cfg) = (self.tick, &self.cfg);
        let t0 = SimTime::ZERO + cfg.window() * tick;
        // Counter deltas are thread-local; `step` snapshots around
        // itself on whichever worker runs it.
        let outputs = pool::map(&mut self.shards, cfg.jobs, |_, shard| shard.step(tick, t0, cfg));

        let mut facts = Vec::new();
        for out in outputs {
            self.stats.messages += out.messages;
            self.stats.sim_events += out.events;
            self.stats.sim_packets += out.packets;
            facts.extend(out.facts);
        }
        order_facts(&mut facts);
        for fact in &facts {
            self.stats.fact_digest = digest_fact(self.stats.fact_digest, fact);
            self.commit(fact);
        }
        self.tick += 1;
        facts
    }

    /// Apply one fact. Runs on the coordinator only, in commit order.
    fn commit(&mut self, fact: &Fact) {
        match &fact.payload {
            FactPayload::PortalHop { profile, to_room } => {
                self.shards[*to_room as usize].admit(profile, fact.time);
                self.user_room.insert(profile.user_id, *to_room);
                self.stats.hops += 1;
            }
            FactPayload::WorldTransfer { profile, to_room } => {
                self.shards[*to_room as usize].admit(profile, fact.time);
                self.user_room.insert(profile.user_id, *to_room);
                self.stats.transfers += 1;
            }
            FactPayload::Presence { from_user, to_user } => {
                self.stats.presence_sent += 1;
                let delivered = self
                    .user_room
                    .get(to_user)
                    .copied()
                    .map(|room| self.shards[room as usize].deliver_presence(*from_user, *to_user))
                    .unwrap_or(false);
                if delivered {
                    self.stats.presence_delivered += 1;
                } else {
                    self.stats.presence_dropped += 1;
                }
            }
        }
    }

    /// Run `cfg.ticks` windows and summarize.
    pub fn run(cfg: WorldConfig) -> WorldReport {
        let mut world = World::new(cfg);
        let mut per_tick_facts = Vec::with_capacity(world.cfg.ticks as usize);
        for _ in 0..world.cfg.ticks {
            per_tick_facts.push(world.tick().len() as u64);
        }
        let forwards = world.shards.iter().map(|s| s.server_stats().forwards).sum();
        let client_rx = world.shards.iter().map(|s| s.stats.client_rx).sum();
        WorldReport {
            policy: policy_label(world.cfg.policy),
            rooms: world.cfg.rooms,
            users_per_room: world.cfg.users_per_room,
            worlds: world.cfg.worlds,
            ticks: world.cfg.ticks,
            stats: world.stats,
            forwards,
            client_rx,
            per_tick_facts,
        }
    }
}

/// Deterministic summary of a finished world run (no wall-clock fields;
/// the harness scheduler and perfbench time world runs themselves).
#[derive(Debug, Clone, PartialEq)]
pub struct WorldReport {
    /// Forwarding policy label.
    pub policy: &'static str,
    /// Room shard count.
    pub rooms: usize,
    /// Initial residents per room.
    pub users_per_room: usize,
    /// World group count.
    pub worlds: usize,
    /// Commit windows run.
    pub ticks: u64,
    /// Aggregate counters.
    pub stats: WorldStats,
    /// Messages the shard servers fanned out to receivers.
    pub forwards: u64,
    /// Packets delivered to client nodes across all shards.
    pub client_rx: u64,
    /// Committed fact count per tick.
    pub per_tick_facts: Vec<u64>,
}

impl WorldReport {
    /// Total users in the world.
    pub fn users(&self) -> usize {
        self.rooms * self.users_per_room
    }
}

impl fmt::Display for WorldReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "world: {} rooms x {} users ({} groups), policy {}, {} ticks",
            self.rooms, self.users_per_room, self.worlds, self.policy, self.ticks
        )?;
        writeln!(
            f,
            "  hops {}  transfers {}  presence {}/{} delivered  msgs {}  forwards {}",
            self.stats.hops,
            self.stats.transfers,
            self.stats.presence_delivered,
            self.stats.presence_sent,
            self.stats.messages,
            self.forwards,
        )?;
        writeln!(f, "  fact digest {:016x}", self.stats.fact_digest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_collect(cfg: WorldConfig) -> (Vec<Vec<Fact>>, WorldStats, BTreeMap<u32, u32>) {
        let mut world = World::new(cfg);
        let mut ticks = Vec::new();
        for _ in 0..world.cfg().ticks {
            ticks.push(world.tick());
        }
        let rooms = world.user_room().clone();
        (ticks, world.stats, rooms)
    }

    /// The tentpole invariant: the shard-parallel commit order equals
    /// the single-threaded reference, fact for fact, at any job count.
    #[test]
    fn parallel_commit_matches_single_threaded_reference() {
        let mut reference = WorldConfig::small(42);
        reference.jobs = 1;
        let (ref_ticks, ref_stats, ref_rooms) = run_collect(reference);

        for jobs in [2, 4, 7] {
            let mut cfg = WorldConfig::small(42);
            cfg.jobs = jobs;
            let (ticks, stats, rooms) = run_collect(cfg);
            assert_eq!(ticks, ref_ticks, "fact streams diverged at jobs={jobs}");
            assert_eq!(stats, ref_stats, "stats diverged at jobs={jobs}");
            assert_eq!(rooms, ref_rooms, "placement diverged at jobs={jobs}");
        }
    }

    #[test]
    fn population_is_conserved_and_users_move() {
        for (label, policy) in crate::policies() {
            let cfg = WorldConfig { policy, ..WorldConfig::small(9) };
            let total = cfg.total_users();
            let mut world = World::new(cfg);
            for _ in 0..world.cfg().ticks {
                world.tick();
            }
            // Every user lives in exactly one shard, and the map agrees.
            let mut seen = 0usize;
            for shard in world.shards() {
                for u in shard.resident_ids() {
                    assert_eq!(world.user_room()[&u], shard.room, "{label}");
                    seen += 1;
                }
            }
            assert_eq!(seen, total, "{label}");
            assert!(world.stats.hops > 0, "{label}: no hops");
            assert!(world.stats.transfers > 0, "{label}: no transfers");
            assert!(world.stats.presence_sent > 0, "{label}");
            assert!(world.stats.presence_delivered > 0, "{label}");
            assert_eq!(
                world.stats.presence_sent,
                world.stats.presence_delivered + world.stats.presence_dropped,
                "{label}"
            );
        }
    }

    #[test]
    fn transfers_respawn_while_hops_carry_position() {
        let cfg = WorldConfig::small(5);
        let mut world = World::new(cfg);
        let mut saw_hop = false;
        let mut saw_transfer = false;
        for _ in 0..world.cfg().ticks {
            for fact in world.tick() {
                match fact.payload {
                    FactPayload::WorldTransfer { profile, .. } => {
                        saw_transfer = true;
                        assert_eq!(profile.position, spawn_spot(profile.user_id));
                        assert_eq!(profile.heading_deg, 0.0);
                    }
                    FactPayload::PortalHop { profile, .. } => {
                        saw_hop = true;
                        // Hops carry the live server-side avatar state
                        // verbatim — never the respawn reset transfers
                        // apply.
                        assert!(profile.user_id < world.cfg().total_users() as u32);
                    }
                    FactPayload::Presence { .. } => {}
                }
            }
        }
        assert!(saw_hop && saw_transfer);
    }

    #[test]
    fn report_summarizes_the_run() {
        let rep = World::run(WorldConfig::quick(3, svr_platform::ForwardPolicy::Direct));
        assert_eq!(rep.policy, "direct");
        assert_eq!(rep.users(), rep.rooms * rep.users_per_room);
        assert_eq!(rep.per_tick_facts.len(), rep.ticks as usize);
        assert!(rep.stats.messages > 0);
        assert!(rep.forwards > 0, "direct forwarding fans out within rooms");
        let text = format!("{rep}");
        assert!(text.contains("fact digest"));
    }
}
