//! World topology and workload knobs.

use svr_netsim::{Bitrate, SimDuration};
use svr_platform::ForwardPolicy;

/// Configuration for a sharded world run.
///
/// A run advances `ticks` commit windows. Within a window each shard
/// simulates `subticks` sub-steps of `shard_dt` in parallel with every
/// other shard, then the coordinator commits the cross-shard facts in
/// `(time, shard, seq)` order. All workload selection (which residents
/// send, hop, transfer, or ping) is hash-derived from `seed` and
/// shard-local state, never from scheduling order.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of room shards.
    pub rooms: usize,
    /// Initial residents per room (user ids are dense: room `r` starts
    /// with users `r*users_per_room .. (r+1)*users_per_room`).
    pub users_per_room: usize,
    /// Number of world groups; room `r` belongs to group `r % worlds`.
    /// World transfers always cross groups (and reset the avatar spawn),
    /// portal hops may stay within one.
    pub worlds: usize,
    /// Forwarding policy for every shard's data server.
    pub policy: ForwardPolicy,
    /// Master seed: shard seeds, sender/hop/presence selection.
    pub seed: u64,
    /// Commit windows to run.
    pub ticks: u64,
    /// Sub-steps per commit window.
    pub subticks: u64,
    /// Simulated time per sub-step.
    pub shard_dt: SimDuration,
    /// Residents sampled to upload an avatar update per sub-step.
    pub senders_per_room: usize,
    /// Portal hops selected per room per window.
    pub hops_per_room: usize,
    /// World transfers selected per room per window (requires
    /// `worlds > 1`; ignored otherwise).
    pub transfers_per_room: usize,
    /// Friend-presence pings sent per room per window.
    pub presence_per_room: usize,
    /// Worker threads for the shard pool (1 = inline, no threads).
    pub jobs: usize,
    /// Per-forward server processing latency, ms. The shard tier models
    /// the data plane of a per-room pool server, so this defaults well
    /// under one commit window (the session tier keeps the paper's
    /// Table-4 latencies).
    pub server_base_proc_ms: f64,
    /// Quadratic server queueing coefficient, ms (0 disables the
    /// `(N-2)^2` term, which at 512-user rooms would push every forward
    /// past the run horizon).
    pub server_queue_quad_ms: f64,
    /// Server status-broadcast rate; 0 keeps shard traffic data-only.
    pub server_status_rate_hz: f64,
}

impl WorldConfig {
    /// A small world: 8 rooms x 16 users in 2 world groups.
    pub fn small(seed: u64) -> WorldConfig {
        WorldConfig {
            rooms: 8,
            users_per_room: 16,
            worlds: 2,
            policy: ForwardPolicy::Direct,
            seed,
            ticks: 6,
            subticks: 2,
            shard_dt: SimDuration::from_millis(50),
            senders_per_room: 4,
            hops_per_room: 1,
            transfers_per_room: 1,
            presence_per_room: 2,
            jobs: 1,
            server_base_proc_ms: 20.0,
            server_queue_quad_ms: 0.0,
            server_status_rate_hz: 0.0,
        }
    }

    /// Harness quick-fidelity preset.
    pub fn quick(seed: u64, policy: ForwardPolicy) -> WorldConfig {
        let mut cfg = WorldConfig::small(seed);
        cfg.rooms = 6;
        cfg.users_per_room = 8;
        cfg.ticks = 4;
        cfg.policy = policy;
        cfg.jobs = 2;
        cfg
    }

    /// Harness full-fidelity preset.
    pub fn full(seed: u64, policy: ForwardPolicy) -> WorldConfig {
        let mut cfg = WorldConfig::small(seed);
        cfg.rooms = 24;
        cfg.users_per_room = 16;
        cfg.worlds = 3;
        cfg.ticks = 8;
        cfg.policy = policy;
        cfg.jobs = 2;
        cfg
    }

    /// Clamp degenerate counts so every run is well-defined; a server
    /// delay that is negative or not finite panics, naming the field.
    pub fn validated(mut self) -> WorldConfig {
        for (field, ms) in [
            ("server_base_proc_ms", self.server_base_proc_ms),
            ("server_queue_quad_ms", self.server_queue_quad_ms),
        ] {
            assert!(
                ms.is_finite() && ms >= 0.0,
                "WorldConfig::{field} must be finite and non-negative, got {ms}"
            );
        }
        self.rooms = self.rooms.max(1);
        self.users_per_room = self.users_per_room.max(1);
        self.worlds = self.worlds.clamp(1, self.rooms);
        self.subticks = self.subticks.max(1);
        self.jobs = self.jobs.max(1);
        if self.rooms == 1 {
            // Nowhere to hop to.
            self.hops_per_room = 0;
            self.transfers_per_room = 0;
        }
        self
    }

    /// Total users in the world (population is conserved across ticks).
    pub fn total_users(&self) -> usize {
        self.rooms * self.users_per_room
    }

    /// Simulated time per commit window.
    pub fn window(&self) -> SimDuration {
        self.shard_dt * self.subticks
    }
}

/// The forwarding policies a world sweep compares, with stable labels
/// (the harness `world` experiment runs one unit per entry).
pub fn policies() -> Vec<(&'static str, ForwardPolicy)> {
    vec![
        ("direct", ForwardPolicy::Direct),
        ("viewport", ForwardPolicy::ViewportAdaptive { width_deg: 150.0 }),
        ("interest", ForwardPolicy::InterestManagement { focus: 8, background_hz: 1.0 }),
        (
            "remote_render",
            ForwardPolicy::RemoteRender { bitrate: Bitrate::from_mbps(8), frame_hz: 60.0 },
        ),
    ]
}

/// Stable label for a policy (the inverse of [`policies`]).
pub fn policy_label(policy: ForwardPolicy) -> &'static str {
    match policy {
        ForwardPolicy::Direct => "direct",
        ForwardPolicy::ViewportAdaptive { .. } => "viewport",
        ForwardPolicy::InterestManagement { .. } => "interest",
        ForwardPolicy::RemoteRender { .. } => "remote_render",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validated_clamps_degenerate_worlds() {
        let mut cfg = WorldConfig::small(1);
        cfg.rooms = 1;
        cfg.worlds = 9;
        cfg.jobs = 0;
        let cfg = cfg.validated();
        assert_eq!(cfg.worlds, 1);
        assert_eq!(cfg.jobs, 1);
        assert_eq!(cfg.hops_per_room, 0);
        assert_eq!(cfg.transfers_per_room, 0);
    }

    #[test]
    #[should_panic(expected = "WorldConfig::server_base_proc_ms must be finite and non-negative, got -5")]
    fn negative_processing_delay_is_rejected() {
        let mut cfg = WorldConfig::small(1);
        cfg.server_base_proc_ms = -5.0;
        cfg.validated();
    }

    #[test]
    #[should_panic(expected = "WorldConfig::server_queue_quad_ms must be finite and non-negative, got NaN")]
    fn nan_queueing_coefficient_is_rejected() {
        let mut cfg = WorldConfig::small(1);
        cfg.server_queue_quad_ms = f64::NAN;
        cfg.validated();
    }

    #[test]
    fn window_spans_all_subticks() {
        let cfg = WorldConfig::small(1);
        assert_eq!(cfg.window(), SimDuration::from_millis(100));
        assert_eq!(cfg.total_users(), 128);
    }

    #[test]
    fn policy_labels_round_trip() {
        for (label, policy) in policies() {
            assert_eq!(policy_label(policy), label);
        }
    }
}
