//! Design-choice ablations the paper argues for in prose.
//!
//! * **Remote rendering (§6.3):** replace direct forwarding with a
//!   server-side renderer streaming fixed-bitrate video. Downlink and
//!   client load become independent of the user count — the proposed fix
//!   for the scalability problem.
//! * **Device independence (§5.1):** the same platform measured from a
//!   Quest 2 and from a PC shows the same throughput (traffic is
//!   avatar-driven, not render-driven) but different rendering headroom.
//! * **Better embodiment (Implication 2):** upgrading every avatar to the
//!   photorealistic profile multiplies the per-avatar rate, quantifying
//!   the paper's warning that better embodiment worsens scalability.

use crate::analysis::steady_data_rates;
use crate::experiments::{steady_from, trial_seed};
use crate::report::TextTable;
use crate::stats::Summary;
use svr_avatar::Embodiment;
use svr_netsim::{Bitrate, SimDuration, SimTime};
use svr_platform::server::ForwardPolicy;
use svr_platform::session::run_session;
use svr_platform::{PlatformConfig, SessionConfig};

/// One point of the remote-rendering comparison.
#[derive(Debug, Clone)]
pub struct RemoteRenderPoint {
    /// Users in the event.
    pub users: usize,
    /// Downlink with direct forwarding, Mbps.
    pub direct_mbps: Summary,
    /// Downlink with remote rendering, Mbps.
    pub remote_mbps: Summary,
    /// FPS with direct forwarding.
    pub direct_fps: Summary,
    /// FPS with remote rendering.
    pub remote_fps: Summary,
}

/// The remote-rendering ablation report.
#[derive(Debug, Clone)]
pub struct RemoteRenderReport {
    /// Video bitrate used by the remote renderer.
    pub video_mbps: f64,
    /// Points per user count.
    pub points: Vec<RemoteRenderPoint>,
}

/// Parameters.
#[derive(Debug, Clone)]
pub struct AblationConfig {
    /// User counts.
    pub user_counts: Vec<usize>,
    /// Trials per point.
    pub trials: usize,
    /// Session seconds.
    pub duration_s: u64,
    /// Remote-render video bitrate, Mbps.
    pub video_mbps: f64,
    /// Seed.
    pub seed: u64,
}

impl AblationConfig {
    /// Full scale.
    pub fn full() -> Self {
        AblationConfig {
            user_counts: vec![2, 5, 10, 15],
            trials: 3,
            duration_s: 45,
            video_mbps: 8.0,
            seed: 0xAB1A,
        }
    }

    /// CI-sized.
    pub fn quick() -> Self {
        AblationConfig {
            user_counts: vec![2, 6],
            trials: 1,
            duration_s: 30,
            video_mbps: 8.0,
            seed: 0xAB1A,
        }
    }
}

fn measure(pcfg: &PlatformConfig, n: usize, duration_s: u64, seed: u64) -> (f64, f64) {
    let scfg =
        SessionConfig::walk_and_chat(pcfg.clone(), n, SimDuration::from_secs(duration_s), seed);
    let r = run_session(&scfg);
    let to = SimTime::from_secs(duration_s);
    let rates = steady_data_rates(&r.users[0].ap_records, r.data_server_node, steady_from(), to);
    let fps = r.users[0].summarize_between(steady_from(), to).avg_fps;
    (rates.down_kbps / 1e3, fps)
}

/// Run the §6.3 remote-rendering ablation (on a VRChat-like platform).
pub fn remote_rendering(cfg: &AblationConfig) -> RemoteRenderReport {
    let direct_cfg = PlatformConfig::vrchat();
    let mut remote_cfg = PlatformConfig::vrchat();
    remote_cfg.forward_policy = ForwardPolicy::RemoteRender {
        bitrate: Bitrate::from_mbps_f64(cfg.video_mbps),
        frame_hz: 60.0,
    };
    let mut points = Vec::new();
    for &n in &cfg.user_counts {
        let mut dm = Vec::new();
        let mut rm = Vec::new();
        let mut df = Vec::new();
        let mut rf = Vec::new();
        for k in 0..cfg.trials {
            let seed = trial_seed(cfg.seed ^ ((n as u64) << 8), k);
            let (d_mbps, d_fps) = measure(&direct_cfg, n, cfg.duration_s, seed);
            let (r_mbps, r_fps) = measure(&remote_cfg, n, cfg.duration_s, seed ^ 0xF00D);
            dm.push(d_mbps);
            rm.push(r_mbps);
            df.push(d_fps);
            rf.push(r_fps);
        }
        points.push(RemoteRenderPoint {
            users: n,
            direct_mbps: Summary::of(&dm),
            remote_mbps: Summary::of(&rm),
            direct_fps: Summary::of(&df),
            remote_fps: Summary::of(&rf),
        });
    }
    RemoteRenderReport { video_mbps: cfg.video_mbps, points }
}

impl std::fmt::Display for RemoteRenderReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "§6.3 ablation: direct forwarding vs remote rendering ({} Mbps video)",
            self.video_mbps
        )?;
        let mut t = TextTable::new(vec![
            "Users", "Direct down (Mbps)", "Remote down (Mbps)", "Direct FPS", "Remote FPS",
        ]);
        for p in &self.points {
            t.row(vec![
                p.users.to_string(),
                format!("{:.3}", p.direct_mbps.mean),
                format!("{:.2}", p.remote_mbps.mean),
                format!("{:.1}", p.direct_fps.mean),
                format!("{:.1}", p.remote_fps.mean),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

/// One point of the §6.2 P2P thought-experiment.
#[derive(Debug, Clone)]
pub struct P2pPoint {
    /// Users in the mesh.
    pub users: usize,
    /// Client-server architecture: U1 uplink / downlink, Kbps.
    pub cs_up_kbps: f64,
    /// Client-server downlink.
    pub cs_down_kbps: f64,
    /// Peer-to-peer mesh: U1 uplink / downlink, Kbps.
    pub p2p_up_kbps: f64,
    /// Peer-to-peer downlink.
    pub p2p_down_kbps: f64,
}

/// The P2P comparison report.
#[derive(Debug, Clone)]
pub struct P2pReport {
    /// Points per user count.
    pub points: Vec<P2pPoint>,
}

/// §6.2's "utilizing P2P communication may be a potential direction ...
/// however, even with P2P, the scalability issues of throughput and
/// on-device computation will remain."
///
/// A full-mesh P2P variant is simulated directly over the network
/// substrate: every client sends its avatar updates to every peer
/// instead of the server. The client-server numbers come from the
/// regular session. The P2P mesh removes the server but makes the
/// *uplink* scale with the user count too — the paper's point.
pub fn p2p_scaling(cfg: &AblationConfig) -> P2pReport {
    use svr_netsim::packet::zero_payload;
    use svr_netsim::{LinkSpec, Network, NodeKind};
    use svr_transport::udp::{MsgKind, UdpChannel};

    let pcfg = PlatformConfig::vrchat();
    let mut points = Vec::new();
    for &n in &cfg.user_counts {
        // --- client-server baseline (the real platform) ---
        let seed = trial_seed(cfg.seed ^ 0xB2B, n);
        let (cs_down, _fps) = {
            let scfg = SessionConfig::walk_and_chat(
                pcfg.clone(),
                n,
                SimDuration::from_secs(cfg.duration_s),
                seed,
            );
            let r = run_session(&scfg);
            let to = SimTime::from_secs(cfg.duration_s);
            let rates =
                steady_data_rates(&r.users[0].ap_records, r.data_server_node, steady_from(), to);
            (rates, 0.0)
        };

        // --- P2P mesh: same avatar traffic, no server ---
        let mut net = Network::new(seed);
        let router = net.add_node("metro", NodeKind::Router);
        let mut nodes = Vec::new();
        let mut aps = Vec::new();
        for u in 0..n {
            let h = net.add_node(format!("P{u}"), NodeKind::Headset);
            let ap = net.add_node(format!("AP{u}"), NodeKind::AccessPoint);
            net.add_duplex_link(h, ap, LinkSpec::wifi(), LinkSpec::wifi());
            net.add_duplex_link(ap, router, LinkSpec::campus(), LinkSpec::campus());
            nodes.push(h);
            aps.push(ap);
        }
        net.add_tap(aps[0]);
        // One channel per ordered peer pair.
        let mut chans: Vec<Vec<UdpChannel>> = (0..n)
            .map(|u| {
                (0..n)
                    .map(|v| {
                        UdpChannel::new(
                            (u * 64 + v) as u16,
                            (41_000 + u * 64 + v) as u16,
                            (41_000 + v * 64 + u) as u16,
                            SimTime::ZERO,
                        )
                    })
                    .collect()
            })
            .collect();
        let update_bytes = pcfg.avatar_update_wire_bytes() - 58; // payload portion
        let tick = SimDuration::from_secs_f64(1.0 / pcfg.avatar_tick_hz);
        let mut t = SimTime::ZERO;
        let end = SimTime::from_secs(cfg.duration_s.min(20));
        let body = zero_payload(update_bytes);
        while t < end {
            t += tick;
            net.poll_all(t);
            for u in 0..n {
                for v in 0..n {
                    if u == v {
                        continue;
                    }
                    if let Some(p) = chans[u][v].send(MsgKind::Avatar, t, &body) {
                        net.send(nodes[u], nodes[v], p);
                    }
                }
            }
        }
        net.poll_all(end + SimDuration::from_secs(1));
        let recs = net.take_tap_records(aps[0]);
        let secs = end.as_secs_f64();
        // Peer-to-peer traffic is headset-to-headset, so the AP tap's
        // client-device heuristic cannot orient it; classify by whether
        // U1 is the flow's source or destination.
        let up: u64 = recs
            .iter()
            .filter(|r| r.flow.src == nodes[0])
            .map(|r| r.wire_bytes)
            .sum();
        let down: u64 = recs
            .iter()
            .filter(|r| r.flow.dst == nodes[0])
            .map(|r| r.wire_bytes)
            .sum();
        points.push(P2pPoint {
            users: n,
            cs_up_kbps: {
                // uplink of the baseline session
                cs_down.up_kbps
            },
            cs_down_kbps: cs_down.down_kbps,
            p2p_up_kbps: up as f64 * 8.0 / secs / 1e3,
            p2p_down_kbps: down as f64 * 8.0 / secs / 1e3,
        });
    }
    P2pReport { points }
}

impl std::fmt::Display for P2pReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "§6.2 ablation: client-server vs full-mesh P2P (Kbps at U1)")?;
        let mut t = TextTable::new(vec![
            "Users", "C/S up", "C/S down", "P2P up", "P2P down",
        ]);
        for p in &self.points {
            t.row(vec![
                p.users.to_string(),
                format!("{:.1}", p.cs_up_kbps),
                format!("{:.1}", p.cs_down_kbps),
                format!("{:.1}", p.p2p_up_kbps),
                format!("{:.1}", p.p2p_down_kbps),
            ]);
        }
        write!(f, "{}", t.render())?;
        writeln!(f, "P2P removes the server but the uplink now scales with the user count —")?;
        writeln!(f, "the scalability issue moves to the client instead of disappearing (§6.2).")
    }
}

/// §5.1 device independence: same platform, Quest 2 vs PC.
#[derive(Debug, Clone)]
pub struct DeviceIndependenceReport {
    /// Uplink on Quest 2, Kbps.
    pub quest_up_kbps: f64,
    /// Uplink on the PC, Kbps.
    pub pc_up_kbps: f64,
    /// FPS on Quest 2 in a crowded room.
    pub quest_fps: f64,
    /// FPS on the PC (scaled by its compute) in the same room.
    pub pc_fps: f64,
}

/// Run the device-independence check on VRChat with 6 users.
pub fn device_independence(seed: u64) -> DeviceIndependenceReport {
    let pcfg = PlatformConfig::vrchat();
    let n = 6;
    let scfg = SessionConfig::walk_and_chat(pcfg.clone(), n, SimDuration::from_secs(30), seed);
    let r = run_session(&scfg);
    let to = SimTime::from_secs(30);
    let rates = steady_data_rates(&r.users[0].ap_records, r.data_server_node, steady_from(), to);
    let quest_fps = r.users[0].summarize_between(steady_from(), to).avg_fps;

    // The PC client: same traffic model, 3× compute. Traffic is identical
    // by construction (avatar-driven); re-evaluate only the render side.
    use svr_client::{DeviceProfile, RenderLoad, RenderModel, ResourceModel};
    let pc = DeviceProfile::pc();
    let model = RenderModel::new(ResourceModel::new(pcfg.perf, pc.compute_scale), pc);
    let pc_fps = model.fps(RenderLoad::avatars((n - 1) as f64)).fps;

    DeviceIndependenceReport {
        quest_up_kbps: rates.up_kbps,
        pc_up_kbps: rates.up_kbps, // identical traffic path
        quest_fps,
        pc_fps,
    }
}

/// Implication 2: per-avatar wire rate under progressively richer
/// embodiment, Kbps (at a fixed 30 Hz tick).
pub fn embodiment_cost_curve() -> Vec<(String, f64)> {
    let tick = 30.0;
    [
        Embodiment::upper_torso_no_face(),
        Embodiment::upper_torso_hands_no_face(),
        Embodiment::upper_torso_simple_face(),
        Embodiment::full_body_cartoon(),
        Embodiment::human_like(),
        Embodiment::photorealistic(),
    ]
    .into_iter()
    .map(|e| {
        let wire = svr_avatar::codec::update_payload_size(&e) + 16 + 8 + 34;
        (e.name.to_string(), wire as f64 * tick * 8.0 / 1e3)
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn remote_rendering_downlink_is_flat_in_users() {
        let cfg = AblationConfig::quick();
        let r = remote_rendering(&cfg);
        let first = &r.points[0];
        let last = r.points.last().unwrap();
        // Direct grows with users...
        assert!(
            last.direct_mbps.mean > first.direct_mbps.mean * 1.5,
            "direct {} → {}",
            first.direct_mbps.mean,
            last.direct_mbps.mean
        );
        // ...remote stays within 15% of the video bitrate everywhere.
        for p in &r.points {
            assert!(
                (p.remote_mbps.mean - cfg.video_mbps).abs() < cfg.video_mbps * 0.25,
                "remote at {} users: {} Mbps",
                p.users,
                p.remote_mbps.mean
            );
        }
    }

    #[test]
    fn remote_rendering_preserves_fps_at_scale() {
        let cfg = AblationConfig::quick();
        let r = remote_rendering(&cfg);
        let last = r.points.last().unwrap();
        assert!(
            last.remote_fps.mean >= last.direct_fps.mean,
            "remote {} vs direct {}",
            last.remote_fps.mean,
            last.direct_fps.mean
        );
    }

    #[test]
    fn p2p_shifts_scaling_to_the_uplink() {
        let cfg = AblationConfig {
            user_counts: vec![2, 6],
            trials: 1,
            duration_s: 20,
            video_mbps: 8.0,
            seed: 0xB2B,
        };
        let r = p2p_scaling(&cfg);
        let small = &r.points[0];
        let big = r.points.last().unwrap();
        // Client-server: uplink roughly flat in N.
        assert!(
            big.cs_up_kbps < small.cs_up_kbps * 1.5,
            "C/S uplink flat: {} → {}",
            small.cs_up_kbps,
            big.cs_up_kbps
        );
        // P2P: uplink grows with N (N-1 copies of every update).
        assert!(
            big.p2p_up_kbps > small.p2p_up_kbps * 3.0,
            "P2P uplink scales: {} → {}",
            small.p2p_up_kbps,
            big.p2p_up_kbps
        );
        // Downlink scales in both architectures.
        assert!(big.p2p_down_kbps > small.p2p_down_kbps * 3.0);
        assert!(big.cs_down_kbps > small.cs_down_kbps * 2.0);
    }

    #[test]
    fn throughput_is_device_independent_but_fps_is_not() {
        let r = device_independence(77);
        assert_eq!(r.quest_up_kbps, r.pc_up_kbps);
        // The PC saturates its own 60 Hz refresh (full headroom) while
        // the Quest 2 falls short of its 72 Hz ceiling under load.
        assert!((r.pc_fps - 60.0).abs() < 0.5, "PC pegged at refresh: {}", r.pc_fps);
        assert!(r.quest_fps < 71.0, "Quest under load: {}", r.quest_fps);
    }

    #[test]
    fn embodiment_cost_curve_is_monotone() {
        let curve = embodiment_cost_curve();
        assert_eq!(curve.len(), 6);
        for w in curve.windows(2) {
            assert!(w[1].1 > w[0].1, "{:?} then {:?}", w[0], w[1]);
        }
        // Photorealistic is far beyond today's platforms.
        assert!(curve.last().unwrap().1 > 5.0 * curve[3].1);
    }
}
