//! Figure 13: Worlds' uplink under throttling, and the TCP/UDP
//! priority interplay.
//!
//! Top panel: U1's whole uplink is rate-capped in stages
//! (1.5/1.2/1.0/0.7/0.5/0.3 Mbps); we trace UDP uplink, TCP uplink, and
//! UDP downlink.
//!
//! Bottom panel: only the TCP uplink is impaired — added delays of
//! 5/10/15 s, then 100 % loss, then recovery. The expected §8.1
//! behaviour: UDP transmission gaps whose length matches the TCP delay
//! (Worlds blocks UDP until TCP delivers), only keep-alive trickles
//! during the loss stage, permanent UDP death ~30 s in, a frozen screen,
//! and no UDP recovery even after TCP comes back.

use crate::analysis::RateSeries;
use svr_netsim::capture::{by_server, by_proto, Direction};
use svr_netsim::{
    Bitrate, Impairment, NetemSchedule, NetemStage, Proto, SimDuration, SimTime,
};
use svr_platform::session::run_session;
use svr_platform::{Behavior, PlatformConfig, SessionConfig};

/// Traces of one run (either panel).
#[derive(Debug, Clone)]
pub struct Fig13Report {
    /// UDP uplink, Mbps per second.
    pub udp_up: Vec<f64>,
    /// TCP uplink (control channel), Mbps per second.
    pub tcp_up: Vec<f64>,
    /// UDP downlink, Mbps per second.
    pub udp_down: Vec<f64>,
    /// When U1's data channel died, if it did (seconds).
    pub frozen_at_s: Option<u64>,
    /// Whether the in-game countdown went stale during the run.
    pub countdown_went_stale: bool,
}

/// Top-panel parameters: full-uplink rate caps.
#[derive(Debug, Clone)]
pub struct UplinkCapsConfig {
    /// Caps in Mbps (paper: 1.5/1.2/1.0/0.7/0.5/0.3).
    pub stages_mbps: Vec<f64>,
    /// Stage length (paper: 40 s).
    pub stage_s: u64,
    /// Warm-up before the first stage.
    pub start_s: u64,
    /// Recovery tail.
    pub tail_s: u64,
    /// Seed.
    pub seed: u64,
}

impl UplinkCapsConfig {
    /// Paper fidelity.
    pub fn full() -> Self {
        UplinkCapsConfig {
            stages_mbps: vec![1.5, 1.2, 1.0, 0.7, 0.5, 0.3],
            stage_s: 40,
            start_s: 20,
            tail_s: 60,
            seed: 0xF1613,
        }
    }

    /// CI-sized.
    pub fn quick() -> Self {
        UplinkCapsConfig {
            stages_mbps: vec![1.0, 0.5],
            stage_s: 12,
            start_s: 10,
            tail_s: 10,
            seed: 0xF1613,
        }
    }

    /// Total duration.
    pub fn duration_s(&self) -> u64 {
        self.start_s + self.stage_s * self.stages_mbps.len() as u64 + self.tail_s
    }
}

/// Bottom-panel parameters: TCP-only impairment.
#[derive(Debug, Clone)]
pub struct TcpPriorityConfig {
    /// Added TCP delays in seconds (paper: 5, 10, 15).
    pub delays_s: Vec<u64>,
    /// Length of each delay stage (paper: 60 s).
    pub stage_s: u64,
    /// Length of the 100 % loss stage (paper: 60 s).
    pub loss_s: u64,
    /// Warm-up before the first stage.
    pub start_s: u64,
    /// Recovery tail after loss lifts (paper: 60 s).
    pub tail_s: u64,
    /// Seed.
    pub seed: u64,
}

impl TcpPriorityConfig {
    /// Paper fidelity: 5/10/15 s delays in 60 s stages, 60 s of 100 %
    /// loss, 60 s recovery.
    pub fn full() -> Self {
        TcpPriorityConfig {
            delays_s: vec![5, 10, 15],
            stage_s: 60,
            loss_s: 60,
            start_s: 15,
            tail_s: 60,
            seed: 0xF1613B,
        }
    }

    /// CI-sized: one short delay stage plus the loss stage.
    pub fn quick() -> Self {
        TcpPriorityConfig {
            delays_s: vec![4],
            stage_s: 20,
            loss_s: 40,
            start_s: 10,
            tail_s: 15,
            seed: 0xF1613B,
        }
    }

    /// When the 100 % loss stage starts.
    pub fn loss_start_s(&self) -> u64 {
        self.start_s + self.stage_s * self.delays_s.len() as u64
    }

    /// Total duration.
    pub fn duration_s(&self) -> u64 {
        self.loss_start_s() + self.loss_s + self.tail_s
    }
}

fn collect(result: &svr_platform::SessionResult, duration: SimDuration) -> Fig13Report {
    let recs = &result.users[0].ap_records;
    let data = by_server(recs, result.data_server_node);
    let ctl = by_server(recs, result.control_server_node);
    let udp = by_proto(&data, Proto::Udp);
    let tcp = by_proto(&ctl, Proto::Tcp);
    let udp_up = RateSeries::from_records(&udp, Direction::Uplink, duration);
    let udp_down = RateSeries::from_records(&udp, Direction::Downlink, duration);
    let tcp_up = RateSeries::from_records(&tcp, Direction::Uplink, duration);
    Fig13Report {
        udp_up: udp_up.kbps.iter().map(|k| k / 1e3).collect(),
        tcp_up: tcp_up.kbps.iter().map(|k| k / 1e3).collect(),
        udp_down: udp_down.kbps.iter().map(|k| k / 1e3).collect(),
        frozen_at_s: result.users[0].frozen_at.map(|t| t.as_millis() / 1000),
        countdown_went_stale: false,
    }
}

/// Run the top panel: full-uplink rate caps.
pub fn run_uplink_caps(cfg: &UplinkCapsConfig) -> Fig13Report {
    let pcfg = PlatformConfig::worlds();
    let duration = SimDuration::from_secs(cfg.duration_s());
    let mut scfg = SessionConfig::walk_and_chat(pcfg, 2, duration, cfg.seed);
    scfg.behaviors.push(Behavior::StartGame { at: SimTime::from_secs(7) });
    let imps: Vec<Impairment> = cfg
        .stages_mbps
        .iter()
        .map(|m| Impairment::rate(Bitrate::from_mbps_f64(*m)))
        .collect();
    scfg.netem_uplink = Some(NetemSchedule::staircase(
        SimTime::from_secs(cfg.start_s),
        SimDuration::from_secs(cfg.stage_s),
        &imps,
    ));
    let r = run_session(&scfg);
    collect(&r, duration)
}

/// Run the bottom panel: TCP-only delay stages then 100 % TCP loss.
pub fn run_tcp_priority(cfg: &TcpPriorityConfig) -> Fig13Report {
    let pcfg = PlatformConfig::worlds();
    let duration = SimDuration::from_secs(cfg.duration_s());
    let mut scfg = SessionConfig::walk_and_chat(pcfg, 2, duration, cfg.seed);
    scfg.behaviors.push(Behavior::StartGame { at: SimTime::from_secs(7) });
    let mut stages = Vec::new();
    let mut t = cfg.start_s;
    for d in &cfg.delays_s {
        stages.push(NetemStage {
            start: SimTime::from_secs(t),
            end: SimTime::from_secs(t + cfg.stage_s),
            impairment: Impairment::delay(SimDuration::from_secs(*d)),
        });
        t += cfg.stage_s;
    }
    stages.push(NetemStage {
        start: SimTime::from_secs(t),
        end: SimTime::from_secs(t + cfg.loss_s),
        impairment: Impairment::loss(1.0),
    });
    scfg.netem_tcp_uplink = Some(NetemSchedule::from_stages(stages));
    let r = run_session(&scfg);
    let mut rep = collect(&r, duration);
    // §8.1: "the countdown board in the game fails to update" — the
    // client saw no clock sync for longer than the staleness window.
    rep.countdown_went_stale = r.users[0].countdown_stale_seconds > 3;
    rep
}

impl Fig13Report {
    /// Longest run of consecutive near-zero seconds in the UDP uplink
    /// within `[from, to)` — the transmission "gaps" of §8.1.
    pub fn longest_udp_gap(&self, from: usize, to: usize) -> usize {
        let to = to.min(self.udp_up.len());
        let mut best = 0;
        let mut cur = 0;
        for v in &self.udp_up[from.min(to)..to] {
            if *v < 0.02 {
                cur += 1;
                best = best.max(cur);
            } else {
                cur = 0;
            }
        }
        best
    }

    /// Mean of a series over `[from, to)`.
    pub fn mean(series: &[f64], from: usize, to: usize) -> f64 {
        let to = to.min(series.len());
        if from >= to {
            return 0.0;
        }
        series[from..to].iter().sum::<f64>() / (to - from) as f64
    }
}

impl std::fmt::Display for Fig13Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig. 13: Worlds uplink disruption")?;
        let pts = |s: &[f64]| -> Vec<(f64, f64)> {
            s.iter().enumerate().step_by(4).map(|(i, v)| (i as f64, *v)).collect()
        };
        writeln!(f, "{}", crate::report::series_line("  UDP uplink  (Mbps)", &pts(&self.udp_up)))?;
        writeln!(f, "{}", crate::report::series_line("  TCP uplink  (Mbps)", &pts(&self.tcp_up)))?;
        writeln!(f, "{}", crate::report::series_line("  UDP downlink(Mbps)", &pts(&self.udp_down)))?;
        if let Some(t) = self.frozen_at_s {
            writeln!(f, "  UDP connection died at {t}s (screen frozen; never recovers)")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uplink_caps_clamp_udp_uplink() {
        let cfg = UplinkCapsConfig::quick();
        let r = run_uplink_caps(&cfg);
        // Before stages: free-running game uplink > 1.0 Mbps.
        let before = Fig13Report::mean(&r.udp_up, 7, cfg.start_s as usize);
        assert!(before > 0.8, "game uplink {before}");
        // Harshest stage clamps below the cap.
        let k = cfg.stages_mbps.len() - 1;
        let a = cfg.start_s as usize + cfg.stage_s as usize * k + 2;
        let b = a + cfg.stage_s as usize - 2;
        let during = Fig13Report::mean(&r.udp_up, a, b);
        let cap = cfg.stages_mbps[k];
        assert!(during <= cap * 1.25, "capped uplink {during} vs {cap}");
    }

    #[test]
    fn constrained_uplink_depresses_peer_feedback_downlink() {
        // §8.1: U1's starved uplink degrades U2's experience, which in
        // turn reduces what U1 receives. At minimum the downlink must not
        // grow during the cap stages.
        let cfg = UplinkCapsConfig::quick();
        let r = run_uplink_caps(&cfg);
        let before = Fig13Report::mean(&r.udp_down, 7, cfg.start_s as usize);
        let k = cfg.stages_mbps.len() - 1;
        let a = cfg.start_s as usize + cfg.stage_s as usize * k + 2;
        let during = Fig13Report::mean(&r.udp_down, a, a + cfg.stage_s as usize - 2);
        assert!(during <= before * 1.15, "downlink {before} → {during}");
    }

    #[test]
    fn tcp_delay_gates_udp_for_matching_duration() {
        let cfg = TcpPriorityConfig::quick();
        let r = run_tcp_priority(&cfg);
        let delay = cfg.delays_s[0] as usize;
        let a = cfg.start_s as usize;
        let b = a + cfg.stage_s as usize;
        let gap = r.longest_udp_gap(a, b);
        // Gap of about the TCP delay (±2 s of quantisation).
        assert!(
            gap + 2 >= delay && gap <= delay + 4,
            "UDP gap {gap}s vs TCP delay {delay}s"
        );
    }

    #[test]
    fn full_tcp_loss_kills_udp_permanently() {
        // During the loss stage TCP's retransmission timer backs off to
        // `rto_max`, so its next send can come that long after the loss
        // lifts; the tail must outlast it for "TCP recovers" to show.
        let rto_max_s = svr_transport::tcp::TcpConfig::default().rto_max.as_millis() / 1000;
        let cfg = TcpPriorityConfig { tail_s: rto_max_s + 5, ..TcpPriorityConfig::quick() };
        let r = run_tcp_priority(&cfg);
        let loss_start = cfg.loss_start_s();
        // Death ~30 s into the loss stage.
        let died = r.frozen_at_s.expect("UDP must die during 100% TCP loss");
        assert!(
            died >= loss_start + 25 && died <= loss_start + 40,
            "died at {died}s; loss began {loss_start}s"
        );
        // No UDP recovery after the loss lifts, even though TCP recovers.
        let tail_from = (loss_start + cfg.loss_s) as usize + 3;
        let udp_after = Fig13Report::mean(&r.udp_up, tail_from, r.udp_up.len());
        assert!(udp_after < 0.02, "UDP must stay dead: {udp_after} Mbps");
        let tcp_after = Fig13Report::mean(&r.tcp_up, tail_from, r.tcp_up.len());
        assert!(tcp_after > 0.0, "TCP recovers: {tcp_after} Mbps");
    }

    #[test]
    fn countdown_freezes_when_tcp_sync_is_blocked() {
        // §8.1: delaying/blocking TCP stalls the in-game countdown board.
        let cfg = TcpPriorityConfig::quick();
        let r = run_tcp_priority(&cfg);
        assert!(r.countdown_went_stale);
    }

    #[test]
    fn keepalive_trickle_before_death() {
        // "only tiny data exchanges over UDP for about 30 s" — the
        // keep-alives that bypass the gate.
        let cfg = TcpPriorityConfig::quick();
        let r = run_tcp_priority(&cfg);
        let loss_start = cfg.loss_start_s() as usize;
        let died = r.frozen_at_s.unwrap() as usize;
        // Measure well inside the gated window (gating starts at the
        // first report after the loss begins, up to ~10 s in).
        let from = (died.saturating_sub(15)).max(loss_start + 2);
        let trickle = Fig13Report::mean(&r.udp_up, from, died);
        assert!(
            trickle > 0.0 && trickle < 0.01,
            "tiny keep-alive trickle expected, got {trickle} Mbps"
        );
    }
}
