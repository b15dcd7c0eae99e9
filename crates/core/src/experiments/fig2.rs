//! Figure 2: control- vs data-channel throughput timelines.
//!
//! Two users launch the app, sit on the welcome page, and enter a social
//! event at 90 s (as in the paper's 180-second traces). U1's AP capture
//! is split into control and data channels; the report carries four
//! per-second series (control/data × up/down). The expected shape: the
//! control channel is busy on the welcome page and (for AltspaceVR-like
//! platforms) spikes periodically afterwards; the data channel is silent
//! until the event starts. The Hubs initial download, which the paper
//! leaves out of its plot at >100 Mbps, stays in the control-downlink
//! series here: it crosses the 71 ms west-coast path at 12–15 Mbps over
//! the first 20 s.

use crate::analysis::{channel_records, RateSeries};
use svr_netsim::capture::Direction;
use svr_netsim::{SimDuration, SimTime};
use svr_platform::{
    Behavior, ChannelKind, PlatformConfig, PlatformId, SessionConfig,
};

/// Per-second series for one platform.
#[derive(Debug, Clone)]
pub struct Fig2Report {
    /// Platform measured.
    pub platform: PlatformId,
    /// Control-channel uplink, Kbps per second.
    pub control_up: RateSeries,
    /// Control-channel downlink.
    pub control_down: RateSeries,
    /// Data-channel uplink.
    pub data_up: RateSeries,
    /// Data-channel downlink.
    pub data_down: RateSeries,
    /// When the users entered the event.
    pub event_at: SimTime,
}

/// Parameters.
#[derive(Debug, Clone, Copy)]
pub struct Fig2Config {
    /// Trace length (paper: 180 s).
    pub duration_s: u64,
    /// When users join the event (paper: 90 s).
    pub join_s: u64,
    /// Seed.
    pub seed: u64,
}

impl Fig2Config {
    /// Paper fidelity.
    pub fn full() -> Self {
        Fig2Config { duration_s: 180, join_s: 90, seed: 0xF162 }
    }

    /// CI-sized.
    pub fn quick() -> Self {
        Fig2Config { duration_s: 60, join_s: 30, seed: 0xF162 }
    }
}

/// Run for one platform.
pub fn run(platform: PlatformId, cfg: Fig2Config) -> Fig2Report {
    let pcfg = PlatformConfig::of(platform);
    let duration = SimDuration::from_secs(cfg.duration_s);
    let join = SimTime::from_secs(cfg.join_s);
    let mut scfg = SessionConfig::walk_and_chat(pcfg, 2, duration, cfg.seed);
    scfg.behaviors = vec![
        Behavior::Join { user: 0, at: join },
        Behavior::Join { user: 1, at: join },
        Behavior::Wander { user: 0, at: join + SimDuration::from_secs(1) },
        Behavior::Wander { user: 1, at: join + SimDuration::from_secs(1) },
    ];
    let result = svr_platform::session::run_session(&scfg);
    let records = &result.users[0].ap_records;
    let ctl = channel_records(records, ChannelKind::Control, result.control_server_node, result.data_server_node);
    let data = channel_records(records, ChannelKind::Data, result.control_server_node, result.data_server_node);
    Fig2Report {
        platform,
        control_up: RateSeries::from_records(&ctl, Direction::Uplink, duration),
        control_down: RateSeries::from_records(&ctl, Direction::Downlink, duration),
        data_up: RateSeries::from_records(&data, Direction::Uplink, duration),
        data_down: RateSeries::from_records(&data, Direction::Downlink, duration),
        event_at: join,
    }
}

impl Fig2Report {
    /// Mean data-channel downlink before the event (should be ~0).
    pub fn data_down_before_event(&self) -> f64 {
        self.data_down.mean_kbps(0, self.event_at.as_millis() as usize / 1000)
    }

    /// Mean data-channel downlink during the event.
    pub fn data_down_during_event(&self) -> f64 {
        let from = self.event_at.as_millis() as usize / 1000 + 5;
        self.data_down.mean_kbps(from, self.data_down.len())
    }

    /// Mean control-channel traffic (both directions) on the welcome page.
    pub fn control_on_welcome(&self) -> f64 {
        let to = self.event_at.as_millis() as usize / 1000;
        self.control_up.mean_kbps(0, to) + self.control_down.mean_kbps(0, to)
    }
}

impl std::fmt::Display for Fig2Report {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Fig. 2 ({}): welcome page 0-{}s, social event after",
            self.platform,
            self.event_at.as_millis() / 1000
        )?;
        // Control traffic is bursty (menu clicks, report spikes):
        // show the peak within each 10 s bin so bursts stay visible.
        let every = |s: &RateSeries| -> Vec<(f64, f64)> {
            s.kbps
                .chunks(10)
                .enumerate()
                .map(|(i, chunk)| {
                    ((i * 10) as f64, chunk.iter().cloned().fold(0.0, f64::max))
                })
                .collect()
        };
        writeln!(f, "{}", crate::report::series_line("  control up  (Kbps)", &every(&self.control_up)))?;
        writeln!(f, "{}", crate::report::series_line("  control down(Kbps)", &every(&self.control_down)))?;
        writeln!(f, "{}", crate::report::series_line("  data up     (Kbps)", &every(&self.data_up)))?;
        writeln!(f, "{}", crate::report::series_line("  data down   (Kbps)", &every(&self.data_down)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_channel_silent_until_event() {
        let r = run(PlatformId::VrChat, Fig2Config::quick());
        assert!(r.data_down_before_event() < 1.0, "{}", r.data_down_before_event());
        assert!(r.data_down_during_event() > 15.0, "{}", r.data_down_during_event());
    }

    #[test]
    fn control_channel_active_on_welcome_page() {
        let r = run(PlatformId::VrChat, Fig2Config::quick());
        assert!(r.control_on_welcome() > 10.0, "{}", r.control_on_welcome());
    }

    #[test]
    fn altspace_control_spikes_continue_during_event() {
        // AltspaceVR reports every ~10 s even inside the event (§4.1).
        let r = run(PlatformId::AltspaceVr, Fig2Config::quick());
        let from = r.event_at.as_millis() as usize / 1000 + 5;
        let during: f64 = r.control_up.kbps[from..].iter().sum();
        assert!(during > 0.5, "control uplink during event: {during}");
    }

    #[test]
    fn hubs_data_flows_during_event_over_stream() {
        let r = run(PlatformId::Hubs, Fig2Config::quick());
        assert!(r.data_down_during_event() > 30.0, "{}", r.data_down_during_event());
    }

    #[test]
    fn display_shows_series() {
        let r = run(PlatformId::VrChat, Fig2Config::quick());
        let s = r.to_string();
        assert!(s.contains("control up"));
        assert!(s.contains("data down"));
    }
}
