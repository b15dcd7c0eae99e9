//! §8.2: latency and packet-loss disruption tolerance.
//!
//! Added one-way latency of 50–500 ms is injected on U1's links while a
//! shooter game runs on Worlds, Rec Room, and VRChat; the measured E2E
//! action latency shifts by roughly the injected amount, and the paper's
//! usability findings are checked: ~50 ms of extra latency is already
//! enough to hurt a shooter, while walk-and-chat only suffers past
//! ~300 ms total. Packet loss up to 20 % is separately shown to be
//! imperceptible: avatar updates keep flowing and FPS is unaffected.

use crate::experiments::trial_seed;
use crate::report::TextTable;
use crate::stats::Summary;
use svr_netsim::{Impairment, NetemSchedule, NetemStage, SimDuration, SimTime};
use svr_platform::session::run_session;
use svr_platform::{Behavior, PlatformConfig, PlatformId, SessionConfig};

/// Latency tolerance for one platform at one injected delay.
#[derive(Debug, Clone)]
pub struct LatencyPoint {
    /// Injected extra one-way latency, ms.
    pub added_ms: u64,
    /// Measured E2E action latency, ms.
    pub e2e_ms: Summary,
    /// Whether the shooter experience is degraded (roughly ≥50 ms over
    /// baseline, the paper's finding; the impairment sits on U1's uplink
    /// so the one-way shift is what the peer perceives).
    pub game_degraded: bool,
}

/// Loss tolerance at one loss rate.
#[derive(Debug, Clone)]
pub struct LossPoint {
    /// Injected loss, percent.
    pub loss_pct: f64,
    /// Fraction of expected avatar updates that still arrived.
    pub delivery_ratio: f64,
    /// Average FPS during the lossy window.
    pub fps: f64,
    /// 95th-percentile dead-reckoning pop, metres — below
    /// [`svr_avatar::prediction::PERCEPTIBLE_POP_M`] the loss is
    /// invisible to users.
    pub p95_pop_m: f32,
}

/// The §8.2 report for one platform.
#[derive(Debug, Clone)]
pub struct DisruptionReport {
    /// Platform.
    pub platform: PlatformId,
    /// Baseline E2E with no impairment, ms.
    pub baseline_e2e_ms: Summary,
    /// Latency sweep.
    pub latency: Vec<LatencyPoint>,
    /// Loss sweep.
    pub loss: Vec<LossPoint>,
}

/// Parameters.
#[derive(Debug, Clone)]
pub struct DisruptionConfig {
    /// Added latencies, ms (paper: 50/100/200/300/400/500).
    pub latencies_ms: Vec<u64>,
    /// Loss rates, percent (paper: 1/3/5/7/10/20).
    pub losses_pct: Vec<f64>,
    /// Actions per run.
    pub actions: usize,
    /// Seed.
    pub seed: u64,
}

impl DisruptionConfig {
    /// Paper fidelity.
    pub fn full() -> Self {
        DisruptionConfig {
            latencies_ms: vec![50, 100, 200, 300, 400, 500],
            losses_pct: vec![1.0, 3.0, 5.0, 7.0, 10.0, 20.0],
            actions: 10,
            seed: 0xD152,
        }
    }

    /// CI-sized.
    pub fn quick() -> Self {
        DisruptionConfig {
            latencies_ms: vec![50, 200],
            losses_pct: vec![5.0, 20.0],
            actions: 5,
            seed: 0xD152,
        }
    }
}

fn game_session(
    pcfg: &PlatformConfig,
    seed: u64,
    actions: usize,
    netem: Option<NetemSchedule>,
) -> (Summary, f64, f64, f32) {
    let duration_s = 14 + actions as u64 * 2;
    let mut scfg = SessionConfig::walk_and_chat(
        pcfg.clone(),
        2,
        SimDuration::from_secs(duration_s),
        seed,
    );
    scfg.behaviors.push(Behavior::StartGame { at: SimTime::from_secs(7) });
    for a in 0..actions {
        scfg.behaviors
            .push(Behavior::Action { user: 0, at: SimTime::from_secs(12 + a as u64 * 2) });
    }
    scfg.netem_uplink = netem.clone();
    scfg.netem_downlink = netem;
    let r = run_session(&scfg);
    let e2e: Vec<f64> = r
        .actions
        .iter()
        .filter(|a| a.to == 1)
        .map(|a| a.e2e().as_millis_f64())
        .collect();
    let expected =
        pcfg.avatar_tick_hz * (duration_s as f64 - 10.0);
    let delivery = r.users[0].avatar_updates_received as f64 / expected;
    let fps = r.users[0]
        .summarize_between(SimTime::from_secs(10), SimTime::from_secs(duration_s))
        .avg_fps;
    (Summary::of(&e2e), delivery.min(1.2), fps, r.users[0].prediction_p95_m)
}

/// Run the §8.2 sweep for one platform.
pub fn run(platform: PlatformId, cfg: &DisruptionConfig) -> DisruptionReport {
    let pcfg = PlatformConfig::of(platform);
    let (baseline, _, _, _) = game_session(&pcfg, trial_seed(cfg.seed, 0), cfg.actions, None);

    let mut latency = Vec::new();
    for (i, ms) in cfg.latencies_ms.iter().enumerate() {
        let sched = NetemSchedule::from_stages(vec![NetemStage {
            start: SimTime::ZERO,
            end: SimTime::from_secs(100_000),
            impairment: Impairment::delay(SimDuration::from_millis(*ms)),
        }]);
        let (e2e, _, _, _) =
            game_session(&pcfg, trial_seed(cfg.seed, i + 1), cfg.actions, Some(sched));
        latency.push(LatencyPoint {
            added_ms: *ms,
            e2e_ms: e2e,
            game_degraded: e2e.mean - baseline.mean >= 40.0,
        });
    }

    let mut loss = Vec::new();
    for (i, pct) in cfg.losses_pct.iter().enumerate() {
        let sched = NetemSchedule::from_stages(vec![NetemStage {
            start: SimTime::ZERO,
            end: SimTime::from_secs(100_000),
            impairment: Impairment::loss(pct / 100.0),
        }]);
        let (_, delivery, fps, pop) =
            game_session(&pcfg, trial_seed(cfg.seed, 100 + i), cfg.actions, Some(sched));
        loss.push(LossPoint { loss_pct: *pct, delivery_ratio: delivery, fps, p95_pop_m: pop });
    }

    DisruptionReport { platform, baseline_e2e_ms: baseline, latency, loss }
}

impl std::fmt::Display for DisruptionReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "§8.2 disruption tolerance ({}), baseline E2E {:.1} ms",
            self.platform, self.baseline_e2e_ms.mean
        )?;
        let mut t = TextTable::new(vec!["Added latency (ms)", "E2E (ms)", "Game degraded?"]);
        for p in &self.latency {
            t.row(vec![
                p.added_ms.to_string(),
                format!("{:.1}", p.e2e_ms.mean),
                if p.game_degraded { "yes" } else { "no" }.to_string(),
            ]);
        }
        write!(f, "{}", t.render())?;
        let mut t2 = TextTable::new(vec!["Loss (%)", "Delivery ratio", "FPS", "p95 pop (m)"]);
        for p in &self.loss {
            t2.row(vec![
                format!("{:.0}", p.loss_pct),
                format!("{:.2}", p.delivery_ratio),
                format!("{:.1}", p.fps),
                format!("{:.3}", p.p95_pop_m),
            ]);
        }
        write!(f, "{}", t2.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifty_ms_already_degrades_the_shooter() {
        let cfg = DisruptionConfig::quick();
        let r = run(PlatformId::RecRoom, &cfg);
        let p50 = r.latency.iter().find(|p| p.added_ms == 50).unwrap();
        // 50 ms injected on U1's uplink shifts the peer-perceived E2E by
        // ~50 ms: enough to degrade a shooter (§8.2).
        assert!(p50.game_degraded, "E2E {:.1} vs baseline {:.1}", p50.e2e_ms.mean, r.baseline_e2e_ms.mean);
    }

    #[test]
    fn injected_latency_shows_up_in_e2e() {
        let cfg = DisruptionConfig::quick();
        let r = run(PlatformId::VrChat, &cfg);
        let p200 = r.latency.iter().find(|p| p.added_ms == 200).unwrap();
        let added = p200.e2e_ms.mean - r.baseline_e2e_ms.mean;
        // 200 ms added on U1's uplink appears ~1:1 in the U1→U2 path.
        assert!(
            (150.0..320.0).contains(&added),
            "E2E rose by {added:.1} ms for 200 ms injected"
        );
    }

    #[test]
    fn twenty_percent_loss_is_imperceptible() {
        let cfg = DisruptionConfig::quick();
        // Worlds is the reckoner's heaviest user: 60 Hz full-precision
        // updates with velocities.
        for platform in [PlatformId::RecRoom, PlatformId::Worlds] {
            let r = run(platform, &cfg);
            let p20 = r.loss.iter().find(|p| p.loss_pct == 20.0).unwrap();
            // Updates keep flowing (roughly 1 − (1−0.2)² ≈ 36% path loss
            // on two impaired hops still leaves a steady stream) and FPS
            // holds.
            assert!(p20.delivery_ratio > 0.4, "{platform:?} delivery {}", p20.delivery_ratio);
            assert!(p20.fps > 60.0, "{platform:?} FPS {}", p20.fps);
            // Dead reckoning keeps positional pops below perceptibility.
            assert!(
                p20.p95_pop_m < svr_avatar::prediction::PERCEPTIBLE_POP_M,
                "{platform:?} p95 pop {} m",
                p20.p95_pop_m
            );
        }
    }
}
