//! Figure 11: end-to-end latency vs number of users.
//!
//! The §7 action measurement repeated with 2–7 concurrent users. The
//! expected shape: latency grows for every platform, and the per-user
//! increment itself grows (Hubs: +7, +9, +11, +13, +16 ms in the paper)
//! — server queueing plus receiver-side rendering load.

use crate::experiments::trial_seed;
use crate::stats::Summary;
use svr_netsim::{SimDuration, SimTime};
use svr_platform::session::run_session;
use svr_platform::{Behavior, PlatformConfig, PlatformId, SessionConfig};

/// Latency at one user count for one platform.
#[derive(Debug, Clone)]
pub struct Fig11Point {
    /// User count.
    pub users: usize,
    /// E2E latency (ms) from U1's actions observed at U2.
    pub e2e_ms: Summary,
}

/// The sweep for one platform.
#[derive(Debug, Clone)]
pub struct Fig11Series {
    /// Platform.
    pub platform: PlatformId,
    /// One point per user count.
    pub points: Vec<Fig11Point>,
}

/// Parameters.
#[derive(Debug, Clone)]
pub struct Fig11Config {
    /// User counts (paper: 2–7).
    pub user_counts: Vec<usize>,
    /// Actions per run.
    pub actions: usize,
    /// Trials per point.
    pub trials: usize,
    /// Seed.
    pub seed: u64,
}

impl Fig11Config {
    /// Paper fidelity.
    pub fn full() -> Self {
        Fig11Config { user_counts: (2..=7).collect(), actions: 15, trials: 3, seed: 0xF1611 }
    }

    /// CI-sized.
    pub fn quick() -> Self {
        Fig11Config { user_counts: vec![2, 4, 6], actions: 6, trials: 1, seed: 0xF1611 }
    }
}

/// Run one platform's sweep.
pub fn run(platform: PlatformId, cfg: &Fig11Config) -> Fig11Series {
    let pcfg = PlatformConfig::of(platform);
    let mut points = Vec::new();
    for &n in &cfg.user_counts {
        let mut samples = Vec::new();
        for k in 0..cfg.trials {
            let seed = trial_seed(cfg.seed ^ ((n as u64) << 8) ^ ((platform as u64) << 16), k);
            let duration_s = 12 + cfg.actions as u64 * 2;
            let mut scfg = SessionConfig::walk_and_chat(
                pcfg.clone(),
                n,
                SimDuration::from_secs(duration_s),
                seed,
            );
            for a in 0..cfg.actions {
                scfg.behaviors.push(Behavior::Action {
                    user: 0,
                    at: SimTime::from_secs(10 + a as u64 * 2),
                });
            }
            let r = run_session(&scfg);
            samples.extend(
                r.actions
                    .iter()
                    .filter(|a| a.to == 1)
                    .map(|a| a.e2e().as_millis_f64()),
            );
        }
        points.push(Fig11Point { users: n, e2e_ms: Summary::of(&samples) });
    }
    Fig11Series { platform, points }
}

impl Fig11Series {
    /// The per-step latency deltas between consecutive user counts.
    pub fn deltas(&self) -> Vec<f64> {
        self.points.windows(2).map(|w| w[1].e2e_ms.mean - w[0].e2e_ms.mean).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_grows_with_users() {
        let cfg = Fig11Config::quick();
        for platform in [PlatformId::Hubs, PlatformId::RecRoom] {
            let s = run(platform, &cfg);
            let first = s.points.first().unwrap().e2e_ms.mean;
            let last = s.points.last().unwrap().e2e_ms.mean;
            assert!(
                last > first + 5.0,
                "{platform}: {first:.1} → {last:.1} ms should grow"
            );
        }
    }

    #[test]
    fn deltas_increase() {
        // The paper's growing per-user increments (server queue +
        // receiver load).
        let cfg = Fig11Config {
            user_counts: vec![2, 4, 6],
            actions: 10,
            trials: 2,
            seed: 0xF1611,
        };
        let s = run(PlatformId::Hubs, &cfg);
        let d = s.deltas();
        assert_eq!(d.len(), 2);
        assert!(
            d[1] > d[0] * 0.9,
            "deltas should grow (or at least not shrink): {d:?}"
        );
    }

    #[test]
    fn hubs_remains_the_slowest() {
        let cfg = Fig11Config::quick();
        let hubs = run(PlatformId::Hubs, &cfg);
        let rec = run(PlatformId::RecRoom, &cfg);
        for (h, r) in hubs.points.iter().zip(rec.points.iter()) {
            assert!(h.e2e_ms.mean > r.e2e_ms.mean, "at {} users", h.users);
        }
    }
}
