//! Figure 7: average downlink throughput and FPS vs number of users —
//! and the shared user-count sweep that Figure 8 reads its resource
//! columns from.
//!
//! For each user count (paper: 1,2,3,4,5 controlled + 7,10,12,15 public)
//! and each platform, `trials` seeded sessions run with everyone
//! wandering; U1's steady-state downlink, FPS, CPU, GPU and memory are
//! aggregated with 95 % CIs.

use crate::analysis::steady_data_rates;
use crate::experiments::{steady_from, trial_seed};
use crate::report::TextTable;
use crate::stats::{linear_fit, Summary};
use svr_netsim::{SimDuration, SimTime};
use svr_platform::session::run_session;
use svr_platform::{PlatformConfig, PlatformId, SessionConfig};

/// Measurements at one user count.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Number of concurrent users.
    pub users: usize,
    /// U1 downlink, Kbps.
    pub down_kbps: Summary,
    /// U1 average FPS.
    pub fps: Summary,
    /// U1 average stale frames per second.
    pub stale: Summary,
    /// U1 CPU %.
    pub cpu: Summary,
    /// U1 GPU %.
    pub gpu: Summary,
    /// U1 memory MB.
    pub memory_mb: Summary,
}

/// The sweep for one platform.
#[derive(Debug, Clone)]
pub struct ScalingReport {
    /// Platform.
    pub platform: PlatformId,
    /// One point per user count.
    pub points: Vec<ScalePoint>,
}

/// Parameters.
#[derive(Debug, Clone)]
pub struct ScalingConfig {
    /// User counts to sweep (paper: 1,2,3,4,5,7,10,12,15).
    pub user_counts: Vec<usize>,
    /// Trials per point.
    pub trials: usize,
    /// Session length per trial, seconds.
    pub duration_s: u64,
    /// Base seed.
    pub seed: u64,
}

impl ScalingConfig {
    /// Paper fidelity.
    pub fn full() -> Self {
        ScalingConfig {
            user_counts: vec![1, 2, 3, 4, 5, 7, 10, 12, 15],
            trials: 5,
            duration_s: 60,
            seed: 0xF167,
        }
    }

    /// CI-sized.
    pub fn quick() -> Self {
        ScalingConfig { user_counts: vec![1, 3, 5], trials: 1, duration_s: 30, seed: 0xF167 }
    }
}

/// Run the sweep for one platform.
pub fn run(platform: PlatformId, cfg: &ScalingConfig) -> ScalingReport {
    let pcfg = PlatformConfig::of(platform);
    let mut points = Vec::new();
    for &n in &cfg.user_counts {
        let mut down = Vec::new();
        let mut fps = Vec::new();
        let mut stale = Vec::new();
        let mut cpu = Vec::new();
        let mut gpu = Vec::new();
        let mut mem = Vec::new();
        for k in 0..cfg.trials {
            let seed = trial_seed(cfg.seed ^ ((platform as u64) << 16) ^ ((n as u64) << 8), k);
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
            down.push(rates.down_kbps);
            let summary = r.users[0].summarize_between(steady_from(), to);
            fps.push(summary.avg_fps);
            stale.push(summary.avg_stale);
            cpu.push(summary.avg_cpu);
            gpu.push(summary.avg_gpu);
            mem.push(summary.avg_memory_mb);
        }
        points.push(ScalePoint {
            users: n,
            down_kbps: Summary::of(&down),
            fps: Summary::of(&fps),
            stale: Summary::of(&stale),
            cpu: Summary::of(&cpu),
            gpu: Summary::of(&gpu),
            memory_mb: Summary::of(&mem),
        });
    }
    ScalingReport { platform, points }
}

impl ScalingReport {
    /// Least-squares fit of downlink (Kbps) against user count — §6's
    /// "increases almost linearly" check. Returns `(slope, r²)`.
    pub fn downlink_linearity(&self) -> (f64, f64) {
        let x: Vec<f64> = self.points.iter().map(|p| p.users as f64).collect();
        let y: Vec<f64> = self.points.iter().map(|p| p.down_kbps.mean).collect();
        let (slope, _b, r2) = linear_fit(&x, &y);
        (slope, r2)
    }

    /// FPS drop fraction from the first to the last point.
    pub fn fps_drop(&self) -> f64 {
        let first = self.points.first().map(|p| p.fps.mean).unwrap_or(0.0);
        let last = self.points.last().map(|p| p.fps.mean).unwrap_or(0.0);
        if first <= 0.0 {
            return 0.0;
        }
        (first - last) / first
    }
}

impl std::fmt::Display for ScalingReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Fig. 7/8 sweep ({}):", self.platform)?;
        let mut t = TextTable::new(vec![
            "Users", "Down (Kbps)", "FPS", "Stale/s", "CPU %", "GPU %", "Mem (MB)",
        ]);
        for p in &self.points {
            t.row(vec![
                p.users.to_string(),
                format!("{:.1}±{:.1}", p.down_kbps.mean, p.down_kbps.ci95),
                format!("{:.1}±{:.1}", p.fps.mean, p.fps.ci95),
                format!("{:.1}", p.stale.mean),
                format!("{:.1}±{:.1}", p.cpu.mean, p.cpu.ci95),
                format!("{:.1}±{:.1}", p.gpu.mean, p.gpu.ci95),
                format!("{:.0}", p.memory_mb.mean),
            ]);
        }
        write!(f, "{}", t.render())?;
        let (slope, r2) = self.downlink_linearity();
        writeln!(f, "downlink vs users: slope {slope:.1} Kbps/user, R² {r2:.3}; FPS drop {:.0}%", self.fps_drop() * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn downlink_grows_linearly_with_users() {
        let cfg = ScalingConfig::quick();
        let r = run(PlatformId::VrChat, &cfg);
        let (slope, r2) = r.downlink_linearity();
        // §6: almost-linear growth with slope ≈ per-avatar rate (~25 Kbps).
        assert!(r2 > 0.95, "linearity R² {r2}");
        assert!((15.0..40.0).contains(&slope), "slope {slope} Kbps/user");
    }

    #[test]
    fn fps_declines_with_users() {
        let cfg = ScalingConfig::quick();
        let r = run(PlatformId::Hubs, &cfg);
        let first = r.points.first().unwrap().fps.mean;
        let last = r.points.last().unwrap().fps.mean;
        assert!(first > last + 2.0, "Hubs FPS {first} → {last}");
    }

    #[test]
    fn worlds_downlink_dwarfs_the_rest() {
        let cfg = ScalingConfig::quick();
        let worlds = run(PlatformId::Worlds, &cfg);
        let vrchat = run(PlatformId::VrChat, &cfg);
        let w = worlds.points.last().unwrap().down_kbps.mean;
        let v = vrchat.points.last().unwrap().down_kbps.mean;
        assert!(w > 5.0 * v, "Worlds {w} vs VRChat {v}");
    }

    #[test]
    fn memory_grows_modestly() {
        let cfg = ScalingConfig::quick();
        let r = run(PlatformId::RecRoom, &cfg);
        let first = r.points.first().unwrap().memory_mb.mean;
        let last = r.points.last().unwrap().memory_mb.mean;
        let per_avatar = (last - first)
            / (r.points.last().unwrap().users - r.points.first().unwrap().users) as f64;
        assert!((5.0..20.0).contains(&per_avatar), "≈10 MB/avatar, got {per_avatar}");
    }
}
