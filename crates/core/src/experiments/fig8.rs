//! Figure 8: CPU / GPU utilisation and memory footprint vs user count.
//!
//! Reads the same sweep as Figure 7 (the paper collected both from one
//! set of runs via the OVR Metrics Tool) and reports its resource
//! columns, one row per platform. The §6.2 findings, checked below:
//! Hubs' CPU is the highest and approaches 100 % at 15 users; AltspaceVR
//! shifts the extra load to the GPU while the others lean on the CPU;
//! memory grows ~10 MB per avatar with Worlds owning the largest
//! footprint.

use crate::experiments::fig7::{ScalePoint, ScalingReport};

/// The first and last points of a sweep, between which Fig. 8 reads
/// each resource's growth.
pub fn ends(rep: &ScalingReport) -> (&ScalePoint, &ScalePoint) {
    let first = rep.points.first().expect("sweep has points");
    let last = rep.points.last().expect("sweep has points");
    (first, last)
}

/// One platform's Fig. 8 row: CPU, GPU and memory at both ends of its
/// sweep.
pub fn row(rep: &ScalingReport) -> String {
    let (first, last) = ends(rep);
    format!(
        "  {:<11} CPU {:>5.1}% → {:>5.1}%   GPU {:>5.1}% → {:>5.1}%   Mem {:>6.0} → {:>6.0} MB\n",
        rep.platform.to_string(),
        first.cpu.mean,
        last.cpu.mean,
        first.gpu.mean,
        last.gpu.mean,
        first.memory_mb.mean,
        last.memory_mb.mean,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::fig7::{run, ScalingConfig};
    use svr_platform::PlatformId;

    #[test]
    fn resource_findings_hold_over_one_sweep() {
        let cfg = ScalingConfig::quick();
        let sweeps: Vec<ScalingReport> = PlatformId::ALL.into_iter().map(|p| run(p, &cfg)).collect();
        let of = |id: PlatformId| sweeps.iter().find(|s| s.platform == id).expect("platform swept");
        let last = |id: PlatformId| ends(of(id)).1;
        let growth = |id: PlatformId| {
            let (first, last) = ends(of(id));
            (last.cpu.mean - first.cpu.mean, last.gpu.mean - first.gpu.mean)
        };

        // Hubs' CPU is the highest.
        let hubs = last(PlatformId::Hubs).cpu.mean;
        for id in [PlatformId::AltspaceVr, PlatformId::RecRoom, PlatformId::VrChat, PlatformId::Worlds] {
            let other = last(id).cpu.mean;
            assert!(hubs > other, "Hubs {hubs} vs {id} {other}");
        }

        // AltspaceVR leans on the GPU, the others on the CPU.
        let (alt_cpu, alt_gpu) = growth(PlatformId::AltspaceVr);
        assert!(alt_gpu > alt_cpu, "AltspaceVR: ΔCPU {alt_cpu} vs ΔGPU {alt_gpu}");
        for id in [PlatformId::RecRoom, PlatformId::VrChat, PlatformId::Worlds] {
            let (dc, dg) = growth(id);
            assert!(dc > dg, "{id}: ΔCPU {dc} vs ΔGPU {dg}");
        }

        // Worlds' memory footprint is the largest.
        let worlds = last(PlatformId::Worlds).memory_mb.mean;
        for id in [PlatformId::AltspaceVr, PlatformId::Hubs, PlatformId::RecRoom, PlatformId::VrChat] {
            let other = last(id).memory_mb.mean;
            assert!(worlds > other, "Worlds {worlds} vs {id} {other}");
        }

        // Each row names its platform.
        for s in &sweeps {
            assert!(row(s).contains(s.platform.name()), "{}", row(s));
        }
    }
}
