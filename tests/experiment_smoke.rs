//! Smoke tests: every table/figure experiment runs at quick fidelity and
//! renders a non-trivial report — the contract the bench harness and
//! `reproduce_all` example rely on.

use metaverse_measurement::core::experiments::*;
use metaverse_measurement::PlatformId;

fn non_trivial(s: String) -> String {
    assert!(s.lines().count() >= 2, "report too short:\n{s}");
    s
}

#[test]
fn table1_renders() {
    non_trivial(table1::run().to_string());
}

#[test]
fn table2_renders() {
    let s = non_trivial(table2::run(table2::Table2Config::quick()).to_string());
    assert!(s.contains("HTTPS"));
}

#[test]
fn fig2_renders() {
    for p in PlatformId::ALL {
        non_trivial(fig2::run(p, fig2::Fig2Config::quick()).to_string());
    }
}

#[test]
fn table3_renders() {
    let s = non_trivial(
        table3::run(table3::Table3Config { trials: 1, duration_s: 30, seed: 5 }).to_string(),
    );
    assert!(s.contains("Worlds"));
}

#[test]
fn fig3_renders() {
    non_trivial(fig3::run(PlatformId::RecRoom, fig3::Fig3Config::quick()).to_string());
}

#[test]
fn fig6_renders() {
    let r = fig6::run(
        PlatformId::AltspaceVr,
        fig6::Variant::VisibleThenAway,
        fig6::Fig6Config::quick(),
    );
    non_trivial(r.to_string());
}

#[test]
fn viewport_renders() {
    non_trivial(viewport::run(PlatformId::AltspaceVr, viewport::ViewportConfig::quick()).to_string());
}

#[test]
fn fig7_and_fig8_render() {
    let cfg = fig7::ScalingConfig { user_counts: vec![1, 3], trials: 1, duration_s: 25, seed: 5 };
    let sweep = fig7::run(PlatformId::VrChat, &cfg);
    non_trivial(sweep.to_string());
    assert!(fig8::row(&sweep).contains("VRChat"));
}

#[test]
fn fig9_renders() {
    non_trivial(fig9::run(&fig9::Fig9Config::quick()).to_string());
}

#[test]
fn table4_renders() {
    let s = non_trivial(table4::run(table4::Table4Config::quick()).to_string());
    assert!(s.contains("Hubs*"));
}

#[test]
fn fig11_renders() {
    // The registry renders one row per series; check what it reads.
    let cfg = fig11::Fig11Config { user_counts: vec![2, 3], actions: 4, trials: 1, seed: 5 };
    for p in PlatformId::ALL {
        let s = fig11::run(p, &cfg);
        assert_eq!(s.points.len(), 2, "{p}");
        assert!(s.points.iter().all(|pt| pt.e2e_ms.n > 0 && pt.e2e_ms.mean > 0.0), "{p}");
    }
}

#[test]
fn fig12_renders() {
    non_trivial(fig12::run(&fig12::Fig12Config::quick()).to_string());
}

#[test]
fn fig13_renders() {
    non_trivial(fig13::run_uplink_caps(&fig13::UplinkCapsConfig::quick()).to_string());
    non_trivial(fig13::run_tcp_priority(&fig13::TcpPriorityConfig::quick()).to_string());
}

#[test]
fn disruption_renders() {
    let cfg = disruption::DisruptionConfig {
        latencies_ms: vec![100],
        losses_pct: vec![10.0],
        actions: 4,
        seed: 5,
    };
    non_trivial(disruption::run(PlatformId::Worlds, &cfg).to_string());
}

#[test]
fn ablations_render() {
    let cfg = ablations::AblationConfig {
        user_counts: vec![2, 4],
        trials: 1,
        duration_s: 25,
        video_mbps: 8.0,
        seed: 5,
    };
    non_trivial(ablations::remote_rendering(&cfg).to_string());
    assert_eq!(ablations::embodiment_cost_curve().len(), 6);
}
