//! The experiment registry: every paper artefact, expanded into units.
//!
//! One [`Experiment`] per module in `svr-core::experiments`, in paper
//! order. Each experiment's `build_units` slices the work along axes
//! whose per-trial seeds are value-derived (platform id, user count,
//! trial index), so the parallel merge reproduces the sequential run bit
//! for bit — see `experiment.rs`.
//!
//! A registry entry owns two jobs: picking the experiment's fidelity
//! preset (`Config::full()` / `Config::quick()`, reseeded through
//! [`RunCtx::reseed`]) and serializing the report structs into the
//! dependency-free [`Json`] model.

use crate::experiment::{Experiment, RunCtx, UnitResult, WorkUnit};
use crate::json::{arr, Json};
use svr_core::experiments::{
    ablations, disruption, fig11, fig12, fig13, fig2, fig3, fig6, fig7, fig8, fig9, table1,
    table2, table3, table4, takeaways, vantage, viewport,
};
use svr_core::Summary;
use svr_platform::{PlatformConfig, PlatformId};

/// All registered experiments, in paper order.
pub fn all() -> Vec<Experiment> {
    vec![
        Experiment {
            name: "table1",
            artefact: "Table 1: feature matrix of the five platforms",
            header: None,
            build_units: units_table1,
        },
        Experiment {
            name: "table2",
            artefact: "Table 2: control/data channel protocols, locations, ownership",
            header: None,
            build_units: units_table2,
        },
        Experiment {
            name: "vantage",
            artefact: "§4.2: server RTTs from geographically spread vantage points",
            header: None,
            build_units: units_vantage,
        },
        Experiment {
            name: "fig2",
            artefact: "Fig. 2: control vs data channel rate timelines around a join",
            header: None,
            build_units: units_fig2,
        },
        Experiment {
            name: "table3",
            artefact: "Table 3: steady-state streaming rates and avatar overhead",
            header: Some("Table 3: up/down rates (Kbps, mean/std) and avatar overhead"),
            build_units: units_table3,
        },
        Experiment {
            name: "fig3",
            artefact: "Fig. 3: uplink/downlink correlation on Rec Room and Worlds",
            header: None,
            build_units: units_fig3,
        },
        Experiment {
            name: "fig6",
            artefact: "Fig. 6: downlink reaction to visibility changes (Exp. 1 & 2)",
            header: None,
            build_units: units_fig6,
        },
        Experiment {
            name: "viewport",
            artefact: "§5.3: viewport-dependent delivery probe (AltspaceVR)",
            header: None,
            build_units: units_viewport,
        },
        Experiment {
            name: "fig7",
            artefact: "Fig. 7: downlink, FPS and staleness vs user count",
            header: None,
            build_units: units_fig7,
        },
        Experiment {
            name: "fig8",
            artefact: "Fig. 8: CPU/GPU utilisation and memory vs user count",
            header: Some("Fig. 8: CPU/GPU/memory vs users"),
            build_units: units_fig8,
        },
        Experiment {
            name: "fig9",
            artefact: "Fig. 9: Hubs browser-client scaling (downlink and FPS)",
            header: None,
            build_units: units_fig9,
        },
        Experiment {
            name: "table4",
            artefact: "Table 4: end-to-end latency breakdown (sender/server/receiver)",
            header: Some("Table 4: E2E latency and breakdown (ms, mean/std)"),
            build_units: units_table4,
        },
        Experiment {
            name: "fig11",
            artefact: "Fig. 11: end-to-end action latency vs user count",
            header: Some("Fig. 11: E2E latency vs users (ms, mean±ci95)"),
            build_units: units_fig11,
        },
        Experiment {
            name: "fig12",
            artefact: "Fig. 12: staged downlink bandwidth caps (QoE under throttling)",
            header: None,
            build_units: units_fig12,
        },
        Experiment {
            name: "fig13",
            artefact: "Fig. 13: staged uplink caps and TCP control-channel priority",
            header: None,
            build_units: units_fig13,
        },
        Experiment {
            name: "disruption",
            artefact: "§7.2: added latency and random loss disruption sweeps",
            header: None,
            build_units: units_disruption,
        },
        Experiment {
            name: "ablations",
            artefact: "§8: remote rendering, P2P scaling, device independence, embodiment",
            header: None,
            build_units: units_ablations,
        },
        Experiment {
            name: "takeaways",
            artefact: "§9: the paper's claims checked against the simulation",
            header: None,
            build_units: units_takeaways,
        },
        Experiment {
            name: "world",
            artefact: "sharded multi-room world: cross-shard hops/transfers/presence per policy",
            header: Some("world: sharded multi-room runs (one row per forwarding policy)"),
            build_units: units_world,
        },
    ]
}

/// Look up one experiment by registry name.
pub fn find(name: &str) -> Option<Experiment> {
    all().into_iter().find(|e| e.name == name)
}

// ---------------------------------------------------------------------
// Shared serializers
// ---------------------------------------------------------------------

fn summary(s: &Summary) -> Json {
    Json::obj()
        .set("mean", s.mean)
        .set("std", s.std)
        .set("ci95", s.ci95)
        .set("n", s.n)
}

fn farr(values: &[f64]) -> Json {
    arr(values.iter().copied())
}

fn platform_label(p: PlatformId) -> String {
    format!("{p:?}")
}

// ---------------------------------------------------------------------
// Tables 1 & 2, vantage
// ---------------------------------------------------------------------

fn units_table1(_ctx: &RunCtx) -> Vec<WorkUnit> {
    vec![WorkUnit::new("table1/all", move || {
        let report = table1::run();
        let rows = report
            .rows
            .iter()
            .map(|r| {
                Json::obj()
                    .set("platform", platform_label(r.platform))
                    .set("company", r.company)
                    .set("released", r.released)
                    .set("locomotion", arr(r.locomotion.iter().map(|l| format!("{l:?}"))))
                    .set("facial_expression", r.facial_expression)
                    .set("personal_space", r.personal_space)
                    .set("games", r.games)
                    .set("share_screen", r.share_screen)
                    .set("shopping", r.shopping)
                    .set("nft", r.nft)
            })
            .collect();
        UnitResult {
            json: Json::obj()
                .set("rows", Json::Arr(rows))
                .set("consistency_errors", arr(report.consistency_errors.iter().cloned())),
            display: format!("{report}"),
            trials: 1,
        }
    })]
}

fn units_table2(ctx: &RunCtx) -> Vec<WorkUnit> {
    let mut cfg = if ctx.full() { table2::Table2Config::full() } else { table2::Table2Config::quick() };
    cfg.seed = ctx.reseed(cfg.seed);
    vec![WorkUnit::new("table2/all", move || {
        let report = table2::run(cfg);
        let rows = report
            .rows
            .iter()
            .map(|r| {
                Json::obj()
                    .set("platform", platform_label(r.platform))
                    .set("channel", format!("{:?}", r.channel))
                    .set("protocol", r.protocol.clone())
                    .set("location", r.location.clone())
                    .set("owner", format!("{}", r.owner))
                    .set("anycast", r.anycast)
                    .set("rtt_ms", summary(&r.rtt))
            })
            .collect();
        UnitResult {
            json: Json::obj().set("rows", Json::Arr(rows)),
            display: format!("{report}"),
            trials: 1,
        }
    })]
}

fn units_vantage(_ctx: &RunCtx) -> Vec<WorkUnit> {
    vec![WorkUnit::new("vantage/all", move || {
        let report = vantage::run();
        let rows = report
            .rows
            .iter()
            .map(|r| {
                let rtts = r
                    .rtts
                    .iter()
                    .map(|(site, rtt)| {
                        Json::obj()
                            .set("site", format!("{site}"))
                            .set("rtt_ms", rtt.map(Json::Num).unwrap_or(Json::Null))
                    })
                    .collect();
                Json::obj()
                    .set("platform", platform_label(r.platform))
                    .set("channel", format!("{:?}", r.channel))
                    .set("rtts", Json::Arr(rtts))
            })
            .collect();
        UnitResult {
            json: Json::obj()
                .set("vantages", arr(report.vantages.iter().map(|s| format!("{s}"))))
                .set("rows", Json::Arr(rows)),
            display: format!("{report}"),
            trials: 1,
        }
    })]
}

// ---------------------------------------------------------------------
// Rate timelines: fig2, fig3, fig6, viewport
// ---------------------------------------------------------------------

fn units_fig2(ctx: &RunCtx) -> Vec<WorkUnit> {
    let mut cfg = if ctx.full() { fig2::Fig2Config::full() } else { fig2::Fig2Config::quick() };
    cfg.seed = ctx.reseed(cfg.seed);
    PlatformId::ALL
        .into_iter()
        .map(|p| {
            WorkUnit::new(format!("fig2/{}", platform_label(p)), move || {
                let rep = fig2::run(p, cfg);
                UnitResult {
                    json: Json::obj()
                        .set("platform", platform_label(rep.platform))
                        .set("event_at_s", rep.event_at.as_secs_f64())
                        .set("control_up_kbps", farr(&rep.control_up.kbps))
                        .set("control_down_kbps", farr(&rep.control_down.kbps))
                        .set("data_up_kbps", farr(&rep.data_up.kbps))
                        .set("data_down_kbps", farr(&rep.data_down.kbps)),
                    display: format!("{rep}"),
                    trials: 1,
                }
            })
        })
        .collect()
}

fn units_fig3(ctx: &RunCtx) -> Vec<WorkUnit> {
    let mut cfg = if ctx.full() { fig3::Fig3Config::full() } else { fig3::Fig3Config::quick() };
    cfg.seed = ctx.reseed(cfg.seed);
    [PlatformId::RecRoom, PlatformId::Worlds]
        .into_iter()
        .map(|p| {
            WorkUnit::new(format!("fig3/{}", platform_label(p)), move || {
                let rep = fig3::run(p, cfg);
                UnitResult {
                    json: Json::obj()
                        .set("platform", platform_label(rep.platform))
                        .set("correlation", rep.correlation),
                    display: format!("{rep}"),
                    trials: 1,
                }
            })
        })
        .collect()
}

fn units_fig6(ctx: &RunCtx) -> Vec<WorkUnit> {
    let mut cfg = if ctx.full() { fig6::Fig6Config::full() } else { fig6::Fig6Config::quick() };
    cfg.seed = ctx.reseed(cfg.seed);
    let mut cases: Vec<(PlatformId, fig6::Variant)> = PlatformId::ALL
        .into_iter()
        .map(|p| (p, fig6::Variant::VisibleThenAway))
        .collect();
    cases.push((PlatformId::AltspaceVr, fig6::Variant::AwayThenVisible));
    cases
        .into_iter()
        .map(|(p, variant)| {
            WorkUnit::new(
                format!("fig6/{}/{:?}", platform_label(p), variant),
                move || {
                    let rep = fig6::run(p, variant, cfg);
                    let mut display = format!("{rep}");
                    if variant == fig6::Variant::VisibleThenAway {
                        display.push_str(&format!(
                            "  downlink before turn {:.1} Kbps → after turn {:.1} Kbps\n",
                            rep.down_before_turn(),
                            rep.down_after_turn()
                        ));
                    }
                    UnitResult {
                        json: Json::obj()
                            .set("platform", platform_label(rep.platform))
                            .set("variant", format!("{:?}", rep.variant))
                            .set("turn_s", rep.turn_s)
                            .set("join_times_s", arr(rep.join_times_s.iter().copied()))
                            .set("down_kbps", farr(&rep.down.kbps))
                            .set("up_kbps", farr(&rep.up.kbps))
                            .set("down_before_turn_kbps", rep.down_before_turn())
                            .set("down_after_turn_kbps", rep.down_after_turn()),
                        display,
                        trials: 1,
                    }
                },
            )
        })
        .collect()
}

fn units_viewport(ctx: &RunCtx) -> Vec<WorkUnit> {
    let mut cfg =
        if ctx.full() { viewport::ViewportConfig::full() } else { viewport::ViewportConfig::quick() };
    cfg.seed = ctx.reseed(cfg.seed);
    vec![WorkUnit::new("viewport/AltspaceVr", move || {
        let rep = viewport::run(PlatformId::AltspaceVr, cfg);
        UnitResult {
            json: Json::obj()
                .set("platform", "AltspaceVr")
                .set("per_heading_kbps", farr(&rep.per_heading_kbps))
                .set("visible_headings", rep.visible_headings)
                .set("estimated_width_deg", rep.estimated_width_deg)
                .set("max_saving", rep.max_saving),
            display: format!("{rep}"),
            trials: 1,
        }
    })]
}

// ---------------------------------------------------------------------
// Scaling sweeps: fig7, fig8, fig9
// ---------------------------------------------------------------------

fn scaling_config(ctx: &RunCtx) -> fig7::ScalingConfig {
    let mut cfg = if ctx.full() { fig7::ScalingConfig::full() } else { fig7::ScalingConfig::quick() };
    cfg.seed = ctx.reseed(cfg.seed);
    cfg
}

fn scale_points(rep: &fig7::ScalingReport) -> Json {
    Json::Arr(
        rep.points
            .iter()
            .map(|pt| {
                Json::obj()
                    .set("users", pt.users)
                    .set("down_kbps", summary(&pt.down_kbps))
                    .set("fps", summary(&pt.fps))
                    .set("stale", summary(&pt.stale))
                    .set("cpu_pct", summary(&pt.cpu))
                    .set("gpu_pct", summary(&pt.gpu))
                    .set("memory_mb", summary(&pt.memory_mb))
            })
            .collect(),
    )
}

fn units_fig7(ctx: &RunCtx) -> Vec<WorkUnit> {
    let cfg = scaling_config(ctx);
    let trials = cfg.trials as u64 * cfg.user_counts.len() as u64;
    PlatformId::ALL
        .into_iter()
        .map(|p| {
            let cfg = cfg.clone();
            WorkUnit::new(format!("fig7/{}", platform_label(p)), move || {
                let rep = fig7::run(p, &cfg);
                UnitResult {
                    json: Json::obj()
                        .set("platform", platform_label(rep.platform))
                        .set("points", scale_points(&rep)),
                    display: format!("{rep}"),
                    trials,
                }
            })
        })
        .collect()
}

fn units_fig8(ctx: &RunCtx) -> Vec<WorkUnit> {
    // Fig. 8 reads the same sweep as Fig. 7 (one set of runs in the
    // paper), so each unit reruns one platform's sweep and reports the
    // resource columns.
    let cfg = scaling_config(ctx);
    let trials = cfg.trials as u64 * cfg.user_counts.len() as u64;
    PlatformId::ALL
        .into_iter()
        .map(|p| {
            let cfg = cfg.clone();
            WorkUnit::new(format!("fig8/{}", platform_label(p)), move || {
                let rep = fig7::run(p, &cfg);
                let (first, last) = fig8::ends(&rep);
                UnitResult {
                    json: Json::obj()
                        .set("platform", platform_label(rep.platform))
                        .set("cpu_growth_pct", last.cpu.mean - first.cpu.mean)
                        .set("gpu_growth_pct", last.gpu.mean - first.gpu.mean)
                        .set("memory_growth_mb", last.memory_mb.mean - first.memory_mb.mean)
                        .set("points", scale_points(&rep)),
                    display: fig8::row(&rep),
                    trials,
                }
            })
        })
        .collect()
}

fn units_fig9(ctx: &RunCtx) -> Vec<WorkUnit> {
    let mut cfg = if ctx.full() { fig9::Fig9Config::full() } else { fig9::Fig9Config::quick() };
    cfg.seed = ctx.reseed(cfg.seed);
    let trials = cfg.trials as u64 * cfg.user_counts.len() as u64;
    vec![WorkUnit::new("fig9/Hubs", move || {
        let rep = fig9::run(&cfg);
        let points = rep
            .points
            .iter()
            .map(|pt| {
                Json::obj()
                    .set("users", pt.users)
                    .set("down_mbps", summary(&pt.down_mbps))
                    .set("fps", summary(&pt.fps))
            })
            .collect();
        UnitResult {
            json: Json::obj().set("points", Json::Arr(points)),
            display: format!("{rep}"),
            trials,
        }
    })]
}

// ---------------------------------------------------------------------
// Table 3 & 4, fig11: per-platform latency / rate rows
// ---------------------------------------------------------------------

fn units_table3(ctx: &RunCtx) -> Vec<WorkUnit> {
    let mut cfg = if ctx.full() { table3::Table3Config::full() } else { table3::Table3Config::quick() };
    cfg.seed = ctx.reseed(cfg.seed);
    let trials = cfg.trials as u64;
    PlatformId::ALL
        .into_iter()
        .map(|p| {
            WorkUnit::new(format!("table3/{}", platform_label(p)), move || {
                let row = table3::run_platform(p, cfg);
                let (paper_up, paper_down, paper_avatar) = table3::paper_values(p);
                let display = format!(
                    "  {:<11} up {:>12} down {:>12} res {:>9} avatar {:>10}  (paper {:.1}/{:.1}/{:.1})\n",
                    row.platform.to_string(),
                    row.up.cell(),
                    row.down.cell(),
                    row.resolution.to_string(),
                    row.avatar.cell(),
                    paper_up,
                    paper_down,
                    paper_avatar,
                );
                UnitResult {
                    json: Json::obj()
                        .set("platform", platform_label(row.platform))
                        .set("up_kbps", summary(&row.up))
                        .set("down_kbps", summary(&row.down))
                        .set("resolution", row.resolution.to_string())
                        .set("avatar_kbps", summary(&row.avatar))
                        .set(
                            "paper",
                            Json::obj()
                                .set("up_kbps", paper_up)
                                .set("down_kbps", paper_down)
                                .set("avatar_kbps", paper_avatar),
                        ),
                    display,
                    trials,
                }
            })
        })
        .collect()
}

fn units_table4(ctx: &RunCtx) -> Vec<WorkUnit> {
    let mut cfg = if ctx.full() { table4::Table4Config::full() } else { table4::Table4Config::quick() };
    cfg.seed = ctx.reseed(cfg.seed);
    let trials = cfg.trials as u64;
    // Fixed configuration order (the sequential `table4::run` sorts rows
    // by measured E2E for presentation; the artifact keeps config order
    // so unit slicing stays trivially deterministic).
    type ConfigCtor = fn() -> PlatformConfig;
    let rows: Vec<(&'static str, ConfigCtor)> = vec![
        ("Rec Room", PlatformConfig::recroom),
        ("VRChat", PlatformConfig::vrchat),
        ("Worlds", PlatformConfig::worlds),
        ("AltspaceVR", PlatformConfig::altspace),
        ("Hubs", PlatformConfig::hubs),
        ("Hubs*", PlatformConfig::private_hubs),
    ];
    rows.into_iter()
        .map(|(label, pcfg)| {
            WorkUnit::new(format!("table4/{label}"), move || {
                let row = table4::run_config(label, pcfg(), cfg);
                let b = &row.breakdown;
                let paper = table4::paper_values(&row.label);
                let display = format!(
                    "  {:<11} E2E {:>11} sender {:>11} receiver {:>11} server {:>11}{}\n",
                    row.label,
                    b.e2e.cell(),
                    b.sender.cell(),
                    b.receiver.cell(),
                    b.server.cell(),
                    paper.map(|p| format!("  (paper E2E {:.1})", p.0)).unwrap_or_default(),
                );
                let paper_json = match paper {
                    Some((e2e, sender, receiver, server)) => Json::obj()
                        .set("e2e_ms", e2e)
                        .set("sender_ms", sender)
                        .set("receiver_ms", receiver)
                        .set("server_ms", server),
                    None => Json::Null,
                };
                UnitResult {
                    json: Json::obj()
                        .set("label", row.label.clone())
                        .set("e2e_ms", summary(&b.e2e))
                        .set("sender_ms", summary(&b.sender))
                        .set("receiver_ms", summary(&b.receiver))
                        .set("server_ms", summary(&b.server))
                        .set("network_est_ms", b.network_est_ms)
                        .set("paper", paper_json),
                    display,
                    trials,
                }
            })
        })
        .collect()
}

fn units_fig11(ctx: &RunCtx) -> Vec<WorkUnit> {
    let mut cfg = if ctx.full() { fig11::Fig11Config::full() } else { fig11::Fig11Config::quick() };
    cfg.seed = ctx.reseed(cfg.seed);
    let trials = cfg.trials as u64 * cfg.user_counts.len() as u64;
    PlatformId::ALL
        .into_iter()
        .map(|p| {
            let cfg = cfg.clone();
            WorkUnit::new(format!("fig11/{}", platform_label(p)), move || {
                let series = fig11::run(p, &cfg);
                let cells: Vec<String> = series
                    .points
                    .iter()
                    .map(|pt| format!("{}u {:.1}±{:.1}", pt.users, pt.e2e_ms.mean, pt.e2e_ms.ci95))
                    .collect();
                let display =
                    format!("  {:<11} {}\n", series.platform.to_string(), cells.join("   "));
                let points = series
                    .points
                    .iter()
                    .map(|pt| Json::obj().set("users", pt.users).set("e2e_ms", summary(&pt.e2e_ms)))
                    .collect();
                UnitResult {
                    json: Json::obj()
                        .set("platform", platform_label(series.platform))
                        .set("points", Json::Arr(points))
                        .set("deltas_ms", farr(&series.deltas())),
                    display,
                    trials,
                }
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Impairment schedules: fig12, fig13, disruption
// ---------------------------------------------------------------------

fn units_fig12(ctx: &RunCtx) -> Vec<WorkUnit> {
    let mut cfg = if ctx.full() { fig12::Fig12Config::full() } else { fig12::Fig12Config::quick() };
    cfg.seed = ctx.reseed(cfg.seed);
    vec![WorkUnit::new("fig12/VrChat", move || {
        let rep = fig12::run(&cfg);
        UnitResult {
            json: Json::obj()
                .set("stages_mbps", farr(&rep.stages_mbps))
                .set("stage_s", rep.stage_s)
                .set("start_s", rep.start_s)
                .set("up_mbps", farr(&rep.up_mbps))
                .set("down_mbps", farr(&rep.down_mbps))
                .set("cpu_pct", farr(&rep.cpu))
                .set("gpu_pct", farr(&rep.gpu))
                .set("fps", farr(&rep.fps))
                .set("stale", farr(&rep.stale)),
            display: format!("{rep}"),
            trials: 1,
        }
    })]
}

fn fig13_json(rep: &fig13::Fig13Report) -> Json {
    Json::obj()
        .set("udp_up_kbps", farr(&rep.udp_up))
        .set("tcp_up_kbps", farr(&rep.tcp_up))
        .set("udp_down_kbps", farr(&rep.udp_down))
        .set("frozen_at_s", rep.frozen_at_s.map(Json::U64).unwrap_or(Json::Null))
        .set("countdown_went_stale", rep.countdown_went_stale)
}

fn units_fig13(ctx: &RunCtx) -> Vec<WorkUnit> {
    let mut caps =
        if ctx.full() { fig13::UplinkCapsConfig::full() } else { fig13::UplinkCapsConfig::quick() };
    caps.seed = ctx.reseed(caps.seed);
    let mut tcp =
        if ctx.full() { fig13::TcpPriorityConfig::full() } else { fig13::TcpPriorityConfig::quick() };
    tcp.seed = ctx.reseed(tcp.seed);
    vec![
        WorkUnit::new("fig13/uplink_caps", move || {
            let rep = fig13::run_uplink_caps(&caps);
            UnitResult { json: fig13_json(&rep), display: format!("{rep}"), trials: 1 }
        }),
        WorkUnit::new("fig13/tcp_priority", move || {
            let rep = fig13::run_tcp_priority(&tcp);
            UnitResult { json: fig13_json(&rep), display: format!("{rep}"), trials: 1 }
        }),
    ]
}

fn units_disruption(ctx: &RunCtx) -> Vec<WorkUnit> {
    let mut cfg =
        if ctx.full() { disruption::DisruptionConfig::full() } else { disruption::DisruptionConfig::quick() };
    cfg.seed = ctx.reseed(cfg.seed);
    [PlatformId::Worlds, PlatformId::RecRoom, PlatformId::VrChat]
        .into_iter()
        .map(|p| {
            let cfg = cfg.clone();
            WorkUnit::new(format!("disruption/{}", platform_label(p)), move || {
                let rep = disruption::run(p, &cfg);
                let latency = rep
                    .latency
                    .iter()
                    .map(|pt| {
                        Json::obj()
                            .set("added_ms", pt.added_ms)
                            .set("e2e_ms", summary(&pt.e2e_ms))
                            .set("game_degraded", pt.game_degraded)
                    })
                    .collect();
                let loss = rep
                    .loss
                    .iter()
                    .map(|pt| {
                        Json::obj()
                            .set("loss_pct", pt.loss_pct)
                            .set("delivery_ratio", pt.delivery_ratio)
                            .set("fps", pt.fps)
                            .set("p95_pop_m", pt.p95_pop_m)
                    })
                    .collect();
                UnitResult {
                    json: Json::obj()
                        .set("platform", platform_label(rep.platform))
                        .set("baseline_e2e_ms", summary(&rep.baseline_e2e_ms))
                        .set("latency", Json::Arr(latency))
                        .set("loss", Json::Arr(loss)),
                    display: format!("{rep}"),
                    trials: 1,
                }
            })
        })
        .collect()
}

// ---------------------------------------------------------------------
// Ablations & takeaways
// ---------------------------------------------------------------------

fn units_ablations(ctx: &RunCtx) -> Vec<WorkUnit> {
    let mut cfg =
        if ctx.full() { ablations::AblationConfig::full() } else { ablations::AblationConfig::quick() };
    cfg.seed = ctx.reseed(cfg.seed);
    let di_seed = ctx.reseed(0xD11CE);
    let trials = cfg.trials as u64 * cfg.user_counts.len() as u64;
    let remote_cfg = cfg.clone();
    let p2p_cfg = cfg;
    vec![
        WorkUnit::new("ablations/remote_rendering", move || {
            let rep = ablations::remote_rendering(&remote_cfg);
            let points = rep
                .points
                .iter()
                .map(|pt| {
                    Json::obj()
                        .set("users", pt.users)
                        .set("direct_mbps", summary(&pt.direct_mbps))
                        .set("remote_mbps", summary(&pt.remote_mbps))
                        .set("direct_fps", summary(&pt.direct_fps))
                        .set("remote_fps", summary(&pt.remote_fps))
                })
                .collect();
            UnitResult {
                json: Json::obj()
                    .set("video_mbps", rep.video_mbps)
                    .set("points", Json::Arr(points)),
                display: format!("{rep}"),
                trials,
            }
        }),
        WorkUnit::new("ablations/p2p_scaling", move || {
            let rep = ablations::p2p_scaling(&p2p_cfg);
            let points = rep
                .points
                .iter()
                .map(|pt| {
                    Json::obj()
                        .set("users", pt.users)
                        .set("cs_up_kbps", pt.cs_up_kbps)
                        .set("cs_down_kbps", pt.cs_down_kbps)
                        .set("p2p_up_kbps", pt.p2p_up_kbps)
                        .set("p2p_down_kbps", pt.p2p_down_kbps)
                })
                .collect();
            UnitResult {
                json: Json::obj().set("points", Json::Arr(points)),
                display: format!("{rep}"),
                trials,
            }
        }),
        WorkUnit::new("ablations/device_independence", move || {
            let di = ablations::device_independence(di_seed);
            let display = format!(
                "§5.1 device independence: Quest 2 uplink {:.1} Kbps == PC uplink {:.1} Kbps;\nQuest FPS {:.1} (of 72) vs PC FPS {:.1} (of 60)\n",
                di.quest_up_kbps, di.pc_up_kbps, di.quest_fps, di.pc_fps
            );
            UnitResult {
                json: Json::obj()
                    .set("quest_up_kbps", di.quest_up_kbps)
                    .set("pc_up_kbps", di.pc_up_kbps)
                    .set("quest_fps", di.quest_fps)
                    .set("pc_fps", di.pc_fps),
                display,
                trials: 2,
            }
        }),
        WorkUnit::new("ablations/embodiment_cost_curve", move || {
            let curve = ablations::embodiment_cost_curve();
            let mut display =
                String::from("Implication-2 embodiment cost curve (per-avatar Kbps at 30 Hz):\n");
            for (name, kbps) in &curve {
                display.push_str(&format!("  {name:<24} {kbps:>9.1}\n"));
            }
            let points = curve
                .iter()
                .map(|(name, kbps)| {
                    Json::obj().set("embodiment", name.clone()).set("kbps", *kbps)
                })
                .collect();
            UnitResult {
                json: Json::obj().set("curve", Json::Arr(points)),
                display,
                trials: 1,
            }
        }),
    ]
}

// ---------------------------------------------------------------------
// Sharded world (svr-world)
// ---------------------------------------------------------------------

fn units_world(ctx: &RunCtx) -> Vec<WorkUnit> {
    // One unit per forwarding policy. Each unit runs its world on a
    // fixed *internal* shard pool (`jobs = 2` inside the unit, set by
    // the presets), independent of the harness `--jobs` — the ordered
    // commit makes the report identical either way, which is exactly
    // what the determinism gate checks.
    let seed = ctx.reseed(0x0057_4F52_4C44);
    let full = ctx.full();
    svr_world::policies()
        .into_iter()
        .map(|(label, policy)| {
            WorkUnit::new(format!("world/{label}"), move || {
                let cfg = if full {
                    svr_world::WorldConfig::full(seed, policy)
                } else {
                    svr_world::WorldConfig::quick(seed, policy)
                };
                let ticks = cfg.ticks;
                let rep = svr_world::World::run(cfg);
                UnitResult {
                    json: Json::obj()
                        .set("policy", rep.policy)
                        .set("rooms", rep.rooms)
                        .set("users_per_room", rep.users_per_room)
                        .set("worlds", rep.worlds)
                        .set("ticks", rep.ticks)
                        .set("messages", rep.stats.messages)
                        .set("forwards", rep.forwards)
                        .set("hops", rep.stats.hops)
                        .set("transfers", rep.stats.transfers)
                        .set("presence_sent", rep.stats.presence_sent)
                        .set("presence_delivered", rep.stats.presence_delivered)
                        .set("presence_dropped", rep.stats.presence_dropped)
                        .set("client_rx", rep.client_rx)
                        .set("per_tick_facts", arr(rep.per_tick_facts.iter().copied()))
                        .set("fact_digest", format!("{:016x}", rep.stats.fact_digest)),
                    display: format!("{rep}"),
                    trials: ticks,
                }
            })
        })
        .collect()
}

fn units_takeaways(_ctx: &RunCtx) -> Vec<WorkUnit> {
    vec![WorkUnit::new("takeaways/all", move || {
        let report = takeaways::run();
        let claims = report
            .claims
            .iter()
            .map(|c| {
                Json::obj()
                    .set("source", c.source)
                    .set("claim", c.claim)
                    .set("holds", c.holds)
                    .set("evidence", c.evidence.clone())
            })
            .collect();
        UnitResult {
            json: Json::obj().set("claims", Json::Arr(claims)),
            display: format!("{report}"),
            trials: 1,
        }
    })]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Fidelity;

    /// Every `pub mod` in `svr-core::experiments` must be covered by a
    /// registry entry, so nothing the crate can reproduce is silently
    /// missing from `--list` and the artifact set.
    #[test]
    fn registry_covers_every_experiment_module() {
        let mod_rs = include_str!("../../core/src/experiments/mod.rs");
        let registered = all();
        for line in mod_rs.lines() {
            let line = line.trim();
            let Some(module) = line.strip_prefix("pub mod ").and_then(|m| m.strip_suffix(';'))
            else {
                continue;
            };
            let covered = registered.iter().any(|e| e.name == module);
            assert!(covered, "experiment module `{module}` has no registry entry");
        }
    }

    #[test]
    fn names_are_unique_and_find_works() {
        let exps = all();
        for (i, e) in exps.iter().enumerate() {
            assert!(
                exps.iter().skip(i + 1).all(|other| other.name != e.name),
                "duplicate registry name {}",
                e.name
            );
            assert!(find(e.name).is_some());
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn every_experiment_builds_at_least_one_unit() {
        let ctx = RunCtx { fidelity: Fidelity::Quick, seed: 0 };
        for exp in all() {
            let units = (exp.build_units)(&ctx);
            assert!(!units.is_empty(), "{} built no units", exp.name);
            for unit in &units {
                assert!(
                    unit.label.starts_with(exp.name),
                    "{}: unit label {} should be prefixed with the experiment name",
                    exp.name,
                    unit.label
                );
            }
        }
    }
}
