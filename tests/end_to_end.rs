//! Cross-crate integration: sessions drive real protocol stacks; runs
//! are deterministic; channel classification separates the stacks the
//! way §4.1 describes.

use metaverse_measurement::core::analysis::{channel_records, ProtocolMix};
use metaverse_measurement::netsim::{Proto, SimDuration};
use metaverse_measurement::platform::session::run_session;
use metaverse_measurement::platform::{ChannelKind, PlatformConfig, SessionConfig};
use metaverse_measurement::PlatformId;

#[test]
fn session_runs_are_bit_deterministic() {
    let run = |seed| {
        let cfg = SessionConfig::walk_and_chat(
            PlatformConfig::worlds(),
            3,
            SimDuration::from_secs(20),
            seed,
        );
        let r = run_session(&cfg);
        (
            r.users[0].ap_records.len(),
            r.users[0].avatar_updates_received,
            r.server_stats,
            r.users[0].samples.last().map(|s| (s.cpu * 1000.0) as u64),
        )
    };
    assert_eq!(run(1), run(1));
    assert_ne!(run(1).0, run(2).0);
}

#[test]
fn channel_classification_separates_protocol_stacks() {
    for (id, expect_data_proto) in [
        (PlatformId::VrChat, Proto::Udp),
        (PlatformId::Hubs, Proto::Tcp),
    ] {
        let cfg = SessionConfig::walk_and_chat(
            PlatformConfig::of(id),
            2,
            SimDuration::from_secs(25),
            7,
        );
        let r = run_session(&cfg);
        let recs = &r.users[0].ap_records;
        let data =
            channel_records(recs, ChannelKind::Data, r.control_server_node, r.data_server_node);
        let ctl =
            channel_records(recs, ChannelKind::Control, r.control_server_node, r.data_server_node);
        assert!(!data.is_empty() && !ctl.is_empty(), "{id}");
        assert_eq!(ProtocolMix::of(&data).dominant(), Some(expect_data_proto), "{id}");
        assert_eq!(ProtocolMix::of(&ctl).dominant(), Some(Proto::Tcp), "{id} control is HTTPS");
        // Every captured packet belongs to exactly one channel.
        assert_eq!(data.len() + ctl.len(), recs.len(), "{id}");
    }
}

#[test]
fn every_platform_survives_a_crowded_session() {
    for id in PlatformId::ALL {
        let cfg = SessionConfig::walk_and_chat(
            PlatformConfig::of(id),
            6,
            SimDuration::from_secs(15),
            9,
        );
        let r = run_session(&cfg);
        assert_eq!(r.users.len(), 6);
        for (i, u) in r.users.iter().enumerate() {
            assert!(
                u.avatar_updates_received > 0,
                "{id}: user {i} received nothing"
            );
            assert!(u.frozen_at.is_none(), "{id}: user {i} froze unexpectedly");
        }
    }
}
