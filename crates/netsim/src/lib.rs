//! # svr-netsim
//!
//! A deterministic, single-threaded, discrete-event network simulator.
//!
//! This crate is the substrate for reproducing the measurement study
//! *"Are We Ready for Metaverse?"* (IMC 2022). It plays the role that the
//! physical campus network, WiFi access points, and `tc-netem` played in
//! the paper: it moves packets between nodes over links with configurable
//! bandwidth, propagation delay, drop-tail queues, random loss, and staged
//! impairment schedules, while a capture tap (the "Wireshark on the AP")
//! records every packet that crosses a vantage point.
//!
//! ## Design
//!
//! Following the event-driven, poll-based ethos of stacks like smoltcp,
//! the simulator does **not** own the program's event loop. Higher layers
//! (transport state machines, platform applications) are polled by a
//! driver that interleaves network deliveries with application timers:
//!
//! ```
//! use svr_netsim::{Network, NodeKind, LinkSpec, Packet, TransportHeader, Proto, SimTime};
//! use svr_netsim::buf::Bytes;
//!
//! let mut net = Network::new(42);
//! let a = net.add_node("U1", NodeKind::Headset);
//! let b = net.add_node("AP", NodeKind::AccessPoint);
//! net.add_duplex_link(a, b, LinkSpec::wifi(), LinkSpec::wifi());
//!
//! let hdr = TransportHeader::datagram(Proto::Udp, 5000, 6000);
//! net.send(a, b, Packet::new(hdr, Bytes::from_static(b"hello")));
//! let delivery = net.poll(SimTime::from_secs(1)).expect("delivered");
//! assert_eq!(delivery.dst, b);
//! ```
//!
//! Everything is deterministic: the same seed yields the same packet
//! trace, byte for byte, which is what makes the experiment reproductions
//! in `svr-core` meaningful.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod buf;
pub mod capture;
pub mod counters;
pub mod flow;
pub mod link;
pub mod netem;
pub mod network;
pub mod node;
pub mod packet;
pub mod queue;
pub mod rng;
pub mod time;
pub mod units;

pub use buf::{Bytes, BytesMut};
pub use capture::{CaptureRecord, CaptureTap, Direction};
pub use flow::FlowKey;
pub use link::{Link, LinkId, LinkSpec};
pub use netem::{Impairment, NetemSchedule, NetemStage};
pub use network::{Delivery, Network};
pub use node::{NodeId, NodeKind};
pub use packet::{Packet, Proto, TcpFlags, TransportHeader};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use units::{Bitrate, ByteSize};
