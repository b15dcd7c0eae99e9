//! # svr-geo
//!
//! A geographic model of the Internet infrastructure behind the five
//! social VR platforms, reproducing the §4.2 methodology of the paper:
//!
//! * [`coords`] — great-circle distances and a calibrated
//!   distance-to-RTT model (speed of light in fibre plus path inflation);
//! * [`sites`] — the vantage points and datacenter locations that matter
//!   to the study (US east/west coasts, Europe, the Middle East);
//! * [`pools`] — per-platform server pools with unicast or anycast
//!   addressing and load-balanced instance assignment;
//! * [`mod@traceroute`] — synthetic forward paths (access → metro →
//!   backbone → PoP edge → server) with per-hop RTTs;
//! * [`detect`] — the paper's anycast-detection algorithm: compare RTTs
//!   from three vantage points and the IP paths right before the target;
//! * [`whois`] — prefix-to-owner lookup ("rent servers from Cloudflare /
//!   AWS / ANS", Table 2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coords;
pub mod detect;
pub mod pools;
pub mod sites;
pub mod traceroute;
pub mod whois;

pub use coords::{distance_km, rtt_between, GeoPoint};
pub use detect::{detect_anycast, AnycastVerdict};
pub use pools::{Addressing, Assignment, ServerPool};
pub use sites::{Region, Site, SiteId};
pub use traceroute::{traceroute, Hop, TraceResult};
pub use whois::{Owner, WhoisDb};
