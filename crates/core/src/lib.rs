//! # svr-core
//!
//! The paper's actual contribution, as a library: the measurement
//! methodology of *"Are We Ready for Metaverse? A Measurement Study of
//! Social Virtual Reality Platforms"* (IMC 2022), run against the
//! simulated platform ecosystem in [`svr_platform`].
//!
//! * [`stats`] — multi-trial statistics (mean, σ, 95 % CI), matching the
//!   "averaged results from more than 20 experiments" protocol of §3.2;
//! * [`analysis`] — the Wireshark-trace analysis: channel classification,
//!   windowed throughput series, and the §5.2 mute-join differencing that
//!   isolates avatar traffic;
//! * [`latency`] — end-to-end latency aggregation and the
//!   sender/server/receiver breakdown of Table 4;
//! * [`report`] — plain-text table rendering for the reproduced rows;
//! * [`experiments`] — one module per table and figure of the paper's
//!   evaluation, each regenerating its rows/series.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod experiments;
pub mod latency;
pub mod report;
pub mod stats;

pub use stats::Summary;
