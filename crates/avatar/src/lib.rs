//! # svr-avatar
//!
//! The avatar-embodiment substrate for the social-VR platform models.
//!
//! §5.2 of the paper shows that avatar embodiment and motion dominate the
//! platforms' continuous traffic, and that the *complexity* of the
//! embodiment (arms? facial expressions? human-like?) is the dominating
//! factor in per-avatar throughput. This crate makes that relationship
//! mechanical: each platform's embodiment selects a joint set, facial
//! blendshape count, and codec precision; the wire codec then yields the
//! honest byte cost of every pose update.
//!
//! Modules:
//!
//! * [`skeleton`] — joints and poses;
//! * [`embodiment`] — per-platform embodiment profiles (Table 1 / Fig. 4);
//! * [`quant`] — position/rotation quantizers with bounded error;
//! * [`codec`] — the pose wire format (quantized or full-precision);
//! * [`motion`] — deterministic motion synthesis (idle, walk, turn);
//! * [`prediction`] — dead-reckoning of remote avatars, the motion
//!   prediction §8.2 credits for loss tolerance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod embodiment;
pub mod motion;
pub mod prediction;
pub mod quant;
pub mod skeleton;

pub use codec::{decode_update, encode_update, AvatarUpdate};
pub use embodiment::{Embodiment, Precision};
pub use motion::MotionState;
pub use prediction::DeadReckoner;
pub use skeleton::{Joint, JointPose, Pose, Vec3};
