//! Dead-reckoning: client-side motion prediction for remote avatars.
//!
//! §8.2 observes that even 20 % packet loss is imperceptible and
//! speculates that "these platforms may compensate for the missing
//! movement data of avatars through methods such as motion prediction."
//! This module is that mechanism: between updates, a remote avatar is
//! extrapolated along its last known velocity; when the next update
//! arrives, the prediction error tells us how visible the gap would have
//! been. The error is measured at the anchor joint (root, else head), so
//! a reckoner keeps only the last anchor, not the last pose.

use crate::codec::Anchor;
use crate::skeleton::Vec3;
use svr_netsim::{SimDuration, SimTime};

/// Tracks one remote avatar and predicts its anchor between updates.
#[derive(Debug)]
pub struct DeadReckoner {
    /// Last update: arrival time, anchor position and anchor velocity.
    last: Option<(SimTime, Vec3, Option<Vec3>)>,
    /// Prediction errors measured at each update arrival (metres,
    /// anchor-position error of the extrapolation vs the truth).
    pub errors_m: Vec<f32>,
    /// Cap on extrapolation: beyond this the avatar freezes instead of
    /// drifting off (standard practice).
    pub max_extrapolation: SimDuration,
}

impl Default for DeadReckoner {
    fn default() -> Self {
        DeadReckoner {
            last: None,
            errors_m: Vec::new(),
            max_extrapolation: SimDuration::from_millis(500),
        }
    }
}

impl DeadReckoner {
    /// Create with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Predicted anchor position at `now`: the last anchor moved along
    /// its velocity, if it came with one, for the time since it arrived,
    /// capped at `max_extrapolation`.
    pub fn predict(&self, now: SimTime) -> Option<Vec3> {
        let (at, position, velocity) = self.last?;
        let dt = now.saturating_since(at).min(self.max_extrapolation).as_secs_f64() as f32;
        Some(match velocity {
            Some(v) => position + v * dt,
            None => position,
        })
    }

    /// Ingest a new update's anchor, recording how far the prediction had
    /// drifted from the now-known truth.
    pub fn observe(&mut self, now: SimTime, anchor: Anchor) {
        let truth = anchor.position();
        if let Some(predicted) = self.predict(now) {
            self.errors_m.push(truth.distance(predicted));
        }
        self.last = Some((now, truth, anchor.velocity));
    }

    /// Mean prediction error so far, metres.
    pub fn mean_error_m(&self) -> f32 {
        if self.errors_m.is_empty() {
            return 0.0;
        }
        self.errors_m.iter().sum::<f32>() / self.errors_m.len() as f32
    }

    /// 95th-percentile error, metres.
    pub fn p95_error_m(&self) -> f32 {
        if self.errors_m.is_empty() {
            return 0.0;
        }
        let mut sorted = self.errors_m.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        sorted[((sorted.len() - 1) as f32 * 0.95) as usize]
    }

    /// Whether the last update is older than the extrapolation cap (the
    /// avatar appears frozen).
    pub fn is_stale(&self, now: SimTime) -> bool {
        match &self.last {
            Some((at, _, _)) => now.saturating_since(*at) > self.max_extrapolation,
            None => true,
        }
    }
}

/// Perceptibility heuristic: a positional pop under ~12 cm between
/// consecutive frames is hard to notice on today's rough avatars (§8.2's
/// "users may not be able to perceive the difference").
pub const PERCEPTIBLE_POP_M: f32 = 0.12;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{decode_update, encode_update, make_update, read_anchor, AvatarUpdate};
    use crate::embodiment::Embodiment;
    use crate::motion::MotionState;
    use crate::skeleton::{Joint, Pose};
    use svr_netsim::SimRng;

    /// The anchor a receiver reads from `u` once it is on the wire.
    fn anchor(u: &AvatarUpdate) -> Anchor {
        read_anchor(&encode_update(u)).expect("a whole update reads")
    }

    fn walking_updates(
        hz: f64,
        seconds: f64,
        drop: impl Fn(usize) -> bool,
    ) -> (DeadReckoner, usize) {
        let e = Embodiment::upper_torso_simple_face(); // sends velocities
        let mut m = MotionState::new(3, Vec3::ZERO, 0.0);
        m.walk_to(Vec3::new(50.0, 0.0, 0.0));
        let mut r = DeadReckoner::new();
        let dt = 1.0 / hz;
        let mut dropped = 0;
        let steps = (seconds * hz) as usize;
        for k in 0..steps {
            let (pose, vel) = m.step(dt, &e);
            let update = make_update(1, k as u32, &e, pose, vel);
            let now = SimTime::from_micros((k as f64 * dt * 1e6) as u64);
            if drop(k) {
                dropped += 1;
                continue;
            }
            r.observe(now, anchor(&update));
        }
        (r, dropped)
    }

    #[test]
    fn lossless_stream_has_tiny_error() {
        let (r, _) = walking_updates(28.0, 5.0, |_| false);
        assert!(r.mean_error_m() < 0.02, "mean error {}", r.mean_error_m());
    }

    #[test]
    fn twenty_percent_loss_stays_imperceptible() {
        // §8.2: users perceive nothing even at 20% loss — dead reckoning
        // keeps the positional pops below the perceptibility threshold.
        let (r, dropped) = walking_updates(28.0, 5.0, |k| k % 5 == 4);
        assert!(dropped > 20);
        assert!(
            r.p95_error_m() < PERCEPTIBLE_POP_M,
            "p95 error {} m with 20% loss",
            r.p95_error_m()
        );
    }

    #[test]
    fn error_grows_with_burst_loss() {
        let (light, _) = walking_updates(28.0, 5.0, |k| k % 10 == 9);
        // Burst loss: drop 9 of every 10 (90%).
        let (heavy, _) = walking_updates(28.0, 5.0, |k| k % 10 != 0);
        assert!(heavy.mean_error_m() > light.mean_error_m() * 2.0);
    }

    #[test]
    fn extrapolation_is_capped() {
        let e = Embodiment::upper_torso_simple_face();
        let mut m = MotionState::new(1, Vec3::ZERO, 0.0);
        m.walk_to(Vec3::new(50.0, 0.0, 0.0));
        m.step(0.1, &e); // the first step has no velocity yet
        let (pose, vel) = m.step(0.1, &e);
        let mut r = DeadReckoner::new();
        r.observe(SimTime::ZERO, anchor(&make_update(1, 0, &e, pose, vel)));
        let near = r.predict(SimTime::from_millis(400)).unwrap();
        let far = r.predict(SimTime::from_secs(30)).unwrap();
        // Beyond the cap the avatar freezes rather than walking to infinity.
        let capped = r.predict(SimTime::from_millis(500)).unwrap();
        assert!(far.distance(capped) < 1e-5, "frozen after cap");
        assert!(near.distance(capped) < 0.2);
        assert!(near.distance(capped) > 0.05, "moving until the cap");
        assert!(r.is_stale(SimTime::from_secs(30)));
        assert!(!r.is_stale(SimTime::from_millis(100)));
    }

    #[test]
    fn empty_reckoner_behaviour() {
        let r = DeadReckoner::new();
        assert!(r.predict(SimTime::ZERO).is_none());
        assert_eq!(r.mean_error_m(), 0.0);
        assert_eq!(r.p95_error_m(), 0.0);
        assert!(r.is_stale(SimTime::ZERO));
    }

    #[test]
    fn updates_without_velocities_predict_last_pose() {
        let e = Embodiment::upper_torso_no_face(); // no velocities
        let mut m = MotionState::new(1, Vec3::ZERO, 0.0);
        m.walk_to(Vec3::new(10.0, 0.0, 0.0));
        m.step(0.1, &e);
        // Moving, but the profile sends no velocities.
        let (pose, vel) = m.step(0.1, &e);
        let held = anchor(&make_update(1, 0, &e, pose, vel));
        assert_eq!(held.velocity, None);
        let mut r = DeadReckoner::new();
        r.observe(SimTime::ZERO, held);
        let pred = r.predict(SimTime::from_millis(300));
        assert_eq!(pred, Some(held.position()), "no velocity → hold position");
    }

    /// The reckoner as it was when it kept whole updates: extrapolate
    /// every joint of a clone of the last pose, then measure at the
    /// root, else the head. The anchor-only reckoner must match it bit
    /// for bit.
    struct PoseReckoner {
        last: Option<(SimTime, AvatarUpdate)>,
        errors_m: Vec<f32>,
        max_extrapolation: SimDuration,
    }

    impl PoseReckoner {
        fn observe(&mut self, now: SimTime, update: AvatarUpdate) {
            if let Some((at, last)) = &self.last {
                let dt =
                    now.saturating_since(*at).min(self.max_extrapolation).as_secs_f64() as f32;
                let mut pose = last.pose.clone();
                if !last.velocities.is_empty() {
                    for (i, (_, jp)) in pose.joints.iter_mut().enumerate() {
                        if let Some(v) = last.velocities.get(i) {
                            jp.position = jp.position + *v * dt;
                        }
                    }
                }
                self.errors_m.push(update.pose.root_position().distance(pose.root_position()));
            }
            self.last = Some((now, update));
        }
    }

    /// Keep each joint with probability 1/2, so a stream's masks hold
    /// the root only, the head only, both or neither.
    fn thin(pose: Pose, vel: Vec<Vec3>, rng: &mut SimRng) -> (Pose, Vec<Vec3>) {
        let (mut joints, mut vels) = (Vec::new(), Vec::new());
        for (i, jv) in pose.joints.into_iter().enumerate() {
            if rng.chance(0.5) {
                joints.push(jv);
                vels.extend(vel.get(i).copied());
            }
        }
        (Pose { joints, blendshapes: pose.blendshapes }, vels)
    }

    #[test]
    fn anchor_reckoner_matches_whole_pose_reference_bit_for_bit() {
        let head_only = Embodiment {
            joints: vec![Joint::Torso, Joint::Head, Joint::LeftHand],
            ..Embodiment::human_like()
        };
        let mut rng = SimRng::seed_from_u64(0xDEAD_0001);
        let mut compared = 0;
        for e in [
            Embodiment::upper_torso_no_face(),
            Embodiment::upper_torso_hands_no_face(),
            Embodiment::upper_torso_simple_face(),
            Embodiment::full_body_cartoon(),
            Embodiment::human_like(),
            Embodiment::photorealistic(),
            head_only,
        ] {
            for (walking, thinned) in [(true, false), (false, false), (true, true)] {
                let mut m = MotionState::new(rng.next_u64(), Vec3::new(1.0, 0.0, -2.0), 30.0);
                if walking {
                    m.wander();
                }
                let mut new = DeadReckoner::new();
                let mut old = PoseReckoner {
                    last: None,
                    errors_m: Vec::new(),
                    max_extrapolation: new.max_extrapolation,
                };
                let mut now = SimTime::ZERO;
                for k in 0..400u32 {
                    // Mostly 50 ms apart; some updates share an arrival
                    // time (zero dt), some arrive past the cap.
                    let gap_ms = match rng.range_u64(0, 20) {
                        0 => 0,
                        1 => rng.range_u64(501, 3_000),
                        _ => rng.range_u64(20, 80),
                    };
                    now += SimDuration::from_millis(gap_ms);
                    let (pose, vel) = m.step(gap_ms as f64 / 1000.0, &e);
                    let (pose, vel) = if thinned { thin(pose, vel, &mut rng) } else { (pose, vel) };
                    if rng.range_u64(0, 5) == 0 {
                        continue; // dropped in the network
                    }
                    let wire = encode_update(&make_update(7, k, &e, pose, vel));
                    new.observe(now, read_anchor(&wire).unwrap());
                    old.observe(now, decode_update(&wire).unwrap());
                }
                assert!(new.errors_m.len() > 250, "{}: {}", e.name, new.errors_m.len());
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                let case = format!("{} walking={walking} thinned={thinned}", e.name);
                assert_eq!(bits(&new.errors_m), bits(&old.errors_m), "{case}");
                compared += new.errors_m.len();
            }
        }
        assert!(compared > 5_000);
    }
}
