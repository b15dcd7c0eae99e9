//! Deterministic avatar motion synthesis.
//!
//! The paper's experiments script user behaviour: "two users walk around
//! and chat" (§5.1), "U1 stands at the center ... then turns around 180°"
//! (§6.1), "users gather at the center" (§6.1 Exp. 2). [`MotionState`]
//! synthesises those behaviours as continuous joint motion, so the avatar
//! codec always has real, changing data to ship — the source of the
//! platforms' continuous traffic.

use crate::embodiment::Embodiment;
use crate::skeleton::{Joint, Pose, Quat, Vec3};
use svr_netsim::SimRng;

/// What the avatar is currently doing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// Standing, idle sway only.
    Stand,
    /// Walking toward a target point.
    Walk { target: Vec3 },
}

/// A deterministic motion synthesizer for one avatar.
#[derive(Debug)]
pub struct MotionState {
    /// Root position on the floor plane (y = 0).
    pub position: Vec3,
    /// Viewing/facing direction in degrees, counter-clockwise from +Z.
    pub heading_deg: f32,
    mode: Mode,
    /// If true, pick a new wander target whenever one is reached.
    pub wandering: bool,
    /// If set, the avatar keeps facing this point even while walking —
    /// conversational behaviour ("walk around and chat with each other",
    /// §5.1): bodies move, gazes stay on the group.
    pub face_point: Option<Vec3>,
    phase: f32,
    rng: SimRng,
    bounds: f32,
    walk_speed: f32,
    last_positions: Vec<(Joint, Vec3)>,
}

impl MotionState {
    /// Create an avatar standing at `spawn`, facing `heading_deg`.
    pub fn new(seed: u64, spawn: Vec3, heading_deg: f32) -> Self {
        MotionState {
            position: Vec3::new(spawn.x, 0.0, spawn.z),
            heading_deg: heading_deg.rem_euclid(360.0),
            mode: Mode::Stand,
            wandering: false,
            face_point: None,
            phase: 0.0,
            rng: SimRng::seed_from_u64(seed),
            bounds: 8.0,
            walk_speed: 1.2,
            last_positions: Vec::new(),
        }
    }

    /// Enable continuous wandering within the room bounds.
    pub fn wander(&mut self) {
        self.wandering = true;
        self.pick_target();
    }

    /// Stand still at the current position.
    pub fn stand(&mut self) {
        self.wandering = false;
        self.mode = Mode::Stand;
    }

    /// Instantly rotate by `delta` degrees (the VR-controller snap turn:
    /// AltspaceVR turns 360°/16 = 22.5° per operation, §6.1).
    pub fn turn(&mut self, delta_deg: f32) {
        self.heading_deg = (self.heading_deg + delta_deg).rem_euclid(360.0);
    }

    /// Face a specific heading.
    pub fn set_heading(&mut self, deg: f32) {
        self.heading_deg = deg.rem_euclid(360.0);
    }

    /// Walk to a point (overrides wandering until reached).
    pub fn walk_to(&mut self, target: Vec3) {
        self.mode = Mode::Walk { target: Vec3::new(target.x, 0.0, target.z) };
    }

    /// Keep facing `point` regardless of walk direction (conversational
    /// gaze); `None` restores heading-follows-motion.
    pub fn face_toward(&mut self, point: Option<Vec3>) {
        self.face_point = point;
    }

    /// Restrict wandering to a square of half-extent `half_m` (a chat
    /// circle rather than the whole venue).
    pub fn set_bounds(&mut self, half_m: f32) {
        assert!(half_m > 0.0);
        self.bounds = half_m;
    }

    fn pick_target(&mut self) {
        let b = self.bounds as f64;
        let t = Vec3::new(
            self.rng.range_f64(-b, b) as f32,
            0.0,
            self.rng.range_f64(-b, b) as f32,
        );
        self.mode = Mode::Walk { target: t };
    }

    /// Advance the motion by `dt_s` seconds and synthesise the pose for
    /// the given embodiment. Returns the pose and per-joint velocities.
    pub fn step(&mut self, dt_s: f64, e: &Embodiment) -> (Pose, Vec<Vec3>) {
        let mut pose = Pose {
            joints: Vec::with_capacity(e.joints.len()),
            blendshapes: Vec::with_capacity(e.blendshapes),
        };
        let mut velocities = Vec::with_capacity(e.joints.len());
        self.step_into(dt_s, e, &mut pose, &mut velocities);
        (pose, velocities)
    }

    /// [`MotionState::step`] into caller-owned buffers: overwrites `pose`
    /// and `velocities` with what `step` would return, reusing their
    /// storage, so a caller that keeps them between ticks allocates
    /// nothing once they have grown.
    pub fn step_into(
        &mut self,
        dt_s: f64,
        e: &Embodiment,
        pose: &mut Pose,
        velocities: &mut Vec<Vec3>,
    ) {
        let dt = dt_s as f32;
        self.phase += dt * 2.0 * std::f32::consts::PI * 0.9; // ~0.9 Hz gait/sway

        // Locomotion.
        if let Mode::Walk { target } = self.mode {
            let to = target - self.position;
            let dist = to.length();
            let step = self.walk_speed * dt;
            if dist <= step {
                self.position = target;
                if self.wandering {
                    // Dwell decision: occasionally stand for a bit by
                    // picking the current position as the "target".
                    self.pick_target();
                } else {
                    self.mode = Mode::Stand;
                }
            } else {
                let dir = to * (1.0 / dist);
                self.position = self.position + dir * step;
                if self.face_point.is_none() {
                    self.heading_deg = dir.x.atan2(dir.z).to_degrees().rem_euclid(360.0);
                }
            }
        }

        // Conversational gaze overrides locomotion heading.
        if let Some(p) = self.face_point {
            let to = Vec3::new(p.x - self.position.x, 0.0, p.z - self.position.z);
            if to.length() > 1e-3 {
                self.heading_deg = to.x.atan2(to.z).to_degrees().rem_euclid(360.0);
            }
        }

        let yaw = self.heading_deg.to_radians();
        let facing = Quat::from_yaw(yaw);
        let fwd = Vec3::new(yaw.sin(), 0.0, yaw.cos());
        let right = Vec3::new(fwd.z, 0.0, -fwd.x);
        let sway = (self.phase).sin() * 0.02;
        let bob = (self.phase * 2.0).sin() * 0.015;
        let arm_swing = if matches!(self.mode, Mode::Walk { .. }) {
            (self.phase).sin() * 0.25
        } else {
            (self.phase * 0.5).sin() * 0.05
        };

        pose.reset(&e.joints, e.blendshapes);
        let base = self.position;
        for (joint, jp) in pose.joints.iter_mut() {
            let local = match joint {
                Joint::Root => Vec3::new(0.0, 0.0, 0.0),
                Joint::Hips => Vec3::new(sway, 0.95 + bob, 0.0),
                Joint::Torso => Vec3::new(sway, 1.25 + bob, 0.0),
                Joint::Neck => Vec3::new(sway, 1.5 + bob, 0.0),
                Joint::Head => Vec3::new(sway, 1.65 + bob, 0.0),
                Joint::LeftShoulder => right * -0.2 + Vec3::new(0.0, 1.45 + bob, 0.0),
                Joint::LeftElbow => right * -0.25 + fwd * arm_swing + Vec3::new(0.0, 1.15, 0.0),
                Joint::LeftHand => right * -0.28 + fwd * (arm_swing * 1.6) + Vec3::new(0.0, 0.95, 0.0),
                Joint::RightShoulder => right * 0.2 + Vec3::new(0.0, 1.45 + bob, 0.0),
                Joint::RightElbow => right * 0.25 + fwd * -arm_swing + Vec3::new(0.0, 1.15, 0.0),
                Joint::RightHand => right * 0.28 + fwd * (-arm_swing * 1.6) + Vec3::new(0.0, 0.95, 0.0),
                Joint::LeftKnee => right * -0.1 + fwd * arm_swing + Vec3::new(0.0, 0.5, 0.0),
                Joint::LeftFoot => right * -0.1 + fwd * (arm_swing * 1.2) + Vec3::new(0.0, 0.05, 0.0),
                Joint::RightKnee => right * 0.1 + fwd * -arm_swing + Vec3::new(0.0, 0.5, 0.0),
                Joint::RightFoot => right * 0.1 + fwd * (-arm_swing * 1.2) + Vec3::new(0.0, 0.05, 0.0),
            };
            jp.position = base + local;
            jp.rotation = facing;
        }

        // Velocities from the previous step's positions.
        velocities.clear();
        for (joint, jp) in &pose.joints {
            let prev = self
                .last_positions
                .iter()
                .find(|(j, _)| j == joint)
                .map(|(_, p)| *p)
                .unwrap_or(jp.position);
            let v = if dt > 0.0 { (jp.position - prev) * (1.0 / dt) } else { Vec3::ZERO };
            velocities.push(v);
        }
        self.last_positions.clear();
        self.last_positions.extend(pose.joints.iter().map(|(j, p)| (*j, p.position)));
    }
}

/// Whether a point at `other` lies within a viewer's horizontal viewport
/// of `width_deg` degrees centred on `heading_deg` — the geometry behind
/// AltspaceVR's viewport-adaptive optimisation (§6.1, ~150° wide).
pub fn in_viewport(viewer_pos: Vec3, heading_deg: f32, width_deg: f32, other: Vec3) -> bool {
    let to = Vec3::new(other.x - viewer_pos.x, 0.0, other.z - viewer_pos.z);
    if to.length() < 1e-4 {
        return true; // coincident: always "visible"
    }
    let bearing = to.x.atan2(to.z).to_degrees().rem_euclid(360.0);
    let mut diff = (bearing - heading_deg.rem_euclid(360.0)).abs();
    if diff > 180.0 {
        diff = 360.0 - diff;
    }
    diff <= width_deg / 2.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emb() -> Embodiment {
        Embodiment::full_body_cartoon()
    }

    #[test]
    fn standing_avatar_sways_but_stays_put() {
        let mut m = MotionState::new(1, Vec3::new(2.0, 0.0, 3.0), 0.0);
        let (p1, _) = m.step(0.1, &emb());
        for _ in 0..50 {
            m.step(0.1, &emb());
        }
        let (p2, _) = m.step(0.1, &emb());
        assert!(m.position.distance(Vec3::new(2.0, 0.0, 3.0)) < 1e-4);
        // But the pose itself moves (sway/bob): continuous data to send.
        let h1 = p1.joint(Joint::Head).unwrap().position;
        let h2 = p2.joint(Joint::Head).unwrap().position;
        assert!(h1.distance(h2) > 1e-5, "idle sway produces motion");
    }

    #[test]
    fn walking_reaches_target() {
        let mut m = MotionState::new(2, Vec3::ZERO, 0.0);
        m.walk_to(Vec3::new(3.0, 0.0, 4.0)); // 5 m away
        let mut t = 0.0;
        while t < 10.0 {
            m.step(0.05, &emb());
            t += 0.05;
        }
        assert!(m.position.distance(Vec3::new(3.0, 0.0, 4.0)) < 0.01);
        // ~5 m at 1.2 m/s ≈ 4.2 s; confirm it didn't teleport by checking
        // heading pointed toward the target while walking.
        let mut m2 = MotionState::new(2, Vec3::ZERO, 0.0);
        m2.walk_to(Vec3::new(3.0, 0.0, 4.0));
        m2.step(0.05, &emb());
        let expected = (3.0f32).atan2(4.0).to_degrees();
        assert!((m2.heading_deg - expected).abs() < 1.0);
    }

    #[test]
    fn snap_turns_accumulate_like_altspace_controller() {
        // 16 snap turns of 22.5° = full circle (§6.1).
        let mut m = MotionState::new(3, Vec3::ZERO, 90.0);
        for _ in 0..16 {
            m.turn(22.5);
        }
        assert!((m.heading_deg - 90.0).abs() < 1e-3);
        m.turn(180.0);
        assert!((m.heading_deg - 270.0).abs() < 1e-3);
    }

    #[test]
    fn velocities_reflect_walking_speed() {
        let mut m = MotionState::new(4, Vec3::ZERO, 0.0);
        m.walk_to(Vec3::new(0.0, 0.0, 10.0));
        m.step(0.1, &emb());
        let (_, vel) = m.step(0.1, &emb());
        // Root velocity magnitude ≈ walk speed.
        let root_v = vel[0].length();
        assert!((root_v - 1.2).abs() < 0.2, "root velocity {root_v}");
    }

    #[test]
    fn wander_stays_in_bounds() {
        let mut m = MotionState::new(5, Vec3::ZERO, 0.0);
        m.wander();
        for _ in 0..5000 {
            m.step(0.05, &emb());
            assert!(m.position.x.abs() <= 8.5 && m.position.z.abs() <= 8.5);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut m = MotionState::new(seed, Vec3::ZERO, 0.0);
            m.wander();
            for _ in 0..200 {
                m.step(0.05, &emb());
            }
            (m.position, m.heading_deg)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0.distance(run(8).0), 0.0);
    }

    #[test]
    fn conversational_gaze_holds_while_walking() {
        let mut m = MotionState::new(9, Vec3::new(3.0, 0.0, 0.0), 0.0);
        m.face_toward(Some(Vec3::ZERO));
        m.walk_to(Vec3::new(3.0, 0.0, 4.0));
        for _ in 0..20 {
            m.step(0.05, &emb());
            // Bearing to the origin from wherever we are.
            let expect = (-m.position.x).atan2(-m.position.z).to_degrees().rem_euclid(360.0);
            let mut diff = (m.heading_deg - expect).abs();
            if diff > 180.0 {
                diff = 360.0 - diff;
            }
            assert!(diff < 1.0, "gaze {} vs bearing {expect}", m.heading_deg);
        }
        // Releasing the gaze restores motion-driven heading.
        m.face_toward(None);
        m.walk_to(Vec3::new(3.0, 0.0, 40.0));
        m.step(0.5, &emb());
        assert!((m.heading_deg - 0.0).abs() < 5.0 || (m.heading_deg - 360.0).abs() < 5.0);
    }

    #[test]
    fn bounds_can_shrink_the_wander_area() {
        let mut m = MotionState::new(10, Vec3::ZERO, 0.0);
        m.set_bounds(2.0);
        m.wander();
        for _ in 0..3000 {
            m.step(0.05, &emb());
            assert!(m.position.x.abs() <= 2.1 && m.position.z.abs() <= 2.1);
        }
    }

    /// Every float of a step's output as bits, with the joint ids.
    fn bits(pose: &Pose, vel: &[Vec3]) -> Vec<u32> {
        let mut out = Vec::new();
        for (j, jp) in &pose.joints {
            let (p, q) = (jp.position, jp.rotation);
            out.push(j.index() as u32);
            out.extend([p.x, p.y, p.z, q.x, q.y, q.z, q.w].map(f32::to_bits));
        }
        out.push(u32::MAX);
        out.extend(pose.blendshapes.iter().map(|w| w.to_bits()));
        out.push(u32::MAX);
        out.extend(vel.iter().flat_map(|v| [v.x, v.y, v.z]).map(f32::to_bits));
        out
    }

    #[test]
    fn step_into_reused_buffers_matches_fresh_step() {
        // The embodiment changes between ticks, so a buffer that kept
        // the last tick's joints or weights would show.
        let profiles = [
            Embodiment::photorealistic(),
            Embodiment::upper_torso_no_face(),
            Embodiment::human_like(),
            Embodiment::full_body_cartoon(),
            Embodiment::upper_torso_simple_face(),
        ];
        let mut fresh = MotionState::new(11, Vec3::new(1.0, 0.0, 2.0), 45.0);
        let mut reused = MotionState::new(11, Vec3::new(1.0, 0.0, 2.0), 45.0);
        fresh.wander();
        reused.wander();
        let mut pose = Pose::default();
        let mut vel = Vec::new();
        for k in 0..300 {
            let e = &profiles[k % 7 % profiles.len()];
            let dt = if k % 13 == 0 { 0.0 } else { 0.05 };
            let (p, v) = fresh.step(dt, e);
            reused.step_into(dt, e, &mut pose, &mut vel);
            assert_eq!(bits(&pose, &vel), bits(&p, &v), "tick {k}, {}", e.name);
        }
    }

    #[test]
    fn viewport_membership_basic() {
        let viewer = Vec3::ZERO;
        // Facing +Z (heading 0), 150° viewport.
        assert!(in_viewport(viewer, 0.0, 150.0, Vec3::new(0.0, 0.0, 5.0)));
        assert!(in_viewport(viewer, 0.0, 150.0, Vec3::new(4.0, 0.0, 4.0))); // 45°
        assert!(!in_viewport(viewer, 0.0, 150.0, Vec3::new(0.0, 0.0, -5.0))); // behind
        assert!(!in_viewport(viewer, 0.0, 150.0, Vec3::new(5.0, 0.0, -0.5))); // ~96°
        // Coincident points are visible.
        assert!(in_viewport(viewer, 0.0, 150.0, viewer));
    }

    #[test]
    fn viewport_wraps_around_north() {
        let viewer = Vec3::ZERO;
        // Heading 350°, target at bearing 5°: angular diff 15°.
        let target = Vec3::new((5.0f32).to_radians().sin() * 3.0, 0.0, (5.0f32).to_radians().cos() * 3.0);
        assert!(in_viewport(viewer, 350.0, 60.0, target));
        assert!(!in_viewport(viewer, 180.0, 60.0, target));
    }

    #[test]
    fn turning_180_removes_formerly_visible_avatars() {
        // The §6.1 experiment: others visible, then U1 turns 180°.
        let viewer = Vec3::ZERO;
        let others = [Vec3::new(1.0, 0.0, 3.0), Vec3::new(-2.0, 0.0, 4.0)];
        for o in others {
            assert!(in_viewport(viewer, 0.0, 150.0, o));
            assert!(!in_viewport(viewer, 180.0, 150.0, o));
        }
    }

    /// Property check over inputs drawn from a fixed-seed RNG.
    #[test]
    fn prop_viewport_width_monotone_seeded() {
        let mut rng = svr_netsim::SimRng::seed_from_u64(0x0170_0001);
        let mut cases = 0;
        while cases < 256 {
            let heading = rng.range_f64(0.0, 360.0) as f32;
            let bx = rng.range_f64(-10.0, 10.0) as f32;
            let bz = rng.range_f64(-10.0, 10.0) as f32;
            if bx.abs() <= 0.01 && bz.abs() <= 0.01 {
                continue;
            }
            cases += 1;
            let p = Vec3::new(bx, 0.0, bz);
            // Anything visible at width w is visible at any wider width.
            for w in [30.0f32, 90.0, 150.0, 250.0] {
                if in_viewport(Vec3::ZERO, heading, w, p) {
                    assert!(in_viewport(Vec3::ZERO, heading, w + 50.0, p));
                }
            }
            // A 360° viewport sees everything.
            assert!(in_viewport(Vec3::ZERO, heading, 360.0, p));
        }
    }
}
