//! Joints, poses, and the small vector math they need.


/// A 3-component vector (metres, room-local coordinates).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X (right).
    pub x: f32,
    /// Y (up).
    pub y: f32,
    /// Z (forward).
    pub z: f32,
}

impl Vec3 {
    /// Construct.
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    /// Zero vector.
    pub const ZERO: Vec3 = Vec3::new(0.0, 0.0, 0.0);

    /// Euclidean length.
    pub fn length(self) -> f32 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Distance to another point.
    pub fn distance(self, other: Vec3) -> f32 {
        (self - other).length()
    }

    /// Dot product.
    pub fn dot(self, o: Vec3) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Unit vector (zero stays zero).
    pub fn normalized(self) -> Vec3 {
        let l = self.length();
        if l <= f32::EPSILON {
            Vec3::ZERO
        } else {
            self * (1.0 / l)
        }
    }
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl std::ops::Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl std::ops::Mul<f32> for Vec3 {
    type Output = Vec3;
    fn mul(self, k: f32) -> Vec3 {
        Vec3::new(self.x * k, self.y * k, self.z * k)
    }
}

/// A unit quaternion rotation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quat {
    /// x component.
    pub x: f32,
    /// y component.
    pub y: f32,
    /// z component.
    pub z: f32,
    /// w (scalar) component.
    pub w: f32,
}

impl Quat {
    /// Identity rotation.
    pub const IDENTITY: Quat = Quat { x: 0.0, y: 0.0, z: 0.0, w: 1.0 };

    /// Rotation of `angle` radians about the +Y (up) axis.
    pub fn from_yaw(angle: f32) -> Quat {
        let h = angle * 0.5;
        Quat { x: 0.0, y: h.sin(), z: 0.0, w: h.cos() }
    }

    /// Normalise to a unit quaternion.
    pub fn normalized(self) -> Quat {
        let n = (self.x * self.x + self.y * self.y + self.z * self.z + self.w * self.w).sqrt();
        if n <= f32::EPSILON {
            Quat::IDENTITY
        } else {
            Quat { x: self.x / n, y: self.y / n, z: self.z / n, w: self.w / n }
        }
    }

    /// Angular difference to another rotation, in radians.
    pub fn angle_to(self, o: Quat) -> f32 {
        let dot = (self.x * o.x + self.y * o.y + self.z * o.z + self.w * o.w)
            .abs()
            .clamp(0.0, 1.0);
        2.0 * dot.acos()
    }
}

/// A trackable body joint.
///
/// The ordering is the canonical wire order; codecs iterate joint sets in
/// this order so both ends agree without transmitting joint ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Joint {
    /// Avatar root (locomotion position + heading).
    Root,
    /// Hips.
    Hips,
    /// Spine/torso.
    Torso,
    /// Neck.
    Neck,
    /// Head (HMD pose).
    Head,
    /// Left shoulder.
    LeftShoulder,
    /// Left elbow.
    LeftElbow,
    /// Left hand (controller pose).
    LeftHand,
    /// Right shoulder.
    RightShoulder,
    /// Right elbow.
    RightElbow,
    /// Right hand (controller pose).
    RightHand,
    /// Left knee.
    LeftKnee,
    /// Left foot.
    LeftFoot,
    /// Right knee.
    RightKnee,
    /// Right foot.
    RightFoot,
}

impl Joint {
    /// All joints in canonical order.
    pub const ALL: [Joint; 15] = [
        Joint::Root,
        Joint::Hips,
        Joint::Torso,
        Joint::Neck,
        Joint::Head,
        Joint::LeftShoulder,
        Joint::LeftElbow,
        Joint::LeftHand,
        Joint::RightShoulder,
        Joint::RightElbow,
        Joint::RightHand,
        Joint::LeftKnee,
        Joint::LeftFoot,
        Joint::RightKnee,
        Joint::RightFoot,
    ];

    /// Position in [`Joint::ALL`]: the joint's bit in the codec's joint
    /// mask.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Joints actually tracked by hardware (HMD + two controllers); the
    /// rest must be inferred, which is why most platforms ship
    /// upper-torso-only avatars (§5.2).
    pub fn hardware_tracked(self) -> bool {
        matches!(self, Joint::Head | Joint::LeftHand | Joint::RightHand)
    }
}

/// Pose of one joint.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JointPose {
    /// Position in room-local metres.
    pub position: Vec3,
    /// Orientation.
    pub rotation: Quat,
}

impl Default for JointPose {
    fn default() -> Self {
        JointPose { position: Vec3::ZERO, rotation: Quat::IDENTITY }
    }
}

/// A full avatar pose: positions for a subset of joints plus facial
/// blendshape weights.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pose {
    /// `(joint, pose)` pairs in canonical joint order.
    pub joints: Vec<(Joint, JointPose)>,
    /// Facial expression blendshape weights in `[0, 1]`.
    pub blendshapes: Vec<f32>,
}

impl Pose {
    /// Become the rest pose for the given joints, in canonical order,
    /// reusing this pose's storage.
    pub fn reset(&mut self, joints: &[Joint], blendshapes: usize) {
        self.joints.clear();
        self.joints.extend(joints.iter().map(|j| (*j, JointPose::default())));
        self.joints.sort_unstable_by_key(|(j, _)| *j);
        self.blendshapes.clear();
        self.blendshapes.resize(blendshapes, 0.0);
    }

    /// Pose of a specific joint, if present.
    pub fn joint(&self, j: Joint) -> Option<&JointPose> {
        self.joints.iter().find(|(jj, _)| *jj == j).map(|(_, p)| p)
    }

    /// Mutable pose of a specific joint.
    pub fn joint_mut(&mut self, j: Joint) -> Option<&mut JointPose> {
        self.joints.iter_mut().find(|(jj, _)| *jj == j).map(|(_, p)| p)
    }

    /// Root position (falls back to origin when the root is not tracked).
    pub fn root_position(&self) -> Vec3 {
        self.joint(Joint::Root)
            .or_else(|| self.joint(Joint::Head))
            .map(|p| p.position)
            .unwrap_or(Vec3::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec3_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!((a + b).x, 5.0);
        assert_eq!((b - a).z, 3.0);
        assert_eq!(a.dot(b), 32.0);
        assert!((a.cross(b).dot(a)).abs() < 1e-5, "cross ⊥ a");
        assert!((Vec3::new(3.0, 4.0, 0.0).length() - 5.0).abs() < 1e-6);
        assert!((Vec3::new(10.0, 0.0, 0.0).normalized().length() - 1.0).abs() < 1e-6);
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
    }

    #[test]
    fn quat_yaw_and_angle() {
        let q = Quat::from_yaw(std::f32::consts::FRAC_PI_2);
        let back = Quat::from_yaw(-std::f32::consts::FRAC_PI_2);
        let angle = q.angle_to(back);
        assert!((angle - std::f32::consts::PI).abs() < 1e-3, "angle {angle}");
        assert!(q.angle_to(q) < 1e-3);
        let n = Quat { x: 3.0, y: 0.0, z: 0.0, w: 4.0 }.normalized();
        assert!((n.x - 0.6).abs() < 1e-6 && (n.w - 0.8).abs() < 1e-6);
    }

    #[test]
    fn canonical_order_is_sorted() {
        let mut sorted = Joint::ALL.to_vec();
        sorted.sort();
        assert_eq!(sorted, Joint::ALL.to_vec());
        for (i, j) in Joint::ALL.iter().enumerate() {
            assert_eq!(j.index(), i, "{j:?}");
        }
    }

    #[test]
    fn hardware_tracked_joints() {
        assert!(Joint::Head.hardware_tracked());
        assert!(Joint::LeftHand.hardware_tracked());
        assert!(Joint::RightHand.hardware_tracked());
        assert!(!Joint::LeftElbow.hardware_tracked());
        assert!(!Joint::Root.hardware_tracked());
        assert_eq!(Joint::ALL.iter().filter(|j| j.hardware_tracked()).count(), 3);
    }

    #[test]
    fn pose_lookup_and_rest() {
        let mut pose = Pose::default();
        pose.reset(&[Joint::Head, Joint::Root, Joint::LeftHand], 4);
        assert_eq!(pose.joints.len(), 3);
        assert_eq!(pose.blendshapes.len(), 4);
        assert!(pose.joint(Joint::Head).is_some());
        assert!(pose.joint(Joint::RightFoot).is_none());
        // Rest sorts into canonical order regardless of input order.
        assert_eq!(pose.joints[0].0, Joint::Root);
        assert_eq!(pose.root_position(), Vec3::ZERO);
        // A reset drops what the pose held before.
        pose.blendshapes[0] = 0.7;
        pose.reset(&[Joint::Head], 2);
        assert_eq!(pose.joints.len(), 1);
        assert_eq!(pose.blendshapes, [0.0, 0.0]);
    }

    #[test]
    fn root_position_falls_back_to_head() {
        let mut pose = Pose::default();
        pose.reset(&[Joint::Head], 0);
        pose.joint_mut(Joint::Head).unwrap().position = Vec3::new(1.0, 1.7, 2.0);
        assert_eq!(pose.root_position(), Vec3::new(1.0, 1.7, 2.0));
    }
}
