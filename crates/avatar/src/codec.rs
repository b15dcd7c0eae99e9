//! The avatar-update wire format.
//!
//! Every tick, a client serialises its pose with this codec and ships it
//! up the data channel; the server forwards it to other users (§5.1's
//! "simply forward (part of) the data uploaded by one user to others").
//! The byte cost per update is therefore the atom of the paper's
//! throughput analysis.
//!
//! Layout (big-endian):
//!
//! ```text
//! 0        4        8      9         11          12
//! +--------+--------+------+----------+-----------+---------------...
//! | avatar | tick   |flags |joint mask|blendshapes| joint data ...
//! +--------+--------+------+----------+-----------+---------------...
//! ```
//!
//! `flags`: bit 0 = full precision, bit 1 = velocities present. The
//! 16-bit joint mask selects joints in [`Joint::ALL`] order, so joint ids
//! never travel on the wire.
//!
//! Receivers read only an update's [`Anchor`] with [`read_anchor`];
//! [`decode_update`] decodes the whole update and is the reference the
//! tests hold the anchor reader to.

use crate::embodiment::{Embodiment, Precision};
use crate::quant;
use crate::skeleton::{Joint, JointPose, Pose, Quat, Vec3};
use svr_netsim::buf::{Bytes, BytesMut};

/// Fixed header length.
pub const HEADER_LEN: usize = 12;

/// An avatar state update.
#[derive(Debug, Clone, PartialEq)]
pub struct AvatarUpdate {
    /// Sender's avatar id.
    pub avatar_id: u32,
    /// Sender tick counter.
    pub tick: u32,
    /// The pose (joints present must match the embodiment's joint set).
    pub pose: Pose,
    /// Per-joint velocities, aligned with `pose.joints` (empty if the
    /// embodiment does not send velocities).
    pub velocities: Vec<Vec3>,
    /// Codec precision used.
    pub precision: Precision,
}

/// Bytes of one encoded update for an embodiment (codec payload only,
/// excluding channel/transport headers).
pub fn update_payload_size(e: &Embodiment) -> usize {
    wire_len(e.precision == Precision::Full, e.velocities, e.joints.len(), e.blendshapes)
}

/// Bytes [`encode_update_into`] writes for `u`.
pub fn encoded_len(u: &AvatarUpdate) -> usize {
    wire_len(
        u.precision == Precision::Full,
        !u.velocities.is_empty(),
        u.pose.joints.len(),
        u.pose.blendshapes.len(),
    )
}

/// Bytes of one joint's record: its pose, then its velocity when the
/// update carries velocities.
fn joint_len(full: bool, velocities: bool) -> usize {
    let (pose, velocity) = if full { (28, 12) } else { (10, 6) };
    pose + if velocities { velocity } else { 0 }
}

/// The layout's size: header, joint records, then one blendshape weight
/// each (`f32` at full precision, else a byte).
fn wire_len(full: bool, velocities: bool, joints: usize, blendshapes: usize) -> usize {
    HEADER_LEN + joints * joint_len(full, velocities) + blendshapes * if full { 4 } else { 1 }
}

/// Encode an update into a buffer sized from it: two allocations, the
/// bytes and the shared storage [`BytesMut::freeze`] moves them into.
/// Panics as [`encode_update_into`] does.
pub fn encode_update(u: &AvatarUpdate) -> Bytes {
    let mut buf = BytesMut::with_capacity(encoded_len(u));
    encode_update_into(u, &mut buf);
    buf.freeze()
}

/// Append the [`encoded_len`] bytes of `u` to `buf`; a caller that sizes
/// `buf` first writes the update without growing it. Panics if the pose's
/// joints disagree with the declared embodiment-style fields (a caller
/// bug).
pub fn encode_update_into(u: &AvatarUpdate, buf: &mut BytesMut) {
    let velocities = !u.velocities.is_empty();
    if velocities {
        assert_eq!(u.velocities.len(), u.pose.joints.len(), "velocity per joint");
    }
    let full = u.precision == Precision::Full;
    buf.put_u32(u.avatar_id);
    buf.put_u32(u.tick);
    buf.put_u8((full as u8) | (velocities as u8) << 1);
    buf.put_u16(u.pose.joints.iter().fold(0, |mask, (j, _)| mask | 1 << j.index()));
    buf.put_u8(u.pose.blendshapes.len() as u8);

    for (i, (_, jp)) in u.pose.joints.iter().enumerate() {
        if full {
            buf.put_f32(jp.position.x);
            buf.put_f32(jp.position.y);
            buf.put_f32(jp.position.z);
            buf.put_f32(jp.rotation.x);
            buf.put_f32(jp.rotation.y);
            buf.put_f32(jp.rotation.z);
            buf.put_f32(jp.rotation.w);
        } else {
            for q in quant::quantize_pos(jp.position) {
                buf.put_u16(q);
            }
            buf.put_u32(quant::quantize_quat(jp.rotation));
        }
        if velocities {
            let v = u.velocities[i];
            if full {
                buf.put_f32(v.x);
                buf.put_f32(v.y);
                buf.put_f32(v.z);
            } else {
                // mm/s in i16: ±32 m/s is far beyond human motion.
                buf.put_i16((v.x * 1000.0).clamp(-32_000.0, 32_000.0) as i16);
                buf.put_i16((v.y * 1000.0).clamp(-32_000.0, 32_000.0) as i16);
                buf.put_i16((v.z * 1000.0).clamp(-32_000.0, 32_000.0) as i16);
            }
        }
    }
    for w in &u.pose.blendshapes {
        if full {
            buf.put_f32(*w);
        } else {
            buf.put_u8(quant::quantize_weight(*w));
        }
    }
}

/// Decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended before the declared content.
    Truncated,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "truncated avatar update")
    }
}

impl std::error::Error for CodecError {}

struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.data.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, CodecError> {
        let s = self.take(2)?;
        Ok(u16::from_be_bytes([s[0], s[1]]))
    }
    fn i16(&mut self) -> Result<i16, CodecError> {
        let s = self.take(2)?;
        Ok(i16::from_be_bytes([s[0], s[1]]))
    }
    fn u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4)?;
        Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
    }
    fn f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn joint_pose(&mut self, full: bool) -> Result<JointPose, CodecError> {
        Ok(if full {
            let position = Vec3::new(self.f32()?, self.f32()?, self.f32()?);
            let rotation = Quat { x: self.f32()?, y: self.f32()?, z: self.f32()?, w: self.f32()? };
            JointPose { position, rotation }
        } else {
            let position = quant::dequantize_pos([self.u16()?, self.u16()?, self.u16()?]);
            JointPose { position, rotation: quant::dequantize_quat(self.u32()?) }
        })
    }
    fn velocity(&mut self, full: bool) -> Result<Vec3, CodecError> {
        Ok(if full {
            Vec3::new(self.f32()?, self.f32()?, self.f32()?)
        } else {
            Vec3::new(
                self.i16()? as f32 / 1000.0,
                self.i16()? as f32 / 1000.0,
                self.i16()? as f32 / 1000.0,
            )
        })
    }
}

/// The joint-mask bits that name a joint; decoders ignore the rest.
const JOINT_BITS: u16 = (1 << Joint::ALL.len()) - 1;

/// Decode a whole update.
pub fn decode_update(data: &[u8]) -> Result<AvatarUpdate, CodecError> {
    let mut r = Reader { data, pos: 0 };
    let avatar_id = r.u32()?;
    let tick = r.u32()?;
    let flags = r.u8()?;
    let mask = r.u16()?;
    let n_blend = r.u8()? as usize;
    let full = flags & 1 != 0;
    let has_vel = flags & 2 != 0;

    let mut joints = Vec::new();
    let mut velocities = Vec::new();
    for joint in Joint::ALL {
        if mask & (1 << joint.index()) == 0 {
            continue;
        }
        joints.push((joint, r.joint_pose(full)?));
        if has_vel {
            velocities.push(r.velocity(full)?);
        }
    }
    let mut blendshapes = Vec::with_capacity(n_blend);
    for _ in 0..n_blend {
        blendshapes.push(if full { r.f32()? } else { quant::dequantize_weight(r.u8()?) });
    }

    Ok(AvatarUpdate {
        avatar_id,
        tick,
        pose: Pose { joints, blendshapes },
        velocities,
        precision: if full { Precision::Full } else { Precision::Quantized },
    })
}

/// What a receiver reads from an update: who sent it, the sender's tick
/// and the anchor joint, the root else the head. The data server places
/// the sender by it; a client's dead reckoner extrapolates it (§8.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Anchor {
    /// Sender's avatar id.
    pub avatar_id: u32,
    /// Sender tick counter.
    pub tick: u32,
    /// The root joint's pose, else the head's; `None` when the update
    /// carries neither.
    pub joint: Option<JointPose>,
    /// That joint's velocity; `None` when the update carries no
    /// velocities or no anchor joint.
    pub velocity: Option<Vec3>,
}

impl Anchor {
    /// The anchor joint's position, else the origin: what
    /// [`Pose::root_position`] gives for the decoded pose.
    pub fn position(&self) -> Vec3 {
        self.joint.map_or(Vec3::ZERO, |j| j.position)
    }
}

/// Read an update's [`Anchor`] without decoding the rest of it. Checks
/// the length the header declares, so it fails exactly when
/// [`decode_update`] fails; both ignore bytes past that length (a
/// platform's envelope).
pub fn read_anchor(data: &[u8]) -> Result<Anchor, CodecError> {
    let mut r = Reader { data, pos: 0 };
    let avatar_id = r.u32()?;
    let tick = r.u32()?;
    let flags = r.u8()?;
    let mask = r.u16()? & JOINT_BITS;
    let n_blend = r.u8()? as usize;
    let full = flags & 1 != 0;
    let has_vel = flags & 2 != 0;
    if data.len() < wire_len(full, has_vel, mask.count_ones() as usize, n_blend) {
        return Err(CodecError::Truncated);
    }
    let mut anchor = Anchor { avatar_id, tick, joint: None, velocity: None };
    if let Some(j) = [Joint::Root, Joint::Head].into_iter().find(|j| mask & 1 << j.index() != 0) {
        // Skip the records of the joints before the anchor in wire order.
        let before = (mask & ((1 << j.index()) - 1)).count_ones() as usize;
        r.pos = HEADER_LEN + before * joint_len(full, has_vel);
        anchor.joint = Some(r.joint_pose(full)?);
        if has_vel {
            anchor.velocity = Some(r.velocity(full)?);
        }
    }
    Ok(anchor)
}

/// Build an update for a pose under an embodiment profile.
pub fn make_update(avatar_id: u32, tick: u32, e: &Embodiment, pose: Pose, velocities: Vec<Vec3>) -> AvatarUpdate {
    let velocities = if e.velocities {
        if velocities.is_empty() {
            vec![Vec3::ZERO; pose.joints.len()]
        } else {
            velocities
        }
    } else {
        Vec::new()
    };
    AvatarUpdate { avatar_id, tick, pose, velocities, precision: e.precision }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_pose(e: &Embodiment) -> Pose {
        let mut pose = Pose::default();
        pose.reset(&e.joints, e.blendshapes);
        for (i, (_, jp)) in pose.joints.iter_mut().enumerate() {
            jp.position = Vec3::new(i as f32 * 0.3 - 2.0, 1.2 + i as f32 * 0.05, 0.5);
            jp.rotation = Quat::from_yaw(i as f32 * 0.4);
        }
        for (i, w) in pose.blendshapes.iter_mut().enumerate() {
            *w = (i as f32 / 10.0).min(1.0);
        }
        pose
    }

    /// Every platform profile, each with and without velocities.
    fn profiles() -> Vec<Embodiment> {
        let mut out = Vec::new();
        for e in [
            Embodiment::upper_torso_no_face(),
            Embodiment::upper_torso_hands_no_face(),
            Embodiment::upper_torso_simple_face(),
            Embodiment::full_body_cartoon(),
            Embodiment::human_like(),
            Embodiment::photorealistic(),
        ] {
            let flipped = Embodiment { velocities: !e.velocities, ..e.clone() };
            out.extend([e, flipped]);
        }
        out
    }

    /// Velocities unlike each other and unlike any position.
    fn sample_velocities(n: usize) -> Vec<Vec3> {
        (0..n)
            .map(|i| i as f32)
            .map(|i| Vec3::new(0.1 * i + 0.05, -0.2 - 0.01 * i, 0.07 * i))
            .collect()
    }

    #[test]
    fn encoded_size_matches_prediction_for_all_profiles() {
        for e in profiles() {
            let u = make_update(1, 0, &e, sample_pose(&e), Vec::new());
            let bytes = encode_update(&u);
            assert_eq!(bytes.len(), update_payload_size(&e), "profile {}", e.name);
            assert_eq!(encoded_len(&u), bytes.len(), "profile {}", e.name);
            let mut buf = BytesMut::new();
            buf.put_slice(b"env");
            encode_update_into(&u, &mut buf);
            assert_eq!(&buf[..3], b"env", "appends after what the buffer holds");
            assert_eq!(&buf[3..], bytes.as_slice());
        }
    }

    fn pose_bits(p: JointPose) -> [u32; 7] {
        let (v, q) = (p.position, p.rotation);
        [v.x, v.y, v.z, q.x, q.y, q.z, q.w].map(f32::to_bits)
    }

    fn vec_bits(v: Vec3) -> [u32; 3] {
        [v.x, v.y, v.z].map(f32::to_bits)
    }

    /// `read_anchor` fails exactly when `decode_update` does, and
    /// otherwise returns the decoded id, tick, root-else-head joint and
    /// that joint's velocity, bit for bit. Returns whether `data` read.
    fn anchor_agrees_with_decode(data: &[u8]) -> bool {
        let (anchor, update) = match (read_anchor(data), decode_update(data)) {
            (Ok(a), Ok(u)) => (a, u),
            (Err(a), Err(u)) => {
                assert_eq!(a, u);
                return false;
            }
            (a, u) => panic!("read_anchor {a:?} but decode_update {u:?} on {data:?}"),
        };
        assert_eq!((anchor.avatar_id, anchor.tick), (update.avatar_id, update.tick));
        let find = |joint| update.pose.joints.iter().position(|(j, _)| *j == joint);
        let at = find(Joint::Root).or_else(|| find(Joint::Head));
        let joint = at.map(|i| update.pose.joints[i].1);
        assert_eq!(anchor.joint.map(pose_bits), joint.map(pose_bits), "{data:?}");
        let velocity = at.and_then(|i| update.velocities.get(i).copied());
        assert_eq!(anchor.velocity.map(vec_bits), velocity.map(vec_bits), "{data:?}");
        assert_eq!(vec_bits(anchor.position()), vec_bits(update.pose.root_position()));
        true
    }

    #[test]
    fn anchor_reader_agrees_with_decode_on_every_prefix() {
        let mut read = 0;
        for e in profiles() {
            let pose = sample_pose(&e);
            let without = |drop: &[Joint]| Pose {
                joints: pose.joints.iter().filter(|(j, _)| !drop.contains(j)).copied().collect(),
                blendshapes: pose.blendshapes.clone(),
            };
            // Root and head; the root only; the head only; neither.
            for pose in [
                pose.clone(),
                without(&[Joint::Head]),
                without(&[Joint::Root]),
                without(&[Joint::Root, Joint::Head]),
            ] {
                let vel = sample_velocities(pose.joints.len());
                let wire = encode_update(&make_update(0xA1B2_C3D4, 77, &e, pose, vel)).to_vec();
                for cut in 0..=wire.len() {
                    let whole = cut == wire.len();
                    assert_eq!(anchor_agrees_with_decode(&wire[..cut]), whole, "{} cut {cut}", e.name);
                }
                // A platform envelope after the update is ignored.
                for envelope in [vec![0; 50], vec![0xFF; 7]] {
                    let mut with = wire.clone();
                    with.extend(envelope);
                    assert!(anchor_agrees_with_decode(&with), "{}", e.name);
                }
                read += 1;
            }
        }
        assert_eq!(read, 48);
    }

    #[test]
    fn anchor_reader_agrees_with_decode_on_garbage_seeded() {
        let mut rng = svr_netsim::SimRng::seed_from_u64(0xC0DE_0003);
        let mut read = 0;
        for case in 0..2_048 {
            let len = rng.range_u64(0, 600) as usize;
            let mut data: Vec<u8> = (0..len).map(|_| rng.range_u64(0, 255) as u8).collect();
            // Half the cases declare few joints and weights, so that
            // some garbage reads whole.
            if case % 2 == 0 && len >= HEADER_LEN {
                data[9] &= 0x80; // keeps the bit past the last joint
                data[10] &= rng.range_u64(0, 255) as u8 & 0x1F;
                data[11] %= 8;
            }
            read += anchor_agrees_with_decode(&data) as usize;
        }
        assert!(read > 200, "{read} garbage strings read whole");
    }

    #[test]
    fn quantized_roundtrip_preserves_pose_within_error() {
        let e = Embodiment::full_body_cartoon();
        let u = make_update(42, 7, &e, sample_pose(&e), Vec::new());
        let dec = decode_update(&encode_update(&u)).unwrap();
        assert_eq!(dec.avatar_id, 42);
        assert_eq!(dec.tick, 7);
        assert_eq!(dec.pose.joints.len(), u.pose.joints.len());
        for ((j1, p1), (j2, p2)) in u.pose.joints.iter().zip(dec.pose.joints.iter()) {
            assert_eq!(j1, j2);
            assert!(p1.position.distance(p2.position) < 0.003, "joint {j1:?}");
            assert!(p1.rotation.angle_to(p2.rotation) < 0.01);
        }
        for (w1, w2) in u.pose.blendshapes.iter().zip(dec.pose.blendshapes.iter()) {
            assert!((w1 - w2).abs() < 0.005);
        }
    }

    #[test]
    fn full_precision_roundtrip_is_exact() {
        let e = Embodiment::human_like();
        let mut vel = Vec::new();
        for i in 0..e.joints.len() {
            vel.push(Vec3::new(0.1 * i as f32, -0.2, 0.05));
        }
        let u = make_update(9, 100, &e, sample_pose(&e), vel.clone());
        let dec = decode_update(&encode_update(&u)).unwrap();
        assert_eq!(dec.pose, u.pose);
        assert_eq!(dec.velocities, vel);
        assert_eq!(dec.precision, Precision::Full);
    }

    #[test]
    fn velocities_survive_quantized_roundtrip() {
        let e = Embodiment::upper_torso_simple_face();
        let vel: Vec<Vec3> =
            (0..e.joints.len()).map(|i| Vec3::new(0.5 * i as f32, 1.5, -0.25)).collect();
        let u = make_update(1, 1, &e, sample_pose(&e), vel.clone());
        let dec = decode_update(&encode_update(&u)).unwrap();
        for (a, b) in vel.iter().zip(dec.velocities.iter()) {
            assert!(a.distance(*b) < 0.002, "{a:?} vs {b:?}");
        }
    }

    #[test]
    fn truncated_update_rejected() {
        let e = Embodiment::human_like();
        let u = make_update(1, 1, &e, sample_pose(&e), Vec::new());
        let bytes = encode_update(&u);
        for cut in [0, 5, HEADER_LEN, bytes.len() - 1] {
            assert_eq!(decode_update(&bytes[..cut]), Err(CodecError::Truncated), "cut {cut}");
        }
    }

    #[test]
    fn make_update_fills_zero_velocities_when_profile_requires() {
        let e = Embodiment::human_like();
        let u = make_update(1, 1, &e, sample_pose(&e), Vec::new());
        assert_eq!(u.velocities.len(), e.joints.len());
        let e2 = Embodiment::upper_torso_no_face();
        let u2 = make_update(1, 1, &e2, sample_pose(&e2), Vec::new());
        assert!(u2.velocities.is_empty());
    }

    /// Property checks over inputs drawn from a fixed-seed RNG.
    #[test]
    fn prop_decode_never_panics_on_garbage_seeded() {
        let mut rng = svr_netsim::SimRng::seed_from_u64(0xC0DE_0001);
        for _case in 0..512 {
            let data: Vec<u8> = (0..rng.range_u64(0, 255))
                .map(|_| rng.range_u64(0, 255) as u8)
                .collect();
            let _ = decode_update(&data);
        }
    }

    #[test]
    fn prop_roundtrip_id_and_tick_seeded() {
        let mut rng = svr_netsim::SimRng::seed_from_u64(0xC0DE_0002);
        for _case in 0..64 {
            let id = rng.range_u64(0, u32::MAX as u64) as u32;
            let tick = rng.range_u64(0, u32::MAX as u64) as u32;
            let e = Embodiment::upper_torso_no_face();
            let u = make_update(id, tick, &e, sample_pose(&e), Vec::new());
            let dec = decode_update(&encode_update(&u)).unwrap();
            assert_eq!(dec.avatar_id, id);
            assert_eq!(dec.tick, tick);
        }
    }
}
