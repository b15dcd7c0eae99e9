//! Per-platform embodiment profiles.
//!
//! Figure 4 and §5.2 compare the five platforms' avatars: AltspaceVR and
//! Hubs have no arms and no facial expressions; Rec Room adds simple
//! facial emotes; VRChat has full (cartoon) bodies; Worlds is human-like
//! with gesture-driven facial expressions and is the only one whose data
//! rate is an order of magnitude higher. An [`Embodiment`] captures the
//! knobs that drive that cost: the joint set, the facial blendshape
//! count, the codec precision, and whether velocities are sent for
//! client-side extrapolation.

use crate::skeleton::Joint;

/// Pose codec precision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Precision {
    /// Quantised: 16-bit fixed-point positions, smallest-three rotations.
    Quantized,
    /// Full `f32` components (Worlds' human-like avatar fidelity).
    Full,
}

/// An avatar embodiment profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Embodiment {
    /// Profile name for reports.
    pub name: &'static str,
    /// Joints included in every update, canonical order.
    pub joints: Vec<Joint>,
    /// Facial blendshape channels (0 = no facial expression).
    pub blendshapes: usize,
    /// Codec precision.
    pub precision: Precision,
    /// Whether per-joint velocities are included (for extrapolation).
    pub velocities: bool,
}

impl Embodiment {
    /// Upper torso, no arms, no face — AltspaceVR's avatar (lowest rate
    /// in Table 3).
    pub fn upper_torso_no_face() -> Embodiment {
        Embodiment {
            name: "upper-torso/no-face",
            joints: vec![Joint::Root, Joint::Torso, Joint::Head],
            blendshapes: 0,
            precision: Precision::Quantized,
            velocities: false,
        }
    }

    /// Upper torso with floating hands, no face — Hubs' avatar (its high
    /// throughput comes from the HTTPS transport, not the embodiment).
    pub fn upper_torso_hands_no_face() -> Embodiment {
        Embodiment {
            name: "upper-torso+hands/no-face",
            joints: vec![Joint::Root, Joint::Torso, Joint::Head, Joint::LeftHand, Joint::RightHand],
            blendshapes: 0,
            precision: Precision::Quantized,
            velocities: false,
        }
    }

    /// Upper torso with hands and simple facial emotes — Rec Room.
    pub fn upper_torso_simple_face() -> Embodiment {
        Embodiment {
            name: "upper-torso/simple-face",
            joints: vec![Joint::Root, Joint::Torso, Joint::Head, Joint::LeftHand, Joint::RightHand],
            blendshapes: 8,
            precision: Precision::Quantized,
            velocities: true,
        }
    }

    /// Full cartoon body with facial flags — VRChat (the only full-body
    /// avatar among the five, §5.2).
    pub fn full_body_cartoon() -> Embodiment {
        Embodiment {
            name: "full-body/cartoon",
            joints: Joint::ALL.to_vec(),
            blendshapes: 4,
            precision: Precision::Quantized,
            velocities: false,
        }
    }

    /// Human-like upper body at full precision with rich gesture-driven
    /// facial expression — Worlds (10× the others' rate).
    pub fn human_like() -> Embodiment {
        Embodiment {
            name: "human-like",
            joints: vec![
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
            ],
            blendshapes: 32,
            precision: Precision::Full,
            velocities: true,
        }
    }

    /// A photo-realistic volumetric capture stand-in (Holoportation-like,
    /// §5.2's >1 Gbps data point) — full body, dense blendshapes, full
    /// precision. Used by the "better embodiment" ablation.
    pub fn photorealistic() -> Embodiment {
        Embodiment {
            name: "photorealistic",
            joints: Joint::ALL.to_vec(),
            blendshapes: 128,
            precision: Precision::Full,
            velocities: true,
        }
    }

    /// Whether the avatar has arms (Fig. 4's visible difference).
    pub fn has_arms(&self) -> bool {
        self.joints.contains(&Joint::LeftElbow) || self.joints.contains(&Joint::LeftShoulder)
    }

    /// Whether the avatar can express emotion facially.
    pub fn has_facial_expression(&self) -> bool {
        self.blendshapes > 0
    }

    /// A scalar complexity score used by the client rendering model:
    /// joints plus a discounted blendshape term, doubled at full precision.
    pub fn complexity(&self) -> f64 {
        let base = self.joints.len() as f64 + self.blendshapes as f64 / 8.0;
        match self.precision {
            Precision::Quantized => base,
            Precision::Full => base * 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::update_payload_size;

    #[test]
    fn profiles_match_figure_4_features() {
        assert!(!Embodiment::upper_torso_no_face().has_arms());
        assert!(!Embodiment::upper_torso_no_face().has_facial_expression());
        assert!(!Embodiment::upper_torso_hands_no_face().has_facial_expression());
        assert!(Embodiment::upper_torso_simple_face().has_facial_expression());
        assert!(Embodiment::full_body_cartoon().has_arms());
        assert!(Embodiment::human_like().has_facial_expression());
        assert!(Embodiment::human_like().has_arms());
    }

    #[test]
    fn complexity_ordering_matches_paper() {
        // Worlds' avatar is by far the most complex; AltspaceVR's the
        // least (§5.2).
        let alts = Embodiment::upper_torso_no_face().complexity();
        let hubs = Embodiment::upper_torso_hands_no_face().complexity();
        let rec = Embodiment::upper_torso_simple_face().complexity();
        let worlds = Embodiment::human_like().complexity();
        assert!(alts < hubs);
        assert!(hubs < rec);
        assert!(rec < worlds);
        assert!(Embodiment::photorealistic().complexity() > worlds);
    }

    #[test]
    fn update_size_ordering_matches_throughput_ordering() {
        // Per-update byte cost must rank the platforms the way Table 3's
        // avatar throughput does (given their tick rates, see
        // svr-platform).
        let alts = update_payload_size(&Embodiment::upper_torso_no_face());
        let vrchat = update_payload_size(&Embodiment::full_body_cartoon());
        let worlds = update_payload_size(&Embodiment::human_like());
        assert!(alts < vrchat, "{alts} < {vrchat}");
        assert!(vrchat < worlds, "{vrchat} < {worlds}");
        // Worlds' update is several times the others'.
        assert!(worlds > 3 * alts);
    }

    #[test]
    fn full_precision_doubles_complexity() {
        let mut e = Embodiment::full_body_cartoon();
        let quantized = e.complexity();
        e.precision = Precision::Full;
        assert_eq!(e.complexity(), quantized * 2.0);
    }
}
