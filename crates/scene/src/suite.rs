//! The benchmark scene suite mirroring Table 1 of the paper.

use crate::{procedural, Camera, TriangleMesh};
use rip_math::{Aabb, Vec3};

/// Identifier for one of the seven benchmark scenes (Table 1).
///
/// Each variant builds a procedural analog of the corresponding original
/// model (see `DESIGN.md` §2 for the substitution rationale).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SceneId {
    /// Sibenik Cathedral analog (vaulted hall), ~75K triangles.
    Sibenik,
    /// Crytek Sponza analog (two-story atrium), ~262K triangles.
    CrytekSponza,
    /// Lost Empire analog (voxel terrain town), ~225K triangles.
    LostEmpire,
    /// Living Room analog, ~581K triangles.
    LivingRoom,
    /// Fireplace Room analog, ~143K triangles.
    FireplaceRoom,
    /// Bistro (Interior) analog, ~1M triangles.
    BistroInterior,
    /// Country Kitchen analog, ~1.4M triangles.
    CountryKitchen,
}

/// All seven scenes in Table-1 order.
pub const SCENE_IDS: [SceneId; 7] = [
    SceneId::Sibenik,
    SceneId::CrytekSponza,
    SceneId::LostEmpire,
    SceneId::LivingRoom,
    SceneId::FireplaceRoom,
    SceneId::BistroInterior,
    SceneId::CountryKitchen,
];

/// Geometry detail level.
///
/// Experiments run at three scales; shapes (relative orderings, rough
/// factors) are stable across them while absolute work scales by ~two
/// orders of magnitude.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum SceneScale {
    /// ~1/256 of the paper triangle budget — unit/integration tests.
    Tiny,
    /// ~1/16 of the paper budget — default for local experiment runs.
    #[default]
    Quick,
    /// Full Table-1 triangle budgets.
    Paper,
}

impl SceneScale {
    /// Divisor applied to the paper triangle budget.
    pub fn divisor(self) -> usize {
        match self {
            SceneScale::Tiny => 256,
            SceneScale::Quick => 16,
            SceneScale::Paper => 1,
        }
    }

    /// Parses `"tiny" | "quick" | "paper"` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "tiny" => Some(SceneScale::Tiny),
            "quick" => Some(SceneScale::Quick),
            "paper" => Some(SceneScale::Paper),
            _ => None,
        }
    }
}

/// A built benchmark scene: geometry plus a camera matching the scene's
/// intended interior viewpoint.
#[derive(Clone, Debug)]
pub struct Scene {
    /// Which benchmark this is.
    pub id: SceneId,
    /// The triangle geometry.
    pub mesh: TriangleMesh,
    /// Viewpoint used to generate primary rays.
    pub camera: Camera,
}

impl AsRef<Camera> for Scene {
    fn as_ref(&self) -> &Camera {
        &self.camera
    }
}

/// A scene without its geometry: which benchmark it is and the camera
/// its rays start from. Held beside a BVH that stores the triangles;
/// [`SceneId::view`] derives it from the tree's bounds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SceneView {
    /// Which benchmark this is.
    pub id: SceneId,
    /// Viewpoint used to generate primary rays.
    pub camera: Camera,
}

impl AsRef<Camera> for SceneView {
    fn as_ref(&self) -> &Camera {
        &self.camera
    }
}

impl SceneId {
    /// The scene's short code used in the paper's figures (SB, SP, …).
    pub fn code(self) -> &'static str {
        match self {
            SceneId::Sibenik => "SB",
            SceneId::CrytekSponza => "SP",
            SceneId::LostEmpire => "LE",
            SceneId::LivingRoom => "LR",
            SceneId::FireplaceRoom => "FR",
            SceneId::BistroInterior => "BI",
            SceneId::CountryKitchen => "CK",
        }
    }

    /// Human-readable name as printed in Table 1.
    pub fn name(self) -> &'static str {
        match self {
            SceneId::Sibenik => "Sibenik",
            SceneId::CrytekSponza => "Crytek Sponza",
            SceneId::LostEmpire => "Lost Empire",
            SceneId::LivingRoom => "Living Room",
            SceneId::FireplaceRoom => "Fireplace Room",
            SceneId::BistroInterior => "Bistro (Interior)",
            SceneId::CountryKitchen => "Country Kitchen",
        }
    }

    /// Triangle count of the original model per Table 1.
    pub fn paper_triangles(self) -> usize {
        match self {
            SceneId::Sibenik => 75_000,
            SceneId::CrytekSponza => 262_000,
            SceneId::LostEmpire => 225_000,
            SceneId::LivingRoom => 581_000,
            SceneId::FireplaceRoom => 143_000,
            SceneId::BistroInterior => 1_000_000,
            SceneId::CountryKitchen => 1_400_000,
        }
    }

    /// BVH depth of the original model per Table 1 (for reference in the
    /// regenerated table).
    pub fn paper_bvh_depth(self) -> u32 {
        match self {
            SceneId::Sibenik => 23,
            SceneId::CrytekSponza => 23,
            SceneId::LostEmpire => 22,
            SceneId::LivingRoom => 23,
            SceneId::FireplaceRoom => 23,
            SceneId::BistroInterior => 25,
            SceneId::CountryKitchen => 27,
        }
    }

    /// AO rays traced in the paper (millions × 10⁶), per Table 1.
    pub fn paper_ao_rays(self) -> usize {
        match self {
            SceneId::Sibenik => 4_200_000,
            SceneId::CrytekSponza => 4_200_000,
            SceneId::LostEmpire => 3_900_000,
            SceneId::LivingRoom => 4_200_000,
            SceneId::FireplaceRoom => 4_200_000,
            SceneId::BistroInterior => 4_200_000,
            SceneId::CountryKitchen => 4_000_000,
        }
    }

    /// Deterministic seed for this scene's generator.
    pub fn seed(self) -> u64 {
        0x5EED_0000 + self as u64
    }

    /// Builds the procedural mesh at the given scale.
    pub fn build_mesh(self, scale: SceneScale) -> TriangleMesh {
        let budget = (self.paper_triangles() / scale.divisor()).max(500);
        let seed = self.seed();
        match self {
            SceneId::Sibenik => procedural::build_vaulted_hall(budget, seed),
            SceneId::CrytekSponza => procedural::build_atrium(budget, seed),
            SceneId::LostEmpire => procedural::build_voxel_terrain(budget, seed),
            SceneId::LivingRoom => procedural::build_living_room(budget, seed),
            SceneId::FireplaceRoom => procedural::build_fireplace_room(budget, seed),
            SceneId::BistroInterior => procedural::build_bistro_interior(budget, seed),
            SceneId::CountryKitchen => procedural::build_country_kitchen(budget, seed),
        }
    }

    /// Builds the scene (mesh plus camera) at the given scale, with a
    /// default 256×256 viewport. Use [`SceneId::build_with_viewport`] to
    /// control resolution.
    pub fn build(self, scale: SceneScale) -> Scene {
        self.build_with_viewport(scale, 256, 256)
    }

    /// Builds the scene with an explicit viewport resolution.
    pub fn build_with_viewport(self, scale: SceneScale, width: u32, height: u32) -> Scene {
        let mesh = self.build_mesh(scale);
        let camera = self.view(mesh.bounds(), width, height).camera;
        Scene {
            id: self,
            mesh,
            camera,
        }
    }

    /// The scene's view at a `width`×`height` viewport: the camera is a
    /// pure function of the bounds of the scene's geometry, so a tree
    /// whose root box is the mesh's gives the same view as the mesh.
    pub fn view(self, bounds: Aabb, width: u32, height: u32) -> SceneView {
        let center = bounds.center();
        // Interior viewpoint: stand inside the volume near a corner at
        // standing height, look across the room.
        let eye = bounds.min + bounds.diagonal() * Vec3::new(0.18, 0.45, 0.22);
        let target = Vec3::new(
            center.x,
            bounds.min.y + bounds.diagonal().y * 0.35,
            center.z,
        );
        SceneView {
            id: self,
            camera: Camera::look_at(eye, target, Vec3::Y, 65.0, width, height),
        }
    }
}

impl std::fmt::Display for SceneId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenes_build_at_tiny_scale() {
        for id in SCENE_IDS {
            let scene = id.build(SceneScale::Tiny);
            assert!(
                scene.mesh.triangle_count() >= 300,
                "{id} produced only {}",
                scene.mesh.triangle_count()
            );
            scene.mesh.validate().unwrap();
        }
    }

    #[test]
    fn quick_scale_tracks_paper_ratios() {
        let kitchen = SceneId::CountryKitchen
            .build_mesh(SceneScale::Tiny)
            .triangle_count();
        let hall = SceneId::Sibenik
            .build_mesh(SceneScale::Tiny)
            .triangle_count();
        assert!(
            kitchen > hall,
            "kitchen ({kitchen}) should out-detail the hall ({hall})"
        );
    }

    #[test]
    fn camera_sits_inside_scene_bounds() {
        for id in SCENE_IDS {
            let scene = id.build(SceneScale::Tiny);
            let b = scene.mesh.bounds();
            assert!(
                b.contains_point(scene.camera.position()),
                "{id} camera escaped the scene"
            );
        }
    }

    #[test]
    fn codes_and_names_are_unique() {
        let mut codes: Vec<_> = SCENE_IDS.iter().map(|s| s.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), 7);
    }

    #[test]
    fn scale_parse_round_trip() {
        assert_eq!(SceneScale::parse("tiny"), Some(SceneScale::Tiny));
        assert_eq!(SceneScale::parse("QUICK"), Some(SceneScale::Quick));
        assert_eq!(SceneScale::parse("Paper"), Some(SceneScale::Paper));
        assert_eq!(SceneScale::parse("huge"), None);
    }

    #[test]
    fn builds_are_deterministic() {
        let a = SceneId::LivingRoom.build_mesh(SceneScale::Tiny);
        let b = SceneId::LivingRoom.build_mesh(SceneScale::Tiny);
        assert_eq!(a, b);
    }
}
