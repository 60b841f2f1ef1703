//! Benchmark cases: a scene's view plus its acceleration structure.
//!
//! A case holds each triangle once, in its BVH: the tree stores the
//! scene's triangles in scene order, and [`Bvh::bounds`] is the scene's
//! bounding box. Beside it the case keeps only the mesh-free
//! [`SceneView`] (scene id and camera), which is all that ray generation
//! reads. [`Case::from_scene`] drops the indexed mesh before the BVH
//! build starts, so the two copies never coexist.
//!
//! The [`CaseCache`](crate::cache::CaseCache) builds, persists, and
//! shares cases across experiments.

use std::sync::{Arc, OnceLock};

use crate::pool::{global_budget, JobPool};
use rip_bvh::{Bvh, BvhBuilder, JobMap, RayBatch};
use rip_render::{AoConfig, AoWorkload};
use rip_scene::{Scene, SceneId, SceneScale, SceneView};

/// Identity of a built case: everything that determines its bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CaseKey {
    /// Which benchmark scene.
    pub id: SceneId,
    /// Geometry scale.
    pub scale: SceneScale,
    /// Viewport width in pixels.
    pub width: u32,
    /// Viewport height in pixels.
    pub height: u32,
}

impl CaseKey {
    /// Key for a square viewport.
    pub fn square(id: SceneId, scale: SceneScale, viewport: u32) -> Self {
        CaseKey {
            id,
            scale,
            width: viewport,
            height: viewport,
        }
    }

    /// Stable lowercase label for file names and telemetry, e.g.
    /// `sb_tiny_48x48`.
    pub fn label(&self) -> String {
        let scale = match self.scale {
            SceneScale::Tiny => "tiny",
            SceneScale::Quick => "quick",
            SceneScale::Paper => "paper",
        };
        format!(
            "{}_{}_{}x{}",
            self.id.code().to_lowercase(),
            scale,
            self.width,
            self.height
        )
    }
}

/// A built benchmark case.
#[derive(Clone, Debug)]
pub struct Case {
    /// Scene id and camera: what ray generation reads.
    pub scene: SceneView,
    /// The acceleration structure, which holds the scene's triangles.
    pub bvh: Bvh,
    /// Lazily generated AO batch, shared across clones: the workload is a
    /// pure function of the case, so a sweep running many configurations
    /// over one case pays for ray generation once.
    ao_batch: Arc<OnceLock<Arc<RayBatch>>>,
}

impl Case {
    /// Builds the case for `key` from scratch: procedural scene synthesis
    /// followed by BVH construction.
    pub fn build(key: CaseKey) -> Self {
        let scene = key.id.build_with_viewport(key.scale, key.width, key.height);
        Case::from_scene(scene)
    }

    /// Builds the BVH for an already-synthesized scene. The triangles are
    /// collected and the mesh dropped before the build starts; the
    /// collected triangles then move into the tree instead of being
    /// copied. The build's subtree jobs run on the process-wide job
    /// budget, so the tree is the same at any `--jobs`; a build nested in
    /// a saturated map runs them inline.
    pub fn from_scene(scene: Scene) -> Self {
        let (view, mesh) = scene.into_parts();
        let triangles = mesh.triangles().collect();
        drop(mesh);
        let jobs = CaseBuildJobs {
            scene: view.id,
            pool: JobPool::new(global_budget()),
        };
        let bvh = BvhBuilder::new().build_on(triangles, &jobs);
        Case::from_parts(view, bvh)
    }

    /// Assembles a case from a scene view and the BVH built over that
    /// scene's triangles (the artifact cache's load path).
    pub fn from_parts(scene: SceneView, bvh: Bvh) -> Self {
        Case {
            scene,
            bvh,
            ao_batch: Arc::new(OnceLock::new()),
        }
    }

    /// Generates this case's AO workload with the §5.2 parameters.
    pub fn ao_workload(&self) -> AoWorkload {
        AoWorkload::generate(&self.scene, &self.bvh, &AoConfig::default())
    }

    /// The AO workload as a SoA [`RayBatch`], ready for the batched
    /// simulator and kernel entry points. Generated on first call and
    /// shared (including across clones of this case) after that.
    pub fn ao_batch(&self) -> Arc<RayBatch> {
        Arc::clone(
            self.ao_batch
                .get_or_init(|| Arc::new(self.ao_workload().batch())),
        )
    }
}

/// The job pool of a case's BVH build, which reports how the build split.
struct CaseBuildJobs {
    scene: SceneId,
    pool: JobPool,
}

impl JobMap for CaseBuildJobs {
    fn map_jobs<T: Sync, U: Send>(&self, items: &[T], f: impl Fn(&T) -> U + Sync) -> Vec<U> {
        let code = self.scene.code();
        rip_obs::Obs::global()
            .event("exec.case", "bvh_jobs")
            .arg("scene", code)
            .arg_u64("jobs", items.len() as u64)
            .stderr(format!(
                "[rip-exec] {code}: BVH build split into {} subtree jobs",
                items.len()
            ))
            .emit();
        self.pool.map_jobs(items, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_produces_consistent_case() {
        let case = Case::build(CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, 16));
        assert_eq!(case.scene.id, SceneId::Sibenik);
        assert_eq!(
            (case.scene.camera.width(), case.scene.camera.height()),
            (16, 16)
        );
        assert!(case.bvh.triangle_count() > 0);
        case.bvh.validate().unwrap();
    }

    #[test]
    fn key_labels_are_stable() {
        let key = CaseKey::square(SceneId::CrytekSponza, SceneScale::Quick, 256);
        assert_eq!(key.label(), "sp_quick_256x256");
        let rect = CaseKey {
            id: SceneId::Sibenik,
            scale: SceneScale::Tiny,
            width: 32,
            height: 24,
        };
        assert_eq!(rect.label(), "sb_tiny_32x24");
    }
}
