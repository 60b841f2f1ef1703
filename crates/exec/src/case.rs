//! Benchmark cases: a scene plus its acceleration structure.
//!
//! `Case` used to live in the `rip-bench` harness; it moved here so the
//! [`CaseCache`](crate::cache::CaseCache) can build, persist, and share
//! cases across experiments without depending on the bench crate.

use std::sync::{Arc, OnceLock};

use crate::pool::{global_budget, JobPool};
use rip_bvh::{Bvh, BvhBuilder, JobMap, RayBatch};
use rip_render::{AoConfig, AoWorkload};
use rip_scene::{Scene, SceneId, SceneScale};

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
    /// Which scene.
    pub id: SceneId,
    /// Scene geometry and camera.
    pub scene: Scene,
    /// The acceleration structure.
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

    /// Builds the BVH for an already-synthesized scene; the collected
    /// triangles move into the tree instead of being copied. The build's
    /// subtree jobs run on the process-wide job budget, so the tree is
    /// the same at any `--jobs`; a build nested in a saturated map runs
    /// them inline.
    pub fn from_scene(scene: Scene) -> Self {
        let jobs = CaseBuildJobs {
            scene: scene.id,
            pool: JobPool::new(global_budget()),
        };
        let bvh = BvhBuilder::new().build_on(scene.mesh.triangles().collect(), &jobs);
        Case::from_parts(scene.id, scene, bvh)
    }

    /// Assembles a case from an already-built scene and BVH (the artifact
    /// cache's load path).
    pub fn from_parts(id: SceneId, scene: Scene, bvh: Bvh) -> Self {
        Case {
            id,
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
        assert_eq!(case.id, SceneId::Sibenik);
        assert_eq!(case.bvh.triangle_count(), case.scene.mesh.triangle_count());
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
