//! Benchmark cases: one tree per scene and scale, seen through a viewport.
//!
//! A BVH depends only on the scene and the scale (`TreeKey`); the
//! viewport changes only the camera, and the camera is a pure function of
//! the scene's bounds ([`SceneId::view`]). So a case is a shared tree plus
//! a [`SceneView`] derived from the tree's bounds, which are the scene's:
//! the tree stores the scene's triangles in scene order, each once, and
//! every viewport of one scene and scale shares it.
//!
//! The [`CaseCache`](crate::cache::CaseCache) builds, persists, and
//! shares the trees and the cases over them across experiments.

use std::sync::{Arc, OnceLock};

use crate::pool::{global_budget, JobPool};
use rip_bvh::{Bvh, BvhBuilder, JobMap, RayBatch};
use rip_render::{AoConfig, AoWorkload};
use rip_scene::{SceneId, SceneScale, SceneView};

/// Identity of a case: its tree plus a viewport.
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
        format!("{}_{}x{}", self.tree().label(), self.width, self.height)
    }

    /// The key of the tree this case is seen through.
    pub(crate) fn tree(&self) -> TreeKey {
        TreeKey {
            id: self.id,
            scale: self.scale,
        }
    }
}

/// Identity of a built BVH: the scene and the scale, which alone
/// determine its bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) struct TreeKey {
    pub(crate) id: SceneId,
    pub(crate) scale: SceneScale,
}

impl TreeKey {
    /// Stable lowercase label for file names and telemetry, e.g.
    /// `sb_tiny`.
    pub(crate) fn label(&self) -> String {
        let scale = match self.scale {
            SceneScale::Tiny => "tiny",
            SceneScale::Quick => "quick",
            SceneScale::Paper => "paper",
        };
        format!("{}_{scale}", self.id.code().to_lowercase())
    }

    /// Builds the tree from scratch: procedural scene synthesis, then a
    /// BVH build over the scene's triangles. The mesh is dropped before
    /// the build starts, and the collected triangles move into the tree
    /// instead of being copied. The build's subtree jobs run on the
    /// process-wide job budget, so the tree is the same at any `--jobs`;
    /// a build nested in a saturated map runs them inline.
    pub(crate) fn build(self) -> Bvh {
        let triangles = self.id.build_mesh(self.scale).triangles().collect();
        let jobs = CaseBuildJobs {
            scene: self.id,
            pool: JobPool::new(global_budget()),
        };
        BvhBuilder::new().build_on(triangles, &jobs)
    }
}

/// A built benchmark case.
#[derive(Clone, Debug)]
pub struct Case {
    /// Scene id and camera: what ray generation reads, derived from the
    /// tree's bounds.
    pub scene: SceneView,
    /// The acceleration structure, which holds the scene's triangles and
    /// is shared by every viewport of the scene and scale.
    pub bvh: Arc<Bvh>,
    /// Lazily generated AO batch, shared across clones: the workload is a
    /// pure function of the case, so a sweep running many configurations
    /// over one case pays for ray generation once.
    ao_batch: Arc<OnceLock<Arc<RayBatch>>>,
}

impl Case {
    /// Builds the case for `key` from scratch, tree and all.
    pub fn build(key: CaseKey) -> Self {
        Case::new(key, Arc::new(key.tree().build()))
    }

    /// The case for `key` over `bvh`, the tree of `key.tree()`: its view
    /// is derived from the tree's bounds.
    pub fn new(key: CaseKey, bvh: Arc<Bvh>) -> Self {
        Case {
            scene: key.id.view(bvh.bounds(), key.width, key.height),
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
        assert_eq!(key.tree().label(), "sp_quick");
        let rect = CaseKey {
            id: SceneId::Sibenik,
            scale: SceneScale::Tiny,
            width: 32,
            height: 24,
        };
        assert_eq!(rect.label(), "sb_tiny_32x24");
    }
}
