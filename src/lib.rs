//! # Ray Intersection Predictor
//!
//! A full Rust reproduction of *Intersection Prediction for Accelerated
//! GPU Ray Tracing* (MICRO 2021): a hardware predictor that memoizes which
//! BVH node spatially similar occlusion rays intersected and speculatively
//! elides the interior traversal for future rays.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`math`] | `rip-math` | vectors, rays, AABBs, triangles, sampling |
//! | [`scene`] | `rip-scene` | procedural benchmark scenes, OBJ, cameras |
//! | [`bvh`] | `rip-bvh` | binned-SAH BVH, while-while traversal |
//! | [`predictor`] | `rip-core` | **the paper's contribution**: hash functions, predictor table, Go Up Level, oracles, Equation 1 |
//! | [`gpusim`] | `rip-gpusim` | cycle-level RT unit + memory hierarchy |
//! | [`energy`] | `rip-energy` | Table 4 energy model |
//! | [`render`] | `rip-render` | AO/GI workloads, images, reference model |
//!
//! # Quickstart
//!
//! ```
//! use ray_intersection_predictor::prelude::*;
//!
//! // Build a benchmark scene and its BVH.
//! let scene = SceneId::Sibenik.build_with_viewport(SceneScale::Tiny, 32, 32);
//! let tris: Vec<Triangle> = scene.mesh.triangles().collect();
//! let bvh = Bvh::build(&tris);
//!
//! // Trace an AO workload through the predictor.
//! let workload = AoWorkload::generate(&scene, &bvh, &AoConfig::default());
//! let sim = FunctionalSim::new(PredictorConfig::paper_default(), SimOptions::default());
//! let report = sim
//!     .run(&bvh, &workload.batch(), TraversalKind::AnyHit, None, None)
//!     .expect("no trace to reject");
//! println!("verified rays: {:.1}%", report.prediction.verified_rate() * 100.0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub use rip_bvh as bvh;
pub use rip_core as predictor;
pub use rip_energy as energy;
pub use rip_gpusim as gpusim;
pub use rip_math as math;
pub use rip_render as render;
pub use rip_scene as scene;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use rip_bvh::{Bvh, BvhBuilder, NodeId, RayBatch, Traversal, TraversalKind};
    pub use rip_core::{
        trace, AdaptivePredictor, FunctionalSim, HashFunction, OracleMode, Prediction, Predictor,
        PredictorConfig, RayOutcome, SimOptions,
    };
    pub use rip_energy::EnergyModel;
    pub use rip_gpusim::{GpuConfig, RepackMode, SimReport, Simulator};
    pub use rip_math::{Aabb, Ray, Triangle, Vec3};
    pub use rip_render::{
        AnimatedScene, AoConfig, AoWorkload, GiConfig, GiWorkload, GrayImage, ShadowConfig,
        ShadowWorkload,
    };
    pub use rip_scene::{Camera, Scene, SceneId, SceneScale, TriangleMesh, SCENE_IDS};
}
