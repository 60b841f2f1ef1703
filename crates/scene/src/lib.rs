//! Scene substrate: triangle meshes, procedural benchmark scenes, cameras
//! and OBJ I/O.
//!
//! The paper evaluates on seven artist-authored scenes (Table 1). Those
//! models are not redistributable here, so this crate ships **seeded
//! procedural analogs** with matching triangle-count magnitude and the same
//! interior/architectural occlusion character (see `DESIGN.md` §2 for the
//! substitution rationale), plus a minimal OBJ loader so the original models
//! can be dropped in.
//!
//! # Examples
//!
//! ```
//! use rip_scene::{SceneId, SceneScale};
//!
//! let scene = SceneId::CrytekSponza.build(SceneScale::Tiny);
//! assert!(scene.mesh.triangle_count() > 100);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod camera;
mod mesh;
pub mod noise;
pub mod obj;
pub mod primitives;
pub mod procedural;
pub mod serial;
mod suite;

pub use camera::Camera;
pub use mesh::TriangleMesh;
pub use suite::{Scene, SceneId, SceneScale, SceneView, SCENE_IDS};
