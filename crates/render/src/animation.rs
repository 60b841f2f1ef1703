//! Dynamic-scene animation for the cross-frame predictor study (the §8
//! future-work direction: "Predictor states could potentially be preserved
//! between frames and the predictor retrained only for dynamic elements").
//!
//! An [`AnimatedScene`] splits a benchmark scene into a static part and a
//! dynamic part (a configurable fraction of the triangles, chosen around
//! the scene centre to stand in for moving characters/props). Each frame
//! rigidly transforms the dynamic part; the BVH is *refitted* (topology and
//! node ids unchanged, [`rip_bvh::Bvh::refit`]) so predictor state trained
//! on earlier frames remains meaningful.

use rip_bvh::Bvh;
use rip_math::{Triangle, Vec3};

/// A scene with a rigidly animated subset of triangles.
///
/// # Examples
///
/// ```
/// use rip_bvh::Bvh;
/// use rip_render::AnimatedScene;
/// use rip_scene::{SceneId, SceneScale};
///
/// let scene = SceneId::Sibenik.build_with_viewport(SceneScale::Tiny, 16, 16);
/// let tris: Vec<_> = scene.mesh.triangles().collect();
/// let mut animated = AnimatedScene::new(&Bvh::build(&tris), 0.1, 0.02);
/// let frame0 = animated.bvh().triangle_count();
/// animated.advance_frame();
/// assert_eq!(animated.bvh().triangle_count(), frame0, "topology is stable");
/// ```
#[derive(Clone, Debug)]
pub struct AnimatedScene {
    /// The dynamic triangles: each one's index in the tree and its rest
    /// pose (frame 0). The static triangles live only in the tree.
    dynamic: Vec<(usize, Triangle)>,
    /// Orbit amplitude in world units.
    amplitude: f32,
    frame: u32,
    bvh: Bvh,
}

impl AnimatedScene {
    /// Animates the scene `bvh` was built over: frame 0 is `bvh` itself,
    /// and roughly `dynamic_fraction` of its triangles (those nearest the
    /// centre of its bounds) form the animated subset.
    ///
    /// `amplitude` is the per-frame displacement amplitude as a fraction of
    /// the scene diagonal (typical game-style motion: 0.01–0.05).
    ///
    /// # Panics
    ///
    /// Panics when `dynamic_fraction` is not in `(0, 1)` or the tree is
    /// empty.
    pub fn new(bvh: &Bvh, dynamic_fraction: f32, amplitude: f32) -> Self {
        assert!(
            dynamic_fraction > 0.0 && dynamic_fraction < 1.0,
            "dynamic fraction must be in (0, 1)"
        );
        let tris = bvh.triangles();
        assert!(!tris.is_empty(), "scene has no triangles");
        let bounds = bvh.bounds();
        let pivot = bounds.center();
        // Nearest-to-centre triangles become the dynamic set.
        let mut by_distance: Vec<usize> = (0..tris.len()).collect();
        by_distance.sort_by(|&a, &b| {
            let da = (tris[a].centroid() - pivot).length_squared();
            let db = (tris[b].centroid() - pivot).length_squared();
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        });
        let count = ((tris.len() as f32 * dynamic_fraction) as usize).max(1);
        let dynamic = by_distance[..count].iter().map(|&i| (i, tris[i])).collect();
        AnimatedScene {
            dynamic,
            amplitude: amplitude * bounds.diagonal_length(),
            frame: 0,
            bvh: bvh.clone(),
        }
    }

    /// Current frame number.
    pub fn frame(&self) -> u32 {
        self.frame
    }

    /// Number of dynamic triangles.
    pub fn dynamic_count(&self) -> usize {
        self.dynamic.len()
    }

    /// The current frame's BVH, which holds the frame's triangles.
    pub fn bvh(&self) -> &Bvh {
        &self.bvh
    }

    /// Advances to the next frame: moves the dynamic triangles in the
    /// tree to the frame's pose and refits it in place (node ids stay
    /// valid across frames).
    pub fn advance_frame(&mut self) {
        self.frame += 1;
        let offset = self.offset(self.frame);
        let dynamic = &self.dynamic;
        self.bvh.refit(|tris| {
            for &(i, rest) in dynamic {
                // Rigid translation orbiting the pivot.
                tris[i] = Triangle::new(rest.a + offset, rest.b + offset, rest.c + offset);
            }
        });
    }

    /// The dynamic triangles' displacement from their rest pose at
    /// `frame`.
    fn offset(&self, frame: u32) -> Vec3 {
        let phase = frame as f32 * 0.35;
        Vec3::new(phase.sin(), 0.15 * (phase * 2.0).sin(), phase.cos()) * self.amplitude
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_bvh::TraversalKind;
    use rip_math::Ray;
    use rip_scene::{SceneId, SceneScale};

    fn tiny_bvh(id: SceneId) -> Bvh {
        Bvh::build(
            &id.build_mesh(SceneScale::Tiny)
                .triangles()
                .collect::<Vec<_>>(),
        )
    }

    fn animated() -> AnimatedScene {
        AnimatedScene::new(&tiny_bvh(SceneId::FireplaceRoom), 0.08, 0.02)
    }

    /// A frame's triangles as a full copy of the scene with the dynamic
    /// subset displaced from its rest pose.
    fn expected_frame(base: &[Triangle], a: &AnimatedScene, frame: u32) -> Vec<Triangle> {
        let offset = a.offset(frame);
        let mut tris = base.to_vec();
        for &(i, _) in &a.dynamic {
            let t = &mut tris[i];
            *t = Triangle::new(t.a + offset, t.b + offset, t.c + offset);
        }
        tris
    }

    #[test]
    fn frame_triangles_are_the_rest_pose_displaced() {
        let base = tiny_bvh(SceneId::FireplaceRoom).triangles().to_vec();
        let mut a = animated();
        assert!(
            a.bvh().triangles() == base.as_slice(),
            "frame 0 is the scene"
        );
        for frame in 1..=4 {
            a.advance_frame();
            assert!(
                a.bvh().triangles() == expected_frame(&base, &a, frame).as_slice(),
                "frame {frame}"
            );
        }
    }

    #[test]
    fn dynamic_subset_moves_static_does_not() {
        let base = tiny_bvh(SceneId::FireplaceRoom).triangles().to_vec();
        let mut a = animated();
        for _ in 0..3 {
            a.advance_frame();
        }
        let mut moved = 0;
        let mut still = 0;
        for (t0, t3) in base.iter().zip(a.bvh().triangles()) {
            if (t0.a - t3.a).length() > 1e-6 {
                moved += 1;
            } else {
                still += 1;
            }
        }
        assert_eq!(moved, a.dynamic_count());
        assert!(still > moved, "most of the scene must be static");
    }

    #[test]
    fn refit_across_frames_stays_exact() {
        let mut a = animated();
        for _ in 0..4 {
            a.advance_frame();
            a.bvh().validate().unwrap();
            let reference = Bvh::build(a.bvh().triangles());
            // Same results as a from-scratch rebuild for a ray batch.
            for i in 0..20 {
                let o = a.bvh().bounds().center()
                    + Vec3::new((i % 5) as f32 - 2.0, 1.0, (i / 5) as f32 - 2.0);
                let ray = Ray::segment(o, -Vec3::Y, 10.0);
                assert_eq!(
                    a.bvh().intersect(&ray, TraversalKind::AnyHit).hit.is_some(),
                    reference
                        .intersect(&ray, TraversalKind::AnyHit)
                        .hit
                        .is_some(),
                    "frame {} ray {i} diverged",
                    a.frame()
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "dynamic fraction")]
    fn bad_fraction_panics() {
        let _ = AnimatedScene::new(&tiny_bvh(SceneId::Sibenik), 1.5, 0.01);
    }
}
