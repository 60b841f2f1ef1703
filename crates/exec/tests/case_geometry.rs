//! A case holds its scene's triangles once, in its BVH: the tree must
//! store the synthesized mesh's triangles in index order, and its bounds
//! must be the mesh's. Ray generation and the dynamic-scene study read
//! the geometry through the BVH alone, and a case derives its view from
//! the tree's bounds, so this is what keeps them equal to reading the
//! mesh: the derived view must be the one synthesized with the mesh.

use rip_exec::{Case, CaseKey};
use rip_math::Triangle;
use rip_scene::{SceneScale, SCENE_IDS};

fn assert_bvh_holds_the_mesh(key: CaseKey) {
    let scene = key.id.build_with_viewport(key.scale, key.width, key.height);
    let case = Case::build(key);
    let expected: Vec<Triangle> = scene.mesh.triangles().collect();
    assert_eq!(case.bvh.triangle_count(), expected.len(), "{}", key.label());
    assert!(
        case.bvh.triangles() == expected.as_slice(),
        "{}: the BVH's triangles differ from the mesh's, in value or order",
        key.label()
    );
    assert_eq!(case.bvh.bounds(), scene.mesh.bounds(), "{}", key.label());
    assert_eq!(case.scene.id, scene.id, "{}", key.label());
    assert_eq!(
        case.scene.camera,
        scene.camera,
        "{}: the view derived from the tree differs from the synthesized one",
        key.label()
    );
}

#[test]
fn every_case_bvh_holds_its_mesh_at_tiny_and_quick_scale() {
    for scale in [SceneScale::Tiny, SceneScale::Quick] {
        for id in SCENE_IDS {
            assert_bvh_holds_the_mesh(CaseKey::square(id, scale, 8));
        }
    }
}

#[test]
#[ignore = "paper scale; the manual Paper scale workflow runs it"]
fn every_case_bvh_holds_its_mesh_at_paper_scale() {
    for id in SCENE_IDS {
        assert_bvh_holds_the_mesh(CaseKey::square(id, SceneScale::Paper, 8));
    }
}
