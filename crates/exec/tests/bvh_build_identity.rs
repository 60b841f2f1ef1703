//! A BVH built on the job budget is byte-identical to the serial build,
//! at any pool width, under either split method, and when the build is
//! nested in a map that already holds every budget permit.

use rip_bvh::{serial, Bvh, BvhBuilder, SplitMethod};
use rip_exec::{set_global_budget, Case, CaseKey, JobPool};
use rip_math::{Triangle, Vec3};
use rip_scene::{SceneId, SceneScale};

const WIDTHS: [usize; 3] = [1, 2, 4];

/// Widest pool any test here asks for; the budget is process-wide, so
/// every test sets the same value.
fn budget() {
    set_global_budget(4);
}

fn serial_build(method: SplitMethod, tris: &[Triangle]) -> Vec<u8> {
    serial::encode(&BvhBuilder::new().split_method(method).build(tris))
}

fn pooled_build(method: SplitMethod, tris: &[Triangle], jobs: usize) -> Bvh {
    BvhBuilder::new()
        .split_method(method)
        .build_on(tris.to_vec(), &JobPool::new(jobs))
}

/// Quick-scale `id` (33k–80k triangles, above the job split threshold):
/// every width and split method gives the serial tree, and so does the
/// case build.
fn assert_identical_at_every_width(id: SceneId) {
    budget();
    let tris: Vec<Triangle> = id.build_mesh(SceneScale::Quick).triangles().collect();
    assert!(tris.len() > 32_768, "{id:?} has {} triangles", tris.len());
    for method in [SplitMethod::BinnedSah, SplitMethod::Median] {
        let expected = serial_build(method, &tris);
        for jobs in WIDTHS {
            let bvh = pooled_build(method, &tris, jobs);
            assert!(
                serial::encode(&bvh) == expected,
                "{id:?} {method:?} at {jobs} jobs differs from the serial build"
            );
        }
    }
    let case = Case::build(CaseKey::square(id, SceneScale::Quick, 16));
    assert!(serial::encode(&case.bvh) == serial_build(SplitMethod::BinnedSah, &tris));
}

#[test]
fn living_room_builds_identically_at_every_width() {
    assert_identical_at_every_width(SceneId::LivingRoom);
}

#[test]
fn bistro_builds_identically_at_every_width() {
    assert_identical_at_every_width(SceneId::BistroInterior);
}

#[test]
fn country_kitchen_builds_identically_at_every_width() {
    assert_identical_at_every_width(SceneId::CountryKitchen);
}

/// `n` copies of one triangle: every centroid coincides, so every split,
/// the serial top's included, is the median fallback.
fn coincident(n: usize) -> Vec<Triangle> {
    vec![Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y); n]
}

/// A strip of `n` disjoint triangles along x.
fn strip(n: usize) -> Vec<Triangle> {
    (0..n)
        .map(|i| {
            let o = Vec3::new(i as f32 * 2.0, (i % 7) as f32, 0.0);
            Triangle::new(o, o + Vec3::X, o + Vec3::Y)
        })
        .collect()
}

#[test]
fn coincident_centroids_above_the_threshold_split_by_median() {
    budget();
    let tris = coincident(40_000);
    for method in [SplitMethod::BinnedSah, SplitMethod::Median] {
        let expected = serial_build(method, &tris);
        for jobs in WIDTHS {
            let bvh = pooled_build(method, &tris, jobs);
            bvh.validate().unwrap();
            assert!(
                serial::encode(&bvh) == expected,
                "{method:?} at {jobs} jobs"
            );
        }
    }
}

#[test]
fn input_below_the_threshold_builds_identically() {
    budget();
    let tris = strip(5_000);
    for method in [SplitMethod::BinnedSah, SplitMethod::Median] {
        let expected = serial_build(method, &tris);
        for jobs in WIDTHS {
            assert!(serial::encode(&pooled_build(method, &tris, jobs)) == expected);
        }
    }
}

#[test]
fn build_inside_a_saturated_map_runs_inline_and_identically() {
    budget();
    let tris = strip(70_000);
    let expected = serial_build(SplitMethod::BinnedSah, &tris);
    // The outer map takes every permit it can; the nested builds get
    // what is left, down to none, and run their jobs inline.
    let outer: Vec<usize> = (0..4).collect();
    let encoded = JobPool::new(8).map(&outer, |_| {
        serial::encode(&pooled_build(SplitMethod::BinnedSah, &tris, 4))
    });
    for bytes in encoded {
        assert!(bytes == expected);
    }
}
