//! The BVH of zero triangles has a defined outcome: every kernel, bare
//! or behind the predictor, misses on it, and its artifact round-trips.

use rip_bvh::{
    Bvh, RayBatch, StacklessKernel, SteppableKernel, TraversalKernel, TraversalKind,
    WhileWhileKernel, WideBvh, WideKernel,
};
use rip_core::{Predicted, PredictorConfig};
use rip_math::{Ray, Vec3};

/// Rays from inside, outside and along the axes, including a finite
/// segment, so no kernel can pass by rejecting them all at one check.
fn rays() -> RayBatch {
    RayBatch::from_rays(&[
        Ray::new(Vec3::ZERO, Vec3::Z),
        Ray::new(Vec3::new(0.2, 0.2, -1.0), Vec3::Z),
        Ray::new(Vec3::splat(5.0), -Vec3::X),
        Ray::segment(Vec3::new(-1.0, 0.5, 0.5), Vec3::X, 3.0),
    ])
}

fn assert_misses(kernel: &mut impl TraversalKernel) {
    let name = kernel.name();
    for kind in [TraversalKind::AnyHit, TraversalKind::ClosestHit] {
        // Twice, so the predictor wrapper also runs with whatever its
        // first pass trained.
        for pass in 0..2 {
            for (i, result) in kernel.trace_batch(&rays(), kind).iter().enumerate() {
                assert!(
                    result.hit.is_none(),
                    "{name} {kind:?} pass {pass}: ray {i} hit the empty tree"
                );
            }
        }
    }
}

#[test]
fn every_kernel_misses_on_the_empty_tree() {
    let bvh = Bvh::build(&[]);
    assert_eq!(bvh.triangle_count(), 0);
    assert!(bvh.triangles().is_empty());
    bvh.validate().unwrap();
    let wide = WideBvh::from_binary(&bvh);

    assert_misses(&mut WhileWhileKernel::new(&bvh));
    assert_misses(&mut StacklessKernel::new(&bvh));
    assert_misses(&mut WideKernel::new(&wide, &bvh));
    assert_misses(&mut SteppableKernel::new(&bvh));

    let config = PredictorConfig {
        update_delay: 0,
        ..PredictorConfig::paper_default()
    };
    assert_misses(&mut Predicted::new(
        &bvh,
        config,
        WhileWhileKernel::new(&bvh),
    ));
    assert_misses(&mut Predicted::new(
        &bvh,
        config,
        StacklessKernel::new(&bvh),
    ));
    assert_misses(&mut Predicted::new(
        &bvh,
        config,
        WideKernel::new(&wide, &bvh),
    ));
    assert_misses(&mut Predicted::new(
        &bvh,
        config,
        SteppableKernel::new(&bvh),
    ));
}

#[test]
fn the_empty_tree_round_trips_through_its_artifact() {
    let bvh = Bvh::build(&[]);
    let bytes = rip_bvh::serial::encode(&bvh);
    let decoded = rip_bvh::serial::decode(&bytes).unwrap();
    decoded.validate().unwrap();
    assert_eq!(decoded.node_count(), 1);
    assert_eq!(decoded.triangle_count(), 0);
    assert!(decoded.bounds().is_empty());
    assert_eq!(rip_bvh::serial::encode(&decoded), bytes);
}
