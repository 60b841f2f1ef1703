//! SIMD differential layer: the vectorized wide kernel must be
//! bit-identical across lane backends.
//!
//! `rip-bvh` traverses the compressed 4-wide BVH either with explicit
//! SSE2 lanes (feature `simd`, forwarded here as `rip-testkit/simd`) or
//! with a portable scalar emulation. The contract is that the choice is
//! *unobservable*: same hit bits, same statistics. CI runs this suite
//! under both configurations; the committed digest snapshot
//! ([`HITS_SNAPSHOT`]) is what makes the comparison **cross**-config —
//! both builds must reproduce the same digest or one of them moved.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! RIP_UPDATE_SNAPSHOTS=1 cargo test -p rip-testkit --test wide_simd
//! ```
//! (then rerun with the other feature setting to confirm both agree).

use rip_bvh::{simd, Bvh, RayBatch, TraversalKernel, TraversalKind, WideBvh, WideKernel};
use rip_core::{Predicted, PredictorConfig};
use rip_math::{Ray, Triangle};
use rip_testkit::{diff, gen};
use std::path::PathBuf;

/// Committed digest of the wide kernel's hits over the pinned workloads.
const HITS_SNAPSHOT: &str = "wide_simd_hits.snap";

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/snapshots"
    ))
    .join(name)
}

/// FNV-1a 64-bit — dependency-free, stable across platforms and configs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn write_u32(&mut self, v: u32) {
        self.write(&v.to_le_bytes());
    }
    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }
}

/// The pinned workloads: every recipe, fixed seeds, mixed ray families.
fn workloads() -> Vec<(String, Vec<Triangle>, Vec<Ray>)> {
    gen::ALL_RECIPES
        .iter()
        .map(|recipe| {
            let tris = recipe.triangles(150, 7);
            let bounds = Bvh::build(&tris).bounds();
            let mut rays = gen::hitting_rays(&tris, 80, 7);
            rays.extend(gen::ray_batch(&bounds, 60, 7));
            rays.extend(gen::edge_rays(&tris, 20, 7));
            (recipe.name().to_string(), tris, rays)
        })
        .collect()
}

/// One digest line per (scene, query kind): hits *and* statistics of the
/// wide kernel's batch path folded through FNV-1a.
fn hits_digest() -> String {
    let mut out = String::new();
    for (name, tris, rays) in workloads() {
        let bvh = Bvh::build(&tris);
        let wide = WideBvh::from_binary(&bvh);
        let mut kernel = WideKernel::new(&wide, &bvh);
        let batch = RayBatch::from_rays(&rays);
        for kind in [TraversalKind::ClosestHit, TraversalKind::AnyHit] {
            let mut fnv = Fnv::new();
            for r in kernel.trace_batch(&batch, kind) {
                match r.hit {
                    Some(h) => {
                        fnv.write_u32(1);
                        fnv.write_u32(h.tri_index);
                        fnv.write_u32(h.leaf.index());
                        fnv.write_u32(h.t.to_bits());
                    }
                    None => fnv.write_u32(0),
                }
                fnv.write_u64(r.stats.interior_fetches);
                fnv.write_u64(r.stats.leaf_fetches);
                fnv.write_u64(r.stats.box_tests);
                fnv.write_u64(r.stats.tri_tests);
                fnv.write_u64(r.stats.stack_spills);
            }
            out.push_str(&format!("{name} {kind:?} {:016x}\n", fnv.0));
        }
    }
    out
}

fn check_snapshot(name: &str, actual: &str) {
    let path = snapshot_path(name);
    if std::env::var_os("RIP_UPDATE_SNAPSHOTS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {} ({e}); regenerate with \
             RIP_UPDATE_SNAPSHOTS=1 cargo test -p rip-testkit --test wide_simd",
            path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "[backend {}] digest diverged from committed snapshot {} — the \
         {} build no longer reproduces the pinned bits",
        simd::backend_name(),
        path.display(),
        simd::backend_name(),
    );
}

/// The wide kernel agrees bit-for-bit with brute force and the scalar
/// kernels on every pinned workload, whichever backend is compiled in.
#[test]
fn wide_kernel_agrees_with_references_under_this_backend() {
    for (name, tris, rays) in workloads() {
        let label = format!("{name}/{}", simd::backend_name());
        diff::assert_kernels_agree(&label, &tris, &rays);
        diff::assert_batch_matches_scalar(&label, &tris, &rays);
    }
}

/// Cross-config bit identity: the committed hit digest must reproduce
/// exactly under whichever backend this build compiled in.
#[test]
fn wide_hits_match_committed_digest() {
    check_snapshot(HITS_SNAPSHOT, &hits_digest());
}

/// `Predicted<WideKernel>` transparency holds under the compiled backend:
/// wrapping the SIMD wide kernel in the §3 predictor changes no answer,
/// cold or warm.
#[test]
fn predicted_wide_kernel_stays_transparent() {
    let config = PredictorConfig {
        update_delay: 0,
        ..PredictorConfig::paper_default()
    };
    for (name, tris, rays) in workloads() {
        let bvh = Bvh::build(&tris);
        let wide = WideBvh::from_binary(&bvh);
        let batch = RayBatch::from_rays(&rays);
        let occlusion = WideKernel::new(&wide, &bvh).any_hit_batch(&batch);
        let closest = WideKernel::new(&wide, &bvh).closest_hit_batch(&batch);
        let mut predicted = Predicted::new(&bvh, config, WideKernel::new(&wide, &bvh));
        for pass in 0..2 {
            let occ = predicted.any_hit_batch(&batch);
            let clo = predicted.closest_hit_batch(&batch);
            for i in 0..batch.len() {
                assert_eq!(
                    occ[i].hit.is_some(),
                    occlusion[i].hit.is_some(),
                    "{name} [{}] pass {pass} ray {i}: occlusion answer changed",
                    simd::backend_name()
                );
                assert_eq!(
                    clo[i].hit.map(|h| (h.tri_index, h.t.to_bits())),
                    closest[i].hit.map(|h| (h.tri_index, h.t.to_bits())),
                    "{name} [{}] pass {pass} ray {i}: closest hit drifted",
                    simd::backend_name()
                );
            }
        }
    }
}
