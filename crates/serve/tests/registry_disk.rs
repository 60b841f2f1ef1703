//! Registry reloads over the on-disk RIPA v2 artifact store.
//!
//! A service reload should not pay a geometry rebuild when a valid
//! artifact exists: it swaps the lease's `Arc` onto a case decoded in
//! place over the mapped artifact bytes. These tests drive
//! [`SceneRegistry`] over a disk-backed [`CaseCache`] and pin down
//! three properties: reloads are served from disk, the served case is
//! byte-identical to the originally built one, and leases held across
//! a reload keep their geometry alive (the mapping is reference-counted
//! through the case, not through the registry).

use rip_exec::{CaseCache, CaseKey};
use rip_scene::{SceneId, SceneScale};
use rip_serve::SceneRegistry;
use std::path::PathBuf;
use std::sync::Arc;

fn key() -> CaseKey {
    CaseKey::square(SceneId::Sibenik, SceneScale::Tiny, 18)
}

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rip-serve-registry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Canonical byte form of a case, for cross-epoch equality checks.
fn digest(case: &rip_exec::Case) -> (Vec<u8>, Vec<u8>) {
    (
        rip_scene::serial::encode(&case.scene),
        rip_bvh::serial::encode(&case.bvh),
    )
}

#[test]
fn reload_serves_mapped_disk_artifacts_bit_identically() {
    let dir = temp_store("reload");

    // First process: build from source, persisting v2 artifacts.
    let built_digest = {
        let cache = Arc::new(CaseCache::with_disk_dir(Some(dir.clone())));
        let registry = SceneRegistry::new(Arc::clone(&cache));
        let lease = registry.get(key());
        assert_eq!(cache.stats().builds, 1);
        digest(&lease.case)
    };

    // Second process: the registry's first lease comes off disk, and a
    // reload swaps the Arc by re-mapping the artifact — no rebuild.
    let cache = Arc::new(CaseCache::with_disk_dir(Some(dir.clone())));
    let registry = SceneRegistry::new(Arc::clone(&cache));
    let old = registry.get(key());
    assert_eq!(cache.stats().disk_hits, 1, "first get loads from disk");
    assert_eq!(cache.stats().builds, 0);
    assert!(
        old.case.bvh.is_shared(),
        "a disk-loaded BVH must borrow the mapped artifact bytes"
    );

    let fresh = registry
        .try_reload(key())
        .expect("reload over a valid store");
    assert_eq!(cache.stats().disk_hits, 2, "reload re-maps the artifact");
    assert_eq!(cache.stats().builds, 0, "reload must not rebuild geometry");
    assert!(fresh.epoch > old.epoch);
    assert!(
        !Arc::ptr_eq(&old.case, &fresh.case),
        "reload publishes a distinct case"
    );

    // Both epochs — and the original build — are byte-identical.
    assert_eq!(digest(&old.case), built_digest);
    assert_eq!(digest(&fresh.case), built_digest);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn old_lease_outlives_reload_and_registry() {
    let dir = temp_store("lease-lifetime");
    {
        let cache = Arc::new(CaseCache::with_disk_dir(Some(dir.clone())));
        SceneRegistry::new(cache).get(key());
    }

    let cache = Arc::new(CaseCache::with_disk_dir(Some(dir.clone())));
    let registry = SceneRegistry::new(cache);
    let old = registry.get(key());
    let expected = digest(&old.case);
    let fresh = registry.try_reload(key()).expect("reload");
    drop(fresh);
    drop(registry);

    // The old lease still traces against consistent geometry: the
    // mapped bytes are kept alive by the case itself.
    assert!(old.case.bvh.triangle_count() > 0);
    assert_eq!(digest(&old.case), expected);

    let _ = std::fs::remove_dir_all(&dir);
}
