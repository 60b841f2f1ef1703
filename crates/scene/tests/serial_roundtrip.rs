//! Round-trip guarantees for the scene-view artifact format:
//! decode(encode(v)) reproduces the view and re-encodes byte-identically, and damaged
//! buffers always come back as `Err`, never a panic.
//!
//! Since format v2 the artifact is a RIPA container, so bit integrity
//! is enforced by the container checksums; structural attacks need a
//! rebuilt container with intact checksums (see the in-crate tests).

use rip_math::Vec3;
use rip_scene::{serial, Camera, SceneId, SceneScale, SceneView, SCENE_IDS};

fn tiny_view(id: SceneId, width: u32, height: u32) -> SceneView {
    id.build_with_viewport(SceneScale::Tiny, width, height)
        .into_parts()
        .0
}

fn assert_byte_stable(view: &SceneView) {
    let first = serial::encode(view);
    let decoded = serial::decode(&first).expect("decode of a fresh encode");
    assert_eq!(&decoded, view);
    let second = serial::encode(&decoded);
    assert_eq!(first, second, "re-encode must be byte-identical");
}

#[test]
fn every_scene_round_trips_byte_identically_at_tiny_scale() {
    for id in SCENE_IDS {
        assert_byte_stable(&tiny_view(id, 24, 16));
    }
}

#[test]
fn hand_built_camera_round_trips() {
    let view = SceneView {
        id: SceneId::CountryKitchen,
        camera: Camera::look_at(Vec3::new(3.0, 2.0, -5.0), Vec3::ZERO, Vec3::Y, 55.0, 8, 8),
    };
    assert_byte_stable(&view);
}

#[test]
fn artifact_holds_no_geometry() {
    // The view artifact is a fixed-size header plus camera, whatever
    // the scene's triangle count.
    let small = serial::encode(&tiny_view(SceneId::Sibenik, 12, 12)).len();
    let large = serial::encode(&tiny_view(SceneId::CountryKitchen, 12, 12)).len();
    assert_eq!(small, large);
    assert!(small < 256, "view artifact is {small} bytes");
}

#[test]
fn every_truncation_prefix_errors_without_panicking() {
    let bytes = serial::encode(&tiny_view(SceneId::Sibenik, 12, 12));
    for len in 0..bytes.len() {
        assert!(
            serial::decode(&bytes[..len]).is_err(),
            "prefix of {len}/{} bytes must not decode",
            bytes.len()
        );
    }
}

#[test]
fn trailing_garbage_is_rejected() {
    let mut bytes = serial::encode(&tiny_view(SceneId::Sibenik, 12, 12));
    bytes.push(0);
    assert!(
        serial::decode(&bytes).is_err(),
        "extra byte must not decode"
    );
}

#[test]
fn header_bomb_is_rejected_before_allocation() {
    let mut bytes = serial::encode(&tiny_view(SceneId::Sibenik, 12, 12));
    // The section count lives at bytes 8..12; promise ~4 billion
    // sections. The parser must refuse before allocating for them.
    bytes[8..12].copy_from_slice(&u32::MAX.to_ne_bytes());
    let err = serial::decode(&bytes).unwrap_err();
    assert!(err.contains("section count"), "got: {err}");
}

#[test]
fn wrong_magic_and_version_are_rejected() {
    let good = serial::encode(&tiny_view(SceneId::Sibenik, 12, 12));

    let mut bad_magic = good.clone();
    bad_magic[0] = b'X';
    assert!(serial::decode(&bad_magic).unwrap_err().contains("magic"));

    let mut bad_version = good;
    bad_version[4..8].copy_from_slice(&(rip_pod::ripa::CONTAINER_VERSION + 1).to_ne_bytes());
    assert!(serial::decode(&bad_version)
        .unwrap_err()
        .contains("version"));
}

#[test]
fn single_byte_flips_are_always_detected() {
    let bytes = serial::encode(&tiny_view(SceneId::Sibenik, 12, 12));
    for at in 0..bytes.len() {
        let mut bad = bytes.clone();
        bad[at] ^= 0x01;
        assert!(
            serial::decode(&bad).is_err(),
            "flip at byte {at} went undetected"
        );
    }
}
