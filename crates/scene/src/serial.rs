//! Scene-view artifact serialization on the RIPA v2 zero-copy container.
//!
//! The artifact cache in `rip-exec` persists each case's [`SceneView`]
//! (scene id plus camera) beside its BVH artifact. The BVH already
//! stores the scene's triangles in scene order, so since format version
//! 3 this artifact holds no geometry: a META word array and the camera
//! basis behind a checksummed [`rip_pod::ripa`] header and section table.
//!
//! Artifacts of older formats (v2 carried the indexed mesh as well) are
//! invisible under the v3 cache key and never read.

use crate::{Camera, SceneId, SceneView, SCENE_IDS};
use rip_math::Vec3;
use rip_pod::ripa::{RipaFile, RipaWriter};
use rip_pod::Bytes;
use std::io::{self, Write};

/// Bumped whenever the encoded layout changes; part of the header *and*
/// of the artifact cache key in `rip-exec`.
pub const FORMAT_VERSION: u32 = 3;

/// RIPA artifact kind of a scene view.
pub const KIND_SCENE: u32 = 1;

// Section ids. META is a four-word `u32` array rather than a dedicated
// record type because this crate denies `unsafe_code` and so cannot
// declare new `Pod` impls; the primitive sections it needs are already
// covered by `rip-pod`.
const SEC_META: u32 = 1;
const SEC_CAMERA: u32 = 2;

// META words: scene_index, width, height, reserved (zero).
const META_WORDS: usize = 4;

/// Encodes `view` into a self-contained RIPA v2 buffer. Re-encoding a
/// decoded view is byte-identical.
pub fn encode(view: &SceneView) -> Vec<u8> {
    with_writer(view, |w| w.finish())
}

/// Streams the [`encode`] bytes of `view` to `out`.
///
/// # Errors
///
/// Returns the first error `out` reports.
pub fn write_to<W: Write>(view: &SceneView, out: &mut W) -> io::Result<()> {
    with_writer(view, |w| w.write_to(out))
}

/// Calls `f` with the artifact writer of `view`.
fn with_writer<R>(view: &SceneView, f: impl FnOnce(&RipaWriter) -> R) -> R {
    let (basis, width, height) = view.camera.to_raw();
    let scene_index = SCENE_IDS
        .iter()
        .position(|&id| id == view.id)
        .expect("id in SCENE_IDS") as u32;
    let meta = [scene_index, width, height, 0];
    let mut w = RipaWriter::new(KIND_SCENE);
    w.section(SEC_META, &meta).section(SEC_CAMERA, &basis);
    f(&w)
}

/// Decodes an owned buffer produced by [`encode`] (copies into an
/// aligned buffer, then runs [`decode_shared`]).
pub fn decode(bytes: &[u8]) -> Result<SceneView, String> {
    decode_shared(Bytes::copy_from_slice(bytes))
}

/// Decodes a scene-view artifact held in `bytes` (owned aligned buffer
/// or page mapping alike); the view copies the few words it needs.
///
/// Any structural problem — wrong magic or kind, foreign version,
/// truncation, checksum mismatch, an unknown scene or an empty viewport
/// — is reported as `Err` so the caller can rebuild the case instead.
pub fn decode_shared(bytes: Bytes) -> Result<SceneView, String> {
    let file = RipaFile::parse(bytes, KIND_SCENE)?;
    let meta = file.pod_section::<u32>(SEC_META)?;
    if meta.len() != META_WORDS {
        return Err(format!(
            "meta section holds {} words, expected {META_WORDS}",
            meta.len()
        ));
    }
    let [scene_index, width, height, reserved] =
        <[u32; META_WORDS]>::try_from(meta.as_slice()).expect("length checked");
    if reserved != 0 {
        return Err("reserved meta field is not zero".into());
    }
    let id: SceneId = *SCENE_IDS
        .get(scene_index as usize)
        .ok_or_else(|| format!("scene index {scene_index} out of range"))?;
    if width == 0 || height == 0 {
        return Err("scene artifact has an empty viewport".into());
    }
    let basis_section = file.pod_section::<Vec3>(SEC_CAMERA)?;
    let basis: [Vec3; 4] = <[Vec3; 4]>::try_from(basis_section.as_slice()).map_err(|_| {
        format!(
            "camera section holds {} vectors, expected 4",
            basis_section.len()
        )
    })?;
    Ok(SceneView {
        id,
        camera: Camera::from_raw(basis, width, height),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SceneScale;

    fn view(id: SceneId, width: u32, height: u32) -> SceneView {
        id.build_with_viewport(SceneScale::Tiny, width, height)
            .into_parts()
            .0
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let view = view(SceneId::Sibenik, 32, 24);
        assert_eq!(decode(&encode(&view)).unwrap(), view);
    }

    #[test]
    fn reencode_is_byte_identical() {
        let bytes = encode(&view(SceneId::FireplaceRoom, 16, 16));
        assert_eq!(encode(&decode(&bytes).unwrap()), bytes);
    }

    #[test]
    fn rejects_bad_magic_version_truncation_and_flips() {
        let bytes = encode(&view(SceneId::LostEmpire, 16, 16));

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert!(decode(&bad_magic).unwrap_err().contains("magic"));

        let mut bad_version = bytes.clone();
        bad_version[4] = 0xEE;
        assert!(decode(&bad_version).unwrap_err().contains("version"));

        assert!(decode(&bytes[..bytes.len() - 2])
            .unwrap_err()
            .contains("truncated"));

        // Any single-byte flip is detected by the container checksums.
        for at in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            assert!(decode(&bad).is_err(), "flip at {at} went undetected");
        }
    }

    #[test]
    fn rejects_bad_meta_with_intact_checksums() {
        // Hostile artifacts with *intact* checksums: rebuild the
        // container from parsed sections with a poisoned META.
        let bytes = encode(&view(SceneId::Sibenik, 16, 16));
        let file = RipaFile::parse(Bytes::copy_from_slice(&bytes), KIND_SCENE).unwrap();
        let meta = file.pod_section::<u32>(SEC_META).unwrap().to_vec();
        let camera = file.section(SEC_CAMERA).unwrap();
        let rebuild = |meta: &[u32]| {
            let mut w = RipaWriter::new(KIND_SCENE);
            w.section(SEC_META, meta)
                .raw_section(SEC_CAMERA, 4, camera.as_slice());
            w.finish()
        };
        assert_eq!(rebuild(&meta), bytes);

        let mut bad_meta = meta.clone();
        bad_meta[0] = 99; // far past SCENE_IDS
        assert!(decode(&rebuild(&bad_meta))
            .unwrap_err()
            .contains("out of range"));

        let mut empty_viewport = meta.clone();
        empty_viewport[1] = 0;
        assert!(decode(&rebuild(&empty_viewport))
            .unwrap_err()
            .contains("viewport"));

        let mut reserved = meta.clone();
        reserved[3] = 1;
        assert!(decode(&rebuild(&reserved))
            .unwrap_err()
            .contains("reserved"));

        assert!(decode(&rebuild(&meta[..3])).unwrap_err().contains("words"));
    }
}
