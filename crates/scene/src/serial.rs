//! Scene artifact serialization on the RIPA v2 zero-copy container.
//!
//! The artifact cache in `rip-exec` persists generated procedural scenes
//! (indexed mesh + camera) so repeated experiment runs skip geometry
//! synthesis. Since format version 2 an artifact is a [`rip_pod::ripa`]
//! file: the vertex and index buffers are flat record sections behind a
//! checksummed header + section table, and [`decode_shared`] borrows
//! them straight out of the mapped bytes into the mesh's
//! [`rip_pod::PodBuf`] storage instead of copying element by element.
//! Index validity is still re-checked through
//! [`TriangleMesh::from_shared_buffers`], so a hostile-but-checksummed
//! artifact falls back to a rebuild instead of producing garbage.
//!
//! Artifacts of the retired v1 stream layout are invisible under the v2
//! cache key and simply rebuilt on miss.

use crate::{Camera, Scene, SceneId, TriangleMesh, SCENE_IDS};
use rip_math::Vec3;
use rip_pod::ripa::{RipaFile, RipaWriter};
use rip_pod::Bytes;
use std::io::{self, Write};

/// Bumped whenever the encoded layout changes; part of the header *and*
/// of the artifact cache key in `rip-exec`.
pub const FORMAT_VERSION: u32 = 2;

/// RIPA artifact kind of a scene.
pub const KIND_SCENE: u32 = 1;

// Section ids. META is a six-word `u32` array rather than a dedicated
// record type because this crate denies `unsafe_code` and so cannot
// declare new `Pod` impls; the primitive sections it needs are already
// covered by `rip-pod`.
const SEC_META: u32 = 1;
const SEC_CAMERA: u32 = 2;
const SEC_POSITIONS: u32 = 3;
const SEC_INDICES: u32 = 4;

// META words: scene_index, width, height, position_count, index_count,
// reserved (zero).
const META_WORDS: usize = 6;

/// Encodes `scene` into a self-contained RIPA v2 buffer. Re-encoding a
/// decoded scene is byte-identical.
pub fn encode(scene: &Scene) -> Vec<u8> {
    with_writer(scene, |w| w.finish())
}

/// Streams the [`encode`] bytes of `scene` to `out`, straight from the
/// mesh's buffers.
///
/// # Errors
///
/// Returns the first error `out` reports.
pub fn write_to<W: Write>(scene: &Scene, out: &mut W) -> io::Result<()> {
    with_writer(scene, |w| w.write_to(out))
}

/// Calls `f` with the artifact writer of `scene`.
fn with_writer<R>(scene: &Scene, f: impl FnOnce(&RipaWriter) -> R) -> R {
    let positions = scene.mesh.positions();
    let indices = scene.mesh.indices();
    let (basis, width, height) = scene.camera.to_raw();
    let scene_index = SCENE_IDS
        .iter()
        .position(|&id| id == scene.id)
        .expect("id in SCENE_IDS") as u32;
    let meta = [
        scene_index,
        width,
        height,
        positions.len() as u32,
        indices.len() as u32,
        0,
    ];
    let mut w = RipaWriter::new(KIND_SCENE);
    w.section(SEC_META, &meta)
        .section(SEC_CAMERA, &basis)
        .section(SEC_POSITIONS, positions)
        .section(SEC_INDICES, indices);
    f(&w)
}

/// Decodes an owned buffer produced by [`encode`] (copies into an
/// aligned buffer, then runs [`decode_shared`]).
pub fn decode(bytes: &[u8]) -> Result<Scene, String> {
    decode_shared(Bytes::copy_from_slice(bytes))
}

/// Decodes a RIPA v2 scene artifact **in place**: the position and
/// index sections are borrowed out of `bytes` (owned aligned buffer or
/// page mapping alike) and only the camera basis is copied.
///
/// Any structural problem — wrong magic or kind, foreign version,
/// truncation, checksum mismatch, or indices that fail mesh validation
/// — is reported as `Err` so the caller can regenerate the scene
/// instead.
pub fn decode_shared(bytes: Bytes) -> Result<Scene, String> {
    let file = RipaFile::parse(bytes, KIND_SCENE)?;
    let meta = file.pod_section::<u32>(SEC_META)?;
    if meta.len() != META_WORDS {
        return Err(format!(
            "meta section holds {} words, expected {META_WORDS}",
            meta.len()
        ));
    }
    let [scene_index, width, height, position_count, index_count, reserved] =
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
    let positions = file.pod_section::<Vec3>(SEC_POSITIONS)?;
    let indices = file.pod_section::<[u32; 3]>(SEC_INDICES)?;
    if positions.len() != position_count as usize || indices.len() != index_count as usize {
        return Err(format!(
            "meta promises {position_count}/{index_count} positions/triangles but sections \
             hold {}/{}",
            positions.len(),
            indices.len()
        ));
    }
    let mesh = TriangleMesh::from_shared_buffers(positions, indices)
        .map_err(|e| format!("decoded mesh failed validation: {e}"))?;
    Ok(Scene {
        id,
        mesh,
        camera: Camera::from_raw(basis, width, height),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SceneScale;

    #[test]
    fn roundtrip_preserves_everything() {
        let scene = SceneId::Sibenik.build_with_viewport(SceneScale::Tiny, 32, 24);
        let decoded = decode(&encode(&scene)).unwrap();
        assert_eq!(decoded.id, scene.id);
        assert_eq!(decoded.mesh.positions(), scene.mesh.positions());
        assert_eq!(decoded.mesh.indices(), scene.mesh.indices());
        assert_eq!(decoded.camera, scene.camera);
        assert!(
            decoded.mesh.is_shared(),
            "v2 decode must borrow the buffer sections, not copy them"
        );
    }

    #[test]
    fn reencode_is_byte_identical() {
        let scene = SceneId::FireplaceRoom.build_with_viewport(SceneScale::Tiny, 16, 16);
        let bytes = encode(&scene);
        assert_eq!(encode(&decode(&bytes).unwrap()), bytes);
    }

    #[test]
    fn rejects_bad_magic_version_truncation_and_flips() {
        let scene = SceneId::LostEmpire.build_with_viewport(SceneScale::Tiny, 16, 16);
        let bytes = encode(&scene);

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
        for at in (0..bytes.len()).step_by(11) {
            let mut bad = bytes.clone();
            bad[at] ^= 0x10;
            assert!(decode(&bad).is_err(), "flip at {at} went undetected");
        }
    }

    #[test]
    fn rejects_invalid_mesh_indices_and_scene_index() {
        // Hostile artifacts with *intact* checksums: rebuild the
        // container from parsed sections with poisoned payloads.
        let scene = SceneId::Sibenik.build_with_viewport(SceneScale::Tiny, 16, 16);
        let file = RipaFile::parse(Bytes::copy_from_slice(&encode(&scene)), KIND_SCENE).unwrap();
        let meta = file.pod_section::<u32>(SEC_META).unwrap().to_vec();
        let camera = file.section(SEC_CAMERA).unwrap();
        let positions = file.section(SEC_POSITIONS).unwrap();
        let indices = file.pod_section::<[u32; 3]>(SEC_INDICES).unwrap().to_vec();

        let rebuild = |meta: &[u32], indices: &[[u32; 3]]| {
            let mut w = RipaWriter::new(KIND_SCENE);
            w.section(SEC_META, meta)
                .raw_section(SEC_CAMERA, 4, camera.as_slice())
                .raw_section(SEC_POSITIONS, 4, positions.as_slice())
                .section(SEC_INDICES, indices);
            w.finish()
        };

        let mut bad_indices = indices.clone();
        bad_indices[0] = [u32::MAX, 0, 1];
        assert!(decode(&rebuild(&meta, &bad_indices))
            .unwrap_err()
            .contains("validation"));

        let mut bad_meta = meta.clone();
        bad_meta[0] = 99; // far past SCENE_IDS
        assert!(decode(&rebuild(&bad_meta, &indices))
            .unwrap_err()
            .contains("out of range"));

        let mut empty_viewport = meta.clone();
        empty_viewport[1] = 0;
        assert!(decode(&rebuild(&empty_viewport, &indices))
            .unwrap_err()
            .contains("viewport"));
    }
}
