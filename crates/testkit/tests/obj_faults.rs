//! Malformed OBJ input gets a typed outcome: every [`faultinject`]
//! mutant of a written OBJ file either fails to parse with a
//! [`ParseObjError`] or parses to a finite, non-empty mesh whose BVH
//! validates. Nothing panics.

use rip_bvh::Bvh;
use rip_scene::obj::{read_obj, write_obj, ParseObjError};
use rip_scene::TriangleMesh;
use rip_testkit::{faultinject, gen};
use std::path::{Path, PathBuf};

fn temp_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("rip-obj-faults-{tag}-{}.obj", std::process::id()))
}

/// The OBJ text of a small seeded triangle soup.
fn obj_bytes() -> Vec<u8> {
    let mut mesh = TriangleMesh::new();
    for t in gen::SceneRecipe::Soup.triangles(24, 7) {
        mesh.push_triangle(t.a, t.b, t.c);
    }
    let mut bytes = Vec::new();
    write_obj(&mesh, &mut bytes).unwrap();
    bytes
}

/// Parses `path`, checks that a parsed mesh is finite and that its BVH
/// passes validation, and returns the parse error if there was one.
fn check_outcome(path: &Path, what: &str) -> Option<ParseObjError> {
    let file = std::fs::File::open(path).unwrap();
    let mesh = match read_obj(std::io::BufReader::new(file)) {
        Ok(mesh) => mesh,
        Err(e) => return Some(e),
    };
    for p in mesh.positions() {
        assert!(
            p.x.is_finite() && p.y.is_finite() && p.z.is_finite(),
            "{what}: non-finite vertex {p:?} parsed"
        );
    }
    let tris: Vec<_> = mesh.triangles().collect();
    Bvh::build(&tris)
        .validate()
        .unwrap_or_else(|e| panic!("{what}: BVH of the parsed mesh is invalid: {e}"));
    None
}

#[test]
fn every_truncation_is_an_error_or_a_valid_mesh() {
    let bytes = obj_bytes();
    // Start of the first face line: a file cut there or earlier has no
    // faces.
    let first_face = bytes.windows(2).position(|w| w == b"\nf").unwrap() + 1;
    let path = temp_file("truncate");
    let mut parsed = 0;
    for keep in 0..bytes.len() {
        std::fs::write(&path, &bytes).unwrap();
        faultinject::truncate(&path, keep).unwrap();
        let what = format!("truncate to {keep}");
        match check_outcome(&path, &what) {
            None => {
                assert!(keep > first_face, "{what}: a face-less file parsed");
                parsed += 1;
            }
            // A cut inside a vertex line may leave a malformed line; a cut
            // between lines leaves whole vertices and no face.
            Some(ParseObjError::Malformed { .. }) if bytes[keep - 1] != b'\n' => {}
            Some(e) if keep <= first_face => {
                assert!(matches!(e, ParseObjError::NoFaces), "{what}: {e}")
            }
            Some(_) => {}
        }
    }
    let _ = std::fs::remove_file(&path);
    assert!(parsed > 0, "some cuts fall between lines and must parse");
}

#[test]
fn every_bit_flip_is_an_error_or_a_valid_mesh() {
    let bytes = obj_bytes();
    let path = temp_file("bit-flip");
    let (mut parsed, mut rejected) = (0, 0);
    for offset in 0..bytes.len() {
        std::fs::write(&path, &bytes).unwrap();
        faultinject::bit_flip(&path, offset).unwrap();
        if check_outcome(&path, &format!("bit flip at {offset}")).is_none() {
            parsed += 1;
        } else {
            rejected += 1;
        }
    }
    let _ = std::fs::remove_file(&path);
    assert!(
        parsed > 0 && rejected > 0,
        "{parsed} parsed, {rejected} rejected"
    );
}
