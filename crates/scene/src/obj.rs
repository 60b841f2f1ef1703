//! Minimal Wavefront OBJ reading and writing.
//!
//! The original paper models are `.obj` files from the McGuire Computer
//! Graphics Archive. This loader accepts that subset (vertex positions and
//! polygonal faces, which are fan-triangulated) so the real models can be
//! dropped into the benchmark suite in place of the procedural analogs.

use crate::TriangleMesh;
use std::fmt;
use std::io::{BufRead, Write};

/// Error produced while parsing an OBJ stream.
#[derive(Debug)]
pub enum ParseObjError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line, with its 1-based line number and description.
    Malformed {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// The stream holds no faces (for example a file cut before its `f`
    /// lines), so there is no geometry to build.
    NoFaces,
}

impl fmt::Display for ParseObjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseObjError::Io(e) => write!(f, "i/o error while reading obj: {e}"),
            ParseObjError::Malformed { line, message } => {
                write!(f, "malformed obj at line {line}: {message}")
            }
            ParseObjError::NoFaces => write!(f, "obj has no faces"),
        }
    }
}

impl std::error::Error for ParseObjError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseObjError::Io(e) => Some(e),
            ParseObjError::Malformed { .. } | ParseObjError::NoFaces => None,
        }
    }
}

impl From<std::io::Error> for ParseObjError {
    fn from(e: std::io::Error) -> Self {
        ParseObjError::Io(e)
    }
}

/// Parses OBJ text into a [`TriangleMesh`].
///
/// Supports `v` (positions) and `f` (faces with `v`, `v/vt`, `v//vn` or
/// `v/vt/vn` references, positive or negative indices). Faces with more than
/// three vertices are fan-triangulated. All other directives are ignored.
///
/// # Errors
///
/// Returns [`ParseObjError`] on I/O failure, unparseable or non-finite
/// numbers (`nan`, `inf`, or a literal beyond `f32` range such as `1e39`),
/// out-of-range indices, or a stream without faces.
///
/// # Examples
///
/// ```
/// let src = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n";
/// let mesh = rip_scene::obj::read_obj(src.as_bytes())?;
/// assert_eq!(mesh.triangle_count(), 1);
/// # Ok::<(), rip_scene::obj::ParseObjError>(())
/// ```
pub fn read_obj<R: BufRead>(reader: R) -> Result<TriangleMesh, ParseObjError> {
    let mut mesh = TriangleMesh::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = lineno + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        match parts.next() {
            Some("v") => {
                let mut coords = [0.0f32; 3];
                for c in &mut coords {
                    let tok = parts.next().ok_or_else(|| ParseObjError::Malformed {
                        line: lineno,
                        message: "vertex with fewer than 3 coordinates".into(),
                    })?;
                    *c = tok
                        .parse()
                        .ok()
                        .filter(|c: &f32| c.is_finite())
                        .ok_or_else(|| ParseObjError::Malformed {
                            line: lineno,
                            message: format!("bad coordinate '{tok}'"),
                        })?;
                }
                mesh.push_vertex(rip_math::Vec3::new(coords[0], coords[1], coords[2]));
            }
            Some("f") => {
                let mut idx = Vec::with_capacity(4);
                for tok in parts {
                    let v_tok = tok.split('/').next().unwrap_or(tok);
                    let raw: i64 = v_tok.parse().map_err(|_| ParseObjError::Malformed {
                        line: lineno,
                        message: format!("bad face index '{tok}'"),
                    })?;
                    let n = mesh.vertex_count() as i64;
                    let resolved = if raw > 0 { raw - 1 } else { n + raw };
                    if resolved < 0 || resolved >= n {
                        return Err(ParseObjError::Malformed {
                            line: lineno,
                            message: format!("face index {raw} out of range (have {n} vertices)"),
                        });
                    }
                    idx.push(resolved as u32);
                }
                if idx.len() < 3 {
                    return Err(ParseObjError::Malformed {
                        line: lineno,
                        message: "face with fewer than 3 vertices".into(),
                    });
                }
                for k in 1..idx.len() - 1 {
                    mesh.push_indexed_triangle(idx[0], idx[k], idx[k + 1]);
                }
            }
            _ => {} // normals, texcoords, groups, materials: ignored
        }
    }
    if mesh.triangle_count() == 0 {
        return Err(ParseObjError::NoFaces);
    }
    Ok(mesh)
}

/// Writes a mesh as OBJ text.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn write_obj<W: Write>(mesh: &TriangleMesh, mut writer: W) -> std::io::Result<()> {
    writeln!(
        writer,
        "# {} vertices, {} triangles",
        mesh.vertex_count(),
        mesh.triangle_count()
    )?;
    for p in mesh.positions() {
        writeln!(writer, "v {} {} {}", p.x, p.y, p.z)?;
    }
    for t in mesh.indices() {
        writeln!(writer, "f {} {} {}", t[0] + 1, t[1] + 1, t[2] + 1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rip_math::Vec3;

    #[test]
    fn parses_triangles_and_ignores_comments() {
        let src = "# comment\nv 0 0 0\nv 1 0 0\nv 0 1 0\nvn 0 0 1\nf 1 2 3\n";
        let mesh = read_obj(src.as_bytes()).unwrap();
        assert_eq!(mesh.triangle_count(), 1);
        assert_eq!(mesh.vertex_count(), 3);
    }

    #[test]
    fn fan_triangulates_quads() {
        let src = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n";
        let mesh = read_obj(src.as_bytes()).unwrap();
        assert_eq!(mesh.triangle_count(), 2);
    }

    #[test]
    fn supports_slash_and_negative_indices() {
        let src = "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2//2 -1\n";
        let mesh = read_obj(src.as_bytes()).unwrap();
        assert_eq!(mesh.triangle_count(), 1);
        assert_eq!(mesh.indices()[0], [0, 1, 2]);
    }

    #[test]
    fn rejects_out_of_range_index() {
        let src = "v 0 0 0\nf 1 2 3\n";
        assert!(matches!(
            read_obj(src.as_bytes()),
            Err(ParseObjError::Malformed { line: 2, .. })
        ));
    }

    #[test]
    fn rejects_bad_coordinate() {
        let err = read_obj("v 0 zero 0\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 1"));
    }

    #[test]
    fn rejects_non_finite_coordinates() {
        for tok in ["nan", "NaN", "inf", "-inf", "infinity", "1e39", "-1e39"] {
            let src = format!("v 0 0 0\nv 1 {tok} 0\n");
            assert!(
                matches!(
                    read_obj(src.as_bytes()),
                    Err(ParseObjError::Malformed { line: 2, .. })
                ),
                "coordinate '{tok}' must be rejected"
            );
        }
        let mesh = read_obj("v 3.4e38 -1e-45 0\nv 0 0 0\nv 1 0 0\nf 1 2 3\n".as_bytes()).unwrap();
        assert_eq!(mesh.positions()[0], Vec3::new(3.4e38, -1e-45, 0.0));
    }

    #[test]
    fn rejects_a_stream_without_faces() {
        for src in ["", "# nothing\n", "v 0 0 0\nv 1 0 0\nv 0 1 0\n"] {
            assert!(
                matches!(read_obj(src.as_bytes()), Err(ParseObjError::NoFaces)),
                "{src:?} has no faces"
            );
        }
    }

    #[test]
    fn rejects_degenerate_face() {
        let src = "v 0 0 0\nv 1 0 0\nf 1 2\n";
        assert!(read_obj(src.as_bytes()).is_err());
    }

    #[test]
    fn round_trip() {
        let mut mesh = TriangleMesh::new();
        mesh.push_triangle(Vec3::ZERO, Vec3::X, Vec3::Y);
        mesh.push_triangle(Vec3::Z, Vec3::X, Vec3::Y);
        let mut buf = Vec::new();
        write_obj(&mesh, &mut buf).unwrap();
        let back = read_obj(buf.as_slice()).unwrap();
        assert_eq!(back.triangle_count(), mesh.triangle_count());
        for (a, b) in mesh.triangles().zip(back.triangles()) {
            assert!((a.a - b.a).length() < 1e-6);
            assert!((a.b - b.b).length() < 1e-6);
            assert!((a.c - b.c).length() < 1e-6);
        }
    }
}
