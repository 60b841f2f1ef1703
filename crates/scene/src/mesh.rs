//! Indexed triangle meshes.

use rip_math::{Aabb, Triangle, Vec3};

/// An indexed triangle mesh: shared vertex positions plus triangle index
/// triples.
///
/// This is the scene representation consumed by the BVH builder. It is
/// deliberately minimal — the predictor workloads (§5.2) need geometry only,
/// not materials or normals.
///
/// # Examples
///
/// ```
/// use rip_math::Vec3;
/// use rip_scene::TriangleMesh;
///
/// let mut mesh = TriangleMesh::new();
/// mesh.push_triangle(Vec3::ZERO, Vec3::X, Vec3::Y);
/// assert_eq!(mesh.triangle_count(), 1);
/// assert_eq!(mesh.triangle(0).centroid().z, 0.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TriangleMesh {
    positions: Vec<Vec3>,
    indices: Vec<[u32; 3]>,
}

fn check_indices(vertex_count: usize, indices: &[[u32; 3]]) -> Result<(), String> {
    let n = vertex_count as u32;
    for (i, tri) in indices.iter().enumerate() {
        if tri.iter().any(|&v| v >= n) {
            return Err(format!("triangle {i} references vertex beyond {n}"));
        }
    }
    Ok(())
}

impl TriangleMesh {
    /// Creates an empty mesh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a mesh with preallocated capacity.
    pub fn with_capacity(vertices: usize, triangles: usize) -> Self {
        TriangleMesh {
            positions: Vec::with_capacity(vertices),
            indices: Vec::with_capacity(triangles),
        }
    }

    /// Creates a mesh from raw buffers.
    ///
    /// # Errors
    ///
    /// Returns an error message when any index is out of range.
    pub fn from_buffers(positions: Vec<Vec3>, indices: Vec<[u32; 3]>) -> Result<Self, String> {
        check_indices(positions.len(), &indices)?;
        Ok(TriangleMesh { positions, indices })
    }

    /// Number of triangles.
    #[inline]
    pub fn triangle_count(&self) -> usize {
        self.indices.len()
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.positions.len()
    }

    /// Whether the mesh has no triangles.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Vertex positions.
    #[inline]
    pub fn positions(&self) -> &[Vec3] {
        &self.positions
    }

    /// Triangle index triples.
    #[inline]
    pub fn indices(&self) -> &[[u32; 3]] {
        &self.indices
    }

    /// The `i`-th triangle as a value type.
    ///
    /// # Panics
    ///
    /// Panics when `i >= triangle_count()`.
    #[inline]
    pub fn triangle(&self, i: usize) -> Triangle {
        let [a, b, c] = self.indices[i];
        Triangle::new(
            self.positions[a as usize],
            self.positions[b as usize],
            self.positions[c as usize],
        )
    }

    /// Iterates over all triangles as value types.
    pub fn triangles(&self) -> impl Iterator<Item = Triangle> + '_ {
        (0..self.triangle_count()).map(|i| self.triangle(i))
    }

    /// Appends a vertex and returns its index.
    #[inline]
    pub fn push_vertex(&mut self, p: Vec3) -> u32 {
        let idx = self.positions.len() as u32;
        self.positions.push(p);
        idx
    }

    /// Appends a triangle by vertex indices.
    ///
    /// # Panics
    ///
    /// Panics when an index is out of range.
    #[inline]
    pub fn push_indexed_triangle(&mut self, a: u32, b: u32, c: u32) {
        let n = self.positions.len() as u32;
        assert!(a < n && b < n && c < n, "triangle index out of range");
        self.indices.push([a, b, c]);
    }

    /// Appends a triangle by positions (no vertex sharing).
    pub fn push_triangle(&mut self, a: Vec3, b: Vec3, c: Vec3) {
        let ia = self.push_vertex(a);
        let ib = self.push_vertex(b);
        let ic = self.push_vertex(c);
        self.indices.push([ia, ib, ic]);
    }

    /// Appends a quad `(a,b,c,d)` as two triangles.
    pub fn push_quad(&mut self, a: Vec3, b: Vec3, c: Vec3, d: Vec3) {
        let ia = self.push_vertex(a);
        let ib = self.push_vertex(b);
        let ic = self.push_vertex(c);
        let id = self.push_vertex(d);
        self.indices.push([ia, ib, ic]);
        self.indices.push([ia, ic, id]);
    }

    /// Appends every vertex and triangle of `other`.
    pub fn merge(&mut self, other: &TriangleMesh) {
        let base = self.positions.len() as u32;
        self.positions.extend_from_slice(&other.positions);
        self.indices.extend(
            other
                .indices
                .iter()
                .map(|t| [t[0] + base, t[1] + base, t[2] + base]),
        );
    }

    /// Translates every vertex by `offset`.
    pub fn translate(&mut self, offset: Vec3) {
        for p in &mut self.positions {
            *p += offset;
        }
    }

    /// Scales every vertex component-wise about the origin.
    pub fn scale(&mut self, factors: Vec3) {
        for p in &mut self.positions {
            *p = *p * factors;
        }
    }

    /// Rotates every vertex about the +Y axis by `radians`.
    pub fn rotate_y(&mut self, radians: f32) {
        let (s, c) = radians.sin_cos();
        for p in &mut self.positions {
            let (x, z) = (p.x, p.z);
            p.x = c * x + s * z;
            p.z = -s * x + c * z;
        }
    }

    /// The bounding box of all vertices (empty box for an empty mesh).
    pub fn bounds(&self) -> Aabb {
        self.positions.iter().copied().collect()
    }

    /// Total surface area of all triangles.
    pub fn surface_area(&self) -> f32 {
        self.triangles().map(|t| t.area()).sum()
    }

    /// Checks structural invariants (indices in range, finite vertices).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.positions.len() as u32;
        for (i, p) in self.positions.iter().enumerate() {
            if !p.is_finite() {
                return Err(format!("vertex {i} is not finite: {p:?}"));
            }
        }
        for (i, tri) in self.indices.iter().enumerate() {
            if tri.iter().any(|&v| v >= n) {
                return Err(format!("triangle {i} references vertex beyond {n}"));
            }
        }
        Ok(())
    }
}

impl Extend<Triangle> for TriangleMesh {
    fn extend<T: IntoIterator<Item = Triangle>>(&mut self, iter: T) {
        for t in iter {
            self.push_triangle(t.a, t.b, t.c);
        }
    }
}

impl FromIterator<Triangle> for TriangleMesh {
    fn from_iter<T: IntoIterator<Item = Triangle>>(iter: T) -> Self {
        let mut mesh = TriangleMesh::new();
        mesh.extend(iter);
        mesh
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let mut m = TriangleMesh::new();
        m.push_triangle(Vec3::ZERO, Vec3::X, Vec3::Y);
        assert_eq!(m.triangle_count(), 1);
        assert_eq!(m.vertex_count(), 3);
        let t = m.triangle(0);
        assert_eq!(t.a, Vec3::ZERO);
        assert_eq!(t.b, Vec3::X);
        assert_eq!(t.c, Vec3::Y);
    }

    #[test]
    fn quad_makes_two_triangles_with_shared_vertices() {
        let mut m = TriangleMesh::new();
        m.push_quad(Vec3::ZERO, Vec3::X, Vec3::new(1.0, 1.0, 0.0), Vec3::Y);
        assert_eq!(m.triangle_count(), 2);
        assert_eq!(m.vertex_count(), 4);
        assert!((m.surface_area() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn merge_offsets_indices() {
        let mut a = TriangleMesh::new();
        a.push_triangle(Vec3::ZERO, Vec3::X, Vec3::Y);
        let mut b = TriangleMesh::new();
        b.push_triangle(Vec3::Z, Vec3::Z + Vec3::X, Vec3::Z + Vec3::Y);
        a.merge(&b);
        assert_eq!(a.triangle_count(), 2);
        assert_eq!(a.triangle(1).a, Vec3::Z);
        a.validate().unwrap();
    }

    #[test]
    fn transforms() {
        let mut m = TriangleMesh::new();
        m.push_triangle(Vec3::ZERO, Vec3::X, Vec3::Y);
        m.translate(Vec3::Z);
        assert_eq!(m.triangle(0).a, Vec3::Z);
        m.scale(Vec3::splat(2.0));
        assert_eq!(m.triangle(0).b, Vec3::new(2.0, 0.0, 2.0));
        let mut r = TriangleMesh::new();
        r.push_triangle(Vec3::X, Vec3::Y, Vec3::Z);
        r.rotate_y(std::f32::consts::FRAC_PI_2);
        // +X rotates toward -Z under this convention.
        assert!((r.triangle(0).a - Vec3::new(0.0, 0.0, -1.0)).length() < 1e-6);
    }

    #[test]
    fn bounds_cover_all_vertices() {
        let mut m = TriangleMesh::new();
        m.push_triangle(Vec3::new(-1.0, 0.0, 0.0), Vec3::new(2.0, 1.0, 0.0), Vec3::Y);
        let b = m.bounds();
        assert_eq!(b.min, Vec3::new(-1.0, 0.0, 0.0));
        assert_eq!(b.max, Vec3::new(2.0, 1.0, 0.0));
    }

    #[test]
    fn from_buffers_validates_indices() {
        let bad = TriangleMesh::from_buffers(vec![Vec3::ZERO], vec![[0, 0, 1]]);
        assert!(bad.is_err());
        let ok = TriangleMesh::from_buffers(vec![Vec3::ZERO, Vec3::X, Vec3::Y], vec![[0, 1, 2]]);
        assert!(ok.is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn push_indexed_out_of_range_panics() {
        let mut m = TriangleMesh::new();
        m.push_vertex(Vec3::ZERO);
        m.push_indexed_triangle(0, 0, 1);
    }

    #[test]
    fn validate_rejects_nan_vertex() {
        let mut m = TriangleMesh::new();
        m.push_triangle(Vec3::new(f32::NAN, 0.0, 0.0), Vec3::X, Vec3::Y);
        assert!(m.validate().is_err());
    }

    #[test]
    fn collect_from_triangles() {
        let m: TriangleMesh = [Triangle::new(Vec3::ZERO, Vec3::X, Vec3::Y)]
            .into_iter()
            .collect();
        assert_eq!(m.triangle_count(), 1);
    }
}
