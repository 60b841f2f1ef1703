//! Pinhole camera for primary-ray generation.

use rip_math::{Ray, Vec3};

/// A pinhole camera that maps pixel coordinates to primary rays.
///
/// §5.2: AO workloads "first compute the primary ray hit point for each
/// pixel in a 1024×1024 viewport". The camera owns the viewport dimensions
/// so callers iterate pixels and call [`Camera::primary_ray`].
///
/// # Examples
///
/// ```
/// use rip_math::Vec3;
/// use rip_scene::Camera;
///
/// let cam = Camera::look_at(
///     Vec3::new(0.0, 1.0, 5.0),
///     Vec3::ZERO,
///     Vec3::Y,
///     60.0,
///     64,
///     64,
/// );
/// let ray = cam.primary_ray(32, 32);
/// assert!((ray.direction.length() - 1.0).abs() < 1e-5);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Camera {
    position: Vec3,
    lower_left: Vec3,
    horizontal: Vec3,
    vertical: Vec3,
    width: u32,
    height: u32,
}

impl Camera {
    /// Creates a camera at `position` looking toward `target`.
    ///
    /// `vfov_degrees` is the vertical field of view; `width`/`height` the
    /// viewport in pixels.
    ///
    /// # Panics
    ///
    /// Panics when the viewport is empty, the field of view is not in
    /// `(0, 180)`, or `position == target`.
    pub fn look_at(
        position: Vec3,
        target: Vec3,
        up: Vec3,
        vfov_degrees: f32,
        width: u32,
        height: u32,
    ) -> Self {
        assert!(width > 0 && height > 0, "viewport must be non-empty");
        assert!(
            vfov_degrees > 0.0 && vfov_degrees < 180.0,
            "field of view must be in (0, 180) degrees"
        );
        let forward = (target - position)
            .try_normalized()
            .expect("camera position and target must differ");
        let right = forward
            .cross(up)
            .try_normalized()
            .expect("up must not be parallel to view");
        let true_up = right.cross(forward);
        let aspect = width as f32 / height as f32;
        let half_h = (vfov_degrees.to_radians() * 0.5).tan();
        let half_w = half_h * aspect;
        let horizontal = right * (2.0 * half_w);
        let vertical = true_up * (2.0 * half_h);
        let lower_left = forward - right * half_w - true_up * half_h;
        Camera {
            position,
            lower_left,
            horizontal,
            vertical,
            width,
            height,
        }
    }

    /// Viewport width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Viewport height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Camera position.
    pub fn position(&self) -> Vec3 {
        self.position
    }

    /// The primary ray through the center of pixel `(x, y)`.
    ///
    /// `(0, 0)` is the lower-left pixel.
    ///
    /// # Panics
    ///
    /// Panics when the pixel lies outside the viewport.
    pub fn primary_ray(&self, x: u32, y: u32) -> Ray {
        assert!(
            x < self.width && y < self.height,
            "pixel ({x},{y}) outside viewport"
        );
        self.ray_through(
            (x as f32 + 0.5) / self.width as f32,
            (y as f32 + 0.5) / self.height as f32,
        )
    }

    /// The ray through normalized viewport coordinates `(u, v) ∈ [0,1]²`.
    pub fn ray_through(&self, u: f32, v: f32) -> Ray {
        let dir = (self.lower_left + self.horizontal * u + self.vertical * v).normalized();
        Ray::new(self.position, dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cam() -> Camera {
        Camera::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::ZERO, Vec3::Y, 90.0, 100, 50)
    }

    #[test]
    fn center_ray_points_at_target() {
        let r = cam().ray_through(0.5, 0.5);
        assert!((r.direction - Vec3::new(0.0, 0.0, -1.0)).length() < 1e-5);
        assert_eq!(r.origin, Vec3::new(0.0, 0.0, 5.0));
    }

    #[test]
    fn corners_diverge_symmetrically() {
        let c = cam();
        let bl = c.ray_through(0.0, 0.0).direction;
        let br = c.ray_through(1.0, 0.0).direction;
        let tl = c.ray_through(0.0, 1.0).direction;
        assert!((bl.x + br.x).abs() < 1e-5, "horizontal symmetry");
        assert!((bl.y - tl.y).abs() > 0.1, "vertical spread exists");
        assert!(bl.x < 0.0 && br.x > 0.0);
    }

    #[test]
    fn aspect_ratio_widens_horizontal_fov() {
        let c = cam(); // aspect 2:1
        let right = c.ray_through(1.0, 0.5).direction;
        let top = c.ray_through(0.5, 1.0).direction;
        assert!(right.x.abs() > top.y.abs(), "wider than tall");
    }

    #[test]
    fn primary_ray_center_pixel() {
        let c = cam();
        let r = c.primary_ray(50, 25);
        // Not exactly the center (pixel centers are offset by half).
        assert!(r.direction.z < -0.9);
    }

    #[test]
    #[should_panic(expected = "outside viewport")]
    fn out_of_viewport_pixel_panics() {
        let _ = cam().primary_ray(100, 0);
    }

    #[test]
    #[should_panic(expected = "must differ")]
    fn degenerate_look_at_panics() {
        let _ = Camera::look_at(Vec3::ZERO, Vec3::ZERO, Vec3::Y, 60.0, 10, 10);
    }
}
