//! The raycasting renderer (paper §III-B).
//!
//! Image-order: the output image is divided into tiles (paper: 32×32,
//! chosen from their earlier tuning study); worker threads pull tiles from
//! a dynamic queue; each pixel's ray is marched front-to-back through the
//! volume with trilinear sampling, a transfer-function lookup per sample,
//! and early ray termination.

use sfc_core::{image_tiles, TileRect, Volume3};
use sfc_harness::{Executor, Schedule, WorkPlan};

use crate::camera::Camera;
use crate::image::Image;
use crate::ray::Aabb;
use crate::sampler::CellSampler;
use crate::transfer::{Rgba, TransferFunction};

/// Renderer options.
#[derive(Debug, Clone, Copy)]
pub struct RenderOpts {
    /// Ray step in voxel units (the paper integrates at sub-voxel steps).
    pub step: f32,
    /// Stop marching once accumulated opacity exceeds this.
    pub early_termination: f32,
    /// Tile edge in pixels (paper: 32).
    pub tile: usize,
    /// Worker threads.
    pub nthreads: usize,
    /// Tile scheduling (paper uses the dynamic worker pool).
    pub schedule: Schedule,
}

impl Default for RenderOpts {
    fn default() -> Self {
        Self {
            step: 0.5,
            early_termination: 0.98,
            tile: 32,
            nthreads: 1,
            schedule: Schedule::Dynamic,
        }
    }
}

impl RenderOpts {
    /// Deepest brownout ladder rung the renderer exposes (see
    /// [`RenderOpts::brownout`]); at level 3 a tile marches 8× fewer
    /// samples per ray.
    pub const BROWNOUT_DEPTH: u8 = 3;

    /// The render options at brownout ladder `level`: each rung doubles
    /// the ray step (halving the samples marched per ray) and lowers the
    /// early-ray-termination opacity threshold by 0.1 per level (floored
    /// at 0.5) so nearly-opaque rays quit sooner. Level 0 returns the
    /// options unchanged — full quality *is* rung 0.
    pub fn brownout(&self, level: u8) -> RenderOpts {
        if level == 0 {
            return *self;
        }
        let shift = u32::from(level.min(8));
        RenderOpts {
            step: self.step * (1u32 << shift) as f32,
            early_termination: (self.early_termination - 0.1 * f32::from(level)).max(0.5),
            ..*self
        }
    }
}

/// March one ray and return the composited color. `bbox` is the volume's
/// bounding box (`Aabb::of_dims(vol.dims())`), hoisted to the caller so
/// per-tile/per-frame loops build it once instead of once per ray.
pub fn shade_ray<V: Volume3>(
    vol: &V,
    tf: &TransferFunction,
    opts: &RenderOpts,
    ray: &crate::ray::Ray,
    bbox: &Aabb,
) -> Rgba {
    let (color, nan_seen) = shade_ray_counted(vol, tf, opts, ray, bbox);
    crate::counters::record_nan_samples(nan_seen);
    color
}

/// [`shade_ray`] without the counter flush: returns the composited color
/// and the ray's NaN-substitution count, letting tile loops batch the
/// shared-atomic update once per tile.
pub(crate) fn shade_ray_counted<V: Volume3>(
    vol: &V,
    tf: &TransferFunction,
    opts: &RenderOpts,
    ray: &crate::ray::Ray,
    bbox: &Aabb,
) -> (Rgba, u64) {
    let Some((t0, t1)) = bbox.intersect(ray) else {
        return (Rgba::default(), 0);
    };
    // One cached-cell sampler per ray: at sub-voxel steps consecutive
    // samples usually stay in the same trilinear cell and skip all reads.
    let mut sampler = CellSampler::new(vol);
    let color = march_ray(&mut sampler, tf, opts, ray, t0, t1);
    (color, sampler.take_nan_count())
}

/// [`shade_ray`] through an *uncached* [`CellSampler`]: every sample
/// re-fetches its cell's 8 corners, so on a volume using the default
/// per-`get` [`Volume3::cell_corners`] (the counter simulation's
/// `TracedGrid`) the access stream is the original 8 `get`s per sample —
/// same taps, same order, clamped duplicates included. The composited
/// color is bit-identical to [`shade_ray`]; only the read stream differs.
/// Used by `counters::simulate_render_counters` so simulated address
/// streams stay comparable across PRs and with the paper's per-sample
/// methodology.
pub(crate) fn shade_ray_replay<V: Volume3>(
    vol: &V,
    tf: &TransferFunction,
    opts: &RenderOpts,
    ray: &crate::ray::Ray,
    bbox: &Aabb,
) -> Rgba {
    let Some((t0, t1)) = bbox.intersect(ray) else {
        return Rgba::default();
    };
    let mut sampler = CellSampler::uncached(vol);
    let color = march_ray(&mut sampler, tf, opts, ray, t0, t1);
    crate::counters::record_nan_samples(sampler.take_nan_count());
    color
}

/// Front-to-back integration loop shared by the native and
/// simulation-replay shading paths: marches `ray` over `[t0, t1)`,
/// reading the field through `sampler`.
fn march_ray<V: Volume3>(
    sampler: &mut CellSampler<'_, V>,
    tf: &TransferFunction,
    opts: &RenderOpts,
    ray: &crate::ray::Ray,
    t0: f32,
    t1: f32,
) -> Rgba {
    let mut color = Rgba::default();
    let mut t = t0 + opts.step * 0.5;
    while t < t1 {
        let p = ray.at(t);
        let v = sampler.sample(p);
        let s = tf.sample(v);
        if s.a > 0.0 {
            // Opacity correction for the step length (reference step = 1 voxel).
            let a = 1.0 - (1.0 - s.a).powf(opts.step);
            let w = (1.0 - color.a) * a;
            color.r += w * s.r;
            color.g += w * s.g;
            color.b += w * s.b;
            color.a += w;
            if color.a >= opts.early_termination {
                break;
            }
        }
        t += opts.step;
    }
    color
}

/// Render every pixel of `tile`, delivering results through `put(x, y, c)`.
/// This is the unit of work both the native parallel driver and the
/// counter simulation share. The bounding box is computed once per tile
/// and NaN counts are flushed once per tile.
pub fn render_tile<V: Volume3>(
    vol: &V,
    cam: &Camera,
    tf: &TransferFunction,
    opts: &RenderOpts,
    tile: TileRect,
    mut put: impl FnMut(usize, usize, Rgba),
) {
    let bbox = Aabb::of_dims(vol.dims());
    let mut nan_seen = 0u64;
    for (x, y) in tile.pixels() {
        let ray = cam.ray_for_pixel(x, y);
        let (c, n) = shade_ray_counted(vol, tf, opts, &ray, &bbox);
        nan_seen += n;
        put(x, y, c);
    }
    crate::counters::record_nan_samples(nan_seen);
}

/// Wrapper making disjoint raw pixel writes shareable across threads.
struct PixelSlots(*mut Rgba);
unsafe impl Sync for PixelSlots {}

/// Render a full image with the tile-parallel worker pool.
pub fn render<V: Volume3 + Sync>(
    vol: &V,
    cam: &Camera,
    tf: &TransferFunction,
    opts: &RenderOpts,
) -> Image {
    let (w, h) = (cam.width(), cam.height());
    let tiles = image_tiles(w, h, opts.tile, opts.tile);
    let mut img = Image::new(w, h);
    let slots = PixelSlots(img.pixels_mut().as_mut_ptr());
    let slots = &slots;
    let plan = WorkPlan::new(tiles.len(), opts.schedule);
    Executor::new(opts.nthreads).run(&plan, |_tid, t| {
        render_tile(vol, cam, tf, opts, tiles[t], |x, y, c| {
            // SAFETY: tiles partition the image, so each (x, y) is written
            // exactly once; index < w*h by TileRect construction.
            unsafe { *slots.0.add(y * w + x) = c };
        });
    });
    img
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::{orbit_viewpoints, Projection};
    use crate::vec3::vec3;
    use sfc_core::{Dims3, FnVolume, Grid3, ArrayOrder3, ZOrder3};

    fn sphere_volume(n: usize) -> FnVolume<impl Fn(usize, usize, usize) -> f32> {
        let c = n as f32 / 2.0;
        let r = n as f32 / 4.0;
        FnVolume::new(Dims3::cube(n), move |i, j, k| {
            let d2 = (i as f32 + 0.5 - c).powi(2)
                + (j as f32 + 0.5 - c).powi(2)
                + (k as f32 + 0.5 - c).powi(2);
            if d2 < r * r {
                1.0
            } else {
                0.0
            }
        })
    }

    fn camera(n: usize, px: usize) -> Camera {
        Camera::look_at(
            vec3(n as f32 * 3.0, n as f32 / 2.0, n as f32 / 2.0),
            vec3(n as f32 / 2.0, n as f32 / 2.0, n as f32 / 2.0),
            vec3(0.0, 1.0, 0.0),
            Projection::Perspective {
                fov_y: 40f32.to_radians(),
            },
            px,
            px,
        )
    }

    #[test]
    fn replay_path_issues_eight_gets_per_sample_and_matches_shade_ray() {
        // The counter sim's replay path must reproduce the per-sample
        // stream (8 gets per sample through the default cell_corners)
        // while compositing the exact same color as the cached path.
        let vol = sphere_volume(16);
        let gets = std::cell::Cell::new(0u64);
        let counting = FnVolume::new(vol.dims(), |i, j, k| {
            gets.set(gets.get() + 1);
            vol.get(i, j, k)
        });
        let cam = camera(16, 24);
        let tf = TransferFunction::fire();
        let opts = RenderOpts::default();
        let bbox = Aabb::of_dims(vol.dims());
        let mut replay_gets = 0u64;
        let mut cached_gets = 0u64;
        for (x, y) in [(12usize, 12usize), (8, 14), (15, 6)] {
            let ray = cam.ray_for_pixel(x, y);
            gets.set(0);
            let a = shade_ray_replay(&counting, &tf, &opts, &ray, &bbox);
            replay_gets += gets.get();
            gets.set(0);
            let b = shade_ray(&counting, &tf, &opts, &ray, &bbox);
            cached_gets += gets.get();
            assert_eq!(a, b, "replay and cached colors must match at ({x},{y})");
        }
        assert!(replay_gets > 0);
        assert_eq!(replay_gets % 8, 0, "replay must read 8 corners per sample");
        assert!(
            cached_gets < replay_gets,
            "cached path must elide reads ({cached_gets} vs {replay_gets})"
        );
    }

    #[test]
    fn sphere_appears_in_image_center_not_corners() {
        let vol = sphere_volume(32);
        let img = render(
            &vol,
            &camera(32, 64),
            &TransferFunction::grayscale(),
            &RenderOpts::default(),
        );
        assert!(img.get(32, 32).a > 0.1, "center must see the sphere");
        assert_eq!(img.get(0, 0).a, 0.0, "corners see empty space");
        assert_eq!(img.get(63, 63).a, 0.0);
    }

    #[test]
    fn thread_count_does_not_change_the_image() {
        let vol = sphere_volume(16);
        let tf = TransferFunction::fire();
        let o1 = RenderOpts {
            nthreads: 1,
            ..Default::default()
        };
        let o8 = RenderOpts {
            nthreads: 8,
            ..Default::default()
        };
        let a = render(&vol, &camera(16, 48), &tf, &o1);
        let b = render(&vol, &camera(16, 48), &tf, &o8);
        for (pa, pb) in a.pixels().iter().zip(b.pixels()) {
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn schedule_does_not_change_the_image() {
        let vol = sphere_volume(16);
        let tf = TransferFunction::grayscale();
        let stat = RenderOpts {
            nthreads: 4,
            schedule: Schedule::StaticRoundRobin,
            ..Default::default()
        };
        let dyna = RenderOpts {
            nthreads: 4,
            schedule: Schedule::Dynamic,
            ..Default::default()
        };
        let a = render(&vol, &camera(16, 33), &tf, &stat);
        let b = render(&vol, &camera(16, 33), &tf, &dyna);
        for (pa, pb) in a.pixels().iter().zip(b.pixels()) {
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn layout_does_not_change_the_image() {
        let dims = Dims3::cube(16);
        let values: Vec<f32> = (0..dims.len())
            .map(|v| ((v * 2654435761) % 997) as f32 / 997.0)
            .collect();
        let a = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
        let z = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let tf = TransferFunction::fire();
        let opts = RenderOpts {
            nthreads: 2,
            ..Default::default()
        };
        let cam = camera(16, 40);
        let ia = render(&a, &cam, &tf, &opts);
        let iz = render(&z, &cam, &tf, &opts);
        for (pa, pb) in ia.pixels().iter().zip(iz.pixels()) {
            assert_eq!(pa, pb, "same data, same rays => identical image");
        }
    }

    #[test]
    fn empty_volume_renders_transparent() {
        let vol = FnVolume::new(Dims3::cube(8), |_, _, _| 0.0);
        let img = render(
            &vol,
            &camera(8, 16),
            &TransferFunction::fire(),
            &RenderOpts::default(),
        );
        assert_eq!(img.mean_alpha(), 0.0);
    }

    #[test]
    fn early_termination_caps_opacity() {
        let vol = FnVolume::new(Dims3::cube(16), |_, _, _| 1.0); // fully hot
        let img = render(
            &vol,
            &camera(16, 8),
            &TransferFunction::fire(),
            &RenderOpts::default(),
        );
        let c = img.get(4, 4);
        assert!(c.a >= 0.9 && c.a <= 1.0, "opaque but bounded: {}", c.a);
    }

    #[test]
    fn orbit_views_all_see_the_sphere() {
        let vol = sphere_volume(24);
        let center = vec3(12.0, 12.0, 12.0);
        let cams = orbit_viewpoints(
            8,
            center,
            60.0,
            Projection::Perspective {
                fov_y: 35f32.to_radians(),
            },
            32,
            32,
        );
        for (v, cam) in cams.iter().enumerate() {
            let img = render(&vol, cam, &TransferFunction::grayscale(), &RenderOpts::default());
            assert!(
                img.get(16, 16).a > 0.05,
                "viewpoint {v} must see the sphere"
            );
        }
    }
}
