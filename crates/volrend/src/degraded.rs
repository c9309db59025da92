//! The raycaster on the execution engine: partial images, typed tile
//! defects and a quality ladder.
//!
//! The renderer-side twin of `sfc_filters::try_bilateral3d_with_policy`:
//! the tile decomposition runs on the execution engine
//! ([`sfc_harness::engine`]) through `TileKernel`, an adapter
//! implementing [`UnitKernel`] over 32×32 image tiles (shade into a local
//! pixel buffer, commit to the framebuffer, read back for validation).
//! [`render_with_policy`] takes an [`ExecPolicy`]:
//!
//! * [`ExecPolicy::Plain`] — the unbuffered fast [`render`] driver plus a
//!   synthesized clean outcome;
//! * [`ExecPolicy::Brownout`] — the engine pipeline: panic isolation,
//!   watchdog deadlines with cooperative cancellation, bounded retries,
//!   buffered per-tile commit (an abandoned attempt never leaves a
//!   half-written tile), a validation scan (non-finite pixel components,
//!   optional plausibility range) and a single-threaded faults-off repair
//!   pass, all under a wall-clock deadline. Under pressure a tile is
//!   rendered with a doubled ray step and a lower early-termination
//!   threshold per rung ([`RenderOpts::brownout`]), every downgrade
//!   recorded in the outcome's [`QualityMap`](sfc_harness::QualityMap).
//!
//! Raycasting is deterministic, so a run whose map ends
//! [`is_whole`](sfc_harness::DefectMap::is_whole) with an empty quality
//! map is pixel-for-pixel identical to a fault-free render.

use sfc_core::{image_tiles, SfcError, SfcResult, TileRect, Volume3};
use sfc_harness::{
    DefectMap, DegradedOutcome, ExecPolicy, Executor, FaultPlan, RunReport, UnitKernel, WorkPlan,
};

use crate::camera::Camera;
use crate::image::Image;
use crate::ray::Aabb;
use crate::render::{render, shade_ray_counted, RenderOpts};
use crate::transfer::{Rgba, TransferFunction};

/// Wrapper making disjoint raw pixel writes shareable across threads.
struct PixelSlots(*mut Rgba);
unsafe impl Sync for PixelSlots {}

/// The raycaster as an engine [`UnitKernel`]: one work unit is one image
/// tile, shaded into a local pixel buffer (in [`TileRect::pixels`] order)
/// and committed to the framebuffer. Holds a raw framebuffer pointer;
/// construct it only for the duration of one engine run over an
/// exclusively borrowed image.
struct TileKernel<'a, V> {
    vol: &'a V,
    cam: &'a Camera,
    tf: &'a TransferFunction,
    bbox: Aabb,
    tiles: &'a [TileRect],
    width: usize,
    slots: PixelSlots,
    /// The quality ladder: `rungs[L]` holds the render options for level
    /// `L` (`rungs[0]` is full quality; deeper rungs march coarser).
    rungs: Vec<RenderOpts>,
}

impl<V: Volume3 + Sync> UnitKernel for TileKernel<'_, V> {
    type Value = Rgba;

    fn unit_kind(&self) -> &'static str {
        "tile"
    }

    fn max_level(&self) -> u8 {
        (self.rungs.len() - 1) as u8
    }

    /// Shade one tile, polling `keep_going` once per pixel. NaN-sample
    /// counts seen so far are flushed even when aborted.
    fn compute(
        &self,
        unit: usize,
        level: u8,
        buf: &mut Vec<Rgba>,
        keep_going: &mut dyn FnMut() -> bool,
    ) -> bool {
        let opts = &self.rungs[usize::from(level)];
        let tile = self.tiles[unit];
        buf.clear();
        buf.reserve(tile.area());
        let mut nan_seen = 0u64;
        let mut completed = true;
        for (x, y) in tile.pixels() {
            if !keep_going() {
                completed = false;
                break;
            }
            let ray = self.cam.ray_for_pixel(x, y);
            let (c, n) = shade_ray_counted(self.vol, self.tf, opts, &ray, &self.bbox);
            nan_seen += n;
            buf.push(c);
        }
        crate::counters::record_nan_samples(nan_seen);
        completed
    }

    fn commit(&self, unit: usize, buf: &[Rgba]) {
        let tile = self.tiles[unit];
        for ((x, y), &c) in tile.pixels().zip(buf.iter()) {
            // SAFETY: tiles partition the image, so each (x, y) is written
            // by exactly one unit; concurrent attempts at the *same* tile
            // write identical bytes (deterministic raycaster); index < w*h
            // by TileRect construction.
            unsafe { *self.slots.0.add(y * self.width + x) = c };
        }
    }

    fn read_back(&self, unit: usize, buf: &mut Vec<Rgba>) {
        let tile = self.tiles[unit];
        for (x, y) in tile.pixels() {
            // SAFETY: single-threaded phase, after every commit finished.
            buf.push(unsafe { *self.slots.0.add(y * self.width + x) });
        }
    }

    fn components(value: Rgba, sink: &mut dyn FnMut(f32)) {
        sink(value.r);
        sink(value.g);
        sink(value.b);
        sink(value.a);
    }

    fn poison(buf: &mut [Rgba]) {
        for (t, p) in buf.iter_mut().enumerate() {
            let v = if t % 2 == 0 { f32::NAN } else { 1e30 };
            *p = Rgba {
                r: v,
                g: v,
                b: v,
                a: v,
            };
        }
    }
}

/// Render a full image under an engine [`ExecPolicy`], returning the
/// (possibly partial) framebuffer plus a typed outcome.
///
/// `Plain` runs the unbuffered fast [`render`] driver (panics propagate,
/// `faults` ignored) and synthesizes a clean outcome; `Brownout` runs the
/// buffered `TileKernel` through [`Executor::execute`], taking its
/// thread count and schedule from the policy's supervisor configuration.
/// Errors are returned only for invalid configuration — execution
/// failures land in the outcome.
pub fn render_with_policy<V: Volume3 + Sync>(
    vol: &V,
    cam: &Camera,
    tf: &TransferFunction,
    opts: &RenderOpts,
    policy: &ExecPolicy,
    faults: &FaultPlan,
) -> SfcResult<(Image, DegradedOutcome)> {
    if opts.step <= 0.0 || !opts.step.is_finite() {
        return Err(SfcError::InvalidParameter {
            name: "step",
            reason: format!("ray step must be positive and finite, got {}", opts.step),
        });
    }
    let (w, h) = (cam.width(), cam.height());
    let tiles = image_tiles(w, h, opts.tile, opts.tile);
    let ntiles = tiles.len();
    let ExecPolicy::Brownout(policy) = policy else {
        let start = std::time::Instant::now();
        let img = render(vol, cam, tf, opts);
        return Ok((
            img,
            DegradedOutcome::full_quality(
                RunReport {
                    completed: ntiles,
                    wall_time: start.elapsed(),
                    ..RunReport::default()
                },
                DefectMap::new("tile", ntiles),
            ),
        ));
    };
    let bbox = Aabb::of_dims(vol.dims());
    // Coarsened rungs clamp their step to the volume diagonal so even the
    // deepest rung marches at least one sample through the box; rung 0
    // keeps the caller's options untouched.
    let max_step = bbox.diagonal();
    let rungs = (0..=RenderOpts::BROWNOUT_DEPTH)
        .map(|level| {
            let mut rung = opts.brownout(level);
            if level > 0 {
                rung.step = rung.step.min(max_step);
            }
            rung
        })
        .collect();
    let mut img = Image::new(w, h);
    let outcome = {
        let kernel = TileKernel {
            vol,
            cam,
            tf,
            bbox,
            tiles: &tiles,
            width: w,
            slots: PixelSlots(img.pixels_mut().as_mut_ptr()),
            rungs,
        };
        let supervisor = &policy.supervisor;
        Executor::new(supervisor.nthreads).execute(
            &WorkPlan::new(ntiles, supervisor.schedule),
            policy,
            &kernel,
            faults,
        )
    };
    Ok((img, outcome))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::camera::Projection;
    use crate::render::render;
    use crate::vec3::vec3;
    use sfc_core::{Dims3, FnVolume};
    use sfc_harness::{DeadlineBudget, FaultKind, SupervisorConfig};
    use std::time::Duration;

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

    fn cfg(nthreads: usize) -> SupervisorConfig {
        SupervisorConfig {
            nthreads,
            max_retries: 1,
            backoff_base: Duration::from_millis(1),
            timeout: Some(Duration::from_millis(1000)),
            watchdog_poll: Duration::from_millis(2),
            ..Default::default()
        }
    }

    /// The engine pipeline without a deadline: supervision, validation
    /// and repair only.
    fn no_deadline(nthreads: usize, pixel_range: Option<(f32, f32)>) -> ExecPolicy {
        ExecPolicy::brownout(cfg(nthreads), DeadlineBudget::none(), pixel_range)
    }

    fn opts(nthreads: usize) -> RenderOpts {
        RenderOpts {
            nthreads,
            tile: 16,
            ..Default::default()
        }
    }

    #[test]
    fn fault_free_degraded_render_matches_plain_render() {
        let vol = sphere_volume(16);
        let cam = camera(16, 48);
        let tf = TransferFunction::fire();
        let o = opts(4);
        let reference = render(&vol, &cam, &tf, &o);
        let (img, outcome) = render_with_policy(
            &vol,
            &cam,
            &tf,
            &o,
            &no_deadline(4, Some((0.0, 1.0))),
            &FaultPlan::none(),
        )
        .unwrap();
        assert!(outcome.defects.is_clean());
        assert_eq!(img.pixels(), reference.pixels());
    }

    #[test]
    fn injected_tile_faults_are_repaired_to_identical_pixels() {
        let vol = sphere_volume(16);
        let cam = camera(16, 48); // 48/16 = 3x3 = 9 tiles
        let tf = TransferFunction::grayscale();
        let o = opts(3);
        let reference = render(&vol, &cam, &tf, &o);
        let faults = FaultPlan::none()
            .with(0, FaultKind::Panic)
            .with(3, FaultKind::CorruptOutput)
            .with(5, FaultKind::Stall(Duration::from_secs(10)))
            .with(7, FaultKind::FailFirst(9));
        let (img, outcome) = render_with_policy(
            &vol,
            &cam,
            &tf,
            &o,
            &no_deadline(3, Some((0.0, 1.0))),
            &faults,
        )
        .unwrap();
        assert_eq!(outcome.defects.units(), vec![0, 3, 5, 7]);
        assert!(outcome.output_is_whole(), "{}", outcome.defects);
        assert_eq!(img.pixels(), reference.pixels());
    }

    #[test]
    fn brownout_zero_budget_renders_at_the_deepest_rung() {
        let vol = sphere_volume(16);
        let cam = camera(16, 48); // 3x3 tiles
        let tf = TransferFunction::fire();
        let o = opts(2);
        // A zero budget sheds every tile; the repair pass renders at the
        // deepest ladder rung, so the image must be pixel-identical to a
        // plain render with those coarsened options.
        let coarse = o.brownout(RenderOpts::BROWNOUT_DEPTH);
        let reference = render(&vol, &cam, &tf, &coarse);
        let policy = ExecPolicy::brownout(
            cfg(2),
            DeadlineBudget::with_budget(Duration::ZERO),
            Some((0.0, 1.0)),
        );
        let (img, outcome) =
            render_with_policy(&vol, &cam, &tf, &o, &policy, &FaultPlan::none()).unwrap();
        assert!(outcome.output_is_whole(), "{}", outcome.defects);
        assert_eq!(outcome.quality.len(), 9);
        assert_eq!(outcome.quality.max_level(), RenderOpts::BROWNOUT_DEPTH);
        assert_eq!(img.pixels(), reference.pixels());
    }

    #[test]
    fn brownout_without_pressure_is_pixel_identical_to_plain() {
        let vol = sphere_volume(16);
        let cam = camera(16, 48);
        let tf = TransferFunction::grayscale();
        let o = opts(2);
        let reference = render(&vol, &cam, &tf, &o);
        let policy =
            ExecPolicy::brownout(cfg(2), DeadlineBudget::none(), Some((0.0, 1.0)));
        let (img, outcome) =
            render_with_policy(&vol, &cam, &tf, &o, &policy, &FaultPlan::none()).unwrap();
        assert!(outcome.defects.is_clean());
        assert!(outcome.quality.is_full_quality(), "{}", outcome.quality);
        assert_eq!(img.pixels(), reference.pixels());
    }

    #[test]
    fn invalid_step_is_a_config_error() {
        let vol = sphere_volume(8);
        let bad = RenderOpts {
            step: 0.0,
            ..opts(1)
        };
        let err = render_with_policy(
            &vol,
            &camera(8, 16),
            &TransferFunction::fire(),
            &bad,
            &no_deadline(1, None),
            &FaultPlan::none(),
        )
        .unwrap_err();
        assert!(matches!(err, SfcError::InvalidParameter { name: "step", .. }));
    }

    #[test]
    fn plain_policy_is_the_fast_renderer_with_a_clean_outcome() {
        let vol = sphere_volume(16);
        let cam = camera(16, 32);
        let tf = TransferFunction::fire();
        let o = opts(2);
        let reference = render(&vol, &cam, &tf, &o);
        let (img, outcome) =
            render_with_policy(&vol, &cam, &tf, &o, &ExecPolicy::Plain, &FaultPlan::none())
                .unwrap();
        assert!(outcome.defects.is_clean());
        assert_eq!(outcome.report.completed, 4); // 32/16 = 2x2 tiles
        assert_eq!(img.pixels(), reference.pixels());
    }
}
