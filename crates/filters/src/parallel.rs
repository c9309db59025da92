//! Pencil-parallel drivers for the stencil kernels (paper §III-A).
//!
//! The volume is decomposed into 1-D voxel pencils along a configurable
//! axis; pencils are handed to threads round-robin. The paper found the
//! pencil axis matters (`px` vs `pz` rows in Fig. 2/3); combined with the
//! stencil iteration order it spans the friendly-to-hostile spectrum of
//! access patterns.

use sfc_core::{pencil, pencil_count, Axis, Grid3, Layout3, SfcError, SfcResult, Volume3};
use sfc_harness::{Executor, Schedule, WorkPlan};

use crate::bilateral::BilateralParams;
use crate::fastmath::TapConfig;
use crate::gaussian::convolve_voxel;
use crate::pencil_gather::{bilateral_pencil, GatherPlan};

/// Configuration of one parallel filter execution.
#[derive(Debug, Clone, Copy)]
pub struct FilterRun {
    /// Bilateral parameters (stencil size, sigmas, iteration order).
    pub params: BilateralParams,
    /// Pencil orientation (paper: `px` = `Axis::X`, `pz` = `Axis::Z`).
    pub pencil_axis: Axis,
    /// Worker threads.
    pub nthreads: usize,
    /// Photometric weight evaluation + tap-loop tier
    /// ([`TapConfig::exact()`] is the bitwise-pinned default; see
    /// [`crate::fastmath`]).
    pub weight: TapConfig,
}

impl FilterRun {
    /// Validate the configuration (sigmas, thread count) with typed
    /// errors — the check the `try_` drivers run before touching data.
    pub fn validate(&self) -> SfcResult<()> {
        self.params.validate()?;
        if self.nthreads == 0 {
            return Err(SfcError::InvalidParameter {
                name: "nthreads",
                reason: "need at least one thread".to_string(),
            });
        }
        Ok(())
    }

    /// Depth of this run's brownout quality ladder: each rung shrinks the
    /// stencil radius by one voxel, down to radius 1 (`r → r−1 → … → 1`),
    /// so a radius-5 run has 4 rungs and a radius-1 run has none.
    pub fn brownout_depth(&self) -> u8 {
        self.params.radius.saturating_sub(1).min(u8::MAX as usize) as u8
    }

    /// The filter parameters at brownout ladder `level`: the stencil
    /// radius shrinks by `level` voxels (floored at 1); the sigmas and
    /// iteration order are unchanged, so the smaller kernel is the same
    /// Gaussian re-normalized over its truncated support. Level 0 returns
    /// the configured parameters unchanged.
    pub fn brownout_params(&self, level: u8) -> BilateralParams {
        if level == 0 {
            return self.params;
        }
        BilateralParams {
            radius: self.params.radius.saturating_sub(level as usize).max(1),
            ..self.params
        }
    }
}

/// Wrapper making disjoint raw writes shareable across worker threads.
struct Slots(*mut f32);
unsafe impl Sync for Slots {}

fn drive<V, LOut, F>(vol: &V, out: &mut Grid3<f32, LOut>, run: &FilterRun, per_voxel: F)
where
    V: Volume3 + Sync,
    LOut: Layout3,
    F: Fn(usize, usize, usize) -> f32 + Sync,
{
    let dims = vol.dims();
    assert_eq!(dims, out.dims(), "output grid must match input dimensions");
    let axis = run.pencil_axis;
    let n_pencils = pencil_count(dims, axis);
    let out_layout = out.layout().clone();
    let slots = Slots(out.storage_mut().as_mut_ptr());
    let slots = &slots;
    Executor::new(run.nthreads).run(&WorkPlan::static_round_robin(n_pencils), |_tid, pid| {
        let p = pencil(dims, axis, pid);
        for (i, j, k) in p.iter() {
            let value = per_voxel(i, j, k);
            let idx = out_layout.index(i, j, k);
            // SAFETY: the layout is injective over the logical domain
            // and pencils partition it, so each slot is written by
            // exactly one thread; `idx < storage_len` by the layout
            // contract.
            unsafe { *slots.0.add(idx) = value };
        }
    });
}

/// The bilateral driver shared by the static and dynamic schedules:
/// pencil-gather fast path (see [`crate::pencil_gather`]) over any pencil
/// decomposition, writing through the output layout.
fn drive_bilateral<V, LOut>(
    vol: &V,
    out: &mut Grid3<f32, LOut>,
    params: &BilateralParams,
    pencil_axis: Axis,
    nthreads: usize,
    schedule: Schedule,
    weight: TapConfig,
) where
    V: Volume3 + Sync,
    LOut: Layout3,
{
    let dims = vol.dims();
    assert_eq!(dims, out.dims(), "output grid must match input dimensions");
    let kernel = params.spatial_kernel();
    let inv = params.inv_two_sigma_range_sq();
    let plan = GatherPlan::new(&kernel, dims, pencil_axis);
    let weight = weight.clamped();
    let out_layout = out.layout().clone();
    let slots = Slots(out.storage_mut().as_mut_ptr());
    let slots = &slots;
    let work = WorkPlan::new(pencil_count(dims, pencil_axis), schedule);
    Executor::new(nthreads).run(&work, |_tid, pid| {
        let p = pencil(dims, pencil_axis, pid);
        bilateral_pencil(vol, &kernel, inv, &plan, &p, weight, |i, j, k, value| {
            let idx = out_layout.index(i, j, k);
            // SAFETY: the layout is injective over the logical domain
            // and pencils partition it, so each slot is written by
            // exactly one thread; `idx < storage_len` by the layout
            // contract.
            unsafe { *slots.0.add(idx) = value };
            true
        });
    });
}

/// Bilateral-filter `vol` into `out` (same dimensions, any layouts),
/// validating configuration and shapes with typed errors.
pub fn try_bilateral3d_into<V, LOut>(
    vol: &V,
    out: &mut Grid3<f32, LOut>,
    run: &FilterRun,
) -> SfcResult<()>
where
    V: Volume3 + Sync,
    LOut: Layout3,
{
    run.validate()?;
    if vol.dims() != out.dims() {
        return Err(SfcError::ShapeMismatch {
            what: "bilateral3d_into",
            expected: format!("output dims {:?}", vol.dims()),
            actual: format!("{:?}", out.dims()),
        });
    }
    drive_bilateral(
        vol,
        out,
        &run.params,
        run.pencil_axis,
        run.nthreads,
        Schedule::StaticRoundRobin,
        run.weight,
    );
    Ok(())
}

/// Bilateral-filter `vol` into `out` (same dimensions, any layouts).
///
/// # Panics
/// Panics on invalid configuration or mismatched dimensions; use
/// [`try_bilateral3d_into`] for untrusted inputs.
pub fn bilateral3d_into<V, LOut>(vol: &V, out: &mut Grid3<f32, LOut>, run: &FilterRun)
where
    V: Volume3 + Sync,
    LOut: Layout3,
{
    if let Err(e) = try_bilateral3d_into(vol, out, run) {
        panic!("{e}");
    }
}

/// Bilateral-filter into a freshly allocated grid of layout `LOut`,
/// validating configuration with typed errors.
pub fn try_bilateral3d<V, LOut>(vol: &V, run: &FilterRun) -> SfcResult<Grid3<f32, LOut>>
where
    V: Volume3 + Sync,
    LOut: Layout3,
{
    let mut out = Grid3::<f32, LOut>::new(vol.dims());
    try_bilateral3d_into(vol, &mut out, run)?;
    Ok(out)
}

/// Bilateral-filter into a freshly allocated grid of layout `LOut`.
///
/// # Panics
/// Panics on invalid configuration; use [`try_bilateral3d`] for untrusted
/// inputs.
pub fn bilateral3d<V, LOut>(vol: &V, run: &FilterRun) -> Grid3<f32, LOut>
where
    V: Volume3 + Sync,
    LOut: Layout3,
{
    match try_bilateral3d(vol, run) {
        Ok(g) => g,
        Err(e) => panic!("{e}"),
    }
}

/// Plain Gaussian convolution with the same pencil-parallel driver
/// (baseline kernel; ignores `params.sigma_range`).
pub fn convolve3d<V, LOut>(vol: &V, run: &FilterRun) -> Grid3<f32, LOut>
where
    V: Volume3 + Sync,
    LOut: Layout3,
{
    let kernel = run.params.spatial_kernel();
    let mut out = Grid3::<f32, LOut>::new(vol.dims());
    drive(vol, &mut out, run, |i, j, k| {
        convolve_voxel(vol, &kernel, i, j, k)
    });
    out
}

/// Work-stealing-style bilateral filter over the same pencil decomposition,
/// scheduled dynamically (shared atomic cursor) instead of static
/// round-robin — an alternative used by the scheduling ablation bench.
/// Results are identical; only work assignment differs.
pub fn bilateral3d_dynamic<V, LOut>(
    vol: &V,
    params: &BilateralParams,
    pencil_axis: Axis,
    nthreads: usize,
) -> Grid3<f32, LOut>
where
    V: Volume3 + Sync,
    LOut: Layout3,
{
    let mut out = Grid3::<f32, LOut>::new(vol.dims());
    drive_bilateral(
        vol,
        &mut out,
        params,
        pencil_axis,
        nthreads,
        Schedule::Dynamic,
        TapConfig::exact(),
    );
    out
}

/// Paper row label for a configuration, e.g. `"r3 pz zyx"`.
pub fn config_label(size: sfc_core::StencilSize, axis: Axis, order: sfc_core::StencilOrder) -> String {
    format!("{} p{} {}", size.label(), axis.name(), order.name())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bilateral::bilateral_reference;
    use sfc_core::{ArrayOrder3, Dims3, StencilOrder, Tiled3, ZOrder3};

    fn test_volume(dims: Dims3) -> Vec<f32> {
        (0..dims.len())
            .map(|v| ((v * 2654435761) % 997) as f32 / 997.0)
            .collect()
    }

    fn run(radius: usize, nthreads: usize, axis: Axis) -> FilterRun {
        FilterRun {
            params: BilateralParams {
                radius,
                sigma_spatial: 1.0,
                sigma_range: 0.15,
                order: StencilOrder::Xyz,
            },
            pencil_axis: axis,
            nthreads,
            weight: TapConfig::exact(),
        }
    }

    #[test]
    fn parallel_matches_reference() {
        let dims = Dims3::new(10, 8, 6);
        let values = test_volume(dims);
        let grid = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
        let r = run(1, 4, Axis::X);
        let out: Grid3<f32, ArrayOrder3> = bilateral3d(&grid, &r);
        let reference = bilateral_reference(&values, dims, &r.params);
        for (got, want) in out.to_row_major().iter().zip(&reference) {
            assert!((got - want).abs() < 1e-5);
        }
    }

    #[test]
    fn output_is_layout_invariant_bitwise() {
        // Same stencil iteration order + same input values => identical
        // float accumulation regardless of the storage layout.
        let dims = Dims3::new(9, 7, 5);
        let values = test_volume(dims);
        let a = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
        let z = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let t = Grid3::<f32, Tiled3>::from_row_major(dims, &values);
        let r = run(2, 3, Axis::Z);
        let oa: Grid3<f32, ArrayOrder3> = bilateral3d(&a, &r);
        let oz: Grid3<f32, ArrayOrder3> = bilateral3d(&z, &r);
        let ot: Grid3<f32, ArrayOrder3> = bilateral3d(&t, &r);
        assert_eq!(oa.to_row_major(), oz.to_row_major());
        assert_eq!(oa.to_row_major(), ot.to_row_major());
    }

    #[test]
    fn output_is_thread_count_invariant() {
        let dims = Dims3::new(8, 8, 8);
        let values = test_volume(dims);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let single: Grid3<f32, ZOrder3> = bilateral3d(&grid, &run(1, 1, Axis::X));
        let multi: Grid3<f32, ZOrder3> = bilateral3d(&grid, &run(1, 7, Axis::X));
        assert_eq!(single.to_row_major(), multi.to_row_major());
    }

    #[test]
    fn output_is_pencil_axis_invariant() {
        let dims = Dims3::new(6, 7, 8);
        let values = test_volume(dims);
        let grid = Grid3::<f32, ArrayOrder3>::from_row_major(dims, &values);
        let px: Grid3<f32, ArrayOrder3> = bilateral3d(&grid, &run(1, 3, Axis::X));
        let pz: Grid3<f32, ArrayOrder3> = bilateral3d(&grid, &run(1, 3, Axis::Z));
        assert_eq!(px.to_row_major(), pz.to_row_major());
    }

    #[test]
    fn dynamic_path_matches_static_path() {
        let dims = Dims3::new(8, 6, 4);
        let values = test_volume(dims);
        let grid = Grid3::<f32, ZOrder3>::from_row_major(dims, &values);
        let r = run(1, 4, Axis::X);
        let stat: Grid3<f32, ZOrder3> = bilateral3d(&grid, &r);
        let dyn_: Grid3<f32, ZOrder3> = bilateral3d_dynamic(&grid, &r.params, Axis::X, 4);
        assert_eq!(stat.to_row_major(), dyn_.to_row_major());
    }

    #[test]
    fn convolution_of_constant_is_constant() {
        let dims = Dims3::cube(6);
        let grid = Grid3::<f32, ArrayOrder3>::from_fn(dims, |_, _, _| 0.7);
        let out: Grid3<f32, ArrayOrder3> = convolve3d(&grid, &run(2, 2, Axis::Y));
        assert!(out.to_row_major().iter().all(|v| (v - 0.7).abs() < 1e-5));
    }

    #[test]
    fn config_labels_match_paper() {
        assert_eq!(
            config_label(sfc_core::StencilSize::R3, Axis::Z, StencilOrder::Zyx),
            "r3 pz zyx"
        );
    }
}
