//! # sfc-filters — the structured-access application kernel
//!
//! 3D bilateral filtering (paper §III-A): an anisotropic, edge-preserving
//! smoother whose stencil access pattern is *structured* — every output
//! voxel reads a fixed `(2r+1)³` neighborhood. The kernel is generic over
//! `sfc_core::Volume3`, so it runs unmodified over array-order, Z-order,
//! tiled, and Hilbert grids, and over `sfc-memsim`'s tracing wrapper.
//!
//! * [`gaussian`] — precomputed spatial kernels + plain-convolution
//!   baseline;
//! * [`bilateral`] — the per-voxel bilateral kernel and an independent
//!   reference implementation;
//! * [`parallel`] — pencil-parallel drivers (paper's static round-robin
//!   pencil assignment; plus a dynamic-schedule variant for the scheduling
//!   ablation);
//! * [`degraded`] — the filter on the engine pipeline: supervised
//!   execution with partial-result recovery, typed defect maps, a repair
//!   pass, and a reduced-radius quality ladder under a deadline;
//! * [`fastmath`] — fast photometric-weight paths: exponent LUT,
//!   polynomial exp, runtime-dispatched SIMD tap loops behind the
//!   [`TapConfig`] knob (the exact scalar path stays the bitwise oracle);
//! * [`counters`] — simulated cache counters replaying the exact parallel
//!   work split.

#![warn(missing_docs)]

pub mod bilateral;
pub mod bilateral2d;
pub mod counters;
pub mod degraded;
pub mod fastmath;
pub mod gaussian;
pub mod gradient;
pub mod parallel;
pub(crate) mod pencil_gather;
pub mod separable;

pub use bilateral::{bilateral_reference, bilateral_voxel, BilateralParams};
pub use bilateral2d::{bilateral2d, bilateral2d_pixel, Bilateral2dParams};
pub use counters::simulate_bilateral_counters;
pub use degraded::try_bilateral3d_with_policy;
pub use fastmath::{detect_tier, SimdTier, TapConfig, WeightMode};
pub use sfc_harness::DegradedOutcome;
pub use gaussian::{convolve_voxel, gaussian_weight, SpatialKernel};
pub use gradient::{gradient3d, gradient_voxel};
pub use counters::{nan_events, reset_nan_events};
pub use parallel::{
    bilateral3d, bilateral3d_dynamic, bilateral3d_into, config_label, convolve3d,
    try_bilateral3d, try_bilateral3d_into, FilterRun,
};
pub use separable::{gaussian_separable3d, Kernel1D};
