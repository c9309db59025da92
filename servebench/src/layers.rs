//! Direct calls into each layer's public entry point, with the same
//! inputs the service derives from a request. The output oracle and the
//! traced run both use them; the memsim counts come from here too.

use std::path::Path;
use std::time::Duration;

use sfc_core::{ArrayOrder3, Dims3, Grid3, Layout3, SfcResult};
use sfc_datagen::{mri_phantom, save_volume, PhantomParams};
use sfc_filters::{simulate_bilateral_counters, try_bilateral3d_with_policy};
use sfc_harness::{
    CancelToken, DeadlineBudget, ExecPolicy, FaultPlan, Journal, Schedule, SupervisorConfig,
};
use sfc_memsim::{ivy_bridge, scaled, shift_for_volume_edge};
use sfc_server::{
    bytes_f32, f32_bytes, filter_run, image_bytes, render_setup, CachedVolume, LayoutChoice,
    OpKind, Request,
};
use sfc_volrend::{render_with_policy, simulate_render_counters, Image};

use crate::child::SERVER_THREADS;

/// `datagen`: the phantom behind a request's `seed`.
pub fn phantom(size: usize, seed: u64) -> Vec<f32> {
    mri_phantom(Dims3::cube(size), seed, PhantomParams::default())
}

/// `core`: the phantom laid out in the requested layout.
pub fn build(layout: LayoutChoice, size: usize, values: &[f32]) -> CachedVolume {
    let dims = Dims3::cube(size);
    match layout {
        LayoutChoice::Array => CachedVolume::Array(Grid3::from_row_major(dims, values)),
        LayoutChoice::Z => CachedVolume::Z(Grid3::from_row_major(dims, values)),
        LayoutChoice::Tiled => CachedVolume::Tiled(Grid3::from_row_major(dims, values)),
        LayoutChoice::Hilbert => CachedVolume::Hilbert(Grid3::from_row_major(dims, values)),
    }
}

/// The policy a quiet service request runs under: Brownout with no
/// deadline, no faults and no watchdog, as `Service::execute` builds it.
pub fn service_brownout() -> ExecPolicy {
    let supervisor = SupervisorConfig {
        nthreads: SERVER_THREADS,
        schedule: Schedule::Dynamic,
        timeout: None,
        max_retries: 1,
        backoff_base: Duration::from_millis(1),
        watchdog_poll: Duration::from_millis(2),
        cancel: CancelToken::new(),
    };
    ExecPolicy::brownout(supervisor, DeadlineBudget::none(), None)
}

/// An all-zero row-major output grid for a filter of `vol`.
pub fn filter_output(vol: &CachedVolume) -> Grid3<f32, ArrayOrder3> {
    let dims = vol.dims();
    Grid3::from_row_major(dims, &vec![0.0; dims.len()])
}

/// `filters` (under `policy`): bilateral-filter `vol` into `out`.
pub fn filter(
    vol: &CachedVolume,
    radius: usize,
    out: &mut Grid3<f32, ArrayOrder3>,
    policy: &ExecPolicy,
) -> SfcResult<()> {
    let run = filter_run(radius, SERVER_THREADS);
    let plan = FaultPlan::none();
    match vol {
        CachedVolume::Array(g) => try_bilateral3d_with_policy(g, out, &run, policy, &plan),
        CachedVolume::Z(g) => try_bilateral3d_with_policy(g, out, &run, policy, &plan),
        CachedVolume::Tiled(g) => try_bilateral3d_with_policy(g, out, &run, policy, &plan),
        CachedVolume::Hilbert(g) => try_bilateral3d_with_policy(g, out, &run, policy, &plan),
    }
    .map(|_| ())
}

/// `volrend` (under `policy`): raycast `vol` into an `image`² frame.
pub fn render(
    vol: &CachedVolume,
    image: usize,
    tile: usize,
    policy: &ExecPolicy,
) -> SfcResult<Image> {
    let (cam, tf, opts) = render_setup(vol.dims().nx, image, tile, SERVER_THREADS);
    let plan = FaultPlan::none();
    match vol {
        CachedVolume::Array(g) => render_with_policy(g, &cam, &tf, &opts, policy, &plan),
        CachedVolume::Z(g) => render_with_policy(g, &cam, &tf, &opts, policy, &plan),
        CachedVolume::Tiled(g) => render_with_policy(g, &cam, &tf, &opts, policy, &plan),
        CachedVolume::Hilbert(g) => render_with_policy(g, &cam, &tf, &opts, policy, &plan),
    }
    .map(|(img, _)| img)
}

/// `server` protocol: a filter result as reply bytes.
pub fn encode_filter(out: &Grid3<f32, ArrayOrder3>) -> Vec<u8> {
    f32_bytes(&out.to_row_major())
}

/// `server` protocol: a frame as reply bytes.
pub fn encode_image(img: &Image) -> Vec<u8> {
    image_bytes(img)
}

/// The reply bytes the service must send for `req`: a direct
/// `ExecPolicy::Plain` call on the same inputs.
pub fn plain_reply(req: &Request) -> SfcResult<Vec<u8>> {
    let vol = build(req.layout, req.size, &phantom(req.size, req.seed));
    match req.op {
        OpKind::Filter { radius } => {
            let mut out = filter_output(&vol);
            filter(&vol, radius, &mut out, &ExecPolicy::Plain)?;
            Ok(encode_filter(&out))
        }
        OpKind::Render { image, tile } => Ok(encode_image(&render(
            &vol,
            image,
            tile,
            &ExecPolicy::Plain,
        )?)),
    }
}

/// Dimensions the service records a saved reply under.
pub fn reply_dims(req: &Request) -> Dims3 {
    match req.op {
        OpKind::Filter { .. } => Dims3::cube(req.size),
        OpKind::Render { image, .. } => Dims3::new(image, image, 4),
    }
}

/// `datagen` io + `harness` durable: the service's save path for one
/// reply — `save_volume` (file and directory fsync) then one fsynced
/// journal record.
pub fn save(path: &Path, req: &Request, body: &[u8], journal: &mut Journal) -> SfcResult<()> {
    save_volume(path, reply_dims(req), &bytes_f32(body)?)?;
    let record = format!(
        "serve tenant={} op={} size={} seed={} completed=0 failed=0 downgraded=0 whole=1 coalesced=0",
        req.tenant,
        req.op.name(),
        req.size,
        req.seed
    );
    journal
        .append(record.as_bytes())
        .map_err(|e| sfc_core::SfcError::io("journal append", e))
}

/// `memsim`: the simulated `PAPI_L3_TCA` count (Ivy Bridge scaled to the
/// volume edge) of the request's kernel on `vol`. An exact count: the
/// same inputs always give the same number.
pub fn l3_tca(op: OpKind, vol: &CachedVolume) -> u64 {
    fn count<L: Layout3>(op: OpKind, g: &Grid3<f32, L>) -> u64 {
        let plat = scaled(&ivy_bridge(), shift_for_volume_edge(g.dims().nx));
        let report = match op {
            OpKind::Filter { radius } => {
                let run = filter_run(radius, SERVER_THREADS);
                simulate_bilateral_counters(g, &run.params, run.pencil_axis, SERVER_THREADS, &plat)
            }
            OpKind::Render { image, tile } => {
                let (cam, tf, opts) = render_setup(g.dims().nx, image, tile, SERVER_THREADS);
                simulate_render_counters(g, &cam, &tf, &opts, SERVER_THREADS, &plat)
            }
        };
        plat.counter_value(&report)
    }
    match vol {
        CachedVolume::Array(g) => count(op, g),
        CachedVolume::Z(g) => count(op, g),
        CachedVolume::Tiled(g) => count(op, g),
        CachedVolume::Hilbert(g) => count(op, g),
    }
}
