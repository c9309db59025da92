//! `servebench` — closed-loop serving benchmark for `sfc_serve`.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload filter_hot --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Each run builds `sfc_serve` from the repository and starts nine fresh
//! children in turn, each on an ephemeral port. Two closed-loop
//! connections drive each child through its share of the timed requests.
//! Every verified reply is checked bitwise against a direct
//! `ExecPolicy::Plain` call. Each child ends with the `shutdown` verb and
//! must drain cleanly. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` adds a traced run that
//! times each layer's public entry point from outside and reports the
//! per-layer metrics. The last line of the output is one JSON object; the
//! exit code is non-zero when any checked output was wrong or the run
//! could not finish. See README.md for the metrics and why each workload
//! exists.

mod child;
mod layers;
mod stats;
mod trace;
mod workload;

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sfc_core::SplitMix64;
use sfc_harness::{ExecPolicy, Journal};
use sfc_server::{
    LayoutChoice, OpKind, Request, ResilientClient, RespHeader, RetryPolicy, Service, ServiceConfig,
};

use child::{build_server, Scrape, ServerProc, SERVER_LANES, SERVER_THREADS};
use stats::{median, quantile, ratio, relative_delta, sorted, supports};
use trace::Tracer;
use workload::{Plan, Workload, CONNECTIONS, SEGMENTS};

/// Requests per connection in the traced phase.
const TRACED_PER_CONN: usize = 20;

/// Cold replies checked against a direct call after the timed phase.
const RENDER_SAMPLE: usize = 8;

/// What a reply must wait for at most (in-process service, warm-up).
const REPLY_WAIT: Duration = Duration::from_secs(60);

/// Phantom seed of the volume the memsim counts are taken on.
const MEMSIM_VOLUME_SEED: u64 = 1;

/// Stand-in for a percentile that falls among failed requests (JSON has
/// no infinity).
const FAILED_MS: f64 = f64::MAX;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(key) = it.next() {
        let value = it.next().ok_or_else(|| format!("{key} needs a value"))?;
        match key.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad --seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown argument {key:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// What a reply's bytes depend on besides the workload: (volume seed,
/// layout, filter radius; `None` for a render).
type RefKey = (u64, LayoutChoice, Option<usize>);

fn ref_key(req: &Request) -> RefKey {
    let radius = match req.op {
        OpKind::Filter { radius } => Some(radius),
        OpKind::Render { .. } => None,
    };
    (req.seed, req.layout, radius)
}

/// The reply bytes a direct Plain call gives, by [`RefKey`].
type Refs = HashMap<RefKey, Vec<u8>>;

/// Reply bodies kept for a check after the timed phase, by (connection,
/// timed position).
type Kept = Vec<(usize, usize, Vec<u8>)>;

/// A directory removed when the run ends, however it ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Run<'a> {
    w: Workload,
    seed: u64,
    bin: &'a Path,
    tmp: TempDir,
    plan: Plan,
    refs: Refs,
}

/// A started server, its two clients and how long set-up took.
struct Live {
    server: ServerProc,
    clients: Vec<ResilientClient>,
    setup_s: f64,
}

/// One timed request's fate.
#[derive(Debug, Clone, Copy)]
struct Outcome {
    ms: f64,
    ok: bool,
    mismatch: bool,
    /// Delivery attempts the client made: the policy's maximum when the
    /// request failed at the transport level, 0 when it was never sent.
    attempts: u32,
}

impl Outcome {
    fn fail(&mut self, mismatch: bool) {
        self.ok = false;
        self.mismatch |= mismatch;
    }
}

/// One server's share of the closed-loop phase: timed positions `range`
/// of every connection.
struct Segment {
    range: Range<usize>,
    /// Per connection, per position in `range`.
    outcomes: Vec<Vec<Outcome>>,
    wall_s: f64,
    before: Scrape,
    after: Scrape,
    hwm_mib: f64,
    setup_s: f64,
}

impl Segment {
    fn ok(&self) -> usize {
        self.outcomes.iter().flatten().filter(|o| o.ok).count()
    }
    fn delta(&self, name: &str) -> Result<f64, String> {
        Ok(self.after.get(name)? - self.before.get(name)?)
    }
}

/// Per-request latencies with failures as infinitely slow, ascending.
fn latencies<'a>(outcomes: impl Iterator<Item = &'a Outcome>) -> Vec<f64> {
    sorted(
        &outcomes
            .map(|o| if o.ok { o.ms } else { f64::INFINITY })
            .collect::<Vec<_>>(),
    )
}

/// The closed-loop phase of a run, over [`SEGMENTS`] fresh servers.
struct Phase {
    segments: Vec<Segment>,
    /// Whether every server drained cleanly on `shutdown`.
    clean: bool,
}

impl Phase {
    fn all(&self) -> impl Iterator<Item = &Outcome> {
        self.segments
            .iter()
            .flat_map(|s| s.outcomes.iter().flatten())
    }
    fn attempted(&self) -> usize {
        self.all().count()
    }
    fn ok(&self) -> usize {
        self.all().filter(|o| o.ok).count()
    }
    fn mismatches(&self) -> usize {
        self.all().filter(|o| o.mismatch).count()
    }
    /// Median over segments of `f`.
    fn median_of(&self, f: impl Fn(&Segment) -> f64) -> f64 {
        median(&self.segments.iter().map(f).collect::<Vec<_>>())
    }
    /// The phase's quantile `q`: the median of the segments' values when
    /// each segment has the samples the percentile rule asks for, else
    /// the quantile of every timed request pooled (`None` when even the
    /// pool is too small).
    fn quantile(&self, q: f64) -> Option<f64> {
        let per_segment: Vec<Vec<f64>> = self
            .segments
            .iter()
            .map(|s| latencies(s.outcomes.iter().flatten()))
            .collect();
        if per_segment.iter().all(|l| supports(l.len(), q)) {
            return Some(median(
                &per_segment
                    .iter()
                    .map(|l| quantile(l, q))
                    .collect::<Vec<_>>(),
            ));
        }
        let pooled = latencies(self.all());
        supports(pooled.len(), q).then(|| quantile(&pooled, q))
    }
    /// Sum over segments of a scraped counter's growth.
    fn delta(&self, name: &str) -> Result<f64, String> {
        self.segments.iter().map(|s| s.delta(name)).sum()
    }
}

/// One result line's worth of numbers.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn client_seed(seed: u64, conn: usize) -> u64 {
    SplitMix64::new(seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ conn as u64).next_u64()
}

/// The body of a reply that counts as ok: `ok`, whole, not downgraded,
/// no failed units, and as long as its header says.
fn ok_body(
    res: Result<(RespHeader, Vec<u8>, sfc_server::SendOutcome), sfc_core::SfcError>,
) -> Option<Vec<u8>> {
    match res {
        Ok((RespHeader::Ok(h), body, _))
            if h.whole && h.downgraded == 0 && h.failed == 0 && body.len() == h.bytes =>
        {
            Some(body)
        }
        _ => None,
    }
}

/// Start a fresh server, then send every warm-up request; the elapsed
/// time is one `setup_s` sample. Warm-up replies must be whole and equal
/// to their references.
fn start(run: &Run, tag: &str) -> Result<Live, String> {
    let dir = run.tmp.0.join(tag);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let t0 = Instant::now();
    let server = ServerProc::spawn(run.bin, &dir.join("stderr.log"))?;
    let clients: Vec<ResilientClient> = (0..CONNECTIONS)
        .map(|c| {
            ResilientClient::new(
                [server.addr.clone()],
                RetryPolicy::default(),
                client_seed(run.seed, c),
            )
        })
        .collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter()
            .zip(&run.plan.warmup)
            .map(|(client, reqs)| {
                s.spawn(move || {
                    for req in reqs {
                        let body = ok_body(client.request_detailed(req));
                        if body.as_ref() != run.refs.get(&ref_key(req)) {
                            return Err(format!("warm-up reply wrong or failed: {}", req.format()));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("warm-up thread"))
    })?;
    let setup_s = t0.elapsed().as_secs_f64();
    Ok(Live {
        server,
        clients,
        setup_s,
    })
}

/// The closed loop over timed positions `range`: each connection sends
/// its next request once the previous reply is fully read. Hot replies
/// are checked inline; the `keep` positions' bodies are returned for a
/// check after the phase.
fn timed_phase(
    run: &Run,
    live: &Live,
    range: Range<usize>,
    keep: &HashSet<(usize, usize)>,
    deadline: Instant,
) -> Result<(Segment, Kept), String> {
    let max_attempts = RetryPolicy::default().max_attempts;
    let before = live.server.scrape()?;
    let start = Instant::now();
    let per_conn: Vec<(Vec<Outcome>, Kept)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let client = &live.clients[c];
                let reqs = &run.plan.timed[c][range.clone()];
                let first = range.start;
                s.spawn(move || {
                    let mut outcomes = Vec::with_capacity(reqs.len());
                    let mut kept = Vec::new();
                    for (i, req) in (first..).zip(reqs) {
                        let mut o = Outcome {
                            ms: f64::INFINITY,
                            ok: false,
                            mismatch: false,
                            attempts: 0,
                        };
                        // Past the deadline the rest go unsent and count
                        // as failed, so a stalled server cannot hold the run.
                        if Instant::now() < deadline {
                            let t0 = Instant::now();
                            let res = client.request_detailed(req);
                            o.ms = t0.elapsed().as_secs_f64() * 1e3;
                            o.attempts = res
                                .as_ref()
                                .map_or(max_attempts, |(_, _, sent)| sent.attempts);
                            if let Some(body) = ok_body(res) {
                                match run.refs.get(&ref_key(req)) {
                                    Some(exp) if *exp != body => o.mismatch = true,
                                    _ => o.ok = true,
                                }
                                if keep.contains(&(c, i)) {
                                    kept.push((c, i, body));
                                }
                            }
                        }
                        outcomes.push(o);
                    }
                    (outcomes, kept)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let hwm_mib = live.server.vm_hwm_mib()?;
    let after = live.server.scrape()?;
    let mut outcomes = Vec::new();
    let mut kept = Vec::new();
    for (o, k) in per_conn {
        outcomes.push(o);
        kept.extend(k);
    }
    Ok((
        Segment {
            range,
            outcomes,
            wall_s,
            before,
            after,
            hwm_mib,
            setup_s: live.setup_s,
        },
        kept,
    ))
}

/// The check made after the timed phase: the kept cold replies against
/// a direct call.
fn check_kept(run: &Run, seg: &mut Segment, kept: Kept) -> Result<(), String> {
    let first = seg.range.start;
    for (c, i, body) in kept {
        let expected = layers::plain_reply(&run.plan.timed[c][i]).map_err(|e| e.to_string())?;
        if expected != body {
            seg.outcomes[c][i - first].fail(true);
        }
    }
    Ok(())
}

/// A seeded sample of timed positions whose replies are kept for the
/// after-phase check (cold workloads; hot ones check every reply inline).
fn sample(run: &Run) -> HashSet<(usize, usize)> {
    if run.w.hot() {
        return HashSet::new();
    }
    let mut rng = SplitMix64::new(run.seed ^ 0x5EED_CAFE);
    let mut keep = HashSet::new();
    let per_conn = run.plan.timed[0].len();
    while keep.len() < RENDER_SAMPLE.min(per_conn * CONNECTIONS) {
        keep.insert((rng.usize_in(0, CONNECTIONS), rng.usize_in(0, per_conn)));
    }
    keep
}

/// Shut `server` down; whether it drained cleanly.
fn drained(server: ServerProc) -> bool {
    server
        .shutdown()
        .map_err(|e| eprintln!("servebench: {e}"))
        .is_ok()
}

/// The closed-loop phase: for each segment, set up a fresh server, run
/// its share of the timed requests, check, and shut it down, requiring a
/// clean drain.
fn closed_loop_run(run: &Run, seconds: u64) -> Result<Phase, String> {
    let per_conn = run.plan.timed[0].len();
    let keep = sample(run);
    let deadline = Instant::now() + Duration::from_secs((4 * seconds + 20).min(120));
    let mut phase = Phase {
        segments: Vec::new(),
        clean: true,
    };
    for k in 0..SEGMENTS {
        let live = start(run, &format!("server-{k}"))?;
        let range = k * per_conn / SEGMENTS..(k + 1) * per_conn / SEGMENTS;
        let (mut seg, kept) = timed_phase(run, &live, range, &keep, deadline)?;
        check_kept(run, &mut seg, kept)?;
        phase.clean &= drained(live.server);
        let lat = latencies(seg.outcomes.iter().flatten());
        eprintln!(
            "servebench: server {k}: setup {:.3} s, {:.2} ok req/s, p50 {:.1} ms",
            seg.setup_s,
            seg.ok() as f64 / seg.wall_s,
            quantile(&lat, 0.5)
        );
        phase.segments.push(seg);
    }
    Ok(phase)
}

/// Every metric is a median over segments, except that p95 pools the
/// run's timed requests when a segment has too few for the percentile
/// rule (fewer than 200).
fn end_to_end(phase: &Phase) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let finite = |v: f64| if v.is_finite() { v } else { FAILED_MS };
    let pct = |q: f64| {
        phase.quantile(q).map(finite).ok_or_else(|| {
            format!(
                "{} timed requests cannot support p{}",
                phase.attempted(),
                q * 100.0
            )
        })
    };
    Ok(vec![
        (
            "ok_rps",
            phase.median_of(|s| s.ok() as f64 / s.wall_s),
            "req/s",
        ),
        ("latency_p50_ms", pct(0.50)?, "ms"),
        ("latency_p95_ms", pct(0.95)?, "ms"),
        (
            "ok_frac",
            ratio(phase.ok() as f64, phase.attempted() as f64),
            "ratio",
        ),
        ("setup_s", phase.median_of(|s| s.setup_s), "s"),
        ("server_rss_mb", phase.median_of(|s| s.hwm_mib), "MiB"),
    ])
}

/// Replies of `svc` to `req`, or an error.
fn in_process(svc: &Service, req: &Request) -> Result<(bool, Vec<u8>), String> {
    let ticket = svc
        .submit(req.clone())
        .map_err(|_| "in-process service refused a request".to_string())?;
    match ticket.wait(REPLY_WAIT) {
        Some(resp) => match resp.header {
            RespHeader::Ok(h) if h.whole => Ok((h.cache_hit, resp.body.to_vec())),
            other => Err(format!("in-process service replied {other:?}")),
        },
        None => Err("in-process service did not reply".into()),
    }
}

/// The traced phase's requests in the order it sends them: the first
/// `per_conn` timed requests of each connection, alternating connections.
fn replay_order<'r>(
    run: &'r Run,
    per_conn: usize,
) -> impl Iterator<Item = (usize, &'r Request)> + 'r {
    (0..per_conn).flat_map(move |i| (0..CONNECTIONS).map(move |c| (c, &run.plan.timed[c][i])))
}

/// The traced phase's TCP requests alone, one at a time, with nothing
/// between them: the baseline `trace.p50_delta_frac` compares the traced
/// requests with. Returns their durations and how many failed or
/// disagreed with a direct Plain call (checked after the last request).
fn untraced_replay(run: &Run, live: &Live, per_conn: usize) -> Result<(Vec<f64>, usize), String> {
    let mut tcp_ms = Vec::new();
    let mut replies = Vec::new();
    for (c, req) in replay_order(run, per_conn) {
        let t0 = Instant::now();
        let body = ok_body(live.clients[c].request_detailed(req));
        tcp_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        replies.push((req, body));
    }
    let mut failed = 0;
    for (req, body) in replies {
        let right = match run.refs.get(&ref_key(req)) {
            Some(expected) => body.as_ref() == Some(expected),
            None => body == Some(layers::plain_reply(req).map_err(|e| e.to_string())?),
        };
        failed += usize::from(!right);
    }
    Ok((tcp_ms, failed))
}

/// The traced phase: the requests of [`replay_order`], one at a time, so
/// no span holds queue wait or contends with another request. After each
/// TCP request, the same request runs through an in-process `Service`
/// and then through each layer's entry point alone. Returns the TCP
/// spans' durations and how many requests failed or disagreed.
fn traced_phase(
    run: &Run,
    live: &Live,
    tracer: &mut Tracer,
    per_conn: usize,
) -> Result<(Vec<f64>, usize), String> {
    let svc = Service::start(ServiceConfig {
        exec_threads: SERVER_THREADS,
        lanes: SERVER_LANES,
        ..ServiceConfig::default()
    })
    .map_err(|e| e.to_string())?;
    for req in run.plan.warmup.iter().flatten() {
        in_process(&svc, req)?;
    }
    let durable = run.tmp.0.join("durable");
    std::fs::create_dir_all(&durable).map_err(|e| e.to_string())?;
    let (mut journal, _) = Journal::open(durable.join("journal.bin")).map_err(|e| e.to_string())?;
    let brownout = layers::service_brownout();
    let plain = ExecPolicy::Plain;
    let size = run.w.size();

    let mut tcp_ms = Vec::new();
    let mut failed = 0;
    for (r, (c, req)) in replay_order(run, per_conn).enumerate() {
        let (res, wire) = tracer.span("wire", r, None, || live.clients[c].request_detailed(req));
        tcp_ms.push(tracer.ms(wire));
        let tcp_body = ok_body(res);
        let ((hit, svc_body), svc_span) = {
            let (res, id) = tracer.span("server.service", r, Some(wire), || in_process(&svc, req));
            (res?, id)
        };
        let on_miss = (!hit).then_some(svc_span);
        let (values, _) = tracer.span("datagen.phantom", r, on_miss, || {
            layers::phantom(size, req.seed)
        });
        let (vol, _) = tracer.span("core.layout_build", r, on_miss, || {
            layers::build(req.layout, size, &values)
        });
        let (brownout_bytes, plain_bytes) = match req.op {
            OpKind::Filter { radius } => {
                let mut out_b = layers::filter_output(&vol);
                let (res, bo) = tracer.span("harness.brownout", r, Some(svc_span), || {
                    layers::filter(&vol, radius, &mut out_b, &brownout)
                });
                res.map_err(|e| e.to_string())?;
                let mut out_p = layers::filter_output(&vol);
                tracer
                    .span("filters.kernel", r, Some(bo), || {
                        layers::filter(&vol, radius, &mut out_p, &plain)
                    })
                    .0
                    .map_err(|e| e.to_string())?;
                let (bytes, _) = tracer.span("server.encode", r, Some(svc_span), || {
                    layers::encode_filter(&out_p)
                });
                // Off this workload's path: `render_cold`'s frame,
                // timed on this volume.
                tracer
                    .span("volrend.kernel", r, None, || {
                        layers::render(&vol, 128, 32, &plain)
                    })
                    .0
                    .map_err(|e| e.to_string())?;
                (layers::encode_filter(&out_b), bytes)
            }
            OpKind::Render { image, tile } => {
                let (img_b, bo) = tracer.span("harness.brownout", r, Some(svc_span), || {
                    layers::render(&vol, image, tile, &brownout)
                });
                let img_b = img_b.map_err(|e| e.to_string())?;
                let (img_p, _) = tracer.span("volrend.kernel", r, Some(bo), || {
                    layers::render(&vol, image, tile, &plain)
                });
                let img_p = img_p.map_err(|e| e.to_string())?;
                let (bytes, _) = tracer.span("server.encode", r, Some(svc_span), || {
                    layers::encode_image(&img_p)
                });
                // Off this workload's path: `filter_hot`'s r1.
                let mut out = layers::filter_output(&vol);
                tracer
                    .span("filters.kernel", r, None, || {
                        layers::filter(&vol, 1, &mut out, &plain)
                    })
                    .0
                    .map_err(|e| e.to_string())?;
                (layers::encode_image(&img_b), bytes)
            }
        };
        // Off every workload's path (no request saves): the service's
        // save of this reply, timed at its shape.
        let path = durable.join(format!("{}-{r}.vol", req.tenant));
        tracer
            .span("durable.save", r, None, || {
                layers::save(&path, req, &plain_bytes, &mut journal)
            })
            .0
            .map_err(|e| e.to_string())?;
        let agree = tcp_body.as_ref() == Some(&plain_bytes)
            && svc_body == plain_bytes
            && brownout_bytes == plain_bytes;
        if !agree {
            eprintln!(
                "servebench: traced reply disagrees with Plain: {}",
                req.format()
            );
            failed += 1;
        }
    }
    if !svc.drain(Duration::from_secs(10)).clean {
        return Err("in-process service did not drain cleanly".into());
    }
    Ok((tcp_ms, failed))
}

/// The simulated L3 access counts of the workload's kernel shape, in
/// `LayoutChoice::ALL` order. The volume is the phantom of a fixed seed,
/// not of a request: the render's early ray termination depends on the
/// data, and the counts must not change with `--seed`.
fn memsim_counts(w: Workload) -> [u64; 4] {
    let values = layers::phantom(w.size(), MEMSIM_VOLUME_SEED);
    LayoutChoice::ALL
        .map(|layout| layers::l3_tca(w.op(), &layers::build(layout, w.size(), &values)))
}

/// Whether `counts` equal the counts an earlier traced run of this same
/// benchmark build recorded in `out_dir`. The first traced run of a build
/// records its counts; every later one is compared with them.
fn memsim_repeats(w: Workload, counts: [u64; 4], out_dir: &Path) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let meta = std::fs::metadata(&exe).map_err(|e| format!("{}: {e}", exe.display()))?;
    let build = format!(
        "build len={} modified={:?}",
        meta.len(),
        meta.modified().ok()
    );
    let record = format!("{build}\n{counts:?}\n");
    let path = out_dir.join(format!("memsim-{}.txt", w.name()));
    match std::fs::read_to_string(&path) {
        Ok(earlier) if earlier.lines().next() == Some(build.as_str()) => {
            eprintln!("servebench: memsim counts compared with {}", path.display());
            Ok(earlier == record)
        }
        _ => {
            std::fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("servebench: memsim counts recorded in {}", path.display());
            Ok(true)
        }
    }
}

fn run_untraced(run: &Run, seconds: u64) -> Result<Report, String> {
    let phase = closed_loop_run(run, seconds)?;
    Ok(Report {
        correct: phase.clean && phase.mismatches() == 0,
        attempted: phase.attempted(),
        failed: phase.attempted() - phase.ok(),
        metrics: end_to_end(&phase)?,
    })
}

fn run_traced(run: &Run, seconds: u64, out_dir: &Path) -> Result<Report, String> {
    // The closed loop exactly as `--trace 0` runs it, for the scraped
    // counts and the client's attempts.
    let phase = closed_loop_run(run, seconds)?;

    // The traced requests once untraced and once traced, each on a fresh
    // server, so both see the same cache and dedup state.
    let per_conn = TRACED_PER_CONN.min(run.plan.timed[0].len());
    let live = start(run, "replay")?;
    let (untraced_ms, replay_failed) = untraced_replay(run, &live, per_conn)?;
    let clean_replay = drained(live.server);
    let live = start(run, "traced")?;
    let mut tracer = Tracer::new();
    let (tcp_ms, traced_failed) = traced_phase(run, &live, &mut tracer, per_conn)?;
    let clean_traced = drained(live.server);
    let trace_file = out_dir.join(format!("trace-{}-{}.jsonl", run.w.name(), run.seed));
    tracer
        .write_jsonl(&trace_file)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    eprintln!("servebench: spans written to {}", trace_file.display());

    let counts = memsim_counts(run.w);
    let repeatable = memsim_repeats(run.w, counts, out_dir)?;
    if !repeatable {
        eprintln!("servebench: memsim counts differ from an earlier run: {counts:?}");
    }

    let median_of = |name: &str| tracer.median_ms(name).ok_or(format!("no {name} spans"));
    let self_of = |name: &str| {
        tracer
            .median_self_ms(name)
            .ok_or(format!("no {name} spans"))
    };
    let last = phase.segments.last().expect("at least one segment");
    let hits = phase.delta("sfc_server_cache_hits")?;
    let misses = phase.delta("sfc_server_cache_misses")?;
    let attempts: Vec<f64> = phase
        .all()
        .filter(|o| o.attempts > 0)
        .map(|o| f64::from(o.attempts))
        .collect();
    let mut metrics = vec![
        ("datagen.phantom_ms", median_of("datagen.phantom")?, "ms"),
        (
            "core.layout_build_ms",
            median_of("core.layout_build")?,
            "ms",
        ),
        ("filters.kernel_ms", median_of("filters.kernel")?, "ms"),
        ("volrend.kernel_ms", median_of("volrend.kernel")?, "ms"),
        (
            "harness.brownout_self_ms",
            self_of("harness.brownout")?,
            "ms",
        ),
        ("server.encode_ms", median_of("server.encode")?, "ms"),
        ("server.service_self_ms", self_of("server.service")?, "ms"),
        ("wire.self_ms", self_of("wire")?, "ms"),
        ("durable.save_ms", median_of("durable.save")?, "ms"),
        (
            "server.cache.hit_ratio",
            ratio(hits, hits + misses),
            "ratio",
        ),
        (
            "server.cache.resident_bytes",
            last.after.get("sfc_server_cache_resident_bytes")?,
            "bytes",
        ),
        (
            "server.dedup.resident",
            last.after.get("sfc_server_dedup_resident")?,
            "count",
        ),
        (
            "engine.units_per_request",
            ratio(
                phase.delta("sfc_engine_units_completed_total")?,
                phase.attempted() as f64,
            ),
            "count",
        ),
        (
            "client.attempts_per_request",
            ratio(attempts.iter().sum(), attempts.len() as f64),
            "count",
        ),
    ];
    let names = [
        "memsim.ivb.l3_tca.array",
        "memsim.ivb.l3_tca.z",
        "memsim.ivb.l3_tca.tiled",
        "memsim.ivb.l3_tca.hilbert",
    ];
    metrics.extend(
        names
            .into_iter()
            .zip(counts)
            .map(|(n, v)| (n, v as f64, "count")),
    );
    metrics.push((
        "trace.p50_delta_frac",
        relative_delta(median(&tcp_ms), median(&untraced_ms)),
        "ratio",
    ));

    let attempted = phase.attempted() + untraced_ms.len() + tcp_ms.len();
    let failed = phase.attempted() - phase.ok() + replay_failed + traced_failed;
    Ok(Report {
        correct: phase.clean
            && clean_replay
            && clean_traced
            && repeatable
            && phase.mismatches() == 0
            && replay_failed == 0
            && traced_failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Median time of a direct Plain reply to each warm-up request, in ms: a
/// probe of the host's speed taken outside the server, so a drift of the
/// host can be told apart from a change of the program.
fn host_probe_ms(plan: &Plan) -> Result<f64, String> {
    let mut ms = Vec::new();
    for req in plan.warmup.iter().flatten() {
        let t0 = Instant::now();
        layers::plain_reply(req).map_err(|e| e.to_string())?;
        ms.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&ms))
}

fn run_workload(args: &Args, bin: &Path, out_dir: &Path) -> Result<Report, String> {
    let w = args.workload;
    let plan = Plan::new(w, args.seed, w.timed_per_conn(args.seconds));
    let tmp = TempDir(out_dir.join(format!(
        "run-{}-{}-{}",
        w.name(),
        args.seed,
        std::process::id()
    )));
    let probe_before = host_probe_ms(&plan)?;
    // References come before any server starts, so they stay out of
    // `setup_s`: every distinct request of a hot workload, and a cold
    // workload's warm-up (its timed replies are sampled after its timed
    // phase).
    let mut refs = Refs::new();
    let hot_timed = plan.timed.iter().flatten().filter(|_| w.hot());
    for req in plan.warmup.iter().flatten().chain(hot_timed) {
        if let Entry::Vacant(e) = refs.entry(ref_key(req)) {
            e.insert(layers::plain_reply(req).map_err(|e| e.to_string())?);
        }
    }
    let run = Run {
        w,
        seed: args.seed,
        bin,
        tmp,
        plan,
        refs,
    };
    let report = if args.trace {
        run_traced(&run, args.seconds, out_dir)
    } else {
        run_untraced(&run, args.seconds)
    }?;
    eprintln!(
        "servebench: host probe {probe_before:.2} ms before, {:.2} ms after",
        host_probe_ms(&run.plan)?
    );
    Ok(report)
}

/// (steal, total) CPU ticks of the host so far, from `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

fn print_report(w: Workload, r: &Report) {
    println!(
        "workload {} attempted={} failed={} correct={}",
        w.name(),
        r.attempted,
        r.failed,
        r.correct
    );
    for (name, value, unit) in &r.metrics {
        println!("  {name} = {value} {unit}");
    }
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(", ")
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}\nusage: servebench --workload <filter_hot|render_cold> --seed N --seconds S --trace 0|1");
            std::process::exit(2);
        }
    };
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark sits inside the repository");
    let bin = match build_server(repo) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("servebench: {e}");
            std::process::exit(1);
        }
    };
    let out_dir = bin
        .parent()
        .and_then(Path::parent)
        .expect("binary under <target>/release")
        .join("servebench");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("servebench: {}: {e}", out_dir.display());
        std::process::exit(1);
    }
    let ticks = cpu_ticks();
    let result = run_workload(&args, &bin, &out_dir);
    // CPU time the hypervisor gave to other guests: a run with much
    // steal was slowed by its neighbours, not by the program.
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks, cpu_ticks()) {
        eprintln!(
            "servebench: host steal {:.1}% of CPU time",
            100.0 * ratio((s1 - s0) as f64, (t1 - t0) as f64)
        );
    }
    match result {
        Ok(report) => {
            print_report(args.workload, &report);
            std::process::exit(if report.correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("servebench: {}: {e}", args.workload.name());
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segment(latencies_ms: impl Iterator<Item = f64>) -> Segment {
        let outcomes = latencies_ms
            .map(|ms| Outcome {
                ms,
                ok: true,
                mismatch: false,
                attempts: 1,
            })
            .collect();
        Segment {
            range: 0..0,
            outcomes: vec![outcomes],
            wall_s: 1.0,
            before: Scrape::default(),
            after: Scrape::default(),
            hwm_mib: 1.0,
            setup_s: 1.0,
        }
    }

    fn phase(segments: Vec<Segment>) -> Phase {
        Phase {
            segments,
            clean: true,
        }
    }

    #[test]
    fn segment_quantiles_take_the_median_when_each_segment_supports_them() {
        // Segment k holds 200 samples k+1 .. k+200: p95 (rank 190) is
        // k+190, and the median over five segments is segment 2's.
        let p = phase(
            (0..5)
                .map(|k| segment((1..=200).map(move |v| f64::from(v + k))))
                .collect(),
        );
        assert_eq!(p.quantile(0.95), Some(192.0));
        assert_eq!(p.quantile(0.50), Some(102.0));
    }

    #[test]
    fn small_segments_pool_for_the_tail_and_fail_below_the_rule() {
        // Five segments of 40: p50 per segment, p95 from the pooled 200.
        let p = phase(
            (0..5)
                .map(|k| segment((0..40).map(move |v| f64::from(v * 5 + k))))
                .collect(),
        );
        assert_eq!(p.quantile(0.50), Some(97.0));
        assert_eq!(p.quantile(0.95), Some(189.0));
        let small = phase(vec![segment((1..=100).map(f64::from))]);
        assert_eq!(small.quantile(0.95), None);
    }

    #[test]
    fn a_failed_request_is_infinitely_slow() {
        let mut s = segment((1..=20).map(f64::from));
        for o in s.outcomes[0].iter_mut().take(11) {
            o.fail(false);
        }
        let p = phase(vec![s]);
        assert_eq!(p.quantile(0.50), Some(f64::INFINITY));
        assert_eq!((p.attempted(), p.ok(), p.mismatches()), (20, 9, 0));
    }
}
