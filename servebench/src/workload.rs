//! The workloads and their deterministic request generator.
//!
//! Every request line the server sees comes from [`Plan::new`]: the same
//! workload seed gives the same lines, and the server learns nothing else
//! about the run. Each of the [`CONNECTIONS`] closed-loop connections has
//! its own tenant and its own request stream; a stream's first
//! [`WARMUP_PER_CONN`] requests are the warm-up, the rest are timed.

use sfc_core::SplitMix64;
use sfc_server::{LayoutChoice, OpKind, Request};

/// Closed-loop connections driving the server (one request in flight
/// each).
pub const CONNECTIONS: usize = 2;

/// Warm-up requests per connection: one per layout, so a hot workload's
/// whole working set is resident before timing starts.
pub const WARMUP_PER_CONN: usize = 4;

/// Fresh servers per run. Each is set up (one `setup_s` sample) and
/// serves an equal share of the timed requests; the run reports medians
/// over them, so one slow process or a passing burst of host load moves
/// a metric less.
pub const SEGMENTS: usize = 9;

/// Fewest timed requests in a run: p95 needs ten samples beyond it.
pub const MIN_TIMED: usize = 200;

/// One timed request in this many on each `filter_hot` connection asks
/// for radius 2 instead of 1. The period is prime to the four layouts, so
/// every layout gets heavy requests.
pub const HEAVY_EVERY: usize = 7;

/// 64³ volumes the server's default 64 MiB cache holds.
const CACHE_VOLUMES: usize = 64;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 64³ filters over 8 resident volumes, radius 1 with every
    /// [`HEAVY_EVERY`]th timed request radius 2: every timed request hits
    /// the volume cache, so engine, encode, service and wire show beside
    /// the kernel.
    FilterHot,
    /// 64³ renders of never-seen seeds: every request misses the cache,
    /// so phantom generation, layout build and the sampler dominate.
    RenderCold,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::FilterHot, Workload::RenderCold];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FilterHot => "filter_hot",
            Workload::RenderCold => "render_cold",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Cubic volume edge of every request.
    pub fn size(self) -> usize {
        64
    }

    /// The computation most requests ask for: the kernel shape the
    /// memsim counts are taken on.
    pub fn op(self) -> OpKind {
        match self {
            Workload::FilterHot => OpKind::Filter { radius: 1 },
            Workload::RenderCold => OpKind::Render {
                image: 128,
                tile: 32,
            },
        }
    }

    /// The computation of timed request `t` on connection `conn`. On
    /// `filter_hot`, every [`HEAVY_EVERY`]th is a radius-2 filter, about
    /// four times the kernel work of radius 1; the connections' heavy
    /// requests are staggered. The warm-up asks for [`Workload::op`].
    pub fn timed_op(self, conn: usize, t: usize) -> OpKind {
        match self {
            Workload::FilterHot if (t + conn * HEAVY_EVERY / 2).is_multiple_of(HEAVY_EVERY) => {
                OpKind::Filter { radius: 2 }
            }
            _ => self.op(),
        }
    }

    /// Whether the volumes repeat (a fixed per-connection working set)
    /// rather than being fresh on every request.
    pub fn hot(self) -> bool {
        self == Workload::FilterHot
    }

    /// Timed requests per second of `--seconds`. The run issues a fixed
    /// count rather than running against the clock, so the server's
    /// dedup cache holds the same number of replies at the end of every
    /// run and `server_rss_mb` does not follow throughput. The rates are
    /// about what a busy 2-core host sustains, so a run lasts about
    /// `--seconds` there and less on a quiet one.
    fn nominal_rps(self) -> f64 {
        match self {
            Workload::FilterHot => 11.25,
            Workload::RenderCold => 13.5,
        }
    }

    /// Fewest timed requests in a run of this workload.
    fn min_timed(self) -> usize {
        match self {
            // Every segment's server must fill its cache and then evict.
            Workload::RenderCold => SEGMENTS * (CACHE_VOLUMES + 4 - WARMUP_PER_CONN * CONNECTIONS),
            _ => MIN_TIMED,
        }
    }

    /// Timed requests per connection for a run of `seconds`.
    pub fn timed_per_conn(self, seconds: u64) -> usize {
        let total = (seconds as f64 * self.nominal_rps()).ceil() as usize;
        total
            .max(self.min_timed())
            .max(MIN_TIMED)
            .div_ceil(CONNECTIONS)
    }
}

/// Every request of one run, per connection.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Warm-up requests (part of set-up, not timed).
    pub warmup: Vec<Vec<Request>>,
    /// Timed requests.
    pub timed: Vec<Vec<Request>>,
}

/// The per-connection volume seed of a hot workload.
fn conn_seed(seed: u64, conn: usize) -> u64 {
    SplitMix64::new(seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(conn as u64 + 1))).next_u64()
}

impl Plan {
    /// The requests of workload `w` for workload seed `seed`, with
    /// `timed_per_conn` timed requests on each connection.
    pub fn new(w: Workload, seed: u64, timed_per_conn: usize) -> Plan {
        let cold_base = SplitMix64::new(seed).next_u64();
        let stream = |conn: usize| -> Vec<Request> {
            (0..WARMUP_PER_CONN + timed_per_conn)
                .map(|i| {
                    let volume_seed = if w.hot() {
                        conn_seed(seed, conn)
                    } else {
                        // Distinct for every (connection, position) pair:
                        // no volume is asked for twice in a run.
                        cold_base.wrapping_add((i * CONNECTIONS + conn) as u64)
                    };
                    Request {
                        tenant: format!("c{conn}"),
                        op: match i.checked_sub(WARMUP_PER_CONN) {
                            Some(t) => w.timed_op(conn, t),
                            None => w.op(),
                        },
                        size: w.size(),
                        layout: LayoutChoice::ALL[i % LayoutChoice::ALL.len()],
                        seed: volume_seed,
                        deadline_ms: None,
                        // Explicit idempotency keys, unique in the run, so
                        // the whole line comes from the workload seed.
                        req_id: Some(format!("r{seed:x}-{conn}-{i}")),
                        attempt: 1,
                        faults: None,
                        save: false,
                    }
                })
                .collect()
        };
        let (mut warmup, mut timed) = (Vec::new(), Vec::new());
        for conn in 0..CONNECTIONS {
            let mut s = stream(conn);
            timed.push(s.split_off(WARMUP_PER_CONN));
            warmup.push(s);
        }
        Plan { warmup, timed }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn lines(p: &Plan) -> Vec<String> {
        p.warmup
            .iter()
            .chain(&p.timed)
            .flatten()
            .map(Request::format)
            .collect()
    }

    #[test]
    fn same_seed_same_lines_other_seed_other_lines() {
        for w in Workload::ALL {
            let a = lines(&Plan::new(w, 7, 30));
            assert_eq!(a, lines(&Plan::new(w, 7, 30)), "{}", w.name());
            let b = lines(&Plan::new(w, 8, 30));
            assert_eq!(a.len(), b.len());
            assert!(a.iter().zip(&b).all(|(x, y)| x != y), "{}", w.name());
        }
    }

    #[test]
    fn generated_lines_parse_back_to_the_same_request() {
        for w in Workload::ALL {
            let p = Plan::new(w, 3, 8);
            for r in p.warmup.iter().chain(&p.timed).flatten() {
                assert_eq!(&Request::parse(&r.format()).expect("valid line"), r);
            }
        }
    }

    #[test]
    fn render_cold_never_repeats_a_volume() {
        for seed in [0, 1, 99] {
            let p = Plan::new(Workload::RenderCold, seed, 150);
            let keys: Vec<_> = p
                .warmup
                .iter()
                .chain(&p.timed)
                .flatten()
                .map(|r| r.seed)
                .collect();
            let distinct: HashSet<_> = keys.iter().collect();
            assert_eq!(distinct.len(), keys.len(), "seed {seed}");
        }
    }

    #[test]
    fn hot_connections_never_share_a_work_key() {
        let p = Plan::new(Workload::FilterHot, 5, 40);
        let keys = |c: usize| -> HashSet<(u64, &str)> {
            p.warmup[c]
                .iter()
                .chain(&p.timed[c])
                .map(|r| (r.seed, r.layout.name()))
                .collect()
        };
        let (k0, k1) = (keys(0), keys(1));
        assert!(k0.is_disjoint(&k1));
        // The warm-up covers each connection's whole working set.
        let warm: HashSet<_> = p.warmup[0]
            .iter()
            .map(|r| (r.seed, r.layout.name()))
            .collect();
        assert_eq!(warm, k0);
        assert_eq!(k0.len() + k1.len(), 8);
    }

    #[test]
    fn hot_heavy_requests_cover_every_layout_on_both_connections() {
        let p = Plan::new(Workload::FilterHot, 5, 8 * HEAVY_EVERY);
        for (c, timed) in p.timed.iter().enumerate() {
            let heavy: Vec<_> = timed
                .iter()
                .filter(|r| r.op == OpKind::Filter { radius: 2 })
                .collect();
            assert_eq!(heavy.len(), 8, "connection {c}");
            let layouts: HashSet<_> = heavy.iter().map(|r| r.layout.name()).collect();
            assert_eq!(layouts.len(), LayoutChoice::ALL.len(), "connection {c}");
        }
        // The two connections' heavy requests never share a position.
        let heavy_at = |c: usize| -> Vec<bool> {
            p.timed[c]
                .iter()
                .map(|r| r.op != Workload::FilterHot.op())
                .collect()
        };
        assert!(heavy_at(0).iter().zip(heavy_at(1)).all(|(a, b)| !(*a && b)));
        assert!(p
            .warmup
            .iter()
            .flatten()
            .all(|r| r.op == Workload::FilterHot.op()));
        // A cold workload has one shape.
        let cold = Plan::new(Workload::RenderCold, 5, 20);
        assert!(cold
            .timed
            .iter()
            .flatten()
            .all(|r| r.op == Workload::RenderCold.op()));
    }

    #[test]
    fn req_ids_are_unique_in_a_run() {
        let p = Plan::new(Workload::FilterHot, 11, 100);
        let ids: HashSet<_> = p
            .warmup
            .iter()
            .chain(&p.timed)
            .flatten()
            .map(|r| (r.tenant.clone(), r.req_id.clone()))
            .collect();
        assert_eq!(ids.len(), CONNECTIONS * (WARMUP_PER_CONN + 100));
    }

    #[test]
    fn every_run_times_enough_requests_for_p95() {
        for w in Workload::ALL {
            assert!(w.timed_per_conn(1) * CONNECTIONS >= MIN_TIMED);
        }
    }

    #[test]
    fn every_render_cold_server_evicts() {
        for seconds in [1, 20] {
            let per_conn = Workload::RenderCold.timed_per_conn(seconds);
            // The smallest segment, plus the warm-up, overflows the cache.
            let smallest = per_conn / SEGMENTS * CONNECTIONS;
            assert!(
                smallest + WARMUP_PER_CONN * CONNECTIONS > CACHE_VOLUMES,
                "{seconds}s"
            );
        }
    }
}
