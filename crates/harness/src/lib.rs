//! # sfc-harness — experiment plumbing
//!
//! Shared machinery for the timing and counter experiments:
//!
//! * [`engine`] — the execution engine: [`WorkPlan`]s under the paper's
//!   two [`Schedule`]s (static round-robin pencils, dynamic tile queue),
//!   the single [`Executor`]-owned thread scope, the one failure-handling
//!   pipeline ([`Executor::execute`]) over a [`UnitKernel`] with a quality
//!   ladder, the [`ExecPolicy`] choice (`Plain` | `Brownout`) kernel
//!   drivers take, and the shared [`UnitCounters`] event sink;
//! * [`supervise`] — the supervision vocabulary: cooperative
//!   [`CancelToken`]s, [`SupervisorConfig`] (watchdog timeouts, bounded
//!   retry with backoff), structured [`RunReport`]s;
//! * [`faults`] — deterministic fault injection (panics, stalls, flaky
//!   items, output/NaN/file corruption) for exercising the supervisor;
//! * [`degrade`] — the typed [`DefectMap`] of failed/invalid output units
//!   that graceful-degradation drivers return alongside partial results;
//! * [`deadline`] — deadline-aware admission control for
//!   [`ExecPolicy::Brownout`]: wall-clock [`DeadlineBudget`]s, a
//!   controller that sheds past the budget, applies EWMA-projected
//!   pressure before it and trips a per-unit circuit breaker, and the
//!   [`QualityMap`] recording every unit committed below full quality;
//! * [`durable`] — crash-consistent persistence: atomic whole-file
//!   replacement and an append-only checksummed journal with torn-tail
//!   recovery;
//! * [`metrics`] — the process-wide observability plane: a registry of
//!   typed counters/gauges/log2 histograms (lock-free hot path), snapshot
//!   merge/delta, an interval sampler, and Prometheus text exposition;
//! * [`backoff`] — client-side retry pacing: decorrelated-jitter backoff
//!   schedules and a token-bucket [`RetryBudget`] that prevents retry
//!   storms against a dying server;
//! * [`timing`] — warmup/repeat wall-clock measurement;
//! * [`ds`] — the paper's "scaled, relative difference" metric;
//! * [`table`] — paper-figure-shaped result tables (text/Markdown/CSV);
//! * [`cli`] — a tiny dependency-free argument parser for the experiment
//!   binaries.

#![warn(missing_docs)]

pub mod backoff;
pub mod cli;
pub mod deadline;
pub mod degrade;
pub mod ds;
pub mod durable;
pub mod engine;
pub mod faults;
pub mod metrics;
pub mod supervise;
pub mod table;
pub mod timing;

pub use backoff::{DecorrelatedJitter, RetryBudget};
pub use cli::{Args, FigArgs};
pub use deadline::{DeadlineBudget, DowngradeReason, QualityEntry, QualityMap};
pub use degrade::{scan_unit, Defect, DefectKind, DefectMap, DegradedOutcome, FailureClass};
pub use ds::{format_ds, scaled_relative_difference};
pub use durable::{write_atomic, write_atomic_with, Journal, JournalRecovery};
pub use engine::{
    items_for_thread, BrownoutPolicy, EventCounter, ExecPolicy, Executor, Schedule,
    UnitCounters, UnitKernel, WorkPlan,
};
pub use faults::{FaultKind, FaultPlan, FaultRates, FaultyFile, IoFaultPlan, IoFaultRates};
pub use metrics::{
    encode_prometheus, validate_prometheus_text, Counter, Gauge, HistogramSnapshot, LazyCounter,
    LazyGauge, LazyHistogram, Log2Histogram, MetricValue, Registry, Sampler, Snapshot,
};
pub use supervise::{CancelToken, ItemFailure, RunReport, SupervisorConfig};
pub use table::PaperTable;
pub use timing::{measure, time_once, TimingStats};
