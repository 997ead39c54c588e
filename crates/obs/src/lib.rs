//! # vo-obs — observability substrate for the PENGUIN stack
//!
//! Zero-dependency tracing, metrics, and profiling shared by every layer
//! of the view-object reproduction:
//!
//! - [`trace`] — a span-based tracer: thread-local span stacks, monotonic
//!   timings, a bounded global event collector, and JSONL export. Off by
//!   default; each instrumentation point costs one relaxed atomic load
//!   while disabled.
//! - [`metrics`] — a registry of named counters and log₂-bucket latency
//!   histograms with interned `&'static` atomic handles, so hot-path
//!   increments cost the same as hand-rolled statics.
//! - [`profile`] — the operator-tree profile returned by
//!   `EXPLAIN ANALYZE` and `Penguin::profile()`: rows in/out, wall time,
//!   and the access path per node.
//! - [`json`] — the in-tree JSON document model (moved here from
//!   `vo-relational` so every layer, including this one, can share it
//!   without a dependency cycle).
//! - [`sink`] — the telemetry pipeline: pluggable [`sink::TelemetrySink`]s
//!   (buffered JSONL file, in-memory) fed by a [`sink::TelemetryPipeline`]
//!   that drains the trace ring with head-based trace sampling while
//!   always keeping error and slow spans.
//! - [`slowlog`] — a bounded ring of spans that crossed a per-name
//!   duration threshold, kept with full fields regardless of sampling.
//! - [`health`] — a programmable [`health::HealthPolicy`] turning journal
//!   lag, persistence lag, view staleness, WAL growth, recovery outcome
//!   and cache hit ratios into an Ok/Degraded/Unhealthy
//!   [`health::HealthReport`] with machine-readable reasons.
//!
//! This crate sits below `vo-relational` and therefore depends on nothing
//! in the workspace.

pub mod health;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod slowlog;
pub mod trace;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::health::{
        HealthInputs, HealthPolicy, HealthReason, HealthReport, HealthStatus, StalenessInput,
    };
    pub use crate::json::{Json, JsonCodec, JsonError};
    pub use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot};
    pub use crate::profile::ProfileNode;
    pub use crate::sink::{
        DrainStats, FileSink, MemorySink, SamplingPolicy, TelemetryPipeline, TelemetrySink,
    };
    pub use crate::slowlog::SlowOp;
    pub use crate::trace::{SpanEvent, SpanGuard, TraceScope, Verbosity};
}
