//! # vo-obs — observability substrate for the PENGUIN stack
//!
//! Zero-dependency tracing, metrics, and profiling shared by every layer
//! of the view-object reproduction:
//!
//! - [`trace`] — a span-based tracer: thread-local span stacks, monotonic
//!   timings, and per-call captures ([`trace::capture`] is the one way a
//!   thread's spans, events and counter increments leave it;
//!   [`trace::export_jsonl`] writes a capture's spans). Off by default;
//!   each instrumentation point costs one relaxed atomic load while
//!   disabled.
//! - [`metrics`] — a registry of named counters and log₂-bucket latency
//!   histograms with interned `&'static` atomic handles, so hot-path
//!   increments cost the same as hand-rolled statics; an open capture
//!   also receives its thread's counter increments.
//! - [`profile`] — the operator-tree profile returned by
//!   `EXPLAIN ANALYZE` and `Penguin::profile()`: rows in/out, wall time,
//!   and the access path per node.
//! - [`json`] — the in-tree JSON document model (moved here from
//!   `vo-relational` so every layer, including this one, can share it
//!   without a dependency cycle).
//! - [`slowlog`] — a bounded ring of request trees in which a span
//!   crossed its per-name duration threshold: a registered threshold makes
//!   every root span record into a capture, kept whole when it crossed.
//! - [`health`] — a threshold [`health::HealthPolicy`] turning each
//!   journal consumer's lag, views due a full rebuild, WAL growth,
//!   recovery outcome and connection saturation into an Ok/Degraded/Unhealthy
//!   [`health::HealthReport`] with machine-readable reasons.
//!
//! This crate sits below `vo-relational` and therefore depends on nothing
//! in the workspace.

pub mod health;
pub mod json;
pub mod metrics;
pub mod profile;
pub mod slowlog;
pub mod trace;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::health::{HealthInputs, HealthPolicy, HealthReason, HealthReport, HealthStatus};
    pub use crate::json::{Json, JsonCodec, JsonError};
    pub use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot};
    pub use crate::profile::ProfileNode;
    pub use crate::slowlog::SlowOp;
    pub use crate::trace::{Capture, SpanEvent, SpanGuard};
}
