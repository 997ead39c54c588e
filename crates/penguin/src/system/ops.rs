//! Operating a [`Penguin`]: telemetry, the slow-operation log, health.

use super::Penguin;
use std::sync::OnceLock;
use vo_core::prelude::*;
use vo_obs::health::{HealthInputs, HealthPolicy, HealthReport, StalenessInput};
use vo_obs::metrics::{self, Counter};
use vo_obs::sink::TelemetryPipeline;
use vo_obs::slowlog::{self, SlowOp};
use vo_obs::trace;
use vo_store::Store;

/// Health-status transitions observed by [`Penguin::health`].
fn health_transitions() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("penguin.health.transitions"))
}

impl Penguin {
    /// Drain collected spans through the telemetry pipeline (no-op when
    /// none is attached), mapping sink failures into [`Error::Storage`].
    pub(super) fn drain_telemetry(&mut self) -> Result<()> {
        if let Some(t) = &mut self.telemetry {
            t.drain()
                .map_err(|e| Error::Storage(format!("telemetry drain: {e}")))?;
        }
        Ok(())
    }

    /// The attached telemetry pipeline, if any.
    pub fn telemetry(&self) -> Option<&TelemetryPipeline> {
        self.telemetry.as_ref()
    }

    /// Mutable access to the attached telemetry pipeline (to adjust its
    /// sampling policy or drain it by hand).
    pub fn telemetry_mut(&mut self) -> Option<&mut TelemetryPipeline> {
        self.telemetry.as_mut()
    }

    /// Attach (or with `None` detach) a telemetry pipeline, returning the
    /// previous one. A detached pipeline drains once more as it drops.
    /// Run at most one pipeline per process: the trace ring is global,
    /// and concurrent drainers would steal each other's spans.
    pub fn set_telemetry(
        &mut self,
        pipeline: Option<TelemetryPipeline>,
    ) -> Option<TelemetryPipeline> {
        std::mem::replace(&mut self.telemetry, pipeline)
    }

    /// The slow-operation log: spans that crossed their per-name
    /// [`vo_obs::slowlog::threshold`], full fields retained, regardless
    /// of telemetry sampling. Oldest first; the log is process-global.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        slowlog::entries()
    }

    /// The health policy behind [`Penguin::health`].
    pub fn health_policy(&self) -> &HealthPolicy {
        &self.health_policy
    }

    /// Replace the health policy (thresholds and custom rules).
    pub fn set_health_policy(&mut self, policy: HealthPolicy) -> &mut Self {
        self.health_policy = policy;
        self
    }

    /// Gather every health signal this system can observe about itself —
    /// journal lag per consumer, persistence lag, per-view staleness,
    /// live WAL bytes and segment-file count (checkpoint/compaction
    /// debt), and the last recovery's outcome — without mutating
    /// anything.
    pub fn health_inputs(&self) -> HealthInputs {
        let mut consumer_lags = Vec::new();
        if let Some(cursor) = self.wal_cursor {
            if let Ok(lag) = self.db.journal_lag(cursor) {
                consumer_lags.push(("wal".to_owned(), lag));
            }
        }
        let mut view_staleness = Vec::new();
        for (name, view) in &self.views {
            if let Ok(s) = view.staleness(&self.db) {
                consumer_lags.push((format!("view/{name}"), s.pending));
                view_staleness.push(StalenessInput {
                    name: name.clone(),
                    pending: s.pending,
                    // a forced full rebuild is the same hole in the delta
                    // stream a lapse is; surface it through the same signal
                    lapsed: s.lapsed.max(u64::from(s.needs_full)),
                });
            }
        }
        HealthInputs {
            consumer_lags,
            persistence_lag: self.persistence_lag(),
            view_staleness,
            wal_live_bytes: self.store.as_ref().map(Store::wal_len),
            wal_segments: self.store.as_ref().map(Store::segment_count),
            recovery_torn_tail: self.recovery.map(|r| r.torn_tail_truncated),
            // connection saturation belongs to the network layer: a server
            // fills these from its admission counters before evaluating
            // the same policy (see `vo-net`)
            net_active_connections: None,
            net_connection_limit: None,
        }
    }

    /// Evaluate the system's health right now: the policy's verdict over
    /// [`Penguin::health_inputs`]. On a status *transition* (e.g. Ok →
    /// Degraded) a `penguin.health` trace event is recorded with the old
    /// and new status and each reason's code, and the
    /// `penguin.health.transitions` counter is bumped.
    pub fn health(&self) -> HealthReport {
        let report = self.health_policy.evaluate(&self.health_inputs());
        let previous = self.last_health.replace(report.status);
        if previous != report.status {
            health_transitions().inc();
            trace::event_with("penguin.health", || {
                vec![
                    ("from", Json::str(previous.to_string())),
                    ("to", Json::str(report.status.to_string())),
                    (
                        "reasons",
                        Json::Arr(
                            report
                                .reasons
                                .iter()
                                .map(|r| Json::str(r.code.as_str()))
                                .collect(),
                        ),
                    ),
                ]
            });
        }
        report
    }
}
