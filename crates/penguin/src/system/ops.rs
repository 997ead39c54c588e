//! Operating a [`Penguin`]: the slow-operation log, health.

use super::Penguin;
use std::sync::OnceLock;
use vo_core::prelude::*;
use vo_obs::health::{HealthInputs, HealthPolicy, HealthReport};
use vo_obs::metrics::{self, Counter};
use vo_obs::slowlog::{self, SlowOp};
use vo_obs::trace;
use vo_store::Store;

/// Health-status transitions observed by [`Penguin::health`].
fn health_transitions() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("penguin.health.transitions"))
}

impl Penguin {
    /// The slow-operation log: spans that crossed their per-name
    /// [`vo_obs::slowlog::threshold`], full fields retained, each with the
    /// whole tree it ran in (its root's spans and counts). A registered
    /// threshold is all it takes. Oldest first; the log is process-global.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        slowlog::entries()
    }

    /// The health policy behind [`Penguin::health`].
    pub fn health_policy(&self) -> &HealthPolicy {
        &self.health_policy
    }

    /// Replace the health policy's thresholds.
    pub fn set_health_policy(&mut self, policy: HealthPolicy) -> &mut Self {
        self.health_policy = policy;
        self
    }

    /// Gather every health signal this system can observe about itself —
    /// the journal lag of each consumer (the write-ahead persister and
    /// every view), the views whose next refresh must rebuild in full,
    /// live WAL bytes and segment-file count (checkpoint/compaction
    /// debt), and the last recovery's outcome — without mutating
    /// anything.
    pub fn health_inputs(&self) -> HealthInputs {
        let mut consumer_lags = Vec::new();
        if let Some(lag) = self.persistence_lag() {
            consumer_lags.push(("wal".to_owned(), lag));
        }
        for (name, view) in &self.views {
            if let Ok(lag) = self.db.journal_lag(view.cursor()) {
                consumer_lags.push((format!("view/{name}"), lag));
            }
        }
        let views_rebuilding = (self.views.iter())
            .filter(|(_, view)| view.needs_full())
            .map(|(name, _)| name.clone())
            .collect();
        HealthInputs {
            consumer_lags,
            views_rebuilding,
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
