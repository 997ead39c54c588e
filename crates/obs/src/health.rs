//! System health: a programmable policy turning raw observability
//! signals into an Ok/Degraded/Unhealthy verdict with machine-readable
//! reasons.
//!
//! Counters and histograms tell an operator *what happened*; they do not
//! say whether the system is currently fine. This module closes that gap
//! the way programmable view-update strategies close the dialog gap:
//! the thresholds are *policy as code* ([`HealthPolicy`]), evaluated by
//! the system itself over a snapshot of its signals ([`HealthInputs`]),
//! yielding a [`HealthReport`] that machines can route on (alerting,
//! load shedding) and humans can read.
//!
//! This crate sits at the bottom of the workspace, so the inputs are
//! plain names and numbers; the PENGUIN facade gathers them from the
//! journal, the store and the materialized views and exposes the verdict
//! as `Penguin::health()`.

use crate::json::Json;
use std::sync::Arc;

/// The verdict, ordered by severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum HealthStatus {
    /// Every signal within its policy thresholds.
    #[default]
    Ok,
    /// Operating, but a signal crossed its degraded threshold — the
    /// system is falling behind or has recently lost redundancy.
    Degraded,
    /// A signal crossed its unhealthy threshold — intervention needed.
    Unhealthy,
}

impl std::fmt::Display for HealthStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            HealthStatus::Ok => "ok",
            HealthStatus::Degraded => "degraded",
            HealthStatus::Unhealthy => "unhealthy",
        })
    }
}

/// One machine-readable reason contributing to a verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReason {
    /// Stable, machine-routable code: `signal[:subject]`, e.g.
    /// `journal_lag:view/omega`, `wal_bytes`, `recovery_torn_tail`.
    pub code: String,
    /// Severity this reason contributes to the overall status.
    pub status: HealthStatus,
    /// The observed value of the signal.
    pub value: f64,
    /// The policy threshold it crossed.
    pub threshold: f64,
    /// Human-readable sentence.
    pub detail: String,
}

impl HealthReason {
    /// The reason as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("code", Json::str(self.code.as_str())),
            ("status", Json::str(self.status.to_string())),
            ("value", Json::Float(self.value)),
            ("threshold", Json::Float(self.threshold)),
            ("detail", Json::str(self.detail.as_str())),
        ])
    }
}

/// The verdict plus every reason behind it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct HealthReport {
    /// Worst severity across the reasons ([`HealthStatus::Ok`] when no
    /// reason fired).
    pub status: HealthStatus,
    /// Every threshold crossing, in evaluation order.
    pub reasons: Vec<HealthReason>,
}

impl HealthReport {
    /// True when the verdict is [`HealthStatus::Ok`].
    pub fn is_ok(&self) -> bool {
        self.status == HealthStatus::Ok
    }

    /// The report as a JSON object (stable shape for export).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("status", Json::str(self.status.to_string())),
            (
                "reasons",
                Json::Arr(self.reasons.iter().map(HealthReason::to_json).collect()),
            ),
        ])
    }
}

/// Staleness of one materialized view, as the facade reports it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StalenessInput {
    /// The view's name.
    pub name: String,
    /// Committed journal entries the view has not applied yet.
    pub pending: u64,
    /// Journal entries evicted past the view's cursor (a hole in its
    /// delta stream: the next refresh must fully rebuild).
    pub lapsed: u64,
}

/// A snapshot of every signal a [`HealthPolicy`] evaluates. All fields
/// are optional-by-shape: an in-memory system simply leaves the storage
/// signals `None`/empty.
#[derive(Debug, Clone, Default)]
pub struct HealthInputs {
    /// Journal lag per consumer as `(name, pending entries)` — the WAL
    /// persister, each materialized view, and any external cursors.
    pub consumer_lags: Vec<(String, u64)>,
    /// Committed-but-unpersisted transactions (`None` when in-memory).
    pub persistence_lag: Option<u64>,
    /// Per-view staleness (pending entries + lapsed cursors).
    pub view_staleness: Vec<StalenessInput>,
    /// Total bytes across *live* write-ahead-log segments — segments
    /// holding at least one record newer than the last checkpoint, plus
    /// the active segment (`None` when in-memory). With a segmented WAL
    /// a single "bytes since checkpoint" number under-reports growth:
    /// retired-but-uncompacted segments still occupy disk, so the policy
    /// grades the live total.
    pub wal_live_bytes: Option<u64>,
    /// Number of WAL segment files on disk, live and retired (`None`
    /// when in-memory). A climbing count with a healthy byte total means
    /// compaction stopped folding retired segments.
    pub wal_segments: Option<u64>,
    /// Whether the last recovery truncated a torn tail (`None` when the
    /// system was not recovered).
    pub recovery_torn_tail: Option<bool>,
    /// Currently open network connections (`None` when no server is
    /// attached). Filled by the network layer, which evaluates the same
    /// policy the facade uses so one verdict covers both.
    pub net_active_connections: Option<u64>,
    /// The server's global connection limit (`None` when no server is
    /// attached or the limit is unbounded).
    pub net_connection_limit: Option<u64>,
}

/// A custom, code-defined health rule (see [`HealthPolicy::with_rule`]).
pub type HealthRule = Arc<dyn Fn(&HealthInputs) -> Option<HealthReason> + Send + Sync>;

/// Thresholds (and custom rules) turning [`HealthInputs`] into a
/// [`HealthReport`]. All thresholds are inclusive lower bounds for the
/// violation ("value ≥ threshold fires"); set one to `u64::MAX` to
/// disable that signal.
#[derive(Clone)]
pub struct HealthPolicy {
    /// Per-consumer journal lag that degrades the verdict.
    pub journal_lag_degraded: u64,
    /// Per-consumer journal lag that makes the system unhealthy.
    pub journal_lag_unhealthy: u64,
    /// Persistence lag (committed, unpersisted transactions) that
    /// degrades the verdict.
    pub persistence_lag_degraded: u64,
    /// Persistence lag that makes the system unhealthy.
    pub persistence_lag_unhealthy: u64,
    /// Per-view pending journal entries that degrade the verdict.
    pub staleness_degraded: u64,
    /// Live WAL segment bytes that degrade the verdict.
    pub wal_bytes_degraded: u64,
    /// Live WAL segment bytes that make the system unhealthy.
    pub wal_bytes_unhealthy: u64,
    /// On-disk WAL segment count that degrades the verdict (compaction
    /// is expected to bound the count well below this).
    pub wal_segments_degraded: u64,
    /// On-disk WAL segment count that makes the system unhealthy.
    pub wal_segments_unhealthy: u64,
    /// Connection saturation (active / limit) that degrades the verdict —
    /// the server is close enough to its connection limit that admission
    /// rejections are imminent.
    pub conn_saturation_degraded: f64,
    /// Connection saturation that makes the system unhealthy: at or past
    /// this ratio new clients are being turned away.
    pub conn_saturation_unhealthy: f64,
    /// Additional code-defined rules, evaluated after the built-ins.
    rules: Vec<HealthRule>,
}

impl std::fmt::Debug for HealthPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthPolicy")
            .field("journal_lag_degraded", &self.journal_lag_degraded)
            .field("journal_lag_unhealthy", &self.journal_lag_unhealthy)
            .field("persistence_lag_degraded", &self.persistence_lag_degraded)
            .field("persistence_lag_unhealthy", &self.persistence_lag_unhealthy)
            .field("staleness_degraded", &self.staleness_degraded)
            .field("wal_bytes_degraded", &self.wal_bytes_degraded)
            .field("wal_bytes_unhealthy", &self.wal_bytes_unhealthy)
            .field("wal_segments_degraded", &self.wal_segments_degraded)
            .field("wal_segments_unhealthy", &self.wal_segments_unhealthy)
            .field("conn_saturation_degraded", &self.conn_saturation_degraded)
            .field("conn_saturation_unhealthy", &self.conn_saturation_unhealthy)
            .field("rules", &self.rules.len())
            .finish()
    }
}

impl Default for HealthPolicy {
    /// Conservative production defaults, sized for the in-tree
    /// workloads: a few hundred pending journal entries mean a consumer
    /// stopped draining; tens of MiB of WAL mean checkpointing stalled.
    fn default() -> Self {
        HealthPolicy {
            journal_lag_degraded: 256,
            journal_lag_unhealthy: 4096,
            persistence_lag_degraded: 256,
            persistence_lag_unhealthy: 4096,
            staleness_degraded: 256,
            wal_bytes_degraded: 64 << 20,
            wal_bytes_unhealthy: 512 << 20,
            wal_segments_degraded: 64,
            wal_segments_unhealthy: 512,
            conn_saturation_degraded: 0.85,
            conn_saturation_unhealthy: 1.0,
            rules: Vec::new(),
        }
    }
}

impl HealthPolicy {
    /// Add a code-defined rule: return `Some(reason)` to contribute to
    /// the verdict, `None` to pass. Rules run after the built-in
    /// threshold checks, over the same inputs.
    pub fn with_rule(
        mut self,
        rule: impl Fn(&HealthInputs) -> Option<HealthReason> + Send + Sync + 'static,
    ) -> Self {
        self.rules.push(Arc::new(rule));
        self
    }

    /// Number of registered custom rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Grade `value` against a degraded/unhealthy threshold pair.
    fn grade(value: u64, degraded: u64, unhealthy: u64) -> Option<(HealthStatus, u64)> {
        if value >= unhealthy {
            Some((HealthStatus::Unhealthy, unhealthy))
        } else if value >= degraded {
            Some((HealthStatus::Degraded, degraded))
        } else {
            None
        }
    }

    /// Evaluate the policy over one snapshot of inputs.
    pub fn evaluate(&self, inputs: &HealthInputs) -> HealthReport {
        let mut reasons = Vec::new();

        for (name, lag) in &inputs.consumer_lags {
            if let Some((status, threshold)) =
                Self::grade(*lag, self.journal_lag_degraded, self.journal_lag_unhealthy)
            {
                reasons.push(HealthReason {
                    code: format!("journal_lag:{name}"),
                    status,
                    value: *lag as f64,
                    threshold: threshold as f64,
                    detail: format!(
                        "journal consumer `{name}` is {lag} committed transactions behind"
                    ),
                });
            }
        }

        if let Some(lag) = inputs.persistence_lag {
            if let Some((status, threshold)) = Self::grade(
                lag,
                self.persistence_lag_degraded,
                self.persistence_lag_unhealthy,
            ) {
                reasons.push(HealthReason {
                    code: "persistence_lag".to_owned(),
                    status,
                    value: lag as f64,
                    threshold: threshold as f64,
                    detail: format!("{lag} committed transactions await the write-ahead log"),
                });
            }
        }

        for view in &inputs.view_staleness {
            if view.lapsed > 0 {
                reasons.push(HealthReason {
                    code: format!("journal_lapsed:{}", view.name),
                    status: HealthStatus::Degraded,
                    value: view.lapsed as f64,
                    threshold: 1.0,
                    detail: format!(
                        "materialized view `{}` lost {} journal entries; next refresh rebuilds in full",
                        view.name, view.lapsed
                    ),
                });
            }
            if view.pending >= self.staleness_degraded {
                reasons.push(HealthReason {
                    code: format!("view_staleness:{}", view.name),
                    status: HealthStatus::Degraded,
                    value: view.pending as f64,
                    threshold: self.staleness_degraded as f64,
                    detail: format!(
                        "materialized view `{}` is {} transactions stale",
                        view.name, view.pending
                    ),
                });
            }
        }

        if let Some(bytes) = inputs.wal_live_bytes {
            if let Some((status, threshold)) =
                Self::grade(bytes, self.wal_bytes_degraded, self.wal_bytes_unhealthy)
            {
                let segments = inputs
                    .wal_segments
                    .map(|n| format!(" across {n} segments"))
                    .unwrap_or_default();
                reasons.push(HealthReason {
                    code: "wal_bytes".to_owned(),
                    status,
                    value: bytes as f64,
                    threshold: threshold as f64,
                    detail: format!("{bytes} live WAL bytes{segments} not yet checkpointed"),
                });
            }
        }

        if let Some(segments) = inputs.wal_segments {
            if let Some((status, threshold)) = Self::grade(
                segments,
                self.wal_segments_degraded,
                self.wal_segments_unhealthy,
            ) {
                reasons.push(HealthReason {
                    code: "wal_segments".to_owned(),
                    status,
                    value: segments as f64,
                    threshold: threshold as f64,
                    detail: format!(
                        "{segments} WAL segment files on disk; compaction is not folding retired segments"
                    ),
                });
            }
        }

        if inputs.recovery_torn_tail == Some(true) {
            reasons.push(HealthReason {
                code: "recovery_torn_tail".to_owned(),
                status: HealthStatus::Degraded,
                value: 1.0,
                threshold: 1.0,
                detail: "last recovery truncated a torn write-ahead-log tail".to_owned(),
            });
        }

        if let (Some(active), Some(limit)) =
            (inputs.net_active_connections, inputs.net_connection_limit)
        {
            if limit > 0 {
                let ratio = active as f64 / limit as f64;
                let crossing = if ratio >= self.conn_saturation_unhealthy {
                    Some((HealthStatus::Unhealthy, self.conn_saturation_unhealthy))
                } else if ratio >= self.conn_saturation_degraded {
                    Some((HealthStatus::Degraded, self.conn_saturation_degraded))
                } else {
                    None
                };
                if let Some((status, threshold)) = crossing {
                    reasons.push(HealthReason {
                        code: "connection_saturation".to_owned(),
                        status,
                        value: ratio,
                        threshold,
                        detail: format!(
                            "{active} of {limit} network connections in use; new clients \
                             {} rejection",
                            if status == HealthStatus::Unhealthy {
                                "face"
                            } else {
                                "approach"
                            }
                        ),
                    });
                }
            }
        }

        for rule in &self.rules {
            if let Some(reason) = rule(inputs) {
                reasons.push(reason);
            }
        }

        let status = reasons
            .iter()
            .map(|r| r.status)
            .max()
            .unwrap_or(HealthStatus::Ok);
        HealthReport { status, reasons }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inputs_are_ok() {
        let report = HealthPolicy::default().evaluate(&HealthInputs::default());
        assert!(report.is_ok());
        assert!(report.reasons.is_empty());
        assert_eq!(
            report.to_json().field("status").unwrap().as_str().unwrap(),
            "ok"
        );
    }

    #[test]
    fn severity_orders_and_worst_wins() {
        assert!(HealthStatus::Ok < HealthStatus::Degraded);
        assert!(HealthStatus::Degraded < HealthStatus::Unhealthy);
        let policy = HealthPolicy::default();
        let inputs = HealthInputs {
            consumer_lags: vec![
                ("ok".into(), 0),
                ("slow".into(), policy.journal_lag_degraded),
                ("stuck".into(), policy.journal_lag_unhealthy),
            ],
            ..HealthInputs::default()
        };
        let report = policy.evaluate(&inputs);
        assert_eq!(report.status, HealthStatus::Unhealthy);
        assert_eq!(report.reasons.len(), 2);
        assert_eq!(report.reasons[0].code, "journal_lag:slow");
        assert_eq!(report.reasons[0].status, HealthStatus::Degraded);
        assert_eq!(report.reasons[1].code, "journal_lag:stuck");
        assert_eq!(report.reasons[1].status, HealthStatus::Unhealthy);
    }

    #[test]
    fn lapsed_views_and_torn_tails_degrade() {
        let report = HealthPolicy::default().evaluate(&HealthInputs {
            view_staleness: vec![StalenessInput {
                name: "omega".into(),
                pending: 3,
                lapsed: 7,
            }],
            recovery_torn_tail: Some(true),
            ..HealthInputs::default()
        });
        assert_eq!(report.status, HealthStatus::Degraded);
        let codes: Vec<&str> = report.reasons.iter().map(|r| r.code.as_str()).collect();
        assert_eq!(codes, vec!["journal_lapsed:omega", "recovery_torn_tail"]);
    }

    #[test]
    fn custom_rules_run_after_builtins() {
        let policy = HealthPolicy::default().with_rule(|inputs| {
            (inputs.consumer_lags.len() > 2).then(|| HealthReason {
                code: "too_many_consumers".into(),
                status: HealthStatus::Unhealthy,
                value: 3.0,
                threshold: 2.0,
                detail: "journal fan-out beyond budget".into(),
            })
        });
        assert_eq!(policy.rule_count(), 1);
        let report = policy.evaluate(&HealthInputs {
            consumer_lags: vec![("a".into(), 0), ("b".into(), 0), ("c".into(), 0)],
            ..HealthInputs::default()
        });
        assert_eq!(report.status, HealthStatus::Unhealthy);
        assert_eq!(report.reasons.last().unwrap().code, "too_many_consumers");
    }

    #[test]
    fn wal_and_persistence_thresholds_grade() {
        let policy = HealthPolicy::default();
        let report = policy.evaluate(&HealthInputs {
            persistence_lag: Some(policy.persistence_lag_unhealthy + 5),
            wal_live_bytes: Some(policy.wal_bytes_degraded),
            wal_segments: Some(7),
            ..HealthInputs::default()
        });
        assert_eq!(report.status, HealthStatus::Unhealthy);
        let by_code = |c: &str| report.reasons.iter().find(|r| r.code == c).unwrap();
        assert_eq!(by_code("persistence_lag").status, HealthStatus::Unhealthy);
        assert_eq!(by_code("wal_bytes").status, HealthStatus::Degraded);
        // the byte reason names the segment count it spans
        assert!(by_code("wal_bytes").detail.contains("across 7 segments"));
        // a healthy segment count contributes no reason of its own
        assert!(!report.reasons.iter().any(|r| r.code == "wal_segments"));
    }

    #[test]
    fn connection_saturation_grades_by_ratio() {
        let policy = HealthPolicy::default();
        // well below the limit → no reason
        let quiet = policy.evaluate(&HealthInputs {
            net_active_connections: Some(8),
            net_connection_limit: Some(64),
            ..HealthInputs::default()
        });
        assert!(quiet.is_ok());
        // approaching the limit → degraded
        let near = policy.evaluate(&HealthInputs {
            net_active_connections: Some(55),
            net_connection_limit: Some(64),
            ..HealthInputs::default()
        });
        assert_eq!(near.status, HealthStatus::Degraded);
        assert_eq!(near.reasons[0].code, "connection_saturation");
        // at the limit → unhealthy, and the detail names the numbers
        let full = policy.evaluate(&HealthInputs {
            net_active_connections: Some(64),
            net_connection_limit: Some(64),
            ..HealthInputs::default()
        });
        assert_eq!(full.status, HealthStatus::Unhealthy);
        assert!(full.reasons[0].detail.contains("64 of 64"));
        // no server attached (or unbounded limit) → signal absent
        let detached = policy.evaluate(&HealthInputs {
            net_active_connections: Some(10),
            ..HealthInputs::default()
        });
        assert!(detached.is_ok());
        let unbounded = policy.evaluate(&HealthInputs {
            net_active_connections: Some(10),
            net_connection_limit: Some(0),
            ..HealthInputs::default()
        });
        assert!(unbounded.is_ok());
    }

    #[test]
    fn runaway_segment_count_grades_even_with_small_bytes() {
        let policy = HealthPolicy::default();
        let degraded = policy.evaluate(&HealthInputs {
            wal_live_bytes: Some(1024),
            wal_segments: Some(policy.wal_segments_degraded),
            ..HealthInputs::default()
        });
        assert_eq!(degraded.status, HealthStatus::Degraded);
        assert_eq!(degraded.reasons[0].code, "wal_segments");
        let unhealthy = policy.evaluate(&HealthInputs {
            wal_segments: Some(policy.wal_segments_unhealthy + 1),
            ..HealthInputs::default()
        });
        assert_eq!(unhealthy.status, HealthStatus::Unhealthy);
    }
}
