//! System health: a threshold policy turning raw observability signals
//! into an Ok/Degraded/Unhealthy verdict with machine-readable reasons.
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

/// A snapshot of every signal a [`HealthPolicy`] evaluates. All fields
/// are optional-by-shape: an in-memory system simply leaves the storage
/// signals `None`/empty.
#[derive(Debug, Clone, Default)]
pub struct HealthInputs {
    /// Journal lag per consumer as `(name, pending entries)` — the WAL
    /// persister (`wal`: committed, unpersisted transactions) and each
    /// materialized view (`view/<name>`: transactions it has not applied).
    pub consumer_lags: Vec<(String, u64)>,
    /// Materialized views whose next refresh must rebuild in full.
    pub views_rebuilding: Vec<String>,
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

/// Thresholds turning [`HealthInputs`] into a [`HealthReport`]. All
/// thresholds are inclusive lower bounds for the violation ("value ≥
/// threshold fires"); set one to `u64::MAX` to disable that signal.
/// Start from [`HealthPolicy::default`] and adjust the thresholds you
/// need.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct HealthPolicy {
    /// Per-consumer journal lag that degrades the verdict.
    pub journal_lag_degraded: u64,
    /// Per-consumer journal lag that makes the system unhealthy.
    pub journal_lag_unhealthy: u64,
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
}

impl Default for HealthPolicy {
    /// Conservative production defaults, sized for the in-tree
    /// workloads: a few hundred pending journal entries mean a consumer
    /// stopped draining; tens of MiB of WAL mean checkpointing stalled.
    fn default() -> Self {
        HealthPolicy {
            journal_lag_degraded: 256,
            journal_lag_unhealthy: 4096,
            wal_bytes_degraded: 64 << 20,
            wal_bytes_unhealthy: 512 << 20,
            wal_segments_degraded: 64,
            wal_segments_unhealthy: 512,
            conn_saturation_degraded: 0.85,
            conn_saturation_unhealthy: 1.0,
        }
    }
}

impl HealthPolicy {
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

        for name in &inputs.views_rebuilding {
            reasons.push(HealthReason {
                code: format!("view_full_rebuild:{name}"),
                status: HealthStatus::Degraded,
                value: 1.0,
                threshold: 1.0,
                detail: format!(
                    "materialized view `{name}` must rebuild in full at its next refresh"
                ),
            });
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
    fn views_due_a_full_rebuild_and_torn_tails_degrade() {
        let report = HealthPolicy::default().evaluate(&HealthInputs {
            views_rebuilding: vec!["omega".into()],
            recovery_torn_tail: Some(true),
            ..HealthInputs::default()
        });
        assert_eq!(report.status, HealthStatus::Degraded);
        let codes: Vec<&str> = report.reasons.iter().map(|r| r.code.as_str()).collect();
        assert_eq!(codes, vec!["view_full_rebuild:omega", "recovery_torn_tail"]);
    }

    #[test]
    fn wal_thresholds_grade() {
        let policy = HealthPolicy::default();
        let report = policy.evaluate(&HealthInputs {
            wal_live_bytes: Some(policy.wal_bytes_degraded),
            wal_segments: Some(7),
            ..HealthInputs::default()
        });
        assert_eq!(report.status, HealthStatus::Degraded);
        let by_code = |c: &str| report.reasons.iter().find(|r| r.code == c).unwrap();
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
