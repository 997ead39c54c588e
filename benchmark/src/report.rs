//! What one workload run produces, and how it is printed: every metric by
//! name with its unit, a full record for the ledger, and as the last line
//! the object the driver reads.

use crate::catalog::{self, Def};
use crate::load::{PhaseSamples, ThreadLog};
use crate::pace::NOMINAL_BEAT_US;
use crate::spans::{Span, Stages};
use std::collections::BTreeMap;
use vo_obs::json::Json;

/// How one run was asked for.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: &'static str,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny database, numbers not comparable: exercises the benchmark.
    pub smoke: bool,
}

impl Config {
    /// Departments: `full` normally, 8 in a smoke run.
    pub fn scale(&self, full: usize) -> usize {
        if self.smoke {
            8
        } else {
            full
        }
    }
}

/// Failures kept in words; the rest are only counted.
const MAX_FAILURES: usize = 8;

/// The result of one workload run.
pub struct Outcome {
    workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, in words.
    pub failures: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts behind the percentiles.
    pub samples: BTreeMap<&'static str, u64>,
    /// Spans per recording thread, written out when the run ends.
    pub spans: Vec<Vec<Span>>,
}

impl Outcome {
    pub fn new(workload: &'static str) -> Self {
        Outcome {
            workload,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: BTreeMap::new(),
            samples: BTreeMap::new(),
            spans: Vec::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            catalog::find(name).is_some_and(|d| d.on.contains(&self.workload)),
            "{name} is not in the catalogue for {}",
            self.workload
        );
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Report each named stage's median self time as the metric
    /// `<stage>_us`.
    pub fn set_stages(&mut self, stages: &Stages, names: &[&str]) {
        for stage in names {
            let def = catalog::find(&format!("{stage}_us"))
                .unwrap_or_else(|| panic!("no metric for stage {stage}"));
            self.set(def.name, stages.p50(stage));
        }
    }

    /// `trace_overhead_share`: what recording spans adds to the
    /// operation's median, from the two kinds of slice of one window.
    pub fn set_trace_overhead(&mut self, untraced_us: f64, traced_us: f64) {
        if untraced_us > 0.0 && traced_us > 0.0 {
            self.set(
                "trace_overhead_share",
                (traced_us - untraced_us) / untraced_us,
            );
        }
    }

    /// The workload's own operation, as the end-to-end metrics every
    /// workload shares.
    pub fn set_op(&mut self, op: &PhaseSamples) {
        let tail = op.p(catalog::tail_percentile(self.workload));
        self.set("op_p50_us", op.p(0.50));
        self.set("op_tail_us", tail);
        // the tail does not repeat within a bound the driver could hold a
        // change to, so its ledger sees it among the per-layer metrics
        self.set("client.op_tail_us", tail);
        self.set("ops_per_s", op.per_s());
        self.samples.insert("op", op.count() as u64);
        // a timing × this ÷ the nominal beat is the timing as the clock
        // read it
        self.set("host.beat_us", op.beat_us());
    }

    /// Take over a client thread's counts, first failure and spans (its
    /// samples stay with the log).
    pub fn absorb(&mut self, log: &mut ThreadLog) {
        self.attempted += log.attempted;
        self.failed += log.failed;
        if self.failures.len() < MAX_FAILURES {
            self.failures.extend(log.first_problem.take());
        }
        self.spans.push(std::mem::take(&mut log.spans));
    }

    /// Count one checked expectation; `problem` describes a failed one.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(problem());
        }
    }

    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURES {
            self.failures.push(problem);
        }
    }

    pub fn error_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

fn metric_json(def: &Def, value: f64) -> Json {
    Json::obj(vec![
        ("value", Json::Float(value)),
        ("unit", Json::str(def.unit)),
    ])
}

fn metrics_json<'d>(defs: impl Iterator<Item = &'d Def>, outcome: &Outcome) -> Json {
    Json::Obj(
        defs.map(|d| {
            let value = outcome.metrics.get(d.name).copied().unwrap_or(0.0);
            (d.name.to_owned(), metric_json(d, value))
        })
        .collect(),
    )
}

/// The full record of a run, as kept in `benchmark/results/`.
pub fn record(cfg: &Config, host: &Json, outcome: &Outcome) -> Json {
    let per_layer: &[Def] = if cfg.trace { catalog::PER_LAYER } else { &[] };
    let reported = catalog::DRIVER
        .iter()
        .chain(catalog::NAMED)
        .chain(per_layer)
        .filter(|d| outcome.metrics.contains_key(d.name));
    Json::obj(vec![
        ("workload", Json::str(cfg.workload)),
        ("seed", Json::Int(cfg.seed as i64)),
        ("seconds", Json::Float(cfg.seconds)),
        ("trace", Json::Bool(cfg.trace)),
        ("comparable", Json::Bool(!cfg.smoke)),
        ("host", host.clone()),
        (
            "pace",
            Json::obj(vec![
                (
                    "beat_us",
                    Json::Float(outcome.metrics.get("host.beat_us").copied().unwrap_or(0.0)),
                ),
                ("nominal_beat_us", Json::Float(NOMINAL_BEAT_US)),
            ]),
        ),
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        (
            "failures",
            Json::Arr(outcome.failures.iter().map(Json::str).collect()),
        ),
        (
            "samples",
            Json::Obj(
                outcome
                    .samples
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), Json::Int(*v as i64)))
                    .collect(),
            ),
        ),
        ("metrics", metrics_json(reported, outcome)),
    ])
}

/// The driver's line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// the metrics being every end-to-end one (untraced) or every per-layer
/// one (traced; a layer the workload bypasses reads 0).
pub fn driver_line(cfg: &Config, outcome: &Outcome) -> String {
    let defs = if cfg.trace {
        catalog::PER_LAYER
    } else {
        catalog::DRIVER
    };
    Json::obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Int(outcome.attempted.max(1) as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        ("metrics", metrics_json(defs.iter(), outcome)),
    ])
    .compact()
}

/// Print every reported metric by name with its unit.
pub fn print_metrics(workload: &str, metrics: &Json) {
    for (name, m) in metrics.entries().unwrap_or(&[]) {
        let value = m.field("value").and_then(Json::as_f64).unwrap_or(0.0);
        let unit = m.field("unit").and_then(Json::as_str).unwrap_or("");
        println!("{workload:<15} {name:<40} {value:>16.4} {unit}");
    }
}
