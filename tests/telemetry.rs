//! Integration tests for the telemetry pipeline, the slow-op log, the
//! metrics exposition, and the system health monitor — the observability
//! surface a production PENGUIN deployment operates on.
//!
//! The trace ring, slow log, and metrics registry are process-global, so
//! every test that enables tracing or registers thresholds holds the
//! `serial()` lock and filters down to its own span names.

use penguin_vo::obs::{json, metrics, slowlog, trace};
use penguin_vo::prelude::*;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Duration;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    match LOCK.get_or_init(|| Mutex::new(())).lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// A facade with the paper's university system, omega registered with a
/// permissive translator (updates allowed without a dialog).
fn system() -> Penguin {
    let (schema, db) = university_database();
    let mut p = Penguin::with_database(schema, db);
    p.define_object(
        "omega",
        "COURSES",
        &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
    )
    .unwrap();
    let obj = p.object("omega").unwrap().object.clone();
    p.install_translator("omega", Translator::permissive(&obj))
        .unwrap();
    p
}

fn fresh_course(p: &Penguin, id: &str) -> VoInstance {
    let omega = &p.object("omega").unwrap().object;
    let courses = p.database().table("COURSES").unwrap().schema().clone();
    VoInstance::builder(
        omega,
        Tuple::new(
            &courses,
            vec![
                id.into(),
                format!("course {id}").into(),
                "graduate".into(),
                "Computer Science".into(),
            ],
        )
        .unwrap(),
    )
    .finish()
}

/// The pipeline attached through the facade drains real workload spans as
/// JSONL that the in-tree parser reads back, field for field.
#[test]
fn facade_telemetry_roundtrips_jsonl_through_parser() {
    let _serial = serial();
    let mut p = system();
    let sink = MemorySink::new();
    let handle = sink.clone();
    let pipeline = TelemetryPipeline::new(Box::new(sink), SamplingPolicy::default());
    trace::take(); // isolate from other tests' leftovers
    assert!(p.set_telemetry(Some(pipeline)).is_none());
    assert!(p.telemetry().is_some());

    let reqs: Vec<UpdateRequest> = (0..3)
        .map(|i| UpdateRequest::CompleteInsertion(fresh_course(&p, &format!("TL-{i}"))))
        .collect();
    p.apply_batch("omega", reqs).unwrap();
    // persist_pending drains the pipeline even on an in-memory system
    p.persist_pending().unwrap();

    let lines = handle.lines();
    let batch: Vec<&String> = lines
        .iter()
        .filter(|l| l.contains("penguin.apply_batch"))
        .collect();
    assert_eq!(batch.len(), 1, "expected exactly one apply_batch span");
    let span = json::parse(batch[0]).unwrap();
    assert_eq!(
        span.field("name").unwrap().as_str().unwrap(),
        "penguin.apply_batch"
    );
    // every structural field survives the JSONL round trip
    for key in ["id", "root", "depth", "start_us", "dur_us"] {
        assert!(span.field(key).is_ok(), "missing field {key}");
    }
    let fields = span.field("fields").unwrap();
    assert_eq!(fields.field("object").unwrap().as_str().unwrap(), "omega");
    assert_eq!(fields.field("requests").unwrap().as_i64().unwrap(), 3);
    assert!(fields.field("ops").unwrap().as_i64().unwrap() >= 3);
    // the batch span's children (per-request translations) share its root
    let root_id = span.field("root").unwrap().as_i64().unwrap();
    let translated: Vec<i64> = lines
        .iter()
        .filter(|l| l.contains("penguin.translate"))
        .map(|l| {
            json::parse(l)
                .unwrap()
                .field("root")
                .unwrap()
                .as_i64()
                .unwrap()
        })
        .collect();
    assert!(!translated.is_empty());
    assert!(translated.iter().all(|r| *r == root_id));
    // detaching hands the pipeline back with its lifetime totals
    let detached = p.set_telemetry(None).unwrap();
    assert!(detached.totals().kept >= 1);
}

/// A span crossing its registered threshold lands in the slow-op log with
/// every field intact, even under a sampling policy that drops everything.
#[test]
fn slow_op_log_keeps_forced_slow_span_with_fields() {
    let _serial = serial();
    let mut p = system();
    slowlog::clear();
    slowlog::threshold("penguin.apply_batch", Duration::from_micros(1));
    let sink = MemorySink::new();
    let handle = sink.clone();
    // sample out every ordinary trace: only the always-keep rules survive
    let pipeline = TelemetryPipeline::new(
        Box::new(sink),
        SamplingPolicy {
            sample_every: u64::MAX,
            ..SamplingPolicy::default()
        },
    );
    trace::take();
    p.set_telemetry(Some(pipeline));

    let reqs: Vec<UpdateRequest> = (0..2)
        .map(|i| UpdateRequest::CompleteInsertion(fresh_course(&p, &format!("SL-{i}"))))
        .collect();
    p.apply_batch("omega", reqs).unwrap();
    p.persist_pending().unwrap();

    let ops: Vec<SlowOp> = p
        .slow_ops()
        .into_iter()
        .filter(|o| o.event.name == "penguin.apply_batch")
        .collect();
    assert_eq!(ops.len(), 1);
    let op = &ops[0];
    assert_eq!(op.threshold_us, 1);
    assert!(op.event.dur_us >= 1);
    assert_eq!(op.event.field("object"), Some(&Json::str("omega")));
    assert_eq!(op.event.field("requests"), Some(&Json::Int(2)));
    let j = op.to_json();
    assert!(j.field("threshold_us").unwrap().as_i64().unwrap() == 1);
    // the sampler kept it too: slow spans bypass 1-in-u64::MAX sampling
    assert!(handle
        .lines()
        .iter()
        .any(|l| l.contains("penguin.apply_batch")));
    slowlog::clear_threshold("penguin.apply_batch");
    slowlog::clear();
}

/// Saturating a capped journal degrades the health verdict; draining the
/// lagging consumer restores it. Transitions are observable as trace
/// events.
#[test]
fn health_transitions_ok_degraded_ok_on_journal_saturation() {
    let _serial = serial();
    let _scope = trace::start_trace();
    trace::take();
    let mut p = system();
    p.materialize("omega").unwrap();
    let mut policy = HealthPolicy::default();
    policy.journal_lag_degraded = 4;
    policy.journal_lag_unhealthy = 1_000_000;
    policy.staleness_degraded = 4;
    p.set_health_policy(policy);
    p.set_journal_cap(Some(JournalCap::drop_oldest(8)));

    let healthy = p.health();
    assert!(healthy.is_ok(), "fresh system must be ok: {healthy:?}");

    // six committed transactions nobody consumed: the view is now 6 behind
    for i in 0..6 {
        p.sql(&format!("INSERT INTO DEPARTMENT VALUES ('TD-{i}')"))
            .unwrap();
    }
    let degraded = p.health();
    assert_eq!(degraded.status, HealthStatus::Degraded);
    assert!(
        degraded
            .reasons
            .iter()
            .any(|r| r.code == "journal_lag:view/omega"),
        "expected the view's journal lag to degrade: {degraded:?}"
    );

    // push past the cap: entries evicted past the cursor (a lapse)
    for i in 6..18 {
        p.sql(&format!("INSERT INTO DEPARTMENT VALUES ('TD-{i}')"))
            .unwrap();
    }
    let lapsed = p.health();
    assert_eq!(lapsed.status, HealthStatus::Degraded);
    assert!(lapsed
        .reasons
        .iter()
        .any(|r| r.code == "journal_lapsed:omega"));

    // drain the consumer: refresh catches the view up (full rebuild after
    // the lapse) and clears both signals
    let out = p.refresh("omega").unwrap();
    assert!(out.full_rebuild, "a lapsed cursor must rebuild in full");
    let recovered = p.health();
    assert!(
        recovered.is_ok(),
        "drained system must be ok: {recovered:?}"
    );

    // both transitions (ok→degraded, degraded→ok) left trace events
    let transitions: Vec<(String, String)> = trace::take()
        .into_iter()
        .filter(|e| e.name == "penguin.health")
        .map(|e| {
            (
                e.field("from").unwrap().as_str().unwrap().to_owned(),
                e.field("to").unwrap().as_str().unwrap().to_owned(),
            )
        })
        .collect();
    assert_eq!(
        transitions,
        vec![
            ("ok".to_owned(), "degraded".to_owned()),
            ("degraded".to_owned(), "ok".to_owned()),
        ]
    );
    p.set_journal_cap(None);
}

/// In-tree checker for the Prometheus-style exposition format: every line
/// must be a `# TYPE` declaration or a sample for a declared metric with
/// a parseable value. Returns the first offending line.
fn check_exposition(text: &str) -> std::result::Result<(), String> {
    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    let mut declared: BTreeSet<&str> = BTreeSet::new();
    for (no, line) in text.lines().enumerate() {
        let at = |msg: &str| format!("line {}: {msg}: `{line}`", no + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut it = rest.split(' ');
            let name = it.next().unwrap_or("");
            let kind = it.next().unwrap_or("");
            if !valid_name(name) {
                return Err(at("bad metric name in TYPE declaration"));
            }
            if kind != "counter" && kind != "summary" {
                return Err(at("unknown metric kind"));
            }
            if it.next().is_some() {
                return Err(at("trailing tokens in TYPE declaration"));
            }
            declared.insert(name);
            continue;
        }
        if line.starts_with('#') {
            return Err(at("unknown comment form"));
        }
        let (metric, value) = line
            .split_once(' ')
            .ok_or_else(|| at("sample line without value"))?;
        if value.parse::<f64>().is_err() {
            return Err(at("unparseable sample value"));
        }
        let name_part = metric.split('{').next().unwrap_or("");
        if let Some((base, labels)) = metric.split_once('{') {
            if !labels.starts_with("quantile=\"") || !labels.ends_with("\"}") {
                return Err(at("unknown label set"));
            }
            if !declared.contains(base) {
                return Err(at("sample for undeclared metric"));
            }
        } else {
            let base = ["_sum", "_count", "_min", "_max"]
                .iter()
                .find_map(|s| name_part.strip_suffix(s).filter(|b| declared.contains(b)))
                .unwrap_or(name_part);
            if !declared.contains(base) {
                return Err(at("sample for undeclared metric"));
            }
        }
        if !valid_name(name_part) {
            return Err(at("bad metric name in sample"));
        }
    }
    if declared.is_empty() {
        return Err("empty exposition".to_owned());
    }
    Ok(())
}

/// `expose_text()` over a registry fed by real workload traffic passes
/// the line-by-line checker and carries the expected metric families.
#[test]
fn exposition_text_passes_line_checker() {
    let _serial = serial();
    let mut p = system();
    // drive traffic through the facade so the penguin.* counters move
    let reqs: Vec<UpdateRequest> = (0..2)
        .map(|i| UpdateRequest::CompleteInsertion(fresh_course(&p, &format!("EX-{i}"))))
        .collect();
    p.apply_batch("omega", reqs).unwrap();
    p.instantiate_all("omega").unwrap();
    metrics::histogram("test.exposition.us").record(250);

    let text = metrics::expose_text();
    check_exposition(&text).unwrap();
    assert!(text.contains("# TYPE penguin_plan_cache_hits counter"));
    assert!(text.contains("# TYPE test_exposition_us summary"));
    assert!(text.contains("test_exposition_us{quantile=\"0.99\"}"));
    assert!(text.contains("test_exposition_us_count"));
    // a deliberately broken exposition is rejected
    assert!(check_exposition("garbage line with no value x").is_err());
    assert!(check_exposition("undeclared_metric 1\n").is_err());
    assert!(check_exposition("# TYPE weird gauge\n").is_err());
}

/// Recursively scan `dir` for tracer instrumentation sites and collect
/// the span/event names they register.
fn scan_span_names(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            scan_span_names(&path, out);
            continue;
        }
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let src = std::fs::read_to_string(&path).unwrap();
        for pattern in ["trace::span(\"", "event_with(\""] {
            for (idx, _) in src.match_indices(pattern) {
                let rest = &src[idx + pattern.len()..];
                if let Some(end) = rest.find('"') {
                    out.insert(rest[..end].to_owned());
                }
            }
        }
    }
}

/// Golden list of tracked span/event names: the operational inventory
/// DESIGN.md §6 documents and dashboards key on. This test fails when an
/// instrumentation point is renamed or deleted without updating the
/// inventory — extend the list when adding spans, never silently drop.
#[test]
fn golden_span_inventory_is_still_instrumented() {
    const GOLDEN: &[&str] = &[
        // spans
        "core.instantiate",
        "core.instantiate_parallel",
        "integrity.check_delta",
        "integrity.plan_delete",
        "integrity.plan_replacement",
        "maintain.refresh",
        "penguin.apply_batch",
        "penguin.translate",
        "relational.execute",
        "relational.install",
        "store.checkpoint",
        "store.recover",
        "wal.append",
        "wal.fsync",
        // instant events
        "core.probe_step",
        "integrity.abort",
        "integrity.cascade",
        "integrity.nullify",
        "keller.enumerate",
        "penguin.health",
    ];
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut found = BTreeSet::new();
    for entry in std::fs::read_dir(&crates).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            scan_span_names(&src, &mut found);
        }
    }
    let missing: Vec<&&str> = GOLDEN.iter().filter(|n| !found.contains(**n)).collect();
    assert!(
        missing.is_empty(),
        "tracked span names disappeared from the source tree: {missing:?}"
    );
}

/// The JSON snapshot of the registry is deterministic and sorted, so two
/// snapshots of the same state render byte-identically.
#[test]
fn metrics_snapshot_json_is_stable() {
    let _serial = serial();
    metrics::counter("test.stable.zz").inc();
    metrics::counter("test.stable.aa").inc();
    let a = metrics::snapshot_all().to_json().compact();
    let b = metrics::snapshot_all().to_json().compact();
    assert_eq!(a, b);
    let zz = a.find("test.stable.zz").unwrap();
    let aa = a.find("test.stable.aa").unwrap();
    assert!(aa < zz, "counters must render in sorted name order");
}
