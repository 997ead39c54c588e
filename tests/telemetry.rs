//! Integration tests for trace export, the slow-op log, the metrics
//! exposition, and the system health monitor — the observability
//! surface a production PENGUIN deployment operates on.
//!
//! A test reads its own spans and counts from a `trace::capture` of the
//! calls it makes. Slow-op thresholds, the slow-op log and the metrics
//! registry are process-global by design, so the tests that register
//! thresholds or move registry counters hold the `serial()` lock — the
//! registry's snapshots are compared while nothing else counts — and keep
//! only the slow ops of their own thread.

use penguin_vo::obs::{json, metrics, slowlog, trace};
use penguin_vo::prelude::*;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The slow ops named `name` that the calling thread recorded.
fn my_slow_ops(p: &Penguin, name: &str) -> Vec<SlowOp> {
    // the tracer's id for this thread, read off a span it records
    let ((), probe) = trace::capture(|| drop(trace::span("test.telemetry.thread")));
    let me = probe.spans[0].thread;
    (p.slow_ops().into_iter())
        .filter(|o| o.event.thread == me && o.event.name == name)
        .collect()
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

/// Spans of a real workload leave the process as JSONL
/// (`export_jsonl` of a capture's spans) that the in-tree parser reads
/// back, field for field.
#[test]
fn facade_telemetry_roundtrips_jsonl_through_parser() {
    let _serial = serial();
    let mut p = system();
    let reqs: Vec<UpdateRequest> = (0..3)
        .map(|i| UpdateRequest::CompleteInsertion(fresh_course(&p, &format!("TL-{i}"))))
        .collect();
    let (_, taken) = trace::capture(|| p.apply_batch("omega", reqs).unwrap());

    let jsonl = trace::export_jsonl(&taken.spans);
    let lines: Vec<&str> = jsonl.lines().collect();
    let batch: Vec<&str> = lines
        .iter()
        .copied()
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
}

/// A span crossing its registered threshold lands in the slow-op log with
/// every field intact, and in the export of the tree it ran in.
#[test]
fn slow_op_log_keeps_forced_slow_span_with_fields() {
    let _serial = serial();
    let mut p = system();
    slowlog::threshold("penguin.apply_batch", Duration::from_micros(1));

    let reqs: Vec<UpdateRequest> = (0..2)
        .map(|i| UpdateRequest::CompleteInsertion(fresh_course(&p, &format!("SL-{i}"))))
        .collect();
    p.apply_batch("omega", reqs).unwrap();
    slowlog::clear_threshold("penguin.apply_batch");

    let ops = my_slow_ops(&p, "penguin.apply_batch");
    assert_eq!(ops.len(), 1);
    let op = &ops[0];
    assert_eq!(op.threshold_us, 1);
    assert!(op.event.dur_us >= 1);
    assert_eq!(op.event.field("object"), Some(&Json::str("omega")));
    assert_eq!(op.event.field("requests"), Some(&Json::Int(2)));
    // the slow op is the span its tree's export carries
    let exported = trace::export_jsonl(&op.trace.spans);
    let line = exported
        .lines()
        .find(|l| l.contains("penguin.apply_batch"))
        .expect("the slow span is exported with its tree");
    assert_eq!(
        line,
        trace::export_jsonl(std::slice::from_ref(&op.event)).trim_end()
    );
}

/// A threshold alone keeps a slow tree whole: no switch, no capture. Each
/// of a batch's two translations crosses its threshold, and each is kept
/// with the batch it ran in — rooted at `penguin.apply_batch`, holding the
/// batch's one delta check, counting its one overlay.
#[test]
fn a_threshold_alone_keeps_the_slow_tree_whole() {
    let _serial = serial();
    let mut p = system();
    slowlog::threshold("penguin.translate", Duration::from_micros(1));
    let reqs: Vec<UpdateRequest> = (0..2)
        .map(|i| UpdateRequest::CompleteInsertion(fresh_course(&p, &format!("ST-{i}"))))
        .collect();
    p.apply_batch("omega", reqs).unwrap();
    slowlog::clear_threshold("penguin.translate");

    let ops = my_slow_ops(&p, "penguin.translate");
    assert_eq!(ops.len(), 2, "{ops:#?}");
    for op in &ops {
        let spans = &op.trace.spans;
        let roots: Vec<_> = spans.iter().filter(|e| e.parent.is_none()).collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "penguin.apply_batch");
        assert_eq!(op.event.root, roots[0].id);
        assert!(spans.iter().any(|e| e.name == "integrity.check_delta"));
        assert_eq!(op.trace.count("translate.overlay_created"), 1);
    }
    // both crossings share one tree
    assert_eq!(ops[0].trace, ops[1].trace);
}

/// A view falling behind the journal degrades the health verdict, under
/// one reason; draining the lagging consumer restores it. Transitions are
/// observable as trace events.
#[test]
fn health_transitions_ok_degraded_ok_on_journal_saturation() {
    let _serial = serial();
    let mut p = system();
    p.materialize("omega").unwrap();
    let mut policy = HealthPolicy::default();
    policy.journal_lag_degraded = 4;
    policy.journal_lag_unhealthy = 1_000_000;
    p.set_health_policy(policy);

    let ((), taken) = trace::capture(|| {
        let healthy = p.health();
        assert!(healthy.is_ok(), "fresh system must be ok: {healthy:?}");

        // six committed transactions nobody consumed: the view is now 6 behind
        for i in 0..6 {
            p.sql(&format!("INSERT INTO DEPARTMENT VALUES ('TD-{i}')"))
                .unwrap();
        }
        let degraded = p.health();
        assert_eq!(degraded.status, HealthStatus::Degraded);
        let codes: Vec<&str> = degraded.reasons.iter().map(|r| r.code.as_str()).collect();
        assert_eq!(
            codes,
            vec!["journal_lag:view/omega"],
            "the view's lag degrades, graded once: {degraded:?}"
        );

        // drain the consumer: refresh catches the view up incrementally and
        // clears the signal
        let out = p.refresh("omega").unwrap();
        assert!(!out.full_rebuild, "the view missed nothing");
        let recovered = p.health();
        assert!(
            recovered.is_ok(),
            "drained system must be ok: {recovered:?}"
        );
    });

    // both transitions (ok→degraded, degraded→ok) left trace events
    let transitions: Vec<(String, String)> = (taken.spans.into_iter())
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
            if !["counter", "gauge", "summary"].contains(&kind) {
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

/// `expose_text()` over a registry fed by real workload traffic — an
/// in-memory system and a persistent one, whose store sets the `store.*`
/// gauges vo-net's METRICS reply carries — passes the line-by-line
/// checker and carries the expected metric families.
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

    let dir = std::env::temp_dir().join(format!("vo_telemetry_expose_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut persistent = Penguin::persistent(&dir, university_database().0).unwrap();
    persistent
        .sql("INSERT INTO DEPARTMENT VALUES ('EX-D')")
        .unwrap();

    let text = metrics::expose_text();
    check_exposition(&text).unwrap();
    assert!(text.contains("# TYPE penguin_plan_cache_hits counter"));
    assert!(text.contains("# TYPE store_wal_live_bytes gauge"));
    assert!(text.contains("# TYPE test_exposition_us summary"));
    assert!(text.contains("test_exposition_us{quantile=\"0.99\"}"));
    assert!(text.contains("test_exposition_us_count"));
    // a deliberately broken exposition is rejected
    assert!(check_exposition("garbage line with no value x").is_err());
    assert!(check_exposition("undeclared_metric 1\n").is_err());
    assert!(check_exposition("# TYPE weird histogram\n").is_err());
    drop(persistent);
    std::fs::remove_dir_all(&dir).ok();
}

/// `store.recover` splits a recovery into its three phases — the base, the
/// delta chain, the log tail — one field each, and together they fit in
/// the span.
#[test]
fn store_recover_span_splits_base_deltas_and_log() {
    let _serial = serial();
    let dir = std::env::temp_dir().join(format!("vo_telemetry_recover_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let mut p = Penguin::persistent(&dir, university_database().0).unwrap();
        p.sql("INSERT INTO DEPARTMENT VALUES ('RC-D')").unwrap();
        p.checkpoint().unwrap(); // a delta
        p.sql("INSERT INTO DEPARTMENT VALUES ('RC-E')").unwrap(); // the log tail
    }
    let (opened, taken) = trace::capture(|| Store::open(&dir, StoreOptions::default()));
    let (_store, _db, report) = opened.unwrap();
    assert!(report.deltas_applied == 1 && report.records_replayed >= 1);
    let spans: Vec<_> = (taken.spans.into_iter())
        .filter(|e| e.name == "store.recover")
        .collect();
    assert_eq!(spans.len(), 1);
    let span = &spans[0];
    let phases: Vec<i64> = ["base_us", "deltas_us", "log_us"]
        .into_iter()
        .map(|f| match span.field(f) {
            Some(Json::Int(us)) => *us,
            other => panic!("{f}: {other:?}"),
        })
        .collect();
    assert!(
        phases.iter().sum::<i64>() <= span.dur_us as i64,
        "{phases:?} within {} µs",
        span.dur_us
    );
    std::fs::remove_dir_all(&dir).ok();
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
        "core.follow_edge",
        "core.instantiate",
        "core.probe_step",
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
        "core.vo_r_case",
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
