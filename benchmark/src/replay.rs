//! The per-layer half of a traced run: a seeded sample of the workload's
//! requests replayed in-process, stage by stage, with one span around
//! every call into a layer's public functions, and the registry counters
//! read around the same calls so that ratios are taken where the work
//! happens.

use crate::counters::Tally;
use crate::fixture::{self, OMEGA};
use crate::gen::{get_voql, GetStream, Pivot, UpdateKind, UpdateStream};
use crate::report::Outcome;
use crate::spans::{Recorder, Stages};
use crate::stats;
use crate::wire::FRAME_CAP;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use vo_core::prelude::{university_schema, UpdateRequest, VoInstance};
use vo_net::frame::{read_frame, write_frame};
use vo_net::{Request, RequestBody, Response, ResponseBody};
use vo_obs::json::parse;
use vo_penguin::{Penguin, Session, StoreOptions, VoqlOutcome};
use vo_store::Store;

/// GETs replayed for `wire_get`.
pub const GET_SAMPLE: usize = 2_000;
/// Update cycles replayed for `wire_update` (a cycle costs tens of
/// milliseconds, so the sample is smaller than the GET sample).
pub const UPDATE_SAMPLE: usize = 64;
/// Consistency checks timed per traced run.
pub const CHECK_SAMPLE: usize = 8;
/// Samples of the expensive stages on the 4× database.
const SCALE_SAMPLE: usize = 5;

/// The stages one GET passes through: the message handling of any
/// request, client and server side, then parse and execution.
pub const GET_STAGES: [&str; 9] = [
    "net.proto.encode_request",
    "net.proto.decode_request",
    "net.proto.encode_response",
    "net.proto.decode_response",
    "net.frame.write",
    "net.frame.read",
    "obs.json.parse",
    "penguin.voql.parse",
    "core.query_get",
];
/// What an update cycle passes through on top of its GET and messages.
const UPDATE_STAGES: [&str; 3] = [
    "penguin.session.pin",
    "core.update.prepare",
    "penguin.commit",
];
/// Stages timed beside the update path, on the same state.
const UPDATE_ASIDES: [&str; 6] = [
    "core.update.translate_r",
    "core.update.translate_cd",
    "core.update.translate_ci",
    "structural.check",
    "relational.apply",
    "store.wal_commit",
];

/// One frame through an in-memory buffer, as both ends handle it.
fn through_frame(rec: &mut Recorder, op: u64, text: &str) -> String {
    let mut wire = Vec::with_capacity(text.len() + 8);
    rec.time("net.frame.write", op, |_| {
        write_frame(&mut wire, text.as_bytes(), FRAME_CAP).expect("in-memory write")
    });
    let payload = rec.time("net.frame.read", op, |_| {
        read_frame(&mut wire.as_slice(), FRAME_CAP)
            .expect("frame just written")
            .expect("one whole frame")
    });
    String::from_utf8(payload).expect("JSON is UTF-8")
}

/// A request as the client encodes and the server decodes it.
fn request_leg(rec: &mut Recorder, op: u64, body: RequestBody) {
    let request = Request { id: op, body };
    let text = rec.time("net.proto.encode_request", op, |_| {
        request.to_json().compact()
    });
    let text = through_frame(rec, op, &text);
    let json = rec.time("obs.json.parse", op, |_| {
        parse(&text).expect("own encoding")
    });
    let back = rec.time("net.proto.decode_request", op, |_| {
        Request::from_json(&json).expect("own encoding")
    });
    assert_eq!(back, request, "request round-trips");
}

/// A reply as the server encodes and the client decodes it.
fn response_leg(rec: &mut Recorder, op: u64, body: ResponseBody) {
    let response = Response {
        id: op,
        result: Ok(body),
    };
    let text = rec.time("net.proto.encode_response", op, |_| {
        response.to_json().compact()
    });
    let text = through_frame(rec, op, &text);
    let json = rec.time("obs.json.parse", op, |_| {
        parse(&text).expect("own encoding")
    });
    let back = rec.time("net.proto.decode_response", op, |_| {
        Response::from_json(&json).expect("own encoding")
    });
    assert_eq!(back, response, "response round-trips");
}

/// Every call one pivot-keyed GET makes, under the caller's open span.
fn get_stages(rec: &mut Recorder, op: u64, session: &Session, pivot: Pivot) -> Vec<VoInstance> {
    let src = get_voql(pivot);
    request_leg(rec, op, RequestBody::Voql { src: src.clone() });
    let statement = rec.time("penguin.voql.parse", op, |_| {
        session.parse_voql(&src).expect("generated VOQL parses")
    });
    let found = rec.time("core.query_get", op, |_| {
        match session.execute_voql(&statement).expect("GET executes") {
            VoqlOutcome::Instances(found) => found,
            other => panic!("GET produced {other:?}"),
        }
    });
    response_leg(rec, op, ResponseBody::Instances(found.clone()));
    found
}

const GET_COUNTERS: [&str; 5] = [
    "relational.index_probes",
    "relational.fallback_scans",
    "relational.join_rows",
    "penguin.plan_cache.hits",
    "penguin.plan_cache.misses",
];

/// Replay [`GET_SAMPLE`] GETs of the workload's first connection and
/// report the stage medians and per-GET counts. Returns Σ stage medians.
pub fn wire_get(
    outcome: &mut Outcome,
    epoch: Instant,
    system: &Penguin,
    seed: u64,
    scale: usize,
    sample: usize,
) -> f64 {
    let session = system.session();
    let mut rec = Recorder::new(true, epoch);
    let mut tally = Tally::new(&GET_COUNTERS);
    for (op, pivot) in GetStream::new(seed, 0, scale, false)
        .take(sample)
        .enumerate()
    {
        let op = op as u64 + 1;
        tally.during(|| {
            rec.time("replay.get", op, |rec| {
                let found = get_stages(rec, op, &session, pivot);
                assert_eq!(found.len(), 1, "pivot-keyed GET is unique");
            })
        });
        // beside the request path: the gap to `core.query_get` is what
        // filtering by scan costs
        rec.time("core.instance_by_key", op, |_| {
            session
                .instance_by_key(OMEGA, &fixture::pivot_key(pivot))
                .expect("pivot exists")
        });
    }
    let spans = rec.into_spans();
    let stages = Stages::of(&spans);
    outcome.set_stages(&stages, &GET_STAGES);
    outcome.set_stages(&stages, &["core.instance_by_key"]);
    let n = sample.max(1) as f64;
    outcome.set(
        "relational.index_probes_per_get",
        tally.total("relational.index_probes") / n,
    );
    outcome.set(
        "relational.fallback_scans_per_get",
        tally.total("relational.fallback_scans") / n,
    );
    outcome.set(
        "relational.join_rows_per_get",
        tally.total("relational.join_rows") / n,
    );
    outcome.set(
        "penguin.plan_cache.hit_ratio",
        tally.share("penguin.plan_cache.hits", "penguin.plan_cache.misses"),
    );
    outcome.spans.push(spans);
    stages.sum(&GET_STAGES)
}

/// Median time of a pivot-keyed GET's execution on `system`.
fn query_get_p50(system: &Penguin, seed: u64, scale: usize, sample: usize) -> f64 {
    let session = system.session();
    let mut times = Vec::with_capacity(sample);
    for pivot in GetStream::new(seed, 0, scale, false).take(sample) {
        let statement = session.parse_voql(&get_voql(pivot)).expect("parses");
        let start = Instant::now();
        std::hint::black_box(session.execute_voql(&statement).expect("executes"));
        times.push(start.elapsed().as_secs_f64() * 1e6);
    }
    stats::median(&times)
}

/// `core.get_scale_ratio`: the GET's execution on a 4× database over the
/// same on this one; ideal ≈ 1 for a translation that is local.
pub fn get_scale_ratio(
    outcome: &mut Outcome,
    base_us: f64,
    big: &Penguin,
    seed: u64,
    scale: usize,
) {
    let big_us = query_get_p50(big, seed, 4 * scale, 200);
    outcome.set("core.get_scale_ratio", ratio(big_us, base_us));
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// The update request a cycle sends, built from what its GET returned.
pub fn build_request(
    kind: UpdateKind,
    found: &[VoInstance],
    new_title: &str,
    saved: Option<VoInstance>,
) -> Result<UpdateRequest, String> {
    match (kind, found, saved) {
        (UpdateKind::Replace, [old], _) => Ok(UpdateRequest::Replacement {
            old: old.clone(),
            new: fixture::retitled(old, new_title),
        }),
        (UpdateKind::Delete, [old], _) => Ok(UpdateRequest::CompleteDeletion(old.clone())),
        (UpdateKind::Insert, [], Some(saved)) => Ok(UpdateRequest::CompleteInsertion(saved)),
        (kind, found, saved) => Err(format!(
            "{kind:?} found {} instance(s), saved copy: {}",
            found.len(),
            saved.is_some()
        )),
    }
}

const UPDATE_COUNTERS: [&str; 4] = [
    "relational.index_probes",
    "translate.overlay_reads",
    "relational.snapshots_pinned",
    "relational.conflicts",
];
const STORE_COUNTERS: [&str; 2] = ["store.wal.fsyncs", "store.wal.bytes_appended"];

/// The span that times translating `request` alone.
pub fn translate_stage(request: &UpdateRequest) -> &'static str {
    match request {
        UpdateRequest::Replacement { .. } => "core.update.translate_r",
        UpdateRequest::CompleteDeletion(_) => "core.update.translate_cd",
        UpdateRequest::CompleteInsertion(_) => "core.update.translate_ci",
    }
}

/// Replay the writer's first [`UPDATE_SAMPLE`] cycles against a fresh
/// persistent system in `dir`: the request path stage by stage, and beside
/// it the stages that path contains (translation alone, the global check,
/// applying the operations, the log append on a scratch store with the
/// same options). Returns Σ stage medians of the request path.
pub fn wire_update(
    outcome: &mut Outcome,
    epoch: Instant,
    dir: &Path,
    options: StoreOptions,
    seed: u64,
    scale: usize,
    sample: usize,
) -> f64 {
    let mut system = fixture::persistent(&dir.join("replay"), scale, seed, options);
    let mut scratch = fixture::in_memory(scale, seed);
    let mut scratch_store = Store::create(dir.join("scratch"), scratch.database(), options)
        .expect("scratch store is creatable");
    let schema = university_schema();
    let updater = fixture::updater(&system);
    let mut rec = Recorder::new(true, epoch);
    let mut tally = Tally::new(&UPDATE_COUNTERS);
    let mut store_tally = Tally::new(&STORE_COUNTERS);
    let mut saved: BTreeMap<Pivot, VoInstance> = BTreeMap::new();

    for (i, cycle) in UpdateStream::new(seed, scale).take(sample).enumerate() {
        let op = i as u64 + 1;
        // beside the path, on the state the cycle is about to see
        let head = system.session();
        let found = match cycle.kind {
            UpdateKind::Insert => Vec::new(),
            _ => vec![head
                .instance_by_key(OMEGA, &fixture::pivot_key(cycle.pivot))
                .expect("generator only touches present pivots")],
        };
        let request = build_request(
            cycle.kind,
            &found,
            &cycle.title,
            saved.get(&cycle.pivot).cloned(),
        )
        .expect("generator and state agree");
        rec.time(translate_stage(&request), op, |_| {
            updater
                .translate_request(&schema, system.database(), request.clone())
                .expect("request translates")
        });
        if i < CHECK_SAMPLE {
            rec.time("structural.check", op, |_| {
                assert!(head.check_consistency().expect("check runs").is_empty());
            });
        }
        drop(head);

        // the request path: PIN → GET → PREPARE → COMMIT
        let prepared = tally.during(|| {
            rec.time("replay.update", op, |rec| {
                request_leg(rec, op, RequestBody::Pin);
                let session = rec.time("penguin.session.pin", op, |_| system.session());
                response_leg(
                    rec,
                    op,
                    ResponseBody::Pinned {
                        version: session.version(),
                    },
                );
                let got = get_stages(rec, op, &session, cycle.pivot);
                assert_eq!(got, found, "the GET sees the head");
                request_leg(
                    rec,
                    op,
                    RequestBody::Prepare {
                        object: OMEGA.to_owned(),
                        requests: vec![request.clone()],
                    },
                );
                let prepared = rec.time("core.update.prepare", op, |_| {
                    session
                        .prepare_batch(OMEGA, vec![request.clone()])
                        .expect("request prepares")
                });
                response_leg(
                    rec,
                    op,
                    ResponseBody::Prepared {
                        handle: op,
                        base_version: prepared.base_version,
                        touched: prepared.touched.iter().cloned().collect(),
                    },
                );
                request_leg(rec, op, RequestBody::Commit { handle: op });
                let committed = rec.time("penguin.commit", op, |_| {
                    system
                        .commit_prepared(OMEGA, prepared.clone())
                        .expect("prepared batch commits")
                });
                response_leg(
                    rec,
                    op,
                    ResponseBody::Committed {
                        requests: committed.outcomes.len() as u64,
                        total_ops: committed.total_ops as u64,
                    },
                );
                prepared
            })
        });
        match cycle.kind {
            UpdateKind::Delete => {
                saved.insert(cycle.pivot, found[0].clone());
            }
            UpdateKind::Insert => {
                saved.remove(&cycle.pivot);
            }
            UpdateKind::Replace => {}
        }

        // beside the path again: the same operations on scratch copies
        rec.time("relational.apply", op, |_| {
            scratch
                .with_database_mut(|db| db.apply_all(&prepared.ops))
                .expect("in-memory system has no store to fail")
                .expect("operations apply to the scratch copy")
        });
        store_tally.during(|| {
            rec.time("store.wal_commit", op, |_| {
                scratch_store
                    .commit(scratch.database(), &[&prepared.ops])
                    .expect("scratch store accepts the commit")
            })
        });
    }

    let spans = rec.into_spans();
    let stages = Stages::of(&spans);
    outcome.set_stages(&stages, &GET_STAGES);
    outcome.set_stages(&stages, &UPDATE_STAGES);
    outcome.set_stages(&stages, &UPDATE_ASIDES);
    let n = sample.max(1) as f64;
    outcome.set(
        "relational.index_probes_per_update",
        tally.total("relational.index_probes") / n,
    );
    outcome.set(
        "translate.overlay_reads_per_update",
        tally.total("translate.overlay_reads") / n,
    );
    outcome.set(
        "relational.snapshots_pinned_per_update",
        tally.total("relational.snapshots_pinned") / n,
    );
    outcome.set(
        "store.fsyncs_per_commit",
        store_tally.total("store.wal.fsyncs") / n,
    );
    outcome.set(
        "store.wal_bytes_per_commit",
        store_tally.total("store.wal.bytes_appended") / n,
    );
    outcome.spans.push(spans);
    stages.sum(&GET_STAGES) + stages.sum(&UPDATE_STAGES)
}

/// `core.prepare_scale_ratio` and `structural.check_scale_ratio`: the
/// stage on a 4× database over the same on this one.
pub fn update_scale_ratios(
    outcome: &mut Outcome,
    prepare_us: f64,
    check_us: f64,
    big: &Penguin,
    seed: u64,
    scale: usize,
) {
    let session = big.session();
    let (mut prepares, mut checks) = (Vec::new(), Vec::new());
    for (i, pivot) in GetStream::new(seed, 0, 4 * scale, false)
        .take(SCALE_SAMPLE)
        .enumerate()
    {
        let old = session
            .instance_by_key(OMEGA, &fixture::pivot_key(pivot))
            .expect("pivot exists");
        let request = UpdateRequest::Replacement {
            new: fixture::retitled(&old, &format!("scaled {i}")),
            old,
        };
        let start = Instant::now();
        std::hint::black_box(
            session
                .prepare_batch(OMEGA, vec![request])
                .expect("prepares"),
        );
        prepares.push(start.elapsed().as_secs_f64() * 1e6);
        let start = Instant::now();
        std::hint::black_box(session.check_consistency().expect("check runs"));
        checks.push(start.elapsed().as_secs_f64() * 1e6);
    }
    outcome.set(
        "core.prepare_scale_ratio",
        ratio(stats::median(&prepares), prepare_us),
    );
    outcome.set(
        "structural.check_scale_ratio",
        ratio(stats::median(&checks), check_us),
    );
}
