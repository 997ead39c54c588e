//! The persisted and wire formats are frozen: one of each document, byte
//! for byte, against files under `tests/golden/` that were generated at
//! the commit *before* the codec layer was unified. A refactor of the
//! encoders either reproduces these bytes or fails here — durable stores,
//! `system.json` files and wire peers written by an older build keep
//! opening.
//!
//! A golden file changes only when a format change is intended: delete
//! it, run this test once (a missing file is written from the current
//! encoders and the test fails, naming it), review the diff, commit it.

use penguin_vo::net::{
    write_frame, Request, RequestBody, Response, ResponseBody, WireError, DEFAULT_MAX_FRAME_BYTES,
};
use penguin_vo::penguin::SavedSystem;
use penguin_vo::prelude::*;
use std::path::PathBuf;

mod common;
use common::check;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vo_golden_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Two relations, every value kind the codec distinguishes (NULL, bool,
/// int extremes, floats below the exponent threshold, non-finite floats,
/// text needing escapes), one secondary index.
fn two_relation_db() -> Database {
    let mut db = Database::new();
    db.create_relation(
        RelationSchema::new(
            "MEASURE",
            vec![
                AttributeDef::required("id", DataType::Int),
                AttributeDef::nullable("reading", DataType::Float),
                AttributeDef::nullable("ok", DataType::Bool),
            ],
            &["id"],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_relation(
        RelationSchema::new(
            "NOTE",
            vec![
                AttributeDef::required("measure", DataType::Int),
                AttributeDef::required("seq", DataType::Int),
                AttributeDef::nullable("text", DataType::Text),
            ],
            &["measure", "seq"],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_index("NOTE", &["text".to_string()]).unwrap();
    let readings = [
        Value::Float(2.0),
        Value::Float(-0.125),
        Value::Float(123_456_789_012_345.0),
        Value::Float(1e-7),
        Value::Float(f64::NAN),
        Value::Float(f64::NEG_INFINITY),
        Value::Null,
    ];
    for (i, reading) in readings.into_iter().enumerate() {
        let id = if i == 0 { i64::MIN } else { i as i64 };
        let ok = if i % 3 == 0 {
            Value::Null
        } else {
            Value::Bool(i % 2 == 0)
        };
        db.insert("MEASURE", vec![id.into(), reading, ok]).unwrap();
    }
    db.insert("NOTE", vec![1.into(), 1.into(), "plain".into()])
        .unwrap();
    db.insert(
        "NOTE",
        vec![
            1.into(),
            2.into(),
            "line\nbreak \"quoted\" \\ tab\t ü 🦀".into(),
        ],
    )
    .unwrap();
    db.insert("NOTE", vec![2.into(), 1.into(), Value::Null])
        .unwrap();
    db
}

fn sample_ops() -> Vec<DbOp> {
    vec![
        DbOp::Insert {
            relation: "MEASURE".into(),
            tuple: Tuple::raw(vec![9.into(), 0.5.into(), true.into()]),
        },
        DbOp::Delete {
            relation: "NOTE".into(),
            key: Key::new(vec![1.into(), 2.into()]),
        },
        DbOp::Replace {
            relation: "NOTE".into(),
            old_key: Key::new(vec![2.into(), 1.into()]),
            tuple: Tuple::raw(vec![2.into(), 7.into(), "moved".into()]),
        },
    ]
}

#[test]
fn commit_record_bytes() {
    let rec = CommitRecord {
        lsn: 42,
        ops: sample_ops(),
    };
    check("commit_record.json", &rec.to_json().compact());
}

#[test]
fn base_checkpoint_bytes_at_one_and_four_workers() {
    let db = two_relation_db();
    let base = BaseCheckpoint {
        id: 3,
        lsn: 17,
        epoch: db.structure_epoch(),
        snapshot: DatabaseSnapshot::capture_full(&db),
    };
    for workers in [1, 4] {
        let dir = tmp_dir(&format!("base_w{workers}"));
        base.write(&dir, workers).unwrap();
        let text = std::fs::read_to_string(dir.join(BaseCheckpoint::file_name(3))).unwrap();
        check("base_checkpoint.json", &text);
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn delta_checkpoint_bytes() {
    let mut db = two_relation_db();
    let mut folded = Delta::default();
    for op in &sample_ops() {
        db.apply(op).unwrap();
        folded.record(db.table(op.relation()).unwrap().schema(), op);
    }
    let delta = DeltaCheckpoint {
        id: 4,
        base_id: 3,
        parent_id: 3,
        lsn: 18,
        epoch: db.structure_epoch(),
        delta: SnapshotDelta::new(folded, db.version()),
    };
    let dir = tmp_dir("delta");
    delta.write(&dir).unwrap();
    let text = std::fs::read_to_string(dir.join(DeltaCheckpoint::file_name(4))).unwrap();
    check("delta_checkpoint.json", &text);
    std::fs::remove_dir_all(&dir).ok();
}

fn figure4_system() -> Penguin {
    let mut p = Penguin::new(university_schema());
    p.with_database_mut(seed_figure4).unwrap().unwrap();
    p.define_object(
        "omega",
        "COURSES",
        &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
    )
    .unwrap();
    let mut responder = paper_dialog_responder();
    p.choose_translator("omega", &mut responder).unwrap();
    p
}

#[test]
fn saved_system_bytes() {
    let saved = SavedSystem::capture(&figure4_system());
    check("system.json", &saved.to_json().unwrap());
}

/// One frame as it crosses the socket: the 8 header bytes in hex, then
/// the payload.
fn frame(payload: &str) -> String {
    let mut bytes = Vec::new();
    write_frame(&mut bytes, payload.as_bytes(), DEFAULT_MAX_FRAME_BYTES).unwrap();
    let header: String = bytes[..8].iter().map(|b| format!("{b:02x}")).collect();
    format!(
        "{header}\n{}",
        String::from_utf8(bytes[8..].to_vec()).unwrap()
    )
}

#[test]
fn wire_frame_bytes() {
    let p = figure4_system();
    let cs345 = p.instance_by_key("omega", &Key::single("CS345")).unwrap();
    let ee282 = p.instance_by_key("omega", &Key::single("EE282")).unwrap();

    let get = Request {
        id: 1,
        body: RequestBody::Voql {
            src: "GET omega WHERE level = 'graduate' AND COUNT(STUDENT) < 5".into(),
        },
    };
    check("request_voql_get.frame", &frame(&get.to_json().compact()));

    let prepare = Request {
        id: 2,
        body: RequestBody::Prepare {
            object: "omega".into(),
            requests: vec![
                UpdateRequest::CompleteDeletion(ee282.clone()),
                UpdateRequest::Replacement {
                    old: cs345.clone(),
                    new: cs345.clone(),
                },
                UpdateRequest::CompleteInsertion(ee282.clone()),
            ],
        },
    };
    check(
        "request_prepare.frame",
        &frame(&prepare.to_json().compact()),
    );

    let conflict = Response {
        id: 3,
        result: Err(WireError::from(&Error::Conflict {
            relation: "COURSES".into(),
            base_version: 9,
            head_version: 11,
        })),
    };
    check(
        "response_commit_conflict.frame",
        &frame(&conflict.to_json().compact()),
    );

    let instances = Response {
        id: 4,
        result: Ok(ResponseBody::Instances(vec![cs345, ee282])),
    };
    check(
        "response_instances.frame",
        &frame(&instances.to_json().compact()),
    );
}
