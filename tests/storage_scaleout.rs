//! Storage scale-out: incremental checkpoints and segmented WALs.
//!
//! Covers the failure windows the segmented design introduces — an
//! old-layout directory (refused), a bit flip inside a delta artifact (fall
//! back to the last good artifact and replay segments), a torn tail in
//! a *non-final* segment (tolerated only when a checkpoint covers the
//! hidden records), a kill between delta-checkpoint write and segment
//! retirement — and the headline invariant: recovery is
//! **byte-identical** to the oracle, and two compactions of the same
//! state write the same bytes.

use penguin_vo::prelude::*;
use std::path::{Path, PathBuf};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vo_scaleout_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fingerprint(db: &Database) -> String {
    penguin_vo::obs::json::encode(&DatabaseSnapshot::capture_full(db))
}

fn fresh_db() -> Database {
    let mut db = Database::new();
    db.create_relation(
        RelationSchema::new(
            "T",
            vec![
                AttributeDef::required("k", DataType::Int),
                AttributeDef::nullable("v", DataType::Text),
            ],
            &["k"],
        )
        .unwrap(),
    )
    .unwrap();
    db.create_index("T", &["v".to_string()]).unwrap();
    db
}

fn insert_op(db: &Database, k: i64) -> DbOp {
    let schema = db.table("T").unwrap().schema();
    DbOp::Insert {
        relation: "T".into(),
        tuple: Tuple::new(schema, vec![k.into(), format!("v{k}").into()]).unwrap(),
    }
}

fn commit_one(db: &mut Database, store: &mut Store, op: DbOp) {
    db.apply(&op).unwrap();
    store.commit(db, &[vec![op]]).unwrap();
}

fn list(dir: &Path, prefix: &str, suffix: &str) -> Vec<String> {
    let mut out: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().and_then(|e| e.file_name().into_string().ok()))
        .filter(|n| n.starts_with(prefix) && n.ends_with(suffix))
        .collect();
    out.sort();
    out
}

/// A pre-segmentation store directory — `wal.log` and/or
/// `checkpoint.json`, no `base-*.json` — is refused with a typed error
/// naming the files, never opened as an empty database; `Store::create`
/// still clears it.
#[test]
fn old_layout_directory_is_refused_not_opened_empty() {
    for files in [
        &["checkpoint.json", "wal.log"][..],
        &["checkpoint.json"][..],
        &["wal.log"][..],
    ] {
        let dir = tmp_dir("old_layout");
        for name in files {
            std::fs::write(dir.join(name), b"{\"lsn\":3}").unwrap();
        }
        match Store::open(&dir, StoreOptions::default()) {
            Err(e @ StoreError::UnsupportedLayout(_)) => {
                let msg = e.to_string();
                assert!(
                    msg.contains("pre-segmentation store; not supported"),
                    "{msg}"
                );
                for name in files {
                    assert!(msg.contains(name), "{msg} must name {name}");
                }
            }
            other => panic!("expected UnsupportedLayout, got {:?}", other.map(|r| r.2)),
        }
        // nothing was written or removed by the refused open
        for name in files {
            assert!(dir.join(name).exists());
        }
        assert!(list(&dir, "wal-", ".log").is_empty());

        // through the facade the refusal stays an error too
        assert!(Penguin::open(&dir).is_err());

        // creating a store there clears the old files
        let db = fresh_db();
        let store = Store::create(&dir, &db, StoreOptions::default()).unwrap();
        for name in files {
            assert!(!dir.join(name).exists());
        }
        drop(store);
        let (_s, recovered, _r) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(fingerprint(&recovered), fingerprint(&db));
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A bit flip inside a delta artifact breaks the chain gracefully:
/// recovery falls back to the last good artifact and replays the
/// retained segments, landing byte-identical.
#[test]
fn delta_bit_flip_falls_back_to_segment_replay() {
    let dir = tmp_dir("delta_flip");
    let options = StoreOptions {
        compaction: CompactionPolicy::never(),
        ..StoreOptions::default()
    };
    let mut db = fresh_db();
    let mut store = Store::create(&dir, &db, options).unwrap();
    for k in 0..5 {
        let op = insert_op(&db, k);
        commit_one(&mut db, &mut store, op);
    }
    store.checkpoint(&db).unwrap(); // delta #1
    for k in 5..10 {
        let op = insert_op(&db, k);
        commit_one(&mut db, &mut store, op);
    }
    store.checkpoint(&db).unwrap(); // delta #2
    store.sync().unwrap();
    let deltas = list(&dir, "delta-", ".json");
    assert_eq!(deltas.len(), 2);
    drop(store);

    // flip a bit inside the *second* delta's JSON body
    let path = dir.join(&deltas[1]);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() - 10;
    bytes[mid] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let (_s, recovered, report) = Store::open(&dir, options).unwrap();
    assert!(
        report.delta_chain_broken,
        "corrupt delta must break the chain"
    );
    assert_eq!(report.deltas_applied, 1, "only the intact delta applies");
    assert!(
        report.records_replayed >= 5,
        "segments cover the broken suffix"
    );
    assert_eq!(fingerprint(&recovered), fingerprint(&db));

    // flipping the FIRST delta instead drops the whole chain — segments
    // still cover everything
    let path0 = dir.join(&deltas[0]);
    let mut bytes = std::fs::read(&path0).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&path0, &bytes).unwrap();
    let (_s, recovered, report) = Store::open(&dir, options).unwrap();
    assert!(report.delta_chain_broken);
    assert_eq!(report.deltas_applied, 0);
    assert_eq!(report.records_replayed, 10);
    assert_eq!(fingerprint(&recovered), fingerprint(&db));
    std::fs::remove_dir_all(&dir).ok();
}

/// Flipping a byte's high bit leaves bytes that are not UTF-8, and the
/// checksum still catches the flip before the bytes are taken for text: in
/// a delta it breaks the chain, and recovery lands exactly where a low-bit
/// flip of the same byte lands; in a base it is corruption, not an I/O
/// error.
#[test]
fn high_bit_flip_is_corruption_not_an_io_error() {
    let dir = tmp_dir("high_bit_flip");
    let options = StoreOptions {
        compaction: CompactionPolicy::never(),
        ..StoreOptions::default()
    };
    let mut db = fresh_db();
    let mut store = Store::create(&dir, &db, options).unwrap();
    for k in 0..10 {
        let op = insert_op(&db, k);
        commit_one(&mut db, &mut store, op);
        if k % 5 == 4 {
            store.checkpoint(&db).unwrap(); // deltas #1 and #2
        }
    }
    store.sync().unwrap();
    drop(store);

    let flipped = |path: &Path, mask: u8| {
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        assert!(bytes[mid].is_ascii());
        bytes[mid] ^= mask;
        std::fs::write(path, &bytes).unwrap();
    };
    let delta = dir.join(&list(&dir, "delta-", ".json")[1]);
    let pristine = std::fs::read(&delta).unwrap();
    let mut opened = Vec::new();
    for mask in [0x80, 0x01] {
        std::fs::write(&delta, &pristine).unwrap();
        flipped(&delta, mask);
        let (_s, recovered, report) = Store::open(&dir, options).unwrap();
        assert!(report.delta_chain_broken, "mask {mask:#04x}");
        assert_eq!(fingerprint(&recovered), fingerprint(&db));
        opened.push(report);
    }
    assert_eq!(opened[0], opened[1]);

    std::fs::write(&delta, &pristine).unwrap();
    let base = dir.join(&list(&dir, "base-", ".json")[0]);
    flipped(&base, 0x80);
    match Store::open(&dir, options) {
        Err(StoreError::Corrupt(m)) => assert!(m.contains("checksum mismatch"), "{m}"),
        other => panic!("expected Corrupt, got {:?}", other.map(|r| r.2)),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A kill between the delta-checkpoint write and segment retirement
/// leaves both the delta and the "already covered" segments on disk —
/// recovery skips the stale records by LSN. The converse kill (segment
/// sealed, delta never written) replays the segment instead. Either
/// way: byte-identical.
#[test]
fn kill_between_checkpoint_and_retirement_is_harmless() {
    let dir = tmp_dir("kill_window");
    let options = StoreOptions {
        compaction: CompactionPolicy::never(),
        ..StoreOptions::default()
    };
    let mut db = fresh_db();
    let mut store = Store::create(&dir, &db, options).unwrap();
    for k in 0..6 {
        let op = insert_op(&db, k);
        commit_one(&mut db, &mut store, op);
    }
    store.checkpoint(&db).unwrap(); // delta written, segments retained
    store.sync().unwrap();
    drop(store);

    // window 1: delta on disk + covered segments still present (the
    // store never deletes segments until a base lands, so this IS the
    // on-disk state right now)
    let (_s, recovered, report) = Store::open(&dir, options).unwrap();
    assert_eq!(report.records_skipped, 6);
    assert_eq!(report.deltas_applied, 1);
    assert_eq!(fingerprint(&recovered), fingerprint(&db));

    // window 2: crash *before* the delta landed — simulate by deleting
    // it; the sealed segments still hold every record
    let deltas = list(&dir, "delta-", ".json");
    std::fs::remove_file(dir.join(&deltas[0])).unwrap();
    let (_s, recovered, report) = Store::open(&dir, options).unwrap();
    assert_eq!(report.deltas_applied, 0);
    assert_eq!(report.records_replayed, 6);
    assert_eq!(fingerprint(&recovered), fingerprint(&db));
    std::fs::remove_dir_all(&dir).ok();
}

/// A torn tail in a non-final (sealed) segment is tolerated only when a
/// checkpoint provably covers every record the tear could hide;
/// otherwise recovery refuses rather than silently dropping committed
/// history.
#[test]
fn non_final_torn_segment_covered_vs_uncovered() {
    // tiny segments: every commit seals its own segment file
    let options = StoreOptions {
        max_segment_bytes: 1,
        checkpoint: CheckpointPolicy::never(),
        compaction: CompactionPolicy::never(),
        ..StoreOptions::default()
    };

    // covered: a delta checkpoint covers all records, then a sealed
    // segment is torn — recovery tolerates it (the hidden records are
    // inside the checkpoint) and still lands byte-identical
    let dir = tmp_dir("torn_covered");
    let mut db = fresh_db();
    let mut store = Store::create(&dir, &db, options).unwrap();
    for k in 0..6 {
        let op = insert_op(&db, k);
        commit_one(&mut db, &mut store, op);
    }
    store.checkpoint(&db).unwrap();
    store.sync().unwrap();
    drop(store);
    let segments = list(&dir, "wal-", ".log");
    assert!(segments.len() > 3, "tiny cap must produce many segments");
    let victim = dir.join(&segments[2]);
    let len = std::fs::metadata(&victim).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&victim)
        .unwrap()
        .set_len(len - 3)
        .unwrap();
    let (_s, recovered, _report) = Store::open(&dir, options).unwrap();
    assert_eq!(fingerprint(&recovered), fingerprint(&db));
    std::fs::remove_dir_all(&dir).ok();

    // uncovered: same tear with NO checkpoint — the hidden record is
    // committed history recovery cannot reconstruct → hard error
    let dir = tmp_dir("torn_uncovered");
    let mut db = fresh_db();
    let mut store = Store::create(&dir, &db, options).unwrap();
    for k in 0..6 {
        let op = insert_op(&db, k);
        commit_one(&mut db, &mut store, op);
    }
    store.sync().unwrap();
    drop(store);
    let segments = list(&dir, "wal-", ".log");
    let victim = dir.join(&segments[2]);
    let len = std::fs::metadata(&victim).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&victim)
        .unwrap()
        .set_len(len - 3)
        .unwrap();
    match Store::open(&dir, options) {
        Err(StoreError::Corrupt(msg)) => {
            assert!(
                msg.contains("torn mid-history"),
                "unexpected message: {msg}"
            )
        }
        other => panic!("uncovered mid-history tear must refuse to open: {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The headline invariant: kill-and-recover lands byte-identically on
/// the oracle, and two compactions of the same killed store write the same
/// base bytes after the artifact id.
#[test]
fn recovery_and_recompaction_are_byte_identical() {
    let dir = tmp_dir("recompact");
    let options = StoreOptions {
        checkpoint: CheckpointPolicy {
            max_wal_bytes: u64::MAX,
            max_wal_records: 16,
        },
        ..StoreOptions::default()
    };
    let mut db = fresh_db();
    let mut store = Store::create(&dir, &db, options).unwrap();
    for k in 0..100 {
        let op = insert_op(&db, k);
        commit_one(&mut db, &mut store, op);
    }
    store.sync().unwrap();
    drop(store); // kill: deltas + a live segment tail, no final checkpoint
    let expected = fingerprint(&db);
    let twin = tmp_dir("recompact_twin");
    for entry in std::fs::read_dir(&dir).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), twin.join(entry.file_name())).unwrap();
    }

    let mut artifact_bytes: Option<Vec<u8>> = None;
    for dir in [&dir, &twin] {
        let (mut s, recovered, _r) = Store::open(dir, options).unwrap();
        assert_eq!(fingerprint(&recovered), expected);
        s.compact().unwrap();
        let base_file = list(dir, "base-", ".json").pop().unwrap();
        let bytes = std::fs::read(dir.join(base_file)).unwrap();
        // strip the checksum line and the artifact id: compare from the
        // entry after the id onward
        let tail_at = bytes.iter().position(|&b| b == b',').unwrap();
        let tail = bytes[tail_at..].to_vec();
        match &artifact_bytes {
            None => artifact_bytes = Some(tail),
            Some(prev) => assert_eq!(prev, &tail),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&twin).ok();
}

/// End-to-end through the facade: a persistent PENGUIN system under a
/// no-auto-compaction policy accumulates deltas and segments; an
/// explicit [`Penguin::compact`] folds them into one base and bounds the
/// on-disk file count; reopening recovers the identical database.
#[test]
fn penguin_compact_bounds_files_and_preserves_state() {
    let dir = tmp_dir("penguin_compact");
    let store_options = StoreOptions {
        checkpoint: CheckpointPolicy {
            max_wal_bytes: u64::MAX,
            max_wal_records: 4,
        },
        max_segment_bytes: 256,
        compaction: CompactionPolicy::never(),
        ..StoreOptions::default()
    };
    let mut p = Penguin::persistent_with(&dir, university_schema(), store_options).unwrap();
    p.with_database_mut(seed_figure4).unwrap().unwrap();
    p.persist_pending().unwrap();
    for i in 0..30 {
        p.with_database_mut(|db| {
            db.insert("DEPARTMENT", vec![format!("Dept{i}").into()])
                .unwrap();
        })
        .unwrap();
        p.persist_pending().unwrap();
    }
    let live = fingerprint(p.database());
    let files_before = list(&dir, "wal-", ".log").len() + list(&dir, "delta-", ".json").len();
    let report = p.compact().unwrap();
    assert!(report.compacted);
    assert!(report.deltas_folded > 0 || report.segments_deleted > 0);
    let files_after = list(&dir, "wal-", ".log").len() + list(&dir, "delta-", ".json").len();
    assert!(
        files_after < files_before,
        "{files_after} !< {files_before}"
    );
    assert!(list(&dir, "delta-", ".json").is_empty());
    assert_eq!(list(&dir, "base-", ".json").len(), 1);
    drop(p);

    let p2 = Penguin::open_with(&dir, store_options).unwrap();
    assert_eq!(fingerprint(p2.database()), live);
    std::fs::remove_dir_all(&dir).ok();
}
