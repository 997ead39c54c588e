//! Crash-recovery equivalence: a database recovered from checkpoint +
//! write-ahead-log replay must be indistinguishable from the live one
//! that produced the log — under random workloads, a simulated process
//! kill, and injected log corruption (torn tails, bit flips).
//!
//! The comparison is byte-level: both sides are fingerprinted as the
//! pretty-printed JSON of [`DatabaseSnapshot::capture_full`], which
//! includes every secondary index.

use penguin_vo::prelude::*;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vo_recovery_eq_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn fingerprint(db: &Database) -> String {
    DatabaseSnapshot::capture_full(db).to_json().pretty()
}

/// The highest-numbered (active) WAL segment in a store directory — the
/// one a crash mid-append would tear.
fn active_segment(dir: &PathBuf) -> PathBuf {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
        })
        .max()
        .expect("store directory holds at least one segment")
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

/// One random transaction (1–3 ops on distinct keys) valid against the
/// tracked live-key set, which it updates in place.
fn random_transaction(rng: &mut SmallRng, live: &mut Vec<i64>, next_key: &mut i64) -> Vec<DbOp> {
    let schema = RelationSchema::new(
        "T",
        vec![
            AttributeDef::required("k", DataType::Int),
            AttributeDef::nullable("v", DataType::Text),
        ],
        &["k"],
    )
    .unwrap();
    let mut ops = Vec::new();
    let mut touched: Vec<i64> = Vec::new();
    for _ in 0..rng.gen_range(1..4) {
        let roll = rng.gen_range(0..10);
        if live.is_empty() || roll < 5 {
            // insert a brand-new key
            let k = *next_key;
            *next_key += 1;
            let tuple = schema_tuple(&schema, k, &format!("v{k}"));
            ops.push(DbOp::Insert {
                relation: "T".into(),
                tuple,
            });
            live.push(k);
            touched.push(k);
        } else if roll < 8 {
            // replace an untouched live tuple (same key, new payload)
            let Some(k) = pick_untouched(rng, live, &touched) else {
                continue;
            };
            let tuple = schema_tuple(&schema, k, &format!("r{}", rng.gen_range(0..1000)));
            ops.push(DbOp::Replace {
                relation: "T".into(),
                old_key: Key::single(k),
                tuple,
            });
            touched.push(k);
        } else {
            // delete an untouched live tuple
            let Some(k) = pick_untouched(rng, live, &touched) else {
                continue;
            };
            ops.push(DbOp::Delete {
                relation: "T".into(),
                key: Key::single(k),
            });
            live.retain(|&x| x != k);
            touched.push(k);
        }
    }
    ops
}

fn schema_tuple(schema: &RelationSchema, k: i64, v: &str) -> Tuple {
    Tuple::new(schema, vec![k.into(), v.into()]).unwrap()
}

fn pick_untouched(rng: &mut SmallRng, live: &[i64], touched: &[i64]) -> Option<i64> {
    let candidates: Vec<i64> = live
        .iter()
        .copied()
        .filter(|k| !touched.contains(k))
        .collect();
    if candidates.is_empty() {
        None
    } else {
        Some(*rng.choose(&candidates))
    }
}

/// Property: for random op sequences with periodic checkpoints, the
/// recovered database is byte-identical to the live one, across seeds.
#[test]
fn random_workloads_recover_byte_identical() {
    for seed in [1u64, 7, 42, 1234, 987_654] {
        let dir = tmp_dir(&format!("prop_{seed}"));
        let options = StoreOptions {
            sync: SyncPolicy::Always,
            checkpoint: CheckpointPolicy {
                max_wal_bytes: u64::MAX,
                max_wal_records: 48, // force a few auto-checkpoints per run
            },
            ..StoreOptions::default()
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut db = fresh_db();
        let mut store = Store::create(&dir, &db, options).unwrap();
        let mut live = Vec::new();
        let mut next_key = 0i64;
        for step in 0..200 {
            let ops = random_transaction(&mut rng, &mut live, &mut next_key);
            if ops.is_empty() {
                continue;
            }
            db.apply_all(&ops).unwrap();
            store.commit(&db, std::slice::from_ref(&ops)).unwrap();
            if step % 57 == 56 {
                store.checkpoint(&db).unwrap();
            }
        }
        store.sync().unwrap();
        drop(store);

        let (_store, recovered, _report) = Store::open(&dir, options).unwrap();
        assert_eq!(
            fingerprint(&db),
            fingerprint(&recovered),
            "recovered state diverged for seed {seed}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Build the persistent university system at `dir` and run two translated
/// updates through it, mirroring every step on an in-memory oracle.
/// Returns (oracle fingerprint after update A, after update B).
fn run_persistent_session(dir: &PathBuf) -> (String, String) {
    let mut oracle = Penguin::new(university_schema());
    oracle.with_database_mut(seed_figure4).unwrap().unwrap();

    let mut p = Penguin::persistent(dir, university_schema()).unwrap();
    p.with_database_mut(seed_figure4).unwrap().unwrap();
    p.persist_pending().unwrap();

    for sys in [&mut oracle, &mut p] {
        sys.define_object(
            "omega",
            "COURSES",
            &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
        )
        .unwrap();
        let mut responder = paper_dialog_responder();
        sys.choose_translator("omega", &mut responder).unwrap();
    }

    // update A: delete the EE282 instance through the view object
    let a = oracle
        .instance_by_key("omega", &Key::single("EE282"))
        .unwrap();
    oracle.delete_instance("omega", a.clone()).unwrap();
    let a2 = p.instance_by_key("omega", &Key::single("EE282")).unwrap();
    assert_eq!(a, a2);
    p.delete_instance("omega", a2).unwrap();
    let after_a = fingerprint(oracle.database());

    // update B: delete the CS345 instance
    let b = oracle
        .instance_by_key("omega", &Key::single("CS345"))
        .unwrap();
    oracle.delete_instance("omega", b.clone()).unwrap();
    let b2 = p.instance_by_key("omega", &Key::single("CS345")).unwrap();
    p.delete_instance("omega", b2).unwrap();
    let after_b = fingerprint(oracle.database());

    // crash: no clean shutdown, Drop never runs
    std::mem::forget(p);
    (after_a, after_b)
}

/// Kill-and-recover: updates applied through a persistent PENGUIN system,
/// process "killed" (no clean shutdown), reopened — the recovered
/// database is byte-identical to an in-memory oracle that ran the same
/// session.
#[test]
fn killed_penguin_recovers_to_oracle_state() {
    let dir = tmp_dir("kill");
    let (_after_a, after_b) = run_persistent_session(&dir);

    let p2 = Penguin::open(&dir).unwrap();
    let report = p2.last_recovery().unwrap();
    assert!(
        report.records_replayed >= 1,
        "log tail must replay: {report:?}"
    );
    assert!(!report.torn_tail_truncated);
    assert_eq!(fingerprint(p2.database()), after_b);
    // the recovered system is fully operational without re-running the dialog
    assert!(p2.object("omega").unwrap().updater.is_some());
    assert!(p2.check_consistency().unwrap().is_empty());
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill-and-recover with a torn final record: the log is truncated
/// mid-record (crash during append), so recovery drops the half-written
/// transaction and lands exactly on the previous committed state.
#[test]
fn torn_tail_recovers_to_previous_commit() {
    let dir = tmp_dir("torn");
    let (after_a, after_b) = run_persistent_session(&dir);
    assert_ne!(after_a, after_b);

    let wal = active_segment(&dir);
    let len = std::fs::metadata(&wal).unwrap().len();
    let f = std::fs::OpenOptions::new().write(true).open(&wal).unwrap();
    f.set_len(len - 3).unwrap(); // mid-record: checksummed payload cut short
    drop(f);

    let p2 = Penguin::open(&dir).unwrap();
    let report = p2.last_recovery().unwrap();
    assert!(
        report.torn_tail_truncated,
        "torn tail must be detected: {report:?}"
    );
    assert_eq!(fingerprint(p2.database()), after_a);
    // a second reopen is clean: recovery already truncated the tail
    drop(p2);
    let p3 = Penguin::open(&dir).unwrap();
    assert!(!p3.last_recovery().unwrap().torn_tail_truncated);
    assert_eq!(fingerprint(p3.database()), after_a);
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression for the raw-borrow DDL crash window: structural changes
/// and DML made through [`Penguin::with_database_mut`] are reconciled
/// with the store by the borrow's own exit flush — DDL as a checkpoint
/// (the epoch drifted), DML as a log record — so a kill right after, with
/// no further facade call, leaves nothing behind.
#[test]
fn ddl_through_borrow_survives_kill_and_recover() {
    let dir = tmp_dir("ddl_borrow");
    let mut p = Penguin::persistent(&dir, university_schema()).unwrap();
    p.with_database_mut(seed_figure4).unwrap().unwrap();
    p.with_database_mut(|db| db.create_index("GRADES", &["grade".to_string()]))
        .unwrap()
        .unwrap();
    p.with_database_mut(|db| db.insert("DEPARTMENT", vec!["Mathematics".into()]))
        .unwrap()
        .unwrap();
    assert_eq!(p.persistence_lag(), Some(0));
    let live = fingerprint(p.database());
    std::mem::forget(p); // crash

    let p2 = Penguin::open(&dir).unwrap();
    assert_eq!(fingerprint(p2.database()), live);
    assert!(p2
        .database()
        .table("GRADES")
        .unwrap()
        .has_index(&["grade".to_string()]));
    std::fs::remove_dir_all(&dir).ok();
}

/// Bit-flip fault injection on a real log file: a corrupted record fails
/// its CRC, and recovery replays only the intact prefix — never the
/// corrupted suffix.
#[test]
fn bit_flip_truncates_at_corruption_instead_of_replaying() {
    let dir = tmp_dir("flip");
    let options = StoreOptions {
        sync: SyncPolicy::Always,
        checkpoint: CheckpointPolicy::never(),
        ..StoreOptions::default()
    };
    let mut db = fresh_db();
    let mut store = Store::create(&dir, &db, options).unwrap();
    let schema = db.table("T").unwrap().schema().clone();

    // five single-op transactions; remember the fingerprint and log
    // length after each commit
    let mut fps = Vec::new();
    let mut ends = Vec::new();
    for k in 0..5i64 {
        let ops = vec![DbOp::Insert {
            relation: "T".into(),
            tuple: schema_tuple(&schema, k, &format!("v{k}")),
        }];
        db.apply_all(&ops).unwrap();
        store.commit(&db, std::slice::from_ref(&ops)).unwrap();
        fps.push(fingerprint(&db));
        ends.push(store.wal_len());
    }
    drop(store);

    // flip one byte inside record 4's payload (it starts at ends[2])
    let wal = active_segment(&dir);
    let mut bytes = std::fs::read(&wal).unwrap();
    let target = ends[2] as usize + 9; // past the 8-byte record header
    bytes[target] ^= 0x40;
    std::fs::write(&wal, &bytes).unwrap();

    let (_s, recovered, report) = Store::open(&dir, options).unwrap();
    assert!(report.torn_tail_truncated);
    assert_eq!(report.records_replayed, 3, "only the intact prefix replays");
    assert_eq!(
        fingerprint(&recovered),
        fps[2],
        "recovered state must be the prefix before the corrupted record"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Regression for the float writer: an integral float of 2⁶³ or more used
/// to print as a bare digit string the parser rejects, so the fsynced
/// record holding it was CRC-valid but undecodable, read as a torn tail,
/// and recovery truncated it *and every acknowledged commit after it*.
#[test]
fn large_float_commit_survives_kill_and_does_not_truncate_its_successors() {
    let dir = tmp_dir("float_1e19");
    let options = StoreOptions {
        sync: SyncPolicy::Always,
        checkpoint: CheckpointPolicy::never(),
        ..StoreOptions::default()
    };
    let mut db = Database::new();
    db.create_relation(
        RelationSchema::new(
            "M",
            vec![
                AttributeDef::required("k", DataType::Int),
                AttributeDef::required("x", DataType::Float),
            ],
            &["k"],
        )
        .unwrap(),
    )
    .unwrap();
    let mut store = Store::create(&dir, &db, options).unwrap();
    for (k, x) in [(1i64, 0.5), (2, 1e19), (3, -2.0)] {
        let ops = vec![DbOp::Insert {
            relation: "M".into(),
            tuple: Tuple::raw(vec![k.into(), x.into()]),
        }];
        db.apply_all(&ops).unwrap();
        store.commit(&db, std::slice::from_ref(&ops)).unwrap();
    }
    std::mem::forget(store); // crash: every commit was fsynced

    let (_store, recovered, report) = Store::open(&dir, options).unwrap();
    assert!(!report.torn_tail_truncated, "{report:?}");
    assert_eq!(report.records_replayed, 3, "{report:?}");
    assert_eq!(recovered.table("M").unwrap().len(), 3);
    assert_eq!(fingerprint(&recovered), fingerprint(&db));
    std::fs::remove_dir_all(&dir).ok();
}
