//! Failure-injection tests: every failure path must leave the database
//! exactly as it was (the paper's "the transaction cannot be completed and
//! has to be rolled back"), across all layers.

use penguin_vo::prelude::*;

fn snapshot(db: &Database) -> Vec<(String, Vec<Tuple>)> {
    db.relation_names()
        .iter()
        .map(|r| {
            (
                (*r).to_owned(),
                db.table(r).unwrap().scan().cloned().collect(),
            )
        })
        .collect()
}

/// What a refusal must leave exactly as it was, beyond the rows: the
/// version, every relation's stamp, the journal — and the tables
/// themselves, which a pinned reader still shares (a refused batch that
/// copied one on write would leave the head holding a private copy of a
/// table whose content never changed).
#[track_caller]
fn assert_untouched(db: &Database, pinned: &DbSnapshot, retained: usize) {
    assert_eq!(snapshot(db), snapshot(pinned));
    assert_eq!(db.version(), pinned.version());
    assert_eq!(db.journal_retained(), retained);
    for rel in db.relation_names() {
        assert_eq!(db.table_version(rel), pinned.table_version(rel), "{rel}");
        assert!(
            std::ptr::eq(db.table(rel).unwrap(), pinned.table(rel).unwrap()),
            "{rel} was copied on write by a batch that was refused"
        );
    }
}

fn department_inserts(db: &Database, n: usize) -> Vec<DbOp> {
    let dept = db.table("DEPARTMENT").unwrap().schema();
    (0..n)
        .map(|i| DbOp::Insert {
            relation: "DEPARTMENT".into(),
            tuple: Tuple::new(dept, vec![format!("new-{i}").into()]).unwrap(),
        })
        .collect()
}

/// A batch with a poisoned op at an arbitrary position — last included —
/// is refused wholly, and so is a sound batch the journal cannot admit:
/// neither touches anything, beside a pinned reader.
#[test]
fn poisoned_batches_roll_back() {
    let mut rng = SmallRng::seed_from_u64(0xBAD);
    for _ in 0..48 {
        let pos = rng.gen_range(0..6);
        let seed = rng.next_u64() % 100;
        let (_, mut db) = university_scaled(1, seed);
        db.journal_subscribe(JournalStart::Head);
        let mut ops = department_inserts(&db, 5);
        // poison: delete a tuple that does not exist
        ops.insert(
            pos.min(ops.len()),
            DbOp::Delete {
                relation: "DEPARTMENT".into(),
                key: Key::single("ghost"),
            },
        );
        let pinned = db.snapshot();
        let err = db.apply_all(&ops).unwrap_err();
        assert!(matches!(err, Error::Rolledback(_)));
        assert_untouched(&db, &pinned, 0);

        // a full journal under the refusing policy turns a sound batch away
        db.set_journal_cap(Some(JournalCap::error(1)));
        let sound = department_inserts(&db, 7);
        db.apply_all(&sound[..5]).unwrap();
        let pinned = db.snapshot();
        let err = db.apply_all(&sound[5..]).unwrap_err();
        assert!(matches!(err, Error::JournalOverflow { capacity: 1 }));
        assert_untouched(&db, &pinned, 1);
    }
}

/// A veto falls on the overlay, before anything is installed: a batch
/// whose *k*-th op is refused, for every *k*, and a batch folded whole and
/// then vetoed by its check both leave database, version and journal
/// untouched; the same overlay, not vetoed, is the commit.
#[test]
fn vetoed_batches_roll_back() {
    let mut rng = SmallRng::seed_from_u64(0xE70);
    for _ in 0..48 {
        let n = rng.gen_range(1..6);
        let seed = rng.next_u64() % 100;
        let (_, mut db) = university_scaled(1, seed);
        db.journal_subscribe(JournalStart::Head);
        let ops = department_inserts(&db, n);
        let pinned = db.snapshot();
        for k in 0..n {
            // the k-th insert arrives twice: its second copy is refused
            let mut refused = ops.clone();
            refused.insert(k + 1, ops[k].clone());
            let err = db.apply_all(&refused[..k + 2]).unwrap_err();
            assert!(
                matches!(&err, Error::Rolledback(e) if matches!(**e, Error::KeyConflict { .. }))
            );
            assert_untouched(&db, &pinned, 0);
        }

        // folded whole, then vetoed by its check: the overlay is dropped,
        // and there is nothing to undo
        let mut overlay = DeltaDb::new(&db);
        overlay.apply_all(ops.clone()).unwrap();
        drop(overlay);
        assert_untouched(&db, &pinned, 0);
        // the same overlay, passed, is the commit
        let mut overlay = DeltaDb::new(&db);
        overlay.apply_all(ops).unwrap();
        let staged = overlay.finish();
        db.install(staged).unwrap();
        let departments = |db: &Database| db.table("DEPARTMENT").unwrap().len();
        assert_eq!(departments(&db), departments(&pinned) + n);
        assert_eq!(db.version(), pinned.version() + 1);
        assert_eq!(db.journal_retained(), 1);
    }
}

/// Every permission a translator can deny leads to a clean rejection.
#[test]
fn each_denied_permission_rejects_cleanly() {
    let (schema, db) = university_database();
    let omega = generate_omega(&schema).unwrap();
    let old = assemble(
        &schema,
        &omega,
        &db,
        db.table("COURSES")
            .unwrap()
            .get(&Key::single("CS345"))
            .unwrap()
            .clone(),
    )
    .unwrap();
    let courses = schema.catalog().relation("COURSES").unwrap();
    // a request that exercises key replacement + department insertion
    let mut new = old.clone();
    new.root.tuple = new
        .root
        .tuple
        .with_named(courses, "course_id", "EES345".into())
        .unwrap()
        .with_named(courses, "dept_name", "Engineering Economic Systems".into())
        .unwrap();

    type Tweak = fn(&mut Translator);
    let tweaks: Vec<(&str, Tweak)> = vec![
        ("replacement off", |t| t.allow_replacement = false),
        ("courses key replacement off", |t| {
            let mut p = t.policy("COURSES");
            p.allow_key_replacement = false;
            t.set_policy("COURSES", p);
        }),
        ("courses db key replace off", |t| {
            let mut p = t.policy("COURSES");
            p.allow_db_key_replace = false;
            t.set_policy("COURSES", p);
        }),
        ("department insert off", |t| {
            let mut p = t.policy("DEPARTMENT");
            p.allow_insert = false;
            t.set_policy("DEPARTMENT", p);
        }),
    ];
    for (label, tweak) in tweaks {
        let mut translator = Translator::permissive(&omega);
        tweak(&mut translator);
        let mut db2 = db.clone();
        let updater = ViewObjectUpdater::new(&schema, omega.clone(), translator).unwrap();
        let before = snapshot(&db2);
        let err = updater
            .replace(&schema, &mut db2, old.clone(), new.clone())
            .unwrap_err();
        assert!(
            matches!(err, Error::ConstraintViolation(_) | Error::Rolledback(_)),
            "{label}: unexpected error {err}"
        );
        assert_eq!(snapshot(&db2), before, "{label}: database changed");
    }
}

/// A concurrent writer invalidating the old instance mid-flight is caught.
#[test]
fn stale_instances_never_corrupt() {
    let (schema, mut db) = university_database();
    let omega = generate_omega(&schema).unwrap();
    let updater =
        ViewObjectUpdater::new(&schema, omega.clone(), Translator::permissive(&omega)).unwrap();
    let old = assemble(
        &schema,
        &omega,
        &db,
        db.table("COURSES")
            .unwrap()
            .get(&Key::single("CS345"))
            .unwrap()
            .clone(),
    )
    .unwrap();
    // another writer renames the course first
    db.run_sql("UPDATE COURSES SET title = 'Sniped' WHERE course_id = 'CS345'")
        .unwrap();
    let before = snapshot(&db);
    let mut new = old.clone();
    let courses = schema.catalog().relation("COURSES").unwrap();
    new.root.tuple = new
        .root
        .tuple
        .with_named(courses, "course_id", "EES345".into())
        .unwrap();
    assert!(updater.replace(&schema, &mut db, old.clone(), new).is_err());
    assert_eq!(snapshot(&db), before);

    // deletions of instances deleted by someone else are also rejected
    db.run_sql("DELETE FROM CURRICULUM WHERE course_id = 'CS345'")
        .unwrap();
    db.run_sql("DELETE FROM GRADES WHERE course_id = 'CS345'")
        .unwrap();
    db.run_sql("DELETE FROM COURSES WHERE course_id = 'CS345'")
        .unwrap();
    let before = snapshot(&db);
    assert!(updater.delete(&schema, &mut db, old).is_err());
    assert_eq!(snapshot(&db), before);
}

/// Saved systems with tampered data fail restoration, never half-load.
#[test]
fn tampered_saved_system_fails_closed() {
    let (schema, db) = university_database();
    let mut penguin = Penguin::with_database(schema, db);
    penguin
        .define_object("omega", "COURSES", &["GRADES"])
        .unwrap();
    let saved = vo_penguin::SavedSystem::capture(&penguin);
    let json = saved.to_json().unwrap();

    // duplicate a course row in the serialized data
    let tampered = json.replacen("\"CS345\"", "\"CS101\"", 1);
    if let Ok(s) = vo_penguin::SavedSystem::from_json(&tampered) {
        // either the key now collides (restore fails) or the structural
        // check downstream rejects it; both are acceptable fail-closed
        if let Ok(p) = s.restore() {
            // restored: the data must still be internally key-consistent
            for rel in p.database().relation_names() {
                let t = p.database().table(rel).unwrap();
                for (k, tuple) in t.scan_entries() {
                    assert_eq!(k, &tuple.key(t.schema()));
                }
            }
        }
    }
}

/// An injected mid-cascade failure must leave the database intact AND leave
/// a trace identifying the exact integrity rule (connection) and the exact
/// tuple that blocked the operation.
#[test]
fn injected_cascade_failure_traces_rule_and_tuple() {
    use penguin_vo::obs::trace;

    let (schema, db) = university_database();
    // Inject the failure: cascade everywhere, except curriculum_courses
    // which restricts — so the plan dies *after* the GRADES cascade has
    // already been collected, i.e. mid-cascade.
    let policy = IntegrityPolicy::uniform(RefDeleteAction::Cascade, RefModifyAction::Propagate)
        .with_delete_action("curriculum_courses", RefDeleteAction::Restrict);

    let before = snapshot(&db);
    let scope = trace::start_trace();
    let err = plan_delete(&schema, &db, "COURSES", &Key::single("CS345"), &policy).unwrap_err();
    let me = trace::current_thread_id();
    let mine: Vec<_> = trace::events()
        .into_iter()
        .filter(|e| e.thread == me)
        .collect();
    drop(scope);

    assert!(matches!(err, Error::ConstraintViolation(_)));
    assert_eq!(snapshot(&db), before);

    // The cascade got underway before the abort: the courses_grades rule
    // fired and collected CS345's three GRADES rows.
    let cascade = mine
        .iter()
        .find(|e| {
            e.name == "integrity.cascade"
                && e.field("connection") == Some(&Json::str("courses_grades"))
        })
        .expect("courses_grades cascade event");
    assert_eq!(cascade.field("cascaded"), Some(&Json::Int(3)));
    assert!(cascade
        .field("from")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("CS345"));

    // The abort names the exact rule and the exact blocking tuple.
    let aborts: Vec<_> = mine
        .iter()
        .filter(|e| e.name == "integrity.abort")
        .collect();
    assert_eq!(aborts.len(), 1);
    let a = aborts[0];
    assert_eq!(
        a.field("connection"),
        Some(&Json::str("curriculum_courses"))
    );
    assert_eq!(a.field("relation"), Some(&Json::str("CURRICULUM")));
    let key = a.field("key").unwrap().as_str().unwrap();
    assert!(key.contains("CS345"), "blocking tuple key: {key}");
    let referenced = a.field("referenced").unwrap().as_str().unwrap();
    assert!(referenced.contains("COURSES") && referenced.contains("CS345"));
    assert_eq!(a.field("reason"), Some(&Json::str("restrict")));
}
