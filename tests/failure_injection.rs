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
/// is refused wholly, and so is a sound change staged over a version that
/// has since moved: neither touches anything, beside a pinned reader.
#[test]
fn poisoned_batches_roll_back() {
    let mut rng = SmallRng::seed_from_u64(0xBAD);
    for _ in 0..48 {
        let pos = rng.gen_range(0..6);
        let seed = rng.next_u64() % 100;
        let (_, mut db) = university_scaled(1, seed);
        db.journal_subscribe();
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

        // a sound change staged before another commit is stale: install
        // turns it away
        let sound = department_inserts(&db, 7);
        let mut overlay = DeltaDb::new(&db);
        overlay.apply_all(sound[5..].to_vec()).unwrap();
        let stale = overlay.finish();
        db.apply_all(&sound[..5]).unwrap();
        let pinned = db.snapshot();
        let err = db.install(stale).unwrap_err();
        assert!(
            matches!(&err, Error::Conflict { relation, .. } if relation == "DEPARTMENT"),
            "{err}"
        );
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
        db.journal_subscribe();
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
    let err = updater
        .replace(&schema, &mut db, old.clone(), new)
        .unwrap_err();
    assert_stale(&err, "COURSES", "('CS345')");
    assert_eq!(snapshot(&db), before);

    // deletions of instances deleted by someone else are also rejected
    db.run_sql("DELETE FROM CURRICULUM WHERE course_id = 'CS345'")
        .unwrap();
    db.run_sql("DELETE FROM GRADES WHERE course_id = 'CS345'")
        .unwrap();
    db.run_sql("DELETE FROM COURSES WHERE course_id = 'CS345'")
        .unwrap();
    let before = snapshot(&db);
    let err = updater.delete(&schema, &mut db, old).unwrap_err();
    assert!(
        matches!(&err, Error::NoSuchTuple { relation, .. } if relation == "COURSES"),
        "{err}"
    );
    assert_eq!(snapshot(&db), before);
}

/// A replacement whose old instance holds a child tuple someone else has
/// changed since is refused, naming the relation and the key, rather than
/// writing the stale tuple back over the change (case R-2 must not fire on
/// a pair the request left alone).
#[test]
fn a_stale_island_tuple_is_refused_not_written_back() {
    let (schema, db) = university_database();
    let mut p = Penguin::with_database(schema, db);
    p.define_object(
        "omega",
        "COURSES",
        &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
    )
    .unwrap();
    let omega = p.object("omega").unwrap().object.clone();
    p.install_translator("omega", Translator::permissive(&omega))
        .unwrap();
    let old = p.instance_by_key("omega", &Key::single("CS345")).unwrap();
    p.sql("UPDATE GRADES SET grade = 'F' WHERE course_id = 'CS345'")
        .unwrap();
    let grades = |p: &Penguin| {
        let table = p.database().table("GRADES").unwrap();
        (table.scan())
            .filter(|t| t.get_named(table.schema(), "course_id").unwrap() == &Value::text("CS345"))
            .map(|t| t.get_named(table.schema(), "grade").unwrap().clone())
            .collect::<Vec<_>>()
    };
    let failed = grades(&p);
    assert!(failed.len() > 1 && failed.iter().all(|g| g == &Value::text("F")));
    let before = snapshot(p.database());

    let courses = p.database().table("COURSES").unwrap().schema().clone();
    let mut new = old.clone();
    new.root.tuple = (old.root.tuple)
        .with_named(&courses, "title", "Retitled".into())
        .unwrap();
    let err = p.replace_instance("omega", old, new).unwrap_err();
    let Error::StaleTuple { relation, key } = err.source.as_ref() else {
        panic!("refused for another reason: {err}");
    };
    assert_eq!(relation, "GRADES");
    assert!(key.contains("CS345"), "{key}");
    assert_eq!(grades(&p), failed);
    assert_eq!(snapshot(p.database()), before);
}

/// `err` refuses a write-back whose instance did not show what
/// `relation` holds at `key`.
#[track_caller]
fn assert_stale(err: &Error, relation: &str, key: &str) {
    let Error::StaleTuple {
        relation: r,
        key: k,
    } = err
    else {
        panic!("refused for another reason: {err}");
    };
    assert_eq!((r.as_str(), k.as_str()), (relation, key), "{err}");
}

/// Figure 4's university with ω under the permissive translator, and the
/// instance of CS345 read from it.
fn omega_and_cs345() -> (Penguin, VoInstance) {
    let (schema, db) = university_database();
    let mut p = Penguin::with_database(schema, db);
    p.define_object(
        "omega",
        "COURSES",
        &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
    )
    .unwrap();
    let omega = p.object("omega").unwrap().object.clone();
    p.install_translator("omega", Translator::permissive(&omega))
        .unwrap();
    let cs345 = p.instance_by_key("omega", &Key::single("CS345")).unwrap();
    (p, cs345)
}

/// The id of ω's node on `relation`.
fn node_of(p: &Penguin, relation: &str) -> NodeId {
    let omega = &p.object("omega").unwrap().object;
    omega
        .nodes()
        .iter()
        .find(|n| n.relation == relation)
        .unwrap()
        .id
}

/// `instance` with STUDENT 1's degree program set to `program`.
fn student_1_in(p: &Penguin, instance: &VoInstance, program: &str) -> VoInstance {
    let student = p.database().table("STUDENT").unwrap().schema().clone();
    let node = node_of(p, "STUDENT");
    let mut new = instance.clone();
    let pos = (new.tuples_of(node).iter())
        .position(|s| s.get(0) == &Value::Int(1))
        .unwrap();
    let moved = new.tuples_of(node)[pos].with_named(&student, "degree_program", program.into());
    new.rewrite(node, pos, moved.unwrap());
    new
}

/// Inside the island an instance is the whole of its rows under the
/// pivot, so a row at an island key it did not show was written after the
/// read: a VO-R adding that key (case I-4) must not overwrite it.
#[test]
fn an_island_row_the_instance_never_showed_is_not_overwritten() {
    let (mut p, old) = omega_and_cs345();
    p.sql("INSERT INTO GRADES VALUES ('CS345', 4, 'C')")
        .unwrap();
    let grades = p.database().table("GRADES").unwrap().schema().clone();
    let mut new = old.clone();
    let added = Tuple::new(&grades, vec!["CS345".into(), 4.into(), "A".into()]).unwrap();
    new.attach(0, 0, node_of(&p, "GRADES"), added);

    let pinned = p.database().snapshot();
    let err = p.replace_instance("omega", old, new).unwrap_err();
    assert_stale(&err.source, "GRADES", "('CS345', 4)");
    assert_untouched(p.database(), &pinned, 0);
}

/// A tuple outside the island that the instance showed, changed by SQL
/// since the read, is not overwritten by an in-place modification (case
/// I-1).
#[test]
fn a_referenced_tuple_changed_since_the_read_is_not_overwritten() {
    let (mut p, old) = omega_and_cs345();
    p.sql("UPDATE STUDENT SET degree_program = 'XX' WHERE ssn = 1")
        .unwrap();
    let new = student_1_in(&p, &old, "YY");

    let pinned = p.database().snapshot();
    let err = p.replace_instance("omega", old, new).unwrap_err();
    assert_stale(&err.source, "STUDENT", "(1)");
    assert_untouched(p.database(), &pinned, 0);
}

/// VO-CD of an instance whose grades changed since the read deletes
/// nothing: a tuple the instance showed must still be the version it
/// showed.
#[test]
fn a_deletion_of_grades_changed_since_the_read_is_refused() {
    let (mut p, old) = omega_and_cs345();
    p.sql("UPDATE GRADES SET grade = 'F' WHERE course_id = 'CS345'")
        .unwrap();

    let pinned = p.database().snapshot();
    let err = p.delete_instance("omega", old).unwrap_err();
    assert_stale(&err.source, "GRADES", "('CS345', 1)");
    assert_untouched(p.database(), &pinned, 0);
}

/// VO-CD of an instance one of whose grades was deleted since the read is
/// as stale as one whose grades changed: refused as `StaleTuple` naming the
/// missing grade — the retryable refusal — not as a missing instance, which
/// only a vanished pivot is.
#[test]
fn a_deletion_of_an_instance_missing_a_grade_since_the_read_is_stale() {
    let (mut p, old) = omega_and_cs345();
    p.sql("DELETE FROM GRADES WHERE course_id = 'CS345' AND ssn = 1")
        .unwrap();

    let pinned = p.database().snapshot();
    let err = p.delete_instance("omega", old).unwrap_err();
    assert_stale(&err.source, "GRADES", "('CS345', 1)");
    assert_untouched(p.database(), &pinned, 0);
}

/// A pivot key change propagates the grades the overlay holds before the
/// walk reaches them, so at their old keys nothing is left to compare: the
/// propagation itself must find the versions the instance showed, or the
/// walk writes the stale 'A's back under the new key.
#[test]
fn a_key_change_does_not_carry_grades_changed_since_the_read() {
    let (mut p, old) = omega_and_cs345();
    p.sql("UPDATE GRADES SET grade = 'F' WHERE course_id = 'CS345'")
        .unwrap();
    let courses = p.database().table("COURSES").unwrap().schema().clone();
    let mut new = old.clone();
    new.root.tuple = (old.root.tuple)
        .with_named(&courses, "course_id", "CS999".into())
        .unwrap();

    let pinned = p.database().snapshot();
    let err = p.replace_instance("omega", old, new).unwrap_err();
    assert_stale(&err.source, "GRADES", "('CS345', 3)");
    assert_untouched(p.database(), &pinned, 0);
}

/// In a batch each request is judged against the overlay as it stood when
/// that request began: request 1's instance of CS101, read before request
/// 0 rewrote STUDENT 1 through CS345, is as stale inside the batch as it
/// is after request 0 commits on its own.
#[test]
fn a_batch_judges_each_request_against_the_requests_before_it() {
    let (mut p, cs345) = omega_and_cs345();
    let cs101 = p.instance_by_key("omega", &Key::single("CS101")).unwrap();
    let rewrite = |p: &Penguin, old: VoInstance, program| UpdateRequest::Replacement {
        new: student_1_in(p, &old, program),
        old,
    };
    let requests = vec![rewrite(&p, cs345, "XX"), rewrite(&p, cs101, "YY")];

    let pinned = p.database().snapshot();
    let err = p.apply_batch("omega", requests.clone()).unwrap_err();
    assert_eq!(err.request_index, Some(1), "{err}");
    assert_stale(&err.source, "STUDENT", "(1)");
    assert_untouched(p.database(), &pinned, 0);

    let [first, second] = <[UpdateRequest; 2]>::try_from(requests).unwrap();
    let UpdateRequest::Replacement { old, new } = first else {
        unreachable!()
    };
    p.replace_instance("omega", old, new).unwrap();
    let pinned = p.database().snapshot();
    let UpdateRequest::Replacement { old, new } = second else {
        unreachable!()
    };
    let err = p.replace_instance("omega", old, new).unwrap_err();
    assert_stale(&err.source, "STUDENT", "(1)");
    assert_untouched(p.database(), &pinned, 0);
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
                for tuple in t.scan() {
                    let key = tuple.key(t.schema());
                    assert!(t.get(&key).is_some_and(|held| held.ptr_eq(tuple)));
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
    let (err, taken) = trace::capture(|| {
        plan_delete(&schema, &db, "COURSES", &Key::single("CS345"), &policy).unwrap_err()
    });

    assert!(matches!(err, Error::ConstraintViolation(_)));
    assert_eq!(snapshot(&db), before);

    // The cascade got underway before the abort: the courses_grades rule
    // fired and collected CS345's three GRADES rows.
    let cascade = (taken.spans.iter())
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
    let aborts: Vec<_> = (taken.spans.iter())
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
