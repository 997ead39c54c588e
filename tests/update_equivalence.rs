//! Batch-vs-sequential equivalence of the update pipeline: applying a
//! shuffled mix of insert/delete/replace requests through
//! `apply_batch` (one shared overlay, one global check, one transaction)
//! must leave the database in exactly the state that applying the same
//! requests one-by-one through `apply_request` does — and a failing batch
//! must leave the database exactly at its initial state, naming the
//! offending request.
//!
//! Work counts (`translate.overlay_created`, index probes, ...) are read
//! from a `trace::capture` of the call, so they are exact while other
//! tests run beside this one.

use penguin_vo::obs::trace;
use penguin_vo::prelude::*;

fn assert_same_database(a: &Database, b: &Database, context: &str) {
    for rel in a.relation_names() {
        let ra: Vec<_> = a.table(rel).unwrap().scan().cloned().collect();
        let rb: Vec<_> = b.table(rel).unwrap().scan().cloned().collect();
        assert_eq!(ra, rb, "{context}: relation {rel} differs");
    }
}

/// A fresh course instance (root only; its department already exists, so
/// dependency completion plans nothing extra).
fn fresh_course(omega: &ViewObject, courses: &RelationSchema, id: &str, dept: &str) -> VoInstance {
    VoInstance::builder(
        omega,
        Tuple::new(
            courses,
            vec![
                id.into(),
                format!("course {id}").into(),
                "graduate".into(),
                dept.into(),
            ],
        )
        .unwrap(),
    )
    .finish()
}

fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

#[test]
fn batch_equals_sequential_on_shuffled_mixes() {
    for seed in [0x5EED1u64, 0x5EED2, 0x5EED3] {
        let (schema, db) = university_scaled(2, 42);
        let omega = generate_omega(&schema).unwrap();
        let updater =
            ViewObjectUpdater::new(&schema, omega.clone(), Translator::permissive(&omega)).unwrap();
        let courses = db.table("COURSES").unwrap().schema().clone();

        // requests on pairwise-disjoint courses, so any order is valid
        let mut requests = Vec::new();
        for id in ["C0-0", "C0-1"] {
            let inst = assemble(
                &schema,
                &omega,
                &db,
                db.table("COURSES")
                    .unwrap()
                    .get(&Key::single(id))
                    .unwrap()
                    .clone(),
            )
            .unwrap();
            requests.push(UpdateRequest::CompleteDeletion(inst));
        }
        for (id, new_id) in [("C0-2", "C0-2"), ("C0-3", "C9-X")] {
            let old = assemble(
                &schema,
                &omega,
                &db,
                db.table("COURSES")
                    .unwrap()
                    .get(&Key::single(id))
                    .unwrap()
                    .clone(),
            )
            .unwrap();
            let mut new = old.clone();
            new.root.tuple = new
                .root
                .tuple
                .with_named(&courses, "course_id", new_id.into())
                .unwrap();
            new.root.tuple = new
                .root
                .tuple
                .with_named(&courses, "title", "revised".into())
                .unwrap();
            requests.push(UpdateRequest::Replacement { old, new });
        }
        for id in ["N-0", "N-1"] {
            requests.push(UpdateRequest::CompleteInsertion(fresh_course(
                &omega, &courses, id, "dept-0",
            )));
        }

        let mut rng = SmallRng::seed_from_u64(seed);
        shuffle(&mut requests, &mut rng);

        // path A: one strict apply_request per request
        let mut db_seq = db.clone();
        for r in requests.clone() {
            updater.apply_request(&schema, &mut db_seq, r).unwrap();
        }
        // path B: one batch over one shared overlay
        let mut db_batch = db.clone();
        let outcome = updater
            .apply_batch(&schema, &mut db_batch, requests.clone())
            .unwrap();
        assert_eq!(outcome.len(), requests.len());
        assert_eq!(outcome.total_ops, outcome.stats.total());

        assert_same_database(&db_seq, &db_batch, &format!("seed {seed:#x}"));
        assert!(check_database(&schema, &db_batch).unwrap().is_empty());
    }
}

#[test]
fn batch_of_1000_insertions_shares_one_overlay() {
    let (schema, db) = university_scaled(1, 42);
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
    let courses = p.database().table("COURSES").unwrap().schema().clone();

    let batch: UpdateBatch = (0..1000)
        .map(|i| {
            UpdateRequest::CompleteInsertion(fresh_course(
                &omega,
                &courses,
                &format!("Z-{i}"),
                "dept-0",
            ))
        })
        .collect();

    let courses_before = p.database().table("COURSES").unwrap().len();
    let (outcome, taken) = trace::capture(|| p.apply_batch("omega", batch).unwrap());

    // the whole batch ran over exactly one overlay: no base snapshot was
    // taken for any of the 1000 translator invocations
    let count = |name| taken.count(name);
    let overlays = count("translate.overlay_created");
    assert_eq!(overlays, 1, "batch must build exactly one overlay");
    let avoided = count("translate.snapshot_avoided");
    assert_eq!(avoided, 1000, "one avoided snapshot per request");
    // six overlay reads per request; a debug build's re-check of the
    // batch against the full scan reads 16 more
    let reads = if cfg!(debug_assertions) { 6016 } else { 6000 };
    assert_eq!(count("translate.overlay_reads"), reads);

    assert_eq!(outcome.len(), 1000);
    assert_eq!(outcome.stats.inserts, 1000);
    assert_eq!(
        p.database().table("COURSES").unwrap().len(),
        courses_before + 1000
    );
    assert!(p.check_consistency().unwrap().is_empty());
}

#[test]
fn failing_batch_rolls_back_everything_and_names_the_request() {
    let (schema, db) = university_scaled(1, 42);
    let omega = generate_omega(&schema).unwrap();
    let updater =
        ViewObjectUpdater::new(&schema, omega.clone(), Translator::permissive(&omega)).unwrap();
    let courses = db.table("COURSES").unwrap().schema().clone();

    // 10 good insertions, then one that collides with the first — the
    // batch fails on the *last* request and must leave the base untouched
    // even though 10 requests had already translated cleanly
    let mut requests: Vec<UpdateRequest> = (0..10)
        .map(|i| {
            UpdateRequest::CompleteInsertion(fresh_course(
                &omega,
                &courses,
                &format!("Z-{i}"),
                "dept-0",
            ))
        })
        .collect();
    requests.push(UpdateRequest::CompleteInsertion(fresh_course(
        &omega, &courses, "Z-0", "dept-0",
    )));

    let mut db_batch = db.clone();
    let err = updater
        .apply_batch(&schema, &mut db_batch, requests)
        .unwrap_err();
    assert_eq!(err.step, UpdateStep::Translate);
    assert_eq!(err.request_index, Some(10));
    assert_eq!(err.request_kind, Some("complete-insertion"));
    assert_same_database(&db, &db_batch, "failed batch");

    // sequential application of the same requests is NOT atomic: the ten
    // good ones commit before the bad one fails. This asymmetry is the
    // documented difference between the two granularities.
    let mut db_seq = db.clone();
    let mut failed_at = None;
    for (i, r) in (0..10)
        .map(|i| {
            UpdateRequest::CompleteInsertion(fresh_course(
                &omega,
                &courses,
                &format!("Z-{i}"),
                "dept-0",
            ))
        })
        .chain(std::iter::once(UpdateRequest::CompleteInsertion(
            fresh_course(&omega, &courses, "Z-0", "dept-0"),
        )))
        .enumerate()
    {
        if updater.apply_request(&schema, &mut db_seq, r).is_err() {
            failed_at = Some(i);
            break;
        }
    }
    assert_eq!(failed_at, Some(10));
    assert_eq!(
        db_seq.table("COURSES").unwrap().len(),
        db.table("COURSES").unwrap().len() + 10
    );
}

#[test]
fn global_check_failure_rolls_back_batch_and_sequential_alike() {
    let (schema, mut db) = university_scaled(1, 42);
    let omega = generate_omega(&schema).unwrap();
    let updater =
        ViewObjectUpdater::new(&schema, omega.clone(), Translator::permissive(&omega)).unwrap();
    let courses = db.table("COURSES").unwrap().schema().clone();
    let requests = |ids: std::ops::Range<usize>, dept: &str| -> Vec<UpdateRequest> {
        ids.map(|i| {
            UpdateRequest::CompleteInsertion(fresh_course(
                &omega,
                &courses,
                &format!("Z-{i}"),
                dept,
            ))
        })
        .collect()
    };
    let violations_text = |v: &[Violation]| {
        Error::ConstraintViolation(format!(
            "{} structural violation(s), first: {}",
            v.len(),
            v[0]
        ))
    };

    // What the write path guarantees is that an accepted update never
    // takes a consistent base to an inconsistent one. A base corrupted out
    // of band — here a STUDENT row loses its PEOPLE parent — is the audit's
    // to find, not every writer's: unrelated insertions are accepted, as a
    // batch and one by one, and the audit goes on reporting the orphan.
    {
        let mut db = db.clone();
        let victim = db.table("STUDENT").unwrap().scan().next().unwrap().values()[0].clone();
        db.table_mut("PEOPLE")
            .unwrap()
            .delete(&Key(vec![victim]))
            .unwrap();
        let orphan = check_database(&schema, &db).unwrap();
        assert_eq!(orphan.len(), 1);
        assert!(matches!(
            &orphan[0],
            Violation::SubsetWithoutParent { relation, .. } if relation == "STUDENT"
        ));
        let before = db.table("COURSES").unwrap().len();
        updater
            .apply_batch(&schema, &mut db, requests(0..2, "dept-0"))
            .unwrap();
        updater
            .apply_request(&schema, &mut db, requests(2..3, "dept-0").remove(0))
            .unwrap();
        assert_eq!(db.table("COURSES").unwrap().len(), before + 3);
        assert_eq!(check_database(&schema, &db).unwrap(), orphan);
    }

    // (a) a violation the batch causes: ops that delete a DEPARTMENT still
    // referenced. No translator emits these, so the prepared batch is built
    // by hand. Refused at the global check with the scan's own words, and
    // nothing applied.
    let snapshot = db.clone();
    let ops = vec![DbOp::Delete {
        relation: "DEPARTMENT".into(),
        key: Key::single("dept-0"),
    }];
    let expected = {
        let mut applied = db.clone();
        applied.apply_all(&ops).unwrap();
        violations_text(&check_database(&schema, &applied).unwrap())
    };
    assert!(expected
        .to_string()
        .contains("structural violation(s), first: dangling reference COURSES"));
    let stats = UpdateStats::from_ops(&ops);
    let prepared = PreparedBatch {
        outcomes: vec![UpdateOutcome {
            request_kind: "complete-deletion",
            ops: ops.clone(),
            steps: vec![UpdateStep::Validate, UpdateStep::Translate],
            stats,
        }],
        ops,
        stats,
        base_version: db.version(),
        touched: ["DEPARTMENT".to_string()].into(),
    };
    let err = updater
        .commit_prepared(&schema, &mut db, prepared)
        .unwrap_err();
    assert_eq!(err.step, UpdateStep::GlobalCheck);
    assert_eq!(*err.source, Error::Rolledback(Box::new(expected)));
    assert_same_database(&snapshot, &db, "commit of a violating batch");
    assert_eq!(db.version(), snapshot.version());

    // (b) the head moved under the check's probes. A course is prepared
    // into a freshly added department; a later commit deletes that
    // department again — it has no dependents, so the head stays
    // consistent. With the conflict set not naming DEPARTMENT (a translator
    // that had not consulted it), first-committer-wins lets the batch
    // through, and only the check re-run at the head can refuse it.
    let dept = db.table("DEPARTMENT").unwrap().schema().clone();
    let fresh_dept = Tuple::new(&dept, vec!["dept-new".into()]).unwrap();
    db.apply(&DbOp::Insert {
        relation: "DEPARTMENT".into(),
        tuple: fresh_dept.clone(),
    })
    .unwrap();
    let mut prepared = updater
        .prepare_batch(&schema, &db, requests(9..10, "dept-new"))
        .unwrap();
    assert_eq!(prepared.base_version, db.version());
    assert!(prepared.touched.remove("DEPARTMENT"));
    db.apply(&DbOp::Delete {
        relation: "DEPARTMENT".into(),
        key: fresh_dept.key(&dept),
    })
    .unwrap();
    assert!(check_database(&schema, &db).unwrap().is_empty());
    let snapshot = db.clone();
    let err = updater
        .commit_prepared(&schema, &mut db, prepared)
        .unwrap_err();
    assert_eq!(err.step, UpdateStep::GlobalCheck);
    assert!(
        matches!(&*err.source, Error::Rolledback(inner) if inner.to_string().contains(
            "1 structural violation(s), first: dangling reference COURSES('Z-9')"
        )),
        "{err}"
    );
    assert_same_database(&snapshot, &db, "commit under a moved head");
    assert_eq!(db.version(), snapshot.version());
}

/// Index probes and fallback scans of one `PREPARE` and of one `COMMIT`.
type CycleCost = ((u64, u64), (u64, u64));

/// One VO-R, one VO-CD and one VO-CI on ω at `scale`, each as its own
/// `Session::prepare_batch` + `Penguin::commit_prepared` cycle.
fn omega_cycle_costs(scale: i64) -> Vec<CycleCost> {
    let (schema, db) = university_scaled(scale, 42);
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
    let courses = p.database().table("COURSES").unwrap().schema().clone();

    // department 0 is seeded first, so these instances are the same rows at
    // every scale
    let retitled = p.instance_by_key("omega", &Key::single("C0-0")).unwrap();
    let mut revised = retitled.clone();
    revised.root.tuple = revised
        .root
        .tuple
        .with_named(&courses, "title", "revised".into())
        .unwrap();
    let dropped = p.instance_by_key("omega", &Key::single("C0-1")).unwrap();
    let requests = [
        UpdateRequest::Replacement {
            old: retitled,
            new: revised,
        },
        UpdateRequest::CompleteDeletion(dropped.clone()),
        UpdateRequest::CompleteInsertion(dropped),
    ];

    let cost = |taken: trace::Capture| {
        let count = |name| taken.count(name);
        (
            count("relational.index_probes"),
            count("relational.fallback_scans"),
        )
    };
    let mut costs = Vec::new();
    for request in requests {
        let session = p.session();
        let (prepared, prepare) =
            trace::capture(|| session.prepare_batch("omega", vec![request]).unwrap());
        assert!(!prepared.ops.is_empty());
        let (_, commit) = trace::capture(|| p.commit_prepared("omega", prepared).unwrap());
        costs.push((cost(prepare), cost(commit)));
    }
    assert!(p.check_consistency().unwrap().is_empty());
    costs
}

#[test]
fn update_cycle_cost_does_not_grow_with_the_database() {
    let small = omega_cycle_costs(2);
    let large = omega_cycle_costs(8);
    for (kind, ((prepare_s, commit_s), (prepare_l, commit_l))) in ["VO-R", "VO-CD", "VO-CI"]
        .iter()
        .zip(small.iter().zip(&large))
    {
        // a parent is found through its primary key and ω's registration
        // indexed every dependent end these updates look down: no lookup
        // of a cycle degrades to a scan
        for (_, scans) in [prepare_s, commit_s, prepare_l, commit_l] {
            assert_eq!(*scans, 0, "{kind}: S=2 {small:?}, S=8 {large:?}");
        }
        // and a 4× database costs not one probe more
        assert_eq!(
            commit_s, commit_l,
            "{kind} commit: S=2 {small:?}, S=8 {large:?}"
        );
        // (debug builds cross-check every plan against the full scan, whose
        // probes do grow — by design, and only there)
        if !cfg!(debug_assertions) {
            assert_eq!(
                prepare_s, prepare_l,
                "{kind} prepare: S=2 {small:?}, S=8 {large:?}"
            );
        }
    }
}
