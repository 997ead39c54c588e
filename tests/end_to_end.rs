//! Workspace integration tests: full-stack scenarios spanning every crate
//! (relational engine → structural model → view objects → PENGUIN facade,
//! with the Keller baseline alongside).

use penguin_vo::prelude::*;

/// The complete paper walkthrough: Figure 1 schema → Figure 2 object →
/// Figure 4 query → §6 dialog → §6 worked replacement.
#[test]
fn paper_walkthrough() {
    let (schema, mut db) = university_database();
    assert_eq!(schema.catalog().len(), 8);

    let omega = generate_omega(&schema).unwrap();
    assert_eq!(omega.complexity(), 5);

    let student = omega
        .nodes()
        .iter()
        .find(|n| n.relation == "STUDENT")
        .unwrap()
        .id;
    let hits = VoQuery::new()
        .with_predicate(0, Expr::attr("level").eq(Expr::lit("graduate")))
        .with_count(student, CmpOp::Lt, 5)
        .execute(&schema, &omega, &db)
        .unwrap();
    assert_eq!(hits.len(), 1);
    let old = hits.into_iter().next().unwrap();
    assert_eq!(old.key(&schema, &omega).unwrap(), Key::single("CS345"));

    let analysis = analyze(&schema, &omega).unwrap();
    let mut responder = paper_dialog_responder();
    let (translator, transcript) =
        choose_translator(&schema, &omega, &analysis, &mut responder).unwrap();
    assert!(transcript.len() >= 16);

    let updater = ViewObjectUpdater::new(&schema, omega, translator).unwrap();
    let courses = schema.catalog().relation("COURSES").unwrap();
    let mut new = old.clone();
    new.root.tuple = new
        .root
        .tuple
        .with_named(courses, "course_id", "EES345".into())
        .unwrap()
        .with_named(courses, "dept_name", "Engineering Economic Systems".into())
        .unwrap();
    let ops = updater.replace(&schema, &mut db, old, new).unwrap();
    assert!(ops.iter().any(|op| matches!(
        op,
        DbOp::Insert { relation, .. } if relation == "DEPARTMENT"
    )));
    assert!(check_database(&schema, &db).unwrap().is_empty());
    assert!(db
        .table("COURSES")
        .unwrap()
        .contains_key(&Key::single("EES345")));
}

/// The facade runs the same walkthrough through VOQL and the registry.
#[test]
fn penguin_facade_walkthrough() {
    let (schema, db) = university_database();
    let mut penguin = Penguin::with_database(schema, db);
    penguin
        .define_object(
            "omega",
            "COURSES",
            &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
        )
        .unwrap();
    let mut responder = paper_dialog_responder();
    penguin.choose_translator("omega", &mut responder).unwrap();

    match run_voql(
        &mut penguin,
        "GET omega WHERE level = 'graduate' AND COUNT(STUDENT) < 5",
    )
    .unwrap()
    {
        VoqlOutcome::Instances(instances) => assert_eq!(instances.len(), 1),
        other => panic!("unexpected outcome {other:?}"),
    }
    match run_voql(&mut penguin, "DELETE omega WHERE course_id = 'CS101'").unwrap() {
        VoqlOutcome::Deleted(n) => assert_eq!(n, 1),
        other => panic!("unexpected outcome {other:?}"),
    }
    assert!(penguin.check_consistency().unwrap().is_empty());
    // grades of CS101 cascaded
    assert!(penguin
        .database()
        .table("GRADES")
        .unwrap()
        .keys_by_attrs(&["course_id".to_string()], &[Value::text("CS101")])
        .unwrap()
        .is_empty());
}

/// Two objects over the same pivot stay mutually consistent under updates
/// through either one (the sharing story of §3).
#[test]
fn two_objects_share_one_database() {
    let (schema, db) = university_database();
    let mut penguin = Penguin::with_database(schema, db);
    penguin
        .define_object(
            "full",
            "COURSES",
            &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
        )
        .unwrap();
    penguin
        .define_object("slim", "COURSES", &["GRADES"])
        .unwrap();
    let full_obj = penguin.object("full").unwrap().object.clone();
    let slim_obj = penguin.object("slim").unwrap().object.clone();
    penguin
        .install_translator("full", Translator::permissive(&full_obj))
        .unwrap();
    penguin
        .install_translator("slim", Translator::permissive(&slim_obj))
        .unwrap();

    // update through slim; observe through full
    let gid = slim_obj
        .nodes()
        .iter()
        .find(|n| n.relation == "GRADES")
        .unwrap()
        .id;
    let grades = penguin
        .schema()
        .catalog()
        .relation("GRADES")
        .unwrap()
        .clone();
    penguin
        .apply_partial(
            "slim",
            PartialOp::InsertChild {
                pivot_key: Key::single("EE282"),
                node: gid,
                tuple: Tuple::new(&grades, vec!["EE282".into(), 7.into(), "A".into()]).unwrap(),
            },
        )
        .unwrap();
    let inst = penguin
        .instance_by_key("full", &Key::single("EE282"))
        .unwrap();
    let full_gid = full_obj
        .nodes()
        .iter()
        .find(|n| n.relation == "GRADES")
        .unwrap()
        .id;
    assert_eq!(inst.tuples_of(full_gid).len(), 7);
    assert!(penguin.check_consistency().unwrap().is_empty());
}

/// The Keller flat baseline and the object translator agree where both are
/// defined, and the object translator strictly dominates on the cases the
/// paper calls out.
#[test]
fn keller_vs_view_object_semantics() {
    let (schema, db) = university_database();
    let view = SpjView::new("cd", "COURSES")
        .join(
            "DEPARTMENT",
            &[("COURSES", "dept_name", "DEPARTMENT", "dept_name")],
        )
        .column("COURSES", "course_id")
        .column("COURSES", "title")
        .column_as("DEPARTMENT", "dept_name", "department");
    let mut yes = |q: &vo_keller::KellerQuestion| match &q.topic {
        vo_keller::KellerTopic::DeleteFrom(rel) => rel == "COURSES",
        _ => true,
    };
    let (keller, _) = choose_keller_translator(&view, &mut yes).unwrap();

    // 1. non-key title update: identical single-op outcome
    let old_row = vec![
        Value::text("CS345"),
        Value::text("Database Systems"),
        Value::text("Computer Science"),
    ];
    let mut new_row = old_row.clone();
    new_row[1] = Value::text("Advanced Databases");
    let kops = keller.translate_update(&db, &old_row, &new_row).unwrap();
    assert_eq!(kops.len(), 1);

    let omega = generate_omega(&schema).unwrap();
    let analysis = analyze(&schema, &omega).unwrap();
    let translator = Translator::permissive(&omega);
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
    let mut new = old.clone();
    new.root.tuple = new
        .root
        .tuple
        .with_named(courses, "title", "Advanced Databases".into())
        .unwrap();
    let vops =
        translate_replacement(&schema, &omega, &analysis, &translator, &db, &old, new).unwrap();
    assert_eq!(vops.len(), 1);
    assert_eq!(kops[0], vops[0]);

    // 2. deletion: the baseline orphans grades, the object layer does not
    let mut db_k = db.clone();
    db_k.apply_all(&keller.translate_delete(&db_k, &old_row).unwrap())
        .unwrap();
    assert!(!check_database(&schema, &db_k).unwrap().is_empty());

    let mut db_v = db.clone();
    let ops =
        translate_complete_deletion(&schema, &omega, &analysis, &translator, &db_v, &old).unwrap();
    db_v.apply_all(&ops).unwrap();
    assert!(check_database(&schema, &db_v).unwrap().is_empty());
}

/// Strictness: a translator that forbids out-of-object repairs cannot
/// corrupt the database even when the request would need them.
#[test]
fn rejected_updates_leave_no_trace() {
    let (schema, db) = university_database();
    let mut penguin = Penguin::with_database(schema, db);
    penguin
        .define_object("o", "COURSES", &["GRADES", "STUDENT"])
        .unwrap();
    let obj = penguin.object("o").unwrap().object.clone();
    let mut translator = Translator::permissive(&obj);
    translator.allow_out_of_object_repairs = false;
    penguin.install_translator("o", translator).unwrap();

    let before: usize = penguin.database().total_tuples();
    // new grade for a brand-new student: needs PEOPLE repair → rejected
    let gid = obj
        .nodes()
        .iter()
        .find(|n| n.relation == "GRADES")
        .unwrap()
        .id;
    let grades = penguin
        .schema()
        .catalog()
        .relation("GRADES")
        .unwrap()
        .clone();
    let sid = obj
        .nodes()
        .iter()
        .find(|n| n.relation == "STUDENT")
        .unwrap()
        .id;
    let students = penguin
        .schema()
        .catalog()
        .relation("STUDENT")
        .unwrap()
        .clone();
    let mut old = penguin.instance_by_key("o", &Key::single("CS345")).unwrap();
    let new = {
        let mut n = old.clone();
        let g = n.attach(
            0,
            0,
            gid,
            Tuple::new(&grades, vec!["CS345".into(), 999.into(), "A".into()]).unwrap(),
        );
        n.attach(
            gid,
            g,
            sid,
            Tuple::new(&students, vec![999.into(), "MS".into()]).unwrap(),
        );
        n
    };
    old = penguin.instance_by_key("o", &Key::single("CS345")).unwrap();
    let err = penguin.replace_instance("o", old, new).unwrap_err();
    assert!(matches!(
        *err.source,
        Error::ConstraintViolation(_) | Error::Rolledback(_)
    ));
    assert_eq!(penguin.database().total_tuples(), before);
    assert!(penguin.check_consistency().unwrap().is_empty());
}

/// SQL, VOQL and the algebra agree on the same data.
#[test]
fn three_query_surfaces_agree() {
    let (schema, mut db) = university_database();
    // SQL count of graduate courses
    let sql_rows = match db
        .run_sql("SELECT course_id FROM COURSES WHERE level = 'graduate'")
        .unwrap()
    {
        SqlOutcome::Rows(r) => r.len(),
        _ => unreachable!(),
    };
    // algebra
    let plan = Plan::scan("COURSES")
        .select(Expr::attr("level").eq(Expr::lit("graduate")))
        .project(vec!["course_id".into()]);
    let alg_rows = db.execute(&plan).unwrap().len();
    // view-object query
    let omega = generate_omega(&schema).unwrap();
    let vo_rows = VoQuery::new()
        .with_predicate(0, Expr::attr("level").eq(Expr::lit("graduate")))
        .execute(&schema, &omega, &db)
        .unwrap()
        .len();
    assert_eq!(sql_rows, alg_rows);
    assert_eq!(sql_rows, vo_rows);
}

/// The hospital domain exercises a 3-level island end to end.
#[test]
fn hospital_deep_island_updates() {
    let (schema, db) = hospital_database(4);
    let mut penguin = Penguin::with_database(schema, db);
    penguin
        .define_object(
            "chart",
            "PATIENT",
            &["ADMISSION", "ORDERS", "LABRESULT", "WARD"],
        )
        .unwrap();
    let obj = penguin.object("chart").unwrap().object.clone();
    penguin
        .install_translator("chart", Translator::permissive(&obj))
        .unwrap();

    // re-key a patient: mrn flows down three levels
    let patient = penguin
        .schema()
        .catalog()
        .relation("PATIENT")
        .unwrap()
        .clone();
    let old = penguin.instance_by_key("chart", &Key::single(1)).unwrap();
    let mut new = old.clone();
    new.root.tuple = new
        .root
        .tuple
        .with_named(&patient, "mrn", 100.into())
        .unwrap();
    penguin.replace_instance("chart", old, new).unwrap();
    assert!(penguin.check_consistency().unwrap().is_empty());
    assert!(penguin
        .database()
        .table("PATIENT")
        .unwrap()
        .contains_key(&Key::single(100)));
    assert!(!penguin
        .database()
        .table("ORDERS")
        .unwrap()
        .keys_by_attrs(&["mrn".to_string()], &[Value::Int(100)])
        .unwrap()
        .is_empty());
    assert!(penguin
        .database()
        .table("ORDERS")
        .unwrap()
        .keys_by_attrs(&["mrn".to_string()], &[Value::Int(1)])
        .unwrap()
        .is_empty());
}
