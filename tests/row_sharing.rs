//! A row is allocated once. `Tuple` is a shared immutable `Arc<[Value]>`,
//! so binding a row into an instance, laying it on an overlay, installing
//! it into a table, journaling it and copying a table on write all copy a
//! pointer — and the op list a commit is handed moves into the journal as
//! the allocation it is. These tests show the mechanism without a clock,
//! through [`Tuple::ptr_eq`]: which rows are the *same allocation* after
//! each of those hops — and, for copy-on-write, exactly which are not.

use penguin_vo::obs::trace;
use penguin_vo::prelude::*;

const OMEGA_RELATIONS: [&str; 4] = ["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"];

/// Every tuple bound in the instance is the allocation `db` stores for it.
fn assert_binds_stored_rows(object: &ViewObject, db: &Database, inst: &VoInstance) {
    for bound in std::iter::once(&inst.root).chain(inst.bound()) {
        let table = db.table(&object.node(bound.node).relation).unwrap();
        let key = bound.key(table.schema());
        let stored = table.get(&key).expect("a bound tuple is a stored tuple");
        assert!(
            bound.ptr_eq(stored),
            "{}{key} was copied into the instance",
            table.schema().name()
        );
    }
}

/// A clone of an instance is a new list of the same rows.
fn assert_clone_shares_rows(inst: &VoInstance) {
    let copy = inst.clone();
    assert_eq!(&copy, inst);
    assert!(copy.root.ptr_eq(&inst.root));
    assert_eq!(copy.bound().len(), inst.bound().len());
    for (a, b) in copy.bound().iter().zip(inst.bound()) {
        assert!(a.ptr_eq(b), "the clone copied a row of node {}", a.node);
    }
}

fn omega_system(scale: i64) -> Penguin {
    let (schema, db) = university_scaled(scale, 42);
    let mut p = Penguin::with_database(schema, db);
    p.define_object("omega", "COURSES", &OMEGA_RELATIONS)
        .unwrap();
    let omega = p.object("omega").unwrap().object.clone();
    p.install_translator("omega", Translator::permissive(&omega))
        .unwrap();
    p
}

#[test]
fn instantiation_binds_the_tables_rows() {
    let (schema, mut db) = university_scaled(4, 42);
    // ω has one-step edges only; ω′ reaches STUDENT and FACULTY over
    // contracted ones, so the de-duplicating path is covered too
    let objects = [
        generate_omega(&schema).unwrap(),
        generate_omega_prime(&schema).unwrap(),
    ];
    // hash builds first, then index probes
    for indexed in [false, true] {
        for object in &objects {
            if indexed {
                let plan = plan_object(&schema, object, &db).unwrap();
                for (rel, attrs) in plan.required_indexes() {
                    db.ensure_index(&rel, &attrs).unwrap();
                }
            }
            let bind = || {
                let instances = instantiate_all(&schema, object, &db).unwrap();
                assert!(!instances.is_empty());
                for inst in &instances {
                    assert_binds_stored_rows(object, &db, inst);
                    assert_clone_shares_rows(inst);
                }
            };
            bind();
            // four threads at once bind the same rows of one `&Database`,
            // as the net server's concurrent readers do
            std::thread::scope(|s| {
                for _ in 0..4 {
                    s.spawn(bind);
                }
            });
        }
    }

    // the facade's readers are the same engine: head, pinned session, keyed
    let p = omega_system(2);
    let omega = &p.object("omega").unwrap().object;
    let session = p.session();
    let keyed = p.instance_by_key("omega", &Key::single("C0-0")).unwrap();
    for inst in p
        .instantiate_all("omega")
        .unwrap()
        .iter()
        .chain(&session.instantiate_all("omega").unwrap())
        .chain([&keyed])
    {
        assert_binds_stored_rows(omega, p.database(), inst);
    }
}

#[test]
fn commit_beside_a_pinned_session_copies_pointers_except_the_written_row() {
    let mut p = omega_system(4);
    let courses = p.database().table("COURSES").unwrap().schema().clone();
    let target = Key::single("C1-2");

    let pinned = p.session();
    let old = pinned.instance_by_key("omega", &target).unwrap();
    let mut new = old.clone();
    new.root.tuple = old
        .root
        .tuple
        .with_named(&courses, "title", "retitled".into())
        .unwrap();
    let prepared = pinned
        .prepare_batch("omega", UpdateBatch::new().replace(old.clone(), new))
        .unwrap();
    assert_eq!(prepared.ops.len(), 1, "a non-key VO-R is one replace");
    // the session is still pinned, so this commit copies COURSES on write
    p.commit_prepared("omega", prepared).unwrap();

    let (head, snapshot) = (p.database(), pinned.database());
    assert!(head.version() > snapshot.version());
    let mut copied = Vec::new();
    for rel in head.relation_names() {
        let before = snapshot.table(rel).unwrap();
        let after = head.table(rel).unwrap();
        assert_eq!(before.len(), after.len());
        for row in after.scan() {
            let key = row.key(after.schema());
            if !row.ptr_eq(before.get(&key).expect("no key moved")) {
                copied.push((rel, key));
            }
        }
    }
    assert_eq!(copied, [("COURSES", target.clone())]);
    // and the reader beside the writer still sees what it pinned
    assert_eq!(pinned.instance_by_key("omega", &target).unwrap(), old);
    assert_eq!(
        head.table("COURSES").unwrap().get(&target).unwrap().get(1),
        &Value::text("retitled")
    );
}

/// Most entries a table chunk holds: twice the 64 a bulk build cuts.
const LARGEST_CHUNK: u64 = 128;

/// A one-row VO-R committed beside a pinned session copies the chunk of
/// `COURSES` the row lands in — counted entry by entry, and the same count
/// whether the relation holds 64 courses or 512.
#[test]
fn commit_beside_a_pinned_session_copies_one_chunk_whatever_the_scale() {
    let copied = |scale| {
        let mut p = omega_system(scale);
        let courses = p.database().table("COURSES").unwrap().schema().clone();
        let pinned = p.session();
        let old = pinned
            .instance_by_key("omega", &Key::single("C1-2"))
            .unwrap();
        let mut new = old.clone();
        new.root.tuple = (old.root.tuple)
            .with_named(&courses, "title", "retitled".into())
            .unwrap();
        let prepared = pinned
            .prepare_batch("omega", UpdateBatch::new().replace(old, new))
            .unwrap();
        assert_eq!(prepared.ops.len(), 1, "a non-key VO-R is one replace");
        let (_, taken) = trace::capture(|| p.commit_prepared("omega", prepared).unwrap());
        let copied = taken.count("relational.cow_rows");
        // the install span says the same
        let install = (taken.spans.iter())
            .find(|span| span.name == "relational.install")
            .expect("the commit installs");
        assert_eq!(install.field("cow_rows"), Some(&Json::Int(copied as i64)));
        copied
    };
    let (small, large) = (copied(8), copied(64));
    assert!(
        (1..=LARGEST_CHUNK).contains(&small),
        "{small} entries copied"
    );
    assert_eq!(small, large, "the copy grew with the relation");
}

#[test]
fn a_non_key_replacement_rebuilds_nothing_but_the_pivot() {
    let mut p = omega_system(2);
    let courses = p.database().table("COURSES").unwrap().schema().clone();
    let target = Key::single("C1-3");
    let old = p.instance_by_key("omega", &target).unwrap();
    let mut new = old.clone();
    new.root.tuple = old
        .root
        .tuple
        .with_named(&courses, "title", "retitled".into())
        .unwrap();
    assert!(new.size() > 5, "the instance has children to leave alone");

    // step 2 finds every child connected already and keeps each as the
    // allocation it is, so translation compares them by pointer
    let omega = p.object("omega").unwrap().object.clone();
    let propagated = propagate_links(p.schema(), &omega, new.clone()).unwrap();
    for id in 0..omega.nodes().len() {
        for (was, is) in new.tuples_of(id).iter().zip(propagated.tuples_of(id)) {
            assert!(was.ptr_eq(is), "propagation rebuilt a tuple of node {id}");
        }
    }

    let outcome = p
        .apply_batch("omega", UpdateBatch::new().replace(old, new.clone()))
        .unwrap();
    assert_eq!(outcome.total_ops, 1, "a non-key VO-R is one replace");
    // the replacing pivot is the stored row, and every other tuple of the
    // replacing instance still is the row the table holds
    assert_binds_stored_rows(&omega, p.database(), &new);
}

/// Advance `cursor` past everything committed so far.
fn drain(p: &mut Penguin, cursor: JournalCursor) {
    p.with_database_mut(|db| {
        let n = db.journal_lag(cursor).unwrap() as usize;
        db.journal_advance(cursor, n).unwrap();
    })
    .unwrap();
}

#[test]
fn an_inserted_row_is_one_allocation_from_request_to_journal() {
    let mut p = omega_system(2);
    let cursor = p.with_database_mut(Database::journal_subscribe).unwrap();
    let instance = p.instance_by_key("omega", &Key::single("C0-1")).unwrap();
    p.delete_instance("omega", instance.clone()).unwrap();
    drain(&mut p, cursor);

    // the request's tuples were rows of a table version that is gone now;
    // inserting them back must store *them*, not copies
    let outcome = p.insert_instance("omega", instance.clone()).unwrap();
    let read = p.database().journal_peek(cursor).unwrap();
    assert_eq!(read.len(), 1);
    let journaled = &read[0];
    assert_eq!(journaled.ops.len(), outcome.ops.len());
    let mut inserted = 0;
    for (op, logged) in outcome.ops.iter().zip(&journaled.ops) {
        let (
            DbOp::Insert { relation, tuple },
            DbOp::Insert {
                tuple: logged_row, ..
            },
        ) = (op, logged)
        else {
            panic!("a complete insertion of a deleted instance only inserts: {op}");
        };
        let table = p.database().table(relation).unwrap();
        let stored = table.get(&tuple.key(table.schema())).unwrap();
        assert!(tuple.ptr_eq(stored), "{relation}: the table copied the row");
        assert!(
            tuple.ptr_eq(logged_row),
            "{relation}: the journal copied the row"
        );
        inserted += 1;
    }
    assert!(inserted > 1, "the pivot and its owned GRADES");
    // the entry's post-images are the same rows again, one per inserted key
    let mut imaged = 0;
    for (relation, images) in &journaled.images {
        let table = p.database().table(relation).unwrap();
        for image in images {
            assert!(image.before.is_none(), "{relation}: nothing was displaced");
            let after = image.after.as_ref().unwrap();
            assert!(
                after.ptr_eq(table.get(&image.key(table.schema())).unwrap()),
                "{relation}: the journal's post-image is a copy"
            );
            imaged += 1;
        }
    }
    assert_eq!(imaged, inserted);
    // the request's own pivot tuple is the stored row: nothing between the
    // caller and the table rebuilt it to validate it
    let stored_pivot = p
        .database()
        .table("COURSES")
        .unwrap()
        .get(&Key::single("C0-1"))
        .unwrap();
    assert!(instance.root.tuple.ptr_eq(stored_pivot));

    // prepared on a session, committed at the head: the op list itself —
    // not just its rows — is what the journal's consumers read
    p.delete_instance("omega", instance.clone()).unwrap();
    drain(&mut p, cursor);
    let prepared = p
        .session()
        .prepare_batch("omega", UpdateBatch::new().insert(instance.clone()))
        .unwrap();
    let handed = prepared.ops.as_ptr();
    assert_eq!(prepared.ops.len(), outcome.ops.len());
    p.commit_prepared("omega", prepared).unwrap();
    let read = p.database().journal_peek(cursor).unwrap();
    assert_eq!(read.len(), 1);
    assert!(
        std::ptr::eq(read[0].ops.as_ptr(), handed),
        "the journal copied the op list commit_prepared was handed"
    );
    let DbOp::Insert { tuple: logged, .. } = &read[0].ops[0] else {
        panic!("VO-CI starts with the pivot's insert");
    };
    assert!(instance.root.tuple.ptr_eq(logged));
}
