//! The definition-time registry: access plans are built when an object is
//! registered (and again only when the database's structure moves), every
//! planned read — head or session — is served by the registered plan, and
//! sessions share the registry copy-on-write.
//!
//! The `penguin.plan_cache.{hits, misses}` counts are read from a
//! `trace::capture` of the calls, so they are exact while other tests run
//! beside these.

use penguin_vo::obs::trace::{self, Capture};
use penguin_vo::prelude::*;

/// Reads served by a registered plan, and plans built, in `taken`.
fn cache(taken: &Capture) -> (u64, u64) {
    let count = |name| taken.count(name);
    (
        count("penguin.plan_cache.hits"),
        count("penguin.plan_cache.misses"),
    )
}

fn system() -> Penguin {
    let mut p = Penguin::new(university_schema());
    p.with_database_mut(seed_figure4).unwrap().unwrap();
    p.define_object(
        "omega",
        "COURSES",
        &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
    )
    .unwrap();
    p
}

#[test]
fn reads_after_registration_are_hits_and_build_nothing() {
    const N: u64 = 7;
    let mut p = system();
    let session = p.session();

    let (head, taken) = trace::capture(|| {
        (0..N)
            .map(|_| p.instantiate_all("omega").unwrap())
            .collect::<Vec<_>>()
    });
    assert_eq!(cache(&taken), (N, 0));
    let (pinned, taken) = trace::capture(|| {
        (0..N)
            .map(|_| session.instantiate_all("omega").unwrap())
            .collect::<Vec<_>>()
    });
    assert_eq!(cache(&taken), (N, 0));
    assert_eq!(head, pinned);

    // a GET is a planned read too, on either facade
    let q = VoQuery::new().with_predicate(0, Expr::attr("level").eq(Expr::lit("graduate")));
    let ((), taken) = trace::capture(|| {
        assert_eq!(
            p.query("omega", &q).unwrap(),
            session.query("omega", &q).unwrap()
        )
    });
    assert_eq!(cache(&taken), (2, 0));
    let (get, taken) = trace::capture(|| session.voql("GET omega").unwrap());
    assert!(matches!(get, VoqlOutcome::Instances(is) if is == head[0]));
    assert_eq!(cache(&taken), (1, 0));

    // borrowing the database without moving its structure builds nothing
    let ((), taken) = trace::capture(|| {
        p.with_database_mut(|_| ()).unwrap();
        p.with_database_mut(|db| db.insert("DEPARTMENT", vec!["Mathematics".into()]))
            .unwrap()
            .unwrap();
        p.sql("INSERT INTO GRADES VALUES ('CS101', 9, 'C')")
            .unwrap();
        assert_eq!(p.instantiate_all("omega").unwrap().len(), 3);
    });
    assert_eq!(cache(&taken), (1, 0), "no read and no data change plans");
}

/// Each `&mut` entry point that can move the structure epoch leaves the
/// head reading through a current plan, and a session pinned before the
/// move still answers at its own version over its own snapshot.
#[test]
fn structure_moves_replan_the_head_and_leave_pinned_sessions_alone() {
    type Move = fn(&mut Penguin);
    let moves: [(&str, Move); 3] = [
        ("with_database_mut + ensure_index", |p| {
            let (created, taken) = trace::capture(|| {
                p.with_database_mut(|db| db.ensure_index("GRADES", &["ssn".to_string()]))
            });
            assert!(created.unwrap().unwrap());
            assert_eq!(cache(&taken).1, 1, "the one object is re-planned once");
        }),
        ("materialize provisioning reverse indexes", |p| {
            assert_eq!(p.materialize("omega").unwrap().len(), 3);
            // the view was built after the re-plan, at the epoch it reads
            assert!(!p.refresh("omega").unwrap().full_rebuild);
        }),
        ("a second register_object provisioning its own", |p| {
            p.define_object("depts", "DEPARTMENT", &["COURSES"])
                .unwrap();
        }),
    ];
    for (what, structure_move) in moves {
        let mut p = system();
        let before = p.session();
        let (version, epoch) = (before.version(), p.database().structure_epoch());
        let seen = before.instantiate_all("omega").unwrap();

        structure_move(&mut p);
        assert!(p.database().structure_epoch() > epoch, "{what}");
        p.sql("INSERT INTO GRADES VALUES ('CS101', 9, 'C')")
            .unwrap();

        for name in p.object_names() {
            let object = &p.object(name).unwrap().object;
            assert_eq!(
                p.instantiate_all(name).unwrap(),
                instantiate_all_legacy(p.schema(), object, p.database()).unwrap(),
                "{what}: head read of {name}"
            );
        }
        assert_eq!(before.version(), version, "{what}");
        assert_eq!(before.database().structure_epoch(), epoch, "{what}");
        assert_eq!(before.instantiate_all("omega").unwrap(), seen, "{what}");
        let omega = &before.object("omega").unwrap().object;
        assert_eq!(
            seen,
            instantiate_all_legacy(before.schema(), omega, before.database()).unwrap(),
            "{what}: pinned read"
        );
        // a session pinned after the move shares the re-planned registry
        let after = p.session();
        assert_eq!(
            after.instantiate_all("omega").unwrap(),
            p.instantiate_all("omega").unwrap(),
            "{what}"
        );
    }
}

/// An object whose relation was dropped through the borrow cannot be
/// re-planned: its reads are refused with a typed error instead of
/// running a stale plan, and every other object keeps working.
#[test]
fn an_object_that_cannot_be_replanned_is_refused_not_run_stale() {
    let mut p = system();
    p.define_object("students", "STUDENT", &[]).unwrap();
    let before = p.session();
    p.with_database_mut(|db| db.drop_relation("CURRICULUM"))
        .unwrap()
        .unwrap();
    let err = p.instantiate_all("omega").unwrap_err();
    assert!(matches!(err, Error::InvalidPlan(_)), "{err}");
    assert!(matches!(p.materialize("omega"), Err(Error::InvalidPlan(_))));
    assert_eq!(p.instantiate_all("students").unwrap().len(), 10);
    p.define_object("depts", "DEPARTMENT", &["COURSES"])
        .unwrap();
    assert_eq!(p.instantiate_all("depts").unwrap().len(), 2);
    assert_eq!(before.instantiate_all("omega").unwrap().len(), 3);
}

#[test]
fn sessions_share_the_registry_copy_on_write() {
    let mut p = system();
    let before = p.session();
    p.define_object("students", "STUDENT", &[]).unwrap();
    let obj = p.object("omega").unwrap().object.clone();
    p.install_translator("omega", Translator::permissive(&obj))
        .unwrap();
    let after = p.session();

    // pinned before the definition changes: sees neither
    assert_eq!(before.object_names(), vec!["omega"]);
    assert!(before.object("students").is_err());
    assert!(before.voql("GET students").is_err());
    assert!(before.object("omega").unwrap().updater.is_none());
    let inst = before
        .instance_by_key("omega", &Key::single("EE282"))
        .unwrap();
    let err = before
        .prepare_batch("omega", vec![UpdateRequest::CompleteDeletion(inst.clone())])
        .unwrap_err();
    assert_eq!(err.step, UpdateStep::Validate);

    // pinned after: sees both, and so does a clone of it
    for session in [&after, &after.clone()] {
        assert_eq!(session.object_names(), vec!["omega", "students"]);
        assert_eq!(session.instantiate_all("students").unwrap().len(), 10);
        assert!(session.object("omega").unwrap().updater.is_some());
        session
            .prepare_batch("omega", vec![UpdateRequest::CompleteDeletion(inst.clone())])
            .unwrap();
    }
}
