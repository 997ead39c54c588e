//! MVCC serializability: concurrent readers on pinned snapshot sessions
//! must observe exactly the database state their session was pinned at —
//! byte-equal to a *serial* re-instantiation of that state — while a
//! writer keeps committing random batches. Plus the first-committer-wins
//! conflict protocol: of two batches prepared against the same pinned
//! version and touching the same relation, the second to commit is
//! rejected with a typed [`Error::Conflict`] at the `commit` step, while
//! batches over disjoint relations both commit.

use penguin_vo::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Live keys the random workload tracks so every generated transaction
/// is valid by construction (`apply_all` must never fail).
struct State {
    courses: Vec<String>,
    grades: Vec<(String, i64)>,
    next_course: u32,
}

impl State {
    fn figure4() -> State {
        let mut grades = Vec::new();
        for ssn in 1..=3 {
            grades.push(("CS345".to_owned(), ssn));
        }
        for ssn in 1..=8 {
            grades.push(("CS101".to_owned(), ssn));
        }
        for ssn in 1..=6 {
            grades.push(("EE282".to_owned(), ssn));
        }
        State {
            courses: ["CS345", "CS101", "EE282"]
                .iter()
                .map(|s| (*s).to_owned())
                .collect(),
            grades,
            next_course: 0,
        }
    }
}

fn tup(db: &Database, rel: &str, values: Vec<Value>) -> Tuple {
    Tuple::new(db.table(rel).unwrap().schema(), values).unwrap()
}

/// One random committed batch (1–3 valid ops), updating `st` in place.
fn random_batch(rng: &mut SmallRng, st: &mut State, db: &Database) -> Vec<DbOp> {
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(1..4) {
        match rng.gen_range(0..6) {
            0 => {
                // new course under an existing department
                let id = format!("C{:03}", st.next_course);
                st.next_course += 1;
                let t = tup(
                    db,
                    "COURSES",
                    vec![
                        id.clone().into(),
                        format!("course {id}").into(),
                        (*rng.choose(&["graduate", "undergraduate"])).into(),
                        (*rng.choose(&["Computer Science", "Electrical Engineering"])).into(),
                    ],
                );
                ops.push(DbOp::Insert {
                    relation: "COURSES".into(),
                    tuple: t,
                });
                st.courses.push(id);
            }
            1 | 2 => {
                // enroll an existing student in an existing course
                let course = rng.choose(&st.courses).clone();
                let ssn = rng.gen_range_i64(1..11);
                if st.grades.iter().any(|(c, s)| *c == course && *s == ssn) {
                    continue;
                }
                let t = tup(
                    db,
                    "GRADES",
                    vec![
                        course.as_str().into(),
                        ssn.into(),
                        (*rng.choose(&["A", "B", "C"])).into(),
                    ],
                );
                ops.push(DbOp::Insert {
                    relation: "GRADES".into(),
                    tuple: t,
                });
                st.grades.push((course, ssn));
            }
            3 | 4 => {
                // change a grade in place (non-key replace)
                if st.grades.is_empty() {
                    continue;
                }
                let (course, ssn) = rng.choose(&st.grades).clone();
                let key = Key::new(vec![course.as_str().into(), ssn.into()]);
                let t = tup(
                    db,
                    "GRADES",
                    vec![course.as_str().into(), ssn.into(), "A+".into()],
                );
                ops.push(DbOp::Replace {
                    relation: "GRADES".into(),
                    old_key: key,
                    tuple: t,
                });
            }
            _ => {
                // withdraw an enrollment
                if st.grades.is_empty() {
                    continue;
                }
                let i = rng.gen_range(0..st.grades.len());
                let (course, ssn) = st.grades.remove(i);
                ops.push(DbOp::Delete {
                    relation: "GRADES".into(),
                    key: Key::new(vec![course.as_str().into(), ssn.into()]),
                });
            }
        }
    }
    ops
}

fn oracle_system() -> Penguin {
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

/// The oracle proper: N reader threads race over sessions the writer
/// pins after each commit; afterwards every observation is compared
/// against a serial re-instantiation (the sequential legacy engine) of
/// the database clone recorded at the same version.
fn run_oracle(seed: u64) {
    const ROUNDS: usize = 12;
    const READERS: usize = 3;

    let mut p = oracle_system();
    let object = p.object("omega").unwrap().object.clone();

    // (version, database clone, pinned session) after each commit —
    // clones are cheap now: commits copy-on-write only touched tables
    let history: Mutex<Vec<(u64, Database, Arc<Session>)>> = Mutex::new(Vec::new());
    {
        let s0 = p.session();
        history
            .lock()
            .unwrap()
            .push((s0.version(), p.database().clone(), Arc::new(s0)));
    }
    let done = AtomicBool::new(false);

    let observations: Vec<(u64, Vec<VoInstance>)> = std::thread::scope(|scope| {
        let readers: Vec<_> = (0..READERS)
            .map(|r| {
                let history = &history;
                let done = &done;
                scope.spawn(move || {
                    let mut rng = SmallRng::seed_from_u64(seed ^ (r as u64).wrapping_mul(0x9e37));
                    let mut seen = Vec::new();
                    loop {
                        let picked = {
                            let h = history.lock().unwrap();
                            let i = rng.gen_range(0..h.len());
                            Arc::clone(&h[i].2)
                        };
                        seen.push((picked.version(), picked.instantiate_all("omega").unwrap()));
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                    }
                    seen
                })
            })
            .collect();

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut st = State::figure4();
        for _ in 0..ROUNDS {
            let ops = {
                let db = p.database();
                random_batch(&mut rng, &mut st, db)
            };
            if ops.is_empty() {
                continue;
            }
            p.with_database_mut(|db| db.apply_all(&ops))
                .unwrap()
                .unwrap();
            let session = p.session();
            history.lock().unwrap().push((
                session.version(),
                p.database().clone(),
                Arc::new(session),
            ));
        }
        done.store(true, Ordering::Release);
        readers
            .into_iter()
            .flat_map(|r| r.join().unwrap())
            .collect()
    });

    // serial oracle: re-instantiate every recorded version sequentially
    let history = history.into_inner().unwrap();
    assert!(history.len() > 1, "the writer must have committed");
    let schema = p.schema();
    let expected: std::collections::BTreeMap<u64, Vec<VoInstance>> = history
        .iter()
        .map(|(v, db, _)| (*v, instantiate_all_legacy(schema, &object, db).unwrap()))
        .collect();
    assert!(!observations.is_empty());
    for (version, seen) in &observations {
        assert_eq!(
            seen, &expected[version],
            "seed {seed}: a reader pinned at version {version} diverged from \
             serial re-instantiation"
        );
    }
    // and the pinned sessions themselves still answer identically now
    // that all writing is over
    for (v, _, session) in &history {
        assert_eq!(session.version(), *v);
        assert_eq!(&session.instantiate_all("omega").unwrap(), &expected[v]);
    }
}

#[test]
fn concurrent_readers_match_serial_reinstantiation_across_seeds() {
    for seed in [11, 23, 42, 77, 1234] {
        run_oracle(seed);
    }
}

/// The registry is shared copy-on-write: however many sessions are pinned
/// between definition changes, a change at the head never reaches one of
/// them.
#[test]
fn a_thousand_pins_between_definition_changes_never_move_an_older_session() {
    let mut p = oracle_system();
    let oldest = p.session();
    let seen = oldest.instantiate_all("omega").unwrap();
    let unchanged = |s: &Session| {
        s.object_names() == ["omega"]
            && s.object("omega").unwrap().updater.is_none()
            && s.instantiate_all("omega").unwrap() == seen
    };

    // every pin still alive at the change: the head must copy, not mutate
    let pins: Vec<Session> = (0..1000).map(|_| p.session()).collect();
    p.define_object("students", "STUDENT", &[]).unwrap();
    assert!(unchanged(&oldest));
    assert!(pins.iter().all(unchanged));

    // every pin but the oldest gone again at the next change
    drop(pins);
    for _ in 0..1000 {
        p.session();
    }
    let obj = p.object("omega").unwrap().object.clone();
    p.install_translator("omega", Translator::permissive(&obj))
        .unwrap();
    assert!(unchanged(&oldest));

    let newest = p.session();
    assert_eq!(newest.object_names(), ["omega", "students"]);
    assert!(newest.object("omega").unwrap().updater.is_some());
    assert_eq!(newest.instantiate_all("omega").unwrap(), seen);
}

// ------------------------------------------------- first-committer-wins --

fn conflict_system() -> Penguin {
    let mut p = oracle_system();
    // pivot-only objects over disjoint relations
    p.define_object("students", "STUDENT", &[]).unwrap();
    p.define_object("depts", "DEPARTMENT", &[]).unwrap();
    for name in ["omega", "students", "depts"] {
        let obj = p.object(name).unwrap().object.clone();
        p.install_translator(name, Translator::permissive(&obj))
            .unwrap();
    }
    // a department and students that nothing references, so deleting
    // them is structurally sound
    p.sql("INSERT INTO DEPARTMENT VALUES ('Mathematics')")
        .unwrap();
    p
}

#[test]
fn second_committer_on_same_relation_conflicts() {
    let mut p = conflict_system();
    let s1 = p.session();
    let s2 = p.session();
    assert_eq!(s1.version(), s2.version());

    let del9 = s1
        .prepare_batch(
            "students",
            vec![UpdateRequest::CompleteDeletion(
                s1.instance_by_key("students", &Key::single(9)).unwrap(),
            )],
        )
        .unwrap();
    let del10 = s2
        .prepare_batch(
            "students",
            vec![UpdateRequest::CompleteDeletion(
                s2.instance_by_key("students", &Key::single(10)).unwrap(),
            )],
        )
        .unwrap();
    assert!(del9.touched.contains("STUDENT"));

    p.commit_prepared("students", del9).unwrap();
    let err = p.commit_prepared("students", del10).unwrap_err();
    assert_eq!(err.step, UpdateStep::Commit);
    match *err.source {
        Error::Conflict {
            ref relation,
            base_version,
            head_version,
        } => {
            assert_eq!(relation, "STUDENT");
            assert_eq!(base_version, s2.version());
            assert!(head_version > base_version);
        }
        ref other => panic!("expected Error::Conflict, got {other:?}"),
    }

    // retry protocol: re-prepare against a fresh session, then commit
    let s3 = p.session();
    let retry = s3
        .prepare_batch(
            "students",
            vec![UpdateRequest::CompleteDeletion(
                s3.instance_by_key("students", &Key::single(10)).unwrap(),
            )],
        )
        .unwrap();
    p.commit_prepared("students", retry).unwrap();
    assert!(p
        .database()
        .table("STUDENT")
        .unwrap()
        .get(&Key::single(10))
        .is_none());
    assert!(p.check_consistency().unwrap().is_empty());
}

#[test]
fn disjoint_relations_commit_without_conflict() {
    let mut p = conflict_system();
    let s1 = p.session();
    let s2 = p.session();

    let del_student = s1
        .prepare_batch(
            "students",
            vec![UpdateRequest::CompleteDeletion(
                s1.instance_by_key("students", &Key::single(10)).unwrap(),
            )],
        )
        .unwrap();
    let del_dept = s2
        .prepare_batch(
            "depts",
            vec![UpdateRequest::CompleteDeletion(
                s2.instance_by_key("depts", &Key::single("Mathematics"))
                    .unwrap(),
            )],
        )
        .unwrap();
    assert!(!del_dept.touched.contains("STUDENT"));

    p.commit_prepared("students", del_student).unwrap();
    // touches only DEPARTMENT, unchanged since the pin → no conflict
    p.commit_prepared("depts", del_dept).unwrap();
    assert!(p
        .database()
        .table("DEPARTMENT")
        .unwrap()
        .get(&Key::single("Mathematics"))
        .is_none());
    assert!(p.check_consistency().unwrap().is_empty());
}

#[test]
fn stale_prepare_against_object_pipeline_commits_conflicts_too() {
    let mut p = conflict_system();
    let conflicts_before = vo_obs::metrics::counter("relational.conflicts").get();
    let session = p.session();
    let prepared = session
        .prepare_batch(
            "omega",
            vec![UpdateRequest::CompleteDeletion(
                session
                    .instance_by_key("omega", &Key::single("EE282"))
                    .unwrap(),
            )],
        )
        .unwrap();

    // a plain facade commit (not commit_prepared) also moves the head
    p.sql("INSERT INTO GRADES VALUES ('CS101', 9, 'C')")
        .unwrap();

    let err = p.commit_prepared("omega", prepared).unwrap_err();
    assert_eq!(err.step, UpdateStep::Commit);
    assert!(matches!(*err.source, Error::Conflict { .. }));
    // nothing applied: EE282 still present
    assert!(p
        .database()
        .table("COURSES")
        .unwrap()
        .get(&Key::single("EE282"))
        .is_some());

    // the conflict counter saw it
    let conflicts_after = vo_obs::metrics::counter("relational.conflicts").get();
    assert!(conflicts_after > conflicts_before);
}
