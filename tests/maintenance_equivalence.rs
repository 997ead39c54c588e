//! Maintenance equivalence: a materialized view refreshed incrementally
//! from the commit journal must be **byte-identical** to re-instantiating
//! its object from scratch — under seeded random workloads mixing
//! inserts, deletes and replaces across owned (COURSES→GRADES),
//! referenced (COURSES→DEPARTMENT, COURSES→CURRICULUM) and subset
//! (PEOPLE→STUDENT/FACULTY) edges, with two views consuming the same
//! journal at different cadences, and on a persistent system where the
//! write-ahead persister is a third consumer of that journal.

use penguin_vo::prelude::*;
use std::path::PathBuf;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vo_maint_eq_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Live keys of every relation the workload touches, mirroring
/// `seed_figure4` exactly so generated operations are valid by
/// construction (`apply_all` must never fail mid-transaction).
struct State {
    courses: Vec<String>,
    students: Vec<i64>,
    faculty: Vec<i64>,
    grades: Vec<(String, i64)>,
    curriculum: Vec<(String, String)>,
    next_course: u32,
    next_ssn: i64,
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
            students: (1..=10).collect(),
            faculty: vec![20, 21],
            grades,
            curriculum: [("MS", "CS345"), ("MS", "CS101"), ("PhD", "CS345")]
                .iter()
                .map(|(d, c)| ((*d).to_owned(), (*c).to_owned()))
                .collect(),
            next_course: 0,
            next_ssn: 100,
        }
    }
}

fn tup(db: &Database, rel: &str, values: Vec<Value>) -> Tuple {
    Tuple::new(db.table(rel).unwrap().schema(), values).unwrap()
}

const DEPTS: [&str; 2] = ["Computer Science", "Electrical Engineering"];
const GRADES: [&str; 4] = ["A", "B", "C", "D"];
const DEGREES: [&str; 3] = ["MS", "PhD", "MBA"];

/// One random transaction (1–3 valid ops), updating `st` in place.
fn random_tx(rng: &mut SmallRng, st: &mut State, db: &Database) -> Vec<DbOp> {
    let mut ops = Vec::new();
    for _ in 0..rng.gen_range(1..4) {
        match rng.gen_range(0..12) {
            0 => {
                // new course (pivot insert for ω)
                let id = format!("C{:03}", st.next_course);
                st.next_course += 1;
                let t = tup(
                    db,
                    "COURSES",
                    vec![
                        id.clone().into(),
                        format!("course {id}").into(),
                        (*rng.choose(&["graduate", "undergraduate"])).into(),
                        (*rng.choose(&DEPTS)).into(),
                    ],
                );
                ops.push(DbOp::Insert {
                    relation: "COURSES".into(),
                    tuple: t,
                });
                st.courses.push(id);
            }
            1 => {
                // drop a course with everything hanging off it (pivot
                // delete + owned-edge deletes in one transaction)
                if st.courses.len() <= 1 {
                    continue;
                }
                let i = rng.gen_range(0..st.courses.len());
                let id = st.courses.remove(i);
                for (c, s) in st.grades.iter().filter(|(c, _)| *c == id) {
                    ops.push(DbOp::Delete {
                        relation: "GRADES".into(),
                        key: Key::new(vec![c.as_str().into(), (*s).into()]),
                    });
                }
                st.grades.retain(|(c, _)| *c != id);
                for (d, c) in st.curriculum.iter().filter(|(_, c)| *c == id) {
                    ops.push(DbOp::Delete {
                        relation: "CURRICULUM".into(),
                        key: Key::new(vec![d.as_str().into(), c.as_str().into()]),
                    });
                }
                st.curriculum.retain(|(_, c)| *c != id);
                ops.push(DbOp::Delete {
                    relation: "COURSES".into(),
                    key: Key::single(id.as_str()),
                });
                return ops; // the cascade is a whole transaction already
            }
            2 => {
                // retitle a course: same key, no connecting attribute
                // moves → the in-place patch path
                let id = rng.choose(&st.courses).clone();
                let old = db.table("COURSES").unwrap().get(&Key::single(id.as_str()));
                let Some(old) = old else { continue };
                let mut vals = old.values().to_vec();
                vals[1] = format!("retitled {}", rng.gen_range(0..1000)).into();
                ops.push(DbOp::Replace {
                    relation: "COURSES".into(),
                    old_key: Key::single(id.as_str()),
                    tuple: tup(db, "COURSES", vals),
                });
                return ops;
            }
            3 => {
                // move a course between departments: a connecting
                // (referenced-edge) change → recompute path
                let id = rng.choose(&st.courses).clone();
                let old = db.table("COURSES").unwrap().get(&Key::single(id.as_str()));
                let Some(old) = old else { continue };
                let mut vals = old.values().to_vec();
                vals[3] = (*rng.choose(&DEPTS)).into();
                ops.push(DbOp::Replace {
                    relation: "COURSES".into(),
                    old_key: Key::single(id.as_str()),
                    tuple: tup(db, "COURSES", vals),
                });
                return ops;
            }
            4 => {
                // enroll: new (course, student) grade — owned edge insert
                let c = rng.choose(&st.courses).clone();
                let s = *rng.choose(&st.students);
                if st.grades.contains(&(c.clone(), s)) {
                    continue;
                }
                ops.push(DbOp::Insert {
                    relation: "GRADES".into(),
                    tuple: tup(
                        db,
                        "GRADES",
                        vec![c.as_str().into(), s.into(), (*rng.choose(&GRADES)).into()],
                    ),
                });
                st.grades.push((c, s));
                return ops;
            }
            5 => {
                // drop a grade — owned edge delete
                if st.grades.is_empty() {
                    continue;
                }
                let i = rng.gen_range(0..st.grades.len());
                let (c, s) = st.grades.remove(i);
                ops.push(DbOp::Delete {
                    relation: "GRADES".into(),
                    key: Key::new(vec![c.as_str().into(), s.into()]),
                });
                return ops;
            }
            6 => {
                // regrade: same key, non-connecting value → patch path
                if st.grades.is_empty() {
                    continue;
                }
                let (c, s) = rng.choose(&st.grades).clone();
                ops.push(DbOp::Replace {
                    relation: "GRADES".into(),
                    old_key: Key::new(vec![c.as_str().into(), s.into()]),
                    tuple: tup(
                        db,
                        "GRADES",
                        vec![c.as_str().into(), s.into(), (*rng.choose(&GRADES)).into()],
                    ),
                });
                return ops;
            }
            7 => {
                // re-attribute a grade to another student: key replace
                if st.grades.is_empty() {
                    continue;
                }
                let i = rng.gen_range(0..st.grades.len());
                let (c, s) = st.grades[i].clone();
                let s2 = *rng.choose(&st.students);
                if st.grades.contains(&(c.clone(), s2)) {
                    continue;
                }
                ops.push(DbOp::Replace {
                    relation: "GRADES".into(),
                    old_key: Key::new(vec![c.as_str().into(), s.into()]),
                    tuple: tup(
                        db,
                        "GRADES",
                        vec![c.as_str().into(), s2.into(), (*rng.choose(&GRADES)).into()],
                    ),
                });
                st.grades[i] = (c, s2);
                return ops;
            }
            8 => {
                // a new student: PEOPLE row + STUDENT subset row
                let ssn = st.next_ssn;
                st.next_ssn += 1;
                ops.push(DbOp::Insert {
                    relation: "PEOPLE".into(),
                    tuple: tup(
                        db,
                        "PEOPLE",
                        vec![
                            ssn.into(),
                            format!("student-{ssn}").into(),
                            (*rng.choose(&DEPTS)).into(),
                        ],
                    ),
                });
                ops.push(DbOp::Insert {
                    relation: "STUDENT".into(),
                    tuple: tup(
                        db,
                        "STUDENT",
                        vec![ssn.into(), (*rng.choose(&DEGREES)).into()],
                    ),
                });
                st.students.push(ssn);
                return ops;
            }
            9 => {
                // a student drops out: the STUDENT subset row goes, the
                // PEOPLE row and any grades stay (dangling is legal at
                // the relational layer; the views must follow suit)
                if st.students.len() <= 2 {
                    continue;
                }
                let i = rng.gen_range(0..st.students.len());
                let ssn = st.students.remove(i);
                ops.push(DbOp::Delete {
                    relation: "STUDENT".into(),
                    key: Key::single(ssn),
                });
                return ops;
            }
            10 => {
                // change a degree program: non-connecting for both
                // objects → patch path on a subset-edge node
                let ssn = *rng.choose(&st.students);
                if db
                    .table("STUDENT")
                    .unwrap()
                    .get(&Key::single(ssn))
                    .is_none()
                {
                    continue;
                }
                ops.push(DbOp::Replace {
                    relation: "STUDENT".into(),
                    old_key: Key::single(ssn),
                    tuple: tup(
                        db,
                        "STUDENT",
                        vec![ssn.into(), (*rng.choose(&DEGREES)).into()],
                    ),
                });
                return ops;
            }
            _ => {
                // promote faculty: irrelevant to ω, a patch for the
                // PEOPLE object
                if st.faculty.is_empty() {
                    continue;
                }
                let ssn = *rng.choose(&st.faculty);
                ops.push(DbOp::Replace {
                    relation: "FACULTY".into(),
                    old_key: Key::single(ssn),
                    tuple: tup(
                        db,
                        "FACULTY",
                        vec![
                            ssn.into(),
                            (*rng.choose(&["Professor", "Associate", "Assistant"])).into(),
                        ],
                    ),
                });
                return ops;
            }
        }
    }
    ops
}

fn refresh_view(
    view: &mut MaterializedView,
    schema: &StructuralSchema,
    db: &mut Database,
) -> RefreshOutcome {
    let read = db.journal_peek(view.cursor()).unwrap();
    let n = read.transactions.len();
    let plan = plan_object(schema, view.object(), db).unwrap();
    let out = view.refresh(&plan, db, &read).unwrap();
    db.journal_advance(view.cursor(), n).unwrap();
    out
}

fn assert_equiv(view: &MaterializedView, schema: &StructuralSchema, db: &Database, ctx: &str) {
    let full = instantiate_all(schema, view.object(), db).unwrap();
    assert_eq!(view.snapshot(), full, "view diverged ({ctx})");
}

/// The PEOPLE object: pivot PEOPLE with its STUDENT and FACULTY subset
/// children.
fn people_object(schema: &StructuralSchema) -> ViewObject {
    let tree = generate_tree(schema, "PEOPLE", &MetricWeights::default()).unwrap();
    prune_by_relations(schema, &tree, "people", &["STUDENT", "FACULTY"]).unwrap()
}

/// Property: across seeds, two views over the same journal — refreshed at
/// different cadences — both stay byte-identical to re-instantiation,
/// and the workload exercises both the patch and the recompute paths.
#[test]
fn seeded_random_workloads_stay_equivalent() {
    for seed in [3u64, 11, 42, 5_150, 777_777] {
        let (schema, mut db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let people = people_object(&schema);
        let c_omega = db.journal_subscribe(JournalStart::Head);
        let plan = plan_object(&schema, &omega, &db).unwrap();
        let mut v_omega = MaterializedView::build(omega, &plan, &db, c_omega).unwrap();
        let c_people = db.journal_subscribe(JournalStart::Head);
        let plan = plan_object(&schema, &people, &db).unwrap();
        let mut v_people = MaterializedView::build(people, &plan, &db, c_people).unwrap();

        let mut rng = SmallRng::seed_from_u64(seed);
        let mut st = State::figure4();
        let (mut patched, mut rebuilt) = (0u64, 0u64);
        for round in 0..60 {
            let ops = random_tx(&mut rng, &mut st, &db);
            if ops.is_empty() {
                continue;
            }
            db.apply_all(&ops).unwrap();
            // staggered cadences: the two cursors are genuinely at
            // different offsets most of the time
            if round % 3 == 2 {
                let out = refresh_view(&mut v_omega, &schema, &mut db);
                patched += out.patched;
                rebuilt += out.rebuilt;
                assert_equiv(
                    &v_omega,
                    &schema,
                    &db,
                    &format!("ω seed {seed} round {round}"),
                );
            }
            if round % 7 == 6 {
                let out = refresh_view(&mut v_people, &schema, &mut db);
                patched += out.patched;
                rebuilt += out.rebuilt;
                assert_equiv(
                    &v_people,
                    &schema,
                    &db,
                    &format!("people seed {seed} round {round}"),
                );
            }
        }
        let out = refresh_view(&mut v_omega, &schema, &mut db);
        patched += out.patched;
        rebuilt += out.rebuilt;
        let out = refresh_view(&mut v_people, &schema, &mut db);
        patched += out.patched;
        rebuilt += out.rebuilt;
        assert_equiv(&v_omega, &schema, &db, &format!("ω seed {seed} final"));
        assert_equiv(
            &v_people,
            &schema,
            &db,
            &format!("people seed {seed} final"),
        );
        assert!(patched > 0, "seed {seed} never took the patch path");
        assert!(rebuilt > 0, "seed {seed} never took the recompute path");
    }
}

/// A journal cap tight enough to lapse a slow consumer: the view must
/// notice, rebuild in full, and land byte-identical — then go back to
/// incremental refreshes.
#[test]
fn capped_journal_lapse_recovers_by_full_rebuild() {
    let (schema, mut db) = university_database();
    let omega = generate_omega(&schema).unwrap();
    let cursor = db.journal_subscribe(JournalStart::Head);
    let plan = plan_object(&schema, &omega, &db).unwrap();
    let mut view = MaterializedView::build(omega, &plan, &db, cursor).unwrap();
    db.set_journal_cap(Some(JournalCap::drop_oldest(3)));

    let mut rng = SmallRng::seed_from_u64(1337);
    let mut st = State::figure4();
    let mut full_rebuilds = 0;
    for _ in 0..40 {
        let ops = random_tx(&mut rng, &mut st, &db);
        if ops.is_empty() {
            continue;
        }
        db.apply_all(&ops).unwrap();
    }
    let read = db.journal_peek(view.cursor()).unwrap();
    assert!(read.lapsed > 0, "the cap must have evicted past the cursor");
    let out = refresh_view(&mut view, &schema, &mut db);
    full_rebuilds += out.full_rebuild as u32;
    assert_equiv(&view, &schema, &db, "after lapse");
    // within the cap again → incremental
    let ops = random_tx(&mut rng, &mut st, &db);
    if !ops.is_empty() {
        db.apply_all(&ops).unwrap();
    }
    let out = refresh_view(&mut view, &schema, &mut db);
    assert!(!out.full_rebuild);
    full_rebuilds += out.full_rebuild as u32;
    assert_equiv(&view, &schema, &db, "after recovery");
    assert_eq!(full_rebuilds, 1);
}

/// A persistent system whose write-ahead persister and materialized view
/// share the commit journal: random facade workload, interleaved flushes
/// and refreshes, then a kill — the recovered database is byte-identical
/// and a re-materialized view over it matches re-instantiation.
#[test]
fn persistent_system_shares_journal_between_wal_and_views() {
    let dir = tmp_dir("shared_journal");
    let live;
    {
        let mut p = Penguin::persistent(&dir, university_schema()).unwrap();
        p.with_database_mut(seed_figure4).unwrap().unwrap();
        p.persist_pending().unwrap();
        p.define_object(
            "omega",
            "COURSES",
            &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
        )
        .unwrap();
        p.materialize("omega").unwrap();

        let mut rng = SmallRng::seed_from_u64(2024);
        let mut st = State::figure4();
        for round in 0..40 {
            let ops = p
                .with_database_mut(|db| {
                    let ops = random_tx(&mut rng, &mut st, db);
                    if !ops.is_empty() {
                        db.apply_all(&ops).unwrap();
                    }
                    ops
                })
                .unwrap();
            if ops.is_empty() {
                continue;
            }
            // the persister and the view drain at different cadences;
            // neither may starve the other
            if round % 4 == 3 {
                p.persist_pending().unwrap();
            }
            if round % 5 == 4 {
                p.refresh("omega").unwrap();
                assert_eq!(
                    p.materialized("omega").unwrap().snapshot(),
                    p.instantiate_all("omega").unwrap(),
                    "round {round}"
                );
            }
        }
        p.refresh("omega").unwrap();
        assert_eq!(
            p.materialized("omega").unwrap().snapshot(),
            p.instantiate_all("omega").unwrap()
        );
        p.persist_pending().unwrap();
        live = DatabaseSnapshot::capture_full(p.database())
            .to_json()
            .pretty();
        std::mem::forget(p); // crash
    }
    let mut p2 = Penguin::open(&dir).unwrap();
    assert_eq!(
        DatabaseSnapshot::capture_full(p2.database())
            .to_json()
            .pretty(),
        live,
        "recovered state diverged"
    );
    // the definition survived; materialization works on the recovered data
    p2.materialize("omega").unwrap();
    assert_eq!(
        p2.materialized("omega").unwrap().snapshot(),
        p2.instantiate_all("omega").unwrap()
    );
    std::fs::remove_dir_all(&dir).ok();
}
