//! Maintenance equivalence: a materialized view refreshed incrementally
//! from the commit journal must be **byte-identical** to re-instantiating
//! its object from scratch — under seeded random workloads mixing
//! inserts, deletes and replaces across owned (COURSES→GRADES),
//! referenced (COURSES→DEPARTMENT, COURSES→CURRICULUM) and subset
//! (PEOPLE→STUDENT/FACULTY) and contracted (COURSES→GRADES→STUDENT in ω′)
//! edges, with three views consuming the same journal at different
//! cadences, and on a persistent system where the write-ahead persister is
//! another consumer of that journal. Materializing costs what one
//! instantiation costs, counted in index probes. A whole-instance read of
//! a materialized object, which a current view answers, is the engine's
//! read in every state a view can be in.

use penguin_vo::obs::json::encode;
use penguin_vo::obs::metrics;
use penguin_vo::obs::trace::{self, SpanEvent};
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
    let n = read.len();
    let plan = plan_object(schema, view.object(), db).unwrap();
    let out = view.refresh(&plan, db, &read).unwrap();
    db.journal_advance(view.cursor(), n).unwrap();
    out
}

fn assert_equiv(view: &MaterializedView, schema: &StructuralSchema, db: &Database, ctx: &str) {
    let full = instantiate_all(schema, view.object(), db).unwrap();
    assert_eq!(view.snapshot(), full, "view diverged ({ctx})");
}

/// Every instance of a registered object by the engine, over the system's
/// database.
fn engine(p: &Penguin, name: &str) -> Vec<VoInstance> {
    let object = &p.object(name).unwrap().object;
    instantiate_all(p.schema(), object, p.database()).unwrap()
}

/// The PEOPLE object: pivot PEOPLE with its STUDENT and FACULTY subset
/// children.
fn people_object(schema: &StructuralSchema) -> ViewObject {
    let tree = generate_tree(schema, "PEOPLE", &MetricWeights::default()).unwrap();
    prune_by_relations(schema, &tree, "people", &["STUDENT", "FACULTY"]).unwrap()
}

/// Property: across seeds, three views over the same journal — refreshed
/// at different cadences — all stay byte-identical to re-instantiation,
/// and the workload exercises both the patch and the recompute paths. ω′
/// reaches STUDENT through GRADES by a contracted edge, so its refreshes
/// see deletes, inserts and connecting replaces of an intermediate tuple
/// no instance binds.
#[test]
fn seeded_random_workloads_stay_equivalent() {
    let view = |schema: &StructuralSchema, db: &mut Database, object: ViewObject| {
        let cursor = db.journal_subscribe();
        let plan = plan_object(schema, &object, db).unwrap();
        MaterializedView::build(object, &plan, db, cursor).unwrap()
    };
    for seed in [3u64, 11, 42, 5_150, 777_777] {
        let (schema, mut db) = university_database();
        let mut v_omega = view(&schema, &mut db, generate_omega(&schema).unwrap());
        let mut v_people = view(&schema, &mut db, people_object(&schema));
        let omega_prime = generate_omega_prime(&schema).unwrap();
        let mut v_prime = view(&schema, &mut db, omega_prime);

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
            if round % 2 == 1 {
                let out = refresh_view(&mut v_prime, &schema, &mut db);
                patched += out.patched;
                rebuilt += out.rebuilt;
                assert_equiv(
                    &v_prime,
                    &schema,
                    &db,
                    &format!("ω′ seed {seed} round {round}"),
                );
            }
        }
        for (name, view) in [
            ("ω", &mut v_omega),
            ("people", &mut v_people),
            ("ω′", &mut v_prime),
        ] {
            let out = refresh_view(view, &schema, &mut db);
            patched += out.patched;
            rebuilt += out.rebuilt;
            assert_equiv(view, &schema, &db, &format!("{name} seed {seed} final"));
        }
        assert!(patched > 0, "seed {seed} never took the patch path");
        assert!(rebuilt > 0, "seed {seed} never took the recompute path");
    }
}

/// A view keeps nothing beside its instances, so building one is one
/// instantiation: `Penguin::materialize` records exactly the walk one
/// instantiation of the object by the engine records — the same edges and
/// steps, each step with the same access path, rows in and rows out, so
/// the same index probes. (The engine is called directly:
/// `Penguin::instantiate_all` now reads a current view.)
#[test]
fn materializing_costs_one_instantiation() {
    let mut p = Penguin::new(university_schema());
    p.with_database_mut(seed_figure4).unwrap().unwrap();
    p.define_object(
        "omega",
        "COURSES",
        &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
    )
    .unwrap();
    // the first materialization provisions the reverse-walk indexes, so
    // both sides below plan over the same structure
    p.materialize("omega").unwrap();

    // the engine's spans of a call, without ids and times
    let walk = |spans: Vec<SpanEvent>| -> Vec<(&'static str, Vec<(&'static str, Json)>)> {
        let engine = ["core.instantiate", "core.follow_edge", "core.probe_step"];
        (spans.into_iter())
            .filter(|e| engine.contains(&e.name))
            .map(|e| (e.name, e.fields))
            .collect()
    };
    let object = p.object("omega").unwrap().object.clone();
    let (read, by_engine) = trace::capture(|| instantiate_all(p.schema(), &object, p.database()));
    read.unwrap();
    let (built, by_view) = trace::capture(|| p.materialize("omega").map(|_| ()));
    built.unwrap();
    let (read, built) = (walk(by_engine.spans), walk(by_view.spans));
    assert!(
        read.iter().any(|(name, fields)| *name == "core.probe_step"
            && fields.contains(&("access", Json::str("index probe")))),
        "{read:?}"
    );
    assert_eq!(built, read);
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
                    engine(&p, "omega"),
                    "round {round}"
                );
            }
        }
        p.refresh("omega").unwrap();
        assert_eq!(
            p.materialized("omega").unwrap().snapshot(),
            engine(&p, "omega")
        );
        p.persist_pending().unwrap();
        live = encode(&DatabaseSnapshot::capture_full(p.database()));
        std::mem::forget(p); // crash
    }
    let mut p2 = Penguin::open(&dir).unwrap();
    assert_eq!(
        encode(&DatabaseSnapshot::capture_full(p2.database())),
        live,
        "recovered state diverged"
    );
    // the definition survived; materialization works on the recovered data
    p2.materialize("omega").unwrap();
    assert_eq!(
        p2.materialized("omega").unwrap().snapshot(),
        engine(&p2, "omega")
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Which path a whole-instance read took, read off the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Path {
    /// Cloned from a current view (`maintain.reads_served`).
    Served,
    /// The object is materialized but its view trailed the read's
    /// version: the engine answered (`maintain.reads_stale`).
    Stale,
    /// Nothing is materialized: the engine answered, counting neither.
    Engine,
}

fn count(name: &str) -> u64 {
    *metrics::snapshot_all().counters.get(name).unwrap_or(&0)
}

/// Every whole-instance read of ω through `read_all` / `read_one` equals
/// the tuple-at-a-time oracle over `db`, and each took `path`. Only this
/// test in this file reads a materialized object through the facade, so
/// the two read counters move by exactly its reads.
fn assert_reads(
    db: &Database,
    schema: &StructuralSchema,
    object: &ViewObject,
    read_all: &dyn Fn() -> Result<Vec<VoInstance>>,
    read_one: &dyn Fn(&Key) -> Result<VoInstance>,
    path: Path,
    ctx: &str,
) {
    let (served, stale) = (
        count("maintain.reads_served"),
        count("maintain.reads_stale"),
    );
    let oracle = instantiate_all_legacy(schema, object, db).unwrap();
    assert_eq!(read_all().unwrap(), oracle, "instantiate_all ({ctx})");
    let courses = db.table("COURSES").unwrap().schema();
    for inst in &oracle {
        let key = inst.root.tuple.key(courses);
        assert_eq!(
            &read_one(&key).unwrap(),
            inst,
            "instance_by_key {key} ({ctx})"
        );
    }
    let missing = read_one(&Key::single("XX000")).unwrap_err();
    assert!(
        matches!(&missing, Error::NoSuchTuple { relation, .. } if relation == "COURSES"),
        "{missing} ({ctx})"
    );
    let reads = oracle.len() as u64 + 2;
    let moved = (
        count("maintain.reads_served") - served,
        count("maintain.reads_stale") - stale,
    );
    let expected = match path {
        Path::Served => (reads, 0),
        Path::Stale => (0, reads),
        Path::Engine => (0, 0),
    };
    assert_eq!(moved, expected, "(served, stale) reads ({ctx})");
}

fn session_reads(session: &Session, path: Path, ctx: &str) {
    let object = &session.object("omega").unwrap().object;
    assert_reads(
        session.database(),
        session.schema(),
        object,
        &|| session.instantiate_all("omega"),
        &|key| session.instance_by_key("omega", key),
        path,
        ctx,
    );
}

fn head_reads(p: &Penguin, path: Path, ctx: &str) {
    let object = &p.object("omega").unwrap().object;
    assert_reads(
        p.database(),
        p.schema(),
        object,
        &|| p.instantiate_all("omega"),
        &|key| p.instance_by_key("omega", key),
        path,
        ctx,
    );
}

/// A materialized read is the engine's read. `Session::instantiate_all` /
/// `instance_by_key` (and their head twins) clone from the view only while
/// it reflects the read's version exactly, and run the engine otherwise:
/// just materialized; after commits nobody refreshed; after a refresh; on
/// a session held across a refresh, which keeps its version and makes the
/// refresh copy the set; after DDL moved the structure epoch; after
/// `dematerialize`.
/// A refresh that failed poisons the view until a full rebuild, even once
/// its cursor has caught up.
#[test]
fn a_materialized_read_is_the_engines_read() {
    let mut p = Penguin::new(university_schema());
    p.with_database_mut(seed_figure4).unwrap().unwrap();
    p.define_object(
        "omega",
        "COURSES",
        &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
    )
    .unwrap();
    p.materialize("omega").unwrap();
    let copies = || count("maintain.view_copies");

    // just materialized
    let fresh = p.session();
    session_reads(&fresh, Path::Served, "just materialized");
    head_reads(&p, Path::Served, "head, just materialized");

    // committed, not refreshed: the view trails, the engine answers
    p.sql("INSERT INTO GRADES VALUES ('CS101', 9, 'C')")
        .unwrap();
    let behind = p.session();
    session_reads(&behind, Path::Stale, "not refreshed");
    head_reads(&p, Path::Stale, "head, not refreshed");
    session_reads(&fresh, Path::Served, "pinned before the commit");

    // refreshed while `fresh` holds the set: the refresh copies it
    let before = copies();
    assert!(!p.refresh("omega").unwrap().full_rebuild);
    assert_eq!(copies() - before, 1, "a held set is copied, once");
    let held = p.session();
    session_reads(&held, Path::Served, "after a refresh");
    head_reads(&p, Path::Served, "head, after a refresh");
    session_reads(&fresh, Path::Served, "held across a refresh");
    session_reads(&behind, Path::Stale, "pinned stale, still stale");

    // a session held across the next refresh keeps its version
    p.sql("UPDATE GRADES SET grade = 'A' WHERE course_id = 'CS101' AND ssn = 9")
        .unwrap();
    let before = copies();
    assert_eq!(p.refresh("omega").unwrap().patched, 1);
    assert_eq!(copies() - before, 1);
    session_reads(&held, Path::Served, "held across a second refresh");
    assert_ne!(
        held.instantiate_all("omega").unwrap(),
        p.instantiate_all("omega").unwrap()
    );
    head_reads(&p, Path::Served, "head, after the second refresh");
    drop((fresh, behind, held));
    // nobody holds the set: a refresh writes it in place
    p.sql("UPDATE GRADES SET grade = 'B' WHERE course_id = 'CS101' AND ssn = 9")
        .unwrap();
    let before = copies();
    p.refresh("omega").unwrap();
    assert_eq!(copies(), before, "an unheld set is written in place");
    session_reads(&p.session(), Path::Served, "refreshed in place");

    // DDL moved the structure epoch: stale until the refresh rebuilds
    p.with_database_mut(|db| db.ensure_index("STUDENT", &["degree_program".to_owned()]))
        .unwrap()
        .unwrap();
    session_reads(&p.session(), Path::Stale, "structure epoch moved");
    head_reads(&p, Path::Stale, "head, structure epoch moved");
    assert!(p.refresh("omega").unwrap().full_rebuild);
    session_reads(&p.session(), Path::Served, "rebuilt at the new epoch");

    // dematerialized: the engine answers and nothing counts
    assert!(p.dematerialize("omega"));
    session_reads(&p.session(), Path::Engine, "dematerialized");
    head_reads(&p, Path::Engine, "head, dematerialized");
}

/// A refresh that failed midway leaves the view poisoned: it hands out no
/// instances even once its cursor has read every transaction at the
/// database's structure epoch, until a refresh rebuilds it in full.
#[test]
fn a_poisoned_view_is_not_current() {
    let (schema, mut db) = university_database();
    let omega = generate_omega(&schema).unwrap();
    let cursor = db.journal_subscribe();
    let plan = plan_object(&schema, &omega, &db).unwrap();
    let mut view = MaterializedView::build(omega.clone(), &plan, &db, cursor).unwrap();
    assert!(view.current(&db).is_some());

    db.insert("GRADES", vec!["CS101".into(), 9.into(), "C".into()])
        .unwrap();
    assert!(view.current(&db).is_none(), "one transaction behind");
    // a plan of another object at the same epoch lacks ω's edges: the
    // incremental pass fails partway
    let tree = generate_tree(&schema, "COURSES", &MetricWeights::default()).unwrap();
    let other = prune_by_relations(&schema, &tree, "other", &["GRADES"]).unwrap();
    let wrong = plan_object(&schema, &other, &db).unwrap();
    let read = db.journal_peek(cursor).unwrap();
    assert!(view.refresh(&wrong, &db, &read).is_err());
    assert!(view.needs_full());
    db.journal_advance(cursor, read.len()).unwrap();
    assert_eq!(db.journal_lag(cursor).unwrap(), 0);
    assert!(view.current(&db).is_none(), "poisoned");

    let out = refresh_view(&mut view, &schema, &mut db);
    assert!(out.full_rebuild);
    let held = view.current(&db).expect("rebuilt in full");
    let oracle = instantiate_all_legacy(&schema, &omega, &db).unwrap();
    assert_eq!(held.values().cloned().collect::<Vec<_>>(), oracle);
}

/// The journal exists only while a cursor reads it: once the last view is
/// dematerialized, an in-memory system retains none of the commits that
/// follow.
#[test]
fn a_journal_without_cursors_retains_nothing() {
    let mut p = Penguin::new(university_schema());
    p.with_database_mut(seed_figure4).unwrap().unwrap();
    p.define_object(
        "omega",
        "COURSES",
        &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
    )
    .unwrap();
    p.materialize("omega").unwrap();
    assert!(p.dematerialize("omega"));
    for i in 0..50 {
        p.sql(&format!(
            "UPDATE GRADES SET grade = 'G{i}' WHERE course_id = 'CS101' AND ssn = 1"
        ))
        .unwrap();
    }
    assert_eq!(p.database().journal_retained(), 0);
}
