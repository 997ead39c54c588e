//! The paper's artefacts, regenerated and pinned. The paper has no
//! quantitative tables: what it offers to reproduce is Figures 1–4, the
//! §6 dialog with its CS345 → EES345 example, and the case tables of
//! VO-CD / VO-CI / VO-R. Each test renders one artefact to a string and
//! compares it byte for byte with a file under `tests/golden/paper/` —
//! those files *are* the regenerated artefacts a reader opens
//! (EXPERIMENTS.md maps each to its place in the paper).
//!
//! A golden file changes only when an artefact is meant to change: delete
//! it, run this test once (a missing file is written from the current
//! output and the test fails, naming it), review the diff, commit it.

use penguin_vo::obs::trace;
use penguin_vo::penguin::{seed_ownership_chain, synthetic_schema, SchemaShape};
use penguin_vo::prelude::*;
use std::collections::BTreeSet;
use std::fmt::Write as _;

mod common;
use common::check;

/// `writeln!` into the artefact being rendered.
macro_rules! say {
    ($out:expr, $($arg:tt)*) => { writeln!($out, $($arg)*).unwrap() };
}

/// One table row from anything that prints.
macro_rules! row {
    ($($cell:expr),*) => { vec![$($cell.to_string()),*] };
}

fn banner(out: &mut String, id: &str, title: &str) {
    let rule = "=".repeat(66);
    say!(out, "{rule}\n{id}: {title}\n{rule}");
}

/// An aligned text table: header, dashes, rows.
fn table(header: &[&str], rows: &[Vec<String>]) -> String {
    let widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(i, h)| rows.iter().map(|r| r[i].len()).fold(h.len(), usize::max))
        .collect();
    let line = |cells: Vec<String>| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:w$}"))
            .collect();
        format!("{}\n", padded.join("  ").trim_end())
    };
    let mut out = line(header.iter().map(|h| (*h).to_owned()).collect());
    out += &line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        out += &line(row.clone());
    }
    out
}

fn node_on(object: &ViewObject, relation: &str) -> NodeId {
    let node = object.nodes().iter().find(|n| n.relation == relation);
    node.unwrap().id
}

/// The instance of `object` whose pivot tuple has the single-attribute key `key`.
fn instance_at(
    schema: &StructuralSchema,
    object: &ViewObject,
    db: &Database,
    key: impl Into<Value>,
) -> VoInstance {
    let pivot = db.table(object.pivot()).unwrap();
    let tuple = pivot.get(&Key::single(key)).unwrap().clone();
    assemble(schema, object, db, tuple).unwrap()
}

/// `inst` with attributes of its pivot tuple replaced.
fn with_pivot(inst: &VoInstance, courses: &RelationSchema, changes: &[(&str, &str)]) -> VoInstance {
    let mut new = inst.clone();
    for (attr, value) in changes {
        new.root.tuple = new
            .root
            .tuple
            .with_named(courses, attr, (*value).into())
            .unwrap();
    }
    new
}

/// What a translation does to a copy of `db`: operations emitted and the
/// structural violations left behind, or the rejection.
fn outcome(schema: &StructuralSchema, db: &Database, ops: Result<Vec<DbOp>>) -> String {
    match ops {
        Ok(ops) => {
            let mut after = db.clone();
            after.apply_all(&ops).unwrap();
            let violations = check_database(schema, &after).unwrap().len();
            format!("{} ops, {violations} violations after", ops.len())
        }
        Err(e) => format!("rejected: {e}"),
    }
}

/// The §6 example's request: the course renamed and moved to a department
/// that does not exist yet.
const EES345: [(&str, &str); 2] = [
    ("course_id", "EES345"),
    ("dept_name", "Engineering Economic Systems"),
];

/// F1 — Figure 1: the structural schema of the university database, and
/// the connection rules of Definitions 2.2–2.4 being enforced.
#[test]
fn figure_1_structural_schema() {
    let mut out = String::new();
    banner(
        &mut out,
        "F1",
        "Figure 1 — structural schema of the university database",
    );
    let schema = university_schema();
    say!(out, "{}", schema.to_graph_string());
    let (relations, connections) = (schema.catalog().len(), schema.connections().len());
    say!(out, "relations: {relations}   connections: {connections}");
    say!(
        out,
        "circuit reachable from COURSES (to be broken during tree generation): {}",
        schema.has_circuit_from("COURSES")
    );

    say!(out, "\nconnection-rule enforcement (Definitions 2.2-2.4):");
    // an ownership with X2 = K(R2) should have been a subset connection
    let bad = Connection::ownership("bad", "PEOPLE", &["ssn"], "STUDENT", &["ssn"]);
    let e = bad.validate(schema.catalog()).unwrap_err();
    say!(out, "  ownership with X2 = K(R2) rejected: {e}");
    let bad = Connection::reference("bad", "COURSES", &["title"], "GRADES", &["grade"]);
    let e = bad.validate(schema.catalog()).unwrap_err();
    say!(out, "  reference with X2 != K(R2) rejected: {e}");

    // the integrity rules in action on the seeded data
    let (schema, mut db) = university_database();
    say!(
        out,
        "\nseeded database: {} tuples across {} relations; violations: {}",
        db.total_tuples(),
        db.relation_names().len(),
        check_database(&schema, &db).unwrap().len()
    );
    let dangling = ["X9", "Dangling", "graduate", "Nowhere"];
    db.insert("COURSES", dangling.map(Value::from).to_vec())
        .unwrap();
    let violations = check_database(&schema, &db).unwrap();
    say!(
        out,
        "after inserting a course citing an unknown department: {} violation(s)",
        violations.len()
    );
    for violation in violations {
        say!(out, "  {violation}");
    }
    check("paper/fig1_structural_schema.txt", &out);
}

/// F2 — Figure 2: (a) the relevant subgraph G under the information
/// metric; (b) the template tree T with the circuit broken by duplicating
/// PEOPLE; (c) the pruned ω of complexity 5, with its island and peninsulas.
#[test]
fn figure_2_definition_of_omega() {
    let mut out = String::new();
    let schema = university_schema();
    let weights = MetricWeights::default();

    banner(
        &mut out,
        "F2a",
        "Figure 2(a) — relevant subgraph G for pivot COURSES",
    );
    let g = extract_subgraph(&schema, "COURSES", &weights).unwrap();
    let mut entries: Vec<(&String, &f64)> = g.relevance.iter().collect();
    entries.sort_by(|a, b| b.1.total_cmp(a.1).then_with(|| a.0.cmp(b.0)));
    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|(rel, score)| row![rel, format!("{score:.3}")])
        .collect();
    say!(out, "{}", table(&["relation", "relevance"], &rows));
    let inside = g.connections.join(", ");
    say!(out, "connections with both endpoints in G: {inside}");

    banner(
        &mut out,
        "F2b",
        "Figure 2(b) — template tree T (circuits broken by duplication)",
    );
    let tree = generate_tree(&schema, "COURSES", &weights).unwrap();
    out += &tree.to_tree_string();
    say!(
        out,
        "\ntemplate nodes: {}   copies of PEOPLE: {} (the paper's two copies)",
        tree.len(),
        tree.nodes_on("PEOPLE").len()
    );

    banner(
        &mut out,
        "F2c",
        "Figure 2(c) — the pruned view object omega (complexity 5)",
    );
    let omega = generate_omega(&schema).unwrap();
    out += &omega.to_tree_string(&schema);
    let (pivot, complexity) = (omega.pivot(), omega.complexity());
    say!(out, "\npivot: {pivot}   complexity: {complexity}");
    let key = omega.object_key(&schema).unwrap();
    say!(out, "object key K(omega) = {key:?}");

    let analysis = analyze(&schema, &omega).unwrap();
    let relations = |nodes: &BTreeSet<NodeId>| -> Vec<&str> {
        let of = |&i| omega.node(i).relation.as_str();
        nodes.iter().map(of).collect()
    };
    let (island, peninsulas) = (relations(&analysis.island), relations(&analysis.peninsulas));
    say!(out, "dependency island (Definition 5.1): {island:?}");
    say!(
        out,
        "referencing peninsulas (Definition 5.2): {peninsulas:?}"
    );
    check("paper/fig2_definition_of_omega.txt", &out);
}

/// F3 — Figure 3: the alternative object ω′ of FACULTY and STUDENT only;
/// COURSES→STUDENT is the contracted two-connection path through GRADES.
#[test]
fn figure_3_omega_prime() {
    let mut out = String::new();
    let schema = university_schema();
    banner(
        &mut out,
        "F3",
        "Figure 3 — a different view of the database (omega-prime)",
    );
    let op = generate_omega_prime(&schema).unwrap();
    out += &op.to_tree_string(&schema);
    let (pivot, complexity) = (op.pivot(), op.complexity());
    say!(out, "\npivot: {pivot}   complexity: {complexity}");

    let student = op.node(node_on(&op, "STUDENT"));
    let steps = &student.edge.as_ref().unwrap().steps;
    let n = steps.len();
    say!(out, "\nSTUDENT edge is a path of {n} connections:");
    for step in steps {
        say!(out, "  {}", step.resolve(&schema).unwrap().label());
    }
    out += "(the paper's note: \"the edge from COURSES to STUDENT is no longer a\n";
    out += " structural connection but rather a path of two connections\")\n";

    // instantiation through the contracted path still works
    let (_, db) = university_database();
    let inst = instance_at(&schema, &op, &db, "CS345");
    out += "\ninstance of omega-prime for CS345:\n";
    out += &inst.to_display_string(&schema, &op).unwrap();
    check("paper/fig3_omega_prime.txt", &out);
}

/// F4 — Figure 4: "retrieve graduate courses with less than 5 students
/// having enrolled" yields exactly one instance, CS345.
#[test]
fn figure_4_instantiation() {
    let mut out = String::new();
    banner(&mut out, "F4", "Figure 4 — instantiation of omega");
    let (schema, db) = university_database();
    let omega = generate_omega(&schema).unwrap();

    // via the programmatic query model
    let q = VoQuery::new()
        .with_predicate(0, Expr::attr("level").eq(Expr::lit("graduate")))
        .with_count(node_on(&omega, "STUDENT"), CmpOp::Lt, 5);
    let plan = q.pivot_plan(&schema, &omega).unwrap();
    out += "composed relational plan for candidate pivots:\n";
    say!(out, "  {plan}\n");
    let hits = q.execute(&schema, &omega, &db).unwrap();
    say!(out, "instances satisfying the request: {}\n", hits.len());
    for inst in &hits {
        out += &inst.to_display_string(&schema, &omega).unwrap();
        let (size, key) = (inst.size(), inst.key(&schema, &omega).unwrap());
        say!(
            out,
            "\n(instance binds {size} relational tuples; object key {key})"
        );
    }

    // and via VOQL
    let voql = "GET omega WHERE level = 'graduate' AND COUNT(STUDENT) < 5";
    say!(out, "\nthe same request in VOQL:\n  {voql}");
    let mut penguin = Penguin::with_database(schema, db);
    let kept = ["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"];
    penguin.define_object("omega", "COURSES", &kept).unwrap();
    match run_voql(&mut penguin, voql).unwrap() {
        VoqlOutcome::Instances(is) => say!(out, "VOQL returned {} instance(s)", is.len()),
        other => panic!("unexpected outcome: {other:?}"),
    }
    check("paper/fig4_instantiation.txt", &out);
}

/// C4 — Figure 4's reads, counted: for each of four reads of omega over
/// the seeded database, the non-zero registry counts a `trace::capture`
/// of the read holds, sorted by name. A change of access path shows here
/// as a diff.
///
/// None of these reads touches a materialized view, so none runs a
/// debug-only re-check, and the file is the same under `cargo test` and
/// `cargo test --release`. Writes and materialized reads stay out: debug
/// builds re-check those against an oracle (the update pipeline's plan
/// against the full check, a materialized read against re-instantiation),
/// so their counts differ by build.
#[test]
fn figure_4_costs() {
    let mut out = String::new();
    banner(&mut out, "C4", "Figure 4 — the work of each read, counted");
    let (schema, db) = university_database();
    let omega = generate_omega(&schema).unwrap();
    let q = VoQuery::new()
        .with_predicate(0, Expr::attr("level").eq(Expr::lit("graduate")))
        .with_count(node_on(&omega, "STUDENT"), CmpOp::Lt, 5);
    let voql = "GET omega WHERE level = 'graduate' AND COUNT(STUDENT) < 5";
    let mut penguin = Penguin::with_database(schema.clone(), db.clone());
    let kept = ["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"];
    penguin.define_object("omega", "COURSES", &kept).unwrap();
    let cs345 = Key::single("CS345");

    let reads = [
        (
            "F4's request: VoQuery::execute".to_owned(),
            trace::capture(|| q.execute(&schema, &omega, &db).unwrap().len()),
        ),
        (
            format!("the same request in VOQL: {voql}"),
            trace::capture(|| match run_voql(&mut penguin, voql).unwrap() {
                VoqlOutcome::Instances(is) => is.len(),
                other => panic!("unexpected outcome: {other:?}"),
            }),
        ),
        (
            "Penguin::instantiate_all(\"omega\")".to_owned(),
            trace::capture(|| penguin.instantiate_all("omega").unwrap().len()),
        ),
        (
            "Penguin::instance_by_key(\"omega\", 'CS345')".to_owned(),
            trace::capture(|| usize::from(penguin.instance_by_key("omega", &cs345).is_ok())),
        ),
    ];
    for (what, (instances, taken)) in reads {
        say!(out, "\n{what}\ninstances: {instances}");
        let rows: Vec<Vec<String>> = (taken.counts.iter())
            .filter(|(_, n)| **n > 0)
            .map(|(name, n)| row![name, n])
            .collect();
        out += &table(&["counter", "count"], &rows);
    }
    check("paper/fig4_costs.txt", &out);
}

/// D1 — the §6 translator-choice dialog (replacement portion verbatim,
/// footnote 5's skipped questions included); D2 — the worked example:
/// CS345 → EES345 inserts ⟨Engineering Economic Systems⟩ into DEPARTMENT
/// under the permissive translator and is rejected under the restrictive one.
#[test]
fn section_6_dialog_and_worked_example() {
    let mut out = String::new();
    let (schema, db) = university_database();
    let omega = generate_omega(&schema).unwrap();
    let analysis = analyze(&schema, &omega).unwrap();

    banner(
        &mut out,
        "D1",
        "Section 6 — dialog choosing a translator for omega",
    );
    let mut responder = paper_dialog_responder();
    let (translator, transcript) =
        choose_translator(&schema, &omega, &analysis, &mut responder).unwrap();
    say!(out, "{}", transcript.to_transcript_string());
    say!(out, "questions asked: {}", transcript.len());

    out += "\nfootnote 5 — the restrictive dialog skips DEPARTMENT's sub-questions:\n";
    let mut responder = paper_restrictive_responder();
    let (restrictive, restrictive_transcript) =
        choose_translator(&schema, &omega, &analysis, &mut responder).unwrap();
    let about_department = restrictive_transcript
        .entries
        .iter()
        .filter(|(q, _)| q.text.contains("DEPARTMENT"))
        .count();
    say!(
        out,
        "  questions mentioning DEPARTMENT: {about_department} (permissive dialog asked 3)"
    );
    say!(
        out,
        "  total questions: {} vs {} in the permissive dialog",
        restrictive_transcript.len(),
        transcript.len()
    );

    banner(
        &mut out,
        "D2",
        "Section 6 — the worked replacement example (CS345 -> EES345)",
    );
    let old = instance_at(&schema, &omega, &db, "CS345");
    let courses = db.table("COURSES").unwrap().schema().clone();
    let new = with_pivot(&old, &courses, &EES345);
    out += "request: replace\n";
    out += "  (COURSE: CS345 ... (DEPARTMENT: Computer Science) ...)\n";
    out += "with\n";
    out += "  (COURSE: EES345 ... (DEPARTMENT: Engineering Economic Systems) ...)\n\n";

    let mut db1 = db.clone();
    let updater = ViewObjectUpdater::new(&schema, omega.clone(), translator).unwrap();
    let ops = updater
        .replace(&schema, &mut db1, old.clone(), new.clone())
        .unwrap();
    let n = ops.len();
    say!(out, "permissive translator: {n} database operations:");
    for op in &ops {
        say!(out, "  {op}");
    }
    let consistent = check_database(&schema, &db1).unwrap().is_empty();
    say!(out, "\ndatabase consistent afterwards: {consistent}");
    let has =
        |db: &Database, relation: &str, key: Key| db.table(relation).unwrap().contains_key(&key);
    let inserted = has(&db1, "DEPARTMENT", Key::single(EES345[1].1));
    say!(out, "new department present: {inserted}");
    let repaired = has(&db1, "CURRICULUM", Key(vec!["MS".into(), "EES345".into()]));
    say!(out, "curriculum foreign keys repaired: {repaired}");

    let mut db2 = db.clone();
    let updater = ViewObjectUpdater::new(&schema, omega, restrictive).unwrap();
    let e = updater.replace(&schema, &mut db2, old, new).unwrap_err();
    out += "\nrestrictive translator: request rejected, as the paper states:\n";
    say!(out, "  {e}");
    let untouched = has(&db2, "COURSES", Key::single("CS345"));
    say!(out, "database unchanged: {untouched}");
    check("paper/sec6_dialog_and_example.txt", &out);
}

/// A3b — the paper specifies VO-R as a case table (R-1..R-3 in state R,
/// I-1..I-4 in state I); this is the sequence of cases that fires for six
/// canonical replacement requests against ω, read off the
/// `core.vo_r_case` events a capture of each translation holds.
#[test]
fn vo_r_case_traces() {
    let mut out = String::new();
    banner(&mut out, "A3b", "VO-R case traces on omega");
    let (schema, db) = university_database();
    let omega = generate_omega(&schema).unwrap();
    let analysis = analyze(&schema, &omega).unwrap();
    let translator = Translator::permissive(&omega);
    let courses = schema.catalog().relation("COURSES").unwrap().clone();
    let grades = schema.catalog().relation("GRADES").unwrap().clone();
    let gid = node_on(&omega, "GRADES");
    let old = instance_at(&schema, &omega, &db, "CS345");

    let cases: Vec<(&str, VoInstance)> = vec![
        ("identity", old.clone()),
        (
            "non-key title change",
            with_pivot(&old, &courses, &[("title", "Renamed")]),
        ),
        (
            "pivot key change (the §6 example)",
            with_pivot(&old, &courses, &EES345),
        ),
        (
            "key change colliding with CS101 (delete-adopt)",
            with_pivot(&old, &courses, &[("course_id", "CS101")]),
        ),
        ("grade edit + new enrollee", {
            let mut n = old.clone();
            let first = n.tuples_of(gid)[0].with_named(&grades, "grade", "C".into());
            n.rewrite(gid, 0, first.unwrap());
            n.attach(
                0,
                0,
                gid,
                Tuple::new(&grades, vec!["CS345".into(), 9.into(), "B".into()]).unwrap(),
            );
            n
        }),
        ("dropped grade (island removal)", {
            let mut n = old.clone();
            n.remove(gid, 2);
            n
        }),
    ];

    let mut rows = Vec::new();
    for (label, new) in cases {
        let (ops, events) = trace::capture(|| {
            translate_replacement(&schema, &omega, &analysis, &translator, &db, &old, new)
        });
        let ops = ops.unwrap();
        // run-length encode the case sequence: `label xN`
        let mut runs: Vec<(String, usize)> = Vec::new();
        for e in events.spans.iter().filter(|e| e.name == "core.vo_r_case") {
            let node = e.field("node").unwrap().as_i64().unwrap() as NodeId;
            let case = e.field("case").unwrap().as_str().unwrap();
            let l = format!("{case}@{}", omega.node(node).relation);
            match runs.last_mut() {
                Some((last, n)) if *last == l => *n += 1,
                _ => runs.push((l, 1)),
            }
        }
        let sequence: Vec<String> = runs
            .into_iter()
            .map(|(l, n)| if n == 1 { l } else { format!("{l} x{n}") })
            .collect();
        rows.push(row![label, ops.len(), sequence.join(", ")]);
    }
    out += &table(&["request", "ops", "case sequence"], &rows);
    out += "\n(R-* cases fire on the island COURSES/GRADES; I-* cases on DEPARTMENT,\n";
    out += " CURRICULUM and STUDENT — exactly the paper's state assignment)\n";
    check("paper/vo_r_case_traces.txt", &out);
}

/// A1–A3 — what the three translation algorithms emit: base operations per
/// island depth × fanout and per database scale (VO-CD), per share of
/// already-present children (VO-CI), per kind of change (VO-R). The time
/// they take is `benchmark/`'s `core.update.translate_{cd,ci,r}_us`.
#[test]
fn translation_op_counts() {
    let mut out = String::new();

    banner(
        &mut out,
        "A1a",
        "VO-CD — deletion cascade size on ownership chains",
    );
    let mut rows = Vec::new();
    for depth in [2usize, 3, 4] {
        for fanout in [2i64, 4, 8] {
            let schema = synthetic_schema(SchemaShape::OwnershipChain, depth);
            let mut db = Database::from_schema(schema.catalog());
            seed_ownership_chain(&mut db, depth, fanout).unwrap();
            let weights = MetricWeights {
                threshold: 0.05,
                ..Default::default()
            };
            let tree = generate_tree(&schema, "R0", &weights).unwrap();
            let keep: Vec<String> = (1..depth).map(|i| format!("R{i}")).collect();
            let keep: Vec<&str> = keep.iter().map(String::as_str).collect();
            let chain = prune_by_relations(&schema, &tree, "chain", &keep).unwrap();
            let analysis = analyze(&schema, &chain).unwrap();
            let translator = Translator::permissive(&chain);
            let inst = instance_at(&schema, &chain, &db, 0);
            let ops =
                translate_complete_deletion(&schema, &chain, &analysis, &translator, &db, &inst)
                    .unwrap();
            rows.push(row![depth, fanout, db.total_tuples(), ops.len()]);
        }
    }
    out += &table(&["depth", "fanout", "tuples", "ops"], &rows);
    out += "(ops grow with the island's transitive fanout — the cascade of §5.1)\n\n";

    banner(
        &mut out,
        "A1b",
        "VO-CD — university database scaling (delete one course instance)",
    );
    let mut rows = Vec::new();
    for scale in [1i64, 4, 16, 64] {
        let (schema, db) = university_scaled(scale, 42);
        let omega = generate_omega(&schema).unwrap();
        let analysis = analyze(&schema, &omega).unwrap();
        let translator = Translator::permissive(&omega);
        let inst = instance_at(&schema, &omega, &db, "C0-0");
        let ops = translate_complete_deletion(&schema, &omega, &analysis, &translator, &db, &inst)
            .unwrap();
        rows.push(row![scale, db.total_tuples(), ops.len()]);
    }
    out += &table(&["scale", "db_tuples", "ops"], &rows);
    out += "(the translation tracks the instance, not the database size)\n\n";

    let (schema, db) = university_scaled(4, 7);
    let omega = generate_omega(&schema).unwrap();
    let analysis = analyze(&schema, &omega).unwrap();
    let translator = Translator::permissive(&omega);
    let relation = |name: &str| db.table(name).unwrap().schema().clone();
    let (courses, grades) = (relation("COURSES"), relation("GRADES"));
    let (student, dept) = (relation("STUDENT"), relation("DEPARTMENT"));
    let (gid, sid) = (node_on(&omega, "GRADES"), node_on(&omega, "STUDENT"));

    banner(
        &mut out,
        "A2",
        "VO-CI — insertion: ops by share of already-present children",
    );
    let mut rows = Vec::new();
    for (n_grades, fresh) in [(4usize, 0usize), (4, 4), (16, 0), (16, 16), (64, 64)] {
        let course = ["NEW1", "New Course", "graduate", "dept-0"];
        let pivot = Tuple::new(&courses, course.map(Value::from).to_vec()).unwrap();
        let mut b = VoInstance::builder(&omega, pivot);
        b.push(
            0,
            node_on(&omega, "DEPARTMENT"),
            Tuple::new(&dept, vec!["dept-0".into()]).unwrap(),
        );
        for i in 0..n_grades as i64 {
            // fresh students get ssns beyond the generated range
            let ssn = if i < fresh as i64 { 100_000 + i } else { 1 + i };
            let g = b.push(
                0,
                gid,
                Tuple::new(&grades, vec!["NEW1".into(), ssn.into(), "A".into()]).unwrap(),
            );
            b.push(
                g,
                sid,
                Tuple::new(&student, vec![ssn.into(), "MS".into()]).unwrap(),
            );
        }
        let inst = b.finish();
        let ops = translate_complete_insertion(&schema, &omega, &analysis, &translator, &db, &inst)
            .unwrap();
        rows.push(row![n_grades, n_grades - fresh, fresh, ops.len()]);
    }
    out += &table(
        &["grades", "existing_students", "fresh_students", "ops"],
        &rows,
    );
    out += "(existing students are VO-CI case 1 — shared, not re-inserted;\n";
    out += " fresh ones insert and pull stub PEOPLE parents via global validation)\n\n";

    banner(&mut out, "A3", "VO-R — replacement: ops by kind of change");
    let old = instance_at(&schema, &omega, &db, "C0-0");
    let rekeyed = with_pivot(&old, &courses, &[("course_id", "C0-X")]);
    let cases: Vec<(&str, VoInstance)> = vec![
        ("identical (R-1)", old.clone()),
        (
            "non-key title change (R-2)",
            with_pivot(&old, &courses, &[("title", "renamed")]),
        ),
        ("pivot key change (R-3 + propagation)", rekeyed.clone()),
        ("pivot key + grade edits", {
            let mut n = rekeyed;
            for pos in 0..n.tuples_of(gid).len() {
                let failed = n.tuples_of(gid)[pos].with_named(&grades, "grade", "F".into());
                n.rewrite(gid, pos, failed.unwrap());
            }
            n
        }),
        (
            "re-target department (I-2 insert)",
            with_pivot(&old, &courses, &[("dept_name", "brand-new-dept")]),
        ),
    ];
    let mut rows = Vec::new();
    for (label, new) in cases {
        let ops =
            translate_replacement(&schema, &omega, &analysis, &translator, &db, &old, new).unwrap();
        rows.push(row![label, ops.len()]);
    }
    out += &table(&["change", "ops"], &rows);
    out += "(key changes fan out to owned GRADES and the CURRICULUM peninsula,\n";
    out += " exactly the propagation §5.3 prescribes)\n";
    check("paper/translation_op_counts.txt", &out);
}

/// B1 — the paper's two comparative claims. B1a (§4/§7): choosing the
/// translator at definition time "obviates the need for tiresome and
/// repetitive dialogs at execution time" — counted in questions answered.
/// B1b: Keller's flat-view translator leaves structural damage on deletion
/// and cannot express the §6 example; the view-object translator does both.
#[test]
fn amortization_and_flat_view_baseline() {
    let mut out = String::new();

    banner(
        &mut out,
        "B1a",
        "Definition-time dialog vs per-update dialog",
    );
    let (schema, db) = university_scaled(1, 7);
    let omega = generate_omega(&schema).unwrap();
    let analysis = analyze(&schema, &omega).unwrap();
    let mut responder = paper_dialog_responder();
    let (_, transcript) = choose_translator(&schema, &omega, &analysis, &mut responder).unwrap();
    let questions = transcript.len();
    let rows = [1, 10, 100, 1000].map(|n| row![n, questions, questions * n]);
    out += &table(
        &[
            "updates",
            "questions_at_definition_time",
            "questions_with_a_dialog_per_update",
        ],
        &rows,
    );
    out += "(the dialog is answered once; re-answering it per update is the paper's\n";
    out += " \"tiresome and repetitive dialogs at execution time\")\n\n";

    banner(
        &mut out,
        "B1b",
        "Soundness vs the flat-view baseline (who can do what)",
    );
    let translator = Translator::permissive(&omega);
    let keller = KellerTranslator {
        view: SpjView::new("course_flat", "COURSES")
            .join(
                "DEPARTMENT",
                &[("COURSES", "dept_name", "DEPARTMENT", "dept_name")],
            )
            .column("COURSES", "course_id")
            .column("COURSES", "title")
            .column_as("DEPARTMENT", "dept_name", "department"),
        delete_from: Some("COURSES".into()),
        insert_into: ["COURSES".to_owned(), "DEPARTMENT".to_owned()].into(),
        update_allowed: ["COURSES".to_owned(), "DEPARTMENT".to_owned()].into(),
    };
    let flat_row = |cells: [&str; 3]| cells.map(Value::text).to_vec();
    let outcome = |ops| outcome(&schema, &db, ops);
    let mut rows = Vec::new();

    let inst = instance_at(&schema, &omega, &db, "C0-0");
    let vo = translate_complete_deletion(&schema, &omega, &analysis, &translator, &db, &inst);
    let flat = keller.translate_delete(&db, &flat_row(["C0-0", "course 0.0", "dept-0"]));
    rows.push(row!["delete course", outcome(vo), outcome(flat)]);

    let old = instance_at(&schema, &omega, &db, "C0-1");
    let courses = db.table("COURSES").unwrap().schema().clone();
    let new = with_pivot(&old, &courses, &EES345);
    let vo = translate_replacement(&schema, &omega, &analysis, &translator, &db, &old, new);
    let flat = keller.translate_update(
        &db,
        &flat_row(["C0-1", "course 0.1", "dept-0"]),
        &flat_row(["EES345", "course 0.1", EES345[1].1]),
    );
    let request = "rename + move department (the paper's §6 example)";
    rows.push(row![request, outcome(vo), outcome(flat)]);
    out += &table(
        &["request", "view-object translator", "Keller flat view"],
        &rows,
    );
    out += "(the flat baseline leaves orphans on delete and cannot express the\n";
    out += " join-attribute update; the object translator handles both soundly)\n";
    check("paper/amortization_and_baseline.txt", &out);
}
