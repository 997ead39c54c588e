//! Algorithm VO-CI — translation of complete-insertion requests
//! (paper §5.2).
//!
//! For each tuple in each projection of the new instance there are three
//! cases:
//!
//! - **Case 1** — an identical tuple exists: reject if the relation is in
//!   the dependency island, otherwise do nothing (the entity shares the
//!   existing tuple).
//! - **Case 2** — no tuple with the key exists: insert.
//! - **Case 3** — a tuple with the key exists but non-key values differ:
//!   reject inside the island, replace outside it (permission-gated).
//!
//! Global validation then completes missing dependencies along inverse
//! ownership, inverse subset, and reference connections, inserting stub
//! tuples recursively (gated by the translator).

use crate::instance::VoInstance;
use crate::island::IslandAnalysis;
use crate::object::ViewObject;
use crate::translator::Translator;
use crate::update::validate::{validate_instance, LocalValidation};
use vo_relational::prelude::*;
use vo_structural::prelude::*;

/// Translate a complete insertion into database operations: steps 1 and
/// 3 over an overlay of `db` (the pipeline, which has run step 1 already,
/// goes to step 3 directly).
pub fn translate_complete_insertion(
    schema: &StructuralSchema,
    object: &ViewObject,
    analysis: &IslandAnalysis,
    translator: &Translator,
    db: &Database,
    instance: &VoInstance,
) -> Result<Vec<DbOp>> {
    translator.permitted(object, "complete-insertion")?;
    let validated = validate_instance(schema, object, instance)?;
    let mut rec = DeltaDb::new(db);
    translate_complete_insertion_checked(
        schema, object, analysis, translator, &mut rec, instance, &validated,
    )?;
    Ok(rec.into_ops())
}

/// Step 3 of a complete insertion alone: `validated` is what local
/// validation (step 1) returned for `instance`.
pub(crate) fn translate_complete_insertion_checked(
    schema: &StructuralSchema,
    object: &ViewObject,
    analysis: &IslandAnalysis,
    translator: &Translator,
    rec: &mut DeltaDb<'_>,
    instance: &VoInstance,
    validated: &LocalValidation,
) -> Result<()> {
    vo_relational::stats::count_snapshot_avoided();
    translator.permitted(object, "complete-insertion")?;
    if !validated.contracted_nodes.is_empty() {
        return Err(Error::ConstraintViolation(format!(
            "insertion binds tuples through contracted edges (nodes {:?}); \
             the intermediate relations' tuples are unspecified",
            validated.contracted_nodes
        )));
    }

    let mut written: Vec<(String, Tuple)> = Vec::new();

    for node_id in object.preorder() {
        let node = object.node(node_id);
        let in_island = analysis.in_island(node_id);
        let table_schema = rec.base().table(&node.relation)?.schema();
        let policy = translator.policy(&node.relation);
        for tuple in instance.tuples_of(node_id).iter().map(|t| &t.tuple) {
            let key = tuple.key(table_schema);
            let existing = rec.view(&node.relation)?.get(&key).cloned();
            match existing {
                Some(ref e) if e == tuple => {
                    // CASE 1
                    if in_island {
                        return Err(Error::ConstraintViolation(format!(
                            "VO-CI case 1: identical tuple {tuple} already exists in \
                             island relation {}; the instance is already present",
                            node.relation
                        )));
                    }
                }
                None => {
                    // CASE 2
                    if !in_island && !policy.allow_insert {
                        return Err(Error::ConstraintViolation(format!(
                            "translator forbids inserting into {}",
                            node.relation
                        )));
                    }
                    rec.apply(DbOp::Insert {
                        relation: node.relation.clone(),
                        tuple: tuple.clone(),
                    })?;
                    written.push((node.relation.clone(), tuple.clone()));
                }
                Some(_) => {
                    // CASE 3
                    if in_island {
                        return Err(Error::ConstraintViolation(format!(
                            "VO-CI case 3: island relation {} already holds a \
                             different tuple with key {key}",
                            node.relation
                        )));
                    }
                    if !policy.allow_modify {
                        return Err(Error::ConstraintViolation(format!(
                            "translator forbids modifying existing tuples of {}",
                            node.relation
                        )));
                    }
                    rec.apply(DbOp::Replace {
                        relation: node.relation.clone(),
                        old_key: key,
                        tuple: tuple.clone(),
                    })?;
                    written.push((node.relation.clone(), tuple.clone()));
                }
            }
        }
    }

    complete_dependencies(schema, object, translator, rec, &written)?;
    Ok(())
}

/// Global-validation completion shared by VO-CI and VO-R: for every tuple
/// written, insert the stub tuples its dependencies require (recursively),
/// gated by the translator's per-relation and out-of-object permissions.
pub fn complete_dependencies(
    schema: &StructuralSchema,
    object: &ViewObject,
    translator: &Translator,
    rec: &mut DeltaDb<'_>,
    written: &[(String, Tuple)],
) -> Result<()> {
    let object_relations: Vec<&str> = object.relations();
    for (relation, tuple) in written {
        // the tuple may have been superseded by a later op; skip if gone
        let table = rec.view(relation)?;
        let key = tuple.key(table.schema());
        if table.get(&key) != Some(tuple) {
            continue;
        }
        let allow = |rel: &str| translator.may_insert_into(rel, object_relations.contains(&rel));
        let ops = plan_completion(schema, &*rec, relation, tuple, &allow)?;
        rec.apply_all(ops)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::assemble;
    use crate::island::analyze;
    use crate::treegen::generate_omega;
    use crate::university::university_database;

    fn setup() -> (
        StructuralSchema,
        Database,
        ViewObject,
        IslandAnalysis,
        Translator,
    ) {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let analysis = analyze(&schema, &omega).unwrap();
        let translator = Translator::permissive(&omega);
        (schema, db, omega, analysis, translator)
    }

    fn node_id(o: &ViewObject, rel: &str) -> usize {
        o.nodes().iter().find(|n| n.relation == rel).unwrap().id
    }

    /// A course instance binding, per `(ssn, grade, degree program)`, a
    /// grade of the course above its student.
    fn course_instance(
        db: &Database,
        omega: &ViewObject,
        course: [&str; 4],
        enrolled: &[(i64, &str, &str)],
    ) -> VoInstance {
        let schema = |rel| db.table(rel).unwrap().schema().clone();
        let (grades, student) = (schema("GRADES"), schema("STUDENT"));
        let pivot = Tuple::new(&schema("COURSES"), course.map(Value::from).to_vec()).unwrap();
        let mut b = VoInstance::builder(omega, pivot);
        for &(ssn, grade, program) in enrolled {
            let g = b.push(
                0,
                node_id(omega, "GRADES"),
                Tuple::new(&grades, vec![course[0].into(), ssn.into(), grade.into()]).unwrap(),
            );
            b.push(
                g,
                node_id(omega, "STUDENT"),
                Tuple::new(&student, vec![ssn.into(), program.into()]).unwrap(),
            );
        }
        b.finish()
    }

    /// A brand-new course instance: EE310 in a brand-new department with
    /// one grade for an existing student.
    fn fresh_instance(db: &Database, omega: &ViewObject) -> VoInstance {
        let course = ["EE310", "Signals", "graduate", "Bioengineering"];
        let mut inst = course_instance(db, omega, course, &[(1, "A", "PhD")]);
        let dept = db.table("DEPARTMENT").unwrap().schema().clone();
        inst.attach(
            0,
            0,
            node_id(omega, "DEPARTMENT"),
            Tuple::new(&dept, vec!["Bioengineering".into()]).unwrap(),
        );
        inst
    }

    #[test]
    fn inserts_fresh_instance_and_stays_consistent() {
        let (schema, mut db, omega, analysis, translator) = setup();
        let inst = fresh_instance(&db, &omega);
        let ops = translate_complete_insertion(&schema, &omega, &analysis, &translator, &db, &inst)
            .unwrap();
        db.apply_all(&ops).unwrap();
        assert!(check_database(&schema, &db).unwrap().is_empty());
        assert!(db
            .table("COURSES")
            .unwrap()
            .contains_key(&Key::single("EE310")));
        assert!(db
            .table("DEPARTMENT")
            .unwrap()
            .contains_key(&Key::single("Bioengineering")));
        assert!(db
            .table("GRADES")
            .unwrap()
            .contains_key(&Key(vec!["EE310".into(), 1.into()])));
        // student 1 already existed: case 1, no new insert
        assert_eq!(db.table("STUDENT").unwrap().len(), 10);
    }

    #[test]
    fn rejects_duplicate_island_tuple() {
        let (schema, db, omega, analysis, translator) = setup();
        // re-inserting an existing instance is case 1 on the pivot
        let t = db
            .table("COURSES")
            .unwrap()
            .get(&Key::single("CS345"))
            .unwrap()
            .clone();
        let inst = assemble(&schema, &omega, &db, t).unwrap();
        let err = translate_complete_insertion(&schema, &omega, &analysis, &translator, &db, &inst)
            .unwrap_err();
        assert!(matches!(err, Error::ConstraintViolation(_)));
    }

    #[test]
    fn rejects_island_key_conflict_with_different_values() {
        let (schema, db, omega, analysis, translator) = setup();
        let course = ["CS345", "Different Title", "graduate", "Computer Science"];
        let inst = course_instance(&db, &omega, course, &[]);
        let err = translate_complete_insertion(&schema, &omega, &analysis, &translator, &db, &inst)
            .unwrap_err();
        assert!(matches!(err, Error::ConstraintViolation(_)));
    }

    #[test]
    fn case3_replaces_non_island_tuple_when_allowed() {
        let (schema, mut db, omega, analysis, translator) = setup();
        // instance citing student 1 with a different degree program
        let course = ["CS400", "Sem", "graduate", "Computer Science"];
        let inst = course_instance(&db, &omega, course, &[(1, "A", "MBA")]);
        let ops = translate_complete_insertion(&schema, &omega, &analysis, &translator, &db, &inst)
            .unwrap();
        db.apply_all(&ops).unwrap();
        let s = db
            .table("STUDENT")
            .unwrap()
            .get(&Key::single(1))
            .unwrap()
            .clone();
        assert_eq!(s.values()[1], Value::text("MBA"));
        assert!(check_database(&schema, &db).unwrap().is_empty());
    }

    #[test]
    fn case3_rejected_without_modify_permission() {
        let (schema, db, omega, analysis, mut translator) = setup();
        let mut p = translator.policy("STUDENT");
        p.allow_modify = false;
        translator.set_policy("STUDENT", p);
        let course = ["CS400", "Sem", "graduate", "Computer Science"];
        let inst = course_instance(&db, &omega, course, &[(1, "A", "MBA")]);
        assert!(
            translate_complete_insertion(&schema, &omega, &analysis, &translator, &db, &inst)
                .is_err()
        );
    }

    #[test]
    fn completion_inserts_people_stub_for_new_student() {
        let (schema, mut db, omega, analysis, translator) = setup();
        // a new student (ssn 99) requires a PEOPLE parent (out of object)
        let course = ["CS401", "X", "graduate", "Computer Science"];
        let inst = course_instance(&db, &omega, course, &[(99, "A", "MS")]);
        let ops = translate_complete_insertion(&schema, &omega, &analysis, &translator, &db, &inst)
            .unwrap();
        db.apply_all(&ops).unwrap();
        assert!(check_database(&schema, &db).unwrap().is_empty());
        assert!(db.table("PEOPLE").unwrap().contains_key(&Key::single(99)));
    }

    #[test]
    fn completion_gated_by_out_of_object_permission() {
        let (schema, db, omega, analysis, mut translator) = setup();
        translator.allow_out_of_object_repairs = false;
        let course = ["CS401", "X", "graduate", "Computer Science"];
        let inst = course_instance(&db, &omega, course, &[(99, "A", "MS")]);
        let err = translate_complete_insertion(&schema, &omega, &analysis, &translator, &db, &inst)
            .unwrap_err();
        assert!(matches!(err, Error::ConstraintViolation(_)));
    }

    #[test]
    fn shared_student_under_two_grades_inserted_once() {
        // the same (new) student enrolled twice via two grade rows of the
        // same instance: VO-CI case 2 on first sight, case 1 (identical
        // exists in scratch) on the second — exactly one insert
        let (schema, mut db, omega, analysis, translator) = setup();
        // two grade rows cannot share a key: two distinct new students. The
        // SAME student under both grades is impossible through direct edges
        // (the grade key embeds ssn), so assert that the two distinct
        // students each insert exactly once and their PEOPLE stubs too.
        let course = ["CS500", "X", "graduate", "Computer Science"];
        let inst = course_instance(&db, &omega, course, &[(50, "A", "MS"), (51, "A", "MS")]);
        let ops = translate_complete_insertion(&schema, &omega, &analysis, &translator, &db, &inst)
            .unwrap();
        let student_inserts = ops
            .iter()
            .filter(|o| o.is_insert() && o.relation() == "STUDENT")
            .count();
        let people_inserts = ops
            .iter()
            .filter(|o| o.is_insert() && o.relation() == "PEOPLE")
            .count();
        assert_eq!(student_inserts, 2);
        assert_eq!(people_inserts, 2);
        db.apply_all(&ops).unwrap();
        assert!(check_database(&schema, &db).unwrap().is_empty());
    }

    #[test]
    fn forbidden_when_translator_disallows_insertion() {
        let (schema, db, omega, analysis, mut translator) = setup();
        translator.allow_insertion = false;
        let inst = fresh_instance(&db, &omega);
        assert!(
            translate_complete_insertion(&schema, &omega, &analysis, &translator, &db, &inst)
                .is_err()
        );
    }
}
