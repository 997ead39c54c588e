//! Algorithm VO-CD — translation of complete-deletion requests
//! (paper §5.1).
//!
//! The algorithm: isolate the dependency island; delete all matching
//! tuples of each island projection; identify the referencing peninsulas
//! and repair the foreign key of each matching tuple; then maintain global
//! integrity (cascade to out-of-object owned/subset relations, repair any
//! other referencing relation). Because the island is by construction a
//! forward ownership/subset subtree of the pivot, the structural deletion
//! planner realizes the whole algorithm: cascading from the pivot tuple
//! reaches every island tuple, and the translator-derived policy drives
//! the peninsula and out-of-object repairs. When a peninsula's policy is
//! *reject* and referencing tuples exist, "the transaction cannot be
//! completed and has to be rolled back."

use crate::instance::VoInstance;
use crate::island::IslandAnalysis;
use crate::object::ViewObject;
use crate::translator::Translator;
use crate::update::validate::{validate_instance, LocalValidation};
use vo_relational::prelude::*;
use vo_structural::prelude::*;

/// Translate a complete deletion into database operations: steps 1 and 3
/// over an overlay of `db` (the pipeline, which has run step 1 already,
/// goes to step 3 directly).
pub fn translate_complete_deletion(
    schema: &StructuralSchema,
    object: &ViewObject,
    analysis: &IslandAnalysis,
    translator: &Translator,
    db: &Database,
    instance: &VoInstance,
) -> Result<Vec<DbOp>> {
    translator.permitted(object, "complete-deletion")?;
    let validated = validate_instance(schema, object, instance)?;
    let mut rec = DeltaDb::new(db);
    translate_complete_deletion_checked(
        schema, object, analysis, translator, &mut rec, instance, &validated,
    )?;
    Ok(rec.into_ops())
}

/// Step 3 of a complete deletion alone. `_validated` is the caller's
/// evidence that `instance` passed local validation (step 1); a deletion
/// reads nothing from it.
pub(crate) fn translate_complete_deletion_checked(
    schema: &StructuralSchema,
    object: &ViewObject,
    analysis: &IslandAnalysis,
    translator: &Translator,
    rec: &mut DeltaDb<'_>,
    instance: &VoInstance,
    _validated: &LocalValidation,
) -> Result<()> {
    vo_relational::stats::count_snapshot_avoided();
    translator.permitted(object, "complete-deletion")?;

    let pivot_schema = schema.catalog().relation(object.pivot())?;
    let pivot_key = instance.root.tuple.key(pivot_schema);
    let policy = translator.deletion_policy(schema, object, analysis);
    let read = analysis.read_set(instance);
    // the instance must denote a stored entity as it showed it: its pivot
    // and every island tuple are there, unchanged
    read.held(&*rec)?;
    rec.reading(read, |rec| {
        // the cascade deletes what lies under the pivot
        let ops = plan_delete(schema, &*rec, object.pivot(), &pivot_key, &policy)?;
        rec.apply_all(ops)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::assemble;
    use crate::island::analyze;
    use crate::translator::PeninsulaAction;
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

    fn cs345(schema: &StructuralSchema, db: &Database, omega: &ViewObject) -> VoInstance {
        let t = db
            .table("COURSES")
            .unwrap()
            .get(&Key::single("CS345"))
            .unwrap()
            .clone();
        assemble(schema, omega, db, t).unwrap()
    }

    #[test]
    fn deletes_island_and_repairs_peninsula() {
        let (schema, mut db, omega, analysis, translator) = setup();
        let inst = cs345(&schema, &db, &omega);
        let ops = translate_complete_deletion(&schema, &omega, &analysis, &translator, &db, &inst)
            .unwrap();
        db.apply_all(&ops).unwrap();
        assert!(check_database(&schema, &db).unwrap().is_empty());
        assert!(!db
            .table("COURSES")
            .unwrap()
            .contains_key(&Key::single("CS345")));
        // grades of CS345 cascaded away
        assert_eq!(db.table("GRADES").unwrap().len(), 14);
        // peninsula tuples (CURRICULUM rows citing CS345) deleted — their
        // foreign key is part of their key, so nullify is impossible and
        // the default action deletes them
        assert_eq!(db.table("CURRICULUM").unwrap().len(), 1);
        // students and departments untouched
        assert_eq!(db.table("STUDENT").unwrap().len(), 10);
        assert_eq!(db.table("DEPARTMENT").unwrap().len(), 2);
    }

    #[test]
    fn peninsula_reject_rolls_back() {
        let (schema, db, omega, analysis, mut translator) = setup();
        translator
            .peninsula_actions
            .insert("CURRICULUM".into(), PeninsulaAction::Reject);
        let inst = cs345(&schema, &db, &omega);
        let err = translate_complete_deletion(&schema, &omega, &analysis, &translator, &db, &inst)
            .unwrap_err();
        assert!(matches!(err, Error::ConstraintViolation(_)));
        // nothing changed
        assert!(db
            .table("COURSES")
            .unwrap()
            .contains_key(&Key::single("CS345")));
    }

    #[test]
    fn peninsula_nullify_fails_when_fk_is_key() {
        let (schema, db, omega, analysis, mut translator) = setup();
        translator
            .peninsula_actions
            .insert("CURRICULUM".into(), PeninsulaAction::NullifyForeignKey);
        let inst = cs345(&schema, &db, &omega);
        let err = translate_complete_deletion(&schema, &omega, &analysis, &translator, &db, &inst)
            .unwrap_err();
        // CURRICULUM.course_id is part of its key → cannot be NULLed
        assert!(matches!(err, Error::ConstraintViolation(_)));
    }

    #[test]
    fn forbidden_when_translator_disallows_deletion() {
        let (schema, db, omega, analysis, mut translator) = setup();
        translator.allow_deletion = false;
        let inst = cs345(&schema, &db, &omega);
        assert!(
            translate_complete_deletion(&schema, &omega, &analysis, &translator, &db, &inst)
                .is_err()
        );
    }

    #[test]
    fn stale_instance_rejected() {
        let (schema, mut db, omega, analysis, translator) = setup();
        let inst = cs345(&schema, &db, &omega);
        // someone else deletes a grade first: the instance is stale
        db.table_mut("GRADES")
            .unwrap()
            .delete(&Key(vec!["CS345".into(), 1.into()]))
            .unwrap();
        let err = translate_complete_deletion(&schema, &omega, &analysis, &translator, &db, &inst)
            .unwrap_err();
        assert!(matches!(err, Error::StaleTuple { relation, .. } if relation == "GRADES"));
    }

    #[test]
    fn nonexistent_instance_rejected() {
        let (schema, mut db, omega, analysis, translator) = setup();
        let inst = cs345(&schema, &db, &omega);
        db.run_sql("DELETE FROM CURRICULUM WHERE course_id = 'CS345'")
            .unwrap();
        db.run_sql("DELETE FROM GRADES WHERE course_id = 'CS345'")
            .unwrap();
        db.run_sql("DELETE FROM COURSES WHERE course_id = 'CS345'")
            .unwrap();
        let err = translate_complete_deletion(&schema, &omega, &analysis, &translator, &db, &inst)
            .unwrap_err();
        assert!(matches!(err, Error::NoSuchTuple { .. }));
    }

    #[test]
    fn deletion_of_instance_without_peninsula_rows() {
        let (schema, mut db, omega, analysis, translator) = setup();
        // EE282 has no curriculum rows
        let t = db
            .table("COURSES")
            .unwrap()
            .get(&Key::single("EE282"))
            .unwrap()
            .clone();
        let inst = assemble(&schema, &omega, &db, t).unwrap();
        let ops = translate_complete_deletion(&schema, &omega, &analysis, &translator, &db, &inst)
            .unwrap();
        db.apply_all(&ops).unwrap();
        assert!(check_database(&schema, &db).unwrap().is_empty());
        assert_eq!(db.table("CURRICULUM").unwrap().len(), 3);
        assert_eq!(db.table("GRADES").unwrap().len(), 11);
    }
}
