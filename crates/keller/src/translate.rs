//! The Keller view-update translator: chosen once by dialog, then applied
//! to every subsequent view update (paper §4 and [14, 15]).

use crate::enumerate::{
    enumerate_insertion, expanded_rows, implied_assignment, participating_keys,
};
use crate::viewdef::SpjView;
use std::collections::BTreeSet;
use vo_relational::prelude::*;

/// A view-update translator for one SPJ view.
#[derive(Debug, Clone, PartialEq)]
pub struct KellerTranslator {
    /// The view definition.
    pub view: SpjView,
    /// Which relation deletions are translated into (None = reject
    /// deletions).
    pub delete_from: Option<String>,
    /// Relations that insertions may create tuples in.
    pub insert_into: BTreeSet<String>,
    /// Relations whose base tuples updates may modify.
    pub update_allowed: BTreeSet<String>,
}

impl KellerTranslator {
    /// Translate the deletion of one view row.
    pub fn translate_delete(&self, db: &Database, view_row: &[Value]) -> Result<Vec<DbOp>> {
        let target = self.delete_from.as_ref().ok_or_else(|| {
            Error::ConstraintViolation(format!(
                "translator for view {} rejects deletions",
                self.view.name
            ))
        })?;
        let expanded = expanded_rows(&self.view, db)?;
        let keys = participating_keys(&self.view, db, &expanded, target, view_row)?;
        if keys.is_empty() {
            return Err(Error::ConstraintViolation(format!(
                "view row not found in {}",
                self.view.name
            )));
        }
        Ok(keys
            .into_iter()
            .map(|key| DbOp::Delete {
                relation: target.clone(),
                key,
            })
            .collect())
    }

    /// Translate the insertion of one view row.
    pub fn translate_insert(&self, db: &Database, view_row: &[Value]) -> Result<Vec<DbOp>> {
        if view_row.len() != self.view.columns.len() {
            return Err(Error::ArityMismatch {
                relation: self.view.name.clone(),
                expected: self.view.columns.len(),
                found: view_row.len(),
            });
        }
        let cand = enumerate_insertion(&self.view, db, view_row)?;
        if !cand.valid {
            return Err(Error::ConstraintViolation(format!(
                "insertion into view {} is invalid: {}",
                self.view.name,
                cand.violations.join("; ")
            )));
        }
        for op in &cand.ops {
            if !self.insert_into.contains(op.relation()) {
                return Err(Error::ConstraintViolation(format!(
                    "translator forbids inserting into {}",
                    op.relation()
                )));
            }
        }
        Ok(cand.ops)
    }

    /// Translate the replacement of one view row by another.
    ///
    /// Changed view columns are grouped by their source relation; each
    /// group becomes replacements of the participating base tuples.
    /// Changes to *join attributes* are rejected as inherently ambiguous
    /// (the flat view cannot say whether to re-target or to rename — the
    /// distinction the view-object model draws from the structural model).
    pub fn translate_update(
        &self,
        db: &Database,
        old_row: &[Value],
        new_row: &[Value],
    ) -> Result<Vec<DbOp>> {
        if old_row.len() != self.view.columns.len() || new_row.len() != self.view.columns.len() {
            return Err(Error::ArityMismatch {
                relation: self.view.name.clone(),
                expected: self.view.columns.len(),
                found: old_row.len().min(new_row.len()),
            });
        }
        let mut by_relation: std::collections::BTreeMap<String, Vec<(String, Value)>> =
            Default::default();
        for (i, c) in self.view.columns.iter().enumerate() {
            if old_row[i] == new_row[i] {
                continue;
            }
            let is_join_attr = self.view.joins.iter().any(|j| {
                (j.left_rel == c.relation && j.left_attr == c.attr)
                    || (j.right_rel == c.relation && j.right_attr == c.attr)
            });
            if is_join_attr {
                return Err(Error::ConstraintViolation(format!(
                    "update of join attribute {}.{} through flat view {} is ambiguous",
                    c.relation, c.attr, self.view.name
                )));
            }
            by_relation
                .entry(c.relation.clone())
                .or_default()
                .push((c.attr.clone(), new_row[i].clone()));
        }
        if by_relation.is_empty() {
            return Ok(Vec::new());
        }
        let expanded = expanded_rows(&self.view, db)?;
        let mut ops = Vec::new();
        for (rel, assignments) in by_relation {
            if !self.update_allowed.contains(&rel) {
                return Err(Error::ConstraintViolation(format!(
                    "translator forbids updating base tuples of {rel}"
                )));
            }
            let schema = db.table(&rel)?.schema().clone();
            let keys = participating_keys(&self.view, db, &expanded, &rel, old_row)?;
            if keys.is_empty() {
                return Err(Error::ConstraintViolation(format!(
                    "old view row not found for relation {rel}"
                )));
            }
            for key in keys {
                let mut tuple =
                    db.table(&rel)?
                        .get(&key)
                        .cloned()
                        .ok_or_else(|| Error::NoSuchTuple {
                            relation: rel.clone(),
                            key: key.to_string(),
                        })?;
                for (attr, v) in &assignments {
                    tuple = tuple.with_named(&schema, attr, v.clone())?;
                }
                ops.push(DbOp::Replace {
                    relation: rel.clone(),
                    old_key: key,
                    tuple,
                });
            }
        }
        Ok(ops)
    }

    /// The attribute assignment a row implies (re-exported convenience).
    pub fn assignment(
        &self,
        view_row: &[Value],
    ) -> std::collections::BTreeMap<(String, String), Value> {
        implied_assignment(&self.view, view_row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vo_core::university::university_database;

    fn translator() -> KellerTranslator {
        let view = SpjView::new("cd", "COURSES")
            .join(
                "DEPARTMENT",
                &[("COURSES", "dept_name", "DEPARTMENT", "dept_name")],
            )
            .column("COURSES", "course_id")
            .column("COURSES", "title")
            .column_as("DEPARTMENT", "dept_name", "department");
        KellerTranslator {
            view,
            delete_from: Some("COURSES".into()),
            insert_into: ["COURSES".to_string(), "DEPARTMENT".to_string()]
                .into_iter()
                .collect(),
            update_allowed: ["COURSES".to_string(), "DEPARTMENT".to_string()]
                .into_iter()
                .collect(),
        }
    }

    #[test]
    fn delete_targets_chosen_relation() {
        let (_, mut db) = university_database();
        let t = translator();
        let ops = t
            .translate_delete(
                &db,
                &[
                    Value::text("CS345"),
                    Value::text("Database Systems"),
                    Value::text("Computer Science"),
                ],
            )
            .unwrap();
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].relation(), "COURSES");
        db.apply_all(&ops).unwrap();
        assert!(!db
            .table("COURSES")
            .unwrap()
            .contains_key(&Key::single("CS345")));
        // NOTE: grades for CS345 are now orphaned — the flat-view
        // translator knows nothing about the structural model. This is
        // precisely the gap the paper's object layer fills.
        assert_eq!(db.table("GRADES").unwrap().len(), 17);
    }

    #[test]
    fn delete_rejected_without_target() {
        let (_, db) = university_database();
        let mut t = translator();
        t.delete_from = None;
        assert!(t
            .translate_delete(&db, &[Value::text("CS345"), Value::Null, Value::Null])
            .is_err());
    }

    #[test]
    fn insert_creates_missing_base_tuples() {
        let (_, mut db) = university_database();
        let t = translator();
        let ops = t
            .translate_insert(
                &db,
                &[
                    Value::text("ME101"),
                    Value::text("Statics"),
                    Value::text("Mechanical Engineering"),
                ],
            )
            .unwrap();
        db.apply_all(&ops).unwrap();
        assert!(db
            .table("COURSES")
            .unwrap()
            .contains_key(&Key::single("ME101")));
        assert!(db
            .table("DEPARTMENT")
            .unwrap()
            .contains_key(&Key::single("Mechanical Engineering")));
    }

    #[test]
    fn insert_gated_by_permissions() {
        let (_, db) = university_database();
        let mut t = translator();
        t.insert_into.remove("DEPARTMENT");
        let err = t
            .translate_insert(
                &db,
                &[
                    Value::text("ME101"),
                    Value::text("Statics"),
                    Value::text("Mechanical Engineering"),
                ],
            )
            .unwrap_err();
        assert!(matches!(err, Error::ConstraintViolation(_)));
    }

    #[test]
    fn update_nonjoin_column() {
        let (_, mut db) = university_database();
        let t = translator();
        let old = vec![
            Value::text("CS345"),
            Value::text("Database Systems"),
            Value::text("Computer Science"),
        ];
        let mut new = old.clone();
        new[1] = Value::text("Advanced Databases");
        let ops = t.translate_update(&db, &old, &new).unwrap();
        assert_eq!(ops.len(), 1);
        db.apply_all(&ops).unwrap();
        let c = db
            .table("COURSES")
            .unwrap()
            .get(&Key::single("CS345"))
            .unwrap()
            .clone();
        assert_eq!(c.values()[1], Value::text("Advanced Databases"));
    }

    #[test]
    fn update_of_join_attribute_rejected_as_ambiguous() {
        let (_, db) = university_database();
        let t = translator();
        let old = vec![
            Value::text("CS345"),
            Value::text("Database Systems"),
            Value::text("Computer Science"),
        ];
        let mut new = old.clone();
        new[2] = Value::text("Engineering Economic Systems");
        let err = t.translate_update(&db, &old, &new).unwrap_err();
        // The view-object model handles this exact request (the paper's
        // §6 worked example) — the flat translator cannot.
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn noop_update_yields_no_ops() {
        let (_, db) = university_database();
        let t = translator();
        let row = vec![
            Value::text("CS345"),
            Value::text("Database Systems"),
            Value::text("Computer Science"),
        ];
        assert!(t.translate_update(&db, &row, &row).unwrap().is_empty());
    }

    #[test]
    fn update_gated_by_permissions() {
        let (_, db) = university_database();
        let mut t = translator();
        t.update_allowed.remove("COURSES");
        let old = vec![
            Value::text("CS345"),
            Value::text("Database Systems"),
            Value::text("Computer Science"),
        ];
        let mut new = old.clone();
        new[1] = Value::text("X");
        assert!(t.translate_update(&db, &old, &new).is_err());
    }
}
