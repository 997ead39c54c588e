//! Enumeration of candidate view-update translations (paper §4:
//! "conceptually, we specify an enumeration of all possible valid
//! translations ... we do not actually instantiate this enumeration, we
//! merely use it to define the space of alternatives").
//!
//! For engineering purposes we *do* materialize the candidate space for a
//! given request — it is small (one candidate per base relation for
//! deletions, one per consistent attribute assignment for insertions) —
//! and filter it through the five criteria. The dialog then corresponds to
//! choosing one candidate *family* once and for all.

use crate::criteria::{check_side_effects, check_syntactic, ViewDelta};
use crate::viewdef::SpjView;
use std::collections::BTreeMap;
use vo_obs::trace;
use vo_relational::prelude::*;

/// One candidate translation: the ops plus the relation family it deletes
/// from (for deletion candidates).
#[derive(Debug, Clone, PartialEq)]
pub struct Candidate {
    /// The relation this candidate targets (deletions) or a label.
    pub target: String,
    /// The operations.
    pub ops: Vec<DbOp>,
    /// Whether the candidate passed all checked criteria.
    pub valid: bool,
    /// Criterion failures, if any.
    pub violations: Vec<String>,
}

/// Evaluate the view's join (selection applied, *no* projection) and
/// return qualified columns + rows — the basis for locating base tuples
/// behind a view row.
pub fn expanded_rows(view: &SpjView, db: &Database) -> Result<ResultSet> {
    let mut plan = Plan::scan(view.relations[0].clone());
    for (i, rel) in view.relations.iter().enumerate().skip(1) {
        let on: Vec<(String, String)> = view
            .joins
            .iter()
            .filter(|j| j.right_rel == *rel && view.relations[..i].contains(&j.left_rel))
            .map(|j| {
                (
                    format!("{}.{}", j.left_rel, j.left_attr),
                    format!("{}.{}", j.right_rel, j.right_attr),
                )
            })
            .collect();
        plan = plan.join(Plan::scan(rel.clone()), on);
    }
    if view.selection != Expr::True {
        plan = plan.select(view.selection.clone());
    }
    db.execute(&plan)
}

/// Keys of `relation`'s base tuples participating in expanded rows that
/// project to `view_row`.
pub fn participating_keys(
    view: &SpjView,
    db: &Database,
    expanded: &ResultSet,
    relation: &str,
    view_row: &[Value],
) -> Result<Vec<Key>> {
    let col_idx: Vec<usize> = view
        .columns
        .iter()
        .map(|c| expanded.column_index(&format!("{}.{}", c.relation, c.attr)))
        .collect::<Result<_>>()?;
    let key_names = db.table(relation)?.schema().key_names();
    let key_idx: Vec<usize> = key_names
        .iter()
        .map(|k| expanded.column_index(&format!("{relation}.{k}")))
        .collect::<Result<_>>()?;
    let mut keys = Vec::new();
    for row in &expanded.rows {
        let projected: Vec<&Value> = col_idx.iter().map(|&i| &row[i]).collect();
        if projected.iter().zip(view_row).all(|(a, b)| **a == *b) {
            let k = Key::new(key_idx.iter().map(|&i| row[i].clone()).collect());
            if !keys.contains(&k) {
                keys.push(k);
            }
        }
    }
    Ok(keys)
}

/// Enumerate deletion candidates for one view row: one candidate per base
/// relation (delete the participating tuples of that relation), validated
/// against the criteria.
pub fn enumerate_deletions(
    view: &SpjView,
    db: &Database,
    view_row: &[Value],
) -> Result<Vec<Candidate>> {
    let expanded = expanded_rows(view, db)?;
    let removed = vec![view_row.to_vec()];
    let mut out = Vec::new();
    let mut pruned_syntactic = 0i64;
    let mut pruned_side_effects = 0i64;
    for rel in &view.relations {
        let keys = participating_keys(view, db, &expanded, rel, view_row)?;
        if keys.is_empty() {
            continue;
        }
        let ops: Vec<DbOp> = keys
            .into_iter()
            .map(|key| DbOp::Delete {
                relation: rel.clone(),
                key,
            })
            .collect();
        let mut violations: Vec<String> = check_syntactic(&ops)
            .into_iter()
            .map(|v| v.detail)
            .collect();
        if !violations.is_empty() {
            pruned_syntactic += 1;
        }
        let side = check_side_effects(view, db, &ops, &ViewDelta::RowsRemoved(removed.clone()))?;
        if !side.is_empty() {
            pruned_side_effects += 1;
        }
        violations.extend(side.into_iter().map(|v| v.detail));
        out.push(Candidate {
            target: rel.clone(),
            valid: violations.is_empty(),
            ops,
            violations,
        });
    }
    trace::debug_event_with("keller.enumerate", || {
        vec![
            ("op", Json::str("delete")),
            ("view", Json::str(view.name.clone())),
            ("generated", Json::Int(out.len() as i64)),
            (
                "valid",
                Json::Int(out.iter().filter(|c| c.valid).count() as i64),
            ),
            ("pruned_syntactic", Json::Int(pruned_syntactic)),
            ("pruned_side_effects", Json::Int(pruned_side_effects)),
        ]
    });
    Ok(out)
}

/// Compute the full attribute assignment implied by a new view row:
/// projected values plus closure over join equalities.
pub fn implied_assignment(view: &SpjView, view_row: &[Value]) -> BTreeMap<(String, String), Value> {
    let mut assign: BTreeMap<(String, String), Value> = BTreeMap::new();
    for (c, v) in view.columns.iter().zip(view_row) {
        assign.insert((c.relation.clone(), c.attr.clone()), v.clone());
    }
    // propagate across join equalities to a fixed point
    loop {
        let mut changed = false;
        for j in &view.joins {
            let l = (j.left_rel.clone(), j.left_attr.clone());
            let r = (j.right_rel.clone(), j.right_attr.clone());
            match (assign.get(&l).cloned(), assign.get(&r).cloned()) {
                (Some(v), None) => {
                    assign.insert(r, v);
                    changed = true;
                }
                (None, Some(v)) => {
                    assign.insert(l, v);
                    changed = true;
                }
                _ => {}
            }
        }
        if !changed {
            return assign;
        }
    }
}

/// Enumerate the (single canonical) insertion candidate: per relation, the
/// tuple determined by the implied assignment, inserting where missing.
/// Relations whose key is not fully determined make the insertion
/// ambiguous and yield an invalid candidate.
pub fn enumerate_insertion(view: &SpjView, db: &Database, view_row: &[Value]) -> Result<Candidate> {
    let assign = implied_assignment(view, view_row);
    let mut ops = Vec::new();
    let mut violations = Vec::new();
    for rel in &view.relations {
        let schema = db.table(rel)?.schema().clone();
        // the key must be fully determined
        let mut key_vals = Vec::new();
        let mut determined = true;
        for k in schema.key_names() {
            match assign.get(&(rel.clone(), k.to_owned())) {
                Some(v) => key_vals.push(v.clone()),
                None => {
                    determined = false;
                    break;
                }
            }
        }
        if !determined {
            violations.push(format!(
                "key of {rel} is not determined by the view row; insertion is ambiguous"
            ));
            continue;
        }
        let key = Key::new(key_vals);
        match db.table(rel)?.get(&key) {
            Some(existing) => {
                // determined attrs must agree
                for a in schema.attributes() {
                    if let Some(v) = assign.get(&(rel.clone(), a.name.clone())) {
                        if existing.get_named(&schema, &a.name)? != v {
                            violations.push(format!(
                                "existing {rel}{key} conflicts on attribute {}",
                                a.name
                            ));
                        }
                    }
                }
            }
            None => {
                // build the tuple: determined attrs, NULL/defaults elsewhere
                let mut vals = Vec::with_capacity(schema.arity());
                for a in schema.attributes() {
                    if let Some(v) = assign.get(&(rel.clone(), a.name.clone())) {
                        vals.push(v.clone());
                    } else if a.nullable {
                        vals.push(Value::Null);
                    } else {
                        vals.push(match a.ty {
                            DataType::Int => Value::Int(0),
                            DataType::Float => Value::Float(0.0),
                            DataType::Text => Value::text(""),
                            DataType::Bool => Value::Bool(false),
                        });
                    }
                }
                ops.push(DbOp::Insert {
                    relation: rel.clone(),
                    tuple: Tuple::new(&schema, vals)?,
                });
            }
        }
    }
    trace::debug_event_with("keller.enumerate", || {
        let ambiguous = violations
            .iter()
            .filter(|v| v.contains("ambiguous"))
            .count();
        let conflicts = violations
            .iter()
            .filter(|v| v.contains("conflicts"))
            .count();
        vec![
            ("op", Json::str("insert")),
            ("view", Json::str(view.name.clone())),
            ("generated", Json::Int(1)),
            ("valid", Json::Int(violations.is_empty() as i64)),
            ("pruned_ambiguous_key", Json::Int(ambiguous as i64)),
            ("pruned_conflict", Json::Int(conflicts as i64)),
        ]
    });
    Ok(Candidate {
        target: "insertion".into(),
        valid: violations.is_empty(),
        ops,
        violations,
    })
}

/// Enumerate replacement candidates for one view row: per base relation
/// holding changed columns, the replacement of its participating tuples.
/// Changes to join attributes make a relation's candidate invalid
/// (ambiguous), which is exactly the limitation the view-object layer
/// resolves with structural-model semantics.
pub fn enumerate_replacements(
    view: &SpjView,
    db: &Database,
    old_row: &[Value],
    new_row: &[Value],
) -> Result<Vec<Candidate>> {
    if old_row.len() != view.columns.len() || new_row.len() != view.columns.len() {
        return Err(Error::ArityMismatch {
            relation: view.name.clone(),
            expected: view.columns.len(),
            found: old_row.len().min(new_row.len()),
        });
    }
    let mut changed_by_rel: BTreeMap<String, Vec<(String, Value, bool)>> = BTreeMap::new();
    for (i, c) in view.columns.iter().enumerate() {
        if old_row[i] == new_row[i] {
            continue;
        }
        let is_join_attr = view.joins.iter().any(|j| {
            (j.left_rel == c.relation && j.left_attr == c.attr)
                || (j.right_rel == c.relation && j.right_attr == c.attr)
        });
        changed_by_rel.entry(c.relation.clone()).or_default().push((
            c.attr.clone(),
            new_row[i].clone(),
            is_join_attr,
        ));
    }
    let expanded = expanded_rows(view, db)?;
    let mut out = Vec::new();
    for (rel, changes) in changed_by_rel {
        let mut violations: Vec<String> = changes
            .iter()
            .filter(|(_, _, join)| *join)
            .map(|(a, _, _)| format!("{rel}.{a} is a join attribute; replacement is ambiguous"))
            .collect();
        let schema = db.table(&rel)?.schema().clone();
        let keys = participating_keys(view, db, &expanded, &rel, old_row)?;
        if keys.is_empty() {
            violations.push(format!("old view row not found for {rel}"));
        }
        let mut ops = Vec::new();
        if violations.is_empty() {
            for key in keys {
                let mut tuple = db
                    .table(&rel)?
                    .get(&key)
                    .cloned()
                    .expect("participating key");
                for (attr, v, _) in &changes {
                    tuple = tuple.with_named(&schema, attr, v.clone())?;
                }
                ops.push(DbOp::Replace {
                    relation: rel.clone(),
                    old_key: key,
                    tuple,
                });
            }
        }
        out.push(Candidate {
            target: rel,
            valid: violations.is_empty(),
            ops,
            violations,
        });
    }
    trace::debug_event_with("keller.enumerate", || {
        let join_attr = out
            .iter()
            .filter(|c| c.violations.iter().any(|v| v.contains("join attribute")))
            .count();
        let missing = out
            .iter()
            .filter(|c| c.violations.iter().any(|v| v.contains("not found")))
            .count();
        vec![
            ("op", Json::str("replace")),
            ("view", Json::str(view.name.clone())),
            ("generated", Json::Int(out.len() as i64)),
            (
                "valid",
                Json::Int(out.iter().filter(|c| c.valid).count() as i64),
            ),
            ("pruned_join_attr", Json::Int(join_attr as i64)),
            ("pruned_missing_row", Json::Int(missing as i64)),
        ]
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vo_core::university::university_database;

    fn course_dept_view() -> SpjView {
        SpjView::new("cd", "COURSES")
            .join(
                "DEPARTMENT",
                &[("COURSES", "dept_name", "DEPARTMENT", "dept_name")],
            )
            .column("COURSES", "course_id")
            .column("COURSES", "title")
            .column_as("DEPARTMENT", "dept_name", "department")
    }

    #[test]
    fn deletion_candidates_filtered_by_side_effects() {
        let (_, db) = university_database();
        let view = course_dept_view();
        let row = vec![
            Value::text("CS345"),
            Value::text("Database Systems"),
            Value::text("Computer Science"),
        ];
        let cands = enumerate_deletions(&view, &db, &row).unwrap();
        assert_eq!(cands.len(), 2);
        let courses = cands.iter().find(|c| c.target == "COURSES").unwrap();
        assert!(courses.valid, "{:?}", courses.violations);
        // deleting the department would also remove CS101's row → side effect
        let dept = cands.iter().find(|c| c.target == "DEPARTMENT").unwrap();
        assert!(!dept.valid);
    }

    #[test]
    fn deletion_of_unique_department_row_is_valid_on_both() {
        let (_, db) = university_database();
        let view = course_dept_view();
        // EE282 is the only Electrical Engineering course
        let row = vec![
            Value::text("EE282"),
            Value::text("Computer Architecture"),
            Value::text("Electrical Engineering"),
        ];
        let cands = enumerate_deletions(&view, &db, &row).unwrap();
        let dept = cands.iter().find(|c| c.target == "DEPARTMENT").unwrap();
        // deleting the department removes exactly this view row... but the
        // PEOPLE staff row references it; the relational view layer does
        // not know about structural integrity, so from the *view's*
        // standpoint the candidate is valid. (The paper's whole point: the
        // object layer adds these semantics.)
        assert!(dept.valid, "{:?}", dept.violations);
        let courses = cands.iter().find(|c| c.target == "COURSES").unwrap();
        assert!(courses.valid);
    }

    #[test]
    fn implied_assignment_closes_over_joins() {
        let view = course_dept_view();
        let row = vec![Value::text("X1"), Value::text("T"), Value::text("NewDept")];
        let assign = implied_assignment(&view, &row);
        // DEPARTMENT.dept_name projected as 'department' propagates to
        // COURSES.dept_name through the join
        assert_eq!(
            assign.get(&("COURSES".into(), "dept_name".into())),
            Some(&Value::text("NewDept"))
        );
    }

    #[test]
    fn insertion_candidate_inserts_missing_relations() {
        let (_, db) = university_database();
        let view = course_dept_view();
        let row = vec![
            Value::text("ME101"),
            Value::text("Statics"),
            Value::text("Mechanical Engineering"),
        ];
        let cand = enumerate_insertion(&view, &db, &row).unwrap();
        assert!(cand.valid);
        assert_eq!(cand.ops.len(), 2); // new course + new department
    }

    #[test]
    fn insertion_into_existing_department_inserts_course_only() {
        let (_, db) = university_database();
        let view = course_dept_view();
        let row = vec![
            Value::text("CS150"),
            Value::text("Systems"),
            Value::text("Computer Science"),
        ];
        let cand = enumerate_insertion(&view, &db, &row).unwrap();
        assert!(cand.valid);
        assert_eq!(cand.ops.len(), 1);
        assert_eq!(cand.ops[0].relation(), "COURSES");
    }

    #[test]
    fn conflicting_insertion_is_invalid() {
        let (_, db) = university_database();
        let view = course_dept_view();
        // CS345 exists with a different title
        let row = vec![
            Value::text("CS345"),
            Value::text("Wrong Title"),
            Value::text("Computer Science"),
        ];
        let cand = enumerate_insertion(&view, &db, &row).unwrap();
        assert!(!cand.valid);
    }

    #[test]
    fn replacement_candidates_split_by_relation() {
        let (_, db) = university_database();
        let view = course_dept_view();
        let old = vec![
            Value::text("CS345"),
            Value::text("Database Systems"),
            Value::text("Computer Science"),
        ];
        let mut new = old.clone();
        new[1] = Value::text("Advanced Databases");
        let cands = enumerate_replacements(&view, &db, &old, &new).unwrap();
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].target, "COURSES");
        assert!(cands[0].valid);
        assert_eq!(cands[0].ops.len(), 1);
    }

    #[test]
    fn replacement_of_join_attribute_invalid() {
        let (_, db) = university_database();
        let view = course_dept_view();
        let old = vec![
            Value::text("CS345"),
            Value::text("Database Systems"),
            Value::text("Computer Science"),
        ];
        let mut new = old.clone();
        new[2] = Value::text("Engineering Economic Systems");
        let cands = enumerate_replacements(&view, &db, &old, &new).unwrap();
        assert_eq!(cands.len(), 1);
        assert!(!cands[0].valid);
        assert!(cands[0].violations[0].contains("ambiguous"));
    }

    #[test]
    fn replacement_of_missing_row_invalid() {
        let (_, db) = university_database();
        let view = course_dept_view();
        let old = vec![Value::text("NOPE"), Value::text("x"), Value::text("y")];
        let mut new = old.clone();
        new[1] = Value::text("z");
        let cands = enumerate_replacements(&view, &db, &old, &new).unwrap();
        assert!(!cands[0].valid);
    }

    #[test]
    fn enumeration_traces_generated_vs_pruned() {
        let (_, db) = university_database();
        let view = course_dept_view();
        let row = vec![
            Value::text("CS345"),
            Value::text("Database Systems"),
            Value::text("Computer Science"),
        ];
        let scope = trace::start_trace();
        enumerate_deletions(&view, &db, &row).unwrap();
        let me = trace::current_thread_id();
        let ev = trace::events()
            .into_iter()
            .rfind(|e| {
                e.thread == me
                    && e.name == "keller.enumerate"
                    && e.field("op") == Some(&Json::str("delete"))
            })
            .expect("enumerate event");
        drop(scope);
        // 2 candidates generated; DEPARTMENT pruned by the side-effect
        // criterion (deleting it would also remove CS101's view row)
        assert_eq!(ev.field("generated").unwrap(), &Json::Int(2));
        assert_eq!(ev.field("valid").unwrap(), &Json::Int(1));
        assert_eq!(ev.field("pruned_side_effects").unwrap(), &Json::Int(1));
        assert_eq!(ev.field("pruned_syntactic").unwrap(), &Json::Int(0));
    }

    #[test]
    fn underdetermined_key_is_flagged() {
        let (_, db) = university_database();
        // view that projects only the grade, not the GRADES key
        let view = SpjView::new("g", "GRADES").column("GRADES", "grade");
        let cand = enumerate_insertion(&view, &db, &[Value::text("A")]).unwrap();
        assert!(!cand.valid);
        assert!(cand.violations[0].contains("ambiguous"));
    }
}
