//! Partial updates — manipulating one component of a view object
//! (paper §5 delegates these to the thesis \[4\]; we realize them by
//! *reduction to replacement*: fetch the stored instance, apply the
//! component edit, and run it through VO-R). This guarantees partial
//! updates obey exactly the same translator and global-integrity rules as
//! complete updates.

use crate::instance::{instantiate_many, VoInstance};
use crate::object::NodeId;
use crate::update::error::{UpdateError, UpdateResult, UpdateStep};
use crate::update::pipeline::{UpdateOutcome, ViewObjectUpdater};
use crate::update::UpdateRequest;
use vo_relational::prelude::*;
use vo_structural::prelude::*;

/// A partial update against one node of the object, addressed by the
/// instance's pivot key.
#[derive(Debug, Clone)]
pub enum PartialOp {
    /// Add one tuple under `node` (its connecting attributes are aligned
    /// to the parent automatically by link propagation).
    InsertChild {
        /// Pivot key selecting the instance.
        pivot_key: Key,
        /// Target node.
        node: NodeId,
        /// Tuple to add.
        tuple: Tuple,
    },
    /// Remove the tuple with `key` from `node`.
    DeleteChild {
        /// Pivot key selecting the instance.
        pivot_key: Key,
        /// Target node.
        node: NodeId,
        /// Key of the tuple to remove.
        key: Key,
    },
    /// Replace the tuple with `old_key` under `node` by `new`.
    ModifyChild {
        /// Pivot key selecting the instance.
        pivot_key: Key,
        /// Target node.
        node: NodeId,
        /// Key of the tuple being replaced.
        old_key: Key,
        /// Replacing tuple.
        new: Tuple,
    },
    /// Replace the pivot tuple itself (children follow by propagation).
    ModifyPivot {
        /// Current pivot key.
        pivot_key: Key,
        /// Replacing pivot tuple.
        new: Tuple,
    },
}

impl PartialOp {
    /// Short label for logs and outcomes.
    pub fn kind(&self) -> &'static str {
        match self {
            PartialOp::InsertChild { .. } => "partial-insert-child",
            PartialOp::DeleteChild { .. } => "partial-delete-child",
            PartialOp::ModifyChild { .. } => "partial-modify-child",
            PartialOp::ModifyPivot { .. } => "partial-modify-pivot",
        }
    }
}

impl ViewObjectUpdater {
    /// Translate and apply a partial update by reduction to VO-R.
    pub fn apply_partial(
        &self,
        schema: &StructuralSchema,
        db: &mut Database,
        op: PartialOp,
    ) -> Result<Vec<DbOp>> {
        self.apply_partial_outcome(schema, db, op)
            .map(|o| o.ops)
            .map_err(Error::from)
    }

    /// Like [`ViewObjectUpdater::apply_partial`], but returning the full
    /// [`UpdateOutcome`]. Errors during instance assembly and component
    /// editing (missing pivot, missing child) count as the *validate*
    /// step; the reduced replacement then runs the normal pipeline.
    pub fn apply_partial_outcome(
        &self,
        schema: &StructuralSchema,
        db: &mut Database,
        op: PartialOp,
    ) -> UpdateResult<UpdateOutcome> {
        let kind = op.kind();
        let (old, new) = self
            .reduce_partial(schema, db, op)
            .map_err(|e| UpdateError::new(UpdateStep::Validate, e).with_kind(kind))?;
        let mut outcome =
            self.apply_request(schema, db, UpdateRequest::Replacement { old, new })?;
        outcome.request_kind = kind;
        Ok(outcome)
    }

    /// Reduce a partial op to a `(stored, edited)` instance pair for VO-R.
    fn reduce_partial(
        &self,
        schema: &StructuralSchema,
        db: &Database,
        op: PartialOp,
    ) -> Result<(VoInstance, VoInstance)> {
        let pivot_key = match &op {
            PartialOp::InsertChild { pivot_key, .. }
            | PartialOp::DeleteChild { pivot_key, .. }
            | PartialOp::ModifyChild { pivot_key, .. }
            | PartialOp::ModifyPivot { pivot_key, .. } => pivot_key.clone(),
        };
        let pivot_tuple = db
            .table(self.object().pivot())?
            .get(&pivot_key)
            .cloned()
            .ok_or_else(|| Error::NoSuchTuple {
                relation: self.object().pivot().to_owned(),
                key: pivot_key.to_string(),
            })?;
        let old = instantiate_many(schema, self.object(), db, &[&pivot_tuple])?
            .pop()
            .expect("one instance per pivot");
        let mut new = old.clone();
        match op {
            PartialOp::InsertChild { node, tuple, .. } => {
                let parent = self.object().node(node).parent.ok_or_else(|| {
                    Error::ConstraintViolation(
                        "cannot InsertChild at the pivot; use a complete insertion".into(),
                    )
                })?;
                // attach under every tuple of the parent node; if the
                // tuple's linking values don't match one, link propagation
                // rewrites them when the parent is the pivot — otherwise
                // validation refuses the ambiguity
                let parents = new.tuples_of(parent).len();
                if parents == 0 {
                    return Err(Error::ConstraintViolation(format!(
                        "no instance of node {parent} to attach the new child under"
                    )));
                }
                for pos in 0..parents {
                    new.attach(parent, pos, node, tuple.clone());
                }
            }
            PartialOp::DeleteChild { node, key, .. } => {
                for pos in self
                    .child_positions(schema, &new, node, &key)?
                    .into_iter()
                    .rev()
                {
                    new.remove(node, pos);
                }
            }
            PartialOp::ModifyChild {
                node,
                old_key,
                new: newt,
                ..
            } => {
                for pos in self.child_positions(schema, &new, node, &old_key)? {
                    new.rewrite(node, pos, newt.clone());
                }
            }
            PartialOp::ModifyPivot { new: newt, .. } => {
                new.root.tuple = newt;
            }
        }
        Ok((old, new))
    }

    /// The positions of the tuples with key `key` among those `inst` binds
    /// at `node` (never the pivot, which `ModifyPivot` addresses).
    fn child_positions(
        &self,
        schema: &StructuralSchema,
        inst: &VoInstance,
        node: NodeId,
        key: &Key,
    ) -> Result<Vec<usize>> {
        let relation = &self.object().node(node).relation;
        let rel_schema = schema.catalog().relation(relation)?;
        let hits: Vec<usize> = (inst.tuples_of(node).iter().enumerate())
            .filter(|(_, t)| node != 0 && t.key(rel_schema) == *key)
            .map(|(pos, _)| pos)
            .collect();
        if hits.is_empty() {
            return Err(Error::NoSuchTuple {
                relation: relation.clone(),
                key: key.to_string(),
            });
        }
        Ok(hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::translator::Translator;
    use crate::treegen::generate_omega;
    use crate::university::university_database;

    fn setup() -> (StructuralSchema, Database, ViewObjectUpdater) {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let updater =
            ViewObjectUpdater::new(&schema, omega.clone(), Translator::permissive(&omega)).unwrap();
        (schema, db, updater)
    }

    fn node_id(u: &ViewObjectUpdater, rel: &str) -> NodeId {
        u.object()
            .nodes()
            .iter()
            .find(|n| n.relation == rel)
            .unwrap()
            .id
    }

    #[test]
    fn insert_child_grade() {
        let (schema, mut db, updater) = setup();
        let gid = node_id(&updater, "GRADES");
        let grades = db.table("GRADES").unwrap().schema().clone();
        updater
            .apply_partial(
                &schema,
                &mut db,
                PartialOp::InsertChild {
                    pivot_key: Key::single("CS345"),
                    node: gid,
                    tuple: Tuple::new(&grades, vec!["CS345".into(), 9.into(), "B".into()]).unwrap(),
                },
            )
            .unwrap();
        assert!(db
            .table("GRADES")
            .unwrap()
            .contains_key(&Key(vec!["CS345".into(), 9.into()])));
        assert!(check_database(&schema, &db).unwrap().is_empty());
    }

    #[test]
    fn delete_child_grade_cascades_nothing_else() {
        let (schema, mut db, updater) = setup();
        let gid = node_id(&updater, "GRADES");
        updater
            .apply_partial(
                &schema,
                &mut db,
                PartialOp::DeleteChild {
                    pivot_key: Key::single("CS345"),
                    node: gid,
                    key: Key(vec!["CS345".into(), 2.into()]),
                },
            )
            .unwrap();
        assert!(!db
            .table("GRADES")
            .unwrap()
            .contains_key(&Key(vec!["CS345".into(), 2.into()])));
        // the student survives (outside the island)
        assert!(db.table("STUDENT").unwrap().contains_key(&Key::single(2)));
        assert!(check_database(&schema, &db).unwrap().is_empty());
    }

    #[test]
    fn modify_child_grade_value() {
        let (schema, mut db, updater) = setup();
        let gid = node_id(&updater, "GRADES");
        let grades = db.table("GRADES").unwrap().schema().clone();
        updater
            .apply_partial(
                &schema,
                &mut db,
                PartialOp::ModifyChild {
                    pivot_key: Key::single("CS345"),
                    node: gid,
                    old_key: Key(vec!["CS345".into(), 1.into()]),
                    new: Tuple::new(&grades, vec!["CS345".into(), 1.into(), "F".into()]).unwrap(),
                },
            )
            .unwrap();
        let g = db
            .table("GRADES")
            .unwrap()
            .get(&Key(vec!["CS345".into(), 1.into()]))
            .unwrap()
            .clone();
        assert_eq!(g.values()[2], Value::text("F"));
    }

    #[test]
    fn modify_pivot_rekeys_entity() {
        let (schema, mut db, updater) = setup();
        let courses = db.table("COURSES").unwrap().schema().clone();
        updater
            .apply_partial(
                &schema,
                &mut db,
                PartialOp::ModifyPivot {
                    pivot_key: Key::single("EE282"),
                    new: Tuple::new(
                        &courses,
                        vec![
                            "EE283".into(),
                            "Computer Architecture".into(),
                            "graduate".into(),
                            "Electrical Engineering".into(),
                        ],
                    )
                    .unwrap(),
                },
            )
            .unwrap();
        assert!(db
            .table("COURSES")
            .unwrap()
            .contains_key(&Key::single("EE283")));
        assert!(db
            .table("GRADES")
            .unwrap()
            .contains_key(&Key(vec!["EE283".into(), 1.into()])));
        assert!(check_database(&schema, &db).unwrap().is_empty());
    }

    #[test]
    fn unknown_pivot_rejected() {
        let (schema, mut db, updater) = setup();
        let gid = node_id(&updater, "GRADES");
        let err = updater
            .apply_partial(
                &schema,
                &mut db,
                PartialOp::DeleteChild {
                    pivot_key: Key::single("NOPE"),
                    node: gid,
                    key: Key(vec!["NOPE".into(), 1.into()]),
                },
            )
            .unwrap_err();
        assert!(matches!(err, Error::NoSuchTuple { .. }));
    }

    #[test]
    fn unknown_child_key_rejected() {
        let (schema, mut db, updater) = setup();
        let gid = node_id(&updater, "GRADES");
        let err = updater
            .apply_partial(
                &schema,
                &mut db,
                PartialOp::DeleteChild {
                    pivot_key: Key::single("CS345"),
                    node: gid,
                    key: Key(vec!["CS345".into(), 999.into()]),
                },
            )
            .unwrap_err();
        assert!(matches!(err, Error::NoSuchTuple { .. }));
    }

    #[test]
    fn partial_respects_translator() {
        let (schema, mut db, _) = setup();
        let omega = generate_omega(&schema).unwrap();
        let mut t = Translator::permissive(&omega);
        t.allow_replacement = false;
        let updater = ViewObjectUpdater::new(&schema, omega, t).unwrap();
        let gid = node_id(&updater, "GRADES");
        let grades = db.table("GRADES").unwrap().schema().clone();
        let err = updater
            .apply_partial(
                &schema,
                &mut db,
                PartialOp::InsertChild {
                    pivot_key: Key::single("CS345"),
                    node: gid,
                    tuple: Tuple::new(&grades, vec!["CS345".into(), 9.into(), "B".into()]).unwrap(),
                },
            )
            .unwrap_err();
        assert!(matches!(err, Error::ConstraintViolation(_)));
    }
}
