//! Step 2 — propagation within the view object (paper §5.3).
//!
//! When a replacing instance changes key attributes high in the tree, the
//! inherited key components of every descendant must follow: "a change to
//! `A_j` has to be propagated down to `R_j`'s children in the dependency
//! island". We propagate over *every* direct edge (not only island edges):
//! for reference edges this rewrites the child-selecting values (e.g. a
//! changed `COURSES.dept_name` re-targets the DEPARTMENT child), which is
//! exactly the hierarchical consistency local validation demands.

use crate::instance::VoInstance;
use crate::object::ViewObject;
use crate::update::validate::{check_shape, Links, LocalValidation};
use vo_relational::prelude::*;
use vo_structural::prelude::*;

/// Rewrite the connecting attributes of every child tuple (over direct
/// edges) to match its parent, top-down. Returns the corrected instance.
/// A child that already matches is left alone — the same allocation, so
/// translation's `old == new` on an unchanged tuple is a pointer
/// comparison.
pub fn propagate_links(
    schema: &StructuralSchema,
    object: &ViewObject,
    instance: VoInstance,
) -> Result<VoInstance> {
    Links::new(schema, object)?.propagate(schema, object, instance)
}

impl Links {
    /// [`propagate_links`] over this table.
    pub(crate) fn propagate(
        &self,
        schema: &StructuralSchema,
        object: &ViewObject,
        mut instance: VoInstance,
    ) -> Result<VoInstance> {
        // parents before children, so a rewritten tuple passes its values on
        for id in object.preorder() {
            let (Some(pairs), Some(parent)) = (self.edge_into(id), object.node(id).parent) else {
                continue;
            };
            for pos in 0..instance.tuples_of(id).len() {
                let child = &instance.tuples_of(id)[pos];
                // a tuple filed under another node is local validation's
                // to refuse
                let from = (child.parent == parent)
                    .then(|| instance.tuples_of(parent).get(child.parent_pos))
                    .flatten();
                let Some(from) = from else { continue };
                if let Some(rewritten) = rewritten(schema, object, id, pairs, from, child)? {
                    instance.rewrite(id, pos, rewritten);
                }
            }
        }
        Ok(instance)
    }

    /// Step 2 for a replacing instance: its shape is checked before
    /// propagation reads it, its connections after propagation set them.
    pub(crate) fn replacing(
        &self,
        schema: &StructuralSchema,
        object: &ViewObject,
        new: VoInstance,
    ) -> Result<(VoInstance, LocalValidation)> {
        let validated = check_shape(schema, object, &new)?;
        let new = self.propagate(schema, object, new)?;
        self.check_connected(&new)?;
        Ok((new, validated))
    }
}

/// `child`, a tuple of node `id`, with `parent`'s connecting values,
/// re-validated — or `None` when it holds them already.
fn rewritten(
    schema: &StructuralSchema,
    object: &ViewObject,
    id: usize,
    pairs: &[(usize, usize)],
    parent: &Tuple,
    child: &Tuple,
) -> Result<Option<Tuple>> {
    // a position a malformed tuple lacks counts as differing, and the
    // rebuilt child is validated: the refusal is an error, not a panic
    let (from, to) = (parent.values(), child.values());
    let holds = |&(f, t): &(usize, usize)| matches!((from.get(f), to.get(t)), (Some(p), Some(c)) if p.identical(c));
    if pairs.iter().all(holds) {
        return Ok(None);
    }
    let mut values = to.to_vec();
    for &(f, t) in pairs {
        if let (Some(p), Some(slot)) = (from.get(f), values.get_mut(t)) {
            *slot = p.clone();
        }
    }
    let child_schema = schema.catalog().relation(&object.node(id).relation)?;
    Tuple::new(child_schema, values).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::instantiate_all;
    use crate::treegen::generate_omega;
    use crate::university::university_database;
    use crate::update::validate::validate_instance;

    #[test]
    fn pivot_key_change_flows_to_island_children() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let mut inst = instantiate_all(&schema, &omega, &db)
            .unwrap()
            .into_iter()
            .find(|i| i.key(&schema, &omega).unwrap() == Key::single("CS345"))
            .unwrap();
        // rename the course; children still carry CS345
        let courses = db.table("COURSES").unwrap().schema().clone();
        inst.root.tuple = inst
            .root
            .tuple
            .with_named(&courses, "course_id", "EES345".into())
            .unwrap();
        assert!(validate_instance(&schema, &omega, &inst).is_err());

        let fixed = propagate_links(&schema, &omega, inst).unwrap();
        validate_instance(&schema, &omega, &fixed).unwrap();
        let gra = omega
            .nodes()
            .iter()
            .find(|n| n.relation == "GRADES")
            .unwrap()
            .id;
        let grades = db.table("GRADES").unwrap().schema().clone();
        for t in fixed.tuples_of(gra) {
            assert_eq!(
                t.get_named(&grades, "course_id").unwrap(),
                &Value::text("EES345")
            );
        }
        // the peninsula follows too
        let cur = omega
            .nodes()
            .iter()
            .find(|n| n.relation == "CURRICULUM")
            .unwrap()
            .id;
        let curriculum = db.table("CURRICULUM").unwrap().schema().clone();
        for t in fixed.tuples_of(cur) {
            assert_eq!(
                t.get_named(&curriculum, "course_id").unwrap(),
                &Value::text("EES345")
            );
        }
    }

    #[test]
    fn reference_retarget_flows_to_department_child() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let mut inst = instantiate_all(&schema, &omega, &db)
            .unwrap()
            .into_iter()
            .find(|i| i.key(&schema, &omega).unwrap() == Key::single("CS345"))
            .unwrap();
        let courses = db.table("COURSES").unwrap().schema().clone();
        inst.root.tuple = inst
            .root
            .tuple
            .with_named(&courses, "dept_name", "Engineering Economic Systems".into())
            .unwrap();
        let fixed = propagate_links(&schema, &omega, inst).unwrap();
        let dep = omega
            .nodes()
            .iter()
            .find(|n| n.relation == "DEPARTMENT")
            .unwrap()
            .id;
        let dept_schema = db.table("DEPARTMENT").unwrap().schema().clone();
        let deps = fixed.tuples_of(dep);
        assert_eq!(deps.len(), 1);
        assert_eq!(
            deps[0].get_named(&dept_schema, "dept_name").unwrap(),
            &Value::text("Engineering Economic Systems")
        );
    }

    #[test]
    fn deep_propagation_through_grades_to_student() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let mut inst = instantiate_all(&schema, &omega, &db)
            .unwrap()
            .into_iter()
            .find(|i| i.key(&schema, &omega).unwrap() == Key::single("CS345"))
            .unwrap();
        // change a grade's ssn; the STUDENT child underneath must follow
        let gra = omega
            .nodes()
            .iter()
            .find(|n| n.relation == "GRADES")
            .unwrap()
            .id;
        let grades = db.table("GRADES").unwrap().schema().clone();
        let moved = inst.tuples_of(gra)[0].with_named(&grades, "ssn", 99.into());
        inst.rewrite(gra, 0, moved.unwrap());
        let fixed = propagate_links(&schema, &omega, inst).unwrap();
        let stu = omega
            .nodes()
            .iter()
            .find(|n| n.relation == "STUDENT")
            .unwrap()
            .id;
        let student = db.table("STUDENT").unwrap().schema().clone();
        let ssns: Vec<i64> = fixed
            .tuples_of(stu)
            .iter()
            .map(|t| t.get_named(&student, "ssn").unwrap().as_int().unwrap())
            .collect();
        assert!(ssns.contains(&99));
        validate_instance(&schema, &omega, &fixed).unwrap();
    }

    #[test]
    fn idempotent_on_consistent_instances() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let inst = instantiate_all(&schema, &omega, &db).unwrap().remove(0);
        let fixed = propagate_links(&schema, &omega, inst.clone()).unwrap();
        assert_eq!(fixed, inst);
        // and nothing was rebuilt: every tuple is the allocation it was
        for id in 0..omega.nodes().len() {
            for (was, is) in inst.tuples_of(id).iter().zip(fixed.tuples_of(id)) {
                assert!(was.ptr_eq(is), "node {id}");
            }
        }
    }

    #[test]
    fn malformed_replacing_instances_are_refused_not_panicked_on() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let inst = instantiate_all(&schema, &omega, &db).unwrap().remove(0);
        // a child under an id the object lacks is left for validation
        let mut bogus = inst.clone();
        bogus.attach(0, 0, 99, bogus.root.tuple.clone());
        let out = propagate_links(&schema, &omega, bogus).unwrap();
        assert!(validate_instance(&schema, &omega, &out).is_err());
        // a child tuple too short to hold its connecting attribute
        let mut short = inst;
        short.rewrite(short.bound()[0].node, 0, Tuple::raw(vec![]));
        let err = propagate_links(&schema, &omega, short).unwrap_err();
        assert!(matches!(err, Error::ArityMismatch { .. }), "got {err}");
    }
}
