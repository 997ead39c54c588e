//! Step 1 — local validation against the view-object definition.
//!
//! Checks that an instance is structurally a member of its object's class:
//! node ids and relations line up, every tuple conforms to its base
//! schema, and — for direct edges — the connecting values of every child
//! tuple match its parent (hierarchical well-formedness). Nodes reached
//! through *contracted* (multi-step) edges cannot be checked locally
//! because the intermediate relations' tuples are not part of the
//! instance; [`validate_instance`] reports them so translators can reject
//! writes through them.

use crate::instance::{VoInstance, VoInstanceNode};
use crate::object::{NodeId, ViewObject};
use vo_relational::prelude::*;
use vo_structural::prelude::*;

/// Result of local validation.
#[derive(Debug, Clone, Default)]
pub struct LocalValidation {
    /// Nodes bound through contracted edges (writes through them are
    /// rejected by the translators).
    pub contracted_nodes: Vec<NodeId>,
}

/// Validate `instance` against `object` (paper step 1).
pub fn validate_instance(
    schema: &StructuralSchema,
    object: &ViewObject,
    instance: &VoInstance,
) -> Result<LocalValidation> {
    if instance.object != object.name() {
        return Err(Error::ConstraintViolation(format!(
            "instance belongs to object {}, not {}",
            instance.object,
            object.name()
        )));
    }
    if instance.root.node != 0 {
        return Err(Error::ConstraintViolation(
            "instance root must bind the pivot node".into(),
        ));
    }
    let mut v = LocalValidation::default();
    validate_node(schema, object, &instance.root, &mut v)?;
    v.contracted_nodes.sort_unstable();
    v.contracted_nodes.dedup();
    Ok(v)
}

fn validate_node(
    schema: &StructuralSchema,
    object: &ViewObject,
    inst: &VoInstanceNode,
    v: &mut LocalValidation,
) -> Result<()> {
    let node = object.node(inst.node);
    let rel_schema = schema.catalog().relation(&node.relation)?;
    // tuple conformance
    inst.tuple.validate(rel_schema)?;
    for (&child_id, children) in &inst.children {
        // the child must be a declared child of this node
        if !node.children.contains(&child_id) {
            return Err(Error::ConstraintViolation(format!(
                "instance binds node {child_id} under node {}, which is not a child",
                inst.node
            )));
        }
        let child_node = object.node(child_id);
        let edge = child_node.edge.as_ref().expect("non-root");
        if edge.is_direct() {
            let t = edge.steps[0].resolve(schema)?;
            let child_schema = schema.catalog().relation(&child_node.relation)?;
            let parent_vals: Vec<Value> = t
                .source_attrs()
                .iter()
                .map(|a| inst.tuple.get_named(rel_schema, a).cloned())
                .collect::<Result<_>>()?;
            for c in children {
                let child_vals: Vec<Value> = t
                    .target_attrs()
                    .iter()
                    .map(|a| c.tuple.get_named(child_schema, a).cloned())
                    .collect::<Result<_>>()?;
                if parent_vals.iter().any(Value::is_null) {
                    return Err(Error::ConstraintViolation(format!(
                        "instance node {} has NULL connecting values yet binds children",
                        inst.node
                    )));
                }
                if child_vals != parent_vals {
                    return Err(Error::ConstraintViolation(format!(
                        "child tuple {} of node {child_id} is not connected to its parent \
                         (expected {:?})",
                        c.tuple, parent_vals
                    )));
                }
            }
        } else if !children.is_empty() {
            v.contracted_nodes.push(child_id);
        }
        for c in children {
            if c.node != child_id {
                return Err(Error::ConstraintViolation(format!(
                    "instance child under key {child_id} claims node {}",
                    c.node
                )));
            }
            validate_node(schema, object, c, v)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{assemble, instantiate_all, VoInstanceNode};
    use crate::treegen::{generate_omega, generate_omega_prime};
    use crate::university::university_database;

    #[test]
    fn assembled_instances_validate() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        for inst in instantiate_all(&schema, &omega, &db).unwrap() {
            let v = validate_instance(&schema, &omega, &inst).unwrap();
            assert!(v.contracted_nodes.is_empty());
        }
    }

    #[test]
    fn contracted_nodes_reported() {
        let (schema, db) = university_database();
        let op = generate_omega_prime(&schema).unwrap();
        let t = db
            .table("COURSES")
            .unwrap()
            .get(&Key::single("CS345"))
            .unwrap()
            .clone();
        let inst = assemble(&schema, &op, &db, t).unwrap();
        let v = validate_instance(&schema, &op, &inst).unwrap();
        assert_eq!(v.contracted_nodes.len(), 2); // FACULTY and STUDENT
    }

    #[test]
    fn rejects_wrong_object_name() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let mut inst = instantiate_all(&schema, &omega, &db).unwrap().remove(0);
        inst.object = "other".into();
        assert!(validate_instance(&schema, &omega, &inst).is_err());
    }

    #[test]
    fn rejects_disconnected_child() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let mut inst = instantiate_all(&schema, &omega, &db)
            .unwrap()
            .into_iter()
            .find(|i| i.key(&schema, &omega).unwrap() == Key::single("CS345"))
            .unwrap();
        // graft a grade belonging to a different course under CS345
        let gra = omega
            .nodes()
            .iter()
            .find(|n| n.relation == "GRADES")
            .unwrap()
            .id;
        let grades = db.table("GRADES").unwrap().schema().clone();
        let foreign = Tuple::new(&grades, vec!["CS101".into(), 1.into(), "B".into()]).unwrap();
        inst.root.push_child(VoInstanceNode::leaf(gra, foreign));
        let err = validate_instance(&schema, &omega, &inst).unwrap_err();
        assert!(matches!(err, Error::ConstraintViolation(_)));
    }

    #[test]
    fn rejects_child_under_wrong_parent_node() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let mut inst = instantiate_all(&schema, &omega, &db).unwrap().remove(0);
        // bind a STUDENT directly under the pivot (STUDENT is a child of GRADES)
        let stu = omega
            .nodes()
            .iter()
            .find(|n| n.relation == "STUDENT")
            .unwrap()
            .id;
        let student = db.table("STUDENT").unwrap().schema().clone();
        inst.root.push_child(VoInstanceNode::leaf(
            stu,
            Tuple::new(&student, vec![1.into(), "MS".into()]).unwrap(),
        ));
        assert!(validate_instance(&schema, &omega, &inst).is_err());
    }

    #[test]
    fn rejects_malformed_tuple() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let mut inst = instantiate_all(&schema, &omega, &db).unwrap().remove(0);
        inst.root.tuple = Tuple::raw(vec!["only-one".into()]);
        assert!(validate_instance(&schema, &omega, &inst).is_err());
    }
}
