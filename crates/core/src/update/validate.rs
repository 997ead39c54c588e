//! Step 1 — local validation against the view-object definition.
//!
//! Checks that an instance is structurally a member of its object's class,
//! in two halves. The *shape*: every bound tuple sits at a node of the
//! object, under a tuple of that node's parent, and conforms to its base
//! schema. The *connections*: over direct edges, the connecting values of
//! every child tuple match its parent (hierarchical well-formedness).
//! Nodes reached through *contracted* (multi-step) edges cannot be checked
//! locally because the intermediate relations' tuples are not part of the
//! instance; [`validate_instance`] reports them so translators can reject
//! writes through them. A replacing instance is shape-checked before
//! propagation (step 2) reads it and connection-checked after.

use crate::instance::VoInstance;
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
    let validated = check_shape(schema, object, instance)?;
    Links::new(schema, object)?.check_connected(instance)?;
    Ok(validated)
}

/// The shape half of step 1: the instance is `object`'s, its root binds
/// the pivot, every other tuple sits at a node of the object under a tuple
/// of that node's parent, and every tuple conforms to its relation.
pub(crate) fn check_shape(
    schema: &StructuralSchema,
    object: &ViewObject,
    instance: &VoInstance,
) -> Result<LocalValidation> {
    if *instance.object != *object.name() {
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
    let catalog = schema.catalog();
    instance.root.validate(catalog.relation(object.pivot())?)?;
    let mut v = LocalValidation::default();
    for bound in instance.bound() {
        let node = (object.nodes().get(bound.node)).filter(|n| n.parent == Some(bound.parent));
        let Some(node) = node else {
            return Err(Error::ConstraintViolation(format!(
                "instance binds node {} under node {}, which is not a child",
                bound.node, bound.parent
            )));
        };
        let parents = instance.tuples_of(bound.parent).len();
        if bound.parent_pos >= parents {
            return Err(Error::ConstraintViolation(format!(
                "instance binds a tuple of node {} under position {} of node {}, \
                 which binds {parents}",
                bound.node, bound.parent_pos, bound.parent
            )));
        }
        bound.validate(catalog.relation(&node.relation)?)?;
        if !node.edge.as_ref().is_some_and(|e| e.is_direct()) {
            v.contracted_nodes.push(node.id);
        }
    }
    v.contracted_nodes.dedup();
    Ok(v)
}

/// Every direct edge of an object resolved once: per node id, the
/// `(position in the parent tuple, position in the child tuple)` pairs of
/// the attributes connecting it to its parent — `None` for the pivot and
/// for a contracted edge, whose intermediate tuples an instance lacks.
/// Steps 1 and 2 read the one table: validation compares those values,
/// propagation copies them.
#[derive(Debug, Clone)]
pub(crate) struct Links(Vec<Option<Vec<(usize, usize)>>>);

impl Links {
    pub(crate) fn new(schema: &StructuralSchema, object: &ViewObject) -> Result<Self> {
        let catalog = schema.catalog();
        let link = |node: &crate::object::VoNode| -> Result<_> {
            let (Some(parent), Some(edge)) = (node.parent, node.edge.as_ref()) else {
                return Ok(None);
            };
            if !edge.is_direct() {
                return Ok(None);
            }
            let t = edge.steps[0].resolve(schema)?;
            let from =
                (catalog.relation(&object.node(parent).relation)?).indices_of(t.source_attrs())?;
            let to = catalog
                .relation(&node.relation)?
                .indices_of(t.target_attrs())?;
            Ok(Some(from.into_iter().zip(to).collect()))
        };
        object
            .nodes()
            .iter()
            .map(link)
            .collect::<Result<_>>()
            .map(Links)
    }

    /// The pairs of the direct edge into node `id`, if it has one.
    pub(crate) fn edge_into(&self, id: NodeId) -> Option<&[(usize, usize)]> {
        self.0.get(id)?.as_deref()
    }

    /// The connection half of step 1, on a shape-checked instance: over
    /// every direct edge a child tuple holds its parent's connecting
    /// values, and a parent with a NULL among them binds no child (NULL
    /// never connects, Definition 2.1).
    pub(crate) fn check_connected(&self, instance: &VoInstance) -> Result<()> {
        for child in instance.bound() {
            let Some(pairs) = self.edge_into(child.node) else {
                continue;
            };
            let parent = &instance.tuples_of(child.parent)[child.parent_pos];
            let (from, to) = (parent.values(), child.values());
            if pairs.iter().any(|&(f, _)| from[f].is_null()) {
                return Err(Error::ConstraintViolation(format!(
                    "instance node {} has NULL connecting values yet binds children",
                    child.parent
                )));
            }
            if pairs.iter().any(|&(f, t)| from[f] != to[t]) {
                let expected: Vec<&Value> = pairs.iter().map(|&(f, _)| &from[f]).collect();
                return Err(Error::ConstraintViolation(format!(
                    "child tuple {} of node {} is not connected to its parent \
                     (expected {expected:?})",
                    child.tuple, child.node
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{assemble, instantiate_all};
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
        inst.attach(0, 0, gra, foreign);
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
        inst.attach(
            0,
            0,
            stu,
            Tuple::new(&student, vec![1.into(), "MS".into()]).unwrap(),
        );
        let err = validate_instance(&schema, &omega, &inst).unwrap_err();
        assert!(err.to_string().contains("which is not a child"), "{err}");
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
