//! Dependency islands and referencing peninsulas (paper §5,
//! Definitions 5.1–5.2).
//!
//! The **dependency island** `D_ω` is the maximal subtree rooted at the
//! pivot whose every edge is a *forward* ownership or subset connection:
//! those relations together form the single entity the object is centered
//! on, so updates must have consistent repercussions throughout.
//!
//! A **referencing peninsula** is a relation of the object directly
//! connected to an island relation by a reference connection pointing *at*
//! the island — its tuples cite the entity, so deletions and key changes
//! must repair their foreign keys.

use crate::instance::VoInstance;
use crate::object::{NodeId, ViewObject};
use std::collections::BTreeSet;
use std::sync::Arc;
use vo_relational::overlay::{ReadNode, ReadSet};
use vo_relational::prelude::*;
use vo_structural::prelude::*;

/// The island/peninsula analysis of one view object, computed once per
/// object and reused by every update translation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IslandAnalysis {
    /// Node ids in the dependency island (always contains the root).
    pub island: BTreeSet<NodeId>,
    /// Relations of the island (distinct, sorted).
    pub island_relations: BTreeSet<String>,
    /// Node ids of referencing peninsulas.
    pub peninsulas: BTreeSet<NodeId>,
    /// For each island node, the attributes *inherited* from its island
    /// parent (`K(R_i)` mapped through the connection) and the complement
    /// `A_j = K(R_j) − inherited` that is locally accessible (paper §5.3).
    pub key_split: Vec<Option<KeySplit>>,
    /// Per node, its relation and — for an island node — where its key
    /// carries the pivot's: what a [`ReadSet`] of an instance needs besides
    /// the instance's tuples.
    pub(crate) read_nodes: Arc<[ReadNode]>,
}

/// The key partition of one island node (paper §5.3's `A_j`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeySplit {
    /// Key attributes inherited from the island parent via the connection.
    pub inherited: Vec<String>,
    /// Locally accessible key complement `A_j`.
    pub complement: Vec<String>,
}

/// Compute the island analysis for `object`.
pub fn analyze(schema: &StructuralSchema, object: &ViewObject) -> Result<IslandAnalysis> {
    let mut island: BTreeSet<NodeId> = BTreeSet::new();
    island.insert(0);
    // preorder guarantees parents are classified before children
    for id in object.preorder() {
        if id == 0 {
            continue;
        }
        let node = object.node(id);
        let parent = node.parent.expect("non-root");
        if !island.contains(&parent) {
            continue;
        }
        let edge = node.edge.as_ref().expect("non-root");
        // Definition 5.1: all directed paths from the pivot must contain
        // exclusively ownership and subset connections — every step of the
        // edge must be a *forward* ownership/subset.
        let all_dependent = edge.steps.iter().try_fold(true, |acc, s| {
            let t = s.resolve(schema)?;
            Ok::<bool, Error>(
                acc && t.forward
                    && matches!(
                        t.connection.kind,
                        ConnectionKind::Ownership | ConnectionKind::Subset
                    ),
            )
        })?;
        if all_dependent {
            island.insert(id);
        }
    }

    let island_relations: BTreeSet<String> = island
        .iter()
        .map(|&id| object.node(id).relation.clone())
        .collect();

    // Definition 5.2: a peninsula is a node of the object directly
    // connected (single-step edge) to an island relation by a reference
    // connection pointing at the island.
    let mut peninsulas = BTreeSet::new();
    for node in object.nodes() {
        if island.contains(&node.id) {
            continue;
        }
        let Some(edge) = &node.edge else { continue };
        if !edge.is_direct() {
            continue;
        }
        let parent = node.parent.expect("non-root");
        if !island.contains(&parent) {
            continue;
        }
        let step = &edge.steps[0];
        let t = step.resolve(schema)?;
        // parent is the island side; the reference must point from this
        // node's relation *to* the island relation, i.e. the step is an
        // inverse reference traversal.
        if t.connection.kind == ConnectionKind::Reference && !t.forward {
            peninsulas.insert(node.id);
        }
    }

    // key splits for island nodes
    let mut key_split: Vec<Option<KeySplit>> = vec![None; object.nodes().len()];
    for &id in &island {
        let node = object.node(id);
        let rel_schema = schema.catalog().relation(&node.relation)?;
        let key: Vec<String> = rel_schema
            .key_names()
            .iter()
            .map(|s| (*s).to_owned())
            .collect();
        if id == 0 {
            key_split[id] = Some(KeySplit {
                inherited: Vec::new(),
                complement: key,
            });
            continue;
        }
        // inherited = this node's side of the final step of its edge
        let inherited: Vec<String> = object.child_link_attrs(schema, id)?.to_vec();
        let complement: Vec<String> = key.into_iter().filter(|k| !inherited.contains(k)).collect();
        key_split[id] = Some(KeySplit {
            inherited,
            complement,
        });
    }

    // every island relation's key carries the pivot's through its
    // ownership and subset steps: follow the pivot's key attributes down
    // each edge, naming them in each relation they reach
    let catalog = schema.catalog();
    let pivot = catalog.relation(object.pivot())?;
    let mut carried: Vec<Vec<(String, usize)>> = vec![Vec::new(); object.nodes().len()];
    carried[0] = (pivot.key_names().into_iter().map(str::to_owned))
        .zip(pivot.key_indices().iter().copied())
        .collect();
    for id in object.preorder() {
        let node = object.node(id);
        let (Some(parent), Some(edge)) = (node.parent, &node.edge) else {
            continue;
        };
        if !island.contains(&id) {
            continue;
        }
        let mut attrs = carried[parent].clone();
        for step in &edge.steps {
            let t = step.resolve(schema)?;
            let across = |a: &String| t.source_attrs().iter().position(|s| s == a);
            attrs = (attrs.iter())
                .filter_map(|(a, p)| Some((t.target_attrs()[across(a)?].clone(), *p)))
                .collect();
        }
        carried[id] = attrs;
    }
    let read_nodes = (object.nodes().iter())
        .map(|node| {
            let key = catalog.relation(&node.relation)?.key_names();
            let at = |(a, p): &(String, usize)| Some((key.iter().position(|k| k == a)?, *p));
            let pivot_key = (island.contains(&node.id))
                .then(|| carried[node.id].iter().filter_map(at).collect::<Vec<_>>())
                .filter(|pairs| pairs.len() == carried[0].len());
            Ok(ReadNode {
                relation: node.relation.clone(),
                pivot_key,
            })
        })
        .collect::<Result<_>>()?;

    Ok(IslandAnalysis {
        island,
        island_relations,
        peninsulas,
        key_split,
        read_nodes,
    })
}

impl IslandAnalysis {
    /// True when node `id` is part of the dependency island.
    pub fn in_island(&self, id: NodeId) -> bool {
        self.island.contains(&id)
    }

    /// True when node `id` is a referencing peninsula.
    pub fn is_peninsula(&self, id: NodeId) -> bool {
        self.peninsulas.contains(&id)
    }

    /// True when `relation` belongs to the island's relation set.
    pub fn island_has_relation(&self, relation: &str) -> bool {
        self.island_relations.contains(relation)
    }

    /// `instance` as the read set of a request that writes it back (VO-R)
    /// or deletes it (VO-CD): every tuple it shows, at its node (an
    /// instance keeps its tuples grouped by ascending node).
    pub(crate) fn read_set(&self, instance: &VoInstance) -> ReadSet {
        let tuples = std::iter::once(&instance.root).chain(instance.bound());
        let shown = tuples.map(|t| (t.node, t.tuple.clone())).collect();
        ReadSet::new(self.read_nodes.clone(), shown)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{ViewObjectBuilder, VoEdge};
    use crate::treegen::{generate_omega, generate_omega_prime};
    use crate::university::university_schema;

    fn node_id(o: &ViewObject, rel: &str) -> NodeId {
        o.nodes().iter().find(|n| n.relation == rel).unwrap().id
    }

    #[test]
    fn omega_island_is_courses_grades() {
        // paper: "the dependency island is the subtree rooted at the pivot
        // relation COURSES and including GRADES. The only referencing
        // peninsula corresponds to relation CURRICULUM."
        let schema = university_schema();
        let omega = generate_omega(&schema).unwrap();
        let a = analyze(&schema, &omega).unwrap();
        assert!(a.in_island(0));
        assert!(a.in_island(node_id(&omega, "GRADES")));
        assert!(!a.in_island(node_id(&omega, "DEPARTMENT")));
        assert!(!a.in_island(node_id(&omega, "STUDENT")));
        assert_eq!(a.island.len(), 2);
        assert_eq!(
            a.island_relations.iter().collect::<Vec<_>>(),
            vec!["COURSES", "GRADES"]
        );
        assert_eq!(a.peninsulas.len(), 1);
        assert!(a.is_peninsula(node_id(&omega, "CURRICULUM")));
    }

    #[test]
    fn an_island_key_carries_the_pivots() {
        let schema = university_schema();
        let omega = generate_omega(&schema).unwrap();
        let a = analyze(&schema, &omega).unwrap();
        for node in a.read_nodes.iter() {
            // COURSES(course_id) owns GRADES(course_id, ssn)
            let carried = ["COURSES", "GRADES"].contains(&node.relation.as_str());
            let expected = carried.then(|| vec![(0, 0)]);
            assert_eq!(node.pivot_key, expected, "{}", node.relation);
        }
        assert_eq!(a.read_nodes.len(), omega.nodes().len());
    }

    #[test]
    fn omega_prime_island_is_pivot_only() {
        let schema = university_schema();
        let op = generate_omega_prime(&schema).unwrap();
        let a = analyze(&schema, &op).unwrap();
        assert_eq!(a.island.len(), 1);
        assert!(a.peninsulas.is_empty()); // contracted edges, no direct refs
    }

    #[test]
    fn key_splits_follow_section_5_3() {
        let schema = university_schema();
        let omega = generate_omega(&schema).unwrap();
        let a = analyze(&schema, &omega).unwrap();
        // pivot: A_1 = K(COURSES)
        let root = a.key_split[0].as_ref().unwrap();
        assert!(root.inherited.is_empty());
        assert_eq!(root.complement, vec!["course_id"]);
        // GRADES: inherited course_id, complement ssn
        let g = node_id(&omega, "GRADES");
        let gs = a.key_split[g].as_ref().unwrap();
        assert_eq!(gs.inherited, vec!["course_id"]);
        assert_eq!(gs.complement, vec!["ssn"]);
        // non-island nodes carry no split
        assert!(a.key_split[node_id(&omega, "DEPARTMENT")].is_none());
    }

    #[test]
    fn subset_chains_extend_the_island() {
        // PEOPLE —⊃ STUDENT —* GRADES: island from PEOPLE spans all three
        let schema = university_schema();
        let mut b = ViewObjectBuilder::new("people_obj", "PEOPLE", &["ssn", "name", "dept_name"]);
        let s = b.child(
            0,
            "STUDENT",
            &["ssn", "degree_program"],
            VoEdge::single("people_student", true),
        );
        b.child(
            s,
            "GRADES",
            &["course_id", "ssn", "grade"],
            VoEdge::single("student_grades", true),
        );
        let o = b.build(&schema).unwrap();
        let a = analyze(&schema, &o).unwrap();
        assert_eq!(a.island.len(), 3);
        // GRADES inherits ssn from STUDENT; complement is course_id
        let gs = a.key_split[2].as_ref().unwrap();
        assert_eq!(gs.inherited, vec!["ssn"]);
        assert_eq!(gs.complement, vec!["course_id"]);
    }

    #[test]
    fn island_does_not_resume_below_a_break() {
        // COURSES —> DEPARTMENT breaks the island; nothing below DEPARTMENT
        // can rejoin even over ownership edges.
        let schema = university_schema();
        let mut b = ViewObjectBuilder::new("o", "COURSES", &["course_id", "dept_name"]);
        let d = b.child(
            0,
            "DEPARTMENT",
            &["dept_name"],
            VoEdge::single("courses_dept", true),
        );
        b.child(
            d,
            "PEOPLE",
            &["ssn", "name", "dept_name"],
            VoEdge::single("people_dept", false),
        );
        let o = b.build(&schema).unwrap();
        let a = analyze(&schema, &o).unwrap();
        assert_eq!(a.island.len(), 1);
        assert!(a.peninsulas.is_empty()); // PEOPLE —> DEPARTMENT targets a non-island node
    }

    #[test]
    fn peninsula_requires_reference_toward_island() {
        // STUDENT under GRADES is inverse *ownership*, not a peninsula.
        let schema = university_schema();
        let omega = generate_omega(&schema).unwrap();
        let a = analyze(&schema, &omega).unwrap();
        assert!(!a.is_peninsula(node_id(&omega, "STUDENT")));
        // DEPARTMENT is a *forward* reference (island cites it), not a peninsula
        assert!(!a.is_peninsula(node_id(&omega, "DEPARTMENT")));
    }
}
