//! View objects (paper §3, Definitions 3.1–3.2).
//!
//! A view object is a *hierarchical subset* of the structural model: a tree
//! of projections rooted at the **pivot relation**. Nodes are stored in an
//! arena ([`ViewObject::nodes`]); node 0 is always the pivot. An edge
//! between parent and child is a *path* of one or more traversal steps over
//! structural connections — paths longer than one step arise when pruning
//! contracts through excluded relations (paper Figure 3: `COURSES —* GRADES
//! *— STUDENT` collapses to a single COURSES→STUDENT edge when GRADES is
//! excluded).

use std::collections::BTreeSet;
use std::sync::Arc;
use vo_relational::prelude::*;
use vo_structural::prelude::*;

/// Index of a node within its [`ViewObject`]'s arena.
pub type NodeId = usize;

/// One traversal step over a named connection. `parent_is_from` orients the
/// step: `true` traverses the connection forward (parent on the `from`
/// side), `false` traverses the inverse connection `C⁻¹`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step {
    /// Name of the structural connection.
    pub connection: String,
    /// True when the parent relation is the connection's `from` side.
    pub parent_is_from: bool,
}

impl Step {
    /// Resolve to a [`Traversal`] against the schema.
    pub fn resolve<'a>(&self, schema: &'a StructuralSchema) -> Result<Traversal<'a>> {
        let connection = schema.connection(&self.connection)?;
        Ok(Traversal {
            connection,
            forward: self.parent_is_from,
        })
    }
}

/// The edge from a node's parent to the node: a non-empty path of steps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoEdge {
    /// Steps from the parent's relation to this node's relation.
    pub steps: Vec<Step>,
}

impl VoEdge {
    /// A single-step edge.
    pub fn single(connection: impl Into<String>, parent_is_from: bool) -> Self {
        VoEdge {
            steps: vec![Step {
                connection: connection.into(),
                parent_is_from,
            }],
        }
    }

    /// True when the edge is one direct connection (no contraction).
    pub fn is_direct(&self) -> bool {
        self.steps.len() == 1
    }
}

/// One node of a view object: a projection on a base relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoNode {
    /// This node's arena index.
    pub id: NodeId,
    /// The underlying base relation `d(π)`.
    pub relation: String,
    /// Projection attributes (always includes the locally accessible key
    /// components; see [`ViewObject::validate`]).
    pub attrs: Vec<String>,
    /// Parent node, `None` for the pivot.
    pub parent: Option<NodeId>,
    /// Path from the parent's relation, `None` for the pivot.
    pub edge: Option<VoEdge>,
    /// Child nodes in tree order.
    pub children: Vec<NodeId>,
}

/// A view object: a named tree of projections anchored on a pivot relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewObject {
    /// Shared with every instance of the object ([`crate::instance::VoInstance::object`]).
    name: Arc<str>,
    nodes: Vec<VoNode>,
}

/// Builder for hand-constructing view objects (generation via
/// [`crate::treegen`] is the usual path; the builder serves tests and
/// examples that want explicit control).
#[derive(Debug)]
pub struct ViewObjectBuilder {
    name: String,
    nodes: Vec<VoNode>,
}

impl ViewObjectBuilder {
    /// Start an object anchored on `pivot` projecting `attrs`.
    pub fn new(name: impl Into<String>, pivot: impl Into<String>, attrs: &[&str]) -> Self {
        let root = VoNode {
            id: 0,
            relation: pivot.into(),
            attrs: attrs.iter().map(|s| (*s).to_owned()).collect(),
            parent: None,
            edge: None,
            children: Vec::new(),
        };
        ViewObjectBuilder {
            name: name.into(),
            nodes: vec![root],
        }
    }

    /// Add a child of `parent` reached by `edge`, projecting `attrs`.
    /// Returns the new node's id.
    pub fn child(
        &mut self,
        parent: NodeId,
        relation: impl Into<String>,
        attrs: &[&str],
        edge: VoEdge,
    ) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(VoNode {
            id,
            relation: relation.into(),
            attrs: attrs.iter().map(|s| (*s).to_owned()).collect(),
            parent: Some(parent),
            edge: Some(edge),
            children: Vec::new(),
        });
        self.nodes[parent].children.push(id);
        id
    }

    /// Validate against the structural schema and finish.
    pub fn build(self, schema: &StructuralSchema) -> Result<ViewObject> {
        let object = ViewObject {
            name: self.name.into(),
            nodes: self.nodes,
        };
        object.validate(schema)?;
        Ok(object)
    }
}

impl ViewObject {
    /// Construct directly from an arena (used by [`crate::treegen`]);
    /// validates.
    pub fn from_nodes(
        name: impl Into<String>,
        nodes: Vec<VoNode>,
        schema: &StructuralSchema,
    ) -> Result<Self> {
        let object = ViewObject {
            name: name.into().into(),
            nodes,
        };
        object.validate(schema)?;
        Ok(object)
    }

    /// The object's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The object's name as the allocation its instances share.
    pub fn shared_name(&self) -> &Arc<str> {
        &self.name
    }

    /// The pivot relation `R1` (Definition 3.2).
    pub fn pivot(&self) -> &str {
        &self.nodes[0].relation
    }

    /// The root node (always the pivot's projection `π1`).
    pub fn root(&self) -> &VoNode {
        &self.nodes[0]
    }

    /// All nodes, root first, in insertion (preorder-compatible) order.
    pub fn nodes(&self) -> &[VoNode] {
        &self.nodes
    }

    /// Node by id.
    pub fn node(&self, id: NodeId) -> &VoNode {
        &self.nodes[id]
    }

    /// The paper's *complexity*: the number of projections in the object.
    pub fn complexity(&self) -> usize {
        self.nodes.len()
    }

    /// Distinct base relations included (`d(ω)`), sorted.
    pub fn relations(&self) -> Vec<&str> {
        let set: BTreeSet<&str> = self.nodes.iter().map(|n| n.relation.as_str()).collect();
        set.into_iter().collect()
    }

    /// Nodes in depth-first preorder (the traversal order of algorithm
    /// VO-R).
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![0];
        while let Some(id) = stack.pop() {
            out.push(id);
            // push children reversed so the leftmost child is visited first
            for &c in self.nodes[id].children.iter().rev() {
                stack.push(c);
            }
        }
        out
    }

    /// The object key `K(ω)`: the key attributes of the pivot relation.
    pub fn object_key<'a>(&self, schema: &'a StructuralSchema) -> Result<Vec<&'a str>> {
        Ok(schema.catalog().relation(self.pivot())?.key_names())
    }

    /// Connecting attributes on the parent's side for `node`'s edge (the
    /// attributes of the parent tuple whose values select this node's
    /// tuples). For multi-step edges this is the first step's source side.
    pub fn parent_link_attrs<'a>(
        &self,
        schema: &'a StructuralSchema,
        node: NodeId,
    ) -> Result<&'a [String]> {
        let edge = self.nodes[node]
            .edge
            .as_ref()
            .ok_or_else(|| Error::InvalidSchema("pivot has no edge".into()))?;
        let t = edge.steps[0].resolve(schema)?;
        Ok(t.source_attrs())
    }

    /// Connecting attributes on this node's side of its edge's final step.
    pub fn child_link_attrs<'a>(
        &self,
        schema: &'a StructuralSchema,
        node: NodeId,
    ) -> Result<&'a [String]> {
        let edge = self.nodes[node]
            .edge
            .as_ref()
            .ok_or_else(|| Error::InvalidSchema("pivot has no edge".into()))?;
        let t = edge.steps.last().expect("non-empty").resolve(schema)?;
        Ok(t.target_attrs())
    }

    /// Validate the object against Definitions 3.1–3.2 plus the
    /// instantiation requirements:
    ///
    /// 1. the root projection includes `K(pivot)`;
    /// 2. no node other than the root is defined on the pivot relation;
    /// 3. every edge resolves: each step's connection exists, consecutive
    ///    steps chain (`target(step_i) = source(step_{i+1})`), the first
    ///    step starts at the parent's relation, and the last ends at the
    ///    node's relation;
    /// 4. every projected attribute exists in the node's relation;
    /// 5. every node's projection includes the connecting attributes on its
    ///    own side of its edge, and the parent's projection includes the
    ///    connecting attributes on the parent side — otherwise instances
    ///    could not be assembled or decomposed;
    /// 6. parent/child indices are mutually consistent and acyclic (a tree
    ///    rooted at node 0).
    pub fn validate(&self, schema: &StructuralSchema) -> Result<()> {
        let catalog = schema.catalog();
        if self.nodes.is_empty() {
            return Err(Error::InvalidSchema(format!(
                "view object {} is empty (Definition 3.1 requires a nonempty set)",
                self.name
            )));
        }
        // 1. root carries the object key
        let pivot_schema = catalog.relation(self.pivot())?;
        for k in pivot_schema.key_names() {
            if !self.nodes[0].attrs.iter().any(|a| a == k) {
                return Err(Error::InvalidSchema(format!(
                    "object {}: pivot projection must include key attribute {k}",
                    self.name
                )));
            }
        }
        // 6. tree shape
        if self.nodes[0].parent.is_some() || self.nodes[0].edge.is_some() {
            return Err(Error::InvalidSchema(format!(
                "object {}: node 0 must be the root",
                self.name
            )));
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![0usize];
        let mut visited = 0usize;
        while let Some(id) = stack.pop() {
            if seen[id] {
                return Err(Error::InvalidSchema(format!(
                    "object {}: node {id} reachable twice (not a tree)",
                    self.name
                )));
            }
            seen[id] = true;
            visited += 1;
            for &c in &self.nodes[id].children {
                if c >= self.nodes.len() {
                    return Err(Error::InvalidSchema(format!(
                        "object {}: child index {c} out of bounds",
                        self.name
                    )));
                }
                if self.nodes[c].parent != Some(id) {
                    return Err(Error::InvalidSchema(format!(
                        "object {}: node {c} parent link inconsistent",
                        self.name
                    )));
                }
                stack.push(c);
            }
        }
        if visited != self.nodes.len() {
            return Err(Error::InvalidSchema(format!(
                "object {}: {} node(s) unreachable from the root",
                self.name,
                self.nodes.len() - visited
            )));
        }
        for node in &self.nodes {
            let rel_schema = catalog.relation(&node.relation)?;
            // 2. pivot uniqueness
            if node.id != 0 && node.relation == *self.pivot() {
                return Err(Error::InvalidSchema(format!(
                    "object {}: relation {} is the pivot and may appear only at the root",
                    self.name, node.relation
                )));
            }
            // 4. attrs exist
            for a in &node.attrs {
                rel_schema.index_of(a)?;
            }
            if node.attrs.is_empty() {
                return Err(Error::InvalidSchema(format!(
                    "object {}: node {} projects no attributes",
                    self.name, node.id
                )));
            }
            // 3. + 5. edges
            if let Some(edge) = &node.edge {
                if edge.steps.is_empty() {
                    return Err(Error::InvalidSchema(format!(
                        "object {}: node {} has an empty edge",
                        self.name, node.id
                    )));
                }
                let parent = node.parent.expect("non-root");
                let mut at = self.nodes[parent].relation.clone();
                for step in &edge.steps {
                    let t = step.resolve(schema)?;
                    if t.source() != at {
                        return Err(Error::InvalidSchema(format!(
                            "object {}: node {} edge step over {} starts at {} but path is at {at}",
                            self.name,
                            node.id,
                            step.connection,
                            t.source()
                        )));
                    }
                    at = t.target().to_owned();
                }
                if at != node.relation {
                    return Err(Error::InvalidSchema(format!(
                        "object {}: node {} edge ends at {at}, expected {}",
                        self.name, node.id, node.relation
                    )));
                }
                // 5. projections include linking attributes
                let child_attrs = self.child_link_attrs(schema, node.id)?;
                for a in child_attrs {
                    if !node.attrs.iter().any(|x| x == a) {
                        return Err(Error::InvalidSchema(format!(
                            "object {}: node {} must project linking attribute {a}",
                            self.name, node.id
                        )));
                    }
                }
                let parent_attrs = self.parent_link_attrs(schema, node.id)?;
                for a in parent_attrs {
                    if !self.nodes[parent].attrs.iter().any(|x| x == a) {
                        return Err(Error::InvalidSchema(format!(
                            "object {}: node {} (parent of {}) must project linking attribute {a}",
                            self.name, parent, node.id
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Render the tree with connection symbols — the textual analogue of
    /// the paper's Figure 2(c)/Figure 3 drawings.
    pub fn to_tree_string(&self, schema: &StructuralSchema) -> String {
        let mut out = String::new();
        self.render(schema, 0, 0, &mut out);
        out
    }

    fn render(&self, schema: &StructuralSchema, id: NodeId, depth: usize, out: &mut String) {
        let node = &self.nodes[id];
        for _ in 0..depth {
            out.push_str("  ");
        }
        if let Some(edge) = &node.edge {
            let labels: Vec<String> = edge
                .steps
                .iter()
                .filter_map(|s| s.resolve(schema).ok())
                .map(|t| t.label())
                .collect();
            if edge.is_direct() {
                out.push_str(&format!(
                    "{} ({})  [{}]\n",
                    node.relation,
                    node.attrs.join(", "),
                    labels.join(" ; ")
                ));
            } else {
                out.push_str(&format!(
                    "{} ({})  [path: {}]\n",
                    node.relation,
                    node.attrs.join(", "),
                    labels.join(" ; ")
                ));
            }
        } else {
            out.push_str(&format!(
                "{} ({})  [pivot]\n",
                node.relation,
                node.attrs.join(", ")
            ));
        }
        for &c in &node.children {
            self.render(schema, c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::university::university_schema;

    fn omega(schema: &StructuralSchema) -> ViewObject {
        // Figure 2(c): COURSES pivot with DEPARTMENT, CURRICULUM, GRADES,
        // STUDENT (GRADES owns the STUDENT subtree).
        let mut b = ViewObjectBuilder::new(
            "omega",
            "COURSES",
            &["course_id", "title", "level", "dept_name"],
        );
        b.child(
            0,
            "DEPARTMENT",
            &["dept_name"],
            VoEdge::single("courses_dept", true),
        );
        b.child(
            0,
            "CURRICULUM",
            &["degree", "course_id"],
            VoEdge::single("curriculum_courses", false),
        );
        let g = b.child(
            0,
            "GRADES",
            &["course_id", "ssn", "grade"],
            VoEdge::single("courses_grades", true),
        );
        b.child(
            g,
            "STUDENT",
            &["ssn", "degree_program"],
            VoEdge::single("student_grades", false),
        );
        b.build(schema).unwrap()
    }

    #[test]
    fn builds_figure_2c_object() {
        let schema = university_schema();
        let o = omega(&schema);
        assert_eq!(o.pivot(), "COURSES");
        assert_eq!(o.complexity(), 5);
        assert_eq!(
            o.relations(),
            vec!["COURSES", "CURRICULUM", "DEPARTMENT", "GRADES", "STUDENT"]
        );
        assert_eq!(o.object_key(&schema).unwrap(), vec!["course_id"]);
    }

    #[test]
    fn preorder_visits_root_first_depth_first() {
        let schema = university_schema();
        let o = omega(&schema);
        let order = o.preorder();
        assert_eq!(order[0], 0);
        assert_eq!(order.len(), 5);
        // STUDENT (child of GRADES) comes right after GRADES
        let g = order
            .iter()
            .position(|&i| o.node(i).relation == "GRADES")
            .unwrap();
        assert_eq!(o.node(order[g + 1]).relation, "STUDENT");
    }

    #[test]
    fn rejects_missing_pivot_key() {
        let schema = university_schema();
        let b = ViewObjectBuilder::new("bad", "COURSES", &["title"]);
        assert!(b.build(&schema).is_err());
    }

    #[test]
    fn rejects_second_pivot_projection() {
        let schema = university_schema();
        let mut b = ViewObjectBuilder::new("bad", "COURSES", &["course_id"]);
        // CURRICULUM —> COURSES traversed inverse lands back on COURSES
        let c = b.child(
            0,
            "CURRICULUM",
            &["degree", "course_id"],
            VoEdge::single("curriculum_courses", false),
        );
        b.child(
            c,
            "COURSES",
            &["course_id"],
            VoEdge::single("curriculum_courses", true),
        );
        assert!(b.build(&schema).is_err());
    }

    #[test]
    fn rejects_wrong_edge_endpoints() {
        let schema = university_schema();
        let mut b = ViewObjectBuilder::new("bad", "COURSES", &["course_id"]);
        // student_grades does not touch COURSES
        b.child(
            0,
            "STUDENT",
            &["ssn"],
            VoEdge::single("student_grades", false),
        );
        assert!(b.build(&schema).is_err());
    }

    #[test]
    fn rejects_unknown_attribute() {
        let schema = university_schema();
        let b = ViewObjectBuilder::new("bad", "COURSES", &["course_id", "nope"]);
        assert!(b.build(&schema).is_err());
    }

    #[test]
    fn rejects_missing_link_attribute() {
        let schema = university_schema();
        let mut b = ViewObjectBuilder::new("bad", "COURSES", &["course_id", "title"]);
        // DEPARTMENT edge needs COURSES.dept_name projected on the parent
        b.child(
            0,
            "DEPARTMENT",
            &["dept_name"],
            VoEdge::single("courses_dept", true),
        );
        assert!(b.build(&schema).is_err());
    }

    #[test]
    fn multi_step_edge_validates() {
        let schema = university_schema();
        // Figure 3's omega-prime: STUDENT attached to COURSES through GRADES
        let mut b = ViewObjectBuilder::new(
            "omega_prime",
            "COURSES",
            &["course_id", "title", "level", "dept_name"],
        );
        b.child(
            0,
            "STUDENT",
            &["ssn", "degree_program"],
            VoEdge {
                steps: vec![
                    Step {
                        connection: "courses_grades".into(),
                        parent_is_from: true,
                    },
                    Step {
                        connection: "student_grades".into(),
                        parent_is_from: false,
                    },
                ],
            },
        );
        let o = b.build(&schema).unwrap();
        assert_eq!(o.complexity(), 2);
        assert!(!o.node(1).edge.as_ref().unwrap().is_direct());
    }

    #[test]
    fn multi_step_edge_rejects_broken_chain() {
        let schema = university_schema();
        let mut b = ViewObjectBuilder::new("bad", "COURSES", &["course_id"]);
        b.child(
            0,
            "STUDENT",
            &["ssn"],
            VoEdge {
                steps: vec![
                    // wrong middle step: curriculum_courses does not reach GRADES
                    Step {
                        connection: "curriculum_courses".into(),
                        parent_is_from: false,
                    },
                    Step {
                        connection: "student_grades".into(),
                        parent_is_from: false,
                    },
                ],
            },
        );
        assert!(b.build(&schema).is_err());
    }

    #[test]
    fn link_attr_helpers() {
        let schema = university_schema();
        let o = omega(&schema);
        // GRADES node: parent link = COURSES.course_id, child link = GRADES.course_id
        let g = o
            .nodes()
            .iter()
            .find(|n| n.relation == "GRADES")
            .unwrap()
            .id;
        assert_eq!(
            o.parent_link_attrs(&schema, g).unwrap(),
            &["course_id".to_string()]
        );
        assert_eq!(
            o.child_link_attrs(&schema, g).unwrap(),
            &["course_id".to_string()]
        );
        // DEPARTMENT node: parent link = COURSES.dept_name
        let d = o
            .nodes()
            .iter()
            .find(|n| n.relation == "DEPARTMENT")
            .unwrap()
            .id;
        assert_eq!(
            o.parent_link_attrs(&schema, d).unwrap(),
            &["dept_name".to_string()]
        );
    }

    #[test]
    fn tree_string_shows_structure() {
        let schema = university_schema();
        let o = omega(&schema);
        let s = o.to_tree_string(&schema);
        assert!(s.contains("COURSES"));
        assert!(s.contains("[pivot]"));
        assert!(s.contains("STUDENT"));
        // indentation: STUDENT nested two levels deep
        assert!(s.lines().any(|l| l.starts_with("    STUDENT")));
    }
}
