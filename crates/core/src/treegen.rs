//! View-object generation: subgraph → template tree → pruned object
//! (paper §3, Figure 2).
//!
//! Generation proceeds in the paper's three stages:
//!
//! 1. [`crate::metric::extract_subgraph`] isolates the relevant subgraph
//!    `G` around the pivot (Figure 2a).
//! 2. [`generate_tree`] expands all paths in `G` emanating from the pivot
//!    into a template tree `T` (Figure 2b), stopping a branch when it
//!    would revisit a relation already on its path (a circuit) or when
//!    path relevance falls below the metric threshold. Because circuits
//!    are broken by duplication, a relation may appear in several copies —
//!    the two PEOPLE nodes of Figure 2b.
//! 3. [`prune`] / [`prune_by_relations`] select the template nodes to keep
//!    (Figure 2c); children of excluded nodes re-attach to their nearest
//!    kept ancestor with the contracted multi-step edge (Figure 3's
//!    `COURSES —* GRADES *— STUDENT` path).

use crate::metric::MetricWeights;
use crate::object::{NodeId, Step, ViewObject, VoEdge, VoNode};
use vo_relational::prelude::*;
use vo_structural::prelude::*;

/// One node of the template tree `T`.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateNode {
    /// Arena index within the tree.
    pub id: usize,
    /// Base relation at this node.
    pub relation: String,
    /// Parent template node (`None` for the pivot).
    pub parent: Option<usize>,
    /// The single traversal step from the parent (`None` for the pivot).
    pub step: Option<Step>,
    /// Path relevance under the generation metric.
    pub relevance: f64,
    /// Depth (pivot = 0).
    pub depth: usize,
    /// Children, ordered by descending relevance then relation name.
    pub children: Vec<usize>,
}

/// The template tree `T`: all possible configurations for view objects
/// anchored on the pivot (paper: "once the pivot relation has been
/// determined, we have the choice to either include in or exclude from ω
/// every other relation in the tree").
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateTree {
    /// The pivot relation.
    pub pivot: String,
    /// Arena; node 0 is the pivot.
    pub nodes: Vec<TemplateNode>,
}

impl TemplateTree {
    /// Number of template nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the tree is just the pivot.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    /// Ids of template nodes on `relation`, in tree order.
    pub fn nodes_on(&self, relation: &str) -> Vec<usize> {
        self.nodes
            .iter()
            .filter(|n| n.relation == relation)
            .map(|n| n.id)
            .collect()
    }

    /// Render the tree (textual Figure 2b).
    pub fn to_tree_string(&self) -> String {
        let mut out = String::new();
        self.render(0, 0, &mut out);
        out
    }

    fn render(&self, id: usize, depth: usize, out: &mut String) {
        let n = &self.nodes[id];
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&format!("{} (relevance {:.3})\n", n.relation, n.relevance));
        for &c in &n.children {
            self.render(c, depth + 1, out);
        }
    }
}

/// Generate the template tree for `pivot` (Figure 2a + 2b in one pass: the
/// expansion itself never leaves the relevant subgraph, because path
/// relevance is monotonically non-increasing).
pub fn generate_tree(
    schema: &StructuralSchema,
    pivot: &str,
    weights: &MetricWeights,
) -> Result<TemplateTree> {
    schema.catalog().relation(pivot)?;
    weights
        .validate()
        .map_err(|m| Error::InvalidSchema(format!("bad metric weights: {m}")))?;
    let mut nodes = vec![TemplateNode {
        id: 0,
        relation: pivot.to_owned(),
        parent: None,
        step: None,
        relevance: 1.0,
        depth: 0,
        children: Vec::new(),
    }];
    // depth-first expansion; the path set for cycle detection lives on the
    // explicit stack
    let mut stack: Vec<usize> = vec![0];
    while let Some(id) = stack.pop() {
        let (rel, relevance, depth) = {
            let n = &nodes[id];
            (n.relation.clone(), n.relevance, n.depth)
        };
        // relations on the path root..=id
        let mut on_path: Vec<&str> = Vec::with_capacity(depth + 1);
        {
            let mut at = id;
            loop {
                on_path.push(nodes[at].relation.as_str());
                match nodes[at].parent {
                    Some(p) => at = p,
                    None => break,
                }
            }
        }
        let on_path: Vec<String> = on_path.iter().map(|s| (*s).to_owned()).collect();

        let mut expansions: Vec<(String, Step, f64)> = Vec::new();
        for t in schema.traversals_from(&rel) {
            let target = t.target();
            if on_path.iter().any(|r| r == target) {
                continue; // would create a circuit — break it (Figure 2b)
            }
            let r = relevance * weights.step_weight(&t);
            if r < weights.threshold {
                continue; // no longer relevant
            }
            expansions.push((
                target.to_owned(),
                Step {
                    connection: t.connection.name.clone(),
                    parent_is_from: t.forward,
                },
                r,
            ));
        }
        // deterministic, figure-like ordering: most relevant child first
        expansions.sort_by(|a, b| {
            b.2.total_cmp(&a.2)
                .then_with(|| a.0.cmp(&b.0))
                .then_with(|| a.1.connection.cmp(&b.1.connection))
        });
        for (target, step, r) in expansions {
            let child_id = nodes.len();
            nodes.push(TemplateNode {
                id: child_id,
                relation: target,
                parent: Some(id),
                step: Some(step),
                relevance: r,
                depth: depth + 1,
                children: Vec::new(),
            });
            nodes[id].children.push(child_id);
            stack.push(child_id);
        }
    }
    Ok(TemplateTree {
        pivot: pivot.to_owned(),
        nodes,
    })
}

/// A node selection for pruning: template node id plus the attributes to
/// project (linking attributes and — for the pivot — key attributes are
/// added automatically).
#[derive(Debug, Clone)]
pub struct Selection {
    /// Template node to keep.
    pub template_node: usize,
    /// Projection attributes for the node.
    pub attrs: Vec<String>,
}

impl Selection {
    /// Keep `template_node` projecting `attrs`.
    pub fn new(template_node: usize, attrs: &[&str]) -> Self {
        Selection {
            template_node,
            attrs: attrs.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    /// Keep `template_node` projecting every attribute of its relation.
    pub fn all_attrs(template_node: usize) -> Self {
        Selection {
            template_node,
            attrs: Vec::new(),
        }
    }
}

/// Prune the template tree into a view object. `selections` must include
/// the root (template node 0); children of excluded nodes re-attach to
/// their nearest kept ancestor through a contracted multi-step edge.
/// An empty attribute list in a selection means "all attributes".
pub fn prune(
    schema: &StructuralSchema,
    tree: &TemplateTree,
    name: impl Into<String>,
    selections: &[Selection],
) -> Result<ViewObject> {
    let keep: std::collections::BTreeMap<usize, &Selection> =
        selections.iter().map(|s| (s.template_node, s)).collect();
    if !keep.contains_key(&0) {
        return Err(Error::InvalidSchema(
            "pruning must keep the pivot (template node 0)".into(),
        ));
    }
    for s in selections {
        if s.template_node >= tree.nodes.len() {
            return Err(Error::InvalidSchema(format!(
                "selection references template node {} out of bounds",
                s.template_node
            )));
        }
    }

    // map kept template node -> object node id, built in template preorder
    let mut object_id: std::collections::BTreeMap<usize, NodeId> = Default::default();
    let mut vo_nodes: Vec<VoNode> = Vec::with_capacity(keep.len());

    let mut stack = vec![0usize];
    let mut order = Vec::new();
    while let Some(t) = stack.pop() {
        order.push(t);
        for &c in tree.nodes[t].children.iter().rev() {
            stack.push(c);
        }
    }
    for t in order {
        let Some(sel) = keep.get(&t) else { continue };
        let template = &tree.nodes[t];
        let id = vo_nodes.len();
        // nearest kept ancestor + contracted edge
        let (parent, edge) = if t == 0 {
            (None, None)
        } else {
            let mut steps_rev: Vec<Step> = Vec::new();
            let mut at = t;
            let ancestor = loop {
                steps_rev.push(tree.nodes[at].step.clone().expect("non-root"));
                let p = tree.nodes[at].parent.expect("non-root");
                if keep.contains_key(&p) {
                    break p;
                }
                at = p;
            };
            steps_rev.reverse();
            let parent_obj = *object_id.get(&ancestor).ok_or_else(|| {
                Error::InvalidSchema(format!(
                    "template node {t} kept but its kept ancestor was not visited first"
                ))
            })?;
            (Some(parent_obj), Some(VoEdge { steps: steps_rev }))
        };

        // attribute set: requested ∪ required linking/key attributes
        let rel_schema = schema.catalog().relation(&template.relation)?;
        let mut attrs: Vec<String> = if sel.attrs.is_empty() {
            rel_schema
                .attributes()
                .iter()
                .map(|a| a.name.clone())
                .collect()
        } else {
            sel.attrs.clone()
        };
        let ensure = |attrs: &mut Vec<String>, a: &str| {
            if !attrs.iter().any(|x| x == a) {
                attrs.push(a.to_owned());
            }
        };
        if t == 0 {
            for k in rel_schema.key_names() {
                ensure(&mut attrs, k);
            }
        }
        if let Some(e) = &edge {
            // this node's side of the final step
            let last = e.steps.last().expect("non-empty").resolve(schema)?;
            for a in last.target_attrs() {
                ensure(&mut attrs, a);
            }
            // the parent's side of the first step
            let first = e.steps[0].resolve(schema)?;
            let p = parent.expect("edge implies parent");
            for a in first.source_attrs() {
                if !vo_nodes[p].attrs.iter().any(|x| x == a) {
                    vo_nodes[p].attrs.push(a.clone());
                }
            }
        }
        // validate requested attrs exist (before object validation for a
        // clearer error)
        for a in &attrs {
            rel_schema.index_of(a)?;
        }

        vo_nodes.push(VoNode {
            id,
            relation: template.relation.clone(),
            attrs,
            parent,
            edge,
            children: Vec::new(),
        });
        if let Some(p) = parent {
            vo_nodes[p].children.push(id);
        }
        object_id.insert(t, id);
    }

    ViewObject::from_nodes(name, vo_nodes, schema)
}

/// Convenience pruning: keep one template node per named relation,
/// choosing the *shallowest* copy (ties broken by higher relevance), and
/// project all attributes. The pivot is always kept.
pub fn prune_by_relations(
    schema: &StructuralSchema,
    tree: &TemplateTree,
    name: impl Into<String>,
    relations: &[&str],
) -> Result<ViewObject> {
    let mut selections = vec![Selection::all_attrs(0)];
    for rel in relations {
        if *rel == tree.pivot {
            continue;
        }
        let candidates = tree.nodes_on(rel);
        let best = candidates
            .into_iter()
            .min_by(|&a, &b| {
                tree.nodes[a]
                    .depth
                    .cmp(&tree.nodes[b].depth)
                    .then_with(|| tree.nodes[b].relevance.total_cmp(&tree.nodes[a].relevance))
            })
            .ok_or_else(|| {
                Error::InvalidSchema(format!(
                    "relation {rel} is not in the template tree for pivot {}",
                    tree.pivot
                ))
            })?;
        selections.push(Selection::all_attrs(best));
    }
    prune(schema, tree, name, &selections)
}

/// End-to-end generation of the paper's ω (Figure 2c) for any database
/// that has the university connection names; exposed for tests, examples
/// and benchmarks.
pub fn generate_omega(schema: &StructuralSchema) -> Result<ViewObject> {
    let tree = generate_tree(schema, "COURSES", &MetricWeights::default())?;
    prune_by_relations(
        schema,
        &tree,
        "omega",
        &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
    )
}

/// End-to-end generation of the paper's ω′ (Figure 3): COURSES plus
/// FACULTY and STUDENT only, with contracted paths.
pub fn generate_omega_prime(schema: &StructuralSchema) -> Result<ViewObject> {
    let tree = generate_tree(schema, "COURSES", &MetricWeights::default())?;
    prune_by_relations(schema, &tree, "omega_prime", &["FACULTY", "STUDENT"])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::university::university_schema;

    #[test]
    fn tree_duplicates_people_breaking_the_circuit() {
        let schema = university_schema();
        let tree = generate_tree(&schema, "COURSES", &MetricWeights::default()).unwrap();
        // Figure 2(b): two copies of PEOPLE, one per path from COURSES
        assert_eq!(tree.nodes_on("PEOPLE").len(), 2);
        // the pivot appears exactly once
        assert_eq!(tree.nodes_on("COURSES").len(), 1);
        assert_eq!(tree.nodes[0].relation, "COURSES");
    }

    #[test]
    fn tree_children_ordered_by_relevance() {
        let schema = university_schema();
        let tree = generate_tree(&schema, "COURSES", &MetricWeights::default()).unwrap();
        let root_children: Vec<&str> = tree.nodes[0]
            .children
            .iter()
            .map(|&c| tree.nodes[c].relation.as_str())
            .collect();
        // GRADES (0.9) before DEPARTMENT (0.75) before CURRICULUM (0.6)
        assert_eq!(root_children, vec!["GRADES", "DEPARTMENT", "CURRICULUM"]);
    }

    #[test]
    fn no_relation_repeats_on_a_path() {
        let schema = university_schema();
        let tree = generate_tree(&schema, "COURSES", &MetricWeights::default()).unwrap();
        for n in &tree.nodes {
            let mut rels = vec![n.relation.clone()];
            let mut at = n.id;
            while let Some(p) = tree.nodes[at].parent {
                rels.push(tree.nodes[p].relation.clone());
                at = p;
            }
            let len = rels.len();
            rels.sort();
            rels.dedup();
            assert_eq!(rels.len(), len, "path to node {} repeats a relation", n.id);
        }
    }

    #[test]
    fn relevance_decreases_along_paths() {
        let schema = university_schema();
        let tree = generate_tree(&schema, "COURSES", &MetricWeights::default()).unwrap();
        for n in &tree.nodes {
            if let Some(p) = n.parent {
                assert!(n.relevance < tree.nodes[p].relevance);
                assert!(n.relevance >= MetricWeights::default().threshold);
            }
        }
    }

    #[test]
    fn omega_matches_figure_2c() {
        let schema = university_schema();
        let omega = generate_omega(&schema).unwrap();
        assert_eq!(omega.pivot(), "COURSES");
        assert_eq!(omega.complexity(), 5);
        assert_eq!(
            omega.relations(),
            vec!["COURSES", "CURRICULUM", "DEPARTMENT", "GRADES", "STUDENT"]
        );
        // STUDENT hangs off GRADES by a direct inverse-ownership edge
        let student = omega
            .nodes()
            .iter()
            .find(|n| n.relation == "STUDENT")
            .unwrap();
        let parent = omega.node(student.parent.unwrap());
        assert_eq!(parent.relation, "GRADES");
        assert!(student.edge.as_ref().unwrap().is_direct());
    }

    #[test]
    fn omega_prime_matches_figure_3() {
        let schema = university_schema();
        let op = generate_omega_prime(&schema).unwrap();
        assert_eq!(op.complexity(), 3);
        assert_eq!(op.relations(), vec!["COURSES", "FACULTY", "STUDENT"]);
        // STUDENT attaches through the contracted 2-step path
        // COURSES —* GRADES *— STUDENT (Figure 3's note)
        let student = op.nodes().iter().find(|n| n.relation == "STUDENT").unwrap();
        let e = student.edge.as_ref().unwrap();
        assert_eq!(e.steps.len(), 2);
        assert_eq!(e.steps[0].connection, "courses_grades");
        assert!(e.steps[0].parent_is_from);
        assert_eq!(e.steps[1].connection, "student_grades");
        assert!(!e.steps[1].parent_is_from);
        // FACULTY attaches through DEPARTMENT and PEOPLE (3 steps)
        let fac = op.nodes().iter().find(|n| n.relation == "FACULTY").unwrap();
        assert_eq!(fac.edge.as_ref().unwrap().steps.len(), 3);
    }

    #[test]
    fn prune_rejects_missing_root() {
        let schema = university_schema();
        let tree = generate_tree(&schema, "COURSES", &MetricWeights::default()).unwrap();
        let r = prune(&schema, &tree, "bad", &[Selection::all_attrs(1)]);
        assert!(r.is_err());
    }

    #[test]
    fn prune_rejects_unknown_relation() {
        let schema = university_schema();
        let tree = generate_tree(&schema, "COURSES", &MetricWeights::default()).unwrap();
        let r = prune_by_relations(&schema, &tree, "bad", &["NOPE"]);
        assert!(r.is_err());
    }

    #[test]
    fn prune_adds_linking_attributes() {
        let schema = university_schema();
        let tree = generate_tree(&schema, "COURSES", &MetricWeights::default()).unwrap();
        // ask for GRADES projecting only "grade": linking attrs get added
        let g = tree.nodes_on("GRADES")[0];
        let o = prune(
            &schema,
            &tree,
            "slim",
            &[
                Selection::new(0, &["course_id", "title"]),
                Selection::new(g, &["grade"]),
            ],
        )
        .unwrap();
        let gn = o.nodes().iter().find(|n| n.relation == "GRADES").unwrap();
        assert!(gn.attrs.contains(&"grade".to_string()));
        assert!(gn.attrs.contains(&"course_id".to_string()));
    }

    #[test]
    fn tight_threshold_yields_tiny_tree() {
        let schema = university_schema();
        let w = MetricWeights {
            threshold: 0.85,
            ..Default::default()
        };
        let tree = generate_tree(&schema, "COURSES", &w).unwrap();
        assert_eq!(tree.len(), 2); // COURSES + GRADES
        assert!(!tree.is_empty());
    }

    #[test]
    fn tree_string_shows_relevances() {
        let schema = university_schema();
        let tree = generate_tree(&schema, "COURSES", &MetricWeights::default()).unwrap();
        let s = tree.to_tree_string();
        assert!(s.contains("COURSES (relevance 1.000)"));
        assert!(s.contains("GRADES (relevance 0.900)"));
    }
}
