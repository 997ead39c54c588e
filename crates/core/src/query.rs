//! Declarative queries on view objects (paper §3's query model).
//!
//! A [`VoQuery`] attaches predicates to nodes of the object and may add
//! *cardinality conditions* over set-valued children (Figure 4's request —
//! "graduate courses with less than 5 students having enrolled" — is a
//! predicate on the pivot plus a count condition on the STUDENT node).
//!
//! Semantics:
//! - the **pivot predicate** selects candidate instances;
//! - a **node predicate** on a non-pivot node filters which child tuples
//!   are bound into the instance;
//! - a **count condition** on a node keeps only instances where the total
//!   number of tuples bound to that node compares as required;
//! - an **exists condition** keeps only instances that bind at least one
//!   tuple to the node.
//!
//! Each query also *composes with the object's structure into relational
//! plans* ([`VoQuery::pivot_plan`]): the pivot predicate plus every exists/
//! node condition on direct-edge children becomes a select-join plan on
//! base relations, mirroring the paper's "query on a view object is
//! composed dynamically with the object's structure to obtain a relational
//! query".

use crate::instance::{instantiate_many_planned, plan_object, ObjectPlan, VoInstance};
use crate::object::{NodeId, ViewObject};
use std::collections::BTreeMap;
use vo_relational::prelude::*;
use vo_structural::prelude::*;

/// Comparison applied by a count condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CountCondition {
    /// The node whose bound-tuple count is tested.
    pub node: NodeId,
    /// Comparison operator.
    pub op: CmpOp,
    /// Right-hand count.
    pub count: usize,
}

impl CountCondition {
    fn holds(&self, n: usize) -> bool {
        let (a, b) = (n, self.count);
        match self.op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }
}

/// A predicate on a non-pivot node, with the column names of the node's
/// relation it is evaluated over — resolved once per query.
type ChildPredicate<'q> = (NodeId, &'q Expr, Vec<String>);

/// A query over one view object.
#[derive(Debug, Clone, Default)]
pub struct VoQuery {
    /// Per-node tuple predicates (attribute names are the node relation's).
    pub node_predicates: BTreeMap<NodeId, Expr>,
    /// Cardinality conditions evaluated per instance.
    pub count_conditions: Vec<CountCondition>,
    /// Nodes that must bind at least one tuple.
    pub must_exist: Vec<NodeId>,
    /// Order instances by these pivot attributes (ascending).
    pub order_by: Vec<String>,
    /// Keep at most this many instances.
    pub limit: Option<usize>,
}

impl VoQuery {
    /// The empty query (selects every instance whole).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a predicate on `node`'s tuples.
    pub fn with_predicate(mut self, node: NodeId, pred: Expr) -> Self {
        let entry = self
            .node_predicates
            .remove(&node)
            .map(|e| e.and(pred.clone()))
            .unwrap_or(pred);
        self.node_predicates.insert(node, entry);
        self
    }

    /// Add a count condition on `node`.
    pub fn with_count(mut self, node: NodeId, op: CmpOp, count: usize) -> Self {
        self.count_conditions
            .push(CountCondition { node, op, count });
        self
    }

    /// Require at least one tuple bound to `node`.
    pub fn with_exists(mut self, node: NodeId) -> Self {
        self.must_exist.push(node);
        self
    }

    /// Order resulting instances by pivot attributes (ascending).
    pub fn with_order_by(mut self, attrs: &[&str]) -> Self {
        self.order_by.extend(attrs.iter().map(|s| (*s).to_owned()));
        self
    }

    /// Keep at most `n` instances.
    pub fn with_limit(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }

    /// Compose the query with the object structure into a relational plan
    /// that returns the *pivot keys* of candidate instances. Node
    /// predicates on direct-edge descendants become joins; count
    /// conditions are not expressible relationally here and are applied
    /// during [`VoQuery::execute`]'s instance filter.
    pub fn pivot_plan(&self, schema: &StructuralSchema, object: &ViewObject) -> Result<Plan> {
        let pivot_rel = object.pivot();
        let pivot_schema = schema.catalog().relation(pivot_rel)?;
        let mut plan = Plan::scan(pivot_rel);
        if let Some(pred) = self.node_predicates.get(&0) {
            plan = plan.select(qualify(pred, pivot_rel));
        }
        // join in each predicated or must-exist node connected by a chain
        // of direct edges to the pivot
        for node in object.nodes() {
            if node.id == 0 {
                continue;
            }
            let relevant =
                self.node_predicates.contains_key(&node.id) || self.must_exist.contains(&node.id);
            if !relevant {
                continue;
            }
            let Some(steps) = direct_chain(object, node.id) else {
                continue; // contracted edges are handled instance-side
            };
            let mut sub = plan;
            for step in steps {
                let t = step.resolve(schema)?;
                let on: Vec<(String, String)> = t
                    .source_attrs()
                    .iter()
                    .zip(t.target_attrs())
                    .map(|(a, b)| (format!("{}.{a}", t.source()), format!("{}.{b}", t.target())))
                    .collect();
                sub = sub.join(Plan::scan(t.target()), on);
            }
            if let Some(pred) = self.node_predicates.get(&node.id) {
                sub = sub.select(qualify(pred, &node.relation));
            }
            plan = sub;
        }
        let key_cols: Vec<String> = pivot_schema
            .key_names()
            .iter()
            .map(|k| format!("{pivot_rel}.{k}"))
            .collect();
        Ok(plan.project(key_cols).distinct())
    }

    /// Execute: find candidate pivot tuples via the composed relational
    /// plan, assemble instances (applying node predicates as child
    /// filters), then apply count/exists conditions. Plans the object
    /// first; callers holding a prepared [`ObjectPlan`] use
    /// [`VoQuery::execute_planned`].
    pub fn execute(
        &self,
        schema: &StructuralSchema,
        object: &ViewObject,
        db: &Database,
    ) -> Result<Vec<VoInstance>> {
        self.execute_planned(schema, object, db, &plan_object(schema, object, db)?)
    }

    /// [`VoQuery::execute`] over an access plan prepared earlier for
    /// `object` at `db`'s structure.
    pub fn execute_planned(
        &self,
        schema: &StructuralSchema,
        object: &ViewObject,
        db: &Database,
        object_plan: &ObjectPlan,
    ) -> Result<Vec<VoInstance>> {
        let plan = self.pivot_plan(schema, object)?;
        let keys = db.execute(&plan)?;
        let pivot = db.table(object.pivot())?;
        let candidates: Vec<&Tuple> = keys
            .rows
            .iter()
            .filter_map(|row| pivot.get(&Key::new(row.clone())))
            .collect();
        // the predicates on non-pivot nodes (the pivot's is already applied
        // in the plan), each with its node relation's column names
        let child_predicates: Vec<ChildPredicate<'_>> = self
            .node_predicates
            .iter()
            .filter(|(&node, _)| node != 0)
            .map(|(&node, pred)| {
                let rel_schema = db.table(&object.node(node).relation)?.schema();
                let columns = rel_schema
                    .attributes()
                    .iter()
                    .map(|a| a.name.clone())
                    .collect();
                Ok((node, pred, columns))
            })
            .collect::<Result<_>>()?;
        // assemble all candidate instances set-at-a-time
        let mut out = Vec::new();
        for inst in instantiate_many_planned(object, db, object_plan, &candidates)? {
            let inst = self.filter_instance(&child_predicates, inst)?;
            let Some(inst) = inst else { continue };
            out.push(inst);
        }
        if !self.order_by.is_empty() {
            let pivot_schema = schema.catalog().relation(object.pivot())?;
            let idx: Vec<usize> = self
                .order_by
                .iter()
                .map(|a| pivot_schema.index_of(a))
                .collect::<Result<_>>()?;
            out.sort_by(|a, b| {
                for &i in &idx {
                    let ord = a.root.tuple.get(i).cmp(b.root.tuple.get(i));
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
        }
        if let Some(n) = self.limit {
            out.truncate(n);
        }
        Ok(out)
    }

    /// Apply node predicates (pruning unmatched children) and count/exists
    /// conditions; `None` means the instance is filtered out.
    fn filter_instance(
        &self,
        child_predicates: &[ChildPredicate<'_>],
        mut inst: VoInstance,
    ) -> Result<Option<VoInstance>> {
        for (node, pred, columns) in child_predicates {
            // last first: a removal moves only the tuples behind it
            for pos in (0..inst.tuples_of(*node).len()).rev() {
                let tuple = &inst.tuples_of(*node)[pos];
                if !pred.eval_truth(columns, tuple.values())?.is_true() {
                    inst.remove(*node, pos);
                }
            }
        }
        for c in &self.count_conditions {
            if !c.holds(inst.tuples_of(c.node).len()) {
                return Ok(None);
            }
        }
        for &n in &self.must_exist {
            if inst.tuples_of(n).is_empty() {
                return Ok(None);
            }
        }
        Ok(Some(inst))
    }
}

/// The steps from the pivot to `node` when *every* edge on the way is
/// direct; `None` if any edge is contracted.
fn direct_chain(object: &ViewObject, node: NodeId) -> Option<Vec<crate::object::Step>> {
    let mut rev: Vec<crate::object::Step> = Vec::new();
    let mut at = node;
    while let Some(parent) = object.node(at).parent {
        let edge = object.node(at).edge.as_ref()?;
        if !edge.is_direct() {
            return None;
        }
        rev.push(edge.steps[0].clone());
        at = parent;
    }
    rev.reverse();
    Some(rev)
}

/// Qualify an expression's bare attribute references with a relation name
/// so it can run over scan output (`rel.attr` columns).
fn qualify(expr: &Expr, relation: &str) -> Expr {
    match expr {
        Expr::Attr(a) => {
            if a.contains('.') {
                Expr::Attr(a.clone())
            } else {
                Expr::Attr(format!("{relation}.{a}"))
            }
        }
        Expr::Lit(v) => Expr::Lit(v.clone()),
        Expr::Cmp(op, l, r) => Expr::Cmp(
            *op,
            Box::new(qualify(l, relation)),
            Box::new(qualify(r, relation)),
        ),
        Expr::And(l, r) => qualify(l, relation).and(qualify(r, relation)),
        Expr::Or(l, r) => qualify(l, relation).or(qualify(r, relation)),
        Expr::Not(e) => qualify(e, relation).not(),
        Expr::IsNull(e) => qualify(e, relation).is_null(),
        Expr::True => Expr::True,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treegen::{generate_omega, generate_omega_prime};
    use crate::university::university_database;

    fn node_id(o: &ViewObject, rel: &str) -> NodeId {
        o.nodes().iter().find(|n| n.relation == rel).unwrap().id
    }

    #[test]
    fn figure_4_query_returns_cs345() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let stu = node_id(&omega, "STUDENT");
        // graduate courses with fewer than 5 students enrolled
        let q = VoQuery::new()
            .with_predicate(0, Expr::attr("level").eq(Expr::lit("graduate")))
            .with_count(stu, CmpOp::Lt, 5);
        let hits = q.execute(&schema, &omega, &db).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].key(&schema, &omega).unwrap(), Key::single("CS345"));
    }

    #[test]
    fn empty_query_returns_everything() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let hits = VoQuery::new().execute(&schema, &omega, &db).unwrap();
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn child_predicate_prunes_children_not_instances() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let gra = node_id(&omega, "GRADES");
        let q = VoQuery::new().with_predicate(gra, Expr::attr("grade").eq(Expr::lit("A")));
        let hits = q.execute(&schema, &omega, &db).unwrap();
        // CS101 instance survives (joins via plan) only if it has an A — it
        // has only Bs, so the join filters it out of candidates
        let ids: Vec<Key> = hits
            .iter()
            .map(|h| h.key(&schema, &omega).unwrap())
            .collect();
        assert!(ids.contains(&Key::single("CS345")));
        assert!(ids.contains(&Key::single("EE282")));
        assert!(!ids.contains(&Key::single("CS101")));
        // and the CS345 instance carries only its A grades
        let cs345 = hits
            .iter()
            .find(|h| h.key(&schema, &omega).unwrap() == Key::single("CS345"))
            .unwrap();
        assert_eq!(cs345.tuples_of(gra).len(), 3);
    }

    #[test]
    fn count_condition_operators() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let stu = node_id(&omega, "STUDENT");
        let count = |op, n| {
            VoQuery::new()
                .with_count(stu, op, n)
                .execute(&schema, &omega, &db)
                .unwrap()
                .len()
        };
        assert_eq!(count(CmpOp::Eq, 3), 1); // CS345
        assert_eq!(count(CmpOp::Ge, 6), 2); // CS101 (8), EE282 (6)
        assert_eq!(count(CmpOp::Ne, 3), 2);
        assert_eq!(count(CmpOp::Le, 8), 3);
        assert_eq!(count(CmpOp::Gt, 8), 0);
    }

    #[test]
    fn must_exist_filters() {
        let (schema, mut db) = university_database();
        db.insert(
            "COURSES",
            vec!["X1".into(), "Empty".into(), "graduate".into(), Value::Null],
        )
        .unwrap();
        let omega = generate_omega(&schema).unwrap();
        let gra = node_id(&omega, "GRADES");
        let q = VoQuery::new().with_exists(gra);
        let hits = q.execute(&schema, &omega, &db).unwrap();
        assert_eq!(hits.len(), 3); // X1 excluded
    }

    #[test]
    fn predicate_on_contracted_node_filters_instance_side() {
        let (schema, db) = university_database();
        let op = generate_omega_prime(&schema).unwrap();
        let stu = node_id(&op, "STUDENT");
        let q =
            VoQuery::new().with_predicate(stu, Expr::attr("degree_program").eq(Expr::lit("PhD")));
        let hits = q.execute(&schema, &op, &db).unwrap();
        // every course instance remains, but only PhD students are bound
        for h in &hits {
            for t in h.tuples_of(stu) {
                let sschema = db.table("STUDENT").unwrap().schema().clone();
                assert_eq!(
                    t.get_named(&sschema, "degree_program").unwrap(),
                    &Value::text("PhD")
                );
            }
        }
    }

    #[test]
    fn pivot_plan_composes_joins() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let gra = node_id(&omega, "GRADES");
        let q = VoQuery::new()
            .with_predicate(0, Expr::attr("level").eq(Expr::lit("graduate")))
            .with_predicate(gra, Expr::attr("grade").eq(Expr::lit("A")));
        let plan = q.pivot_plan(&schema, &omega).unwrap();
        assert!(plan.relations().contains(&"GRADES"));
        let rs = db.execute(&plan).unwrap();
        assert_eq!(rs.len(), 2); // CS345 and EE282 have A grades and are graduate
    }

    #[test]
    fn conjunction_of_predicates_on_same_node() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let q = VoQuery::new()
            .with_predicate(0, Expr::attr("level").eq(Expr::lit("graduate")))
            .with_predicate(0, Expr::attr("dept_name").eq(Expr::lit("Computer Science")));
        let hits = q.execute(&schema, &omega, &db).unwrap();
        assert_eq!(hits.len(), 1);
    }
}
