//! View-object instances: hierarchical values assembled from relational
//! tuples (paper §3, Figure 4).
//!
//! An instance binds tuples to its object's tree: the root holds one pivot
//! tuple; under each bound tuple, every child node binds the *set* of
//! tuples connected to it. Instances carry **full base tuples** — the
//! projection controls what is displayed and queried, while updates need
//! complete tuples (the paper notes that inserted view-object tuples "need
//! to be extended with some values for the attributes that have been
//! projected out"; carrying full tuples makes the application supply them
//! up front).
//!
//! The binding is kept flat, the form the batched engine computes it in:
//! every tuple but the pivot sits in one `Vec`, grouped by object node id.
//! A group holds its tuples in parent-position order, then engine order,
//! and each tuple records its parent's position in the parent node's
//! group — so a node's tuples are a slice, the tuples under one parent a
//! run of it, a clone is one allocation and equality a slice comparison.

use crate::object::{NodeId, ViewObject};
use std::ops::Range;
use std::sync::Arc;
use vo_obs::trace;
use vo_relational::prelude::*;
use vo_structural::prelude::*;

/// One tuple bound into an instance, and where it hangs: the object node
/// it is bound at and its parent's position among the parent node's
/// tuples. Dereferences to its tuple, so a group reads as the tuples it
/// binds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoInstanceNode {
    /// The object node this tuple is bound at.
    pub node: NodeId,
    /// The object node its parent is bound at (0 for the pivot itself).
    pub parent: NodeId,
    /// Its parent's position among the tuples bound at `parent`.
    pub parent_pos: usize,
    /// The full base tuple.
    pub tuple: Tuple,
}

impl VoInstanceNode {
    /// The root of an instance: `tuple` bound at the pivot node.
    pub(crate) fn pivot(tuple: Tuple) -> Self {
        VoInstanceNode {
            node: 0,
            parent: 0,
            parent_pos: 0,
            tuple,
        }
    }
}

impl std::ops::Deref for VoInstanceNode {
    type Target = Tuple;

    fn deref(&self) -> &Tuple {
        &self.tuple
    }
}

/// A complete view-object instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoInstance {
    /// Name of the view object this instance belongs to — the object's
    /// own allocation ([`ViewObject::shared_name`]).
    pub object: Arc<str>,
    /// The pivot tuple.
    pub root: VoInstanceNode,
    /// Every other bound tuple, grouped by ascending node id; within a
    /// group ordered by parent (node, position), then as pushed.
    bound: Vec<VoInstanceNode>,
}

impl VoInstance {
    /// Build an instance of `object` anchored on `pivot`, tuple by tuple.
    pub fn builder(object: &ViewObject, pivot: Tuple) -> InstanceBuilder<'_> {
        InstanceBuilder {
            object,
            pivot,
            bound: Vec::new(),
            lens: vec![0; object.nodes().len()],
        }
    }

    /// The instance whose non-pivot tuples are `bound`, each group in the
    /// order its tuples were numbered in.
    pub(crate) fn from_parts(
        object: Arc<str>,
        root: VoInstanceNode,
        mut bound: Vec<VoInstanceNode>,
    ) -> Self {
        // stable: a group keeps the order its positions were handed out in
        bound.sort_by_key(|e| e.node);
        VoInstance {
            object,
            root,
            bound,
        }
    }

    /// The instance's object key (the pivot tuple's key).
    pub fn key(&self, schema: &StructuralSchema, object: &ViewObject) -> Result<Key> {
        let pivot = schema.catalog().relation(object.pivot())?;
        Ok(self.root.tuple.key(pivot))
    }

    /// The tuples bound at node `id`, in parent-position order.
    pub fn tuples_of(&self, id: NodeId) -> &[VoInstanceNode] {
        if id == 0 {
            return std::slice::from_ref(&self.root);
        }
        &self.bound[self.group(id)]
    }

    /// Every bound tuple but the pivot, grouped by ascending node id.
    pub fn bound(&self) -> &[VoInstanceNode] {
        &self.bound
    }

    /// Where node `id`'s group lies in `bound` (empty for the pivot).
    fn group(&self, id: NodeId) -> Range<usize> {
        let start = self.bound.partition_point(|e| e.node < id);
        start..start + self.bound[start..].partition_point(|e| e.node == id)
    }

    /// The positions, among the tuples bound at `child`, of those under
    /// the tuple at position `pos` of node `node`: one run of the group.
    pub fn children(&self, node: NodeId, pos: usize, child: NodeId) -> Range<usize> {
        let group = &self.bound[self.group(child)];
        let under = (node, pos);
        let start = group.partition_point(|e| (e.parent, e.parent_pos) < under);
        start..start + group[start..].partition_point(|e| (e.parent, e.parent_pos) == under)
    }

    /// The runs under the tuple at position `pos` of node `node`, by
    /// ascending child node id: `(child, positions among its tuples)`.
    pub(crate) fn runs_under(
        &self,
        node: NodeId,
        pos: usize,
    ) -> impl Iterator<Item = (NodeId, Range<usize>)> + '_ {
        (self.bound.chunk_by(|a, b| a.node == b.node))
            .map(move |group| (group[0].node, self.children(node, pos, group[0].node)))
            .filter(|(_, run)| !run.is_empty())
    }

    /// Total number of tuples bound into the instance.
    pub fn size(&self) -> usize {
        1 + self.bound.len()
    }

    /// Bind `tuple` in place of the one at position `pos` of node `node`.
    /// Panics when there is no such tuple.
    pub fn rewrite(&mut self, node: NodeId, pos: usize, tuple: Tuple) {
        if node == 0 {
            assert_eq!(pos, 0, "the pivot is the only tuple of node 0");
            self.root.tuple = tuple;
        } else {
            let group = self.group(node);
            self.bound[group][pos].tuple = tuple;
        }
    }

    /// Bind `tuple` at `node` under the tuple at position `parent_pos` of
    /// node `parent`, after the tuples bound there already. Returns its
    /// position among `node`'s tuples. Panics when `node` is the pivot's.
    pub fn attach(
        &mut self,
        parent: NodeId,
        parent_pos: usize,
        node: NodeId,
        tuple: Tuple,
    ) -> usize {
        assert_ne!(node, 0, "the pivot is bound at the root");
        let group = self.group(node);
        let under = (parent, parent_pos);
        let pos = self.bound[group.clone()].partition_point(|e| (e.parent, e.parent_pos) <= under);
        // the tuples behind it in its group move one position on
        for e in &mut self.bound {
            if e.parent == node && e.parent_pos >= pos {
                e.parent_pos += 1;
            }
        }
        self.bound.insert(
            group.start + pos,
            VoInstanceNode {
                node,
                parent,
                parent_pos,
                tuple,
            },
        );
        pos
    }

    /// Unbind the tuple at position `pos` of node `node` (not the pivot),
    /// with every tuple below it. Panics when there is no such tuple.
    pub fn remove(&mut self, node: NodeId, pos: usize) {
        let mut gone = vec![false; self.bound.len()];
        gone[self.group(node)][pos] = true;
        // index in `bound` of each tuple's parent (`None`: the pivot)
        let parent_at: Vec<Option<usize>> = (self.bound.iter())
            .map(|e| (e.parent != 0).then(|| self.group(e.parent).start + e.parent_pos))
            .collect();
        // a parent may sit in a later group: sweep until nothing more goes
        let mut swept = true;
        while swept {
            swept = false;
            for (i, parent) in parent_at.iter().enumerate() {
                if !gone[i] && parent.is_some_and(|p| gone.get(p) == Some(&true)) {
                    (gone[i], swept) = (true, true);
                }
            }
        }
        // what stays is renumbered within its group, and pointed at anew
        let mut kept = vec![0; self.bound.len()];
        for i in 1..self.bound.len() {
            let same = self.bound[i].node == self.bound[i - 1].node;
            kept[i] = if same {
                kept[i - 1] + usize::from(!gone[i - 1])
            } else {
                0
            };
        }
        for (e, parent) in self.bound.iter_mut().zip(&parent_at) {
            if let Some(&pos) = parent.and_then(|p| kept.get(p)) {
                e.parent_pos = pos;
            }
        }
        let mut gone = gone.into_iter();
        self.bound
            .retain(|_| !gone.next().expect("one mark per tuple"));
    }

    /// Render the instance in the paper's Figure 4 notation, showing only
    /// projected attributes, children in the object's child order:
    ///
    /// ```text
    /// (COURSES: course_id='CS345', ...
    ///   (DEPARTMENT: dept_name='Computer Science')
    ///   ...)
    /// ```
    pub fn to_display_string(
        &self,
        schema: &StructuralSchema,
        object: &ViewObject,
    ) -> Result<String> {
        let mut out = String::new();
        self.render(schema, object, &self.root, 0, 0, &mut out)?;
        Ok(out)
    }

    fn render(
        &self,
        schema: &StructuralSchema,
        object: &ViewObject,
        bound: &VoInstanceNode,
        pos: usize,
        depth: usize,
        out: &mut String,
    ) -> Result<()> {
        let node = object.node(bound.node);
        let rel_schema = schema.catalog().relation(&node.relation)?;
        for _ in 0..depth {
            out.push_str("  ");
        }
        let fields: Vec<String> = node
            .attrs
            .iter()
            .map(|a| bound.get_named(rel_schema, a).map(|v| format!("{a}={v}")))
            .collect::<Result<_>>()?;
        out.push_str(&format!("({}: {}", node.relation, fields.join(", ")));
        if node.children.is_empty() {
            out.push_str(")\n");
            return Ok(());
        }
        out.push('\n');
        for &child in &node.children {
            for at in self.children(node.id, pos, child) {
                let tuple = &self.tuples_of(child)[at];
                self.render(schema, object, tuple, at, depth + 1, out)?;
            }
        }
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(")\n");
        Ok(())
    }
}

/// Builds a [`VoInstance`] tuple by tuple ([`VoInstance::builder`]). Each
/// push names the tuple's node and its parent's position, and returns the
/// tuple's own position for its children to name. Nodes may be filled in
/// any order; within one node, tuples come in parent-position order.
#[derive(Debug)]
pub struct InstanceBuilder<'o> {
    object: &'o ViewObject,
    pivot: Tuple,
    bound: Vec<VoInstanceNode>,
    /// Tuples pushed so far, per node id.
    lens: Vec<usize>,
}

impl InstanceBuilder<'_> {
    /// Bind `tuple` at `node` under the tuple at position `parent_pos` of
    /// the node's parent. Returns its position among `node`'s tuples.
    /// Panics when `node` is the pivot or not a node of the object.
    pub fn push(&mut self, parent_pos: usize, node: NodeId, tuple: Tuple) -> usize {
        let parent = (self.object.node(node).parent).expect("the pivot is the root, not a push");
        let pos = self.lens[node];
        self.lens[node] += 1;
        self.bound.push(VoInstanceNode {
            node,
            parent,
            parent_pos,
            tuple,
        });
        pos
    }

    /// The instance built.
    pub fn finish(self) -> VoInstance {
        VoInstance::from_parts(
            self.object.shared_name().clone(),
            VoInstanceNode::pivot(self.pivot),
            self.bound,
        )
    }
}

/// Assemble the instance anchored on `root_tuple` by following the
/// object's edges through the database (the query model's "binding of the
/// set of relational tuples ... to the view object's structure").
pub fn assemble(
    schema: &StructuralSchema,
    object: &ViewObject,
    db: &Database,
    root_tuple: Tuple,
) -> Result<VoInstance> {
    let mut b = VoInstance::builder(object, root_tuple.clone());
    assemble_node(schema, object, db, &mut b, 0, 0, &root_tuple)?;
    Ok(b.finish())
}

fn assemble_node(
    schema: &StructuralSchema,
    object: &ViewObject,
    db: &Database,
    b: &mut InstanceBuilder<'_>,
    node: NodeId,
    pos: usize,
    tuple: &Tuple,
) -> Result<()> {
    for &child in &object.node(node).children {
        for t in follow_edge(schema, object, db, node, child, tuple)? {
            let at = b.push(pos, child, t.clone());
            assemble_node(schema, object, db, b, child, at, &t)?;
        }
    }
    Ok(())
}

/// Follow the (possibly multi-step) edge from `parent`'s tuple to the
/// tuples of `child`'s relation, deduplicating terminal tuples by key.
///
/// This is the tuple-at-a-time path, retained as the semantic reference
/// for the batched engine ([`instantiate_many_planned`]). Step resolution and
/// attribute-position lookups are hoisted out of the per-tuple loop.
pub fn follow_edge(
    schema: &StructuralSchema,
    object: &ViewObject,
    db: &Database,
    parent: NodeId,
    child: NodeId,
    parent_tuple: &Tuple,
) -> Result<Vec<Tuple>> {
    let edge = object
        .node(child)
        .edge
        .as_ref()
        .ok_or_else(|| Error::InvalidPlan("child node without edge".into()))?;
    if object.node(child).parent != Some(parent) {
        return Err(Error::InvalidPlan(format!(
            "node {child} is not a child of node {parent}"
        )));
    }
    let mut at = object.node(parent).relation.clone();
    let mut frontier: Vec<Tuple> = vec![parent_tuple.clone()];
    for step in &edge.steps {
        let t = step.resolve(schema)?;
        if t.source() != at {
            return Err(Error::InvalidPlan(format!(
                "edge step over {} starts at {}, but the traversal is at {at}",
                step.connection,
                t.source()
            )));
        }
        let src_indices = db.table(&at)?.schema().indices_of(t.source_attrs())?;
        let target = db.table(t.target())?;
        let target_indices = target.schema().indices_of(t.target_attrs())?;
        let mut next = Vec::new();
        for tuple in &frontier {
            // NULL never connects (Definition 2.1): nothing is visited
            target.for_each_connected(&target_indices, tuple, &src_indices, |m| {
                next.push(m.clone());
            });
        }
        at = t.target().to_owned();
        frontier = next;
    }
    // dedup terminals by key
    let term_schema = db.table(&object.node(child).relation)?.schema();
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::new();
    for t in frontier {
        if seen.insert(t.key(term_schema)) {
            out.push(t);
        }
    }
    Ok(out)
}

/// One prepared traversal step: relation names and attribute positions
/// resolved once, so executing the step is pure position arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepPlan {
    /// Relation the step starts at.
    pub source: String,
    /// Relation the step arrives at.
    pub target: String,
    /// Positions of the connecting attributes in `source` tuples.
    pub source_indices: Vec<usize>,
    /// Names of the connecting attributes in `target` (the attributes a
    /// secondary index must cover for indexed probing).
    pub target_attrs: Vec<String>,
    /// Positions of the connecting attributes in `target` tuples.
    pub target_indices: Vec<usize>,
    /// True when the connecting attributes are `target`'s primary key or
    /// lead it (in any order): the step probes the primary index — one
    /// tuple, or one run of it — and needs no secondary one.
    pub target_keyed: bool,
}

/// A fully resolved object edge: the prepared steps from the parent
/// node's relation to the child node's relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgePlan {
    /// Parent node id.
    pub parent: NodeId,
    /// Child node id (the node this edge instantiates).
    pub child: NodeId,
    /// Prepared steps, in traversal order (non-empty).
    pub steps: Vec<StepPlan>,
    /// The child node's relation (the last step's target).
    pub terminal: String,
}

impl EdgePlan {
    /// The `(relation, attrs)` pairs a database should index so every
    /// step of this edge probes instead of scanning. A step that arrives
    /// at its target's primary key, or at the attributes that lead it,
    /// asks for nothing: the primary index already answers it, and a
    /// secondary copy of the key would be maintained by every write and
    /// cloned by every copy-on-write.
    pub fn required_indexes(&self) -> impl Iterator<Item = (&str, &[String])> {
        self.steps
            .iter()
            .filter(|s| !s.target_keyed)
            .map(|s| (s.target.as_str(), s.target_attrs.as_slice()))
    }
}

/// Resolve the edge into `child` once: connection lookups, direction, and
/// attribute positions. Fails with [`Error::InvalidPlan`] when the edge's
/// step chain does not connect the parent's relation to the child's.
pub fn plan_edge(
    schema: &StructuralSchema,
    object: &ViewObject,
    db: &Database,
    child: NodeId,
) -> Result<EdgePlan> {
    let node = object.node(child);
    let edge = node
        .edge
        .as_ref()
        .ok_or_else(|| Error::InvalidPlan("child node without edge".into()))?;
    let parent = node
        .parent
        .ok_or_else(|| Error::InvalidPlan("child node without parent".into()))?;
    let mut at = object.node(parent).relation.clone();
    let mut steps = Vec::with_capacity(edge.steps.len());
    for step in &edge.steps {
        let t = step.resolve(schema)?;
        if t.source() != at {
            return Err(Error::InvalidPlan(format!(
                "edge step over {} starts at {}, but the path is at {at}",
                step.connection,
                t.source()
            )));
        }
        let source_indices = db.table(&at)?.schema().indices_of(t.source_attrs())?;
        let target_schema = db.table(t.target())?.schema();
        let target_indices = target_schema.indices_of(t.target_attrs())?;
        steps.push(StepPlan {
            source: at.clone(),
            target: t.target().to_owned(),
            source_indices,
            target_attrs: t.target_attrs().to_vec(),
            target_keyed: target_schema.leads_key_at(&target_indices),
            target_indices,
        });
        at = t.target().to_owned();
    }
    if at != node.relation {
        return Err(Error::InvalidPlan(format!(
            "edge into node {child} ends at {at}, expected {}",
            node.relation
        )));
    }
    Ok(EdgePlan {
        parent,
        child,
        steps,
        terminal: node.relation.clone(),
    })
}

/// Execute one prepared step over a whole frontier: each input is a
/// `(origin, tuple)` pair, and every match inherits its input's origin.
/// The access path is the one [`Table::index_at`] chooses for the target's
/// connecting attributes — the primary index when they are the target's
/// key, a range of it when they lead the key, else a secondary index —
/// and each probe is one lookup that borrows its values from the input
/// tuple; where there is none, ONE hash table is built over the target
/// and probed for every input — never a per-input scan. NULL never
/// connects (Definition 2.1). Returns the matches and the access path's
/// label; the step's `core.probe_step` span records both.
fn probe_step(
    step: &StepPlan,
    db: &Database,
    inputs: &[(usize, &Tuple)],
) -> Result<(Vec<(usize, Tuple)>, &'static str)> {
    let mut sp = trace::span("core.probe_step");
    let target = db.table(&step.target)?;
    let mut out = Vec::new();
    let access = if let Some(mut index) = target.index_at(&step.target_indices) {
        // Counter bumps are aggregated locally and recorded once per
        // frontier pass: one relaxed RMW per pass, not one per input tuple.
        let mut probes = 0u64;
        for &(origin, tuple) in inputs {
            let probed = index.visit(tuple, &step.source_indices, |m| {
                out.push((origin, m.clone()));
            });
            probes += u64::from(probed);
        }
        if probes > 0 {
            vo_relational::stats::count_index_probes(probes);
        }
        index.label()
    } else {
        let groups = target.group_by_indices(&step.target_indices);
        let mut buf = Vec::new();
        for &(origin, tuple) in inputs {
            let matches = (tuple.connecting(&step.source_indices, &mut buf))
                .and_then(|vals| groups.get(vals));
            out.extend(
                matches
                    .into_iter()
                    .flatten()
                    .map(|m| (origin, (*m).clone())),
            );
        }
        "hash build (scan)"
    };
    if !out.is_empty() {
        vo_relational::stats::count_join_rows(out.len() as u64);
    }
    if sp.is_recording() {
        sp.field(
            "label",
            Json::str(format!("Step[{} -> {}]", step.source, step.target)),
        );
        sp.field("source", Json::str(step.source.clone()));
        sp.field("target", Json::str(step.target.clone()));
        sp.field("access", Json::str(access));
        sp.field("rows_in", Json::Int(inputs.len() as i64));
        sp.field("rows_out", Json::Int(out.len() as i64));
    }
    Ok((out, access))
}

/// Follow a prepared edge for every parent tuple at once, one join pass
/// per step over the whole frontier: `(parent position, terminal)` pairs
/// in parent-major order, each parent's terminals deduplicated by key in
/// first-seen order — exactly what [`follow_edge`] returns per parent.
/// The edge's `core.follow_edge` span labels it `Edge[<parent> -> <child>]`
/// with its rows and the access path its steps took (`mixed` when they
/// differ); each step's `core.probe_step` span nests under it.
fn follow_edge_flat(
    plan: &EdgePlan,
    db: &Database,
    parents: &[&Tuple],
) -> Result<Vec<(usize, Tuple)>> {
    if plan.steps.is_empty() {
        return Err(Error::InvalidPlan("edge plan without steps".into()));
    }
    let mut sp = trace::span("core.follow_edge");
    let mut frontier: Vec<(usize, Tuple)> = Vec::new();
    let mut access = "";
    for (i, step) in plan.steps.iter().enumerate() {
        let inputs: Vec<(usize, &Tuple)> = if i == 0 {
            parents.iter().copied().enumerate().collect()
        } else {
            frontier.iter().map(|(o, t)| (*o, t)).collect()
        };
        let step_access;
        (frontier, step_access) = probe_step(step, db, &inputs)?;
        access = if i == 0 || access == step_access {
            step_access
        } else {
            "mixed"
        };
    }
    // One probe of one index, or one hash group, per parent: a one-step
    // edge cannot reach a row twice. A contracted edge can reach one
    // terminal along several paths.
    if plan.steps.len() > 1 {
        let term_schema = db.table(&plan.terminal)?.schema();
        let mut seen = std::collections::BTreeSet::new();
        frontier.retain(|(origin, t)| seen.insert((*origin, t.key(term_schema))));
    }
    if sp.is_recording() {
        let parent = &plan.steps[0].source;
        sp.field(
            "label",
            Json::str(format!("Edge[{parent} -> {}]", plan.terminal)),
        );
        sp.field("access", Json::str(access));
        sp.field("rows_in", Json::Int(parents.len() as i64));
        sp.field("rows_out", Json::Int(frontier.len() as i64));
    }
    Ok(frontier)
}

/// Every edge of an object resolved into [`EdgePlan`]s, stamped with the
/// database structure epoch it was prepared against. A plan prepared at
/// epoch `e` stays valid through any number of tuple-level updates; any
/// structural change (relation created/dropped, index created, a table
/// borrowed mutably) moves the epoch and invalidates it.
#[derive(Debug, Clone)]
pub struct ObjectPlan {
    object: String,
    /// One plan per non-root node; position `id - 1` holds node `id`'s.
    edges: Vec<EdgePlan>,
    epoch: u64,
}

impl ObjectPlan {
    /// Name of the object this plan was prepared for.
    pub fn object(&self) -> &str {
        &self.object
    }

    /// The structure epoch the plan was prepared at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True when the plan was prepared at `db`'s current structure epoch.
    pub fn is_current(&self, db: &Database) -> bool {
        self.epoch == db.structure_epoch()
    }

    /// The prepared edge into node `child`.
    pub fn edge(&self, child: NodeId) -> Result<&EdgePlan> {
        self.edges
            .get(child.wrapping_sub(1))
            .filter(|e| e.child == child)
            .ok_or_else(|| Error::InvalidPlan(format!("no edge plan for node {child}")))
    }

    /// All `(relation, attrs)` pairs the plan wants indexed, deduplicated.
    pub fn required_indexes(&self) -> Vec<(String, Vec<String>)> {
        let mut set = std::collections::BTreeSet::new();
        for e in &self.edges {
            for (rel, attrs) in e.required_indexes() {
                set.insert((rel.to_owned(), attrs.to_vec()));
            }
        }
        set.into_iter().collect()
    }
}

/// Prepare every edge of `object` against `db`'s current structure.
pub fn plan_object(
    schema: &StructuralSchema,
    object: &ViewObject,
    db: &Database,
) -> Result<ObjectPlan> {
    let mut edges = Vec::with_capacity(object.nodes().len().saturating_sub(1));
    for node in object.nodes().iter().skip(1) {
        edges.push(plan_edge(schema, object, db, node.id)?);
    }
    Ok(ObjectPlan {
        object: object.name().to_owned(),
        edges,
        epoch: db.structure_epoch(),
    })
}

/// Instantiate the object for every pivot in `pivots` using a prepared
/// plan: one batched join pass per edge step over the whole frontier
/// (set-at-a-time), instead of re-resolving and re-probing per tuple.
/// Instances come back in pivot order and are node-for-node identical to
/// per-tuple [`assemble`].
///
/// The call's `core.instantiate` span (`Instantiate(<object>)`, pivots in,
/// instances out) holds one `core.follow_edge` span per object edge in
/// instantiation order, each holding one `core.probe_step` span per step;
/// [`vo_obs::profile::ProfileNode::from_spans`] renders a capture of them
/// as the instantiation's profile (`Penguin::profile`).
pub fn instantiate_many_planned(
    object: &ViewObject,
    db: &Database,
    plan: &ObjectPlan,
    pivots: &[&Tuple],
) -> Result<Vec<VoInstance>> {
    if plan.object != object.name() {
        return Err(Error::InvalidPlan(format!(
            "plan prepared for object {}, used with {}",
            plan.object,
            object.name()
        )));
    }
    let mut sp = trace::span("core.instantiate");
    let n = object.nodes().len();
    // rows[id]: every tuple bound at node id across all instances, in
    // parent-major order; parent_row[id][k]: index into rows[parent] of
    // row k's parent.
    let mut rows: Vec<Vec<Tuple>> = vec![Vec::new(); n];
    let mut parent_row: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut parent_of: Vec<NodeId> = vec![0; n];
    rows[0] = pivots.iter().map(|t| (*t).clone()).collect();
    let order = object.preorder();
    for &id in order.iter().skip(1) {
        let eplan = plan.edge(id)?;
        parent_of[id] = eplan.parent;
        let parent_refs: Vec<&Tuple> = rows[eplan.parent].iter().collect();
        let terminals = follow_edge_flat(eplan, db, &parent_refs)?;
        (parent_row[id], rows[id]) = terminals.into_iter().unzip();
    }
    // Cut every node's rows into per-pivot runs: parent-major order keeps
    // each pivot's rows contiguous at every node, so starts[id][i] — where
    // pivot i's run begins in rows[id] — is found by one merge against the
    // parent's starts.
    let mut starts: Vec<Vec<usize>> = vec![Vec::new(); n];
    starts[0] = (0..=pivots.len()).collect();
    for &id in order.iter().skip(1) {
        let (rows_of, mut k) = (&parent_row[id], 0);
        starts[id] = (starts[parent_of[id]].iter())
            .map(|&first| {
                k += rows_of[k..].partition_point(|&p| p < first);
                k
            })
            .collect();
    }
    // Move each run into its instance: groups by ascending node id, parent
    // positions relative to the parent's run.
    let mut rows: Vec<std::vec::IntoIter<Tuple>> = rows.into_iter().map(Vec::into_iter).collect();
    let mut instances = Vec::with_capacity(pivots.len());
    for i in 0..pivots.len() {
        let run = |id: usize| starts[id][i]..starts[id][i + 1];
        let mut bound = Vec::with_capacity((1..n).map(|id| run(id).len()).sum());
        for id in 1..n {
            let parent = parent_of[id];
            let base = starts[parent][i];
            for k in run(id) {
                bound.push(VoInstanceNode {
                    node: id,
                    parent,
                    parent_pos: parent_row[id][k] - base,
                    tuple: rows[id].next().expect("one row per position of the run"),
                });
            }
        }
        let pivot = rows[0].next().expect("one row per pivot");
        instances.push(VoInstance {
            object: object.shared_name().clone(),
            root: VoInstanceNode::pivot(pivot),
            bound,
        });
    }
    vo_relational::stats::count_instances_built(instances.len() as u64);
    if sp.is_recording() {
        sp.field(
            "label",
            Json::str(format!("Instantiate({})", object.name())),
        );
        sp.field("object", Json::str(object.name()));
        sp.field("rows_in", Json::Int(pivots.len() as i64));
        sp.field("rows_out", Json::Int(instances.len() as i64));
    }
    Ok(instances)
}

// The net server shares plans and the instances they build across its
// worker threads; pin their thread-safety at compile time.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<ObjectPlan>();
    send_sync::<EdgePlan>();
    send_sync::<VoInstance>();
};

/// Plan and batch-instantiate in one call.
pub fn instantiate_many(
    schema: &StructuralSchema,
    object: &ViewObject,
    db: &Database,
    pivots: &[&Tuple],
) -> Result<Vec<VoInstance>> {
    let plan = plan_object(schema, object, db)?;
    instantiate_many_planned(object, db, &plan, pivots)
}

/// Assemble every instance of `object` (one per pivot tuple), batched:
/// edges are planned once and each edge step joins the whole frontier in
/// one pass. Pivot tuples are borrowed from the table scan and cloned
/// only into their instances.
pub fn instantiate_all(
    schema: &StructuralSchema,
    object: &ViewObject,
    db: &Database,
) -> Result<Vec<VoInstance>> {
    let plan = plan_object(schema, object, db)?;
    let pivots: Vec<&Tuple> = db.table(object.pivot())?.scan().collect();
    instantiate_many_planned(object, db, &plan, &pivots)
}

/// The original tuple-at-a-time instantiation: one [`assemble`] per pivot
/// tuple. Kept as the semantic oracle for the batched engine and as the
/// baseline the experiments compare against.
pub fn instantiate_all_legacy(
    schema: &StructuralSchema,
    object: &ViewObject,
    db: &Database,
) -> Result<Vec<VoInstance>> {
    db.table(object.pivot())?
        .scan()
        .map(|t| assemble(schema, object, db, t.clone()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::treegen::{generate_omega, generate_omega_prime};
    use crate::university::university_database;
    use vo_obs::profile::ProfileNode;

    #[test]
    fn assembles_cs345_instance() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let courses = db.table("COURSES").unwrap();
        let t = courses.get(&Key::single("CS345")).unwrap().clone();
        let inst = assemble(&schema, &omega, &db, t).unwrap();
        assert_eq!(inst.key(&schema, &omega).unwrap(), Key::single("CS345"));
        // children: 1 department, 2 curriculum rows, 3 grades, 3 students
        let dep = omega
            .nodes()
            .iter()
            .find(|n| n.relation == "DEPARTMENT")
            .unwrap()
            .id;
        let cur = omega
            .nodes()
            .iter()
            .find(|n| n.relation == "CURRICULUM")
            .unwrap()
            .id;
        let gra = omega
            .nodes()
            .iter()
            .find(|n| n.relation == "GRADES")
            .unwrap()
            .id;
        let stu = omega
            .nodes()
            .iter()
            .find(|n| n.relation == "STUDENT")
            .unwrap()
            .id;
        assert_eq!(inst.tuples_of(dep).len(), 1);
        assert_eq!(inst.tuples_of(cur).len(), 2);
        assert_eq!(inst.tuples_of(gra).len(), 3);
        assert_eq!(inst.tuples_of(stu).len(), 3);
        assert_eq!(inst.size(), 1 + 1 + 2 + 3 + 3);
    }

    #[test]
    fn multi_step_edge_instantiates_students_directly() {
        let (schema, db) = university_database();
        let op = generate_omega_prime(&schema).unwrap();
        let t = db
            .table("COURSES")
            .unwrap()
            .get(&Key::single("CS345"))
            .unwrap()
            .clone();
        let inst = assemble(&schema, &op, &db, t).unwrap();
        let stu = op
            .nodes()
            .iter()
            .find(|n| n.relation == "STUDENT")
            .unwrap()
            .id;
        // 3 enrolled students, reached through GRADES without a GRADES node
        assert_eq!(inst.tuples_of(stu).len(), 3);
    }

    #[test]
    fn dedups_terminal_tuples_on_contracted_paths() {
        let (schema, mut db) = university_database();
        // give student 1 a second grade row in CS345? impossible (same key);
        // instead: faculty reached via DEPARTMENT→PEOPLE dedups when two
        // people rows share the department — here each person is one row, so
        // count faculty of Computer Science
        let op = generate_omega_prime(&schema).unwrap();
        let fac = op
            .nodes()
            .iter()
            .find(|n| n.relation == "FACULTY")
            .unwrap()
            .id;
        let t = db
            .table("COURSES")
            .unwrap()
            .get(&Key::single("CS345"))
            .unwrap()
            .clone();
        let inst = assemble(&schema, &op, &db, t.clone()).unwrap();
        assert_eq!(inst.tuples_of(fac).len(), 2); // faculty 20 and 21

        // an extra CS course does not change the faculty set for CS345
        db.insert(
            "COURSES",
            vec![
                "CS999".into(),
                "X".into(),
                "graduate".into(),
                "Computer Science".into(),
            ],
        )
        .unwrap();
        let inst2 = assemble(&schema, &op, &db, t).unwrap();
        assert_eq!(inst2.tuples_of(fac).len(), 2);
    }

    #[test]
    fn null_links_yield_no_children() {
        let (schema, mut db) = university_database();
        db.insert(
            "COURSES",
            vec![
                "X1".into(),
                "Detached".into(),
                "graduate".into(),
                Value::Null,
            ],
        )
        .unwrap();
        let omega = generate_omega(&schema).unwrap();
        let t = db
            .table("COURSES")
            .unwrap()
            .get(&Key::single("X1"))
            .unwrap()
            .clone();
        let inst = assemble(&schema, &omega, &db, t).unwrap();
        let dep = omega
            .nodes()
            .iter()
            .find(|n| n.relation == "DEPARTMENT")
            .unwrap()
            .id;
        assert!(inst.tuples_of(dep).is_empty());
    }

    #[test]
    fn instantiate_all_yields_one_per_pivot_tuple() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let all = instantiate_all(&schema, &omega, &db).unwrap();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn follow_edge_rejects_non_child_node() {
        // regression: this used to be a debug_assert, i.e. silently wrong
        // answers in release builds when parent/child are not adjacent
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let stu = omega
            .nodes()
            .iter()
            .find(|n| n.relation == "STUDENT")
            .unwrap()
            .id;
        let t = db
            .table("COURSES")
            .unwrap()
            .get(&Key::single("CS345"))
            .unwrap()
            .clone();
        // STUDENT's parent is GRADES, not the pivot
        let err = follow_edge(&schema, &omega, &db, 0, stu, &t).unwrap_err();
        assert!(matches!(err, Error::InvalidPlan(_)), "got {err}");
        // and the pivot itself has no edge at all
        let err = follow_edge(&schema, &omega, &db, 0, 0, &t).unwrap_err();
        assert!(matches!(err, Error::InvalidPlan(_)));
    }

    #[test]
    fn batched_matches_legacy_on_university() {
        let (schema, mut db) = university_database();
        // add a NULL-linked and a dangling pivot so both paths must agree
        // on the edge cases too
        db.insert(
            "COURSES",
            vec![
                "X1".into(),
                "Detached".into(),
                "graduate".into(),
                Value::Null,
            ],
        )
        .unwrap();
        for object in [
            generate_omega(&schema).unwrap(),
            generate_omega_prime(&schema).unwrap(),
        ] {
            let legacy = instantiate_all_legacy(&schema, &object, &db).unwrap();
            let batched = instantiate_all(&schema, &object, &db).unwrap();
            assert_eq!(legacy, batched, "object {}", object.name());
        }
    }

    #[test]
    fn batched_is_equivalent_with_and_without_indexes() {
        let (schema, mut db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let bare = instantiate_all(&schema, &omega, &db).unwrap();
        let plan = plan_object(&schema, &omega, &db).unwrap();
        for (rel, attrs) in plan.required_indexes() {
            assert!(db.ensure_index(&rel, &attrs).unwrap());
        }
        let indexed = instantiate_all(&schema, &omega, &db).unwrap();
        assert_eq!(bare, indexed);
    }

    #[test]
    fn object_plan_tracks_structure_epoch() {
        let (schema, mut db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let plan = plan_object(&schema, &omega, &db).unwrap();
        assert!(plan.is_current(&db));
        // data changes keep the plan valid
        db.insert(
            "COURSES",
            vec!["Z9".into(), "T".into(), "graduate".into(), Value::Null],
        )
        .unwrap();
        assert!(plan.is_current(&db));
        // an index build invalidates it
        db.ensure_index("GRADES", &["course_id".to_string()])
            .unwrap();
        assert!(!plan.is_current(&db));
    }

    #[test]
    fn plan_reports_required_indexes() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let plan = plan_object(&schema, &omega, &db).unwrap();
        // an edge that arrives at a later part of a key, or off it, wants an
        // index: CURRICULUM(degree, course_id) is reached by its second key
        // attribute. DEPARTMENT(dept_name) and STUDENT(ssn) are reached by
        // their primary keys, GRADES(course_id, ssn) by the attribute that
        // leads its key, and want none
        let names = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            plan.required_indexes(),
            vec![("CURRICULUM".to_string(), names(&["course_id"]))]
        );
        let keyed: std::collections::BTreeSet<&str> = (1..omega.nodes().len())
            .flat_map(|id| &plan.edge(id).unwrap().steps)
            .filter(|s| s.target_keyed)
            .map(|s| s.target.as_str())
            .collect();
        assert_eq!(keyed, ["DEPARTMENT", "GRADES", "STUDENT"].into());
    }

    /// The instances and the profile their spans render (what
    /// `Penguin::profile` shows).
    fn profiled(
        omega: &ViewObject,
        db: &Database,
        plan: &ObjectPlan,
        pivots: &[&Tuple],
    ) -> (Vec<VoInstance>, ProfileNode) {
        let (instances, taken) =
            trace::capture(|| instantiate_many_planned(omega, db, plan, pivots));
        (
            instances.unwrap(),
            ProfileNode::from_spans(&taken.spans).unwrap(),
        )
    }

    #[test]
    fn profile_of_a_capture_matches_planned_and_labels_access() {
        let (schema, mut db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let plan = plan_object(&schema, &omega, &db).unwrap();
        {
            let pivots: Vec<&Tuple> = db.table("COURSES").unwrap().scan().collect();
            let plain = instantiate_many_planned(&omega, &db, &plan, &pivots).unwrap();
            let (profiled, prof) = profiled(&omega, &db, &plan, &pivots);
            assert_eq!(plain, profiled);
            assert!(prof.label.contains("Instantiate(omega)"), "{}", prof.label);
            assert_eq!(prof.rows_in, 3);
            assert_eq!(prof.rows_out, 3);
            // one child per non-root object node, each with >= 1 step
            assert_eq!(prof.children.len(), omega.nodes().len() - 1);
            assert!(prof.children.iter().all(|e| !e.children.is_empty()));
            // without secondary indexes a step hash-builds over a scan
            // unless it arrives at its target's primary key or at what
            // leads it: an owner's GRADES are one run of GRADES' key order
            for (edge, access) in [
                ("Edge[COURSES -> GRADES]", "key range"),
                ("Edge[COURSES -> CURRICULUM]", "hash build (scan)"),
                ("Edge[COURSES -> DEPARTMENT]", "index probe"),
                ("Edge[GRADES -> STUDENT]", "index probe"),
            ] {
                assert_eq!(prof.find(edge).unwrap().access_path, access, "{edge}");
            }
        }
        // index every edge target and re-plan: all steps become probes
        for (rel, attrs) in plan.required_indexes() {
            db.ensure_index(&rel, &attrs).unwrap();
        }
        let plan = plan_object(&schema, &omega, &db).unwrap();
        let pivots: Vec<&Tuple> = db.table("COURSES").unwrap().scan().collect();
        let (_, prof) = profiled(&omega, &db, &plan, &pivots);
        assert!(
            !prof.any(&|n| n.access_path.contains("scan")),
            "{}",
            prof.render()
        );
        let curriculum = prof.find("Edge[COURSES -> CURRICULUM]").unwrap();
        assert_eq!(curriculum.access_path, "index probe");
        // the index changes nothing for an edge the key order answers
        let grades = prof.find("Edge[COURSES -> GRADES]").unwrap();
        assert_eq!(grades.access_path, "key range");
        assert_eq!(grades.rows_out, 17); // all GRADES rows bind across the 3 pivots
    }

    #[test]
    fn a_contracted_edge_profiles_each_of_its_steps() {
        let (schema, db) = university_database();
        let omega = generate_omega_prime(&schema).unwrap();
        let plan = plan_object(&schema, &omega, &db).unwrap();
        let pivots: Vec<&Tuple> = db.table(omega.pivot()).unwrap().scan().collect();
        let (_, prof) = profiled(&omega, &db, &plan, &pivots);
        let contracted = prof
            .children
            .iter()
            .find(|e| e.children.len() > 1)
            .expect("omega' has a two-step edge");
        let steps: Vec<&str> = contracted
            .children
            .iter()
            .map(|s| s.access_path.as_str())
            .collect();
        let mut distinct = steps.clone();
        distinct.dedup();
        let want = if distinct.len() == 1 {
            distinct[0]
        } else {
            "mixed"
        };
        assert_eq!(contracted.access_path, want, "{}", prof.render());
        assert_eq!(contracted.rows_in, contracted.children[0].rows_in);
    }

    #[test]
    fn instantiation_records_spans_for_the_call_its_edges_and_steps() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let spans = trace::capture(|| instantiate_all(&schema, &omega, &db).unwrap())
            .1
            .spans;
        let inst = spans
            .iter()
            .find(|e| e.name == "core.instantiate")
            .expect("instantiate span recorded");
        assert_eq!(inst.field("object").unwrap(), &Json::str("omega"));
        assert_eq!(inst.field("rows_out").unwrap(), &Json::Int(3));
        let edges: Vec<_> = (spans.iter())
            .filter(|e| e.name == "core.follow_edge")
            .collect();
        assert_eq!(edges.len(), omega.nodes().len() - 1);
        assert!(edges.iter().all(|e| e.parent == Some(inst.id)));
        let probes: Vec<_> = spans
            .iter()
            .filter(|e| e.name == "core.probe_step")
            .collect();
        assert_eq!(probes.len(), 4); // one batched step per edge
        for p in probes {
            // no secondary index exists: only the steps that arrive at a
            // primary key, or at what leads one, probe
            let access = match p.field("target").unwrap().as_str().unwrap() {
                "DEPARTMENT" | "STUDENT" => "index probe",
                "GRADES" => "key range",
                _ => "hash build (scan)",
            };
            assert_eq!(p.field("access").unwrap(), &Json::str(access));
        }
    }

    #[test]
    fn display_matches_figure_4_shape() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let t = db
            .table("COURSES")
            .unwrap()
            .get(&Key::single("CS345"))
            .unwrap()
            .clone();
        let inst = assemble(&schema, &omega, &db, t).unwrap();
        let s = inst.to_display_string(&schema, &omega).unwrap();
        assert!(s.starts_with("(COURSES: course_id='CS345'"));
        assert!(s.contains("(DEPARTMENT: dept_name='Computer Science')"));
        assert!(s.contains("(GRADES:"));
        assert!(s.contains("(STUDENT:"));
    }

    #[test]
    fn manual_instance_construction() {
        let (schema, db) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let courses = db.table("COURSES").unwrap().schema().clone();
        let t = Tuple::new(
            &courses,
            vec!["NEW1".into(), "T".into(), "graduate".into(), Value::Null],
        )
        .unwrap();
        let gra = omega
            .nodes()
            .iter()
            .find(|n| n.relation == "GRADES")
            .unwrap()
            .id;
        let grades = db.table("GRADES").unwrap().schema().clone();
        let mut b = VoInstance::builder(&omega, t);
        b.push(
            0,
            gra,
            Tuple::new(&grades, vec!["NEW1".into(), 1.into(), "A".into()]).unwrap(),
        );
        let inst = b.finish();
        assert_eq!(inst.size(), 2);
        assert_eq!(inst.tuples_of(gra).len(), 1);
        assert_eq!(inst.tuples_of(gra)[0].parent, 0);
        assert!(Arc::ptr_eq(&inst.object, omega.shared_name()));
    }
}
