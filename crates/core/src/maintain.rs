//! Incremental maintenance of materialized view-object instances from the
//! commit journal.
//!
//! A [`MaterializedView`] holds every instance of one view object, keyed
//! by pivot key, and nothing else: it keeps no record of what each
//! instantiation traversed. Every journal entry carries, for each key its
//! transaction wrote, the row the table held before and the row it holds
//! after ([`RowImage`]). A refresh reads those images through the view's
//! own journal cursor and works from them and the current database alone:
//!
//! - Images of relations the object never traverses are skipped outright.
//! - A same-key change that leaves every connecting attribute alone cannot
//!   move any instance's membership. The new row is **patched in place**
//!   into the instances a reverse walk from it reaches (below). A row of an
//!   intermediate relation is bound by no instance, so such a change of
//!   one touches nothing.
//! - Every other image dirties pivots. A pivot-relation row dirties its own
//!   key. Every pre-image and post-image is walked *in reverse* over the
//!   current state, step by step up the object's edges to the pivot
//!   relation (probing the indexes [`reverse_indexes_for`] provisions), and
//!   every pivot reached is dirty. Dirty pivots are recomputed in one batch
//!   through the planned instantiation engine — the code full
//!   instantiation runs, which is what makes refreshed instances
//!   byte-identical to re-instantiation.
//!
//! **Why the walks find every changed instance.** An instance changes only
//! if a tuple on one of its paths from the pivot — in the old state or the
//! new — was written. Take the first written tuple along such a path. Its
//! ancestors on the path were not written, so they are present now with
//! the values they had. The reverse walk from that tuple's pre-image (on an
//! old path) or post-image (on a new path) therefore retraces the path to
//! the pivot. When the first written tuple is the pivot itself, its own
//! image dirties it. Over several transactions the first transaction's
//! pre-image and the last one's post-image are among the images walked.
//!
//! Refresh cost is therefore proportional to the delta (images × the
//! probes of their walks), not to the number of instances. A refresh falls
//! back to a full rebuild only when the structure epoch drifted (DDL, or a
//! table borrowed mutably behind the journal's back) or a prior
//! incremental attempt failed midway. The cursor never misses an entry:
//! the journal keeps every transaction until each cursor has passed it.
//!
//! A view plans nothing: the object's [`ObjectPlan`] is definition-time
//! state of whoever registered the object, handed to [`MaterializedView::build`]
//! and to every [`MaterializedView::refresh`], and must be current for the
//! database it is used with.
//!
//! **Reads from the materialization.** The instances sit behind an `Arc`.
//! [`MaterializedView::current`] hands them out only while they reflect
//! the database exactly — the condition under which a refresh would be a
//! no-op — so a reader that holds them reads what re-instantiation would
//! build. A refresh writes through [`Arc::make_mut`]: a set some reader
//! still holds is copied first (counted as `maintain.view_copies`), and
//! the reader keeps the version it took.

use crate::instance::{instantiate_many_planned, ObjectPlan, StepPlan, VoInstance};
use crate::object::ViewObject;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};
use vo_obs::metrics::{self, Counter, Histogram};
use vo_obs::trace;
use vo_relational::prelude::*;

fn refreshes() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("maintain.refreshes"))
}

fn full_rebuilds() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("maintain.full_rebuilds"))
}

fn instances_patched() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("maintain.instances_patched"))
}

fn instances_rebuilt() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("maintain.instances_rebuilt"))
}

/// Refreshes that copied their instance set before writing it, because a
/// reader still held the set [`MaterializedView::current`] handed out.
fn view_copies() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("maintain.view_copies"))
}

fn journal_lag() -> Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    *H.get_or_init(|| metrics::histogram("maintain.journal_lag"))
}

/// How one refresh changed one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeKind {
    /// The instance appeared (its pivot tuple was inserted).
    Inserted,
    /// The instance disappeared (its pivot tuple was deleted).
    Removed,
    /// The instance's content changed.
    Updated,
}

/// One instance-level change produced by a refresh, for `watch`
/// subscribers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceChange {
    /// Pivot key of the affected instance.
    pub pivot: Key,
    /// What happened to it.
    pub kind: ChangeKind,
}

/// What one [`MaterializedView::refresh`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RefreshOutcome {
    /// Committed transactions consumed from the journal.
    pub transactions: u64,
    /// Total ops across those transactions.
    pub ops: u64,
    /// True when the refresh fell back to re-instantiating every pivot
    /// (epoch drift or a failed prior incremental pass).
    pub full_rebuild: bool,
    /// Instances updated by in-place tuple patches (no recomputation).
    pub patched: u64,
    /// Instances recomputed through the instantiation engine.
    pub rebuilt: u64,
    /// Per-instance changes, in pivot-key order.
    pub changes: Vec<InstanceChange>,
}

/// Every instance of one materialized object by pivot key, in key order
/// (matching [`crate::instance::instantiate_all`], which scans the pivot
/// table in key order).
pub type ViewInstances = BTreeMap<Key, VoInstance>;

/// The set a refresh is about to write: `instances` itself, or a copy of
/// it when a reader still holds it.
fn written(instances: &mut Arc<ViewInstances>) -> &mut ViewInstances {
    if Arc::get_mut(instances).is_none() {
        view_copies().inc();
    }
    Arc::make_mut(instances)
}

/// Every instance of one view object, maintained incrementally from the
/// commit journal. See the module docs for the algorithm.
#[derive(Debug, Clone)]
pub struct MaterializedView {
    object: ViewObject,
    /// The structure epoch of the plan the instances were last built or
    /// refreshed with; a later one forces a full rebuild.
    epoch: u64,
    cursor: JournalCursor,
    /// Pivot key → instance, shared with the readers
    /// [`MaterializedView::current`] handed it to.
    instances: Arc<ViewInstances>,
    /// Relations bound as object *nodes*: the only ones whose rows an
    /// instance holds, and so the only ones a patch can reach.
    node_rels: BTreeSet<String>,
    /// Per step source and target relation, the union of attribute
    /// positions any edge step uses to connect through it. A same-key
    /// change leaving these positions unchanged cannot alter instance
    /// membership. Images of a relation neither here nor the pivot's are
    /// skipped.
    connecting: BTreeMap<String, Vec<usize>>,
    /// Forced full rebuild on next refresh (set when an incremental pass
    /// fails partway, leaving instances half-patched).
    needs_full: bool,
}

impl MaterializedView {
    /// Materialize `object` against the current database state through
    /// `plan`, its access plan prepared at `db`'s structure epoch. `cursor`
    /// must be a journal cursor subscribed no later than `db`'s state —
    /// typically just before this call; entries already reflected in the
    /// database are harmless to replay, but entries committed *after*
    /// build must all reach the cursor.
    pub fn build(
        object: ViewObject,
        plan: &ObjectPlan,
        db: &Database,
        cursor: JournalCursor,
    ) -> Result<MaterializedView> {
        let mut connecting: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
        for node in object.nodes().iter().skip(1) {
            for step in &plan.edge(node.id)?.steps {
                connecting
                    .entry(step.source.clone())
                    .or_default()
                    .extend(step.source_indices.iter().copied());
                connecting
                    .entry(step.target.clone())
                    .or_default()
                    .extend(step.target_indices.iter().copied());
            }
        }
        let node_rels = object.relations().iter().map(|r| (*r).to_owned()).collect();
        let mut view = MaterializedView {
            object,
            epoch: plan.epoch(),
            cursor,
            instances: Arc::default(),
            node_rels,
            connecting: connecting
                .into_iter()
                .map(|(r, s)| (r, s.into_iter().collect()))
                .collect(),
            needs_full: false,
        };
        view.rebuild_full(plan, db)?;
        Ok(view)
    }

    /// The view's object.
    pub fn object(&self) -> &ViewObject {
        &self.object
    }

    /// The journal cursor feeding this view.
    pub fn cursor(&self) -> JournalCursor {
        self.cursor
    }

    /// True when the next refresh is forced to rebuild from scratch
    /// (a previous incremental pass failed partway).
    pub fn needs_full(&self) -> bool {
        self.needs_full
    }

    /// Every instance, when the view reflects `db` exactly: no refresh
    /// failed since the last full rebuild, the view was built or refreshed
    /// at `db`'s structure epoch, and its journal cursor has read every
    /// committed transaction. These are the
    /// conditions under which [`MaterializedView::refresh`] would change
    /// nothing, so the set is what re-instantiating the object over `db`
    /// builds. `None` otherwise.
    pub fn current(&self, db: &Database) -> Option<&Arc<ViewInstances>> {
        let caught_up = db.journal_lag(self.cursor).is_ok_and(|lag| lag == 0);
        (!self.needs_full && self.epoch == db.structure_epoch() && caught_up)
            .then_some(&self.instances)
    }

    /// Number of materialized instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True when the pivot relation is empty.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// The instance with pivot key `key`, if present.
    pub fn instance(&self, key: &Key) -> Option<&VoInstance> {
        self.instances.get(key)
    }

    /// All instances in pivot-key order — the same order
    /// [`crate::instance::instantiate_all`] produces (the pivot table
    /// scans in key order).
    pub fn instances(&self) -> impl Iterator<Item = &VoInstance> {
        self.instances.values()
    }

    /// Clone all instances into a vector, in pivot-key order.
    pub fn snapshot(&self) -> Vec<VoInstance> {
        self.instances.values().cloned().collect()
    }

    /// Apply one journal delta (obtained by peeking this view's cursor)
    /// through `plan`, the object's access plan, current for `db`. The
    /// caller advances the cursor after a successful return; on error the
    /// view marks itself for a full rebuild, since instances may be
    /// half-patched.
    pub fn refresh(
        &mut self,
        plan: &ObjectPlan,
        db: &Database,
        read: &[Arc<JournalEntry>],
    ) -> Result<RefreshOutcome> {
        let mut sp = trace::span("maintain.refresh");
        refreshes().inc();
        journal_lag().record(read.len() as u64);
        let mut outcome = RefreshOutcome {
            transactions: read.len() as u64,
            ops: read.iter().map(|t| t.ops.len() as u64).sum(),
            ..RefreshOutcome::default()
        };
        if self.needs_full || self.epoch != plan.epoch() {
            outcome.full_rebuild = true;
            full_rebuilds().inc();
            outcome.changes = self.rebuild_full(plan, db)?;
            outcome.rebuilt = self.instances.len() as u64;
        } else {
            let r = self.apply_incremental(plan, db, read, &mut outcome);
            if r.is_err() {
                // instances may be half-patched; resynchronize from the
                // database on the next refresh
                self.needs_full = true;
                return r.map(|_| outcome);
            }
        }
        instances_patched().add(outcome.patched);
        instances_rebuilt().add(outcome.rebuilt);
        if sp.is_recording() {
            sp.field("object", Json::str(self.object.name()));
            sp.field("transactions", Json::Int(outcome.transactions as i64));
            sp.field("ops", Json::Int(outcome.ops as i64));
            sp.field("patched", Json::Int(outcome.patched as i64));
            sp.field("rebuilt", Json::Int(outcome.rebuilt as i64));
            sp.field("full_rebuild", Json::Bool(outcome.full_rebuild));
        }
        Ok(outcome)
    }

    fn apply_incremental(
        &mut self,
        plan: &ObjectPlan,
        db: &Database,
        read: &[Arc<JournalEntry>],
        outcome: &mut RefreshOutcome,
    ) -> Result<()> {
        let mut dirty: BTreeSet<Key> = BTreeSet::new();
        let mut events: BTreeMap<Key, ChangeKind> = BTreeMap::new();
        let mut patched: BTreeSet<Key> = BTreeSet::new();
        for entry in read {
            for (rel, images) in &entry.images {
                if !self.connecting.contains_key(rel) && rel != self.object.pivot() {
                    continue; // semi-naive: the object never traverses it
                }
                for image in images {
                    if let (Some(before), Some(after)) = (&image.before, &image.after) {
                        if self.connects_alike(rel, before, after) {
                            // an intermediate relation's rows are bound by
                            // no instance: only its connecting values count
                            if before != after && self.node_rels.contains(rel) {
                                for pivot in self.patch(plan, db, rel, after)? {
                                    events.entry(pivot.clone()).or_insert(ChangeKind::Updated);
                                    patched.insert(pivot);
                                }
                            }
                            continue;
                        }
                    }
                    for row in image.before.iter().chain(&image.after) {
                        self.reaching(plan, db, rel, row, &mut dirty)?;
                    }
                }
            }
        }
        // a patched pivot that also went dirty gets recomputed anyway —
        // don't double-count it
        outcome.patched = patched.difference(&dirty).count() as u64;
        outcome.rebuilt = self.recompute(plan, db, &dirty, &mut events)?;
        outcome.changes = events
            .into_iter()
            .map(|(pivot, kind)| InstanceChange { pivot, kind })
            .collect();
        Ok(())
    }

    /// True when `before` and `after`, two rows of `rel`, agree on every
    /// attribute an edge step connects through: no instance's membership
    /// can tell them apart.
    fn connects_alike(&self, rel: &str, before: &Tuple, after: &Tuple) -> bool {
        (self.connecting.get(rel))
            .is_none_or(|positions| positions.iter().all(|&p| before.get(p) == after.get(p)))
    }

    /// Every pivot whose instance can bind `row`, a row of `rel` before or
    /// after the commit, in the current state: its own key when `rel` is
    /// the pivot relation, and every pivot reached by walking edge steps in
    /// reverse from `row` up to the pivot relation.
    fn reaching(
        &self,
        plan: &ObjectPlan,
        db: &Database,
        rel: &str,
        row: &Tuple,
        out: &mut BTreeSet<Key>,
    ) -> Result<()> {
        if rel == self.object.pivot() {
            out.insert(row.key(db.table(rel)?.schema()));
        }
        for node in self.object.nodes().iter().skip(1) {
            let eplan = plan.edge(node.id)?;
            for (i, step) in eplan.steps.iter().enumerate() {
                if step.target != rel {
                    continue;
                }
                let mut frontier = vec![row.clone()];
                for j in (0..=i).rev() {
                    frontier = reverse_step(&eplan.steps[j], db, &frontier)?;
                    if frontier.is_empty() {
                        break;
                    }
                }
                self.pivots_reaching(plan, db, eplan.parent, frontier, out)?;
            }
        }
        Ok(())
    }

    /// Continue a reverse walk: `tuples` are tuples of object node
    /// `node`'s relation; ascend edge by edge to node 0 and record the
    /// pivot keys reached.
    fn pivots_reaching(
        &self,
        plan: &ObjectPlan,
        db: &Database,
        node: usize,
        tuples: Vec<Tuple>,
        dirty: &mut BTreeSet<Key>,
    ) -> Result<()> {
        if tuples.is_empty() {
            return Ok(());
        }
        if node == 0 {
            let schema = db.table(self.object.pivot())?.schema();
            // only pivots that actually exist — a reverse probe can land
            // on any tuple of the pivot relation, which is exactly right
            dirty.extend(tuples.iter().map(|t| t.key(schema)));
            return Ok(());
        }
        let eplan = plan.edge(node)?;
        let mut frontier = tuples;
        for step in eplan.steps.iter().rev() {
            frontier = reverse_step(step, db, &frontier)?;
            if frontier.is_empty() {
                return Ok(());
            }
        }
        self.pivots_reaching(plan, db, eplan.parent, frontier, dirty)
    }

    /// Rewrite `after`, a row of node relation `rel` now, into every
    /// instance that binds its key and that a walk from `after` reaches.
    /// Its connecting values are the ones the instance was built through,
    /// so the walk retraces every path that binds it (see the module
    /// docs). Returns the pivots of the instances rewritten.
    fn patch(
        &mut self,
        plan: &ObjectPlan,
        db: &Database,
        rel: &str,
        after: &Tuple,
    ) -> Result<Vec<Key>> {
        let mut reached = BTreeSet::new();
        self.reaching(plan, db, rel, after, &mut reached)?;
        let rschema = db.table(rel)?.schema();
        let key = after.key(rschema);
        let mut rewritten = Vec::new();
        for pivot in reached {
            if let Some(inst) = written(&mut self.instances).get_mut(&pivot) {
                if patch_tuple(inst, &self.object, rschema, rel, &key, after) {
                    rewritten.push(pivot);
                }
            }
        }
        Ok(rewritten)
    }

    /// Recompute every dirty pivot through the canonical instantiation
    /// engine; a dirty pivot no longer in its table loses its instance.
    /// Returns the number of instances rebuilt.
    fn recompute(
        &mut self,
        plan: &ObjectPlan,
        db: &Database,
        dirty: &BTreeSet<Key>,
        events: &mut BTreeMap<Key, ChangeKind>,
    ) -> Result<u64> {
        if dirty.is_empty() {
            return Ok(0);
        }
        let table = db.table(self.object.pivot())?;
        let instances = written(&mut self.instances);
        let (mut keys, mut rows) = (Vec::new(), Vec::new());
        for key in dirty {
            match table.get(key) {
                Some(row) => {
                    keys.push(key);
                    rows.push(row);
                }
                None => {
                    if instances.remove(key).is_some() {
                        events.insert(key.clone(), ChangeKind::Removed);
                    }
                }
            }
        }
        let insts = instantiate_many_planned(&self.object, db, plan, &rows)?;
        for (&key, inst) in keys.iter().zip(insts) {
            match instances.insert(key.clone(), inst) {
                None => {
                    events.insert(key.clone(), ChangeKind::Inserted);
                }
                Some(ref old) if *old != instances[key] => {
                    events.insert(key.clone(), ChangeKind::Updated);
                }
                Some(_) => {}
            }
        }
        Ok(keys.len() as u64)
    }

    /// Re-instantiate every pivot from scratch and diff against the
    /// previous state for watch events.
    fn rebuild_full(&mut self, plan: &ObjectPlan, db: &Database) -> Result<Vec<InstanceChange>> {
        if !plan.is_current(db) {
            return Err(Error::InvalidPlan(format!(
                "materialized view of {} handed a plan prepared at epoch {}, database at {}",
                self.object.name(),
                plan.epoch(),
                db.structure_epoch()
            )));
        }
        self.epoch = plan.epoch();
        let table = db.table(self.object.pivot())?;
        let rows: Vec<&Tuple> = table.scan().collect();
        let insts = instantiate_many_planned(&self.object, db, plan, &rows)?;
        let keys = rows.iter().map(|row| row.key(table.schema()));
        let fresh = Arc::new(keys.zip(insts).collect());
        // a reader holding the old set keeps it: nothing is copied
        let old = std::mem::replace(&mut self.instances, fresh);
        self.needs_full = false;
        let mut changes = Vec::new();
        for (key, inst) in self.instances.iter() {
            match old.get(key) {
                None => changes.push(InstanceChange {
                    pivot: key.clone(),
                    kind: ChangeKind::Inserted,
                }),
                Some(prev) if prev != inst => changes.push(InstanceChange {
                    pivot: key.clone(),
                    kind: ChangeKind::Updated,
                }),
                Some(_) => {}
            }
        }
        for key in old.keys() {
            if !self.instances.contains_key(key) {
                changes.push(InstanceChange {
                    pivot: key.clone(),
                    kind: ChangeKind::Removed,
                });
            }
        }
        changes.sort_by(|a, b| a.pivot.cmp(&b.pivot));
        Ok(changes)
    }
}

/// The `(relation, attrs)` pairs that should be indexed so the reverse
/// walks of incremental refresh probe instead of scanning: for every edge
/// step, the *source* relation's connecting attributes unless they are its
/// primary key or lead it (forward instantiation already wants the
/// targets', see [`ObjectPlan::required_indexes`]). Callers provision the
/// indexes *before* materializing: index creation moves the structure
/// epoch, and a view is built through a plan current for its database.
pub fn reverse_indexes_for(
    object: &ViewObject,
    plan: &ObjectPlan,
    db: &Database,
) -> Result<Vec<(String, Vec<String>)>> {
    let mut set = BTreeSet::new();
    for node in object.nodes().iter().skip(1) {
        for step in &plan.edge(node.id)?.steps {
            let schema = db.table(&step.source)?.schema();
            if schema.leads_key_at(&step.source_indices) {
                continue; // the primary index answers the reverse probe
            }
            let attrs: Vec<String> = step
                .source_indices
                .iter()
                .map(|&i| schema.attributes()[i].name.clone())
                .collect();
            set.insert((step.source.clone(), attrs));
        }
    }
    Ok(set.into_iter().collect())
}

/// Execute one step *backwards*: given tuples of the step's target
/// relation, find the source-relation tuples whose connecting projection
/// matches. Probes the path [`Table::index_at`] finds over the source's
/// connecting attributes — each probe borrowing its values from the
/// target tuple — when there is one, otherwise builds one hash table over
/// the source. NULL never connects. Results are deduplicated by key.
fn reverse_step(step: &StepPlan, db: &Database, targets: &[Tuple]) -> Result<Vec<Tuple>> {
    let source = db.table(&step.source)?;
    let sschema = source.schema();
    let mut seen: BTreeSet<Key> = BTreeSet::new();
    let mut out = Vec::new();
    let mut keep = |m: &Tuple| {
        if seen.insert(m.key(sschema)) {
            out.push(m.clone());
        }
    };
    if let Some(mut index) = source.index_at(&step.source_indices) {
        for t in targets {
            index.visit(t, &step.target_indices, &mut keep);
        }
    } else {
        let groups = source.group_by_indices(&step.source_indices);
        let mut buf = Vec::new();
        for t in targets {
            let matches =
                (t.connecting(&step.target_indices, &mut buf)).and_then(|vals| groups.get(vals));
            matches.into_iter().flatten().for_each(|m| keep(m));
        }
    }
    Ok(out)
}

/// Rewrite every occurrence of `(rel, key)` in an instance to `new_tuple`.
/// Returns true when at least one tuple was rewritten.
fn patch_tuple(
    inst: &mut VoInstance,
    object: &ViewObject,
    rschema: &RelationSchema,
    rel: &str,
    key: &Key,
    new_tuple: &Tuple,
) -> bool {
    let mut hit = false;
    for node in object.nodes().iter().filter(|node| node.relation == rel) {
        for pos in 0..inst.tuples_of(node.id).len() {
            if inst.tuples_of(node.id)[pos].key(rschema) == *key {
                inst.rewrite(node.id, pos, new_tuple.clone());
                hit = true;
            }
        }
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{instantiate_all, plan_object};
    use crate::treegen::{generate_omega, generate_omega_prime};
    use crate::university::university_database;
    use vo_structural::prelude::*;

    fn tup(db: &Database, rel: &str, values: Vec<Value>) -> Tuple {
        Tuple::new(db.table(rel).unwrap().schema(), values).unwrap()
    }

    fn view_of(
        db: &mut Database,
        generate: fn(&StructuralSchema) -> Result<ViewObject>,
    ) -> (StructuralSchema, MaterializedView) {
        let (schema, _) = university_database();
        let object = generate(&schema).unwrap();
        let plan = plan_object(&schema, &object, db).unwrap();
        let cursor = db.journal_subscribe();
        let view = MaterializedView::build(object, &plan, db, cursor).unwrap();
        (schema, view)
    }

    fn omega_view(db: &mut Database) -> (StructuralSchema, MaterializedView) {
        view_of(db, generate_omega)
    }

    fn refresh(
        view: &mut MaterializedView,
        schema: &StructuralSchema,
        db: &mut Database,
    ) -> RefreshOutcome {
        let read = db.journal_peek(view.cursor()).unwrap();
        let n = read.len();
        let plan = plan_object(schema, view.object(), db).unwrap();
        let outcome = view.refresh(&plan, db, &read).unwrap();
        db.journal_advance(view.cursor(), n).unwrap();
        outcome
    }

    fn assert_equiv(view: &MaterializedView, schema: &StructuralSchema, db: &Database) {
        let full = instantiate_all(schema, view.object(), db).unwrap();
        assert_eq!(view.snapshot(), full, "view diverged from re-instantiation");
    }

    #[test]
    fn build_matches_full_instantiation() {
        let (_, mut db) = university_database();
        let (schema, view) = omega_view(&mut db);
        assert_eq!(view.len(), 3); // CS101, CS345, EE282
        assert_equiv(&view, &schema, &db);
    }

    #[test]
    fn irrelevant_ops_are_skipped() {
        let (_, mut db) = university_database();
        let (schema, mut view) = omega_view(&mut db);
        // ω never traverses STAFF or FACULTY
        db.insert("STAFF", vec![31.into(), "Registrar".into()])
            .unwrap();
        db.insert("FACULTY", vec![22.into(), "Lecturer".into()])
            .unwrap();
        let out = refresh(&mut view, &schema, &mut db);
        assert_eq!(out.transactions, 2);
        assert_eq!(out.patched, 0);
        assert_eq!(out.rebuilt, 0);
        assert!(out.changes.is_empty());
        assert_equiv(&view, &schema, &db);
    }

    #[test]
    fn non_connecting_replace_is_patched_in_place() {
        let (_, mut db) = university_database();
        let (schema, mut view) = omega_view(&mut db);
        // the grade value connects nothing: (course_id, ssn) are the
        // connecting attributes of GRADES
        let new = tup(&db, "GRADES", vec!["CS345".into(), 1.into(), "A+".into()]);
        db.apply(&DbOp::Replace {
            relation: "GRADES".into(),
            old_key: Key::new(vec!["CS345".into(), 1.into()]),
            tuple: new,
        })
        .unwrap();
        let out = refresh(&mut view, &schema, &mut db);
        assert_eq!(out.patched, 1, "grade change should patch, not rebuild");
        assert_eq!(out.rebuilt, 0);
        assert!(!out.full_rebuild);
        assert_eq!(
            out.changes,
            vec![InstanceChange {
                pivot: Key::single("CS345"),
                kind: ChangeKind::Updated,
            }]
        );
        assert_equiv(&view, &schema, &db);
    }

    #[test]
    fn pivot_non_connecting_replace_is_patched() {
        let (_, mut db) = university_database();
        let (schema, mut view) = omega_view(&mut db);
        // title and level don't connect COURSES to anything
        let new = tup(
            &db,
            "COURSES",
            vec![
                "CS345".into(),
                "Advanced Database Systems".into(),
                "graduate".into(),
                "Computer Science".into(),
            ],
        );
        db.apply(&DbOp::Replace {
            relation: "COURSES".into(),
            old_key: Key::single("CS345"),
            tuple: new,
        })
        .unwrap();
        let out = refresh(&mut view, &schema, &mut db);
        assert_eq!(out.patched, 1);
        assert_eq!(out.rebuilt, 0);
        assert_equiv(&view, &schema, &db);
    }

    #[test]
    fn connecting_replace_recomputes() {
        let (_, mut db) = university_database();
        let (schema, mut view) = omega_view(&mut db);
        // moving EE282 to Computer Science changes its DEPARTMENT child
        let new = tup(
            &db,
            "COURSES",
            vec![
                "EE282".into(),
                "Computer Architecture".into(),
                "graduate".into(),
                "Computer Science".into(),
            ],
        );
        db.apply(&DbOp::Replace {
            relation: "COURSES".into(),
            old_key: Key::single("EE282"),
            tuple: new,
        })
        .unwrap();
        let out = refresh(&mut view, &schema, &mut db);
        assert_eq!(out.patched, 0);
        assert_eq!(out.rebuilt, 1);
        assert_equiv(&view, &schema, &db);
    }

    #[test]
    fn insert_dirties_only_reachable_pivots() {
        let (_, mut db) = university_database();
        let (schema, mut view) = omega_view(&mut db);
        // student 9 enrolls in CS101: only CS101's instance changes
        db.insert("GRADES", vec!["CS101".into(), 9.into(), "C".into()])
            .unwrap();
        let out = refresh(&mut view, &schema, &mut db);
        assert_eq!(out.rebuilt, 1);
        assert_eq!(
            out.changes,
            vec![InstanceChange {
                pivot: Key::single("CS101"),
                kind: ChangeKind::Updated,
            }]
        );
        assert_equiv(&view, &schema, &db);
    }

    #[test]
    fn intermediate_rows_refresh_through_their_connecting_attributes_only() {
        let (_, mut db) = university_database();
        let (schema, mut view) = view_of(&mut db, generate_omega_prime);
        // ω′ reaches STUDENT through GRADES, whose rows no instance binds:
        // a grade value changes no instance
        let regrade = tup(&db, "GRADES", vec!["CS345".into(), 1.into(), "A+".into()]);
        db.apply(&DbOp::Replace {
            relation: "GRADES".into(),
            old_key: Key::new(vec!["CS345".into(), 1.into()]),
            tuple: regrade,
        })
        .unwrap();
        let out = refresh(&mut view, &schema, &mut db);
        assert_eq!((out.patched, out.rebuilt), (0, 0));
        assert!(out.changes.is_empty());
        assert_equiv(&view, &schema, &db);
        // dropping the grade drops student 1 from CS345's instance, found by
        // walking the displaced row back to its course
        db.apply(&DbOp::Delete {
            relation: "GRADES".into(),
            key: Key::new(vec!["CS345".into(), 1.into()]),
        })
        .unwrap();
        let out = refresh(&mut view, &schema, &mut db);
        assert_eq!(out.rebuilt, 1);
        assert_eq!(
            out.changes,
            vec![InstanceChange {
                pivot: Key::single("CS345"),
                kind: ChangeKind::Updated,
            }]
        );
        assert_equiv(&view, &schema, &db);
    }

    #[test]
    fn pivot_insert_and_delete_produce_instance_events() {
        let (_, mut db) = university_database();
        let (schema, mut view) = omega_view(&mut db);
        db.insert(
            "COURSES",
            vec![
                "CS229".into(),
                "Machine Learning".into(),
                "graduate".into(),
                "Computer Science".into(),
            ],
        )
        .unwrap();
        let out = refresh(&mut view, &schema, &mut db);
        assert_eq!(view.len(), 4);
        assert!(out.changes.contains(&InstanceChange {
            pivot: Key::single("CS229"),
            kind: ChangeKind::Inserted,
        }));
        assert_equiv(&view, &schema, &db);

        db.apply(&DbOp::Delete {
            relation: "COURSES".into(),
            key: Key::single("CS229"),
        })
        .unwrap();
        let out = refresh(&mut view, &schema, &mut db);
        assert_eq!(view.len(), 3);
        assert_eq!(
            out.changes,
            vec![InstanceChange {
                pivot: Key::single("CS229"),
                kind: ChangeKind::Removed,
            }]
        );
        assert_equiv(&view, &schema, &db);
    }

    #[test]
    fn key_replace_moves_membership() {
        let (_, mut db) = university_database();
        let (schema, mut view) = omega_view(&mut db);
        // re-attribute student 1's CS345 grade to student 4
        let new = tup(&db, "GRADES", vec!["CS345".into(), 4.into(), "B".into()]);
        db.apply(&DbOp::Replace {
            relation: "GRADES".into(),
            old_key: Key::new(vec!["CS345".into(), 1.into()]),
            tuple: new,
        })
        .unwrap();
        let out = refresh(&mut view, &schema, &mut db);
        assert_eq!(out.patched, 0);
        assert_eq!(out.rebuilt, 1);
        assert_equiv(&view, &schema, &db);
    }

    #[test]
    fn shared_node_delete_dirties_every_dependent_pivot() {
        let (_, mut db) = university_database();
        let (schema, mut view) = omega_view(&mut db);
        // student 1 has grades in CS345, CS101, and EE282
        db.apply(&DbOp::Delete {
            relation: "STUDENT".into(),
            key: Key::single(1),
        })
        .unwrap();
        let out = refresh(&mut view, &schema, &mut db);
        assert_eq!(out.rebuilt, 3);
        assert_equiv(&view, &schema, &db);
    }

    #[test]
    fn mixed_transaction_stays_equivalent() {
        let (_, mut db) = university_database();
        let (schema, mut view) = omega_view(&mut db);
        let ops = vec![
            DbOp::Insert {
                relation: "GRADES".into(),
                tuple: tup(&db, "GRADES", vec!["EE282".into(), 7.into(), "B".into()]),
            },
            DbOp::Delete {
                relation: "GRADES".into(),
                key: Key::new(vec!["CS101".into(), 2.into()]),
            },
            DbOp::Replace {
                relation: "STUDENT".into(),
                old_key: Key::single(3),
                tuple: tup(&db, "STUDENT", vec![3.into(), "MBA".into()]),
            },
            DbOp::Insert {
                relation: "CURRICULUM".into(),
                tuple: tup(&db, "CURRICULUM", vec!["MBA".into(), "CS101".into()]),
            },
        ];
        db.apply_all(&ops).unwrap();
        let out = refresh(&mut view, &schema, &mut db);
        assert_eq!(out.transactions, 1);
        assert_eq!(out.ops, 4);
        assert!(!out.full_rebuild);
        assert_equiv(&view, &schema, &db);
    }

    #[test]
    fn empty_read_is_a_noop() {
        let (_, mut db) = university_database();
        let (schema, mut view) = omega_view(&mut db);
        let out = refresh(&mut view, &schema, &mut db);
        assert_eq!(out, RefreshOutcome::default());
        assert_equiv(&view, &schema, &db);
    }

    #[test]
    fn reverse_indexes_list_step_sources() {
        let (_, mut db) = university_database();
        let (schema, view) = omega_view(&mut db);
        let plan = plan_object(&schema, view.object(), &db).unwrap();
        let idx = reverse_indexes_for(view.object(), &plan, &db).unwrap();
        // every ω edge connects out of COURSES or GRADES; the two that
        // leave COURSES by its key (to GRADES, to CURRICULUM) ask for nothing
        assert_eq!(
            idx,
            [
                ("COURSES".to_owned(), vec!["dept_name".to_owned()]),
                ("GRADES".to_owned(), vec!["ssn".to_owned()]),
            ]
        );
    }
}
