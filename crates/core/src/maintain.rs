//! Incremental maintenance of materialized view-object instances from the
//! commit journal.
//!
//! A [`MaterializedView`] holds every instance of one view object, keyed
//! by pivot key, plus a **binding index**: for each `(relation, tuple
//! key)` its instantiation traversed — pivot tuples, node tuples, *and*
//! intermediate step tuples — the set of pivot keys whose instances
//! depend on it. Refreshing translates the committed [`DbOp`] stream
//! (read through the view's own journal cursor) into instance effects,
//! semi-naive style:
//!
//! - Ops on relations the object never traverses are skipped outright.
//! - A same-key `Replace` whose connecting-attribute projections are
//!   unchanged cannot move any instance membership: the new tuple is
//!   **patched in place** wherever the binding index says it appears.
//! - Every other op dirties exactly the pivots whose instances could have
//!   changed: deletes and key replaces through the binding index (the old
//!   traversal), inserts and new tuples by walking the edge steps *in
//!   reverse* from the op's tuple up to the pivot relation (the new
//!   traversal). Dirty pivots are then recomputed in one batch through
//!   the canonical planned instantiation engine — the same code full
//!   instantiation uses, which is what makes refreshed instances
//!   byte-identical to re-instantiation.
//!
//! Refresh cost is therefore proportional to the delta (ops processed ×
//! affected instances), not to the database size. A refresh falls back to
//! a full rebuild only when the structure epoch drifted (DDL, or a table
//! borrowed mutably behind the journal's back), the journal cursor lapsed
//! past evicted entries, or a prior incremental attempt failed midway.
//!
//! A view plans nothing: the object's [`ObjectPlan`] is definition-time
//! state of whoever registered the object, handed to [`MaterializedView::build`]
//! and to every [`MaterializedView::refresh`], and must be current for the
//! database it is used with.

use crate::instance::{instantiate_many_planned, probe_step, ObjectPlan, StepPlan, VoInstance};
use crate::object::ViewObject;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;
use vo_obs::metrics::{self, Counter, Histogram};
use vo_obs::trace;
use vo_relational::database::JournalRead;
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
    /// (epoch drift, lapsed cursor, or a failed prior incremental pass).
    pub full_rebuild: bool,
    /// Instances updated by in-place tuple patches (no recomputation).
    pub patched: u64,
    /// Instances recomputed through the instantiation engine.
    pub rebuilt: u64,
    /// Per-instance changes, in pivot-key order.
    pub changes: Vec<InstanceChange>,
}

/// How far a [`MaterializedView`] trails its database, as a cheap
/// point-in-time probe (no entries are cloned, nothing is refreshed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViewStaleness {
    /// Committed transactions the view has not applied yet.
    pub pending: u64,
    /// Journal entries evicted past the view's cursor — a hole in its
    /// delta stream; the next refresh will rebuild in full.
    pub lapsed: u64,
    /// True when a full rebuild is already forced (failed incremental
    /// pass or structural drift detected earlier).
    pub needs_full: bool,
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
    /// Pivot key → instance, in key order (matching
    /// [`crate::instance::instantiate_all`], which scans the pivot table
    /// in key order).
    instances: BTreeMap<Key, VoInstance>,
    /// relation → tuple key → pivot keys whose traversal visited it.
    bindings: BTreeMap<String, BTreeMap<Key, BTreeSet<Key>>>,
    /// Pivot key → its bindings, for O(per-instance) unbinding.
    per_pivot: BTreeMap<Key, Vec<(String, Key)>>,
    /// Relations whose ops can affect this object (pivot + every step
    /// source and target); ops on any other relation are skipped.
    relevant: BTreeSet<String>,
    /// Relations bound as object *nodes* (patches need the old tuple,
    /// which only node tuples retain inside instances).
    node_rels: BTreeSet<String>,
    /// Per relation, the union of attribute positions any edge step uses
    /// to connect through it. A same-key replace leaving these positions
    /// unchanged cannot alter instance membership.
    connecting: BTreeMap<String, Vec<usize>>,
    /// Forced full rebuild on next refresh (set when an incremental pass
    /// fails partway, leaving instances half-patched).
    needs_full: bool,
}

impl MaterializedView {
    /// Materialize `object` against the current database state through
    /// `plan`, its access plan prepared at `db`'s structure epoch. `cursor`
    /// must be a journal cursor positioned at (or before) the present —
    /// typically subscribed at [`JournalStart::Head`] just before this
    /// call; entries already reflected in the database are harmless to
    /// replay, but entries committed *after* build must all reach the
    /// cursor.
    pub fn build(
        object: ViewObject,
        plan: &ObjectPlan,
        db: &Database,
        cursor: JournalCursor,
    ) -> Result<MaterializedView> {
        let mut relevant = BTreeSet::new();
        let mut connecting: BTreeMap<String, BTreeSet<usize>> = BTreeMap::new();
        relevant.insert(object.pivot().to_owned());
        for node in object.nodes().iter().skip(1) {
            for step in &plan.edge(node.id)?.steps {
                relevant.insert(step.source.clone());
                relevant.insert(step.target.clone());
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
            instances: BTreeMap::new(),
            bindings: BTreeMap::new(),
            per_pivot: BTreeMap::new(),
            relevant,
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

    /// How far the view trails `db`, without touching either: committed
    /// transactions its cursor has not applied, entries evicted past the
    /// cursor, and whether a full rebuild is already forced. The health
    /// monitor polls this per refresh-able view.
    pub fn staleness(&self, db: &Database) -> Result<ViewStaleness> {
        Ok(ViewStaleness {
            pending: db.journal_lag(self.cursor)?,
            lapsed: db.journal_lapsed(self.cursor)?,
            needs_full: self.needs_full,
        })
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
        read: &JournalRead,
    ) -> Result<RefreshOutcome> {
        let mut sp = trace::span("maintain.refresh");
        refreshes().inc();
        journal_lag().record(read.transactions.len() as u64);
        let mut outcome = RefreshOutcome {
            transactions: read.transactions.len() as u64,
            ops: read.op_count() as u64,
            ..RefreshOutcome::default()
        };
        if read.lapsed > 0 || self.needs_full || self.epoch != plan.epoch() {
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
        read: &JournalRead,
        outcome: &mut RefreshOutcome,
    ) -> Result<()> {
        let pivot_rel = self.object.pivot().to_owned();
        let mut dirty: BTreeSet<Key> = BTreeSet::new();
        let mut events: BTreeMap<Key, ChangeKind> = BTreeMap::new();
        let mut patched: BTreeSet<Key> = BTreeSet::new();
        for tx in &read.transactions {
            for op in tx.iter() {
                let rel = op.relation();
                if !self.relevant.contains(rel) {
                    continue; // semi-naive: the object never traverses it
                }
                match op {
                    DbOp::Insert { relation, tuple } => {
                        if *relation == pivot_rel {
                            dirty.insert(tuple.key(db.table(relation)?.schema()));
                        }
                        self.reverse_affected(plan, db, relation, tuple, &mut dirty)?;
                    }
                    DbOp::Delete { relation, key } => {
                        // the old traversal is exactly what the binding
                        // index recorded (pivot tuples self-bind, so a
                        // pivot delete dirties its own instance)
                        self.bound_pivots(relation, key, &mut dirty);
                    }
                    DbOp::Replace {
                        relation,
                        old_key,
                        tuple,
                    } => {
                        let new_key = tuple.key(db.table(relation)?.schema());
                        if *old_key == new_key
                            && self.try_patch(
                                db,
                                relation,
                                &new_key,
                                tuple,
                                &mut events,
                                &mut patched,
                            )?
                        {
                            continue;
                        }
                        // key change or connecting change: delete + insert
                        self.bound_pivots(relation, old_key, &mut dirty);
                        if *relation == pivot_rel {
                            dirty.insert(new_key);
                        }
                        self.reverse_affected(plan, db, relation, tuple, &mut dirty)?;
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

    /// Add every pivot whose last traversal visited `(rel, key)`.
    fn bound_pivots(&self, rel: &str, key: &Key, dirty: &mut BTreeSet<Key>) {
        if let Some(pivots) = self.bindings.get(rel).and_then(|m| m.get(key)) {
            dirty.extend(pivots.iter().cloned());
        }
    }

    /// Walk edge steps in reverse from `tuple` (a tuple of `rel`, in its
    /// post-op state) up to the pivot relation, against the current
    /// database: every pivot reached could traverse `tuple` now, so its
    /// instance must be recomputed.
    fn reverse_affected(
        &self,
        plan: &ObjectPlan,
        db: &Database,
        rel: &str,
        tuple: &Tuple,
        dirty: &mut BTreeSet<Key>,
    ) -> Result<()> {
        for node in self.object.nodes().iter().skip(1) {
            let eplan = plan.edge(node.id)?;
            for (i, step) in eplan.steps.iter().enumerate() {
                if step.target != rel {
                    continue;
                }
                let mut frontier = vec![tuple.clone()];
                for j in (0..=i).rev() {
                    frontier = reverse_step(&eplan.steps[j], db, &frontier)?;
                    if frontier.is_empty() {
                        break;
                    }
                }
                self.pivots_reaching(plan, db, eplan.parent, frontier, dirty)?;
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

    /// Try to apply a same-key replace as in-place tuple patches. Returns
    /// true when the op is fully absorbed: the tuple's connecting
    /// attributes are unchanged, so instance membership cannot move and
    /// every occurrence recorded in the binding index is rewritten
    /// directly. Returns false when the op needs the dirty/recompute path
    /// (unbound tuple, non-node relation, or a connecting change).
    fn try_patch(
        &mut self,
        db: &Database,
        rel: &str,
        key: &Key,
        new_tuple: &Tuple,
        events: &mut BTreeMap<Key, ChangeKind>,
        patched: &mut BTreeSet<Key>,
    ) -> Result<bool> {
        if !self.node_rels.contains(rel) {
            // intermediate-step relations are not stored in instances, so
            // the old tuple (needed for the connecting comparison) is
            // unavailable
            return Ok(false);
        }
        let Some(pivots) = self.bindings.get(rel).and_then(|m| m.get(key)) else {
            // not on any materialized traversal: if the replace changed
            // connecting values it may *become* reachable — let the
            // reverse walk decide
            return Ok(false);
        };
        let pivots: Vec<Key> = pivots.iter().cloned().collect();
        let rschema = db.table(rel)?.schema();
        // the pre-op tuple as the instances currently hold it (patches
        // applied earlier in this refresh included)
        let inst = self.instances.get(&pivots[0]);
        let sample = (self.object.nodes().iter())
            .filter(|node| node.relation == rel)
            .flat_map(|node| inst.map_or(&[][..], |inst| inst.tuples_of(node.id)))
            .find(|bound| bound.key(rschema) == *key)
            .map(|bound| bound.tuple.clone());
        let Some(old) = sample else {
            // binding recorded but tuple not bound in the instance —
            // be conservative
            return Ok(false);
        };
        if let Some(positions) = self.connecting.get(rel) {
            if positions.iter().any(|&p| old.get(p) != new_tuple.get(p)) {
                return Ok(false);
            }
        }
        if old == *new_tuple {
            return Ok(true); // byte-identical: nothing to do
        }
        for pivot in pivots {
            if let Some(inst) = self.instances.get_mut(&pivot) {
                if patch_tuple(inst, &self.object, rschema, rel, key, new_tuple) {
                    patched.insert(pivot.clone());
                    events.entry(pivot).or_insert(ChangeKind::Updated);
                }
            }
        }
        Ok(true)
    }

    /// Recompute every dirty pivot through the canonical instantiation
    /// engine and refresh its bindings. Returns the number of instances
    /// rebuilt.
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
        for k in dirty {
            if let Some(binds) = self.per_pivot.remove(k) {
                for (rel, key) in binds {
                    if let Some(per_rel) = self.bindings.get_mut(&rel) {
                        if let Some(set) = per_rel.get_mut(&key) {
                            set.remove(k);
                            if set.is_empty() {
                                per_rel.remove(&key);
                            }
                        }
                    }
                }
            }
        }
        let table = db.table(self.object.pivot())?;
        let mut present: Vec<(Key, Tuple)> = Vec::new();
        for k in dirty {
            if let Some(t) = table.get(k) {
                present.push((k.clone(), t.clone()));
            }
        }
        let refs: Vec<&Tuple> = present.iter().map(|(_, t)| t).collect();
        let insts = instantiate_many_planned(&self.object, db, plan, &refs)?;
        let binds = collect_bindings(&self.object, plan, db, &refs)?;
        let mut rebuilt = 0u64;
        for (((key, _), inst), bind) in present.iter().zip(insts).zip(binds) {
            rebuilt += 1;
            self.install_bindings(key, bind);
            match self.instances.insert(key.clone(), inst) {
                None => {
                    events.insert(key.clone(), ChangeKind::Inserted);
                }
                Some(ref old) if *old != self.instances[key] => {
                    events.insert(key.clone(), ChangeKind::Updated);
                }
                Some(_) => {}
            }
        }
        for k in dirty {
            if !table.contains_key(k) && self.instances.remove(k).is_some() {
                events.insert(k.clone(), ChangeKind::Removed);
            }
        }
        Ok(rebuilt)
    }

    fn install_bindings(&mut self, pivot: &Key, binds: Vec<(String, Key)>) {
        for (rel, key) in &binds {
            self.bindings
                .entry(rel.clone())
                .or_default()
                .entry(key.clone())
                .or_default()
                .insert(pivot.clone());
        }
        self.per_pivot.insert(pivot.clone(), binds);
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
        let pschema = table.schema().clone();
        let tuples: Vec<&Tuple> = table.scan().collect();
        let insts = instantiate_many_planned(&self.object, db, plan, &tuples)?;
        let binds = collect_bindings(&self.object, plan, db, &tuples)?;
        self.bindings.clear();
        self.per_pivot.clear();
        let mut fresh = BTreeMap::new();
        for ((t, inst), bind) in tuples.iter().zip(insts).zip(binds) {
            let key = t.key(&pschema);
            self.install_bindings(&key, bind);
            fresh.insert(key, inst);
        }
        let old = std::mem::replace(&mut self.instances, fresh);
        self.needs_full = false;
        let mut changes = Vec::new();
        for (key, inst) in &self.instances {
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

/// Walk the object's edges for every pivot (the same frontier passes
/// instantiation makes) and record each `(relation, tuple key)` touched —
/// node tuples *and* intermediate step tuples — per originating pivot.
/// Returned in pivot order; each pivot's list starts with its own
/// self-binding.
fn collect_bindings(
    object: &ViewObject,
    plan: &ObjectPlan,
    db: &Database,
    pivots: &[&Tuple],
) -> Result<Vec<Vec<(String, Key)>>> {
    let pschema = db.table(object.pivot())?.schema();
    let mut out: Vec<BTreeSet<(String, Key)>> = pivots
        .iter()
        .map(|t| {
            let mut s = BTreeSet::new();
            s.insert((object.pivot().to_owned(), t.key(pschema)));
            s
        })
        .collect();
    let n = object.nodes().len();
    // rows[id]: (pivot ordinal, tuple) pairs reaching node id, deduplicated
    // per (pivot, key) — duplicates add no reachability
    let mut rows: Vec<Vec<(usize, Tuple)>> = vec![Vec::new(); n];
    rows[0] = pivots
        .iter()
        .enumerate()
        .map(|(i, t)| (i, (*t).clone()))
        .collect();
    for &id in object.preorder().iter().skip(1) {
        let eplan = plan.edge(id)?;
        let mut frontier: Vec<(usize, Tuple)> = rows[eplan.parent].clone();
        for step in &eplan.steps {
            let inputs: Vec<(usize, &Tuple)> = frontier.iter().map(|(o, t)| (*o, t)).collect();
            let (next, _) = probe_step(step, db, &inputs)?;
            let tschema = db.table(&step.target)?.schema();
            let mut seen: BTreeSet<(usize, Key)> = BTreeSet::new();
            frontier = Vec::with_capacity(next.len());
            for (o, t) in next {
                let k = t.key(tschema);
                out[o].insert((step.target.clone(), k.clone()));
                if seen.insert((o, k)) {
                    frontier.push((o, t));
                }
            }
        }
        rows[id] = frontier;
    }
    Ok(out.into_iter().map(|s| s.into_iter().collect()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{instantiate_all, plan_object};
    use crate::treegen::generate_omega;
    use crate::university::university_database;
    use vo_structural::prelude::*;

    fn tup(db: &Database, rel: &str, values: Vec<Value>) -> Tuple {
        Tuple::new(db.table(rel).unwrap().schema(), values).unwrap()
    }

    fn omega_view(db: &mut Database) -> (StructuralSchema, MaterializedView) {
        let (schema, _) = university_database();
        let omega = generate_omega(&schema).unwrap();
        let plan = plan_object(&schema, &omega, db).unwrap();
        let cursor = db.journal_subscribe(JournalStart::Head);
        let view = MaterializedView::build(omega, &plan, db, cursor).unwrap();
        (schema, view)
    }

    fn refresh(
        view: &mut MaterializedView,
        schema: &StructuralSchema,
        db: &mut Database,
    ) -> RefreshOutcome {
        let read = db.journal_peek(view.cursor()).unwrap();
        let n = read.transactions.len();
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
    fn lapsed_cursor_falls_back_to_full_rebuild() {
        let (_, mut db) = university_database();
        let (schema, mut view) = omega_view(&mut db);
        db.set_journal_cap(Some(JournalCap::drop_oldest(2)));
        for ssn in 4..=8i64 {
            db.insert("GRADES", vec!["CS345".into(), ssn.into(), "B".into()])
                .unwrap();
        }
        let read = db.journal_peek(view.cursor()).unwrap();
        assert!(read.lapsed > 0);
        let out = refresh(&mut view, &schema, &mut db);
        assert!(out.full_rebuild);
        assert_equiv(&view, &schema, &db);
        // subsequent refreshes are incremental again
        db.insert("GRADES", vec!["CS101".into(), 9.into(), "A".into()])
            .unwrap();
        let out = refresh(&mut view, &schema, &mut db);
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
