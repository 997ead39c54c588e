//! Global integrity maintenance over the structural model.
//!
//! This module implements the integrity rules of Definitions 2.2–2.4 as an
//! executable engine:
//!
//! - [`check_database`] scans for violations (orphan owned tuples, dangling
//!   references, subset tuples without their general entity) — the audit,
//!   and the oracle the tests hold [`check_delta`] to.
//! - [`check_delta`] finds the violations an overlay's writes cause, at
//!   the cost of the writes: step 4 of every view-object update (paper §5).
//! - [`plan_delete`] computes the full set of [`DbOp`]s implied by deleting
//!   one tuple: cascades across ownership and subset connections, and
//!   policy-driven repair (cascade / nullify / restrict) of referencing
//!   tuples.
//! - [`plan_key_replacement`] propagates a key change to owned and subset
//!   children (recursively — their keys change too) and to referencing
//!   tuples.
//! - [`missing_dependencies`] / [`plan_completion`] find and repair the
//!   dependencies a newly inserted tuple requires (owner, general entity,
//!   referenced tuple), inserting stub tuples recursively — the process
//!   the paper's VO-CI global-validation step describes.
//!
//! All planners are *read-only*: they return operation lists which callers
//! apply transactionally via [`Database::apply_all`]. They are generic over
//! [`DbRead`], so they run identically against a committed [`Database`] or
//! a [`vo_relational::overlay::DeltaDb`] overlay of planned-but-uncommitted
//! ops — the substrate of batch update translation.
//!
//! **Access paths.** Every lookup here is
//! [`TableView::for_each_connected`] — the tuple a lookup starts from and
//! the positions it connects through, no copy of its values, no list of
//! its matches — and so goes by the path [`Table::index_at`] chooses: the
//! primary index when the attributes are the relation's key, a range of it
//! when they lead the key, a secondary index over them when one exists,
//! else a counted scan. The parent end of every connection is its
//! relation's key (Definitions 2.2–2.4), so looking *up* — for an owner, a
//! general entity, a referenced tuple — never scans; looking *down* for
//! dependents is a key range where the owner's key leads the dependent's,
//! a probe where the dependent end is indexed (object registration
//! indexes every other edge it traverses) and a scan of the dependent
//! relation where it is neither.

use crate::connection::{Connection, ConnectionKind};
use crate::schema::StructuralSchema;
use std::collections::{BTreeMap, BTreeSet};
use vo_obs::trace;
use vo_relational::prelude::*;

/// A detected integrity violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An owned tuple whose owner is missing (ownership rule 1).
    OrphanOwned {
        connection: String,
        relation: String,
        key: Key,
    },
    /// A referencing tuple pointing at a non-existent target with non-NULL
    /// connecting attributes (reference rule 1).
    DanglingReference {
        connection: String,
        relation: String,
        key: Key,
    },
    /// A subset tuple without its general entity (subset rule 1).
    SubsetWithoutParent {
        connection: String,
        relation: String,
        key: Key,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::OrphanOwned {
                connection,
                relation,
                key,
            } => {
                write!(
                    f,
                    "orphan owned tuple {relation}{key} (connection {connection})"
                )
            }
            Violation::DanglingReference {
                connection,
                relation,
                key,
            } => {
                write!(
                    f,
                    "dangling reference {relation}{key} (connection {connection})"
                )
            }
            Violation::SubsetWithoutParent {
                connection,
                relation,
                key,
            } => write!(
                f,
                "subset tuple without parent {relation}{key} (connection {connection})"
            ),
        }
    }
}

/// What to do with referencing tuples when their referenced tuple is
/// deleted (reference rule 2 offers exactly these choices).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefDeleteAction {
    /// Reject the deletion.
    Restrict,
    /// Delete the referencing tuples too.
    Cascade,
    /// Set the referencing attributes to NULL (fails when they are key
    /// attributes, which are non-nullable).
    #[default]
    Nullify,
}

/// What to do with referencing tuples when their referenced tuple's key is
/// modified (reference rule 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RefModifyAction {
    /// Propagate the new key into the referencing attributes.
    #[default]
    Propagate,
    /// Set the referencing attributes to NULL.
    Nullify,
    /// Delete the referencing tuples.
    Cascade,
}

/// Per-connection integrity policy with defaults.
#[derive(Debug, Clone, Default)]
pub struct IntegrityPolicy {
    delete_overrides: BTreeMap<String, RefDeleteAction>,
    modify_overrides: BTreeMap<String, RefModifyAction>,
    /// Default action for reference connections on deletion.
    pub on_delete: RefDeleteAction,
    /// Default action for reference connections on key modification.
    pub on_modify: RefModifyAction,
}

impl IntegrityPolicy {
    /// Policy using the given defaults for every connection.
    pub fn uniform(on_delete: RefDeleteAction, on_modify: RefModifyAction) -> Self {
        IntegrityPolicy {
            on_delete,
            on_modify,
            ..Default::default()
        }
    }

    /// Override the delete action for one named connection.
    pub fn with_delete_action(mut self, connection: &str, action: RefDeleteAction) -> Self {
        self.delete_overrides.insert(connection.to_owned(), action);
        self
    }

    /// Override the modify action for one named connection.
    pub fn with_modify_action(mut self, connection: &str, action: RefModifyAction) -> Self {
        self.modify_overrides.insert(connection.to_owned(), action);
        self
    }

    /// Effective delete action for a connection.
    pub fn delete_action(&self, connection: &str) -> RefDeleteAction {
        self.delete_overrides
            .get(connection)
            .copied()
            .unwrap_or(self.on_delete)
    }

    /// Effective modify action for a connection.
    pub fn modify_action(&self, connection: &str) -> RefModifyAction {
        self.modify_overrides
            .get(connection)
            .copied()
            .unwrap_or(self.on_modify)
    }
}

impl Violation {
    /// The `(relation, key)` of the dependent tuple the violation is about.
    pub fn target(&self) -> (&str, &Key) {
        match self {
            Violation::OrphanOwned { relation, key, .. }
            | Violation::DanglingReference { relation, key, .. }
            | Violation::SubsetWithoutParent { relation, key, .. } => (relation, key),
        }
    }

    /// What a tuple at `key` of `conn`'s dependent end commits by having
    /// non-NULL connecting values and no connected tuple at the parent end.
    fn unparented(conn: &Connection, key: Key) -> Violation {
        let connection = conn.name.clone();
        let relation = conn.dependent_end().0.to_owned();
        match conn.kind {
            ConnectionKind::Ownership => Violation::OrphanOwned {
                connection,
                relation,
                key,
            },
            ConnectionKind::Reference => Violation::DanglingReference {
                connection,
                relation,
                key,
            },
            ConnectionKind::Subset => Violation::SubsetWithoutParent {
                connection,
                relation,
                key,
            },
        }
    }
}

/// Scan the whole database (or overlay) for structural violations: every
/// tuple of every connection's dependent end, each looked up at the parent
/// end. O(database) — the audit behind `check_consistency()` and the
/// oracle [`check_delta`] is tested against, not a step of the write path.
pub fn check_database(schema: &StructuralSchema, db: &impl DbRead) -> Result<Vec<Violation>> {
    let mut out = Vec::new();
    for conn in schema.connections() {
        // every dependent tuple needs a connected tuple at the parent end,
        // or NULL among its connecting values (which only a reference's
        // non-key X1 can hold)
        let (parent, parent_attrs) = conn.parent_end();
        let (dependent, dependent_attrs) = conn.dependent_end();
        let (parents, dependents) = (db.view(parent)?, db.view(dependent)?);
        let parent_at = parents.schema().indices_of(parent_attrs)?;
        let dependent_at = dependents.schema().indices_of(dependent_attrs)?;
        for tuple in dependents.scan() {
            let mut parented = false;
            let asked =
                parents.for_each_connected(&parent_at, tuple, &dependent_at, |_| parented = true);
            if asked && !parented {
                out.push(Violation::unparented(conn, tuple.key(dependents.schema())));
            }
        }
    }
    Ok(out)
}

/// The structural violations the overlay's writes cause: what
/// [`check_database`] would report on the overlay — the same violations in
/// the same order (schema connection order, then dependent key order) —
/// **provided the base is consistent**, at a cost proportional to the
/// writes instead of the database. A violation the base already carries,
/// on a tuple the overlay neither writes nor orphans, is not reported:
/// finding those is the audit's job ([`check_database`]).
///
/// For every key the overlay writes ([`DeltaDb::writes`]):
///
/// - the post-image, as a *dependent* (owned, specializing or referencing
///   tuple), must find its parent through the overlay over every
///   connection it depends along, unless its connecting values hold a
///   NULL — one primary-key probe each;
/// - the pre-image, as a *parent*, when the overlay no longer holds a tuple
///   at its key (deleted or re-keyed away; the parent's connecting values
///   *are* its key), must leave no dependent in the overlay over any
///   connection it is the parent end of — one probe of the dependent end
///   each.
///
/// These two cover every violation of a consistent base plus the writes: a
/// violating dependent is either written (first rule) or was connected in
/// the base to a parent whose key the overlay vacated (second rule). A
/// dependent reached by both counts once.
pub fn check_delta(schema: &StructuralSchema, db: &DeltaDb<'_>) -> Result<Vec<Violation>> {
    let mut sp = trace::span("integrity.check_delta");
    // (connection position, dependent key): the scan's order, without
    // duplicates
    let mut found: BTreeSet<(usize, Key)> = BTreeSet::new();
    let (mut writes, mut probes) = (0i64, 0i64);
    for w in db.writes() {
        writes += 1;
        let rel_schema = db.base().table(w.relation)?.schema();
        // only a vacated key reads its pre-image
        let vacated = w.after.is_none().then(|| w.before()).flatten();
        for (i, conn) in schema.connections().iter().enumerate() {
            let (parent, parent_attrs) = conn.parent_end();
            let (dependent, dependent_attrs) = conn.dependent_end();
            if dependent == w.relation {
                if let Some(tuple) = w.after {
                    // NULL never connects, and need not (reference rule 1)
                    if let Some(from) = connects_at(dependent_attrs, rel_schema, tuple)? {
                        probes += 1;
                        if !any_at(&db.view(parent)?, parent_attrs, tuple, &from)? {
                            found.insert((i, w.key.clone()));
                        }
                    }
                }
            }
            if parent == w.relation {
                if let Some(tuple) = vacated {
                    let from = rel_schema.indices_of(parent_attrs)?;
                    probes += 1;
                    let dependents = db.view(dependent)?;
                    for_each_at(&dependents, dependent_attrs, tuple, &from, |t| {
                        found.insert((i, t.key(dependents.schema())));
                    })?;
                }
            }
        }
    }
    if sp.is_recording() {
        sp.field("writes", Json::Int(writes));
        sp.field("probes", Json::Int(probes));
        sp.field("violations", Json::Int(found.len() as i64));
    }
    Ok(found
        .into_iter()
        .map(|(i, key)| Violation::unparented(&schema.connections()[i], key))
        .collect())
}

/// Plan the deletion of one tuple with full structural propagation.
///
/// Returns the operations in a safe application order (replacements of
/// referencing tuples first would also work; order is irrelevant to the
/// engine, which checks nothing across relations — the point of the plan is
/// that *after* all ops apply, [`check_database`] is clean).
pub fn plan_delete(
    schema: &StructuralSchema,
    db: &impl DbRead,
    relation: &str,
    key: &Key,
    policy: &IntegrityPolicy,
) -> Result<Vec<DbOp>> {
    let mut sp = trace::span("integrity.plan_delete");
    // Phase 1: transitive closure of deletions. Each row is read once, where
    // it is found — the root by its key, every other as a dependent — and
    // kept with its relation's schema for phase 2.
    let root = db.view(relation)?;
    let found = root.get(key).ok_or_else(|| Error::NoSuchTuple {
        relation: relation.to_owned(),
        key: key.to_string(),
    })?;
    let mut to_delete: BTreeMap<(&str, Key), (&RelationSchema, &Tuple)> = BTreeMap::new();
    let mut work = vec![(relation, key.clone(), root.schema(), found)];
    while let Some((rel, k, rel_schema, tuple)) = work.pop() {
        let std::collections::btree_map::Entry::Vacant(slot) = to_delete.entry((rel, k)) else {
            continue;
        };
        slot.insert((rel_schema, tuple));
        // cascade over ownership and subset
        for conn in schema.dependents_of(rel) {
            let from = rel_schema.indices_of(&conn.from_attrs)?;
            let child = db.view(&conn.to)?;
            let rows = rows_at(&child, &conn.to_attrs, tuple, &from)?;
            if !rows.is_empty() {
                trace::event_with("integrity.cascade", || {
                    vec![
                        ("connection", Json::str(conn.name.clone())),
                        ("kind", Json::str(conn.kind.to_string())),
                        ("from", Json::str(format!("{rel}{}", tuple.key(rel_schema)))),
                        ("cascaded", Json::Int(rows.len() as i64)),
                    ]
                });
            }
            for t in rows {
                work.push((&conn.to, t.key(child.schema()), child.schema(), t));
            }
        }
        // reference cascade when the policy says so
        for conn in schema.referencers_of(rel) {
            if policy.delete_action(&conn.name) == RefDeleteAction::Cascade {
                let from = rel_schema.indices_of(&conn.to_attrs)?;
                let referencing = db.view(&conn.from)?;
                let rows = rows_at(&referencing, &conn.from_attrs, tuple, &from)?;
                if !rows.is_empty() {
                    trace::event_with("integrity.cascade", || {
                        vec![
                            ("connection", Json::str(conn.name.clone())),
                            ("kind", Json::str("reference")),
                            ("from", Json::str(format!("{rel}{}", tuple.key(rel_schema)))),
                            ("cascaded", Json::Int(rows.len() as i64)),
                        ]
                    });
                }
                for t in rows {
                    work.push((
                        &conn.from,
                        t.key(referencing.schema()),
                        referencing.schema(),
                        t,
                    ));
                }
            }
        }
    }

    // Phase 2: repair remaining referencing tuples (nullify or restrict).
    // Accumulate all nullifications per referencing tuple so that a tuple
    // referencing two deleted targets gets a single Replace.
    let mut pending: BTreeMap<(&str, Key), Tuple> = BTreeMap::new();
    for (&(rel, ref k), &(rel_schema, tuple)) in &to_delete {
        for conn in schema.referencers_of(rel) {
            match policy.delete_action(&conn.name) {
                RefDeleteAction::Cascade => {} // handled in phase 1
                action => {
                    let from = rel_schema.indices_of(&conn.to_attrs)?;
                    let referencing = db.view(&conn.from)?;
                    let ref_schema = referencing.schema();
                    for row in rows_at(&referencing, &conn.from_attrs, tuple, &from)? {
                        let k1 = row.key(ref_schema);
                        let at = (conn.from.as_str(), k1);
                        if to_delete.contains_key(&at) {
                            continue;
                        }
                        let k1 = &at.1;
                        if action == RefDeleteAction::Restrict {
                            trace::event_with("integrity.abort", || {
                                vec![
                                    ("connection", Json::str(conn.name.clone())),
                                    ("relation", Json::str(conn.from.clone())),
                                    ("key", Json::str(k1.to_string())),
                                    ("referenced", Json::str(format!("{rel}{k}"))),
                                    ("reason", Json::str("restrict")),
                                ]
                            });
                            return Err(Error::ConstraintViolation(format!(
                                "deletion restricted: {}{k1} references {rel}{k} via {}",
                                conn.from, conn.name
                            )));
                        }
                        // Nullify
                        let mut t = pending.get(&at).unwrap_or(row).clone();
                        for attr in &conn.from_attrs {
                            t = t.with_named(ref_schema, attr, Value::Null).map_err(|e| {
                                trace::event_with("integrity.abort", || {
                                    vec![
                                        ("connection", Json::str(conn.name.clone())),
                                        ("relation", Json::str(conn.from.clone())),
                                        ("key", Json::str(k1.to_string())),
                                        ("referenced", Json::str(format!("{rel}{k}"))),
                                        ("reason", Json::str("nullify-key")),
                                    ]
                                });
                                Error::ConstraintViolation(format!(
                                    "cannot nullify {}.{attr} (connection {}): {e}",
                                    conn.from, conn.name
                                ))
                            })?;
                        }
                        trace::event_with("integrity.nullify", || {
                            vec![
                                ("connection", Json::str(conn.name.clone())),
                                ("relation", Json::str(conn.from.clone())),
                                ("key", Json::str(k1.to_string())),
                            ]
                        });
                        pending.insert(at, t);
                    }
                }
            }
        }
    }

    if sp.is_recording() {
        sp.field("relation", Json::str(relation));
        sp.field("key", Json::str(key.to_string()));
        sp.field("deletes", Json::Int(to_delete.len() as i64));
        sp.field("nullified", Json::Int(pending.len() as i64));
    }
    let mut ops: Vec<DbOp> = Vec::with_capacity(pending.len() + to_delete.len());
    for ((rel, k), tuple) in pending {
        ops.push(DbOp::Replace {
            relation: rel.to_owned(),
            old_key: k,
            tuple,
        });
    }
    for (rel, k) in to_delete.into_keys() {
        ops.push(DbOp::Delete {
            relation: rel.to_owned(),
            key: k,
        });
    }
    Ok(ops)
}

/// Plan the replacement of one tuple, propagating key changes.
///
/// When `new` changes connecting attributes, the change propagates:
///
/// - across ownership and subset connections, rewriting the inherited key
///   components of every connected child (recursively, since the child's
///   own key changes);
/// - across incoming reference connections, per the policy's
///   [`RefModifyAction`].
pub fn plan_key_replacement(
    schema: &StructuralSchema,
    db: &impl DbRead,
    relation: &str,
    old_key: &Key,
    new: Tuple,
    policy: &IntegrityPolicy,
) -> Result<Vec<DbOp>> {
    let mut sp = trace::span("integrity.plan_replacement");
    let mut ops = Vec::new();
    let mut visited: BTreeSet<(String, Key)> = BTreeSet::new();
    let mut work: Vec<(String, Key, Tuple)> = vec![(relation.to_owned(), old_key.clone(), new)];
    let mut extra_deletes: Vec<(String, Key)> = Vec::new();

    while let Some((rel, okey, newt)) = work.pop() {
        if !visited.insert((rel.clone(), okey.clone())) {
            continue;
        }
        let table = db.view(&rel)?;
        let rel_schema = table.schema();
        let old = table
            .get(&okey)
            .ok_or_else(|| Error::NoSuchTuple {
                relation: rel.clone(),
                key: okey.to_string(),
            })?
            .clone();
        newt.validate(rel_schema)?;
        if old == newt {
            continue;
        }
        ops.push(DbOp::Replace {
            relation: rel.clone(),
            old_key: okey.clone(),
            tuple: newt.clone(),
        });

        // propagate to owned / subset children whose inherited attributes changed
        for conn in schema.dependents_of(&rel) {
            let from = rel_schema.indices_of(&conn.from_attrs)?;
            if from.iter().all(|&p| old.get(p) == newt.get(p)) {
                continue;
            }
            let child = db.view(&conn.to)?;
            let child_schema = child.schema();
            for ct in rows_at(&child, &conn.to_attrs, &old, &from)? {
                let mut nt = ct.clone();
                for (attr, &p) in conn.to_attrs.iter().zip(&from) {
                    nt = nt.with_named(child_schema, attr, newt.get(p).clone())?;
                }
                work.push((conn.to.clone(), ct.key(child_schema), nt));
            }
        }

        // repair referencing tuples when referenced key values changed
        for conn in schema.referencers_of(&rel) {
            let from = rel_schema.indices_of(&conn.to_attrs)?;
            if from.iter().all(|&p| old.get(p) == newt.get(p)) {
                continue;
            }
            let referencing = db.view(&conn.from)?;
            let ref_schema = referencing.schema();
            for rt in rows_at(&referencing, &conn.from_attrs, &old, &from)? {
                let k1 = rt.key(ref_schema);
                match policy.modify_action(&conn.name) {
                    RefModifyAction::Propagate => {
                        let mut nt = rt.clone();
                        for (attr, &p) in conn.from_attrs.iter().zip(&from) {
                            nt = nt.with_named(ref_schema, attr, newt.get(p).clone())?;
                        }
                        work.push((conn.from.clone(), k1, nt));
                    }
                    RefModifyAction::Nullify => {
                        let mut nt = rt.clone();
                        for attr in &conn.from_attrs {
                            nt = nt.with_named(ref_schema, attr, Value::Null).map_err(|e| {
                                Error::ConstraintViolation(format!(
                                    "cannot nullify {}.{attr}: {e}",
                                    conn.from
                                ))
                            })?;
                        }
                        work.push((conn.from.clone(), k1, nt));
                    }
                    RefModifyAction::Cascade => {
                        extra_deletes.push((conn.from.clone(), k1));
                    }
                }
            }
        }
    }

    for (rel, k) in extra_deletes {
        // full structural deletion of each cascaded referencing tuple
        let sub = plan_delete(schema, db, &rel, &k, policy)?;
        ops.extend(sub);
    }
    if sp.is_recording() {
        sp.field("relation", Json::str(relation));
        sp.field("key", Json::str(old_key.to_string()));
        sp.field("ops", Json::Int(ops.len() as i64));
    }
    Ok(ops)
}

/// One unmet dependency of a (possibly not-yet-inserted) tuple: the target
/// relation that must contain a matching tuple, and the connecting values
/// it must carry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingDependency {
    /// Name of the violated connection.
    pub connection: String,
    /// Relation that must contain the missing tuple.
    pub relation: String,
    /// Attribute names on the target relation.
    pub attrs: Vec<String>,
    /// Required values for those attributes.
    pub values: Vec<Value>,
}

/// Dependencies of `tuple` (as a member of `relation`) that the database
/// does not currently satisfy: a missing owner, general entity, or
/// referenced tuple.
pub fn missing_dependencies(
    schema: &StructuralSchema,
    db: &impl DbRead,
    relation: &str,
    tuple: &Tuple,
) -> Result<Vec<MissingDependency>> {
    let rel_schema = db.view(relation)?.schema();
    let mut out = Vec::new();
    for dep in schema.dependencies_of(relation) {
        // NULL reference is explicitly legal (reference rule 1); NULLs
        // cannot occur in key-side dependencies.
        let Some(from) = connects_at(dep.source_attrs(), rel_schema, tuple)? else {
            continue;
        };
        if !any_at(&db.view(dep.target())?, dep.target_attrs(), tuple, &from)? {
            out.push(MissingDependency {
                connection: dep.connection.name.clone(),
                relation: dep.target().to_owned(),
                attrs: dep.target_attrs().to_vec(),
                values: tuple.project(&from),
            });
        }
    }
    Ok(out)
}

/// Where a tuple of the relation `schema` describes holds the connecting
/// attributes `attrs` — `None` when it holds a NULL there and so connects
/// to nothing (Definition 2.1).
fn connects_at(
    attrs: &[String],
    schema: &RelationSchema,
    tuple: &Tuple,
) -> Result<Option<Vec<usize>>> {
    let at = schema.indices_of(attrs)?;
    Ok((!tuple.has_null_at(&at)).then_some(at))
}

/// Visit every tuple of `target` whose `attrs` hold what `source` holds at
/// `from`: the tuples connected to it, by `target`'s access path.
fn for_each_at<'a>(
    target: &TableView<'a>,
    attrs: &[String],
    source: &Tuple,
    from: &[usize],
    visit: impl FnMut(&'a Tuple),
) -> Result<()> {
    let at = target.schema().indices_of(attrs)?;
    target.for_each_connected(&at, source, from, visit);
    Ok(())
}

/// True when [`for_each_at`] has something to visit.
fn any_at(
    target: &TableView<'_>,
    attrs: &[String],
    source: &Tuple,
    from: &[usize],
) -> Result<bool> {
    let mut any = false;
    for_each_at(target, attrs, source, from, |_| any = true)?;
    Ok(any)
}

/// The tuples [`for_each_at`] visits, for planners that go on to write
/// what they found.
fn rows_at<'a>(
    target: &TableView<'a>,
    attrs: &[String],
    source: &Tuple,
    from: &[usize],
) -> Result<Vec<&'a Tuple>> {
    let mut rows = Vec::new();
    for_each_at(target, attrs, source, from, |t| rows.push(t))?;
    Ok(rows)
}

/// Build a stub tuple for `relation` carrying `values` in `attrs`; other
/// attributes get NULL when nullable and a type-appropriate default
/// otherwise.
pub fn stub_tuple(schema: &RelationSchema, attrs: &[String], values: &[Value]) -> Result<Tuple> {
    let mut out: Vec<Value> = Vec::with_capacity(schema.arity());
    for a in schema.attributes() {
        if let Some(pos) = attrs.iter().position(|x| *x == a.name) {
            out.push(values[pos].clone());
        } else if a.nullable {
            out.push(Value::Null);
        } else {
            out.push(match a.ty {
                DataType::Int => Value::Int(0),
                DataType::Float => Value::Float(0.0),
                DataType::Text => Value::text(""),
                DataType::Bool => Value::Bool(false),
            });
        }
    }
    Tuple::new(schema, out)
}

/// Recursively plan the stub insertions needed so that `tuple` (already
/// planned for insertion into `relation`) satisfies all its dependencies.
/// `allow` gates which relations the caller may touch (the translator's
/// per-relation insert permission); a required-but-forbidden insertion
/// aborts the plan.
pub fn plan_completion(
    schema: &StructuralSchema,
    db: &impl DbRead,
    relation: &str,
    tuple: &Tuple,
    allow: &dyn Fn(&str) -> bool,
) -> Result<Vec<DbOp>> {
    let mut ops = Vec::new();
    // planned: dependencies already scheduled in this plan
    let mut planned: BTreeSet<(String, Vec<Value>)> = BTreeSet::new();
    let mut work: Vec<(String, Tuple)> = vec![(relation.to_owned(), tuple.clone())];
    while let Some((rel, t)) = work.pop() {
        for dep in missing_dependencies(schema, db, &rel, &t)? {
            if !planned.insert((dep.relation.clone(), dep.values.clone())) {
                continue;
            }
            if !allow(&dep.relation) {
                return Err(Error::ConstraintViolation(format!(
                    "required insertion into {} is not permitted",
                    dep.relation
                )));
            }
            let target_schema = db.view(&dep.relation)?.schema();
            let stub = stub_tuple(target_schema, &dep.attrs, &dep.values)?;
            ops.push(DbOp::Insert {
                relation: dep.relation.clone(),
                tuple: stub.clone(),
            });
            work.push((dep.relation, stub));
        }
    }
    // parents before children: dependencies were discovered child-first
    ops.reverse();
    Ok(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::Connection;

    /// University-like mini schema:
    /// DEPARTMENT(dept_name*) <— COURSES(course_id*, dept_name)
    /// COURSES —* GRADES(course_id*, ssn*, grade)
    /// STUDENT(ssn*, degree) —* GRADES
    /// CURRICULUM(degree*, course_id*) —> COURSES
    fn setup() -> (StructuralSchema, Database) {
        let mut cat = DatabaseSchema::new();
        cat.add(
            RelationSchema::new(
                "DEPARTMENT",
                vec![AttributeDef::required("dept_name", DataType::Text)],
                &["dept_name"],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add(
            RelationSchema::new(
                "COURSES",
                vec![
                    AttributeDef::required("course_id", DataType::Text),
                    AttributeDef::nullable("dept_name", DataType::Text),
                ],
                &["course_id"],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add(
            RelationSchema::new(
                "STUDENT",
                vec![
                    AttributeDef::required("ssn", DataType::Int),
                    AttributeDef::nullable("degree", DataType::Text),
                ],
                &["ssn"],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add(
            RelationSchema::new(
                "GRADES",
                vec![
                    AttributeDef::required("course_id", DataType::Text),
                    AttributeDef::required("ssn", DataType::Int),
                    AttributeDef::nullable("grade", DataType::Text),
                ],
                &["course_id", "ssn"],
            )
            .unwrap(),
        )
        .unwrap();
        cat.add(
            RelationSchema::new(
                "CURRICULUM",
                vec![
                    AttributeDef::required("degree", DataType::Text),
                    AttributeDef::required("course_id", DataType::Text),
                ],
                &["degree", "course_id"],
            )
            .unwrap(),
        )
        .unwrap();
        let mut s = StructuralSchema::new(cat.clone());
        s.add_connection(Connection::reference(
            "courses_dept",
            "COURSES",
            &["dept_name"],
            "DEPARTMENT",
            &["dept_name"],
        ))
        .unwrap();
        s.add_connection(Connection::ownership(
            "courses_grades",
            "COURSES",
            &["course_id"],
            "GRADES",
            &["course_id"],
        ))
        .unwrap();
        s.add_connection(Connection::ownership(
            "student_grades",
            "STUDENT",
            &["ssn"],
            "GRADES",
            &["ssn"],
        ))
        .unwrap();
        s.add_connection(Connection::reference(
            "curriculum_courses",
            "CURRICULUM",
            &["course_id"],
            "COURSES",
            &["course_id"],
        ))
        .unwrap();

        let mut db = Database::from_schema(&cat);
        db.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        db.insert("COURSES", vec!["CS345".into(), "CS".into()])
            .unwrap();
        db.insert("COURSES", vec!["CS101".into(), "CS".into()])
            .unwrap();
        db.insert("STUDENT", vec![1.into(), "MS".into()]).unwrap();
        db.insert("STUDENT", vec![2.into(), "PhD".into()]).unwrap();
        db.insert("GRADES", vec!["CS345".into(), 1.into(), "A".into()])
            .unwrap();
        db.insert("GRADES", vec!["CS345".into(), 2.into(), "B".into()])
            .unwrap();
        db.insert("GRADES", vec!["CS101".into(), 1.into(), "A".into()])
            .unwrap();
        db.insert("CURRICULUM", vec!["MS".into(), "CS345".into()])
            .unwrap();
        (s, db)
    }

    #[test]
    fn clean_database_has_no_violations() {
        let (s, db) = setup();
        assert!(check_database(&s, &db).unwrap().is_empty());
    }

    #[test]
    fn detects_orphan_owned() {
        let (s, mut db) = setup();
        db.insert("GRADES", vec!["GHOST".into(), 1.into(), Value::Null])
            .unwrap();
        let v = check_database(&s, &db).unwrap();
        assert!(v.iter().any(|x| matches!(x, Violation::OrphanOwned { connection, .. } if connection == "courses_grades")));
    }

    #[test]
    fn detects_dangling_reference() {
        let (s, mut db) = setup();
        db.insert("COURSES", vec!["EE1".into(), "EE".into()])
            .unwrap();
        let v = check_database(&s, &db).unwrap();
        assert_eq!(v.len(), 1);
        assert!(
            matches!(&v[0], Violation::DanglingReference { relation, .. } if relation == "COURSES")
        );
    }

    #[test]
    fn null_reference_is_legal() {
        let (s, mut db) = setup();
        db.insert("COURSES", vec!["X1".into(), Value::Null])
            .unwrap();
        assert!(check_database(&s, &db).unwrap().is_empty());
    }

    fn delete(relation: &str, key: Key) -> DbOp {
        DbOp::Delete {
            relation: relation.into(),
            key,
        }
    }

    /// `ops` laid on an overlay of `db`: the delta verdict, held to the scan's.
    fn delta_verdict(s: &StructuralSchema, db: &Database, ops: &[DbOp]) -> Vec<Violation> {
        let mut overlay = DeltaDb::new(db);
        overlay.apply_all(ops.to_vec()).unwrap();
        let delta = check_delta(s, &overlay).unwrap();
        assert_eq!(delta, check_database(s, &overlay).unwrap());
        delta
    }

    #[test]
    fn delta_check_finds_what_a_vacated_parent_key_strands() {
        let (s, db) = setup();
        // CS345 owns two grades and is referenced from the curriculum:
        // reported in connection order, then dependent key order
        let v = delta_verdict(&s, &db, &[delete("COURSES", Key::single("CS345"))]);
        let said: Vec<String> = v.iter().map(ToString::to_string).collect();
        assert_eq!(
            said,
            [
                "orphan owned tuple GRADES('CS345', 1) (connection courses_grades)",
                "orphan owned tuple GRADES('CS345', 2) (connection courses_grades)",
                "dangling reference CURRICULUM('MS', 'CS345') (connection curriculum_courses)",
            ]
        );
        // a raw re-key strands the same dependents
        let courses = db.table("COURSES").unwrap().schema().clone();
        let rekey = DbOp::Replace {
            relation: "COURSES".into(),
            old_key: Key::single("CS345"),
            tuple: Tuple::new(&courses, vec!["EES345".into(), "CS".into()]).unwrap(),
        };
        assert_eq!(delta_verdict(&s, &db, std::slice::from_ref(&rekey)), v);
        // ... unless a new tuple takes the vacated key in the same batch
        let reinsert = DbOp::Insert {
            relation: "COURSES".into(),
            tuple: Tuple::new(&courses, vec!["CS345".into(), Value::Null]).unwrap(),
        };
        assert!(delta_verdict(&s, &db, &[rekey, reinsert]).is_empty());
    }

    #[test]
    fn delta_check_counts_a_dependent_reached_from_both_ends_once() {
        let (s, db) = setup();
        // the grade is written (re-graded) *and* its owner is deleted
        let grades = db.table("GRADES").unwrap().schema().clone();
        let ops = [
            delete("COURSES", Key::single("CS101")),
            DbOp::Replace {
                relation: "GRADES".into(),
                old_key: Key(vec!["CS101".into(), 1.into()]),
                tuple: Tuple::new(&grades, vec!["CS101".into(), 1.into(), "C".into()]).unwrap(),
            },
        ];
        let v = delta_verdict(&s, &db, &ops);
        assert_eq!(v.len(), 1);
        assert!(
            matches!(&v[0], Violation::OrphanOwned { connection, .. } if connection == "courses_grades")
        );
    }

    #[test]
    fn delta_check_span_reports_writes_probes_and_violations() {
        let (s, db) = setup();
        let mut overlay = DeltaDb::new(&db);
        overlay
            .apply(delete("DEPARTMENT", Key::single("CS")))
            .unwrap();
        let (v, taken) = trace::capture(|| check_delta(&s, &overlay).unwrap());
        let spans: Vec<_> = (taken.spans.into_iter())
            .filter(|e| e.name == "integrity.check_delta")
            .collect();
        assert_eq!(v.len(), 2); // both courses referenced the department
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].field("writes").unwrap(), &Json::Int(1));
        // DEPARTMENT is the parent end of one connection: one look down
        assert_eq!(spans[0].field("probes").unwrap(), &Json::Int(1));
        assert_eq!(spans[0].field("violations").unwrap(), &Json::Int(2));
    }

    #[test]
    fn delete_cascades_over_ownership() {
        let (s, mut db) = setup();
        // CURRICULUM references CS345 → restrict would veto; use cascade for it
        let policy = IntegrityPolicy::default()
            .with_delete_action("curriculum_courses", RefDeleteAction::Cascade);
        let ops = plan_delete(&s, &db, "COURSES", &Key::single("CS345"), &policy).unwrap();
        db.apply_all(&ops).unwrap();
        assert!(check_database(&s, &db).unwrap().is_empty());
        assert_eq!(db.table("GRADES").unwrap().len(), 1); // only CS101's grade
        assert_eq!(db.table("CURRICULUM").unwrap().len(), 0);
        assert_eq!(db.table("COURSES").unwrap().len(), 1);
    }

    #[test]
    fn delete_restrict_vetoes() {
        let (s, db) = setup();
        let policy =
            IntegrityPolicy::uniform(RefDeleteAction::Restrict, RefModifyAction::Propagate);
        let r = plan_delete(&s, &db, "COURSES", &Key::single("CS345"), &policy);
        assert!(matches!(r, Err(Error::ConstraintViolation(_))));
    }

    #[test]
    fn delete_nullify_fails_on_key_reference() {
        let (s, db) = setup();
        // CURRICULUM's referencing attrs are part of its key → cannot nullify
        let policy = IntegrityPolicy::default(); // Nullify
        let r = plan_delete(&s, &db, "COURSES", &Key::single("CS345"), &policy);
        assert!(matches!(r, Err(Error::ConstraintViolation(_))));
    }

    #[test]
    fn delete_nullify_works_on_nonkey_reference() {
        let (s, mut db) = setup();
        // delete the department; COURSES.dept_name is nullable non-key
        let ops = plan_delete(
            &s,
            &db,
            "DEPARTMENT",
            &Key::single("CS"),
            &IntegrityPolicy::default(),
        )
        .unwrap();
        db.apply_all(&ops).unwrap();
        assert!(check_database(&s, &db).unwrap().is_empty());
        let t = db
            .table("COURSES")
            .unwrap()
            .get(&Key::single("CS345"))
            .unwrap()
            .clone();
        assert!(t.get(1).is_null());
    }

    #[test]
    fn delete_of_student_cascades_grades() {
        let (s, mut db) = setup();
        let ops = plan_delete(
            &s,
            &db,
            "STUDENT",
            &Key::single(1),
            &IntegrityPolicy::default(),
        )
        .unwrap();
        db.apply_all(&ops).unwrap();
        assert!(check_database(&s, &db).unwrap().is_empty());
        assert_eq!(db.table("GRADES").unwrap().len(), 1); // only ssn=2 grade left
    }

    #[test]
    fn key_replacement_propagates_to_owned_and_referencing() {
        let (s, mut db) = setup();
        let courses = db.table("COURSES").unwrap().schema().clone();
        let new = Tuple::new(&courses, vec!["EES345".into(), "CS".into()]).unwrap();
        let ops = plan_key_replacement(
            &s,
            &db,
            "COURSES",
            &Key::single("CS345"),
            new,
            &IntegrityPolicy::default(),
        )
        .unwrap();
        db.apply_all(&ops).unwrap();
        assert!(check_database(&s, &db).unwrap().is_empty());
        // grades re-keyed
        let g = db.table("GRADES").unwrap();
        assert!(g.contains_key(&Key(vec!["EES345".into(), 1.into()])));
        assert!(!g.contains_key(&Key(vec!["CS345".into(), 1.into()])));
        // curriculum re-keyed (propagate)
        let c = db.table("CURRICULUM").unwrap();
        assert!(c.contains_key(&Key(vec!["MS".into(), "EES345".into()])));
    }

    #[test]
    fn key_replacement_cascade_deletes_referencing() {
        let (s, mut db) = setup();
        let courses = db.table("COURSES").unwrap().schema().clone();
        let new = Tuple::new(&courses, vec!["EES345".into(), "CS".into()]).unwrap();
        let policy = IntegrityPolicy::default()
            .with_modify_action("curriculum_courses", RefModifyAction::Cascade);
        let ops =
            plan_key_replacement(&s, &db, "COURSES", &Key::single("CS345"), new, &policy).unwrap();
        db.apply_all(&ops).unwrap();
        assert!(check_database(&s, &db).unwrap().is_empty());
        assert_eq!(db.table("CURRICULUM").unwrap().len(), 0);
    }

    #[test]
    fn nonkey_replacement_produces_single_op() {
        let (s, db) = setup();
        let courses = db.table("COURSES").unwrap().schema().clone();
        let new = Tuple::new(&courses, vec!["CS345".into(), Value::Null]).unwrap();
        let ops = plan_key_replacement(
            &s,
            &db,
            "COURSES",
            &Key::single("CS345"),
            new,
            &IntegrityPolicy::default(),
        )
        .unwrap();
        assert_eq!(ops.len(), 1);
        assert!(ops[0].is_replace());
    }

    #[test]
    fn identical_replacement_is_noop() {
        let (s, db) = setup();
        let old = db
            .table("COURSES")
            .unwrap()
            .get(&Key::single("CS345"))
            .unwrap()
            .clone();
        let ops = plan_key_replacement(
            &s,
            &db,
            "COURSES",
            &Key::single("CS345"),
            old,
            &IntegrityPolicy::default(),
        )
        .unwrap();
        assert!(ops.is_empty());
    }

    #[test]
    fn restricted_delete_traces_rule_and_tuple() {
        let (s, db) = setup();
        let policy =
            IntegrityPolicy::uniform(RefDeleteAction::Restrict, RefModifyAction::Propagate);
        let (r, taken) =
            trace::capture(|| plan_delete(&s, &db, "COURSES", &Key::single("CS345"), &policy));
        assert!(r.is_err());
        let aborts: Vec<_> = (taken.spans.into_iter())
            .filter(|e| e.name == "integrity.abort")
            .collect();
        assert_eq!(aborts.len(), 1);
        let a = &aborts[0];
        assert_eq!(
            a.field("connection").unwrap(),
            &Json::str("curriculum_courses")
        );
        assert_eq!(a.field("relation").unwrap(), &Json::str("CURRICULUM"));
        assert!(a.field("key").unwrap().as_str().unwrap().contains("CS345"));
        assert_eq!(a.field("reason").unwrap(), &Json::str("restrict"));
    }

    #[test]
    fn cascade_trace_counts_tuples_per_rule() {
        let (s, db) = setup();
        let mine = trace::capture(|| {
            plan_delete(
                &s,
                &db,
                "STUDENT",
                &Key::single(1),
                &IntegrityPolicy::default(),
            )
            .unwrap()
        })
        .1
        .spans;
        // student_grades owns both of ssn=1's grade rows
        let cascade = mine
            .iter()
            .find(|e| {
                e.name == "integrity.cascade"
                    && e.field("connection") == Some(&Json::str("student_grades"))
            })
            .expect("cascade event for student_grades");
        assert_eq!(cascade.field("cascaded").unwrap(), &Json::Int(2));
        assert_eq!(cascade.field("kind").unwrap(), &Json::str("ownership"));
        // the enclosing span totals the plan: STUDENT(1) + 2 grades
        let span = mine
            .iter()
            .find(|e| e.name == "integrity.plan_delete")
            .expect("plan_delete span");
        assert_eq!(span.field("deletes").unwrap(), &Json::Int(3));
        assert_eq!(span.field("nullified").unwrap(), &Json::Int(0));
    }

    #[test]
    fn missing_dependencies_found() {
        let (s, db) = setup();
        let courses = db.table("COURSES").unwrap().schema().clone();
        let t = Tuple::new(&courses, vec!["EE282".into(), "EE".into()]).unwrap();
        let deps = missing_dependencies(&s, &db, "COURSES", &t).unwrap();
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0].relation, "DEPARTMENT");
        assert_eq!(deps[0].values, vec![Value::text("EE")]);
    }

    #[test]
    fn completion_inserts_stub_parents() {
        let (s, mut db) = setup();
        let grades = db.table("GRADES").unwrap().schema().clone();
        let t = Tuple::new(&grades, vec!["EE282".into(), 9.into(), "A".into()]).unwrap();
        let ops = plan_completion(&s, &db, "GRADES", &t, &|_| true).unwrap();
        // needs COURSES(EE282) and STUDENT(9); the stub course has NULL dept
        db.apply_all(&ops).unwrap();
        db.table_mut("GRADES").unwrap().insert(t).unwrap();
        assert!(check_database(&s, &db).unwrap().is_empty());
        assert!(db
            .table("COURSES")
            .unwrap()
            .contains_key(&Key::single("EE282")));
        assert!(db.table("STUDENT").unwrap().contains_key(&Key::single(9)));
    }

    #[test]
    fn completion_respects_permission_gate() {
        let (s, db) = setup();
        let grades = db.table("GRADES").unwrap().schema().clone();
        let t = Tuple::new(&grades, vec!["EE282".into(), 9.into(), "A".into()]).unwrap();
        let r = plan_completion(&s, &db, "GRADES", &t, &|rel| rel != "STUDENT");
        assert!(matches!(r, Err(Error::ConstraintViolation(_))));
    }

    #[test]
    fn stub_tuple_defaults() {
        let schema = RelationSchema::new(
            "X",
            vec![
                AttributeDef::required("k", DataType::Text),
                AttributeDef::required("n", DataType::Int),
                AttributeDef::nullable("m", DataType::Float),
            ],
            &["k"],
        )
        .unwrap();
        let t = stub_tuple(&schema, &["k".to_string()], &[Value::text("a")]).unwrap();
        assert_eq!(t.values(), &[Value::text("a"), Value::Int(0), Value::Null]);
    }
}
