//! The keyed net change set and the overlay that grows one: read views
//! that layer planned-but-uncommitted [`DbOp`]s over a borrowed
//! [`Database`] without cloning any base table and, once checked, *are*
//! the commit.
//!
//! The update translators of the view-object model (paper §5) make every
//! decision against the database *as it will look* once the ops planned so
//! far have been applied, and §5 ends an update with "validate globally,
//! then apply or roll back". Every refusal happens here, against the
//! overlay, so nothing is applied that could need rolling back:
//!
//! - a [`Delta`] is the net effect of any number of ops, `relation → key
//!   → Option<Tuple>`, grown by the one fold [`Delta::record`]: what an
//!   overlay shadows its base with, what [`Database::install`] moves into
//!   the tables and what `vo-store` accumulates between checkpoints;
//! - [`DeltaDb`] is a base, a `Delta` over it and the op log the delta
//!   grew from; [`DeltaDb::apply`] mirrors [`Table`]'s mutation semantics
//!   exactly — the same `KeyConflict` / `NoSuchTuple` / validation errors,
//!   in the same order, judged against the merged view;
//! - [`TableView`] merges base table and delta on every read, preserving
//!   primary-key iteration order and the base table's access paths: a
//!   lookup goes by the path [`Table::index_at`] chooses, and where that
//!   is the key or its leading part the delta — key-ordered like the rows —
//!   answers by the same point or range lookup; only a lookup on non-key
//!   attributes walks the delta beside its base hits;
//! - [`DeltaDb::finish`] yields the [`Staged`] change [`Database::install`]
//!   commits — the only way rows reach a table, so there is no undo log:
//!   a batch whose *k*-th op is refused never touched one.
//!
//! The [`DbRead`] trait abstracts "something the planners can read": both
//! [`Database`] and [`DeltaDb`] implement it, so integrity planners and
//! translators run unchanged over a committed database or an overlay.
//!
//! Instrumentation: overlay construction counts `translate.overlay_created`
//! and every relation lookup through an overlay counts
//! `translate.overlay_reads` (see [`crate::stats`]).

use crate::database::{Database, DbOp};
use crate::error::{Error, Result};
use crate::schema::RelationSchema;
pub use crate::table::KeyedRows;
use crate::table::{self, Merged, Table, NO_ROWS};
use crate::tuple::{Key, Tuple};
use crate::value::Value;
use std::collections::btree_map;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// Uniform read access for integrity planners and update translators: a
/// committed [`Database`] and a [`DeltaDb`] overlay answer the same
/// lookups through [`TableView`]s.
pub trait DbRead {
    /// A merged read view of one relation.
    fn view(&self, relation: &str) -> Result<TableView<'_>>;
}

impl DbRead for Database {
    fn view(&self, relation: &str) -> Result<TableView<'_>> {
        Ok(TableView {
            base: self.table(relation)?,
            delta: &NO_ROWS,
        })
    }
}

/// The keyed net change set: what any number of [`DbOp`]s come to, as
/// `relation → key → Option<Tuple>`. Later ops on a key supersede earlier
/// ones, so a delta stays O(distinct keys written) however many ops it
/// spans. A key inserted and deleted again keeps its `None` entry: the
/// relation *was* written.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Delta {
    relations: BTreeMap<String, KeyedRows>,
}

impl Delta {
    /// True when no op has been folded in.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Number of distinct (relation, key) entries.
    pub fn len(&self) -> usize {
        self.relations.values().map(BTreeMap::len).sum()
    }

    /// The written relations in name order, each with its keyed rows: the
    /// write set, per key.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &KeyedRows)> {
        self.relations.iter().map(|(r, rows)| (r.as_str(), rows))
    }

    /// The same by value — how [`Database::install`] and the checkpoint
    /// encoder consume a delta.
    pub(crate) fn into_relations(self) -> impl Iterator<Item = (String, KeyedRows)> {
        self.relations.into_iter()
    }

    /// The key `op` writes last: its tuple's, or the one it deletes.
    fn written_key(schema: &RelationSchema, op: &DbOp) -> Key {
        debug_assert_eq!(schema.name(), op.relation());
        match op {
            DbOp::Insert { tuple, .. } | DbOp::Replace { tuple, .. } => tuple.key(schema),
            DbOp::Delete { key, .. } => key.clone(),
        }
    }

    /// Fold one op in — the only place a [`DbOp`] becomes keyed rows.
    /// `schema`, the schema of the op's relation, derives the key of an
    /// inserted or replacing tuple. The fold checks nothing: whether the
    /// op applies is [`DeltaDb::apply`]'s question.
    pub fn record(&mut self, schema: &RelationSchema, op: &DbOp) {
        self.record_at(Self::written_key(schema, op), op);
    }

    /// [`Delta::record`] with the op's [`Delta::written_key`] in hand.
    fn record_at(&mut self, key: Key, op: &DbOp) {
        let rows = match self.relations.get_mut(op.relation()) {
            Some(rows) => rows,
            None => self.relations.entry(op.relation().to_owned()).or_default(),
        };
        match op {
            DbOp::Insert { tuple, .. } => rows.insert(key, Some(tuple.clone())),
            DbOp::Delete { .. } => rows.insert(key, None),
            DbOp::Replace { old_key, tuple, .. } => {
                if key != *old_key {
                    rows.insert(old_key.clone(), None);
                }
                rows.insert(key, Some(tuple.clone()))
            }
        };
    }

    /// Fold a committed transaction in order, each relation's schema taken
    /// from `db` (the database the ops were applied to).
    pub fn record_all(&mut self, db: &Database, ops: &[DbOp]) -> Result<()> {
        for op in ops {
            self.record(db.table(op.relation())?.schema(), op);
        }
        Ok(())
    }

    /// Lay `later` over this delta: where both write a key, `later` wins.
    /// `a.merge(b)` is the delta of a's ops followed by b's.
    pub fn merge(&mut self, later: Delta) {
        for (relation, rows) in later.relations {
            self.relations.entry(relation).or_default().extend(rows);
        }
    }
}

/// One key an overlay writes, with the tuple on either side of the write
/// (see [`DeltaDb::writes`]).
#[derive(Debug, Clone, Copy)]
pub struct DeltaWrite<'a> {
    /// The written relation.
    pub relation: &'a str,
    /// The written key.
    pub key: &'a Key,
    /// The tuple the base holds at `key`; `None` when the key is new.
    pub before: Option<&'a Tuple>,
    /// The tuple the overlay holds at `key`; `None` when it is deleted.
    pub after: Option<&'a Tuple>,
}

/// A change ready to commit — delta, op log, base version. Built only by
/// [`DeltaDb::finish`], consumed by [`Database::install`].
#[derive(Debug)]
pub struct Staged {
    pub(crate) delta: Delta,
    pub(crate) ops: Vec<DbOp>,
    pub(crate) base_version: u64,
}

/// A read view layering planned-but-uncommitted [`DbOp`]s over a borrowed
/// [`Database`], plus the log of those ops. Construction is O(1); no base
/// table is ever cloned. Translators work against one overlay so every
/// decision sees the effects of the ops already planned, and the final log
/// is the translation.
///
/// The overlay also records which relations were *read* through it (the
/// read set). Together with the delta's relations (the write set) that is
/// exactly what first-committer-wins conflict validation
/// ([`Database::check_unchanged`]) needs: a transaction planned over this
/// overlay depends on no relation outside `read_set ∪ write_set`.
#[derive(Debug)]
pub struct DeltaDb<'base> {
    base: &'base Database,
    delta: Delta,
    ops: Vec<DbOp>,
    /// Relations read through [`DeltaDb::view`]. Interior-mutable because
    /// reads take `&self`; a `Mutex` (not `RefCell`) keeps the overlay
    /// `Sync` for the parallel instantiation workers.
    reads: Mutex<BTreeSet<String>>,
}

impl Clone for DeltaDb<'_> {
    fn clone(&self) -> Self {
        DeltaDb {
            base: self.base,
            delta: self.delta.clone(),
            ops: self.ops.clone(),
            reads: Mutex::new(self.reads.lock().expect("read-set lock").clone()),
        }
    }
}

// Overlays borrow a shared `&Database` and may be built per worker on top
// of it; keep them (and the views they hand out) thread-safe by
// construction for any base lifetime.
const _: fn() = vo_exec::assert_send_sync::<DeltaDb<'static>>;
const _: fn() = vo_exec::assert_send_sync::<TableView<'static>>;

impl<'base> DeltaDb<'base> {
    /// An empty overlay over `base`.
    pub fn new(base: &'base Database) -> Self {
        crate::stats::count_overlay_created();
        DeltaDb {
            base,
            delta: Delta::default(),
            ops: Vec::new(),
            reads: Mutex::new(BTreeSet::new()),
        }
    }

    /// The borrowed base database.
    pub fn base(&self) -> &'base Database {
        self.base
    }

    /// A merged read view of one relation. Records `relation` in the
    /// overlay's read set.
    pub fn view(&self, relation: &str) -> Result<TableView<'_>> {
        crate::stats::count_overlay_read();
        {
            let mut reads = self.reads.lock().expect("read-set lock");
            if !reads.contains(relation) {
                reads.insert(relation.to_owned());
            }
        }
        Ok(TableView {
            base: self.base.table(relation)?,
            delta: self.delta.relations.get(relation).unwrap_or(&NO_ROWS),
        })
    }

    /// Every relation this overlay depends on: reads ∪ pending writes.
    /// A transaction planned over the overlay commutes with any commit
    /// that leaves all of these relations untouched.
    pub fn touched_relations(&self) -> BTreeSet<String> {
        let mut all = self.reads.lock().expect("read-set lock").clone();
        all.extend(self.delta.relations.keys().cloned());
        all
    }

    /// The net change the applied ops come to.
    pub fn delta(&self) -> &Delta {
        &self.delta
    }

    /// Every key the overlay writes, in relation then key order, with its
    /// base pre-image and overlay post-image — the net effect of the
    /// applied ops, however many of them touched a key (a re-key shows as
    /// two writes: the old key deleted, the new key upserted). Reads the
    /// base directly, so it adds nothing to the read set.
    pub fn writes(&self) -> impl Iterator<Item = DeltaWrite<'_>> {
        self.delta.relations().flat_map(|(relation, rows)| {
            let base = self
                .base
                .table(relation)
                .expect("apply() admits ops on base relations only");
            rows.iter().map(move |(key, after)| DeltaWrite {
                relation,
                key,
                before: base.get(key),
                after: after.as_ref(),
            })
        })
    }

    /// [`DeltaDb::apply`] for a borrowed op, leaving the log alone. Its one
    /// read is of the relation it goes on to write, which the write set
    /// covers: counted, but not added to the read set.
    pub(crate) fn fold(&mut self, op: &DbOp) -> Result<()> {
        let relation = op.relation();
        let table = self.base.table(relation)?;
        if let DbOp::Insert { tuple, .. } | DbOp::Replace { tuple, .. } = op {
            tuple.validate(table.schema())?;
        }
        let key = Delta::written_key(table.schema(), op);
        crate::stats::count_overlay_read();
        let view = TableView {
            base: table,
            delta: self.delta.relations.get(relation).unwrap_or(&NO_ROWS),
        };
        let conflict = |key: &Key| Error::KeyConflict {
            relation: relation.to_owned(),
            key: key.to_string(),
        };
        let missing = |key: &Key| Error::NoSuchTuple {
            relation: relation.to_owned(),
            key: key.to_string(),
        };
        let refusal = match op {
            DbOp::Insert { .. } if view.contains_key(&key) => Some(conflict(&key)),
            DbOp::Delete { .. } if !view.contains_key(&key) => Some(missing(&key)),
            DbOp::Replace { old_key, .. } if !view.contains_key(old_key) => Some(missing(old_key)),
            DbOp::Replace { old_key, .. } if key != *old_key && view.contains_key(&key) => {
                Some(conflict(&key))
            }
            _ => None,
        };
        if let Some(refusal) = refusal {
            return Err(refusal);
        }
        self.delta.record_at(key, op);
        Ok(())
    }

    /// Plan one op: apply it to the overlay and append it to the log.
    /// Error semantics mirror [`Table`] exactly, judged against the merged
    /// view: duplicate inserts and colliding replacements are
    /// `KeyConflict`, missing delete/replace targets are `NoSuchTuple`,
    /// and tuples are re-validated against the relation schema. A refused
    /// op leaves overlay and log as they were.
    pub fn apply(&mut self, op: DbOp) -> Result<()> {
        self.fold(&op)?;
        self.ops.push(op);
        Ok(())
    }

    /// Plan a list of ops in order, stopping at the first one refused (the
    /// ops before it stay applied and logged). An empty log adopts `ops` —
    /// the allocation: how a prepared batch's op list reaches the journal.
    pub fn apply_all(&mut self, mut ops: Vec<DbOp>) -> Result<()> {
        let mut applied = 0;
        let outcome = (ops.iter()).try_for_each(|op| self.fold(op).map(|()| applied += 1));
        ops.truncate(applied);
        if self.ops.is_empty() {
            self.ops = ops;
        } else {
            self.ops.append(&mut ops);
        }
        outcome
    }

    /// Position marker into the op log; pair with [`DeltaDb::ops_since`]
    /// to attribute a batch's ops to individual requests.
    pub fn mark(&self) -> usize {
        self.ops.len()
    }

    /// Ops planned since `mark` (`0`: all of them).
    pub fn ops_since(&self, mark: usize) -> &[DbOp] {
        &self.ops[mark..]
    }

    /// Finish planning, yielding the op log alone.
    pub fn into_ops(self) -> Vec<DbOp> {
        self.ops
    }

    /// Finish planning: release the borrow of the base and yield what
    /// [`Database::install`] commits.
    pub fn finish(self) -> Staged {
        Staged {
            base_version: self.base.version(),
            delta: self.delta,
            ops: self.ops,
        }
    }
}

impl DbRead for DeltaDb<'_> {
    fn view(&self, relation: &str) -> Result<TableView<'_>> {
        DeltaDb::view(self, relation)
    }
}

/// A merged read view of one relation: the base [`Table`] shadowed by the
/// overlay's [`KeyedRows`] for it. All accessors return references that
/// borrow from the underlying storage (lifetime `'a`), not from the view
/// value, so views are cheap to re-create per lookup.
#[derive(Debug, Clone, Copy)]
pub struct TableView<'a> {
    base: &'a Table,
    delta: &'a KeyedRows,
}

impl<'a> TableView<'a> {
    /// The relation schema.
    pub fn schema(&self) -> &'a RelationSchema {
        self.base.schema()
    }

    /// Fetch by key through the delta.
    pub fn get(&self, key: &Key) -> Option<&'a Tuple> {
        match self.delta.get(key) {
            Some(Some(t)) => Some(t),
            Some(None) => None,
            None => self.base.get(key),
        }
    }

    /// True when the merged view holds a tuple with this key.
    pub fn contains_key(&self, key: &Key) -> bool {
        self.get(key).is_some()
    }

    /// Number of tuples in the merged view.
    pub fn len(&self) -> usize {
        let mut n = self.base.len();
        for (key, entry) in self.delta {
            match (self.base.contains_key(key), entry) {
                (true, None) => n -= 1,
                (false, Some(_)) => n += 1,
                _ => {}
            }
        }
        n
    }

    /// True when the merged view holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate all tuples of the merged view in primary-key order.
    pub fn scan(&self) -> TableViewScan<'a> {
        table::merged(self.base.rows.iter(), self.delta.iter())
    }

    /// Tuples whose named attributes equal `values`, in primary-key order,
    /// by the access path [`Table::index_at`] chooses on the base, followed
    /// through the delta.
    pub fn find_by_attrs(&self, attrs: &[String], values: &[Value]) -> Result<Vec<&'a Tuple>> {
        let indices = self.base.schema().indices_of(attrs)?;
        Ok(self.find_by_indices(&indices, values))
    }

    /// Position-resolved form of [`TableView::find_by_attrs`]: the overlay's
    /// [`Table::find_by_indices`], counted the same way.
    pub fn find_by_indices(&self, indices: &[usize], values: &[Value]) -> Vec<&'a Tuple> {
        table::find(self.base, self.delta, indices, values)
    }

    /// The overlay's [`Table::for_each_connected`]: every tuple of the
    /// merged view connected to `source`, visited in primary-key order.
    pub fn for_each_connected(
        &self,
        indices: &[usize],
        source: &Tuple,
        positions: &[usize],
        visit: impl FnMut(&'a Tuple),
    ) -> bool {
        table::connected(self.base, self.delta, indices, source, positions, visit)
    }

    /// Keys of tuples whose named attributes equal `values`.
    pub fn keys_by_attrs(&self, attrs: &[String], values: &[Value]) -> Result<Vec<Key>> {
        Ok(self
            .find_by_attrs(attrs, values)?
            .into_iter()
            .map(|t| t.key(self.base.schema()))
            .collect())
    }
}

/// Key-ordered merge iterator over a [`TableView`]: base rows not shadowed
/// by the delta, interleaved with the delta's upserts.
pub type TableViewScan<'a> =
    Merged<btree_map::Iter<'a, Key, Tuple>, btree_map::Iter<'a, Key, Option<Tuple>>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttributeDef;
    use crate::value::DataType;

    fn base() -> Database {
        let mut db = Database::new();
        db.create_relation(
            RelationSchema::new(
                "PEOPLE",
                vec![
                    AttributeDef::required("ssn", DataType::Int),
                    AttributeDef::required("name", DataType::Text),
                    AttributeDef::nullable("dept", DataType::Text),
                ],
                &["ssn"],
            )
            .unwrap(),
        )
        .unwrap();
        for (ssn, name, dept) in [(1, "ann", "CS"), (2, "bob", "EE"), (4, "dee", "CS")] {
            db.insert("PEOPLE", vec![ssn.into(), name.into(), dept.into()])
                .unwrap();
        }
        db
    }

    fn tuple(db: &Database, ssn: i64, name: &str, dept: &str) -> Tuple {
        let schema = db.table("PEOPLE").unwrap().schema().clone();
        Tuple::new(&schema, vec![ssn.into(), name.into(), dept.into()]).unwrap()
    }

    #[test]
    fn empty_overlay_reads_through() {
        let db = base();
        let overlay = DeltaDb::new(&db);
        let v = overlay.view("PEOPLE").unwrap();
        assert_eq!(v.len(), 3);
        assert!(v.contains_key(&Key::single(1)));
        let all: Vec<_> = v.scan().collect();
        assert_eq!(all.len(), 3);
        assert!(overlay.delta().is_empty());
        assert!(overlay.view("NOPE").is_err());
    }

    #[test]
    fn insert_delete_replace_merge() {
        let db = base();
        let mut overlay = DeltaDb::new(&db);
        overlay
            .apply(DbOp::Insert {
                relation: "PEOPLE".into(),
                tuple: tuple(&db, 3, "cam", "ME"),
            })
            .unwrap();
        overlay
            .apply(DbOp::Delete {
                relation: "PEOPLE".into(),
                key: Key::single(2),
            })
            .unwrap();
        overlay
            .apply(DbOp::Replace {
                relation: "PEOPLE".into(),
                old_key: Key::single(1),
                tuple: tuple(&db, 1, "ann", "EE"),
            })
            .unwrap();
        let v = overlay.view("PEOPLE").unwrap();
        assert_eq!(v.len(), 3);
        assert!(v.contains_key(&Key::single(3)));
        assert!(!v.contains_key(&Key::single(2)));
        assert_eq!(
            v.get(&Key::single(1)).unwrap().get(2),
            &Value::text("EE"),
            "replace shadows the base tuple"
        );
        // scan is merged and key-ordered: 1, 3, 4
        let keys: Vec<Key> = v.scan().map(|t| t.key(v.schema())).collect();
        assert_eq!(keys, vec![Key::single(1), Key::single(3), Key::single(4)]);
        // the base is untouched
        assert_eq!(db.table("PEOPLE").unwrap().len(), 3);
        assert!(db.table("PEOPLE").unwrap().contains_key(&Key::single(2)));
    }

    #[test]
    fn key_replacement_moves_tuple() {
        let db = base();
        let mut overlay = DeltaDb::new(&db);
        overlay
            .apply(DbOp::Replace {
                relation: "PEOPLE".into(),
                old_key: Key::single(2),
                tuple: tuple(&db, 9, "bob", "EE"),
            })
            .unwrap();
        let v = overlay.view("PEOPLE").unwrap();
        assert!(!v.contains_key(&Key::single(2)));
        assert!(v.contains_key(&Key::single(9)));
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn writes_pair_each_written_key_with_both_images() {
        let db = base();
        let mut overlay = DeltaDb::new(&db);
        assert_eq!(overlay.writes().count(), 0);
        let ops = [
            // 2 is re-keyed to 9, 3 comes and goes, 4 is written twice
            DbOp::Replace {
                relation: "PEOPLE".into(),
                old_key: Key::single(2),
                tuple: tuple(&db, 9, "bob", "EE"),
            },
            DbOp::Insert {
                relation: "PEOPLE".into(),
                tuple: tuple(&db, 3, "cam", "ME"),
            },
            DbOp::Delete {
                relation: "PEOPLE".into(),
                key: Key::single(3),
            },
            DbOp::Replace {
                relation: "PEOPLE".into(),
                old_key: Key::single(4),
                tuple: tuple(&db, 4, "dee", "EE"),
            },
            DbOp::Replace {
                relation: "PEOPLE".into(),
                old_key: Key::single(4),
                tuple: tuple(&db, 4, "dee", "ME"),
            },
        ];
        overlay.apply_all(ops.to_vec()).unwrap();
        let dept = |t: Option<&Tuple>| t.map(|t| t.get(2).to_string());
        let seen: Vec<_> = overlay
            .writes()
            .map(|w| (w.relation, w.key.clone(), dept(w.before), dept(w.after)))
            .collect();
        assert_eq!(
            seen,
            vec![
                ("PEOPLE", Key::single(2), Some("'EE'".into()), None),
                ("PEOPLE", Key::single(3), None, None),
                (
                    "PEOPLE",
                    Key::single(4),
                    Some("'CS'".into()),
                    Some("'ME'".into())
                ),
                ("PEOPLE", Key::single(9), None, Some("'EE'".into())),
            ]
        );
        // neither writes() nor a write's own check is a read of another
        // relation: PEOPLE is touched because it is written
        assert_eq!(overlay.touched_relations().len(), 1);
    }

    #[test]
    fn table_error_semantics_preserved() {
        let db = base();
        let mut overlay = DeltaDb::new(&db);
        // duplicate insert
        let err = overlay.apply(DbOp::Insert {
            relation: "PEOPLE".into(),
            tuple: tuple(&db, 1, "dup", "CS"),
        });
        assert!(matches!(err, Err(Error::KeyConflict { .. })));
        // delete of a missing key
        let err = overlay.apply(DbOp::Delete {
            relation: "PEOPLE".into(),
            key: Key::single(99),
        });
        assert!(matches!(err, Err(Error::NoSuchTuple { .. })));
        // replace colliding with a third live tuple
        let err = overlay.apply(DbOp::Replace {
            relation: "PEOPLE".into(),
            old_key: Key::single(1),
            tuple: tuple(&db, 2, "ann", "CS"),
        });
        assert!(matches!(err, Err(Error::KeyConflict { .. })));
        // delete then re-insert the same key is legal
        overlay
            .apply(DbOp::Delete {
                relation: "PEOPLE".into(),
                key: Key::single(1),
            })
            .unwrap();
        overlay
            .apply(DbOp::Insert {
                relation: "PEOPLE".into(),
                tuple: tuple(&db, 1, "ann2", "CS"),
            })
            .unwrap();
        assert_eq!(
            overlay
                .view("PEOPLE")
                .unwrap()
                .get(&Key::single(1))
                .unwrap()
                .get(1),
            &Value::text("ann2")
        );
    }

    #[test]
    fn what_the_overlay_accepted_installs() {
        let mut db = base();
        let plan = vec![
            DbOp::Insert {
                relation: "PEOPLE".into(),
                tuple: tuple(&db, 3, "cam", "ME"),
            },
            DbOp::Replace {
                relation: "PEOPLE".into(),
                old_key: Key::single(3),
                tuple: tuple(&db, 5, "cam", "ME"),
            },
            DbOp::Delete {
                relation: "PEOPLE".into(),
                key: Key::single(5),
            },
        ];
        let mut overlay = DeltaDb::new(&db);
        overlay.apply_all(plan.clone()).unwrap();
        assert_eq!(overlay.view("PEOPLE").unwrap().len(), 3);
        assert_eq!(overlay.ops_since(0), plan);
        // keys 3 and 5 came and went: two no-op removals, one stamp
        assert_eq!(overlay.delta().len(), 2);
        let v = db.version();
        let staged = overlay.finish();
        db.install(staged).unwrap();
        assert_eq!(db.table("PEOPLE").unwrap().len(), 3);
        assert_eq!(db.table_version("PEOPLE"), v + 1);
    }

    #[test]
    fn the_log_is_what_the_delta_grew_from() {
        let db = base();
        let insert = |ssn| DbOp::Insert {
            relation: "PEOPLE".into(),
            tuple: tuple(&db, ssn, "new", "CS"),
        };
        let mut overlay = DeltaDb::new(&db);
        let m0 = overlay.mark();
        overlay.apply(insert(7)).unwrap();
        let m1 = overlay.mark();
        // an empty log adopts a list; a grown one appends to it
        overlay.apply_all(vec![insert(8)]).unwrap();
        assert_eq!(overlay.ops_since(m0).len(), 2);
        assert_eq!(overlay.ops_since(m1), [insert(8)]);
        // a refused op changes neither the overlay nor the log
        assert!(overlay.apply(insert(1)).is_err());
        assert_eq!((overlay.mark(), overlay.delta().len()), (2, 2));
        // a list stops at its first refused op; what came before stays
        let err = overlay.apply_all(vec![insert(9), insert(2), insert(10)]);
        assert!(matches!(err, Err(Error::KeyConflict { .. })));
        assert_eq!(overlay.into_ops(), [insert(7), insert(8), insert(9)]);

        let list = vec![insert(11), insert(12)];
        let handed = list.as_ptr();
        let mut overlay = DeltaDb::new(&db);
        overlay.apply_all(list).unwrap();
        assert!(std::ptr::eq(overlay.into_ops().as_ptr(), handed));
    }

    #[test]
    fn merge_is_the_fold_of_the_ops_in_order() {
        let db = base();
        let schema = db.table("PEOPLE").unwrap().schema();
        let first = [
            DbOp::Insert {
                relation: "PEOPLE".into(),
                tuple: tuple(&db, 3, "cam", "ME"),
            },
            DbOp::Delete {
                relation: "PEOPLE".into(),
                key: Key::single(1),
            },
        ];
        let second = [
            DbOp::Delete {
                relation: "PEOPLE".into(),
                key: Key::single(3),
            },
            DbOp::Replace {
                relation: "PEOPLE".into(),
                old_key: Key::single(2),
                tuple: tuple(&db, 1, "bob", "EE"),
            },
        ];
        let fold = |ops: &[DbOp]| {
            let mut d = Delta::default();
            ops.iter().for_each(|op| d.record(schema, op));
            d
        };
        let mut merged = fold(&first);
        merged.merge(fold(&second));
        assert_eq!(merged, fold(&[first, second].concat()));
        let rows: Vec<_> = merged.relations().flat_map(|(_, rows)| rows).collect();
        assert_eq!(rows.len(), 3);
        assert!(rows[0].1.is_some() && rows[1].1.is_none() && rows[2].1.is_none());
    }

    #[test]
    fn find_by_attrs_merges_index_and_delta() {
        let mut db = base();
        db.table_mut("PEOPLE")
            .unwrap()
            .create_index(&["dept".to_string()])
            .unwrap();
        let mut overlay = DeltaDb::new(&db);
        overlay
            .apply(DbOp::Insert {
                relation: "PEOPLE".into(),
                tuple: tuple(&db, 3, "cam", "CS"),
            })
            .unwrap();
        overlay
            .apply(DbOp::Replace {
                relation: "PEOPLE".into(),
                old_key: Key::single(1),
                tuple: tuple(&db, 1, "ann", "EE"),
            })
            .unwrap();
        let v = overlay.view("PEOPLE").unwrap();
        let cs = v
            .find_by_attrs(&["dept".to_string()], &[Value::text("CS")])
            .unwrap();
        // base CS rows were {1, 4}; 1 moved to EE in the delta, 3 arrived
        let keys: Vec<Key> = cs.iter().map(|t| t.key(v.schema())).collect();
        assert_eq!(keys, vec![Key::single(3), Key::single(4)]);
        let ee_keys = v
            .keys_by_attrs(&["dept".to_string()], &[Value::text("EE")])
            .unwrap();
        assert_eq!(ee_keys, vec![Key::single(1), Key::single(2)]);
    }

    #[test]
    fn dbread_is_uniform_over_database_and_overlay() {
        fn count(db: &impl DbRead) -> usize {
            db.view("PEOPLE").unwrap().scan().count()
        }
        let db = base();
        let mut overlay = DeltaDb::new(&db);
        assert_eq!(count(&db), 3);
        assert_eq!(count(&overlay), 3);
        overlay
            .apply(DbOp::Delete {
                relation: "PEOPLE".into(),
                key: Key::single(4),
            })
            .unwrap();
        assert_eq!(count(&overlay), 2);
        assert_eq!(count(&db), 3);
    }

    #[test]
    fn overlay_counters_tick() {
        let db = base();
        let before = crate::stats::snapshot();
        let overlay = DeltaDb::new(&db);
        let _ = overlay.view("PEOPLE").unwrap();
        let after = crate::stats::snapshot();
        let d = before.delta(&after);
        assert!(d.overlay_created >= 1);
        assert!(d.overlay_reads >= 1);
    }
}
