//! Delta overlays: read views that layer planned-but-uncommitted [`DbOp`]s
//! over a borrowed [`Database`] without cloning any base table.
//!
//! The update translators of the view-object model (paper §5) make every
//! decision against the database *as it will look* once the ops planned so
//! far have been applied. The original implementation obtained that view
//! by cloning the whole database per translation; [`DeltaDb`] provides the
//! same reads in O(delta) extra space:
//!
//! - each relation carries a small [`TableDelta`] — a key-ordered map of
//!   upserts (`Some(tuple)`) and deletions (`None`) shadowing the base;
//! - [`TableView`] merges base table and delta on every read, preserving
//!   primary-key iteration order and the base table's access paths (base
//!   hits come from a secondary index or the primary key where
//!   [`Table::find_by_indices`] finds one; delta rows are scanned linearly,
//!   and the delta is by construction tiny relative to the base);
//! - [`DeltaDb::apply`] mirrors [`Table`]'s mutation semantics exactly —
//!   the same `KeyConflict` / `NoSuchTuple` errors fire against the merged
//!   view, so a plan that applies cleanly to the overlay applies cleanly
//!   to the base.
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
use crate::table::Table;
use crate::tuple::{Key, Tuple};
use crate::value::Value;
use std::collections::btree_map;
use std::collections::{BTreeMap, BTreeSet};
use std::iter::Peekable;
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
            delta: empty_delta(),
        })
    }
}

/// Pending changes to one relation: `Some` entries shadow (or add) a tuple
/// at that key, `None` entries delete it. Key-ordered, so merged scans
/// stay deterministic.
#[derive(Debug, Clone, Default)]
pub struct TableDelta {
    rows: BTreeMap<Key, Option<Tuple>>,
}

impl TableDelta {
    /// Number of keys this delta shadows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the delta shadows nothing.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
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

fn empty_delta() -> &'static TableDelta {
    static EMPTY: TableDelta = TableDelta {
        rows: BTreeMap::new(),
    };
    &EMPTY
}

/// A read view layering planned-but-uncommitted [`DbOp`]s over a borrowed
/// [`Database`]. Construction is O(1); no base table is ever cloned.
///
/// The overlay also records which relations were *read* through it (the
/// read set). Together with the delta's key set (the write set) that is
/// exactly what first-committer-wins conflict validation
/// ([`Database::check_unchanged`]) needs: a transaction planned over this
/// overlay depends on no relation outside `read_set ∪ write_set`.
#[derive(Debug)]
pub struct DeltaDb<'base> {
    base: &'base Database,
    deltas: BTreeMap<String, TableDelta>,
    /// Relations read through [`DeltaDb::view`]. Interior-mutable because
    /// reads take `&self`; a `Mutex` (not `RefCell`) keeps the overlay
    /// `Sync` for the parallel instantiation workers.
    reads: Mutex<BTreeSet<String>>,
}

impl Clone for DeltaDb<'_> {
    fn clone(&self) -> Self {
        DeltaDb {
            base: self.base,
            deltas: self.deltas.clone(),
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
            deltas: BTreeMap::new(),
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
            delta: self.deltas.get(relation).unwrap_or_else(|| empty_delta()),
        })
    }

    /// Relations read through this overlay so far.
    pub fn read_set(&self) -> BTreeSet<String> {
        self.reads.lock().expect("read-set lock").clone()
    }

    /// Relations with pending writes in this overlay.
    pub fn write_set(&self) -> BTreeSet<String> {
        self.deltas.keys().cloned().collect()
    }

    /// Every relation this overlay depends on: reads ∪ pending writes.
    /// A transaction planned over the overlay commutes with any commit
    /// that leaves all of these relations untouched.
    pub fn touched_relations(&self) -> BTreeSet<String> {
        let mut all = self.read_set();
        all.extend(self.deltas.keys().cloned());
        all
    }

    /// Total number of delta entries across all relations.
    pub fn delta_len(&self) -> usize {
        self.deltas.values().map(TableDelta::len).sum()
    }

    /// True when no op has been applied to the overlay.
    pub fn is_clean(&self) -> bool {
        self.deltas.values().all(TableDelta::is_empty)
    }

    /// Every key the overlay writes, in relation then key order, with its
    /// base pre-image and overlay post-image — the net effect of the
    /// applied ops, however many of them touched a key (a re-key shows as
    /// two writes: the old key deleted, the new key upserted). Reads the
    /// base directly, so it adds nothing to the read set.
    pub fn writes(&self) -> impl Iterator<Item = DeltaWrite<'_>> {
        self.deltas.iter().flat_map(|(relation, delta)| {
            let base = self
                .base
                .table(relation)
                .expect("apply() admits ops on base relations only");
            delta.rows.iter().map(move |(key, after)| DeltaWrite {
                relation,
                key,
                before: base.get(key),
                after: after.as_ref(),
            })
        })
    }

    /// Apply one planned op to the overlay. Error semantics mirror
    /// [`Table`] exactly, judged against the merged view: duplicate
    /// inserts and colliding replacements are `KeyConflict`, missing
    /// delete/replace targets are `NoSuchTuple`, and tuples are
    /// re-validated against the relation schema.
    pub fn apply(&mut self, op: &DbOp) -> Result<()> {
        match op {
            DbOp::Insert { relation, tuple } => {
                let schema = self.base.table(relation)?.schema();
                tuple.validate(schema)?;
                let key = tuple.key(schema);
                if self.view(relation)?.contains_key(&key) {
                    return Err(Error::KeyConflict {
                        relation: relation.clone(),
                        key: key.to_string(),
                    });
                }
                self.delta_mut(relation)
                    .rows
                    .insert(key, Some(tuple.clone()));
            }
            DbOp::Delete { relation, key } => {
                if !self.view(relation)?.contains_key(key) {
                    return Err(Error::NoSuchTuple {
                        relation: relation.clone(),
                        key: key.to_string(),
                    });
                }
                self.delta_mut(relation).rows.insert(key.clone(), None);
            }
            DbOp::Replace {
                relation,
                old_key,
                tuple,
            } => {
                let schema = self.base.table(relation)?.schema();
                tuple.validate(schema)?;
                let new_key = tuple.key(schema);
                let view = self.view(relation)?;
                if !view.contains_key(old_key) {
                    return Err(Error::NoSuchTuple {
                        relation: relation.clone(),
                        key: old_key.to_string(),
                    });
                }
                if new_key != *old_key && view.contains_key(&new_key) {
                    return Err(Error::KeyConflict {
                        relation: relation.clone(),
                        key: new_key.to_string(),
                    });
                }
                let delta = self.delta_mut(relation);
                if new_key != *old_key {
                    delta.rows.insert(old_key.clone(), None);
                }
                delta.rows.insert(new_key, Some(tuple.clone()));
            }
        }
        Ok(())
    }

    fn delta_mut(&mut self, relation: &str) -> &mut TableDelta {
        self.deltas.entry(relation.to_owned()).or_default()
    }
}

impl DbRead for DeltaDb<'_> {
    fn view(&self, relation: &str) -> Result<TableView<'_>> {
        DeltaDb::view(self, relation)
    }
}

/// A merged read view of one relation: the base [`Table`] shadowed by a
/// [`TableDelta`]. All accessors return references that borrow from the
/// underlying storage (lifetime `'a`), not from the view value, so views
/// are cheap to re-create per lookup.
#[derive(Debug, Clone, Copy)]
pub struct TableView<'a> {
    base: &'a Table,
    delta: &'a TableDelta,
}

impl<'a> TableView<'a> {
    /// The relation schema.
    pub fn schema(&self) -> &'a RelationSchema {
        self.base.schema()
    }

    /// Fetch by key through the delta.
    pub fn get(&self, key: &Key) -> Option<&'a Tuple> {
        match self.delta.rows.get(key) {
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
        for (key, entry) in &self.delta.rows {
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
        TableViewScan {
            base: self.base.rows.iter().peekable(),
            delta: self.delta.rows.iter().peekable(),
        }
    }

    /// Tuples whose named attributes equal `values`, in primary-key order.
    /// Base hits come by the access path [`Table::find_by_indices`]
    /// chooses (secondary index, primary key, or scan); delta rows are
    /// filtered linearly (the delta is small by construction).
    pub fn find_by_attrs(&self, attrs: &[String], values: &[Value]) -> Result<Vec<&'a Tuple>> {
        let indices = self.base.schema().indices_of(attrs)?;
        Ok(self.find_by_indices(&indices, values))
    }

    /// Position-resolved form of [`TableView::find_by_attrs`].
    pub fn find_by_indices(&self, indices: &[usize], values: &[Value]) -> Vec<&'a Tuple> {
        if self.delta.rows.is_empty() {
            return self.base.find_by_indices(indices, values);
        }
        let schema = self.base.schema();
        let mut hits: BTreeMap<Key, &'a Tuple> = BTreeMap::new();
        for t in self.base.find_by_indices(indices, values) {
            let key = t.key(schema);
            if !self.delta.rows.contains_key(&key) {
                hits.insert(key, t);
            }
        }
        for (key, entry) in &self.delta.rows {
            if let Some(t) = entry {
                if indices
                    .iter()
                    .zip(values.iter())
                    .all(|(&i, v)| t.get(i) == v)
                {
                    hits.insert(key.clone(), t);
                }
            }
        }
        hits.into_values().collect()
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
#[derive(Debug)]
pub struct TableViewScan<'a> {
    base: Peekable<btree_map::Iter<'a, Key, Tuple>>,
    delta: Peekable<btree_map::Iter<'a, Key, Option<Tuple>>>,
}

impl<'a> Iterator for TableViewScan<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        loop {
            match (self.base.peek(), self.delta.peek()) {
                (Some((bk, _)), Some((dk, _))) => {
                    if bk < dk {
                        return self.base.next().map(|(_, t)| t);
                    }
                    if bk == dk {
                        self.base.next();
                    }
                    match self.delta.next() {
                        Some((_, Some(t))) => return Some(t),
                        _ => continue, // deletion: emit nothing for this key
                    }
                }
                (Some(_), None) => return self.base.next().map(|(_, t)| t),
                (None, Some(_)) => match self.delta.next() {
                    Some((_, Some(t))) => return Some(t),
                    Some((_, None)) => continue,
                    None => return None,
                },
                (None, None) => return None,
            }
        }
    }
}

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
        assert!(overlay.is_clean());
        assert!(overlay.view("NOPE").is_err());
    }

    #[test]
    fn insert_delete_replace_merge() {
        let db = base();
        let mut overlay = DeltaDb::new(&db);
        overlay
            .apply(&DbOp::Insert {
                relation: "PEOPLE".into(),
                tuple: tuple(&db, 3, "cam", "ME"),
            })
            .unwrap();
        overlay
            .apply(&DbOp::Delete {
                relation: "PEOPLE".into(),
                key: Key::single(2),
            })
            .unwrap();
        overlay
            .apply(&DbOp::Replace {
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
            .apply(&DbOp::Replace {
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
        ops.iter().try_for_each(|op| overlay.apply(op)).unwrap();
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
        assert!(overlay.read_set().contains("PEOPLE")); // from apply(), not from writes()
    }

    #[test]
    fn table_error_semantics_preserved() {
        let db = base();
        let mut overlay = DeltaDb::new(&db);
        // duplicate insert
        let err = overlay.apply(&DbOp::Insert {
            relation: "PEOPLE".into(),
            tuple: tuple(&db, 1, "dup", "CS"),
        });
        assert!(matches!(err, Err(Error::KeyConflict { .. })));
        // delete of a missing key
        let err = overlay.apply(&DbOp::Delete {
            relation: "PEOPLE".into(),
            key: Key::single(99),
        });
        assert!(matches!(err, Err(Error::NoSuchTuple { .. })));
        // replace colliding with a third live tuple
        let err = overlay.apply(&DbOp::Replace {
            relation: "PEOPLE".into(),
            old_key: Key::single(1),
            tuple: tuple(&db, 2, "ann", "CS"),
        });
        assert!(matches!(err, Err(Error::KeyConflict { .. })));
        // delete then re-insert the same key is legal
        overlay
            .apply(&DbOp::Delete {
                relation: "PEOPLE".into(),
                key: Key::single(1),
            })
            .unwrap();
        overlay
            .apply(&DbOp::Insert {
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
    fn overlay_plan_applies_cleanly_to_base() {
        // whatever the overlay accepted must apply to the base verbatim
        let mut db = base();
        let ops = {
            let mut overlay = DeltaDb::new(&db);
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
            for op in &plan {
                overlay.apply(op).unwrap();
            }
            assert_eq!(overlay.view("PEOPLE").unwrap().len(), 3);
            plan
        };
        db.apply_all(&ops).unwrap();
        assert_eq!(db.table("PEOPLE").unwrap().len(), 3);
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
            .apply(&DbOp::Insert {
                relation: "PEOPLE".into(),
                tuple: tuple(&db, 3, "cam", "CS"),
            })
            .unwrap();
        overlay
            .apply(&DbOp::Replace {
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
            .apply(&DbOp::Delete {
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
