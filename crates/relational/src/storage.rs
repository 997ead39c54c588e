//! Snapshots: a serializable, storage-format-agnostic image of a database.
//!
//! A [`DatabaseSnapshot`] captures schemas, rows and secondary-index
//! definitions. It serializes through the in-tree JSON codec (see
//! [`crate::codec`]); the `vo-penguin` crate persists saved PENGUIN
//! systems this way — the paper's "only its definition is saved" catalog,
//! extended to data — and the `vo-store` crate writes snapshots as its
//! checkpoint files. A [`SnapshotDelta`] is only the on-disk spelling of
//! the [`Delta`] an overlay grows and [`Database::install`] commits: built
//! from one, restored through the table primitive `install` uses.

use crate::database::Database;
use crate::error::Result;
use crate::overlay::{Delta, KeyedRows};
use crate::schema::RelationSchema;
use crate::table::Table;
use crate::tuple::{Key, Tuple};

/// One relation's image: schema, rows in key order, and the attribute
/// lists of its secondary indexes.
///
/// Its rows are valid under its schema and in key order by construction:
/// they come from a table ([`DatabaseSnapshot::capture`]) or from the
/// decoder, which validates each row as it reads it and checks the order
/// at the key positions. No field lets another row in, so
/// [`DatabaseSnapshot::restore`] installs them as they are.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationSnapshot {
    pub(crate) schema: RelationSchema,
    /// All tuples, in strict key order.
    pub(crate) rows: Vec<Tuple>,
    /// Secondary indexes to rebuild, as attribute-name lists.
    pub indexes: Vec<Vec<String>>,
}

impl RelationSnapshot {
    /// The relation schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// The tuples, in key order.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &Tuple> {
        self.rows.iter()
    }
}

/// A whole-database image.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DatabaseSnapshot {
    /// Relations in name order.
    pub relations: Vec<RelationSnapshot>,
    /// The committed-transaction version the database reported when
    /// captured. [`DatabaseSnapshot::restore`] re-pins the rebuilt
    /// database at this version, so MVCC version stamps survive a
    /// checkpoint/recovery cycle.
    pub version: u64,
}

impl DatabaseSnapshot {
    /// Capture a snapshot of `db` without secondary-index definitions —
    /// the restored database answers the same queries but falls back to
    /// scans until indexes are recreated. Use
    /// [`DatabaseSnapshot::capture_full`] to carry them, or set
    /// [`RelationSnapshot::indexes`] to declare an explicit subset.
    pub fn capture(db: &Database) -> Self {
        let mut snapshot = Self::capture_full(db);
        for rel in &mut snapshot.relations {
            rel.indexes.clear();
        }
        snapshot
    }

    /// Capture a snapshot including every secondary index, so
    /// [`DatabaseSnapshot::restore`] rebuilds the database access-path
    /// equivalent, not just content-equivalent. This is the checkpoint
    /// image `vo-store` persists.
    pub fn capture_full(db: &Database) -> Self {
        let relations = (db.relation_names().into_iter())
            .map(|name| {
                let table = db.table(name).expect("listed");
                RelationSnapshot {
                    schema: table.schema().clone(),
                    rows: table.scan().cloned().collect(),
                    indexes: table.index_attrs(),
                }
            })
            .collect();
        DatabaseSnapshot {
            relations,
            version: db.version(),
        }
    }

    /// Rebuild the database the snapshot holds: its rows are installed as
    /// they were captured or decoded — valid and in key order, so
    /// each table is built from them in bulk — and the declared indexes are
    /// rebuilt.
    pub fn restore(self) -> Result<Database> {
        let mut db = Database::new();
        for rel in self.relations {
            let mut table = Table::from_sorted_rows(rel.schema, rel.rows);
            for idx in &rel.indexes {
                table.create_index(idx)?;
            }
            db.install_table(table)?;
        }
        db.restore_version(self.version);
        Ok(db)
    }

    /// Total tuples in the snapshot.
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(|r| r.rows.len()).sum()
    }
}

/// Net tuple-level changes to one relation since a base snapshot:
/// upserts (insert-or-replace) and deletes, each in key order, with any
/// key appearing in at most one of the two lists.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RelationDelta {
    /// The relation name.
    pub relation: String,
    /// Tuples to insert or replace, in key order.
    pub upserts: Vec<Tuple>,
    /// Keys to delete (a delete of an absent key is a no-op — the key
    /// was inserted and removed entirely inside the delta window).
    pub deletes: Vec<Key>,
}

/// Net changes between two database states — the incremental-checkpoint
/// artifact, as it is written: a [`Delta`] with each relation's keyed rows
/// split into the two lists of a [`RelationDelta`], pinned at a version.
/// Capture and apply are O(|delta|), independent of database size.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotDelta {
    /// Per-relation changes, in relation-name order.
    pub relations: Vec<RelationDelta>,
    /// The committed-transaction version after applying this delta;
    /// [`SnapshotDelta::apply_to`] re-pins the database at it.
    pub version: u64,
}

impl SnapshotDelta {
    /// Spell `delta` the way it is written to disk, pinned at `version`.
    pub fn new(delta: Delta, version: u64) -> Self {
        let spell = |(relation, rows): (String, KeyedRows)| RelationDelta {
            relation,
            deletes: (rows.iter().filter(|(_, row)| row.is_none()))
                .map(|(key, _)| key.clone())
                .collect(),
            upserts: rows.into_values().flatten().collect(),
        };
        SnapshotDelta {
            relations: delta.into_relations().map(spell).collect(),
            version,
        }
    }

    /// Total upserts + deletes across all relations.
    pub fn change_count(&self) -> usize {
        self.relations
            .iter()
            .map(|r| r.upserts.len() + r.deletes.len())
            .sum()
    }

    /// Apply the delta to a database previously restored from the base
    /// snapshot (or an earlier delta in the same chain), then re-pin the
    /// version. Deletes of absent keys are tolerated; upserts replace
    /// when the key exists and insert otherwise. Each relation's upserts
    /// are validated before its first row moves.
    pub fn apply_to(&self, db: &mut Database) -> Result<()> {
        for rel in &self.relations {
            let table = db.table_mut(&rel.relation)?;
            (rel.upserts.iter()).try_for_each(|t| t.validate(table.schema()))?;
            for key in &rel.deletes {
                table.take(key.values());
            }
            for t in &rel.upserts {
                table.put(t.clone());
            }
        }
        db.restore_version(self.version);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::json::{decode, encode};
    use crate::schema::AttributeDef;
    use crate::value::{DataType, Value};

    fn sample() -> Database {
        let mut db = Database::new();
        db.create_relation(
            RelationSchema::new(
                "T",
                vec![
                    AttributeDef::required("k", DataType::Int),
                    AttributeDef::nullable("v", DataType::Text),
                ],
                &["k"],
            )
            .unwrap(),
        )
        .unwrap();
        db.insert("T", vec![1.into(), "a".into()]).unwrap();
        db.insert("T", vec![2.into(), Value::Null]).unwrap();
        db
    }

    #[test]
    fn capture_restore_roundtrip() {
        let db = sample();
        let snap = DatabaseSnapshot::capture(&db);
        assert_eq!(snap.total_tuples(), 2);
        let restored = snap.restore().unwrap();
        assert_eq!(restored.relation_names(), db.relation_names());
        let a: Vec<_> = db.table("T").unwrap().scan().cloned().collect();
        let b: Vec<_> = restored.table("T").unwrap().scan().cloned().collect();
        assert_eq!(a, b);
        // the restored table holds the captured rows themselves
        let same = |(x, y): (&Tuple, &Tuple)| x.ptr_eq(y);
        assert!(a.iter().zip(&b).all(same));
    }

    #[test]
    fn declared_indexes_rebuilt() {
        let db = sample();
        let mut snap = DatabaseSnapshot::capture(&db);
        snap.relations[0].indexes = vec![vec!["v".to_string()]];
        let restored = snap.restore().unwrap();
        assert!(restored.table("T").unwrap().has_index(&["v".to_string()]));
    }

    #[test]
    fn declared_indexes_json_roundtrip_rebuilds_probing_indexes() {
        let mut db = sample();
        db.create_index("T", &["v".to_string()]).unwrap();
        let mut snap = DatabaseSnapshot::capture(&db);
        snap.relations[0].indexes = vec![vec!["v".to_string()]];
        // full JSON round trip, not just capture → restore
        let back: DatabaseSnapshot = decode(&encode(&snap)).unwrap();
        assert_eq!(snap, back);
        let restored = back.restore().unwrap();
        assert!(restored.table("T").unwrap().has_index(&["v".to_string()]));
        // and queries on the restored database take the index path: zero
        // fallback scans, one probe
        let (hits, taken) = vo_obs::trace::capture(|| {
            (restored.table("T").unwrap())
                .find_by_attrs(&["v".to_string()], &[Value::text("a")])
                .unwrap()
        });
        assert_eq!(hits.len(), 1);
        let count = |name| taken.count(name);
        assert_eq!(count("relational.fallback_scans"), 0, "{taken:?}");
        assert_eq!(count("relational.index_probes"), 1);
    }

    #[test]
    fn capture_full_carries_every_index() {
        let mut db = sample();
        db.create_index("T", &["v".to_string()]).unwrap();
        db.create_index("T", &["v".to_string(), "k".to_string()])
            .unwrap();
        let snap = DatabaseSnapshot::capture_full(&db);
        assert_eq!(
            snap.relations[0].indexes,
            db.table("T").unwrap().index_attrs()
        );
        let restored = snap.restore().unwrap();
        assert!(restored.table("T").unwrap().has_index(&["v".to_string()]));
        assert!(restored
            .table("T")
            .unwrap()
            .has_index(&["v".to_string(), "k".to_string()]));
        // plain capture stays index-free by contract
        assert!(DatabaseSnapshot::capture(&db).relations[0]
            .indexes
            .is_empty());
    }

    #[test]
    fn restore_pins_the_captured_version() {
        let mut db = sample();
        db.insert("T", vec![3.into(), "c".into()]).unwrap();
        db.insert("T", vec![4.into(), "d".into()]).unwrap();
        assert!(db.version() > 0);
        let snap = DatabaseSnapshot::capture(&db);
        assert_eq!(snap.version, db.version());
        // JSON round trip carries it; a document without the field (no
        // writer has produced one since versions were pinned) is a typed
        // error, never a silent version 0
        let back: DatabaseSnapshot = decode(&encode(&snap)).unwrap();
        assert_eq!(back.version, snap.version);
        let restored = snap.restore().unwrap();
        assert_eq!(restored.version(), db.version());
        assert_eq!(restored.table_version("T"), db.version());
        assert!(matches!(
            decode::<DatabaseSnapshot>(r#"{"relations":[]}"#),
            Err(Error::Serialization(_))
        ));
    }

    #[test]
    fn corrupt_snapshot_rejected_on_restore() {
        let text = encode(&DatabaseSnapshot::capture(&sample()));
        // a row written twice: a duplicate key
        let twice = text.replace(r#"[1,"a"]"#, r#"[1,"a"],[1,"a"]"#);
        assert_ne!(twice, text);
        assert!(matches!(
            decode::<DatabaseSnapshot>(&twice),
            Err(Error::KeyConflict { .. })
        ));
        // a row that does not conform to its schema
        let mistyped = text.replace(r#"[1,"a"]"#, r#"["1","a"]"#);
        assert!(matches!(
            decode::<DatabaseSnapshot>(&mistyped),
            Err(Error::TypeMismatch { .. })
        ));
    }

    fn wide_sample(n: i64) -> Database {
        let mut db = sample();
        db.create_index("T", &["v".to_string()]).unwrap();
        for i in 10..10 + n {
            db.insert("T", vec![i.into(), format!("v{i}").into()])
                .unwrap();
        }
        db
    }

    #[test]
    fn full_capture_restores_indexes_and_reads_back() {
        let db = wide_sample(37);
        let baseline = DatabaseSnapshot::capture_full(&db);
        let restored = baseline.clone().restore().unwrap();
        assert_eq!(DatabaseSnapshot::capture_full(&restored), baseline);
        assert!(restored.table("T").unwrap().has_index(&["v".to_string()]));
        crate::json::assert_roundtrip(&baseline);
    }

    #[test]
    fn delta_folds_ops_to_net_changes() {
        let mut db = wide_sample(4);
        let mut folded = Delta::default();
        assert!(folded.is_empty());
        let base = DatabaseSnapshot::capture_full(&db);
        // insert then replace (same key), insert then delete, replace
        // moving a key, plain delete
        let ops = vec![
            crate::database::DbOp::Insert {
                relation: "T".into(),
                tuple: Tuple::raw(vec![100.into(), "x".into()]),
            },
            crate::database::DbOp::Replace {
                relation: "T".into(),
                old_key: Key::new(vec![100.into()]),
                tuple: Tuple::raw(vec![100.into(), "y".into()]),
            },
            crate::database::DbOp::Insert {
                relation: "T".into(),
                tuple: Tuple::raw(vec![101.into(), "gone".into()]),
            },
            crate::database::DbOp::Delete {
                relation: "T".into(),
                key: Key::new(vec![101.into()]),
            },
            crate::database::DbOp::Replace {
                relation: "T".into(),
                old_key: Key::new(vec![10.into()]),
                tuple: Tuple::raw(vec![200.into(), "moved".into()]),
            },
            crate::database::DbOp::Delete {
                relation: "T".into(),
                key: Key::new(vec![11.into()]),
            },
        ];
        for op in &ops {
            db.apply(op).unwrap();
            folded.record(db.table("T").unwrap().schema(), op);
        }
        assert_eq!(folded.len(), 5);
        let delta = SnapshotDelta::new(folded, db.version());
        // net: upsert 100 ("y"), upsert 200, delete 10, delete 11,
        // delete 101 (insert+delete still records the delete — applying
        // it to the base is a tolerated no-op)
        assert_eq!(delta.relations.len(), 1);
        assert_eq!(delta.relations[0].upserts.len(), 2);
        assert_eq!(delta.relations[0].deletes.len(), 3);

        // base + delta == live state, and the codec round-trips it
        let mut rebuilt = base.restore().unwrap();
        let text = encode(&delta);
        let decoded: SnapshotDelta = decode(&text).unwrap();
        assert_eq!(decoded, delta);
        decoded.apply_to(&mut rebuilt).unwrap();
        assert_eq!(
            DatabaseSnapshot::capture_full(&rebuilt),
            DatabaseSnapshot::capture_full(&db)
        );
        assert_eq!(rebuilt.version(), db.version());
    }
}
