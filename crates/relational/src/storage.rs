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
use crate::error::{Error, Result};
use crate::json::{Json, JsonCodec};
use crate::overlay::{Delta, KeyedRows};
use crate::schema::RelationSchema;
use crate::table::Table;
use crate::tuple::{Key, Tuple};
use vo_exec::map_chunks;

/// One relation's image: schema, rows in key order, and the attribute
/// lists of its secondary indexes.
#[derive(Debug, Clone, PartialEq)]
pub struct RelationSnapshot {
    /// The relation schema.
    pub schema: RelationSchema,
    /// All tuples, in key order.
    pub rows: Vec<Tuple>,
    /// Secondary indexes to rebuild, as attribute-name lists.
    pub indexes: Vec<Vec<String>>,
}

impl RelationSnapshot {
    /// Append the compact encoding, each key-range partition of the rows
    /// rendered independently over `workers` threads.
    fn write_compact(&self, out: &mut String, workers: usize) {
        self.doc(Json::Null).write_compact_with(out, "rows", |out| {
            let fragments = map_chunks(&self.rows, workers.max(1), |_, chunk| {
                let mut s = String::new();
                for (j, t) in chunk.iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    s.push_str(&t.to_json().compact());
                }
                Ok::<_, Error>(vec![s])
            })
            .expect("row encoding cannot fail");
            out.push('[');
            out.push_str(&fragments.join(","));
            out.push(']');
        });
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
        let mut relations = Vec::new();
        for name in db.relation_names() {
            let table = db.table(name).expect("listed");
            relations.push(RelationSnapshot {
                schema: table.schema().clone(),
                rows: table.scan().cloned().collect(),
                indexes: Vec::new(),
            });
        }
        DatabaseSnapshot {
            relations,
            version: db.version(),
        }
    }

    /// Capture a snapshot including every secondary index, so
    /// [`DatabaseSnapshot::restore`] rebuilds the database access-path
    /// equivalent, not just content-equivalent. This is the checkpoint
    /// image `vo-store` persists.
    pub fn capture_full(db: &Database) -> Self {
        Self::capture_full_with(db, 1)
    }

    /// [`DatabaseSnapshot::capture_full`] fanned out over `workers`
    /// threads: each relation is split into contiguous key-range
    /// partitions ([`Table::key_ranges`]) and the partitions are captured
    /// through [`vo_exec::map_chunks`]. The merge concatenates partitions
    /// in key order, so the snapshot is identical at every worker count.
    pub fn capture_full_with(db: &Database, workers: usize) -> Self {
        let mut relations = Vec::new();
        for name in db.relation_names() {
            let table = db.table(name).expect("listed");
            let ranges = table.key_ranges(workers.max(1));
            let rows: Vec<Tuple> = map_chunks(&ranges, workers.max(1), |_, chunk| {
                Ok::<_, Error>(
                    chunk
                        .iter()
                        .flat_map(|r| table.scan_range(r).cloned())
                        .collect(),
                )
            })
            .expect("range capture cannot fail");
            relations.push(RelationSnapshot {
                schema: table.schema().clone(),
                rows,
                indexes: table.index_attrs(),
            });
        }
        DatabaseSnapshot {
            relations,
            version: db.version(),
        }
    }

    /// Rebuild a database from the snapshot (validating every tuple and
    /// rebuilding declared indexes).
    pub fn restore(&self) -> Result<Database> {
        self.restore_with(1)
    }

    /// [`DatabaseSnapshot::restore`] with tuple validation fanned out
    /// over `workers` threads per relation (snapshot rows are contiguous
    /// key-range partitions, so chunks validate independently). The
    /// rebuilt database is identical at every worker count.
    pub fn restore_with(&self, workers: usize) -> Result<Database> {
        let mut db = Database::new();
        for rel in &self.relations {
            let entries: Vec<(Key, Tuple)> = map_chunks(&rel.rows, workers.max(1), |_, chunk| {
                chunk
                    .iter()
                    .map(|t| {
                        t.validate(&rel.schema)?;
                        Ok::<_, Error>((t.key(&rel.schema), t.clone()))
                    })
                    .collect()
            })?;
            let sorted = entries.windows(2).all(|w| w[0].0 < w[1].0);
            let mut table = if sorted {
                Table::from_sorted_rows(rel.schema.clone(), entries)
            } else {
                // Rows not in strict key order (a hand-built or legacy
                // snapshot): take the per-tuple insert path, which
                // reports duplicates precisely.
                let mut t = Table::new(rel.schema.clone());
                for (_, tuple) in entries {
                    t.insert(tuple)?;
                }
                t
            };
            for idx in &rel.indexes {
                table.create_index(idx)?;
            }
            db.install_table(table)?;
        }
        db.restore_version(self.version);
        Ok(db)
    }

    /// Compact-JSON encoding, byte-identical to
    /// `self.to_json().compact()` without building the whole document
    /// tree: the shape comes from the same definition the codec uses,
    /// and each relation's rows are rendered per key-range partition over
    /// `workers` threads and joined in key order.
    pub fn encode_compact(&self, workers: usize) -> String {
        let mut out = String::new();
        self.doc(Json::Null)
            .write_compact_with(&mut out, "relations", |out| {
                out.push('[');
                for (i, rel) in self.relations.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    rel.write_compact(out, workers);
                }
                out.push(']');
            });
        out
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
                table.put(key.clone(), None);
            }
            for t in &rel.upserts {
                table.put(t.key(table.schema()), Some(t.clone()));
            }
        }
        db.restore_version(self.version);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        use crate::json::parse;
        let mut db = sample();
        db.create_index("T", &["v".to_string()]).unwrap();
        let mut snap = DatabaseSnapshot::capture(&db);
        snap.relations[0].indexes = vec![vec!["v".to_string()]];
        // full JSON round trip, not just capture → restore
        let text = snap.to_json().pretty();
        let back = DatabaseSnapshot::from_json(&parse(&text).unwrap()).unwrap();
        assert_eq!(snap, back);
        let restored = back.restore().unwrap();
        assert!(restored.table("T").unwrap().has_index(&["v".to_string()]));
        // and queries on the restored database take the index path: zero
        // fallback scans, at least one probe
        let before = crate::stats::snapshot();
        let hits = restored
            .table("T")
            .unwrap()
            .find_by_attrs(&["v".to_string()], &[Value::text("a")])
            .unwrap();
        let d = before.delta(&crate::stats::snapshot());
        assert_eq!(hits.len(), 1);
        assert_eq!(d.fallback_scans, 0, "restored index must be probed: {d}");
        assert!(d.index_probes >= 1);
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
        let restored = snap.restore().unwrap();
        assert_eq!(restored.version(), db.version());
        assert_eq!(restored.table_version("T"), db.version());
        // JSON round trip carries it; a document without the field (no
        // writer has produced one since versions were pinned) is a typed
        // error, never a silent version 0
        use crate::json::parse;
        let back = DatabaseSnapshot::from_json(&parse(&snap.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(back.version, snap.version);
        let versionless = Json::obj(vec![("relations", Json::Arr(vec![]))]);
        assert!(matches!(
            DatabaseSnapshot::from_json(&versionless),
            Err(Error::Serialization(_))
        ));
    }

    #[test]
    fn corrupt_snapshot_rejected_on_restore() {
        let db = sample();
        let mut snap = DatabaseSnapshot::capture(&db);
        // duplicate key
        let t = snap.relations[0].rows[0].clone();
        snap.relations[0].rows.push(t);
        assert!(snap.restore().is_err());
        // and at every worker count
        assert!(snap.restore_with(3).is_err());
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
    fn key_ranges_cover_and_partition_the_key_space() {
        let db = wide_sample(23);
        let table = db.table("T").unwrap();
        for parts in [1, 2, 3, 7, 64] {
            let ranges = table.key_ranges(parts);
            assert!(ranges.len() <= parts.max(1));
            assert_eq!(ranges.first().unwrap().start, None);
            assert_eq!(ranges.last().unwrap().end, None);
            let stitched: Vec<_> = ranges
                .iter()
                .flat_map(|r| table.scan_range(r).cloned())
                .collect();
            let full: Vec<_> = table.scan().cloned().collect();
            assert_eq!(stitched, full, "parts={parts}");
        }
    }

    #[test]
    fn partitioned_capture_restore_and_encode_are_worker_count_invariant() {
        let db = wide_sample(37);
        let baseline = DatabaseSnapshot::capture_full(&db);
        let text = baseline.to_json().compact();
        for workers in [1, 2, 3, 8] {
            assert_eq!(DatabaseSnapshot::capture_full_with(&db, workers), baseline);
            assert_eq!(baseline.encode_compact(workers), text, "workers={workers}");
            let restored = baseline.restore_with(workers).unwrap();
            assert_eq!(
                DatabaseSnapshot::capture_full(&restored),
                baseline,
                "workers={workers}"
            );
            assert!(restored.table("T").unwrap().has_index(&["v".to_string()]));
        }
        // and either decoder reads it back
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
        let text = delta.to_json().compact();
        let decoded = SnapshotDelta::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(decoded, delta);
        decoded.apply_to(&mut rebuilt).unwrap();
        assert_eq!(
            DatabaseSnapshot::capture_full(&rebuilt),
            DatabaseSnapshot::capture_full(&db)
        );
        assert_eq!(rebuilt.version(), db.version());
    }
}
