//! Keyed table storage with secondary indexes.

use crate::error::{Error, Result};
use crate::predicate::Expr;
use crate::schema::RelationSchema;
use crate::tuple::{Key, Tuple};
use crate::value::Value;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::iter::Peekable;
use std::ops::Bound;

/// One stored relation: a primary-key ordered map of tuples plus optional
/// secondary indexes.
///
/// All public mutations re-validate tuples against the schema and keep
/// secondary indexes consistent. The primary index is a `BTreeMap` so scans
/// are deterministic, keeping query results and experiment output stable.
#[derive(Debug, Clone)]
pub struct Table {
    schema: RelationSchema,
    /// Crate-visible so [`crate::overlay`] can build merged scan iterators
    /// without copying rows.
    pub(crate) rows: BTreeMap<Key, Tuple>,
    /// Secondary indexes, keyed by the indexed attribute positions.
    indexes: HashMap<Vec<usize>, SecondaryIndex>,
}

// Tables (rows + secondary indexes) are probed concurrently by the
// parallel instantiation workers through `&Database`.
const _: fn() = vo_exec::assert_send_sync::<Table>;

/// A contiguous primary-key range: `start` inclusive, `end` exclusive,
/// `None` meaning unbounded on that side. Produced by
/// [`Table::key_ranges`] and consumed by [`Table::scan_range`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyRange {
    /// Inclusive lower bound, or the start of the key space.
    pub start: Option<Key>,
    /// Exclusive upper bound, or the end of the key space.
    pub end: Option<Key>,
}

/// One secondary index: indexed values to the keys of the tuples holding
/// them.
type SecondaryIndex = BTreeMap<Vec<Value>, BTreeSet<Key>>;

/// Net changes to one relation, keyed like its rows: `Some` shadows (or
/// adds) a tuple at that key, `None` deletes it. Key-ordered, so a lookup
/// through an overlay is the same point or range lookup as in the table,
/// and merged reads stay deterministic.
pub type KeyedRows = BTreeMap<Key, Option<Tuple>>;

/// What shadows a bare table: nothing.
pub(crate) static NO_ROWS: KeyedRows = BTreeMap::new();

/// The rows of a key-ordered map whose keys start with `prefix`: one
/// contiguous run, found by one descent.
fn key_run<'m, 'p, V>(
    rows: &'m BTreeMap<Key, V>,
    prefix: &'p [Value],
) -> impl Iterator<Item = (&'m Key, &'m V)> + use<'m, 'p, V> {
    rows.range::<[Value], _>((Bound::Included(prefix), Bound::Unbounded))
        .take_while(move |(key, _)| key.0.starts_with(prefix))
}

/// Key-ordered merge of a table's rows with the net changes shadowing
/// them: base rows the delta does not write, interleaved with the delta's
/// upserts. Both inputs ascend by key.
pub struct Merged<B: Iterator, D: Iterator> {
    base: Peekable<B>,
    delta: Peekable<D>,
}

pub(crate) fn merged<'a, B, D>(base: B, delta: D) -> Merged<B, D>
where
    B: Iterator<Item = (&'a Key, &'a Tuple)>,
    D: Iterator<Item = (&'a Key, &'a Option<Tuple>)>,
{
    Merged {
        base: base.peekable(),
        delta: delta.peekable(),
    }
}

impl<'a, B, D> Iterator for Merged<B, D>
where
    B: Iterator<Item = (&'a Key, &'a Tuple)>,
    D: Iterator<Item = (&'a Key, &'a Option<Tuple>)>,
{
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        loop {
            let shadowed = match (self.base.peek(), self.delta.peek()) {
                (Some((bk, _)), Some((dk, _))) if bk < dk => None,
                (Some((bk, _)), Some((dk, _))) => Some(bk == dk),
                (Some(_), None) => None,
                (None, Some(_)) => Some(false),
                (None, None) => return None,
            };
            let Some(shadowed) = shadowed else {
                return self.base.next().map(|(_, t)| t);
            };
            if shadowed {
                self.base.next();
            }
            // a deletion emits nothing for its key
            if let Some((_, Some(t))) = self.delta.next() {
                return Some(t);
            }
        }
    }
}

/// An index-backed equality access path into one table — and through the
/// net changes shadowing it, when it was reached through an overlay —
/// chosen by [`Table::index_at`].
#[derive(Debug)]
pub struct IndexProbe<'t, 'i> {
    table: &'t Table,
    delta: &'t KeyedRows,
    /// The probed positions, in the order probe values come in.
    indices: &'i [usize],
    path: AccessPath<'t>,
    /// Where a probe of several attributes is gathered, probe after probe.
    buf: Vec<Value>,
}

#[derive(Debug, Clone, Copy)]
enum AccessPath<'t> {
    /// The probed positions are the key's: one primary-index lookup.
    Key,
    /// They are the key's leading positions: one run of the primary index.
    KeyRange,
    Secondary(&'t SecondaryIndex),
}

impl<'t> IndexProbe<'t, '_> {
    /// The same path through `delta`'s net changes over the table.
    pub(crate) fn over(mut self, delta: &'t KeyedRows) -> Self {
        self.delta = delta;
        self
    }

    /// The path's name in profiles and `EXPLAIN ANALYZE`.
    pub fn label(&self) -> &'static str {
        match self.path {
            AccessPath::KeyRange => "key range",
            AccessPath::Key | AccessPath::Secondary(_) => "index probe",
        }
    }

    /// Hand `visit` every tuple connected to `source`: those whose probed
    /// attributes equal `source`'s values at `positions`, in primary-key
    /// order. False — and nothing visited — when one of those values is
    /// NULL, which never connects (Definition 2.1). One connecting value
    /// is borrowed from `source`, several share this probe's buffer:
    /// nothing is allocated per probe. Not counted (see
    /// [`Table::index_at`]).
    pub fn visit(
        &mut self,
        source: &Tuple,
        positions: &[usize],
        visit: impl FnMut(&'t Tuple),
    ) -> bool {
        debug_assert_eq!(positions.len(), self.indices.len());
        if source.has_null_at(positions) {
            return false;
        }
        self.each(|k| source.get(positions[k]), visit);
        true
    }

    /// Every tuple whose probed attributes equal `value(0..)`, in
    /// primary-key order; plain equality, NULL included.
    fn each<'v>(&mut self, value: impl Fn(usize) -> &'v Value, mut visit: impl FnMut(&'t Tuple)) {
        let (table, delta, indices) = (self.table, self.delta, self.indices);
        // the probe in the order the path reads it: the key's, or the
        // secondary index's own
        let probe: &[Value] = if indices.len() == 1 {
            std::slice::from_ref(value(0))
        } else {
            self.buf.clear();
            match self.path {
                AccessPath::Secondary(_) => {
                    self.buf
                        .extend((0..indices.len()).map(|k| value(k).clone()));
                }
                AccessPath::Key | AccessPath::KeyRange => {
                    let leading = &table.schema.key_indices()[..indices.len()];
                    self.buf.extend(leading.iter().map(|k| {
                        let at = indices.iter().position(|i| i == k);
                        value(at.expect("index_at found every leading key position")).clone()
                    }));
                }
            }
            &self.buf
        };
        match self.path {
            AccessPath::Key => match delta.get(probe) {
                Some(written) => written.iter().for_each(visit),
                None => table.rows.get(probe).into_iter().for_each(visit),
            },
            AccessPath::KeyRange => {
                merged(key_run(&table.rows, probe), key_run(delta, probe)).for_each(visit);
            }
            AccessPath::Secondary(index) => {
                let hits = (index.get(probe).into_iter().flatten())
                    .filter_map(|key| table.rows.get_key_value(key));
                if delta.is_empty() {
                    hits.for_each(|(_, t)| visit(t));
                } else {
                    // a written row shadows the indexed one at its key
                    // whether or not it still matches
                    merged(hits, delta.iter())
                        .filter(|t| indices.iter().zip(probe).all(|(&i, v)| t.get(i) == v))
                        .for_each(visit);
                }
            }
        }
    }
}

/// The one body of every counted equality lookup, on a table or through
/// an overlay ([`Table::find_by_indices`], [`Table::for_each_connected`]
/// and their [`crate::overlay::TableView`] twins): the path
/// [`Table::index_at`] chooses, counted as one index probe, else a scan of
/// the merged rows, counted as a fallback.
pub(crate) fn lookup<'t, 'v>(
    table: &'t Table,
    delta: &'t KeyedRows,
    indices: &[usize],
    value: impl Fn(usize) -> &'v Value,
    visit: impl FnMut(&'t Tuple),
) {
    if let Some(index) = table.index_at(indices) {
        crate::stats::count_index_probe();
        index.over(delta).each(value, visit);
        return;
    }
    crate::stats::count_fallback_scan();
    merged(table.rows.iter(), delta.iter())
        .filter(|t| {
            indices
                .iter()
                .enumerate()
                .all(|(k, &i)| t.get(i) == value(k))
        })
        .for_each(visit);
}

/// [`lookup`] by a list of values, collected. Positions pair with values
/// as `zip` pairs them: a list cut short probes the positions it covers.
pub(crate) fn find<'t>(
    table: &'t Table,
    delta: &'t KeyedRows,
    indices: &[usize],
    values: &[Value],
) -> Vec<&'t Tuple> {
    let indices = &indices[..indices.len().min(values.len())];
    let mut found = Vec::new();
    lookup(table, delta, indices, |k| &values[k], |t| found.push(t));
    found
}

/// [`lookup`] by the values a tuple connects through. False when one of
/// them is NULL, which never connects (Definition 2.1): nothing is looked
/// up and nothing counted.
pub(crate) fn connected<'t>(
    table: &'t Table,
    delta: &'t KeyedRows,
    indices: &[usize],
    source: &Tuple,
    positions: &[usize],
    visit: impl FnMut(&'t Tuple),
) -> bool {
    debug_assert_eq!(positions.len(), indices.len());
    let connects = !source.has_null_at(positions);
    if connects {
        lookup(table, delta, indices, |k| source.get(positions[k]), visit);
    }
    connects
}

impl Table {
    /// An empty table for `schema`.
    pub fn new(schema: RelationSchema) -> Self {
        Table {
            schema,
            rows: BTreeMap::new(),
            indexes: HashMap::new(),
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &RelationSchema {
        &self.schema
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert a tuple; rejects key conflicts.
    pub fn insert(&mut self, tuple: Tuple) -> Result<()> {
        tuple.validate(&self.schema)?;
        let key = tuple.key(&self.schema);
        if self.rows.contains_key(&key) {
            return Err(Error::KeyConflict {
                relation: self.schema.name().to_owned(),
                key: key.to_string(),
            });
        }
        self.put(key, Some(tuple));
        Ok(())
    }

    /// Delete by key, returning the removed tuple.
    pub fn delete(&mut self, key: &Key) -> Result<Tuple> {
        match self.rows.remove(key) {
            Some(t) => {
                Self::index_remove(&mut self.indexes, key, &t);
                Ok(t)
            }
            None => Err(Error::NoSuchTuple {
                relation: self.schema.name().to_owned(),
                key: key.to_string(),
            }),
        }
    }

    /// Replace the tuple at `old_key` with `new` (whose key may differ).
    /// Rejects when the new key would collide with a third tuple. Returns
    /// the displaced tuple.
    pub fn replace(&mut self, old_key: &Key, new: Tuple) -> Result<Tuple> {
        new.validate(&self.schema)?;
        let new_key = new.key(&self.schema);
        if !self.rows.contains_key(old_key) {
            return Err(Error::NoSuchTuple {
                relation: self.schema.name().to_owned(),
                key: old_key.to_string(),
            });
        }
        if new_key != *old_key && self.rows.contains_key(&new_key) {
            return Err(Error::KeyConflict {
                relation: self.schema.name().to_owned(),
                key: new_key.to_string(),
            });
        }
        let old = self.rows.remove(old_key).expect("checked above");
        Self::index_remove(&mut self.indexes, old_key, &old);
        self.put(new_key, Some(new));
        Ok(old)
    }

    /// Set the row at `key` — upsert `Some(row)`, remove on `None` (an
    /// absent key is tolerated) — keeping secondary indexes: the one way a
    /// net delta reaches a table, from [`crate::database::Database::install`]
    /// and [`crate::storage::SnapshotDelta::apply_to`]. Both validate every
    /// row *before* their first `put`, so a refusal never leaves a table
    /// half-written; `row` must be valid and keyed `key`.
    pub(crate) fn put(&mut self, key: Key, row: Option<Tuple>) {
        debug_assert!(row.as_ref().is_none_or(|t| t.key(&self.schema) == key));
        match (self.rows.entry(key), row) {
            (Entry::Occupied(mut held), Some(row)) => {
                let old = std::mem::replace(held.get_mut(), row);
                Self::index_remove(&mut self.indexes, held.key(), &old);
                Self::index_add(&mut self.indexes, held.key(), held.get());
            }
            (Entry::Occupied(held), None) => {
                let (key, old) = held.remove_entry();
                Self::index_remove(&mut self.indexes, &key, &old);
            }
            (Entry::Vacant(free), Some(row)) => {
                Self::index_add(&mut self.indexes, free.key(), &row);
                free.insert(row);
            }
            (Entry::Vacant(_), None) => {}
        }
    }

    /// Fetch by key.
    pub fn get(&self, key: &Key) -> Option<&Tuple> {
        self.rows.get(key)
    }

    /// True when a tuple with this key exists.
    pub fn contains_key(&self, key: &Key) -> bool {
        self.rows.contains_key(key)
    }

    /// Iterate all tuples in key order.
    pub fn scan(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.values()
    }

    /// Iterate `(key, tuple)` pairs in key order.
    pub fn scan_entries(&self) -> impl Iterator<Item = (&Key, &Tuple)> {
        self.rows.iter()
    }

    /// Split the primary-key order into `parts` contiguous, near-equal
    /// key ranges — `vo-exec`'s pivot partitioning generalized to
    /// storage. Ranges are half-open (`start` inclusive, `end`
    /// exclusive), cover the whole key space (first/last are unbounded),
    /// and concatenating [`Table::scan_range`] over them in order yields
    /// exactly [`Table::scan`]. Checkpoint capture and encoding fan out
    /// one worker per range; because the ranges are a
    /// function of the key order alone, the merged output is
    /// byte-identical at every worker count.
    pub fn key_ranges(&self, parts: usize) -> Vec<KeyRange> {
        let slices = vo_exec::partition(self.rows.len(), parts.max(1));
        if slices.is_empty() {
            return vec![KeyRange {
                start: None,
                end: None,
            }];
        }
        let keys: Vec<&Key> = self.rows.keys().collect();
        slices
            .iter()
            .map(|r| KeyRange {
                start: if r.start == 0 {
                    None
                } else {
                    Some(keys[r.start].clone())
                },
                end: if r.end >= keys.len() {
                    None
                } else {
                    Some(keys[r.end].clone())
                },
            })
            .collect()
    }

    /// Iterate tuples whose key falls inside `range`, in key order.
    pub fn scan_range<'a>(&'a self, range: &KeyRange) -> impl Iterator<Item = &'a Tuple> + 'a {
        use std::ops::Bound;
        let lo = match &range.start {
            Some(k) => Bound::Included(k.clone()),
            None => Bound::Unbounded,
        };
        let hi = match &range.end {
            Some(k) => Bound::Excluded(k.clone()),
            None => Bound::Unbounded,
        };
        self.rows.range((lo, hi)).map(|(_, t)| t)
    }

    /// Bulk-build a table from already-validated rows in strictly
    /// ascending key order (the partitioned snapshot-restore path — the
    /// caller validated each tuple and verified the order). No secondary
    /// indexes; create them afterwards.
    pub(crate) fn from_sorted_rows(schema: RelationSchema, entries: Vec<(Key, Tuple)>) -> Table {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0));
        Table {
            schema,
            rows: entries.into_iter().collect(),
            indexes: HashMap::new(),
        }
    }

    /// Tuples whose named attributes equal `values`, by the access path
    /// [`Table::find_by_indices`] chooses.
    pub fn find_by_attrs(&self, attrs: &[String], values: &[Value]) -> Result<Vec<&Tuple>> {
        let indices = self.schema.indices_of(attrs)?;
        Ok(self.find_by_indices(&indices, values))
    }

    /// Tuples whose attributes at `indices` equal `values` — the
    /// position-resolved form of [`Table::find_by_attrs`], for callers that
    /// resolve names once and probe many times.
    ///
    /// An index lookup when [`Table::index_at`] finds an access path
    /// (counted as one index probe), else a scan of the relation, counted
    /// as a fallback. Either way tuples come back in primary-key order.
    /// [`Table::find_by_attrs`], [`Table::keys_by_attrs`],
    /// [`Table::for_each_connected`] and the overlay's
    /// [`crate::overlay::TableView`] all come through one lookup.
    pub fn find_by_indices(&self, indices: &[usize], values: &[Value]) -> Vec<&Tuple> {
        find(self, &NO_ROWS, indices, values)
    }

    /// Hand `visit` every tuple connected to `source` — those whose
    /// attributes at `indices` equal `source`'s values at `positions` — in
    /// primary-key order, by the same counted lookup as
    /// [`Table::find_by_indices`], without copying the values or
    /// collecting the matches. False when a NULL among the values kept it
    /// from looking: NULL connects nothing (Definition 2.1).
    pub fn for_each_connected<'t>(
        &'t self,
        indices: &[usize],
        source: &Tuple,
        positions: &[usize],
        visit: impl FnMut(&'t Tuple),
    ) -> bool {
        connected(self, &NO_ROWS, indices, source, positions, visit)
    }

    /// The one place an equality lookup chooses its access path, resolved
    /// once for any number of probes:
    ///
    /// 1. the primary index, when `indices` are the key positions in any
    ///    order — the parent end of every structural connection is its
    ///    relation's key (Definitions 2.2–2.4), so looking up an owner, a
    ///    general entity or a referenced tuple needs no index of its own;
    /// 2. else a *range* of the primary index, when `indices` are the
    ///    key's leading positions (in any order): rows are stored in key
    ///    order, so the tuples sharing a key prefix are one contiguous run,
    ///    found by one descent. An ownership child's key contains its
    ///    owner's (Definition 2.2); where it leads the key, an owner's
    ///    children need no index of their own either;
    /// 3. else a secondary index over exactly `indices`, when one exists;
    /// 4. else `None`: the caller scans ([`Table::find_by_indices`]) or
    ///    hash-builds ([`Table::group_by_indices`]).
    ///
    /// Probing through the returned handle does **not** bump the
    /// access-path counters — batched callers probe once per frontier
    /// tuple from concurrent workers, and a per-probe bump on the shared
    /// counter cache line would serialize them; they aggregate locally and
    /// record one bulk count per frontier pass instead
    /// ([`crate::stats::count_index_probes`]), a key range counting as the
    /// one probe it is.
    pub fn index_at<'t, 'i>(&'t self, indices: &'i [usize]) -> Option<IndexProbe<'t, 'i>> {
        let path = if self.schema.leads_key_at(indices) {
            if indices.len() == self.schema.key_indices().len() {
                AccessPath::Key
            } else {
                AccessPath::KeyRange
            }
        } else {
            AccessPath::Secondary(self.indexes.get(indices)?)
        };
        Some(IndexProbe {
            table: self,
            delta: &NO_ROWS,
            indices,
            path,
            buf: Vec::new(),
        })
    }

    /// Hash-build over the whole table: group every tuple by its values at
    /// `indices`. Groups whose grouping values contain NULL are omitted
    /// (NULL never connects, Definition 2.1); group member lists are in
    /// primary-key order, matching [`Table::find_by_indices`]. One build
    /// amortizes an unindexed equi-join over an arbitrary probe set.
    pub fn group_by_indices(&self, indices: &[usize]) -> HashMap<Vec<Value>, Vec<&Tuple>> {
        crate::stats::count_hash_build();
        let mut groups: HashMap<Vec<Value>, Vec<&Tuple>> = HashMap::new();
        for t in self.rows.values() {
            let vals = t.project(indices);
            if vals.iter().any(Value::is_null) {
                continue;
            }
            groups.entry(vals).or_default().push(t);
        }
        groups
    }

    /// Keys of tuples whose named attributes equal `values`.
    pub fn keys_by_attrs(&self, attrs: &[String], values: &[Value]) -> Result<Vec<Key>> {
        Ok(self
            .find_by_attrs(attrs, values)?
            .into_iter()
            .map(|t| t.key(&self.schema))
            .collect())
    }

    /// Tuples satisfying `pred` (WHERE semantics: only definite truth).
    pub fn select(&self, pred: &Expr) -> Result<Vec<&Tuple>> {
        let columns: Vec<String> = self
            .schema
            .attributes()
            .iter()
            .map(|a| a.name.clone())
            .collect();
        let mut out = Vec::new();
        for t in self.rows.values() {
            if pred.eval_truth(&columns, t.values())?.is_true() {
                out.push(t);
            }
        }
        Ok(out)
    }

    /// Create (or refresh) a secondary index over `attrs`: one scan
    /// collects `(indexed values, key)` pairs, one sort groups them, and
    /// the key sets and the map are each built from sorted input — what
    /// `index_add` row by row would leave, without a tree descent
    /// per row.
    pub fn create_index(&mut self, attrs: &[String]) -> Result<()> {
        let indices = self.schema.indices_of(attrs)?;
        let mut pairs: Vec<(Vec<Value>, Key)> = (self.rows.iter())
            .map(|(key, tuple)| (tuple.project(&indices), key.clone()))
            .collect();
        // stable, so each group's keys stay in the scan's key order
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut groups: Vec<(Vec<Value>, BTreeSet<Key>)> = Vec::new();
        let mut pairs = pairs.into_iter().peekable();
        while let Some((values, key)) = pairs.next() {
            let mut keys = vec![key];
            while let Some((_, key)) = pairs.next_if(|(next, _)| *next == values) {
                keys.push(key);
            }
            groups.push((values, keys.into_iter().collect()));
        }
        self.indexes.insert(indices, groups.into_iter().collect());
        Ok(())
    }

    /// Attribute-name lists of every secondary index, sorted for
    /// deterministic output (snapshots embed them, so checkpoint bytes
    /// must not depend on `HashMap` iteration order).
    pub fn index_attrs(&self) -> Vec<Vec<String>> {
        let mut out: Vec<Vec<String>> = self
            .indexes
            .keys()
            .map(|indices| {
                indices
                    .iter()
                    .map(|&i| self.schema.attributes()[i].name.clone())
                    .collect()
            })
            .collect();
        out.sort();
        out
    }

    /// True when a secondary index over `attrs` exists.
    pub fn has_index(&self, attrs: &[String]) -> bool {
        self.schema
            .indices_of(attrs)
            .map(|idx| self.indexes.contains_key(&idx))
            .unwrap_or(false)
    }

    fn index_add(indexes: &mut HashMap<Vec<usize>, SecondaryIndex>, key: &Key, tuple: &Tuple) {
        for (indices, index) in indexes.iter_mut() {
            index
                .entry(tuple.project(indices))
                .or_default()
                .insert(key.clone());
        }
    }

    fn index_remove(indexes: &mut HashMap<Vec<usize>, SecondaryIndex>, key: &Key, tuple: &Tuple) {
        for (indices, index) in indexes.iter_mut() {
            let proj = tuple.project(indices);
            if let Some(set) = index.get_mut(&proj) {
                set.remove(key);
                if set.is_empty() {
                    index.remove(&proj);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttributeDef;
    use crate::value::DataType;

    fn people() -> Table {
        let schema = RelationSchema::new(
            "PEOPLE",
            vec![
                AttributeDef::required("ssn", DataType::Int),
                AttributeDef::required("name", DataType::Text),
                AttributeDef::nullable("dept_name", DataType::Text),
            ],
            &["ssn"],
        )
        .unwrap();
        Table::new(schema)
    }

    fn row(t: &Table, ssn: i64, name: &str, dept: Option<&str>) -> Tuple {
        let d = dept.map(Value::from).unwrap_or(Value::Null);
        Tuple::new(t.schema(), vec![ssn.into(), name.into(), d]).unwrap()
    }

    #[test]
    fn insert_get_delete() {
        let mut t = people();
        t.insert(row(&t, 1, "ann", Some("CS"))).unwrap();
        assert_eq!(t.len(), 1);
        let k = Key::single(1);
        assert!(t.contains_key(&k));
        assert_eq!(t.get(&k).unwrap().get(1), &Value::text("ann"));
        let removed = t.delete(&k).unwrap();
        assert_eq!(removed.get(1), &Value::text("ann"));
        assert!(t.is_empty());
        assert!(matches!(t.delete(&k), Err(Error::NoSuchTuple { .. })));
    }

    #[test]
    fn insert_rejects_duplicate_key() {
        let mut t = people();
        t.insert(row(&t, 1, "ann", None)).unwrap();
        let r = t.insert(row(&t, 1, "bob", None));
        assert!(matches!(r, Err(Error::KeyConflict { .. })));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn replace_same_key_and_key_change() {
        let mut t = people();
        t.insert(row(&t, 1, "ann", Some("CS"))).unwrap();
        // non-key update
        let old = t
            .replace(&Key::single(1), row(&t, 1, "ann", Some("EE")))
            .unwrap();
        assert_eq!(old.get(2), &Value::text("CS"));
        // key change
        t.replace(&Key::single(1), row(&t, 2, "ann", Some("EE")))
            .unwrap();
        assert!(!t.contains_key(&Key::single(1)));
        assert!(t.contains_key(&Key::single(2)));
    }

    #[test]
    fn replace_rejects_collision_with_third_tuple() {
        let mut t = people();
        t.insert(row(&t, 1, "ann", None)).unwrap();
        t.insert(row(&t, 2, "bob", None)).unwrap();
        let r = t.replace(&Key::single(1), row(&t, 2, "ann", None));
        assert!(matches!(r, Err(Error::KeyConflict { .. })));
        // table unchanged
        assert_eq!(t.get(&Key::single(1)).unwrap().get(1), &Value::text("ann"));
        assert_eq!(t.get(&Key::single(2)).unwrap().get(1), &Value::text("bob"));
    }

    #[test]
    fn select_with_predicate() {
        let mut t = people();
        t.insert(row(&t, 1, "ann", Some("CS"))).unwrap();
        t.insert(row(&t, 2, "bob", Some("EE"))).unwrap();
        t.insert(row(&t, 3, "cam", None)).unwrap();
        let hits = t
            .select(&Expr::attr("dept_name").eq(Expr::lit("CS")))
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].get(1), &Value::text("ann"));
        // NULL dept row is not selected by dept <> 'CS' either (3VL)
        let hits = t
            .select(&Expr::attr("dept_name").ne(Expr::lit("CS")))
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].get(1), &Value::text("bob"));
    }

    #[test]
    fn secondary_index_lookup_and_maintenance() {
        let mut t = people();
        t.insert(row(&t, 1, "ann", Some("CS"))).unwrap();
        t.insert(row(&t, 2, "bob", Some("CS"))).unwrap();
        t.insert(row(&t, 3, "cam", Some("EE"))).unwrap();
        t.create_index(&["dept_name".to_string()]).unwrap();
        assert!(t.has_index(&["dept_name".to_string()]));

        let cs = t
            .find_by_attrs(&["dept_name".to_string()], &[Value::text("CS")])
            .unwrap();
        assert_eq!(cs.len(), 2);

        // index maintained across delete and replace
        t.delete(&Key::single(1)).unwrap();
        let cs = t
            .find_by_attrs(&["dept_name".to_string()], &[Value::text("CS")])
            .unwrap();
        assert_eq!(cs.len(), 1);
        t.replace(&Key::single(2), row(&t, 2, "bob", Some("EE")))
            .unwrap();
        let cs = t
            .find_by_attrs(&["dept_name".to_string()], &[Value::text("CS")])
            .unwrap();
        assert!(cs.is_empty());
        let ee = t
            .find_by_attrs(&["dept_name".to_string()], &[Value::text("EE")])
            .unwrap();
        assert_eq!(ee.len(), 2);
    }

    #[test]
    fn find_without_index_scans() {
        let mut t = people();
        t.insert(row(&t, 1, "ann", Some("CS"))).unwrap();
        t.insert(row(&t, 2, "bob", Some("EE"))).unwrap();
        let hits = t
            .find_by_attrs(&["name".to_string()], &[Value::text("bob")])
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].key(t.schema()), Key::single(2));
    }

    #[test]
    fn key_attributes_in_any_order_find_by_primary_key() {
        let schema = RelationSchema::new(
            "GRADES",
            vec![
                AttributeDef::required("course_id", DataType::Text),
                AttributeDef::nullable("grade", DataType::Text),
                AttributeDef::required("ssn", DataType::Int),
            ],
            &["ssn", "course_id"],
        )
        .unwrap();
        let mut t = Table::new(schema);
        for (c, g, s) in [("CS1", "A", 1), ("CS1", "B", 2), ("CS2", "A", 1)] {
            t.insert(Tuple::raw(vec![c.into(), g.into(), s.into()]))
                .unwrap();
        }
        let names = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        // declared key order, and the permutation of it
        for (attrs, vals) in [
            (names(&["ssn", "course_id"]), vec![2.into(), "CS1".into()]),
            (names(&["course_id", "ssn"]), vec!["CS1".into(), 2.into()]),
        ] {
            let hits = t.find_by_attrs(&attrs, &vals).unwrap();
            assert_eq!(hits.len(), 1);
            assert_eq!(hits[0].get(1), &Value::text("B"));
        }
        assert!(t
            .find_by_attrs(&names(&["course_id", "ssn"]), &["CS2".into(), 2.into()])
            .unwrap()
            .is_empty());
        // the key path is taken for the key and for what leads it; a
        // later part of it, or an attribute repeated to the key's arity,
        // is answered by the scan
        assert_eq!(t.index_at(&[2, 0]).unwrap().label(), "index probe");
        assert_eq!(t.index_at(&[2]).unwrap().label(), "key range");
        assert!(t.index_at(&[0]).is_none());
        assert!(t.index_at(&[2, 2]).is_none());
        assert!(t.index_at(&[2, 1]).is_none());
        assert!(t.index_at(&[]).is_none());
        let before = crate::stats::snapshot();
        assert_eq!(
            t.find_by_attrs(&names(&["ssn"]), &[1.into()])
                .unwrap()
                .len(),
            2
        );
        // values cut short probe the positions they cover
        assert_eq!(t.find_by_indices(&[2, 0], &[1.into()]).len(), 2);
        let d = before.delta(&crate::stats::snapshot());
        assert!(d.index_probes >= 2, "a key range is an index probe");
    }

    #[test]
    fn the_visitor_borrows_refuses_null_and_keeps_key_order() {
        let mut t = people();
        for (ssn, name, dept) in [
            (3, "cam", None),
            (1, "ann", Some("CS")),
            (2, "bob", Some("CS")),
        ] {
            t.insert(row(&t, ssn, name, dept)).unwrap();
        }
        t.create_index(&["dept_name".to_string()]).unwrap();
        let seen = |source: &Tuple| {
            let mut names = Vec::new();
            let probed = (t.index_at(&[2]).unwrap())
                .visit(source, &[2], |m| names.push(m.get(1).to_string()));
            (probed, names)
        };
        assert_eq!(
            seen(&row(&t, 9, "x", Some("CS"))),
            (true, vec!["'ann'".to_string(), "'bob'".to_string()])
        );
        assert_eq!(seen(&row(&t, 9, "x", Some("EE"))), (true, vec![]));
        // NULL never connects — though a plain lookup finds the NULL row
        assert_eq!(seen(&row(&t, 9, "x", None)), (false, vec![]));
        assert_eq!(t.find_by_indices(&[2], &[Value::Null]).len(), 1);
        let mut none = 0;
        t.for_each_connected(&[2], &row(&t, 9, "x", None), &[2], |_| none += 1);
        assert_eq!(none, 0);
    }

    #[test]
    fn keys_by_attrs() {
        let mut t = people();
        t.insert(row(&t, 1, "ann", Some("CS"))).unwrap();
        t.insert(row(&t, 2, "bob", Some("CS"))).unwrap();
        let keys = t
            .keys_by_attrs(&["dept_name".to_string()], &[Value::text("CS")])
            .unwrap();
        assert_eq!(keys.len(), 2);
        assert!(keys.contains(&Key::single(1)));
        assert!(keys.contains(&Key::single(2)));
    }
}
