//! Keyed table storage with secondary indexes.

use crate::error::{Error, Result};
use crate::predicate::Expr;
use crate::runs::Runs;
use crate::schema::RelationSchema;
use crate::tuple::{Key, Tuple};
use crate::value::{DataType, Value};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::iter::Peekable;
use std::ops::Bound;

/// One stored relation: a primary-key ordered set of tuples plus optional
/// secondary indexes.
///
/// All public mutations re-validate tuples against the schema and keep
/// secondary indexes consistent. Rows and index entries are kept in key
/// order, so scans are deterministic, keeping query results and experiment
/// output stable — as sorted runs in shared chunks of bounded size
/// (the `runs` module): cloning a table copies a pointer per chunk, and a
/// write beside a clone copies the one chunk it lands in. A row is its own
/// key: the rows are ordered by their values at the key positions
/// (`KeyOrder`), and nothing is stored beside them but an 8-byte prefix of
/// the key's first value ([`Row`]), which settles every comparison of two
/// first values that differ within their first 8 bytes.
#[derive(Debug, Clone)]
pub struct Table {
    schema: RelationSchema,
    /// Crate-visible so [`crate::overlay`] can build merged scan iterators
    /// without copying rows.
    pub(crate) rows: Runs<Row>,
    /// Secondary indexes, keyed by the indexed attribute positions.
    indexes: HashMap<Vec<usize>, SecondaryIndex>,
}

// Tables (rows + secondary indexes) are probed concurrently by the net
// server's worker threads through `&Database`.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Table>();
};

/// One secondary index: an entry per row, its indexed values followed by
/// its key values — one allocation — ordered whole: by the values, then by
/// the key. The rows sharing indexed values are one run, in primary-key
/// order.
type SecondaryIndex = Runs<Box<[Value]>>;

/// `row`'s entry in the index over `indices`.
fn index_entry(indices: &[usize], row: &Tuple, order: KeyOrder<'_>) -> Box<[Value]> {
    (indices.iter().chain(order.positions))
        .map(|&i| row.get(i).clone())
        .collect()
}

/// One stored row: the tuple, and the abbreviation of its key's first
/// value under the column's declared type ([`Value::abbrev`]; 0 for a type
/// that has none). Fences are clones of rows, so they carry it too.
#[derive(Debug, Clone)]
pub(crate) struct Row {
    abbrev: u64,
    pub(crate) tuple: Tuple,
}

/// What a search seeks: a key, or a leading part of one, with its first
/// value's abbreviation when that value is of the column's declared type.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Probe<'v> {
    abbrev: Option<u64>,
    values: &'v [Value],
}

/// The tuples of a table's rows, in key order.
#[derive(Debug)]
pub struct Tuples<'a>(crate::runs::Iter<'a, Row>);

impl<'a> Iterator for Tuples<'a> {
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        self.0.next().map(|r| &r.tuple)
    }
}

/// How a table orders its rows: by their values at the schema's key
/// positions, read in place. A lookup by a key, or by a leading part of
/// one, compares each row it meets with it directly, in `Key`'s own order
/// — on the rows' prefixes first, and on the values only where the
/// prefixes tie or the probe has none.
#[derive(Debug, Clone, Copy)]
pub(crate) struct KeyOrder<'s> {
    positions: &'s [usize],
    /// The declared type of the key's first attribute.
    lead: DataType,
}

impl<'s> KeyOrder<'s> {
    /// The order of `schema`'s rows.
    pub(crate) fn of(schema: &'s RelationSchema) -> Self {
        let positions = schema.key_indices();
        KeyOrder {
            positions,
            lead: schema.attributes()[positions[0]].ty,
        }
    }

    /// `tuple`, a valid row of the table, as the table stores it.
    pub(crate) fn row(self, tuple: Tuple) -> Row {
        let abbrev = tuple.get(self.positions[0]).abbrev(self.lead);
        Row {
            abbrev: abbrev.unwrap_or(0),
            tuple,
        }
    }

    /// `key` — a key, or a leading part of one — as a search seeks it.
    pub(crate) fn probe(self, key: &[Value]) -> Probe<'_> {
        Probe {
            abbrev: key.first().and_then(|v| v.abbrev(self.lead)),
            values: key,
        }
    }

    /// `row` against `probe`: by the prefixes where the probe has one and
    /// they differ, else by the values.
    pub(crate) fn seek(self, row: &Row, probe: Probe<'_>) -> Ordering {
        match probe.abbrev.map(|a| row.abbrev.cmp(&a)) {
            Some(settled) if settled.is_ne() => settled,
            _ => self.cmp(&row.tuple, probe.values),
        }
    }

    /// Two stored rows, by their prefixes, then by their keys.
    fn entries(self, a: &Row, b: &Row) -> Ordering {
        a.abbrev
            .cmp(&b.abbrev)
            .then_with(|| self.rows(&a.tuple, &b.tuple))
    }

    /// `row`'s key against `probe` — a key, or a leading part of one, which
    /// sorts before every key it leads.
    pub(crate) fn cmp(self, row: &Tuple, probe: &[Value]) -> Ordering {
        self.values(row).cmp(probe)
    }

    /// Two rows by their keys.
    pub(crate) fn rows(self, a: &Tuple, b: &Tuple) -> Ordering {
        self.values(a).cmp(self.values(b))
    }

    /// True when `row`'s key starts with `prefix`.
    fn leads(self, row: &Tuple, prefix: &[Value]) -> bool {
        self.values(row).take(prefix.len()).eq(prefix)
    }

    /// `row`'s values at the key positions, in key order.
    fn values<'r>(self, row: &'r Tuple) -> impl Iterator<Item = &'r Value> + use<'r, 's> {
        self.positions.iter().map(|&i| row.get(i))
    }
}

/// Net changes to one relation, keyed like its rows: `Some` shadows (or
/// adds) a tuple at that key, `None` deletes it. Key-ordered, so a lookup
/// through an overlay is the same point or range lookup as in the table,
/// and merged reads stay deterministic.
pub type KeyedRows = BTreeMap<Key, Option<Tuple>>;

/// What shadows a bare table: nothing.
pub(crate) static NO_ROWS: KeyedRows = BTreeMap::new();

/// Key-ordered merge of a table's rows with the net changes shadowing
/// them: base rows the delta does not write, interleaved with the delta's
/// upserts. Both inputs ascend by key; each base row's key is compared
/// with the delta's in place.
pub struct Merged<'a, B: Iterator, D: Iterator> {
    order: KeyOrder<'a>,
    base: Peekable<B>,
    delta: Peekable<D>,
}

pub(crate) fn merged<'a, B, D>(order: KeyOrder<'a>, base: B, delta: D) -> Merged<'a, B, D>
where
    B: Iterator<Item = &'a Tuple>,
    D: Iterator<Item = (&'a Key, &'a Option<Tuple>)>,
{
    Merged {
        order,
        base: base.peekable(),
        delta: delta.peekable(),
    }
}

impl<'a, B, D> Iterator for Merged<'a, B, D>
where
    B: Iterator<Item = &'a Tuple>,
    D: Iterator<Item = (&'a Key, &'a Option<Tuple>)>,
{
    type Item = &'a Tuple;

    fn next(&mut self) -> Option<&'a Tuple> {
        loop {
            let shadowed = match (self.base.peek(), self.delta.peek()) {
                (Some(row), Some((dk, _))) => match self.order.cmp(row, dk.values()) {
                    Ordering::Less => None,
                    at => Some(at.is_eq()),
                },
                (Some(_), None) => None,
                (None, Some(_)) => Some(false),
                (None, None) => return None,
            };
            let Some(shadowed) = shadowed else {
                return self.base.next();
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
    fn each<'v>(&mut self, value: impl Fn(usize) -> &'v Value, visit: impl FnMut(&'t Tuple)) {
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
        let order = KeyOrder::of(&table.schema);
        match self.path {
            AccessPath::Key => match delta.get(probe) {
                Some(written) => written.iter().for_each(visit),
                None => table.get_at(probe).into_iter().for_each(visit),
            },
            AccessPath::KeyRange => {
                // the rows and writes whose keys start with the probe are
                // one run each, found by one descent
                let sought = order.probe(probe);
                let rows = (table.rows.range_from(|r| order.seek(r, sought)))
                    .map(|r| &r.tuple)
                    .take_while(|r| order.leads(r, probe));
                let written = (delta
                    .range::<[Value], _>((Bound::Included(probe), Bound::Unbounded)))
                .take_while(|(k, _)| k.values().starts_with(probe));
                merged(order, rows, written).for_each(visit);
            }
            AccessPath::Secondary(index) => {
                // each entry of the run ends in its row's key
                let hits = (index.range_from(|e| (**e).cmp(probe)))
                    .take_while(|e| e.starts_with(probe))
                    .filter_map(|e| table.get_at(&e[probe.len()..]));
                if delta.is_empty() {
                    hits.for_each(visit);
                } else {
                    // a written row shadows the indexed one at its key
                    // whether or not it still matches
                    merged(order, hits, delta.iter())
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
    merged(KeyOrder::of(&table.schema), table.scan(), delta.iter())
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
            rows: Runs::default(),
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

    /// Insert a tuple; rejects key conflicts. One descent finds the key
    /// free and places the row.
    pub fn insert(&mut self, tuple: Tuple) -> Result<()> {
        tuple.validate(&self.schema)?;
        let order = KeyOrder::of(&self.schema);
        let row = order.row(tuple);
        let slot = self.rows.slot(|r| order.entries(r, &row));
        if slot.held() {
            return Err(Error::KeyConflict {
                relation: self.schema.name().to_owned(),
                key: row.tuple.key(&self.schema).to_string(),
            });
        }
        Self::reindex(&mut self.indexes, order, None, Some(&row.tuple));
        self.rows.put(slot, row);
        Ok(())
    }

    /// Delete by key, returning the removed tuple.
    pub fn delete(&mut self, key: &Key) -> Result<Tuple> {
        self.take(key.values()).ok_or_else(|| Error::NoSuchTuple {
            relation: self.schema.name().to_owned(),
            key: key.to_string(),
        })
    }

    /// Replace the tuple at `old_key` with `new` (whose key may differ).
    /// Rejects when the new key would collide with a third tuple. Returns
    /// the displaced tuple.
    pub fn replace(&mut self, old_key: &Key, new: Tuple) -> Result<Tuple> {
        new.validate(&self.schema)?;
        if !self.contains_key(old_key) {
            return Err(Error::NoSuchTuple {
                relation: self.schema.name().to_owned(),
                key: old_key.to_string(),
            });
        }
        let order = KeyOrder::of(&self.schema);
        if order.cmp(&new, old_key.values()).is_eq() {
            return Ok(self.put(new).expect("checked above"));
        }
        let new = order.row(new);
        if self.rows.slot(|r| order.entries(r, &new)).held() {
            return Err(Error::KeyConflict {
                relation: self.schema.name().to_owned(),
                key: new.tuple.key(&self.schema).to_string(),
            });
        }
        let old = self.take(old_key.values()).expect("checked above");
        self.put(new.tuple);
        Ok(old)
    }

    /// Set `row` at its key, keeping secondary indexes — with
    /// [`Table::take`], the one way a net delta reaches a table, from
    /// [`crate::database::Database::install`] and
    /// [`crate::storage::SnapshotDelta::apply_to`]. Both validate every
    /// row *before* their first write, so a refusal never leaves a table
    /// half-written; `row` must be valid. Returns the row the table held at
    /// that key — the pre-image the commit journal keeps.
    pub(crate) fn put(&mut self, row: Tuple) -> Option<Tuple> {
        let order = KeyOrder::of(&self.schema);
        let row = order.row(row);
        let slot = self.rows.slot(|r| order.entries(r, &row));
        let is = row.tuple.clone();
        let was = self.rows.put(slot, row).map(|r| r.tuple);
        Self::reindex(&mut self.indexes, order, was.as_ref(), Some(&is));
        was
    }

    /// Remove the row at `key`, keeping secondary indexes, and return it;
    /// an absent key is tolerated.
    pub(crate) fn take(&mut self, key: &[Value]) -> Option<Tuple> {
        let order = KeyOrder::of(&self.schema);
        let sought = order.probe(key);
        let was = self.rows.remove(|r| order.seek(r, sought))?.tuple;
        Self::reindex(&mut self.indexes, order, Some(&was), None);
        Some(was)
    }

    /// Fetch by key.
    pub fn get(&self, key: &Key) -> Option<&Tuple> {
        self.get_at(key.values())
    }

    /// The row at `key`, compared with each row in place.
    pub(crate) fn get_at(&self, key: &[Value]) -> Option<&Tuple> {
        let order = KeyOrder::of(&self.schema);
        let sought = order.probe(key);
        Some(&self.rows.get(|r| order.seek(r, sought))?.tuple)
    }

    /// True when a tuple with this key exists.
    pub fn contains_key(&self, key: &Key) -> bool {
        self.get(key).is_some()
    }

    /// Iterate all tuples in key order.
    pub fn scan(&self) -> Tuples<'_> {
        Tuples(self.rows.iter())
    }

    /// Bulk-build a table from already-validated rows in strictly
    /// ascending key order — a snapshot's rows, which its decoder validated
    /// and ordered as it read them. Each [`Row`] is built as the chunks are
    /// cut, so no second vector of rows stands beside `rows`. No secondary
    /// indexes; create them afterwards.
    pub(crate) fn from_sorted_rows(schema: RelationSchema, rows: Vec<Tuple>) -> Table {
        let order = KeyOrder::of(&schema);
        let rows = Runs::from_sorted(rows.into_iter().map(|t| order.row(t)), |a, b| {
            order.entries(a, b)
        });
        Table {
            schema,
            rows,
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
    /// tuple, and rather than one atomic bump per probe they aggregate
    /// locally and record one bulk count per frontier pass
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
        for t in self.scan() {
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
        for t in self.scan() {
            if pred.eval_truth(&columns, t.values())?.is_true() {
                out.push(t);
            }
        }
        Ok(out)
    }

    /// Create (or refresh) a secondary index over `attrs`: each row's
    /// entry is built once, one stable sort by the indexed values orders
    /// the entries (each group keeps the scan's key order), and the runs
    /// are cut from the sorted entries — what `reindex` row by row would
    /// leave, without a search per row.
    pub fn create_index(&mut self, attrs: &[String]) -> Result<()> {
        let indices = self.schema.indices_of(attrs)?;
        let order = KeyOrder::of(&self.schema);
        let mut entries: Vec<Box<[Value]>> = (self.scan())
            .map(|row| index_entry(&indices, row, order))
            .collect();
        let width = indices.len();
        entries.sort_by(|a, b| a[..width].cmp(&b[..width]));
        self.indexes
            .insert(indices, Runs::from_sorted(entries, Ord::cmp));
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

    /// Move one key's entry in every secondary index from the row it held
    /// (`was`) to the row it holds (`is`). An index whose values the write
    /// did not change is not touched, so its chunks stay shared.
    fn reindex(
        indexes: &mut HashMap<Vec<usize>, SecondaryIndex>,
        order: KeyOrder<'_>,
        was: Option<&Tuple>,
        is: Option<&Tuple>,
    ) {
        for (indices, index) in indexes.iter_mut() {
            if let (Some(was), Some(is)) = (was, is) {
                if indices.iter().all(|&i| was.get(i) == is.get(i)) {
                    continue;
                }
            }
            if let Some(was) = was {
                let gone = index_entry(indices, was, order);
                index.remove(|e| e.cmp(&gone));
            }
            if let Some(is) = is {
                let entry = index_entry(indices, is, order);
                index.put(index.slot(|e| e.cmp(&entry)), entry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SmallRng;
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
        let ((), taken) = vo_obs::trace::capture(|| {
            assert_eq!(
                t.find_by_attrs(&names(&["ssn"]), &[1.into()])
                    .unwrap()
                    .len(),
                2
            );
            // values cut short probe the positions they cover
            assert_eq!(t.find_by_indices(&[2, 0], &[1.into()]).len(), 2);
        });
        // a key range is an index probe
        assert_eq!(taken.count("relational.index_probes"), 2);
        assert_eq!(taken.count("relational.fallback_scans"), 0);
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

    /// `values` with every integer as the float equal to it: a probe not of
    /// an `INT` column's type, which finds what the integer finds.
    fn floated(values: &[Value]) -> Key {
        Key::new(
            (values.iter())
                .map(|v| {
                    v.as_int()
                        .map_or_else(|| v.clone(), |i| Value::Float(i as f64))
                })
                .collect(),
        )
    }

    /// What a table holding `oracle` (a `BTreeMap` keyed as the table is)
    /// answers, checked against `table` shadowed by `delta`: scan order,
    /// point lookups, runs of the key's first attribute and secondary
    /// probes — each lookup by the path `index_at` chooses, through the
    /// delta, and each by integer values also made floats.
    fn assert_reads_as(table: &Table, delta: &KeyedRows, oracle: &BTreeMap<Key, Tuple>) {
        let schema = table.schema();
        let order = KeyOrder::of(schema);
        let merged: Vec<&Tuple> = merged(order, table.scan(), delta.iter()).collect();
        assert!(merged.iter().copied().eq(oracle.values()), "scan order");
        for (key, row) in oracle {
            for probe in [key.clone(), floated(key.values())] {
                let found = find(table, delta, schema.key_indices(), probe.values());
                assert_eq!(found, [row], "{probe}");
                if delta.is_empty() {
                    assert_eq!(table.get(&probe), Some(row), "{probe}");
                }
            }
        }
        let lead = schema.key_indices()[0];
        for at in [lead, 1] {
            let mut seen: Vec<Value> = oracle.values().map(|t| t.get(at).clone()).collect();
            let floats: Vec<Value> = floated(&seen).0;
            seen.extend(floats);
            seen.extend([Value::Null, Value::Int(99), Value::Float(99.5), "zz".into()]);
            for v in &seen {
                let want: Vec<&Tuple> = oracle.values().filter(|t| t.get(at) == v).collect();
                let ((), taken) = vo_obs::trace::capture(|| {
                    assert_eq!(
                        find(table, delta, &[at], std::slice::from_ref(v)),
                        want,
                        "{at} = {v}"
                    );
                });
                assert_eq!(taken.count("relational.fallback_scans"), 0);
            }
        }
    }

    /// Tables whose key is not their leading columns — the last attribute
    /// alone, and two attributes in reverse column order — and tables
    /// keyed by texts that share their first 8 bytes, whose rows the
    /// prefixes cannot tell apart, read as a `BTreeMap<Key, Tuple>` given
    /// the same seeded inserts, replaces and deletes: on the table, on
    /// clones pinned along the way (which still read their old rows), and
    /// through a delta shadowing it. Half the replaces and deletes name
    /// their key with floats where it holds integers.
    #[test]
    fn a_key_read_from_the_row_orders_it_as_the_key_would() {
        let shared = "abcdefgh";
        let texts = [
            "abcdefg".to_string(),
            shared.into(),
            format!("{shared}\0"),
            format!("{shared}A"),
            format!("{shared}B"),
            format!("{shared}{}", "x".repeat(14)),
            format!("{shared}{}", "x".repeat(15)),
            format!("{shared}{}", "y".repeat(20)),
        ];
        let keys = [&["c"][..], &["c", "a"], &["d"], &["d", "c"]];
        for (seed, key) in (1..).zip(keys) {
            let schema = RelationSchema::new(
                "R",
                vec![
                    AttributeDef::required("a", DataType::Int),
                    AttributeDef::nullable("b", DataType::Text),
                    AttributeDef::required("c", DataType::Int),
                    AttributeDef::required("d", DataType::Text),
                ],
                key,
            )
            .unwrap();
            let mut rng = SmallRng::seed_from_u64(seed);
            let draw = |rng: &mut SmallRng| {
                let b = match rng.next_below(4) {
                    0 => Value::Null,
                    n => Value::text(format!("b{n}")),
                };
                let a = rng.next_below(6) as i64;
                let c = rng.next_below(40) as i64 - 20;
                let d = Value::text(texts[rng.next_below(texts.len() as u64) as usize].as_str());
                Tuple::new(&schema, vec![a.into(), b, c.into(), d]).unwrap()
            };
            let named = |rng: &mut SmallRng, key: Key| {
                if rng.gen_bool(0.5) {
                    floated(key.values())
                } else {
                    key
                }
            };
            let mut table = Table::new(schema.clone());
            table.create_index(&["b".to_string()]).unwrap();
            let mut oracle: BTreeMap<Key, Tuple> = BTreeMap::new();
            let mut pinned = Vec::new();
            for step in 0..1500 {
                let new = draw(&mut rng);
                let key = new.key(&schema);
                let drawn = draw(&mut rng).key(&schema);
                let at = named(&mut rng, drawn);
                match rng.next_below(3) {
                    0 => {
                        let held = oracle.contains_key(&key);
                        assert_eq!(table.insert(new.clone()).is_err(), held);
                        oracle.entry(key).or_insert(new);
                    }
                    1 => match table.replace(&at, new.clone()) {
                        Ok(old) => {
                            assert_eq!(oracle.remove(&at), Some(old));
                            assert!(oracle.insert(key, new).is_none());
                        }
                        Err(Error::NoSuchTuple { .. }) => assert!(!oracle.contains_key(&at)),
                        Err(Error::KeyConflict { .. }) => {
                            assert!(
                                oracle.contains_key(&at) && key != at && oracle.contains_key(&key)
                            );
                        }
                        Err(e) => panic!("{e}"),
                    },
                    _ => assert_eq!(table.delete(&at).ok(), oracle.remove(&at)),
                }
                if step % 300 == 0 {
                    pinned.push((table.clone(), oracle.clone()));
                }
                if step % 100 == 0 {
                    assert_reads_as(&table, &NO_ROWS, &oracle);
                }
            }
            assert!(oracle.len() >= 4, "{key:?} holds {} rows", oracle.len());
            for (table, oracle) in &pinned {
                assert_reads_as(table, &NO_ROWS, oracle);
            }
            // a delta writing inside and outside the table's keys
            let mut delta = KeyedRows::new();
            let mut shadowed = oracle.clone();
            for _ in 0..60 {
                let new = draw(&mut rng);
                let key = new.key(&schema);
                if rng.gen_bool(0.3) {
                    shadowed.remove(&key);
                    delta.insert(key, None);
                } else {
                    shadowed.insert(key.clone(), new.clone());
                    delta.insert(key, Some(new));
                }
            }
            assert_reads_as(&table, &delta, &shadowed);
        }
    }
}
