//! The database: a set of tables plus the `DbOp` mutation protocol.
//!
//! Every higher layer (structural integrity maintenance, Keller view
//! updates, view-object translation) expresses its effects as lists of
//! [`DbOp`] — insert / delete / replace on keyed relations — which are the
//! three database operations the paper's algorithms emit. A batch is
//! folded into an overlay ([`crate::overlay::DeltaDb`]), where every op is
//! admitted or the batch refused, and the overlay's net delta is then
//! *installed* ([`Database::install`]) — the only way rows reach a table,
//! so there is nothing to roll back and no undo log.
//!
//! An install is journaled while the database has a journal cursor: the
//! journal exists exactly while one is subscribed
//! ([`Database::journal_subscribe`], always at the head), keeps each
//! [`JournalEntry`] until every cursor has read it through
//! [`Database::journal_peek`] and [`Database::journal_advance`], and is
//! dropped with the last [`Database::journal_unsubscribe`]. A cursor never
//! misses an entry. A copy of a database carries no journal.

use crate::error::{Error, Result};
use crate::json::Json;
use crate::overlay::{Delta, DeltaDb, Staged};
use crate::schema::{DatabaseSchema, RelationSchema};
use crate::stats::{count_commit, count_conflict, count_snapshot_pinned};
use crate::table::{KeyOrder, Table};
use crate::tuple::{Key, Tuple};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;
use vo_obs::trace;

/// One primitive mutation on a keyed relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbOp {
    /// Insert `tuple` into `relation`.
    Insert { relation: String, tuple: Tuple },
    /// Delete the tuple with `key` from `relation`.
    Delete { relation: String, key: Key },
    /// Replace the tuple at `old_key` in `relation` with `tuple` (whose key
    /// may differ — a key replacement).
    Replace {
        relation: String,
        old_key: Key,
        tuple: Tuple,
    },
}

impl DbOp {
    /// The relation this operation targets.
    pub fn relation(&self) -> &str {
        match self {
            DbOp::Insert { relation, .. }
            | DbOp::Delete { relation, .. }
            | DbOp::Replace { relation, .. } => relation,
        }
    }

    /// True when this op is an insertion.
    pub fn is_insert(&self) -> bool {
        matches!(self, DbOp::Insert { .. })
    }

    /// True when this op is a deletion.
    pub fn is_delete(&self) -> bool {
        matches!(self, DbOp::Delete { .. })
    }

    /// True when this op is a replacement.
    pub fn is_replace(&self) -> bool {
        matches!(self, DbOp::Replace { .. })
    }
}

impl fmt::Display for DbOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbOp::Insert { relation, tuple } => write!(f, "INSERT {relation} {tuple}"),
            DbOp::Delete { relation, key } => write!(f, "DELETE {relation} {key}"),
            DbOp::Replace {
                relation,
                old_key,
                tuple,
            } => {
                write!(f, "REPLACE {relation} {old_key} -> {tuple}")
            }
        }
    }
}

/// Handle identifying one journal consumer. Obtained from
/// [`Database::journal_subscribe`]; pass it to `journal_peek` /
/// `journal_advance` / `journal_lag` / `journal_unsubscribe`. Cursors are
/// plain ids that a database never reuses; a clone of a `Database` carries
/// no cursors, so the original's are unknown to it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct JournalCursor(u64);

/// One key a committed transaction wrote: the row the table held there
/// before the commit and the row it holds after, `None` where the key is
/// absent — never both. Both are the table's own shared rows, not copies,
/// and either one carries the key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowImage {
    /// The row displaced by the commit.
    pub before: Option<Tuple>,
    /// The row the commit left.
    pub after: Option<Tuple>,
}

impl RowImage {
    /// The written key, read off the rows under `schema`.
    pub fn key(&self, schema: &RelationSchema) -> Key {
        let row = self.before.as_ref().or(self.after.as_ref());
        row.expect("an image holds a row on one side").key(schema)
    }
}

/// One committed transaction as the journal keeps it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// The op list the transaction was planned as: what a WAL record
    /// encodes.
    pub ops: Vec<DbOp>,
    /// The net change it installed: per written relation in name order,
    /// one image per key in key order. A key the transaction inserted and
    /// deleted again was absent on both sides and has no image.
    pub images: Vec<(String, Vec<RowImage>)>,
}

/// Multi-consumer committed-transaction journal. Entries are reference-
/// counted and retire once every consumer's cursor has passed them, so
/// the WAL persister and any number of materialized views share one
/// delta stream without stealing from each other. It exists only while
/// it has a consumer: a journal with none is dropped.
#[derive(Debug, Default)]
struct CommitJournal {
    entries: VecDeque<Arc<JournalEntry>>,
    /// Sequence number of `entries[0]`. Sequence numbers are assigned at
    /// commit and never reused, so a consumer's position is a plain `u64`.
    base_seq: u64,
    /// Cursor id → sequence number of the next entry that consumer reads.
    consumers: BTreeMap<u64, u64>,
}

impl CommitJournal {
    fn head_seq(&self) -> u64 {
        self.base_seq + self.entries.len() as u64
    }

    fn next_seq(&self, cursor: JournalCursor) -> Result<u64> {
        (self.consumers.get(&cursor.0).copied()).ok_or_else(|| unknown_cursor(cursor))
    }

    fn peek(&self, cursor: JournalCursor) -> Result<Vec<Arc<JournalEntry>>> {
        let skip = (self.next_seq(cursor)? - self.base_seq) as usize;
        Ok(self.entries.iter().skip(skip).cloned().collect())
    }

    /// Move `cursor` forward over up to `n` entries, then retire entries
    /// every consumer has passed.
    fn advance(&mut self, cursor: JournalCursor, n: usize) -> Result<()> {
        let head = self.head_seq();
        let next = (self.consumers.get_mut(&cursor.0)).ok_or_else(|| unknown_cursor(cursor))?;
        *next = (*next + n as u64).min(head);
        self.retire();
        Ok(())
    }

    /// Drop entries that every consumer has read.
    fn retire(&mut self) {
        let min_next = self.consumers.values().copied().min();
        while min_next.is_some_and(|next| self.base_seq < next) {
            self.entries.pop_front();
            self.base_seq += 1;
        }
    }
}

fn unknown_cursor(cursor: JournalCursor) -> Error {
    Error::Storage(format!(
        "unknown journal cursor #{}: unsubscribed, or from another database",
        cursor.0
    ))
}

/// An in-memory relational database with versioned, structurally shared
/// storage.
///
/// Tables are held behind [`Arc`]s, so cloning a `Database` — and
/// therefore pinning a [`DbSnapshot`] — is O(relations), not O(tuples):
/// the clone shares every table with the original. Mutation goes through
/// [`Arc::make_mut`], which copies a table only when a snapshot still
/// shares it — and a table is sorted runs of shared chunks, so that copy
/// is a pointer per chunk, and a write then copies only the chunk of rows
/// or index entries it lands in (counted as `relational.cow_rows`). Each
/// committed transaction bumps [`Database::version`] and
/// stamps the relations it touched, which is what first-committer-wins
/// conflict detection ([`Database::check_unchanged`]) validates against.
#[derive(Debug, Default)]
pub struct Database {
    tables: BTreeMap<String, Arc<Table>>,
    /// Bumped on every structural change (relation created or dropped,
    /// index created, or a table borrowed mutably — the escape hatch
    /// through which callers may alter structure). Plain data mutations
    /// through [`Database::apply`] / [`Database::insert`] do not bump it,
    /// so prepared access plans keyed on the epoch survive updates.
    structure_epoch: u64,
    /// Committed-transaction counter: bumped once per successful
    /// transaction (single op, batch, or DDL), never by a refused one — a
    /// refusal happens before anything is installed.
    version: u64,
    /// Version at which each relation last changed (created, dropped, or
    /// touched by a committed transaction). A relation with no entry has
    /// not changed since version 0. Dropped relations keep their stamp so
    /// a conflict check against a vanished table still fires.
    table_stamps: BTreeMap<String, u64>,
    /// Committed-transaction journal (the durability and maintenance
    /// hook), present exactly while a [`JournalCursor`] is subscribed:
    /// every *successful* transaction through the data path — every
    /// [`Database::install`], whichever of [`Database::apply`] /
    /// [`Database::insert`] / [`Database::apply_all`] or the update
    /// pipeline staged it — is recorded as one [`JournalEntry`]: its op
    /// list and the pre-/post-images of every key it wrote. Refused
    /// batches record nothing. `vo-store` reads it through one cursor to
    /// frame WAL commit records while materialized views read the same
    /// entries through their own cursors.
    journal: Option<CommitJournal>,
    /// Id of the next cursor subscribed; ids are never reused.
    next_cursor: u64,
}

impl Clone for Database {
    /// A copy of the data, versions and stamps. The copy carries no
    /// journal and no cursors: commits on it are retained for nobody.
    fn clone(&self) -> Self {
        Database {
            tables: self.tables.clone(),
            structure_epoch: self.structure_epoch,
            version: self.version,
            table_stamps: self.table_stamps.clone(),
            journal: None,
            next_cursor: self.next_cursor,
        }
    }
}

// The net server shares `&Database` across its worker threads; a future
// `Rc`/`RefCell`/raw-pointer field must fail to compile, not race.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<Database>();
};

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a database with empty tables for every relation in `schema`.
    pub fn from_schema(schema: &DatabaseSchema) -> Self {
        let mut db = Database::new();
        for rel in schema.iter() {
            db.tables
                .insert(rel.name().to_owned(), Arc::new(Table::new(rel.clone())));
        }
        db
    }

    /// The current structure epoch. Cached plans that recorded an earlier
    /// epoch must be rebuilt before use.
    pub fn structure_epoch(&self) -> u64 {
        self.structure_epoch
    }

    /// The committed-transaction version: bumped once per successful
    /// transaction (and per DDL change), never by a refusal. Two databases
    /// that report the same version *through a shared history* hold
    /// identical data.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The version at which `relation` last changed — 0 when it has never
    /// changed since this database was created. Dropped relations retain
    /// their final stamp.
    pub fn table_version(&self, relation: &str) -> u64 {
        self.table_stamps.get(relation).copied().unwrap_or(0)
    }

    /// First-committer-wins validation: verify that none of `relations`
    /// has changed since `base_version` (the version a snapshot or
    /// overlay was pinned at). Returns [`Error::Conflict`] naming the
    /// first concurrently-modified relation.
    pub fn check_unchanged<'a>(
        &self,
        relations: impl IntoIterator<Item = &'a str>,
        base_version: u64,
    ) -> Result<()> {
        for rel in relations {
            let head = self.table_version(rel);
            if head > base_version {
                count_conflict();
                return Err(Error::Conflict {
                    relation: rel.to_owned(),
                    base_version,
                    head_version: head,
                });
            }
        }
        Ok(())
    }

    /// Pin the current state as an immutable, lock-free-readable
    /// [`DbSnapshot`]. O(relations): every table is shared, not copied —
    /// later commits against this database copy-on-write only the tables
    /// they touch, leaving the snapshot untouched.
    pub fn snapshot(&self) -> DbSnapshot {
        count_snapshot_pinned();
        DbSnapshot {
            inner: Arc::new(self.clone()),
        }
    }

    /// Stamp one relation as changed by a DDL-level mutation (create /
    /// drop / mutable borrow).
    fn structural_stamp(&mut self, relation: &str) {
        self.version += 1;
        self.table_stamps.insert(relation.to_owned(), self.version);
    }

    /// Re-pin the committed-transaction version after a snapshot restore:
    /// the version and every table stamp are set to `v`, discarding the
    /// bumps the rebuild itself produced. Recovery replay on top of the
    /// restored state then advances the version transaction by
    /// transaction, so a recovered database reports a version consistent
    /// with its durable history (0 for checkpoints predating versioning).
    pub(crate) fn restore_version(&mut self, v: u64) {
        self.version = v;
        for stamp in self.table_stamps.values_mut() {
            *stamp = v;
        }
    }

    /// Create a new empty relation.
    pub fn create_relation(&mut self, schema: RelationSchema) -> Result<()> {
        if self.tables.contains_key(schema.name()) {
            return Err(Error::DuplicateRelation(schema.name().to_owned()));
        }
        self.structure_epoch += 1;
        let name = schema.name().to_owned();
        self.tables
            .insert(name.clone(), Arc::new(Table::new(schema)));
        self.structural_stamp(&name);
        Ok(())
    }

    /// Install a fully built table (the bulk snapshot-restore path):
    /// same structural semantics as [`Database::create_relation`]
    /// followed by per-tuple inserts, without the per-row validation and
    /// index maintenance the table builder already performed.
    pub(crate) fn install_table(&mut self, table: Table) -> Result<()> {
        if self.tables.contains_key(table.schema().name()) {
            return Err(Error::DuplicateRelation(table.schema().name().to_owned()));
        }
        self.structure_epoch += 1;
        let name = table.schema().name().to_owned();
        self.tables.insert(name.clone(), Arc::new(table));
        self.structural_stamp(&name);
        Ok(())
    }

    /// Drop a relation and all its tuples.
    pub fn drop_relation(&mut self, name: &str) -> Result<()> {
        self.tables
            .remove(name)
            .ok_or_else(|| Error::NoSuchRelation(name.to_owned()))?;
        self.structure_epoch += 1;
        self.structural_stamp(name);
        Ok(())
    }

    /// Borrow a table.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .map(|t| t.as_ref())
            .ok_or_else(|| Error::NoSuchRelation(name.to_owned()))
    }

    /// Mutably borrow a table. Conservatively bumps the structure epoch
    /// and the version stamp: the caller may change anything through the
    /// borrow. Copy-on-write: a table still shared with a snapshot is
    /// copied first.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        let table = self
            .tables
            .get_mut(name)
            .ok_or_else(|| Error::NoSuchRelation(name.to_owned()))?;
        // only a borrow that was handed out can have changed anything
        self.structure_epoch += 1;
        self.version += 1;
        self.table_stamps.insert(name.to_owned(), self.version);
        Ok(Arc::make_mut(table))
    }

    /// Mutable access for the data path (insert/delete/replace): does not
    /// bump the structure epoch, since tuple-level changes cannot
    /// invalidate a prepared access plan. Copy-on-write like
    /// [`Database::table_mut`]; version stamping happens per committed
    /// transaction in [`Database::install`], not per row.
    fn data_table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .map(Arc::make_mut)
            .ok_or_else(|| Error::NoSuchRelation(name.to_owned()))
    }

    /// Create a secondary index over `attrs` of `relation`.
    pub fn create_index(&mut self, relation: &str, attrs: &[String]) -> Result<()> {
        self.data_table_mut(relation)?.create_index(attrs)?;
        self.structure_epoch += 1;
        Ok(())
    }

    /// Create a secondary index over `attrs` of `relation` unless one
    /// already exists. Returns `true` when an index was built. Only a
    /// fresh build bumps the structure epoch.
    pub fn ensure_index(&mut self, relation: &str, attrs: &[String]) -> Result<bool> {
        if self.table(relation)?.has_index(attrs) {
            return Ok(false);
        }
        self.create_index(relation, attrs)?;
        Ok(true)
    }

    /// All relation names, sorted.
    pub fn relation_names(&self) -> Vec<&str> {
        self.tables.keys().map(|s| s.as_str()).collect()
    }

    /// Reconstruct the schema catalog from the stored tables.
    pub fn schema(&self) -> DatabaseSchema {
        let mut cat = DatabaseSchema::new();
        for t in self.tables.values() {
            cat.add(t.schema().clone()).expect("table names are unique");
        }
        cat
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.tables.values().map(|t| t.len()).sum()
    }

    /// Register a new journal consumer and return its cursor, creating the
    /// journal if this is the first. The cursor starts at the head: it
    /// reads every transaction committed after this call, through
    /// [`Database::journal_peek`] and then [`Database::journal_advance`].
    /// Entries retire once every consumer has passed them.
    pub fn journal_subscribe(&mut self) -> JournalCursor {
        let id = self.next_cursor;
        self.next_cursor += 1;
        let journal = self.journal.get_or_insert_with(CommitJournal::default);
        journal.consumers.insert(id, journal.head_seq());
        JournalCursor(id)
    }

    /// Remove a consumer. Entries it alone was holding back retire
    /// immediately, and the last consumer's departure drops the journal.
    /// Unknown cursors are ignored.
    pub fn journal_unsubscribe(&mut self, cursor: JournalCursor) {
        if let Some(j) = &mut self.journal {
            j.consumers.remove(&cursor.0);
            j.retire();
            if j.consumers.is_empty() {
                self.journal = None;
            }
        }
    }

    /// Everything committed since `cursor` last advanced, in commit order,
    /// one shared `Arc` per transaction: every consumer reads the same
    /// allocation. The cursor does not move; call
    /// [`Database::journal_advance`] once the entries have been applied,
    /// so a consumer whose apply failed (the WAL persister) reads them
    /// again.
    pub fn journal_peek(&self, cursor: JournalCursor) -> Result<Vec<Arc<JournalEntry>>> {
        self.journal_of(cursor)?.peek(cursor)
    }

    /// Move `cursor` past `n` entries (saturating at the journal head).
    /// Entries every consumer has passed retire.
    pub fn journal_advance(&mut self, cursor: JournalCursor, n: usize) -> Result<()> {
        (self.journal.as_mut())
            .ok_or_else(|| unknown_cursor(cursor))?
            .advance(cursor, n)
    }

    /// Number of committed transactions `cursor` has not yet read.
    pub fn journal_lag(&self, cursor: JournalCursor) -> Result<u64> {
        let j = self.journal_of(cursor)?;
        Ok(j.head_seq() - j.next_seq(cursor)?)
    }

    /// Number of committed transactions currently retained: those the
    /// slowest consumer has not read, 0 with no consumer.
    pub fn journal_retained(&self) -> usize {
        self.journal.as_ref().map_or(0, |j| j.entries.len())
    }

    fn journal_of(&self, cursor: JournalCursor) -> Result<&CommitJournal> {
        self.journal.as_ref().ok_or_else(|| unknown_cursor(cursor))
    }

    /// Convenience: insert a tuple built from raw values.
    pub fn insert(&mut self, relation: &str, values: Vec<crate::value::Value>) -> Result<()> {
        let tuple = Tuple::new(self.table(relation)?.schema(), values)?;
        self.apply(&DbOp::Insert {
            relation: relation.to_owned(),
            tuple,
        })
    }

    /// Apply one op as its own committed transaction: a one-op batch,
    /// except that its refusal comes back as it is, not wrapped.
    pub fn apply(&mut self, op: &DbOp) -> Result<()> {
        self.apply_all(std::slice::from_ref(op))
            .map_err(|e| match e {
                Error::Rolledback(cause) => *cause,
                other => other,
            })
    }

    /// Apply a batch of ops as one transaction: overlay over `self`, fold,
    /// install. Every op is admitted against the overlay, in order, before
    /// anything is installed; the first one refused fails the batch, its
    /// error wrapped in [`Error::Rolledback`], and nothing has been touched.
    pub fn apply_all(&mut self, ops: &[DbOp]) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        let mut overlay = DeltaDb::new(self);
        (ops.iter().try_for_each(|op| overlay.fold(op)))
            .map_err(|e| Error::Rolledback(Box::new(e)))?;
        let mut staged = overlay.finish();
        // the borrowed ops are copied only when a journal is there to keep them
        if self.journal.is_some() {
            staged.ops = ops.to_vec();
        }
        self.install(staged)
    }

    /// Commit a staged change: the one way rows reach a table, for a
    /// pipeline commit, a raw [`Database::apply_all`] and a WAL replay alike.
    /// Every refusal comes before anything is borrowed mutably: the change
    /// must have been staged over this database at its current version
    /// ([`Error::Conflict`] otherwise), and every row is validated once
    /// more. Then each key is put or removed through `Table::put`
    /// (copy-on-write per written chunk; the `relational.install` span's
    /// `cow_rows` field counts the entries copied beside a pinned reader),
    /// the version moves by one and stamps each written relation once — a
    /// relation of insert-then-delete no-ops too: it was written — and the
    /// op log moves into the journal beside the rows each key held before
    /// and holds after. An empty change moves nothing.
    pub fn install(&mut self, staged: Staged) -> Result<()> {
        let (delta, ops) = (staged.delta, staged.ops);
        let Some((first, _)) = delta.relations().next() else {
            return Ok(());
        };
        let mut sp = trace::span("relational.install");
        if sp.is_recording() {
            sp.field("label", Json::str("Install"));
            sp.field("rows_in", Json::Int(delta.len() as i64));
            sp.field("relations", Json::Int(delta.relations().count() as i64));
            sp.field("keys", Json::Int(delta.len() as i64));
            sp.field("ops", Json::Int(ops.len() as i64));
        }
        if staged.base_version != self.version {
            return Err(Error::Conflict {
                relation: first.to_owned(),
                base_version: staged.base_version,
                head_version: self.version,
            });
        }
        for (relation, rows) in delta.relations() {
            let schema = self.table(relation)?.schema();
            (rows.values().flatten()).try_for_each(|row| row.validate(schema))?;
        }
        self.version += 1;
        count_commit();
        let images = if sp.is_recording() {
            let (images, taken) = trace::capture(|| self.put_rows(delta));
            let copied = taken.count("relational.cow_rows");
            sp.field("cow_rows", Json::Int(copied as i64));
            images
        } else {
            self.put_rows(delta)
        };
        if let Some(journal) = &mut self.journal {
            (journal.entries).push_back(Arc::new(JournalEntry { ops, images }));
        }
        Ok(())
    }

    /// The write half of [`Database::install`]: put every key of an
    /// admitted `delta` and stamp each written relation, returning the
    /// images a journal keeps (none when no journal is kept).
    fn put_rows(&mut self, delta: Delta) -> Vec<(String, Vec<RowImage>)> {
        let journaling = self.journal.is_some();
        let mut images = Vec::new();
        for (relation, rows) in delta.into_relations() {
            let table = self.data_table_mut(&relation).expect("admitted above");
            let mut written = Vec::with_capacity(if journaling { rows.len() } else { 0 });
            for (key, after) in rows {
                let before = match &after {
                    Some(row) => {
                        let order = KeyOrder::of(table.schema());
                        debug_assert!(order.cmp(row, key.values()).is_eq(), "a row off its key");
                        table.put(row.clone())
                    }
                    None => table.take(key.values()),
                };
                if journaling && (before.is_some() || after.is_some()) {
                    written.push(RowImage { before, after });
                }
            }
            if written.is_empty() {
                self.table_stamps.insert(relation, self.version);
            } else {
                self.table_stamps.insert(relation.clone(), self.version);
                images.push((relation, written));
            }
        }
        images
    }
}

/// An immutable, pinned view of a [`Database`] at one committed version.
///
/// Pinning is O(relations) — every table is structurally shared with the
/// live database (see [`Database::snapshot`]). The handle is `Send +
/// Sync` and readable with no lock held: any number of threads can
/// instantiate, query, and scan through it while writers keep committing
/// against the head. It dereferences to [`Database`], so every read API
/// (including the [`DbRead`](crate::overlay::DbRead) trait) works on it
/// unchanged.
#[derive(Debug, Clone)]
pub struct DbSnapshot {
    inner: Arc<Database>,
}

// Session readers hold snapshots across worker threads.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<DbSnapshot>();
};

impl DbSnapshot {
    /// The committed version this snapshot pins.
    pub fn version(&self) -> u64 {
        self.inner.version
    }

    /// The pinned database (also available through `Deref`).
    pub fn database(&self) -> &Database {
        &self.inner
    }
}

impl Deref for DbSnapshot {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::AttributeDef;
    use crate::value::{DataType, Value};

    fn db() -> Database {
        let mut d = Database::new();
        d.create_relation(
            RelationSchema::new(
                "DEPARTMENT",
                vec![AttributeDef::required("dept_name", DataType::Text)],
                &["dept_name"],
            )
            .unwrap(),
        )
        .unwrap();
        d.create_relation(
            RelationSchema::new(
                "COURSES",
                vec![
                    AttributeDef::required("course_id", DataType::Text),
                    AttributeDef::required("dept_name", DataType::Text),
                ],
                &["course_id"],
            )
            .unwrap(),
        )
        .unwrap();
        d
    }

    #[test]
    fn create_and_drop() {
        let mut d = db();
        assert_eq!(d.relation_names(), vec!["COURSES", "DEPARTMENT"]);
        d.drop_relation("COURSES").unwrap();
        assert!(matches!(d.table("COURSES"), Err(Error::NoSuchRelation(_))));
        assert!(matches!(
            d.drop_relation("COURSES"),
            Err(Error::NoSuchRelation(_))
        ));
    }

    #[test]
    fn single_ops_commit_one_by_one_with_unwrapped_errors() {
        let mut d = db();
        d.insert("COURSES", vec!["CS345".into(), "CS".into()])
            .unwrap();
        let schema = d.table("COURSES").unwrap().schema().clone();
        let rekey = DbOp::Replace {
            relation: "COURSES".into(),
            old_key: Key::single("CS345"),
            tuple: Tuple::new(&schema, vec!["EES345".into(), "EES".into()]).unwrap(),
        };
        let v = d.version();
        d.apply(&rekey).unwrap();
        assert_eq!(d.version(), v + 1);
        let courses = d.table("COURSES").unwrap();
        assert!(!courses.contains_key(&Key::single("CS345")));
        let moved = courses.get(&Key::single("EES345")).unwrap();
        assert_eq!(moved.get(1), &Value::text("EES"));
        // one op is not a batch: its refusal comes back as it is
        assert!(matches!(d.apply(&rekey), Err(Error::NoSuchTuple { .. })));
        assert!(matches!(
            d.insert("COURSES", vec!["EES345".into(), "X".into()]),
            Err(Error::KeyConflict { .. })
        ));
        assert_eq!(d.version(), v + 1);
    }

    #[test]
    fn batch_rolls_back_on_failure() {
        let mut d = db();
        d.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        let dept = d.table("DEPARTMENT").unwrap().schema().clone();
        let ops = vec![
            DbOp::Insert {
                relation: "DEPARTMENT".into(),
                tuple: Tuple::new(&dept, vec!["EE".into()]).unwrap(),
            },
            // fails: duplicate key
            DbOp::Insert {
                relation: "DEPARTMENT".into(),
                tuple: Tuple::new(&dept, vec!["CS".into()]).unwrap(),
            },
        ];
        let err = d.apply_all(&ops).unwrap_err();
        assert!(matches!(err, Error::Rolledback(_)));
        // the EE insert before it never reached the table
        assert_eq!(d.table("DEPARTMENT").unwrap().len(), 1);
    }

    /// `ops` folded onto an overlay of `d` and — the check having vetoed
    /// it — dropped: what used to be apply, veto, undo.
    fn fold_and_veto(d: &Database, ops: &[DbOp]) {
        let mut overlay = DeltaDb::new(d);
        overlay.apply_all(ops.to_vec()).unwrap();
        assert_eq!(overlay.delta().len(), ops.len());
    }

    #[test]
    fn vetoed_overlay_installs_nothing_and_the_same_overlay_installs() {
        let mut d = db();
        let ops = vec![dept_insert(&d, "EE")];
        let pinned = d.snapshot();
        fold_and_veto(&d, &ops);
        assert_eq!(d.version(), pinned.version());
        assert!(std::ptr::eq(
            d.table("DEPARTMENT").unwrap(),
            pinned.table("DEPARTMENT").unwrap()
        ));
        // and succeeds when the check passes
        let mut overlay = DeltaDb::new(&d);
        overlay.apply_all(ops).unwrap();
        let staged = overlay.finish();
        d.install(staged).unwrap();
        assert_eq!(d.table("DEPARTMENT").unwrap().len(), 1);
        assert_eq!(d.version(), pinned.version() + 1);
    }

    #[test]
    fn install_refuses_a_change_staged_over_another_version() {
        let mut d = db();
        let stale = {
            let mut overlay = DeltaDb::new(&d);
            overlay.apply(dept_insert(&d, "EE")).unwrap();
            overlay.finish()
        };
        d.insert("COURSES", vec!["CS345".into(), "CS".into()])
            .unwrap();
        let pinned = d.snapshot();
        let err = d.install(stale).unwrap_err();
        assert!(
            matches!(&err, Error::Conflict { relation, base_version, head_version }
                if relation == "DEPARTMENT" && *base_version + 1 == *head_version),
            "{err}"
        );
        assert_eq!(d.version(), pinned.version());
        assert_eq!(d.table("DEPARTMENT").unwrap().len(), 0);
    }

    #[test]
    fn install_writes_each_key_once_keeps_indexes_and_moves_the_ops_into_the_journal() {
        let mut d = db();
        d.create_index("COURSES", &["dept_name".to_owned()])
            .unwrap();
        d.insert("COURSES", vec!["CS345".into(), "CS".into()])
            .unwrap();
        let cursor = d.journal_subscribe();
        let courses = d.table("COURSES").unwrap().schema().clone();
        let course = |id: &str, dept: &str| Tuple::new(&courses, vec![id.into(), dept.into()]);
        let ops = vec![
            // comes and goes inside the batch; CS345 moves department twice
            DbOp::Insert {
                relation: "COURSES".into(),
                tuple: course("EE282", "EE").unwrap(),
            },
            DbOp::Delete {
                relation: "COURSES".into(),
                key: Key::single("EE282"),
            },
            DbOp::Replace {
                relation: "COURSES".into(),
                old_key: Key::single("CS345"),
                tuple: course("CS345", "EE").unwrap(),
            },
            DbOp::Replace {
                relation: "COURSES".into(),
                old_key: Key::single("CS345"),
                tuple: course("CS345", "ME").unwrap(),
            },
        ];
        let handed = ops.as_ptr();
        let mut overlay = DeltaDb::new(&d);
        overlay.apply_all(ops).unwrap();
        assert_eq!(overlay.delta().len(), 2, "four ops, two keys");
        let staged = overlay.finish();
        let (v, dept_v) = (d.version(), d.table_version("DEPARTMENT"));
        d.install(staged).unwrap();
        assert_eq!(d.version(), v + 1);
        assert_eq!(d.table_version("COURSES"), v + 1);
        assert_eq!(d.table_version("DEPARTMENT"), dept_v);
        let by_dept = |dept: &str| {
            let t = d.table("COURSES").unwrap();
            t.keys_by_attrs(&["dept_name".to_owned()], &[Value::text(dept)])
                .unwrap()
        };
        assert_eq!(by_dept("ME"), vec![Key::single("CS345")]);
        assert!(by_dept("CS").is_empty() && by_dept("EE").is_empty());
        let read = read(&mut d, cursor);
        assert_eq!(read.len(), 1);
        assert!(std::ptr::eq(read[0].ops.as_ptr(), handed));
        // EE282 came and went: only CS345 has an image, and its rows are
        // the ones the table held and holds
        let [(relation, images)] = &read[0].images[..] else {
            panic!("one written relation");
        };
        let [image] = &images[..] else {
            panic!("one image: {images:?}");
        };
        let key = image.key(&courses);
        assert_eq!(
            (relation.as_str(), &key),
            ("COURSES", &Key::single("CS345"))
        );
        assert_eq!(image.before.as_ref().unwrap().get(1), &Value::text("CS"));
        let held = d.table("COURSES").unwrap().get(&key).unwrap();
        assert!(image.after.as_ref().unwrap().ptr_eq(held));
    }

    #[test]
    fn schema_roundtrip() {
        let d = db();
        let cat = d.schema();
        assert!(cat.contains("COURSES"));
        assert!(cat.contains("DEPARTMENT"));
        assert_eq!(cat.len(), 2);
    }

    #[test]
    fn total_tuples_counts_all_relations() {
        let mut d = db();
        d.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        d.insert("COURSES", vec!["CS345".into(), "CS".into()])
            .unwrap();
        d.insert("COURSES", vec!["CS346".into(), "CS".into()])
            .unwrap();
        assert_eq!(d.total_tuples(), 3);
    }

    /// Peek everything `cursor` has not read, then advance past it.
    fn read(d: &mut Database, cursor: JournalCursor) -> Vec<Arc<JournalEntry>> {
        let read = d.journal_peek(cursor).unwrap();
        d.journal_advance(cursor, read.len()).unwrap();
        read
    }

    #[test]
    fn commit_journal_records_only_committed_transactions() {
        let mut d = db();
        // nothing is recorded before a cursor exists
        d.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        assert_eq!(d.journal_retained(), 0);
        let c = d.journal_subscribe();
        assert!(read(&mut d, c).is_empty());

        // a single-op transaction
        d.insert("DEPARTMENT", vec!["EE".into()]).unwrap();
        // a committed batch is one journal entry
        let courses = d.table("COURSES").unwrap().schema().clone();
        let batch = vec![
            DbOp::Insert {
                relation: "COURSES".into(),
                tuple: Tuple::new(&courses, vec!["CS345".into(), "CS".into()]).unwrap(),
            },
            DbOp::Insert {
                relation: "COURSES".into(),
                tuple: Tuple::new(&courses, vec!["EE282".into(), "EE".into()]).unwrap(),
            },
        ];
        d.apply_all(&batch).unwrap();
        // a refused batch records nothing (duplicate key fails)
        let dept = d.table("DEPARTMENT").unwrap().schema().clone();
        let bad = vec![
            DbOp::Insert {
                relation: "DEPARTMENT".into(),
                tuple: Tuple::new(&dept, vec!["ME".into()]).unwrap(),
            },
            DbOp::Insert {
                relation: "DEPARTMENT".into(),
                tuple: Tuple::new(&dept, vec!["CS".into()]).unwrap(),
            },
        ];
        assert!(d.apply_all(&bad).is_err());
        // a batch folded whole and then vetoed records nothing either
        fold_and_veto(&d, &bad[..1]);

        let txs = read(&mut d, c);
        assert_eq!(txs.len(), 2);
        assert_eq!(txs[0].ops.len(), 1);
        assert_eq!(txs[1].ops, batch);
        // read: nothing is left for the cursor
        assert!(read(&mut d, c).is_empty());
    }

    #[test]
    fn journal_fans_out_to_independent_cursors() {
        let mut d = db();
        let a = d.journal_subscribe();
        d.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        // a consumer subscribes at the head: it sees only later commits
        let b = d.journal_subscribe();
        d.insert("DEPARTMENT", vec!["EE".into()]).unwrap();

        // both entries retained until every consumer passes them
        assert_eq!(d.journal_retained(), 2);
        let ra = read(&mut d, a);
        assert_eq!(ra.len(), 2);
        assert_eq!(ra.iter().map(|t| t.ops.len()).sum::<usize>(), 2);
        // b still holds the second entry back
        assert_eq!(d.journal_retained(), 1);
        assert_eq!(d.journal_lag(b).unwrap(), 1);
        assert_eq!(read(&mut d, b).len(), 1);
        assert_eq!(d.journal_retained(), 0);
        assert_eq!(d.journal_lag(a).unwrap(), 0);
    }

    #[test]
    fn journal_peek_does_not_consume() {
        let mut d = db();
        let c = d.journal_subscribe();
        d.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        assert_eq!(d.journal_peek(c).unwrap().len(), 1);
        assert_eq!(d.journal_peek(c).unwrap().len(), 1);
        d.journal_advance(c, 1).unwrap();
        assert!(d.journal_peek(c).unwrap().is_empty());
        assert_eq!(d.journal_retained(), 0);
    }

    #[test]
    fn reading_through_one_cursor_does_not_steal_from_another() {
        let mut d = db();
        let wal = d.journal_subscribe();
        let other = d.journal_subscribe();
        d.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        let taken = read(&mut d, other);
        assert_eq!(taken.len(), 1);
        // the WAL cursor still sees the transaction — the same shared entry
        let r = read(&mut d, wal);
        assert_eq!(r.len(), 1);
        assert!(Arc::ptr_eq(&r[0], &taken[0]));
        // and the first reader keeps working incrementally
        d.insert("DEPARTMENT", vec!["EE".into()]).unwrap();
        assert_eq!(read(&mut d, other).len(), 1);
    }

    #[test]
    fn unsubscribe_releases_retained_entries() {
        let mut d = db();
        let slow = d.journal_subscribe();
        let fast = d.journal_subscribe();
        d.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        read(&mut d, fast);
        assert_eq!(d.journal_retained(), 1);
        d.journal_unsubscribe(slow);
        assert_eq!(d.journal_retained(), 0);
        assert!(d.journal_peek(slow).is_err());
    }

    #[test]
    fn unsubscribing_the_last_cursor_drops_what_was_retained() {
        let mut d = db();
        let c = d.journal_subscribe();
        for name in ["A", "B", "C"] {
            d.insert("DEPARTMENT", vec![name.into()]).unwrap();
        }
        assert_eq!(d.journal_retained(), 3);
        d.journal_unsubscribe(c);
        assert_eq!(d.journal_retained(), 0);
        // with no cursor there is no journal: later commits retain nothing
        d.insert("DEPARTMENT", vec!["D".into()]).unwrap();
        assert_eq!(d.journal_retained(), 0);
        assert!(d.journal_lag(c).is_err());
        // a new cursor starts at the head and is not the old one
        let fresh = d.journal_subscribe();
        assert_ne!(fresh, c);
        assert!(d.journal_peek(fresh).unwrap().is_empty());
        assert!(d.journal_peek(c).is_err());
        d.insert("DEPARTMENT", vec!["E".into()]).unwrap();
        assert_eq!(read(&mut d, fresh).len(), 1);
    }

    #[test]
    fn a_clone_carries_no_journal() {
        let mut d = db();
        let c = d.journal_subscribe();
        d.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        let mut copy = d.clone();
        assert_eq!(copy.journal_retained(), 0);
        assert!(copy.journal_peek(c).is_err());
        for name in ["EE", "ME"] {
            copy.insert("DEPARTMENT", vec![name.into()]).unwrap();
        }
        assert_eq!(copy.journal_retained(), 0);
        // the original's cursor still reads its own entry, and only it
        d.insert("DEPARTMENT", vec!["BIO".into()]).unwrap();
        let own = read(&mut d, c);
        assert_eq!(own.len(), 2);
        assert_eq!(own[1].ops, vec![dept_insert(&d, "BIO")]);
        // a snapshot is a copy too
        assert_eq!(d.snapshot().journal_retained(), 0);
    }

    fn dept_insert(d: &Database, name: &str) -> DbOp {
        let schema = d.table("DEPARTMENT").unwrap().schema().clone();
        DbOp::Insert {
            relation: "DEPARTMENT".into(),
            tuple: Tuple::new(&schema, vec![name.into()]).unwrap(),
        }
    }

    #[test]
    fn versions_stamp_committed_transactions_only() {
        let mut d = db();
        let v0 = d.version();
        d.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        assert_eq!(d.version(), v0 + 1);
        assert_eq!(d.table_version("DEPARTMENT"), v0 + 1);
        let courses_v = d.table_version("COURSES");
        // a refused batch leaves the version untouched
        let dept = d.table("DEPARTMENT").unwrap().schema().clone();
        let bad = vec![
            DbOp::Insert {
                relation: "DEPARTMENT".into(),
                tuple: Tuple::new(&dept, vec!["EE".into()]).unwrap(),
            },
            DbOp::Insert {
                relation: "DEPARTMENT".into(),
                tuple: Tuple::new(&dept, vec!["CS".into()]).unwrap(),
            },
        ];
        assert!(d.apply_all(&bad).is_err());
        assert_eq!(d.version(), v0 + 1);
        // a batch folded whole and then vetoed too
        fold_and_veto(&d, &bad[..1]);
        assert_eq!(d.version(), v0 + 1);
        // a batch stamps every touched relation with one version
        let courses = d.table("COURSES").unwrap().schema().clone();
        let batch = vec![
            dept_insert(&d, "EE"),
            DbOp::Insert {
                relation: "COURSES".into(),
                tuple: Tuple::new(&courses, vec!["CS345".into(), "CS".into()]).unwrap(),
            },
        ];
        d.apply_all(&batch).unwrap();
        assert_eq!(d.version(), v0 + 2);
        assert_eq!(d.table_version("DEPARTMENT"), v0 + 2);
        assert_eq!(d.table_version("COURSES"), v0 + 2);
        assert!(d.table_version("COURSES") > courses_v);
    }

    #[test]
    fn check_unchanged_detects_conflicts() {
        let mut d = db();
        let base = d.version();
        assert!(d.check_unchanged(["DEPARTMENT", "COURSES"], base).is_ok());
        d.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        // COURSES untouched: no conflict
        assert!(d.check_unchanged(["COURSES"], base).is_ok());
        // DEPARTMENT changed: conflict naming the relation and versions
        let err = d.check_unchanged(["DEPARTMENT"], base).unwrap_err();
        match err {
            Error::Conflict {
                relation,
                base_version,
                head_version,
            } => {
                assert_eq!(relation, "DEPARTMENT");
                assert_eq!(base_version, base);
                assert_eq!(head_version, d.version());
            }
            other => panic!("expected Conflict, got {other:?}"),
        }
        // re-validated at the new head: clean again
        assert!(d.check_unchanged(["DEPARTMENT"], d.version()).is_ok());
    }

    #[test]
    fn snapshot_is_isolated_from_later_commits() {
        let mut d = db();
        d.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        let snap = d.snapshot();
        let pinned_version = snap.version();
        assert_eq!(pinned_version, d.version());
        // commits against the head do not leak into the snapshot
        d.insert("DEPARTMENT", vec!["EE".into()]).unwrap();
        d.insert("COURSES", vec!["CS345".into(), "CS".into()])
            .unwrap();
        assert_eq!(snap.table("DEPARTMENT").unwrap().len(), 1);
        assert_eq!(snap.table("COURSES").unwrap().len(), 0);
        assert_eq!(d.table("DEPARTMENT").unwrap().len(), 2);
        assert_eq!(snap.version(), pinned_version);
        assert!(d.version() > pinned_version);
        // a snapshot clone pins the same state
        let snap2 = snap.clone();
        assert_eq!(snap2.version(), pinned_version);
        // structural changes are isolated too
        d.drop_relation("COURSES").unwrap();
        assert!(snap.table("COURSES").is_ok());
    }

    #[test]
    fn snapshot_shares_untouched_tables() {
        let mut d = db();
        d.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        let snap = d.snapshot();
        // an untouched table is the same allocation in both
        assert!(std::ptr::eq(
            snap.table("COURSES").unwrap(),
            d.table("COURSES").unwrap()
        ));
        // touching DEPARTMENT copies it, leaving COURSES shared
        d.insert("DEPARTMENT", vec!["EE".into()]).unwrap();
        assert!(!std::ptr::eq(
            snap.table("DEPARTMENT").unwrap(),
            d.table("DEPARTMENT").unwrap()
        ));
        assert!(std::ptr::eq(
            snap.table("COURSES").unwrap(),
            d.table("COURSES").unwrap()
        ));
    }

    #[test]
    fn snapshot_reads_concurrently_while_writer_commits() {
        let mut d = db();
        d.insert("DEPARTMENT", vec!["D0".into()]).unwrap();
        let snap = d.snapshot();
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..4)
                .map(|_| {
                    let snap = snap.clone();
                    scope.spawn(move || {
                        let mut counts = Vec::new();
                        for _ in 0..50 {
                            counts.push(snap.table("DEPARTMENT").unwrap().len());
                        }
                        counts
                    })
                })
                .collect();
            for i in 1..50 {
                d.insert("DEPARTMENT", vec![format!("D{i}").into()])
                    .unwrap();
            }
            for r in readers {
                let counts = r.join().unwrap();
                assert!(
                    counts.iter().all(|&c| c == 1),
                    "snapshot reads must be stable"
                );
            }
        });
        assert_eq!(d.table("DEPARTMENT").unwrap().len(), 50);
    }

    #[test]
    fn table_mut_and_ddl_stamp_versions() {
        let mut d = db();
        let v0 = d.version();
        d.table_mut("DEPARTMENT").unwrap();
        assert!(d.version() > v0);
        assert_eq!(d.table_version("DEPARTMENT"), d.version());
        let v1 = d.version();
        d.drop_relation("COURSES").unwrap();
        assert!(d.version() > v1);
        assert_eq!(d.table_version("COURSES"), d.version());
        // the dropped relation's stamp keeps conflicting
        assert!(d.check_unchanged(["COURSES"], v1).is_err());
    }

    #[test]
    fn failed_table_mut_changes_nothing() {
        let mut d = db();
        let (epoch, version) = (d.structure_epoch(), d.version());
        assert!(matches!(d.table_mut("NOPE"), Err(Error::NoSuchRelation(_))));
        assert_eq!(d.structure_epoch(), epoch);
        assert_eq!(d.version(), version);
        assert_eq!(d.table_version("NOPE"), 0);
    }

    #[test]
    fn failed_ddl_changes_nothing() {
        let mut d = db();
        let stamps = |d: &Database| (d.structure_epoch(), d.version(), d.table_version("COURSES"));
        let before = stamps(&d);
        assert!(matches!(
            d.drop_relation("NOPE"),
            Err(Error::NoSuchRelation(_))
        ));
        assert_eq!(stamps(&d), before);
        assert_eq!(d.table_version("NOPE"), 0);
        // an index on an unknown relation, then on an unknown attribute
        assert!(d.create_index("NOPE", &["x".to_owned()]).is_err());
        assert_eq!(stamps(&d), before);
        assert!(d.create_index("COURSES", &["nope".to_owned()]).is_err());
        assert_eq!(stamps(&d), before);
        assert!(d.ensure_index("COURSES", &["nope".to_owned()]).is_err());
        assert_eq!(stamps(&d), before);
        // the successful calls still move the epoch
        d.create_index("COURSES", &["dept_name".to_owned()])
            .unwrap();
        assert_eq!(d.structure_epoch(), before.0 + 1);
        d.drop_relation("COURSES").unwrap();
        assert_eq!(d.structure_epoch(), before.0 + 2);
    }

    #[test]
    fn op_accessors() {
        let op = DbOp::Delete {
            relation: "X".into(),
            key: Key::single(1),
        };
        assert_eq!(op.relation(), "X");
        assert!(op.is_delete());
        assert!(!op.is_insert());
        assert!(!op.is_replace());
        assert!(op.to_string().starts_with("DELETE X"));
    }
}
