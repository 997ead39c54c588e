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

use crate::error::{Error, Result};
use crate::json::Json;
use crate::overlay::{DeltaDb, Staged};
use crate::schema::{DatabaseSchema, RelationSchema};
use crate::stats::{count_commit, count_conflict, count_journal_dropped, count_snapshot_pinned};
use crate::table::Table;
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

/// Where a new journal subscription starts reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalStart {
    /// From the oldest transaction still retained in the journal. The WAL
    /// persister uses this: anything another consumer has not yet retired
    /// is visible.
    Oldest,
    /// From the next transaction committed after subscribing. Materialized
    /// views use this: they are built from the current database state, so
    /// older retained entries are already reflected in them.
    Head,
}

/// What happens when a committed transaction would push the journal past
/// its cap (see [`Database::set_journal_cap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalOverflow {
    /// Reject the transaction with [`Error::JournalOverflow`] *before*
    /// anything is installed, so the database and the journal stay in
    /// lockstep. Appropriate when losing a journal entry is worse than
    /// failing the write (e.g. ahead of a WAL persister).
    Error,
    /// Drop the oldest retained transaction to make room. Consumers whose
    /// cursor pointed at a dropped entry are marked *lapsed* — their next
    /// read reports how many transactions they missed so they can fall
    /// back to a full rebuild. Each drop bumps the
    /// `relational.journal.dropped` counter.
    DropOldest,
}

/// A bound on how many committed transactions the journal retains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalCap {
    /// Maximum retained (not yet universally consumed) transactions.
    pub max_transactions: usize,
    /// Policy when a commit would exceed `max_transactions`.
    pub overflow: JournalOverflow,
}

impl JournalCap {
    /// A cap that rejects commits once `max_transactions` are retained.
    pub fn error(max_transactions: usize) -> Self {
        JournalCap {
            max_transactions,
            overflow: JournalOverflow::Error,
        }
    }

    /// A cap that evicts the oldest retained transaction on overflow.
    pub fn drop_oldest(max_transactions: usize) -> Self {
        JournalCap {
            max_transactions,
            overflow: JournalOverflow::DropOldest,
        }
    }
}

/// Handle identifying one journal consumer. Obtained from
/// [`Database::journal_subscribe`]; pass it to `journal_read` /
/// `journal_peek` / `journal_advance` / `journal_lag` /
/// `journal_unsubscribe`. Cursors are plain ids: cloning a `Database`
/// clones its consumers, so a cursor works on the clone too (each side
/// then advances independently).
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

/// One consumer's view of the journal: the transactions committed since
/// its cursor, plus how many it irrecoverably missed.
#[derive(Debug, Clone, Default)]
pub struct JournalRead {
    /// Committed transactions in commit order, one `Arc` per transaction.
    /// Entries are shared, not copied: every consumer reads the same
    /// allocation.
    pub transactions: Vec<Arc<JournalEntry>>,
    /// Transactions evicted past this cursor by a
    /// [`JournalOverflow::DropOldest`] cap since the last read. Non-zero
    /// means the delta stream has a hole: an incremental consumer must
    /// resynchronize from the database itself (full rebuild).
    pub lapsed: u64,
}

impl JournalRead {
    /// Total ops across all returned transactions.
    pub fn op_count(&self) -> usize {
        self.transactions.iter().map(|t| t.ops.len()).sum()
    }
}

#[derive(Debug, Clone, Copy)]
struct Consumer {
    /// Sequence number of the next entry this consumer will read.
    next_seq: u64,
    /// Entries evicted before this consumer read them (reported and
    /// cleared on the next read/advance).
    lapsed: u64,
}

/// Multi-consumer committed-transaction journal. Entries are reference-
/// counted and retire only once every consumer's cursor has passed them,
/// so the WAL persister and any number of materialized views can share
/// one delta stream without stealing from each other.
#[derive(Debug, Clone, Default)]
struct CommitJournal {
    entries: VecDeque<Arc<JournalEntry>>,
    /// Sequence number of `entries[0]`. Sequence numbers are assigned at
    /// commit and never reused, so a consumer's position is a plain `u64`.
    base_seq: u64,
    consumers: BTreeMap<u64, Consumer>,
    next_consumer: u64,
}

impl CommitJournal {
    fn head_seq(&self) -> u64 {
        self.base_seq + self.entries.len() as u64
    }

    fn subscribe(&mut self, start: JournalStart) -> JournalCursor {
        let id = self.next_consumer;
        self.next_consumer += 1;
        let next_seq = match start {
            JournalStart::Oldest => self.base_seq,
            JournalStart::Head => self.head_seq(),
        };
        self.consumers.insert(
            id,
            Consumer {
                next_seq,
                lapsed: 0,
            },
        );
        JournalCursor(id)
    }

    fn consumer(&self, cursor: JournalCursor) -> Result<&Consumer> {
        self.consumers
            .get(&cursor.0)
            .ok_or_else(|| unknown_cursor(cursor))
    }

    fn peek(&self, cursor: JournalCursor) -> Result<JournalRead> {
        let c = self.consumer(cursor)?;
        let skip = (c.next_seq - self.base_seq) as usize;
        Ok(JournalRead {
            transactions: self.entries.iter().skip(skip).cloned().collect(),
            lapsed: c.lapsed,
        })
    }

    /// Move `cursor` forward over up to `n` entries and clear its lapse
    /// counter, then retire entries every consumer has passed.
    fn advance(&mut self, cursor: JournalCursor, n: usize) -> Result<()> {
        let head = self.head_seq();
        let c = self
            .consumers
            .get_mut(&cursor.0)
            .ok_or_else(|| unknown_cursor(cursor))?;
        c.next_seq = (c.next_seq + n as u64).min(head);
        c.lapsed = 0;
        self.retire();
        Ok(())
    }

    fn unsubscribe(&mut self, cursor: JournalCursor) {
        self.consumers.remove(&cursor.0);
        self.retire();
    }

    /// Drop entries that every consumer has read. With no consumers at
    /// all, everything is retained for the first
    /// [`JournalStart::Oldest`] subscriber.
    fn retire(&mut self) {
        let Some(min_next) = self.consumers.values().map(|c| c.next_seq).min() else {
            return;
        };
        while self.base_seq < min_next && !self.entries.is_empty() {
            self.entries.pop_front();
            self.base_seq += 1;
        }
    }

    /// Append one committed transaction, enforcing a drop-oldest cap.
    /// Returns the number of entries evicted.
    fn push(&mut self, entry: JournalEntry, cap: Option<JournalCap>) -> u64 {
        self.entries.push_back(Arc::new(entry));
        match cap {
            Some(JournalCap {
                max_transactions,
                overflow: JournalOverflow::DropOldest,
            }) => self.evict_to(max_transactions),
            _ => 0,
        }
    }

    /// Evict oldest entries until at most `max` remain (floor 1), lapsing
    /// any consumer whose cursor pointed into the evicted range. Returns
    /// the number of entries dropped.
    fn evict_to(&mut self, max: usize) -> u64 {
        let mut dropped = 0u64;
        while self.entries.len() > max.max(1) {
            self.entries.pop_front();
            self.base_seq += 1;
            dropped += 1;
        }
        if dropped > 0 {
            for c in self.consumers.values_mut() {
                if c.next_seq < self.base_seq {
                    c.lapsed += self.base_seq - c.next_seq;
                    c.next_seq = self.base_seq;
                }
            }
        }
        dropped
    }
}

fn unknown_cursor(cursor: JournalCursor) -> Error {
    Error::Storage(format!(
        "unknown journal cursor #{}: the journal was disabled or the cursor unsubscribed",
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
/// shares it (copy-on-write at table granularity, secondary indexes
/// included). Each committed transaction bumps [`Database::version`] and
/// stamps the relations it touched, which is what first-committer-wins
/// conflict detection ([`Database::check_unchanged`]) validates against.
#[derive(Debug, Clone, Default)]
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
    /// hook): when enabled, every *successful* transaction through the
    /// data path — every [`Database::install`], whichever of
    /// [`Database::apply`] / [`Database::insert`] / [`Database::apply_all`]
    /// or the update pipeline staged it — is recorded as one
    /// [`JournalEntry`]: its op list and the pre-/post-images of every key
    /// it wrote. Refused batches record nothing.
    /// The journal is multi-consumer: `vo-store` reads it through one
    /// cursor to frame WAL commit records while materialized views read
    /// the same entries through their own cursors.
    journal: Option<CommitJournal>,
    /// Retention bound applied while journaling (survives
    /// enable/disable cycles).
    journal_cap: Option<JournalCap>,
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
        let mut pinned = self.clone();
        // a snapshot is a reader: it must not retain (or replay) journal
        // entries, and dropping the journal keeps the clone cheap
        pinned.journal = None;
        DbSnapshot {
            inner: Arc::new(pinned),
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

    /// Start recording committed transactions (see the `journal` field).
    /// Idempotent: enabling an already-journaling database keeps its
    /// retained entries and consumers.
    pub fn enable_commit_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(CommitJournal::default());
        }
    }

    /// Stop recording committed transactions, discarding retained entries
    /// and invalidating every subscribed cursor.
    pub fn disable_commit_journal(&mut self) {
        self.journal = None;
    }

    /// True while committed transactions are being journaled.
    pub fn commit_journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// Register a new journal consumer (enabling the journal if it was
    /// off) and return its cursor. Each consumer reads every committed
    /// transaction exactly once through [`Database::journal_read`];
    /// entries retire only when all consumers have passed them.
    pub fn journal_subscribe(&mut self, start: JournalStart) -> JournalCursor {
        self.enable_commit_journal();
        self.journal
            .as_mut()
            .expect("just enabled")
            .subscribe(start)
    }

    /// Remove a consumer. Entries it alone was holding back retire
    /// immediately. Unknown cursors are ignored.
    pub fn journal_unsubscribe(&mut self, cursor: JournalCursor) {
        if let Some(j) = &mut self.journal {
            j.unsubscribe(cursor);
        }
    }

    /// Read and consume everything committed since `cursor` last read.
    /// Equivalent to [`Database::journal_peek`] followed by
    /// [`Database::journal_advance`] over the returned transactions.
    pub fn journal_read(&mut self, cursor: JournalCursor) -> Result<JournalRead> {
        let read = self.journal_peek(cursor)?;
        self.journal_advance(cursor, read.transactions.len())?;
        Ok(read)
    }

    /// Read everything committed since `cursor` without consuming it: the
    /// cursor does not move and the lapse counter is not cleared. Pair
    /// with [`Database::journal_advance`] once the entries have been
    /// safely applied — a consumer with side effects (the WAL persister)
    /// uses this so a failed apply can be retried.
    pub fn journal_peek(&self, cursor: JournalCursor) -> Result<JournalRead> {
        self.journal
            .as_ref()
            .ok_or_else(|| unknown_cursor(cursor))?
            .peek(cursor)
    }

    /// Move `cursor` past `n` entries (saturating at the journal head) and
    /// clear its lapse counter. Entries every consumer has passed retire.
    pub fn journal_advance(&mut self, cursor: JournalCursor, n: usize) -> Result<()> {
        self.journal
            .as_mut()
            .ok_or_else(|| unknown_cursor(cursor))?
            .advance(cursor, n)
    }

    /// Number of committed transactions `cursor` has not yet read.
    pub fn journal_lag(&self, cursor: JournalCursor) -> Result<u64> {
        let j = self
            .journal
            .as_ref()
            .ok_or_else(|| unknown_cursor(cursor))?;
        Ok(j.head_seq() - j.consumer(cursor)?.next_seq)
    }

    /// Number of committed transactions evicted past `cursor` since its
    /// last read/advance — non-zero means the consumer's delta stream has
    /// a hole. Unlike [`Database::journal_peek`] this does not clone the
    /// pending entries, so health probes can poll it cheaply.
    pub fn journal_lapsed(&self, cursor: JournalCursor) -> Result<u64> {
        let j = self
            .journal
            .as_ref()
            .ok_or_else(|| unknown_cursor(cursor))?;
        Ok(j.consumer(cursor)?.lapsed)
    }

    /// Every live consumer's `(cursor, lag)` pair, in cursor order —
    /// the journal fan-out as one snapshot for health monitoring. Empty
    /// when journaling is off.
    pub fn journal_lags(&self) -> Vec<(JournalCursor, u64)> {
        let Some(j) = &self.journal else {
            return Vec::new();
        };
        let head = j.head_seq();
        j.consumers
            .iter()
            .map(|(&id, c)| (JournalCursor(id), head - c.next_seq))
            .collect()
    }

    /// Number of committed transactions currently retained (bounded by the
    /// slowest consumer, or by the cap).
    pub fn journal_retained(&self) -> usize {
        self.journal.as_ref().map_or(0, |j| j.entries.len())
    }

    /// Bound journal retention (or lift the bound with `None`). The cap
    /// survives enable/disable cycles. Shrinking under a
    /// [`JournalOverflow::DropOldest`] policy evicts immediately.
    pub fn set_journal_cap(&mut self, cap: Option<JournalCap>) {
        self.journal_cap = cap;
        if let (Some(j), Some(cap)) = (&mut self.journal, cap) {
            if cap.overflow == JournalOverflow::DropOldest {
                count_journal_dropped(j.evict_to(cap.max_transactions));
            }
        }
    }

    /// The current journal retention cap, if any.
    pub fn journal_cap(&self) -> Option<JournalCap> {
        self.journal_cap
    }

    /// Reject a would-be transaction while the journal is full under the
    /// [`JournalOverflow::Error`] policy. Checked *before* anything is
    /// installed so a rejected transaction leaves no trace.
    fn journal_admit(&self) -> Result<()> {
        let (Some(j), Some(cap)) = (&self.journal, self.journal_cap) else {
            return Ok(());
        };
        if cap.overflow == JournalOverflow::Error && j.entries.len() >= cap.max_transactions.max(1)
        {
            return Err(Error::JournalOverflow {
                capacity: cap.max_transactions,
            });
        }
        Ok(())
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
        self.journal_admit()?;
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
    /// ([`Error::Conflict`] otherwise), the journal must admit one more
    /// transaction, every row is validated once more. Then each key is put
    /// or removed through `Table::put` (copy-on-write per written relation),
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
        self.journal_admit()?;
        for (relation, rows) in delta.relations() {
            let schema = self.table(relation)?.schema();
            (rows.values().flatten()).try_for_each(|row| row.validate(schema))?;
        }
        self.version += 1;
        count_commit();
        let journaling = self.journal.is_some();
        let mut images = Vec::new();
        for (relation, rows) in delta.into_relations() {
            let table = self.data_table_mut(&relation).expect("admitted above");
            let mut written = Vec::with_capacity(if journaling { rows.len() } else { 0 });
            for (key, after) in rows {
                if !journaling {
                    table.put(key, after);
                    continue;
                }
                let before = table.put(key, after.clone());
                if before.is_some() || after.is_some() {
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
        if let Some(journal) = &mut self.journal {
            let entry = JournalEntry { ops, images };
            count_journal_dropped(journal.push(entry, self.journal_cap));
        }
        Ok(())
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
        let cursor = d.journal_subscribe(JournalStart::Head);
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
        let read = d.journal_read(cursor).unwrap();
        assert_eq!(read.transactions.len(), 1);
        assert!(std::ptr::eq(read.transactions[0].ops.as_ptr(), handed));
        // EE282 came and went: only CS345 has an image, and its rows are
        // the ones the table held and holds
        let [(relation, images)] = &read.transactions[0].images[..] else {
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

    #[test]
    fn commit_journal_records_only_committed_transactions() {
        let mut d = db();
        // nothing is recorded while the journal is off
        d.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        let c = d.journal_subscribe(JournalStart::Oldest);
        assert!(d.commit_journal_enabled());
        assert!(d.journal_read(c).unwrap().transactions.is_empty());

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

        let txs = d.journal_read(c).unwrap().transactions;
        assert_eq!(txs.len(), 2);
        assert_eq!(txs[0].ops.len(), 1);
        assert_eq!(txs[1].ops, batch);
        // read: the journal is empty again but still enabled
        assert!(d.journal_read(c).unwrap().transactions.is_empty());
        assert!(d.commit_journal_enabled());
        // disabling discards the journal and invalidates the cursor
        d.disable_commit_journal();
        d.insert("DEPARTMENT", vec!["BIO".into()]).unwrap();
        assert!(d.journal_read(c).is_err());
        assert_eq!(d.journal_retained(), 0);
    }

    fn dept_insert(d: &Database, name: &str) -> DbOp {
        let schema = d.table("DEPARTMENT").unwrap().schema().clone();
        DbOp::Insert {
            relation: "DEPARTMENT".into(),
            tuple: Tuple::new(&schema, vec![name.into()]).unwrap(),
        }
    }

    #[test]
    fn journal_fans_out_to_independent_cursors() {
        let mut d = db();
        let a = d.journal_subscribe(JournalStart::Oldest);
        d.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        // a consumer subscribed at the head sees only later commits
        let b = d.journal_subscribe(JournalStart::Head);
        d.insert("DEPARTMENT", vec!["EE".into()]).unwrap();

        // both entries retained until every consumer passes them
        assert_eq!(d.journal_retained(), 2);
        let ra = d.journal_read(a).unwrap();
        assert_eq!(ra.transactions.len(), 2);
        assert_eq!(ra.lapsed, 0);
        assert_eq!(ra.op_count(), 2);
        // b still holds the second entry back
        assert_eq!(d.journal_retained(), 1);
        assert_eq!(d.journal_lag(b).unwrap(), 1);
        let rb = d.journal_read(b).unwrap();
        assert_eq!(rb.transactions.len(), 1);
        assert_eq!(d.journal_retained(), 0);
        assert_eq!(d.journal_lag(a).unwrap(), 0);
    }

    #[test]
    fn journal_peek_does_not_consume() {
        let mut d = db();
        let c = d.journal_subscribe(JournalStart::Oldest);
        d.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        assert_eq!(d.journal_peek(c).unwrap().transactions.len(), 1);
        assert_eq!(d.journal_peek(c).unwrap().transactions.len(), 1);
        d.journal_advance(c, 1).unwrap();
        assert!(d.journal_peek(c).unwrap().transactions.is_empty());
        assert_eq!(d.journal_retained(), 0);
    }

    #[test]
    fn reading_through_one_cursor_does_not_steal_from_another() {
        let mut d = db();
        let wal = d.journal_subscribe(JournalStart::Oldest);
        let other = d.journal_subscribe(JournalStart::Oldest);
        d.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        let taken = d.journal_read(other).unwrap();
        assert_eq!(taken.transactions.len(), 1);
        // the WAL cursor still sees the transaction — the same shared entry
        let r = d.journal_read(wal).unwrap();
        assert_eq!(r.transactions.len(), 1);
        assert!(Arc::ptr_eq(&r.transactions[0], &taken.transactions[0]));
        // and the first reader keeps working incrementally
        d.insert("DEPARTMENT", vec!["EE".into()]).unwrap();
        assert_eq!(d.journal_read(other).unwrap().transactions.len(), 1);
    }

    #[test]
    fn unsubscribe_releases_retained_entries() {
        let mut d = db();
        let slow = d.journal_subscribe(JournalStart::Oldest);
        let fast = d.journal_subscribe(JournalStart::Oldest);
        d.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        d.journal_read(fast).unwrap();
        assert_eq!(d.journal_retained(), 1);
        d.journal_unsubscribe(slow);
        assert_eq!(d.journal_retained(), 0);
        assert!(d.journal_read(slow).is_err());
    }

    #[test]
    fn drop_oldest_cap_lapses_slow_consumers() {
        let mut d = db();
        d.set_journal_cap(Some(JournalCap::drop_oldest(2)));
        let c = d.journal_subscribe(JournalStart::Oldest);
        for name in ["A", "B", "C", "D"] {
            d.insert("DEPARTMENT", vec![name.into()]).unwrap();
        }
        assert_eq!(d.journal_retained(), 2);
        let r = d.journal_read(c).unwrap();
        assert_eq!(r.lapsed, 2, "two entries evicted past the cursor");
        assert_eq!(r.transactions.len(), 2);
        // after a read the consumer is caught up: no further lapse
        d.insert("DEPARTMENT", vec!["E".into()]).unwrap();
        let r = d.journal_read(c).unwrap();
        assert_eq!(r.lapsed, 0);
        assert_eq!(r.transactions.len(), 1);
    }

    #[test]
    fn error_cap_rejects_before_applying() {
        let mut d = db();
        let c = d.journal_subscribe(JournalStart::Oldest);
        d.set_journal_cap(Some(JournalCap::error(1)));
        d.insert("DEPARTMENT", vec!["CS".into()]).unwrap();
        // journal holds 1 entry: the next transaction must be rejected
        // without touching the table
        let err = d.apply_all(&[dept_insert(&d, "EE")]).unwrap_err();
        assert!(matches!(err, Error::JournalOverflow { capacity: 1 }));
        assert_eq!(d.table("DEPARTMENT").unwrap().len(), 1);
        assert_eq!(d.journal_retained(), 1);
        // reading frees capacity
        d.journal_read(c).unwrap();
        d.insert("DEPARTMENT", vec!["EE".into()]).unwrap();
        assert_eq!(d.table("DEPARTMENT").unwrap().len(), 2);
        // lifting the cap also frees it
        d.set_journal_cap(None);
        d.insert("DEPARTMENT", vec!["ME".into()]).unwrap();
        d.insert("DEPARTMENT", vec!["BIO".into()]).unwrap();
    }

    #[test]
    fn shrinking_drop_oldest_cap_evicts_immediately() {
        let mut d = db();
        d.enable_commit_journal();
        for name in ["A", "B", "C"] {
            d.insert("DEPARTMENT", vec![name.into()]).unwrap();
        }
        assert_eq!(d.journal_retained(), 3);
        d.set_journal_cap(Some(JournalCap::drop_oldest(1)));
        assert_eq!(d.journal_retained(), 1);
        assert_eq!(d.journal_cap(), Some(JournalCap::drop_oldest(1)));
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
