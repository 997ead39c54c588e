//! Durability of a [`Penguin`]: the store and its write-ahead cursor,
//! the persistent constructors, and the flush every mutating facade call
//! ends with.

use super::Penguin;
use crate::catalog::SavedSystem;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use vo_core::prelude::*;
use vo_obs::metrics::{self, Histogram};
use vo_store::{CompactionReport, RecoveryReport, Store, StoreOptions};

/// File holding a persistent system's definition (schema, objects,
/// translators) inside its store directory. Base data is *not* in this
/// file — it lives in the store's checkpoint and write-ahead log.
pub const SYSTEM_FILE: &str = "system.json";

/// Journal transactions pending at each store flush — the write-ahead
/// consumer's lag, the persistence-side counterpart of the per-view
/// `maintain.journal_lag` histogram.
fn persist_lag() -> Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    *H.get_or_init(|| metrics::histogram("penguin.persist.lag"))
}

impl Drop for Penguin {
    /// Clean shutdown for persistent systems: flush the journal through
    /// the write-ahead cursor (checkpointing instead when structure
    /// drifted) and fsync regardless of sync policy. Errors are ignored
    /// (recovery replays the checkpoint + intact log tail either way).
    /// Tests simulate a crash by skipping this with [`std::mem::forget`].
    fn drop(&mut self) {
        if self.store.is_some() {
            let _ = self.flush_store();
            if let Some(store) = &mut self.store {
                let _ = store.sync();
            }
        }
    }
}

impl Penguin {
    /// Create a *persistent* system at `dir` with the default
    /// [`StoreOptions`] (fsync on every commit). Truncates any previous
    /// store in the directory; use [`Penguin::open`] to resume one.
    pub fn persistent(dir: impl Into<PathBuf>, schema: StructuralSchema) -> Result<Penguin> {
        Penguin::persistent_with(dir, schema, StoreOptions::default())
    }

    /// Create a persistent system at `dir` with explicit store options.
    ///
    /// The directory receives `system.json` (the definition: schema,
    /// objects, translators), `base-<id>.json` / `delta-<id>.json`
    /// (full and incremental checkpoints of the base data), and
    /// `wal-<seq>.log` (segmented log of committed translations since
    /// the newest checkpoint). Every successful mutating facade call —
    /// object updates, batches, SQL — appends its committed base-table
    /// operations to the log as one record per transaction before
    /// returning.
    pub fn persistent_with(
        dir: impl Into<PathBuf>,
        schema: StructuralSchema,
        options: StoreOptions,
    ) -> Result<Penguin> {
        let dir = dir.into();
        let mut db = Database::from_schema(schema.catalog());
        let wal_cursor = db.journal_subscribe(JournalStart::Oldest);
        let store = Store::create(&dir, &db, options)?;
        let mut p = Penguin::with_database(schema, db);
        p.store = Some(store);
        p.wal_cursor = Some(wal_cursor);
        p.persist_definition()?;
        Ok(p)
    }

    /// Reopen the persistent system at `dir` with default
    /// [`StoreOptions`], recovering its database from the latest
    /// checkpoint plus the intact write-ahead-log tail (a torn final
    /// record — crash mid-append — is truncated, not replayed).
    pub fn open(dir: impl Into<PathBuf>) -> Result<Penguin> {
        Penguin::open_with(dir, StoreOptions::default())
    }

    /// Reopen the persistent system at `dir` with explicit store options.
    /// See [`Penguin::open`]; what recovery found is reported by
    /// [`Penguin::last_recovery`].
    pub fn open_with(dir: impl Into<PathBuf>, options: StoreOptions) -> Result<Penguin> {
        let dir = dir.into();
        let saved = SavedSystem::load(dir.join(SYSTEM_FILE))?;
        let (store, mut db, report) = Store::open(&dir, options)?;
        let wal_cursor = db.journal_subscribe(JournalStart::Oldest);
        let mut p = saved.restore_with_database(db)?;
        p.store = Some(store);
        p.wal_cursor = Some(wal_cursor);
        p.recovery = Some(report);
        Ok(p)
    }

    /// True when this system persists committed updates to a store.
    pub fn is_persistent(&self) -> bool {
        self.store.is_some()
    }

    /// The durable store's directory, when persistent.
    pub fn store_dir(&self) -> Option<&Path> {
        self.store.as_ref().map(|s| s.dir())
    }

    /// What crash recovery found when this system was [`Penguin::open`]ed
    /// (`None` for fresh or in-memory systems).
    pub fn last_recovery(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Drain committed-but-unpersisted transactions into the store (a
    /// no-op on in-memory systems) and flush the telemetry pipeline, when
    /// one is attached. Mutating facade calls flush the store
    /// automatically; call this to retry after one of them reported a
    /// persistence failure.
    pub fn persist_pending(&mut self) -> Result<()> {
        self.flush_store()?;
        self.drain_telemetry()
    }

    /// Flush pending transactions and take a checkpoint now — normally
    /// an incremental delta artifact whose cost tracks the churn since
    /// the last checkpoint, not the database size. A no-op on in-memory
    /// systems.
    pub fn checkpoint(&mut self) -> Result<()> {
        self.flush_store()?;
        if let Some(store) = &mut self.store {
            store.checkpoint(&self.db)?;
        }
        Ok(())
    }

    /// Fold the store's base + delta-checkpoint chain into a fresh full
    /// base and delete what it supersedes (old bases, deltas, retired
    /// WAL segments). Runs from disk artifacts alone; see
    /// [`vo_store::Store::compact`]. Returns a default (no-op) report on
    /// in-memory systems.
    pub fn compact(&mut self) -> Result<CompactionReport> {
        self.flush_store()?;
        match &mut self.store {
            Some(store) => Ok(store.compact()?),
            None => Ok(CompactionReport::default()),
        }
    }

    /// Force an fsync of the write-ahead log regardless of sync policy.
    pub fn sync_store(&mut self) -> Result<()> {
        if let Some(store) = &mut self.store {
            store.sync()?;
        }
        Ok(())
    }

    /// Read the commit journal through the write-ahead cursor into the
    /// durable store (no-op when in-memory); the store checkpoints instead
    /// of appending when the structure epoch moved. Cursor-transactional:
    /// peek the journal, write the transactions to the store, and only
    /// then advance the cursor — a failed write leaves the cursor in
    /// place, so the same transactions are retried by the next flush.
    /// Other journal consumers (materialized-view cursors) are untouched
    /// either way.
    pub(super) fn flush_store(&mut self) -> Result<()> {
        let (Some(store), Some(cursor)) = (self.store.as_mut(), self.wal_cursor) else {
            return Ok(());
        };
        let read = self.db.journal_peek(cursor)?;
        persist_lag().record(read.transactions.len() as u64);
        if read.lapsed > 0 {
            // a drop-oldest journal cap evicted entries the log never saw;
            // appending the rest would leave a hole, so capture the whole
            // database (which already reflects the lost transactions)
            store.checkpoint(&self.db)?;
        } else {
            let refs: Vec<&[DbOp]> = read.transactions.iter().map(|t| t.as_slice()).collect();
            store.commit(&self.db, &refs)?;
        }
        self.db.journal_advance(cursor, read.transactions.len())?;
        Ok(())
    }

    /// Persist the system definition file (no-op when in-memory). Called
    /// whenever the definition changes: object registered, translator
    /// chosen or installed.
    pub(super) fn persist_definition(&self) -> Result<()> {
        if let Some(store) = &self.store {
            SavedSystem::capture_definition(self).save(store.dir().join(SYSTEM_FILE))?;
        }
        Ok(())
    }

    /// Map a persistence failure into the outcome-API error type.
    pub(super) fn flush_store_checked(&mut self) -> UpdateResult<()> {
        self.flush_store()
            .map_err(|e| UpdateError::new(UpdateStep::Persist, e))
    }

    /// Committed transactions not yet flushed to the durable store (the
    /// write-ahead consumer's journal lag); `None` when in-memory.
    pub fn persistence_lag(&self) -> Option<u64> {
        let cursor = self.wal_cursor?;
        self.db.journal_lag(cursor).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vo_core::university::{seed_figure4, university_schema};

    #[test]
    fn persistent_create_update_reopen_roundtrip() {
        let dir =
            std::env::temp_dir().join(format!("penguin_persist_roundtrip_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let mut p = Penguin::persistent(&dir, university_schema()).unwrap();
            assert!(p.is_persistent());
            assert_eq!(p.store_dir(), Some(dir.as_path()));
            p.with_database_mut(seed_figure4).unwrap().unwrap();
            p.persist_pending().unwrap();
            p.define_object(
                "omega",
                "COURSES",
                &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
            )
            .unwrap();
            let mut responder = paper_dialog_responder();
            p.choose_translator("omega", &mut responder).unwrap();
            let inst = p.instance_by_key("omega", &Key::single("CS345")).unwrap();
            p.delete_instance("omega", inst).unwrap();
            // clean shutdown via Drop
        }
        let p2 = Penguin::open(&dir).unwrap();
        assert!(p2.is_persistent());
        assert!(p2.last_recovery().is_some());
        // definition survived: object + translator usable without a dialog
        assert_eq!(p2.object_names(), vec!["omega"]);
        assert!(p2.object("omega").unwrap().updater.is_some());
        // data survived, including the deletion
        assert_eq!(p2.database().table("COURSES").unwrap().len(), 2);
        assert!(p2
            .database()
            .table("COURSES")
            .unwrap()
            .get(&Key::single("CS345"))
            .is_none());
        assert!(p2.check_consistency().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clone_of_persistent_system_is_detached() {
        let dir =
            std::env::temp_dir().join(format!("penguin_persist_clone_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut p = Penguin::persistent(&dir, university_schema()).unwrap();
        p.with_database_mut(seed_figure4).unwrap().unwrap();
        let expected = p.database().table("GRADES").unwrap().len();
        let mut c = p.clone();
        assert!(!c.is_persistent());
        // mutations on the clone stay in memory
        c.sql("DELETE FROM GRADES WHERE grade = 'B'").unwrap();
        assert!(c.database().table("GRADES").unwrap().len() < expected);
        drop(c);
        drop(p);
        let reopened = Penguin::open(&dir).unwrap();
        assert_eq!(reopened.database().table("GRADES").unwrap().len(), expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persistent_flush_does_not_starve_view_cursor() {
        let dir = std::env::temp_dir().join(format!("penguin_view_journal_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let mut p = Penguin::persistent(&dir, university_schema()).unwrap();
            p.with_database_mut(seed_figure4).unwrap().unwrap();
            p.persist_pending().unwrap();
            p.define_object(
                "omega",
                "COURSES",
                &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
            )
            .unwrap();
            p.materialize("omega").unwrap();
            // the facade flushes this to the log immediately; the view's
            // own cursor must still see the transaction afterwards
            p.sql("INSERT INTO GRADES VALUES ('CS101', 9, 'C')")
                .unwrap();
            assert_eq!(p.persistence_lag(), Some(0));
            let out = p.refresh("omega").unwrap();
            assert_eq!(out.rebuilt, 1);
            assert_eq!(
                p.materialized("omega").unwrap().snapshot(),
                p.instantiate_all("omega").unwrap()
            );
        }
        let p2 = Penguin::open(&dir).unwrap();
        assert_eq!(p2.database().table("GRADES").unwrap().len(), 18);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn with_database_mut_flushes_on_exit() {
        let dir =
            std::env::temp_dir().join(format!("penguin_scoped_borrow_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let mut p = Penguin::persistent(&dir, university_schema()).unwrap();
            p.with_database_mut(seed_figure4).unwrap().unwrap();
            // DML and DDL inside one scoped borrow; the exit flush detects
            // the structural drift and checkpoints — no follow-up facade
            // call needed before the crash
            p.with_database_mut(|db| {
                db.ensure_index("GRADES", &["ssn".to_string()])?;
                db.insert("DEPARTMENT", vec!["Mathematics".into()])
            })
            .unwrap()
            .unwrap();
            // crash: neither Drop nor any later facade call runs
            std::mem::forget(p);
        }
        let p2 = Penguin::open(&dir).unwrap();
        assert!(p2
            .database()
            .table("GRADES")
            .unwrap()
            .has_index(&["ssn".to_string()]));
        assert!(p2
            .database()
            .table("DEPARTMENT")
            .unwrap()
            .get(&Key::single("Mathematics"))
            .is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_flush_keeps_its_place_and_the_next_flush_retries() {
        let dir = std::env::temp_dir().join(format!("penguin_flush_retry_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut p = Penguin::persistent(&dir, university_schema()).unwrap();
        p.with_database_mut(seed_figure4).unwrap().unwrap();
        // the DDL below moves the structure epoch, so the exit flush must
        // write base-000002.json; a directory squatting on its tmp name makes
        // that write fail
        let blocker = dir.join("base-000002.json.tmp");
        std::fs::create_dir(&blocker).unwrap();
        let err = p
            .with_database_mut(|db| {
                db.ensure_index("GRADES", &["ssn".to_string()])?;
                db.insert("DEPARTMENT", vec!["Mathematics".into()])
            })
            .unwrap_err();
        assert!(matches!(err, Error::Storage(_)), "{err}");
        // the write-ahead cursor did not move past the unwritten commit
        assert_eq!(p.persistence_lag(), Some(1));
        std::fs::remove_dir(&blocker).unwrap();
        p.persist_pending().unwrap();
        assert_eq!(p.persistence_lag(), Some(0));
        // crash: what the retry wrote is all that survives
        std::mem::forget(p);
        let p2 = Penguin::open(&dir).unwrap();
        assert!(p2
            .database()
            .table("GRADES")
            .unwrap()
            .has_index(&["ssn".to_string()]));
        assert!(p2
            .database()
            .table("DEPARTMENT")
            .unwrap()
            .contains_key(&Key::single("Mathematics")));
        std::fs::remove_dir_all(&dir).ok();
    }
}
