//! The PENGUIN facade: one object that owns the structural schema, the
//! database, and the registry of view objects with their translators
//! (paper §3: "a first prototype of our view-object model has been
//! implemented in the PENGUIN system").

use crate::catalog::SavedSystem;
use crate::session::Session;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use vo_core::prelude::*;
use vo_exec::Parallelism;
use vo_obs::health::{HealthInputs, HealthPolicy, HealthReport, HealthStatus, StalenessInput};
use vo_obs::metrics::{self, Counter, Histogram};
use vo_obs::sink::TelemetryPipeline;
use vo_obs::slowlog::{self, SlowOp};
use vo_obs::trace;
use vo_store::{CompactionPolicy, CompactionReport, RecoveryReport, Store, StoreOptions};

/// File holding a persistent system's definition (schema, objects,
/// translators) inside its store directory. Base data is *not* in this
/// file — it lives in the store's checkpoint and write-ahead log.
pub const SYSTEM_FILE: &str = "system.json";

/// Point-in-time counters for one [`Penguin`]'s object-plan cache.
///
/// Per-instance (a [`Cell`] inside the system), so concurrent tests and
/// systems never see each other's traffic; the same events also feed the
/// process-wide `penguin.plan_cache.*` counters in the [`vo_obs::metrics`]
/// registry for JSON export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanCacheStats {
    /// Plan served straight from the cache at the current structure epoch.
    pub hits: u64,
    /// Plan built because none was cached for the object.
    pub misses: u64,
    /// Cached plans dropped: explicit invalidation, a
    /// [`Penguin::with_database_mut`] borrow, or a stale plan discovered at
    /// lookup time.
    pub invalidations: u64,
}

fn cache_hits() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("penguin.plan_cache.hits"))
}

fn cache_misses() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("penguin.plan_cache.misses"))
}

fn cache_invalidations() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("penguin.plan_cache.invalidations"))
}

/// Journal transactions pending at each store flush — the write-ahead
/// consumer's lag, the persistence-side counterpart of the per-view
/// `maintain.journal_lag` histogram.
fn persist_lag() -> Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    *H.get_or_init(|| metrics::histogram("penguin.persist.lag"))
}

/// Health-status transitions observed by [`Penguin::health`].
fn health_transitions() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("penguin.health.transitions"))
}

/// Snapshot sessions pinned through [`Penguin::session`].
fn sessions_opened() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("penguin.sessions.opened"))
}

/// Construction-time options for a [`Penguin`], consolidating the knobs
/// that used to require a constructor followed by setter calls
/// ([`Penguin::set_parallelism`], [`Penguin::set_journal_cap`],
/// [`Penguin::set_health_policy`], [`Penguin::set_telemetry`]) into one
/// builder shared by [`Penguin::with_options`],
/// [`Penguin::persistent_with`] and [`Penguin::open_with`]. The setters
/// remain as thin per-knob methods for adjusting a live system.
///
/// `From<StoreOptions>` lets existing persistent call sites keep passing
/// bare store options:
///
/// ```ignore
/// Penguin::persistent_with(dir, schema, StoreOptions::default())?;      // still fine
/// Penguin::persistent_with(
///     dir,
///     schema,
///     PenguinOptions::new()
///         .store(StoreOptions::default())
///         .parallelism(Parallelism::Fixed(4)),
/// )?;
/// ```
#[derive(Debug, Default)]
pub struct PenguinOptions {
    parallelism: Option<Parallelism>,
    journal_cap: Option<JournalCap>,
    health_policy: Option<HealthPolicy>,
    telemetry: Option<TelemetryPipeline>,
    store: StoreOptions,
}

impl PenguinOptions {
    /// Defaults everywhere: parallelism and telemetry from the
    /// environment, no journal cap, default health policy and store
    /// options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Degree of instantiation parallelism (overrides `VO_PARALLELISM`).
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = Some(parallelism);
        self
    }

    /// Bound on the commit journal's retained transactions.
    pub fn journal_cap(mut self, cap: JournalCap) -> Self {
        self.journal_cap = Some(cap);
        self
    }

    /// Thresholds and custom rules behind [`Penguin::health`].
    pub fn health_policy(mut self, policy: HealthPolicy) -> Self {
        self.health_policy = Some(policy);
        self
    }

    /// Telemetry pipeline to attach (overrides `VO_TELEMETRY`).
    pub fn telemetry(mut self, pipeline: TelemetryPipeline) -> Self {
        self.telemetry = Some(pipeline);
        self
    }

    /// Durable-store options, used only by [`Penguin::persistent_with`]
    /// and [`Penguin::open_with`].
    pub fn store(mut self, options: StoreOptions) -> Self {
        self.store = options;
        self
    }

    /// When the store folds its delta-checkpoint chain and retired WAL
    /// segments back into a full base (shorthand for setting the field
    /// inside [`PenguinOptions::store`]).
    pub fn compaction(mut self, policy: CompactionPolicy) -> Self {
        self.store.compaction = policy;
        self
    }

    /// Apply every non-store knob to a constructed system.
    fn configure(self, p: &mut Penguin) {
        if let Some(par) = self.parallelism {
            p.set_parallelism(par);
        }
        if let Some(cap) = self.journal_cap {
            p.set_journal_cap(Some(cap));
        }
        if let Some(policy) = self.health_policy {
            p.set_health_policy(policy);
        }
        if let Some(t) = self.telemetry {
            p.set_telemetry(Some(t));
        }
    }
}

impl From<StoreOptions> for PenguinOptions {
    fn from(store: StoreOptions) -> Self {
        PenguinOptions {
            store,
            ..PenguinOptions::default()
        }
    }
}

/// A registered view object: definition, island analysis, and (once
/// chosen) its translator-backed updater.
#[derive(Debug, Clone)]
pub struct RegisteredObject {
    /// The object definition.
    pub object: ViewObject,
    /// Cached island/peninsula analysis.
    pub analysis: IslandAnalysis,
    /// The updater, present once a translator has been chosen.
    pub updater: Option<ViewObjectUpdater>,
    /// Transcript of the dialog that chose the translator.
    pub transcript: Option<DialogTranscript>,
}

/// The PENGUIN system: schema + database + object registry.
#[derive(Debug)]
pub struct Penguin {
    schema: StructuralSchema,
    db: Database,
    objects: BTreeMap<String, RegisteredObject>,
    /// Prepared access plans per object, stamped with the database
    /// structure epoch they were built at. Rebuilt lazily whenever the
    /// epoch moves (index created, relation added/dropped, or a table
    /// borrowed mutably); tuple-level updates leave them valid.
    plans: RefCell<BTreeMap<String, ObjectPlan>>,
    /// Hit/miss/invalidation counters for `plans`.
    cache_stats: Cell<PlanCacheStats>,
    /// Degree of parallelism for pivot-partitioned instantiation.
    /// Defaults to the `VO_PARALLELISM` environment knob when set,
    /// [`Parallelism::Auto`] otherwise; [`Penguin::set_parallelism`]
    /// overrides both. Output is identical at every setting.
    parallelism: Parallelism,
    /// Durable backing store ([`Penguin::persistent`] / [`Penguin::open`]);
    /// `None` for in-memory systems. When present, the database's commit
    /// journal is enabled and every successful mutating facade call reads
    /// the journal through `wal_cursor` into the store's write-ahead log.
    store: Option<Store>,
    /// The write-ahead persister's own journal cursor, subscribed at
    /// journal start when the store is attached. Persistence and
    /// materialized views each consume the journal at their own pace;
    /// entries retire only once every consumer has passed them.
    wal_cursor: Option<JournalCursor>,
    /// What recovery found when this system was [`Penguin::open`]ed.
    recovery: Option<RecoveryReport>,
    /// Materialized views by object name, each holding its own journal
    /// cursor ([`Penguin::materialize`] / [`Penguin::refresh`]).
    views: BTreeMap<String, MaterializedView>,
    /// Watch subscriptions fed by [`Penguin::refresh`].
    watches: BTreeMap<WatchId, Watch>,
    next_watch: u64,
    /// Telemetry export pipeline, when attached (the `VO_TELEMETRY` env
    /// knob or [`Penguin::set_telemetry`]). Drained on
    /// [`Penguin::persist_pending`] and on drop.
    telemetry: Option<TelemetryPipeline>,
    /// Thresholds (and custom rules) behind [`Penguin::health`].
    health_policy: HealthPolicy,
    /// Verdict of the previous [`Penguin::health`] call, for transition
    /// events ([`Cell`]: probing health must not require `&mut`).
    last_health: Cell<HealthStatus>,
}

// The facade is single-writer (`RefCell`/`Cell` interior state, so not
// `Sync`) but must cross threads by move: a network server owns it behind
// a mutex on its own thread. Fail the build if a field ever stops being
// sendable.
const _: fn() = vo_exec::assert_send::<Penguin>;

/// Handle for a [`Penguin::watch`] subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct WatchId(u64);

#[derive(Debug)]
struct Watch {
    object: String,
    events: Vec<InstanceChange>,
}

impl Clone for Penguin {
    /// Clone the in-memory system. The durable store handle is *not*
    /// cloned — two writers interleaving records on one log would corrupt
    /// it — so the clone is a detached in-memory copy (its commit journal
    /// is disabled); the original keeps persisting. Materialized views
    /// and watches are not cloned either: their journal cursors belong to
    /// the original's journal ([`Penguin::materialize`] again on the
    /// clone). The telemetry pipeline stays with the original too (two
    /// drainers would steal each other's spans); the health policy is
    /// copied.
    fn clone(&self) -> Self {
        let mut db = self.db.clone();
        db.disable_commit_journal();
        Penguin {
            schema: self.schema.clone(),
            db,
            objects: self.objects.clone(),
            plans: RefCell::new(self.plans.borrow().clone()),
            cache_stats: Cell::new(self.cache_stats.get()),
            parallelism: self.parallelism,
            store: None,
            wal_cursor: None,
            recovery: self.recovery,
            views: BTreeMap::new(),
            watches: BTreeMap::new(),
            next_watch: 0,
            telemetry: None,
            health_policy: self.health_policy.clone(),
            last_health: Cell::new(self.last_health.get()),
        }
    }
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
    /// Create a system over a structural schema with an empty database.
    pub fn new(schema: StructuralSchema) -> Self {
        let db = Database::from_schema(schema.catalog());
        Penguin::with_database(schema, db)
    }

    /// Create a system over an existing database. When the `VO_TELEMETRY`
    /// environment knob is set (`<path>[,sample=N][,no-slow][,no-errors]`),
    /// a telemetry pipeline writing JSONL to that path is attached — a
    /// spec that fails to parse or open is ignored (telemetry must never
    /// keep the system from starting); attach explicitly through
    /// [`Penguin::set_telemetry`] to observe the failure.
    pub fn with_database(schema: StructuralSchema, db: Database) -> Self {
        Penguin {
            schema,
            db,
            objects: BTreeMap::new(),
            plans: RefCell::new(BTreeMap::new()),
            cache_stats: Cell::new(PlanCacheStats::default()),
            parallelism: Parallelism::from_env().unwrap_or_default(),
            store: None,
            wal_cursor: None,
            recovery: None,
            views: BTreeMap::new(),
            watches: BTreeMap::new(),
            next_watch: 0,
            telemetry: TelemetryPipeline::from_env().and_then(|r| r.ok()),
            health_policy: HealthPolicy::default(),
            last_health: Cell::new(HealthStatus::Ok),
        }
    }

    /// Create a system over an existing database with explicit
    /// [`PenguinOptions`] (the store options are ignored — this system is
    /// in-memory; use [`Penguin::persistent_with`] for a durable one).
    pub fn with_options(
        schema: StructuralSchema,
        db: Database,
        options: impl Into<PenguinOptions>,
    ) -> Self {
        let mut p = Penguin::with_database(schema, db);
        options.into().configure(&mut p);
        p
    }

    /// Create a *persistent* system at `dir` with the default
    /// [`StoreOptions`] (fsync on every commit). Truncates any previous
    /// store in the directory; use [`Penguin::open`] to resume one.
    pub fn persistent(dir: impl Into<PathBuf>, schema: StructuralSchema) -> Result<Penguin> {
        Penguin::persistent_with(dir, schema, StoreOptions::default())
    }

    /// Create a persistent system at `dir` with explicit options — bare
    /// [`StoreOptions`] or a full [`PenguinOptions`].
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
        options: impl Into<PenguinOptions>,
    ) -> Result<Penguin> {
        let options = options.into();
        let dir = dir.into();
        let mut db = Database::from_schema(schema.catalog());
        let wal_cursor = db.journal_subscribe(JournalStart::Oldest);
        let store = Store::create(&dir, &db, options.store)?;
        let mut p = Penguin::with_database(schema, db);
        p.store = Some(store);
        p.wal_cursor = Some(wal_cursor);
        options.configure(&mut p);
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

    /// Reopen the persistent system at `dir` with explicit options —
    /// bare [`StoreOptions`] or a full [`PenguinOptions`]. See
    /// [`Penguin::open`]; what recovery found is reported by
    /// [`Penguin::last_recovery`].
    pub fn open_with(
        dir: impl Into<PathBuf>,
        options: impl Into<PenguinOptions>,
    ) -> Result<Penguin> {
        let options = options.into();
        let dir = dir.into();
        let saved = SavedSystem::load(dir.join(SYSTEM_FILE))?;
        let (store, mut db, report) = Store::open(&dir, options.store)?;
        let wal_cursor = db.journal_subscribe(JournalStart::Oldest);
        let mut p = saved.restore_with_database(db)?;
        p.store = Some(store);
        p.wal_cursor = Some(wal_cursor);
        p.recovery = Some(report);
        options.configure(&mut p);
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

    /// Drain collected spans through the telemetry pipeline (no-op when
    /// none is attached), mapping sink failures into [`Error::Storage`].
    fn drain_telemetry(&mut self) -> Result<()> {
        if let Some(t) = &mut self.telemetry {
            t.drain()
                .map_err(|e| Error::Storage(format!("telemetry drain: {e}")))?;
        }
        Ok(())
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
    fn flush_store(&mut self) -> Result<()> {
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
    fn persist_definition(&self) -> Result<()> {
        if let Some(store) = &self.store {
            SavedSystem::capture_definition(self).save(store.dir().join(SYSTEM_FILE))?;
        }
        Ok(())
    }

    /// Map a persistence failure into the outcome-API error type.
    fn flush_store_checked(&mut self) -> UpdateResult<()> {
        self.flush_store()
            .map_err(|e| UpdateError::new(UpdateStep::Persist, e))
    }

    /// The structural schema.
    pub fn schema(&self) -> &StructuralSchema {
        &self.schema
    }

    /// The current instantiation-parallelism setting.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Set the degree of parallelism for instantiation: `Off` always runs
    /// the sequential engine, `Fixed(n)` uses exactly `n` workers, `Auto`
    /// (the default) uses every available core on large pivot sets and
    /// falls back to sequential on small ones. Purely a performance knob —
    /// results are identical at every setting.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) -> &mut Self {
        self.parallelism = parallelism;
        self
    }

    /// The database (read access).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Run `f` with write access to the database (bypassing view objects;
    /// prefer the object-based update API), then reconcile the store
    /// before returning: cached access plans are dropped up front — the
    /// caller may change structure through the borrow, and plans rebuild
    /// lazily — whatever is still pending is flushed on entry, and on exit
    /// the closure's own journaled DML is flushed — with structural drift
    /// (DDL through the borrow) detected and checkpointed — so nothing is
    /// left for the next facade call to clean up and at most this one
    /// closure's work is ever exposed to a crash. Flush failures surface
    /// here, as the error.
    pub fn with_database_mut<T>(&mut self, f: impl FnOnce(&mut Database) -> T) -> Result<T> {
        self.drop_plans();
        self.flush_store()?;
        let out = f(&mut self.db);
        self.flush_store()?;
        Ok(out)
    }

    /// Drop all cached access plans; they rebuild lazily at the current
    /// structure epoch on the next instantiation. The epoch check makes
    /// this automatic for structural changes routed through [`Database`];
    /// the hook exists for callers that mutate structure out of band.
    pub fn invalidate_plans(&self) {
        self.drop_plans();
    }

    /// This system's plan-cache counters.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.cache_stats.get()
    }

    fn drop_plans(&self) {
        let dropped = {
            let mut cache = self.plans.borrow_mut();
            let n = cache.len() as u64;
            cache.clear();
            n
        };
        if dropped > 0 {
            self.bump(|s| s.invalidations += dropped);
            cache_invalidations().add(dropped);
        }
    }

    fn bump(&self, f: impl FnOnce(&mut PlanCacheStats)) {
        let mut s = self.cache_stats.get();
        f(&mut s);
        self.cache_stats.set(s);
    }

    /// The prepared plan for a registered object, rebuilt if the database
    /// structure epoch moved since it was cached.
    fn object_plan(&self, name: &str, object: &ViewObject) -> Result<ObjectPlan> {
        let mut cache = self.plans.borrow_mut();
        if let Some(p) = cache.get(name) {
            if p.is_current(&self.db) {
                self.bump(|s| s.hits += 1);
                cache_hits().inc();
                return Ok(p.clone());
            }
            // stale plan: the structure epoch moved underneath it
            self.bump(|s| s.invalidations += 1);
            cache_invalidations().inc();
        }
        self.bump(|s| s.misses += 1);
        cache_misses().inc();
        let p = plan_object(&self.schema, object, &self.db)?;
        cache.insert(name.to_owned(), p.clone());
        Ok(p)
    }

    /// Run a SQL statement directly against the base relations. On a
    /// persistent system, committed DML is appended to the write-ahead
    /// log (and DDL triggers a checkpoint) before returning.
    pub fn sql(&mut self, sql: &str) -> Result<SqlOutcome> {
        let out = self.db.run_sql(sql)?;
        self.flush_store()?;
        Ok(out)
    }

    /// Generate the template tree for a pivot.
    pub fn template_tree(&self, pivot: &str, weights: &MetricWeights) -> Result<TemplateTree> {
        generate_tree(&self.schema, pivot, weights)
    }

    /// Define and register a view object by pruning a pivot's template
    /// tree down to the named relations (shallowest copies win).
    pub fn define_object(
        &mut self,
        name: &str,
        pivot: &str,
        relations: &[&str],
    ) -> Result<&RegisteredObject> {
        let tree = generate_tree(&self.schema, pivot, &MetricWeights::default())?;
        let object = prune_by_relations(&self.schema, &tree, name, relations)?;
        self.register_object(object)
    }

    /// Register a pre-built view object. Prepares its access plan and
    /// auto-provisions a secondary index on every edge target's
    /// connecting attributes, so instantiation never falls back to a
    /// relation scan.
    pub fn register_object(&mut self, object: ViewObject) -> Result<&RegisteredObject> {
        let name = object.name().to_owned();
        if self.objects.contains_key(&name) {
            return Err(Error::DuplicateRelation(format!("view object {name}")));
        }
        // definitions may arrive from deserialization; re-validate
        object.validate(&self.schema)?;
        let analysis = analyze(&self.schema, &object)?;
        let plan = plan_object(&self.schema, &object, &self.db)?;
        for (rel, attrs) in plan.required_indexes() {
            self.db.ensure_index(&rel, &attrs)?;
        }
        // re-plan at the post-provisioning epoch so the cache starts fresh
        let plan = plan_object(&self.schema, &object, &self.db)?;
        self.plans.borrow_mut().insert(name.clone(), plan);
        self.objects.insert(
            name.clone(),
            RegisteredObject {
                object,
                analysis,
                updater: None,
                transcript: None,
            },
        );
        self.persist_definition()?;
        Ok(&self.objects[&name])
    }

    /// Look up a registered object.
    pub fn object(&self, name: &str) -> Result<&RegisteredObject> {
        self.objects
            .get(name)
            .ok_or_else(|| Error::NoSuchRelation(format!("view object {name}")))
    }

    /// Names of all registered objects.
    pub fn object_names(&self) -> Vec<&str> {
        self.objects.keys().map(|s| s.as_str()).collect()
    }

    /// Run the translator-choice dialog for an object (paper §6); the
    /// resulting translator serves every later update on it.
    pub fn choose_translator(
        &mut self,
        name: &str,
        responder: &mut dyn Responder,
    ) -> Result<&DialogTranscript> {
        let reg = self
            .objects
            .get_mut(name)
            .ok_or_else(|| Error::NoSuchRelation(format!("view object {name}")))?;
        let (translator, transcript) =
            choose_translator(&self.schema, &reg.object, &reg.analysis, responder)?;
        reg.updater = Some(ViewObjectUpdater::new(
            &self.schema,
            reg.object.clone(),
            translator,
        )?);
        reg.transcript = Some(transcript);
        self.persist_definition()?;
        Ok(self.objects[name].transcript.as_ref().expect("just set"))
    }

    /// Install an explicit translator (e.g. deserialized or hand-built).
    pub fn install_translator(&mut self, name: &str, translator: Translator) -> Result<()> {
        let reg = self
            .objects
            .get_mut(name)
            .ok_or_else(|| Error::NoSuchRelation(format!("view object {name}")))?;
        reg.updater = Some(ViewObjectUpdater::new(
            &self.schema,
            reg.object.clone(),
            translator,
        )?);
        self.persist_definition()?;
        Ok(())
    }

    fn updater(&self, name: &str) -> Result<&ViewObjectUpdater> {
        self.object(name)?.updater.as_ref().ok_or_else(|| {
            Error::ConstraintViolation(format!(
                "no translator chosen for view object {name}; run the dialog first"
            ))
        })
    }

    /// Like [`Penguin::updater`], but with lookup failures attributed to
    /// the *validate* step of the outcome-returning update API.
    fn updater_checked(&self, name: &str) -> UpdateResult<ViewObjectUpdater> {
        self.updater(name)
            .cloned()
            .map_err(|e| UpdateError::new(UpdateStep::Validate, e))
    }

    /// Execute a query on an object.
    pub fn query(&self, name: &str, query: &VoQuery) -> Result<Vec<VoInstance>> {
        let reg = self.object(name)?;
        query.execute(&self.schema, &reg.object, &self.db)
    }

    /// All instances of an object, via the cached prepared plan (batched,
    /// one join pass per edge step), parallelized across contiguous pivot
    /// partitions per the [`Penguin::set_parallelism`] knob. The plan is
    /// cloned out of the cache once and shared immutably by every worker,
    /// so the hot path takes no lock.
    pub fn instantiate_all(&self, name: &str) -> Result<Vec<VoInstance>> {
        let reg = self.object(name)?;
        let plan = self.object_plan(name, &reg.object)?;
        let pivots: Vec<&Tuple> = self.db.table(reg.object.pivot())?.scan().collect();
        let workers = self.parallelism.workers_for(pivots.len());
        instantiate_many_parallel(&reg.object, &self.db, &plan, &pivots, workers)
    }

    /// Instantiate all of an object's instances and return the structured
    /// operator-tree profile of the run: `Instantiate(<object>)` at the
    /// root, one child per object edge, one grandchild per edge step, each
    /// carrying rows in/out, elapsed time, and the access path taken
    /// (`index probe` vs `hash build (scan)`). Pairs with SQL
    /// `EXPLAIN ANALYZE` as the observability surface of the system.
    pub fn profile(&self, name: &str) -> Result<ProfileNode> {
        let reg = self.object(name)?;
        let plan = self.object_plan(name, &reg.object)?;
        let pivots: Vec<&Tuple> = self.db.table(reg.object.pivot())?.scan().collect();
        let (_, prof) = instantiate_many_profiled(&reg.object, &self.db, &plan, &pivots)?;
        Ok(prof)
    }

    /// The instance anchored on `pivot_key`, if present.
    pub fn instance_by_key(&self, name: &str, pivot_key: &Key) -> Result<VoInstance> {
        let reg = self.object(name)?;
        let tuple = self
            .db
            .table(reg.object.pivot())?
            .get(pivot_key)
            .cloned()
            .ok_or_else(|| Error::NoSuchTuple {
                relation: reg.object.pivot().to_owned(),
                key: pivot_key.to_string(),
            })?;
        assemble(&self.schema, &reg.object, &self.db, tuple)
    }

    /// Insert an instance through an object.
    pub fn insert_instance(
        &mut self,
        name: &str,
        instance: VoInstance,
    ) -> UpdateResult<UpdateOutcome> {
        self.apply_one(name, UpdateRequest::CompleteInsertion(instance))
    }

    /// Delete an instance through an object.
    pub fn delete_instance(
        &mut self,
        name: &str,
        instance: VoInstance,
    ) -> UpdateResult<UpdateOutcome> {
        self.apply_one(name, UpdateRequest::CompleteDeletion(instance))
    }

    /// Replace an instance through an object.
    pub fn replace_instance(
        &mut self,
        name: &str,
        old: VoInstance,
        new: VoInstance,
    ) -> UpdateResult<UpdateOutcome> {
        self.apply_one(name, UpdateRequest::Replacement { old, new })
    }

    /// One request as a one-request batch.
    fn apply_one(&mut self, name: &str, request: UpdateRequest) -> UpdateResult<UpdateOutcome> {
        let kind = request.kind();
        BatchOutcome::single(kind, self.apply(name, UpdateBatch::new().with(request)))
    }

    /// Apply a partial update through an object.
    pub fn apply_partial(&mut self, name: &str, op: PartialOp) -> UpdateResult<UpdateOutcome> {
        let updater = self.updater_checked(name)?;
        let out = updater.apply_partial_outcome(&self.schema, &mut self.db, op)?;
        self.flush_store_checked()?;
        Ok(out)
    }

    /// Apply a whole batch of update requests through an object,
    /// set-at-a-time: one shared overlay, translators run back-to-back,
    /// one global check, one transaction (see
    /// [`ViewObjectUpdater::apply_batch`]).
    pub fn apply_batch(
        &mut self,
        name: &str,
        batch: impl Into<UpdateBatch>,
    ) -> UpdateResult<BatchOutcome> {
        self.apply(name, batch.into())
    }

    /// The write path every object update and VOQL statement takes: one
    /// span, one overlay and global check, one transaction, one store
    /// flush.
    fn apply(&mut self, name: &str, batch: UpdateBatch) -> UpdateResult<BatchOutcome> {
        let updater = self.updater_checked(name)?;
        let mut sp = vo_obs::trace::span("penguin.apply_batch");
        if sp.is_recording() {
            sp.field("object", Json::str(name));
            sp.field("requests", Json::Int(batch.len() as i64));
        }
        let outcome = updater.apply_batch(&self.schema, &mut self.db, batch)?;
        if sp.is_recording() {
            sp.field("ops", Json::Int(outcome.total_ops as i64));
        }
        // the whole batch committed as one transaction → one WAL record
        self.flush_store_checked()?;
        Ok(outcome)
    }

    /// Pin the current committed state as a snapshot-isolated
    /// [`Session`]: an immutable, `Send + Sync` view of the schema, the
    /// object registry, and the data, readable from any thread with no
    /// lock held and never blocking this writer. O(relations) — tables
    /// are shared copy-on-write with the head, and the session inherits
    /// every cached access plan that is current, so its first
    /// instantiation doesn't replan.
    pub fn session(&self) -> Session {
        sessions_opened().inc();
        let plans: BTreeMap<String, ObjectPlan> = self
            .plans
            .borrow()
            .iter()
            .filter(|(_, p)| p.is_current(&self.db))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        Session::pin(
            self.schema.clone(),
            self.db.snapshot(),
            self.objects.clone(),
            self.parallelism,
            plans,
        )
    }

    /// Commit a batch prepared against a pinned snapshot, validating it
    /// at the head under first-committer-wins: if any relation the
    /// preparation read or wrote has committed past the prepared base
    /// version, the batch is rejected with [`Error::Conflict`] (step
    /// `commit`) and must be re-prepared against a fresh session;
    /// otherwise it applies as one transaction, re-checked structurally
    /// at the head, and is flushed to the store like every other
    /// mutating facade call.
    pub fn commit_prepared(
        &mut self,
        name: &str,
        prepared: PreparedBatch,
    ) -> UpdateResult<BatchOutcome> {
        let updater = self.updater_checked(name)?;
        let mut sp = vo_obs::trace::span("penguin.commit_prepared");
        if sp.is_recording() {
            sp.field("object", Json::str(name));
            sp.field("requests", Json::Int(prepared.outcomes.len() as i64));
            sp.field("base_version", Json::Int(prepared.base_version as i64));
            sp.field("head_version", Json::Int(self.db.version() as i64));
        }
        let result = updater.commit_prepared(&self.schema, &mut self.db, prepared);
        if sp.is_recording() {
            if let Err(e) = &result {
                sp.field(
                    "conflict",
                    Json::Bool(matches!(*e.source, Error::Conflict { .. })),
                );
            }
        }
        let outcome = result?;
        self.flush_store_checked()?;
        Ok(outcome)
    }

    /// Materialize every instance of a registered object and keep it
    /// incrementally maintained: the view subscribes its own cursor on the
    /// database's commit journal (enabling the journal if needed) and
    /// [`Penguin::refresh`] translates committed operations into instance
    /// patches/recomputations instead of re-instantiating the world.
    /// Provisions the secondary indexes the reverse walks want (on each
    /// edge step's source connecting attributes) before building.
    /// Re-materializing an object rebuilds its view from scratch.
    pub fn materialize(&mut self, name: &str) -> Result<&MaterializedView> {
        let object = self.object(name)?.object.clone();
        self.dematerialize(name);
        let plan = self.object_plan(name, &object)?;
        for (rel, attrs) in reverse_indexes_for(&object, &plan, &self.db)? {
            self.db.ensure_index(&rel, &attrs)?;
        }
        // subscribe at the head — the build below reads the same database
        // state the cursor points at, and `&mut self` keeps anything from
        // committing in between
        let cursor = self.db.journal_subscribe(JournalStart::Head);
        let view = MaterializedView::build(&self.schema, object, &self.db, cursor)?;
        self.views.insert(name.to_owned(), view);
        Ok(&self.views[name])
    }

    /// The materialized view for `name`, when one exists.
    pub fn materialized(&self, name: &str) -> Option<&MaterializedView> {
        self.views.get(name)
    }

    /// Names of all materialized objects.
    pub fn materialized_names(&self) -> Vec<&str> {
        self.views.keys().map(|s| s.as_str()).collect()
    }

    /// Drop an object's materialized view, releasing its journal cursor
    /// (and any watches on it). Returns false when nothing was
    /// materialized under `name`. The commit journal stays enabled; on an
    /// otherwise journal-free in-memory system, disable it through
    /// [`Penguin::with_database_mut`] if unwanted.
    pub fn dematerialize(&mut self, name: &str) -> bool {
        let Some(view) = self.views.remove(name) else {
            return false;
        };
        self.db.journal_unsubscribe(view.cursor());
        self.watches.retain(|_, w| w.object != name);
        true
    }

    /// Bring one materialized view up to date with every transaction
    /// committed since its last refresh, fanning the per-instance changes
    /// out to its watchers. Cost is proportional to the delta, not the
    /// database: ops on untraversed relations are skipped, non-connecting
    /// replaces are patched in place, and only genuinely affected
    /// instances are recomputed (see [`MaterializedView::refresh`]).
    pub fn refresh(&mut self, name: &str) -> Result<RefreshOutcome> {
        let view = self
            .views
            .get_mut(name)
            .ok_or_else(|| Error::NoSuchRelation(format!("materialized view {name}")))?;
        let read = self.db.journal_peek(view.cursor())?;
        let outcome = view.refresh(&self.schema, &self.db, &read)?;
        self.db
            .journal_advance(view.cursor(), read.transactions.len())?;
        if !outcome.changes.is_empty() {
            for w in self.watches.values_mut() {
                if w.object == name {
                    w.events.extend(outcome.changes.iter().cloned());
                }
            }
        }
        Ok(outcome)
    }

    /// [`Penguin::refresh`] every materialized view, returning each
    /// object's outcome.
    pub fn refresh_all(&mut self) -> Result<BTreeMap<String, RefreshOutcome>> {
        let names: Vec<String> = self.views.keys().cloned().collect();
        let mut out = BTreeMap::new();
        for name in names {
            let outcome = self.refresh(&name)?;
            out.insert(name, outcome);
        }
        Ok(out)
    }

    /// Subscribe to instance-level changes of a materialized object.
    /// Events ([`InstanceChange`]: pivot key + inserted/updated/removed)
    /// accumulate at each [`Penguin::refresh`] and are collected with
    /// [`Penguin::poll_watch`].
    pub fn watch(&mut self, name: &str) -> Result<WatchId> {
        if !self.views.contains_key(name) {
            return Err(Error::NoSuchRelation(format!(
                "materialized view {name}; call materialize first"
            )));
        }
        let id = WatchId(self.next_watch);
        self.next_watch += 1;
        self.watches.insert(
            id,
            Watch {
                object: name.to_owned(),
                events: Vec::new(),
            },
        );
        Ok(id)
    }

    /// Take every change accumulated on a watch since the last poll.
    pub fn poll_watch(&mut self, id: WatchId) -> Result<Vec<InstanceChange>> {
        self.watches
            .get_mut(&id)
            .map(|w| std::mem::take(&mut w.events))
            .ok_or_else(|| Error::NoSuchRelation(format!("watch #{}", id.0)))
    }

    /// Drop a watch subscription. Returns false when `id` is unknown.
    pub fn unwatch(&mut self, id: WatchId) -> bool {
        self.watches.remove(&id).is_some()
    }

    /// Bound the commit journal's retained transactions (see
    /// [`JournalCap`]). With [`JournalCap::error`], a commit that would
    /// overflow is refused before it applies; with
    /// [`JournalCap::drop_oldest`], the oldest entries are evicted and a
    /// lapsed consumer falls back gracefully — a materialized view
    /// rebuilds in full, the write-ahead persister checkpoints instead of
    /// appending.
    pub fn set_journal_cap(&mut self, cap: Option<JournalCap>) -> &mut Self {
        self.db.set_journal_cap(cap);
        self
    }

    /// The current journal cap, if any.
    pub fn journal_cap(&self) -> Option<JournalCap> {
        self.db.journal_cap()
    }

    /// Committed transactions not yet flushed to the durable store (the
    /// write-ahead consumer's journal lag); `None` when in-memory.
    pub fn persistence_lag(&self) -> Option<u64> {
        let cursor = self.wal_cursor?;
        self.db.journal_lag(cursor).ok()
    }

    /// The attached telemetry pipeline, if any.
    pub fn telemetry(&self) -> Option<&TelemetryPipeline> {
        self.telemetry.as_ref()
    }

    /// Mutable access to the attached telemetry pipeline (to adjust its
    /// sampling policy or drain it by hand).
    pub fn telemetry_mut(&mut self) -> Option<&mut TelemetryPipeline> {
        self.telemetry.as_mut()
    }

    /// Attach (or with `None` detach) a telemetry pipeline, returning the
    /// previous one. A detached pipeline drains once more as it drops.
    /// Run at most one pipeline per process: the trace ring is global,
    /// and concurrent drainers would steal each other's spans.
    pub fn set_telemetry(
        &mut self,
        pipeline: Option<TelemetryPipeline>,
    ) -> Option<TelemetryPipeline> {
        std::mem::replace(&mut self.telemetry, pipeline)
    }

    /// The slow-operation log: spans that crossed their per-name
    /// [`vo_obs::slowlog::threshold`], full fields retained, regardless
    /// of telemetry sampling. Oldest first; the log is process-global.
    pub fn slow_ops(&self) -> Vec<SlowOp> {
        slowlog::entries()
    }

    /// The health policy behind [`Penguin::health`].
    pub fn health_policy(&self) -> &HealthPolicy {
        &self.health_policy
    }

    /// Replace the health policy (thresholds and custom rules).
    pub fn set_health_policy(&mut self, policy: HealthPolicy) -> &mut Self {
        self.health_policy = policy;
        self
    }

    /// Gather every health signal this system can observe about itself —
    /// journal lag per consumer, persistence lag, per-view staleness,
    /// live WAL bytes and segment-file count (checkpoint/compaction
    /// debt), the last recovery's outcome, and plan-cache hit ratio —
    /// without mutating anything.
    pub fn health_inputs(&self) -> HealthInputs {
        let mut consumer_lags = Vec::new();
        if let Some(cursor) = self.wal_cursor {
            if let Ok(lag) = self.db.journal_lag(cursor) {
                consumer_lags.push(("wal".to_owned(), lag));
            }
        }
        let mut view_staleness = Vec::new();
        for (name, view) in &self.views {
            if let Ok(s) = view.staleness(&self.db) {
                consumer_lags.push((format!("view/{name}"), s.pending));
                view_staleness.push(StalenessInput {
                    name: name.clone(),
                    pending: s.pending,
                    // a forced full rebuild is the same hole in the delta
                    // stream a lapse is; surface it through the same signal
                    lapsed: s.lapsed.max(u64::from(s.needs_full)),
                });
            }
        }
        let stats = self.cache_stats.get();
        HealthInputs {
            consumer_lags,
            persistence_lag: self.persistence_lag(),
            view_staleness,
            wal_live_bytes: self.store.as_ref().map(Store::wal_len),
            wal_segments: self.store.as_ref().map(Store::segment_count),
            recovery_torn_tail: self.recovery.map(|r| r.torn_tail_truncated),
            plan_cache_hits: stats.hits,
            plan_cache_misses: stats.misses,
            // connection saturation belongs to the network layer: a server
            // fills these from its admission counters before evaluating
            // the same policy (see `vo-net`)
            net_active_connections: None,
            net_connection_limit: None,
        }
    }

    /// Evaluate the system's health right now: the policy's verdict over
    /// [`Penguin::health_inputs`]. On a status *transition* (e.g. Ok →
    /// Degraded) a `penguin.health` trace event is recorded with the old
    /// and new status and each reason's code, and the
    /// `penguin.health.transitions` counter is bumped.
    pub fn health(&self) -> HealthReport {
        let report = self.health_policy.evaluate(&self.health_inputs());
        let previous = self.last_health.replace(report.status);
        if previous != report.status {
            health_transitions().inc();
            trace::event_with("penguin.health", || {
                vec![
                    ("from", Json::str(previous.to_string())),
                    ("to", Json::str(report.status.to_string())),
                    (
                        "reasons",
                        Json::Arr(
                            report
                                .reasons
                                .iter()
                                .map(|r| Json::str(r.code.as_str()))
                                .collect(),
                        ),
                    ),
                ]
            });
        }
        report
    }

    /// Verify the whole database against the structural model.
    pub fn check_consistency(&self) -> Result<Vec<Violation>> {
        check_database(&self.schema, &self.db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vo_core::university::{seed_figure4, university_schema};

    fn system() -> Penguin {
        let mut p = Penguin::new(university_schema());
        p.with_database_mut(seed_figure4).unwrap().unwrap();
        p
    }

    #[test]
    fn define_query_update_cycle() {
        let mut p = system();
        p.define_object(
            "omega",
            "COURSES",
            &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
        )
        .unwrap();
        assert_eq!(p.object_names(), vec!["omega"]);
        assert_eq!(p.object("omega").unwrap().object.complexity(), 5);

        // updates require a translator
        let inst = p.instance_by_key("omega", &Key::single("CS345")).unwrap();
        assert!(p.delete_instance("omega", inst.clone()).is_err());

        let mut responder = paper_dialog_responder();
        p.choose_translator("omega", &mut responder).unwrap();
        p.delete_instance("omega", inst).unwrap();
        assert!(p.check_consistency().unwrap().is_empty());
        assert_eq!(p.database().table("COURSES").unwrap().len(), 2);
    }

    #[test]
    fn duplicate_object_rejected() {
        let mut p = system();
        p.define_object("o", "COURSES", &["GRADES"]).unwrap();
        assert!(p.define_object("o", "COURSES", &["GRADES"]).is_err());
    }

    #[test]
    fn query_through_facade() {
        let mut p = system();
        p.define_object("omega", "COURSES", &["GRADES", "STUDENT"])
            .unwrap();
        let obj = &p.object("omega").unwrap().object;
        let stu = obj
            .nodes()
            .iter()
            .find(|n| n.relation == "STUDENT")
            .unwrap()
            .id;
        let q = VoQuery::new()
            .with_predicate(0, Expr::attr("level").eq(Expr::lit("graduate")))
            .with_count(stu, CmpOp::Lt, 5);
        let hits = p.query("omega", &q).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn sql_passthrough() {
        let mut p = system();
        let out = p
            .sql("SELECT course_id FROM COURSES ORDER BY course_id")
            .unwrap();
        match out {
            SqlOutcome::Rows(rs) => assert_eq!(rs.len(), 3),
            _ => panic!("expected rows"),
        }
    }

    #[test]
    fn install_translator_directly() {
        let mut p = system();
        p.define_object("o", "COURSES", &["GRADES"]).unwrap();
        let obj = p.object("o").unwrap().object.clone();
        p.install_translator("o", Translator::permissive(&obj))
            .unwrap();
        let inst = p.instance_by_key("o", &Key::single("EE282")).unwrap();
        p.delete_instance("o", inst).unwrap();
        assert!(p.check_consistency().unwrap().is_empty());
    }

    #[test]
    fn unknown_object_errors() {
        let p = system();
        assert!(p.object("nope").is_err());
        assert!(p.instantiate_all("nope").is_err());
    }

    #[test]
    fn registering_provisions_edge_indexes() {
        let mut p = system();
        p.define_object("omega", "COURSES", &["DEPARTMENT", "GRADES", "STUDENT"])
            .unwrap();
        // every edge target got an index on its connecting attributes
        let db = p.database();
        assert!(db
            .table("GRADES")
            .unwrap()
            .has_index(&["course_id".to_string()]));
        assert!(db
            .table("DEPARTMENT")
            .unwrap()
            .has_index(&["dept_name".to_string()]));
        assert!(db.table("STUDENT").unwrap().has_index(&["ssn".to_string()]));
    }

    #[test]
    fn instantiation_probes_indexes_without_scans() {
        let mut p = system();
        p.define_object(
            "omega",
            "COURSES",
            &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
        )
        .unwrap();
        let before = vo_relational::stats::snapshot();
        let all = p.instantiate_all("omega").unwrap();
        let d = before.delta(&vo_relational::stats::snapshot());
        assert_eq!(all.len(), 3);
        assert_eq!(d.fallback_scans, 0, "indexed edges must not scan: {d}");
        assert_eq!(d.hash_builds, 0);
        assert!(d.index_probes > 0);
        assert_eq!(d.instances_built, 3);
    }

    #[test]
    fn profile_of_indexed_workload_has_zero_fallback_scans() {
        let mut p = system();
        p.define_object(
            "omega",
            "COURSES",
            &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
        )
        .unwrap();
        let prof = p.profile("omega").unwrap();
        assert_eq!(prof.label, "Instantiate(omega)");
        assert_eq!(prof.rows_out, 3);
        // registration provisioned every edge index, so no step may fall
        // back to a scan-backed hash build
        assert!(
            !prof.any(&|n| n.access_path.contains("scan")),
            "fallback scan in profile:\n{}",
            prof.render()
        );
        assert!(prof.any(&|n| n.access_path == "index probe"));
        // one edge node per non-root object node, each with steps beneath
        let object = &p.object("omega").unwrap().object;
        assert_eq!(prof.children.len(), object.nodes().len() - 1);
        assert!(prof.children.iter().all(|e| !e.children.is_empty()));
        // rendering carries the measurements
        let text = prof.render();
        assert!(text.contains("access=index probe"));
        assert!(text.contains("rows_out=3"));
    }

    #[test]
    fn parallelism_knob_is_output_invariant() {
        let mut p = system();
        p.define_object(
            "omega",
            "COURSES",
            &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
        )
        .unwrap();
        p.set_parallelism(Parallelism::Off);
        let sequential = p.instantiate_all("omega").unwrap();
        for knob in [
            Parallelism::Fixed(2),
            Parallelism::Fixed(7),
            Parallelism::Auto,
        ] {
            p.set_parallelism(knob);
            assert_eq!(p.parallelism(), knob);
            assert_eq!(p.instantiate_all("omega").unwrap(), sequential, "{knob:?}");
        }
    }

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
    fn plan_cache_counts_hits_misses_and_invalidations() {
        let mut p = system();
        p.define_object("omega", "COURSES", &["GRADES"]).unwrap();
        let s0 = p.plan_cache_stats();
        // registration pre-seeds the cache → first instantiation hits
        p.instantiate_all("omega").unwrap();
        let s1 = p.plan_cache_stats();
        assert_eq!(s1.hits, s0.hits + 1);
        assert_eq!(s1.misses, s0.misses);
        // explicit invalidation drops the cached plan
        p.invalidate_plans();
        let s2 = p.plan_cache_stats();
        assert_eq!(s2.invalidations, s1.invalidations + 1);
        // next instantiation misses and rebuilds
        p.instantiate_all("omega").unwrap();
        let s3 = p.plan_cache_stats();
        assert_eq!(s3.misses, s2.misses + 1);
        // a structural borrow also invalidates
        p.with_database_mut(|_| ()).unwrap();
        let s4 = p.plan_cache_stats();
        assert_eq!(s4.invalidations, s3.invalidations + 1);
        // empty cache: invalidating again counts nothing
        p.invalidate_plans();
        assert_eq!(p.plan_cache_stats().invalidations, s4.invalidations);
        // the same traffic reached the global registry
        let snap = vo_obs::metrics::snapshot_all();
        assert!(*snap.counters.get("penguin.plan_cache.hits").unwrap() >= 1);
        assert!(*snap.counters.get("penguin.plan_cache.misses").unwrap() >= 1);
        assert!(
            *snap
                .counters
                .get("penguin.plan_cache.invalidations")
                .unwrap()
                >= 2
        );
    }

    #[test]
    fn materialize_refresh_and_watch() {
        let mut p = system();
        p.define_object(
            "omega",
            "COURSES",
            &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
        )
        .unwrap();
        let view = p.materialize("omega").unwrap();
        assert_eq!(view.len(), 3);
        let w = p.watch("omega").unwrap();
        // a grade value connects nothing → in-place patch, no recomputation
        p.sql("UPDATE GRADES SET grade = 'A+' WHERE course_id = 'CS345' AND ssn = 1")
            .unwrap();
        let out = p.refresh("omega").unwrap();
        assert_eq!(out.patched, 1);
        assert_eq!(out.rebuilt, 0);
        assert!(!out.full_rebuild);
        assert_eq!(
            p.poll_watch(w).unwrap(),
            vec![InstanceChange {
                pivot: Key::single("CS345"),
                kind: ChangeKind::Updated,
            }]
        );
        assert!(p.poll_watch(w).unwrap().is_empty());
        // the maintained view is byte-identical to re-instantiation
        assert_eq!(
            p.materialized("omega").unwrap().snapshot(),
            p.instantiate_all("omega").unwrap()
        );
        assert!(p.unwatch(w));
        assert!(!p.unwatch(w));
        assert!(p.dematerialize("omega"));
        assert!(!p.dematerialize("omega"));
        assert!(p.refresh("omega").is_err());
    }

    #[test]
    fn refresh_tracks_object_pipeline_updates() {
        let mut p = system();
        p.define_object(
            "omega",
            "COURSES",
            &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
        )
        .unwrap();
        let obj = p.object("omega").unwrap().object.clone();
        p.install_translator("omega", Translator::permissive(&obj))
            .unwrap();
        p.materialize("omega").unwrap();
        let w = p.watch("omega").unwrap();
        let inst = p.instance_by_key("omega", &Key::single("CS345")).unwrap();
        p.delete_instance("omega", inst).unwrap();
        let out = p.refresh("omega").unwrap();
        assert!(out
            .changes
            .iter()
            .any(|c| c.pivot == Key::single("CS345") && c.kind == ChangeKind::Removed));
        assert_eq!(p.materialized("omega").unwrap().len(), 2);
        assert_eq!(
            p.materialized("omega").unwrap().snapshot(),
            p.instantiate_all("omega").unwrap()
        );
        assert!(p
            .poll_watch(w)
            .unwrap()
            .iter()
            .any(|c| c.kind == ChangeKind::Removed));
    }

    #[test]
    fn refresh_all_covers_every_view() {
        let mut p = system();
        p.define_object("omega", "COURSES", &["GRADES", "STUDENT"])
            .unwrap();
        p.define_object("depts", "DEPARTMENT", &["COURSES"])
            .unwrap();
        p.materialize("omega").unwrap();
        p.materialize("depts").unwrap();
        p.sql("INSERT INTO COURSES VALUES ('CS229', 'Machine Learning', 'graduate', 'Computer Science')")
            .unwrap();
        let outs = p.refresh_all().unwrap();
        assert_eq!(outs.len(), 2);
        assert_eq!(
            outs["omega"]
                .changes
                .iter()
                .filter(|c| c.kind == ChangeKind::Inserted)
                .count(),
            1
        );
        assert_eq!(
            outs["depts"]
                .changes
                .iter()
                .filter(|c| c.kind == ChangeKind::Updated)
                .count(),
            1
        );
        for name in ["omega", "depts"] {
            assert_eq!(
                p.materialized(name).unwrap().snapshot(),
                p.instantiate_all(name).unwrap(),
                "{name}"
            );
        }
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

    #[test]
    fn options_builder_configures_at_construction() {
        let schema = university_schema();
        let db = Database::from_schema(schema.catalog());
        let p = Penguin::with_options(
            schema,
            db,
            PenguinOptions::new()
                .parallelism(Parallelism::Fixed(3))
                .journal_cap(JournalCap::drop_oldest(8))
                .health_policy(HealthPolicy::default()),
        );
        assert_eq!(p.parallelism(), Parallelism::Fixed(3));
        assert!(p.journal_cap().is_some());

        // persistent constructors accept both bare StoreOptions (via
        // From) and the full builder
        let dir =
            std::env::temp_dir().join(format!("penguin_options_builder_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let p = Penguin::persistent_with(
                &dir,
                university_schema(),
                PenguinOptions::new().parallelism(Parallelism::Off),
            )
            .unwrap();
            assert_eq!(p.parallelism(), Parallelism::Off);
        }
        let p2 = Penguin::open_with(
            &dir,
            PenguinOptions::new().parallelism(Parallelism::Fixed(2)),
        )
        .unwrap();
        assert_eq!(p2.parallelism(), Parallelism::Fixed(2));
        drop(p2);
        let p3 = Penguin::open_with(&dir, StoreOptions::default()).unwrap();
        assert!(p3.is_persistent());
        drop(p3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cached_plan_survives_updates_and_refreshes_on_structure_change() {
        let mut p = system();
        p.define_object("omega", "COURSES", &["GRADES"]).unwrap();
        let before = p.instantiate_all("omega").unwrap();
        // data update through the object pipeline: plan stays cached and
        // keeps answering correctly
        let obj = p.object("omega").unwrap().object.clone();
        p.install_translator("omega", Translator::permissive(&obj))
            .unwrap();
        let inst = p.instance_by_key("omega", &Key::single("EE282")).unwrap();
        p.delete_instance("omega", inst).unwrap();
        let after = p.instantiate_all("omega").unwrap();
        assert_eq!(after.len(), before.len() - 1);
        // structural change through the scoped borrow: cache cleared, next
        // instantiation replans and still agrees with the legacy path
        p.with_database_mut(|db| db.ensure_index("CURRICULUM", &["course_id".to_string()]))
            .unwrap()
            .unwrap();
        let replanned = p.instantiate_all("omega").unwrap();
        let legacy = instantiate_all_legacy(p.schema(), &obj, p.database()).unwrap();
        assert_eq!(replanned, legacy);
    }
}
