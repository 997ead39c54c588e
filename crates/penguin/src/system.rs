//! The PENGUIN facade: one object that owns the database and the head
//! of the definition-time registry — structural schema, view objects,
//! translators, access plans (paper §3: "a first prototype of our
//! view-object model has been implemented in the PENGUIN system").

mod maintenance;
mod ops;
mod persist;

pub use maintenance::WatchId;
pub use persist::SYSTEM_FILE;

use crate::registry::{Materialized, RegisteredObject, Registry};
use crate::session::Session;
use maintenance::Watch;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use vo_core::prelude::*;
use vo_obs::health::{HealthPolicy, HealthStatus};
use vo_obs::metrics::{self, Counter};
use vo_store::{RecoveryReport, Store};

/// Snapshot sessions pinned through [`Penguin::session`].
fn sessions_opened() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("penguin.sessions.opened"))
}

/// The PENGUIN system: the database plus the head of the registry.
#[derive(Debug)]
pub struct Penguin {
    /// Everything decided at definition time, shared with every pinned
    /// [`Session`]. Changed copy-on-write ([`Arc::make_mut`]) when a
    /// definition changes or the database's structure moves; every plan
    /// in it is current for `db` whenever a `&mut self` call returns.
    registry: Arc<Registry>,
    db: Database,
    /// Durable backing store ([`Penguin::persistent`] / [`Penguin::open`]);
    /// `None` for in-memory systems. When present, every successful
    /// mutating facade call reads the database's commit journal through
    /// `wal_cursor` into the store's write-ahead log.
    store: Option<Store>,
    /// The write-ahead persister's own journal cursor, subscribed when the
    /// store is attached, before any commit the store has not captured.
    /// Persistence and materialized views each consume the journal at
    /// their own pace; entries retire only once every consumer has passed
    /// them.
    wal_cursor: Option<JournalCursor>,
    /// What recovery found when this system was [`Penguin::open`]ed.
    recovery: Option<RecoveryReport>,
    /// Materialized views by object name, each holding its own journal
    /// cursor ([`Penguin::materialize`] / [`Penguin::refresh`]).
    views: BTreeMap<String, MaterializedView>,
    /// Watch subscriptions fed by [`Penguin::refresh`].
    watches: BTreeMap<WatchId, Watch>,
    next_watch: u64,
    /// Thresholds behind [`Penguin::health`].
    health_policy: HealthPolicy,
    /// Verdict of the previous [`Penguin::health`] call, for transition
    /// events ([`Cell`]: probing health must not require `&mut`).
    last_health: Cell<HealthStatus>,
}

// The facade is single-writer (`Cell` interior state, so not `Sync`) but
// must cross threads by move: a network server owns it behind a mutex on
// its own thread. Fail the build if a field ever stops being sendable.
const _: () = {
    const fn send<T: Send>() {}
    send::<Penguin>();
};

impl Clone for Penguin {
    /// Clone the in-memory system. The durable store handle is *not*
    /// cloned — two writers interleaving records on one log would corrupt
    /// it — so the clone is a detached in-memory copy (a cloned database
    /// carries no journal); the original keeps persisting. Materialized
    /// views and watches are not cloned either: their journal cursors
    /// belong to the original's journal ([`Penguin::materialize`] again on
    /// the clone). The health policy is copied.
    fn clone(&self) -> Self {
        Penguin {
            registry: Arc::clone(&self.registry),
            db: self.db.clone(),
            store: None,
            wal_cursor: None,
            recovery: self.recovery,
            views: BTreeMap::new(),
            watches: BTreeMap::new(),
            next_watch: 0,
            health_policy: self.health_policy.clone(),
            last_health: Cell::new(self.last_health.get()),
        }
    }
}

impl Penguin {
    /// Create a system over a structural schema with an empty database.
    pub fn new(schema: StructuralSchema) -> Self {
        let db = Database::from_schema(schema.catalog());
        Penguin::with_database(schema, db)
    }

    /// Create a system over an existing database.
    pub fn with_database(schema: StructuralSchema, db: Database) -> Self {
        Penguin {
            registry: Arc::new(Registry::new(schema)),
            db,
            store: None,
            wal_cursor: None,
            recovery: None,
            views: BTreeMap::new(),
            watches: BTreeMap::new(),
            next_watch: 0,
            health_policy: HealthPolicy::default(),
            last_health: Cell::new(HealthStatus::Ok),
        }
    }

    /// The structural schema.
    pub fn schema(&self) -> &StructuralSchema {
        self.registry.schema()
    }

    /// The head of the definition-time registry.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The database (read access).
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Run `f` with write access to the database (bypassing view objects;
    /// prefer the object-based update API), then reconcile before
    /// returning: whatever is still pending is flushed on entry; on exit,
    /// if the closure moved the database's structure, every registered
    /// object is re-planned, and the closure's own journaled DML is
    /// flushed — with structural drift (DDL through the borrow) detected
    /// and checkpointed — so nothing is left for the next facade call to
    /// clean up and at most this one closure's work is ever exposed to a
    /// crash. Flush failures surface here, as the error.
    pub fn with_database_mut<T>(&mut self, f: impl FnOnce(&mut Database) -> T) -> Result<T> {
        self.flush_store()?;
        let out = f(&mut self.db);
        self.replan_if_structure_moved();
        self.flush_store()?;
        Ok(out)
    }

    /// Re-plan the registered objects when — and only when — the
    /// database's structure epoch moved since their plans were prepared.
    /// Runs at the end of every entry point that can move it
    /// ([`Penguin::register_object`], [`Penguin::materialize`],
    /// [`Penguin::with_database_mut`]), so reads never plan and sessions
    /// pinned earlier keep the registry they were pinned with.
    fn replan_if_structure_moved(&mut self) {
        if !self.registry.plans_current(&self.db) {
            Arc::make_mut(&mut self.registry).replan(&self.db);
        }
    }

    /// Run a SQL statement directly against the base relations. On a
    /// persistent system, committed DML is appended to the write-ahead
    /// log before returning. (The SQL subset has no DDL.)
    pub fn sql(&mut self, sql: &str) -> Result<SqlOutcome> {
        let out = self.db.run_sql(sql)?;
        self.flush_store()?;
        Ok(out)
    }

    /// Define and register a view object by pruning a pivot's template
    /// tree down to the named relations (shallowest copies win).
    pub fn define_object(
        &mut self,
        name: &str,
        pivot: &str,
        relations: &[&str],
    ) -> Result<&RegisteredObject> {
        let tree = generate_tree(self.schema(), pivot, &MetricWeights::default())?;
        let object = prune_by_relations(self.schema(), &tree, name, relations)?;
        self.register_object(object)
    }

    /// Register a pre-built view object. Prepares its access plan and
    /// auto-provisions a secondary index on every edge target's
    /// connecting attributes — except where they are the target's primary
    /// key or lead it, which the primary index already answers — so
    /// instantiation never falls back to a relation scan.
    pub fn register_object(&mut self, object: ViewObject) -> Result<&RegisteredObject> {
        let name = object.name().to_owned();
        let registered = self.registry.prepare(object, &self.db)?;
        for (rel, attrs) in registered.plan.required_indexes() {
            self.db.ensure_index(&rel, &attrs)?;
        }
        Arc::make_mut(&mut self.registry).insert(registered);
        self.replan_if_structure_moved();
        self.persist_definition()?;
        self.registry.object(&name)
    }

    /// Look up a registered object.
    pub fn object(&self, name: &str) -> Result<&RegisteredObject> {
        self.registry.object(name)
    }

    /// Names of all registered objects.
    pub fn object_names(&self) -> Vec<&str> {
        self.registry.object_names()
    }

    /// Run the translator-choice dialog for an object (paper §6); the
    /// resulting translator serves every later update on it.
    pub fn choose_translator(
        &mut self,
        name: &str,
        responder: &mut dyn Responder,
    ) -> Result<&DialogTranscript> {
        let reg = self.registry.object(name)?;
        let (translator, transcript) = choose_translator(
            self.registry.schema(),
            &reg.object,
            &reg.analysis,
            responder,
        )?;
        Arc::make_mut(&mut self.registry)
            .install(name, translator)?
            .transcript = Some(transcript);
        self.persist_definition()?;
        Ok(self
            .registry
            .object(name)?
            .transcript
            .as_ref()
            .expect("just set"))
    }

    /// Install an explicit translator (e.g. deserialized or hand-built).
    pub fn install_translator(&mut self, name: &str, translator: Translator) -> Result<()> {
        Arc::make_mut(&mut self.registry).install(name, translator)?;
        self.persist_definition()
    }

    /// Execute a query on an object.
    pub fn query(&self, name: &str, query: &VoQuery) -> Result<Vec<VoInstance>> {
        self.registry.query(&self.db, name, query)
    }

    /// All instances of an object: cloned from its materialized view when
    /// that is current ([`MaterializedView::current`]), else via its
    /// registered plan (batched, one join pass per edge step).
    pub fn instantiate_all(&self, name: &str) -> Result<Vec<VoInstance>> {
        (self.registry).instantiate_all(&self.db, name, self.materialization(name))
    }

    /// What a read at the head knows of `name`'s materialization.
    fn materialization(&self, name: &str) -> Materialized<'_> {
        Materialized::of(self.views.get(name).map(|view| view.current(&self.db)))
    }

    /// Instantiate all of an object's instances by the engine and return
    /// the operator tree the run's spans render (a
    /// [`vo_obs::trace::capture`] of the call): `Instantiate(<object>)` at
    /// the root, one child per object edge, one grandchild per edge step,
    /// each carrying rows in/out, elapsed time, and the access path taken
    /// (`index probe`, `key range` or `hash build (scan)`). Pairs with SQL
    /// `EXPLAIN ANALYZE` as the observability surface of the system.
    pub fn profile(&self, name: &str) -> Result<ProfileNode> {
        self.registry.profile(&self.db, name)
    }

    /// The instance anchored on `pivot_key`, if present: cloned from the
    /// object's materialized view when that is current, else built by its
    /// registered plan.
    pub fn instance_by_key(&self, name: &str, pivot_key: &Key) -> Result<VoInstance> {
        let view = self.materialization(name);
        (self.registry).instance_by_key(&self.db, name, pivot_key, view)
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
        let updater = self.registry.updater(name)?;
        let out = updater.apply_partial_outcome(self.registry.schema(), &mut self.db, op)?;
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
        let updater = self.registry.updater(name)?;
        let mut sp = vo_obs::trace::span("penguin.apply_batch");
        if sp.is_recording() {
            sp.field("object", Json::str(name));
            sp.field("requests", Json::Int(batch.len() as i64));
        }
        let outcome = updater.apply_batch(self.registry.schema(), &mut self.db, batch)?;
        if sp.is_recording() {
            sp.field("ops", Json::Int(outcome.total_ops as i64));
        }
        // the whole batch committed as one transaction → one WAL record
        self.flush_store_checked()?;
        Ok(outcome)
    }

    /// Pin the current committed state as a snapshot-isolated
    /// [`Session`]: an immutable, `Send + Sync` view of the registry, the
    /// data and every materialized view that is current, readable from
    /// any thread with no lock held and never blocking this writer. The
    /// registry and each view's instances are shared, not copied, and
    /// tables are shared copy-on-write with the head, so a pin costs two
    /// `Arc` clones plus O(relations + materialized views). While the
    /// session lives, a commit at the head copies the chunks of rows and
    /// index entries its writes land in (`relational.cow_rows`), not the
    /// tables. A view a session holds is copied by the next refresh that
    /// writes it.
    pub fn session(&self) -> Session {
        sessions_opened().inc();
        let views = (self.views.iter())
            .map(|(name, view)| (name.clone(), view.current(&self.db).cloned()))
            .collect();
        Session::pin(Arc::clone(&self.registry), self.db.snapshot(), views)
    }

    /// Commit a batch prepared against a pinned snapshot, validating it
    /// at the head under first-committer-wins: if any relation the
    /// preparation read or wrote has committed past the prepared base
    /// version, the batch is rejected with [`Error::Conflict`] (step
    /// `commit`) and must be re-prepared against a fresh session;
    /// otherwise its writes are checked against the structural model at
    /// the head (the same delta-scoped step 4 that preparation ran) and it
    /// applies as one transaction, flushed to the store like every other
    /// mutating facade call.
    pub fn commit_prepared(
        &mut self,
        name: &str,
        prepared: PreparedBatch,
    ) -> UpdateResult<BatchOutcome> {
        let updater = self.registry.updater(name)?;
        let mut sp = vo_obs::trace::span("penguin.commit_prepared");
        if sp.is_recording() {
            sp.field("object", Json::str(name));
            sp.field("requests", Json::Int(prepared.outcomes.len() as i64));
            sp.field("base_version", Json::Int(prepared.base_version as i64));
            sp.field("head_version", Json::Int(self.db.version() as i64));
        }
        let result = updater.commit_prepared(self.registry.schema(), &mut self.db, prepared);
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

    /// Audit the whole database against the structural model — a full
    /// scan, O(database). Updates through view objects never need it: each
    /// is checked at the cost of its own writes and never takes a
    /// consistent base to an inconsistent one. This is what finds damage
    /// done out of band ([`Penguin::with_database_mut`], raw SQL DML).
    pub fn check_consistency(&self) -> Result<Vec<Violation>> {
        self.registry.check_consistency(&self.db)
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
        p.define_object(
            "omega",
            "COURSES",
            &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
        )
        .unwrap();
        // an edge target got an index on its connecting attributes unless
        // they are its primary key or lead it, which the key order answers:
        // GRADES(course_id, ssn) needs none, CURRICULUM(degree, course_id)
        // is reached by its second key attribute
        let db = p.database();
        let indexes = |rel: &str| db.table(rel).unwrap().index_attrs();
        assert_eq!(indexes("CURRICULUM"), [["course_id".to_string()]]);
        assert!(indexes("GRADES").is_empty());
        assert!(indexes("DEPARTMENT").is_empty());
        assert!(indexes("STUDENT").is_empty());
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
        let (all, taken) = vo_obs::trace::capture(|| p.instantiate_all("omega").unwrap());
        assert_eq!(all.len(), 3);
        let count = |name| taken.count(name);
        let scans = count("relational.fallback_scans");
        assert_eq!(scans, 0, "indexed edges must not scan");
        assert_eq!(count("relational.hash_builds"), 0);
        assert_eq!(count("relational.index_probes"), 26);
        assert_eq!(count("relational.instances_built"), 3);
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
    fn registered_plan_survives_updates_and_is_rebuilt_on_structure_change() {
        let mut p = system();
        p.define_object("omega", "COURSES", &["GRADES"]).unwrap();
        let before = p.instantiate_all("omega").unwrap();
        // data update through the object pipeline: the registered plan
        // keeps answering correctly
        let obj = p.object("omega").unwrap().object.clone();
        p.install_translator("omega", Translator::permissive(&obj))
            .unwrap();
        let inst = p.instance_by_key("omega", &Key::single("EE282")).unwrap();
        p.delete_instance("omega", inst).unwrap();
        let after = p.instantiate_all("omega").unwrap();
        assert_eq!(after.len(), before.len() - 1);
        // structural change through the scoped borrow: the object is
        // re-planned and still agrees with the legacy path
        p.with_database_mut(|db| db.ensure_index("CURRICULUM", &["course_id".to_string()]))
            .unwrap()
            .unwrap();
        let replanned = p.instantiate_all("omega").unwrap();
        let legacy = instantiate_all_legacy(p.schema(), &obj, p.database()).unwrap();
        assert_eq!(replanned, legacy);
    }
}
