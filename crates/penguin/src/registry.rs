//! The definition-time registry: everything PENGUIN decides once, when a
//! view object is defined (paper §6–§7) — the structural schema and, per
//! object, its definition, island analysis, dialog-chosen translator and
//! prepared access plan — plus the one implementation of every read over
//! it.
//!
//! A `Registry` is immutable once shared: the head system and every
//! pinned [`crate::session::Session`] hold it through an `Arc`, and only
//! the head changes it, copy-on-write, when a definition changes or the
//! database's structure moves underneath the plans. A run-time request
//! does no reasoning; it reads what is registered here.
//!
//! A whole-instance read of a materialized object whose view is current
//! ([`MaterializedView::current`]) clones what the view holds instead of
//! running the engine. The engine stays the specification: debug builds
//! run it beside every such read and compare.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};
use vo_core::prelude::*;
use vo_obs::metrics::{self, Counter};
use vo_obs::trace;

/// Access plans built: one per registration, one per object each time
/// the database's structure moves.
fn plans_built() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("penguin.plan_cache.misses"))
}

/// Reads served by a registered plan, on the head or on a session.
fn plans_served() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("penguin.plan_cache.hits"))
}

/// Whole-instance reads answered from a current materialized view.
fn reads_served() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("maintain.reads_served"))
}

/// Whole-instance reads of a materialized object whose view trailed the
/// database, answered by the engine.
fn reads_stale() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("maintain.reads_stale"))
}

fn no_such_object(name: &str) -> Error {
    Error::NoSuchRelation(format!("view object {name}"))
}

fn no_such_pivot(reg: &RegisteredObject, pivot_key: &Key) -> Error {
    Error::NoSuchTuple {
        relation: reg.object.pivot().to_owned(),
        key: pivot_key.to_string(),
    }
}

/// A registered view object: definition, island analysis, access plan,
/// and (once chosen) its translator-backed updater.
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
    /// The access plan every planned read of this object runs, prepared
    /// at registration and again whenever the database's structure moves.
    pub plan: ObjectPlan,
}

/// What a read knows of its object's materialization: none, a view that
/// trailed the database, or the instances of one that reflected it.
pub(crate) enum Materialized<'a> {
    No,
    Stale,
    Current(&'a ViewInstances),
}

impl<'a> Materialized<'a> {
    /// `view` is `None` for an object nobody materialized, else the
    /// view's [`MaterializedView::current`] answer.
    pub(crate) fn of(view: Option<Option<&'a Arc<ViewInstances>>>) -> Self {
        match view {
            None => Materialized::No,
            Some(None) => Materialized::Stale,
            Some(Some(held)) => Materialized::Current(held),
        }
    }

    /// The instances to read from, counting the read as served or stale.
    fn held(self) -> Option<&'a ViewInstances> {
        match self {
            Materialized::No => None,
            Materialized::Stale => {
                reads_stale().inc();
                None
            }
            Materialized::Current(held) => {
                reads_served().inc();
                Some(held)
            }
        }
    }
}

/// The structural schema plus every registered object.
#[derive(Debug, Clone)]
pub(crate) struct Registry {
    schema: StructuralSchema,
    objects: BTreeMap<String, RegisteredObject>,
}

impl Registry {
    pub(crate) fn new(schema: StructuralSchema) -> Self {
        Registry {
            schema,
            objects: BTreeMap::new(),
        }
    }

    pub(crate) fn schema(&self) -> &StructuralSchema {
        &self.schema
    }

    pub(crate) fn object(&self, name: &str) -> Result<&RegisteredObject> {
        self.objects.get(name).ok_or_else(|| no_such_object(name))
    }

    pub(crate) fn object_names(&self) -> Vec<&str> {
        self.objects.keys().map(|s| s.as_str()).collect()
    }

    /// The object's updater, with lookup failures attributed to the
    /// *validate* step of the outcome-returning update API.
    pub(crate) fn updater(&self, name: &str) -> UpdateResult<&ViewObjectUpdater> {
        self.object(name)
            .and_then(|reg| {
                reg.updater.as_ref().ok_or_else(|| {
                    Error::ConstraintViolation(format!(
                        "no translator chosen for view object {name}; run the dialog first"
                    ))
                })
            })
            .map_err(|e| UpdateError::new(UpdateStep::Validate, e))
    }

    // ---------------------------------------------------- definition --

    /// Validate, analyze and plan `object` against `db` without
    /// registering it.
    pub(crate) fn prepare(&self, object: ViewObject, db: &Database) -> Result<RegisteredObject> {
        if self.objects.contains_key(object.name()) {
            return Err(Error::DuplicateRelation(format!(
                "view object {}",
                object.name()
            )));
        }
        // definitions may arrive from deserialization; re-validate
        object.validate(&self.schema)?;
        let analysis = analyze(&self.schema, &object)?;
        let plan = plan_object(&self.schema, &object, db)?;
        plans_built().inc();
        Ok(RegisteredObject {
            object,
            analysis,
            updater: None,
            transcript: None,
            plan,
        })
    }

    pub(crate) fn insert(&mut self, registered: RegisteredObject) {
        self.objects
            .insert(registered.object.name().to_owned(), registered);
    }

    /// Make `translator` the one serving every later update on `name`.
    pub(crate) fn install(
        &mut self,
        name: &str,
        translator: Translator,
    ) -> Result<&mut RegisteredObject> {
        let reg = self
            .objects
            .get_mut(name)
            .ok_or_else(|| no_such_object(name))?;
        reg.updater = Some(ViewObjectUpdater::new(
            &self.schema,
            reg.object.clone(),
            translator,
        )?);
        Ok(reg)
    }

    /// True when every plan was prepared at `db`'s structure epoch.
    pub(crate) fn plans_current(&self, db: &Database) -> bool {
        self.objects.values().all(|reg| reg.plan.is_current(db))
    }

    /// Re-plan every object whose plan predates `db`'s structure epoch.
    /// An object that can no longer be planned (a relation it traverses
    /// was dropped) keeps its stale plan, which reads refuse to run; the
    /// others are re-planned regardless.
    pub(crate) fn replan(&mut self, db: &Database) {
        for reg in self.objects.values_mut() {
            if reg.plan.is_current(db) {
                continue;
            }
            if let Ok(plan) = plan_object(&self.schema, &reg.object, db) {
                reg.plan = plan;
                plans_built().inc();
            }
        }
    }

    // --------------------------------------------------------- reads --

    /// The object with a plan that is current for `db`. A plan the
    /// structure has moved away from (the object could not be re-planned)
    /// is refused, never run.
    pub(crate) fn planned(&self, name: &str, db: &Database) -> Result<&RegisteredObject> {
        let reg = self.object(name)?;
        if !reg.plan.is_current(db) {
            return Err(Error::InvalidPlan(format!(
                "view object {name} could not be re-planned after the database's \
                 structure moved (plan at epoch {}, database at {})",
                reg.plan.epoch(),
                db.structure_epoch()
            )));
        }
        Ok(reg)
    }

    /// [`Registry::planned`] for a read, counted as served by the plan.
    fn served(&self, name: &str, db: &Database) -> Result<&RegisteredObject> {
        let reg = self.planned(name, db)?;
        plans_served().inc();
        Ok(reg)
    }

    /// All instances of an object: cloned from `view` when it is current,
    /// else via the registered plan (batched, one join pass per edge
    /// step). Readers on several threads share the plan immutably, so the
    /// hot path takes no lock.
    pub(crate) fn instantiate_all(
        &self,
        db: &Database,
        name: &str,
        view: Materialized<'_>,
    ) -> Result<Vec<VoInstance>> {
        let Some(held) = view.held() else {
            return Self::all(self.served(name, db)?, db);
        };
        let read: Vec<VoInstance> = held.values().cloned().collect();
        if cfg!(debug_assertions) {
            let engine = Self::all(self.planned(name, db)?, db)?;
            assert!(
                read == engine,
                "the view of {name} is not the engine's read"
            );
        }
        Ok(read)
    }

    /// Every instance of `reg`, by the engine.
    fn all(reg: &RegisteredObject, db: &Database) -> Result<Vec<VoInstance>> {
        let pivots: Vec<&Tuple> = db.table(reg.object.pivot())?.scan().collect();
        instantiate_many_planned(&reg.object, db, &reg.plan, &pivots)
    }

    /// Instantiate all of an object's instances by the engine and return
    /// the operator tree its spans render.
    pub(crate) fn profile(&self, db: &Database, name: &str) -> Result<ProfileNode> {
        let reg = self.served(name, db)?;
        let (run, taken) = trace::capture(|| Self::all(reg, db));
        run?;
        Ok(ProfileNode::from_spans(&taken.spans).expect("an instantiation records its span"))
    }

    /// Execute a query on an object.
    pub(crate) fn query(
        &self,
        db: &Database,
        name: &str,
        query: &VoQuery,
    ) -> Result<Vec<VoInstance>> {
        let reg = self.served(name, db)?;
        query.execute_planned(&self.schema, &reg.object, db, &reg.plan)
    }

    /// The instance anchored on `pivot_key`, if present: cloned from
    /// `view` when it is current, else built by the registered plan.
    pub(crate) fn instance_by_key(
        &self,
        db: &Database,
        name: &str,
        pivot_key: &Key,
        view: Materialized<'_>,
    ) -> Result<VoInstance> {
        let Some(held) = view.held() else {
            return Self::by_key(self.served(name, db)?, db, pivot_key);
        };
        let reg = self.planned(name, db)?;
        let read = (held.get(pivot_key).cloned()).ok_or_else(|| no_such_pivot(reg, pivot_key));
        if cfg!(debug_assertions) {
            let engine = Self::by_key(reg, db, pivot_key);
            assert!(
                read == engine,
                "the view of {name} is not the engine's read"
            );
        }
        read
    }

    /// The instance of `reg` anchored on `pivot_key`, by the engine.
    fn by_key(reg: &RegisteredObject, db: &Database, pivot_key: &Key) -> Result<VoInstance> {
        let tuple = (db.table(reg.object.pivot())?.get(pivot_key))
            .ok_or_else(|| no_such_pivot(reg, pivot_key))?;
        let mut built = instantiate_many_planned(&reg.object, db, &reg.plan, &[tuple])?;
        Ok(built.pop().expect("one instance per pivot"))
    }

    /// Audit the whole database against the structural model: a full scan
    /// ([`check_database`]), and its only caller outside tests and debug
    /// assertions — the write path checks its own writes with `check_delta`.
    pub(crate) fn check_consistency(&self, db: &Database) -> Result<Vec<Violation>> {
        check_database(&self.schema, db)
    }
}
