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

use std::collections::BTreeMap;
use std::sync::OnceLock;
use vo_core::prelude::*;
use vo_exec::Parallelism;
use vo_obs::metrics::{self, Counter};

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

fn no_such_object(name: &str) -> Error {
    Error::NoSuchRelation(format!("view object {name}"))
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

    /// All instances of an object, via its registered plan (batched, one
    /// join pass per edge step), parallelized across contiguous pivot
    /// partitions. Every worker shares the plan immutably, so the hot
    /// path takes no lock.
    pub(crate) fn instantiate_all(
        &self,
        db: &Database,
        parallelism: Parallelism,
        name: &str,
    ) -> Result<Vec<VoInstance>> {
        let reg = self.served(name, db)?;
        let pivots: Vec<&Tuple> = db.table(reg.object.pivot())?.scan().collect();
        let workers = parallelism.workers_for(pivots.len());
        instantiate_many_parallel(&reg.object, db, &reg.plan, &pivots, workers)
    }

    /// Instantiate all of an object's instances and return the operator
    /// tree of the run.
    pub(crate) fn profile(&self, db: &Database, name: &str) -> Result<ProfileNode> {
        let reg = self.served(name, db)?;
        let pivots: Vec<&Tuple> = db.table(reg.object.pivot())?.scan().collect();
        let (_, prof) = instantiate_many_profiled(&reg.object, db, &reg.plan, &pivots)?;
        Ok(prof)
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

    /// The instance anchored on `pivot_key`, if present.
    pub(crate) fn instance_by_key(
        &self,
        db: &Database,
        name: &str,
        pivot_key: &Key,
    ) -> Result<VoInstance> {
        let reg = self.object(name)?;
        let tuple = db
            .table(reg.object.pivot())?
            .get(pivot_key)
            .cloned()
            .ok_or_else(|| Error::NoSuchTuple {
                relation: reg.object.pivot().to_owned(),
                key: pivot_key.to_string(),
            })?;
        assemble(&self.schema, &reg.object, db, tuple)
    }

    /// Audit the whole database against the structural model: a full scan
    /// ([`check_database`]), and its only caller outside tests and debug
    /// assertions — the write path checks its own writes with `check_delta`.
    pub(crate) fn check_consistency(&self, db: &Database) -> Result<Vec<Violation>> {
        check_database(&self.schema, db)
    }
}
