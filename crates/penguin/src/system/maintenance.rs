//! Materialized views of a [`Penguin`] and the watches they feed.

use super::Penguin;
use std::collections::BTreeMap;
use vo_core::prelude::*;

/// Handle for a [`Penguin::watch`] subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct WatchId(u64);

#[derive(Debug)]
pub(super) struct Watch {
    object: String,
    events: Vec<InstanceChange>,
}

impl Penguin {
    /// Materialize every instance of a registered object and keep it
    /// incrementally maintained: the view subscribes its own cursor on the
    /// database's commit journal (enabling the journal if needed) and
    /// [`Penguin::refresh`] translates committed operations into instance
    /// patches/recomputations instead of re-instantiating the world.
    /// Provisions the secondary indexes the reverse walks want (on each
    /// edge step's source connecting attributes) before building.
    /// Re-materializing an object rebuilds its view from scratch.
    pub fn materialize(&mut self, name: &str) -> Result<&MaterializedView> {
        let reg = self.registry.planned(name, &self.db)?;
        let object = reg.object.clone();
        let indexes = reverse_indexes_for(&object, &reg.plan, &self.db)?;
        self.dematerialize(name);
        for (rel, attrs) in indexes {
            self.db.ensure_index(&rel, &attrs)?;
        }
        self.replan_if_structure_moved();
        // subscribe at the head — the build below reads the same database
        // state the cursor points at, and `&mut self` keeps anything from
        // committing in between
        let cursor = self.db.journal_subscribe(JournalStart::Head);
        let plan = &self.registry.planned(name, &self.db)?.plan;
        let view = MaterializedView::build(object, plan, &self.db, cursor)?;
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
        let plan = &self.registry.planned(name, &self.db)?.plan;
        let outcome = view.refresh(plan, &self.db, &read)?;
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
}
