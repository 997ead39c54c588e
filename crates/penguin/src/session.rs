//! Snapshot-isolated read sessions: the MVCC facade over a PENGUIN
//! system.
//!
//! [`crate::system::Penguin::session`] pins the database at its current
//! committed version and hands back a [`Session`] — an immutable,
//! `Send + Sync` view of the definition-time registry (schema, objects,
//! translators, access plans — shared with the head, not copied) and the
//! data.
//! Readers on a session never block the writer and never see its later
//! commits: the snapshot shares every table with the head
//! copy-on-write, so pinning is O(relations) and a commit copies only
//! the tables it touches.
//!
//! Sessions read (instantiate, query, VOQL `GET`/`SHOW`) and *prepare*
//! updates; they never mutate. A batch prepared on a session carries the
//! version it was planned against plus the relations its translators
//! consulted; [`crate::system::Penguin::commit_prepared`] validates that
//! set against the head under first-committer-wins — unchanged relations
//! commit, changed ones reject with [`Error::Conflict`] and the caller
//! re-prepares on a fresh session.
//!
//! ```
//! use vo_penguin::{Penguin, Session};
//! use vo_core::university::{seed_figure4, university_schema};
//!
//! let mut p = Penguin::new(university_schema());
//! p.with_database_mut(seed_figure4).unwrap().unwrap();
//! p.define_object("omega", "COURSES", &["GRADES", "STUDENT"]).unwrap();
//!
//! let session = p.session(); // pinned: later commits are invisible
//! std::thread::scope(|s| {
//!     let h = s.spawn(|| session.instantiate_all("omega").unwrap().len());
//!     // the writer keeps committing while the reader works
//!     p.sql("DELETE FROM GRADES WHERE grade = 'B'").unwrap();
//!     assert_eq!(h.join().unwrap(), 3);
//! });
//! ```

use crate::registry::{RegisteredObject, Registry};
use crate::voql::{self, VoqlOutcome, VoqlStatement};
use std::sync::Arc;
use vo_core::prelude::*;
use vo_exec::Parallelism;

/// An immutable, thread-shareable view of a [`crate::system::Penguin`]
/// pinned at one committed database version.
///
/// Cheap to pin and to clone — the definition-time registry (schema,
/// objects, translators, access plans) and the snapshot are each shared
/// behind an `Arc`, never copied — and safe to read from any number of
/// threads concurrently: all methods take `&self` and there is no
/// interior state.
#[derive(Debug, Clone)]
pub struct Session {
    registry: Arc<Registry>,
    snapshot: DbSnapshot,
    parallelism: Parallelism,
}

// a Session's whole point is crossing threads; fail the build if a field
// ever stops being shareable
const _: fn() = vo_exec::assert_send_sync::<Session>;

impl Session {
    pub(crate) fn pin(
        registry: Arc<Registry>,
        snapshot: DbSnapshot,
        parallelism: Parallelism,
    ) -> Self {
        Session {
            registry,
            snapshot,
            parallelism,
        }
    }

    /// The committed database version this session is pinned at.
    pub fn version(&self) -> u64 {
        self.snapshot.version()
    }

    /// The pinned database (read-only).
    pub fn database(&self) -> &Database {
        self.snapshot.database()
    }

    /// The underlying snapshot handle (cloneable, shareable).
    pub fn snapshot(&self) -> &DbSnapshot {
        &self.snapshot
    }

    /// The structural schema the session was pinned with.
    pub fn schema(&self) -> &StructuralSchema {
        self.registry.schema()
    }

    /// The instantiation-parallelism setting inherited at pin time.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Names of all objects registered when the session was pinned.
    pub fn object_names(&self) -> Vec<&str> {
        self.registry.object_names()
    }

    /// Look up a registered object.
    pub fn object(&self, name: &str) -> Result<&RegisteredObject> {
        self.registry.object(name)
    }

    /// All instances of an object at the pinned version — the session
    /// counterpart of [`crate::system::Penguin::instantiate_all`], without
    /// any lock held during instantiation.
    pub fn instantiate_all(&self, name: &str) -> Result<Vec<VoInstance>> {
        self.registry
            .instantiate_all(self.database(), self.parallelism, name)
    }

    /// Execute a query on an object at the pinned version.
    pub fn query(&self, name: &str, query: &VoQuery) -> Result<Vec<VoInstance>> {
        self.registry.query(self.database(), name, query)
    }

    /// The instance anchored on `pivot_key` at the pinned version.
    pub fn instance_by_key(&self, name: &str, pivot_key: &Key) -> Result<VoInstance> {
        self.registry
            .instance_by_key(self.database(), name, pivot_key)
    }

    /// Audit the pinned database against the structural model — a full
    /// scan, O(database); see [`crate::system::Penguin::check_consistency`].
    pub fn check_consistency(&self) -> Result<Vec<Violation>> {
        self.registry.check_consistency(self.database())
    }

    /// Parse a VOQL statement against the session's pinned object
    /// registry, without executing it. Lets a caller classify the
    /// statement first — a network server runs `GET`/`SHOW` right here on
    /// the pinned snapshot and routes `DELETE`/`UPDATE` to the head
    /// writer instead.
    pub fn parse_voql(&self, src: &str) -> Result<VoqlStatement> {
        voql::parse_in(&self.registry, src)
    }

    /// Execute an already-parsed statement against the pinned version.
    /// `DELETE` and `UPDATE` are rejected: a session never mutates —
    /// prepare the change here ([`Session::prepare_batch`]) and commit it
    /// at the head ([`crate::system::Penguin::commit_prepared`]).
    pub fn execute_voql(&self, stmt: &VoqlStatement) -> Result<VoqlOutcome> {
        voql::read(&self.registry, self.database(), stmt)
    }

    /// Run the read-only VOQL subset (`GET`, `SHOW ...`) against the
    /// pinned version — [`Session::parse_voql`] followed by
    /// [`Session::execute_voql`].
    pub fn voql(&self, src: &str) -> Result<VoqlOutcome> {
        self.execute_voql(&self.parse_voql(src)?)
    }

    /// Translate a batch against the pinned version without committing
    /// it. The returned [`PreparedBatch`] is self-contained — hand it to
    /// [`crate::system::Penguin::commit_prepared`] (possibly from another
    /// thread), which validates the consulted relations against the head
    /// under first-committer-wins and rejects with [`Error::Conflict`]
    /// when a concurrent commit got there first.
    pub fn prepare_batch(
        &self,
        name: &str,
        batch: impl Into<UpdateBatch>,
    ) -> UpdateResult<PreparedBatch> {
        self.registry
            .updater(name)?
            .prepare_batch(self.registry.schema(), self.database(), batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::Penguin;
    use vo_core::university::{seed_figure4, university_schema};

    fn system() -> Penguin {
        let mut p = Penguin::new(university_schema());
        p.with_database_mut(seed_figure4).unwrap().unwrap();
        p.define_object(
            "omega",
            "COURSES",
            &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
        )
        .unwrap();
        p
    }

    #[test]
    fn session_is_pinned_and_isolated() {
        let mut p = system();
        let session = p.session();
        let v = session.version();
        let before = session.instantiate_all("omega").unwrap();
        assert_eq!(before.len(), 3);

        // writer commits after the pin; the session must not see it
        p.sql("DELETE FROM GRADES WHERE course_id = 'CS345'")
            .unwrap();
        let obj = p.object("omega").unwrap().object.clone();
        p.install_translator("omega", Translator::permissive(&obj))
            .unwrap();
        let inst = p.instance_by_key("omega", &Key::single("CS345")).unwrap();
        p.delete_instance("omega", inst).unwrap();

        assert!(p.database().version() > v);
        assert_eq!(session.version(), v);
        assert_eq!(session.instantiate_all("omega").unwrap(), before);
        assert_eq!(p.instantiate_all("omega").unwrap().len(), 2);
        // reads agree with the serial engine at the pinned state
        let legacy = instantiate_all_legacy(session.schema(), &obj, session.database()).unwrap();
        assert_eq!(session.instantiate_all("omega").unwrap(), legacy);
    }

    #[test]
    fn sessions_read_concurrently_while_writer_commits() {
        let mut p = system();
        let session = p.session();
        let expected = session.instantiate_all("omega").unwrap();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|_| {
                    let session = &session;
                    let expected = &expected;
                    s.spawn(move || {
                        for _ in 0..25 {
                            assert_eq!(&session.instantiate_all("omega").unwrap(), expected);
                            let q = VoQuery::new();
                            assert_eq!(session.query("omega", &q).unwrap().len(), 3);
                        }
                    })
                })
                .collect();
            for i in 0..20 {
                p.sql(&format!(
                    "INSERT INTO GRADES VALUES ('CS101', {}, 'B')",
                    50 + i
                ))
                .unwrap();
            }
            for w in workers {
                w.join().unwrap();
            }
        });
        assert!(p.database().version() > session.version());
    }

    #[test]
    fn session_voql_runs_reads_and_rejects_writes() {
        let p = {
            let mut p = system();
            p.sql("INSERT INTO GRADES VALUES ('CS101', 9, 'C')")
                .unwrap();
            p
        };
        let session = p.session();
        match session
            .voql("GET omega WHERE level = 'graduate' AND COUNT(STUDENT) < 5")
            .unwrap()
        {
            VoqlOutcome::Instances(is) => assert_eq!(is.len(), 1),
            other => panic!("{other:?}"),
        }
        match session.voql("SHOW OBJECTS").unwrap() {
            VoqlOutcome::Text(t) => assert_eq!(t, "omega"),
            other => panic!("{other:?}"),
        }
        match session.voql("SHOW OBJECT omega").unwrap() {
            VoqlOutcome::Text(t) => assert!(t.contains("COURSES")),
            other => panic!("{other:?}"),
        }
        match session.voql("SHOW SCHEMA").unwrap() {
            VoqlOutcome::Text(t) => assert!(t.contains("—*")),
            other => panic!("{other:?}"),
        }
        let err = session
            .voql("DELETE omega WHERE course_id = 'CS101'")
            .unwrap_err();
        assert!(err.to_string().contains("read-only"), "{err}");
        let err = session.voql("UPDATE omega SET title = 'x'").unwrap_err();
        assert!(err.to_string().contains("read-only"), "{err}");
    }

    #[test]
    fn prepare_on_session_commit_at_head() {
        let mut p = system();
        let obj = p.object("omega").unwrap().object.clone();
        p.install_translator("omega", Translator::permissive(&obj))
            .unwrap();
        let session = p.session();
        let inst = session
            .instance_by_key("omega", &Key::single("EE282"))
            .unwrap();
        let prepared = session
            .prepare_batch("omega", vec![UpdateRequest::CompleteDeletion(inst)])
            .unwrap();
        assert_eq!(prepared.base_version, session.version());
        assert!(prepared.touched.contains("COURSES"));
        let outcome = p.commit_prepared("omega", prepared).unwrap();
        assert_eq!(outcome.outcomes.len(), 1);
        assert_eq!(p.database().table("COURSES").unwrap().len(), 2);
        assert!(p.check_consistency().unwrap().is_empty());
        // the session still sees the pre-commit world
        assert_eq!(session.instantiate_all("omega").unwrap().len(), 3);
    }

    #[test]
    fn prepare_without_translator_fails_at_validate() {
        let p = system();
        let session = p.session();
        let inst = session
            .instance_by_key("omega", &Key::single("EE282"))
            .unwrap();
        let err = session
            .prepare_batch("omega", vec![UpdateRequest::CompleteDeletion(inst)])
            .unwrap_err();
        assert_eq!(err.step, UpdateStep::Validate);
    }

    #[test]
    fn session_counter_bumps() {
        let p = system();
        let before = *vo_obs::metrics::snapshot_all()
            .counters
            .get("penguin.sessions.opened")
            .unwrap_or(&0);
        let _s1 = p.session();
        let _s2 = p.session();
        let after = *vo_obs::metrics::snapshot_all()
            .counters
            .get("penguin.sessions.opened")
            .unwrap();
        assert!(after >= before + 2);
    }
}
