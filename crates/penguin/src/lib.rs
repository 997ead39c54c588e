//! # vo-penguin — the PENGUIN system facade
//!
//! A batteries-included front end over the whole stack (paper §3: "a first
//! prototype of our view-object model has been implemented in the PENGUIN
//! system"):
//!
//! - [`registry`] holds what is decided at definition time — the
//!   structural schema and, per view object, its definition, island
//!   analysis, dialog-chosen translator and access plan — and the one
//!   implementation of every read over it;
//! - [`system::Penguin`] owns the database and the head of that registry,
//!   and is the single writer;
//! - [`session::Session`] pins snapshot-isolated MVCC read sessions that
//!   share the registry: concurrent readers never block the writer, and
//!   batches prepared on a session commit at the head under
//!   first-committer-wins;
//! - [`voql`] is a small declarative query/update language on view objects
//!   (`GET omega WHERE level = 'graduate' AND COUNT(STUDENT) < 5`);
//! - [`fixtures`] provides the paper's university database (Figure 1) and
//!   a hospital domain matching the paper's medical-informatics context;
//! - [`generator`] produces scaled and synthetic workloads for the
//!   experiment harness.

pub mod catalog;
pub mod fixtures;
pub mod generator;
pub mod registry;
pub mod session;
pub mod system;
pub mod voql;

pub use catalog::SavedSystem;
pub use fixtures::{hospital_database, hospital_schema, seed_hospital};
pub use generator::{
    seed_ownership_chain, seed_university_scaled, synthetic_schema, university_scaled, SchemaShape,
};
pub use registry::RegisteredObject;
pub use session::Session;
pub use system::{Penguin, WatchId, SYSTEM_FILE};
pub use vo_store::{
    CheckpointPolicy, CompactionPolicy, CompactionReport, RecoveryReport, StoreOptions, SyncPolicy,
};
pub use voql::{parse as parse_voql, run as run_voql, VoqlOutcome, VoqlStatement};

/// The worker count the benchmark's `exec.workers` row reads. Every
/// instantiation and checkpoint runs on its calling thread, so
/// [`Parallelism::workers_for`] is always 1. Nothing in the product reads
/// it; it goes when the benchmark drops that row (ROADMAP item 1e).
#[derive(Debug, Clone, Copy)]
pub enum Parallelism {
    /// The only setting: one worker.
    Auto,
}

impl Parallelism {
    /// One worker, whatever the number of work items.
    pub fn workers_for(&self, _items: usize) -> usize {
        1
    }
}
