//! # penguin-vo — object-based views over relational databases
//!
//! The workspace meta-crate: re-exports the full stack reproducing
//! *Updating Relational Databases through Object-Based Views* (Barsalou,
//! Keller, Siambela, Wiederhold; SIGMOD 1991), and hosts the workspace's
//! integration tests (`tests/`) and runnable examples (`examples/`).
//!
//! Layering, bottom to top:
//!
//! 1. [`relational`] (`vo-relational`) — an in-memory relational engine:
//!    keyed tables, relational algebra, a SQL subset, transactional
//!    batches of insert/delete/replace operations.
//! 2. [`structural`] (`vo-structural`) — the structural model: ownership,
//!    reference and subset connections with their integrity rules, and a
//!    global integrity-maintenance engine.
//! 3. [`keller`] (`vo-keller`) — Keller's flat-view update translation,
//!    the baseline the paper builds on (§4).
//! 4. [`core`] (`vo-core`) — the paper's contribution: view objects,
//!    generation from an information metric, instantiation, dependency
//!    islands, the VO-CI/VO-CD/VO-R translation algorithms, and the
//!    translator-choice dialog.
//! 5. [`penguin`] (`vo-penguin`) — the PENGUIN facade with the VOQL query
//!    language, fixtures, and workload generators.
//! 6. [`net`] (`vo-net`) — PENGUIN as a network service: a framed TCP
//!    protocol serving concurrent VOQL, with one pinned MVCC session per
//!    connection and first-committer-wins commits over the wire.
//!
//! Underneath all of them sits [`obs`] (`vo-obs`): span tracing, a metrics
//! registry, and the operator-tree profiles behind `EXPLAIN ANALYZE` and
//! [`penguin::Penguin::profile`]. Beside them sits [`store`] (`vo-store`):
//! a write-ahead log, checkpoints, and crash recovery giving persistent
//! systems (`Penguin::persistent` / `Penguin::open`) durability.
//!
//! ```
//! use penguin_vo::prelude::*;
//!
//! let (schema, db) = university_database();
//! let omega = generate_omega(&schema).unwrap();
//! assert_eq!(omega.complexity(), 5);
//! let instances = instantiate_all(&schema, &omega, &db).unwrap();
//! assert_eq!(instances.len(), 3);
//! ```

pub use vo_core as core;
pub use vo_keller as keller;
pub use vo_net as net;
pub use vo_obs as obs;
pub use vo_penguin as penguin;
pub use vo_relational as relational;
pub use vo_store as store;
pub use vo_structural as structural;

/// One import for everything.
pub mod prelude {
    pub use vo_core::prelude::*;
    pub use vo_keller::{choose_keller_translator, KellerTranslator, SpjView, ViewDelta};
    pub use vo_net::{
        ClientOptions, ErrorCode, NetError, ServerOptions, ServerStats, VoClient, VoServer,
        VoqlResult,
    };
    pub use vo_obs::health::{
        HealthInputs, HealthPolicy, HealthReason, HealthReport, HealthStatus,
    };
    pub use vo_obs::slowlog::SlowOp;
    pub use vo_penguin::{
        hospital_database, run_voql, university_scaled, Penguin, Session, VoqlOutcome, WatchId,
    };
    pub use vo_store::prelude::*;
}
