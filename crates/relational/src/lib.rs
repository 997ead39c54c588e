//! # vo-relational
//!
//! An in-memory relational database engine built as the storage substrate
//! for the view-object model of *Updating Relational Databases through
//! Object-Based Views* (Barsalou, Keller, Siambela, Wiederhold; SIGMOD
//! 1991).
//!
//! The engine provides exactly the relational machinery the paper's
//! algorithms assume:
//!
//! - **Keyed relations** with typed attributes and primary keys
//!   ([`schema`], [`table`]), so `K(R)` / `NK(R)` reasoning is first-class.
//! - **The three database update operations** the paper's translators emit
//!   — insert, delete, replace — as a uniform [`database::DbOp`] protocol;
//!   a batch is folded into a keyed net [`overlay::Delta`], checked there,
//!   and installed whole or not at all.
//! - **Relational algebra** ([`algebra`]) with selections, projections and
//!   joins, used to instantiate view objects from base data.
//! - A **SQL subset** ([`sql`]) for examples and ad-hoc inspection, over the
//!   tokenizer and token cursor ([`lex`]) it shares with VOQL, and a small
//!   **logical optimizer** ([`optimizer`]).
//!
//! Everything is deterministic: tables iterate in key order, so repeated
//! runs of the experiment harness produce identical output.
//!
//! ```
//! use vo_relational::prelude::*;
//!
//! let mut db = Database::new();
//! db.create_relation(RelationSchema::new(
//!     "DEPARTMENT",
//!     vec![AttributeDef::required("dept_name", DataType::Text)],
//!     &["dept_name"],
//! ).unwrap()).unwrap();
//! db.run_sql("INSERT INTO DEPARTMENT VALUES ('Computer Science')").unwrap();
//! let out = db.run_sql("SELECT * FROM DEPARTMENT").unwrap();
//! match out {
//!     SqlOutcome::Rows(rows) => assert_eq!(rows.len(), 1),
//!     _ => unreachable!(),
//! }
//! ```

pub mod aggregate;
pub mod algebra;
pub mod codec;
pub mod database;
pub mod error;
pub use vo_obs::json;
pub mod lex;
pub mod optimizer;
pub mod overlay;
pub mod predicate;
pub mod rng;
pub mod schema;
pub mod sql;
pub mod stats;
pub mod storage;
pub mod table;
pub mod tuple;
pub mod value;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::aggregate::{aggregate_rows, AggFunc, AggSpec};
    pub use crate::algebra::{Plan, ResultSet};
    pub use crate::database::{
        Database, DbOp, DbSnapshot, JournalCap, JournalCursor, JournalOverflow, JournalRead,
        JournalStart,
    };
    pub use crate::error::{Error, Result};
    pub use crate::json::{json_enum, json_struct, Json, JsonCodec};
    pub use crate::overlay::{DbRead, Delta, DeltaDb, DeltaWrite, Staged, TableView};
    pub use crate::predicate::{CmpOp, Expr, Truth};
    pub use crate::rng::SmallRng;
    pub use crate::schema::{AttributeDef, DatabaseSchema, RelationSchema};
    pub use crate::sql::SqlOutcome;
    pub use crate::stats::InstrumentationSnapshot;
    pub use crate::storage::{DatabaseSnapshot, RelationDelta, RelationSnapshot, SnapshotDelta};
    pub use crate::table::{KeyRange, Table};
    pub use crate::tuple::{Key, Tuple};
    pub use crate::value::{DataType, Value};
    pub use vo_obs::profile::ProfileNode;
}
