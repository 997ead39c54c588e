//! # vo-structural
//!
//! The **structural model** of a relational database (paper §2; Wiederhold
//! & ElMasri): a directed graph whose vertices are relations and whose
//! edges are typed *connections* — **ownership** (`—*`), **reference**
//! (`—>`), and **subset** (`—⊃`) — each carrying precise integrity rules.
//!
//! The view-object layer (`vo-core`) consumes this crate twice: the
//! connection graph drives view-object *generation* (which relations are
//! reachable from a pivot, and how), and the integrity engine drives the
//! *global validation* step of every translated update.
//!
//! ```
//! use vo_relational::prelude::*;
//! use vo_structural::prelude::*;
//!
//! let schema = StructuralSchemaBuilder::new()
//!     .relation("DEPARTMENT", &[("dept_name", DataType::Text)], &["dept_name"])
//!     .relation(
//!         "COURSES",
//!         &[("course_id", DataType::Text), ("dept_name", DataType::Text)],
//!         &["course_id"],
//!     )
//!     .references("cd", "COURSES", &["dept_name"], "DEPARTMENT", &["dept_name"])
//!     .build()
//!     .unwrap();
//!
//! let mut db = Database::from_schema(schema.catalog());
//! db.insert("COURSES", vec!["CS345".into(), "CS".into()]).unwrap();
//! // the course references a department that does not exist:
//! let violations = check_database(&schema, &db).unwrap();
//! assert_eq!(violations.len(), 1);
//! ```

pub mod builder;
pub mod codec;
pub mod connection;
pub mod integrity;
pub mod schema;

pub use builder::StructuralSchemaBuilder;
pub use connection::{Connection, ConnectionKind};
pub use integrity::{
    check_database, check_delta, missing_dependencies, plan_completion, plan_delete,
    plan_key_replacement, stub_tuple, IntegrityPolicy, MissingDependency, RefDeleteAction,
    RefModifyAction, Violation,
};
pub use schema::{StructuralSchema, Traversal};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::builder::StructuralSchemaBuilder;
    pub use crate::connection::{Connection, ConnectionKind};
    pub use crate::integrity::{
        check_database, check_delta, missing_dependencies, plan_completion, plan_delete,
        plan_key_replacement, stub_tuple, IntegrityPolicy, MissingDependency, RefDeleteAction,
        RefModifyAction, Violation,
    };
    pub use crate::schema::{StructuralSchema, Traversal};
}
