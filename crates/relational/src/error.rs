//! Error type shared by all relational-engine operations.

use std::fmt;

/// Errors produced by the relational engine.
///
/// Every fallible operation in this crate returns [`Result`] with this error
/// type. Variants carry enough context (relation and attribute names, keys
/// rendered as text) to produce actionable diagnostics without borrowing
/// from the database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The named relation does not exist in the database or schema catalog.
    NoSuchRelation(String),
    /// The named attribute does not exist in the given relation.
    NoSuchAttribute { relation: String, attribute: String },
    /// A relation with this name already exists.
    DuplicateRelation(String),
    /// An attribute name appears twice in one relation schema.
    DuplicateAttribute { relation: String, attribute: String },
    /// A tuple with the same key already exists.
    KeyConflict { relation: String, key: String },
    /// No tuple with the given key exists.
    NoSuchTuple { relation: String, key: String },
    /// A write-back would overwrite what its instance did not show: at
    /// this key stands another version than the instance showed, or a row
    /// where it showed none — written since the instance was read.
    StaleTuple { relation: String, key: String },
    /// A value did not conform to the declared attribute type.
    TypeMismatch {
        relation: String,
        attribute: String,
        expected: String,
        found: String,
    },
    /// A NULL was supplied for a non-nullable attribute.
    NullViolation { relation: String, attribute: String },
    /// Tuple arity does not match the relation schema.
    ArityMismatch {
        relation: String,
        expected: usize,
        found: usize,
    },
    /// A schema definition was invalid (empty key, key on nullable attribute, ...).
    InvalidSchema(String),
    /// A query plan was ill-formed (unknown column, incompatible union, ...).
    InvalidPlan(String),
    /// An expression could not be evaluated (type error, unknown attribute).
    InvalidExpression(String),
    /// SQL text failed to lex or parse.
    SqlParse { position: usize, message: String },
    /// A transaction was rolled back; carries the underlying cause.
    Rolledback(Box<Error>),
    /// An integrity constraint external to the engine rejected the operation.
    ConstraintViolation(String),
    /// A persisted document failed to parse or decode.
    Serialization(String),
    /// The durable storage layer (`vo-store`) failed: an I/O error, a
    /// corrupt log or checkpoint, or a replay that no longer applies.
    /// Carries the rendered storage error (I/O errors are neither `Clone`
    /// nor `PartialEq`, so only the message crosses this boundary).
    Storage(String),
    /// First-committer-wins validation failed: a relation read or written
    /// by a transaction prepared against version `base_version` was
    /// concurrently modified (its stamp advanced to `head_version`).
    /// The prepared transaction must be retried against the new head.
    Conflict {
        relation: String,
        base_version: u64,
        head_version: u64,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NoSuchRelation(r) => write!(f, "no such relation: {r}"),
            Error::NoSuchAttribute {
                relation,
                attribute,
            } => {
                write!(f, "no attribute {attribute} in relation {relation}")
            }
            Error::DuplicateRelation(r) => write!(f, "relation {r} already exists"),
            Error::DuplicateAttribute {
                relation,
                attribute,
            } => {
                write!(f, "duplicate attribute {attribute} in relation {relation}")
            }
            Error::KeyConflict { relation, key } => {
                write!(f, "key conflict in {relation}: key {key} already present")
            }
            Error::NoSuchTuple { relation, key } => {
                write!(f, "no tuple with key {key} in relation {relation}")
            }
            Error::StaleTuple { relation, key } => write!(
                f,
                "stale tuple: {relation} at key {key} changed since the instance was read"
            ),
            Error::TypeMismatch {
                relation,
                attribute,
                expected,
                found,
            } => write!(
                f,
                "type mismatch for {relation}.{attribute}: expected {expected}, found {found}"
            ),
            Error::NullViolation {
                relation,
                attribute,
            } => {
                write!(f, "NULL not allowed for {relation}.{attribute}")
            }
            Error::ArityMismatch {
                relation,
                expected,
                found,
            } => write!(
                f,
                "arity mismatch for {relation}: expected {expected} values, found {found}"
            ),
            Error::InvalidSchema(m) => write!(f, "invalid schema: {m}"),
            Error::InvalidPlan(m) => write!(f, "invalid plan: {m}"),
            Error::InvalidExpression(m) => write!(f, "invalid expression: {m}"),
            Error::SqlParse { position, message } => {
                write!(f, "SQL parse error at byte {position}: {message}")
            }
            Error::Rolledback(cause) => write!(f, "transaction rolled back: {cause}"),
            Error::ConstraintViolation(m) => write!(f, "constraint violation: {m}"),
            Error::Serialization(m) => write!(f, "serialization error: {m}"),
            Error::Storage(m) => write!(f, "storage error: {m}"),
            Error::Conflict {
                relation,
                base_version,
                head_version,
            } => write!(
                f,
                "write conflict on {relation}: prepared against version \
                 {base_version} but the relation changed at version \
                 {head_version} — retry against the current head"
            ),
        }
    }
}

impl std::error::Error for Error {}

impl From<vo_obs::json::JsonError> for Error {
    fn from(e: vo_obs::json::JsonError) -> Self {
        Error::Serialization(e.0)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_covers_context() {
        let e = Error::KeyConflict {
            relation: "COURSES".into(),
            key: "(CS345)".into(),
        };
        let s = e.to_string();
        assert!(s.contains("COURSES"));
        assert!(s.contains("CS345"));
    }

    #[test]
    fn rolledback_wraps_cause() {
        let cause = Error::NoSuchRelation("X".into());
        let e = Error::Rolledback(Box::new(cause.clone()));
        assert!(e.to_string().contains("no such relation"));
        if let Error::Rolledback(inner) = e {
            assert_eq!(*inner, cause);
        } else {
            panic!("wrong variant");
        }
    }
}
