//! Error type of the durable storage layer.

use std::fmt;
use std::io;

/// Errors produced by the store: I/O failures, corruption that cannot be
/// healed by torn-tail truncation (a bad file magic, an unreadable
/// checkpoint), and database errors surfaced while replaying or restoring.
#[derive(Debug)]
pub enum StoreError {
    /// An operating-system I/O failure, with the operation that failed.
    Io {
        /// What the store was doing ("append wal record", "rename checkpoint", …).
        context: &'static str,
        /// The underlying error.
        source: io::Error,
    },
    /// A persisted file is structurally invalid beyond the tolerated torn
    /// tail (wrong magic, corrupt checkpoint document, …).
    Corrupt(String),
    /// A commit record's payload exceeds what the WAL's 4-byte length
    /// prefix can frame; the append is rejected instead of writing a
    /// wrapped (silently truncated) length header.
    RecordTooLarge { bytes: u64, max: u64 },
    /// The directory holds a store in a layout this version does not read
    /// (the pre-segmentation `checkpoint.json` + `wal.log` pair); the
    /// message names the directory and the files found.
    UnsupportedLayout(String),
    /// The relational engine rejected a restore or replay.
    Db(vo_relational::error::Error),
}

impl StoreError {
    pub(crate) fn io(context: &'static str) -> impl FnOnce(io::Error) -> Self {
        move |source| StoreError::Io { context, source }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { context, source } => write!(f, "i/o error ({context}): {source}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StoreError::RecordTooLarge { bytes, max } => write!(
                f,
                "commit record payload of {bytes} bytes exceeds the WAL frame limit of {max} bytes"
            ),
            StoreError::UnsupportedLayout(m) => {
                write!(f, "pre-segmentation store; not supported: {m}")
            }
            StoreError::Db(e) => write!(f, "database error during recovery: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Db(e) => Some(e),
            StoreError::Corrupt(_)
            | StoreError::RecordTooLarge { .. }
            | StoreError::UnsupportedLayout(_) => None,
        }
    }
}

/// A persisted document that does not have the shape its codec expects
/// is corruption, whatever layer noticed.
impl From<vo_relational::json::JsonError> for StoreError {
    fn from(e: vo_relational::json::JsonError) -> Self {
        StoreError::Corrupt(e.0)
    }
}

impl From<vo_relational::error::Error> for StoreError {
    fn from(e: vo_relational::error::Error) -> Self {
        StoreError::Db(e)
    }
}

/// Storage errors collapse into [`vo_relational::error::Error::Storage`]
/// when they cross into the relational `Result` world (the facade's
/// update API), keeping that error type `Clone + PartialEq`.
impl From<StoreError> for vo_relational::error::Error {
    fn from(e: StoreError) -> Self {
        match e {
            StoreError::Db(inner) => inner,
            other => vo_relational::error::Error::Storage(other.to_string()),
        }
    }
}

/// Crate-wide result alias.
pub type StoreResult<T> = std::result::Result<T, StoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = StoreError::io("append wal record")(io::Error::other("disk full"));
        let s = e.to_string();
        assert!(s.contains("append wal record"));
        assert!(s.contains("disk full"));
    }

    #[test]
    fn conversion_into_relational_error() {
        let e: vo_relational::error::Error = StoreError::Corrupt("bad magic".into()).into();
        assert!(matches!(e, vo_relational::error::Error::Storage(_)));
        assert!(e.to_string().contains("bad magic"));
        // a wrapped db error unwraps instead of double-wrapping
        let db = vo_relational::error::Error::NoSuchRelation("T".into());
        let e: vo_relational::error::Error = StoreError::Db(db.clone()).into();
        assert_eq!(e, db);
    }
}
