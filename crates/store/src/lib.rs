//! # vo-store — durable storage for the PENGUIN stack
//!
//! The paper frames PENGUIN as a long-lived view-object server over a
//! shared relational database (§6); a server's committed translations
//! must outlive the process. This crate adds that durability to
//! [`vo_relational::database::Database`] with a scaled-out version of
//! the classic trio, all zero-dependency:
//!
//! - [`wal`] + [`segment`] — a **segmented write-ahead log** of
//!   committed transactions: length-prefixed, CRC-32-checksummed records
//!   (one per transaction — a whole `apply_batch` is one record) with
//!   group-commit buffering under a [`wal::SyncPolicy`] knob, split into
//!   length-capped `wal-<seq>.log` files so checkpoints retire whole
//!   segments instead of truncating a shared log.
//! - [`delta`] — **incremental checkpoints**: periodic full
//!   `base-<id>.json` images (the [`vo_relational::storage::DatabaseSnapshot`]
//!   codec, secondary indexes included) plus chained `delta-<id>.json`
//!   artifacts holding only the net tuple changes since the previous
//!   artifact — checkpoint cost proportional to churn, flat in database
//!   size. Every artifact carries a whole-file CRC-32 line and lands
//!   tmp-then-rename.
//! - [`store`] — the orchestrator: churn-driven delta checkpoints,
//!   structure-epoch-driven full bases (schema changes the DML-only log
//!   cannot express), a background-eligible [`store::Store::compact`]
//!   that folds base + deltas into a new base and deletes retired
//!   segments under a [`store::CompactionPolicy`], and **crash
//!   recovery** that restores the newest base, applies the delta chain
//!   (falling back to segment replay when a delta is corrupt), replays
//!   the intact log tail, and truncates a torn final record
//!   (*truncate-at-corruption*). Artifacts and log records are decoded
//!   straight off their text, row by row, and a log record the
//!   checkpoints cover is not decoded at all; base encoding and table
//!   rebuilds fan out per key-range partition via `vo_exec`,
//!   byte-identical at every worker count. This is the only on-disk layout: a
//!   pre-segmentation directory (`checkpoint.json` + `wal.log`) is
//!   refused with [`StoreError::UnsupportedLayout`], never opened as
//!   an empty database.
//!
//! The `vo-penguin` facade builds `Penguin::persistent` / `Penguin::open`
//! on top: every successful translated update is drained from the
//! database's commit journal and appended here.
//!
//! Observability: spans `wal.append`, `wal.fsync`, `store.checkpoint`,
//! `store.compact`, `store.recover`; counters `store.wal.bytes_appended`,
//! `store.wal.records_appended`, `store.wal.fsyncs`, `store.checkpoints`
//! (plus `.full` / `.delta`), `store.compactions`,
//! `store.segments.created` / `.deleted`, `store.recover.*`,
//! `store.torn_tails_truncated`; gauges `store.segments.count`,
//! `store.wal.live_bytes`, `store.delta_chain.len`; histogram
//! `store.checkpoint.bytes` — all in the `vo-obs` registry.

pub mod crc32;
pub mod delta;
pub mod error;
pub mod segment;
pub mod store;
pub mod wal;

pub use delta::{BaseCheckpoint, DeltaCheckpoint};
pub use error::{StoreError, StoreResult};
pub use segment::SegmentedWal;
pub use store::{
    CheckpointPolicy, CompactionPolicy, CompactionReport, RecoveryReport, Store, StoreOptions,
};
pub use wal::{CommitRecord, SyncPolicy, Wal};

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::delta::{BaseCheckpoint, DeltaCheckpoint};
    pub use crate::error::{StoreError, StoreResult};
    pub use crate::segment::SegmentedWal;
    pub use crate::store::{
        CheckpointPolicy, CompactionPolicy, CompactionReport, RecoveryReport, Store, StoreOptions,
    };
    pub use crate::wal::{CommitRecord, SyncPolicy, Wal};
    pub use vo_relational::json::JsonCodec;
}
