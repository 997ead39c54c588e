//! The store: one directory holding checkpoint artifacts and a segmented
//! write-ahead log, with crash recovery that loads the newest base
//! checkpoint, applies its delta chain, and replays the live log tail.
//!
//! ## On-disk layout
//!
//! - `wal-<seq>.log` — length-capped log segments ([`SegmentedWal`]).
//! - `base-<id>.json` — periodic **full** checkpoints ([`BaseCheckpoint`]).
//! - `delta-<id>.json` — **incremental** checkpoints: the net tuple
//!   upserts/deletes since the previous artifact ([`DeltaCheckpoint`]).
//!
//! This is the only layout. A directory left by the pre-segmentation
//! store (`checkpoint.json` + `wal.log`, no base) is refused with
//! [`StoreError::UnsupportedLayout`] rather than opened as empty.
//!
//! ## Protocol
//!
//! - **Commit** — after a transaction succeeds against the in-memory
//!   [`Database`], its ops are appended to the active segment as one
//!   record and folded into the in-memory delta accumulator
//!   ([`Store::commit`]). Durability follows the [`SyncPolicy`].
//! - **Checkpoint** — when the live log grows past the
//!   [`CheckpointPolicy`] thresholds, the accumulated net changes are
//!   written as a `delta-<id>.json` — cost proportional to the *churn*,
//!   not the database size — and the active segment is sealed. A
//!   structure-epoch move (or the [`CompactionPolicy`] limits) promotes
//!   the checkpoint to a full base instead.
//! - **Compact** — [`Store::compact`] folds the base + delta chain into
//!   a new base from *disk artifacts alone* (no live database needed, so
//!   it is background-eligible) and deletes superseded bases, deltas
//!   and retired segments. Automatic at checkpoint time under
//!   [`CompactionPolicy`] unless disabled.
//! - **Recover** — [`Store::open`] restores the newest base, applies the
//!   chained deltas (a delta failing its checksum *breaks the chain
//!   gracefully*: recovery falls back to replaying log segments from the
//!   last good artifact, which is why segments are deleted only once a
//!   base covers them), then replays every intact segment record with
//!   `lsn > covered`. A torn tail is truncated in the active segment
//!   only; a tear inside a sealed segment is tolerated solely when every
//!   record it could hide is already covered by a checkpoint.
//!
//! Recovery decodes rows, not documents: artifacts and log records are
//! read through `vo_relational::json::Reader` straight into tuples and
//! ops, and a log record at or below the covered LSN is not decoded at
//! all. It is **byte-identical at every parallelism level**: base
//! encoding and table rebuilds fan out per key-range partition via
//! `vo_exec::map_chunks`, whose contiguous deterministic partitioning
//! keeps artifacts and recovered states independent of worker count.

use crate::delta::{
    base_path_in, list_artifact_ids, BaseCheckpoint, DeltaCheckpoint, BASE_PREFIX, DELTA_PREFIX,
};
use crate::error::{StoreError, StoreResult};
use crate::segment::{SegmentScan, SegmentedWal};
use crate::wal::SyncPolicy;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use vo_exec::Parallelism;
use vo_obs::metrics::{self, Counter, Gauge, Histogram};
use vo_obs::trace;
use vo_relational::database::{Database, DbOp};
use vo_relational::json::Json;
use vo_relational::prelude::{DatabaseSnapshot, Delta, SnapshotDelta};

/// The files of the pre-segmentation layout (one full checkpoint, one
/// log). Nothing reads them: [`Store::open`] refuses a directory that
/// holds them and no base, [`Store::create`] clears them.
const OLD_LAYOUT_FILES: [&str; 2] = ["checkpoint.json", "wal.log"];

fn checkpoints_taken() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("store.checkpoints"))
}

fn checkpoints_full() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("store.checkpoints.full"))
}

fn checkpoints_delta() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("store.checkpoints.delta"))
}

fn compactions_run() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("store.compactions"))
}

fn records_replayed() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("store.recover.records_replayed"))
}

fn ops_replayed() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("store.recover.ops_replayed"))
}

fn deltas_applied() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("store.recover.deltas_applied"))
}

fn gauge_segment_count() -> Gauge {
    static G: OnceLock<Gauge> = OnceLock::new();
    *G.get_or_init(|| metrics::gauge("store.segments.count"))
}

fn gauge_live_bytes() -> Gauge {
    static G: OnceLock<Gauge> = OnceLock::new();
    *G.get_or_init(|| metrics::gauge("store.wal.live_bytes"))
}

fn gauge_chain_len() -> Gauge {
    static G: OnceLock<Gauge> = OnceLock::new();
    *G.get_or_init(|| metrics::gauge("store.delta_chain.len"))
}

fn checkpoint_bytes() -> Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    *H.get_or_init(|| metrics::histogram("store.checkpoint.bytes"))
}

/// When the store checkpoints on its own. Thresholds are checked after
/// every [`Store::commit`]; crossing either takes an (incremental)
/// checkpoint and seals the active segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Checkpoint once the live log (segments not yet covered by a
    /// checkpoint) exceeds this many bytes.
    pub max_wal_bytes: u64,
    /// Checkpoint once that live log holds this many commit records.
    pub max_wal_records: u64,
}

impl CheckpointPolicy {
    /// Never checkpoint automatically (explicit [`Store::checkpoint`]
    /// calls and structure-epoch changes still do).
    pub fn never() -> Self {
        CheckpointPolicy {
            max_wal_bytes: u64::MAX,
            max_wal_records: u64::MAX,
        }
    }
}

impl Default for CheckpointPolicy {
    /// 4 MiB of live log or 4096 commits, whichever comes first.
    fn default() -> Self {
        CheckpointPolicy {
            max_wal_bytes: 4 << 20,
            max_wal_records: 4096,
        }
    }
}

/// When checkpointing folds everything back into a full base, bounding
/// the delta chain and the on-disk segment count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionPolicy {
    /// Promote a checkpoint to a full base once the chain would exceed
    /// this many deltas.
    pub max_delta_chain: u64,
    /// Promote once this many segment files sit on disk (live and
    /// retired — retired segments are only deleted when a base lands).
    pub max_segments: u64,
    /// Compact automatically at checkpoint time. When `false`, only
    /// explicit [`Store::compact`] calls fold the chain.
    pub auto: bool,
}

impl CompactionPolicy {
    /// Never compact automatically.
    pub fn never() -> Self {
        CompactionPolicy {
            max_delta_chain: u64::MAX,
            max_segments: u64::MAX,
            auto: false,
        }
    }
}

impl Default for CompactionPolicy {
    /// Compact after 8 chained deltas or 16 segment files.
    fn default() -> Self {
        CompactionPolicy {
            max_delta_chain: 8,
            max_segments: 16,
            auto: true,
        }
    }
}

/// Store construction knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// When appended records are flushed and fsynced.
    pub sync: SyncPolicy,
    /// When the store checkpoints.
    pub checkpoint: CheckpointPolicy,
    /// Roll the active segment once it reaches this many bytes.
    pub max_segment_bytes: u64,
    /// When checkpoints are promoted to full bases (compaction).
    pub compaction: CompactionPolicy,
    /// Worker fan-out for base checkpoint encoding and recovery table
    /// rebuilds. Artifacts and recovered states are byte-identical
    /// at every setting.
    pub parallelism: Parallelism,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            sync: SyncPolicy::default(),
            checkpoint: CheckpointPolicy::default(),
            max_segment_bytes: 1 << 20,
            compaction: CompactionPolicy::default(),
            parallelism: Parallelism::default(),
        }
    }
}

impl StoreOptions {
    /// Default options with the given sync policy.
    pub fn with_sync(sync: SyncPolicy) -> Self {
        StoreOptions {
            sync,
            ..StoreOptions::default()
        }
    }
}

/// What recovery found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// LSN covered by the loaded checkpoint artifacts (base + applied
    /// deltas; 0 = none).
    pub checkpoint_lsn: u64,
    /// Log records applied on top of the checkpointed state.
    pub records_replayed: u64,
    /// Total ops inside the replayed records.
    pub ops_replayed: u64,
    /// Intact records skipped because a checkpoint already covered them
    /// (crash between checkpoint write and segment retirement).
    pub records_skipped: u64,
    /// True when a torn final record was found and truncated.
    pub torn_tail_truncated: bool,
    /// Highest LSN seen across artifacts and log.
    pub last_lsn: u64,
    /// Delta checkpoints applied on top of the base.
    pub deltas_applied: u64,
    /// True when the delta chain could not be followed to its end (a
    /// corrupt or missing link); the uncovered suffix was recovered from
    /// log segments instead.
    pub delta_chain_broken: bool,
    /// Segment files scanned.
    pub segments_scanned: u64,
}

/// What a [`Store::compact`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionReport {
    /// True when a new base was written (false = nothing to fold).
    pub compacted: bool,
    /// Id of the new base checkpoint (0 when not compacted).
    pub new_base_id: u64,
    /// Delta checkpoints folded into the new base.
    pub deltas_folded: u64,
    /// Superseded artifact files deleted (old bases + deltas).
    pub artifacts_deleted: u64,
    /// Retired segment files deleted.
    pub segments_deleted: u64,
    /// Bytes of retired segments reclaimed.
    pub segment_bytes_reclaimed: u64,
}

/// A durable store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal: SegmentedWal,
    options: StoreOptions,
    /// Structure epoch of the live database at the last checkpoint; a
    /// drifted epoch forces the next commit to checkpoint instead of
    /// appending DML the recovered schema could not absorb.
    checkpoint_epoch: u64,
    /// Commit records in the live log (drives `max_wal_records`).
    wal_records: u64,
    /// LSN covered by the newest checkpoint artifact.
    covered_lsn: u64,
    /// Id of the newest base checkpoint (0 = none yet — an empty
    /// directory was opened).
    base_id: u64,
    /// Id of the newest chained artifact (base or delta); the next delta
    /// names it as parent.
    last_id: u64,
    /// Next artifact id to allocate (monotonic across bases and deltas,
    /// never reused even past corrupt files).
    next_id: u64,
    /// Deltas chained onto the current base.
    chain_len: u64,
    /// Net changes since the last checkpoint, folded commit by commit.
    delta: Delta,
}

/// Resolve a worker count for rebuilding tables from a decoded artifact,
/// before the item count is known. `map_chunks` clamps to the actual
/// item count, so overshooting is safe.
fn io_workers(p: Parallelism) -> usize {
    match p {
        Parallelism::Off => 1,
        Parallelism::Fixed(n) => n.max(1),
        Parallelism::Auto => std::thread::available_parallelism().map_or(1, |n| n.get()),
    }
}

impl Store {
    /// Initialize a fresh store at `dir` for `db`, truncating any
    /// previous store there (segments, artifacts, and old-layout files):
    /// writes an initial base checkpoint of `db` and an empty segment.
    pub fn create(
        dir: impl Into<PathBuf>,
        db: &Database,
        options: StoreOptions,
    ) -> StoreResult<Store> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(StoreError::io("create store directory"))?;
        for id in list_artifact_ids(&dir, BASE_PREFIX)? {
            std::fs::remove_file(base_path_in(&dir, id))
                .map_err(StoreError::io("remove stale base"))?;
        }
        for id in list_artifact_ids(&dir, DELTA_PREFIX)? {
            std::fs::remove_file(DeltaCheckpoint::path_in(&dir, id))
                .map_err(StoreError::io("remove stale delta"))?;
        }
        for name in OLD_LAYOUT_FILES {
            match std::fs::remove_file(dir.join(name)) {
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    return Err(StoreError::io("remove old-layout store file")(e));
                }
                _ => {}
            }
        }
        let wal = SegmentedWal::create(&dir, options.sync, options.max_segment_bytes)?;
        let mut store = Store {
            dir,
            wal,
            options,
            checkpoint_epoch: 0,
            wal_records: 0,
            covered_lsn: 0,
            base_id: 0,
            last_id: 0,
            next_id: 1,
            chain_len: 0,
            delta: Delta::default(),
        };
        store.checkpoint(db)?;
        Ok(store)
    }

    /// Open the store at `dir`, recovering the database it holds: newest
    /// base checkpoint, its delta chain, then the intact log tail, torn
    /// active tail truncated. A directory with no store yields an empty
    /// database; a pre-segmentation directory (`checkpoint.json` /
    /// `wal.log` and no base) is refused with
    /// [`StoreError::UnsupportedLayout`].
    pub fn open(
        dir: impl Into<PathBuf>,
        options: StoreOptions,
    ) -> StoreResult<(Store, Database, RecoveryReport)> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(StoreError::io("create store directory"))?;
        let mut sp = trace::span("store.recover");
        let mut report = RecoveryReport::default();
        let workers = io_workers(options.parallelism);

        // -- checkpointed state: newest base + delta chain --
        let base_ids = list_artifact_ids(&dir, BASE_PREFIX)?;
        let delta_ids = list_artifact_ids(&dir, DELTA_PREFIX)?;
        let mut max_id = base_ids.last().copied().unwrap_or(0);
        max_id = max_id.max(delta_ids.last().copied().unwrap_or(0));
        let mut covered = 0u64;
        let mut base_id = 0u64;
        let mut last_id = 0u64;
        let mut chain_len = 0u64;

        let mut db = if let Some(&newest) = base_ids.last() {
            // A corrupt base is a hard error: unlike a delta it has no
            // fallback — the segments it covered are gone.
            let base = BaseCheckpoint::load(&dir, newest)?;
            let mut db = base.snapshot.restore_with(workers)?;
            covered = base.lsn;
            base_id = newest;
            last_id = newest;
            // Follow the delta chain by parent pointers. A delta that
            // fails its checksum simply never matches, breaking the
            // chain there; deltas naming an older base are compaction
            // leftovers and are ignored.
            let mut available = Vec::new();
            let mut unreadable = 0u64;
            for id in &delta_ids {
                match DeltaCheckpoint::load(&dir, *id) {
                    Ok(d) if d.base_id == newest => available.push(d),
                    Ok(_stale) => {}
                    Err(StoreError::Corrupt(_)) => unreadable += 1,
                    Err(e) => return Err(e),
                }
            }
            while let Some(pos) = available.iter().position(|d| d.parent_id == last_id) {
                let d = available.swap_remove(pos);
                d.delta.apply_to(&mut db)?;
                covered = d.lsn;
                last_id = d.id;
                chain_len += 1;
                report.deltas_applied += 1;
            }
            report.delta_chain_broken = unreadable > 0 || !available.is_empty();
            db
        } else {
            // No base: a fresh directory — or a pre-segmentation store,
            // which must not pass for an empty database.
            let old: Vec<&str> = OLD_LAYOUT_FILES
                .into_iter()
                .filter(|name| dir.join(name).exists())
                .collect();
            if !old.is_empty() {
                return Err(StoreError::UnsupportedLayout(format!(
                    "{} holds {} and no base-*.json",
                    dir.display(),
                    old.join(" + ")
                )));
            }
            Database::new()
        };
        report.checkpoint_lsn = covered;
        report.last_lsn = covered;

        // -- live log tail: records the artifacts cover are counted, the
        // rest decoded and replayed --
        let (mut wal, scans) =
            SegmentedWal::open(&dir, options.sync, options.max_segment_bytes, covered)?;
        report.segments_scanned = scans.len() as u64;

        let mut since_checkpoint = Delta::default();
        let n = scans.len();
        for (i, SegmentScan { seq, replay }) in scans.iter().enumerate() {
            report.records_skipped += replay.skipped;
            for rec in &replay.records {
                db.apply_all(&rec.ops)?;
                since_checkpoint.record_all(&db, &rec.ops)?;
                report.records_replayed += 1;
                report.ops_replayed += rec.ops.len() as u64;
                report.last_lsn = rec.lsn;
            }
            if !replay.torn {
                continue;
            }
            if i + 1 == n {
                // Torn tail at the very end of history: the active
                // segment's tail was truncated by `open_for_append`.
                report.torn_tail_truncated = true;
                continue;
            }
            // A tear in a *sealed* segment hides records between its
            // last valid record and the first
            // record of a later segment. Tolerable only when that hidden
            // range is empty or fully covered by a checkpoint; otherwise
            // committed history is gone and recovery must not pretend
            // otherwise.
            let last_good = replay.last_lsn;
            let next_first = (scans[i + 1..].iter())
                .map(|s| s.replay.first_lsn)
                .find(|&lsn| lsn != 0);
            let tolerable = match next_first {
                Some(nf) => nf == last_good + 1 || nf.saturating_sub(1) <= covered,
                None => false,
            };
            if !tolerable {
                return Err(StoreError::Corrupt(format!(
                    "sealed segment {} is torn mid-history and the hidden \
                     records are not covered by any checkpoint",
                    crate::segment::segment_file_name(*seq)
                )));
            }
        }
        records_replayed().add(report.records_replayed);
        ops_replayed().add(report.ops_replayed);
        deltas_applied().add(report.deltas_applied);
        wal.bump_next_lsn(report.last_lsn + 1);

        if sp.is_recording() {
            sp.field("checkpoint_lsn", Json::Int(report.checkpoint_lsn as i64));
            sp.field("deltas", Json::Int(report.deltas_applied as i64));
            sp.field("segments", Json::Int(report.segments_scanned as i64));
            sp.field("replayed", Json::Int(report.records_replayed as i64));
            sp.field("skipped", Json::Int(report.records_skipped as i64));
            sp.field("torn", Json::Bool(report.torn_tail_truncated));
            sp.field("chain_broken", Json::Bool(report.delta_chain_broken));
        }
        drop(sp);

        let store = Store {
            dir,
            wal,
            options,
            // The recovered database's epoch numbering starts fresh, and
            // its structure matches the artifacts (structural changes
            // always force a checkpoint), so pin to it directly.
            checkpoint_epoch: db.structure_epoch(),
            wal_records: report.records_replayed,
            covered_lsn: covered,
            base_id,
            last_id,
            next_id: max_id + 1,
            chain_len,
            delta: since_checkpoint,
        };
        store.update_gauges();
        Ok((store, db, report))
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The active segment's file path.
    pub fn wal_path(&self) -> PathBuf {
        self.wal.active_path().to_path_buf()
    }

    /// The options in force.
    pub fn options(&self) -> StoreOptions {
        self.options
    }

    /// Live log size in bytes: segments still holding records past the
    /// newest checkpoint (buffered appends included). This is the health
    /// monitor's recovery-debt signal.
    pub fn wal_len(&self) -> u64 {
        self.wal.live_bytes(self.covered_lsn)
    }

    /// Total bytes across every segment file, retired segments included
    /// (reclaimed at the next compaction).
    pub fn total_wal_bytes(&self) -> u64 {
        self.wal.total_bytes()
    }

    /// Number of segment files on disk (live and retired).
    pub fn segment_count(&self) -> u64 {
        self.wal.segment_count()
    }

    /// Delta checkpoints chained onto the current base.
    pub fn delta_chain_len(&self) -> u64 {
        self.chain_len
    }

    /// Id of the newest base checkpoint (0 = none yet).
    pub fn base_id(&self) -> u64 {
        self.base_id
    }

    /// LSN covered by the newest checkpoint artifact (every record at or
    /// below it is subsumed by the base + delta chain).
    pub fn last_checkpoint_lsn(&self) -> u64 {
        self.covered_lsn
    }

    /// Commit records in the live log.
    pub fn wal_records(&self) -> u64 {
        self.wal_records
    }

    /// The LSN the next committed transaction will take.
    pub fn next_lsn(&self) -> u64 {
        self.wal.next_lsn()
    }

    /// Durably record already-applied transactions: one log record per
    /// transaction (empty ones are skipped), each also folded into the
    /// in-memory delta accumulator that the next incremental checkpoint
    /// writes. `db` must be the database the transactions were applied
    /// to — it is consulted for structural drift (which forces a full
    /// checkpoint instead of appends, since the snapshot already
    /// contains the transactions' effects) and for the post-commit
    /// checkpoint thresholds.
    pub fn commit<T: AsRef<[DbOp]>>(
        &mut self,
        db: &Database,
        transactions: &[T],
    ) -> StoreResult<()> {
        if db.structure_epoch() != self.checkpoint_epoch {
            // the schema or index set changed since the checkpoint; DML
            // replay onto the old snapshot could name relations it does
            // not have. The new base subsumes `transactions`.
            return self.checkpoint(db);
        }
        let mut appended = false;
        for tx in transactions {
            let tx = tx.as_ref();
            if tx.is_empty() {
                continue;
            }
            self.wal.append(tx)?;
            self.delta.record_all(db, tx)?;
            self.wal_records += 1;
            appended = true;
        }
        if appended
            && (self.wal.live_bytes(self.covered_lsn) > self.options.checkpoint.max_wal_bytes
                || self.wal_records > self.options.checkpoint.max_wal_records)
        {
            self.checkpoint(db)?;
        } else {
            self.update_gauges();
        }
        Ok(())
    }

    /// Checkpoint the committed state. Normally this writes an
    /// **incremental** `delta-<id>.json` holding only the net changes
    /// since the last checkpoint — cost proportional to churn, flat in
    /// the database size — and seals the active segment so a later base
    /// can retire it wholesale. The checkpoint is promoted to a **full
    /// base** when there is no base yet (fresh store), when the
    /// structure epoch moved, or when the [`CompactionPolicy`] limits are
    /// hit (auto-compaction; superseded artifacts are deleted after the
    /// base lands).
    ///
    /// Crash-safe at every step: artifacts land atomically first, and a
    /// crash before segment retirement leaves only stale records that
    /// recovery skips by LSN. Only *committed* state is checkpointed —
    /// database mutations that never went through [`Store::commit`] are
    /// invisible here unless they moved the structure epoch.
    pub fn checkpoint(&mut self, db: &Database) -> StoreResult<()> {
        let mut sp = trace::span("store.checkpoint");
        self.wal.sync()?;
        let covered = self.wal.next_lsn() - 1;
        let epoch = db.structure_epoch();
        let need_full = self.base_id == 0 || epoch != self.checkpoint_epoch;
        if !need_full && covered == self.covered_lsn && self.delta.is_empty() {
            return Ok(()); // nothing new since the last checkpoint
        }
        let policy = self.options.compaction;
        let auto_compact = policy.auto
            && (self.chain_len + 1 > policy.max_delta_chain
                || self.wal.segment_count() >= policy.max_segments);
        let full = need_full || auto_compact;
        let bytes = if full {
            let workers = self.options.parallelism.workers_for(db.total_tuples());
            let base = BaseCheckpoint {
                id: self.next_id,
                lsn: covered,
                epoch,
                snapshot: DatabaseSnapshot::capture_full_with(db, workers),
            };
            if sp.is_recording() {
                sp.field("tuples", Json::Int(base.snapshot.total_tuples() as i64));
            }
            let bytes = base.write(&self.dir, workers)?;
            self.base_id = base.id;
            self.last_id = base.id;
            self.next_id += 1;
            self.chain_len = 0;
            self.covered_lsn = covered;
            self.checkpoint_epoch = epoch;
            self.delta = Delta::default();
            // Everything is covered: the active segment's records are
            // stale, so truncate it in place, then drop what the base
            // superseded. Stale artifacts left by a crash in here are
            // ignored (older base / mismatched base_id) and deleted by
            // the next pass.
            self.wal.reset_active()?;
            self.prune_superseded()?;
            checkpoints_full().inc();
            if !need_full {
                // promoted by the `CompactionPolicy` alone: an auto-compaction
                compactions_run().inc();
            }
            bytes
        } else {
            // Seal the active segment so the bytes this delta covers sit
            // in retired-eligible files the next base can delete.
            self.wal.roll()?;
            let delta = DeltaCheckpoint {
                id: self.next_id,
                base_id: self.base_id,
                parent_id: self.last_id,
                lsn: covered,
                epoch,
                delta: SnapshotDelta::new(std::mem::take(&mut self.delta), db.version()),
            };
            if sp.is_recording() {
                sp.field("changes", Json::Int(delta.delta.change_count() as i64));
            }
            let bytes = delta.write(&self.dir)?;
            self.last_id = delta.id;
            self.next_id += 1;
            self.chain_len += 1;
            self.covered_lsn = covered;
            checkpoints_delta().inc();
            bytes
        };
        self.wal_records = 0;
        checkpoints_taken().inc();
        checkpoint_bytes().record(bytes);
        if sp.is_recording() {
            sp.field("lsn", Json::Int(covered as i64));
            sp.field("full", Json::Bool(full));
            sp.field("bytes", Json::Int(bytes as i64));
        }
        self.update_gauges();
        Ok(())
    }

    /// Fold the current base and its delta chain into a new full base,
    /// then delete everything it supersedes: older bases, all deltas and
    /// retired segments. Works from **disk artifacts
    /// alone** — the live database is not consulted — so it can run from
    /// a maintenance window or background thread while commits continue
    /// to accumulate in the (untouched) delta accumulator and active
    /// segment.
    ///
    /// After a successful compaction the store holds exactly one base,
    /// zero deltas, and only segments with records past the base — which
    /// is what bounds the live segment count.
    pub fn compact(&mut self) -> StoreResult<CompactionReport> {
        let mut report = CompactionReport::default();
        if self.base_id == 0 {
            // Fresh store: nothing to fold; the first checkpoint() writes
            // the initial base.
            return Ok(report);
        }
        if self.chain_len == 0
            && self
                .wal
                .sealed()
                .iter()
                .all(|s| s.last_lsn > self.covered_lsn)
            && list_artifact_ids(&self.dir, BASE_PREFIX)?.len() <= 1
        {
            return Ok(report); // already compact
        }
        let mut sp = trace::span("store.compact");
        self.wal.sync()?;
        let workers = io_workers(self.options.parallelism);
        // Reconstruct the covered state from disk: base + delta chain.
        // (Segments are not needed — the chain *is* the covered state.)
        let base = BaseCheckpoint::load(&self.dir, self.base_id)?;
        let mut db = base.snapshot.restore_with(workers)?;
        let mut last = base.id;
        let mut folded = 0u64;
        while last != self.last_id {
            let next = list_artifact_ids(&self.dir, DELTA_PREFIX)?
                .into_iter()
                .filter_map(|id| DeltaCheckpoint::load(&self.dir, id).ok())
                .find(|d| d.base_id == self.base_id && d.parent_id == last)
                .ok_or_else(|| {
                    StoreError::Corrupt(format!(
                        "delta chain broken at artifact {last} during compaction; \
                         reopen the store to fall back to segment replay"
                    ))
                })?;
            next.delta.apply_to(&mut db)?;
            last = next.id;
            folded += 1;
        }
        let enc_workers = self.options.parallelism.workers_for(db.total_tuples());
        let base = BaseCheckpoint {
            id: self.next_id,
            lsn: self.covered_lsn,
            epoch: self.checkpoint_epoch,
            snapshot: DatabaseSnapshot::capture_full_with(&db, enc_workers),
        };
        base.write(&self.dir, enc_workers)?;
        self.base_id = base.id;
        self.last_id = base.id;
        self.next_id += 1;
        self.chain_len = 0;
        let (artifacts, segments, seg_bytes) = self.prune_superseded()?;
        report.compacted = true;
        report.new_base_id = base.id;
        report.deltas_folded = folded;
        report.artifacts_deleted = artifacts;
        report.segments_deleted = segments;
        report.segment_bytes_reclaimed = seg_bytes;
        compactions_run().inc();
        if sp.is_recording() {
            sp.field("base_id", Json::Int(base.id as i64));
            sp.field("deltas_folded", Json::Int(folded as i64));
            sp.field("segments_deleted", Json::Int(segments as i64));
        }
        self.update_gauges();
        Ok(report)
    }

    /// Delete everything the current base supersedes: older bases, all
    /// delta files and retired segments. Returns `(artifact_files,
    /// segment_files, segment_bytes)` removed.
    fn prune_superseded(&mut self) -> StoreResult<(u64, u64, u64)> {
        let mut artifacts = 0u64;
        for id in list_artifact_ids(&self.dir, BASE_PREFIX)? {
            if id != self.base_id {
                std::fs::remove_file(base_path_in(&self.dir, id))
                    .map_err(StoreError::io("remove superseded base"))?;
                artifacts += 1;
            }
        }
        for id in list_artifact_ids(&self.dir, DELTA_PREFIX)? {
            std::fs::remove_file(DeltaCheckpoint::path_in(&self.dir, id))
                .map_err(StoreError::io("remove superseded delta"))?;
            artifacts += 1;
        }
        let (seg_files, seg_bytes) = self.wal.delete_retired(self.covered_lsn)?;
        Ok((artifacts, seg_files, seg_bytes))
    }

    /// Flush and fsync any buffered log records regardless of policy —
    /// the clean-shutdown hook.
    pub fn sync(&mut self) -> StoreResult<()> {
        self.wal.sync()
    }

    fn update_gauges(&self) {
        gauge_segment_count().set(self.wal.segment_count());
        gauge_live_bytes().set(self.wal.live_bytes(self.covered_lsn));
        gauge_chain_len().set(self.chain_len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::list_segment_files;
    use vo_relational::json::JsonCodec;
    use vo_relational::schema::{AttributeDef, RelationSchema};
    use vo_relational::tuple::Tuple;
    use vo_relational::value::DataType;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vo_store_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn schema_t() -> RelationSchema {
        RelationSchema::new(
            "T",
            vec![
                AttributeDef::required("k", DataType::Int),
                AttributeDef::nullable("v", DataType::Text),
            ],
            &["k"],
        )
        .unwrap()
    }

    fn insert_op(db: &Database, k: i64) -> DbOp {
        let schema = db.table("T").unwrap().schema();
        DbOp::Insert {
            relation: "T".into(),
            tuple: Tuple::new(schema, vec![k.into(), format!("v{k}").into()]).unwrap(),
        }
    }

    fn fingerprint(db: &Database) -> String {
        DatabaseSnapshot::capture_full(db).to_json().pretty()
    }

    #[test]
    fn create_commit_reopen_recovers_identical_state() {
        let dir = tmp_dir("roundtrip");
        let mut db = Database::new();
        db.create_relation(schema_t()).unwrap();
        let mut store = Store::create(&dir, &db, StoreOptions::default()).unwrap();
        for k in 0..10 {
            let op = insert_op(&db, k);
            db.apply(&op).unwrap();
            store.commit(&db, &[vec![op]]).unwrap();
        }
        drop(store); // no clean shutdown needed under SyncPolicy::Always
        let (_store2, recovered, report) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(report.records_replayed, 10);
        assert_eq!(report.ops_replayed, 10);
        assert!(!report.torn_tail_truncated);
        assert_eq!(fingerprint(&recovered), fingerprint(&db));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn structure_change_forces_checkpoint_and_replay_survives() {
        let dir = tmp_dir("epoch");
        let mut db = Database::new();
        db.create_relation(schema_t()).unwrap();
        let mut store = Store::create(&dir, &db, StoreOptions::default()).unwrap();
        let op = insert_op(&db, 1);
        db.apply(&op).unwrap();
        store.commit(&db, &[vec![op]]).unwrap();
        // structural drift: new relation + an index, then DML against it
        db.create_relation(
            RelationSchema::new(
                "S",
                vec![AttributeDef::required("id", DataType::Int)],
                &["id"],
            )
            .unwrap(),
        )
        .unwrap();
        db.create_index("T", &["v".to_string()]).unwrap();
        let op = DbOp::Insert {
            relation: "S".into(),
            tuple: Tuple::raw(vec![7.into()]),
        };
        db.apply(&op).unwrap();
        // epoch moved → this commit writes a full base instead of appending
        let bases_before = store.base_id();
        store.commit(&db, &[vec![op]]).unwrap();
        assert_eq!(store.wal_records(), 0);
        assert!(store.base_id() > bases_before);
        assert_eq!(store.delta_chain_len(), 0);
        // further DML appends normally again
        let op = insert_op(&db, 2);
        db.apply(&op).unwrap();
        store.commit(&db, &[vec![op]]).unwrap();
        assert_eq!(store.wal_records(), 1);
        drop(store);
        let (_s, recovered, _r) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(fingerprint(&recovered), fingerprint(&db));
        assert!(recovered.table("T").unwrap().has_index(&["v".to_string()]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_threshold_triggers_automatic_delta_checkpoints() {
        let dir = tmp_dir("threshold");
        let mut db = Database::new();
        db.create_relation(schema_t()).unwrap();
        let options = StoreOptions {
            checkpoint: CheckpointPolicy {
                max_wal_bytes: u64::MAX,
                max_wal_records: 3,
            },
            ..StoreOptions::default()
        };
        let mut store = Store::create(&dir, &db, options).unwrap();
        let snap = metrics::snapshot_all().counters;
        let ckpts_before = snap.get("store.checkpoints").copied().unwrap_or(0);
        let delta_before = snap.get("store.checkpoints.delta").copied().unwrap_or(0);
        for k in 0..8 {
            let op = insert_op(&db, k);
            db.apply(&op).unwrap();
            store.commit(&db, &[vec![op]]).unwrap();
        }
        // 8 commits with a 3-record cap: checkpoints fired, the live log
        // stayed short, and they were cheap deltas, not full bases
        assert!(store.wal_records() <= 3);
        assert!(store.delta_chain_len() >= 2);
        let snap = metrics::snapshot_all().counters;
        let ckpts_after = snap.get("store.checkpoints").copied().unwrap_or(0);
        let delta_after = snap.get("store.checkpoints.delta").copied().unwrap_or(0);
        assert!(ckpts_after >= ckpts_before + 2);
        assert!(delta_after >= delta_before + 2);
        drop(store);
        let (_s, recovered, report) = Store::open(&dir, options).unwrap();
        assert!(report.deltas_applied >= 2);
        assert!(!report.delta_chain_broken);
        assert_eq!(fingerprint(&recovered), fingerprint(&db));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_log_records_below_checkpoint_lsn_are_skipped() {
        let dir = tmp_dir("stale");
        let mut db = Database::new();
        db.create_relation(schema_t()).unwrap();
        let mut store = Store::create(&dir, &db, StoreOptions::default()).unwrap();
        for k in 0..3 {
            let op = insert_op(&db, k);
            db.apply(&op).unwrap();
            store.commit(&db, &[vec![op]]).unwrap();
        }
        store.sync().unwrap();
        // simulate the crash window: checkpoint artifact written, segments
        // NOT yet retired. Write a covering base by hand (with a fresh id)
        // and leave the old segments in place.
        BaseCheckpoint {
            id: 99,
            lsn: store.next_lsn() - 1,
            epoch: db.structure_epoch(),
            snapshot: DatabaseSnapshot::capture_full(&db),
        }
        .write(&dir, 1)
        .unwrap();
        drop(store);
        let (s, recovered, report) = Store::open(&dir, StoreOptions::default()).unwrap();
        // every log record was already inside the base → skipped
        assert_eq!(report.records_replayed, 0);
        assert_eq!(report.records_skipped, 3);
        assert_eq!(s.base_id(), 99);
        assert_eq!(fingerprint(&recovered), fingerprint(&db));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lsns_stay_monotonic_across_reopen() {
        let dir = tmp_dir("lsn");
        let mut db = Database::new();
        db.create_relation(schema_t()).unwrap();
        let mut store = Store::create(&dir, &db, StoreOptions::default()).unwrap();
        for k in 0..4 {
            let op = insert_op(&db, k);
            db.apply(&op).unwrap();
            store.commit(&db, &[vec![op]]).unwrap();
        }
        let next_before = store.next_lsn();
        drop(store);
        let (store2, _db2, report) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(report.last_lsn, next_before - 1);
        assert!(store2.next_lsn() >= next_before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_directory_opens_as_empty_database() {
        let dir = tmp_dir("empty");
        let (store, db, report) = Store::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(db.relation_names().len(), 0);
        assert_eq!(report, RecoveryReport::default());
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_folds_chain_and_bounds_segments() {
        let dir = tmp_dir("compact");
        let mut db = Database::new();
        db.create_relation(schema_t()).unwrap();
        let options = StoreOptions {
            checkpoint: CheckpointPolicy {
                max_wal_bytes: u64::MAX,
                max_wal_records: 2,
            },
            compaction: CompactionPolicy::never(),
            max_segment_bytes: 1, // roll on every append
            ..StoreOptions::default()
        };
        let mut store = Store::create(&dir, &db, options).unwrap();
        for k in 0..12 {
            let op = insert_op(&db, k);
            db.apply(&op).unwrap();
            store.commit(&db, &[vec![op]]).unwrap();
        }
        // with auto-compaction off, deltas and segment files pile up
        assert!(store.delta_chain_len() >= 3);
        let files_before = list_segment_files(&dir).unwrap().len();
        assert!(files_before > 3);
        let report = store.compact().unwrap();
        assert!(report.compacted);
        assert!(report.deltas_folded >= 3);
        assert!(report.segments_deleted > 0);
        assert_eq!(store.delta_chain_len(), 0);
        // all retired segments gone; only the live tail remains
        let files_after = list_segment_files(&dir).unwrap().len();
        assert!(files_after < files_before);
        assert!(list_artifact_ids(&dir, DELTA_PREFIX).unwrap().is_empty());
        assert_eq!(list_artifact_ids(&dir, BASE_PREFIX).unwrap().len(), 1);
        // a second compact is a no-op
        assert!(!store.compact().unwrap().compacted);
        // the compacted store still recovers the exact same state
        drop(store);
        let (_s, recovered, _r) = Store::open(&dir, options).unwrap();
        assert_eq!(fingerprint(&recovered), fingerprint(&db));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn auto_compaction_keeps_segment_count_bounded() {
        let dir = tmp_dir("autocompact");
        let mut db = Database::new();
        db.create_relation(schema_t()).unwrap();
        let options = StoreOptions {
            checkpoint: CheckpointPolicy {
                max_wal_bytes: u64::MAX,
                max_wal_records: 2,
            },
            compaction: CompactionPolicy {
                max_delta_chain: 3,
                max_segments: 6,
                auto: true,
            },
            max_segment_bytes: 1,
            ..StoreOptions::default()
        };
        let mut store = Store::create(&dir, &db, options).unwrap();
        let compactions_before = compactions_run().get();
        let mut promoted = 0;
        for k in 0..50 {
            let op = insert_op(&db, k);
            db.apply(&op).unwrap();
            let chain_before = store.delta_chain_len();
            store.commit(&db, &[vec![op]]).unwrap();
            // the policy provably bounds on-disk state at every step:
            // segment files never exceed max_segments + the few the
            // current burst can add before the next checkpoint fires
            assert!(store.delta_chain_len() <= 3);
            assert!(store.segment_count() <= 6 + 3);
            if store.delta_chain_len() < chain_before {
                promoted += 1; // a checkpoint the policy promoted to a base
            }
        }
        // every promotion counts as a compaction (the counter is process-
        // wide: sibling tests can only add to it)
        assert!(promoted > 0);
        assert!(compactions_run().get() - compactions_before >= promoted);
        drop(store);
        let (_s, recovered, _r) = Store::open(&dir, options).unwrap();
        assert_eq!(fingerprint(&recovered), fingerprint(&db));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_is_byte_identical_at_every_worker_count() {
        let dir = tmp_dir("workers");
        let mut db = Database::new();
        db.create_relation(schema_t()).unwrap();
        let mut store = Store::create(&dir, &db, StoreOptions::default()).unwrap();
        for k in 0..40 {
            let op = insert_op(&db, k);
            db.apply(&op).unwrap();
            store.commit(&db, &[vec![op]]).unwrap();
        }
        store.checkpoint(&db).unwrap();
        drop(store);
        let expected = fingerprint(&db);
        for workers in [
            Parallelism::Off,
            Parallelism::Fixed(2),
            Parallelism::Fixed(7),
        ] {
            let options = StoreOptions {
                parallelism: workers,
                ..StoreOptions::default()
            };
            let (_s, recovered, _r) = Store::open(&dir, options).unwrap();
            assert_eq!(fingerprint(&recovered), expected, "workers={workers:?}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
