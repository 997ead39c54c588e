//! Segmented write-ahead log: a sequence of length-capped [`Wal`] files.
//!
//! PR 9 splits the monolithic `wal.log` into numbered segments
//! (`wal-<seq>.log`). Each segment is an ordinary [`Wal`] file — same
//! magic, same checksummed record framing — so the per-record durability
//! story is unchanged. What segmentation buys:
//!
//! - **Checkpoints retire whole files.** A delta checkpoint seals the
//!   active segment; once a later *base* checkpoint covers a sealed
//!   segment's last LSN, [`SegmentedWal::delete_retired`] unlinks the
//!   file instead of truncating a shared log in place.
//! - **Recovery passes over covered records** without decoding them
//!   ([`Wal::read_all`]).
//! - **Corruption is contained.** A torn tail is only legal in the
//!   highest-numbered (active) segment, where it is truncated exactly as
//!   the single-file WAL did. Corruption in a *sealed* segment is
//!   tolerated by the caller only when every record the tear could hide
//!   is already covered by a checkpoint; otherwise recovery fails hard
//!   rather than silently dropping committed history.
//!
//! LSNs are global across segments: segment `n+1` continues the sequence
//! where segment `n` stopped, so replay order is by `(seq, offset)` and
//! the covered-LSN filter works unchanged.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use crate::error::{StoreError, StoreResult};
use crate::wal::{Replay, SyncPolicy, Wal};
use vo_obs::metrics::{self, Counter};
use vo_relational::database::DbOp;

fn counter_segments_created() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("store.segments.created"))
}

fn counter_segments_deleted() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("store.segments.deleted"))
}

/// Segment file name prefix (`wal-000001.log`, `wal-000002.log`, ...).
pub const SEGMENT_PREFIX: &str = "wal-";
/// Segment file name suffix.
pub const SEGMENT_SUFFIX: &str = ".log";

/// File name for segment `seq` (zero-padded so lexicographic order is
/// numeric order).
pub fn segment_file_name(seq: u64) -> String {
    format!("{SEGMENT_PREFIX}{seq:06}{SEGMENT_SUFFIX}")
}

/// Parse a segment sequence number out of a file name, or `None` if the
/// name is not a segment file.
pub fn parse_segment_seq(name: &str) -> Option<u64> {
    let stem = name
        .strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?;
    if stem.is_empty() || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

/// List segment files in `dir`, sorted by sequence number.
pub fn list_segment_files(dir: &Path) -> StoreResult<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(StoreError::io("list segment directory")(e)),
    };
    for entry in entries {
        let entry = entry.map_err(StoreError::io("list segment directory"))?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_seq) {
            out.push((seq, entry.path()));
        }
    }
    out.sort_by_key(|(seq, _)| *seq);
    Ok(out)
}

/// A sealed (no longer appended-to) segment, tracked in memory so
/// retirement decisions never re-read the file.
#[derive(Debug, Clone)]
pub struct SealedSegment {
    /// Sequence number (file name component).
    pub seq: u64,
    /// Full path of the segment file.
    pub path: PathBuf,
    /// On-disk length in bytes (header included).
    pub bytes: u64,
    /// LSN of the first record, or 0 when the segment holds no records.
    pub first_lsn: u64,
    /// LSN of the last *valid* record, or 0 when the segment holds none.
    /// A segment is retired once `last_lsn <= covered`.
    pub last_lsn: u64,
}

/// What scanning one segment found, produced by [`SegmentedWal::open`]
/// for the recovery pass.
#[derive(Debug)]
pub struct SegmentScan {
    /// Sequence number of the segment.
    pub seq: u64,
    /// Its valid records, and whether decoding stopped at a torn or
    /// corrupt one (`torn`). For the highest-numbered segment the tail
    /// has already been truncated; for sealed segments the caller must
    /// prove the hidden suffix is covered by a checkpoint (see
    /// [`Store::open`](crate::store::Store::open)).
    pub replay: Replay,
}

/// A write-ahead log split across length-capped segment files.
#[derive(Debug)]
pub struct SegmentedWal {
    dir: PathBuf,
    policy: SyncPolicy,
    max_segment_bytes: u64,
    sealed: Vec<SealedSegment>,
    active: Wal,
    active_seq: u64,
    /// LSN of the first record in the active segment, 0 while empty.
    active_first_lsn: u64,
}

impl SegmentedWal {
    /// Create a fresh segmented log in `dir`, deleting any existing
    /// segment files. The first segment is `wal-000001.log`.
    pub fn create(dir: &Path, policy: SyncPolicy, max_segment_bytes: u64) -> StoreResult<Self> {
        for (_, path) in list_segment_files(dir)? {
            fs::remove_file(&path).map_err(StoreError::io("remove stale segment"))?;
        }
        let active = Wal::create(dir.join(segment_file_name(1)), policy)?;
        Ok(SegmentedWal {
            dir: dir.to_path_buf(),
            policy,
            max_segment_bytes: max_segment_bytes.max(1),
            sealed: Vec::new(),
            active,
            active_seq: 1,
            active_first_lsn: 0,
        })
    }

    /// Open the segments already in `dir` (creating segment 1 if there
    /// are none). Returns the log positioned for appends after the last
    /// valid record, plus one [`SegmentScan`] per segment in sequence
    /// order for the caller's replay pass; records at or below `covered`
    /// are counted in it, not decoded.
    ///
    /// Only the highest-numbered segment is truncated on a torn tail;
    /// lower segments are reported as-is and the caller decides whether
    /// the tear is tolerable.
    pub fn open(
        dir: &Path,
        policy: SyncPolicy,
        max_segment_bytes: u64,
        covered: u64,
    ) -> StoreResult<(Self, Vec<SegmentScan>)> {
        let files = list_segment_files(dir)?;
        if files.is_empty() {
            return Ok((Self::create(dir, policy, max_segment_bytes)?, Vec::new()));
        }
        let mut scans = Vec::with_capacity(files.len());
        let mut sealed = Vec::new();
        let last_index = files.len() - 1;
        let mut active: Option<(Wal, u64, u64)> = None;
        let mut max_lsn = 0u64;
        for (i, (seq, path)) in files.iter().enumerate() {
            let (replay, wal) = if i == last_index {
                // Active segment: truncate a torn tail and keep the
                // handle for appends.
                let (wal, replay) = Wal::open_for_append(path, policy, covered)?;
                (replay, Some(wal))
            } else {
                (Wal::read_all(path, covered)?, None)
            };
            let (first_lsn, last_lsn) = (replay.first_lsn, replay.last_lsn);
            max_lsn = max_lsn.max(last_lsn);
            match wal {
                Some(wal) => active = Some((wal, *seq, first_lsn)),
                None => sealed.push(SealedSegment {
                    seq: *seq,
                    path: path.clone(),
                    bytes: fs::metadata(path)
                        .map_err(StoreError::io("stat segment"))?
                        .len(),
                    first_lsn,
                    last_lsn,
                }),
            }
            scans.push(SegmentScan { seq: *seq, replay });
        }
        let (mut wal, active_seq, active_first_lsn) =
            active.expect("non-empty file list yields an active segment");
        wal.bump_next_lsn(max_lsn + 1);
        Ok((
            SegmentedWal {
                dir: dir.to_path_buf(),
                policy,
                max_segment_bytes: max_segment_bytes.max(1),
                sealed,
                active: wal,
                active_seq,
                active_first_lsn,
            },
            scans,
        ))
    }

    /// Append one committed transaction, rolling to a new segment first
    /// when the active one has reached its length cap. Returns the LSN.
    pub fn append(&mut self, ops: &[DbOp]) -> StoreResult<u64> {
        if !self.active.is_empty() && self.active.len() >= self.max_segment_bytes {
            self.roll()?;
        }
        let lsn = self.active.append(ops)?;
        if self.active_first_lsn == 0 {
            self.active_first_lsn = lsn;
        }
        Ok(lsn)
    }

    /// Seal the active segment (fsyncing it so sealed segments are
    /// always complete on disk) and start a fresh one. No-op when the
    /// active segment holds no records.
    pub fn roll(&mut self) -> StoreResult<()> {
        if self.active.is_empty() {
            return Ok(());
        }
        self.active.sync()?;
        let next_seq = self.active_seq + 1;
        let next_lsn = self.active.next_lsn();
        let mut fresh = Wal::create(self.dir.join(segment_file_name(next_seq)), self.policy)?;
        fresh.bump_next_lsn(next_lsn);
        let old = std::mem::replace(&mut self.active, fresh);
        self.sealed.push(SealedSegment {
            seq: self.active_seq,
            path: old.path().to_path_buf(),
            bytes: old.len(),
            first_lsn: self.active_first_lsn,
            last_lsn: next_lsn - 1,
        });
        self.active_seq = next_seq;
        self.active_first_lsn = 0;
        counter_segments_created().add(1);
        Ok(())
    }

    /// Truncate the active segment back to its header (used when a base
    /// checkpoint covers everything, making even the active records
    /// stale). LSNs keep counting; sealed segments are untouched.
    pub fn reset_active(&mut self) -> StoreResult<()> {
        self.active.reset()?;
        self.active_first_lsn = 0;
        Ok(())
    }

    /// Delete sealed segments whose last record is `<= covered` (and
    /// record-less sealed segments, which can only arise from a crash
    /// between roll and first append). Returns `(files, bytes)` removed.
    pub fn delete_retired(&mut self, covered: u64) -> StoreResult<(u64, u64)> {
        let mut files = 0u64;
        let mut bytes = 0u64;
        let mut keep = Vec::with_capacity(self.sealed.len());
        for seg in self.sealed.drain(..) {
            if seg.last_lsn <= covered {
                fs::remove_file(&seg.path).map_err(StoreError::io("remove retired segment"))?;
                files += 1;
                bytes += seg.bytes;
            } else {
                keep.push(seg);
            }
        }
        self.sealed = keep;
        counter_segments_deleted().add(files);
        Ok((files, bytes))
    }

    /// Flush buffered bytes and fsync the active segment.
    pub fn sync(&mut self) -> StoreResult<()> {
        self.active.sync()
    }

    /// Flush buffered bytes without fsyncing.
    pub fn flush(&mut self) -> StoreResult<()> {
        self.active.flush()
    }

    /// The LSN the next append will receive.
    pub fn next_lsn(&self) -> u64 {
        self.active.next_lsn()
    }

    /// Number of segment files (sealed + active).
    pub fn segment_count(&self) -> u64 {
        self.sealed.len() as u64 + 1
    }

    /// Bytes in segments still holding records past `covered`: sealed
    /// segments not yet retired plus the active segment. This is the
    /// recovery-debt signal [`HealthPolicy`](vo_obs::health::HealthPolicy)
    /// grades, replacing the single-file `wal_len`.
    pub fn live_bytes(&self, covered: u64) -> u64 {
        let sealed: u64 = self
            .sealed
            .iter()
            .filter(|s| s.last_lsn > covered)
            .map(|s| s.bytes)
            .sum();
        sealed + self.active.len()
    }

    /// Sealed segments, oldest first.
    pub fn sealed(&self) -> &[SealedSegment] {
        &self.sealed
    }

    /// Sequence number of the active segment.
    pub fn active_seq(&self) -> u64 {
        self.active_seq
    }

    /// The group-commit policy shared by every segment.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Force the next append to use at least `at_least` as its LSN.
    pub(crate) fn bump_next_lsn(&mut self, at_least: u64) {
        self.active.bump_next_lsn(at_least);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vo_relational::prelude::*;

    fn op(n: i64) -> DbOp {
        // A Delete is the smallest op to fabricate; the segment layer
        // never interprets ops.
        DbOp::Delete {
            relation: "R".into(),
            key: Key::single(n),
        }
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(segment_file_name(7), "wal-000007.log");
        assert_eq!(parse_segment_seq("wal-000007.log"), Some(7));
        assert_eq!(parse_segment_seq("wal-1234567.log"), Some(1_234_567));
        assert_eq!(parse_segment_seq("wal.log"), None);
        assert_eq!(parse_segment_seq("wal-.log"), None);
        assert_eq!(parse_segment_seq("wal-00a.log"), None);
        assert_eq!(parse_segment_seq("base-000001.json"), None);
    }

    #[test]
    fn appends_roll_into_new_segments_with_global_lsns() {
        let dir = tempdir("seg-roll");
        let mut wal = SegmentedWal::create(&dir, SyncPolicy::Never, 64).unwrap();
        let mut lsns = Vec::new();
        for i in 0..20 {
            lsns.push(wal.append(&[op(i)]).unwrap());
        }
        wal.sync().unwrap();
        assert!(wal.segment_count() > 1, "64-byte cap must force rolls");
        assert_eq!(lsns, (1..=20).collect::<Vec<u64>>());
        // Reopen: same records, same order, appends continue the sequence.
        drop(wal);
        let (mut wal, scans) = SegmentedWal::open(&dir, SyncPolicy::Never, 64, 0).unwrap();
        let replayed: Vec<u64> = scans
            .iter()
            .flat_map(|s| s.replay.records.iter().map(|r| r.lsn))
            .collect();
        assert_eq!(replayed, lsns);
        assert!(scans.iter().all(|s| !s.replay.torn));
        assert_eq!(wal.append(&[op(99)]).unwrap(), 21);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn retirement_deletes_only_covered_sealed_segments() {
        let dir = tempdir("seg-retire");
        let mut wal = SegmentedWal::create(&dir, SyncPolicy::Never, 1).unwrap();
        for i in 0..4 {
            wal.append(&[op(i)]).unwrap();
        }
        wal.roll().unwrap();
        // Segments: several sealed (lsns 1..=4) + empty active.
        let before = wal.segment_count();
        assert!(before >= 4);
        // nothing covered: every segment's bytes are live
        let all = wal.live_bytes(0);
        let (files, bytes) = wal.delete_retired(2).unwrap();
        assert!(files >= 1 && bytes > 0);
        assert!(wal.sealed().iter().all(|s| s.last_lsn > 2));
        assert_eq!(wal.live_bytes(0), all - bytes);
        let (files2, bytes2) = wal.delete_retired(4).unwrap();
        assert!(files2 >= 1);
        assert_eq!(wal.sealed().len(), 0);
        assert_eq!(wal.segment_count(), 1);
        assert_eq!(wal.live_bytes(0), all - bytes - bytes2);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "vo-segment-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
