//! The write-ahead log: length-prefixed, CRC-checksummed commit records.
//!
//! ## File format
//!
//! ```text
//! ┌──────────────────────────── wal.log ────────────────────────────┐
//! │ magic "VOWAL001" (8 bytes)                                      │
//! │ record 0: [len: u32 LE][crc32(payload): u32 LE][payload: len B] │
//! │ record 1: [len][crc][payload]                                   │
//! │ …                                                               │
//! └─────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Each payload is the compact JSON of one [`CommitRecord`] — the
//! translated base-table ops of one committed transaction plus its log
//! sequence number (LSN). One transaction (a whole `apply_batch`) is one
//! record, framed by the same [`DbOp`] codec the snapshot layer uses.
//!
//! ## Torn tails
//!
//! A crash mid-write leaves a torn final record: a short header, a short
//! payload, or a payload whose CRC does not match. [`Wal::read_all`]
//! stops at the first such record and reports the byte offset of the last
//! good one; [`Wal::open_for_append`] then truncates the file there
//! (*truncate-at-corruption*), so a torn record is dropped, never
//! partially replayed. Durability is exactly the synced prefix — the
//! contract every WAL offers.
//!
//! A record whose length and CRC check out but whose payload does not
//! decode is *not* torn — all of it reached the disk. That is
//! [`StoreError::Corrupt`], naming the file and byte offset; the file is
//! left untouched.
//!
//! ## Covered records
//!
//! A scan is told the LSN the caller's checkpoints already cover. A
//! record at or below it is framed, checksummed and counted, but only its
//! leading `lsn` is read: its ops would be decoded to be dropped, so what
//! recovery decodes follows what it replays, not what the log holds.
//!
//! ## Group commit
//!
//! Appends land in an in-memory buffer first. [`SyncPolicy`] decides when
//! the buffer reaches the disk: `Always` writes **and** fsyncs on every
//! commit, `EveryN(n)` groups up to `n` commits into one write+fsync
//! (losing at most the last `n − 1` commits on a crash), `Never` hands
//! bytes to the OS on every commit but leaves syncing to the kernel
//! (surviving process crashes, not power loss).

use crate::crc32::crc32;
use crate::error::{StoreError, StoreResult};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use vo_obs::metrics::{self, Counter};
use vo_obs::trace;
use vo_relational::database::DbOp;
use vo_relational::json::{decode, json_struct, Json, JsonCodec, Reader};

/// Magic bytes opening every WAL file (name + format version).
pub const MAGIC: &[u8; 8] = b"VOWAL001";

fn bytes_appended() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("store.wal.bytes_appended"))
}

fn records_appended() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("store.wal.records_appended"))
}

fn fsyncs() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("store.wal.fsyncs"))
}

fn torn_tails() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("store.torn_tails_truncated"))
}

/// When appended records are flushed and fsynced to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Write and fsync on every commit: nothing committed is ever lost.
    #[default]
    Always,
    /// Group commit: write+fsync once per `n` commits. Up to the last
    /// `n − 1` commits may be lost on a crash. `EveryN(1)` ≡ `Always`.
    EveryN(u32),
    /// Write on every commit but never fsync: the OS page cache decides.
    /// Survives process crashes; an OS crash or power loss may lose the
    /// unsynced suffix.
    Never,
}

impl SyncPolicy {
    /// Short label for bench output and logs.
    pub fn label(&self) -> String {
        match self {
            SyncPolicy::Always => "always".to_owned(),
            SyncPolicy::EveryN(n) => format!("every{n}"),
            SyncPolicy::Never => "never".to_owned(),
        }
    }
}

/// One committed transaction as framed in the log.
#[derive(Debug, Clone, PartialEq)]
pub struct CommitRecord {
    /// Log sequence number, strictly increasing across the store's life
    /// (checkpoints do not reset it).
    pub lsn: u64,
    /// The transaction's base-table operations, in application order.
    pub ops: Vec<DbOp>,
}

// The record payload.
json_struct!(CommitRecord { lsn, ops }, StoreError);

/// Largest payload the 4-byte length prefix can frame.
pub const MAX_RECORD_PAYLOAD: usize = u32::MAX as usize;

/// Validate that a payload fits the u32 length prefix. A silent `as u32`
/// cast here would write a wrapped length header — a record the reader
/// could misparse as valid framing for garbage bytes.
fn framed_len(payload_len: usize) -> StoreResult<u32> {
    u32::try_from(payload_len).map_err(|_| StoreError::RecordTooLarge {
        bytes: payload_len as u64,
        max: MAX_RECORD_PAYLOAD as u64,
    })
}

fn encode_record(rec: &CommitRecord) -> StoreResult<Vec<u8>> {
    let payload = rec.to_json().compact().into_bytes();
    let len = framed_len(payload.len())?;
    let mut out = Vec::with_capacity(payload.len() + 8);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    Ok(out)
}

/// The LSN a payload opens with, where [`CommitRecord`]'s encoder puts
/// it; `None` for any other payload, which only a full decode can judge.
fn leading_lsn(payload: &str) -> Option<u64> {
    let mut r = Reader::new(payload);
    r.begin_object().ok()?;
    if r.next_key().ok()?? != "lsn" {
        return None;
    }
    let lsn = r.u64().ok()?;
    // a number ends where the next entry begins, not where the payload stops
    r.next_key().ok().map(|_| lsn)
}

/// The outcome of scanning a log file.
#[derive(Debug, Default)]
pub struct Replay {
    /// Every intact record past the covered LSN, in log order.
    pub records: Vec<CommitRecord>,
    /// Intact records at or below the covered LSN: passed over undecoded.
    pub skipped: u64,
    /// LSN of the first intact record, covered or not (0 = the log holds
    /// none).
    pub first_lsn: u64,
    /// LSN of the last intact record, covered or not (0 = none).
    pub last_lsn: u64,
    /// Byte offset just past the last intact record — where a torn tail
    /// must be truncated.
    pub valid_len: u64,
    /// True when bytes past `valid_len` exist but do not form an intact
    /// record (crash mid-append or corruption).
    pub torn: bool,
}

/// An open write-ahead log.
#[derive(Debug)]
pub struct Wal {
    file: File,
    path: PathBuf,
    policy: SyncPolicy,
    /// Encoded records not yet handed to the OS (group-commit buffer).
    buf: Vec<u8>,
    /// Commits appended (written or buffered) since the last fsync.
    unsynced: u32,
    /// LSN the next append will take.
    next_lsn: u64,
    /// Bytes handed to the OS so far (the file's logical length).
    written_len: u64,
}

impl Wal {
    /// Create a fresh, empty log at `path` (truncating any existing file)
    /// and durably write the magic header.
    pub fn create(path: impl Into<PathBuf>, policy: SyncPolicy) -> StoreResult<Wal> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(StoreError::io("create wal file"))?;
        file.write_all(MAGIC)
            .map_err(StoreError::io("write wal magic"))?;
        file.sync_data().map_err(StoreError::io("sync wal magic"))?;
        Ok(Wal {
            file,
            path,
            policy,
            buf: Vec::new(),
            unsynced: 0,
            next_lsn: 1,
            written_len: MAGIC.len() as u64,
        })
    }

    /// Scan the log at `path` without opening it for writing: every intact
    /// record past `covered` decoded, the rest counted, plus where (and
    /// whether) a torn tail begins. A missing or empty file reads as an
    /// empty log; a present file with the wrong magic, or a checksum-valid
    /// record that does not decode, is an error, not a torn tail.
    pub fn read_all(path: impl AsRef<Path>, covered: u64) -> StoreResult<Replay> {
        let path = path.as_ref();
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(StoreError::io("read wal file")(e)),
        };
        let mut replay = Replay::default();
        if bytes.len() < MAGIC.len() {
            // empty, or a crash before the header write completed
            replay.torn = !bytes.is_empty();
            return Ok(replay);
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(StoreError::Corrupt(format!(
                "{} does not start with the WAL magic",
                path.display()
            )));
        }
        let mut off = MAGIC.len();
        while off < bytes.len() {
            // A short header, a short payload or a checksum mismatch means
            // the append never completed. So does a zero length: no record
            // is empty, and it is what a tail of unwritten (zero-filled)
            // blocks reads as — with a checksum that happens to match.
            let framed = (|| {
                let header = bytes.get(off..off + 8)?;
                let len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
                let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
                let payload = bytes.get(off + 8..off + 8 + len)?;
                (len > 0 && crc32(payload) == crc).then_some(payload)
            })();
            let Some(payload) = framed else {
                replay.torn = true;
                break;
            };
            // The whole payload reached the disk, so a record that does not
            // decode is not a torn write. Truncating here would silently
            // drop it and every acknowledged commit after it.
            let (lsn, live) = std::str::from_utf8(payload)
                .map_err(|e| e.to_string())
                .and_then(|text| {
                    if let Some(lsn) = leading_lsn(text).filter(|&lsn| lsn <= covered) {
                        return Ok((lsn, None));
                    }
                    let rec = decode::<CommitRecord>(text).map_err(|e| e.to_string())?;
                    Ok((rec.lsn, Some(rec)))
                })
                .map_err(|why| {
                    StoreError::Corrupt(format!(
                        "{}: the record at byte {off} passes its checksum but does not decode ({why})",
                        path.display()
                    ))
                })?;
            match live.filter(|rec| rec.lsn > covered) {
                Some(rec) => replay.records.push(rec),
                None => replay.skipped += 1,
            }
            if replay.first_lsn == 0 {
                replay.first_lsn = lsn;
            }
            replay.last_lsn = lsn;
            off += 8 + payload.len();
        }
        replay.valid_len = off as u64;
        Ok(replay)
    }

    /// Open the log at `path` for appending, first scanning it (see
    /// [`Wal::read_all`] for `covered`) and truncating any torn tail.
    /// Returns the opened log plus the replay of its intact records. A
    /// missing file is created fresh.
    pub fn open_for_append(
        path: impl Into<PathBuf>,
        policy: SyncPolicy,
        covered: u64,
    ) -> StoreResult<(Wal, Replay)> {
        let path = path.into();
        let replay = Self::read_all(&path, covered)?;
        if replay.valid_len < MAGIC.len() as u64 {
            // empty, missing, or torn before the header finished: restart
            let wal = Wal::create(path, policy)?;
            if replay.torn {
                torn_tails().inc();
            }
            return Ok((wal, replay));
        }
        if replay.torn {
            let f = OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(StoreError::io("open wal for truncation"))?;
            f.set_len(replay.valid_len)
                .map_err(StoreError::io("truncate torn wal tail"))?;
            f.sync_data()
                .map_err(StoreError::io("sync truncated wal"))?;
            torn_tails().inc();
        }
        let file = OpenOptions::new()
            .append(true)
            .open(&path)
            .map_err(StoreError::io("open wal for append"))?;
        let next_lsn = replay.last_lsn + 1;
        Ok((
            Wal {
                file,
                path,
                policy,
                buf: Vec::new(),
                unsynced: 0,
                next_lsn,
                written_len: replay.valid_len,
            },
            replay,
        ))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The sync policy in force.
    pub fn policy(&self) -> SyncPolicy {
        self.policy
    }

    /// The LSN the next append will be assigned.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Ensure the next LSN is at least `at_least` (used after recovery so
    /// LSNs stay monotonic past a checkpoint that outlived its log).
    pub(crate) fn bump_next_lsn(&mut self, at_least: u64) {
        self.next_lsn = self.next_lsn.max(at_least);
    }

    /// Logical log size in bytes: what the file will hold once the
    /// group-commit buffer is flushed.
    pub fn len(&self) -> u64 {
        self.written_len + self.buf.len() as u64
    }

    /// True when the log holds no records (header only) and nothing is
    /// buffered.
    pub fn is_empty(&self) -> bool {
        self.len() <= MAGIC.len() as u64
    }

    /// Append one committed transaction, returning its LSN. Flush and
    /// fsync behavior follows the [`SyncPolicy`].
    pub fn append(&mut self, ops: &[DbOp]) -> StoreResult<u64> {
        let lsn = self.next_lsn;
        let mut sp = trace::span("wal.append");
        let rec = CommitRecord {
            lsn,
            ops: ops.to_vec(),
        };
        let bytes = encode_record(&rec)?;
        if sp.is_recording() {
            sp.field("lsn", Json::Int(lsn as i64));
            sp.field("ops", Json::Int(ops.len() as i64));
            sp.field("bytes", Json::Int(bytes.len() as i64));
        }
        bytes_appended().add(bytes.len() as u64);
        records_appended().inc();
        self.buf.extend_from_slice(&bytes);
        self.next_lsn += 1;
        self.unsynced += 1;
        match self.policy {
            SyncPolicy::Always => self.sync()?,
            SyncPolicy::EveryN(n) => {
                if self.unsynced >= n.max(1) {
                    self.sync()?;
                }
            }
            SyncPolicy::Never => self.flush()?,
        }
        Ok(lsn)
    }

    /// Hand every buffered record to the OS without fsyncing.
    pub fn flush(&mut self) -> StoreResult<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.file
            .write_all(&self.buf)
            .map_err(StoreError::io("append wal records"))?;
        self.written_len += self.buf.len() as u64;
        self.buf.clear();
        Ok(())
    }

    /// Flush buffered records and fsync the file — the durability point.
    pub fn sync(&mut self) -> StoreResult<()> {
        self.flush()?;
        if self.unsynced == 0 {
            return Ok(());
        }
        let mut sp = trace::span("wal.fsync");
        if sp.is_recording() {
            sp.field("commits", Json::Int(self.unsynced as i64));
        }
        self.file.sync_data().map_err(StoreError::io("fsync wal"))?;
        fsyncs().inc();
        self.unsynced = 0;
        Ok(())
    }

    /// Drop every record: truncate back to the magic header (after a
    /// checkpoint made them redundant). Buffered-but-unwritten records are
    /// discarded too — the checkpoint that triggered the reset captured
    /// their effects. The LSN counter is *not* reset.
    pub fn reset(&mut self) -> StoreResult<()> {
        self.buf.clear();
        self.unsynced = 0;
        self.file
            .set_len(MAGIC.len() as u64)
            .map_err(StoreError::io("truncate wal after checkpoint"))?;
        // set_len leaves the cursor past the new end; rewind so the next
        // write lands at the header instead of leaving a zero-filled hole
        // (files opened in append mode ignore the cursor, files opened by
        // `create` do not)
        self.file
            .seek(SeekFrom::Start(MAGIC.len() as u64))
            .map_err(StoreError::io("rewind wal after truncation"))?;
        self.file
            .sync_data()
            .map_err(StoreError::io("sync truncated wal"))?;
        self.written_len = MAGIC.len() as u64;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vo_relational::tuple::{Key, Tuple};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("vo_store_wal_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn sample_ops(i: i64) -> Vec<DbOp> {
        vec![
            DbOp::Insert {
                relation: "T".into(),
                tuple: Tuple::raw(vec![i.into(), "x".into()]),
            },
            DbOp::Delete {
                relation: "T".into(),
                key: Key::single(i - 1),
            },
        ]
    }

    #[test]
    fn append_and_replay_roundtrip() {
        let path = tmp("roundtrip.log");
        let mut wal = Wal::create(&path, SyncPolicy::Always).unwrap();
        for i in 0..5 {
            let lsn = wal.append(&sample_ops(i)).unwrap();
            assert_eq!(lsn, (i + 1) as u64);
        }
        let replay = Wal::read_all(&path, 0).unwrap();
        assert!(!replay.torn);
        assert_eq!(replay.records.len(), 5);
        assert_eq!(replay.records[2].lsn, 3);
        assert_eq!(replay.records[2].ops, sample_ops(2));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_detected_and_cut() {
        let path = tmp("torn.log");
        let mut wal = Wal::create(&path, SyncPolicy::Always).unwrap();
        for i in 0..3 {
            wal.append(&sample_ops(i)).unwrap();
        }
        let good_two = {
            let replay = Wal::read_all(&path, 0).unwrap();
            // chop the final record mid-payload
            let full = std::fs::metadata(&path).unwrap().len();
            let f = OpenOptions::new().write(true).open(&path).unwrap();
            f.set_len(full - 5).unwrap();
            let mut end_of_two = MAGIC.len() as u64;
            for rec in &replay.records[..2] {
                end_of_two += 8 + rec.to_json().compact().len() as u64;
            }
            end_of_two
        };
        let replay = Wal::read_all(&path, 0).unwrap();
        assert!(replay.torn);
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.valid_len, good_two);
        // reopening truncates and appends after the good prefix
        let (mut wal, replay) = Wal::open_for_append(&path, SyncPolicy::Always, 0).unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_two);
        assert_eq!(wal.next_lsn(), 3);
        wal.append(&sample_ops(9)).unwrap();
        let replay = Wal::read_all(&path, 0).unwrap();
        assert!(!replay.torn);
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.records[2].lsn, 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_invalidates_the_suffix() {
        let path = tmp("flip.log");
        let mut wal = Wal::create(&path, SyncPolicy::Always).unwrap();
        let mut off_before_last = 0;
        for i in 0..4 {
            off_before_last = std::fs::metadata(&path).unwrap().len();
            wal.append(&sample_ops(i)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        // flip one bit inside the last record's payload
        let target = off_before_last as usize + 12;
        bytes[target] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let replay = Wal::read_all(&path, 0).unwrap();
        assert!(replay.torn);
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.valid_len, off_before_last);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn group_commit_buffers_until_the_nth_append() {
        let path = tmp("group.log");
        let mut wal = Wal::create(&path, SyncPolicy::EveryN(3)).unwrap();
        wal.append(&sample_ops(0)).unwrap();
        wal.append(&sample_ops(1)).unwrap();
        // nothing on disk yet: both commits sit in the buffer
        assert_eq!(Wal::read_all(&path, 0).unwrap().records.len(), 0);
        wal.append(&sample_ops(2)).unwrap();
        // third append crossed the threshold: all three written + synced
        assert_eq!(Wal::read_all(&path, 0).unwrap().records.len(), 3);
        wal.append(&sample_ops(3)).unwrap();
        assert_eq!(Wal::read_all(&path, 0).unwrap().records.len(), 3);
        // dropping the wal without sync loses the buffered fourth commit —
        // exactly the documented EveryN trade-off
        drop(wal);
        assert_eq!(Wal::read_all(&path, 0).unwrap().records.len(), 3);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn never_policy_still_writes_through_to_the_os() {
        let path = tmp("never.log");
        let mut wal = Wal::create(&path, SyncPolicy::Never).unwrap();
        wal.append(&sample_ops(0)).unwrap();
        drop(wal);
        // no fsync ever happened, but the bytes reached the file
        assert_eq!(Wal::read_all(&path, 0).unwrap().records.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reset_truncates_but_keeps_lsn_monotonic() {
        let path = tmp("reset.log");
        let mut wal = Wal::create(&path, SyncPolicy::Always).unwrap();
        for i in 0..3 {
            wal.append(&sample_ops(i)).unwrap();
        }
        wal.reset().unwrap();
        assert!(wal.is_empty());
        assert_eq!(wal.next_lsn(), 4);
        let lsn = wal.append(&sample_ops(7)).unwrap();
        assert_eq!(lsn, 4);
        let replay = Wal::read_all(&path, 0).unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.records[0].lsn, 4);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn oversized_payload_is_rejected_not_truncated() {
        // The guard is on the computed length, so no 4 GiB buffer is
        // allocated: fabricate lengths right at the boundary.
        assert_eq!(framed_len(MAX_RECORD_PAYLOAD).unwrap(), u32::MAX);
        let err = framed_len(MAX_RECORD_PAYLOAD + 1).unwrap_err();
        assert!(matches!(
            err,
            StoreError::RecordTooLarge {
                bytes,
                max,
            } if bytes == MAX_RECORD_PAYLOAD as u64 + 1 && max == u32::MAX as u64
        ));
        // the error collapses into the relational Storage variant at the
        // facade boundary
        let rel: vo_relational::error::Error = err.into();
        assert!(matches!(
            rel,
            vo_relational::error::Error::Storage(ref m) if m.contains("frame limit")
        ));
    }

    #[test]
    fn fabricated_huge_length_header_reads_as_torn_tail() {
        // A header claiming a u32::MAX payload over a tiny file must read
        // as a torn tail — no allocation of the claimed length, no panic.
        let path = tmp("hugelen.log");
        let mut wal = Wal::create(&path, SyncPolicy::Always).unwrap();
        wal.append(&sample_ops(0)).unwrap();
        let good_len = std::fs::metadata(&path).unwrap().len();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes()); // fabricated len
        bytes.extend_from_slice(&0u32.to_le_bytes()); // bogus crc
        bytes.extend_from_slice(b"tiny"); // 4 bytes, not 4 GiB
        std::fs::write(&path, &bytes).unwrap();
        let replay = Wal::read_all(&path, 0).unwrap();
        assert!(replay.torn);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.valid_len, good_len);
        // reopening truncates the fabricated tail and stays usable
        let (mut wal, _) = Wal::open_for_append(&path, SyncPolicy::Always, 0).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), good_len);
        wal.append(&sample_ops(1)).unwrap();
        assert_eq!(Wal::read_all(&path, 0).unwrap().records.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checksum_valid_undecodable_record_is_corruption_not_a_torn_tail() {
        let path = tmp("garbage.log");
        let mut wal = Wal::create(&path, SyncPolicy::Always).unwrap();
        wal.append(&sample_ops(0)).unwrap();
        drop(wal);
        let good_len = std::fs::metadata(&path).unwrap().len();
        let mut bytes = std::fs::read(&path).unwrap();
        let payload = br#"{"lsn":"x"}"#;
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        std::fs::write(&path, &bytes).unwrap();
        for result in [
            Wal::read_all(&path, 0).map(|_| ()),
            Wal::open_for_append(&path, SyncPolicy::Always, 0).map(|_| ()),
        ] {
            match result {
                Err(StoreError::Corrupt(m)) => {
                    assert!(m.contains("garbage.log"), "{m}");
                    assert!(m.contains(&format!("byte {good_len}")), "{m}");
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
        // nothing was truncated: the evidence is still there
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn covered_records_are_counted_not_decoded() {
        let path = tmp("covered.log");
        let mut wal = Wal::create(&path, SyncPolicy::Always).unwrap();
        for i in 0..5 {
            wal.append(&sample_ops(i)).unwrap();
        }
        drop(wal);
        let replay = Wal::read_all(&path, 3).unwrap();
        assert_eq!((replay.skipped, replay.records.len()), (3, 2));
        assert_eq!((replay.first_lsn, replay.last_lsn), (1, 5));
        assert_eq!(replay.records[0].lsn, 4);
        assert_eq!(replay.records[1].ops, sample_ops(4));
        // the same scan with nothing covered is what it always was
        let all = Wal::read_all(&path, 0).unwrap();
        assert_eq!((all.skipped, all.records.len()), (0, 5));
        assert_eq!(all.valid_len, replay.valid_len);

        // A checksum-valid record whose ops do not decode: passed over
        // while covered, corruption as soon as it would be replayed. One
        // whose `lsn` does not lead is decoded in full either way.
        let mut bytes = std::fs::read(&path).unwrap();
        let bad_at = bytes.len();
        for payload in [
            &br#"{"lsn":6,"ops":"gone"}"#[..],
            &br#"{"ops":[],"lsn":7}"#[..],
        ] {
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&crc32(payload).to_le_bytes());
            bytes.extend_from_slice(payload);
        }
        std::fs::write(&path, &bytes).unwrap();
        let replay = Wal::read_all(&path, 7).unwrap();
        assert_eq!((replay.skipped, replay.records.len()), (7, 0));
        assert_eq!(replay.last_lsn, 7);
        let replay = Wal::read_all(&path, 6).unwrap();
        assert_eq!((replay.skipped, replay.records.len()), (6, 1));
        assert_eq!(replay.records[0].lsn, 7);
        match Wal::read_all(&path, 5) {
            Err(StoreError::Corrupt(m)) => assert!(m.contains(&format!("byte {bad_at}")), "{m}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn zero_filled_tail_reads_as_torn_tail() {
        // Blocks allocated but never written read as zeros after a crash:
        // length 0, checksum 0 — which *is* the CRC of an empty payload.
        let path = tmp("zeros.log");
        let mut wal = Wal::create(&path, SyncPolicy::Always).unwrap();
        wal.append(&sample_ops(0)).unwrap();
        drop(wal);
        let good_len = std::fs::metadata(&path).unwrap().len();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0u8; 64]);
        std::fs::write(&path, &bytes).unwrap();
        let replay = Wal::read_all(&path, 0).unwrap();
        assert!(replay.torn);
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.valid_len, good_len);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_is_corruption_not_a_torn_tail() {
        let path = tmp("magic.log");
        std::fs::write(&path, b"NOTAWAL0rest").unwrap();
        assert!(matches!(
            Wal::read_all(&path, 0),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }
}
