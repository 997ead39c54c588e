//! Checkpoint artifacts: periodic full **bases** plus chained
//! incremental **deltas**.
//!
//! - [`BaseCheckpoint`] (`base-<id>.json`) — a full
//!   [`DatabaseSnapshot`] plus the artifact id that chains deltas to it.
//! - [`DeltaCheckpoint`] (`delta-<id>.json`) — the *net* tuple upserts
//!   and deletes since the previous artifact (a [`SnapshotDelta`] folded
//!   from the committed ops), pointing at its base and parent by id.
//!
//! Recovery loads the newest base, applies its delta chain in parent
//! order, then replays live WAL segments past the covered LSN. A delta
//! that fails its checksum breaks the chain *gracefully*: recovery falls
//! back to replaying segments from the last good artifact, which is why
//! segments are only deleted once a **base** covers them.
//!
//! Every artifact file is `"<crc32 hex>\n<compact json>"` written
//! tmp-then-rename. The checksum line detects bit flips at rest — a
//! corrupt JSON parse error alone cannot distinguish a half-written
//! file from a flipped bit inside a string literal.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::crc32::crc32;
use crate::error::{StoreError, StoreResult};
use vo_relational::json::{decode, json_struct, Json, JsonCodec, Reader};
use vo_relational::storage::{DatabaseSnapshot, SnapshotDelta};

/// File name prefix for base checkpoints (`base-000001.json`).
pub const BASE_PREFIX: &str = "base-";
/// File name prefix for delta checkpoints (`delta-000002.json`).
pub const DELTA_PREFIX: &str = "delta-";
/// Shared artifact suffix.
pub const ARTIFACT_SUFFIX: &str = ".json";

/// File name for an artifact with the given prefix and id.
pub fn artifact_file_name(prefix: &str, id: u64) -> String {
    format!("{prefix}{id:06}{ARTIFACT_SUFFIX}")
}

/// Parse an artifact id out of a file name for the given prefix
/// (`base-` or `delta-`); `None` when the name does not match.
pub fn parse_artifact_id(name: &str, prefix: &str) -> Option<u64> {
    let stem = name.strip_prefix(prefix)?.strip_suffix(ARTIFACT_SUFFIX)?;
    if stem.is_empty() || !stem.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    stem.parse().ok()
}

/// List artifact ids with the given prefix in `dir`, sorted ascending.
pub fn list_artifact_ids(dir: &Path, prefix: &str) -> StoreResult<Vec<u64>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(StoreError::io("list checkpoint artifacts")(e)),
    };
    for entry in entries {
        let entry = entry.map_err(StoreError::io("list checkpoint artifacts"))?;
        if let Some(id) = entry
            .file_name()
            .to_str()
            .and_then(|n| parse_artifact_id(n, prefix))
        {
            out.push(id);
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// Atomically write an artifact: prepend the CRC-32 line, write to a
/// `.tmp` sibling, fsync, rename into place, best-effort fsync the
/// directory. Returns the bytes written.
pub fn write_artifact(dir: &Path, name: &str, body: &str) -> StoreResult<u64> {
    let live = dir.join(name);
    let tmp = dir.join(format!("{name}.tmp"));
    let text = format!("{:08x}\n{body}", crc32(body.as_bytes()));
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&tmp)
        .map_err(StoreError::io("create artifact tmp"))?;
    f.write_all(text.as_bytes())
        .map_err(StoreError::io("write artifact"))?;
    f.sync_data().map_err(StoreError::io("fsync artifact"))?;
    drop(f);
    std::fs::rename(&tmp, &live).map_err(StoreError::io("rename artifact"))?;
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_data();
    }
    Ok(text.len() as u64)
}

/// Read an artifact, verify its checksum line and decode its body
/// straight from the file's text — one buffer, no document tree. A
/// missing newline, bad hex or CRC disagreement is [`StoreError::Corrupt`],
/// and so is a body that is not JSON.
pub fn read_artifact<T>(path: &Path) -> StoreResult<T>
where
    T: JsonCodec<Error = StoreError>,
{
    let text = std::fs::read_to_string(path).map_err(StoreError::io("read artifact"))?;
    let (crc_line, body) = text.split_once('\n').ok_or_else(|| {
        StoreError::Corrupt(format!("artifact {} has no checksum line", path.display()))
    })?;
    let expected = u32::from_str_radix(crc_line.trim(), 16).map_err(|_| {
        StoreError::Corrupt(format!(
            "artifact {} has a malformed checksum",
            path.display()
        ))
    })?;
    let actual = crc32(body.as_bytes());
    if actual != expected {
        return Err(StoreError::Corrupt(format!(
            "artifact {} checksum mismatch (expected {expected:08x}, computed {actual:08x})",
            path.display()
        )));
    }
    decode(body)
}

/// A full database image pinned to a log position, heading a delta chain.
#[derive(Debug, Clone, PartialEq)]
pub struct BaseCheckpoint {
    /// Artifact id; deltas reference it via `base_id`. Ids are monotonic
    /// across bases *and* deltas.
    pub id: u64,
    /// LSN of the last committed transaction the snapshot includes.
    pub lsn: u64,
    /// Structure epoch of the captured database (drift detector).
    pub epoch: u64,
    /// The full image, secondary indexes included.
    pub snapshot: DatabaseSnapshot,
}

impl BaseCheckpoint {
    /// The artifact's file name.
    pub fn file_name(id: u64) -> String {
        artifact_file_name(BASE_PREFIX, id)
    }

    /// The document shape around a caller-supplied `snapshot` value.
    fn doc(&self, snapshot: Json) -> Json {
        Json::obj(vec![
            ("id", self.id.to_json()),
            ("lsn", self.lsn.to_json()),
            ("epoch", self.epoch.to_json()),
            ("snapshot", snapshot),
        ])
    }

    /// Atomically persist into `dir`, encoding the snapshot with up to
    /// `workers` parallel workers (byte-identical at any worker count).
    /// Returns bytes written.
    pub fn write(&self, dir: &Path, workers: usize) -> StoreResult<u64> {
        let mut body = String::new();
        self.doc(Json::Null)
            .write_compact_with(&mut body, "snapshot", |out| {
                out.push_str(&self.snapshot.encode_compact(workers))
            });
        write_artifact(dir, &Self::file_name(self.id), &body)
    }

    /// Load `base-<id>.json` from `dir`, its rows decoded one at a time
    /// off the file's text. Checksum or decode failure is a hard error —
    /// a base cannot be skipped, the data it held is gone.
    pub fn load(dir: &Path, id: u64) -> StoreResult<BaseCheckpoint> {
        read_artifact(&dir.join(Self::file_name(id)))
    }
}

/// [`BaseCheckpoint::write`] splices the snapshot into this shape rather
/// than build its tree; the decoders are the field list.
impl JsonCodec for BaseCheckpoint {
    type Error = StoreError;

    fn to_json(&self) -> Json {
        self.doc(self.snapshot.to_json())
    }

    fn from_json(json: &Json) -> StoreResult<Self> {
        Ok(json_struct!(@from json, BaseCheckpoint { id, lsn, epoch, snapshot }))
    }

    fn read_json(r: &mut Reader<'_>) -> StoreResult<Self> {
        Ok(json_struct!(@read r, BaseCheckpoint { id, lsn, epoch, snapshot }))
    }
}

/// Net changes since the previous artifact, chained by id.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaCheckpoint {
    /// This artifact's id.
    pub id: u64,
    /// The base this delta (transitively) extends. Deltas referencing a
    /// base other than the newest are ignored by recovery — they are
    /// leftovers of an interrupted compaction.
    pub base_id: u64,
    /// The artifact immediately before this one (the base id for the
    /// first delta in a chain).
    pub parent_id: u64,
    /// LSN of the last committed transaction the delta includes.
    pub lsn: u64,
    /// Structure epoch at capture time.
    pub epoch: u64,
    /// The folded net changes.
    pub delta: SnapshotDelta,
}

impl DeltaCheckpoint {
    /// The artifact's file name.
    pub fn file_name(id: u64) -> String {
        artifact_file_name(DELTA_PREFIX, id)
    }

    /// Atomically persist into `dir`. Returns bytes written.
    pub fn write(&self, dir: &Path) -> StoreResult<u64> {
        write_artifact(dir, &Self::file_name(self.id), &self.to_json().compact())
    }

    /// Load `delta-<id>.json` from `dir`. Checksum or decode failure is
    /// [`StoreError::Corrupt`]; callers treat it as a broken chain, not
    /// a fatal store error.
    pub fn load(dir: &Path, id: u64) -> StoreResult<DeltaCheckpoint> {
        read_artifact(&dir.join(Self::file_name(id)))
    }

    /// Full path of `delta-<id>.json` inside `dir` (tests, compaction).
    pub fn path_in(dir: &Path, id: u64) -> PathBuf {
        dir.join(Self::file_name(id))
    }
}

json_struct!(
    DeltaCheckpoint {
        id,
        base_id as "base",
        parent_id as "parent",
        lsn,
        epoch,
        delta,
    },
    StoreError
);

/// Full path of `base-<id>.json` inside `dir` (tests, compaction).
pub fn base_path_in(dir: &Path, id: u64) -> PathBuf {
    dir.join(BaseCheckpoint::file_name(id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use vo_relational::prelude::*;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.create_relation(
            RelationSchema::new(
                "T",
                vec![
                    AttributeDef::required("k", DataType::Int),
                    AttributeDef::nullable("v", DataType::Text),
                ],
                &["k"],
            )
            .unwrap(),
        )
        .unwrap();
        for i in 0..10 {
            db.insert("T", vec![i.into(), format!("v{i}").into()])
                .unwrap();
        }
        db
    }

    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("vo_store_delta_{}_{name}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn artifact_names_round_trip() {
        assert_eq!(artifact_file_name(BASE_PREFIX, 3), "base-000003.json");
        assert_eq!(parse_artifact_id("base-000003.json", BASE_PREFIX), Some(3));
        assert_eq!(
            parse_artifact_id("delta-000042.json", DELTA_PREFIX),
            Some(42)
        );
        assert_eq!(parse_artifact_id("base-000003.json", DELTA_PREFIX), None);
        assert_eq!(parse_artifact_id("base-000003.json.tmp", BASE_PREFIX), None);
        assert_eq!(parse_artifact_id("checkpoint.json", BASE_PREFIX), None);
    }

    #[test]
    fn base_round_trips_and_workers_are_byte_invariant() {
        let dir = tmp_dir("base");
        let db = sample_db();
        let base = BaseCheckpoint {
            id: 1,
            lsn: 12,
            epoch: db.structure_epoch(),
            snapshot: DatabaseSnapshot::capture_full(&db),
        };
        let n1 = base.write(&dir, 1).unwrap();
        let one = std::fs::read(base_path_in(&dir, 1)).unwrap();
        let n4 = base.write(&dir, 4).unwrap();
        let four = std::fs::read(base_path_in(&dir, 1)).unwrap();
        assert_eq!(one, four, "artifact bytes must not depend on worker count");
        assert_eq!(n1, n4);
        let loaded = BaseCheckpoint::load(&dir, 1).unwrap();
        assert_eq!(loaded, base);
        vo_relational::json::assert_roundtrip(&base);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_inside_an_artifact_is_detected() {
        let dir = tmp_dir("flip");
        let db = sample_db();
        let base = BaseCheckpoint {
            id: 1,
            lsn: 1,
            epoch: 0,
            snapshot: DatabaseSnapshot::capture_full(&db),
        };
        base.write(&dir, 1).unwrap();
        let path = base_path_in(&dir, 1);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit inside a row value: still valid JSON, but the
        // checksum line catches it.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            BaseCheckpoint::load(&dir, 1),
            Err(StoreError::Corrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_round_trips_and_lists() {
        let dir = tmp_dir("delta");
        let mut db = sample_db();
        let mut folded = Delta::default();
        let ops = vec![
            DbOp::Insert {
                relation: "T".into(),
                tuple: Tuple::raw(vec![99.into(), "x".into()]),
            },
            DbOp::Delete {
                relation: "T".into(),
                key: Key::single(0i64),
            },
        ];
        for op in &ops {
            db.apply(op).unwrap();
            folded.record(db.table("T").unwrap().schema(), op);
        }
        let delta = DeltaCheckpoint {
            id: 2,
            base_id: 1,
            parent_id: 1,
            lsn: 14,
            epoch: db.structure_epoch(),
            delta: SnapshotDelta::new(folded, db.version()),
        };
        delta.write(&dir).unwrap();
        assert_eq!(list_artifact_ids(&dir, DELTA_PREFIX).unwrap(), vec![2]);
        assert_eq!(
            list_artifact_ids(&dir, BASE_PREFIX).unwrap(),
            Vec::<u64>::new()
        );
        let loaded = DeltaCheckpoint::load(&dir, 2).unwrap();
        assert_eq!(loaded, delta);
        vo_relational::json::assert_roundtrip(&delta);
        std::fs::remove_dir_all(&dir).ok();
    }
}
