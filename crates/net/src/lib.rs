//! PENGUIN as a network service.
//!
//! This crate puts a [`vo_penguin::Penguin`] system behind a TCP socket so
//! many clients can run VOQL concurrently. The design leans on the MVCC
//! facade the rest of the workspace already provides:
//!
//! * each connection pins a snapshot-isolated [`vo_penguin::Session`] at
//!   handshake — reads (`GET`, `SHOW …`, `PREPARE`) run against the pinned
//!   snapshot with **no lock held** and never block the writer;
//! * writes (`DELETE`/`UPDATE` statements, `COMMIT`, `APPLY`,
//!   `MATERIALIZE`, `WATCH`, `POLL_WATCH`) funnel through a single
//!   `Mutex<Penguin>` — the same single-writer discipline the embedded API
//!   has, now shared across connections;
//! * optimistic concurrency crosses the wire: `PREPARE` translates a batch
//!   against the pinned snapshot, `COMMIT` validates it at the head under
//!   first-committer-wins, and a loser sees a typed
//!   [`ErrorCode::Conflict`] carrying the base
//!   and head versions, exactly like the embedded
//!   [`vo_penguin::Penguin::commit_prepared`].
//!
//! The wire format is deliberately boring: a frame is
//! `[len: u32 LE][crc32(payload): u32 LE][payload]` — the same
//! length-plus-checksum armor `vo-store`'s WAL records wear — and the
//! payload is one JSON document encoded with the in-tree `vo_obs::json`
//! codec. No external dependencies anywhere.
//!
//! Robustness guarantees (exercised by the fuzz tests in [`frame`] and the
//! socket-level tests in `tests/net_e2e.rs`): fabricated lengths, truncated
//! frames, CRC bit-flips, and oversized payloads all surface as typed
//! errors and a clean close — never a panic, never a hang, and never an
//! unbounded allocation (a frame larger than the cap is rejected from its
//! header alone).

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;

mod conn;

pub use client::{ClientOptions, HelloInfo, VoClient, VoqlResult};
pub use frame::{read_frame, write_frame, DEFAULT_MAX_FRAME_BYTES};
pub use proto::{
    ErrorCode, Request, RequestBody, Response, ResponseBody, WireError, PROTOCOL_VERSION,
};
pub use server::{ServerOptions, ServerStats, VoServer};

use vo_obs::json::JsonError;

/// Everything that can go wrong on the transport or protocol layer.
///
/// Errors produced by the *remote* side arrive as [`NetError::Remote`]
/// carrying the typed [`WireError`]; everything else is local.
#[derive(Debug)]
pub enum NetError {
    /// Socket-level failure.
    Io(std::io::Error),
    /// A frame header announced a payload larger than the configured cap.
    /// Detected before any payload allocation.
    FrameTooLarge {
        /// Announced payload size.
        bytes: u64,
        /// Configured cap.
        max: u64,
    },
    /// Payload bytes did not match the header checksum.
    CrcMismatch {
        /// Checksum from the header.
        expected: u32,
        /// Checksum of the bytes actually received.
        found: u32,
    },
    /// The peer closed mid-frame.
    Truncated {
        /// Bytes the frame still owed.
        expected: usize,
        /// Bytes received before the close.
        got: usize,
    },
    /// The connection is gone (clean close, or a prior error tore it down).
    Disconnected,
    /// Payload was not valid JSON, or not the JSON shape the protocol wants.
    Json(String),
    /// The peer violated the protocol (bad correlation id, wrong message
    /// kind, handshake out of order).
    Protocol(String),
    /// The server answered with a typed error.
    Remote(WireError),
}

impl NetError {
    /// True for [`NetError::Remote`] with the given code — the idiom tests
    /// and retry loops use (`err.is_code(ErrorCode::Busy)`).
    pub fn is_code(&self, code: ErrorCode) -> bool {
        matches!(self, NetError::Remote(w) if w.code == code)
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::FrameTooLarge { bytes, max } => {
                write!(f, "frame of {bytes} bytes exceeds cap of {max}")
            }
            NetError::CrcMismatch { expected, found } => {
                write!(
                    f,
                    "frame crc mismatch: header {expected:#010x}, payload {found:#010x}"
                )
            }
            NetError::Truncated { expected, got } => {
                write!(
                    f,
                    "frame truncated: expected {expected} more bytes, got {got}"
                )
            }
            NetError::Disconnected => write!(f, "connection closed"),
            NetError::Json(msg) => write!(f, "bad payload: {msg}"),
            NetError::Protocol(msg) => write!(f, "protocol violation: {msg}"),
            NetError::Remote(w) => write!(f, "server error [{}]: {}", w.code.as_str(), w.message),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<JsonError> for NetError {
    fn from(e: JsonError) -> Self {
        NetError::Json(e.0)
    }
}

/// A payload the `vo-core` codecs reject.
impl From<vo_relational::error::Error> for NetError {
    fn from(e: vo_relational::error::Error) -> Self {
        NetError::Json(e.to_string())
    }
}

/// Result alias for the network layer.
pub type NetResult<T> = std::result::Result<T, NetError>;
