//! The request/response vocabulary and its JSON codecs.
//!
//! Every frame payload is one JSON document. Requests carry a client-chosen
//! correlation `id` the response echoes back; the body is discriminated by
//! an `"op"` string (requests) or a `"kind"` string (successful responses).
//! Failures travel as a typed [`WireError`]: a machine-readable
//! [`ErrorCode`], a human message, and optional structured `data` — a
//! commit conflict, for instance, carries the relation plus base and head
//! versions so a client can decide whether to re-prepare.
//!
//! Instances and update requests reuse the `vo-core` codecs, so what a GET
//! returns over the wire decodes into the *same* [`VoInstance`] the
//! embedded API hands out — the e2e suite leans on that for its
//! byte-for-byte oracle comparison. Both ends write a frame with
//! [`encode`] and read one with [`decode`]; the discriminant leads, so a
//! batch or a `GET`'s instances stream straight into their values.

use crate::{NetError, NetResult};
use std::borrow::Cow;
use vo_core::instance::VoInstance;
use vo_core::maintain::InstanceChange;
use vo_core::update::error::UpdateError;
use vo_core::update::UpdateRequest;
use vo_obs::json::{
    decode, encode, missing_field, parse, required, Deferred, Json, JsonCodec, ObjectWriter, Reader,
};
use vo_relational::error::Error;

/// Version of this wire vocabulary; sent in `HELLO` both ways.
pub const PROTOCOL_VERSION: i64 = 1;

// -------------------------------------------------------------- requests --

/// One client request: correlation id plus body.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub body: RequestBody,
}

/// Everything a client can ask for.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    /// Handshake: must be the first request on a connection.
    Hello {
        /// Shared secret; must match the server's, when it has one.
        secret: Option<String>,
        /// Client protocol version.
        proto: i64,
    },
    /// Run one VOQL statement. Reads execute on the connection's pinned
    /// session; writes go through the head.
    Voql {
        /// VOQL source text.
        src: String,
    },
    /// Re-pin the connection's session at the current committed head.
    Pin,
    /// Translate a batch against the pinned snapshot without committing.
    Prepare {
        /// Object name.
        object: String,
        /// The update requests.
        requests: Vec<UpdateRequest>,
    },
    /// Commit a previously prepared batch (first-committer-wins).
    Commit {
        /// Handle from the `Prepared` response. One-shot.
        handle: u64,
    },
    /// Translate and commit a batch directly at the head.
    Apply {
        /// Object name.
        object: String,
        /// The update requests.
        requests: Vec<UpdateRequest>,
    },
    /// Materialize an object's instances server-side.
    Materialize {
        /// Object name.
        object: String,
    },
    /// Subscribe to instance-level changes of a materialized object.
    Watch {
        /// Object name.
        object: String,
    },
    /// Refresh the watched view and drain this watcher's pending changes.
    PollWatch {
        /// Handle from the `Watching` response.
        watch: u64,
    },
    /// Drop a watch subscription.
    Unwatch {
        /// Handle from the `Watching` response.
        watch: u64,
    },
    /// Evaluate the health policy (connection saturation included).
    Health,
    /// Text exposition of every metric.
    Metrics,
    /// Server counters: connections, requests, bytes.
    Stats,
    /// Hold this request's in-flight permit for `millis` — debug servers
    /// only; exists so backpressure is testable deterministically.
    Sleep {
        /// How long to hold the permit (capped server-side).
        millis: u64,
    },
    /// Polite goodbye; the server answers `Done` and closes.
    Bye,
}

impl RequestBody {
    /// The wire op string (also the span label for `net.request`).
    pub fn op(&self) -> &'static str {
        match self {
            RequestBody::Hello { .. } => "HELLO",
            RequestBody::Voql { .. } => "VOQL",
            RequestBody::Pin => "PIN",
            RequestBody::Prepare { .. } => "PREPARE",
            RequestBody::Commit { .. } => "COMMIT",
            RequestBody::Apply { .. } => "APPLY",
            RequestBody::Materialize { .. } => "MATERIALIZE",
            RequestBody::Watch { .. } => "WATCH",
            RequestBody::PollWatch { .. } => "POLL_WATCH",
            RequestBody::Unwatch { .. } => "UNWATCH",
            RequestBody::Health => "HEALTH",
            RequestBody::Metrics => "METRICS",
            RequestBody::Stats => "STATS",
            RequestBody::Sleep { .. } => "SLEEP",
            RequestBody::Bye => "BYE",
        }
    }
}

impl Request {
    /// The request's document: [`encode`] parsed back. Kept for the
    /// benchmark's per-layer replay, which times it; no frame takes this
    /// path.
    pub fn to_json(&self) -> Json {
        parse(&encode(self)).expect("an encoded request is JSON")
    }

    /// The request a document holds: [`decode`] of its compact text. Kept
    /// for the benchmark's per-layer replay, as [`Request::to_json`] is.
    pub fn from_json(doc: &Json) -> NetResult<Self> {
        decode(&doc.compact())
    }
}

/// `id`, then the `op` discriminant, then the body's entries.
impl JsonCodec for Request {
    type Error = NetError;

    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.entry("id", &self.id);
        o.str("op", self.body.op());
        match &self.body {
            RequestBody::Hello { secret, proto } => {
                o.entry("secret", secret);
                o.entry("proto", proto);
            }
            RequestBody::Voql { src } => o.entry("src", src),
            RequestBody::Prepare { object, requests } | RequestBody::Apply { object, requests } => {
                o.entry("object", object);
                o.entry("requests", requests);
            }
            RequestBody::Commit { handle } => o.entry("handle", handle),
            RequestBody::Materialize { object } | RequestBody::Watch { object } => {
                o.entry("object", object)
            }
            RequestBody::PollWatch { watch } | RequestBody::Unwatch { watch } => {
                o.entry("watch", watch)
            }
            RequestBody::Sleep { millis } => o.entry("millis", millis),
            RequestBody::Pin
            | RequestBody::Health
            | RequestBody::Metrics
            | RequestBody::Stats
            | RequestBody::Bye => {}
        }
        o.finish();
    }

    fn read_json(r: &mut Reader<'_>) -> NetResult<Self> {
        let mut request = RequestEntries::default();
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            request.entry(key, r)?;
        }
        request.finish()
    }
}

/// The entries of a [`Request`] read so far. Each op names at most one
/// string and one number, so those share a slot.
#[derive(Default)]
struct RequestEntries<'a> {
    id: Option<u64>,
    op: Option<Cow<'a, str>>,
    early: Deferred<'a>,
    secret: Option<Option<String>>,
    proto: Option<i64>,
    /// `src` or `object`.
    name: Option<String>,
    requests: Option<Vec<UpdateRequest>>,
    /// `handle`, `watch` or `millis`.
    number: Option<u64>,
}

impl<'a> RequestEntries<'a> {
    fn entry(&mut self, key: Cow<'a, str>, r: &mut Reader<'a>) -> NetResult<()> {
        if key == "id" {
            self.id = Some(u64::read_json(r)?);
            return Ok(());
        }
        let Some(op) = self.op.as_deref() else {
            if key != "op" {
                return Ok(self.early.keep(key, r)?);
            }
            self.op = Some(r.string()?);
            return std::mem::take(&mut self.early).replay(|key, r| self.entry(key, r));
        };
        match (op, &*key) {
            ("HELLO", "secret") => self.secret = Some(JsonCodec::read_json(r)?),
            ("HELLO", "proto") => self.proto = Some(i64::read_json(r)?),
            ("VOQL", "src") | ("PREPARE" | "APPLY" | "MATERIALIZE" | "WATCH", "object") => {
                self.name = Some(String::read_json(r)?)
            }
            ("PREPARE" | "APPLY", "requests") => self.requests = Some(Vec::read_json(r)?),
            ("COMMIT", "handle") | ("POLL_WATCH" | "UNWATCH", "watch") | ("SLEEP", "millis") => {
                self.number = Some(u64::read_json(r)?)
            }
            _ => r.skip_value()?,
        }
        Ok(())
    }

    fn finish(self) -> NetResult<Request> {
        let id = required(self.id, "id")?;
        let body = match self.op.as_deref() {
            Some("HELLO") => RequestBody::Hello {
                secret: required(self.secret, "secret")?,
                proto: required(self.proto, "proto")?,
            },
            Some("VOQL") => RequestBody::Voql {
                src: required(self.name, "src")?,
            },
            Some("PIN") => RequestBody::Pin,
            Some("PREPARE") => RequestBody::Prepare {
                object: required(self.name, "object")?,
                requests: required(self.requests, "requests")?,
            },
            Some("APPLY") => RequestBody::Apply {
                object: required(self.name, "object")?,
                requests: required(self.requests, "requests")?,
            },
            Some("COMMIT") => RequestBody::Commit {
                handle: required(self.number, "handle")?,
            },
            Some("MATERIALIZE") => RequestBody::Materialize {
                object: required(self.name, "object")?,
            },
            Some("WATCH") => RequestBody::Watch {
                object: required(self.name, "object")?,
            },
            Some("POLL_WATCH") => RequestBody::PollWatch {
                watch: required(self.number, "watch")?,
            },
            Some("UNWATCH") => RequestBody::Unwatch {
                watch: required(self.number, "watch")?,
            },
            Some("HEALTH") => RequestBody::Health,
            Some("METRICS") => RequestBody::Metrics,
            Some("STATS") => RequestBody::Stats,
            Some("SLEEP") => RequestBody::Sleep {
                millis: required(self.number, "millis")?,
            },
            Some("BYE") => RequestBody::Bye,
            Some(other) => return Err(NetError::Json(format!("unknown op `{other}`"))),
            None => return Err(missing_field("op").into()),
        };
        Ok(Request { id, body })
    }
}

// ------------------------------------------------------------- responses --

/// One server response: the request's id plus a result.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Correlation id of the request answered (0 for connection-level
    /// failures sent before any request decoded).
    pub id: u64,
    /// Outcome.
    pub result: Result<ResponseBody, WireError>,
}

/// Everything a successful request can return.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseBody {
    /// Handshake accepted.
    Hello {
        /// Server identification string.
        server: String,
        /// Server protocol version.
        proto: i64,
        /// Version the connection's session was pinned at.
        version: u64,
    },
    /// Instances returned by a VOQL `GET`.
    Instances(Vec<VoInstance>),
    /// Informational text (`SHOW …`).
    Text(String),
    /// Instances deleted by a VOQL `DELETE`.
    Deleted(u64),
    /// Instances updated by a VOQL `UPDATE`.
    Updated(u64),
    /// Session re-pinned.
    Pinned {
        /// Version of the new snapshot.
        version: u64,
    },
    /// Batch translated against the pinned snapshot.
    Prepared {
        /// One-shot handle to pass to `COMMIT`.
        handle: u64,
        /// Version the preparation read.
        base_version: u64,
        /// Relations the translators consulted (the conflict footprint).
        touched: Vec<String>,
    },
    /// Batch committed (via `COMMIT` or `APPLY`).
    Committed {
        /// Requests in the batch.
        requests: u64,
        /// Relational ops the translation produced.
        total_ops: u64,
    },
    /// Object materialized server-side.
    Materialized {
        /// Instances in the fresh view.
        instances: u64,
    },
    /// Watch subscription established.
    Watching {
        /// Handle to pass to `POLL_WATCH` / `UNWATCH`.
        watch: u64,
    },
    /// Instance-level changes drained by `POLL_WATCH`.
    Changes(Vec<InstanceChange>),
    /// Health report, as its JSON rendering.
    Health(Json),
    /// Prometheus-style text exposition of every metric.
    Metrics(String),
    /// Server counters.
    Stats(Json),
    /// Acknowledgement with no payload (`UNWATCH`, `SLEEP`, `BYE`).
    Done,
}

impl ResponseBody {
    fn kind(&self) -> &'static str {
        match self {
            ResponseBody::Hello { .. } => "hello",
            ResponseBody::Instances(_) => "instances",
            ResponseBody::Text(_) => "text",
            ResponseBody::Deleted(_) => "deleted",
            ResponseBody::Updated(_) => "updated",
            ResponseBody::Pinned { .. } => "pinned",
            ResponseBody::Prepared { .. } => "prepared",
            ResponseBody::Committed { .. } => "committed",
            ResponseBody::Materialized { .. } => "materialized",
            ResponseBody::Watching { .. } => "watching",
            ResponseBody::Changes(_) => "changes",
            ResponseBody::Health(_) => "health",
            ResponseBody::Metrics(_) => "metrics",
            ResponseBody::Stats(_) => "stats",
            ResponseBody::Done => "done",
        }
    }
}

impl Response {
    /// The response's document: [`encode`] parsed back. Kept for the
    /// benchmark's per-layer replay, which times it; no frame takes this
    /// path.
    pub fn to_json(&self) -> Json {
        parse(&encode(self)).expect("an encoded response is JSON")
    }

    /// The response a document holds: [`decode`] of its compact text. Kept
    /// for the benchmark's per-layer replay, as [`Response::to_json`] is.
    pub fn from_json(doc: &Json) -> NetResult<Self> {
        decode(&doc.compact())
    }
}

/// `id`, then `ok`; a failure carries `error`, a success the `kind`
/// discriminant and then the body's entries.
impl JsonCodec for Response {
    type Error = NetError;

    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.entry("id", &self.id);
        o.entry("ok", &self.result.is_ok());
        let body = match &self.result {
            Ok(body) => body,
            Err(err) => {
                o.entry("error", err);
                return o.finish();
            }
        };
        o.str("kind", body.kind());
        match body {
            ResponseBody::Hello {
                server,
                proto,
                version,
            } => {
                o.entry("server", server);
                o.entry("proto", proto);
                o.entry("version", version);
            }
            ResponseBody::Instances(list) => o.entry("instances", list),
            ResponseBody::Text(t) | ResponseBody::Metrics(t) => o.entry("text", t),
            ResponseBody::Deleted(n)
            | ResponseBody::Updated(n)
            | ResponseBody::Materialized { instances: n } => o.entry("count", n),
            ResponseBody::Pinned { version } => o.entry("version", version),
            ResponseBody::Prepared {
                handle,
                base_version,
                touched,
            } => {
                o.entry("handle", handle);
                o.entry("base_version", base_version);
                o.entry("touched", touched);
            }
            ResponseBody::Committed {
                requests,
                total_ops,
            } => {
                o.entry("requests", requests);
                o.entry("total_ops", total_ops);
            }
            ResponseBody::Watching { watch } => o.entry("watch", watch),
            ResponseBody::Changes(changes) => o.entry("changes", changes),
            ResponseBody::Health(report) | ResponseBody::Stats(report) => o.entry("report", report),
            ResponseBody::Done => {}
        }
        o.finish();
    }

    fn read_json(r: &mut Reader<'_>) -> NetResult<Self> {
        let mut response = ResponseEntries::default();
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            response.entry(key, r)?;
        }
        let id = required(response.id, "id")?;
        let result = match (required(response.ok, "ok")?, response.kind.as_deref()) {
            (false, _) => Err(required(response.error, "error")?),
            (true, Some(kind)) => Ok(response.body.finish(kind)?),
            (true, None) => return Err(missing_field("kind").into()),
        };
        Ok(Response { id, result })
    }
}

/// The entries of a [`Response`] read so far: what the body holds is known
/// once `ok` is, and for a success once `kind` is.
#[derive(Default)]
struct ResponseEntries<'a> {
    id: Option<u64>,
    ok: Option<bool>,
    kind: Option<Cow<'a, str>>,
    early: Deferred<'a>,
    error: Option<WireError>,
    body: BodyEntries,
}

impl<'a> ResponseEntries<'a> {
    fn entry(&mut self, key: Cow<'a, str>, r: &mut Reader<'a>) -> NetResult<()> {
        match (&*key, self.ok, self.kind.as_deref()) {
            ("id", ..) => self.id = Some(u64::read_json(r)?),
            ("ok", ..) => {
                self.ok = Some(bool::read_json(r)?);
                return self.replay();
            }
            ("kind", Some(true), _) => {
                self.kind = Some(r.string()?);
                return self.replay();
            }
            ("error", Some(false), _) => self.error = Some(WireError::read_json(r)?),
            (_, Some(false), _) => r.skip_value()?,
            (_, Some(true), Some(kind)) => self.body.entry(kind, &key, r)?,
            _ => self.early.keep(key, r)?,
        }
        Ok(())
    }

    /// Read the entries kept while `ok` or `kind` was still unread.
    fn replay(&mut self) -> NetResult<()> {
        std::mem::take(&mut self.early).replay(|key, r| self.entry(key, r))
    }
}

/// The entries a successful response's body may hold. Each kind names at
/// most one string, two unsigned numbers and one list, so those share
/// slots.
#[derive(Default)]
struct BodyEntries {
    /// `server` or `text`.
    text: Option<String>,
    proto: Option<i64>,
    /// `version`, `count`, `handle`, `requests` or `watch`.
    first: Option<u64>,
    /// `base_version` or `total_ops`.
    second: Option<u64>,
    instances: Option<Vec<VoInstance>>,
    touched: Option<Vec<String>>,
    changes: Option<Vec<InstanceChange>>,
    report: Option<Json>,
}

impl BodyEntries {
    fn entry(&mut self, kind: &str, key: &str, r: &mut Reader<'_>) -> NetResult<()> {
        match (kind, key) {
            ("hello", "server") | ("text" | "metrics", "text") => {
                self.text = Some(String::read_json(r)?)
            }
            ("hello", "proto") => self.proto = Some(i64::read_json(r)?),
            ("hello" | "pinned", "version")
            | ("deleted" | "updated" | "materialized", "count")
            | ("prepared", "handle")
            | ("committed", "requests")
            | ("watching", "watch") => self.first = Some(u64::read_json(r)?),
            ("prepared", "base_version") | ("committed", "total_ops") => {
                self.second = Some(u64::read_json(r)?)
            }
            ("instances", "instances") => self.instances = Some(Vec::read_json(r)?),
            ("prepared", "touched") => self.touched = Some(Vec::read_json(r)?),
            ("changes", "changes") => self.changes = Some(Vec::read_json(r)?),
            ("health" | "stats", "report") => self.report = Some(Json::read_json(r)?),
            _ => r.skip_value()?,
        }
        Ok(())
    }

    fn finish(self, kind: &str) -> NetResult<ResponseBody> {
        Ok(match kind {
            "hello" => ResponseBody::Hello {
                server: required(self.text, "server")?,
                proto: required(self.proto, "proto")?,
                version: required(self.first, "version")?,
            },
            "instances" => ResponseBody::Instances(required(self.instances, "instances")?),
            "text" => ResponseBody::Text(required(self.text, "text")?),
            "metrics" => ResponseBody::Metrics(required(self.text, "text")?),
            "deleted" => ResponseBody::Deleted(required(self.first, "count")?),
            "updated" => ResponseBody::Updated(required(self.first, "count")?),
            "materialized" => ResponseBody::Materialized {
                instances: required(self.first, "count")?,
            },
            "pinned" => ResponseBody::Pinned {
                version: required(self.first, "version")?,
            },
            "prepared" => ResponseBody::Prepared {
                handle: required(self.first, "handle")?,
                base_version: required(self.second, "base_version")?,
                touched: required(self.touched, "touched")?,
            },
            "committed" => ResponseBody::Committed {
                requests: required(self.first, "requests")?,
                total_ops: required(self.second, "total_ops")?,
            },
            "watching" => ResponseBody::Watching {
                watch: required(self.first, "watch")?,
            },
            "changes" => ResponseBody::Changes(required(self.changes, "changes")?),
            "health" => ResponseBody::Health(required(self.report, "report")?),
            "stats" => ResponseBody::Stats(required(self.report, "report")?),
            "done" => ResponseBody::Done,
            other => return Err(NetError::Json(format!("unknown response kind `{other}`"))),
        })
    }
}

// ---------------------------------------------------------- typed errors --

/// Machine-readable failure category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Handshake secret missing or wrong.
    Auth,
    /// The server is at its in-flight or queue capacity; retry later.
    Busy,
    /// The server is at its connection limit.
    ConnLimit,
    /// The request frame exceeded the server's size cap.
    TooLarge,
    /// The frame failed checksum or framing validation.
    BadFrame,
    /// The request decoded but is malformed or out of order.
    BadRequest,
    /// VOQL failed to parse; `data.position` carries the byte offset.
    Parse,
    /// The write lost to a change made since its input was read, and may
    /// be retried on a fresh read: first-committer-wins rejected a commit
    /// (`data` carries `relation`, `base_version`, `head_version`), or a
    /// write-back's instance no longer shows what the database holds
    /// (`Error::StaleTuple`; `data` carries `relation`, `key`).
    Conflict,
    /// Named object, relation, tuple, or handle does not exist.
    NotFound,
    /// The operation is disabled on this server (e.g. `SLEEP` outside
    /// debug mode).
    Unsupported,
    /// Server-side failure not attributable to the request.
    Internal,
}

impl ErrorCode {
    /// Wire string.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Auth => "auth",
            ErrorCode::Busy => "busy",
            ErrorCode::ConnLimit => "conn_limit",
            ErrorCode::TooLarge => "too_large",
            ErrorCode::BadFrame => "bad_frame",
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Parse => "parse",
            ErrorCode::Conflict => "conflict",
            ErrorCode::NotFound => "not_found",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Internal => "internal",
        }
    }

    fn from_str(s: &str) -> NetResult<Self> {
        Ok(match s {
            "auth" => ErrorCode::Auth,
            "busy" => ErrorCode::Busy,
            "conn_limit" => ErrorCode::ConnLimit,
            "too_large" => ErrorCode::TooLarge,
            "bad_frame" => ErrorCode::BadFrame,
            "bad_request" => ErrorCode::BadRequest,
            "parse" => ErrorCode::Parse,
            "conflict" => ErrorCode::Conflict,
            "not_found" => ErrorCode::NotFound,
            "unsupported" => ErrorCode::Unsupported,
            "internal" => ErrorCode::Internal,
            other => return Err(NetError::Json(format!("unknown error code `{other}`"))),
        })
    }
}

/// A typed error crossing the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// Category.
    pub code: ErrorCode,
    /// Human-readable message.
    pub message: String,
    /// Structured extras (conflict versions, parse offsets, …).
    pub data: Option<Json>,
}

impl WireError {
    /// A bare coded error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        WireError {
            code,
            message: message.into(),
            data: None,
        }
    }

    /// Attach structured data.
    pub fn with_data(mut self, data: Json) -> Self {
        self.data = Some(data);
        self
    }
}

/// `data` is omitted, not `null`, when there is none.
impl JsonCodec for WireError {
    type Error = NetError;

    fn write_json(&self, out: &mut String) {
        let mut o = ObjectWriter::new(out);
        o.str("code", self.code.as_str());
        o.entry("message", &self.message);
        if let Some(data) = &self.data {
            o.entry("data", data);
        }
        o.finish();
    }

    fn read_json(r: &mut Reader<'_>) -> NetResult<Self> {
        let (mut code, mut message, mut data) = (None, None, None);
        r.begin_object()?;
        while let Some(key) = r.next_key()? {
            match &*key {
                "code" => code = Some(ErrorCode::from_str(&r.string()?)?),
                "message" => message = Some(String::read_json(r)?),
                "data" => data = Some(Json::read_json(r)?),
                _ => r.skip_value()?,
            }
        }
        Ok(WireError {
            code: required(code, "code")?,
            message: required(message, "message")?,
            data,
        })
    }
}

impl From<&Error> for WireError {
    fn from(e: &Error) -> Self {
        match e {
            Error::SqlParse { position, message } => WireError::new(
                ErrorCode::Parse,
                format!("parse error at byte {position}: {message}"),
            )
            .with_data(Json::obj(vec![("position", Json::Int(*position as i64))])),
            Error::Conflict {
                relation,
                base_version,
                head_version,
            } => WireError::new(ErrorCode::Conflict, e.to_string()).with_data(Json::obj(vec![
                ("relation", Json::str(relation.as_str())),
                ("base_version", Json::Int(*base_version as i64)),
                ("head_version", Json::Int(*head_version as i64)),
            ])),
            Error::StaleTuple { relation, key } => {
                WireError::new(ErrorCode::Conflict, e.to_string()).with_data(Json::obj(vec![
                    ("relation", Json::str(relation.as_str())),
                    ("key", Json::str(key.as_str())),
                ]))
            }
            Error::NoSuchRelation(_)
            | Error::NoSuchAttribute { .. }
            | Error::NoSuchTuple { .. } => WireError::new(ErrorCode::NotFound, e.to_string()),
            // A rolled-back transaction reports its cause's category.
            Error::Rolledback(inner) => WireError::from(inner.as_ref()),
            Error::Storage(_) | Error::Serialization(_) => {
                WireError::new(ErrorCode::Internal, e.to_string())
            }
            _ => WireError::new(ErrorCode::BadRequest, e.to_string()),
        }
    }
}

impl From<&UpdateError> for WireError {
    fn from(e: &UpdateError) -> Self {
        let mut wire = WireError::from(e.source.as_ref());
        wire.message = e.to_string();
        let step = Json::str(format!("{:?}", e.step).to_lowercase());
        wire.data = Some(match wire.data.take() {
            Some(Json::Obj(mut pairs)) => {
                pairs.push(("step".to_owned(), step));
                Json::Obj(pairs)
            }
            _ => Json::obj(vec![("step", step)]),
        });
        wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vo_core::maintain::ChangeKind;
    use vo_relational::tuple::Key;
    use vo_relational::value::Value;

    /// One text, one value — and the replay's wrappers agree with both.
    fn roundtrip_request(req: Request) {
        vo_obs::json::assert_roundtrip(&req);
        assert_eq!(req.to_json().compact(), encode(&req));
        assert_eq!(Request::from_json(&req.to_json()).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        vo_obs::json::assert_roundtrip(&resp);
        assert_eq!(resp.to_json().compact(), encode(&resp));
        assert_eq!(Response::from_json(&resp.to_json()).unwrap(), resp);
    }

    fn omega_instances() -> Vec<VoInstance> {
        let (schema, db) = vo_core::university::university_database();
        let omega = vo_core::treegen::generate_omega(&schema).unwrap();
        vo_core::instance::instantiate_all(&schema, &omega, &db).unwrap()
    }

    #[test]
    fn instance_frames_stream_both_ways() {
        let instances = omega_instances();
        let requests = vec![
            UpdateRequest::Replacement {
                old: instances[0].clone(),
                new: instances[1].clone(),
            },
            UpdateRequest::CompleteDeletion(instances[2].clone()),
        ];
        let object = "omega".to_owned();
        for body in [
            RequestBody::Prepare {
                object: object.clone(),
                requests: requests.clone(),
            },
            RequestBody::Apply { object, requests },
        ] {
            roundtrip_request(Request { id: 9, body });
        }
        roundtrip_response(Response {
            id: 9,
            result: Ok(ResponseBody::Instances(instances)),
        });
        // entries in another order decode to the same value: those ahead of
        // the discriminant are read once it is
        let prepare = r#"{"requests":[],"object":"omega","op":"PREPARE","id":3}"#;
        assert_eq!(
            decode::<Request>(prepare).unwrap(),
            Request {
                id: 3,
                body: RequestBody::Prepare {
                    object: "omega".into(),
                    requests: vec![]
                }
            }
        );
        let get = r#"{"instances":[],"kind":"instances","id":3,"ok":true}"#;
        assert_eq!(
            decode::<Response>(get).unwrap(),
            Response {
                id: 3,
                result: Ok(ResponseBody::Instances(vec![]))
            }
        );
        // an entry another kind holds is passed over unread, and so is
        // `kind` on a failure
        let done = r#"{"count":"x","kind":"done","ok":true,"id":3}"#;
        assert!(decode::<Response>(done).unwrap().result.is_ok());
        let failed = r#"{"kind":7,"error":{"code":"busy","message":"m"},"ok":false,"id":3}"#;
        assert!(decode::<Response>(failed).unwrap().result.is_err());
        for bad in [
            r#"{"id":3,"op":"PREPARE","object":"omega"}"#,
            r#"{"id":3,"op":"APPLY","object":"omega","requests":[{"kind":"replacement"}]}"#,
            r#"{"id":3,"op":"PREPARE","object":"omega","requests":[]} x"#,
            r#"{"id":3,"object":"omega","requests":[]}"#,
            r#"{"object":"omega","requests":[],"op":"BOGUS","id":3}"#,
        ] {
            assert!(
                matches!(decode::<Request>(bad), Err(NetError::Json(_))),
                "{bad}"
            );
        }
        for bad in [
            r#"{"id":3,"ok":true,"kind":"instances"}"#,
            r#"{"id":3,"ok":true,"instances":[]}"#,
            r#"{"instances":[],"id":3,"kind":"instances"}"#,
        ] {
            assert!(
                matches!(decode::<Response>(bad), Err(NetError::Json(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn requests_roundtrip() {
        for body in [
            RequestBody::Hello {
                secret: Some("s3cret".into()),
                proto: PROTOCOL_VERSION,
            },
            RequestBody::Hello {
                secret: None,
                proto: PROTOCOL_VERSION,
            },
            RequestBody::Voql {
                src: "GET omega WHERE level = 'graduate'".into(),
            },
            RequestBody::Pin,
            RequestBody::Commit { handle: 7 },
            RequestBody::Materialize {
                object: "omega".into(),
            },
            RequestBody::Watch {
                object: "omega".into(),
            },
            RequestBody::PollWatch { watch: 3 },
            RequestBody::Unwatch { watch: 3 },
            RequestBody::Health,
            RequestBody::Metrics,
            RequestBody::Stats,
            RequestBody::Sleep { millis: 250 },
            RequestBody::Bye,
        ] {
            roundtrip_request(Request { id: 42, body });
        }
    }

    #[test]
    fn responses_roundtrip() {
        for result in [
            Ok(ResponseBody::Hello {
                server: "penguin-vo/0.1.0".into(),
                proto: PROTOCOL_VERSION,
                version: 12,
            }),
            Ok(ResponseBody::Text("3 objects".into())),
            Ok(ResponseBody::Deleted(2)),
            Ok(ResponseBody::Updated(1)),
            Ok(ResponseBody::Pinned { version: 9 }),
            Ok(ResponseBody::Prepared {
                handle: 1,
                base_version: 9,
                touched: vec!["COURSES".into(), "GRADES".into()],
            }),
            Ok(ResponseBody::Committed {
                requests: 2,
                total_ops: 5,
            }),
            Ok(ResponseBody::Materialized { instances: 4 }),
            Ok(ResponseBody::Watching { watch: 1 }),
            Ok(ResponseBody::Changes(vec![InstanceChange {
                pivot: Key::new(vec![Value::text("CS101")]),
                kind: ChangeKind::Updated,
            }])),
            Ok(ResponseBody::Metrics("# counters\n".into())),
            Ok(ResponseBody::Done),
            Err(WireError::new(ErrorCode::Busy, "server saturated")),
            Err(
                WireError::new(ErrorCode::Conflict, "validation failed").with_data(Json::obj(
                    vec![
                        ("relation", Json::str("COURSES")),
                        ("base_version", Json::Int(9)),
                        ("head_version", Json::Int(11)),
                    ],
                )),
            ),
        ] {
            roundtrip_response(Response { id: 7, result });
        }
    }

    #[test]
    fn conflict_error_maps_to_typed_code_with_versions() {
        let err = Error::Conflict {
            relation: "COURSES".into(),
            base_version: 4,
            head_version: 6,
        };
        let wire = WireError::from(&err);
        assert_eq!(wire.code, ErrorCode::Conflict);
        let data = wire.data.unwrap();
        assert_eq!(data.field("relation").unwrap().as_str().unwrap(), "COURSES");
        assert_eq!(data.field("base_version").unwrap().as_i64().unwrap(), 4);
        assert_eq!(data.field("head_version").unwrap().as_i64().unwrap(), 6);
    }

    #[test]
    fn parse_error_carries_byte_offset() {
        let err = Error::SqlParse {
            position: 10,
            message: "expected WHERE".into(),
        };
        let wire = WireError::from(&err);
        assert_eq!(wire.code, ErrorCode::Parse);
        assert_eq!(
            wire.data
                .unwrap()
                .field("position")
                .unwrap()
                .as_i64()
                .unwrap(),
            10
        );
    }

    #[test]
    fn rolledback_reports_the_inner_category() {
        let err = Error::Rolledback(Box::new(Error::NoSuchTuple {
            relation: "COURSES".into(),
            key: "CS999".into(),
        }));
        assert_eq!(WireError::from(&err).code, ErrorCode::NotFound);
    }
}
