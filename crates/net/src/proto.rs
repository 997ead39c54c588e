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
//! returns over the wire decodes into the *same* [`VoInstance`] tree the
//! embedded API hands out — the e2e suite leans on that for its
//! byte-for-byte oracle comparison.

use crate::{NetError, NetResult};
use vo_core::instance::VoInstance;
use vo_core::maintain::InstanceChange;
use vo_core::update::error::UpdateError;
use vo_core::update::UpdateRequest;
use vo_obs::json::{missing_field, parse, Json, JsonCodec, Reader};
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
    /// Encode as JSON.
    pub fn to_json(&self) -> Json {
        self.doc(|requests| requests.to_json())
    }

    /// The compact text of [`Request::to_json`], a batch's update requests
    /// written straight into it ([`JsonCodec::write_json`]).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.doc(|_| Json::Null)
            .write_compact_with(&mut out, "requests", |out| {
                if let RequestBody::Prepare { requests, .. } | RequestBody::Apply { requests, .. } =
                    &self.body
                {
                    requests.write_json(out);
                }
            });
        out
    }

    /// Decode a payload: what `from_json(&parse(text))` returns. A batch
    /// whose `id` and `op` lead, as [`Request::encode`] writes them, is
    /// read straight off the text into its instances
    /// ([`JsonCodec::read_json`]); anything else through its tree.
    pub fn decode(text: &str) -> NetResult<Self> {
        let mut r = Reader::new(text);
        r.begin_object()?;
        let id = match r.next_key()? {
            Some(key) if key == "id" => u64::read_json(&mut r)?,
            _ => return Request::from_json(&parse(text)?),
        };
        let op = match r.next_key()? {
            Some(key) if key == "op" => r.string()?,
            _ => return Request::from_json(&parse(text)?),
        };
        if op != "PREPARE" && op != "APPLY" {
            return Request::from_json(&parse(text)?);
        }
        let (mut object, mut requests) = (None, None);
        while let Some(key) = r.next_key()? {
            match &*key {
                "object" => object = Some(String::read_json(&mut r)?),
                "requests" => requests = Some(Vec::read_json(&mut r)?),
                _ => r.skip_value()?,
            }
        }
        r.finish()?;
        let object = object.ok_or_else(|| missing_field("object"))?;
        let requests = requests.ok_or_else(|| missing_field("requests"))?;
        let body = if op == "PREPARE" {
            RequestBody::Prepare { object, requests }
        } else {
            RequestBody::Apply { object, requests }
        };
        Ok(Request { id, body })
    }

    /// The document, the update requests a batch carries rendered by
    /// `requests`.
    fn doc(&self, batch: impl FnOnce(&Vec<UpdateRequest>) -> Json) -> Json {
        let mut pairs = vec![("id", self.id.to_json()), ("op", Json::str(self.body.op()))];
        match &self.body {
            RequestBody::Hello { secret, proto } => {
                pairs.push(("secret", secret.to_json()));
                pairs.push(("proto", proto.to_json()));
            }
            RequestBody::Voql { src } => pairs.push(("src", src.to_json())),
            RequestBody::Prepare { object, requests } | RequestBody::Apply { object, requests } => {
                pairs.push(("object", object.to_json()));
                pairs.push(("requests", batch(requests)));
            }
            RequestBody::Commit { handle } => pairs.push(("handle", handle.to_json())),
            RequestBody::Materialize { object } | RequestBody::Watch { object } => {
                pairs.push(("object", object.to_json()))
            }
            RequestBody::PollWatch { watch } | RequestBody::Unwatch { watch } => {
                pairs.push(("watch", watch.to_json()))
            }
            RequestBody::Sleep { millis } => pairs.push(("millis", millis.to_json())),
            RequestBody::Pin
            | RequestBody::Health
            | RequestBody::Metrics
            | RequestBody::Stats
            | RequestBody::Bye => {}
        }
        Json::obj(pairs)
    }

    /// Decode from JSON.
    pub fn from_json(json: &Json) -> NetResult<Self> {
        let id = json.get("id")?;
        let body = match json.field("op")?.as_str()? {
            "HELLO" => RequestBody::Hello {
                secret: json.get("secret")?,
                proto: json.get("proto")?,
            },
            "VOQL" => RequestBody::Voql {
                src: json.get("src")?,
            },
            "PIN" => RequestBody::Pin,
            "PREPARE" => RequestBody::Prepare {
                object: json.get("object")?,
                requests: json.get("requests")?,
            },
            "APPLY" => RequestBody::Apply {
                object: json.get("object")?,
                requests: json.get("requests")?,
            },
            "COMMIT" => RequestBody::Commit {
                handle: json.get("handle")?,
            },
            "MATERIALIZE" => RequestBody::Materialize {
                object: json.get("object")?,
            },
            "WATCH" => RequestBody::Watch {
                object: json.get("object")?,
            },
            "POLL_WATCH" => RequestBody::PollWatch {
                watch: json.get("watch")?,
            },
            "UNWATCH" => RequestBody::Unwatch {
                watch: json.get("watch")?,
            },
            "HEALTH" => RequestBody::Health,
            "METRICS" => RequestBody::Metrics,
            "STATS" => RequestBody::Stats,
            "SLEEP" => RequestBody::Sleep {
                millis: json.get("millis")?,
            },
            "BYE" => RequestBody::Bye,
            other => return Err(NetError::Json(format!("unknown op `{other}`"))),
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
    /// Encode as JSON.
    pub fn to_json(&self) -> Json {
        self.doc(|instances| instances.to_json())
    }

    /// The compact text of [`Response::to_json`], instances written
    /// straight into it ([`JsonCodec::write_json`]).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.doc(|_| Json::Null)
            .write_compact_with(&mut out, "instances", |out| {
                if let Ok(ResponseBody::Instances(instances)) = &self.result {
                    instances.write_json(out);
                }
            });
        out
    }

    /// Decode a payload: what `from_json(&parse(text))` returns. Instances
    /// whose `id`, `ok` and `kind` lead, as [`Response::encode`] writes
    /// them, are read straight off the text ([`JsonCodec::read_json`]);
    /// anything else through its tree.
    pub fn decode(text: &str) -> NetResult<Self> {
        let mut r = Reader::new(text);
        r.begin_object()?;
        let lead = |r: &mut Reader<'_>, name: &str| -> NetResult<bool> {
            Ok(r.next_key()?.is_some_and(|key| key == name))
        };
        if !lead(&mut r, "id")? {
            return Response::from_json(&parse(text)?);
        }
        let id = u64::read_json(&mut r)?;
        if !lead(&mut r, "ok")?
            || !r.bool()?
            || !lead(&mut r, "kind")?
            || r.string()? != "instances"
        {
            return Response::from_json(&parse(text)?);
        }
        let mut instances = None;
        while let Some(key) = r.next_key()? {
            match &*key {
                "instances" => instances = Some(Vec::read_json(&mut r)?),
                _ => r.skip_value()?,
            }
        }
        r.finish()?;
        let instances = instances.ok_or_else(|| missing_field("instances"))?;
        Ok(Response {
            id,
            result: Ok(ResponseBody::Instances(instances)),
        })
    }

    /// The document, the instances a `GET` returns rendered by `instances`.
    fn doc(&self, instances: impl FnOnce(&Vec<VoInstance>) -> Json) -> Json {
        let mut pairs = vec![("id", self.id.to_json())];
        match &self.result {
            Ok(body) => {
                pairs.push(("ok", Json::Bool(true)));
                pairs.push(("kind", Json::str(body.kind())));
                match body {
                    ResponseBody::Hello {
                        server,
                        proto,
                        version,
                    } => {
                        pairs.push(("server", server.to_json()));
                        pairs.push(("proto", proto.to_json()));
                        pairs.push(("version", version.to_json()));
                    }
                    ResponseBody::Instances(list) => pairs.push(("instances", instances(list))),
                    ResponseBody::Text(t) | ResponseBody::Metrics(t) => {
                        pairs.push(("text", t.to_json()))
                    }
                    ResponseBody::Deleted(n)
                    | ResponseBody::Updated(n)
                    | ResponseBody::Materialized { instances: n } => {
                        pairs.push(("count", n.to_json()))
                    }
                    ResponseBody::Pinned { version } => pairs.push(("version", version.to_json())),
                    ResponseBody::Prepared {
                        handle,
                        base_version,
                        touched,
                    } => {
                        pairs.push(("handle", handle.to_json()));
                        pairs.push(("base_version", base_version.to_json()));
                        pairs.push(("touched", touched.to_json()));
                    }
                    ResponseBody::Committed {
                        requests,
                        total_ops,
                    } => {
                        pairs.push(("requests", requests.to_json()));
                        pairs.push(("total_ops", total_ops.to_json()));
                    }
                    ResponseBody::Watching { watch } => pairs.push(("watch", watch.to_json())),
                    ResponseBody::Changes(changes) => pairs.push(("changes", changes.to_json())),
                    ResponseBody::Health(j) | ResponseBody::Stats(j) => {
                        pairs.push(("report", j.clone()))
                    }
                    ResponseBody::Done => {}
                }
            }
            Err(err) => {
                pairs.push(("ok", Json::Bool(false)));
                pairs.push(("error", err.to_json()));
            }
        }
        Json::obj(pairs)
    }

    /// Decode from JSON.
    pub fn from_json(json: &Json) -> NetResult<Self> {
        let id = json.get("id")?;
        if !json.get::<bool>("ok")? {
            return Ok(Response {
                id,
                result: Err(json.get("error")?),
            });
        }
        let body = match json.field("kind")?.as_str()? {
            "hello" => ResponseBody::Hello {
                server: json.get("server")?,
                proto: json.get("proto")?,
                version: json.get("version")?,
            },
            "instances" => ResponseBody::Instances(json.get("instances")?),
            "text" => ResponseBody::Text(json.get("text")?),
            "metrics" => ResponseBody::Metrics(json.get("text")?),
            "deleted" => ResponseBody::Deleted(json.get("count")?),
            "updated" => ResponseBody::Updated(json.get("count")?),
            "pinned" => ResponseBody::Pinned {
                version: json.get("version")?,
            },
            "prepared" => ResponseBody::Prepared {
                handle: json.get("handle")?,
                base_version: json.get("base_version")?,
                touched: json.get("touched")?,
            },
            "committed" => ResponseBody::Committed {
                requests: json.get("requests")?,
                total_ops: json.get("total_ops")?,
            },
            "materialized" => ResponseBody::Materialized {
                instances: json.get("count")?,
            },
            "watching" => ResponseBody::Watching {
                watch: json.get("watch")?,
            },
            "changes" => ResponseBody::Changes(json.get("changes")?),
            "health" => ResponseBody::Health(json.field("report")?.clone()),
            "stats" => ResponseBody::Stats(json.field("report")?.clone()),
            "done" => ResponseBody::Done,
            other => return Err(NetError::Json(format!("unknown response kind `{other}`"))),
        };
        Ok(Response {
            id,
            result: Ok(body),
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
    /// First-committer-wins rejected a commit; `data` carries `relation`,
    /// `base_version`, `head_version`.
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

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("code", Json::str(self.code.as_str())),
            ("message", self.message.to_json()),
        ];
        if let Some(data) = &self.data {
            pairs.push(("data", data.clone()));
        }
        Json::obj(pairs)
    }

    fn from_json(json: &Json) -> NetResult<Self> {
        Ok(WireError {
            code: ErrorCode::from_str(json.field("code")?.as_str()?)?,
            message: json.get("message")?,
            data: json.field("data").ok().cloned(),
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
            .with_data(Json::obj(vec![("position", position.to_json())])),
            Error::Conflict {
                relation,
                base_version,
                head_version,
            } => WireError::new(ErrorCode::Conflict, e.to_string()).with_data(Json::obj(vec![
                ("relation", relation.to_json()),
                ("base_version", base_version.to_json()),
                ("head_version", head_version.to_json()),
            ])),
            Error::NoSuchRelation(_)
            | Error::NoSuchAttribute { .. }
            | Error::NoSuchTuple { .. } => WireError::new(ErrorCode::NotFound, e.to_string()),
            // A rolled-back transaction reports its cause's category.
            Error::Rolledback(inner) => WireError::from(inner.as_ref()),
            Error::Storage(_) | Error::Serialization(_) | Error::JournalOverflow { .. } => {
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

    /// Written straight or rendered from the tree, one text; read straight
    /// or through the tree, one value.
    fn roundtrip_request(req: Request) {
        let text = req.to_json().compact();
        assert_eq!(req.encode(), text);
        assert_eq!(Request::from_json(&parse(&text).unwrap()).unwrap(), req);
        assert_eq!(Request::decode(&text).unwrap(), req);
    }

    fn roundtrip_response(resp: Response) {
        let text = resp.to_json().compact();
        assert_eq!(resp.encode(), text);
        assert_eq!(Response::from_json(&parse(&text).unwrap()).unwrap(), resp);
        assert_eq!(Response::decode(&text).unwrap(), resp);
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
        // entries in another order decode through the tree, to the same value
        let prepare = r#"{"op":"PREPARE","id":3,"requests":[],"object":"omega"}"#;
        assert_eq!(
            Request::decode(prepare).unwrap(),
            Request::from_json(&parse(prepare).unwrap()).unwrap()
        );
        let get = r#"{"kind":"instances","id":3,"ok":true,"instances":[]}"#;
        assert_eq!(
            Response::decode(get).unwrap(),
            Response::from_json(&parse(get).unwrap()).unwrap()
        );
        // and what one refuses, so does the other
        for bad in [
            r#"{"id":3,"op":"PREPARE","object":"omega"}"#,
            r#"{"id":3,"op":"APPLY","object":"omega","requests":[{"kind":"replacement"}]}"#,
            r#"{"id":3,"op":"PREPARE","object":"omega","requests":[]} x"#,
        ] {
            assert!(Request::decode(bad).is_err(), "{bad}");
        }
        assert!(Response::decode(r#"{"id":3,"ok":true,"kind":"instances"}"#).is_err());
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
