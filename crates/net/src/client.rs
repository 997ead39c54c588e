//! A blocking client for the PENGUIN wire protocol.
//!
//! [`VoClient`] is deliberately simple: one socket, one request in flight,
//! correlation ids checked on every response. When a request fails at the
//! transport layer the socket is marked dead and — with
//! [`ClientOptions::reconnect`] on — the *next* request dials and
//! re-handshakes transparently. Reconnection restores the transport only:
//! the server pins a **fresh** session for the new connection and any
//! prepared-batch or watch handles from the old one are gone, exactly as
//! if the client had disconnected politely. Code that depends on a pinned
//! snapshot should treat a [`NetError::Disconnected`]/[`NetError::Io`]
//! answer as "re-pin and re-prepare".

use crate::frame::{read_frame, write_frame};
use crate::proto::{Request, RequestBody, Response, ResponseBody, PROTOCOL_VERSION};
use crate::{NetError, NetResult};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;
use vo_core::instance::VoInstance;
use vo_core::maintain::InstanceChange;
use vo_core::update::UpdateRequest;
use vo_obs::json::{decode, encode, Json};

/// Knobs for [`VoClient::connect`].
#[derive(Debug, Clone)]
pub struct ClientOptions {
    /// Shared secret to present in `HELLO`.
    pub secret: Option<String>,
    /// Dial timeout.
    pub connect_timeout: Duration,
    /// Per-request socket read/write timeout.
    pub io_timeout: Duration,
    /// Cap on one frame's payload, both directions.
    pub max_frame_bytes: usize,
    /// Redial transparently on the next request after a transport failure.
    pub reconnect: bool,
}

impl Default for ClientOptions {
    fn default() -> Self {
        ClientOptions {
            secret: None,
            connect_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(10),
            max_frame_bytes: crate::frame::DEFAULT_MAX_FRAME_BYTES,
            reconnect: true,
        }
    }
}

/// What the server said in its `HELLO` response.
#[derive(Debug, Clone, PartialEq)]
pub struct HelloInfo {
    /// Server identification string, e.g. `penguin-vo/0.1.0`.
    pub server: String,
    /// Server protocol version.
    pub proto: i64,
    /// Database version this connection's session is pinned at.
    pub version: u64,
}

/// Outcome of [`VoClient::voql`], mirroring [`vo_penguin::VoqlOutcome`]
/// across the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum VoqlResult {
    /// Instances returned by `GET`.
    Instances(Vec<VoInstance>),
    /// Instances deleted.
    Deleted(u64),
    /// Instances updated.
    Updated(u64),
    /// `SHOW …` text.
    Text(String),
}

/// A blocking connection to a [`crate::VoServer`].
#[derive(Debug)]
pub struct VoClient {
    addr: String,
    opts: ClientOptions,
    stream: Option<TcpStream>,
    next_id: u64,
    hello: Option<HelloInfo>,
}

impl VoClient {
    /// Dial `addr` (e.g. `"127.0.0.1:7878"`) and perform the handshake.
    pub fn connect(addr: impl Into<String>, opts: ClientOptions) -> NetResult<VoClient> {
        let mut client = VoClient {
            addr: addr.into(),
            opts,
            stream: None,
            next_id: 1,
            hello: None,
        };
        client.dial()?;
        Ok(client)
    }

    /// The `HELLO` payload of the current connection, when one is up.
    pub fn hello(&self) -> Option<&HelloInfo> {
        self.hello.as_ref()
    }

    fn dial(&mut self) -> NetResult<()> {
        self.stream = None;
        self.hello = None;
        let target = self.addr.to_socket_addrs()?.next().ok_or_else(|| {
            NetError::Protocol(format!("address `{}` resolves to nothing", self.addr))
        })?;
        let stream = TcpStream::connect_timeout(&target, self.opts.connect_timeout)?;
        let _ = stream.set_nodelay(true);
        stream.set_read_timeout(Some(self.opts.io_timeout))?;
        stream.set_write_timeout(Some(self.opts.io_timeout))?;
        self.stream = Some(stream);
        let id = self.fresh_id();
        let body = RequestBody::Hello {
            secret: self.opts.secret.clone(),
            proto: PROTOCOL_VERSION,
        };
        match self.roundtrip(id, &body) {
            Ok(ResponseBody::Hello {
                server,
                proto,
                version,
            }) => {
                self.hello = Some(HelloInfo {
                    server,
                    proto,
                    version,
                });
                Ok(())
            }
            Ok(other) => {
                self.stream = None;
                Err(NetError::Protocol(format!(
                    "handshake answered with unexpected {other:?}"
                )))
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Send one request and wait for its response. Heals a dead transport
    /// first when reconnection is enabled; marks the transport dead on any
    /// transport-layer failure (typed server errors leave it healthy).
    pub fn request(&mut self, body: RequestBody) -> NetResult<ResponseBody> {
        if self.stream.is_none() {
            if !self.opts.reconnect {
                return Err(NetError::Disconnected);
            }
            self.dial()?;
        }
        let id = self.fresh_id();
        let result = self.roundtrip(id, &body);
        if matches!(
            result,
            Err(NetError::Io(_)
                | NetError::Disconnected
                | NetError::Truncated { .. }
                | NetError::CrcMismatch { .. }
                | NetError::Protocol(_))
        ) {
            self.stream = None;
            self.hello = None;
        }
        result
    }

    fn roundtrip(&mut self, id: u64, body: &RequestBody) -> NetResult<ResponseBody> {
        let stream = self.stream.as_mut().ok_or(NetError::Disconnected)?;
        let request = Request {
            id,
            body: body.clone(),
        };
        write_frame(
            stream,
            encode(&request).as_bytes(),
            self.opts.max_frame_bytes,
        )?;
        let payload =
            read_frame(stream, self.opts.max_frame_bytes)?.ok_or(NetError::Disconnected)?;
        let text = std::str::from_utf8(&payload)
            .map_err(|_| NetError::Json("response is not UTF-8".to_owned()))?;
        let response: Response = decode(text)?;
        // id 0 marks a connection-level error the server sent before it
        // could attribute a request (admission rejection, broken frame).
        if response.id != id && response.id != 0 {
            return Err(NetError::Protocol(format!(
                "response correlates to id {}, expected {id}",
                response.id
            )));
        }
        response.result.map_err(NetError::Remote)
    }

    fn expect_done(&mut self, body: RequestBody) -> NetResult<()> {
        match self.request(body)? {
            ResponseBody::Done => Ok(()),
            other => Err(unexpected("done", &other)),
        }
    }

    // ------------------------------------------------------ typed calls --

    /// Run one VOQL statement.
    pub fn voql(&mut self, src: &str) -> NetResult<VoqlResult> {
        match self.request(RequestBody::Voql { src: src.into() })? {
            ResponseBody::Instances(instances) => Ok(VoqlResult::Instances(instances)),
            ResponseBody::Deleted(n) => Ok(VoqlResult::Deleted(n)),
            ResponseBody::Updated(n) => Ok(VoqlResult::Updated(n)),
            ResponseBody::Text(text) => Ok(VoqlResult::Text(text)),
            other => Err(unexpected("voql outcome", &other)),
        }
    }

    /// Re-pin the connection's session at the server's current head;
    /// returns the pinned version.
    pub fn pin(&mut self) -> NetResult<u64> {
        match self.request(RequestBody::Pin)? {
            ResponseBody::Pinned { version } => Ok(version),
            other => Err(unexpected("pinned", &other)),
        }
    }

    /// Translate a batch against the pinned snapshot server-side; returns
    /// `(handle, base_version, touched relations)`.
    pub fn prepare(
        &mut self,
        object: &str,
        requests: Vec<UpdateRequest>,
    ) -> NetResult<(u64, u64, Vec<String>)> {
        match self.request(RequestBody::Prepare {
            object: object.into(),
            requests,
        })? {
            ResponseBody::Prepared {
                handle,
                base_version,
                touched,
            } => Ok((handle, base_version, touched)),
            other => Err(unexpected("prepared", &other)),
        }
    }

    /// Commit a prepared batch; returns `(requests, total_ops)`. A
    /// first-committer-wins loss surfaces as [`NetError::Remote`] with
    /// [`crate::ErrorCode::Conflict`].
    pub fn commit(&mut self, handle: u64) -> NetResult<(u64, u64)> {
        match self.request(RequestBody::Commit { handle })? {
            ResponseBody::Committed {
                requests,
                total_ops,
            } => Ok((requests, total_ops)),
            other => Err(unexpected("committed", &other)),
        }
    }

    /// Translate and commit a batch directly at the head. A write-back of
    /// an instance that changed since it was read surfaces as
    /// [`NetError::Remote`] with [`crate::ErrorCode::Conflict`], like a
    /// lost commit.
    pub fn apply(&mut self, object: &str, requests: Vec<UpdateRequest>) -> NetResult<(u64, u64)> {
        match self.request(RequestBody::Apply {
            object: object.into(),
            requests,
        })? {
            ResponseBody::Committed {
                requests,
                total_ops,
            } => Ok((requests, total_ops)),
            other => Err(unexpected("committed", &other)),
        }
    }

    /// Materialize an object server-side; returns its instance count.
    pub fn materialize(&mut self, object: &str) -> NetResult<u64> {
        match self.request(RequestBody::Materialize {
            object: object.into(),
        })? {
            ResponseBody::Materialized { instances } => Ok(instances),
            other => Err(unexpected("materialized", &other)),
        }
    }

    /// Subscribe to instance-level changes; returns the watch handle.
    pub fn watch(&mut self, object: &str) -> NetResult<u64> {
        match self.request(RequestBody::Watch {
            object: object.into(),
        })? {
            ResponseBody::Watching { watch } => Ok(watch),
            other => Err(unexpected("watching", &other)),
        }
    }

    /// Refresh the watched view server-side and drain pending changes.
    pub fn poll_watch(&mut self, watch: u64) -> NetResult<Vec<InstanceChange>> {
        match self.request(RequestBody::PollWatch { watch })? {
            ResponseBody::Changes(changes) => Ok(changes),
            other => Err(unexpected("changes", &other)),
        }
    }

    /// Drop a watch subscription.
    pub fn unwatch(&mut self, watch: u64) -> NetResult<()> {
        self.expect_done(RequestBody::Unwatch { watch })
    }

    /// Evaluate the server's health policy; returns the report JSON.
    pub fn health(&mut self) -> NetResult<Json> {
        match self.request(RequestBody::Health)? {
            ResponseBody::Health(report) => Ok(report),
            other => Err(unexpected("health", &other)),
        }
    }

    /// Text exposition of the server's metrics registry.
    pub fn metrics(&mut self) -> NetResult<String> {
        match self.request(RequestBody::Metrics)? {
            ResponseBody::Metrics(text) => Ok(text),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// Server admission/traffic counters as JSON.
    pub fn stats(&mut self) -> NetResult<Json> {
        match self.request(RequestBody::Stats)? {
            ResponseBody::Stats(report) => Ok(report),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// Debug-only: hold an in-flight permit server-side for `millis`.
    pub fn sleep(&mut self, millis: u64) -> NetResult<()> {
        self.expect_done(RequestBody::Sleep { millis })
    }

    /// Polite goodbye: `BYE`, then drop the transport. Errors are
    /// swallowed — closing a dead connection is fine.
    pub fn close(&mut self) {
        if self.stream.is_some() {
            let _ = self.expect_done(RequestBody::Bye);
        }
        self.stream = None;
        self.hello = None;
    }
}

impl Drop for VoClient {
    fn drop(&mut self) {
        self.close();
    }
}

fn unexpected(wanted: &str, got: &ResponseBody) -> NetError {
    NetError::Protocol(format!("expected {wanted} response, got {got:?}"))
}
