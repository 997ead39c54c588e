//! Per-connection serving: handshake, request dispatch, cleanup.
//!
//! Each connection owns a pinned [`Session`], so every read-only request
//! (`GET`, `SHOW …`, `PREPARE`) sees one frozen version of the database no
//! matter what the writer commits meanwhile — the network mirror of the
//! embedded snapshot-isolation contract. The pin moves only when the
//! client sends `PIN`; sequential requests on one connection are
//! byte-stable against each other.
//!
//! Server-side per-connection resources are handle-addressed and cleaned
//! up on disconnect: prepared batches are one-shot handles consumed by
//! `COMMIT`, and watch subscriptions are dropped from the shared system
//! when the socket goes away, so an impolite client cannot leak journal
//! cursors.

use crate::frame::{read_frame_cancellable, write_frame, ServerRead, HEADER_BYTES};
use crate::proto::{
    ErrorCode, Request, RequestBody, Response, ResponseBody, WireError, PROTOCOL_VERSION,
};
use crate::server::{
    m_bytes_read, m_bytes_written, m_request_micros, m_requests_error, m_requests_ok,
    m_requests_rejected, Shared,
};
use crate::NetError;
use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vo_core::update::pipeline::PreparedBatch;
use vo_obs::json::{decode, encode, Json};
use vo_obs::trace;
use vo_penguin::{Session, VoqlOutcome, VoqlStatement, WatchId};

struct ConnState {
    session: Session,
    prepared: BTreeMap<u64, (String, PreparedBatch)>,
    next_handle: u64,
    watches: BTreeMap<u64, (String, WatchId)>,
    next_watch: u64,
}

/// Serve one admitted socket to completion.
pub(crate) fn serve(shared: &Arc<Shared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.opts.write_timeout));
    // Short read timeout = the stop-flag poll tick; patience for a started
    // frame is enforced separately by the cancellable reader.
    let _ = stream.set_read_timeout(Some(shared.opts.idle_tick));
    let mut sp = trace::span("net.accept");
    if sp.is_recording() {
        if let Ok(peer) = stream.peer_addr() {
            sp.field("peer", Json::str(peer.to_string()));
        }
    }
    let Some(mut state) = handshake(shared, &mut stream) else {
        return;
    };
    // the handshake is the accept's whole work: each request that follows
    // is the root of its own trace
    drop(sp);
    serve_loop(shared, &mut stream, &mut state);
    if !state.watches.is_empty() {
        let mut penguin = shared.penguin();
        for (_, (_, id)) in state.watches {
            penguin.unwatch(id);
        }
    }
}

/// Read one frame; `None` means the connection is done (close, stop, or a
/// framing error that was answered best-effort).
fn read_request_frame(shared: &Arc<Shared>, stream: &mut TcpStream) -> Option<Vec<u8>> {
    match read_frame_cancellable(
        stream,
        shared.opts.max_frame_bytes,
        shared.opts.read_timeout,
        &|| shared.stopping(),
    ) {
        Ok(ServerRead::Frame(payload)) => {
            let on_wire = (payload.len() + HEADER_BYTES) as u64;
            shared
                .tallies
                .bytes_read
                .fetch_add(on_wire, Ordering::Relaxed);
            m_bytes_read().add(on_wire);
            Some(payload)
        }
        Ok(ServerRead::Closed | ServerRead::Stopped) => None,
        Err(e) => {
            // The stream may be desynchronized past this point, so the
            // typed error is a parting gift: send, then close.
            shared
                .tallies
                .requests_error
                .fetch_add(1, Ordering::Relaxed);
            m_requests_error().inc();
            let response = Response {
                id: 0,
                result: Err(wire_from_net(&e)),
            };
            let _ = write_response(shared, stream, &response);
            None
        }
    }
}

fn handshake(shared: &Arc<Shared>, stream: &mut TcpStream) -> Option<ConnState> {
    let payload = read_request_frame(shared, stream)?;
    let request = match decode_request(&payload) {
        Ok(r) => r,
        Err(e) => {
            answer_error(shared, stream, 0, wire_from_net(&e));
            return None;
        }
    };
    let RequestBody::Hello { secret, proto } = &request.body else {
        answer_error(
            shared,
            stream,
            request.id,
            WireError::new(ErrorCode::BadRequest, "first request must be HELLO"),
        );
        return None;
    };
    if *proto != PROTOCOL_VERSION {
        answer_error(
            shared,
            stream,
            request.id,
            WireError::new(
                ErrorCode::Unsupported,
                format!("protocol {proto} not supported (server speaks {PROTOCOL_VERSION})"),
            ),
        );
        return None;
    }
    if shared.opts.secret.is_some() && *secret != shared.opts.secret {
        answer_error(
            shared,
            stream,
            request.id,
            WireError::new(ErrorCode::Auth, "bad or missing shared secret"),
        );
        return None;
    }
    let session = shared.penguin().session();
    let version = session.version();
    let state = ConnState {
        session,
        prepared: BTreeMap::new(),
        next_handle: 1,
        watches: BTreeMap::new(),
        next_watch: 1,
    };
    let hello = Response {
        id: request.id,
        result: Ok(ResponseBody::Hello {
            server: concat!("penguin-vo/", env!("CARGO_PKG_VERSION")).to_owned(),
            proto: PROTOCOL_VERSION,
            version,
        }),
    };
    if !write_response(shared, stream, &hello) {
        return None;
    }
    shared.tallies.requests_ok.fetch_add(1, Ordering::Relaxed);
    m_requests_ok().inc();
    Some(state)
}

fn serve_loop(shared: &Arc<Shared>, stream: &mut TcpStream, state: &mut ConnState) {
    loop {
        let Some(payload) = read_request_frame(shared, stream) else {
            return;
        };
        let request = match decode_request(&payload) {
            Ok(r) => r,
            Err(e) => {
                // The frame itself was sound, so the stream is still
                // synchronized: answer and keep serving.
                answer_error(shared, stream, 0, wire_from_net(&e));
                continue;
            }
        };
        match request.body {
            RequestBody::Bye => {
                let response = Response {
                    id: request.id,
                    result: Ok(ResponseBody::Done),
                };
                let _ = write_response(shared, stream, &response);
                shared.tallies.requests_ok.fetch_add(1, Ordering::Relaxed);
                m_requests_ok().inc();
                return;
            }
            RequestBody::Hello { .. } => {
                answer_error(
                    shared,
                    stream,
                    request.id,
                    WireError::new(ErrorCode::BadRequest, "connection already authenticated"),
                );
                continue;
            }
            body => {
                if !handle(shared, stream, state, request.id, body) {
                    return;
                }
            }
        }
    }
}

/// Gate, dispatch, meter, respond. Returns `false` when the socket died.
fn handle(
    shared: &Arc<Shared>,
    stream: &mut TcpStream,
    state: &mut ConnState,
    id: u64,
    body: RequestBody,
) -> bool {
    if !shared.try_acquire_inflight() {
        shared
            .tallies
            .requests_rejected
            .fetch_add(1, Ordering::Relaxed);
        m_requests_rejected().inc();
        let response = Response {
            id,
            result: Err(WireError::new(
                ErrorCode::Busy,
                format!(
                    "server at its limit of {} in-flight requests; retry",
                    shared.opts.max_inflight
                ),
            )),
        };
        return write_response(shared, stream, &response);
    }
    let started = Instant::now();
    let mut sp = trace::span("net.request");
    if sp.is_recording() {
        sp.field("op", Json::str(body.op()));
    }
    let result = dispatch(shared, state, body);
    shared.release_inflight();
    m_request_micros().record(started.elapsed().as_micros() as u64);
    match &result {
        Ok(_) => {
            shared.tallies.requests_ok.fetch_add(1, Ordering::Relaxed);
            m_requests_ok().inc();
        }
        Err(e) => {
            if sp.is_recording() {
                sp.field("error", Json::str(e.code.as_str()));
            }
            shared
                .tallies
                .requests_error
                .fetch_add(1, Ordering::Relaxed);
            m_requests_error().inc();
        }
    }
    write_response(shared, stream, &Response { id, result })
}

fn dispatch(
    shared: &Arc<Shared>,
    state: &mut ConnState,
    body: RequestBody,
) -> Result<ResponseBody, WireError> {
    match body {
        RequestBody::Voql { src } => {
            // Parse on the pinned session (no lock); route by statement
            // kind: reads stay on the snapshot, writes go to the head.
            let stmt = state
                .session
                .parse_voql(&src)
                .map_err(|e| WireError::from(&e))?;
            let outcome = match stmt {
                VoqlStatement::Delete { .. } | VoqlStatement::Update { .. } => {
                    // Run at the head: the write must see and validate
                    // against current state, not the connection's pin.
                    // (Objects are never redefined, so the statement
                    // parsed on the pin means the same there.)
                    vo_penguin::voql::execute(&mut shared.penguin(), stmt)
                }
                read => state.session.execute_voql(&read),
            }
            .map_err(|e| WireError::from(&e))?;
            Ok(match outcome {
                VoqlOutcome::Instances(instances) => ResponseBody::Instances(instances),
                VoqlOutcome::Text(text) => ResponseBody::Text(text),
                VoqlOutcome::Deleted(n) => ResponseBody::Deleted(n as u64),
                VoqlOutcome::Updated(n) => ResponseBody::Updated(n as u64),
            })
        }
        RequestBody::Pin => {
            state.session = shared.penguin().session();
            Ok(ResponseBody::Pinned {
                version: state.session.version(),
            })
        }
        RequestBody::Prepare { object, requests } => {
            let prepared = state
                .session
                .prepare_batch(&object, requests)
                .map_err(|e| WireError::from(&e))?;
            let handle = state.next_handle;
            state.next_handle += 1;
            let response = ResponseBody::Prepared {
                handle,
                base_version: prepared.base_version,
                touched: prepared.touched.iter().cloned().collect(),
            };
            state.prepared.insert(handle, (object, prepared));
            Ok(response)
        }
        RequestBody::Commit { handle } => {
            let (object, prepared) = state.prepared.remove(&handle).ok_or_else(|| {
                WireError::new(
                    ErrorCode::NotFound,
                    format!("no prepared batch with handle {handle} (handles are one-shot)"),
                )
            })?;
            let outcome = shared
                .penguin()
                .commit_prepared(&object, prepared)
                .map_err(|e| WireError::from(&e))?;
            Ok(ResponseBody::Committed {
                requests: outcome.outcomes.len() as u64,
                total_ops: outcome.total_ops as u64,
            })
        }
        RequestBody::Apply { object, requests } => {
            let outcome = shared
                .penguin()
                .apply_batch(&object, requests)
                .map_err(|e| WireError::from(&e))?;
            Ok(ResponseBody::Committed {
                requests: outcome.outcomes.len() as u64,
                total_ops: outcome.total_ops as u64,
            })
        }
        RequestBody::Materialize { object } => {
            let mut penguin = shared.penguin();
            let instances = penguin
                .materialize(&object)
                .map_err(|e| WireError::from(&e))?
                .len();
            Ok(ResponseBody::Materialized {
                instances: instances as u64,
            })
        }
        RequestBody::Watch { object } => {
            let id = shared
                .penguin()
                .watch(&object)
                .map_err(|e| WireError::from(&e))?;
            let watch = state.next_watch;
            state.next_watch += 1;
            state.watches.insert(watch, (object, id));
            Ok(ResponseBody::Watching { watch })
        }
        RequestBody::PollWatch { watch } => {
            let (object, id) = state.watches.get(&watch).ok_or_else(|| {
                WireError::new(ErrorCode::NotFound, format!("no watch with handle {watch}"))
            })?;
            let mut penguin = shared.penguin();
            penguin.refresh(object).map_err(|e| WireError::from(&e))?;
            let changes = penguin.poll_watch(*id).map_err(|e| WireError::from(&e))?;
            Ok(ResponseBody::Changes(changes))
        }
        RequestBody::Unwatch { watch } => {
            let (_, id) = state.watches.remove(&watch).ok_or_else(|| {
                WireError::new(ErrorCode::NotFound, format!("no watch with handle {watch}"))
            })?;
            shared.penguin().unwatch(id);
            Ok(ResponseBody::Done)
        }
        RequestBody::Health => {
            let penguin = shared.penguin();
            let mut inputs = penguin.health_inputs();
            inputs.net_active_connections = Some(shared.active.load(Ordering::Relaxed) as u64);
            inputs.net_connection_limit = Some(shared.opts.max_connections as u64);
            let report = penguin.health_policy().evaluate(&inputs);
            Ok(ResponseBody::Health(report.to_json()))
        }
        RequestBody::Metrics => Ok(ResponseBody::Metrics(vo_obs::metrics::expose_text())),
        RequestBody::Stats => Ok(ResponseBody::Stats(shared.stats().to_json())),
        RequestBody::Sleep { millis } => {
            if !shared.opts.enable_debug {
                return Err(WireError::new(
                    ErrorCode::Unsupported,
                    "SLEEP is only available on debug-enabled servers",
                ));
            }
            std::thread::sleep(Duration::from_millis(millis.min(5_000)));
            Ok(ResponseBody::Done)
        }
        RequestBody::Hello { .. } | RequestBody::Bye => Err(WireError::new(
            ErrorCode::BadRequest,
            "control op routed to dispatch",
        )),
    }
}

fn decode_request(payload: &[u8]) -> Result<Request, NetError> {
    let text = std::str::from_utf8(payload)
        .map_err(|_| NetError::Json("payload is not UTF-8".to_owned()))?;
    decode(text)
}

fn answer_error(shared: &Arc<Shared>, stream: &mut TcpStream, id: u64, error: WireError) {
    shared
        .tallies
        .requests_error
        .fetch_add(1, Ordering::Relaxed);
    m_requests_error().inc();
    let response = Response {
        id,
        result: Err(error),
    };
    let _ = write_response(shared, stream, &response);
}

/// Frame and send a response; on success account the bytes. A response
/// too big for the frame cap degrades to a typed `too_large` error so the
/// connection survives. Returns `false` when the socket is dead.
fn write_response(shared: &Arc<Shared>, stream: &mut TcpStream, response: &Response) -> bool {
    let payload = encode(response);
    match write_frame(stream, payload.as_bytes(), shared.opts.max_frame_bytes) {
        Ok(n) => {
            shared
                .tallies
                .bytes_written
                .fetch_add(n as u64, Ordering::Relaxed);
            m_bytes_written().add(n as u64);
            true
        }
        Err(NetError::FrameTooLarge { bytes, max }) => {
            let fallback = Response {
                id: response.id,
                result: Err(WireError::new(
                    ErrorCode::TooLarge,
                    format!("response of {bytes} bytes exceeds the {max}-byte frame cap"),
                )),
            };
            let payload = encode(&fallback);
            match write_frame(stream, payload.as_bytes(), shared.opts.max_frame_bytes) {
                Ok(n) => {
                    shared
                        .tallies
                        .bytes_written
                        .fetch_add(n as u64, Ordering::Relaxed);
                    m_bytes_written().add(n as u64);
                    true
                }
                Err(_) => false,
            }
        }
        Err(_) => false,
    }
}

fn wire_from_net(e: &NetError) -> WireError {
    match e {
        NetError::FrameTooLarge { .. } => WireError::new(ErrorCode::TooLarge, e.to_string()),
        NetError::CrcMismatch { .. } | NetError::Truncated { .. } => {
            WireError::new(ErrorCode::BadFrame, e.to_string())
        }
        NetError::Json(_) | NetError::Protocol(_) => {
            WireError::new(ErrorCode::BadRequest, e.to_string())
        }
        other => WireError::new(ErrorCode::Internal, other.to_string()),
    }
}
