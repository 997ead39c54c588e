//! End-to-end tests for the network layer over real loopback sockets:
//! concurrent clients against the serial-oracle, typed conflicts across
//! the wire, backpressure, wire-protocol robustness, and pinned-session
//! stability under a concurrent writer.

use penguin_vo::net::frame::{write_frame, DEFAULT_MAX_FRAME_BYTES, HEADER_BYTES};
use penguin_vo::obs::json::{encode, Json};
use penguin_vo::obs::slowlog;
use penguin_vo::obs::trace::{self, SpanEvent};
use penguin_vo::prelude::*;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn fixture() -> Penguin {
    let mut p = Penguin::new(university_schema());
    p.with_database_mut(seed_figure4).unwrap().unwrap();
    p.define_object(
        "omega",
        "COURSES",
        &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
    )
    .unwrap();
    p.define_object("students", "STUDENT", &[]).unwrap();
    for name in ["omega", "students"] {
        let obj = p.object(name).unwrap().object.clone();
        p.install_translator(name, Translator::permissive(&obj))
            .unwrap();
    }
    p
}

fn start(opts: ServerOptions) -> (VoServer, String) {
    let server = VoServer::start(fixture(), opts).unwrap();
    let addr = server.addr().to_string();
    (server, addr)
}

fn client(addr: &str) -> VoClient {
    VoClient::connect(addr, ClientOptions::default()).unwrap()
}

/// Render instances the way the oracle comparison wants them: their wire
/// text, byte for byte.
fn render(instances: &[VoInstance]) -> Vec<String> {
    instances.iter().map(encode).collect()
}

// ---------------------------------------------------------------- oracle --

/// 4 concurrent reader clients, each pinned at a known version while a
/// writer client keeps committing: every GET must be byte-equal to a
/// serial re-instantiation of a detached clone replaying the same updates
/// up to the reader's pinned version.
#[test]
fn concurrent_reads_match_serial_oracle_at_pinned_versions() {
    const WRITES: usize = 6;
    const READERS: usize = 4;
    const READS_PER_READER: usize = 8;

    // The writer's deterministic update sequence: each VOQL UPDATE matches
    // exactly one instance, so each one commits exactly one version bump.
    let updates: Vec<String> = (0..WRITES)
        .map(|i| {
            let title = if i % 2 == 0 { "databases" } else { "signals" };
            let course = if i % 2 == 0 { "CS345" } else { "EE282" };
            format!("UPDATE omega SET title = '{title} v{i}' WHERE course_id = '{course}'")
        })
        .collect();

    // Oracle: a detached clone of the same fixture replays the updates
    // serially, recording instances after each commit. oracle[k] is the
    // state after k updates.
    let mut shadow = fixture();
    let v0 = shadow.database().version();
    let mut oracle: Vec<Vec<String>> = vec![render(&shadow.instantiate_all("omega").unwrap())];
    for update in &updates {
        match run_voql(&mut shadow, update).unwrap() {
            VoqlOutcome::Updated(1) => {}
            other => panic!("oracle update produced {other:?}"),
        }
        oracle.push(render(&shadow.instantiate_all("omega").unwrap()));
    }

    let (server, addr) = start(ServerOptions {
        workers: READERS + 1,
        ..ServerOptions::default()
    });

    std::thread::scope(|scope| {
        let addr = addr.as_str();
        let oracle = &oracle;
        let readers: Vec<_> = (0..READERS)
            .map(|_| {
                scope.spawn(move || {
                    let mut c = client(addr);
                    let mut checked = 0usize;
                    for _ in 0..READS_PER_READER {
                        // Pin, then read twice: both reads must see the
                        // pinned version even if the writer moves on.
                        let version = c.pin().unwrap();
                        for _ in 0..2 {
                            let VoqlResult::Instances(instances) = c.voql("GET omega").unwrap()
                            else {
                                panic!("GET returned a non-instances outcome")
                            };
                            let k = (version - v0) as usize;
                            assert_eq!(
                                render(&instances),
                                oracle[k],
                                "a read pinned at version {version} diverged from the \
                                 serial oracle at step {k}"
                            );
                            checked += 1;
                        }
                    }
                    checked
                })
            })
            .collect();

        // The writer commits through the same server while readers race.
        let mut w = client(addr);
        for update in &updates {
            assert_eq!(w.voql(update).unwrap(), VoqlResult::Updated(1));
            std::thread::sleep(Duration::from_millis(5));
        }

        let total: usize = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert_eq!(total, READERS * READS_PER_READER * 2);
    });

    // Zero protocol errors: every request on every connection succeeded.
    let stats = server.stats();
    assert_eq!(stats.requests_error, 0);
    assert_eq!(stats.requests_rejected, 0);
    assert_eq!(stats.conns_rejected, 0);
    assert_eq!(stats.conns_accepted, READERS as u64 + 1);
}

// -------------------------------------------------------------- conflict --

/// Two clients prepare batches over the same relation at the same pinned
/// version; both commit. Exactly one succeeds and the other receives a
/// typed `conflict` wire error carrying base and head versions — then
/// retries by re-pinning and wins.
#[test]
fn concurrent_commit_conflicts_surface_as_typed_wire_errors() {
    // Three live connections (a, b, and the final checker) each occupy a
    // worker for their lifetime.
    let (_server, addr) = start(ServerOptions {
        workers: 3,
        ..ServerOptions::default()
    });
    let mut a = client(&addr);
    let mut b = client(&addr);

    // Both pin the same version and prepare a deletion touching STUDENT.
    let va = a.pin().unwrap();
    let vb = b.pin().unwrap();
    assert_eq!(va, vb);

    let prepare = |c: &mut VoClient, ssn: i64| {
        let VoqlResult::Instances(instances) =
            c.voql(&format!("GET students WHERE ssn = {ssn}")).unwrap()
        else {
            panic!("GET returned a non-instances outcome")
        };
        assert_eq!(instances.len(), 1);
        let (handle, base, touched) = c
            .prepare(
                "students",
                vec![UpdateRequest::CompleteDeletion(instances[0].clone())],
            )
            .unwrap();
        assert_eq!(base, va);
        assert!(touched.contains(&"STUDENT".to_owned()));
        handle
    };
    let ha = prepare(&mut a, 9);
    let hb = prepare(&mut b, 10);

    // First committer wins…
    a.commit(ha).unwrap();
    // …and the second gets the typed conflict with both versions.
    let err = b.commit(hb).unwrap_err();
    assert!(err.is_code(ErrorCode::Conflict), "got {err:?}");
    let NetError::Remote(wire) = err else {
        unreachable!()
    };
    let data = wire.data.expect("conflict carries structured data");
    assert_eq!(data.field("relation").unwrap().as_str().unwrap(), "STUDENT");
    assert_eq!(
        data.field("base_version").unwrap().as_i64().unwrap() as u64,
        vb
    );
    assert!(data.field("head_version").unwrap().as_i64().unwrap() as u64 > vb);

    // The loser's handle was consumed: committing again is NotFound.
    let err = b.commit(hb).unwrap_err();
    assert!(err.is_code(ErrorCode::NotFound), "got {err:?}");

    // Retry protocol over the wire: re-pin, re-prepare, commit.
    assert!(b.pin().unwrap() > vb);
    let hb2 = {
        let VoqlResult::Instances(instances) = b.voql("GET students WHERE ssn = 10").unwrap()
        else {
            panic!("GET returned a non-instances outcome")
        };
        b.prepare(
            "students",
            vec![UpdateRequest::CompleteDeletion(instances[0].clone())],
        )
        .unwrap()
        .0
    };
    b.commit(hb2).unwrap();

    // Both students are gone from the head now.
    let mut c = client(&addr);
    let VoqlResult::Instances(instances) = c.voql("GET students").unwrap() else {
        panic!("GET returned a non-instances outcome")
    };
    assert!(instances
        .iter()
        .all(|i| !matches!(i.root.tuple.values().first(), Some(Value::Int(9 | 10)))));
}

// ------------------------------------------------------- statement = batch --

/// One VOQL write statement is one batch, over the wire and down to the
/// log. Against a *persistent* server: a multi-match UPDATE that fails at
/// its second match gets a typed error reply and leaves nothing behind —
/// ω re-read at a fresh pin is byte-equal and the WAL did not grow — and
/// a DELETE matching two instances is exactly one commit and one WAL
/// record.
///
/// Commits are counted by the server's own database version (it moves
/// with `relational.commits`, which is process-wide and shared with the
/// other tests of this binary); the `store.wal.*` counters are exact
/// because a test of a persistent system holds [`one_store`].
#[test]
fn voql_write_statements_are_atomic_over_the_wire() {
    let _one_store = one_store();
    let dir = std::env::temp_dir().join(format!("vo_net_e2e_atomic_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut p = Penguin::persistent(&dir, university_schema()).unwrap();
    p.with_database_mut(seed_figure4).unwrap().unwrap();
    p.define_object(
        "omega",
        "COURSES",
        &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
    )
    .unwrap();
    // the paper's translator refuses a key replacement onto a live key
    p.choose_translator("omega", &mut paper_dialog_responder())
        .unwrap();
    // registering ω built indexes; checkpoint that structural drift now so
    // the statements below reach the log as records
    p.persist_pending().unwrap();
    let server = VoServer::start(p, ServerOptions::default()).unwrap();
    let mut c = client(&server.addr().to_string());
    let read_omega = |c: &mut VoClient| {
        c.pin().unwrap();
        let VoqlResult::Instances(instances) = c.voql("GET omega").unwrap() else {
            panic!("GET returned a non-instances outcome")
        };
        render(&instances)
    };
    let version = |server: &VoServer| server.with_penguin(|p| p.database().version());
    // the WAL is written on the server's threads, which no capture here
    // sees: cross-thread counts stay registry reads
    let counter = |name: &str| penguin_vo::obs::metrics::counter(name).get();

    // -- the failing statement: CS101 and CS345 both re-keyed to ZZ999 --
    let before = read_omega(&mut c);
    let (v0, bytes0) = (version(&server), counter("store.wal.bytes_appended"));
    let err = c
        .voql("UPDATE omega SET course_id = 'ZZ999' WHERE dept_name = 'Computer Science'")
        .unwrap_err();
    assert!(err.is_code(ErrorCode::BadRequest), "got {err:?}");
    assert!(err.to_string().contains("collides"), "got {err}");
    assert_eq!(read_omega(&mut c), before);
    assert_eq!(version(&server), v0);
    assert_eq!(counter("store.wal.bytes_appended"), bytes0);

    // -- the succeeding statement: two instances, one transaction --
    let records0 = counter("store.wal.records_appended");
    assert_eq!(
        c.voql("DELETE omega WHERE dept_name = 'Computer Science'")
            .unwrap(),
        VoqlResult::Deleted(2)
    );
    assert_eq!(version(&server), v0 + 1);
    assert_eq!(counter("store.wal.records_appended"), records0 + 1);
    assert_eq!(read_omega(&mut c).len(), before.len() - 2);

    drop(c);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

/// The process-wide `store.wal.*` counters are exact only while one
/// persistent system writes: each test that starts one holds this.
fn one_store() -> MutexGuard<'static, ()> {
    static PERSISTENT: Mutex<()> = Mutex::new(());
    PERSISTENT
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// An `APPLY` of an instance read before an SQL change loses the way a
/// first-committer-wins commit does: a retryable `Conflict` naming the
/// tuple that moved, and nothing committed or logged.
#[test]
fn a_stale_write_back_is_a_typed_conflict_and_writes_nothing() {
    let _one_store = one_store();
    let dir = std::env::temp_dir().join(format!("vo_net_e2e_stale_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut p = Penguin::persistent(&dir, university_schema()).unwrap();
    p.with_database_mut(seed_figure4).unwrap().unwrap();
    p.define_object(
        "omega",
        "COURSES",
        &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
    )
    .unwrap();
    let omega = p.object("omega").unwrap().object.clone();
    p.install_translator("omega", Translator::permissive(&omega))
        .unwrap();
    p.persist_pending().unwrap();
    let courses = p.database().table("COURSES").unwrap().schema().clone();
    let server = VoServer::start(p, ServerOptions::default()).unwrap();
    let mut c = client(&server.addr().to_string());

    let VoqlResult::Instances(mut read) = c.voql("GET omega WHERE course_id = 'CS345'").unwrap()
    else {
        panic!("GET returned a non-instances outcome")
    };
    let old = read.remove(0);
    server
        .with_penguin(|p| p.sql("UPDATE GRADES SET grade = 'F' WHERE course_id = 'CS345'"))
        .unwrap();
    let version = |server: &VoServer| server.with_penguin(|p| p.database().version());
    let counter = |name: &str| penguin_vo::obs::metrics::counter(name).get();
    let (v0, bytes0) = (version(&server), counter("store.wal.bytes_appended"));

    let mut new = old.clone();
    new.root.tuple = (old.root.tuple)
        .with_named(&courses, "title", "Retitled".into())
        .unwrap();
    let err = c
        .apply("omega", vec![UpdateRequest::Replacement { old, new }])
        .unwrap_err();
    assert!(err.is_code(ErrorCode::Conflict), "got {err:?}");
    let NetError::Remote(wire) = err else {
        unreachable!()
    };
    let data = wire.data.expect("a stale refusal carries structured data");
    assert_eq!(data.field("relation").unwrap().as_str().unwrap(), "GRADES");
    assert_eq!(data.field("key").unwrap().as_str().unwrap(), "('CS345', 1)");
    assert_eq!(version(&server), v0);
    assert_eq!(counter("store.wal.bytes_appended"), bytes0);

    drop(c);
    drop(server);
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------- backpressure --

/// With one in-flight permit, a slow request on one connection forces the
/// next request on another connection into a typed `busy` rejection within
/// the timeout — and the admission counters account for it.
#[test]
fn saturated_server_answers_busy_and_counts_it() {
    let (server, addr) = start(ServerOptions {
        workers: 2,
        max_inflight: 1,
        enable_debug: true,
        ..ServerOptions::default()
    });
    let mut slow = client(&addr);
    let mut fast = client(&addr);

    std::thread::scope(|scope| {
        let hog = scope.spawn(move || {
            slow.sleep(600).unwrap(); // holds the single permit
            slow
        });
        // Give the SLEEP a moment to take the permit, then collide.
        std::thread::sleep(Duration::from_millis(150));
        let started = Instant::now();
        let err = fast.voql("GET omega").unwrap_err();
        assert!(
            err.is_code(ErrorCode::Busy),
            "expected a typed busy rejection, got {err:?}"
        );
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "busy must be answered promptly, not after the hog finishes"
        );
        // The connection survived the rejection: the same client succeeds
        // once the permit frees up.
        let _slow = hog.join().unwrap();
        let outcome = fast.voql("GET omega").unwrap();
        assert!(matches!(outcome, VoqlResult::Instances(_)));
    });

    let stats = server.stats();
    assert_eq!(stats.conns_accepted, 2);
    assert_eq!(stats.conns_rejected, 0);
    assert_eq!(stats.requests_rejected, 1, "exactly one busy rejection");
    assert!(stats.requests_ok >= 4, "hello x2, sleep, retried GET");
}

/// Past `max_connections`, a fresh socket is turned away with a typed
/// `conn_limit` error — and the counters split accepted from rejected.
#[test]
fn connection_limit_rejects_with_typed_error() {
    let (server, addr) = start(ServerOptions {
        workers: 2,
        max_connections: 2,
        ..ServerOptions::default()
    });
    let _a = client(&addr);
    let _b = client(&addr);
    // Admission happens on the accept thread; give the two sockets a
    // moment to be admitted before the third knocks.
    std::thread::sleep(Duration::from_millis(100));
    match VoClient::connect(&addr, ClientOptions::default()) {
        Err(e) if e.is_code(ErrorCode::ConnLimit) => {}
        other => panic!("expected a typed conn_limit rejection, got {other:?}"),
    }
    let stats = server.stats();
    assert_eq!(stats.conns_accepted, 2);
    assert_eq!(stats.conns_rejected, 1);
}

// ------------------------------------------------------------ robustness --

/// Raw-socket abuse: every malformed input must produce a typed error (or
/// a clean close) and leave the server healthy for the next client.
#[test]
fn malformed_wire_input_never_kills_the_server() {
    let (_server, addr) = start(ServerOptions {
        workers: 2,
        secret: Some("hunter2".to_owned()),
        max_frame_bytes: 64 * 1024,
        ..ServerOptions::default()
    });

    let read_error_code = |stream: &mut TcpStream| -> Option<String> {
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let payload =
            penguin_vo::net::frame::read_frame(stream, DEFAULT_MAX_FRAME_BYTES).ok()??;
        let json = vo_obs::json::parse(std::str::from_utf8(&payload).ok()?).ok()?;
        Some(
            json.field("error")
                .ok()?
                .field("code")
                .ok()?
                .as_str()
                .ok()?
                .to_owned(),
        )
    };

    // 1. A fabricated 4 GiB length header.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        let mut frame = (u32::MAX).to_le_bytes().to_vec();
        frame.extend_from_slice(&0u32.to_le_bytes());
        s.write_all(&frame).unwrap();
        assert_eq!(read_error_code(&mut s).as_deref(), Some("too_large"));
    }

    // 2. A payload larger than the server's cap (announced honestly).
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        let huge = vec![b'x'; 128 * 1024];
        write_frame(&mut s, &huge, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(read_error_code(&mut s).as_deref(), Some("too_large"));
    }

    // 3. A CRC bit-flip.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        let mut frame = Vec::new();
        write_frame(
            &mut frame,
            br#"{"id":1,"op":"HELLO"}"#,
            DEFAULT_MAX_FRAME_BYTES,
        )
        .unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        s.write_all(&frame).unwrap();
        assert_eq!(read_error_code(&mut s).as_deref(), Some("bad_frame"));
    }

    // 4. A truncated frame: header promises more than ever arrives. The
    //    server must cut the connection off (patience timeout) rather
    //    than hang; any response or a clean close is acceptable.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        let mut frame = 100u32.to_le_bytes().to_vec();
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(b"only twenty bytes...");
        s.write_all(&frame).unwrap();
        s.shutdown(std::net::Shutdown::Write).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut sink = Vec::new();
        let _ = s.read_to_end(&mut sink); // must return, not hang
    }

    // 5. Valid frame, invalid JSON.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        write_frame(&mut s, b"this is not json{{", DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(read_error_code(&mut s).as_deref(), Some("bad_request"));
    }

    // 6. Wrong shared secret.
    {
        match VoClient::connect(
            &addr,
            ClientOptions {
                secret: Some("wrong".to_owned()),
                ..ClientOptions::default()
            },
        ) {
            Err(e) if e.is_code(ErrorCode::Auth) => {}
            other => panic!("expected a typed auth error, got {other:?}"),
        }
    }

    // 7. First request is not HELLO.
    {
        let mut s = TcpStream::connect(&addr).unwrap();
        write_frame(&mut s, br#"{"id":5,"op":"STATS"}"#, DEFAULT_MAX_FRAME_BYTES).unwrap();
        assert_eq!(read_error_code(&mut s).as_deref(), Some("bad_request"));
    }

    // After all that abuse a well-behaved client still gets served.
    let mut c = VoClient::connect(
        &addr,
        ClientOptions {
            secret: Some("hunter2".to_owned()),
            ..ClientOptions::default()
        },
    )
    .unwrap();
    assert!(matches!(c.voql("GET omega"), Ok(VoqlResult::Instances(_))));
}

/// VOQL parse errors cross the wire with their byte offset intact.
#[test]
fn voql_parse_errors_carry_byte_offsets_across_the_wire() {
    let (_server, addr) = start(ServerOptions::default());
    let mut c = client(&addr);
    let src = "GET omega WHRE level = 'graduate'";
    let err = c.voql(src).unwrap_err();
    assert!(err.is_code(ErrorCode::Parse), "got {err:?}");
    let NetError::Remote(wire) = err else {
        unreachable!()
    };
    let position = wire
        .data
        .expect("parse errors carry data")
        .field("position")
        .unwrap()
        .as_i64()
        .unwrap() as usize;
    assert_eq!(position, src.find("WHRE").unwrap());
}

// ------------------------------------------------- one reader, one plan --

/// A wire `GET` runs the same read the head and a session run, over the
/// plan the object was registered with: the three answers are byte-equal
/// and each read is counted as served by a built plan.
#[test]
fn wire_get_head_and_session_share_one_reader_over_the_registered_plan() {
    const N: u64 = 20;
    let hits = "penguin.plan_cache.hits";
    let served = penguin_vo::obs::metrics::counter(hits);
    let head = fixture();
    let session = head.session();
    let (_server, addr) = start(ServerOptions::default());
    let mut c = client(&addr);
    let get = "GET omega WHERE level = 'graduate' AND COUNT(STUDENT) < 5";
    let VoqlOutcome::Instances(expected) = session.voql(get).unwrap() else {
        panic!("GET returned a non-instances outcome")
    };
    assert_eq!(expected.len(), 1);

    let penguin_vo::penguin::VoqlStatement::Get { object, query } =
        session.parse_voql(get).unwrap()
    else {
        panic!("GET parsed as something else")
    };

    let before = served.get();
    let ((), here) = trace::capture(|| {
        for _ in 0..N {
            let VoqlResult::Instances(wire) = c.voql(get).unwrap() else {
                panic!("GET returned a non-instances outcome")
            };
            assert_eq!(render(&wire), render(&expected));
            assert_eq!(
                render(&head.query(&object, &query).unwrap()),
                render(&expected)
            );
            assert_eq!(
                render(&session.query(&object, &query).unwrap()),
                render(&expected)
            );
        }
    });
    // the head's and the session's reads ran on this thread: exactly 2N
    assert_eq!(here.count(hits), 2 * N);
    // the wire's ran on the server's connection thread, which no capture
    // here sees: a registry read, a lower bound while other tests read too
    assert!(served.get() >= before + 3 * N);
}

/// With a threshold on `net.request`, a slow wire `GET` is kept with its
/// own dispatch tree and nothing else: the request is the root (the
/// connection's `net.accept` closed at the handshake), the instantiation
/// hangs under it, and its counts are that one request's.
#[test]
fn a_slow_wire_request_is_kept_as_its_own_tree() {
    let mut p = fixture();
    // an object no other test reads, to find this request's tree among
    // what concurrent tests' requests leave in the process-global log
    p.define_object("kept", "DEPARTMENT", &[]).unwrap();
    let server = VoServer::start(p, ServerOptions::default()).unwrap();
    // registered before the connection opens, so its accept records too
    slowlog::threshold("net.request", Duration::from_micros(1));
    let mut c = client(&server.addr().to_string());
    let VoqlResult::Instances(instances) = c.voql("GET kept").unwrap() else {
        panic!("GET returned a non-instances outcome")
    };
    assert_eq!(instances.len(), 2);

    // the request's span closes after its reply is written: wait for it
    let reads_kept = |e: &SpanEvent| {
        e.name == "core.instantiate" && e.field("object") == Some(&Json::str("kept"))
    };
    let kept = || -> Vec<SlowOp> {
        (slowlog::entries().into_iter())
            .filter(|o| o.event.name == "net.request" && o.trace.spans.iter().any(reads_kept))
            .collect()
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while kept().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    slowlog::clear_threshold("net.request");
    let ops = kept();
    assert_eq!(ops.len(), 1, "{ops:#?}");
    let (op, spans) = (&ops[0], &ops[0].trace.spans);
    assert_eq!(op.event.field("op"), Some(&Json::str("VOQL")));
    assert_eq!((op.event.parent, op.event.root), (None, op.event.id));
    assert!(spans.iter().all(|e| e.root == op.event.id));
    assert!(spans.iter().all(|e| e.name != "net.accept"));
    assert_eq!(op.trace.count("penguin.plan_cache.hits"), 1);
}

// ------------------------------------------------- pinned-session reuse --

/// Satellite: a connection's session stays pinned across sequential
/// requests — reads are byte-stable while a concurrent writer commits —
/// until the client explicitly re-pins; and what it reads, written back
/// unmodified, changes nothing.
#[test]
fn session_pin_is_stable_across_requests_until_repinned() {
    let (_server, addr) = start(ServerOptions {
        workers: 2,
        ..ServerOptions::default()
    });
    let mut reader = client(&addr);
    let mut writer = client(&addr);

    let v0 = reader.hello().unwrap().version;
    let VoqlResult::Instances(before) = reader.voql("GET omega").unwrap() else {
        panic!("GET returned a non-instances outcome")
    };

    // The writer commits three times through the same server.
    for i in 0..3 {
        assert_eq!(
            writer
                .voql(&format!(
                    "UPDATE omega SET title = 'drift {i}' WHERE course_id = 'CS101'"
                ))
                .unwrap(),
            VoqlResult::Updated(1)
        );
    }

    // The reader's view must not have moved: same version, byte-identical
    // instances, across several sequential requests.
    for _ in 0..3 {
        let VoqlResult::Instances(after) = reader.voql("GET omega").unwrap() else {
            panic!("GET returned a non-instances outcome")
        };
        assert_eq!(render(&after), render(&before));
    }

    // Re-pinning moves the view to the head, where the drift is visible.
    let v1 = reader.pin().unwrap();
    assert_eq!(v1, v0 + 3);
    let VoqlResult::Instances(now) = reader.voql("GET omega").unwrap() else {
        panic!("GET returned a non-instances outcome")
    };
    assert_ne!(render(&now), render(&before));
    assert!(now.iter().any(|i| encode(i).contains("drift 2")));

    // GetPut over the wire: what the GET returned, prepared and committed
    // back unmodified, is no op and leaves the version where it was
    let unmodified: Vec<UpdateRequest> = (now.iter())
        .map(|i| UpdateRequest::Replacement {
            old: i.clone(),
            new: i.clone(),
        })
        .collect();
    let (handle, base, _) = reader.prepare("omega", unmodified).unwrap();
    assert_eq!(base, v1);
    assert_eq!(reader.commit(handle).unwrap(), (now.len() as u64, 0));
    assert_eq!(reader.pin().unwrap(), v1);
}

// ------------------------------------------------------- watch streaming --

/// Watch over the wire: materialize, subscribe, commit through another
/// client, poll — the instance-level change arrives typed.
#[test]
fn watch_streams_instance_changes_over_the_wire() {
    let (_server, addr) = start(ServerOptions {
        workers: 2,
        ..ServerOptions::default()
    });
    let mut watcher = client(&addr);
    let mut writer = client(&addr);

    assert_eq!(watcher.materialize("omega").unwrap(), 3);
    let watch = watcher.watch("omega").unwrap();
    assert!(watcher.poll_watch(watch).unwrap().is_empty());

    assert_eq!(
        writer
            .voql("UPDATE omega SET title = 'watched' WHERE course_id = 'CS101'")
            .unwrap(),
        VoqlResult::Updated(1)
    );

    let changes = watcher.poll_watch(watch).unwrap();
    assert_eq!(changes.len(), 1);
    assert_eq!(changes[0].kind, ChangeKind::Updated);
    assert_eq!(changes[0].pivot, Key::single("CS101"));

    watcher.unwatch(watch).unwrap();
    let err = watcher.poll_watch(watch).unwrap_err();
    assert!(err.is_code(ErrorCode::NotFound), "got {err:?}");
}

// ------------------------------------------------------------ ops plane --

/// HEALTH, METRICS and STATS answer over the wire; health folds in
/// connection saturation from the live server.
#[test]
fn ops_endpoints_answer_over_the_wire() {
    let (_server, addr) = start(ServerOptions {
        workers: 2,
        max_connections: 2,
        ..ServerOptions::default()
    });
    let mut a = client(&addr);
    let mut _b = client(&addr); // saturate: 2 of 2 connections in use

    std::thread::sleep(Duration::from_millis(100));
    let health = a.health().unwrap();
    assert_eq!(
        health.field("status").unwrap().as_str().unwrap(),
        "unhealthy"
    );
    let reasons = health.field("reasons").unwrap().pretty();
    assert!(
        reasons.contains("connection_saturation"),
        "health must fold in connection saturation, got: {reasons}"
    );

    // The exposition format flattens metric names Prometheus-style.
    let metrics = a.metrics().unwrap();
    assert!(metrics.contains("net_connections_accepted"));
    assert!(metrics.contains("net_request_micros"));

    let stats = a.stats().unwrap();
    assert_eq!(
        stats.field("active_connections").unwrap().as_i64().unwrap(),
        2
    );
    assert!(stats.field("bytes_written").unwrap().as_i64().unwrap() > HEADER_BYTES as i64);

    // What `examples/client.rs` sends, and what it sent before: `SHOW omega`
    // is not VOQL and comes back typed, with the offset of the bad word.
    let shown = a.voql("SHOW OBJECT omega").unwrap();
    assert!(matches!(shown, VoqlResult::Text(ref t) if t.contains("[pivot]")));
    let NetError::Remote(wire) = a.voql("SHOW omega").unwrap_err() else {
        panic!("`SHOW omega` must be refused by the server, not the transport")
    };
    assert_eq!(wire.code, ErrorCode::Parse);
    let position = wire.data.unwrap().field("position").unwrap().as_i64();
    assert_eq!(position.unwrap(), "SHOW ".len() as i64);
}
