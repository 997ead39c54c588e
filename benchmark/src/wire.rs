//! The two workloads that go through the socket: an in-process
//! `VoServer` on loopback, one blocking `VoClient` per generator thread.

use crate::catalog::{WIRE_GET, WIRE_UPDATE};
use crate::counters::StoreWork;
use crate::fixture::{self, OMEGA};
use crate::gen::{get_voql, GetStream, Pivot, UpdateKind, UpdateStream, COURSES_PER_DEPT};
use crate::load::{phase_samples, repeat_setup, Clock, Ctx, Phase, ThreadLog};
use crate::replay;
use crate::report::{Config, Outcome};
use crate::spans::Stages;
use std::collections::BTreeMap;
use vo_core::prelude::VoInstance;
use vo_net::{ClientOptions, ServerOptions, VoClient, VoServer, VoqlResult};
use vo_obs::metrics;
use vo_penguin::{Penguin, Session};

/// Departments served: 6.2k tuples, 512 ω instances.
const SCALE: usize = 64;
/// Commits between checkpoints on `wire_update`, so that several delta
/// checkpoints fall inside the window.
const CHECKPOINT_EVERY: u64 = 128;
/// `wal_bytes_per_update` is taken over this many acknowledged updates
/// from the start of the seeded sequence: a prefix every run reaches, so
/// the count repeats exactly whatever the speed.
const WAL_PREFIX: u64 = 128;
/// The reader re-pins its snapshot every this many GETs.
const REPIN_EVERY: u64 = 16;
/// The reader thinks this long between a reply and its next request.
const READER_THINK: std::time::Duration = std::time::Duration::from_millis(1);
/// Connections of `wire_get`: one blocking client. The benchmark runs on
/// one core (`run.sh` pins it), and a second client would only queue
/// behind the first.
const GET_CONNECTIONS: usize = 1;
/// Connections of `wire_update`: the writer and the reader beside it.
const UPDATE_CONNECTIONS: usize = 2;
/// One frame may carry every ω instance (the verification read).
pub const FRAME_CAP: usize = 16 << 20;

fn serve(system: Penguin, connections: usize) -> (VoServer, Vec<VoClient>) {
    let server = VoServer::start(
        system,
        ServerOptions {
            // one worker per generator connection and one for verification
            workers: connections + 1,
            max_frame_bytes: FRAME_CAP,
            ..ServerOptions::default()
        },
    )
    .expect("loopback port is bindable");
    let clients = (0..connections).map(|_| connect(&server)).collect();
    (server, clients)
}

fn connect(server: &VoServer) -> VoClient {
    VoClient::connect(
        server.addr().to_string(),
        ClientOptions {
            max_frame_bytes: FRAME_CAP,
            // a lost connection must show as failures, not heal silently
            reconnect: false,
            ..ClientOptions::default()
        },
    )
    .expect("server accepts the connection")
}

/// One pivot-keyed GET over the wire.
fn get(ctx: &mut Ctx, client: &mut VoClient, pivot: Pivot) -> Result<Vec<VoInstance>, String> {
    match ctx.sample("client.get", |_| client.voql(&get_voql(pivot))) {
        Ok(VoqlResult::Instances(found)) => Ok(found),
        Ok(other) => Err(format!("GET answered {other:?}")),
        Err(e) => Err(format!("GET failed: {e}")),
    }
}

/// A GET of a pivot that is present; the right answer is exactly that
/// instance.
fn get_present(ctx: &mut Ctx, client: &mut VoClient, pivot: Pivot) -> Result<(), String> {
    let found = get(ctx, client, pivot)?;
    match found.as_slice() {
        [one] if fixture::course_id(one) == pivot.course_id() => Ok(()),
        _ => Err(format!(
            "GET {} returned {} instance(s)",
            pivot.course_id(),
            found.len()
        )),
    }
}

fn join_all(handles: Vec<std::thread::ScopedJoinHandle<'_, ThreadLog>>) -> Vec<ThreadLog> {
    handles
        .into_iter()
        .map(|h| h.join().expect("client thread does not panic"))
        .collect()
}

fn absorb(outcome: &mut Outcome, logs: &mut [ThreadLog]) {
    for log in logs {
        outcome.absorb(log);
    }
}

/// Read every ω instance through a fresh connection (a fresh pin).
fn read_all(server: &VoServer) -> Result<Vec<VoInstance>, String> {
    match connect(server).voql("GET omega") {
        Ok(VoqlResult::Instances(all)) => Ok(all),
        other => Err(format!("verification read answered {other:?}")),
    }
}

/// Compare what the server holds with the client-side model: every pivot
/// present with the expected title, or absent when deleted.
fn check_model(
    outcome: &mut Outcome,
    all: &[VoInstance],
    scale: usize,
    expected_title: impl Fn(Pivot) -> Option<String>,
) {
    let held: BTreeMap<&str, &str> = all
        .iter()
        .map(|i| (fixture::course_id(i), fixture::title(i)))
        .collect();
    let mut present = 0;
    for pivot in (0..scale * COURSES_PER_DEPT).map(Pivot::from_index) {
        let id = pivot.course_id();
        let expected = expected_title(pivot);
        present += usize::from(expected.is_some());
        let found = held.get(id.as_str()).copied();
        outcome.check(found == expected.as_deref(), || {
            format!("{id}: server holds {found:?}, model expects {expected:?}")
        });
    }
    outcome.check(all.len() == present, || {
        format!("server holds {} instances, model {present}", all.len())
    });
}

fn check_consistent(outcome: &mut Outcome, session: &Session) {
    let violations = session.check_consistency();
    outcome.check(matches!(&violations, Ok(v) if v.is_empty()), || {
        format!("structural check: {violations:?}")
    });
}

/// Client-side GET metrics from the measured window, and in a traced run
/// what the server and the registry saw of the same requests.
fn report_gets(
    cfg: &Config,
    outcome: &mut Outcome,
    clock: &Clock,
    logs: &[ThreadLog],
    server: &VoServer,
    requests_before: (u64, u64, u64),
) {
    let gets = phase_samples(clock, logs, Phase::Measured, "client.get");
    outcome.set("get_p50_us", gets.p(0.50));
    outcome.set("get_p99_us", gets.p(0.99));
    outcome.set("get_per_s", gets.per_s());
    outcome.samples.insert("get", gets.count() as u64);
    if cfg.trace {
        let traced = phase_samples(clock, logs, Phase::Traced, "client.get");
        outcome.set("client.get_us", traced.raw_p(0.50));
        let stats = server.stats();
        let (ok0, read0, written0) = requests_before;
        let requests = (stats.requests_ok - ok0).max(1) as f64;
        if cfg.workload == WIRE_GET {
            outcome.set(
                "net.request_bytes_per_op",
                (stats.bytes_read - read0) as f64 / requests,
            );
            outcome.set(
                "net.response_bytes_per_op",
                (stats.bytes_written - written0) as f64 / requests,
            );
        }
        outcome.set("net.requests_rejected", stats.requests_rejected as f64);
        outcome.set(
            "net.server.request_us",
            metrics::histogram("net.request.micros")
                .snapshot()
                .quantile(0.5),
        );
    }
}

fn requests_so_far(server: &VoServer) -> (u64, u64, u64) {
    let stats = server.stats();
    (stats.requests_ok, stats.bytes_read, stats.bytes_written)
}

/// `net.layer_sum_share`, `net.transport_residual_us` and
/// `trace_overhead_share` of a wire workload's own operation.
fn report_residual(outcome: &mut Outcome, clock: &Clock, logs: &[ThreadLog], op: &str, sum: f64) {
    let untraced = phase_samples(clock, logs, Phase::Measured, op);
    let traced = phase_samples(clock, logs, Phase::Traced, op);
    outcome.set_trace_overhead(untraced.p(0.50), traced.p(0.50));
    // the replayed stages are as the clock read them, so the client's
    // figure beside them is too
    let traced = traced.raw_p(0.50);
    if traced > 0.0 {
        outcome.set("net.layer_sum_share", sum / traced);
        outcome.set("net.transport_residual_us", traced - sum);
    }
}

pub fn run_get(cfg: &Config) -> Outcome {
    let scale = cfg.scale(SCALE);
    let mut outcome = Outcome::new(WIRE_GET);

    let ((server, clients, pinned), setup_s, repeats) = repeat_setup(cfg.smoke, || {
        let system = fixture::in_memory(scale, cfg.seed);
        // the workload never writes, so a session pinned now sees what
        // the server holds at the end
        let pinned = system.session();
        let (server, clients) = serve(system, GET_CONNECTIONS);
        (server, clients, pinned)
    });
    outcome.set("setup_s", setup_s);
    outcome.samples.insert("setup", repeats as u64);

    let before = requests_so_far(&server);
    let clock = Clock::start(cfg.seconds, cfg.trace);
    let mut logs = std::thread::scope(|scope| {
        let handles = clients
            .into_iter()
            .enumerate()
            .map(|(connection, mut client)| {
                let clock = &clock;
                scope.spawn(move || {
                    let mut pivots = GetStream::new(cfg.seed, connection, scale, false);
                    clock.run_client(|ctx| {
                        let pivot = pivots.next().expect("stream is endless");
                        get_present(ctx, &mut client, pivot)
                    })
                })
            })
            .collect();
        join_all(handles)
    });

    let gets = phase_samples(&clock, &logs, Phase::Measured, "client.get");
    outcome.set_op(&gets);
    report_gets(cfg, &mut outcome, &clock, &logs, &server, before);
    absorb(&mut outcome, &mut logs);

    match read_all(&server) {
        Ok(all) => check_model(&mut outcome, &all, scale, |p| {
            Some(fixture::seeded_title(p))
        }),
        Err(problem) => outcome.fail(problem),
    }
    check_consistent(&mut outcome, &pinned);

    if cfg.trace {
        let system = fixture::in_memory(scale, cfg.seed);
        let sample = if cfg.smoke { 200 } else { replay::GET_SAMPLE };
        let sum = replay::wire_get(
            &mut outcome,
            clock.epoch(),
            &system,
            cfg.seed,
            scale,
            sample,
        );
        report_residual(&mut outcome, &clock, &logs, "client.get", sum);
        let big = fixture::in_memory(4 * scale, cfg.seed);
        let base_us = outcome.metrics["core.query_get_us"];
        replay::get_scale_ratio(&mut outcome, base_us, &big, cfg.seed, scale);
    }
    outcome
}

/// What the writer believes the server holds.
#[derive(Default)]
struct Model {
    /// Titles the writer has replaced.
    titles: BTreeMap<Pivot, String>,
    /// Instances the writer has deleted, kept for re-insertion.
    deleted: BTreeMap<Pivot, VoInstance>,
}

impl Model {
    fn expected_title(&self, pivot: Pivot) -> Option<String> {
        if self.deleted.contains_key(&pivot) {
            return None;
        }
        Some(
            self.titles
                .get(&pivot)
                .cloned()
                .unwrap_or_else(|| fixture::seeded_title(pivot)),
        )
    }
}

/// The writer's connection: the paper's retrieve–modify–write-back cycle.
struct Writer {
    client: VoClient,
    cycles: UpdateStream,
    model: Model,
    acknowledged: u64,
    wal_bytes: metrics::Counter,
    wal_bytes_at_start: u64,
    /// Log bytes appended by the time the fixed prefix was acknowledged.
    wal_prefix_bytes: Option<u64>,
}

impl Writer {
    fn cycle(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        let cycle = self.cycles.next().expect("stream is endless");
        let pivot = cycle.pivot;
        ctx.sample("client.update", |ctx| {
            ctx.span("client.pin", |_| self.client.pin())
                .map_err(|e| format!("PIN failed: {e}"))?;
            let found = get(ctx, &mut self.client, pivot)?;
            let expected = self.model.expected_title(pivot);
            let seen = found.first().map(fixture::title);
            if found.len() > 1 || seen != expected.as_deref() {
                return Err(format!(
                    "GET {} returned {} instance(s) titled {seen:?}, model expects {expected:?}",
                    pivot.course_id(),
                    found.len()
                ));
            }
            let request = replay::build_request(
                cycle.kind,
                &found,
                &cycle.title,
                self.model.deleted.get(&pivot).cloned(),
            )?;
            let (handle, _, _) = ctx
                .span("client.prepare", |_| {
                    self.client.prepare(OMEGA, vec![request])
                })
                .map_err(|e| format!("PREPARE failed: {e}"))?;
            let (requests, operations) = ctx
                .span("client.commit", |_| self.client.commit(handle))
                .map_err(|e| format!("COMMIT failed: {e}"))?;
            if requests != 1 || operations == 0 {
                return Err(format!(
                    "COMMIT acknowledged {requests} request(s), {operations} operation(s)"
                ));
            }
            match cycle.kind {
                UpdateKind::Replace => {
                    self.model.titles.insert(pivot, cycle.title.clone());
                }
                UpdateKind::Delete => {
                    self.model.deleted.insert(pivot, found[0].clone());
                }
                UpdateKind::Insert => {
                    self.model.deleted.remove(&pivot);
                }
            }
            Ok(())
        })?;
        self.acknowledged += 1;
        if self.acknowledged == WAL_PREFIX {
            self.wal_prefix_bytes = Some(self.wal_bytes.get() - self.wal_bytes_at_start);
        }
        Ok(())
    }

    fn wal_bytes_per_update(&self) -> f64 {
        match self.wal_prefix_bytes {
            Some(bytes) => bytes as f64 / WAL_PREFIX as f64,
            // a window too short for the prefix: every update so far
            None => {
                (self.wal_bytes.get() - self.wal_bytes_at_start) as f64
                    / self.acknowledged.max(1) as f64
            }
        }
    }
}

pub fn run_update(cfg: &Config) -> Outcome {
    let scale = cfg.scale(SCALE);
    let options = fixture::store_options(CHECKPOINT_EVERY);
    let dir = fixture::work_dir(WIRE_UPDATE);
    let served = dir.join("served");
    let mut outcome = Outcome::new(WIRE_UPDATE);

    let ((server, mut clients), setup_s, repeats) = repeat_setup(cfg.smoke, || {
        serve(
            fixture::persistent(&served, scale, cfg.seed, options),
            UPDATE_CONNECTIONS,
        )
    });
    outcome.set("setup_s", setup_s);
    outcome.samples.insert("setup", repeats as u64);

    let wal_bytes = metrics::counter("store.wal.bytes_appended");
    let mut writer = Writer {
        client: clients.remove(0),
        cycles: UpdateStream::new(cfg.seed, scale),
        model: Model::default(),
        acknowledged: 0,
        wal_bytes_at_start: wal_bytes.get(),
        wal_bytes,
        wal_prefix_bytes: None,
    };
    let before = requests_so_far(&server);
    let store_work = StoreWork::begin();
    let clock = Clock::start(cfg.seconds, cfg.trace);
    let mut logs = std::thread::scope(|scope| {
        let clock = &clock;
        // beside the writer, a reader on its own pinned snapshots, which
        // forces copy-on-write under the writer's commits
        let mut handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(connection, mut client)| {
                scope.spawn(move || {
                    let mut pivots = GetStream::new(cfg.seed, connection + 1, scale, true);
                    let mut issued = 0u64;
                    clock.run_beside(|ctx| {
                        issued += 1;
                        if issued % REPIN_EVERY == 1 {
                            ctx.span("client.pin", |_| client.pin())
                                .map_err(|e| format!("reader PIN failed: {e}"))?;
                        }
                        let pivot = pivots.next().expect("stream is endless");
                        let answer = get_present(ctx, &mut client, pivot);
                        std::thread::sleep(READER_THINK);
                        answer
                    })
                })
            })
            .collect();
        let writer = &mut writer;
        handles.insert(
            0,
            scope.spawn(move || clock.run_client(|ctx| writer.cycle(ctx))),
        );
        join_all(handles)
    });

    let updates = phase_samples(&clock, &logs, Phase::Measured, "client.update");
    outcome.set_op(&updates);
    outcome.set("update_p50_us", updates.p(0.50));
    outcome.set("update_p95_us", updates.p(0.95));
    outcome.set("updates_per_s", updates.per_s());
    outcome.samples.insert("update", updates.count() as u64);
    outcome.set("wal_bytes_per_update", writer.wal_bytes_per_update());
    report_gets(cfg, &mut outcome, &clock, &logs, &server, before);
    absorb(&mut outcome, &mut logs);

    // the correctness gate: the model against a fresh read, then a kill
    // and a reopen that must bring back every acknowledged update
    let before_kill = read_all(&server);
    match &before_kill {
        Ok(all) => check_model(&mut outcome, all, scale, |p| writer.model.expected_title(p)),
        Err(problem) => outcome.fail(problem.clone()),
    }
    drop(writer);
    // kill: no shutdown, no flush — what is on disk is what was fsynced
    std::mem::forget(server);
    match Penguin::open_with(&served, options) {
        Ok(reopened) => {
            let session = reopened.session();
            let after = session.instantiate_all(OMEGA);
            outcome.check(
                matches!((&after, &before_kill), (Ok(after), Ok(before)) if after == before),
                || "ω after the kill differs from the read before it".to_owned(),
            );
            check_consistent(&mut outcome, &session);
        }
        Err(e) => outcome.fail(format!("reopen after the kill failed: {e}")),
    }

    if cfg.trace {
        // the writer's own calls (its log is the first)
        let calls = Stages::of(&outcome.spans[0]);
        outcome.set_stages(&calls, &["client.pin", "client.prepare", "client.commit"]);
        store_work.report(&mut outcome, 1.0);
        outcome.set(
            "relational.conflicts",
            metrics::counter("relational.conflicts").get() as f64,
        );
        let sample = if cfg.smoke { 16 } else { replay::UPDATE_SAMPLE };
        let sum = replay::wire_update(
            &mut outcome,
            clock.epoch(),
            &dir,
            options,
            cfg.seed,
            scale,
            sample,
        );
        report_residual(&mut outcome, &clock, &logs, "client.update", sum);
        let big = fixture::in_memory(4 * scale, cfg.seed);
        let base_us = outcome.metrics["core.query_get_us"];
        replay::get_scale_ratio(&mut outcome, base_us, &big, cfg.seed, scale);
        let (prepare_us, check_us) = (
            outcome.metrics["core.update.prepare_us"],
            outcome.metrics["structural.check_us"],
        );
        replay::update_scale_ratios(&mut outcome, prepare_us, check_us, &big, cfg.seed, scale);
    }
    fixture::remove_work_dir(&dir);
    outcome
}
