//! `embedded_batch`: the paper's algorithms as a library, set-at-a-time,
//! with no socket and no store. One cycle is the retrieve–modify–refresh
//! loop of an embedding application: instantiate every ω instance, write
//! back a batch of replacements and deletions, refresh the materialized
//! ω, re-insert what was deleted, refresh again — so the database is the
//! same size at the start of every cycle.

use crate::catalog::EMBEDDED_BATCH;
use crate::counters::Tally;
use crate::fixture::{self, OMEGA};
use crate::gen::{BatchPlan, BatchStream, Pivot};
use crate::load::{phase_samples, repeat_setup, Clock, Ctx, Phase};
use crate::replay::{translate_stage, CHECK_SAMPLE};
use crate::report::{Config, Outcome};
use crate::spans::{Recorder, Stages};
use std::collections::BTreeMap;
use vo_core::prelude::{university_schema, UpdateRequest, VoInstance};
use vo_penguin::{Parallelism, Penguin};

/// Departments: 12.4k tuples, 1024 ω instances — past the 512-pivot
/// floor, so `instantiate_all` fans out over the cores.
const SCALE: usize = 128;
/// Requests in the write-back batch: half replacements, half deletions.
const BATCH: usize = 64;

const READ_COUNTERS: [&str; 5] = [
    "relational.index_probes",
    "relational.hash_builds",
    "relational.instances_built",
    "penguin.plan_cache.hits",
    "penguin.plan_cache.misses",
];

/// The instance anchored on `pivot` among instances in pivot-key order.
fn find(instances: &[VoInstance], pivot: Pivot) -> Result<&VoInstance, String> {
    let id = pivot.course_id();
    instances
        .binary_search_by(|i| fixture::course_id(i).cmp(id.as_str()))
        .map(|at| &instances[at])
        .map_err(|_| format!("{id} is missing from ω"))
}

/// The write-back batch of a cycle, and the instances it deletes.
fn write_back(
    plan: &BatchPlan,
    instances: &[VoInstance],
) -> Result<(Vec<UpdateRequest>, Vec<VoInstance>), String> {
    let mut batch = Vec::with_capacity(BATCH);
    for (pivot, title) in &plan.replace {
        let old = find(instances, *pivot)?;
        batch.push(UpdateRequest::Replacement {
            old: old.clone(),
            new: fixture::retitled(old, title),
        });
    }
    let mut deleted = Vec::with_capacity(plan.delete.len());
    for pivot in &plan.delete {
        let old = find(instances, *pivot)?;
        batch.push(UpdateRequest::CompleteDeletion(old.clone()));
        deleted.push(old.clone());
    }
    Ok((batch, deleted))
}

fn reinsert(deleted: Vec<VoInstance>) -> Vec<UpdateRequest> {
    deleted
        .into_iter()
        .map(UpdateRequest::CompleteInsertion)
        .collect()
}

/// The loop's state and what it has counted.
struct Loop {
    system: Penguin,
    plans: BatchStream,
    /// Counters read around `instantiate_all` only.
    reads: Tally,
    passes: u64,
    refreshes: u64,
    patched: u64,
    rebuilt: u64,
    full_rebuilds: u64,
    /// Every title written, for the correctness gate.
    titles: BTreeMap<Pivot, String>,
}

impl Loop {
    fn cycle(&mut self, ctx: &mut Ctx) -> Result<(), String> {
        let plan = self.plans.next().expect("stream is endless");
        ctx.sample("embedded.cycle", |ctx| {
            // the session goes with the read, as in an application that
            // has fetched its objects: holding it would make the
            // write-back copy every table it shares
            let session = self.system.session();
            let instances = self
                .reads
                .during(|| ctx.sample("core.instantiate_all", |_| session.instantiate_all(OMEGA)))
                .map_err(|e| format!("instantiate_all: {e}"))?;
            drop(session);
            self.passes += 1;

            let (batch, deleted) = write_back(&plan, &instances)?;
            let requests = batch.len();
            ctx.sample("penguin.apply_batch", |_| {
                self.system.apply_batch(OMEGA, batch)
            })
            .map_err(|e| format!("apply_batch (VO-R + VO-CD): {e}"))?;
            let refreshed = ctx
                .sample("core.maintain.refresh", |_| self.system.refresh(OMEGA))
                .map_err(|e| format!("refresh: {e}"))?;
            self.refreshes += 1;
            self.patched += refreshed.patched;
            self.rebuilt += refreshed.rebuilt;
            self.full_rebuilds += u64::from(refreshed.full_rebuild);
            if refreshed.changes.len() != requests {
                return Err(format!(
                    "refresh reported {} changed instances after {requests} requests",
                    refreshed.changes.len()
                ));
            }

            let inserted = deleted.len();
            ctx.sample("penguin.apply_batch_insert", |_| {
                self.system.apply_batch(OMEGA, reinsert(deleted))
            })
            .map_err(|e| format!("apply_batch (VO-CI): {e}"))?;
            // a second population: reported per layer, never mixed into
            // `refresh_p50_us`
            let refreshed = ctx
                .sample("core.maintain.refresh_after_insert", |_| {
                    self.system.refresh(OMEGA)
                })
                .map_err(|e| format!("refresh after insertion: {e}"))?;
            self.full_rebuilds += u64::from(refreshed.full_rebuild);
            if refreshed.changes.len() != inserted {
                return Err(format!(
                    "refresh reported {} changed instances after {inserted} insertions",
                    refreshed.changes.len()
                ));
            }
            Ok(())
        })?;
        self.titles.extend(plan.replace);
        Ok(())
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let scale = cfg.scale(SCALE);
    let mut outcome = Outcome::new(EMBEDDED_BATCH);
    let (system, setup_s, repeats) = repeat_setup(cfg.smoke, || {
        let mut system = fixture::in_memory(scale, cfg.seed);
        system
            .materialize(OMEGA)
            .expect("ω materializes on a consistent database");
        system
    });
    outcome.set("setup_s", setup_s);
    outcome.samples.insert("setup", repeats as u64);
    let pivots = scale * crate::gen::COURSES_PER_DEPT;

    let mut state = Loop {
        system,
        plans: BatchStream::new(cfg.seed, scale, BATCH),
        reads: Tally::new(&READ_COUNTERS),
        passes: 0,
        refreshes: 0,
        patched: 0,
        rebuilt: 0,
        full_rebuilds: 0,
        titles: BTreeMap::new(),
    };
    let clock = Clock::start(cfg.seconds, cfg.trace);
    let mut log = clock.run_client(|ctx| state.cycle(ctx));
    outcome.absorb(&mut log);
    let logs = [log];
    let measured = |name| phase_samples(&clock, &logs, Phase::Measured, name);

    let cycles = measured("embedded.cycle");
    outcome.set_op(&cycles);
    let reads = measured("core.instantiate_all");
    let batches = measured("penguin.apply_batch");
    let insert_batches = measured("penguin.apply_batch_insert");
    let refreshes = measured("core.maintain.refresh");
    // work of one cycle ÷ median time inside the calls that do it
    outcome.set(
        "instances_per_s",
        pivots as f64 * 1e6 / reads.p(0.50).max(1e-9),
    );
    outcome.set(
        "translate_per_s",
        (BATCH + BATCH / 2) as f64 * 1e6 / (batches.p(0.50) + insert_batches.p(0.50)).max(1e-9),
    );
    outcome.set("refresh_p50_us", refreshes.p(0.50));
    outcome
        .samples
        .insert("instantiate_all", reads.count() as u64);
    outcome
        .samples
        .insert("apply_batch", batches.count() as u64);
    outcome.samples.insert("refresh", refreshes.count() as u64);

    // the correctness gate: every written title is in ω, ω is as large as
    // it started, and the structural model holds
    let session = state.system.session();
    match session.instantiate_all(OMEGA) {
        Ok(now) => {
            outcome.check(now.len() == pivots, || {
                format!("ω holds {} instances, started with {pivots}", now.len())
            });
            for (pivot, title) in &state.titles {
                let held = find(&now, *pivot).map(fixture::title);
                outcome.check(held.as_deref() == Ok(title.as_str()), || {
                    format!("{}: ω holds {held:?}, written {title:?}", pivot.course_id())
                });
            }
        }
        Err(e) => outcome.fail(format!("verification read: {e}")),
    }
    let violations = session.check_consistency();
    outcome.check(matches!(&violations, Ok(v) if v.is_empty()), || {
        format!("structural check: {violations:?}")
    });
    drop(session);

    if cfg.trace {
        let traced = phase_samples(&clock, &logs, Phase::Traced, "embedded.cycle");
        outcome.set_trace_overhead(cycles.p(0.50), traced.p(0.50));
        let calls = Stages::of(&outcome.spans[0]);
        outcome.set_stages(
            &calls,
            &[
                "core.instantiate_all",
                "penguin.apply_batch",
                "core.maintain.refresh",
                "core.maintain.refresh_after_insert",
            ],
        );
        let refreshes = state.refreshes.max(1) as f64;
        outcome.set(
            "core.maintain.patched_per_refresh",
            state.patched as f64 / refreshes,
        );
        outcome.set(
            "core.maintain.rebuilt_per_refresh",
            state.rebuilt as f64 / refreshes,
        );
        outcome.set("core.maintain.full_rebuilds", state.full_rebuilds as f64);
        let reads = &state.reads;
        outcome.set(
            "relational.index_probes_per_instance",
            reads.total("relational.index_probes")
                / reads.total("relational.instances_built").max(1.0),
        );
        outcome.set(
            "relational.hash_builds_per_pass",
            reads.total("relational.hash_builds") / state.passes.max(1) as f64,
        );
        outcome.set(
            "penguin.plan_cache.hit_ratio",
            reads.share("penguin.plan_cache.hits", "penguin.plan_cache.misses"),
        );
        outcome.set("exec.workers", Parallelism::Auto.workers_for(pivots) as f64);
        translation_stages(&mut outcome, &clock, &mut state);
    }
    outcome
}

/// Beside the loop, on the next plan of the stream: translation alone per
/// request kind (the island and peninsula walk over the overlay, no
/// check, nothing applied), and the global check every `apply_batch`
/// runs once.
fn translation_stages(outcome: &mut Outcome, clock: &Clock, state: &mut Loop) {
    let schema = university_schema();
    let updater = fixture::updater(&state.system);
    let plan = state.plans.next().expect("stream is endless");
    let session = state.system.session();
    let instances = session.instantiate_all(OMEGA).expect("ω instantiates");
    let (batch, deleted) = write_back(&plan, &instances).expect("plan names present pivots");
    let mut rec = Recorder::new(true, clock.epoch());
    for i in 0..CHECK_SAMPLE as u64 {
        rec.time("structural.check", i + 1, |_| {
            assert!(session.check_consistency().expect("check runs").is_empty());
        });
    }
    drop(session);

    let mut translate = |system: &Penguin, requests: &[UpdateRequest]| {
        for (op, request) in requests.iter().enumerate() {
            rec.time(translate_stage(request), op as u64 + 1, |_| {
                updater
                    .translate_request(&schema, system.database(), request.clone())
                    .expect("request translates")
            });
        }
    };
    translate(&state.system, &batch);
    // an insertion translates against a database the instance is absent
    // from: delete for real, translate the re-insertions, then restore
    state
        .system
        .apply_batch(OMEGA, batch)
        .expect("write-back applies");
    let insertions = reinsert(deleted);
    translate(&state.system, &insertions);
    state
        .system
        .apply_batch(OMEGA, insertions)
        .expect("re-insertion applies");

    let spans = rec.into_spans();
    outcome.set_stages(
        &Stages::of(&spans),
        &[
            "core.update.translate_r",
            "core.update.translate_cd",
            "core.update.translate_ci",
            "structural.check",
        ],
    );
    outcome.spans.push(spans);
}
