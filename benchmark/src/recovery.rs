//! `recovery`: what a restart costs, in time and in space. Set-up builds a
//! persistent system, writes single-operation commits past several
//! checkpoints — a delta chain and an auto-compaction — leaves a tail in
//! the log, and kills the system. The measured loop opens a copy of the
//! killed directory.

use crate::catalog::RECOVERY;
use crate::counters::StoreWork;
use crate::fixture::{self, OMEGA};
use crate::gen::recovery_commit;
use crate::load::{phase_samples, repeat_setup, Clock, Phase};
use crate::report::{Config, Outcome};
use crate::spans::{Recorder, Stages};
use std::path::{Path, PathBuf};
use std::time::Instant;
use vo_core::prelude::{DbOp, VoInstance};
use vo_penguin::{Parallelism, Penguin};
use vo_store::Store;

/// Departments: 24.8k tuples, 2048 ω instances.
const SCALE: usize = 256;
/// Commits between checkpoints.
const CHECKPOINT_EVERY: u64 = 512;
/// Checkpoints the set-up crosses: past the default chain limit of eight
/// deltas, so there is a compaction and a fresh chain.
const CHECKPOINTS: usize = 12;
/// Commits left in the log after the last checkpoint, as a share of
/// [`CHECKPOINT_EVERY`] (300 commits of 512).
const TAIL_SHARE: f64 = 300.0 / 512.0;
/// `Store::open` alone, timed in a traced run.
const OPEN_SAMPLE: usize = 10;

/// A killed store and what it must recover to.
struct Killed {
    dir: PathBuf,
    oracle: Vec<VoInstance>,
    tuples: usize,
    /// Seconds inside the explicit `Penguin::checkpoint` of the build.
    checkpoint_s: f64,
}

/// Build the store up to the moment of the kill. The caller kills it (or,
/// for a set-up that is only timed, lets it close).
fn build(cfg: &Config, dir: &Path) -> (Killed, Penguin) {
    let scale = cfg.scale(SCALE);
    let every = checkpoint_every(cfg);
    let mut system = fixture::persistent(dir, scale, cfg.seed, fixture::store_options(every));
    let tail = (every as f64 * TAIL_SHARE) as usize;
    let commits = every as usize * CHECKPOINTS + tail;
    let mut checkpoint_s = 0.0;
    for i in 0..commits {
        let (pivot, title) = recovery_commit(cfg.seed, scale, i);
        let key = fixture::pivot_key(pivot);
        let current = system
            .database()
            .table("COURSES")
            .expect("COURSES exists")
            .get(&key)
            .expect("seeded course");
        let op = DbOp::Replace {
            relation: "COURSES".to_owned(),
            tuple: fixture::retitled_tuple(current, &title),
            old_key: key,
        };
        system
            .with_database_mut(|db| db.apply_all(&[op]))
            .expect("store accepts the commit")
            .expect("replacement applies");
        // one explicit checkpoint on top of the policy's, timed
        if i + 1 == commits - tail {
            let start = Instant::now();
            system.checkpoint().expect("checkpoint");
            checkpoint_s = start.elapsed().as_secs_f64();
        }
    }
    let session = system.session();
    let killed = Killed {
        dir: dir.to_owned(),
        oracle: session.instantiate_all(OMEGA).expect("ω instantiates"),
        tuples: session.database().total_tuples(),
        checkpoint_s,
    };
    drop(session);
    (killed, system)
}

fn checkpoint_every(cfg: &Config) -> u64 {
    if cfg.smoke {
        32
    } else {
        CHECKPOINT_EVERY
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let root = fixture::work_dir(RECOVERY);
    let options = fixture::store_options(checkpoint_every(cfg));
    let mut outcome = Outcome::new(RECOVERY);
    let store_work = StoreWork::begin();
    let mut builds = 0;
    let ((killed, system), setup_s, repeats) = repeat_setup(cfg.smoke, || {
        builds += 1;
        build(cfg, &root.join(format!("killed-{builds}")))
    });
    // kill: no flush, no final fsync (the builds before this one, which
    // were only timed, closed normally)
    std::mem::forget(system);
    outcome.set("setup_s", setup_s);
    outcome.samples.insert("setup", repeats as u64);
    let disk_bytes = fixture::dir_bytes(&killed.dir).unwrap_or(0);
    outcome.set(
        "disk_bytes_per_tuple",
        disk_bytes as f64 / killed.tuples.max(1) as f64,
    );

    let copy = root.join("copy");
    let mut first = true;
    let clock = Clock::start(cfg.seconds, cfg.trace);
    let mut log = clock.run_client(|ctx| {
        fixture::copy_dir(&killed.dir, &copy)
            .map_err(|e| format!("copying the killed store: {e}"))?;
        let system = ctx
            .sample("penguin.open", |_| Penguin::open_with(&copy, options))
            .map_err(|e| format!("open_with: {e}"))?;
        let tuples = system.database().total_tuples();
        if tuples != killed.tuples {
            return Err(format!(
                "recovered {tuples} tuples, killed with {}",
                killed.tuples
            ));
        }
        if std::mem::take(&mut first)
            && system.session().instantiate_all(OMEGA).ok().as_ref() != Some(&killed.oracle)
        {
            return Err("recovered ω differs from ω at the kill".to_owned());
        }
        Ok(())
    });
    outcome.absorb(&mut log);
    let logs = [log];

    let opens = phase_samples(&clock, &logs, Phase::Measured, "penguin.open");
    outcome.set_op(&opens);
    outcome.set("recover_p50_ms", opens.p(0.50) / 1e3);
    outcome.samples.insert("open", opens.count() as u64);

    if cfg.trace {
        let traced = phase_samples(&clock, &logs, Phase::Traced, "penguin.open");
        outcome.set_trace_overhead(opens.p(0.50), traced.p(0.50));
        outcome.set("penguin.open_us", traced.raw_p(0.50));
        // the counters cover every build of the repeated set-up
        store_work.report(&mut outcome, repeats as f64);
        outcome.set("store.checkpoint_us", killed.checkpoint_s * 1e6);
        outcome.set(
            "store.disk_bytes_per_tuple",
            disk_bytes as f64 / killed.tuples.max(1) as f64,
        );
        outcome.set(
            "exec.workers",
            Parallelism::Auto.workers_for(killed.oracle.len()) as f64,
        );
        // the store alone, without the system definition and the object
        // registry that `open_with` restores on top of it
        let mut rec = Recorder::new(true, clock.epoch());
        for op in 0..OPEN_SAMPLE as u64 {
            if fixture::copy_dir(&killed.dir, &copy).is_err() {
                break;
            }
            let opened = rec.time("store.open", op + 1, |_| Store::open(&copy, options));
            if let Ok((_, _, report)) = opened {
                outcome.set(
                    "store.recover.records_replayed",
                    report.records_replayed as f64,
                );
                outcome.set("store.recover.deltas_applied", report.deltas_applied as f64);
            }
        }
        let spans = rec.into_spans();
        outcome.set_stages(&Stages::of(&spans), &["store.open"]);
        outcome.spans.push(spans);
    }
    fixture::remove_work_dir(&root);
    outcome
}
