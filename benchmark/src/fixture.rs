//! The systems under test: the university schema of Figure 1 at a scale,
//! with ω = `COURSES` ▸ {`DEPARTMENT`, `CURRICULUM`, `GRADES`, `STUDENT`}
//! and the permissive translator, in memory or on a durable store.

use crate::gen::Pivot;
use std::path::{Path, PathBuf};
use vo_core::prelude::{
    university_schema, DbOp, Key, Translator, Tuple, Value, ViewObjectUpdater, VoInstance,
};
use vo_penguin::{university_scaled, CheckpointPolicy, Penguin, StoreOptions, SyncPolicy};

pub const OMEGA: &str = "omega";
const OMEGA_RELATIONS: [&str; 4] = ["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"];
/// Position of `title` in a `COURSES` tuple (`course_id, title, level,
/// dept_name`).
const TITLE: usize = 1;

fn define_omega(p: &mut Penguin) {
    p.define_object(OMEGA, "COURSES", &OMEGA_RELATIONS)
        .expect("ω is definable on the university schema");
    let object = p.object(OMEGA).expect("just defined").object.clone();
    p.install_translator(OMEGA, Translator::permissive(&object))
        .expect("the permissive translator fits ω");
}

/// ω's updater, for translating a request without applying it.
pub fn updater(p: &Penguin) -> ViewObjectUpdater {
    let registered = p.object(OMEGA).expect("ω is registered");
    registered.updater.clone().expect("translator installed")
}

/// An in-memory system at `scale` departments.
pub fn in_memory(scale: usize, seed: u64) -> Penguin {
    let (schema, db) = university_scaled(scale as i64, seed);
    let mut p = Penguin::with_database(schema, db);
    define_omega(&mut p);
    p
}

/// Fsync on every commit; checkpoint every `max_wal_records` commits.
pub fn store_options(max_wal_records: u64) -> StoreOptions {
    StoreOptions {
        sync: SyncPolicy::Always,
        checkpoint: CheckpointPolicy {
            max_wal_bytes: u64::MAX,
            max_wal_records,
        },
        ..StoreOptions::default()
    }
}

/// A persistent system at `scale` departments in `dir` (emptied first).
/// The data is loaded as one transaction — one log record, one fsync —
/// and a checkpoint is taken after ω's indexes exist, so the run starts
/// from a base checkpoint and an empty log.
pub fn persistent(dir: &Path, scale: usize, seed: u64, options: StoreOptions) -> Penguin {
    let _ = std::fs::remove_dir_all(dir);
    let (_, source) = university_scaled(scale as i64, seed);
    let mut load = Vec::with_capacity(source.total_tuples());
    for relation in source.relation_names() {
        let table = source.table(relation).expect("named by the database");
        load.extend(table.scan().map(|tuple| DbOp::Insert {
            relation: relation.to_owned(),
            tuple: tuple.clone(),
        }));
    }
    let mut p = Penguin::persistent_with(dir, university_schema(), options)
        .expect("the work directory is writable");
    p.with_database_mut(|db| db.apply_all(&load))
        .expect("store accepts the load")
        .expect("generated data is valid");
    define_omega(&mut p);
    p.checkpoint().expect("base checkpoint");
    p
}

/// The pivot key of an ω instance.
pub fn pivot_key(pivot: Pivot) -> Key {
    Key::single(pivot.course_id())
}

/// The course id of an instance's pivot tuple.
pub fn course_id(instance: &VoInstance) -> &str {
    instance.root.tuple.get(0).as_text().unwrap_or("")
}

/// The title of an instance's pivot tuple.
pub fn title(instance: &VoInstance) -> &str {
    instance.root.tuple.get(TITLE).as_text().unwrap_or("")
}

/// A `COURSES` tuple with its title replaced.
pub fn retitled_tuple(tuple: &Tuple, new_title: &str) -> Tuple {
    let mut values = tuple.values().to_vec();
    values[TITLE] = Value::text(new_title);
    Tuple::raw(values)
}

/// The instance with its pivot's title replaced — the replacing instance
/// of a non-key VO-R.
pub fn retitled(instance: &VoInstance, new_title: &str) -> VoInstance {
    let mut new = instance.clone();
    new.root.tuple = retitled_tuple(&instance.root.tuple, new_title);
    new
}

/// The title `seed_university_scaled` gives a course.
pub fn seeded_title(pivot: Pivot) -> String {
    format!("course {}.{}", pivot.dept, pivot.course)
}

const WORK: &str = "benchmark/work";

/// Scratch space for a run's stores, inside the checkout and out of git.
pub fn work_dir(name: &str) -> PathBuf {
    Path::new(WORK).join(format!("{name}-{}", std::process::id()))
}

/// Remove a run's scratch space, and the shared parent once it is empty.
pub fn remove_work_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir(WORK);
}

/// Copy a store directory (flat: segments, checkpoints, `system.json`).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Bytes of the regular files in a (flat) directory.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        total += entry?.metadata()?.len();
    }
    Ok(total)
}
