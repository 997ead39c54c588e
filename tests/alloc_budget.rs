//! Allocation budgets, counted rather than timed: a counting global
//! allocator says what reopening a store costs per recovered row, and that
//! a short text costs nothing. Counts are the same on every host, so these
//! hold wherever the suite runs.
//!
//! Each test counts the allocations its own thread makes (the harness runs
//! tests side by side), and recovery runs on the thread that opens the
//! store, so everything it allocates is counted.

use penguin_vo::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::path::Path;

/// The system allocator, counting each allocation and reallocation made
/// on the calling thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialized thread-local with no destructor, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `f`'s result and the allocations this thread made running it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// Departments: 3.1k tuples.
const SCALE: i64 = 32;
/// Commits between checkpoints.
const CHECKPOINT_EVERY: u64 = 64;
/// Checkpoints crossed before the kill: a delta chain, an automatic
/// compaction past its limit, and a fresh chain.
const CHECKPOINTS: u64 = 12;
/// Commits past the checkpointed ones: a tail left in the log.
const TAIL: u64 = 37;

fn options() -> StoreOptions {
    StoreOptions {
        sync: SyncPolicy::Never,
        checkpoint: CheckpointPolicy {
            max_wal_bytes: u64::MAX,
            max_wal_records: CHECKPOINT_EVERY,
        },
        ..StoreOptions::default()
    }
}

/// A scaled university on a store — ω defined over it, so `CURRICULUM`
/// carries its index — retitled one course per commit past a delta chain
/// and a compaction, with a log tail, then killed.
fn killed_store(dir: &Path) {
    let (schema, source) = university_scaled(SCALE, 42);
    let mut load = Vec::new();
    for relation in source.relation_names() {
        let table = source.table(relation).unwrap();
        load.extend(table.scan().map(|tuple| DbOp::Insert {
            relation: relation.to_owned(),
            tuple: tuple.clone(),
        }));
    }
    let mut system = Penguin::persistent_with(dir, schema, options()).unwrap();
    system
        .with_database_mut(|db| db.apply_all(&load))
        .unwrap()
        .unwrap();
    system
        .define_object(
            "omega",
            "COURSES",
            &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
        )
        .unwrap();
    system.checkpoint().unwrap();
    let courses: Vec<Tuple> = (system.database().table("COURSES").unwrap().scan())
        .cloned()
        .collect();
    for i in 0..CHECKPOINT_EVERY * CHECKPOINTS + TAIL {
        let course = &courses[i as usize % courses.len()];
        let mut values = course.values().to_vec();
        values[1] = Value::text(format!("title {i}"));
        let op = DbOp::Replace {
            relation: "COURSES".to_owned(),
            old_key: Key::new(vec![values[0].clone()]),
            tuple: Tuple::raw(values),
        };
        system
            .with_database_mut(|db| db.apply_all(&[op]))
            .unwrap()
            .unwrap();
    }
    std::mem::forget(system);
}

/// What reopening this store allocated per recovered row when each row was
/// decoded into a `Vec` and then copied into its tuple, each of its texts
/// was an allocation of its own, and the rows were validated and keyed in
/// a second pass.
const TWO_PASS_PER_ROW: f64 = 6.58;

/// Most allocations reopening this store may make per recovered row: 1.63
/// are made, in debug and release builds alike. A row is its own key, so
/// a decoded row is its tuple alone, and its short texts live inside it;
/// the rest is the row's share of its chunk and of the longer texts.
const RECOVERED_ROW: f64 = 1.75;

/// Reopening the store — decoding the base, applying three deltas,
/// replaying the tail — allocates at most half as often per recovered row
/// as [`TWO_PASS_PER_ROW`], and no more than [`RECOVERED_ROW`]: a decoded
/// row is its tuple, and its short texts live inside it.
#[test]
fn reopening_a_store_allocates_at_most_half_as_often_per_row() {
    let dir = std::env::temp_dir().join(format!("vo_alloc_budget_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    killed_store(&dir);
    let ((_store, db, report), allocations) = counted(|| Store::open(&dir, options()).unwrap());
    std::fs::remove_dir_all(&dir).ok();
    assert!(
        report.deltas_applied > 0 && report.records_replayed > 0,
        "{report:?}"
    );
    let per_row = allocations as f64 / db.total_tuples() as f64;
    println!(
        "{allocations} allocations for {} rows: {per_row:.2} per row",
        db.total_tuples()
    );
    assert!(
        per_row <= RECOVERED_ROW && RECOVERED_ROW <= TWO_PASS_PER_ROW / 2.0,
        "{per_row:.2} allocations per recovered row"
    );
}

/// A text of up to 22 bytes lives in its value: building it, from a
/// `&str` or a `String` already made, and cloning it allocate nothing.
#[test]
fn a_short_text_and_its_clone_allocate_nothing() {
    let id = String::from("Computer Science 22 ch");
    assert_eq!(id.len(), 22);
    let ((), allocations) = counted(|| {
        let short = black_box(Value::text("CS345"));
        black_box(short.clone());
        let full = black_box(Value::text(id.as_str()));
        black_box(full.clone());
        black_box(Value::from(black_box("graduate")));
    });
    assert_eq!(allocations, 0);
    // one byte more is one shared allocation, and a clone shares it
    let longer = format!("{id}!");
    let (long, allocations) = counted(|| Value::text(longer.as_str()));
    assert_eq!(allocations, 1);
    let (_, allocations) = counted(|| black_box(long.clone()));
    assert_eq!(allocations, 0);
}

/// What preparing one title-only VO-R of a scaled ω instance allocates,
/// once child pairing resolves the identifying positions once per call
/// and compares values in place: 79 (121 when it built a value list per
/// old × new pair). Debug builds also cross-check the delta check against
/// a scan of the database.
const TITLE_ONLY_REPLACEMENT: u64 = if cfg!(debug_assertions) { 116 } else { 79 };

/// One title-only replacement, prepared on a session: validation,
/// propagation, the VO-R walk over every child run and the check stay
/// within [`TITLE_ONLY_REPLACEMENT`] allocations.
#[test]
fn a_title_only_replacement_allocates_within_its_budget() {
    let (schema, db) = university_scaled(8, 42);
    let mut system = Penguin::with_database(schema, db);
    system
        .define_object(
            "omega",
            "COURSES",
            &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
        )
        .unwrap();
    let omega = system.object("omega").unwrap().object.clone();
    system
        .install_translator("omega", Translator::permissive(&omega))
        .unwrap();
    let courses = system.database().table("COURSES").unwrap().schema().clone();
    let old = system
        .instance_by_key("omega", &Key::single("C1-2"))
        .unwrap();
    assert!(old.size() > 8, "the instance has child runs to pair");
    let mut new = old.clone();
    new.root.tuple = (old.root.tuple)
        .with_named(&courses, "title", "retitled".into())
        .unwrap();
    let session = system.session();
    let request = UpdateBatch::new().replace(old, new);
    let (prepared, allocations) = counted(|| session.prepare_batch("omega", request).unwrap());
    assert_eq!(prepared.ops.len(), 1, "a title-only VO-R is one replace");
    println!("{allocations} allocations for one title-only replacement");
    assert!(
        allocations <= TITLE_ONLY_REPLACEMENT,
        "{allocations} allocations"
    );
}

/// What preparing one VO-CD complete deletion of a scaled ω instance
/// allocates, now that the deletion plan keeps each row where it found it
/// and borrows relation names from the schema: 91 in release, 128 in debug
/// (105 and 142 when it cloned a name and a key into every work item and
/// re-read each row it had found). Debug builds also cross-check the delta
/// check against a scan of the database.
const COMPLETE_DELETION: u64 = if cfg!(debug_assertions) { 128 } else { 91 };

/// One complete deletion, prepared on a session: validation, the read
/// set's currency, the cascade plan, the fold of its ops and the check
/// stay within [`COMPLETE_DELETION`] allocations.
#[test]
fn a_complete_deletion_allocates_within_its_budget() {
    let (schema, db) = university_scaled(8, 42);
    let mut system = Penguin::with_database(schema, db);
    system
        .define_object(
            "omega",
            "COURSES",
            &["DEPARTMENT", "CURRICULUM", "GRADES", "STUDENT"],
        )
        .unwrap();
    let omega = system.object("omega").unwrap().object.clone();
    system
        .install_translator("omega", Translator::permissive(&omega))
        .unwrap();
    let old = system
        .instance_by_key("omega", &Key::single("C1-2"))
        .unwrap();
    let session = system.session();
    let request = UpdateBatch::new().delete(old);
    let (prepared, allocations) = counted(|| session.prepare_batch("omega", request).unwrap());
    println!(
        "{allocations} allocations for one complete deletion of {} ops",
        prepared.ops.len()
    );
    assert!(prepared.ops.len() > 1, "the deletion cascades");
    assert!(
        allocations <= COMPLETE_DELETION,
        "{allocations} allocations"
    );
}
