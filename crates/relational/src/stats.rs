//! Access-path counters: how tables were read and how translation used
//! its overlays.
//!
//! The instantiation engine and its tests need to know *how* tables were
//! accessed — index probe vs. full-scan fallback, hash builds, join rows
//! produced — to prove that batched instantiation never silently degrades
//! to scans. The counters live in the [`vo_obs::metrics`] registry (names
//! `relational.*` and `translate.*`), so they show up in registry
//! snapshots and JSON exports alongside every other metric; the handles
//! interned here keep the increment cost identical to a hand-rolled
//! relaxed atomic. The first count registers every name at once.
//!
//! ## Reading a count
//!
//! - **A call's own work is a capture.** Wrap the call in
//!   [`vo_obs::trace::capture`]; [`vo_obs::trace::Capture::count`] is what
//!   the calling thread added under a name while it ran — exact, whatever
//!   other threads count meanwhile.
//! - **Registry values are process-wide totals.** Each counter is an
//!   `AtomicU64` bumped with `Ordering::Relaxed` from any thread and never
//!   lowered. Work done on other threads (a server's connection threads)
//!   is read there, as a before/after difference that anything running
//!   beside it also moves; no read across counters is a consistent cut.

use std::sync::OnceLock;
use vo_obs::metrics::{self, Counter};

struct Counters {
    index_probes: Counter,
    fallback_scans: Counter,
    hash_builds: Counter,
    join_rows: Counter,
    instances_built: Counter,
    overlay_created: Counter,
    overlay_reads: Counter,
    snapshot_avoided: Counter,
    commits: Counter,
    conflicts: Counter,
    snapshots_pinned: Counter,
    cow_rows: Counter,
}

fn counters() -> &'static Counters {
    static C: OnceLock<Counters> = OnceLock::new();
    C.get_or_init(|| Counters {
        index_probes: metrics::counter("relational.index_probes"),
        fallback_scans: metrics::counter("relational.fallback_scans"),
        hash_builds: metrics::counter("relational.hash_builds"),
        join_rows: metrics::counter("relational.join_rows"),
        instances_built: metrics::counter("relational.instances_built"),
        overlay_created: metrics::counter("translate.overlay_created"),
        overlay_reads: metrics::counter("translate.overlay_reads"),
        snapshot_avoided: metrics::counter("translate.snapshot_avoided"),
        commits: metrics::counter("relational.commits"),
        conflicts: metrics::counter("relational.conflicts"),
        snapshots_pinned: metrics::counter("relational.snapshots_pinned"),
        cow_rows: metrics::counter("relational.cow_rows"),
    })
}

/// Record one lookup answered by a secondary (or primary) index.
pub fn count_index_probe() {
    counters().index_probes.inc();
}

/// Record `n` index-answered lookups in one bump. The set-at-a-time
/// engine aggregates per frontier pass, so it touches the shared counter
/// once per step, not once per tuple.
pub fn count_index_probes(n: u64) {
    counters().index_probes.add(n);
}

/// Record one lookup that fell back to a full relation scan.
pub fn count_fallback_scan() {
    counters().fallback_scans.inc();
}

/// Record one hash-table build over a relation (set-at-a-time join pass).
pub fn count_hash_build() {
    counters().hash_builds.inc();
}

/// Record `n` rows produced by a join step.
pub fn count_join_rows(n: u64) {
    counters().join_rows.add(n);
}

/// Record `n` view-object instances materialized.
pub fn count_instances_built(n: u64) {
    counters().instances_built.add(n);
}

/// Record one delta overlay ([`crate::overlay::DeltaDb`]) constructed over
/// a base database.
pub fn count_overlay_created() {
    counters().overlay_created.inc();
}

/// Record one relation lookup answered through a delta overlay.
pub fn count_overlay_read() {
    counters().overlay_reads.inc();
}

/// Record one translation run that read through an overlay instead of
/// cloning the base database (one avoided full snapshot).
pub fn count_snapshot_avoided() {
    counters().snapshot_avoided.inc();
}

/// Record one committed transaction (a version bump).
pub fn count_commit() {
    counters().commits.inc();
}

/// Record one first-committer-wins conflict (a prepared transaction
/// rejected because a relation it touched changed under it).
pub fn count_conflict() {
    counters().conflicts.inc();
}

/// Record one snapshot pinned ([`crate::database::Database::snapshot`]).
pub fn count_snapshot_pinned() {
    counters().snapshots_pinned.inc();
}

/// Record `n` entries — rows or secondary-index entries — copied out of a
/// table chunk that a pinned version still shared, so that a write could
/// land (copy-on-write, [`crate::table::Table`]).
pub fn count_cow_rows(n: u64) {
    counters().cow_rows.add(n);
}

#[cfg(test)]
mod tests {
    use super::*;
    use vo_obs::trace;

    #[test]
    fn a_capture_counts_exactly_what_its_call_counted() {
        let ((), taken) = trace::capture(|| {
            count_index_probe();
            count_index_probes(2);
            count_hash_build();
            count_join_rows(5);
            count_instances_built(2);
        });
        let count = |name| taken.count(name);
        assert_eq!(count("relational.index_probes"), 3);
        assert_eq!(count("relational.hash_builds"), 1);
        assert_eq!(count("relational.join_rows"), 5);
        assert_eq!(count("relational.instances_built"), 2);
        // the first count registered every name
        assert_eq!(count("relational.fallback_scans"), 0);
        assert_eq!(count("relational.snapshots_pinned"), 0);
    }

    #[test]
    fn counters_visible_in_obs_registry() {
        let before = vo_obs::metrics::counter("relational.index_probes").get();
        count_index_probe();
        let after = vo_obs::metrics::counter("relational.index_probes").get();
        assert!(after > before);
        assert!(vo_obs::metrics::snapshot_all()
            .counters
            .contains_key("relational.index_probes"));
    }
}
