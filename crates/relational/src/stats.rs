//! Lightweight global instrumentation counters for the access paths.
//!
//! The instantiation engine and its tests need to know *how* tables were
//! accessed — index probe vs. full-scan fallback, hash builds, join rows
//! produced — to prove that batched instantiation never silently degrades
//! to scans. The counters live in the [`vo_obs::metrics`] registry (names
//! `relational.*`), so they show up in registry snapshots and JSON exports
//! alongside every other metric; the handles interned here keep the
//! increment cost identical to a hand-rolled relaxed atomic.
//!
//! ## Contract: counters only grow
//!
//! Every counter is an `AtomicU64` bumped with `Ordering::Relaxed` —
//! concurrent readers (the net server's worker threads, each instantiating
//! on its own pinned session) increment them with no synchronization
//! beyond the atomic itself, and nothing ever lowers one. What that buys,
//! and what it doesn't:
//!
//! - **Monotonic counts.** Increments are atomic read-modify-write ops, so
//!   no increment is ever lost and a counter read through [`snapshot`]
//!   never goes backwards.
//! - **A count belongs to a region only as a delta.** Take a [`snapshot`]
//!   before the region and one after; [`InstrumentationSnapshot::delta`]
//!   is what the region (and anything running beside it) added. Absolute
//!   values mean nothing on their own.
//! - **No cross-counter consistency.** [`snapshot`] reads each counter
//!   independently; a snapshot taken while workers run is not a consistent
//!   cut (it may see a join's `join_rows` but not yet its
//!   `instances_built`). Fences would not fix this — it is inherent to
//!   sampling live counters — so consumers must treat a live snapshot as
//!   approximate and take authoritative ones only at join points.

use std::sync::OnceLock;
use vo_obs::metrics::{self, Counter};

fn index_probes() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("relational.index_probes"))
}

fn fallback_scans() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("relational.fallback_scans"))
}

fn hash_builds() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("relational.hash_builds"))
}

fn join_rows() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("relational.join_rows"))
}

fn instances_built() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("relational.instances_built"))
}

fn overlay_created() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("translate.overlay_created"))
}

fn overlay_reads() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("translate.overlay_reads"))
}

fn snapshot_avoided() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("translate.snapshot_avoided"))
}

fn commits() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("relational.commits"))
}

fn conflicts() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("relational.conflicts"))
}

fn snapshots_pinned() -> Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    *C.get_or_init(|| metrics::counter("relational.snapshots_pinned"))
}

/// Record one lookup answered by a secondary (or primary) index.
pub fn count_index_probe() {
    index_probes().inc();
}

/// Record `n` index-answered lookups in one bump. The set-at-a-time
/// engine aggregates per frontier pass, so it touches the shared counter
/// once per step, not once per tuple.
pub fn count_index_probes(n: u64) {
    index_probes().add(n);
}

/// Record one lookup that fell back to a full relation scan.
pub fn count_fallback_scan() {
    fallback_scans().inc();
}

/// Record one hash-table build over a relation (set-at-a-time join pass).
pub fn count_hash_build() {
    hash_builds().inc();
}

/// Record `n` rows produced by a join step.
pub fn count_join_rows(n: u64) {
    join_rows().add(n);
}

/// Record `n` view-object instances materialized.
pub fn count_instances_built(n: u64) {
    instances_built().add(n);
}

/// Record one delta overlay ([`crate::overlay::DeltaDb`]) constructed over
/// a base database.
pub fn count_overlay_created() {
    overlay_created().inc();
}

/// Record one relation lookup answered through a delta overlay.
pub fn count_overlay_read() {
    overlay_reads().inc();
}

/// Record one translation run that read through an overlay instead of
/// cloning the base database (one avoided full snapshot).
pub fn count_snapshot_avoided() {
    snapshot_avoided().inc();
}

/// Record one committed transaction (a version bump). Registry name
/// `relational.commits`; not part of [`InstrumentationSnapshot`].
pub fn count_commit() {
    commits().inc();
}

/// Record one first-committer-wins conflict (a prepared transaction
/// rejected because a relation it touched changed under it). Registry
/// name `relational.conflicts`; not part of [`InstrumentationSnapshot`].
pub fn count_conflict() {
    conflicts().inc();
}

/// Record one snapshot pinned ([`crate::database::Database::snapshot`]).
/// Registry name `relational.snapshots_pinned`; not part of
/// [`InstrumentationSnapshot`].
pub fn count_snapshot_pinned() {
    snapshots_pinned().inc();
}

/// A point-in-time copy of all counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InstrumentationSnapshot {
    /// Lookups answered by an index.
    pub index_probes: u64,
    /// Lookups that degraded to a full scan.
    pub fallback_scans: u64,
    /// Hash-table builds for set-at-a-time joins.
    pub hash_builds: u64,
    /// Total rows produced by join steps.
    pub join_rows: u64,
    /// View-object instances materialized.
    pub instances_built: u64,
    /// Delta overlays constructed for update translation.
    pub overlay_created: u64,
    /// Relation lookups answered through a delta overlay.
    pub overlay_reads: u64,
    /// Translation runs that avoided a full base-database clone.
    pub snapshot_avoided: u64,
}

impl InstrumentationSnapshot {
    /// Counter deltas between `self` (earlier) and `later`: what the
    /// region between the two snapshots added. Counters only grow, so a
    /// field can drop only when the snapshots are passed out of order; it
    /// then reads zero rather than underflowing.
    pub fn delta(&self, later: &InstrumentationSnapshot) -> InstrumentationSnapshot {
        InstrumentationSnapshot {
            index_probes: later.index_probes.saturating_sub(self.index_probes),
            fallback_scans: later.fallback_scans.saturating_sub(self.fallback_scans),
            hash_builds: later.hash_builds.saturating_sub(self.hash_builds),
            join_rows: later.join_rows.saturating_sub(self.join_rows),
            instances_built: later.instances_built.saturating_sub(self.instances_built),
            overlay_created: later.overlay_created.saturating_sub(self.overlay_created),
            overlay_reads: later.overlay_reads.saturating_sub(self.overlay_reads),
            snapshot_avoided: later.snapshot_avoided.saturating_sub(self.snapshot_avoided),
        }
    }
}

impl std::fmt::Display for InstrumentationSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "index_probes={} fallback_scans={} hash_builds={} join_rows={} instances_built={} \
             overlay_created={} overlay_reads={} snapshot_avoided={}",
            self.index_probes,
            self.fallback_scans,
            self.hash_builds,
            self.join_rows,
            self.instances_built,
            self.overlay_created,
            self.overlay_reads,
            self.snapshot_avoided
        )
    }
}

/// Read all counters.
pub fn snapshot() -> InstrumentationSnapshot {
    InstrumentationSnapshot {
        index_probes: index_probes().get(),
        fallback_scans: fallback_scans().get(),
        hash_builds: hash_builds().get(),
        join_rows: join_rows().get(),
        instances_built: instances_built().get(),
        overlay_created: overlay_created().get(),
        overlay_reads: overlay_reads().get(),
        snapshot_avoided: snapshot_avoided().get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        let before = snapshot();
        count_index_probe();
        count_fallback_scan();
        count_hash_build();
        count_join_rows(5);
        count_instances_built(2);
        let after = snapshot();
        let d = before.delta(&after);
        assert!(d.index_probes >= 1);
        assert!(d.fallback_scans >= 1);
        assert!(d.hash_builds >= 1);
        assert!(d.join_rows >= 5);
        assert!(d.instances_built >= 2);
        let line = d.to_string();
        assert!(line.contains("index_probes="));
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

    #[test]
    fn counters_are_race_safe_under_concurrent_workers() {
        // Workers hammer the counters while the main thread samples; every
        // sampled value must be monotonically non-decreasing (relaxed
        // increments are atomic RMW ops — none may be lost), and after the
        // join the delta must account for every increment. Other tests in
        // this process may bump the same counters concurrently, so the
        // assertions are one-sided (>=).
        const WORKERS: usize = 4;
        const PER_WORKER: u64 = 10_000;
        let before = snapshot();
        std::thread::scope(|scope| {
            for _ in 0..WORKERS {
                scope.spawn(|| {
                    for _ in 0..PER_WORKER {
                        count_index_probe();
                        count_join_rows(3);
                    }
                });
            }
            let mut last = before;
            for _ in 0..100 {
                let now = snapshot();
                assert!(
                    now.index_probes >= last.index_probes,
                    "index_probes went backwards: {} -> {}",
                    last.index_probes,
                    now.index_probes
                );
                assert!(
                    now.join_rows >= last.join_rows,
                    "join_rows went backwards: {} -> {}",
                    last.join_rows,
                    now.join_rows
                );
                last = now;
            }
        });
        let d = before.delta(&snapshot());
        assert!(d.index_probes >= WORKERS as u64 * PER_WORKER);
        assert!(d.join_rows >= WORKERS as u64 * PER_WORKER * 3);
    }

    #[test]
    fn delta_of_snapshots_out_of_order_is_zero() {
        // `later` taken before `before` is smaller; the delta must clamp
        // to zero, not underflow.
        let before = InstrumentationSnapshot {
            index_probes: 100,
            fallback_scans: 50,
            hash_builds: 10,
            join_rows: 1000,
            instances_built: 7,
            ..Default::default()
        };
        let later = InstrumentationSnapshot::default();
        let d = before.delta(&later);
        assert_eq!(d, InstrumentationSnapshot::default());
    }
}
