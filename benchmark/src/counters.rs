//! Registry counters (`vo_obs::metrics`) read around chosen intervals, so
//! that a count belongs to the work it is reported for.

use crate::report::Outcome;
use vo_obs::metrics::{self, Counter, HistogramSnapshot};

/// Counters accumulated over chosen intervals only.
pub struct Tally {
    /// `(name, handle, reading at interval start, total)`
    counters: Vec<(&'static str, Counter, u64, u64)>,
}

impl Tally {
    pub fn new(names: &[&'static str]) -> Self {
        Tally {
            counters: names
                .iter()
                .map(|&name| (name, metrics::counter(name), 0, 0))
                .collect(),
        }
    }

    /// Count what happens inside `f`.
    pub fn during<T>(&mut self, f: impl FnOnce() -> T) -> T {
        for (_, counter, mark, _) in &mut self.counters {
            *mark = counter.get();
        }
        let out = f();
        for (_, counter, mark, total) in &mut self.counters {
            *total += counter.get().saturating_sub(*mark);
        }
        out
    }

    /// `part ÷ (part + rest)`, 0 when neither was counted — a hit ratio.
    pub fn share(&self, part: &str, rest: &str) -> f64 {
        let (part, rest) = (self.total(part), self.total(rest));
        if part + rest > 0.0 {
            part / (part + rest)
        } else {
            0.0
        }
    }

    pub fn total(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, ..)| *n == name)
            .map_or(0.0, |&(.., total)| total as f64)
    }
}

/// `(metric, registry counter)` of the store's background work.
const STORE_WORK: [(&str, &str); 4] = [
    ("store.checkpoints_delta", "store.checkpoints.delta"),
    ("store.checkpoints_full", "store.checkpoints.full"),
    ("store.compactions", "store.compactions"),
    ("store.segments_created", "store.segments.created"),
];
const CHECKPOINT_BYTES: &str = "store.checkpoint.bytes";

/// The store's background work — checkpoints, compactions, segment rolls
/// — from a starting point on.
pub struct StoreWork {
    counters: [u64; 4],
    checkpoint_bytes: HistogramSnapshot,
}

impl StoreWork {
    pub fn begin() -> Self {
        StoreWork {
            counters: STORE_WORK.map(|(_, registry)| metrics::counter(registry).get()),
            checkpoint_bytes: metrics::histogram(CHECKPOINT_BYTES).snapshot(),
        }
    }

    /// Report the work done since [`StoreWork::begin`], per `runs`
    /// identical runs of it.
    pub fn report(&self, outcome: &mut Outcome, runs: f64) {
        for ((name, registry), before) in STORE_WORK.iter().zip(self.counters) {
            outcome.set(
                name,
                (metrics::counter(registry).get() - before) as f64 / runs,
            );
        }
        let now = metrics::histogram(CHECKPOINT_BYTES).snapshot();
        let earlier = |floor: u64| {
            self.checkpoint_bytes
                .buckets
                .iter()
                .find(|&&(lo, _)| lo == floor)
                .map_or(0, |&(_, n)| n)
        };
        let since = HistogramSnapshot {
            count: now.count - self.checkpoint_bytes.count,
            sum: now.sum - self.checkpoint_bytes.sum,
            min: 0,
            max: now.max,
            buckets: now
                .buckets
                .iter()
                .map(|&(lo, n)| (lo, n - earlier(lo)))
                .filter(|&(_, n)| n > 0)
                .collect(),
        };
        outcome.set("store.checkpoint_bytes_p50", since.quantile(0.5));
    }
}
