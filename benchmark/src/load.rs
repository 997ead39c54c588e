//! The closed-loop load generator: each client thread issues its next
//! operation only when the previous one has been answered. A run is a
//! sequence of phases on one clock — warm-up (discarded), the measured
//! window, and in a traced run a second window with spans recorded.
//! Between operations a client thread runs the reference work of
//! [`crate::pace`], and every timing is reported at the reference pace.

use crate::pace::{self, Pacer, NOMINAL_BEAT_US};
use crate::spans::{Recorder, Span};
use crate::stats;
use std::time::Instant;

/// Set-up is repeated so `setup_s` does not hang on one reading: until a
/// third of a second has gone into it, fifteen times at least and forty at
/// most (a set-up of ten milliseconds needs that many to read steadily) —
/// or fewer, never under three, once four seconds have gone into it.
const SETUP_REPEATS: std::ops::RangeInclusive<usize> = 15..=40;
const SETUP_ENOUGH_S: f64 = 0.3;
const SETUP_BUDGET_S: f64 = 4.0;

/// Reference work after an operation: this share of the time the operation
/// took, in runs of beats of [`MIN_BEATS_S`] to [`MAX_BEATS_S`] at the
/// reference pace — short operations share a run, so that beats and
/// operations do not take turns at evicting each other from the caches.
const BEAT_SHARE: f64 = 0.25;
const MIN_BEATS_S: f64 = 0.001;
const MAX_BEATS_S: f64 = 0.025;

/// Reference work after a set-up: as long as the set-up took at the
/// reference pace, within these limits (a set-up leaves the caches cold,
/// and a short run of beats would mostly measure warming them).
const SETUP_BEATS_S: (f64, f64) = (0.02, 0.1);

/// Run `setup` repeatedly, keep the last state, and report the set-up time
/// in seconds with the number of repeats: the mean of the repeats after
/// the first (which pays for cold caches), at the reference pace by the
/// mean of the beats run between them. Means, because a set-up is about as
/// long as the stalls of a shared box: a median of readings that either
/// met one or did not flips between the two. A `quick` run (a smoke run,
/// whose numbers are not comparable) stops at three repeats.
pub fn repeat_setup<S>(quick: bool, mut setup: impl FnMut() -> S) -> (S, f64, usize) {
    let mut pacer = Pacer::new();
    let (mut times, mut beats_us) = (Vec::new(), Vec::new());
    loop {
        let start = Instant::now();
        let state = setup();
        let took = start.elapsed();
        times.push(took.as_secs_f64());
        let owed_s = took.as_secs_f64().clamp(SETUP_BEATS_S.0, SETUP_BEATS_S.1);
        for _ in 0..(owed_s * 1e6 / NOMINAL_BEAT_US).ceil() as usize {
            let start = Instant::now();
            pacer.beat();
            beats_us.push(start.elapsed().as_secs_f64() * 1e6);
        }
        let spent: f64 = times.iter().sum();
        let enough = times.len() >= *SETUP_REPEATS.start() && spent >= SETUP_ENOUGH_S;
        if enough
            || times.len() >= *SETUP_REPEATS.end()
            || (times.len() >= 3 && (quick || spent > SETUP_BUDGET_S))
        {
            let warm = &times[1..];
            let took_s = warm.iter().sum::<f64>() / warm.len() as f64;
            let beat_us = pace::mean_beat_us(&beats_us).unwrap_or(NOMINAL_BEAT_US);
            return (state, took_s * NOMINAL_BEAT_US / beat_us, times.len());
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    WarmUp,
    /// What every end-to-end metric comes from; spans are off.
    Measured,
    /// Traced runs only: the same load with spans on.
    Traced,
}

/// The measured window is cut into slices of about this length (four at
/// least); see [`PhaseSamples`]. Long enough that a slice's beats, a fifth
/// of its time, meet their share of the box's stalls: with slices of a
/// second, stalls of 30 ms every 100 ms moved a rate by a seventh.
const SLICE_S: f64 = 3.0;
const MIN_SLICES: usize = 4;

/// One run's timeline: a warm-up of a tenth of the window (discarded),
/// then the window in slices. In a traced run the slices alternate between
/// untraced and traced, so that the two are compared over the same stretch
/// of time and not one after the other.
pub struct Clock {
    epoch: Instant,
    warm_up_s: f64,
    slice_s: f64,
    slices: Vec<Phase>,
}

impl Clock {
    pub fn start(seconds: f64, trace: bool) -> Clock {
        // an even number, so a traced run has as many slices of each kind
        let count = (((seconds / SLICE_S) as usize).max(MIN_SLICES) + 1) & !1;
        Clock::with_slices(seconds, count, trace)
    }

    fn with_slices(seconds: f64, count: usize, trace: bool) -> Clock {
        let slices = (0..count)
            .map(|slice| {
                if trace && slice % 2 == 1 {
                    Phase::Traced
                } else {
                    Phase::Measured
                }
            })
            .collect();
        Clock {
            epoch: Instant::now(),
            warm_up_s: seconds / 10.0,
            slice_s: seconds / count as f64,
            slices,
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_s(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// The slice `t` falls into, once the warm-up is over.
    fn slice_at(&self, t: f64) -> Option<usize> {
        let slice = ((t - self.warm_up_s) / self.slice_s).floor();
        (slice >= 0.0 && slice < self.slices.len() as f64).then_some(slice as usize)
    }

    /// `None` once the window is over.
    fn phase_at(&self, t: f64) -> Option<Phase> {
        if t < self.warm_up_s {
            return Some(Phase::WarmUp);
        }
        self.slice_at(t).map(|slice| self.slices[slice])
    }

    /// Drive one client: call `op` until the window ends, with reference
    /// beats after each call. `op` reports what went wrong with a failed
    /// operation.
    pub fn run_client(&self, op: impl FnMut(&mut Ctx) -> Result<(), String>) -> ThreadLog {
        self.run(Some(Pacer::new()), op)
    }

    /// Drive a client beside the paced ones: `op` back to back, no beats
    /// (its timings are set against the other threads' beats).
    pub fn run_beside(&self, op: impl FnMut(&mut Ctx) -> Result<(), String>) -> ThreadLog {
        self.run(None, op)
    }

    fn run(
        &self,
        mut pacer: Option<Pacer>,
        mut op: impl FnMut(&mut Ctx) -> Result<(), String>,
    ) -> ThreadLog {
        let mut ctx = Ctx {
            clock: self,
            rec: Recorder::new(false, self.epoch),
            samples: Vec::new(),
            op: 0,
        };
        let mut log = ThreadLog::default();
        let mut began = self.now_s();
        // reference work owed for the operations since the last beats
        let mut owed_s = 0.0;
        while let Some(phase) = self.phase_at(began) {
            ctx.rec.set_on(phase == Phase::Traced);
            ctx.op += 1;
            log.attempted += 1;
            if let Err(problem) = op(&mut ctx) {
                log.failed += 1;
                log.first_problem.get_or_insert(problem);
            }
            let mut now = self.now_s();
            owed_s += (now - began) * BEAT_SHARE;
            if let Some(pacer) = pacer.as_mut().filter(|_| owed_s >= MIN_BEATS_S) {
                // a fixed amount of work, not of time: a run that ended on
                // the clock would be cut short by the very stall it is
                // there to meet, and read the box slower than it is
                let owed_beats = owed_s.min(MAX_BEATS_S) * 1e6 / NOMINAL_BEAT_US;
                owed_s = 0.0;
                for _ in 0..owed_beats.ceil() as usize {
                    pacer.beat();
                    let end_s = self.now_s();
                    log.beats.push(Beat {
                        start_s: now,
                        end_s,
                    });
                    now = end_s;
                }
            }
            began = now;
        }
        log.samples = ctx.samples;
        log.spans = ctx.rec.into_spans();
        log
    }
}

/// One timed call as the client saw it, in seconds on the run's clock.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
}

/// One unit of reference work, in seconds on the run's clock.
#[derive(Debug, Clone, Copy)]
pub struct Beat {
    pub start_s: f64,
    pub end_s: f64,
}

/// What one client thread brings back.
#[derive(Default)]
pub struct ThreadLog {
    pub samples: Vec<Sample>,
    pub beats: Vec<Beat>,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
    pub first_problem: Option<String>,
}

/// Handed to the operation: times calls as latency samples and spans.
pub struct Ctx<'c> {
    clock: &'c Clock,
    rec: Recorder,
    samples: Vec<Sample>,
    op: u64,
}

impl Ctx<'_> {
    /// Time `f` as a latency sample named `name` (and as a span when the
    /// phase is traced).
    pub fn sample<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let start_s = self.clock.now_s();
        let out = self.span(name, f);
        self.samples.push(Sample {
            name,
            start_s,
            end_s: self.clock.now_s(),
        });
        out
    }

    /// Time `f` as a span only: nothing is kept in an untraced phase.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.rec.is_on() {
            return f(self);
        }
        let op = self.op;
        let start = self.rec.enter(name, op);
        let out = f(self);
        self.rec.exit(start);
        out
    }
}

/// The samples named `name` of one phase, over all threads, slice by
/// slice. Every figure is computed within a slice, set against the beats
/// of the same slice, and what is reported is the median over the slices.
pub struct PhaseSamples {
    slices: Vec<Slice>,
}

#[derive(Default, Clone)]
struct Slice {
    /// Latencies in microseconds, ascending.
    lat_us: Vec<f64>,
    /// Operations per second as measured, beats taken out.
    per_s: f64,
    /// The slice's beats in microseconds, thread after thread in time
    /// order.
    beats_us: Vec<f64>,
}

impl PhaseSamples {
    pub fn count(&self) -> usize {
        self.slices.iter().map(|s| s.lat_us.len()).sum()
    }

    fn median_of_slices(&self, figure: impl Fn(&Slice) -> f64) -> f64 {
        let per_slice: Vec<f64> = self
            .slices
            .iter()
            .filter(|s| !s.lat_us.is_empty())
            .map(figure)
            .collect();
        stats::median(&per_slice)
    }

    /// The `p`-quantile of latency in microseconds, at the reference pace.
    pub fn p(&self, p: f64) -> f64 {
        self.median_of_slices(|s| {
            let lat_us = stats::percentile(&s.lat_us, p);
            match pace::beat_us_over(&s.beats_us, lat_us) {
                Some(beat_us) => lat_us * NOMINAL_BEAT_US / beat_us,
                None => lat_us,
            }
        })
    }

    /// The `p`-quantile of latency in microseconds as the clock read it:
    /// for setting beside other timings of this box and this minute.
    pub fn raw_p(&self, p: f64) -> f64 {
        self.median_of_slices(|s| stats::percentile(&s.lat_us, p))
    }

    /// Operations per second, all threads, at the reference pace.
    pub fn per_s(&self) -> f64 {
        self.median_of_slices(|s| match pace::mean_beat_us(&s.beats_us) {
            Some(beat_us) => s.per_s * beat_us / NOMINAL_BEAT_US,
            None => s.per_s,
        })
    }

    /// The median beat of the phase in microseconds, as the clock read it
    /// (0 without beats).
    pub fn beat_us(&self) -> f64 {
        let all: Vec<f64> = self
            .slices
            .iter()
            .flat_map(|s| s.beats_us.iter().copied())
            .collect();
        stats::median(&all)
    }
}

pub fn phase_samples(clock: &Clock, logs: &[ThreadLog], phase: Phase, name: &str) -> PhaseSamples {
    let count = clock.slices.len();
    let mut slices = vec![Slice::default(); count];
    // the slice an interval lies in, when all of it lies in this phase (in
    // a traced run, an operation that crosses from an untraced slice into
    // a traced one belongs to neither)
    let slice_of = |start_s: f64, end_s: f64| {
        let (first, last) = (clock.slice_at(start_s)?, clock.slice_at(end_s)?);
        clock.slices[first..=last]
            .iter()
            .all(|&p| p == phase)
            .then_some(last)
    };
    for log in logs {
        let mut per_slice: Vec<Vec<&Sample>> = vec![Vec::new(); count];
        for s in log.samples.iter().filter(|s| s.name == name) {
            if let Some(slice) = slice_of(s.start_s, s.end_s) {
                per_slice[slice].push(s);
            }
        }
        let mut beats: Vec<Vec<&Beat>> = vec![Vec::new(); count];
        for b in &log.beats {
            if let Some(slice) = slice_of(b.start_s, b.end_s) {
                beats[slice].push(b);
            }
        }
        for ((slice, inside), beats) in slices.iter_mut().zip(per_slice).zip(beats) {
            // a closed loop's exact rate: completions over the time from
            // the first start to the last end, less the beats in between.
            // Counting completions per slice width instead would, at
            // twenty operations a second, move by 4 % with one operation
            // straddling the edge.
            if let (Some(first), Some(last)) = (inside.first(), inside.last()) {
                let beating: f64 = beats
                    .iter()
                    .filter(|b| b.start_s >= first.start_s && b.end_s <= last.end_s)
                    .map(|b| b.end_s - b.start_s)
                    .sum();
                slice.per_s += inside.len() as f64 / (last.end_s - first.start_s - beating);
            }
            slice
                .lat_us
                .extend(inside.iter().map(|s| (s.end_s - s.start_s) * 1e6));
            slice
                .beats_us
                .extend(beats.iter().map(|b| (b.end_s - b.start_s) * 1e6));
        }
    }
    for slice in &mut slices {
        slice.lat_us.sort_unstable_by(f64::total_cmp);
    }
    PhaseSamples { slices }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Slices of a second.
    fn clock(seconds: f64) -> Clock {
        Clock::with_slices(seconds, seconds as usize, false)
    }

    /// One thread's operations of `lat_s` each over `[from, to)`, each
    /// followed by a beat of `beat_s`.
    fn steady(from: f64, to: f64, lat_s: f64, beat_s: f64) -> ThreadLog {
        let mut log = ThreadLog::default();
        let mut at = from;
        while at + lat_s + beat_s < to {
            log.samples.push(Sample {
                name: "op",
                start_s: at,
                end_s: at + lat_s,
            });
            at += lat_s;
            if beat_s > 0.0 {
                log.beats.push(Beat {
                    start_s: at,
                    end_s: at + beat_s,
                });
                at += beat_s;
            }
        }
        log
    }

    fn join(mut a: ThreadLog, b: ThreadLog) -> ThreadLog {
        a.samples.extend(b.samples);
        a.beats.extend(b.beats);
        a
    }

    #[test]
    fn a_slow_stretch_moves_operation_and_beat_and_not_the_result() {
        // warm-up [0, 1), window [1, 11): ten slices of 1 s. Operations
        // take 10 ms and a beat the nominal time, except for six seconds
        // in which both take 1.6 times as long.
        let clock = clock(10.0);
        let beat_s = NOMINAL_BEAT_US / 1e6;
        let log = join(
            join(
                steady(0.0, 3.0, 0.010, beat_s),
                steady(3.0, 9.0, 0.016, 1.6 * beat_s),
            ),
            steady(9.0, 11.5, 0.010, beat_s),
        );
        let got = phase_samples(&clock, &[log], Phase::Measured, "op");
        assert!((got.p(0.50) - 10_000.0).abs() < 1.0, "{}", got.p(0.50));
        assert!((got.p(0.95) - 10_000.0).abs() < 1.0, "{}", got.p(0.95));
        assert!((got.per_s() - 100.0).abs() < 0.5, "{}", got.per_s());
        // as the clock read it, most of the window was slow
        assert!(
            (got.raw_p(0.50) - 16_000.0).abs() < 1.0,
            "{}",
            got.raw_p(0.50)
        );
    }

    #[test]
    fn a_faster_operation_shows_in_full() {
        let clock = clock(10.0);
        let log = steady(0.0, 12.0, 0.005, 2.0 * NOMINAL_BEAT_US / 1e6);
        let got = phase_samples(&clock, &[log], Phase::Measured, "op");
        // 5 ms on a box at half the reference pace: 2.5 ms at the reference
        assert!((got.p(0.50) - 2_500.0).abs() < 1.0, "{}", got.p(0.50));
        assert!((got.per_s() - 400.0).abs() < 1.0, "{}", got.per_s());
        assert!((got.beat_us() - 2.0 * NOMINAL_BEAT_US).abs() < 1e-6);
    }

    #[test]
    fn threads_add_up_and_other_names_and_phases_are_left_out() {
        let clock = clock(10.0);
        let mut other = steady(1.0, 11.0, 0.020, 0.0);
        for s in &mut other.samples {
            s.name = "other";
        }
        let logs = [
            steady(0.0, 12.0, 0.010, 0.0),
            join(steady(0.0, 12.0, 0.020, 0.0), other),
        ];
        let got = phase_samples(&clock, &logs, Phase::Measured, "op");
        // no beats: figures as the clock read them
        assert!((got.per_s() - 150.0).abs() < 1.0, "{}", got.per_s());
        assert_eq!(phase_samples(&clock, &logs, Phase::Traced, "op").count(), 0);
        assert_eq!(
            phase_samples(&clock, &logs, Phase::Traced, "op").p(0.5),
            0.0
        );
    }

    #[test]
    fn a_traced_run_alternates_its_slices() {
        let clock = Clock::with_slices(10.0, 10, true);
        assert_eq!(clock.phase_at(0.5), Some(Phase::WarmUp));
        assert_eq!(clock.phase_at(1.5), Some(Phase::Measured));
        assert_eq!(clock.phase_at(2.5), Some(Phase::Traced));
        assert_eq!(clock.phase_at(10.5), Some(Phase::Traced));
        assert_eq!(clock.phase_at(11.0), None);
        let log = steady(0.0, 12.0, 0.030, 0.0);
        let untraced = phase_samples(&clock, std::slice::from_ref(&log), Phase::Measured, "op");
        let traced = phase_samples(&clock, std::slice::from_ref(&log), Phase::Traced, "op");
        // 33 operations a slice, less the one that crosses into the next
        assert!(
            (160..=165).contains(&untraced.count()),
            "{}",
            untraced.count()
        );
        assert!((160..=165).contains(&traced.count()), "{}", traced.count());
        assert!((untraced.per_s() - 1.0 / 0.030).abs() < 0.01);
    }

    #[test]
    fn slices_are_a_few_seconds_and_even_in_number() {
        let slices = |seconds| Clock::start(seconds, false).slices.len();
        assert_eq!(slices(1.0), 4);
        assert_eq!(slices(15.0), 6);
        assert_eq!(slices(24.0), 8);
    }
}
