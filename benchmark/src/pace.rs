//! The box's pace. The sandbox shares its cores with other tenants, and
//! for minutes at a time everything — a bare arithmetic loop included —
//! runs 1.2 to 1.6 times slower; two sets of runs of one commit, taken ten
//! minutes apart, read a third apart. No window the budget allows averages
//! that out, so the benchmark measures it: beside the operations, on the
//! same threads, it runs a fixed piece of work of its own (a *beat*) and
//! reports every timing at the pace of a quiet reference box — the time as
//! measured × [`NOMINAL_BEAT_US`] ÷ the beat's time over the same stretch.
//! A change to PENGUIN moves an operation and not the beat, so it shows in
//! full; a slow stretch moves both and cancels.
//!
//! A beat is made of what PENGUIN's own work is made of — ordered-map
//! probes by string key in a table of a size with the databases served,
//! row clones (allocation and copying) and some arithmetic — so that what
//! slows one slows the other about as much.

use crate::gen::Rng;
use crate::stats;
use std::collections::BTreeMap;

/// One beat on the quiet 2-core reference box (Xeon @ 2.1 GHz), in
/// microseconds. A constant of the benchmark: changing it rescales every
/// timing, so it changes only with a new baseline.
pub const NOMINAL_BEAT_US: f64 = 25.0;

/// Rows of the beat's table: a megabyte and a half, which competes for the
/// core's cache as PENGUIN's data does. With 2 048 rows, always in cache, the
/// beat did not notice a neighbour that thrashed the shared cache and
/// slowed `embedded_batch` by a tenth; with 32 768, more than the cache
/// holds, the beat's own time came to depend on what the last operation
/// had left there and moved by a tenth from run to run on `recovery`. Six
/// rounds of the three sizes in turn on a restless box: the widest
/// interquartile spread of an operation's median over the four workloads
/// was 6.8 %, 4.3 % and 7.0 %.
const ROWS: usize = 8_192;
const PROBES_PER_BEAT: usize = 48;
const STEPS_PER_BEAT: usize = 4_000;
/// Beats run when a pacer is made, so the first timed one is warm.
const WARM_UP_BEATS: usize = 200;

/// The reference work, one per thread that runs it.
pub struct Pacer {
    rows: BTreeMap<String, Vec<String>>,
    keys: Vec<String>,
    rng: Rng,
    sink: u64,
}

impl Pacer {
    pub fn new() -> Self {
        let mut rng = Rng::new(0x7061_6365, 0);
        let rows: BTreeMap<String, Vec<String>> = (0..ROWS)
            .map(|i| {
                let key = format!("K{:016x}", rng.next_u64());
                let row = vec![
                    key.clone(),
                    format!("row {i}"),
                    "graduate".to_owned(),
                    format!("department {}", i % 97),
                ];
                (key, row)
            })
            .collect();
        let keys = rows.keys().cloned().collect();
        let mut pacer = Pacer {
            rows,
            keys,
            rng,
            sink: 0,
        };
        for _ in 0..WARM_UP_BEATS {
            pacer.beat();
        }
        pacer
    }

    /// One unit of reference work.
    pub fn beat(&mut self) {
        for _ in 0..PROBES_PER_BEAT {
            let key = &self.keys[self.rng.below(self.keys.len())];
            let row = self.rows.get(key).expect("own key").clone();
            self.sink += row.iter().map(String::len).sum::<usize>() as u64;
        }
        let mut x = self.sink | 1;
        for _ in 0..STEPS_PER_BEAT {
            x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        self.sink = std::hint::black_box(self.sink ^ x);
    }
}

/// The beat's time, in microseconds, that a latency of `lat_us` is to be
/// set against: the median over blocks of consecutive beats about as long
/// as the latency itself. A stall of some milliseconds lands in few of
/// many short operations and leaves their median alone, but stretches
/// every long one; blocks of the operation's length see what it sees. One
/// beat a block is the median beat, one block the mean. `None` without
/// beats.
pub fn beat_us_over(beats_us: &[f64], lat_us: f64) -> Option<f64> {
    if beats_us.is_empty() {
        return None;
    }
    let per_block = ((lat_us / NOMINAL_BEAT_US).round() as usize).clamp(1, beats_us.len());
    let blocks: Vec<f64> = beats_us
        .chunks_exact(per_block)
        .map(|block| block.iter().sum::<f64>() / per_block as f64)
        .collect();
    Some(stats::median(&blocks))
}

/// The mean beat, which a rate is set against. `None` without beats.
pub fn mean_beat_us(beats_us: &[f64]) -> Option<f64> {
    beat_us_over(beats_us, f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_latencies_meet_the_median_beat_and_long_ones_the_mean() {
        // one beat in ten met a stall
        let beats: Vec<f64> = (0..100)
            .map(|i| if i % 10 == 9 { 10.0 } else { 1.0 } * NOMINAL_BEAT_US)
            .collect();
        let near = |got: Option<f64>, beats: f64| {
            assert!((got.expect("beats") - beats * NOMINAL_BEAT_US).abs() < 1e-9);
        };
        near(beat_us_over(&beats, 0.7 * NOMINAL_BEAT_US), 1.0);
        near(beat_us_over(&beats, 10.0 * NOMINAL_BEAT_US), 1.9);
        near(mean_beat_us(&beats), 1.9);
        assert_eq!(beat_us_over(&[], 30.0), None);
    }

    #[test]
    fn a_beat_is_the_same_work_every_time() {
        let (mut a, mut b) = (Pacer::new(), Pacer::new());
        for _ in 0..10 {
            a.beat();
            b.beat();
        }
        assert_eq!(a.sink, b.sink);
    }
}
