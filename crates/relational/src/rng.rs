//! A small deterministic pseudo-random number generator.
//!
//! The workload generators and property tests need reproducible randomness
//! without pulling in an external crate. This is the SplitMix64 generator
//! (Steele, Lea, Flood — "Fast splittable pseudorandom number generators"),
//! which passes BigCrush and is more than adequate for seeding synthetic
//! databases and shuffling test inputs. Same seed ⇒ same sequence, on every
//! platform.

/// A seedable SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct SmallRng {
    state: u64,
}

impl SmallRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SmallRng { state: seed }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)` via Lemire's multiply-shift reduction.
    /// `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0, "next_below requires a non-zero bound");
        // Rejection-free would bias tiny amounts for huge bounds; a single
        // widening multiply is unbiased enough for test-data generation and
        // keeps the generator branch-free.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform `usize` in `[range.start, range.end)`. Panics on an empty range.
    pub fn gen_range(&mut self, range: std::ops::Range<usize>) -> usize {
        assert!(range.start < range.end, "gen_range on empty range");
        let span = (range.end - range.start) as u64;
        range.start + self.next_below(span) as usize
    }

    /// Uniform `i64` in `[range.start, range.end)`. Panics on an empty range.
    pub fn gen_range_i64(&mut self, range: std::ops::Range<i64>) -> i64 {
        assert!(range.start < range.end, "gen_range_i64 on empty range");
        let span = range.end.wrapping_sub(range.start) as u64;
        range.start.wrapping_add(self.next_below(span) as i64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64) < p
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.gen_range(0..items.len())]
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.gen_range(0..i + 1);
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SmallRng::seed_from_u64(1);
        let mut b = SmallRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = SmallRng::seed_from_u64(7);
        for _ in 0..1000 {
            let v = r.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w = r.gen_range_i64(-5..5);
            assert!((-5..5).contains(&w));
        }
    }

    #[test]
    fn bool_probabilities_degenerate_cases() {
        let mut r = SmallRng::seed_from_u64(9);
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
        let hits = (0..2000).filter(|_| r.gen_bool(0.5)).count();
        assert!((800..1200).contains(&hits), "p=0.5 gave {hits}/2000");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SmallRng::seed_from_u64(11);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
