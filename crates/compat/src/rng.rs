//! Seedable, deterministic PRNG: splitmix64 seeding + xoshiro256++ core.
//!
//! This is the single random source for the whole workspace — workload
//! synthesis, payload fills, and the property harness all draw from it —
//! so one `u64` seed pins every stochastic choice in a run. Reference
//! vectors for both algorithms are locked down in `crates/compat/tests`.
//!
//! Not cryptographically secure; statistically solid for simulation.

/// The splitmix64 step: advances `*state` and returns the next output.
/// Used to expand a single `u64` seed into the 256-bit xoshiro state (no
/// all-zero state can occur) and to derive per-case seeds in the property
/// harness.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// xoshiro256++ generator (Blackman & Vigna), seeded via splitmix64.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Create a generator from a seed; any seed (including 0) is valid.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        Rng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Create from raw 256-bit state (must not be all zero).
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s.iter().any(|&x| x != 0), "xoshiro state must be nonzero");
        Rng { s }
    }

    /// Next 64 uniformly random bits (the xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let r = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        r
    }

    /// Next 32 uniformly random bits (upper half of a 64-bit draw).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)` via Lemire's multiply-shift rejection
    /// method (unbiased). Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let lo = m as u64;
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in `[lo, hi)`. Panics if the range is empty.
    #[inline]
    pub fn gen_range(&mut self, range: std::ops::Range<u64>) -> u64 {
        assert!(range.start < range.end, "empty range {range:?}");
        range.start + self.next_below(range.end - range.start)
    }

    /// Uniform `usize` in `[lo, hi)`.
    #[inline]
    pub fn gen_range_usize(&mut self, range: std::ops::Range<usize>) -> usize {
        self.gen_range(range.start as u64..range.end as u64) as usize
    }

    /// Uniform f64 in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in `[lo, hi)`.
    #[inline]
    pub fn gen_range_f64(&mut self, range: std::ops::Range<f64>) -> f64 {
        range.start + self.gen_f64() * (range.end - range.start)
    }

    /// Fill a byte slice with random data (message payload integrity
    /// checks, fuzz inputs).
    pub fn fill(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let b = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&b[..rem.len()]);
        }
    }

    /// Uniformly choose one element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.gen_range_usize(0..items.len())]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..256 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        // The fault lottery compares this against probabilities summing to
        // at most 1, so 1.0 itself must never come out.
        let mut r = Rng::new(9);
        for _ in 0..1000 {
            assert!((0.0..1.0).contains(&r.gen_f64()));
        }
    }

    #[test]
    fn zero_seed_is_fine_and_nonzero() {
        let mut r = Rng::new(0);
        assert!((0..8).map(|_| r.next_u64()).any(|x| x != 0));
    }

    #[test]
    fn gen_range_hits_all_values() {
        let mut r = Rng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[r.gen_range(5..15) as usize - 5] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn fill_handles_partial_chunks() {
        let mut r = Rng::new(11);
        for len in [0usize, 1, 7, 8, 9, 31] {
            let mut buf = vec![0u8; len];
            r.fill(&mut buf);
            if len >= 8 {
                assert!(buf.iter().any(|&b| b != 0));
            }
        }
    }

    #[test]
    fn roughly_uniform() {
        let mut r = Rng::new(13);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[r.next_below(10) as usize] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "counts={counts:?}");
        }
    }
}
