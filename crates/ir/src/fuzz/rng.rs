//! Seeded pseudo-random streams for the kernel fuzzer.
//!
//! The whole fuzzing campaign must be a pure function of the command-line
//! seed: the same seed produces the same kernels, the same oracle inputs,
//! and the same minimized counterexamples on every host and for any
//! worker count. A hand-rolled xorshift64* keeps the stream dependency-
//! free and bit-stable forever (the standard library gives no seedable
//! generator, and the workspace deliberately carries no external crates).

/// A deterministic xorshift64* stream.
#[derive(Debug, Clone)]
pub struct FuzzRng {
    state: u64,
}

impl FuzzRng {
    /// Creates a stream from a seed. The seed is pre-mixed through
    /// splitmix64 so that small consecutive seeds (0, 1, 2, ...) still
    /// produce uncorrelated streams, and the all-zero state is avoided.
    pub fn new(seed: u64) -> Self {
        FuzzRng {
            state: splitmix64(seed).max(1),
        }
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Next 32 pseudo-random bits (the high half, which xorshift64*
    /// distributes better than the low half).
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A value in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u32) -> u32 {
        assert!(n > 0, "below(0)");
        // Multiply-shift range reduction: unbiased enough for fuzzing and
        // branch-free (no rejection loop to perturb stream alignment).
        ((u64::from(self.next_u32()) * u64::from(n)) >> 32) as u32
    }

    /// `true` with probability `percent`/100.
    pub fn chance(&mut self, percent: u32) -> bool {
        self.below(100) < percent
    }

    /// Picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u32) as usize]
    }
}

/// Derives the seed of the `index`-th child stream of `seed` (one fuzz
/// case per index). splitmix64 over the combined words keeps children
/// statistically independent of each other and of the parent.
pub fn child_seed(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index.wrapping_add(0x9E37_79B9_7F4A_7C15)))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = FuzzRng::new(42);
        let mut b = FuzzRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = FuzzRng::new(1);
        let mut b = FuzzRng::new(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = FuzzRng::new(7);
        let mut seen = [false; 5];
        for _ in 0..500 {
            let v = r.below(5);
            assert!(v < 5);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reached: {seen:?}");
    }

    #[test]
    fn child_seeds_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..1000 {
            assert!(seen.insert(child_seed(99, i)), "collision at index {i}");
        }
        // Children of different parents differ too.
        assert_ne!(child_seed(1, 0), child_seed(2, 0));
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = FuzzRng::new(0);
        assert_ne!(r.next_u64(), r.next_u64());
    }
}
