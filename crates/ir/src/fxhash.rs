//! The one hasher for the content-keyed maps of the static layers.
//!
//! Register-keyed state lives in [`RegSet`](crate::RegSet) and
//! [`RegMap`](crate::RegMap). What is left — interned terms and atoms,
//! builtin views, atom pins, constant caches — is keyed by small values
//! hashed many times per analysis, where std's SipHash costs more than
//! the lookup it serves. [`FxHasher`] is the multiply-rotate hash of
//! rustc's `FxHasher`: fast on integer keys, not resistant to chosen
//! collisions (the keys here come from the program, not an adversary),
//! and seeded by nothing, so a map's iteration order is the same on every
//! run.

use std::collections::{hash_map, hash_set};
use std::hash::{BuildHasherDefault, Hasher};

// These two aliases are the only place the std collections are named: the
// crate's `clippy.toml` disallows them everywhere else.

/// A `HashMap` hashed with [`FxHasher`].
#[allow(clippy::disallowed_types)]
pub type FxHashMap<K, V> = hash_map::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` hashed with [`FxHasher`].
#[allow(clippy::disallowed_types)]
pub type FxHashSet<T> = hash_set::HashSet<T, FxBuildHasher>;

/// Builds [`FxHasher`]s; use as a map's `S` parameter.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A fast, deterministic, non-cryptographic hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("an 8-byte chunk")));
        }
        let mut rest = chunks.remainder();
        if rest.len() >= 4 {
            self.add(u64::from(u32::from_le_bytes(
                rest[..4].try_into().expect("a 4-byte chunk"),
            )));
            rest = &rest[4..];
        }
        for &b in rest {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn hashes_are_deterministic_and_spread() {
        let h = |x: &(u32, &str)| FxBuildHasher::default().hash_one(x);
        assert_eq!(h(&(7, "seven")), h(&(7, "seven")));
        assert_ne!(h(&(7, "seven")), h(&(8, "seven")));
        assert_ne!(h(&(7, "seven")), h(&(7, "seveN")));
    }

    #[test]
    fn maps_and_sets_work() {
        let mut m: FxHashMap<u32, u32> = FxHashMap::default();
        let mut s: FxHashSet<(u32, u32)> = FxHashSet::default();
        for i in 0..1000 {
            m.insert(i, i * 2);
            s.insert((i, i + 1));
        }
        assert!((0..1000).all(|i| m[&i] == i * 2 && s.contains(&(i, i + 1))));
        assert_eq!((m.len(), s.len()), (1000, 1000));
    }
}
