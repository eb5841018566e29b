//! A dense register set: one bit per register number.
//!
//! The per-register fixpoints (uniformity, divergence taint, validation's
//! definedness) run over every instruction of a kernel, possibly several
//! times, and probe their set once per operand. A kernel's registers are
//! numbered densely below [`Kernel::next_reg`], so a bitset sized by it
//! answers each probe with one word load and allocates once per analysis.

use crate::inst::Reg;
use crate::kernel::Kernel;

/// A set of registers, stored as a bitset indexed by register number.
///
/// Sized for a kernel's registers up front; inserting a register beyond
/// that grows the set, so an analysis run on a kernel that does not
/// validate (one that names a register at or past `next_reg`) still
/// answers instead of panicking.
#[derive(Debug, Clone, Default)]
pub struct RegSet {
    words: Vec<u64>,
}

impl RegSet {
    /// An empty set with room for registers `0..n`.
    pub fn with_capacity(n: u32) -> Self {
        RegSet {
            words: vec![0; (n as usize).div_ceil(64)],
        }
    }

    /// An empty set with room for every register `kernel` declares.
    pub fn for_kernel(kernel: &Kernel) -> Self {
        Self::with_capacity(kernel.next_reg)
    }

    /// `true` if `r` is in the set.
    #[inline]
    pub fn contains(&self, r: Reg) -> bool {
        let i = r.0 as usize;
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Adds `r`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, r: Reg) -> bool {
        let i = r.0 as usize;
        if i / 64 >= self.words.len() {
            self.words.resize(i / 64 + 1, 0);
        }
        let w = &mut self.words[i / 64];
        let bit = 1 << (i % 64);
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Removes `r`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, r: Reg) -> bool {
        let i = r.0 as usize;
        match self.words.get_mut(i / 64) {
            Some(w) => {
                let bit = 1 << (i % 64);
                let present = *w & bit != 0;
                *w &= !bit;
                present
            }
            None => false,
        }
    }

    /// Number of registers in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set holds no register.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The registers in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros();
                rest &= rest - 1;
                Some(Reg(wi as u32 * 64 + b))
            })
        })
    }
}

impl IntoIterator for RegSet {
    type Item = Reg;
    type IntoIter = std::vec::IntoIter<Reg>;

    /// The registers in ascending order.
    fn into_iter(self) -> Self::IntoIter {
        self.iter().collect::<Vec<_>>().into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = RegSet::with_capacity(10);
        assert!(s.is_empty());
        assert!(s.insert(Reg(3)));
        assert!(!s.insert(Reg(3)), "already present");
        assert!(s.contains(Reg(3)));
        assert!(!s.contains(Reg(4)));
        assert!(s.remove(Reg(3)));
        assert!(!s.remove(Reg(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn grows_past_its_capacity() {
        let mut s = RegSet::with_capacity(2);
        assert!(!s.contains(Reg(500)), "out of range reads as absent");
        assert!(!s.remove(Reg(500)));
        assert!(s.insert(Reg(500)));
        assert!(s.contains(Reg(500)));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![Reg(500)]);
    }

    #[test]
    fn iterates_in_ascending_order() {
        let mut s = RegSet::default();
        for r in [130, 0, 64, 63, 1] {
            s.insert(Reg(r));
        }
        let want = vec![Reg(0), Reg(1), Reg(63), Reg(64), Reg(130)];
        assert_eq!(s.iter().collect::<Vec<_>>(), want);
        assert_eq!(s.len(), 5);
        assert_eq!(s.into_iter().collect::<Vec<_>>(), want);
    }
}
