//! Dense register tables: a set with one bit per register number and a
//! map with one slot per register number.
//!
//! The per-register fixpoints (uniformity, divergence taint, validation's
//! definedness, the coverage and hardening sink passes, the symbolic
//! walkers' environments) run over every instruction of a kernel, possibly
//! several times, and probe their table once per operand. A kernel's
//! registers are numbered densely below [`Kernel::next_reg`], so a table
//! sized by it answers each probe with one indexed load, where a hash map
//! would hash the register first, and allocates once per analysis.

use crate::inst::Reg;
use crate::kernel::Kernel;

/// A dense set of small indices, one bit per index, that grows on
/// insert. [`RegSet`] keys it by register number; the hardening planner
/// keys it by node position and exit ordinal.
#[derive(Debug, Clone, Default)]
pub(crate) struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    /// An empty set with room for indices `0..n`.
    pub(crate) fn with_capacity(n: usize) -> Self {
        BitSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    /// Removes every index, keeping the room.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
    }

    /// `true` if `i` is in the set.
    #[inline]
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Adds `i`; returns `true` if it was not already present.
    #[inline]
    pub(crate) fn insert(&mut self, i: usize) -> bool {
        if i / 64 >= self.words.len() {
            self.words.resize(i / 64 + 1, 0);
        }
        let w = &mut self.words[i / 64];
        let bit = 1 << (i % 64);
        let fresh = *w & bit == 0;
        *w |= bit;
        fresh
    }

    /// Removes `i`; returns `true` if it was present.
    #[inline]
    pub(crate) fn remove(&mut self, i: usize) -> bool {
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

    /// Adds every index of `o`; returns `true` if one was new.
    pub(crate) fn union_with(&mut self, o: &BitSet) -> bool {
        if o.words.len() > self.words.len() {
            self.words.resize(o.words.len(), 0);
        }
        let mut changed = false;
        for (w, &x) in self.words.iter_mut().zip(&o.words) {
            changed |= x & !*w != 0;
            *w |= x;
        }
        changed
    }

    /// Removes every index of `o`.
    pub(crate) fn subtract(&mut self, o: &BitSet) {
        for (w, &x) in self.words.iter_mut().zip(&o.words) {
            *w &= !x;
        }
    }

    /// Number of indices in the set.
    pub(crate) fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` if the set holds no index.
    pub(crate) fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The indices in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut rest = w;
            std::iter::from_fn(move || {
                if rest == 0 {
                    return None;
                }
                let b = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                Some(wi * 64 + b)
            })
        })
    }
}

/// A set of registers, stored as a bitset indexed by register number.
///
/// Sized for a kernel's registers up front; inserting a register beyond
/// that grows the set, so an analysis run on a kernel that does not
/// validate (one that names a register at or past `next_reg`) still
/// answers instead of panicking.
#[derive(Debug, Clone, Default)]
pub struct RegSet {
    bits: BitSet,
}

impl RegSet {
    /// An empty set with room for registers `0..n`.
    pub fn with_capacity(n: u32) -> Self {
        RegSet {
            bits: BitSet::with_capacity(n as usize),
        }
    }

    /// An empty set with room for every register `kernel` declares.
    pub fn for_kernel(kernel: &Kernel) -> Self {
        Self::with_capacity(kernel.next_reg)
    }

    /// Removes every register, keeping the room.
    pub fn clear(&mut self) {
        self.bits.clear();
    }

    /// `true` if `r` is in the set.
    #[inline]
    pub fn contains(&self, r: Reg) -> bool {
        self.bits.contains(r.0 as usize)
    }

    /// Adds `r`; returns `true` if it was not already present.
    #[inline]
    pub fn insert(&mut self, r: Reg) -> bool {
        self.bits.insert(r.0 as usize)
    }

    /// Removes `r`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, r: Reg) -> bool {
        self.bits.remove(r.0 as usize)
    }

    /// Number of registers in the set.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// `true` if the set holds no register.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The registers in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Reg> + '_ {
        self.bits.iter().map(|i| Reg(i as u32))
    }
}

impl FromIterator<Reg> for RegSet {
    fn from_iter<I: IntoIterator<Item = Reg>>(iter: I) -> Self {
        let mut s = RegSet::default();
        s.extend(iter);
        s
    }
}

impl Extend<Reg> for RegSet {
    fn extend<I: IntoIterator<Item = Reg>>(&mut self, iter: I) {
        for r in iter {
            self.insert(r);
        }
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

/// Per-register values, stored densely by register number: slot `i`
/// holds the value of `%i`, or `None` if it has none.
///
/// Like [`RegSet`], it grows on insert, so an analysis run on a kernel
/// that names a register at or past `next_reg` still answers. Iteration
/// is in ascending register order.
pub struct RegMap<T> {
    slots: Vec<Option<T>>,
}

impl<T> RegMap<T> {
    /// An empty map.
    pub fn new() -> Self {
        RegMap { slots: Vec::new() }
    }

    /// An empty map with room for registers `0..n` before it reallocates.
    pub fn with_capacity(n: u32) -> Self {
        RegMap {
            slots: Vec::with_capacity(n as usize),
        }
    }

    /// An empty map with room for every register `kernel` declares.
    pub fn for_kernel(kernel: &Kernel) -> Self {
        Self::with_capacity(kernel.next_reg)
    }

    /// The value of `r`, if it has one.
    #[inline]
    pub fn get(&self, r: Reg) -> Option<&T> {
        self.slots.get(r.0 as usize).and_then(Option::as_ref)
    }

    /// `true` if `r` has a value.
    #[inline]
    pub fn contains(&self, r: Reg) -> bool {
        self.get(r).is_some()
    }

    /// Sets (or, with `None`, clears) `r`; returns the previous value.
    #[inline]
    pub fn set(&mut self, r: Reg, v: Option<T>) -> Option<T> {
        let i = r.0 as usize;
        if i >= self.slots.len() && v.is_some() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots
            .get_mut(i)
            .and_then(|slot| std::mem::replace(slot, v))
    }

    /// Sets `r` to `v`; returns the previous value.
    #[inline]
    pub fn insert(&mut self, r: Reg, v: T) -> Option<T> {
        self.set(r, Some(v))
    }

    /// Clears `r`; returns its value.
    #[inline]
    pub fn remove(&mut self, r: Reg) -> Option<T> {
        self.set(r, None)
    }

    /// The value of `r`, first set to `T::default()` if it has none.
    #[inline]
    pub fn get_or_default(&mut self, r: Reg) -> &mut T
    where
        T: Default,
    {
        let i = r.0 as usize;
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        self.slots[i].get_or_insert_with(T::default)
    }

    /// Number of registers with a value.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|v| v.is_some()).count()
    }

    /// `true` if no register has a value.
    pub fn is_empty(&self) -> bool {
        self.slots.iter().all(Option::is_none)
    }

    /// The registers with a value and their values, in ascending register
    /// order.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, &T)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (Reg(i as u32), v)))
    }

    /// The registers with a value and their values, mutably, in ascending
    /// register order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (Reg, &mut T)> + '_ {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, v)| v.as_mut().map(|v| (Reg(i as u32), v)))
    }

    /// A map over the same registers whose values are `f` of these,
    /// dropping the registers for which `f` returns `None`.
    pub fn filter_map<U>(&self, mut f: impl FnMut(&T) -> Option<U>) -> RegMap<U> {
        RegMap {
            slots: self
                .slots
                .iter()
                .map(|v| v.as_ref().and_then(&mut f))
                .collect(),
        }
    }
}

impl<T> Default for RegMap<T> {
    fn default() -> Self {
        RegMap::new()
    }
}

impl<T: Clone> Clone for RegMap<T> {
    fn clone(&self) -> Self {
        RegMap {
            slots: self.slots.clone(),
        }
    }

    /// Reuses `self`'s allocation.
    fn clone_from(&mut self, source: &Self) {
        self.slots.clone_from(&source.slots);
    }
}

/// Equal when the same registers have equal values, however many empty
/// slots either map holds.
impl<T: PartialEq> PartialEq for RegMap<T> {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RegMap<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
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

    #[test]
    fn bitset_union_and_subtract() {
        let mut a = BitSet::with_capacity(10);
        a.insert(3);
        a.insert(9);
        let mut b = BitSet::default();
        b.insert(9);
        b.insert(200);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b), "nothing new");
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3, 9, 200]);
        a.subtract(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![3]);
        a.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn map_set_get_clear() {
        let mut m = RegMap::with_capacity(4);
        assert!(m.is_empty());
        assert_eq!(m.insert(Reg(2), 'a'), None);
        assert_eq!(m.insert(Reg(2), 'b'), Some('a'));
        assert_eq!(m.get(Reg(2)), Some(&'b'));
        assert_eq!(m.get(Reg(1)), None);
        assert_eq!(m.set(Reg(2), None), Some('b'));
        assert!(!m.contains(Reg(2)));
        assert!(m.is_empty());
        *m.get_or_default(Reg(3)) = 'c';
        assert_eq!(m.len(), 1);
        assert_eq!(m.remove(Reg(3)), Some('c'));
        assert!(m.is_empty());
    }

    #[test]
    fn map_grows_past_its_capacity() {
        let mut m: RegMap<u32> = RegMap::with_capacity(2);
        assert_eq!(m.get(Reg(500)), None, "out of range reads as absent");
        assert_eq!(m.remove(Reg(500)), None);
        m.insert(Reg(500), 7);
        assert_eq!(m.get(Reg(500)), Some(&7));
        assert_eq!(m.iter().collect::<Vec<_>>(), vec![(Reg(500), &7)]);
    }

    #[test]
    fn map_equality_ignores_empty_slots() {
        let mut a = RegMap::new();
        a.insert(Reg(9), 1);
        a.remove(Reg(9));
        a.insert(Reg(1), 1);
        let mut b = RegMap::new();
        b.insert(Reg(1), 1);
        assert_eq!(a, b);
        assert_eq!(format!("{b:?}"), "{Reg(1): 1}");
    }
}
