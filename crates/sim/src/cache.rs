//! Set-associative cache models.
//!
//! The per-CU L1 is a *data* cache: it stores line contents, is
//! write-through (stores update the cached copy and the backing store), and
//! is **not** kept coherent with other CUs' L1s — a line can go stale, which
//! is exactly why the paper's inter-group communication must read flags with
//! `atomic_add(addr, 0)` (Section 7.2). The shared L2 is modelled tags-only:
//! its contents always equal the global backing store.

use crate::engine::PipeUnit;

/// Timing model of the banked L2: each bank is an independent
/// [`PipeUnit`] serving one line transaction per occupancy interval, with
/// lines striped across banks by line address. Purely a timing resource —
/// hit/miss bookkeeping stays in the tags-only [`Cache`].
#[derive(Debug)]
pub(crate) struct L2Banks {
    banks: Vec<PipeUnit>,
    line_bytes: u32,
}

impl L2Banks {
    /// `n` independent banks striped by `line_bytes`-sized lines.
    pub(crate) fn new(n: usize, line_bytes: u32) -> Self {
        L2Banks {
            banks: vec![PipeUnit::new(); n.max(1)],
            line_bytes,
        }
    }

    fn bank_of(&self, line_addr: u32) -> usize {
        ((line_addr / self.line_bytes) as usize) % self.banks.len()
    }

    /// Reserves the bank serving `line_addr` for `occupancy` ticks
    /// starting no earlier than `at`; returns the transaction start tick.
    pub(crate) fn reserve(&mut self, line_addr: u32, at: u64, occupancy: u64) -> u64 {
        let bank = self.bank_of(line_addr);
        self.banks[bank].reserve(at, occupancy)
    }
}

/// Hit/miss statistics for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read lookups that hit.
    pub read_hits: u64,
    /// Read lookups that missed.
    pub read_misses: u64,
    /// Write lookups (write-through; hit means the cached copy was updated).
    pub write_hits: u64,
    /// Write lookups that missed (no allocate on write).
    pub write_misses: u64,
    /// Lines evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Read hit rate in [0, 1]; 0 when there were no reads.
    pub fn read_hit_rate(&self) -> f64 {
        let total = self.read_hits + self.read_misses;
        if total == 0 {
            0.0
        } else {
            self.read_hits as f64 / total as f64
        }
    }
}

/// Index of one way of a [`Cache`], as returned by [`Cache::way_of`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct WayId(usize);

/// The tag of an invalid way. Line addresses are multiples of the line
/// size (at least a word), so no line address equals it.
const INVALID: u32 = u32::MAX;

/// A set-associative cache with LRU replacement.
///
/// The ways live in flat per-field arrays indexed by way number
/// (`set * assoc + i`): a lookup scans one set's tags, and creating or
/// resetting a cache fills three arrays instead of building one object per
/// way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cache {
    sets: usize,
    assoc: usize,
    line: u32,
    /// Per way: the line address held, or [`INVALID`].
    tags: Vec<u32>,
    /// Per way: the access stamp of its last use (LRU order).
    stamps: Vec<u64>,
    /// Line contents, `line` bytes per way; empty for tags-only caches.
    data: Vec<u8>,
    stamp: u64,
    /// Statistics (public for counter export).
    pub stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `bytes` capacity with `line`-byte lines and
    /// `assoc` ways. `with_data` selects whether line contents are stored.
    ///
    /// # Panics
    ///
    /// If `line` is not a power of two of at least 4 bytes.
    pub fn new(bytes: u32, line: u32, assoc: usize, with_data: bool) -> Self {
        assert!(
            line >= 4 && line.is_power_of_two(),
            "cache line of {line} bytes"
        );
        let lines = (bytes / line) as usize;
        let sets = (lines / assoc).max(1);
        let ways = sets * assoc;
        Cache {
            sets,
            assoc,
            line,
            tags: vec![INVALID; ways],
            stamps: vec![0; ways],
            data: if with_data {
                vec![0; ways * line as usize]
            } else {
                Vec::new()
            },
            stamp: 0,
            stats: CacheStats::default(),
        }
    }

    /// Restores the state `Cache::new(bytes, line, assoc, with_data)`
    /// creates: every way invalid, stamps and contents zero, statistics
    /// cleared. The arrays are reused when the geometry is unchanged.
    pub(crate) fn reset(&mut self, bytes: u32, line: u32, assoc: usize, with_data: bool) {
        let sets = ((bytes / line) as usize / assoc).max(1);
        let same = (self.sets, self.assoc, self.line) == (sets, assoc, line)
            && self.data.is_empty() != with_data;
        if !same {
            *self = Cache::new(bytes, line, assoc, with_data);
            return;
        }
        self.tags.fill(INVALID);
        self.stamps.fill(0);
        self.data.fill(0);
        self.stamp = 0;
        self.stats = CacheStats::default();
    }

    /// Line-aligns an address.
    pub fn line_addr(&self, addr: u32) -> u32 {
        addr & !(self.line - 1)
    }

    fn set_of(&self, line_addr: u32) -> usize {
        ((line_addr / self.line) as usize) % self.sets
    }

    fn find(&self, line_addr: u32) -> Option<usize> {
        let base = self.set_of(line_addr) * self.assoc;
        self.tags[base..base + self.assoc]
            .iter()
            .position(|&t| t == line_addr)
            .map(|i| base + i)
    }

    /// The bytes of `way`'s line (data caches only).
    fn line_data(&mut self, way: usize) -> &mut [u8] {
        let n = self.line as usize;
        &mut self.data[way * n..(way + 1) * n]
    }

    /// `true` if the line is currently cached (no stats, no LRU update).
    #[allow(dead_code)] // exercised by tests; kept as API surface
    pub fn contains(&self, line_addr: u32) -> bool {
        self.find(self.line_addr(line_addr)).is_some()
    }

    /// Tags-only read access: records hit/miss and fills on miss.
    /// Returns `true` on hit.
    pub fn touch_read(&mut self, line_addr: u32) -> bool {
        let line_addr = self.line_addr(line_addr);
        self.stamp += 1;
        if let Some(i) = self.find(line_addr) {
            self.stamps[i] = self.stamp;
            self.stats.read_hits += 1;
            true
        } else {
            self.stats.read_misses += 1;
            self.insert(line_addr);
            false
        }
    }

    /// Reads a 32-bit word if its line is cached (data caches only);
    /// records hit/miss. On miss the caller must [`Cache::fill`] the line.
    pub fn load_word(&mut self, addr: u32) -> Option<u32> {
        debug_assert!(!self.data.is_empty());
        let line_addr = self.line_addr(addr);
        self.stamp += 1;
        match self.find(line_addr) {
            Some(i) => {
                self.stamps[i] = self.stamp;
                self.stats.read_hits += 1;
                Some(self.word(WayId(i), addr))
            }
            None => {
                self.stats.read_misses += 1;
                None
            }
        }
    }

    /// The way currently holding the line of `addr`, if any (no stats, no
    /// LRU update). A memory instruction resolves this once per line; it
    /// stays valid until the next fill or invalidation.
    pub(crate) fn way_of(&self, addr: u32) -> Option<WayId> {
        self.find(self.line_addr(addr)).map(WayId)
    }

    /// The word at `addr` in `way`, which holds `addr`'s line (data caches
    /// only; no stats, no LRU update).
    pub(crate) fn word(&self, way: WayId, addr: u32) -> u32 {
        let off = way.0 * self.line as usize + (addr & (self.line - 1)) as usize;
        u32::from_le_bytes(self.data[off..off + 4].try_into().expect("4B"))
    }

    /// Installs a line after a miss (data caches): `read` writes the line
    /// contents into the victim way's slot.
    pub fn fill(&mut self, line_addr: u32, read: impl FnOnce(&mut [u8])) {
        debug_assert!(!self.data.is_empty());
        let line_addr = self.line_addr(line_addr);
        if self.find(line_addr).is_none() {
            let way = self.insert(line_addr);
            read(self.line_data(way));
        }
    }

    /// Write-through store of one word: updates the cached copy if `way`
    /// (from [`Cache::way_of`] for `addr`) holds it; no allocation on
    /// miss. Returns `true` on hit. Stats and the LRU stamp advance per
    /// call, as for any access.
    pub(crate) fn store_word(&mut self, way: Option<WayId>, addr: u32, value: u32) -> bool {
        self.stamp += 1;
        match way {
            Some(WayId(i)) => {
                self.stamps[i] = self.stamp;
                self.stats.write_hits += 1;
                if !self.data.is_empty() {
                    let off = (addr & (self.line - 1)) as usize;
                    self.line_data(i)[off..off + 4].copy_from_slice(&value.to_le_bytes());
                }
                true
            }
            None => {
                self.stats.write_misses += 1;
                false
            }
        }
    }

    /// Drops the line held by `way` (used when an atomic bypasses this
    /// cache).
    pub(crate) fn invalidate(&mut self, way: WayId) {
        self.tags[way.0] = INVALID;
    }

    /// Flips a bit in a cached line's data copy, if present. Returns `true`
    /// when applied (fault injection into the L1 array).
    pub fn flip_bit(&mut self, addr: u32, bit: u8) -> bool {
        if self.data.is_empty() {
            return false;
        }
        let line_addr = self.line_addr(addr);
        if let Some(i) = self.find(line_addr) {
            let off = (addr - line_addr) as usize;
            self.line_data(i)[off] ^= 1 << (bit % 8);
            true
        } else {
            false
        }
    }

    /// Count of currently valid lines (for tests).
    #[allow(dead_code)]
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }

    /// Claims a way for `line_addr` (an invalid one, else the LRU) and
    /// returns it; the caller refills its contents.
    fn insert(&mut self, line_addr: u32) -> usize {
        let base = self.set_of(line_addr) * self.assoc;
        // Prefer an invalid way; otherwise evict LRU.
        let mut victim = base;
        let mut best = u64::MAX;
        for i in base..base + self.assoc {
            if self.tags[i] == INVALID {
                victim = i;
                break;
            }
            if self.stamps[i] < best {
                best = self.stamps[i];
                victim = i;
            }
        }
        if self.tags[victim] != INVALID {
            self.stats.evictions += 1;
        }
        self.stamp += 1;
        self.tags[victim] = line_addr;
        self.stamps[victim] = self.stamp;
        victim
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fill source writing bytes `seed, seed+1, …` into the line.
    fn line_data(seed: u8) -> impl FnOnce(&mut [u8]) {
        move |buf| {
            for (i, b) in buf.iter_mut().enumerate() {
                *b = seed.wrapping_add(i as u8);
            }
        }
    }

    #[test]
    fn data_cache_miss_fill_hit() {
        let mut c = Cache::new(1024, 64, 2, true);
        assert_eq!(c.load_word(0x100), None);
        c.fill(0x100, line_data(0));
        let v = c.load_word(0x104).expect("hit after fill");
        assert_eq!(v, u32::from_le_bytes([4, 5, 6, 7]));
        assert_eq!(c.stats.read_hits, 1);
        assert_eq!(c.stats.read_misses, 1);
    }

    #[test]
    fn write_through_updates_copy_without_allocating() {
        let mut c = Cache::new(1024, 64, 2, true);
        assert!(
            !c.store_word(c.way_of(0x100), 0x100, 7),
            "miss, no allocate"
        );
        assert_eq!(c.valid_lines(), 0);
        c.fill(0x100, line_data(0));
        assert!(c.store_word(c.way_of(0x100), 0x100, 0xAABBCCDD));
        assert_eq!(c.load_word(0x100), Some(0xAABBCCDD));
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 ways, line 64, 128 bytes => 1 set.
        let mut c = Cache::new(128, 64, 2, true);
        c.fill(0x000, line_data(1));
        c.fill(0x040, line_data(2));
        assert!(c.load_word(0x000).is_some()); // refresh line 0
        c.fill(0x080, line_data(3)); // evicts 0x040 (LRU)
        assert!(c.contains(0x000));
        assert!(!c.contains(0x040));
        assert!(c.contains(0x080));
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn refill_reuses_the_victim_buffer() {
        // 1 set of 1 way: every fill evicts and rewrites the same buffer.
        let mut c = Cache::new(64, 64, 1, true);
        c.fill(0x000, line_data(1));
        c.fill(0x040, line_data(100));
        assert_eq!(c.stats.evictions, 1);
        let way = c.way_of(0x044).expect("just filled");
        assert_eq!(c.word(way, 0x044), u32::from_le_bytes([104, 105, 106, 107]));
        assert!(c.way_of(0x000).is_none());
    }

    #[test]
    fn tags_only_touch() {
        let mut c = Cache::new(256, 64, 4, false);
        assert!(!c.touch_read(0x40));
        assert!(c.touch_read(0x40));
        assert!(c.touch_read(0x44), "same line");
        assert_eq!(c.stats.read_hits, 2);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = Cache::new(1024, 64, 2, true);
        c.fill(0x200, line_data(9));
        assert!(c.contains(0x200));
        let way = c.way_of(0x210).expect("any addr in the line finds it");
        c.invalidate(way);
        assert!(!c.contains(0x200));
    }

    #[test]
    fn flip_bit_corrupts_cached_copy() {
        let mut c = Cache::new(1024, 64, 2, true);
        c.fill(0x100, |b| b.fill(0));
        assert!(c.flip_bit(0x104, 3));
        assert_eq!(c.load_word(0x104), Some(8));
        assert!(!c.flip_bit(0x900, 0), "uncached line");
    }

    #[test]
    fn reset_restores_a_new_cache() {
        let mut c = Cache::new(256, 64, 2, true);
        for a in [0x000, 0x080, 0x100, 0x040] {
            c.fill(a, line_data(a as u8));
        }
        assert!(c.load_word(0x040).is_some());
        assert!(c.flip_bit(0x044, 1));
        c.invalidate(c.way_of(0x080).expect("cached"));
        c.reset(256, 64, 2, true);
        assert_eq!(c, Cache::new(256, 64, 2, true));
        // A different geometry is rebuilt.
        c.reset(512, 64, 4, false);
        assert_eq!(c, Cache::new(512, 64, 4, false));
    }

    #[test]
    fn l2_banks_stripe_by_line() {
        let mut b = L2Banks::new(2, 64);
        // Lines 0x000 and 0x080 share bank 0; 0x040 is bank 1.
        assert_eq!(b.reserve(0x000, 10, 5), 10);
        assert_eq!(b.reserve(0x040, 10, 5), 10, "different bank, no wait");
        assert_eq!(b.reserve(0x080, 10, 5), 15, "same bank serializes");
    }

    #[test]
    fn hit_rate() {
        let mut c = Cache::new(256, 64, 4, false);
        c.touch_read(0);
        c.touch_read(0);
        c.touch_read(0);
        c.touch_read(64);
        assert!((c.stats.read_hit_rate() - 0.5).abs() < 1e-9);
    }
}
