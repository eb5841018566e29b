//! Global device memory: a flat arena carved into buffers.
//!
//! Functionally this is the coherent backing store behind the L2 (the L2 is
//! write-through from the CUs' perspective, so its content always matches
//! this arena; only the per-CU L1s can go stale — see `machine.rs`).

use crate::engine::PipeUnit;
use crate::error::SimError;

/// Timing model of the DRAM bandwidth pipe behind the L2: one
/// [`PipeUnit`] shared by all CUs, reserved per 64 B line on an L2 miss.
/// Purely a timing resource — functional reads and writes go through
/// [`GlobalMemory`] directly.
#[derive(Debug, Default)]
pub(crate) struct DramTimer {
    pipe: PipeUnit,
}

impl DramTimer {
    /// A DRAM pipe that is free from tick 0.
    pub(crate) fn new() -> Self {
        DramTimer::default()
    }

    /// Reserves the pipe for one line transfer of `occupancy` ticks
    /// starting no earlier than `at`; returns the transfer start tick.
    pub(crate) fn reserve(&mut self, at: u64, occupancy: u64) -> u64 {
        self.pipe.reserve(at, occupancy)
    }
}

/// Base address of the first buffer (a small null guard region below).
const ARENA_BASE: u32 = 0x1000;
/// Buffer alignment in bytes (also ≥ cache line size).
const ALIGN: u32 = 256;

/// The declared byte range `[base, end)` of one buffer.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Extent {
    base: u32,
    end: u64,
}

/// Global device memory.
#[derive(Debug, Clone)]
pub struct GlobalMemory {
    data: Vec<u8>,
    /// (base, size) per buffer, in allocation order; bases are ascending.
    ranges: Vec<(u32, u32)>,
}

impl GlobalMemory {
    /// Creates an empty memory.
    pub fn new() -> Self {
        GlobalMemory {
            data: Vec::new(),
            ranges: Vec::new(),
        }
    }

    /// Allocates a buffer of `size` bytes, zero-initialized. Returns its
    /// index (the `BufferId` payload) — bases are stable forever.
    pub fn alloc(&mut self, size: u32) -> usize {
        let base = ARENA_BASE + self.data.len() as u32;
        let padded = size.div_ceil(ALIGN) * ALIGN;
        self.data.resize(self.data.len() + padded as usize, 0);
        self.ranges.push((base, size));
        self.ranges.len() - 1
    }

    /// Drops every buffer, keeping the arena's allocation: the next
    /// buffers get the bases a new memory would give them.
    pub fn clear(&mut self) {
        self.data.clear();
        self.ranges.clear();
    }

    /// Base byte address of buffer `idx`.
    pub fn base(&self, idx: usize) -> Option<u32> {
        self.ranges.get(idx).map(|r| r.0)
    }

    /// Declared size of buffer `idx`.
    pub fn size(&self, idx: usize) -> Option<u32> {
        self.ranges.get(idx).map(|r| r.1)
    }

    /// Number of buffers allocated.
    #[allow(dead_code)] // exercised by tests; kept as API surface
    pub fn buffer_count(&self) -> usize {
        self.ranges.len()
    }

    /// The declared extent of the buffer holding `addr`: the last buffer
    /// whose base is at or below it. Resolved once per cache line by the
    /// machine (see [`GlobalMemory::word_offset`]).
    pub(crate) fn extent_of(&self, addr: u32) -> Option<Extent> {
        // Ranges are sorted by base.
        let i = self.ranges.partition_point(|&(b, _)| b <= addr);
        let (base, size) = *self.ranges.get(i.checked_sub(1)?)?;
        Some(Extent {
            base,
            end: u64::from(base) + u64::from(size),
        })
    }

    /// Validates a word access at `addr` and returns its offset into the
    /// arena. `hint` is an extent resolved earlier for a nearby address
    /// (the same cache line): when it holds the word, the buffer search is
    /// skipped; otherwise the full check runs. The result equals the
    /// check without a hint either way, because buffers never overlap.
    ///
    /// The end comparison is done in 64 bits, so an address within 4 bytes
    /// of `u32::MAX` is reported as out of bounds instead of wrapping.
    pub(crate) fn word_offset(
        &self,
        hint: Option<Extent>,
        addr: u32,
        kernel: &str,
    ) -> Result<usize, SimError> {
        if !addr.is_multiple_of(4) {
            return Err(SimError::UnalignedAccess { addr });
        }
        let holds = |e: Extent| e.base <= addr && u64::from(addr) + 4 <= e.end;
        if hint.is_some_and(holds) || self.extent_of(addr).is_some_and(holds) {
            return Ok((addr - ARENA_BASE) as usize);
        }
        Err(SimError::BadGlobalAccess {
            addr,
            kernel: kernel.to_string(),
        })
    }

    /// The word at an offset returned by [`GlobalMemory::word_offset`].
    pub(crate) fn word_at(&self, off: usize) -> u32 {
        u32::from_le_bytes(self.data[off..off + 4].try_into().expect("4 bytes"))
    }

    /// Overwrites the word at an offset returned by
    /// [`GlobalMemory::word_offset`].
    pub(crate) fn set_word_at(&mut self, off: usize, value: u32) {
        self.data[off..off + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads raw bytes of buffer `idx` (declared size).
    pub fn read_buffer(&self, idx: usize) -> Option<&[u8]> {
        let (base, size) = *self.ranges.get(idx)?;
        let off = (base - ARENA_BASE) as usize;
        Some(&self.data[off..off + size as usize])
    }

    /// Overwrites buffer `idx` starting at offset 0.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` exceeds the buffer's size (host-side programming
    /// error).
    pub fn write_buffer(&mut self, idx: usize, bytes: &[u8]) {
        let (base, size) = self.ranges[idx];
        assert!(
            bytes.len() <= size as usize,
            "write of {} bytes into buffer of {} bytes",
            bytes.len(),
            size
        );
        let off = (base - ARENA_BASE) as usize;
        self.data[off..off + bytes.len()].copy_from_slice(bytes);
    }

    /// Copies the cache line at a line-aligned address into `out`.
    /// Regions outside the arena read as zero (they can only be padding —
    /// word-granular accesses are bounds-checked separately).
    pub(crate) fn read_line(&self, line_addr: u32, out: &mut [u8]) {
        out.fill(0);
        let start = (line_addr as usize).saturating_sub(ARENA_BASE as usize);
        let skip = (ARENA_BASE as usize).saturating_sub(line_addr as usize);
        if skip < out.len() && start < self.data.len() {
            let n = (out.len() - skip).min(self.data.len() - start);
            out[skip..skip + n].copy_from_slice(&self.data[start..start + n]);
        }
    }

    /// Flips one bit at an absolute byte address, if it maps to a buffer.
    /// Returns `true` when applied (used by the fault injector).
    pub fn flip_bit(&mut self, addr: u32, bit: u8) -> bool {
        let aligned = addr & !3;
        if let Ok(off) = self.word_offset(None, aligned, "fault") {
            let byte = off + (addr % 4) as usize;
            self.data[byte] ^= 1 << (bit % 8);
            true
        } else {
            false
        }
    }
}

impl Default for GlobalMemory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(m: &GlobalMemory, addr: u32) -> Result<u32, SimError> {
        Ok(m.word_at(m.word_offset(None, addr, "k")?))
    }

    fn store(m: &mut GlobalMemory, addr: u32, value: u32) -> Result<(), SimError> {
        let off = m.word_offset(None, addr, "k")?;
        m.set_word_at(off, value);
        Ok(())
    }

    #[test]
    fn alloc_and_roundtrip() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(16);
        let b = m.alloc(16);
        let base_a = m.base(a).unwrap();
        let base_b = m.base(b).unwrap();
        assert!(base_b >= base_a + 16);
        assert_eq!(base_a % ALIGN, 0);
        store(&mut m, base_a, 0xDEAD_BEEF).unwrap();
        assert_eq!(load(&m, base_a).unwrap(), 0xDEAD_BEEF);
        assert_eq!(load(&m, base_b).unwrap(), 0);
    }

    #[test]
    fn rejects_null_and_oob() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(8);
        let base = m.base(a).unwrap();
        assert!(matches!(load(&m, 0), Err(SimError::BadGlobalAccess { .. })));
        // Last valid word is base+4; base+8 is out of the declared size.
        assert!(load(&m, base + 4).is_ok());
        assert!(load(&m, base + 8).is_err());
    }

    #[test]
    fn rejects_unaligned() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(8);
        let base = m.base(a).unwrap();
        assert_eq!(
            load(&m, base + 1),
            Err(SimError::UnalignedAccess { addr: base + 1 })
        );
    }

    #[test]
    fn buffer_io() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(12);
        m.write_buffer(a, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let back = m.read_buffer(a).unwrap();
        assert_eq!(&back[..8], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(back.len(), 12);
    }

    #[test]
    fn flip_bit_targets_buffers_only() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(4);
        let base = m.base(a).unwrap();
        assert!(m.flip_bit(base, 0));
        assert_eq!(load(&m, base).unwrap(), 1);
        assert!(!m.flip_bit(0x10, 0), "below arena");
    }

    #[test]
    fn word_offset_rejects_the_top_of_the_address_space() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(8);
        let hint = m.extent_of(m.base(a).unwrap());
        for addr in [0xFFFF_FFFC, 0xFFFF_FFF8] {
            for h in [None, hint] {
                assert!(matches!(
                    m.word_offset(h, addr, "k"),
                    Err(SimError::BadGlobalAccess { .. })
                ));
            }
        }
    }

    #[test]
    fn a_hint_never_changes_the_answer() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(40);
        let b = m.alloc(300);
        for hint_addr in [0, m.base(a).unwrap(), m.base(b).unwrap() + 64] {
            let hint = m.extent_of(hint_addr);
            for addr in (0x0F00..0x1500).step_by(4) {
                assert_eq!(
                    m.word_offset(hint, addr, "k"),
                    m.word_offset(None, addr, "k"),
                    "addr {addr:#x} with hint from {hint_addr:#x}"
                );
            }
        }
    }

    #[test]
    fn read_line_zero_fills_outside_the_arena() {
        let mut m = GlobalMemory::new();
        let a = m.alloc(8);
        m.write_buffer(a, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut line = [0xAA; 64];
        m.read_line(ARENA_BASE - 32, &mut line);
        assert_eq!(line[..32], [0; 32]);
        assert_eq!(line[32..40], [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(line[40..], [0; 24]);
        m.read_line(ARENA_BASE + ALIGN, &mut line); // past the arena
        assert_eq!(line, [0; 64]);
    }
}
