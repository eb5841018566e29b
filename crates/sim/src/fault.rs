//! Architectural fault injection.
//!
//! Injects single-event upsets (bit flips) into the structures of Tables 2
//! and 3 of the paper: vector registers, scalar registers (modelled as a
//! wavefront-broadcast corruption), the LDS, the L1 data array, and global
//! memory. Used by the coverage-validation experiment to demonstrate which
//! faults each RMT flavor's sphere of replication detects.

/// Where to flip a bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTarget {
    /// A bit in one lane of one virtual register of one wavefront
    /// (VRF fault). The flip lands on the slot that holds the register at
    /// the wave's PC. A register dead there has no slot: the fault counts
    /// as applied and changes nothing, as it would in a file of all
    /// virtual registers.
    Vgpr {
        /// Global linear work-group id.
        group: usize,
        /// Wavefront index within the group.
        wave: usize,
        /// Virtual register number.
        reg: u32,
        /// Lane (0..63).
        lane: usize,
        /// Bit position (0..31).
        bit: u8,
    },
    /// A bit in a scalar register: the corruption is observed by *all*
    /// lanes of the wavefront, because the scalar unit broadcasts (SRF
    /// fault). Only meaningful for registers the compiler scalarized. A
    /// dead register is handled as for [`FaultTarget::Vgpr`].
    Sgpr {
        /// Global linear work-group id.
        group: usize,
        /// Wavefront index within the group.
        wave: usize,
        /// Virtual register number.
        reg: u32,
        /// Bit position (0..31).
        bit: u8,
    },
    /// A bit in the work-group's LDS allocation.
    Lds {
        /// Global linear work-group id.
        group: usize,
        /// Byte offset within the allocation.
        offset: u32,
        /// Bit position (0..7) within the byte.
        bit: u8,
    },
    /// A bit in a CU's L1 data array (only applies if the line is
    /// resident at injection time).
    L1Data {
        /// CU index.
        cu: usize,
        /// Absolute global byte address whose cached copy to corrupt.
        addr: u32,
        /// Bit position (0..7) within the byte.
        bit: u8,
    },
    /// A bit in global memory (off-chip; the paper assumes ECC covers
    /// this — included to show such faults escape every software SoR).
    GlobalMem {
        /// Absolute global byte address.
        addr: u32,
        /// Bit position (0..7) within the byte.
        bit: u8,
    },
}

impl FaultTarget {
    /// The IR virtual register whose storage this fault corrupts —
    /// register-file faults carry the attribution that lets the static
    /// coverage analysis look up the corresponding residency windows.
    pub fn ir_reg(self) -> Option<rmt_ir::Reg> {
        match self {
            FaultTarget::Vgpr { reg, .. } | FaultTarget::Sgpr { reg, .. } => Some(rmt_ir::Reg(reg)),
            _ => None,
        }
    }

    /// The LDS byte offset this fault corrupts, for LDS faults.
    pub fn lds_offset(self) -> Option<u32> {
        match self {
            FaultTarget::Lds { offset, .. } => Some(offset),
            _ => None,
        }
    }

    /// Label of the hardware structure the fault lands in, matching the
    /// column labels of the paper's Tables 2/3 where one exists.
    pub fn structure_label(self) -> &'static str {
        match self {
            FaultTarget::Vgpr { .. } => "VRF",
            FaultTarget::Sgpr { .. } => "SRF",
            FaultTarget::Lds { .. } => "LDS",
            FaultTarget::L1Data { .. } => "R/W L1$",
            FaultTarget::GlobalMem { .. } => "DRAM",
        }
    }
}

/// One planned injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Fire once the machine has executed this many dynamic wavefront
    /// instructions (a deterministic trigger).
    pub after_dyn_inst: u64,
    /// What to corrupt.
    pub target: FaultTarget,
}

/// A set of injections for one launch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Planned injections (fired in `after_dyn_inst` order).
    pub injections: Vec<Injection>,
}

impl FaultPlan {
    /// No faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan with a single injection.
    pub fn single(after_dyn_inst: u64, target: FaultTarget) -> Self {
        FaultPlan {
            injections: vec![Injection {
                after_dyn_inst,
                target,
            }],
        }
    }

    /// `true` if the plan contains no injections.
    pub fn is_empty(&self) -> bool {
        self.injections.is_empty()
    }
}

/// Deterministic chooser of fault coordinates for sampled injection
/// campaigns.
///
/// Experiments that cross-validate the static coverage analysis pick
/// *which* register/word to corrupt from the analysis itself, but the
/// within-site coordinates — lane, bit position, trigger point — are
/// arbitrary. This sampler derives them from a seed (xorshift64\* over a
/// splitmix-premixed state) so a campaign is a pure function of
/// `(kernel, seed)`: no wall clock, no platform dependence, replayable
/// from a report.
#[derive(Debug, Clone)]
pub struct FaultSampler {
    state: u64,
}

impl FaultSampler {
    /// A sampler whose whole stream is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        // Splitmix premix so nearby seeds give unrelated streams, and
        // guard against the all-zero xorshift fixed point.
        let mut x = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        FaultSampler { state: x.max(1) }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `0..n` (`n > 0`), via multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// A wavefront lane, `0..64`.
    pub fn lane(&mut self) -> usize {
        self.below(64) as usize
    }

    /// A bit position within a 32-bit register, `0..32`.
    pub fn bit32(&mut self) -> u8 {
        self.below(32) as u8
    }

    /// A bit position within a byte, `0..8`.
    pub fn bit8(&mut self) -> u8 {
        self.below(8) as u8
    }

    /// A dynamic-instruction trigger in `1..=max(1, dyn_insts)` — strictly
    /// positive so the fault always fires after some forward progress.
    pub fn trigger(&mut self, dyn_insts: u64) -> u64 {
        1 + self.below(dyn_insts.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_is_deterministic_and_in_range() {
        let mut a = FaultSampler::new(42);
        let mut b = FaultSampler::new(42);
        for _ in 0..256 {
            let (la, ba, wa, ta) = (a.lane(), a.bit32(), a.bit8(), a.trigger(1000));
            assert_eq!(
                (la, ba, wa, ta),
                (b.lane(), b.bit32(), b.bit8(), b.trigger(1000))
            );
            assert!(la < 64);
            assert!(ba < 32);
            assert!(wa < 8);
            assert!((1..=1000).contains(&ta));
        }
    }

    #[test]
    fn sampler_streams_differ_by_seed() {
        let mut a = FaultSampler::new(1);
        let mut b = FaultSampler::new(2);
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn trigger_handles_tiny_budgets() {
        let mut s = FaultSampler::new(7);
        for _ in 0..32 {
            assert_eq!(s.trigger(0), 1);
            assert_eq!(s.trigger(1), 1);
        }
    }

    #[test]
    fn plans_compose() {
        let p = FaultPlan::single(
            100,
            FaultTarget::Vgpr {
                group: 0,
                wave: 0,
                reg: 3,
                lane: 7,
                bit: 31,
            },
        );
        assert!(!p.is_empty());
        assert_eq!(p.injections.len(), 1);
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn targets_attribute_to_ir_sites() {
        let v = FaultTarget::Vgpr {
            group: 0,
            wave: 0,
            reg: 3,
            lane: 7,
            bit: 31,
        };
        assert_eq!(v.ir_reg(), Some(rmt_ir::Reg(3)));
        assert_eq!(v.lds_offset(), None);
        assert_eq!(v.structure_label(), "VRF");

        let s = FaultTarget::Sgpr {
            group: 0,
            wave: 0,
            reg: 9,
            bit: 0,
        };
        assert_eq!(s.ir_reg(), Some(rmt_ir::Reg(9)));
        assert_eq!(s.structure_label(), "SRF");

        let l = FaultTarget::Lds {
            group: 1,
            offset: 40,
            bit: 2,
        };
        assert_eq!(l.ir_reg(), None);
        assert_eq!(l.lds_offset(), Some(40));
        assert_eq!(l.structure_label(), "LDS");

        let c = FaultTarget::L1Data {
            cu: 0,
            addr: 64,
            bit: 1,
        };
        assert_eq!(c.structure_label(), "R/W L1$");
        assert_eq!(
            FaultTarget::GlobalMem { addr: 0, bit: 0 }.structure_label(),
            "DRAM"
        );
    }
}
