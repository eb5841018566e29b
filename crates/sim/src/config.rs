//! Device configuration: geometry, latencies, throughputs, power,
//! execution engine.

use std::str::FromStr;

/// Which machine loop drives the simulation clock.
///
/// Both engines implement the same scheduling contract — step waves in
/// lexicographic `(ready_tick, wave_id)` order — and are bit-identical in
/// every observable (counters, profiles, traces, fault outcomes, memory
/// contents). The differential tests in `crates/sim/tests/engine_equiv.rs`
/// and `engine_prop.rs` enforce this; the golden snapshot tests pin both
/// engines to the same committed `.snap` files.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimEngine {
    /// Discrete-event core: a min-heap of `(wake_tick, wave)` lets the
    /// clock jump over fully-stalled spans in O(log waves). The default.
    #[default]
    Event,
    /// Lock-step reference core: advances the clock one tick at a time,
    /// scanning runnable waves in ascending id order. Kept as the
    /// equivalence oracle for the event core; much slower on
    /// memory-bound kernels.
    LockStep,
}

impl FromStr for SimEngine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "event" => Ok(SimEngine::Event),
            "lockstep" => Ok(SimEngine::LockStep),
            other => Err(format!(
                "unknown engine '{other}' (expected 'event' or 'lockstep')"
            )),
        }
    }
}

/// Internal time resolution: ticks per core clock cycle.
///
/// Sub-cycle resolution lets throughput resources (notably DRAM, which
/// serves a 64 B line in under a cycle at 96 GB/s) be modelled with integer
/// arithmetic while staying fully deterministic.
pub const TICKS_PER_CYCLE: u64 = 16;

/// Latency and throughput parameters, all in *ticks*
/// ([`TICKS_PER_CYCLE`] ticks = 1 core cycle).
///
/// `Copy` on purpose: the interpreter snapshots the whole table once per
/// memory operation, which must not allocate or deep-clone on the hot
/// path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Latencies {
    /// SIMD occupancy per vector ALU instruction (64 lanes over 16-wide
    /// unit = 4 cycles on GCN).
    pub valu_issue: u64,
    /// Extra SIMD occupancy for transcendental ops (quarter rate).
    pub valu_trans_extra: u64,
    /// Scalar-unit occupancy per scalar instruction.
    pub salu_issue: u64,
    /// Latency from LDS issue to data (paper-era GCN: tens of cycles).
    pub lds_latency: u64,
    /// LDS pipeline occupancy per wavefront access with no bank conflicts.
    pub lds_issue: u64,
    /// Additional LDS occupancy per extra conflicting access to one bank.
    pub lds_conflict: u64,
    /// L1 hit latency.
    pub l1_latency: u64,
    /// Memory-unit occupancy per 64 B transaction (L1 bandwidth bound).
    pub l1_issue: u64,
    /// L2 hit latency (on L1 miss).
    pub l2_latency: u64,
    /// L2 occupancy per transaction (shared across CUs).
    pub l2_issue: u64,
    /// DRAM latency (on L2 miss).
    pub dram_latency: u64,
    /// DRAM occupancy per 64 B line (bandwidth bound; at 96 GB/s and 1 GHz
    /// a line takes 2/3 of a cycle).
    pub dram_issue: u64,
    /// Latency of a global atomic (executed at the L2).
    pub atomic_latency: u64,
    /// L2-bank occupancy per atomic line transaction. Atomics to distinct
    /// addresses within one line pipeline as a single transaction;
    /// same-address lane conflicts serialize (RMW dependency).
    pub atomic_issue: u64,
    /// Store completion time charged to the issuing wavefront (fire and
    /// forget into the write buffer).
    pub store_issue: u64,
    /// Write-buffer drain occupancy per 64 B line toward the L2.
    pub write_drain: u64,
    /// Write-buffer capacity in outstanding lines before stores stall the
    /// wavefront (`WriteUnitStalled`).
    pub write_buffer_lines: u64,
    /// Cost of a mask-manipulating control op (runs on the scalar path).
    pub control_issue: u64,
    /// Delay between a work-group finishing and its replacement's first
    /// wavefront being ready on the same CU.
    pub dispatch_overhead: u64,
    /// Stagger between consecutive work-group dispatches at launch.
    pub dispatch_interval: u64,
}

impl Latencies {
    /// Paper-era GCN-like defaults (1 GHz core clock).
    pub fn gcn_default() -> Self {
        const C: u64 = TICKS_PER_CYCLE;
        Latencies {
            valu_issue: 4 * C,
            valu_trans_extra: 12 * C,
            salu_issue: C,
            lds_latency: 32 * C,
            lds_issue: 2 * C,
            lds_conflict: 2 * C,
            l1_latency: 44 * C,
            l1_issue: 4 * C,
            l2_latency: 140 * C,
            l2_issue: C,
            dram_latency: 320 * C,
            dram_issue: 11, // ~0.69 cycles per 64B line = 96 GB/s at 1 GHz
            atomic_latency: 200 * C,
            atomic_issue: C,
            store_issue: 8 * C,
            write_drain: 4 * C,
            write_buffer_lines: 16,
            control_issue: C,
            dispatch_overhead: 64 * C,
            dispatch_interval: 4 * C,
        }
    }
}

/// Parameters of the activity-based power estimator.
///
/// Mirrors the paper's use of the on-chip ASIC power monitor (Section 5):
/// average power over the kernel, plus a sliding-window peak.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerConfig {
    /// Static + idle power floor in watts.
    pub idle_watts: f64,
    /// Energy per 64-lane vector ALU instruction, nanojoules.
    pub valu_nj: f64,
    /// Extra energy for transcendental ops, nanojoules.
    pub trans_extra_nj: f64,
    /// Energy per scalar instruction, nanojoules.
    pub salu_nj: f64,
    /// Energy per wavefront LDS access, nanojoules.
    pub lds_nj: f64,
    /// Energy per 64 B L1 transaction, nanojoules.
    pub l1_nj: f64,
    /// Energy per 64 B L2 transaction, nanojoules.
    pub l2_nj: f64,
    /// Energy per 64 B DRAM transaction, nanojoules.
    pub dram_nj: f64,
    /// Energy per global atomic, nanojoules.
    pub atomic_nj: f64,
    /// Sliding-window width for peak-power estimation, in cycles
    /// (the paper's monitor integrates over 1 ms ≈ 1 M cycles; shorter
    /// windows suit shorter simulations).
    pub window_cycles: u64,
}

impl PowerConfig {
    /// Defaults calibrated so that a fully-utilized 12-CU device draws
    /// roughly the 60–75 W band the paper reports for the HD 7790.
    pub fn gcn_default() -> Self {
        PowerConfig {
            idle_watts: 38.0,
            valu_nj: 2.1,
            trans_extra_nj: 2.5,
            salu_nj: 0.25,
            lds_nj: 1.1,
            l1_nj: 0.6,
            l2_nj: 1.2,
            dram_nj: 4.5,
            atomic_nj: 2.0,
            window_cycles: 50_000,
        }
    }
}

/// Full device configuration. The wavefront width is not a setting:
/// every wave has [`crate::alu::LANES`] lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceConfig {
    /// Number of compute units.
    pub num_cus: usize,
    /// SIMD units per CU.
    pub simds_per_cu: usize,
    /// Maximum wavefronts resident per SIMD.
    pub max_waves_per_simd: usize,
    /// VGPRs available per SIMD lane slice (256 on GCN).
    pub vgprs_per_simd: u32,
    /// VGPRs reserved by the ABI on top of the kernel's register pressure.
    pub reserved_vgprs: u32,
    /// LDS bytes per CU.
    pub lds_per_cu: u32,
    /// Maximum resident work-groups per CU.
    pub max_groups_per_cu: usize,
    /// Maximum work-items per work-group.
    pub max_workgroup_size: usize,
    /// Core clock in GHz (converts cycles to seconds for power).
    pub clock_ghz: f64,
    /// L1 cache size in bytes (per CU).
    pub l1_bytes: u32,
    /// L2 cache size in bytes (shared).
    pub l2_bytes: u32,
    /// Cache line size in bytes.
    pub line_bytes: u32,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// L2 associativity.
    pub l2_assoc: usize,
    /// Independent L2 banks (by line address): each serves one transaction
    /// per `l2_issue`/`atomic_issue` interval, so aggregate L2 bandwidth is
    /// `banks × 64 B` per interval.
    pub l2_banks: usize,
    /// Timing parameters.
    pub lat: Latencies,
    /// Power-model parameters.
    pub power: PowerConfig,
    /// Watchdog: abort after this many dynamic wavefront instructions.
    pub watchdog_insts: u64,
    /// Which machine loop drives the clock. Purely a performance choice:
    /// both engines produce bit-identical observables.
    pub engine: SimEngine,
}

impl DeviceConfig {
    /// The paper's evaluation platform: an AMD Radeon HD 7790 exposing
    /// 12 CUs, 1 GHz core clock (Section 5).
    pub fn radeon_hd_7790() -> Self {
        DeviceConfig {
            num_cus: 12,
            simds_per_cu: 4,
            max_waves_per_simd: 10,
            vgprs_per_simd: 256,
            reserved_vgprs: 2,
            lds_per_cu: 64 * 1024,
            max_groups_per_cu: 16,
            max_workgroup_size: 256,
            clock_ghz: 1.0,
            l1_bytes: 16 * 1024,
            l2_bytes: 512 * 1024,
            line_bytes: 64,
            l1_assoc: 4,
            l2_assoc: 16,
            l2_banks: 8,
            lat: Latencies::gcn_default(),
            power: PowerConfig::gcn_default(),
            watchdog_insts: 400_000_000,
            engine: SimEngine::Event,
        }
    }

    /// A small 2-CU device for fast unit tests.
    pub fn small_test() -> Self {
        let mut c = Self::radeon_hd_7790();
        c.num_cus = 2;
        c.watchdog_insts = 20_000_000;
        c
    }

    /// Total SIMD units on the device.
    pub fn total_simds(&self) -> usize {
        self.num_cus * self.simds_per_cu
    }

    /// Maximum wavefronts resident per CU.
    pub fn max_waves_per_cu(&self) -> usize {
        self.simds_per_cu * self.max_waves_per_simd
    }
}

impl Default for DeviceConfig {
    fn default() -> Self {
        Self::radeon_hd_7790()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_platform_shape() {
        let c = DeviceConfig::radeon_hd_7790();
        assert_eq!(c.num_cus, 12);
        assert_eq!(c.total_simds(), 48);
        assert_eq!(c.max_waves_per_cu(), 40);
        assert_eq!(crate::alu::LANES, 64, "64-lane wavefronts");
        assert_eq!(c.lds_per_cu, 65536);
    }

    #[test]
    fn dram_issue_matches_bandwidth() {
        // 64 B per dram_issue ticks should be ~96 GB/s at 1 GHz.
        let lat = Latencies::gcn_default();
        let bytes_per_cycle = 64.0 * TICKS_PER_CYCLE as f64 / lat.dram_issue as f64;
        assert!(
            (90.0..105.0).contains(&bytes_per_cycle),
            "{bytes_per_cycle}"
        );
    }

    #[test]
    fn default_is_paper_platform() {
        assert_eq!(DeviceConfig::default(), DeviceConfig::radeon_hd_7790());
    }

    #[test]
    fn engine_parses_and_defaults_to_event() {
        assert_eq!(DeviceConfig::default().engine, SimEngine::Event);
        assert_eq!("event".parse::<SimEngine>(), Ok(SimEngine::Event));
        assert_eq!("lockstep".parse::<SimEngine>(), Ok(SimEngine::LockStep));
        assert!("ticked".parse::<SimEngine>().is_err());
    }
}
