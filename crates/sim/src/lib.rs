//! # gcn-sim
//!
//! A deterministic, cycle-approximate simulator of an AMD Graphics Core
//! Next (GCN)-like GPU, standing in for the AMD Radeon HD 7790 used in
//! *"Real-World Design and Evaluation of Compiler-Managed GPU Redundant
//! Multithreading"* (ISCA 2014).
//!
//! The machine model (Section 3.3 of the paper):
//!
//! * a configurable number of **compute units** (CUs), default 12;
//! * each CU has four 16-wide **SIMD units** executing one 64-wide
//!   wavefront instruction over 4 cycles, a **scalar unit** (SU) with its
//!   own register file, 64 kB of **LDS**, and a 16 kB write-through,
//!   non-coherent **L1** read/write cache;
//! * a shared **L2** behind the L1s (all writes are immediately globally
//!   visible in the L2 — the property the paper's inter-group
//!   communication relies on) and a DRAM bandwidth model behind the L2;
//! * wavefront occupancy per SIMD is limited by VGPR usage, LDS usage,
//!   wave slots, and work-group slots, and the dispatcher assigns
//!   work-groups to CUs greedily in order.
//!
//! Execution is *functional + timing*: kernels written in [`rmt_ir`] are
//! interpreted with full SIMT semantics (execution masks, divergence,
//! barriers, L2-backed atomics, **stale non-coherent L1s**) while a
//! resource model charges cycles and fills the performance counters the
//! paper reads through CodeXL (`VALUBusy`, `MemUnitBusy`,
//! `WriteUnitStalled`), plus a sliding-window power estimator and an
//! architectural fault injector.
//!
//! ## Quick example
//!
//! ```
//! use gcn_sim::{Device, DeviceConfig, LaunchConfig, Arg};
//! use rmt_ir::KernelBuilder;
//!
//! # fn main() -> Result<(), gcn_sim::SimError> {
//! // out[i] = in[i] + 1
//! let mut b = KernelBuilder::new("inc");
//! let inp = b.buffer_param("in");
//! let out = b.buffer_param("out");
//! let gid = b.global_id(0);
//! let ia = b.elem_addr(inp, gid);
//! let oa = b.elem_addr(out, gid);
//! let v = b.load_global(ia);
//! let one = b.const_u32(1);
//! let w = b.add_u32(v, one);
//! b.store_global(oa, w);
//! let kernel = b.finish();
//!
//! let mut dev = Device::new(DeviceConfig::radeon_hd_7790());
//! let inp_buf = dev.create_buffer(256 * 4);
//! let out_buf = dev.create_buffer(256 * 4);
//! dev.write_u32s(inp_buf, &(0..256).collect::<Vec<u32>>());
//! let stats = dev.launch(
//!     &kernel,
//!     &LaunchConfig::new([256, 1, 1], [64, 1, 1])
//!         .arg(Arg::Buffer(inp_buf))
//!         .arg(Arg::Buffer(out_buf)),
//! )?;
//! assert!(stats.cycles > 0);
//! assert_eq!(dev.read_u32s(out_buf)[10], 11);
//! # Ok(())
//! # }
//! ```
//!
//! ## Probes
//!
//! Fault injection, tracing and profiling are optional probes on the
//! [`LaunchConfig`]: `.faults(plan)`, `.trace(TraceConfig)` and
//! `.profile(ProfileConfig)`. They compose on one launch, and
//! [`Device::launch_compiled`] is the only launch body: the
//! [`LaunchStats`] it returns carries `faults_applied` and what the trace
//! and profile recorded. The machine builds its tracer and profiler
//! before the first work-group dispatch, so both see every wave from its
//! start. Tracing and profiling are observational: every other field of
//! the stats is bit-identical to an unprobed launch.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alu;
mod cache;
pub mod config;
mod counters;
mod device;
mod engine;
mod error;
pub mod fault;
mod flat;
mod launch;
mod machine;
mod memory;
pub mod pool;
mod power;
pub mod profile;
mod trace;

pub use cache::CacheStats;
pub use config::{DeviceConfig, Latencies, PowerConfig, SimEngine, TICKS_PER_CYCLE};
pub use counters::PerfCounters;
pub use device::{BufferId, Device};
pub use error::SimError;
pub use fault::{FaultPlan, FaultSampler, FaultTarget, Injection};
pub use flat::{CompiledKernel, FlatOp};
pub use launch::{Arg, LaunchConfig, LaunchStats, Occupancy, OccupancyLimiter};
pub use power::PowerStats;
pub use profile::{PcProfile, Profile, ProfileConfig, SlotCat, TimelineSample, NUM_CATS};
pub use trace::{Trace, TraceConfig, TraceRecord};
