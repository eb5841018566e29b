//! # rmt-core
//!
//! The primary contribution of *"Real-World Design and Evaluation of
//! Compiler-Managed GPU Redundant Multithreading"* (ISCA 2014): compiler
//! passes that automatically convert GPGPU kernels into redundantly
//! threaded versions for transient-fault detection, plus the host-side
//! launcher and the overhead-decomposition methodology of the evaluation.
//!
//! ## The three RMT algorithms
//!
//! * **Intra-Group+LDS** ([`RmtFlavor::IntraPlusLds`], paper Section 6) —
//!   the work-group is doubled and redundant work-item *pairs* share a
//!   wavefront. LDS allocations are duplicated (LDS inside the sphere of
//!   replication); output comparisons happen before every global store,
//!   through an LDS communication buffer (or directly through the VRF with
//!   [`CommMode::Swizzle`], Section 8).
//! * **Intra-Group−LDS** ([`RmtFlavor::IntraMinusLds`]) — LDS allocations
//!   are *not* duplicated (LDS outside the SoR), so every local store also
//!   becomes an SoR exit requiring comparison.
//! * **Inter-Group** ([`RmtFlavor::Inter`], Section 7) — the number of
//!   work-groups is doubled; producer/consumer roles are assigned through a
//!   deadlock-free global ticket counter; output comparisons travel through
//!   global-memory communication slots with a two-tier full/empty protocol
//!   whose reads use `atomic_add(·, 0)` to defeat the stale, non-coherent
//!   L1s.
//! * **Selective** ([`RmtFlavor::Selective`]) — coverage-guided selective
//!   hardening: the [`rmt_ir::analysis::harden`] planner slices backward
//!   from Vulnerable residency windows and picks the sphere-of-replication
//!   exits worth protecting under a budget; only those get the
//!   publish+compare sequence (budget 0 emits the original kernel, budget
//!   100 equals Intra-Group+LDS).
//!
//! ## Quick example
//!
//! ```
//! use gcn_sim::{Arg, Device, DeviceConfig, LaunchConfig};
//! use rmt_core::{transform, RmtLauncher, TransformOptions};
//! use rmt_ir::KernelBuilder;
//!
//! # fn main() -> Result<(), rmt_core::RmtError> {
//! // out[i] = in[i] * 3
//! let mut b = KernelBuilder::new("triple");
//! let inp = b.buffer_param("in");
//! let out = b.buffer_param("out");
//! let gid = b.global_id(0);
//! let ia = b.elem_addr(inp, gid);
//! let oa = b.elem_addr(out, gid);
//! let v = b.load_global(ia);
//! let three = b.const_u32(3);
//! let w = b.mul_u32(v, three);
//! b.store_global(oa, w);
//! let kernel = b.finish();
//!
//! // Compile to an Intra-Group+LDS redundant version.
//! let rmt = transform(&kernel, &TransformOptions::intra_plus_lds())?;
//!
//! // Launch it: the launcher doubles the NDRange and wires the extra
//! // buffers (detection counter, communication).
//! let mut dev = Device::new(DeviceConfig::small_test());
//! let ib = dev.create_buffer(256 * 4);
//! let ob = dev.create_buffer(256 * 4);
//! dev.write_u32s(ib, &(0..256).collect::<Vec<u32>>());
//! let mut launcher = RmtLauncher::new();
//! let run = launcher.launch(
//!     &mut dev,
//!     &rmt,
//!     &LaunchConfig::new_1d(256, 64)
//!         .arg(Arg::Buffer(ib))
//!         .arg(Arg::Buffer(ob)),
//! )?;
//! assert_eq!(run.detections, 0); // no faults injected
//! assert_eq!(dev.read_u32s(ob)[7], 21);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod coverage;
pub mod decompose;
mod error;
mod launcher;
mod options;
pub mod oracle;
pub mod profile;
mod report;
pub mod sor;
mod transform;
pub mod tv;
pub mod verify;

pub use error::RmtError;
pub use launcher::{launch_rmt, RmtLauncher, RmtRunResult};
pub use options::{CommMode, RmtFlavor, Stage, TransformOptions};
pub use profile::{classify_insts, split_cycles, CycleBucket, CycleSplit};
pub use report::TransformReport;
pub use transform::{transform, Provenance, RmtKernel, RmtMeta, RmtTag, SelectiveMeta};
pub use tv::validate_transform;
pub use verify::{verify_rmt, VerifyError};
