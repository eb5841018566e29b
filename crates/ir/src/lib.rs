//! # rmt-ir
//!
//! A typed, structured, SIMT kernel intermediate representation (IR).
//!
//! This crate is the compiler substrate for the reproduction of *"Real-World
//! Design and Evaluation of Compiler-Managed GPU Redundant Multithreading"*
//! (ISCA 2014). It plays the role that LLVM IR plays in the paper's OpenCL
//! toolchain: kernels are expressed in this IR, the RMT transformations in
//! `rmt-core` rewrite it, and the `gcn-sim` simulator executes it.
//!
//! ## Model
//!
//! * Every value is a 32-bit register ([`Reg`]) whose bits are interpreted
//!   per instruction as [`Ty::I32`], [`Ty::U32`] or [`Ty::F32`] — matching
//!   the 32-bit VGPR lanes of AMD's Graphics Core Next architecture (and
//!   exposing the packing costs the paper observes for register-level
//!   communication).
//! * Control flow is *structured* ([`Inst::If`], [`Inst::While`]), mirroring
//!   OpenCL kernels and giving well-defined SIMT reconvergence semantics.
//! * Work-items observe the OpenCL ID space through [`Builtin`] reads
//!   (global/local/group IDs and sizes), which is exactly the surface the
//!   RMT ID-remapping rewrites manipulate.
//! * Memory is split into [`MemSpace::Global`] (byte-addressed device
//!   memory, reached through buffer parameters) and [`MemSpace::Local`]
//!   (the 64 kB per-work-group LDS scratchpad).
//! * [`Inst::Swizzle`] models the GCN `ds_swizzle`-style intra-wavefront
//!   lane exchange used by the paper's "FAST" register-level communication
//!   (Section 8, Figure 8).
//!
//! ## Quick example
//!
//! ```
//! use rmt_ir::{KernelBuilder, Ty};
//!
//! // A SAXPY-style kernel: out[i] = a * x[i] + y[i]
//! let mut b = KernelBuilder::new("saxpy");
//! let x = b.buffer_param("x");
//! let y = b.buffer_param("y");
//! let out = b.buffer_param("out");
//! let a = b.scalar_param("a", Ty::F32);
//! let gid = b.global_id(0);
//! let four = b.const_u32(4);
//! let off = b.mul_u32(gid, four);
//! let xa = b.add_u32(x, off);
//! let ya = b.add_u32(y, off);
//! let oa = b.add_u32(out, off);
//! let xv = b.load_global(xa);
//! let yv = b.load_global(ya);
//! let ax = b.mul_f32(a, xv);
//! let r = b.add_f32(ax, yv);
//! b.store_global(oa, r);
//! let kernel = b.finish();
//! assert!(rmt_ir::validate(&kernel).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
mod builder;
mod display;
pub mod fuzz;
mod fxhash;
mod inst;
mod kernel;
mod regset;
mod types;
mod validate;

pub use builder::KernelBuilder;
pub use display::inst_to_string;
pub use fxhash::{FxHashMap, FxHashSet};
pub use inst::{
    AtomicOp, BinOp, Block, Builtin, CmpOp, Dim, Inst, MemSpace, Reg, SwizzleMode, UnOp,
};
pub use kernel::{Kernel, Param, ParamKind};
pub use regset::{RegMap, RegSet};
pub use types::Ty;
pub use validate::{validate, ValidateError};
