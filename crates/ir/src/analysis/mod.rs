//! Static analyses over kernels.
//!
//! These feed the simulator's cost model:
//!
//! * [`linear`] — the pre-order table (one node per instruction, numbered
//!   from 1) the flow-insensitive analyses below share: loop regions,
//!   enclosing conditions, def counts, global exit sites and parameter
//!   provenance;
//! * [`pressure`] — peak virtual-register pressure, the input to the
//!   occupancy calculation (VGPRs per work-item limit wavefronts per SIMD,
//!   Section 3.3 of the paper);
//! * [`uniformity`] — the shared uniformity fixpoints: wavefront-uniformity
//!   (deciding which operations the compiler would place on the GCN scalar
//!   unit — the reason the SU/SRF sit outside the Intra-Group sphere of
//!   replication, Section 6.1) and the group-divergence taint consumed by
//!   [`crate::validate`], the lint divergence pass, and [`equiv`];
//! * [`mix`] — static instruction-mix statistics used by experiment
//!   reporting;
//! * [`lint`] — the static-analysis (lint) framework: barrier-interval
//!   race detection, uniformity-aware divergence checking, and LDS
//!   bounds checking;
//! * [`coverage`] — protection-coverage classification of RMT-transformed
//!   kernels (Detected / Vulnerable / Masked residency windows), the
//!   static half of the injection cross-validation loop;
//! * [`harden`] — the inverse of [`coverage`]: a backward vulnerability
//!   slicer that plans which sphere-of-replication exits to protect under
//!   a budget (the `Selective` transform flavor consumes its plan);
//! * [`equiv`] — the symbolic translation-validation engine: lock-step
//!   symbolic execution of an original/transformed kernel pair over a
//!   hash-consed affine term domain, discharging observational-equivalence
//!   and compare-dominance obligations per sphere-of-replication exit.

pub mod coverage;
pub mod equiv;
pub mod harden;
pub mod linear;
pub mod lint;
pub mod mix;
pub mod pressure;
pub mod uniformity;

pub use coverage::{
    coverage, CoverageReport, CoverageSpec, Protection, Replication, Residency, Tallies, Window,
};
pub use equiv::{self_check, validate_pair, BuiltinView, Residue, ResidueKind, TvConfig, TvReport};
pub use harden::{harden, HardenConfig, HardenPlan, PlanWindow, Slice};
pub use linear::{ExitSite, Linear};
pub use lint::{lint_kernel, Diagnostic, LintConfig, LintKind};
pub use mix::{instruction_mix, InstMix};
pub use pressure::{live_spans, register_pressure};
pub use uniformity::{group_divergent_regs, uniform_regs};
