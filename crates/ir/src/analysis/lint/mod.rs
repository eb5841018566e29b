//! Static analysis (lint) framework over the kernel IR.
//!
//! Three pass families, all driven by one symbolic walk of the kernel
//! ([`engine`]):
//!
//! 1. **Race detection** ([`races`]) — partitions memory accesses into
//!    barrier-delimited intervals and proves, per pair, that distinct
//!    work-items of a work-group cannot touch overlapping bytes (or flags
//!    the pair). LDS is held to a *verify* posture (unproven ⇒
//!    diagnostic); global memory to a *bug-finder* posture (only definite
//!    overlaps are reported), because data-dependent butterfly addressing
//!    (FFT/bitonic-style) is statically unprovable yet correct.
//! 2. **Divergence checking** (in the [`engine`] walk; its module docs
//!    give the rules) — barriers under non-uniform control flow and
//!    swizzles under pair-splitting guards.
//! 3. **LDS bounds** — accesses provably outside the declared
//!    `lds_bytes` allocation (definite-only).
//!
//! The RMT *transform-invariant* verifier (store-coverage and ticket
//! protocol shape) lives in `rmt-core::verify`, next to the transforms
//! whose output it checks; it consumes the same kernel IR.
//!
//! ### Assumptions
//!
//! * Launch geometry may be supplied via [`LintAssumptions`]; unknown
//!   work-group sizes weaken (never unsound-en) the proofs. Dimensions
//!   with an assumed size of 1 are treated as degenerate (ids are 0).
//! * Address arithmetic is ideal-integer: kernels relying on 32-bit
//!   wraparound to alias addresses are outside the domain.
//! * Race checking is scoped to work-items of **one work-group** (the
//!   GPUVerify-style reduction). Cross-group global traffic — e.g. the
//!   inter-group RMT full/empty communication protocol — is synchronized
//!   by atomics the interval model does not interpret, and is therefore
//!   out of scope by design.
//! * Scalar parameters are assumed non-negative (buffer bases and sizes).

pub mod engine;
pub mod expr;
pub mod races;

pub use expr::LintAssumptions;

use crate::kernel::Kernel;

/// Which diagnostic a lint pass produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LintKind {
    /// Possible LDS data race within a barrier interval (verify posture).
    LocalRace,
    /// Definite global-memory data race within a work-group (bug-finder
    /// posture: only proven overlaps are reported).
    GlobalRace,
    /// Barrier reachable under divergent control flow.
    DivergentBarrier,
    /// Swizzle under a guard that can split an even/odd lane pair.
    DivergentSwizzle,
    /// LDS access provably outside the declared allocation.
    LdsOutOfBounds,
}

impl std::fmt::Display for LintKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LintKind::LocalRace => "local-race",
            LintKind::GlobalRace => "global-race",
            LintKind::DivergentBarrier => "divergent-barrier",
            LintKind::DivergentSwizzle => "divergent-swizzle",
            LintKind::LdsOutOfBounds => "lds-out-of-bounds",
        };
        f.write_str(s)
    }
}

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Category.
    pub kind: LintKind,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.kind, self.message)
    }
}

/// Configuration for [`lint_kernel`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LintConfig {
    /// Launch-shape assumptions.
    pub assumptions: LintAssumptions,
}

impl LintConfig {
    /// Lints under the given launch assumptions.
    pub fn with_assumptions(assumptions: LintAssumptions) -> Self {
        LintConfig { assumptions }
    }
}

/// Runs every lint pass over `kernel` and returns every finding,
/// deduplicated, in a deterministic order: divergence, then LDS bounds,
/// then races.
pub fn lint_kernel(kernel: &Kernel, cfg: &LintConfig) -> Vec<Diagnostic> {
    let out = engine::Engine::new(kernel, cfg.assumptions).run();
    let races = races::check_intervals(&out, &cfg.assumptions);
    let mut diags = out.divergence;
    diags.extend(out.bounds);
    diags.extend(races);
    // Alternatives and loop phases can rediscover the same finding.
    let mut seen = crate::fxhash::FxHashSet::default();
    diags.retain(|d| seen.insert(format!("{d}")));
    diags
}
