//! The automatic RMT kernel transformation (paper Sections 4, 6.2, 7.2, 8).

mod emit;
mod inter;
mod intra;
mod provenance;
mod rewrite;
mod selective;

use crate::error::RmtError;
use crate::options::{RmtFlavor, TransformOptions};
use rmt_ir::analysis::equiv::ResidueKind;
use rmt_ir::Kernel;

pub use provenance::{Provenance, RmtTag};

/// Plan statistics recorded by the `Selective` flavor (see
/// [`rmt_ir::analysis::harden`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectiveMeta {
    /// The protection budget (percent) the plan was computed for.
    pub budget: u8,
    /// Total SoR exit sites (global stores + atomics) in the original.
    pub candidate_exits: u32,
    /// Exit sites the plan selected for publish+compare protection.
    pub planned_exits: u32,
    /// Global **stores** among the candidates (the rest are atomics).
    pub candidate_stores: u32,
    /// Global stores among the planned exits — each gets exactly one
    /// compare sequence, which the verifier counts.
    pub planned_stores: u32,
}

/// Metadata the launcher needs to run a transformed kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RmtMeta {
    /// The options the kernel was transformed with.
    pub options: TransformOptions,
    /// Number of parameters of the original kernel (RMT params follow).
    pub orig_param_count: usize,
    /// Index of the appended error-detection counter buffer parameter.
    /// The kernel atomically increments word 0 on every output mismatch.
    pub detect_param: usize,
    /// Index of the appended global ticket-counter buffer (Inter-Group,
    /// full stage only). Must be zeroed before launch.
    pub ticket_param: Option<usize>,
    /// Index of the appended global communication buffer (Inter-Group,
    /// full stage only). Must be zeroed before launch.
    pub comm_param: Option<usize>,
    /// LDS bytes of the original kernel.
    pub orig_lds_bytes: u32,
    /// Bytes of communication buffer needed per *original* work-item
    /// (Inter-Group full: 16 — state/address/value words plus padding so a
    /// slot never straddles a cache line).
    pub comm_bytes_per_item: u32,
    /// Plan statistics when the flavor is `Selective` (`None` otherwise).
    pub selective: Option<SelectiveMeta>,
}

impl RmtMeta {
    /// `true` if the kernel actually runs redundant replicas. A `Selective`
    /// plan that protects zero exits emits the original body verbatim, so
    /// the launcher must not double the geometry.
    pub fn replicates(&self) -> bool {
        self.selective.is_none_or(|s| s.planned_exits > 0)
    }

    /// `true` if the launcher should double work-groups in dimension 0
    /// (replicating intra-group flavors).
    pub fn doubles_workgroup(&self) -> bool {
        self.replicates() && self.options.flavor.is_intra()
    }
}

/// A kernel rewritten for redundant multithreading, plus launch metadata.
#[derive(Debug, Clone)]
pub struct RmtKernel {
    /// The transformed kernel.
    pub kernel: Kernel,
    /// Launch metadata.
    pub meta: RmtMeta,
    /// Roles of the transform-inserted registers, recorded at emission.
    pub provenance: Provenance,
}

/// Maximum redundant pairs per work-group the LDS communication region is
/// sized for (doubled groups are capped at 256 work-items = 128 pairs).
pub(crate) const MAX_PAIRS: u32 = 128;

/// Applies the RMT compiler pass to a kernel.
///
/// # Errors
///
/// * [`RmtError::InvalidKernel`] if the input fails IR validation;
/// * [`RmtError::Unsupported`] for constructs outside the supported subset
///   (user swizzles under intra-group transforms, since pair lanes are
///   re-purposed; global atomics whose old value re-enters the sphere of
///   replication — the paper likewise scopes SoR exits to stores).
pub fn transform(kernel: &Kernel, opts: &TransformOptions) -> Result<RmtKernel, RmtError> {
    rmt_ir::validate(kernel).map_err(|e| RmtError::InvalidKernel(e.to_string()))?;
    let rk = match opts.flavor {
        RmtFlavor::IntraPlusLds | RmtFlavor::IntraMinusLds => intra::run(kernel, opts)?,
        RmtFlavor::Inter => inter::run(kernel, opts)?,
        RmtFlavor::Selective { budget } => selective::run(kernel, opts, budget)?,
    };
    debug_assert_eq!(
        rmt_ir::validate(&rk.kernel),
        Ok(()),
        "transform produced invalid IR for `{}`",
        kernel.name
    );
    debug_assert_eq!(
        crate::verify::verify_rmt(kernel, &rk),
        Vec::new(),
        "transform broke an RMT invariant for `{}`",
        kernel.name
    );
    // `verify_rmt` owns the shape; `tv` owns the meaning, channel
    // sourcing of every detect compare included. Only the by-design
    // `Unsupported` pair (Inter-Group redundant-no-comm) is exempt.
    debug_assert_eq!(
        crate::tv::validate_transform_inner(kernel, &rk)
            .residue
            .into_iter()
            .filter(|r| r.kind != ResidueKind::Unsupported)
            .collect::<Vec<_>>(),
        Vec::new(),
        "transform left translation-validation residue for `{}`",
        kernel.name
    );
    Ok(rk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_ir::{Inst, KernelBuilder, MemSpace, SwizzleMode};

    fn store_kernel() -> Kernel {
        let mut b = KernelBuilder::new("k");
        let out = b.buffer_param("out");
        let gid = b.global_id(0);
        let a = b.elem_addr(out, gid);
        b.store_global(a, gid);
        b.finish()
    }

    #[test]
    fn all_flavors_produce_valid_kernels() {
        let k = store_kernel();
        for opts in [
            TransformOptions::intra_plus_lds(),
            TransformOptions::intra_minus_lds(),
            TransformOptions::inter(),
            TransformOptions::intra_plus_lds().with_swizzle(),
            TransformOptions::intra_minus_lds().with_swizzle(),
            TransformOptions::intra_plus_lds().without_comm(),
            TransformOptions::inter().without_comm(),
        ] {
            let rk = transform(&k, &opts).unwrap();
            assert_eq!(rmt_ir::validate(&rk.kernel), Ok(()), "{opts:?}");
            assert!(rk.kernel.name.contains("rmt"), "{}", rk.kernel.name);
        }
    }

    #[test]
    fn detect_param_is_always_appended() {
        let k = store_kernel();
        let rk = transform(&k, &TransformOptions::intra_plus_lds()).unwrap();
        assert_eq!(rk.meta.orig_param_count, 1);
        assert_eq!(rk.meta.detect_param, 1);
        assert_eq!(rk.kernel.params.len(), 2);
        assert!(rk.kernel.params[1].name.contains("detect"));
    }

    #[test]
    fn inter_full_appends_ticket_and_comm() {
        let k = store_kernel();
        let rk = transform(&k, &TransformOptions::inter()).unwrap();
        assert!(rk.meta.ticket_param.is_some());
        assert!(rk.meta.comm_param.is_some());
        assert_eq!(rk.meta.comm_bytes_per_item, 16);
        assert_eq!(rk.kernel.params.len(), 4);
    }

    #[test]
    fn inter_no_comm_has_no_protocol_params() {
        let k = store_kernel();
        let rk = transform(&k, &TransformOptions::inter().without_comm()).unwrap();
        assert!(rk.meta.ticket_param.is_none());
        assert!(rk.meta.comm_param.is_none());
        assert_eq!(rk.meta.comm_bytes_per_item, 0);
    }

    #[test]
    fn intra_plus_lds_doubles_lds_and_adds_comm_region() {
        let mut b = KernelBuilder::new("k");
        b.set_lds_bytes(512);
        let out = b.buffer_param("out");
        let lid = b.local_id(0);
        let four = b.const_u32(4);
        let lo = b.mul_u32(lid, four);
        b.store_local(lo, lid);
        let v = b.load_local(lo);
        b.store_global(out, v);
        let k = b.finish();

        let plus = transform(&k, &TransformOptions::intra_plus_lds()).unwrap();
        assert_eq!(plus.kernel.lds_bytes, 2 * 512 + MAX_PAIRS * 8);
        let minus = transform(&k, &TransformOptions::intra_minus_lds()).unwrap();
        assert_eq!(minus.kernel.lds_bytes, 512 + MAX_PAIRS * 8);
        // FAST swizzle communication needs no LDS comm region.
        let fast = transform(&k, &TransformOptions::intra_plus_lds().with_swizzle()).unwrap();
        assert_eq!(fast.kernel.lds_bytes, 2 * 512);
    }

    #[test]
    fn minus_lds_comparisons_cover_local_stores() {
        let mut b = KernelBuilder::new("k");
        b.set_lds_bytes(256);
        let out = b.buffer_param("out");
        let lid = b.local_id(0);
        let four = b.const_u32(4);
        let lo = b.mul_u32(lid, four);
        b.store_local(lo, lid);
        b.barrier();
        let v = b.load_local(lo);
        b.store_global(out, v);
        let k = b.finish();

        // -LDS: local store compared (atomic detect reachable from 2 sites).
        let minus = transform(&k, &TransformOptions::intra_minus_lds()).unwrap();
        let detects_minus = minus
            .kernel
            .count_insts(|i| matches!(i, Inst::Atomic { space, .. } if *space == MemSpace::Global));
        // +LDS: only the global store is an SoR exit.
        let plus = transform(&k, &TransformOptions::intra_plus_lds()).unwrap();
        let detects_plus = plus
            .kernel
            .count_insts(|i| matches!(i, Inst::Atomic { space, .. } if *space == MemSpace::Global));
        assert!(
            detects_minus > detects_plus,
            "-LDS must add comparisons for local stores: {detects_minus} vs {detects_plus}"
        );
    }

    #[test]
    fn swizzle_mode_emits_swizzles_not_lds_comm() {
        let k = store_kernel();
        let fast = transform(&k, &TransformOptions::intra_plus_lds().with_swizzle()).unwrap();
        let swz = fast
            .kernel
            .count_insts(|i| matches!(i, Inst::Swizzle { .. }));
        assert_eq!(swz, 2, "addr + value exchanged through the VRF");
        let lds_ops = fast
            .kernel
            .count_insts(|i| matches!(i, Inst::Store { space, .. } | Inst::Load { space, .. } if *space == MemSpace::Local));
        assert_eq!(lds_ops, 0);
    }

    #[test]
    fn user_swizzle_rejected_under_intra() {
        let mut b = KernelBuilder::new("k");
        let out = b.buffer_param("out");
        let gid = b.global_id(0);
        let s = b.swizzle(gid, SwizzleMode::SwapPairs);
        b.store_global(out, s);
        let k = b.finish();
        assert!(matches!(
            transform(&k, &TransformOptions::intra_plus_lds()),
            Err(RmtError::Unsupported(_))
        ));
        // Inter-group preserves lane layout, so user swizzles are fine.
        assert!(transform(&k, &TransformOptions::inter()).is_ok());
    }

    #[test]
    fn atomic_with_result_rejected() {
        let mut b = KernelBuilder::new("k");
        let out = b.buffer_param("out");
        let one = b.const_u32(1);
        let old = b.atomic(MemSpace::Global, rmt_ir::AtomicOp::Add, out, one);
        let a = b.elem_addr(out, old);
        b.store_global(a, one);
        let k = b.finish();
        for opts in [
            TransformOptions::intra_plus_lds(),
            TransformOptions::inter(),
        ] {
            assert!(matches!(
                transform(&k, &opts),
                Err(RmtError::Unsupported(_))
            ));
        }
    }

    #[test]
    fn invalid_kernel_rejected() {
        let mut b = KernelBuilder::new("bad");
        let dst = b.fresh();
        b.emit(Inst::ReadParam { dst, index: 9 });
        assert!(matches!(
            transform(&b.finish(), &TransformOptions::intra_plus_lds()),
            Err(RmtError::InvalidKernel(_))
        ));
    }
}
