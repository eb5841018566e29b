//! Translation validation of the RMT transforms.
//!
//! [`validate_transform`] wires a transformed kernel into the symbolic
//! equivalence engine of [`rmt_ir::analysis::equiv`]: it derives the
//! engine's machinery abstraction ([`TvConfig`]) from the transform's own
//! provenance record and launch metadata — which registers are channel
//! values, protocol state, detection compares, communication-slot
//! addresses — plus the flavor-specific builtin views (how the doubled
//! launch's raw IDs relate to the original's logical IDs), then asks the
//! engine to prove the pair fault-free-equivalent.
//!
//! The obligations discharged per pair:
//!
//! 1. every sphere-of-replication exit of the transformed kernel writes a
//!    provably-equal kind, address and value under a provably-equal path
//!    condition;
//! 2. every detection compare compares replica values that are provably
//!    equal in a fault-free run (it can never fire spuriously);
//! 3. under the full stage, every covered exit is dominated by
//!    channel-sourced compares over both its address and its value.
//!
//! Anything unprovable is returned as structured residue, never a panic,
//! so the validator doubles as a fuzz oracle stage
//! ([`crate::oracle`]) and a batch experiment (`repro tv`).
//!
//! One pair is rejected up front: **Inter-Group at the
//! `RedundantNoComm` stage** linearizes the *raw* hardware group IDs, so
//! the two replicas deliberately compute from divergent logical IDs (the
//! stage exists only to price redundant computation, not to detect
//! faults). There is no fault-free equivalence to prove and the
//! validator reports [`ResidueKind::Unsupported`] rather than a wall of
//! spurious address residue.

use crate::options::{RmtFlavor, Stage};
use crate::transform::{RmtKernel, RmtTag};
use rmt_ir::analysis::equiv::{
    validate_pair, BuiltinView, Residue, ResidueKind, TvConfig, TvReport,
};
use rmt_ir::{Builtin, Dim, Kernel};

/// Derives the engine configuration for one transformed kernel from its
/// provenance tags and metadata.
fn tv_config(rk: &RmtKernel) -> TvConfig {
    let p = &rk.provenance;
    let opts = rk.meta.options;
    let replicates = rk.meta.replicates();

    let detect_compares = p.regs_with(RmtTag::DetectCompare);
    // Role-guard and detect-guard `if`s are machinery, not user control
    // flow: they fold to per-side constants (or guard only detection
    // bumps) and must not enter path conditions.
    let mut machinery_guards = p.regs_with(RmtTag::RoleGuard);
    machinery_guards.extend(detect_compares.iter());

    let mut cfg = TvConfig {
        channel_values: p.regs_with(RmtTag::ChannelValue),
        protocol: p.regs_with(RmtTag::Protocol),
        detect_compares,
        machinery_guards,
        comm_addrs: p.regs_with(RmtTag::CommAddress),
        detect_addrs: p.regs_with(RmtTag::DetectBase),
        ..TvConfig::default()
    };

    if replicates {
        if opts.flavor.is_intra() {
            // Doubled work-groups with adjacent-lane pairing: raw IDs in
            // dimension 0 carry the replica side in their low bit, raw
            // extents are doubled. Dimensions 1 and 2 are untouched.
            cfg.trans_views
                .insert(Builtin::GlobalId(Dim(0)), BuiltinView::PairSplit);
            cfg.trans_views
                .insert(Builtin::LocalId(Dim(0)), BuiltinView::PairSplit);
            cfg.trans_views
                .insert(Builtin::LocalSize(Dim(0)), BuiltinView::Doubled);
            cfg.trans_views
                .insert(Builtin::GlobalSize(Dim(0)), BuiltinView::Doubled);
        } else {
            // Inter-Group full: the *original* kernel's group identity is
            // re-expressed through the global work ticket `T` (both
            // replica groups of pair `T` compute the same logical IDs),
            // while the transformed kernel sees a doubled group count.
            for d in 0..3 {
                cfg.orig_views
                    .insert(Builtin::GroupId(Dim(d)), BuiltinView::TicketDerived);
                cfg.orig_views
                    .insert(Builtin::GlobalId(Dim(d)), BuiltinView::TicketDerived);
            }
            cfg.trans_views
                .insert(Builtin::NumGroups(Dim(0)), BuiltinView::Doubled);
            cfg.trans_views
                .insert(Builtin::GlobalSize(Dim(0)), BuiltinView::Doubled);
            // The ticket-broadcast barrier has no original counterpart.
            cfg.skip_first_barrier = true;
        }
    }

    // Intra+LDS (and replicating Selective) duplicate LDS allocations:
    // the consumer replica's local addresses sit one original-allocation
    // stride above the producer's.
    let duplicates_lds = matches!(
        opts.flavor,
        RmtFlavor::IntraPlusLds | RmtFlavor::Selective { .. }
    );
    if replicates && duplicates_lds {
        cfg.lds_relocation = rk.meta.orig_lds_bytes;
    }

    // Compare-dominance is only promised by the full stage of a
    // replicating transform; RedundantNoComm deliberately omits
    // detection, and a zero-exit Selective plan emits the original body.
    cfg.check_coverage = opts.stage == Stage::Full && replicates;
    // Intra−LDS keeps LDS outside the sphere of replication, so local
    // stores are exits that need compare coverage too.
    cfg.cover_local_stores = opts.flavor == RmtFlavor::IntraMinusLds;
    // Selective plans may leave exits unprotected on purpose; the engine
    // exempts exits whose block carries no compares at all.
    cfg.selective = matches!(opts.flavor, RmtFlavor::Selective { .. });
    cfg
}

/// Proves `rk` fault-free-equivalent to the `original` it was
/// transformed from.
///
/// Returns the engine's [`TvReport`]; [`TvReport::proved`] means every
/// obligation discharged. Inter-Group at the `RedundantNoComm` stage is
/// reported [`ResidueKind::Unsupported`] (see the module docs).
#[must_use]
pub fn validate_transform(original: &Kernel, rk: &RmtKernel) -> TvReport {
    let report = validate_transform_inner(original, rk);
    if rmt_obs::enabled() {
        let proved = if report.proved() { "proved" } else { "residue" };
        rmt_obs::add("tv.validations", &[("outcome", proved)], 1);
        rmt_obs::add("tv.obligations.exits", &[], report.exits_proved as u64);
        rmt_obs::add(
            "tv.obligations.compares",
            &[],
            report.compares_proved as u64,
        );
        rmt_obs::add("tv.obligations.loops", &[], report.loops_proved as u64);
    }
    report
}

/// [`validate_transform`] without the `tv.*` metrics, for the
/// transform's debug assertion: what the metrics count must not depend
/// on the build profile.
pub(crate) fn validate_transform_inner(original: &Kernel, rk: &RmtKernel) -> TvReport {
    let opts = rk.meta.options;
    if opts.flavor == RmtFlavor::Inter && opts.stage == Stage::RedundantNoComm {
        return TvReport {
            exits_proved: 0,
            compares_proved: 0,
            loops_proved: 0,
            residue: vec![Residue {
                kind: ResidueKind::Unsupported,
                detail: "Inter-Group redundant-no-comm linearizes raw hardware group ids: \
                         replicas deliberately compute from divergent logical ids, so no \
                         fault-free equivalence exists to prove"
                    .into(),
            }],
        };
    }
    validate_pair(original, &rk.kernel, &tv_config(rk))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::transform;
    use crate::verify::verify_rmt;
    use crate::TransformOptions;
    use rmt_ir::{Block, Inst, KernelBuilder, Reg, Ty};

    fn store_kernel() -> Kernel {
        let mut b = KernelBuilder::new("k");
        let out = b.buffer_param("out");
        let gid = b.global_id(0);
        let a = b.elem_addr(out, gid);
        b.store_global(a, gid);
        b.finish()
    }

    fn lds_kernel() -> Kernel {
        let mut b = KernelBuilder::new("lds");
        b.set_lds_bytes(256);
        let out = b.buffer_param("out");
        let gid = b.global_id(0);
        let lid = b.local_id(0);
        let four = b.const_u32(4);
        let lo = b.mul_u32(lid, four);
        b.store_local(lo, gid);
        b.barrier();
        let v = b.load_local(lo);
        let a = b.elem_addr(out, gid);
        b.store_global(a, v);
        b.finish()
    }

    fn two_store_kernel() -> Kernel {
        let mut b = KernelBuilder::new("two");
        let xs = b.buffer_param("xs");
        let ys = b.buffer_param("ys");
        let gid = b.global_id(0);
        let xa = b.elem_addr(xs, gid);
        let v = b.load_global(xa);
        b.store_global(xa, v);
        let ya = b.elem_addr(ys, gid);
        b.store_global(ya, gid);
        b.finish()
    }

    fn assert_proved(k: &Kernel, opts: &TransformOptions) -> TvReport {
        let rk = transform(k, opts).unwrap();
        let rep = validate_transform(k, &rk);
        assert!(
            rep.proved(),
            "{opts:?} on `{}` left residue: {:#?}",
            k.name,
            rep.residue
        );
        rep
    }

    #[test]
    fn intra_plus_lds_full_proves() {
        let rep = assert_proved(&store_kernel(), &TransformOptions::intra_plus_lds());
        assert_eq!(rep.exits_proved, 1);
        assert_eq!(rep.compares_proved, 2, "address + value compares");
    }

    #[test]
    fn intra_flavors_prove_on_lds_kernel() {
        let k = lds_kernel();
        // +LDS: the local store is replicated into duplicated LDS.
        assert_proved(&k, &TransformOptions::intra_plus_lds());
        // −LDS: the local store is itself a covered sphere exit.
        let rep = assert_proved(&k, &TransformOptions::intra_minus_lds());
        assert_eq!(rep.exits_proved, 2, "local store + global store");
        assert_eq!(rep.compares_proved, 4);
    }

    #[test]
    fn fast_swizzle_comm_proves() {
        let rep = assert_proved(
            &store_kernel(),
            &TransformOptions::intra_plus_lds().with_swizzle(),
        );
        assert_eq!(rep.compares_proved, 2);
    }

    #[test]
    fn inter_full_proves() {
        let rep = assert_proved(&store_kernel(), &TransformOptions::inter());
        assert_eq!(rep.exits_proved, 1);
        assert_eq!(rep.compares_proved, 2);
        // Inter on a kernel with LDS and a user barrier: the broadcast
        // barrier is skipped, the user barrier stays aligned.
        assert_proved(&lds_kernel(), &TransformOptions::inter());
    }

    #[test]
    fn intra_redundant_no_comm_proves_without_compares() {
        let rep = assert_proved(
            &store_kernel(),
            &TransformOptions::intra_plus_lds().without_comm(),
        );
        assert_eq!(rep.exits_proved, 1);
        assert_eq!(rep.compares_proved, 0, "no detection at this stage");
    }

    #[test]
    fn inter_redundant_no_comm_is_unsupported() {
        let k = store_kernel();
        let rk = transform(&k, &TransformOptions::inter().without_comm()).unwrap();
        let rep = validate_transform(&k, &rk);
        assert!(!rep.proved());
        assert_eq!(rep.residue.len(), 1);
        assert_eq!(rep.residue[0].kind, ResidueKind::Unsupported);
    }

    #[test]
    fn selective_budgets_prove() {
        let k = two_store_kernel();
        for budget in [0, 50, 100] {
            let rk = transform(&k, &TransformOptions::selective(budget)).unwrap();
            let rep = validate_transform(&k, &rk);
            assert!(
                rep.proved(),
                "budget {budget} left residue: {:#?}",
                rep.residue
            );
            assert_eq!(rep.exits_proved, 2, "budget {budget}");
        }
        // Budget 0 emits the original body: nothing is compared.
        let rk0 = transform(&k, &TransformOptions::selective(0)).unwrap();
        assert_eq!(validate_transform(&k, &rk0).compares_proved, 0);
        // Budget 100 protects both stores.
        let rk100 = transform(&k, &TransformOptions::selective(100)).unwrap();
        assert_eq!(validate_transform(&k, &rk100).compares_proved, 4);
    }

    /// Applies `f` to every instruction of the body, recursing into
    /// control blocks.
    fn for_each_inst_mut(block: &mut Block, f: &mut impl FnMut(&mut Inst)) {
        for inst in &mut block.0 {
            f(inst);
            match inst {
                Inst::If {
                    then_blk, else_blk, ..
                } => {
                    for_each_inst_mut(then_blk, f);
                    for_each_inst_mut(else_blk, f);
                }
                Inst::While { cond, body, .. } => {
                    for_each_inst_mut(cond, f);
                    for_each_inst_mut(body, f);
                }
                _ => {}
            }
        }
    }

    /// Destination registers of the detection compares, in body order.
    fn detect_cmp_dsts(rk: &mut RmtKernel) -> Vec<Reg> {
        let prov = rk.provenance.clone();
        let mut dsts = Vec::new();
        for_each_inst_mut(&mut rk.kernel.body, &mut |i| {
            if let Inst::Cmp { dst, .. } = i {
                if prov.is(*dst, RmtTag::DetectCompare) {
                    dsts.push(*dst);
                }
            }
        });
        dsts
    }

    #[test]
    fn cross_wired_compare_operands_caught_by_tv_not_verify() {
        // Tamper: swap the *user* operands of the address and value
        // compares, so the address compare checks the partner's address
        // against the local value (and vice versa). Structurally every
        // compare still pairs a channel value with a user register —
        // verify_rmt stays clean — but the compared quantities are no
        // longer replicas of each other, so detection would fire on
        // fault-free runs. Only the symbolic validator sees through it.
        let k = store_kernel();
        let mut rk = transform(&k, &TransformOptions::intra_plus_lds()).unwrap();
        let dsts = detect_cmp_dsts(&mut rk);
        assert_eq!(dsts.len(), 2);
        let mut user_ops = Vec::new();
        for_each_inst_mut(&mut rk.kernel.body, &mut |i| {
            if let Inst::Cmp { dst, b, .. } = i {
                if dsts.contains(dst) {
                    user_ops.push(*b);
                }
            }
        });
        assert_eq!(user_ops.len(), 2);
        let mut seen = 0;
        for_each_inst_mut(&mut rk.kernel.body, &mut |i| {
            if let Inst::Cmp { dst, b, .. } = i {
                if dsts.contains(dst) {
                    *b = user_ops[1 - seen];
                    seen += 1;
                }
            }
        });
        assert_eq!(
            verify_rmt(&k, &rk),
            Vec::new(),
            "structural verifier must miss the cross-wiring"
        );
        let rep = validate_transform(&k, &rk);
        assert!(!rep.proved());
        assert!(
            rep.residue
                .iter()
                .any(|r| matches!(r.kind, ResidueKind::CompareMismatch { .. })),
            "expected CompareMismatch, got {:#?}",
            rep.residue
        );
    }

    #[test]
    fn self_compare_left_uncovered_by_tv_alone() {
        // Tamper: each detect compare reads its own replica's operand in
        // place of the partner's channel value, so it compares a value
        // against itself and can never fire. `tv` owns channel sourcing:
        // it reports both operands of the exit uncovered, while the
        // structural verifier, which checks only the compare-to-detector
        // wiring, stays clean.
        let k = store_kernel();
        for opts in [
            TransformOptions::intra_plus_lds(),
            TransformOptions::intra_minus_lds(),
            TransformOptions::inter(),
            TransformOptions::intra_plus_lds().with_swizzle(),
        ] {
            let mut rk = transform(&k, &opts).unwrap();
            let dsts = detect_cmp_dsts(&mut rk);
            assert_eq!(dsts.len(), 2, "{opts:?}");
            for_each_inst_mut(&mut rk.kernel.body, &mut |i| {
                if let Inst::Cmp { dst, a, b, .. } = i {
                    if dsts.contains(dst) {
                        *a = *b;
                    }
                }
            });
            assert_eq!(verify_rmt(&k, &rk), Vec::new(), "{opts:?}");
            let rep = validate_transform(&k, &rk);
            for operand in ["address", "value"] {
                assert!(
                    rep.residue
                        .iter()
                        .any(|r| r.kind == ResidueKind::CompareUncovered { exit: 0, operand }),
                    "{opts:?}: expected CompareUncovered{{exit 0, {operand}}}, got {:#?}",
                    rep.residue
                );
            }
        }
    }

    #[test]
    fn dropped_value_compare_leaves_exit_uncovered() {
        // Tamper: overwrite the value compare with `false`. The exit's
        // address operand stays guarded but its value does not.
        let k = store_kernel();
        let mut rk = transform(&k, &TransformOptions::intra_plus_lds()).unwrap();
        let dsts = detect_cmp_dsts(&mut rk);
        assert_eq!(dsts.len(), 2);
        let target = dsts[1];
        for_each_inst_mut(&mut rk.kernel.body, &mut |i| {
            if let Inst::Cmp { dst, .. } = i {
                if *dst == target {
                    *i = Inst::Const {
                        dst: target,
                        ty: Ty::U32,
                        bits: 0,
                    };
                }
            }
        });
        let rep = validate_transform(&k, &rk);
        assert!(!rep.proved());
        assert!(
            rep.residue.iter().any(|r| matches!(
                r.kind,
                ResidueKind::CompareUncovered {
                    exit: 0,
                    operand: "value"
                }
            )),
            "expected CompareUncovered{{exit 0, value}}, got {:#?}",
            rep.residue
        );
    }

    #[test]
    fn reports_are_deterministic() {
        let k = lds_kernel();
        for opts in [
            TransformOptions::intra_plus_lds(),
            TransformOptions::intra_minus_lds(),
            TransformOptions::inter(),
            TransformOptions::selective(50),
        ] {
            let rk = transform(&k, &opts).unwrap();
            let a = validate_transform(&k, &rk);
            let b = validate_transform(&k, &rk);
            assert_eq!(a, b, "{opts:?}");
        }
    }
}
