//! Uniformity analyses: the shared fixpoints deciding which registers hold
//! the same value across lanes.
//!
//! Two dual analyses live here, used by three consumers:
//!
//! * [`group_divergent_regs`] — a *pessimistic* (taint) fixpoint computing
//!   the registers that **may differ** across the work-items of one group.
//!   [`crate::validate`] uses it for the barrier-divergence rules, and the
//!   translation validator ([`crate::analysis::equiv`]) uses it to refuse
//!   kernels whose barriers sit under divergent control (its lock-step
//!   memory clock assumes group-uniform barrier reachability). The lint
//!   framework's divergence pass consumes it as a sound pre-filter (the
//!   symbolic guard classification is strictly stronger, so when this
//!   over-approximation certifies a kernel clean the engine walk is
//!   skipped).
//! * [`uniform_regs`] — an *optimistic* fixpoint computing the registers
//!   that provably hold the same value in every lane of a **wavefront**.
//!   GCN executes computation on uniform values on the scalar unit (SU)
//!   with scalar registers (SRF) — which is precisely why Intra-Group RMT
//!   cannot protect the SU/SRF (redundant work-items inside one wavefront
//!   share the scalar stream) while Inter-Group RMT can (Sections 6.1 and
//!   7.1 of the paper).
//!
//! Both walk the same structured IR with the same divergence-context
//! threading; they differ in direction (may-differ vs. must-agree) and in
//! scope (work-group vs. wavefront — every builtin uniform at wavefront
//! scope here is uniform at group scope too, so the taint analysis reuses
//! [`crate::Builtin::is_wavefront_uniform`]).

use crate::inst::Inst;
use crate::kernel::Kernel;
use crate::regset::RegSet;

/// Monotone taint analysis: the set of registers whose value may differ
/// across the work-items of one group. Grows until a fixpoint (loops feed
/// iteration `k` values into iteration `k+1`, and a value assigned under
/// divergent control is divergent even when its operands are uniform).
///
/// Sound, with no value reasoning (`lid - lid` counts as divergent) — the
/// lint passes in [`crate::analysis::lint`] carry the precise symbolic
/// version of the same rule.
pub fn group_divergent_regs(kernel: &Kernel) -> RegSet {
    let mut nu = RegSet::for_kernel(kernel);
    while taint_block(&kernel.body.0, false, &mut nu) {}
    nu
}

/// One taint pass over `insts`; returns `true` if it tainted a register.
fn taint_block(insts: &[Inst], ctl_divergent: bool, nu: &mut RegSet) -> bool {
    let mut grew = false;
    for inst in insts {
        let inherently_nu = match inst {
            Inst::ReadBuiltin { builtin, .. } => !builtin.is_wavefront_uniform(),
            // LDS holds per-lane data; global loads from one (uniform)
            // address observe one value (the scalarization assumption).
            Inst::Load { space, .. } => *space == crate::inst::MemSpace::Local,
            // Each participating lane gets a distinct return value.
            Inst::Atomic { .. } => true,
            // Lane exchange is per-lane by construction.
            Inst::Swizzle { .. } => true,
            _ => false,
        };
        if let Some(d) = inst.dst() {
            let mut src_nu = false;
            inst.for_each_src(|r| src_nu |= nu.contains(r));
            if src_nu || inherently_nu || ctl_divergent {
                grew |= nu.insert(d);
            }
        }
        match inst {
            Inst::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let div = ctl_divergent || nu.contains(*cond);
                grew |= taint_block(&then_blk.0, div, nu);
                grew |= taint_block(&else_blk.0, div, nu);
            }
            Inst::While {
                cond,
                cond_reg,
                body,
            } => {
                // The loop condition is evaluated after the condition
                // block; its divergence taints everything written in the
                // loop (trip counts differ per lane). The outer fixpoint
                // re-runs this until stable.
                let div = ctl_divergent || nu.contains(*cond_reg);
                grew |= taint_block(&cond.0, div, nu);
                grew |= taint_block(&body.0, div, nu);
            }
            _ => {}
        }
    }
    grew
}

/// `true` if any barrier of `kernel` sits under an `if`/`while` whose
/// condition is group-divergent per [`group_divergent_regs`].
///
/// This is the converse of [`crate::validate`]'s barrier rules, packaged
/// as a query so the translation validator can consume the same fixpoint
/// without re-running full validation.
pub fn has_divergent_barrier(kernel: &Kernel) -> bool {
    fn walk(insts: &[Inst], divergent: bool, nu: &RegSet) -> bool {
        insts.iter().any(|inst| match inst {
            Inst::Barrier => divergent,
            Inst::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let div = divergent || nu.contains(*cond);
                walk(&then_blk.0, div, nu) || walk(&else_blk.0, div, nu)
            }
            Inst::While {
                cond,
                cond_reg,
                body,
            } => {
                let div = divergent || nu.contains(*cond_reg);
                walk(&cond.0, div, nu) || walk(&body.0, div, nu)
            }
            _ => false,
        })
    }
    walk(&kernel.body.0, false, &group_divergent_regs(kernel))
}

/// Computes the set of wavefront-uniform registers.
///
/// Conservative: a register is reported uniform only when it provably holds
/// the same value in every lane (uniform inputs, no definition under
/// divergent control flow, no per-lane sources such as IDs, atomics with
/// results, swizzles, or LDS loads).
pub fn uniform_regs(kernel: &Kernel) -> RegSet {
    // Optimistic fixpoint: start by assuming every defined register is
    // uniform, then strike out registers with non-uniform definitions until
    // stable (needed for loop-carried values).
    let mut uniform = RegSet::for_kernel(kernel);
    kernel.visit_insts(&mut |i| {
        if let Some(d) = i.dst() {
            uniform.insert(d);
        }
    });

    // Divergence context is threaded through the walk: a definition under
    // a non-uniform branch/loop condition is itself non-uniform. Returns
    // `true` if it struck out a register.
    fn walk(insts: &[Inst], divergent: bool, uniform: &mut RegSet) -> bool {
        let mut changed = false;
        for inst in insts {
            if let Some(d) = inst.dst() {
                let def_uniform = !divergent
                    && match inst {
                        Inst::Const { .. } | Inst::ReadParam { .. } => true,
                        Inst::ReadBuiltin { builtin, .. } => builtin.is_wavefront_uniform(),
                        Inst::Unary { .. }
                        | Inst::Binary { .. }
                        | Inst::Cmp { .. }
                        | Inst::Select { .. }
                        | Inst::Mov { .. } => all_srcs_in(inst, uniform),
                        // Only globally-addressed loads with uniform
                        // addresses can be scalarized (the SU has no LDS
                        // port).
                        Inst::Load { space, .. } => {
                            *space == crate::inst::MemSpace::Global && all_srcs_in(inst, uniform)
                        }
                        // Atomics return per-lane old values; swizzles are
                        // per-lane by construction.
                        _ => false,
                    };
                if !def_uniform {
                    changed |= uniform.remove(d);
                }
            }
            match inst {
                Inst::If {
                    cond,
                    then_blk,
                    else_blk,
                } => {
                    let div = divergent || !uniform.contains(*cond);
                    changed |= walk(&then_blk.0, div, uniform);
                    changed |= walk(&else_blk.0, div, uniform);
                }
                Inst::While {
                    cond,
                    cond_reg,
                    body,
                } => {
                    // The loop trip count may differ per lane when the
                    // condition is non-uniform, making everything defined
                    // inside divergent.
                    changed |= walk(&cond.0, divergent, uniform);
                    let div = divergent || !uniform.contains(*cond_reg);
                    // Re-walk the condition under the loop's divergence
                    // (values computed there also iterate per lane).
                    changed |= walk(&cond.0, div, uniform);
                    changed |= walk(&body.0, div, uniform);
                }
                _ => {}
            }
        }
        changed
    }
    while walk(&kernel.body.0, false, &mut uniform) {}
    uniform
}

/// `true` if every register `inst` reads is in `set`.
fn all_srcs_in(inst: &Inst, set: &RegSet) -> bool {
    let mut all = true;
    inst.for_each_src(|r| all &= set.contains(r));
    all
}

/// `true` if an instruction would be issued to the scalar unit: it defines
/// a uniform register and all its inputs are uniform.
pub fn is_scalar_inst(inst: &Inst, uniform: &RegSet) -> bool {
    inst.dst()
        .is_some_and(|d| uniform.contains(d) && all_srcs_in(inst, uniform))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelBuilder;

    #[test]
    fn ids_are_divergent_groups_are_uniform() {
        let mut b = KernelBuilder::new("u");
        let gid = b.global_id(0);
        let grp = b.group_id(0);
        let n = b.local_size(0);
        let base = b.mul_u32(grp, n); // uniform * uniform = uniform
        let mixed = b.add_u32(base, gid); // uniform + divergent = divergent
        let buf = b.buffer_param("out");
        let a = b.elem_addr(buf, mixed);
        b.store_global(a, base);
        let k = b.finish();
        let u = uniform_regs(&k);
        assert!(!u.contains(gid));
        assert!(u.contains(grp));
        assert!(u.contains(n));
        assert!(u.contains(base));
        assert!(!u.contains(mixed));
        // The dual taint analysis agrees on every register here.
        let nu = group_divergent_regs(&k);
        assert!(nu.contains(gid));
        assert!(nu.contains(mixed));
        assert!(!nu.contains(grp));
        assert!(!nu.contains(base));
    }

    #[test]
    fn divergent_branch_poisons_defs() {
        let mut b = KernelBuilder::new("u");
        let gid = b.global_id(0);
        let zero = b.const_u32(0);
        let c = b.eq_u32(gid, zero); // divergent condition
        let mut inner = None;
        b.if_(c, |b| {
            inner = Some(b.const_u32(5)); // defined under divergence
        });
        let k = b.finish();
        let u = uniform_regs(&k);
        assert!(!u.contains(inner.unwrap()));
        assert!(u.contains(zero));
        assert!(group_divergent_regs(&k).contains(inner.unwrap()));
    }

    #[test]
    fn uniform_branch_preserves_uniformity() {
        let mut b = KernelBuilder::new("u");
        let grp = b.group_id(0);
        let zero = b.const_u32(0);
        let c = b.eq_u32(grp, zero); // uniform condition
        let mut inner = None;
        b.if_(c, |b| {
            inner = Some(b.const_u32(5));
        });
        let k = b.finish();
        let u = uniform_regs(&k);
        assert!(u.contains(inner.unwrap()));
        assert!(!group_divergent_regs(&k).contains(inner.unwrap()));
    }

    #[test]
    fn loop_carried_divergence_reaches_fixpoint() {
        // i starts uniform (0) but the loop bound is divergent, so i becomes
        // divergent through iteration.
        let mut b = KernelBuilder::new("u");
        let gid = b.global_id(0);
        let zero = b.const_u32(0);
        let i = b.fresh();
        b.mov_to(i, zero);
        let one = b.const_u32(1);
        b.while_(
            |b| b.lt_u32(i, gid),
            |b| {
                let next = b.add_u32(i, one);
                b.mov_to(i, next);
            },
        );
        let k = b.finish();
        let u = uniform_regs(&k);
        assert!(!u.contains(i), "loop variable with divergent bound");
        assert!(group_divergent_regs(&k).contains(i));
    }

    #[test]
    fn scalar_inst_predicate() {
        let mut b = KernelBuilder::new("u");
        let grp = b.group_id(0);
        let two = b.const_u32(2);
        let s = b.mul_u32(grp, two);
        let gid = b.global_id(0);
        let v = b.add_u32(s, gid);
        let buf = b.buffer_param("out");
        let a = b.elem_addr(buf, v);
        b.store_global(a, v);
        let k = b.finish();
        let u = uniform_regs(&k);
        let mut scalar = 0;
        let mut vector = 0;
        k.visit_insts(&mut |i| {
            if i.dst().is_some() {
                if is_scalar_inst(i, &u) {
                    scalar += 1;
                } else {
                    vector += 1;
                }
            }
        });
        assert!(scalar >= 3, "grp, two, s at least");
        assert!(vector >= 2, "gid, v at least");
    }

    #[test]
    fn divergent_barrier_query() {
        let mut b = KernelBuilder::new("bad");
        let lid = b.local_id(0);
        let n = b.const_u32(32);
        let c = b.lt_u32(lid, n);
        b.if_(c, |b| b.barrier());
        assert!(has_divergent_barrier(&b.finish()));

        let mut b = KernelBuilder::new("ok");
        let grp = b.group_id(0);
        let zero = b.const_u32(0);
        let c = b.eq_u32(grp, zero);
        b.if_(c, |b| b.barrier());
        b.barrier();
        assert!(!has_divergent_barrier(&b.finish()));
    }

    #[test]
    fn swizzles_are_not_barriers() {
        let mut b = KernelBuilder::new("swz");
        let lid = b.local_id(0);
        let n = b.const_u32(32);
        let c = b.lt_u32(lid, n);
        b.if_(c, |b| {
            let _ = b.swizzle(lid, crate::SwizzleMode::SwapPairs);
        });
        let k = b.finish();
        assert!(!has_divergent_barrier(&k));
    }
}
