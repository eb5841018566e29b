//! Structural invariant verifier for transformed RMT kernels.
//!
//! The transform passes promise specific *shapes* — every sphere-of-
//! replication exit is compared before it retires, the Inter-Group ticket
//! prologue cannot deadlock, protocol polls defeat the stale L1 — and a
//! bug in a pass silently weakens fault coverage rather than breaking
//! outputs (a dropped comparison still computes the right answer; it just
//! stops detecting). This module re-derives those promises from the
//! *output* IR, independently of how the passes build it, and is wired
//! into [`crate::transform`] as a debug assertion so every transformed
//! kernel in every test is re-checked.
//!
//! Checked invariants:
//!
//! 1. **Detection reachability** — a full-stage kernel with at least one
//!    SoR exit contains a detect-counter bump (`atomic_add` on the
//!    appended detection buffer).
//! 2. **Protected stores** — every SoR-exiting store is guarded by a
//!    replica-role `if` and, in the full stage, preceded in its block by a
//!    compare-and-detect `if` (one whose then-block bumps the detect
//!    counter). Protocol stores (into the communication buffer) are
//!    exempt but must themselves sit under a role guard. That the
//!    compare reads the partner's value off the communication channel is
//!    not re-checked here: [`crate::tv`] owns it (compare dominance over
//!    channel-sourced values) and also runs as a debug assertion in
//!    [`crate::transform`]. This check owns the wiring instead — a
//!    compare whose result never reaches a detect bump still satisfies
//!    `tv`, which proves only that the compares exist and are sourced.
//! 3. **Ticket prologue** (Inter-Group, full stage) — exactly one ticket
//!    acquisition, performed before any wait loop, under a
//!    `local_linear == 0` guard that broadcasts through LDS followed by a
//!    top-level barrier. Tickets issued in dispatch order before any
//!    producer/consumer spin is what makes the protocol deadlock-free
//!    (paper Section 7.2).
//! 4. **Poll shape** (Inter-Group, full stage) — wait loops read the slot
//!    state with `atomic_add(·, 0)`, never a plain load: the write-through
//!    L1s are not coherent and a plain load can spin forever on a stale
//!    line.
//! 5. **Barrier preservation** — the transform adds exactly the barriers
//!    its protocol needs (one for the Inter ticket broadcast) and drops
//!    none of the original ones.
//! 6. **Selective identity** — a `Selective` kernel whose plan protects no
//!    exit is the original: the same body and LDS size, plus one appended
//!    (unused) detect parameter.
//! 7. **Selective compare count** — a `Selective` kernel compares as many
//!    global stores as its recorded plan selected.
//! 8. **Selective per-store protection** — each global store is compared
//!    exactly when the plan, recomputed from the original kernel and the
//!    budget, selects its exit (`harden`'s `ExitSite` ordinals name the
//!    stores, so the right total on the wrong stores fails).

use crate::options::{CommMode, RmtFlavor, Stage};
use crate::transform::RmtKernel;
use rmt_ir::analysis::harden::{harden, HardenConfig};
use rmt_ir::analysis::Linear;
use rmt_ir::{AtomicOp, Block, CmpOp, Inst, Kernel, MemSpace, Reg, RegSet};
use std::fmt;

/// A violated RMT transform invariant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Full-stage kernel with SoR exits but no detect-counter bump.
    MissingDetect,
    /// An SoR-exiting store outside any replica-role guard.
    UnguardedStore {
        /// Address space of the store.
        space: MemSpace,
    },
    /// An SoR-exiting store not preceded by a compare-and-detect sequence
    /// in its enclosing block.
    StoreWithoutCompare {
        /// Address space of the store.
        space: MemSpace,
    },
    /// The Inter-Group ticket prologue deviates from the deadlock-free
    /// shape (the string names the deviation).
    TicketPrologue(String),
    /// A wait loop polls protocol state with a plain load.
    PlainPoll,
    /// A protocol poll atomic is not `add(·, 0)`.
    MalformedPoll,
    /// Barrier count changed beyond what the protocol requires.
    BarrierCount {
        /// Barriers in the transformed kernel.
        got: usize,
        /// Barriers the flavor should produce.
        want: usize,
    },
    /// A `Selective` kernel with an empty plan deviates from the original
    /// (the string names the deviation) — budget 0 must be a true identity.
    SelectiveIdentity(String),
    /// A `Selective` kernel's compared-store count disagrees with the
    /// plan's recorded selection.
    SelectiveCompareCount {
        /// Compared global stores found in the transformed kernel.
        got: u32,
        /// Planned protected stores recorded by the transform.
        want: u32,
    },
    /// A `Selective` kernel protects a different global store than the
    /// recomputed plan selected. Totals can agree while the protection
    /// sits on the wrong exits, so the reconciliation is per store.
    SelectiveStoreProtection {
        /// Pre-order ordinal of the store among the kernel's global
        /// stores.
        store: u32,
        /// `true` if the kernel compares this store — the plan says the
        /// opposite.
        protected: bool,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::MissingDetect => {
                write!(f, "kernel has SoR exits but no detect-counter bump")
            }
            VerifyError::UnguardedStore { space } => {
                write!(
                    f,
                    "SoR-exiting {space:?} store outside any replica-role guard"
                )
            }
            VerifyError::StoreWithoutCompare { space } => write!(
                f,
                "SoR-exiting {space:?} store without a preceding compare-and-detect"
            ),
            VerifyError::TicketPrologue(why) => write!(f, "ticket prologue: {why}"),
            VerifyError::PlainPoll => {
                write!(f, "wait loop polls protocol state with a plain load")
            }
            VerifyError::MalformedPoll => {
                write!(f, "protocol poll is not atomic_add(state, 0)")
            }
            VerifyError::BarrierCount { got, want } => {
                write!(f, "transformed kernel has {got} barriers, expected {want}")
            }
            VerifyError::SelectiveIdentity(why) => {
                write!(f, "empty-plan Selective kernel is not the original: {why}")
            }
            VerifyError::SelectiveCompareCount { got, want } => write!(
                f,
                "Selective kernel compares {got} stores, plan selected {want}"
            ),
            VerifyError::SelectiveStoreProtection { store, protected } => write!(
                f,
                "Selective kernel {} global store {store}, plan says the opposite",
                if *protected { "compares" } else { "skips" }
            ),
        }
    }
}

/// Flow-insensitive register facts, closed over the whole kernel.
struct Facts<'k> {
    /// The kernel's pre-order table, whose parameter provenance says which
    /// params each register derives from through pure ops.
    lin: Linear<'k>,
    /// Registers defined as `Const 0`.
    zeros: RegSet,
    /// Registers defined by an equality comparison.
    eq_cmps: RegSet,
}

impl Facts<'_> {
    fn derives_from(&self, r: Reg, param: usize) -> bool {
        self.lin.has_param(r, param)
    }
}

fn compute_facts(kernel: &Kernel) -> Facts<'_> {
    let lin = Linear::new(kernel);
    let mut zeros = RegSet::for_kernel(kernel);
    let mut eq_cmps = RegSet::for_kernel(kernel);
    for n in &lin.nodes {
        match *n.inst {
            Inst::Const { dst, bits: 0, .. } => {
                zeros.insert(dst);
            }
            Inst::Cmp {
                dst, op: CmpOp::Eq, ..
            } => {
                eq_cmps.insert(dst);
            }
            _ => {}
        }
    }
    Facts {
        lin,
        zeros,
        eq_cmps,
    }
}

/// Does this block (recursively) contain a detect-counter bump?
fn has_detect_bump(b: &Block, facts: &Facts, detect_param: usize) -> bool {
    b.count_insts(|inst| {
        matches!(inst, Inst::Atomic {
            space: MemSpace::Global,
            op: AtomicOp::Add,
            addr,
            ..
        } if facts.derives_from(*addr, detect_param))
    }) > 0
}

struct Checker<'a> {
    rk: &'a RmtKernel,
    facts: Facts<'a>,
    errors: Vec<VerifyError>,
    /// Per-global-store protection observed in pre-order (recorded only
    /// for `Selective` kernels, where unplanned exits legitimately lack a
    /// compare); reconciled store-by-store against the recomputed plan.
    store_protection: Vec<bool>,
}

impl Checker<'_> {
    fn detect_param(&self) -> usize {
        self.rk.meta.detect_param
    }

    fn check_block(&mut self, b: &Block, if_depth: usize, in_wait_cond: bool) {
        for (i, inst) in b.iter().enumerate() {
            match inst {
                Inst::Store { space, addr, .. } => {
                    self.check_store(b, i, *space, *addr, if_depth);
                }
                Inst::Load {
                    space: MemSpace::Global,
                    addr,
                    ..
                } if in_wait_cond => {
                    if let Some(comm) = self.rk.meta.comm_param {
                        if self.facts.derives_from(*addr, comm) {
                            self.errors.push(VerifyError::PlainPoll);
                        }
                    }
                }
                Inst::Atomic {
                    space: MemSpace::Global,
                    op,
                    addr,
                    value,
                    ..
                } if in_wait_cond => {
                    if let Some(comm) = self.rk.meta.comm_param {
                        if self.facts.derives_from(*addr, comm)
                            && (*op != AtomicOp::Add || !self.facts.zeros.contains(*value))
                        {
                            self.errors.push(VerifyError::MalformedPoll);
                        }
                    }
                }
                Inst::If {
                    then_blk, else_blk, ..
                } => {
                    self.check_block(then_blk, if_depth + 1, in_wait_cond);
                    self.check_block(else_blk, if_depth + 1, in_wait_cond);
                }
                Inst::While { cond, body, .. } => {
                    self.check_block(cond, if_depth, true);
                    self.check_block(body, if_depth, in_wait_cond);
                }
                _ => {}
            }
        }
    }

    /// Verify one store against the protected-store discipline.
    fn check_store(
        &mut self,
        blk: &Block,
        idx: usize,
        space: MemSpace,
        addr: Reg,
        if_depth: usize,
    ) {
        let meta = &self.rk.meta;
        let flavor = meta.options.flavor;
        match space {
            MemSpace::Global => {
                // Stores into the communication buffer are the protocol's
                // own publishes, not SoR exits — but still role-guarded.
                if let Some(comm) = meta.comm_param {
                    if self.facts.derives_from(addr, comm) {
                        if if_depth == 0 {
                            self.errors.push(VerifyError::UnguardedStore { space });
                        }
                        return;
                    }
                }
                self.check_sor_exit(blk, idx, space, if_depth);
            }
            MemSpace::Local => {
                // LDS is inside the SoR except under Intra−LDS: there,
                // full-stage local stores are either producer publishes
                // (blocks of nothing but local stores) or protected
                // consumer stores.
                if flavor != RmtFlavor::IntraMinusLds {
                    return;
                }
                if meta.options.stage == Stage::Full
                    && meta.options.comm == CommMode::Lds
                    && blk.iter().all(|i| {
                        matches!(
                            i,
                            Inst::Store {
                                space: MemSpace::Local,
                                ..
                            }
                        )
                    })
                {
                    if if_depth == 0 {
                        self.errors.push(VerifyError::UnguardedStore { space });
                    }
                    return;
                }
                self.check_sor_exit(blk, idx, space, if_depth);
            }
        }
    }

    fn check_sor_exit(&mut self, blk: &Block, idx: usize, space: MemSpace, if_depth: usize) {
        if if_depth == 0 {
            self.errors.push(VerifyError::UnguardedStore { space });
            return;
        }
        if self.rk.meta.options.stage != Stage::Full {
            return; // redundant-no-comm: role guard is the whole contract
        }
        // An earlier `if` in this block must bump the detect counter.
        let selective = self.rk.meta.selective.is_some();
        let protected = blk.iter().take(idx).any(|prior| {
            matches!(prior, Inst::If { then_blk, .. }
                if has_detect_bump(then_blk, &self.facts, self.detect_param()))
        });
        if selective {
            // Exits outside the plan's budget are deliberately uncompared;
            // each store is reconciled against the plan afterwards.
            if space == MemSpace::Global {
                self.store_protection.push(protected);
            }
            return;
        }
        if !protected {
            self.errors.push(VerifyError::StoreWithoutCompare { space });
        }
    }

    /// Inter-Group full stage: the deadlock-free ticket prologue.
    fn check_ticket_prologue(&mut self) {
        let Some(ticket) = self.rk.meta.ticket_param else {
            return;
        };
        let body = &self.rk.kernel.body;
        let is_ticket_atomic = |inst: &Inst| {
            matches!(inst, Inst::Atomic {
                space: MemSpace::Global,
                op: AtomicOp::Add,
                addr,
                dst: Some(_),
                ..
            } if self.facts.derives_from(*addr, ticket))
        };
        let total = self.rk.kernel.count_insts(|i| is_ticket_atomic(i));
        if total != 1 {
            self.errors.push(VerifyError::TicketPrologue(format!(
                "expected exactly one ticket acquisition, found {total}"
            )));
            return;
        }
        // Find the top-level barrier that publishes the broadcast.
        let Some(bar_pos) = body.iter().position(|i| matches!(i, Inst::Barrier)) else {
            self.errors.push(VerifyError::TicketPrologue(
                "no top-level barrier after the ticket broadcast".into(),
            ));
            return;
        };
        // Before the barrier: a `local_linear == 0` guard whose block
        // acquires the ticket and broadcasts it through LDS — and no wait
        // loop (waiting before holding a ticket can deadlock the window).
        let mut acquire_ok = false;
        for inst in body.iter().take(bar_pos) {
            match inst {
                Inst::While { .. } => {
                    self.errors.push(VerifyError::TicketPrologue(
                        "wait loop before the ticket acquisition".into(),
                    ));
                    return;
                }
                Inst::If { cond, then_blk, .. } => {
                    let Some(t0) =
                        then_blk.iter().find_map(
                            |i| {
                                if is_ticket_atomic(i) {
                                    i.dst()
                                } else {
                                    None
                                }
                            },
                        )
                    else {
                        continue;
                    };
                    if !self.facts.eq_cmps.contains(*cond) {
                        self.errors.push(VerifyError::TicketPrologue(
                            "ticket acquisition not guarded by an equality test".into(),
                        ));
                        return;
                    }
                    let broadcast = then_blk.iter().any(|i| {
                        matches!(i, Inst::Store { space: MemSpace::Local, value, .. } if *value == t0)
                    });
                    if !broadcast {
                        self.errors.push(VerifyError::TicketPrologue(
                            "acquired ticket never broadcast through LDS".into(),
                        ));
                        return;
                    }
                    acquire_ok = true;
                }
                _ => {}
            }
        }
        if !acquire_ok {
            self.errors.push(VerifyError::TicketPrologue(
                "no guarded ticket acquisition before the barrier".into(),
            ));
            return;
        }
        // After the barrier every work-item re-reads the broadcast slot.
        let rebroadcast = body.iter().skip(bar_pos + 1).any(|i| {
            matches!(
                i,
                Inst::Load {
                    space: MemSpace::Local,
                    ..
                }
            )
        });
        if !rebroadcast {
            self.errors.push(VerifyError::TicketPrologue(
                "no LDS read of the ticket after the barrier".into(),
            ));
        }
    }
}

/// Does the *original* kernel have any sphere-of-replication exit under
/// the given flavor?
fn original_has_sor_exit(original: &Kernel, flavor: RmtFlavor) -> bool {
    original.count_insts(|i| match i {
        Inst::Store {
            space: MemSpace::Global,
            ..
        }
        | Inst::Atomic {
            space: MemSpace::Global,
            ..
        } => true,
        Inst::Store {
            space: MemSpace::Local,
            ..
        } => flavor == RmtFlavor::IntraMinusLds,
        _ => false,
    }) > 0
}

/// Verifies the structural RMT invariants of a transformed kernel.
///
/// Returns every violated invariant (empty = the kernel upholds the
/// contract). `original` is the pre-transform kernel, used for the
/// barrier-preservation and SoR-exit-existence checks.
pub fn verify_rmt(original: &Kernel, rk: &RmtKernel) -> Vec<VerifyError> {
    // Empty-plan Selective kernels promise a strict identity: the original
    // body, the original LDS, one appended (unused) detect parameter.
    if let Some(sel) = rk.meta.selective {
        if sel.planned_exits == 0 {
            let mut errors = Vec::new();
            if rk.kernel.body.0 != original.body.0 {
                errors.push(VerifyError::SelectiveIdentity(
                    "body differs from the original kernel".into(),
                ));
            }
            if rk.kernel.lds_bytes != original.lds_bytes {
                errors.push(VerifyError::SelectiveIdentity(format!(
                    "lds_bytes {} != original {}",
                    rk.kernel.lds_bytes, original.lds_bytes
                )));
            }
            if rk.kernel.params.len() != original.params.len() + 1 {
                errors.push(VerifyError::SelectiveIdentity(format!(
                    "{} params, expected original {} + detect",
                    rk.kernel.params.len(),
                    original.params.len()
                )));
            }
            return errors;
        }
    }

    let facts = compute_facts(&rk.kernel);
    let mut checker = Checker {
        rk,
        facts,
        errors: Vec::new(),
        store_protection: Vec::new(),
    };

    let full = rk.meta.options.stage == Stage::Full;
    if full
        && original_has_sor_exit(original, rk.meta.options.flavor)
        && !has_detect_bump(&rk.kernel.body, &checker.facts, rk.meta.detect_param)
    {
        checker.errors.push(VerifyError::MissingDetect);
    }

    checker.check_block(&rk.kernel.body, 0, false);
    checker.check_ticket_prologue();

    if let Some(sel) = rk.meta.selective {
        // The plan is a deterministic function of the original kernel and
        // the budget, so it can be recomputed here and reconciled exit by
        // exit: a transform that protects the *wrong* store with the
        // *right* total must not pass.
        let plan = harden(original, &HardenConfig::with_budget(sel.budget));
        let want: Vec<bool> = plan
            .exits
            .iter()
            .filter(|s| s.is_store)
            .map(|s| plan.selected_exits.contains(&s.ordinal))
            .collect();
        let got = checker.store_protection.iter().filter(|&&p| p).count() as u32;
        if checker.store_protection.len() != want.len() || got != sel.planned_stores {
            checker.errors.push(VerifyError::SelectiveCompareCount {
                got,
                want: sel.planned_stores,
            });
        } else {
            for (i, (&g, &w)) in checker.store_protection.iter().zip(&want).enumerate() {
                if g != w {
                    checker.errors.push(VerifyError::SelectiveStoreProtection {
                        store: i as u32,
                        protected: g,
                    });
                }
            }
        }
    }

    let barriers = |k: &Kernel| k.count_insts(|i| matches!(i, Inst::Barrier));
    let want = barriers(original) + usize::from(rk.meta.options.flavor == RmtFlavor::Inter && full);
    let got = barriers(&rk.kernel);
    if got != want {
        checker.errors.push(VerifyError::BarrierCount { got, want });
    }

    checker.errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::TransformOptions;
    use crate::transform::{transform, RmtTag};
    use rmt_ir::KernelBuilder;

    fn sample_kernel() -> Kernel {
        let mut b = KernelBuilder::new("k");
        b.set_lds_bytes(64);
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

    /// Two global stores: `xs[gid] = xs[gid]`, then `ys[gid] = gid`.
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

    fn all_option_sets() -> Vec<TransformOptions> {
        vec![
            TransformOptions::intra_plus_lds(),
            TransformOptions::intra_minus_lds(),
            TransformOptions::inter(),
            TransformOptions::intra_plus_lds().with_swizzle(),
            TransformOptions::intra_minus_lds().with_swizzle(),
            TransformOptions::intra_plus_lds().without_comm(),
            TransformOptions::inter().without_comm(),
        ]
    }

    #[test]
    fn transformed_kernels_verify_clean() {
        let k = sample_kernel();
        for opts in all_option_sets() {
            let rk = transform(&k, &opts).unwrap();
            let errs = verify_rmt(&k, &rk);
            assert!(errs.is_empty(), "{opts:?}: {errs:?}");
        }
    }

    /// Recursively drop instructions matching `pred` from a kernel body.
    fn strip(b: &Block, pred: &impl Fn(&Inst) -> bool) -> Block {
        let mut out = Vec::new();
        for inst in b.iter() {
            if pred(inst) {
                continue;
            }
            out.push(match inst {
                Inst::If {
                    cond,
                    then_blk,
                    else_blk,
                } => Inst::If {
                    cond: *cond,
                    then_blk: strip(then_blk, pred),
                    else_blk: strip(else_blk, pred),
                },
                Inst::While {
                    cond,
                    cond_reg,
                    body,
                } => Inst::While {
                    cond: strip(cond, pred),
                    cond_reg: *cond_reg,
                    body: strip(body, pred),
                },
                other => other.clone(),
            });
        }
        Block(out)
    }

    #[test]
    fn stripping_detect_bump_is_caught() {
        let k = sample_kernel();
        let mut rk = transform(&k, &TransformOptions::intra_plus_lds()).unwrap();
        rk.kernel.body = strip(&rk.kernel.body, &|i| {
            matches!(
                i,
                Inst::Atomic {
                    space: MemSpace::Global,
                    op: AtomicOp::Add,
                    ..
                }
            )
        });
        let errs = verify_rmt(&k, &rk);
        assert!(errs.contains(&VerifyError::MissingDetect), "got {errs:?}");
    }

    #[test]
    fn stripping_comparison_is_caught() {
        // Remove the detect `if` (compare consumers) but keep the store:
        // the store is no longer dominated by a compare-and-detect.
        let k = sample_kernel();
        let mut rk = transform(&k, &TransformOptions::intra_plus_lds()).unwrap();
        rk.kernel.body = strip(&rk.kernel.body, &|i| {
            matches!(i, Inst::If { then_blk, .. }
                if then_blk.len() == 1
                    && matches!(then_blk.iter().next(), Some(Inst::Atomic { .. })))
        });
        let errs = verify_rmt(&k, &rk);
        assert!(
            errs.iter().any(|e| matches!(
                e,
                VerifyError::StoreWithoutCompare { .. } | VerifyError::MissingDetect
            )),
            "got {errs:?}"
        );
    }

    /// Removes the first instruction matching `pred`, in pre-order.
    fn drop_first(b: &mut Block, pred: &impl Fn(&Inst) -> bool) -> bool {
        for idx in 0..b.0.len() {
            if pred(&b.0[idx]) {
                b.0.remove(idx);
                return true;
            }
            let found = match &mut b.0[idx] {
                Inst::If {
                    then_blk, else_blk, ..
                } => drop_first(then_blk, pred) || drop_first(else_blk, pred),
                Inst::While { cond, body, .. } => drop_first(cond, pred) || drop_first(body, pred),
                _ => false,
            };
            if found {
                return true;
            }
        }
        false
    }

    #[test]
    fn unwired_compare_is_caught_here_alone() {
        // Drop only the first store's detect `if`: its address and value
        // compares still run on channel values, but their verdict never
        // reaches the detect counter. `tv` still proves this kernel (the
        // compares exist, are channel-sourced and dominate the exit), and
        // static coverage keeps the same tallies, so the compare-to-detector
        // wiring is this verifier's check alone.
        let k = two_store_kernel();
        let mut rk = transform(&k, &TransformOptions::intra_plus_lds()).unwrap();
        let prov = rk.provenance.clone();
        let is_detect_if =
            |i: &Inst| matches!(i, Inst::If { cond, .. } if prov.is(*cond, RmtTag::DetectCompare));
        assert!(drop_first(&mut rk.kernel.body, &is_detect_if));
        let rep = crate::tv::validate_transform(&k, &rk);
        assert!(rep.proved(), "{:#?}", rep.residue);
        assert_eq!(
            verify_rmt(&k, &rk),
            vec![VerifyError::StoreWithoutCompare {
                space: MemSpace::Global
            }]
        );
    }

    #[test]
    fn stripping_ticket_barrier_is_caught() {
        let k = sample_kernel();
        let mut rk = transform(&k, &TransformOptions::inter()).unwrap();
        // Drop the first (top-level) barrier — the ticket broadcast fence.
        let mut dropped = false;
        let mut out = Vec::new();
        for inst in rk.kernel.body.iter() {
            if !dropped && matches!(inst, Inst::Barrier) {
                dropped = true;
                continue;
            }
            out.push(inst.clone());
        }
        rk.kernel.body = Block(out);
        let errs = verify_rmt(&k, &rk);
        assert!(
            errs.iter().any(|e| matches!(
                e,
                VerifyError::TicketPrologue(_) | VerifyError::BarrierCount { .. }
            )),
            "got {errs:?}"
        );
    }

    #[test]
    fn plain_poll_load_is_caught() {
        // Replace protocol poll atomics with plain loads: the verifier
        // must flag the stale-L1 hazard.
        let k = sample_kernel();
        let mut rk = transform(&k, &TransformOptions::inter()).unwrap();
        fn rewrite(b: &Block) -> Block {
            let mut out = Vec::new();
            let mut in_cond = false;
            for inst in b.iter() {
                out.push(match inst {
                    Inst::While {
                        cond,
                        cond_reg,
                        body,
                    } => {
                        in_cond = true;
                        let c = {
                            let mut cs = Vec::new();
                            for ci in cond.iter() {
                                cs.push(match ci {
                                    Inst::Atomic {
                                        dst: Some(d),
                                        space: MemSpace::Global,
                                        op: AtomicOp::Add,
                                        addr,
                                        ..
                                    } => Inst::Load {
                                        dst: *d,
                                        space: MemSpace::Global,
                                        addr: *addr,
                                    },
                                    other => other.clone(),
                                });
                            }
                            Block(cs)
                        };
                        Inst::While {
                            cond: c,
                            cond_reg: *cond_reg,
                            body: rewrite(body),
                        }
                    }
                    Inst::If {
                        cond,
                        then_blk,
                        else_blk,
                    } => Inst::If {
                        cond: *cond,
                        then_blk: rewrite(then_blk),
                        else_blk: rewrite(else_blk),
                    },
                    other => other.clone(),
                });
            }
            let _ = in_cond;
            Block(out)
        }
        rk.kernel.body = rewrite(&rk.kernel.body);
        let errs = verify_rmt(&k, &rk);
        assert!(errs.contains(&VerifyError::PlainPoll), "got {errs:?}");
    }

    #[test]
    fn selective_wrong_store_protected_is_caught() {
        // Two stores, a budget that protects exactly one. Swapping the two
        // consumer blocks keeps the protected-store *total* right while
        // moving the protection to the store the plan did not select — the
        // per-exit reconciliation must notice what a global count cannot.
        let k = two_store_kernel();

        let mut budget = None;
        for try_budget in [30, 50, 70] {
            let rk = transform(&k, &TransformOptions::selective(try_budget)).unwrap();
            if rk.meta.selective.unwrap().planned_stores == 1 {
                budget = Some(try_budget);
                break;
            }
        }
        let budget = budget.expect("some budget protects exactly one of two stores");
        let mut rk = transform(&k, &TransformOptions::selective(budget)).unwrap();
        assert_eq!(verify_rmt(&k, &rk), Vec::new());

        fn holds_global_store(b: &Block) -> bool {
            b.iter().any(|i| match i {
                Inst::Store {
                    space: MemSpace::Global,
                    ..
                } => true,
                Inst::If {
                    then_blk, else_blk, ..
                } => holds_global_store(then_blk) || holds_global_store(else_blk),
                _ => false,
            })
        }
        let cons: Vec<usize> = rk
            .kernel
            .body
            .iter()
            .enumerate()
            .filter_map(|(i, inst)| match inst {
                Inst::If { then_blk, .. } if holds_global_store(then_blk) => Some(i),
                _ => None,
            })
            .collect();
        assert_eq!(cons.len(), 2, "one consumer block per store");
        rk.kernel.body.0.swap(cons[0], cons[1]);

        let errs = verify_rmt(&k, &rk);
        assert!(
            errs.iter()
                .any(|e| matches!(e, VerifyError::SelectiveStoreProtection { .. })),
            "got {errs:?}"
        );
    }

    #[test]
    fn errors_display_informatively() {
        let e = VerifyError::BarrierCount { got: 3, want: 2 };
        assert!(e.to_string().contains("3"));
        let e = VerifyError::TicketPrologue("x".into());
        assert!(e.to_string().contains("x"));
    }
}
