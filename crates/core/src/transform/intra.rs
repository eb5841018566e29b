//! Intra-Group RMT (paper Section 6).
//!
//! The host doubles each work-group; this pass makes adjacent work-items
//! (lanes `2k`, `2k+1` — guaranteed to share a wavefront) a redundant
//! producer/consumer pair by remapping the dimension-0 IDs:
//!
//! ```text
//! flag        = get_global_id(0) & 1        // producer = 0, consumer = 1
//! global_id'  = get_global_id(0) >> 1
//! local_id'   = get_local_id(0) >> 1
//! local_size' = get_local_size(0) >> 1
//! global_size'= get_global_size(0) >> 1
//! ```
//!
//! For `+LDS`, local memory is duplicated (`addr' = addr + flag·orig_lds`).
//! Every SoR exit (all global stores; local stores too for `−LDS`) becomes:
//! producer publishes (address, value) — through an LDS communication
//! buffer, or directly through the VRF with a swizzle in FAST mode — the
//! consumer compares against its private copies, bumps the detection
//! counter on mismatch, and alone performs the store. Lockstep execution
//! within the wavefront orders the exchange without barriers.

use super::emit::Emitter;
use super::provenance::{Provenance, RmtTag};
use super::rewrite::{map_block, rewrite_builtin};
use super::{RmtKernel, RmtMeta, SelectiveMeta, MAX_PAIRS};
use crate::error::RmtError;
use crate::options::{CommMode, RmtFlavor, Stage, TransformOptions};
use rmt_ir::{
    AtomicOp, Block, Builtin, Dim, FxHashMap, Inst, Kernel, MemSpace, Param, ParamKind, Reg,
    SwizzleMode,
};
use std::collections::BTreeSet;

/// Plan inputs the `Selective` flavor threads through the shared intra
/// rewrite: exits whose pre-order ordinal is in `planned` get the full
/// publish+compare expansion, the rest the cheap consumer-only form.
pub(super) struct PlanInput<'a> {
    /// Protection budget (percent) the plan was computed for.
    pub budget: u8,
    /// Pre-order ordinals of the exits selected for protection.
    pub planned: &'a BTreeSet<usize>,
    /// Total exit sites the planner saw (sanity-checked against the
    /// rewrite's own count).
    pub candidate_exits: u32,
}

struct Ctx {
    em: Emitter,
    opts: TransformOptions,
    map: FxHashMap<Builtin, Reg>,
    is_prod: Reg,
    is_cons: Reg,
    detect_base: Reg,
    one: Reg,
    lds_off: Option<Reg>, // +LDS: flag * orig_lds
    comm_slot: Option<Reg>,
    comm_slot4: Option<Reg>,
    prov: Provenance,
}

impl Ctx {
    /// Consumer-side compare + detect + protected store.
    fn consumer_check_and_store(
        &mut self,
        pa: Reg,
        pv: Reg,
        space: MemSpace,
        addr: Reg,
        value: Reg,
        out: &mut Vec<Inst>,
    ) {
        let da = self.em.ne(pa, addr, out);
        let dv = self.em.ne(pv, value, out);
        let d = self.em.or(da, dv, out);
        self.prov.tag(da, RmtTag::DetectCompare);
        self.prov.tag(dv, RmtTag::DetectCompare);
        self.prov.tag(d, RmtTag::DetectCompare);
        let mut detect = Vec::new();
        self.em.atomic_noret(
            MemSpace::Global,
            AtomicOp::Add,
            self.detect_base,
            self.one,
            &mut detect,
        );
        self.em.if_(d, detect, out);
        self.em.store(space, addr, value, out);
    }

    /// Expands an SoR-exiting store. Unprotected exits (`Selective` plans
    /// leave them outside the budget) skip publish+compare: the consumer
    /// stores directly, same shape as the no-comm stage.
    fn expand_store(
        &mut self,
        space: MemSpace,
        addr: Reg,
        value: Reg,
        protected: bool,
    ) -> Vec<Inst> {
        let mut seq = Vec::new();
        if !protected {
            let mut cons = Vec::new();
            self.em.store(space, addr, value, &mut cons);
            self.em.if_(self.is_cons, cons, &mut seq);
            return seq;
        }
        match self.opts.stage {
            Stage::RedundantNoComm => {
                // Redundant compute only: the consumer stores, nobody talks.
                let mut cons = Vec::new();
                self.em.store(space, addr, value, &mut cons);
                self.em.if_(self.is_cons, cons, &mut seq);
            }
            Stage::Full => match self.opts.comm {
                CommMode::Lds => {
                    let slot = self.comm_slot.expect("lds comm slot");
                    let slot4 = self.comm_slot4.expect("lds comm slot+4");
                    // Producer publishes through the LDS…
                    let mut prod = Vec::new();
                    self.em.store(MemSpace::Local, slot, addr, &mut prod);
                    self.em.store(MemSpace::Local, slot4, value, &mut prod);
                    self.em.if_(self.is_prod, prod, &mut seq);
                    // …the consumer (lockstep-ordered) checks and stores.
                    let mut cons = Vec::new();
                    let pa = self.em.load(MemSpace::Local, slot, &mut cons);
                    let pv = self.em.load(MemSpace::Local, slot4, &mut cons);
                    self.prov.tag(pa, RmtTag::ChannelValue);
                    self.prov.tag(pv, RmtTag::ChannelValue);
                    self.consumer_check_and_store(pa, pv, space, addr, value, &mut cons);
                    self.em.if_(self.is_cons, cons, &mut seq);
                }
                CommMode::Swizzle => {
                    // FAST: exchange through the VRF (Section 8). Consumer
                    // lanes (odd) receive the producer's (even) registers.
                    let pa = self.em.swizzle(addr, SwizzleMode::DupEven, &mut seq);
                    let pv = self.em.swizzle(value, SwizzleMode::DupEven, &mut seq);
                    self.prov.tag(pa, RmtTag::ChannelValue);
                    self.prov.tag(pv, RmtTag::ChannelValue);
                    let mut cons = Vec::new();
                    self.consumer_check_and_store(pa, pv, space, addr, value, &mut cons);
                    self.em.if_(self.is_cons, cons, &mut seq);
                }
            },
        }
        seq
    }

    /// Expands a global atomic without result (consumer executes once).
    fn expand_atomic(&mut self, op: AtomicOp, addr: Reg, value: Reg, protected: bool) -> Vec<Inst> {
        let mut seq = Vec::new();
        if protected && self.opts.stage == Stage::Full {
            match self.opts.comm {
                CommMode::Lds => {
                    let slot = self.comm_slot.expect("lds comm slot");
                    let slot4 = self.comm_slot4.expect("lds comm slot+4");
                    let mut prod = Vec::new();
                    self.em.store(MemSpace::Local, slot, addr, &mut prod);
                    self.em.store(MemSpace::Local, slot4, value, &mut prod);
                    self.em.if_(self.is_prod, prod, &mut seq);
                    let mut cons = Vec::new();
                    let pa = self.em.load(MemSpace::Local, slot, &mut cons);
                    let pv = self.em.load(MemSpace::Local, slot4, &mut cons);
                    self.prov.tag(pa, RmtTag::ChannelValue);
                    self.prov.tag(pv, RmtTag::ChannelValue);
                    self.compare_detect(pa, pv, addr, value, &mut cons);
                    self.em
                        .atomic_noret(MemSpace::Global, op, addr, value, &mut cons);
                    self.em.if_(self.is_cons, cons, &mut seq);
                }
                CommMode::Swizzle => {
                    let pa = self.em.swizzle(addr, SwizzleMode::DupEven, &mut seq);
                    let pv = self.em.swizzle(value, SwizzleMode::DupEven, &mut seq);
                    self.prov.tag(pa, RmtTag::ChannelValue);
                    self.prov.tag(pv, RmtTag::ChannelValue);
                    let mut cons = Vec::new();
                    self.compare_detect(pa, pv, addr, value, &mut cons);
                    self.em
                        .atomic_noret(MemSpace::Global, op, addr, value, &mut cons);
                    self.em.if_(self.is_cons, cons, &mut seq);
                }
            }
        } else {
            let mut cons = Vec::new();
            self.em
                .atomic_noret(MemSpace::Global, op, addr, value, &mut cons);
            self.em.if_(self.is_cons, cons, &mut seq);
        }
        seq
    }

    fn compare_detect(&mut self, pa: Reg, pv: Reg, addr: Reg, value: Reg, out: &mut Vec<Inst>) {
        let da = self.em.ne(pa, addr, out);
        let dv = self.em.ne(pv, value, out);
        let d = self.em.or(da, dv, out);
        self.prov.tag(da, RmtTag::DetectCompare);
        self.prov.tag(dv, RmtTag::DetectCompare);
        self.prov.tag(d, RmtTag::DetectCompare);
        let mut detect = Vec::new();
        self.em.atomic_noret(
            MemSpace::Global,
            AtomicOp::Add,
            self.detect_base,
            self.one,
            &mut detect,
        );
        self.em.if_(d, detect, out);
    }
}

pub(super) fn run(kernel: &Kernel, opts: &TransformOptions) -> Result<RmtKernel, RmtError> {
    run_with_plan(kernel, opts, None)
}

pub(super) fn run_with_plan(
    kernel: &Kernel,
    opts: &TransformOptions,
    plan: Option<PlanInput<'_>>,
) -> Result<RmtKernel, RmtError> {
    let duplicate_lds = matches!(
        opts.flavor,
        RmtFlavor::IntraPlusLds | RmtFlavor::Selective { .. }
    );

    let mut params = kernel.params.clone();
    params.push(Param {
        name: "__rmt_detect".into(),
        kind: ParamKind::Buffer,
    });
    let detect_param = params.len() - 1;

    let mut em = Emitter::new(kernel.next_reg);
    let mut prov = Provenance::new(kernel.next_reg);
    let mut pro: Vec<Inst> = Vec::new();

    // Constants and the detection counter base.
    let zero = em.c_u32(0, &mut pro);
    let one = em.c_u32(1, &mut pro);
    let four = em.c_u32(4, &mut pro);
    let detect_base = em.read_param(detect_param, &mut pro);
    prov.tag(detect_base, RmtTag::DetectBase);

    // ID remapping (Section 6.2): pairs are adjacent dimension-0 lanes.
    let raw_gid0 = em.builtin(Builtin::GlobalId(Dim(0)), &mut pro);
    let flag = em.and(raw_gid0, one, &mut pro);
    let gid0 = em.shr(raw_gid0, one, &mut pro);
    let raw_lid0 = em.builtin(Builtin::LocalId(Dim(0)), &mut pro);
    let lid0 = em.shr(raw_lid0, one, &mut pro);
    let raw_ls0 = em.builtin(Builtin::LocalSize(Dim(0)), &mut pro);
    let ls0 = em.shr(raw_ls0, one, &mut pro);
    let raw_gs0 = em.builtin(Builtin::GlobalSize(Dim(0)), &mut pro);
    let gs0 = em.shr(raw_gs0, one, &mut pro);
    let is_cons = em.ne(flag, zero, &mut pro);
    let is_prod = em.eq(flag, zero, &mut pro);
    for r in [flag, gid0, lid0, ls0, gs0] {
        prov.tag(r, RmtTag::IdRemap);
    }
    prov.tag(is_cons, RmtTag::RoleGuard);
    prov.tag(is_prod, RmtTag::RoleGuard);

    let mut map = FxHashMap::default();
    map.insert(Builtin::GlobalId(Dim(0)), gid0);
    map.insert(Builtin::LocalId(Dim(0)), lid0);
    map.insert(Builtin::LocalSize(Dim(0)), ls0);
    map.insert(Builtin::GlobalSize(Dim(0)), gs0);

    // LDS layout.
    let orig_lds = kernel.lds_bytes;
    let lds_off = if duplicate_lds && orig_lds > 0 {
        let c = em.c_u32(orig_lds, &mut pro);
        let off = em.mul(flag, c, &mut pro);
        prov.tag(off, RmtTag::IdRemap);
        Some(off)
    } else {
        None
    };
    let comm_region_base = if duplicate_lds {
        2 * orig_lds
    } else {
        orig_lds
    };
    let use_lds_comm = opts.stage == Stage::Full && opts.comm == CommMode::Lds;

    let (comm_slot, comm_slot4) = if use_lds_comm {
        // One 8-byte slot per redundant pair, indexed by the logical
        // local-linear id (identical for both pair members).
        let lid1 = em.builtin(Builtin::LocalId(Dim(1)), &mut pro);
        let lid2 = em.builtin(Builtin::LocalId(Dim(2)), &mut pro);
        let ls1 = em.builtin(Builtin::LocalSize(Dim(1)), &mut pro);
        let lin = em.local_linear([lid0, lid1, lid2], ls0, ls1, &mut pro);
        let eight = em.c_u32(8, &mut pro);
        let cb = em.c_u32(comm_region_base, &mut pro);
        let off = em.mul(lin, eight, &mut pro);
        let slot = em.add(cb, off, &mut pro);
        let slot4 = em.add(slot, four, &mut pro);
        for r in [lin, off, slot, slot4] {
            prov.tag(r, RmtTag::CommAddress);
        }
        (Some(slot), Some(slot4))
    } else {
        (None, None)
    };

    let new_lds = comm_region_base + if use_lds_comm { MAX_PAIRS * 8 } else { 0 };

    let mut ctx = Ctx {
        em,
        opts: *opts,
        map,
        is_prod,
        is_cons,
        detect_base,
        one,
        lds_off,
        comm_slot,
        comm_slot4,
        prov,
    };

    // Rewrite the body. Exit ordinals are assigned in the same pre-order
    // `map_block` visits instructions, which matches the planner's walk —
    // so a plan ordinal names the same store/atomic here.
    let sel_planned: Option<&BTreeSet<usize>> = plan.as_ref().map(|p| p.planned);
    let mut exit_ord: usize = 0;
    let mut candidate_stores: u32 = 0;
    let mut planned_stores: u32 = 0;
    let mut err: Option<RmtError> = None;
    let body = map_block(&kernel.body, &mut |inst| {
        if err.is_some() {
            return Some(Vec::new());
        }
        if let Some(r) = rewrite_builtin(inst, &ctx.map) {
            return Some(r);
        }
        match inst {
            Inst::Swizzle { .. } => {
                err = Some(RmtError::Unsupported(
                    "user swizzles conflict with intra-group pair lanes".into(),
                ));
                Some(Vec::new())
            }
            // +LDS: remap local accesses into the flag's copy.
            Inst::Load {
                dst,
                space: MemSpace::Local,
                addr,
            } if duplicate_lds => {
                let off = ctx.lds_off.expect("lds duplication offset");
                let mut seq = Vec::new();
                let a2 = ctx.em.add(*addr, off, &mut seq);
                seq.push(Inst::Load {
                    dst: *dst,
                    space: MemSpace::Local,
                    addr: a2,
                });
                Some(seq)
            }
            Inst::Store {
                space: MemSpace::Local,
                addr,
                value,
            } if duplicate_lds => {
                let off = ctx.lds_off.expect("lds duplication offset");
                let mut seq = Vec::new();
                let a2 = ctx.em.add(*addr, off, &mut seq);
                seq.push(Inst::Store {
                    space: MemSpace::Local,
                    addr: a2,
                    value: *value,
                });
                Some(seq)
            }
            Inst::Atomic {
                dst,
                space: MemSpace::Local,
                op,
                addr,
                value,
            } => {
                if duplicate_lds {
                    let off = ctx.lds_off.expect("lds duplication offset");
                    let mut seq = Vec::new();
                    let a2 = ctx.em.add(*addr, off, &mut seq);
                    seq.push(Inst::Atomic {
                        dst: *dst,
                        space: MemSpace::Local,
                        op: *op,
                        addr: a2,
                        value: *value,
                    });
                    Some(seq)
                } else {
                    err = Some(RmtError::Unsupported(
                        "local atomics with LDS outside the SoR".into(),
                    ));
                    Some(Vec::new())
                }
            }
            // SoR exits: every global store; local stores too under −LDS.
            Inst::Store { space, addr, value } => {
                debug_assert!(*space == MemSpace::Global || !duplicate_lds);
                let protected = if *space == MemSpace::Global {
                    let ord = exit_ord;
                    exit_ord += 1;
                    candidate_stores += 1;
                    let p = sel_planned.is_none_or(|set| set.contains(&ord));
                    if p {
                        planned_stores += 1;
                    }
                    p
                } else {
                    true
                };
                Some(ctx.expand_store(*space, *addr, *value, protected))
            }
            Inst::Atomic {
                dst,
                space: MemSpace::Global,
                op,
                addr,
                value,
            } => {
                let ord = exit_ord;
                exit_ord += 1;
                if dst.is_some() {
                    err = Some(RmtError::Unsupported(
                        "global atomic whose result re-enters the SoR".into(),
                    ));
                    Some(Vec::new())
                } else {
                    let protected = sel_planned.is_none_or(|set| set.contains(&ord));
                    Some(ctx.expand_atomic(*op, *addr, *value, protected))
                }
            }
            _ => None,
        }
    });
    if let Some(e) = err {
        return Err(e);
    }
    if let Some(p) = &plan {
        debug_assert_eq!(
            exit_ord as u32, p.candidate_exits,
            "planner and rewrite disagree on exit-site count for `{}`",
            kernel.name
        );
    }

    let mut insts = pro;
    insts.extend(body.0);

    let suffix = match (opts.flavor, opts.comm, opts.stage) {
        (RmtFlavor::Selective { budget }, _, _) => format!("rmt_selective_b{budget}"),
        (_, _, Stage::RedundantNoComm) => "rmt_intra_nocomm".into(),
        (RmtFlavor::IntraPlusLds, CommMode::Lds, _) => "rmt_intra_plus_lds".into(),
        (RmtFlavor::IntraPlusLds, CommMode::Swizzle, _) => "rmt_intra_plus_lds_fast".into(),
        (RmtFlavor::IntraMinusLds, CommMode::Lds, _) => "rmt_intra_minus_lds".into(),
        (RmtFlavor::IntraMinusLds, CommMode::Swizzle, _) => "rmt_intra_minus_lds_fast".into(),
        (RmtFlavor::Inter, _, _) => unreachable!("inter handled elsewhere"),
    };

    Ok(RmtKernel {
        kernel: Kernel {
            name: format!("{}__{}", kernel.name, suffix),
            params,
            lds_bytes: new_lds,
            body: Block(insts),
            next_reg: ctx.em.next_reg(),
        },
        meta: RmtMeta {
            options: *opts,
            orig_param_count: kernel.params.len(),
            detect_param,
            ticket_param: None,
            comm_param: None,
            orig_lds_bytes: orig_lds,
            comm_bytes_per_item: 0,
            selective: plan.as_ref().map(|p| SelectiveMeta {
                budget: p.budget,
                candidate_exits: p.candidate_exits,
                planned_exits: p.planned.len() as u32,
                candidate_stores,
                planned_stores,
            }),
        },
        provenance: ctx.prov,
    })
}
