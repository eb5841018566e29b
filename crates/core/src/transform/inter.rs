//! Inter-Group RMT (paper Section 7).
//!
//! The host doubles the number of work-groups; this pass makes work-groups
//! redundant pairs. Because OpenCL gives no scheduling guarantee across
//! groups, a naive parity of `get_group_id` could starve: all-consumer
//! residency deadlocks waiting for unscheduled producers. Instead each
//! group acquires a **global ticket** at start (Section 7.2): tickets
//! follow dispatch order, so the resident window always contains the
//! producer of every resident consumer.
//!
//! ```text
//! if (local_linear_id == 0) lds.ticket = atomic_add(ticket_counter, 1);
//! barrier();
//! t            = lds.ticket
//! flag         = t & 1          // producer = 0, consumer = 1
//! group_id'    = delinearize(t >> 1)
//! global_id'   = group_id' * local_size + local_id
//! num_groups'  = num_groups >> 1   (dimension 0)
//! ```
//!
//! Output comparison travels through per-work-item global communication
//! slots `[state, address, value, pad]` with a full/empty protocol. Flag
//! reads are `atomic_add(·, 0)`: the write-through L1s are not coherent, so
//! a plain load may spin forever on a stale line (see the simulator's
//! `stale_l1_requires_atomic_reads` test). Slots are padded to 16 bytes so
//! a slot never straddles a cache line: the flag atomic's L1 invalidation
//! then guarantees the subsequent plain data reads fetch fresh lines.

use super::emit::Emitter;
use super::provenance::{Provenance, RmtTag};
use super::rewrite::{map_block, rewrite_builtin};
use super::{RmtKernel, RmtMeta};
use crate::error::RmtError;
use crate::options::{Stage, TransformOptions};
use rmt_ir::{
    AtomicOp, Block, Builtin, Dim, FxHashMap, Inst, Kernel, MemSpace, Param, ParamKind, Reg,
};

struct Ctx {
    em: Emitter,
    stage: Stage,
    map: FxHashMap<Builtin, Reg>,
    is_prod: Reg,
    is_cons: Reg,
    detect_base: Reg,
    zero: Reg,
    one: Reg,
    // Per-work-item communication slot word addresses (full stage).
    sa_state: Option<Reg>,
    sa_addr: Option<Reg>,
    sa_val: Option<Reg>,
    prov: Provenance,
}

impl Ctx {
    /// Spin until `atomic_add(state, 0) == want`.
    fn wait_state(&mut self, want: Reg, out: &mut Vec<Inst>) {
        let state = self.sa_state.expect("comm state address");
        let mut cond = Vec::new();
        let s = self
            .em
            .atomic(MemSpace::Global, AtomicOp::Add, state, self.zero, &mut cond);
        let not_yet = self.em.ne(s, want, &mut cond);
        self.prov.tag(s, RmtTag::Protocol);
        self.prov.tag(not_yet, RmtTag::Protocol);
        self.em.while_(cond, not_yet, Vec::new(), out);
    }

    fn producer_publish(&mut self, addr: Reg, value: Reg, out: &mut Vec<Inst>) {
        let state = self.sa_state.expect("state");
        let sa = self.sa_addr.expect("addr slot");
        let sv = self.sa_val.expect("value slot");
        self.wait_state(self.zero, out); // wait for the slot to be free
        self.em.store(MemSpace::Global, sa, addr, out);
        self.em.store(MemSpace::Global, sv, value, out);
        // Release: mark full. The exchange is an L2 atomic, so the store
        // data above (write-through) is globally visible before consumers
        // can observe state == 1.
        self.em
            .atomic_noret(MemSpace::Global, AtomicOp::Exchange, state, self.one, out);
    }

    /// Consumer side: wait full, read, compare, detect.
    /// Returns after appending; caller adds the protected operation and the
    /// slot release.
    fn consumer_acquire_compare(&mut self, addr: Reg, value: Reg, out: &mut Vec<Inst>) {
        let sa = self.sa_addr.expect("addr slot");
        let sv = self.sa_val.expect("value slot");
        // The flag poll MUST be an atomic_add(·, 0) (Section 7.2): plain
        // loads can spin forever on a stale L1 line. The data reads below
        // may be plain loads, because the successful flag atomic bypassed
        // and invalidated the slot's line in this CU's L1 — so they miss
        // and fetch the producer's (write-through, L2-visible) data.
        self.wait_state(self.one, out);
        let pa = self.em.load(MemSpace::Global, sa, out);
        let pv = self.em.load(MemSpace::Global, sv, out);
        self.prov.tag(pa, RmtTag::ChannelValue);
        self.prov.tag(pv, RmtTag::ChannelValue);
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

    fn release_slot(&mut self, out: &mut Vec<Inst>) {
        let state = self.sa_state.expect("state");
        self.em
            .atomic_noret(MemSpace::Global, AtomicOp::Exchange, state, self.zero, out);
    }

    fn expand_store(&mut self, addr: Reg, value: Reg) -> Vec<Inst> {
        let mut seq = Vec::new();
        match self.stage {
            Stage::RedundantNoComm => {
                let mut cons = Vec::new();
                self.em.store(MemSpace::Global, addr, value, &mut cons);
                self.em.if_(self.is_cons, cons, &mut seq);
            }
            Stage::Full => {
                let mut prod = Vec::new();
                self.producer_publish(addr, value, &mut prod);
                self.em.if_(self.is_prod, prod, &mut seq);

                let mut cons = Vec::new();
                self.consumer_acquire_compare(addr, value, &mut cons);
                self.em.store(MemSpace::Global, addr, value, &mut cons);
                self.release_slot(&mut cons);
                self.em.if_(self.is_cons, cons, &mut seq);
            }
        }
        seq
    }

    fn expand_atomic(&mut self, op: AtomicOp, addr: Reg, value: Reg) -> Vec<Inst> {
        let mut seq = Vec::new();
        match self.stage {
            Stage::RedundantNoComm => {
                let mut cons = Vec::new();
                self.em
                    .atomic_noret(MemSpace::Global, op, addr, value, &mut cons);
                self.em.if_(self.is_cons, cons, &mut seq);
            }
            Stage::Full => {
                let mut prod = Vec::new();
                self.producer_publish(addr, value, &mut prod);
                self.em.if_(self.is_prod, prod, &mut seq);

                let mut cons = Vec::new();
                self.consumer_acquire_compare(addr, value, &mut cons);
                self.em
                    .atomic_noret(MemSpace::Global, op, addr, value, &mut cons);
                self.release_slot(&mut cons);
                self.em.if_(self.is_cons, cons, &mut seq);
            }
        }
        seq
    }
}

pub(super) fn run(kernel: &Kernel, opts: &TransformOptions) -> Result<RmtKernel, RmtError> {
    let full = opts.stage == Stage::Full;

    let mut params = kernel.params.clone();
    params.push(Param {
        name: "__rmt_detect".into(),
        kind: ParamKind::Buffer,
    });
    let detect_param = params.len() - 1;
    let (ticket_param, comm_param) = if full {
        params.push(Param {
            name: "__rmt_ticket".into(),
            kind: ParamKind::Buffer,
        });
        params.push(Param {
            name: "__rmt_comm".into(),
            kind: ParamKind::Buffer,
        });
        (Some(params.len() - 2), Some(params.len() - 1))
    } else {
        (None, None)
    };

    let orig_lds = kernel.lds_bytes;
    // One extra LDS word broadcasts the ticket to the whole group.
    let new_lds = if full { orig_lds + 4 } else { orig_lds };

    let mut em = Emitter::new(kernel.next_reg);
    let mut prov = Provenance::new(kernel.next_reg);
    let mut pro: Vec<Inst> = Vec::new();

    let zero = em.c_u32(0, &mut pro);
    let one = em.c_u32(1, &mut pro);
    let four = em.c_u32(4, &mut pro);
    let detect_base = em.read_param(detect_param, &mut pro);
    prov.tag(detect_base, RmtTag::DetectBase);

    // Raw IDs.
    let lid0 = em.builtin(Builtin::LocalId(Dim(0)), &mut pro);
    let lid1 = em.builtin(Builtin::LocalId(Dim(1)), &mut pro);
    let lid2 = em.builtin(Builtin::LocalId(Dim(2)), &mut pro);
    let ls0 = em.builtin(Builtin::LocalSize(Dim(0)), &mut pro);
    let ls1 = em.builtin(Builtin::LocalSize(Dim(1)), &mut pro);
    let ls2 = em.builtin(Builtin::LocalSize(Dim(2)), &mut pro);
    let lidlin = em.local_linear([lid0, lid1, lid2], ls0, ls1, &mut pro);

    // Work-group renaming: ticket (full) or raw linear group id (no-comm).
    let t = if full {
        let ticket_base = em.read_param(ticket_param.expect("ticket"), &mut pro);
        let is0 = em.eq(lidlin, zero, &mut pro);
        let slot_off = em.c_u32(orig_lds, &mut pro);
        prov.tag(ticket_base, RmtTag::Protocol);
        prov.tag(is0, RmtTag::RoleGuard);
        prov.tag(slot_off, RmtTag::CommAddress);
        let mut acq = Vec::new();
        let t0 = em.atomic(MemSpace::Global, AtomicOp::Add, ticket_base, one, &mut acq);
        prov.tag(t0, RmtTag::Protocol);
        em.store(MemSpace::Local, slot_off, t0, &mut acq);
        em.if_(is0, acq, &mut pro);
        pro.push(Inst::Barrier);
        let t = em.load(MemSpace::Local, slot_off, &mut pro);
        prov.tag(t, RmtTag::Protocol);
        t
    } else {
        let g0 = em.builtin(Builtin::GroupId(Dim(0)), &mut pro);
        let g1 = em.builtin(Builtin::GroupId(Dim(1)), &mut pro);
        let g2 = em.builtin(Builtin::GroupId(Dim(2)), &mut pro);
        let ng0 = em.builtin(Builtin::NumGroups(Dim(0)), &mut pro);
        let ng1 = em.builtin(Builtin::NumGroups(Dim(1)), &mut pro);
        let t1 = em.mul(g1, ng0, &mut pro);
        let acc = em.add(g0, t1, &mut pro);
        let ng01 = em.mul(ng0, ng1, &mut pro);
        let t2 = em.mul(g2, ng01, &mut pro);
        let t = em.add(acc, t2, &mut pro);
        // The raw group reads and their linearization are the deliberate
        // replica-divergence points of the no-comm stage.
        for r in [g0, g1, g2, ng0, ng1, t1, acc, ng01, t2, t] {
            prov.tag(r, RmtTag::IdRemap);
        }
        t
    };

    let flag = em.and(t, one, &mut pro);
    let is_cons = em.ne(flag, zero, &mut pro);
    let is_prod = em.eq(flag, zero, &mut pro);
    let logical = em.shr(t, one, &mut pro);
    prov.tag(flag, RmtTag::IdRemap);
    prov.tag(is_cons, RmtTag::RoleGuard);
    prov.tag(is_prod, RmtTag::RoleGuard);
    prov.tag(logical, RmtTag::IdRemap);

    // Delinearize over the halved dimension-0 group count.
    let raw_ng0 = em.builtin(Builtin::NumGroups(Dim(0)), &mut pro);
    let ng0 = em.shr(raw_ng0, one, &mut pro);
    let ng1 = em.builtin(Builtin::NumGroups(Dim(1)), &mut pro);
    let lg0 = em.rem(logical, ng0, &mut pro);
    let rest = em.div(logical, ng0, &mut pro);
    let lg1 = em.rem(rest, ng1, &mut pro);
    let lg2 = em.div(rest, ng1, &mut pro);
    for r in [ng0, lg0, rest, lg1, lg2] {
        prov.tag(r, RmtTag::IdRemap);
    }

    let gid0 = {
        let b = em.mul(lg0, ls0, &mut pro);
        em.add(b, lid0, &mut pro)
    };
    let gid1 = {
        let b = em.mul(lg1, ls1, &mut pro);
        em.add(b, lid1, &mut pro)
    };
    let gid2 = {
        let b = em.mul(lg2, ls2, &mut pro);
        em.add(b, lid2, &mut pro)
    };
    let raw_gs0 = em.builtin(Builtin::GlobalSize(Dim(0)), &mut pro);
    let gs0 = em.shr(raw_gs0, one, &mut pro);
    for r in [gid0, gid1, gid2, gs0] {
        prov.tag(r, RmtTag::IdRemap);
    }

    let mut map = FxHashMap::default();
    map.insert(Builtin::GroupId(Dim(0)), lg0);
    map.insert(Builtin::GroupId(Dim(1)), lg1);
    map.insert(Builtin::GroupId(Dim(2)), lg2);
    map.insert(Builtin::GlobalId(Dim(0)), gid0);
    map.insert(Builtin::GlobalId(Dim(1)), gid1);
    map.insert(Builtin::GlobalId(Dim(2)), gid2);
    map.insert(Builtin::NumGroups(Dim(0)), ng0);
    map.insert(Builtin::GlobalSize(Dim(0)), gs0);

    // Per-work-item communication slot (full stage).
    let (sa_state, sa_addr, sa_val) = if full {
        let comm_base = em.read_param(comm_param.expect("comm"), &mut pro);
        let ls01 = em.mul(ls0, ls1, &mut pro);
        let gsz = em.mul(ls01, ls2, &mut pro);
        let gbase = em.mul(logical, gsz, &mut pro);
        let idx = em.add(gbase, lidlin, &mut pro);
        let sixteen = em.c_u32(16, &mut pro);
        let off = em.mul(idx, sixteen, &mut pro);
        let sb = em.add(comm_base, off, &mut pro);
        let sa = em.add(sb, four, &mut pro);
        let eight = em.c_u32(8, &mut pro);
        let sv = em.add(sb, eight, &mut pro);
        for r in [ls01, gsz, gbase, idx, off, sb, sa, sv] {
            prov.tag(r, RmtTag::CommAddress);
        }
        (Some(sb), Some(sa), Some(sv))
    } else {
        (None, None, None)
    };

    let mut ctx = Ctx {
        em,
        stage: opts.stage,
        map,
        is_prod,
        is_cons,
        detect_base,
        zero,
        one,
        sa_state,
        sa_addr,
        sa_val,
        prov,
    };

    let mut err: Option<RmtError> = None;
    let body = map_block(&kernel.body, &mut |inst| {
        if err.is_some() {
            return Some(Vec::new());
        }
        if let Some(r) = rewrite_builtin(inst, &ctx.map) {
            return Some(r);
        }
        match inst {
            // LDS is private per group — inside the SoR, untouched.
            Inst::Store {
                space: MemSpace::Global,
                addr,
                value,
            } => Some(ctx.expand_store(*addr, *value)),
            Inst::Atomic {
                dst,
                space: MemSpace::Global,
                op,
                addr,
                value,
            } => {
                if dst.is_some() {
                    err = Some(RmtError::Unsupported(
                        "global atomic whose result re-enters the SoR".into(),
                    ));
                    Some(Vec::new())
                } else {
                    Some(ctx.expand_atomic(*op, *addr, *value))
                }
            }
            _ => None,
        }
    });
    if let Some(e) = err {
        return Err(e);
    }

    let mut insts = pro;
    insts.extend(body.0);

    let suffix = if full {
        "rmt_inter"
    } else {
        "rmt_inter_nocomm"
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
            ticket_param,
            comm_param,
            orig_lds_bytes: orig_lds,
            comm_bytes_per_item: if full { 16 } else { 0 },
            selective: None,
        },
        provenance: ctx.prov,
    })
}
