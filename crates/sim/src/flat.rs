//! Compilation of structured IR into a flat SIMT program.
//!
//! Structured `if`/`while` are lowered to explicit mask-stack operations
//! with pre-resolved jump targets, the form the wavefront interpreter
//! executes. This mirrors how GCN's scalar unit manipulates the EXEC mask
//! around divergent control flow.

use crate::alu::{self, LANES};
use crate::error::SimError;
use rmt_ir::analysis::uniformity::{is_scalar_inst, uniform_regs};
use rmt_ir::analysis::{instruction_mix, InstMix};
use rmt_ir::{AtomicOp, Block, Builtin, Inst, Kernel, MemSpace, Param, Reg, RegSet, SwizzleMode};

/// A lowered instruction with resolved control targets.
#[derive(Debug, Clone, PartialEq)]
pub enum FlatOp {
    /// A non-control IR instruction.
    Op(Inst),
    /// Begin a divergent region: split the mask on `cond`.
    IfBegin {
        /// Condition register (per-lane boolean).
        cond: Reg,
        /// PC of the matching [`FlatOp::Else`].
        else_pc: usize,
        /// PC of the matching [`FlatOp::EndIf`].
        end_pc: usize,
    },
    /// Switch to the else-mask (or skip to the end when it is empty).
    Else {
        /// PC of the matching [`FlatOp::EndIf`].
        end_pc: usize,
    },
    /// Restore the pre-`if` mask.
    EndIf,
    /// Enter a loop: save the mask.
    LoopBegin {
        /// PC one past the matching [`FlatOp::LoopEnd`].
        end_pc: usize,
    },
    /// Test the loop condition; lanes reading 0 retire from the loop.
    LoopTest {
        /// Condition register.
        cond: Reg,
        /// PC one past the matching [`FlatOp::LoopEnd`] (loop exit).
        end_pc: usize,
    },
    /// Jump back to re-evaluate the loop condition.
    LoopEnd {
        /// PC of the matching [`FlatOp::LoopBegin`].
        begin_pc: usize,
    },
}

impl FlatOp {
    /// `true` for the mask-manipulation ops introduced by lowering.
    pub fn is_control(&self) -> bool {
        !matches!(self, FlatOp::Op(_))
    }
}

/// What the interpreter does for one flat op: the instruction kind with
/// its operator, type, address space and control targets resolved, in one
/// enum, so that a wave instruction costs one dispatch.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Code {
    /// [`FlatOp::IfBegin`].
    IfBegin { else_pc: usize },
    /// [`FlatOp::Else`].
    Else { end_pc: usize },
    /// [`FlatOp::EndIf`].
    EndIf,
    /// [`FlatOp::LoopBegin`].
    LoopBegin,
    /// [`FlatOp::LoopTest`].
    LoopTest { end_pc: usize },
    /// [`FlatOp::LoopEnd`].
    LoopEnd { begin_pc: usize },
    /// [`Inst::Const`] with its bits.
    Const(u32),
    /// [`Inst::ReadParam`] with its parameter index.
    Param(usize),
    /// [`Inst::ReadBuiltin`].
    Builtin(Builtin),
    /// [`Inst::Mov`].
    Mov,
    /// [`Inst::Unary`] as its lane function.
    Alu1(alu::Lanes1),
    /// [`Inst::Binary`] or [`Inst::Cmp`] as the lane function of its
    /// operator at its type.
    Alu2(alu::Lanes2),
    /// [`Inst::Select`].
    Select,
    /// [`Inst::Swizzle`].
    Swizzle(SwizzleMode),
    /// Global [`Inst::Load`] with its destination register, which keys
    /// the wait on the load's completion.
    LoadGlobal(Reg),
    /// LDS [`Inst::Load`] with its destination register, as for
    /// [`Code::LoadGlobal`].
    LoadLds(Reg),
    /// Global [`Inst::Store`].
    StoreGlobal,
    /// LDS [`Inst::Store`].
    StoreLds,
    /// Global [`Inst::Atomic`]; `ret` when it writes the old value back.
    AtomicGlobal { op: AtomicOp, ret: bool },
    /// LDS [`Inst::Atomic`]; `ret` when it writes the old value back.
    AtomicLds { op: AtomicOp, ret: bool },
    /// [`Inst::Barrier`].
    Barrier,
}

/// One flat op decoded for the interpreter's issue loop.
///
/// [`compile`] decodes each op once into this copyable record, so the
/// interpreter matches neither [`FlatOp`] nor [`Inst`] per wave issue:
/// the [`Code`] to dispatch on, the lane offsets of the slots its operands
/// live in, the source registers that gate issue on in-flight loads (GCN
/// `s_waitcnt` style), and its issue rate and unit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decoded {
    /// What the op does.
    pub code: Code,
    /// Lane offset (`slot × LANES`) of the destination register's slot;
    /// 0 when the op writes none.
    pub dst: usize,
    /// Lane offsets of the operands' slots, in operand order: `[a, b]`,
    /// `[cond, if_true, if_false]`, `[addr, value]`, or `[addr, value,
    /// cmp]` for an atomic, whose `cmp` slot repeats `value` unless it is
    /// a compare-exchange.
    pub src: [usize; 3],
    /// Virtual registers read by the op (only the first `nsrcs` entries
    /// are meaningful). No instruction reads more than three registers
    /// (`Select` and `CmpXchg` atomics are the widest).
    pub srcs: [Reg; 3],
    /// Number of valid entries in `srcs`.
    pub nsrcs: u8,
    /// Quarter-rate transcendental unary op (extra SIMD occupancy).
    pub transcendental: bool,
    /// Would this op issue on the scalar unit? (Uniform arithmetic and
    /// all mask-manipulating control ops.)
    pub scalar: bool,
}

/// The code of a non-control instruction.
fn code_of(inst: &Inst) -> Code {
    match *inst {
        Inst::Const { bits, .. } => Code::Const(bits),
        Inst::ReadParam { index, .. } => Code::Param(index),
        Inst::ReadBuiltin { builtin, .. } => Code::Builtin(builtin),
        Inst::Mov { .. } => Code::Mov,
        Inst::Unary { op, .. } => Code::Alu1(alu::un_fn(op)),
        Inst::Binary { op, ty, .. } => Code::Alu2(alu::bin_fn(op, ty)),
        Inst::Cmp { op, ty, .. } => Code::Alu2(alu::cmp_fn(op, ty)),
        Inst::Select { .. } => Code::Select,
        Inst::Swizzle { mode, .. } => Code::Swizzle(mode),
        Inst::Load { dst, space, .. } => match space {
            MemSpace::Global => Code::LoadGlobal(dst),
            MemSpace::Local => Code::LoadLds(dst),
        },
        Inst::Store { space, .. } => match space {
            MemSpace::Global => Code::StoreGlobal,
            MemSpace::Local => Code::StoreLds,
        },
        Inst::Atomic { dst, space, op, .. } => {
            let ret = dst.is_some();
            match space {
                MemSpace::Global => Code::AtomicGlobal { op, ret },
                MemSpace::Local => Code::AtomicLds { op, ret },
            }
        }
        Inst::Barrier => Code::Barrier,
        Inst::If { .. } | Inst::While { .. } => {
            unreachable!("control flow is lowered before decoding")
        }
    }
}

// The interpreter fetches one record per wave instruction: keep it to one
// cache line.
const _: () = assert!(size_of::<Decoded>() <= 64);

impl Decoded {
    /// Decodes `op`, with each register at the lane offset of its slot in
    /// `homes`.
    fn of(op: &FlatOp, uniform: &RegSet, homes: &[Home]) -> Decoded {
        let mut srcs = [Reg(0); 3];
        let mut nsrcs = 0u8;
        let mut push = |r: Reg| {
            let n = nsrcs as usize;
            assert!(n < 3, "instruction reads more than 3 registers");
            srcs[n] = r;
            nsrcs += 1;
        };
        let (code, inst) = match *op {
            FlatOp::Op(ref inst) => {
                inst.for_each_src(&mut push);
                (code_of(inst), Some(inst))
            }
            FlatOp::IfBegin { cond, else_pc, .. } => {
                push(cond);
                (Code::IfBegin { else_pc }, None)
            }
            FlatOp::Else { end_pc } => (Code::Else { end_pc }, None),
            FlatOp::EndIf => (Code::EndIf, None),
            FlatOp::LoopBegin { .. } => (Code::LoopBegin, None),
            FlatOp::LoopTest { cond, end_pc } => {
                push(cond);
                (Code::LoopTest { end_pc }, None)
            }
            FlatOp::LoopEnd { begin_pc } => (Code::LoopEnd { begin_pc }, None),
        };
        let offset = |r: Reg| homes[r.0 as usize].slot as usize * LANES;
        let mut src = [0; 3];
        for (o, &r) in src.iter_mut().zip(&srcs[..nsrcs as usize]) {
            *o = offset(r);
        }
        if let Some(Inst::Atomic { op, .. }) = inst {
            if !matches!(op, AtomicOp::CmpXchg { .. }) {
                src[2] = src[1];
            }
        }
        Decoded {
            code,
            dst: inst.and_then(Inst::dst).map_or(0, offset),
            src,
            srcs,
            nsrcs,
            transcendental: matches!(inst, Some(Inst::Unary { op, .. }) if op.is_transcendental()),
            // Mask manipulation runs on the scalar path.
            scalar: inst.is_none_or(|inst| is_scalar_inst(inst, uniform)),
        }
    }
}

/// Where a virtual register lives in a wave's register file: its slot, and
/// the inclusive flat-PC span over which the slot holds it and nothing
/// else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Home {
    /// Slot index; the register's lanes are `slot × LANES ..`.
    pub slot: u32,
    /// First PC of the span ([`UNUSED`] for a register no op names).
    pub first: u32,
    /// Last PC of the span.
    pub last: u32,
}

/// [`Home::first`] of a register no op names.
const UNUSED: u32 = u32::MAX;

/// The register allocation of a flat program.
struct Allocation {
    /// Peak overlap of the live spans: the pressure `register_pressure`
    /// reports for the source kernel.
    pressure: u32,
    /// Slots each wave holds.
    slots: u32,
    /// Per virtual register.
    homes: Vec<Home>,
}

/// Allocates the `nregs` virtual registers of `ops` onto slots.
///
/// One forward walk gives each register its live span, from its first to
/// its last access, widened over the outermost loop around either end (the
/// value must survive the back-edge), as `rmt_ir::analysis::live_spans`
/// does in IR order. The peak overlap of these spans is the pressure.
///
/// A lane a write skips keeps what the register held before. A slot shared
/// with an earlier register would hold that register's value there
/// instead, so any register some lane may read before writing it must not
/// share. The same walk tracks the registers written in every active lane
/// (a must-defined set, intersected where the two arms of an `if` meet,
/// and reset to the loop test's set where a loop exits), and a read of a
/// register outside it starts the register's span at PC 0. So does every
/// swizzle source, because a swizzle reads other lanes, active or not.
/// Such a register gets a slot no other register has held, which reads
/// zero until written, as a fresh virtual register does.
///
/// Slots are then assigned by linear scan over the spans in start order,
/// with a slot freed one PC after its span ends, which needs exactly as
/// many slots as the spans' peak overlap.
fn allocate(ops: &[FlatOp], nregs: usize) -> Allocation {
    let words = nregs.div_ceil(64);
    let bit = |r: Reg| (r.0 as usize / 64, 1u64 << (r.0 % 64));
    let mut homes = vec![
        Home {
            slot: 0,
            first: UNUSED,
            last: 0,
        };
        nregs
    ];
    let mut forced = vec![0u64; words];
    let mut defined = vec![0u64; words];
    // `defined` at each open `if` (its entry, then its then-arm's exit) and
    // loop (its test), `words` words a set.
    let mut saved: Vec<u64> = Vec::new();
    let mut outer_loop: Option<(u32, u32)> = None;
    for (pc, op) in ops.iter().enumerate() {
        let pc = pc as u32;
        if outer_loop.is_some_and(|(_, end)| pc > end) {
            outer_loop = None;
        }
        let (lo, hi) = outer_loop.unwrap_or((pc, pc));
        let mut touch = |r: Reg| {
            let h = &mut homes[r.0 as usize];
            if h.first == UNUSED {
                h.first = lo;
            }
            h.last = hi;
        };
        let mut read = |r: Reg, exchange: bool| {
            touch(r);
            let (w, m) = bit(r);
            if exchange || defined[w] & m == 0 {
                forced[w] |= m;
            }
        };
        match *op {
            FlatOp::Op(ref inst) => {
                let exchange = matches!(inst, Inst::Swizzle { .. });
                inst.for_each_src(|r| read(r, exchange));
                if let Some(d) = inst.dst() {
                    touch(d);
                    let (w, m) = bit(d);
                    defined[w] |= m;
                }
            }
            FlatOp::IfBegin { cond, .. } => {
                read(cond, false);
                saved.extend_from_slice(&defined);
            }
            FlatOp::Else { .. } => {
                // [entry] with the then-exit live becomes [entry, then-exit]
                // with the entry live.
                let n = saved.len();
                saved.extend_from_within(n - words..);
                saved[n..].swap_with_slice(&mut defined);
            }
            FlatOp::EndIf => {
                let n = saved.len() - words;
                for (d, t) in defined.iter_mut().zip(&saved[n..]) {
                    *d &= t;
                }
                saved.truncate(n - words);
            }
            FlatOp::LoopBegin { end_pc } => {
                outer_loop.get_or_insert((pc, end_pc as u32 - 1));
            }
            FlatOp::LoopTest { cond, .. } => {
                read(cond, false);
                saved.extend_from_slice(&defined);
            }
            FlatOp::LoopEnd { .. } => {
                let n = saved.len() - words;
                defined.copy_from_slice(&saved[n..]);
                saved.truncate(n);
            }
        }
    }

    // Peak overlap of the spans as they are, then start the forced ones at
    // PC 0.
    let npc = ops.len();
    let mut delta = vec![0i32; npc + 1];
    for h in homes.iter().filter(|h| h.first != UNUSED) {
        delta[h.first as usize] += 1;
        delta[h.last as usize + 1] -= 1;
    }
    let (mut live, mut pressure) = (0i32, 0i32);
    for d in delta {
        live += d;
        pressure = pressure.max(live);
    }
    for (r, h) in homes.iter_mut().enumerate() {
        if forced[r / 64] >> (r % 64) & 1 == 1 {
            h.first = 0;
        }
    }

    // Linear scan: bucket the spans by start and by end (linked lists in
    // register order), then sweep the PCs, taking slots for the spans that
    // start at a PC before freeing those of the spans that end there.
    const NIL: u32 = u32::MAX;
    let (mut start_head, mut end_head) = (vec![NIL; npc], vec![NIL; npc]);
    let (mut start_next, mut end_next) = (vec![NIL; nregs], vec![NIL; nregs]);
    for (r, h) in homes.iter().enumerate().rev() {
        if h.first != UNUSED {
            start_next[r] = std::mem::replace(&mut start_head[h.first as usize], r as u32);
            end_next[r] = std::mem::replace(&mut end_head[h.last as usize], r as u32);
        }
    }
    let mut free: Vec<u32> = Vec::new();
    let mut slots = 0u32;
    for pc in 0..npc {
        let mut r = start_head[pc];
        while r != NIL {
            homes[r as usize].slot = free.pop().unwrap_or_else(|| {
                slots += 1;
                slots - 1
            });
            r = start_next[r as usize];
        }
        let mut r = end_head[pc];
        while r != NIL {
            free.push(homes[r as usize].slot);
            r = end_next[r as usize];
        }
    }
    Allocation {
        pressure: pressure as u32,
        slots,
        homes,
    }
}

/// A kernel lowered for execution, with precomputed analyses.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Kernel name.
    pub name: String,
    /// Parameter declarations (positional).
    pub params: Vec<Param>,
    /// LDS bytes per work-group.
    pub lds_bytes: u32,
    /// The flat program.
    pub ops: Vec<FlatOp>,
    /// Estimated VGPRs per work-item (register pressure): the peak number
    /// of simultaneously live registers, which occupancy charges.
    pub pressure: u32,
    /// Number of virtual registers (the kernel's register count, at least
    /// 1): the register numbers fault targets and load waits name. A wave
    /// holds [`CompiledKernel::slots`] of them at a time, not all.
    pub nregs: u32,
    /// Register slots each wave's file holds: the peak overlap of the
    /// allocated spans. It equals `pressure` unless some register is read
    /// before it is written in some lane, or feeds a swizzle; such a
    /// register keeps a slot of its own from PC 0.
    pub slots: u32,
    /// Static instruction mix of the source kernel.
    pub mix: InstMix,
    /// Per-op source line: the pre-order index of the IR instruction each
    /// flat op was lowered from (parallel to `ops`, matching
    /// `Kernel::visit_insts` order). All control ops of an `if`/`while`
    /// map back to that `if`/`while` instruction. This is what per-PC
    /// profiles use to attribute ticks to source instructions.
    pub lines: Vec<u32>,
    /// Per-op decoded form the interpreter runs (parallel to `ops`).
    pub(crate) decoded: Vec<Decoded>,
    /// Where each virtual register lives (indexed by register number).
    pub(crate) homes: Vec<Home>,
}

impl CompiledKernel {
    /// Would op `pc` issue on the scalar unit?
    pub fn issues_scalar(&self, pc: usize) -> bool {
        self.decoded[pc].scalar
    }

    /// The registers op `pc` reads, in operand order.
    pub fn op_srcs(&self, pc: usize) -> &[Reg] {
        let d = &self.decoded[pc];
        &d.srcs[..d.nsrcs as usize]
    }

    /// The lane offset of the slot holding virtual register `reg` when a
    /// wave is about to run op `pc`, or `None` when no slot holds it then:
    /// the register is dead, so nothing reads what it held.
    pub(crate) fn slot_at(&self, reg: u32, pc: usize) -> Option<usize> {
        let h = self.homes.get(reg as usize)?;
        (h.first as usize <= pc && pc <= h.last as usize).then_some(h.slot as usize * LANES)
    }
}

fn lower_block(block: &Block, ops: &mut Vec<FlatOp>, lines: &mut Vec<u32>, next_line: &mut u32) {
    for inst in block.iter() {
        let line = *next_line;
        *next_line += 1;
        match inst {
            Inst::If {
                cond,
                then_blk,
                else_blk,
            } => {
                let begin = ops.len();
                ops.push(FlatOp::IfBegin {
                    cond: *cond,
                    else_pc: 0,
                    end_pc: 0,
                });
                lines.push(line);
                lower_block(then_blk, ops, lines, next_line);
                let else_pc = ops.len();
                ops.push(FlatOp::Else { end_pc: 0 });
                lines.push(line);
                lower_block(else_blk, ops, lines, next_line);
                let end_pc = ops.len();
                ops.push(FlatOp::EndIf);
                lines.push(line);
                ops[begin] = FlatOp::IfBegin {
                    cond: *cond,
                    else_pc,
                    end_pc,
                };
                ops[else_pc] = FlatOp::Else { end_pc };
            }
            Inst::While {
                cond,
                cond_reg,
                body,
            } => {
                let begin = ops.len();
                ops.push(FlatOp::LoopBegin { end_pc: 0 });
                lines.push(line);
                lower_block(cond, ops, lines, next_line);
                let test_pc = ops.len();
                ops.push(FlatOp::LoopTest {
                    cond: *cond_reg,
                    end_pc: 0,
                });
                lines.push(line);
                lower_block(body, ops, lines, next_line);
                ops.push(FlatOp::LoopEnd { begin_pc: begin });
                lines.push(line);
                let end_pc = ops.len(); // one past LoopEnd
                ops[begin] = FlatOp::LoopBegin { end_pc };
                ops[test_pc] = FlatOp::LoopTest {
                    cond: *cond_reg,
                    end_pc,
                };
            }
            other => {
                ops.push(FlatOp::Op(other.clone()));
                lines.push(line);
            }
        }
    }
}

/// Lowers and analyzes a kernel.
///
/// # Errors
///
/// Returns [`SimError::InvalidKernel`] if IR validation fails.
pub fn compile(kernel: &Kernel) -> Result<CompiledKernel, SimError> {
    rmt_ir::validate(kernel).map_err(|e| SimError::InvalidKernel(e.to_string()))?;
    let mut ops = Vec::with_capacity(kernel.total_insts() * 2);
    let mut lines = Vec::with_capacity(kernel.total_insts() * 2);
    let mut next_line = 0u32;
    lower_block(&kernel.body, &mut ops, &mut lines, &mut next_line);
    debug_assert_eq!(ops.len(), lines.len());

    let nregs = kernel.next_reg.max(1);
    let alloc = allocate(&ops, nregs as usize);
    let uniform = uniform_regs(kernel);
    let decoded = ops
        .iter()
        .map(|op| Decoded::of(op, &uniform, &alloc.homes))
        .collect();
    Ok(CompiledKernel {
        name: kernel.name.clone(),
        params: kernel.params.clone(),
        lds_bytes: kernel.lds_bytes,
        ops,
        pressure: alloc.pressure,
        nregs,
        slots: alloc.slots,
        mix: instruction_mix(kernel),
        lines,
        decoded,
        homes: alloc.homes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_ir::KernelBuilder;

    #[test]
    fn lowers_if_with_targets() {
        let mut b = KernelBuilder::new("k");
        let c = b.const_u32(1);
        b.if_else(c, |b| b.emit_nop_const(), |b| b.emit_nop_const());
        let k = b.finish();
        let ck = compile(&k).unwrap();
        // const, IfBegin, const, Else, const, EndIf
        assert_eq!(ck.ops.len(), 6);
        match &ck.ops[1] {
            FlatOp::IfBegin {
                else_pc, end_pc, ..
            } => {
                assert_eq!(*else_pc, 3);
                assert_eq!(*end_pc, 5);
            }
            other => panic!("expected IfBegin, got {other:?}"),
        }
        match &ck.ops[3] {
            FlatOp::Else { end_pc } => assert_eq!(*end_pc, 5),
            other => panic!("expected Else, got {other:?}"),
        }
    }

    #[test]
    fn lowers_while_with_targets() {
        let mut b = KernelBuilder::new("k");
        let zero = b.const_u32(0);
        let two = b.const_u32(2);
        b.for_range(zero, two, |_b, _i| {});
        let k = b.finish();
        let ck = compile(&k).unwrap();
        let begin = ck
            .ops
            .iter()
            .position(|o| matches!(o, FlatOp::LoopBegin { .. }))
            .unwrap();
        let end = ck
            .ops
            .iter()
            .position(|o| matches!(o, FlatOp::LoopEnd { .. }))
            .unwrap();
        match ck.ops[begin] {
            FlatOp::LoopBegin { end_pc } => assert_eq!(end_pc, end + 1),
            _ => unreachable!(),
        }
        match ck.ops[end] {
            FlatOp::LoopEnd { begin_pc } => assert_eq!(begin_pc, begin),
            _ => unreachable!(),
        }
    }

    #[test]
    fn decode_resolves_sources_per_op() {
        let mut b = KernelBuilder::new("k");
        let gid = b.global_id(0);
        let two = b.const_u32(2);
        let sum = b.add_u32(gid, two);
        b.if_(sum, |b| {
            let _ = b.const_u32(1);
        });
        let ck = compile(&b.finish()).unwrap();
        assert_eq!(ck.decoded.len(), ck.ops.len());
        for (op, d) in ck.ops.iter().zip(&ck.decoded) {
            let mut want = Vec::new();
            match op {
                FlatOp::Op(inst) => inst.srcs(&mut want),
                FlatOp::IfBegin { cond, .. } | FlatOp::LoopTest { cond, .. } => want.push(*cond),
                _ => {}
            }
            assert_eq!(&d.srcs[..d.nsrcs as usize], want.as_slice());
            let slot_of = |r: Reg| ck.homes[r.0 as usize].slot as usize;
            for (r, &off) in want.iter().zip(&d.src) {
                assert_eq!(off, slot_of(*r) * LANES, "lane offset of {r}");
            }
            if let FlatOp::Op(inst) = op {
                let dst = inst.dst().map_or(0, |r| slot_of(r) * LANES);
                assert_eq!(d.dst, dst);
            }
        }
        // The add reads both operands; the IfBegin reads the condition.
        let add = ck.decoded.iter().find(|d| d.nsrcs == 2).expect("binary op");
        assert_eq!(add.srcs[..2], [gid, two]);
    }

    #[test]
    fn registers_some_lane_reads_unwritten_start_at_pc_0() {
        let mut b = KernelBuilder::new("k");
        let gid = b.global_id(0);
        let (both, one_arm, in_body) = (b.fresh(), b.fresh(), b.fresh());
        let set = |b: &mut KernelBuilder, dst: Reg| b.mov_to(dst, gid);
        b.if_else(
            gid,
            |b| {
                set(b, both);
                set(b, one_arm);
            },
            |b| set(b, both),
        );
        let zero = b.const_u32(0);
        b.for_range(zero, gid, |b, _| set(b, in_body));
        let sum = b.add_u32(both, one_arm);
        let _ = b.add_u32(sum, in_body);
        let ck = compile(&b.finish()).unwrap();
        let first = |r: Reg| ck.homes[r.0 as usize].first;
        // Written in both arms: defined after the `if`.
        assert!(first(both) > 0);
        // Written in one arm, or only in a loop body some lanes may never
        // enter: read unwritten in some lane.
        assert_eq!(first(one_arm), 0);
        assert_eq!(first(in_body), 0);
        // Registers that share a slot never overlap.
        for (r, h) in ck
            .homes
            .iter()
            .enumerate()
            .filter(|(_, h)| h.first != UNUSED)
        {
            for q in ck.homes[r + 1..].iter().filter(|q| q.first != UNUSED) {
                assert!(q.slot != h.slot || q.first > h.last || q.last < h.first);
            }
        }
    }

    #[test]
    fn lines_follow_visit_insts_preorder() {
        let mut b = KernelBuilder::new("k");
        let c = b.const_u32(1); // pre-order 0
        b.if_else(c, |b| b.emit_nop_const(), |b| b.emit_nop_const());
        let k = b.finish();
        let ck = compile(&k).unwrap();
        // ops: const(0), IfBegin(1), then-const(2), Else(1), else-const(3),
        // EndIf(1) — all control ops map back to the `if` itself.
        assert_eq!(ck.lines, vec![0, 1, 2, 1, 3, 1]);
        let mut total = 0u32;
        k.visit_insts(&mut |_| total += 1);
        assert!(ck.lines.iter().all(|&l| l < total));
    }

    #[test]
    fn loop_lines_map_to_the_while() {
        let mut b = KernelBuilder::new("k");
        let zero = b.const_u32(0); // 0
        let two = b.const_u32(2); // 1
        b.for_range(zero, two, |_b, _i| {});
        let k = b.finish();
        let ck = compile(&k).unwrap();
        assert_eq!(ck.lines.len(), ck.ops.len());
        // Find the while's pre-order index independently.
        let mut while_line = None;
        let mut idx = 0u32;
        k.visit_insts(&mut |i| {
            if matches!(i, Inst::While { .. }) {
                while_line = Some(idx);
            }
            idx += 1;
        });
        let while_line = while_line.expect("kernel has a loop");
        for (op, &line) in ck.ops.iter().zip(&ck.lines) {
            if matches!(
                op,
                FlatOp::LoopBegin { .. } | FlatOp::LoopTest { .. } | FlatOp::LoopEnd { .. }
            ) {
                assert_eq!(line, while_line, "loop control maps to the while inst");
            }
        }
    }

    #[test]
    fn rejects_invalid_kernel() {
        let mut b = KernelBuilder::new("bad");
        let dst = b.fresh();
        b.emit(rmt_ir::Inst::ReadParam { dst, index: 7 });
        assert!(matches!(
            compile(&b.finish()),
            Err(SimError::InvalidKernel(_))
        ));
    }

    #[test]
    fn scalar_flags_follow_uniformity() {
        let mut b = KernelBuilder::new("k");
        let grp = b.group_id(0);
        let two = b.const_u32(2);
        let _s = b.mul_u32(grp, two); // uniform -> scalar
        let gid = b.global_id(0);
        let _v = b.add_u32(gid, two); // divergent -> vector
        let k = b.finish();
        let ck = compile(&k).unwrap();
        // ops: grp, two, mul, gid, add
        let scalar: Vec<bool> = ck.decoded.iter().map(|d| d.scalar).collect();
        assert_eq!(scalar, vec![true, true, true, false, false]);
    }

    // helper so the first test reads cleanly
    trait EmitNop {
        fn emit_nop_const(&mut self);
    }
    impl EmitNop for KernelBuilder {
        fn emit_nop_const(&mut self) {
            let _ = self.const_u32(42);
        }
    }
}
