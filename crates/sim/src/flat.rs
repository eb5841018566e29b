//! Compilation of structured IR into a flat SIMT program.
//!
//! Structured `if`/`while` are lowered to explicit mask-stack operations
//! with pre-resolved jump targets, the form the wavefront interpreter
//! executes. This mirrors how GCN's scalar unit manipulates the EXEC mask
//! around divergent control flow.

use crate::alu::{self, LANES};
use crate::error::SimError;
use rmt_ir::analysis::uniformity::{is_scalar_inst, uniform_regs};
use rmt_ir::analysis::{instruction_mix, register_pressure, InstMix};
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
    /// Global [`Inst::Load`].
    LoadGlobal,
    /// LDS [`Inst::Load`].
    LoadLds,
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
/// the [`Code`] to dispatch on, the register lane offsets its operands
/// live at, the source registers that gate issue on in-flight loads (GCN
/// `s_waitcnt` style), and its issue rate and unit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decoded {
    /// What the op does.
    pub code: Code,
    /// Lane offset (`register × LANES`) of the destination register; 0
    /// when the op writes none.
    pub dst: usize,
    /// Lane offsets of the operands, in operand order: `[a, b]`,
    /// `[cond, if_true, if_false]`, `[addr, value]`, or `[addr, value,
    /// cmp]` for an atomic, whose `cmp` slot repeats `value` unless it is
    /// a compare-exchange.
    pub src: [usize; 3],
    /// Source registers read by the op (only the first `nsrcs` entries
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
        Inst::Load { space, .. } => match space {
            MemSpace::Global => Code::LoadGlobal,
            MemSpace::Local => Code::LoadLds,
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

impl Decoded {
    fn of(op: &FlatOp, uniform: &RegSet) -> Decoded {
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
        let mut src = srcs.map(|r| r.0 as usize * LANES);
        if let Some(Inst::Atomic { op, .. }) = inst {
            if !matches!(op, AtomicOp::CmpXchg { .. }) {
                src[2] = src[1];
            }
        }
        Decoded {
            code,
            dst: inst.and_then(Inst::dst).map_or(0, |r| r.0 as usize * LANES),
            src,
            srcs,
            nsrcs,
            transcendental: matches!(inst, Some(Inst::Unary { op, .. }) if op.is_transcendental()),
            // Mask manipulation runs on the scalar path.
            scalar: inst.is_none_or(|inst| is_scalar_inst(inst, uniform)),
        }
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
    /// Estimated VGPRs per work-item (register pressure).
    pub pressure: u32,
    /// Number of virtual registers to allocate per lane.
    pub nregs: u32,
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

    let uniform = uniform_regs(kernel);
    let decoded = ops.iter().map(|op| Decoded::of(op, &uniform)).collect();
    Ok(CompiledKernel {
        name: kernel.name.clone(),
        params: kernel.params.clone(),
        lds_bytes: kernel.lds_bytes,
        ops,
        pressure: register_pressure(kernel),
        nregs: kernel.next_reg.max(1),
        mix: instruction_mix(kernel),
        lines,
        decoded,
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
            for (r, &off) in want.iter().zip(&d.src) {
                assert_eq!(off, r.0 as usize * LANES, "lane offset of {r}");
            }
            if let FlatOp::Op(inst) = op {
                let dst = inst.dst().map_or(0, |r| r.0 as usize * LANES);
                assert_eq!(d.dst, dst);
            }
        }
        // The add reads both operands; the IfBegin reads the condition.
        let add = ck.decoded.iter().find(|d| d.nsrcs == 2).expect("binary op");
        assert_eq!(add.srcs[..2], [gid, two]);
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
