//! Compilation of structured IR into a flat SIMT program.
//!
//! Structured `if`/`while` are lowered to explicit mask-stack operations
//! with pre-resolved jump targets, the form the wavefront interpreter
//! executes. This mirrors how GCN's scalar unit manipulates the EXEC mask
//! around divergent control flow.

use crate::error::SimError;
use rmt_ir::analysis::uniformity::{is_scalar_inst, uniform_regs};
use rmt_ir::analysis::{instruction_mix, register_pressure, InstMix};
use rmt_ir::{Block, Inst, Kernel, Param, Reg, RegSet};

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

/// Pre-decoded per-op metadata for the interpreter's issue loop.
///
/// The hot path needs, for every dynamic instruction, the set of source
/// registers (to gate issue on in-flight loads, GCN s_waitcnt style) and
/// whether the op runs at transcendental rate. Re-deriving these by
/// matching [`FlatOp`]/[`Inst`] per wavefront issue — and collecting
/// sources into a fresh `Vec` — dominated the interpreter profile, so
/// [`compile`] decodes them once into this flat, copyable record.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpMeta {
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

impl OpMeta {
    fn of(op: &FlatOp, uniform: &RegSet) -> OpMeta {
        let mut meta = OpMeta {
            srcs: [Reg(0); 3],
            nsrcs: 0,
            transcendental: false,
            scalar: true, // mask manipulation runs on the scalar path
        };
        let mut push = |r: Reg| {
            let n = meta.nsrcs as usize;
            assert!(n < 3, "instruction reads more than 3 registers");
            meta.srcs[n] = r;
            meta.nsrcs += 1;
        };
        match op {
            FlatOp::Op(inst) => {
                inst.for_each_src(&mut push);
                if let Inst::Unary { op, .. } = inst {
                    meta.transcendental = op.is_transcendental();
                }
                meta.scalar = is_scalar_inst(inst, uniform);
            }
            FlatOp::IfBegin { cond, .. } | FlatOp::LoopTest { cond, .. } => push(*cond),
            _ => {}
        }
        meta
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
    /// Per-op pre-decoded issue metadata (parallel to `ops`).
    pub(crate) meta: Vec<OpMeta>,
}

impl CompiledKernel {
    /// Would op `pc` issue on the scalar unit?
    pub fn issues_scalar(&self, pc: usize) -> bool {
        self.meta[pc].scalar
    }

    /// The registers op `pc` reads, in operand order.
    pub fn op_srcs(&self, pc: usize) -> &[Reg] {
        let m = &self.meta[pc];
        &m.srcs[..m.nsrcs as usize]
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
    let meta = ops.iter().map(|op| OpMeta::of(op, &uniform)).collect();
    Ok(CompiledKernel {
        name: kernel.name.clone(),
        params: kernel.params.clone(),
        lds_bytes: kernel.lds_bytes,
        ops,
        pressure: register_pressure(kernel),
        nregs: kernel.next_reg.max(1),
        mix: instruction_mix(kernel),
        lines,
        meta,
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
    fn meta_predecodes_sources_per_op() {
        let mut b = KernelBuilder::new("k");
        let gid = b.global_id(0);
        let two = b.const_u32(2);
        let sum = b.add_u32(gid, two);
        b.if_(sum, |b| {
            let _ = b.const_u32(1);
        });
        let ck = compile(&b.finish()).unwrap();
        assert_eq!(ck.meta.len(), ck.ops.len());
        for (op, meta) in ck.ops.iter().zip(&ck.meta) {
            let mut want = Vec::new();
            match op {
                FlatOp::Op(inst) => inst.srcs(&mut want),
                FlatOp::IfBegin { cond, .. } | FlatOp::LoopTest { cond, .. } => want.push(*cond),
                _ => {}
            }
            assert_eq!(&meta.srcs[..meta.nsrcs as usize], want.as_slice());
        }
        // The add reads both operands; the IfBegin reads the condition.
        let add = ck
            .meta
            .iter()
            .find(|m| m.nsrcs == 2)
            .expect("binary op meta");
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
        let scalar: Vec<bool> = ck.meta.iter().map(|m| m.scalar).collect();
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
