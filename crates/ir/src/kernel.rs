//! Kernel container: parameters, LDS footprint, and body.

use crate::inst::{Block, Inst, Reg};
use crate::types::Ty;
use std::fmt;

/// What a kernel parameter binds to at launch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// A global-memory buffer; `ReadParam` yields its base byte address.
    Buffer,
    /// A 32-bit scalar immediate; `ReadParam` yields its bits.
    Scalar(Ty),
}

impl fmt::Display for ParamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamKind::Buffer => f.write_str("buffer"),
            ParamKind::Scalar(ty) => write!(f, "scalar<{ty}>"),
        }
    }
}

/// A kernel parameter declaration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param {
    /// Human-readable name (used by the pretty-printer and launch errors).
    pub name: String,
    /// Binding kind.
    pub kind: ParamKind,
}

/// A complete kernel: the unit the RMT compiler transforms and the
/// simulator launches.
#[derive(Debug, Clone, PartialEq)]
pub struct Kernel {
    /// Kernel name (diagnostics only).
    pub name: String,
    /// Parameter declarations, bound positionally at launch.
    pub params: Vec<Param>,
    /// Bytes of LDS each work-group allocates.
    pub lds_bytes: u32,
    /// The body, executed once per work-item.
    pub body: Block,
    /// First unused virtual register number; transforms allocate fresh
    /// registers from here.
    pub next_reg: u32,
}

impl Kernel {
    /// Allocates a fresh virtual register (used by compiler transforms).
    pub fn fresh_reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Appends a parameter, returning its index.
    pub fn push_param(&mut self, name: impl Into<String>, kind: ParamKind) -> usize {
        self.params.push(Param {
            name: name.into(),
            kind,
        });
        self.params.len() - 1
    }

    /// Total instruction count, including nested blocks.
    pub fn total_insts(&self) -> usize {
        self.body.total_insts()
    }

    /// Visits every instruction (depth-first, program order), immutably.
    pub fn visit_insts<'a>(&'a self, f: &mut impl FnMut(&'a Inst)) {
        self.body.visit_insts(f);
    }

    /// Counts instructions matching a predicate (recursive).
    pub fn count_insts(&self, pred: impl FnMut(&Inst) -> bool) -> usize {
        self.body.count_insts(pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{BinOp, MemSpace};

    fn tiny() -> Kernel {
        Kernel {
            name: "t".into(),
            params: vec![Param {
                name: "buf".into(),
                kind: ParamKind::Buffer,
            }],
            lds_bytes: 0,
            body: Block(vec![
                Inst::Const {
                    dst: Reg(0),
                    ty: Ty::U32,
                    bits: 4,
                },
                Inst::Binary {
                    dst: Reg(1),
                    op: BinOp::Add,
                    ty: Ty::U32,
                    a: Reg(0),
                    b: Reg(0),
                },
                Inst::Store {
                    space: MemSpace::Global,
                    addr: Reg(0),
                    value: Reg(1),
                },
            ]),
            next_reg: 2,
        }
    }

    #[test]
    fn fresh_regs_are_unique() {
        let mut k = tiny();
        let a = k.fresh_reg();
        let b = k.fresh_reg();
        assert_ne!(a, b);
        assert_eq!(a, Reg(2));
        assert_eq!(b, Reg(3));
    }

    #[test]
    fn count_and_visit() {
        let k = tiny();
        assert_eq!(k.total_insts(), 3);
        assert_eq!(k.count_insts(|i| i.is_memory()), 1);
        let mut seen = 0;
        k.visit_insts(&mut |_| seen += 1);
        assert_eq!(seen, 3);
    }

    #[test]
    fn push_param_indices() {
        let mut k = tiny();
        let i = k.push_param("extra", ParamKind::Scalar(Ty::U32));
        assert_eq!(i, 1);
        assert_eq!(k.params[1].name, "extra");
    }
}
