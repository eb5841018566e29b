//! The program-order table the flow-insensitive analyses share.
//!
//! [`pressure`](crate::analysis::pressure), [`coverage`](mod@crate::analysis::coverage),
//! [`harden`](mod@crate::analysis::harden) and `rmt-core`'s `verify_rmt` name
//! instructions, SoR exits and residency windows by one numbering:
//! depth-first pre-order, starting at 1. [`Linear`] builds that numbering
//! once per kernel, in a single walk, together with the kernel-level facts
//! those analyses all need: per-register def counts, the global exit sites,
//! and the parameter provenance fixpoint.
//!
//! The simulator's compiled line table numbers the same pre-order from 0,
//! so source line `l` is table index `l + 1`.

use crate::inst::{Block, Inst, MemSpace, Reg};
use crate::kernel::Kernel;

/// One sphere-of-replication exit site: a global store or atomic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExitSite {
    /// Position among exits in depth-first pre-order (the transform
    /// counts exits in the same order, so ordinals line up).
    pub ordinal: usize,
    /// Linear pre-order instruction index (1-based, [`Node::idx`]).
    pub idx: usize,
    /// `true` for a global store, `false` for a global atomic.
    pub is_store: bool,
    /// Loop-nesting depth of the site.
    pub loop_depth: u32,
}

/// One instruction of the table.
#[derive(Debug, Clone, Copy)]
pub struct Node<'k> {
    /// Pre-order index, from 1.
    pub idx: usize,
    /// The instruction.
    pub inst: &'k Inst,
    /// Loop-nesting depth (a `While`'s condition and body are one deeper
    /// than the `While` itself).
    pub depth: u32,
    /// Index of the enclosing `If`/`While`, if any.
    pub parent: Option<usize>,
    /// Last index in this instruction's subtree (`idx` for a leaf); a
    /// `While`'s `(idx, end)` is its loop region.
    pub end: usize,
    /// Range of this instruction's sources in the table's flat array.
    srcs: (u32, u32),
}

/// `true` for the pure value ops: no memory, no control, and a result
/// that is a function of the sources alone.
pub(crate) fn is_pure(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Const { .. }
            | Inst::Unary { .. }
            | Inst::Binary { .. }
            | Inst::Cmp { .. }
            | Inst::Select { .. }
            | Inst::Mov { .. }
            | Inst::Swizzle { .. }
    )
}

/// The pre-order table of one kernel.
pub struct Linear<'k> {
    /// Every instruction, in pre-order; `nodes[i].idx == i + 1`.
    pub nodes: Vec<Node<'k>>,
    /// The global stores and atomics, in pre-order.
    pub exits: Vec<ExitSite>,
    /// Sources of every node, back to back, in operand order.
    srcs: Vec<Reg>,
    /// Definitions per register number.
    defs: Vec<u32>,
    /// Bit sets of parameter indices per register, `words` per register
    /// (enough for every declared parameter).
    params: Vec<u64>,
    words: usize,
}

impl<'k> Linear<'k> {
    /// Builds the table of `kernel`.
    pub fn new(kernel: &'k Kernel) -> Self {
        let n = kernel.total_insts();
        let mut lin = Linear {
            nodes: Vec::with_capacity(n),
            exits: Vec::new(),
            srcs: Vec::with_capacity(2 * n),
            defs: vec![0; kernel.next_reg as usize],
            params: Vec::new(),
            words: kernel.params.len().div_ceil(64).max(1),
        };
        lin.walk(&kernel.body, 0, None);
        lin.compute_params();
        lin
    }

    fn walk(&mut self, block: &'k Block, depth: u32, parent: Option<usize>) {
        for inst in block.iter() {
            let idx = self.nodes.len() + 1;
            let start = self.srcs.len() as u32;
            inst.for_each_src(|r| self.srcs.push(r));
            self.nodes.push(Node {
                idx,
                inst,
                depth,
                parent,
                end: idx,
                srcs: (start, self.srcs.len() as u32),
            });
            if let Some(d) = inst.dst() {
                let i = d.0 as usize;
                if i >= self.defs.len() {
                    self.defs.resize(i + 1, 0);
                }
                self.defs[i] += 1;
            }
            match inst {
                Inst::Store {
                    space: MemSpace::Global,
                    ..
                }
                | Inst::Atomic {
                    space: MemSpace::Global,
                    ..
                } => self.exits.push(ExitSite {
                    ordinal: self.exits.len(),
                    idx,
                    is_store: matches!(inst, Inst::Store { .. }),
                    loop_depth: depth,
                }),
                Inst::If {
                    then_blk, else_blk, ..
                } => {
                    self.walk(then_blk, depth, Some(idx));
                    self.walk(else_blk, depth, Some(idx));
                }
                Inst::While { cond, body, .. } => {
                    self.walk(cond, depth + 1, Some(idx));
                    self.walk(body, depth + 1, Some(idx));
                }
                _ => {}
            }
            self.nodes[idx - 1].end = self.nodes.len();
        }
    }

    /// Which `ReadParam` indices each register may derive from through
    /// pure value ops, closed to a fixpoint (loop-carried chains).
    fn compute_params(&mut self) {
        let w = self.words;
        self.params = vec![0; self.defs.len() * w];
        let mut acc = vec![0u64; w];
        loop {
            let mut changed = false;
            for n in &self.nodes {
                let Some(d) = n.inst.dst() else { continue };
                acc.fill(0);
                if let Inst::ReadParam { index, .. } = n.inst {
                    // An index beyond the declared params (which `validate`
                    // rejects) derives from no parameter.
                    if let Some(a) = acc.get_mut(index / 64) {
                        *a |= 1 << (index % 64);
                    }
                } else if is_pure(n.inst) {
                    for &s in &self.srcs[n.srcs.0 as usize..n.srcs.1 as usize] {
                        let row = s.0 as usize * w;
                        if let Some(bits) = self.params.get(row..row + w) {
                            acc.iter_mut().zip(bits).for_each(|(a, b)| *a |= b);
                        }
                    }
                } else {
                    continue;
                }
                let row = d.0 as usize * w;
                for (dst, a) in self.params[row..row + w].iter_mut().zip(&acc) {
                    changed |= (*dst | a) != *dst;
                    *dst |= a;
                }
            }
            if !changed {
                return;
            }
        }
    }

    /// The node with pre-order index `idx` (from 1).
    pub fn node(&self, idx: usize) -> &Node<'k> {
        &self.nodes[idx - 1]
    }

    /// The registers `node` reads, in operand order.
    pub fn srcs(&self, node: &Node) -> &[Reg] {
        &self.srcs[node.srcs.0 as usize..node.srcs.1 as usize]
    }

    /// The condition registers of the `If`s and `While`s enclosing `node`,
    /// innermost first.
    pub fn conds<'a>(&'a self, node: &Node) -> impl Iterator<Item = Reg> + 'a {
        std::iter::successors(node.parent.map(|p| self.node(p)), |n| {
            n.parent.map(|p| self.node(p))
        })
        .map(|n| match n.inst {
            Inst::If { cond, .. } => *cond,
            Inst::While { cond_reg, .. } => *cond_reg,
            _ => unreachable!("only If and While nodes enclose others"),
        })
    }

    /// The `(first, last)` index range of every loop, outer loops first.
    pub fn loops(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.nodes
            .iter()
            .filter(|n| matches!(n.inst, Inst::While { .. }))
            .map(|n| (n.idx, n.end))
    }

    /// How many instructions define `r`.
    pub fn def_count(&self, r: Reg) -> u32 {
        self.defs.get(r.0 as usize).copied().unwrap_or(0)
    }

    /// `true` if `r` may derive from parameter `param` through pure ops.
    pub fn has_param(&self, r: Reg, param: usize) -> bool {
        let (word, bit) = (param / 64, param % 64);
        word < self.words
            && self
                .params
                .get(r.0 as usize * self.words + word)
                .is_some_and(|b| b >> bit & 1 == 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelBuilder;

    #[test]
    fn numbers_pre_order_with_subtree_ends() {
        let mut b = KernelBuilder::new("t");
        let out = b.buffer_param("out");
        let zero = b.const_u32(0);
        let n = b.const_u32(4);
        b.for_range(zero, n, |b, i| {
            let a = b.elem_addr(out, i);
            b.store_global(a, i);
        });
        b.store_global(out, zero);
        let k = b.finish();
        let lin = Linear::new(&k);
        assert_eq!(lin.nodes.len(), k.total_insts());
        for (i, node) in lin.nodes.iter().enumerate() {
            assert_eq!(node.idx, i + 1);
            assert!(node.end >= node.idx);
            if let Some(p) = node.parent {
                let p = lin.node(p);
                assert!(p.idx < node.idx && node.end <= p.end);
                assert!(p.inst.is_control());
            }
        }
        let loops: Vec<_> = lin.loops().collect();
        assert_eq!(loops.len(), 1);
        let (start, end) = loops[0];
        let Inst::While {
            cond,
            cond_reg,
            body,
        } = lin.node(start).inst
        else {
            panic!("a loop region starts at its While");
        };
        assert_eq!(end - start, cond.total_insts() + body.total_insts());
        // Both stores are exits: the first in the loop, the last outside.
        assert_eq!(lin.exits.len(), 2);
        assert_eq!(lin.exits[0].loop_depth, 1);
        assert!(lin.exits[0].idx > start && lin.exits[0].idx <= end);
        assert_eq!(lin.exits[1].idx, lin.nodes.len());
        assert_eq!(lin.exits[1].loop_depth, 0);
        let node = lin.node(lin.exits[0].idx);
        assert_eq!(lin.conds(node).collect::<Vec<_>>(), vec![*cond_reg]);
    }

    #[test]
    fn params_flow_through_pure_ops_only() {
        let mut b = KernelBuilder::new("p");
        let inp = b.buffer_param("in");
        let out = b.buffer_param("out");
        let gid = b.global_id(0);
        let a = b.elem_addr(inp, gid);
        let x = b.load_global(a);
        let oa = b.elem_addr(out, gid);
        b.store_global(oa, x);
        let k = b.finish();
        let lin = Linear::new(&k);
        assert!(lin.has_param(a, 0) && !lin.has_param(a, 1));
        assert!(lin.has_param(oa, 1) && !lin.has_param(oa, 0));
        // A load's result does not inherit its address's provenance.
        assert!(!lin.has_param(x, 0));
        assert!(!lin.has_param(gid, 0));
        assert!(!lin.has_param(a, 64));
    }
}
