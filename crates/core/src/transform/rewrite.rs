//! Structural rewriting helpers shared by the transform passes.

use rmt_ir::{Block, Builtin, FxHashMap, Inst, Reg};

/// Rewrites a block: `f` may claim an instruction by returning a
/// replacement sequence; unclaimed control flow recurses, everything else
/// copies through.
pub(crate) fn map_block(block: &Block, f: &mut impl FnMut(&Inst) -> Option<Vec<Inst>>) -> Block {
    let mut out = Vec::with_capacity(block.len());
    for inst in block.iter() {
        match f(inst) {
            Some(seq) => out.extend(seq),
            None => match inst {
                Inst::If {
                    cond,
                    then_blk,
                    else_blk,
                } => out.push(Inst::If {
                    cond: *cond,
                    then_blk: map_block(then_blk, f),
                    else_blk: map_block(else_blk, f),
                }),
                Inst::While {
                    cond,
                    cond_reg,
                    body,
                } => out.push(Inst::While {
                    cond: map_block(cond, f),
                    cond_reg: *cond_reg,
                    body: map_block(body, f),
                }),
                other => out.push(other.clone()),
            },
        }
    }
    Block(out)
}

/// Replaces reads of remapped builtins with copies of prologue-computed
/// registers. Returns `Some` replacement when the builtin is in the map.
pub(crate) fn rewrite_builtin(inst: &Inst, map: &FxHashMap<Builtin, Reg>) -> Option<Vec<Inst>> {
    if let Inst::ReadBuiltin { dst, builtin } = inst {
        if let Some(&src) = map.get(builtin) {
            return Some(vec![Inst::Mov { dst: *dst, src }]);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmt_ir::{Dim, KernelBuilder};

    #[test]
    fn map_block_recurses_and_replaces() {
        let mut b = KernelBuilder::new("t");
        let c = b.const_u32(1);
        b.if_(c, |b| {
            b.barrier();
        });
        let k = b.finish();
        // Replace every Barrier with two consts.
        let rewritten = map_block(&k.body, &mut |i| {
            matches!(i, Inst::Barrier).then(|| {
                vec![
                    Inst::Const {
                        dst: Reg(50),
                        ty: rmt_ir::Ty::U32,
                        bits: 0,
                    },
                    Inst::Const {
                        dst: Reg(51),
                        ty: rmt_ir::Ty::U32,
                        bits: 1,
                    },
                ]
            })
        });
        match &rewritten.0[1] {
            Inst::If { then_blk, .. } => assert_eq!(then_blk.len(), 2),
            other => panic!("expected If, got {other:?}"),
        }
    }

    #[test]
    fn builtin_rewrite_only_touches_mapped() {
        let mut map = FxHashMap::default();
        map.insert(Builtin::GlobalId(Dim(0)), Reg(99));
        let hit = Inst::ReadBuiltin {
            dst: Reg(1),
            builtin: Builtin::GlobalId(Dim(0)),
        };
        let miss = Inst::ReadBuiltin {
            dst: Reg(2),
            builtin: Builtin::GlobalId(Dim(1)),
        };
        assert_eq!(
            rewrite_builtin(&hit, &map),
            Some(vec![Inst::Mov {
                dst: Reg(1),
                src: Reg(99)
            }])
        );
        assert_eq!(rewrite_builtin(&miss, &map), None);
    }
}
