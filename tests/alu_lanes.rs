//! The simulator's lane-array ALU evaluators against the scalar ones they
//! are built from: for every operator and type, each active lane must be
//! bit-identical to the scalar `eval_*`, and every inactive lane must keep
//! the value it had.

use gpu_rmt::ir::{BinOp, CmpOp, Ty, UnOp};
use gpu_rmt::sim::alu::{self, LANES};

const BIN_OPS: [BinOp; 12] = [
    BinOp::Add,
    BinOp::Sub,
    BinOp::Mul,
    BinOp::Div,
    BinOp::Rem,
    BinOp::Min,
    BinOp::Max,
    BinOp::And,
    BinOp::Or,
    BinOp::Xor,
    BinOp::Shl,
    BinOp::Shr,
];
const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];
const UN_OPS: [UnOp; 14] = [
    UnOp::Not,
    UnOp::Neg,
    UnOp::Abs,
    UnOp::Exp,
    UnOp::Log,
    UnOp::Sqrt,
    UnOp::Rsqrt,
    UnOp::Sin,
    UnOp::Cos,
    UnOp::Floor,
    UnOp::F32ToI32,
    UnOp::I32ToF32,
    UnOp::U32ToF32,
    UnOp::F32ToU32,
];
const TYS: [Ty; 3] = [Ty::U32, Ty::I32, Ty::F32];

/// Integer and float edge values: 0, 1, -1 / `u32::MAX`, `i32::MIN`,
/// shift amounts at and past 32, ±0.0, ±inf, subnormals, and quiet and
/// signalling NaNs with payloads.
const EDGES: [u32; 24] = [
    0,
    1,
    2,
    u32::MAX,
    i32::MIN as u32,
    i32::MAX as u32,
    31,
    32,
    33,
    63,
    0x8000_0000, // -0.0
    0x7F80_0000, // +inf
    0xFF80_0000, // -inf
    0x0000_0001, // smallest subnormal
    0x807F_FFFF, // largest negative subnormal
    0x7FC0_0000, // quiet NaN
    0xFFC1_2345, // negative quiet NaN with payload
    0x7F80_0001, // signalling NaN
    0xFFA0_0F0F, // negative signalling NaN with payload
    0x3F80_0000, // 1.0
    0xBFC0_0000, // -1.5
    0x7F7F_FFFF, // f32::MAX
    0x4F00_0000, // 2^31 as f32
    0xCF00_0001, // just below -2^31 as f32
];

/// A small xorshift stream, so the random words repeat on every run.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u32 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 16) as u32
    }
}

/// Operand pairs as lane arrays: every pair of edge values, then seeded
/// random words.
fn operand_batches() -> Vec<([u32; LANES], [u32; LANES])> {
    let mut pairs: Vec<(u32, u32)> = EDGES
        .iter()
        .flat_map(|&a| EDGES.iter().map(move |&b| (a, b)))
        .collect();
    let mut rng = Rng(0x2545_F491_4F6C_DD1D);
    pairs.extend((0..LANES * 8).map(|_| (rng.next(), rng.next())));
    pairs
        .chunks(LANES)
        .map(|c| {
            let a = std::array::from_fn(|l| c[l % c.len()].0);
            let b = std::array::from_fn(|l| c[l % c.len()].1);
            (a, b)
        })
        .collect()
}

fn masks() -> Vec<u64> {
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let mut m = vec![
        u64::MAX,
        0,
        1,
        1 << 63,
        0x5555_5555_5555_5555,
        0x0000_FFFF_0000_0000,
    ];
    m.extend((0..4).map(|_| u64::from(rng.next()) << 32 | u64::from(rng.next())));
    m
}

/// Runs one lane-array evaluation on a destination pre-filled with a
/// marker pattern and checks it lane by lane against `scalar`.
fn check(
    what: &str,
    mask: u64,
    run: impl FnOnce(&mut [u32; LANES]),
    scalar: impl Fn(usize) -> u32,
) {
    let before: [u32; LANES] = std::array::from_fn(|l| 0xDEAD_0000 | l as u32);
    let mut out = before;
    run(&mut out);
    for l in 0..LANES {
        let want = if mask >> l & 1 == 1 {
            scalar(l)
        } else {
            before[l]
        };
        assert_eq!(
            out[l], want,
            "{what}, lane {l}, mask {mask:#018x}: got {:#010x}, want {want:#010x}",
            out[l]
        );
    }
}

#[test]
fn binary_lanes_match_scalar_eval_bin() {
    for (a, b) in operand_batches() {
        for mask in masks() {
            for ty in TYS {
                for op in BIN_OPS {
                    check(
                        &format!("{op:?} {ty:?}"),
                        mask,
                        |out| alu::eval_bin_lanes(op, ty, &a, &b, mask, out),
                        |l| alu::eval_bin(op, ty, a[l], b[l]),
                    );
                }
            }
        }
    }
}

#[test]
fn compare_lanes_match_scalar_eval_cmp() {
    for (a, b) in operand_batches() {
        for mask in masks() {
            for ty in TYS {
                for op in CMP_OPS {
                    check(
                        &format!("{op:?} {ty:?}"),
                        mask,
                        |out| alu::eval_cmp_lanes(op, ty, &a, &b, mask, out),
                        |l| alu::eval_cmp(op, ty, a[l], b[l]),
                    );
                }
            }
        }
    }
}

#[test]
fn unary_lanes_match_scalar_eval_un() {
    for (a, _) in operand_batches() {
        for mask in masks() {
            for op in UN_OPS {
                check(
                    &format!("{op:?}"),
                    mask,
                    |out| alu::eval_un_lanes(op, &a, mask, out),
                    |l| alu::eval_un(op, a[l]),
                );
            }
        }
    }
}
