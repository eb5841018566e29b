//! Pure per-lane ALU semantics, and their lane-array form.
//!
//! Every value is a 32-bit pattern; the instruction's [`Ty`] decides how the
//! pattern is interpreted. Division and remainder by zero produce 0 for
//! integer types (GPU convention) and follow IEEE-754 for floats.
//!
//! The scalar `eval_*` functions are the only definition of what an
//! operator does to one lane. The `*_fn` resolvers turn an operator (and
//! type) into a lane function: a loop in which the scalar function is
//! called with that operator as a constant, so the per-lane dispatch folds
//! away while the semantics stay defined in one place. The compiler
//! resolves each ALU op's lane function once per kernel; the public
//! `eval_*_lanes` forms resolve and run one in a single call.

use rmt_ir::{BinOp, CmpOp, Ty, UnOp};

/// Lanes in a wavefront: the length of every lane array here.
pub const LANES: usize = 64;

/// Ascending-order iterator over the set bits of an EXEC mask: a bit-scan
/// per active lane instead of a 64-iteration filter, so sparse masks
/// (divergent regions, partial tail waves) cost only their population.
pub(crate) struct Lanes(pub(crate) u64);

impl Iterator for Lanes {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            let l = self.0.trailing_zeros() as usize;
            self.0 &= self.0 - 1;
            Some(l)
        }
    }
}

/// Runs `f` on every lane set in `mask`, in ascending order: a plain
/// `0..LANES` loop when the mask is full, a bit-scan otherwise.
#[inline(always)]
pub(crate) fn each_lane(mask: u64, mut f: impl FnMut(usize)) {
    if mask == u64::MAX {
        for l in 0..LANES {
            f(l);
        }
    } else {
        for l in Lanes(mask) {
            f(l);
        }
    }
}

#[inline(always)]
fn map1(a: &[u32; LANES], mask: u64, out: &mut [u32; LANES], f: impl Fn(u32) -> u32) {
    each_lane(mask, |l| out[l] = f(a[l]));
}

#[inline(always)]
fn map2(
    a: &[u32; LANES],
    b: &[u32; LANES],
    mask: u64,
    out: &mut [u32; LANES],
    f: impl Fn(u32, u32) -> u32,
) {
    each_lane(mask, |l| out[l] = f(a[l], b[l]));
}

/// A two-operand lane function: `out[l] = f(a[l], b[l])` on every lane set
/// in the mask; the other lanes keep their value.
pub(crate) type Lanes2 = fn(&[u32; LANES], &[u32; LANES], u64, &mut [u32; LANES]);

/// A one-operand lane function: `out[l] = f(a[l])` on every lane set in the
/// mask; the other lanes keep their value.
pub(crate) type Lanes1 = fn(&[u32; LANES], u64, &mut [u32; LANES]);

/// The lane function of binary operator `op` at type `ty`. The pair is
/// resolved here once, when a kernel is compiled, into one monomorphic loop
/// that calls [`eval_bin`] with a constant operator.
pub(crate) fn bin_fn(op: BinOp, ty: Ty) -> Lanes2 {
    macro_rules! arms {
        ($($t:ident: $($o:ident)*;)*) => {
            match (ty, op) {
                $($((Ty::$t, BinOp::$o) => |a, b, mask, out| {
                    map2(a, b, mask, out, |x, y| eval_bin(BinOp::$o, Ty::$t, x, y))
                },)*)*
            }
        };
    }
    arms! {
        U32: Add Sub Mul Div Rem Min Max And Or Xor Shl Shr;
        I32: Add Sub Mul Div Rem Min Max And Or Xor Shl Shr;
        F32: Add Sub Mul Div Rem Min Max And Or Xor Shl Shr;
    }
}

/// The lane function of comparison `op` at type `ty`, resolved like
/// [`bin_fn`].
pub(crate) fn cmp_fn(op: CmpOp, ty: Ty) -> Lanes2 {
    macro_rules! arms {
        ($($t:ident: $($o:ident)*;)*) => {
            match (ty, op) {
                $($((Ty::$t, CmpOp::$o) => |a, b, mask, out| {
                    map2(a, b, mask, out, |x, y| eval_cmp(CmpOp::$o, Ty::$t, x, y))
                },)*)*
            }
        };
    }
    arms! {
        U32: Eq Ne Lt Le Gt Ge;
        I32: Eq Ne Lt Le Gt Ge;
        F32: Eq Ne Lt Le Gt Ge;
    }
}

/// The lane function of unary operator `op`, resolved like [`bin_fn`].
pub(crate) fn un_fn(op: UnOp) -> Lanes1 {
    macro_rules! arms {
        ($($o:ident)*) => {
            match op {
                $(UnOp::$o => |a, mask, out| map1(a, mask, out, |x| eval_un(UnOp::$o, x)),)*
            }
        };
    }
    arms!(Not Neg Abs Exp Log Sqrt Rsqrt Sin Cos Floor F32ToI32 I32ToF32 U32ToF32 F32ToU32)
}

/// [`eval_bin`] on every lane set in `mask`: `out[l] = a[l] op b[l]`.
/// Lanes outside `mask` keep their value.
pub fn eval_bin_lanes(
    op: BinOp,
    ty: Ty,
    a: &[u32; LANES],
    b: &[u32; LANES],
    mask: u64,
    out: &mut [u32; LANES],
) {
    bin_fn(op, ty)(a, b, mask, out)
}

/// [`eval_cmp`] on every lane set in `mask`: `out[l] = (a[l] op b[l]) as
/// u32`. Lanes outside `mask` keep their value.
pub fn eval_cmp_lanes(
    op: CmpOp,
    ty: Ty,
    a: &[u32; LANES],
    b: &[u32; LANES],
    mask: u64,
    out: &mut [u32; LANES],
) {
    cmp_fn(op, ty)(a, b, mask, out)
}

/// [`eval_un`] on every lane set in `mask`: `out[l] = op a[l]`. Lanes
/// outside `mask` keep their value.
pub fn eval_un_lanes(op: UnOp, a: &[u32; LANES], mask: u64, out: &mut [u32; LANES]) {
    un_fn(op)(a, mask, out)
}

/// Evaluates a binary operator on two 32-bit patterns at type `ty`.
#[inline]
pub fn eval_bin(op: BinOp, ty: Ty, a: u32, b: u32) -> u32 {
    match ty {
        Ty::U32 => eval_bin_u32(op, a, b),
        Ty::I32 => eval_bin_i32(op, a as i32, b as i32) as u32,
        Ty::F32 => eval_bin_f32(op, f32::from_bits(a), f32::from_bits(b)).to_bits(),
    }
}

#[inline]
fn eval_bin_u32(op: BinOp, a: u32, b: u32) -> u32 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => a.checked_div(b).unwrap_or(0),
        BinOp::Rem => a.checked_rem(b).unwrap_or(0),
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b & 31),
        BinOp::Shr => a.wrapping_shr(b & 31),
    }
}

#[inline]
fn eval_bin_i32(op: BinOp, a: i32, b: i32) -> i32 {
    match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                0
            } else {
                a.wrapping_div(b)
            }
        }
        BinOp::Rem => {
            if b == 0 {
                0
            } else {
                a.wrapping_rem(b)
            }
        }
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b as u32 & 31),
        BinOp::Shr => a.wrapping_shr(b as u32 & 31),
    }
}

/// Pins the NaN an arithmetic op returns to one rule: a NaN operand
/// propagates quieted, the first one winning; with no NaN operand, the
/// hardware's default NaN stands. Rust leaves NaN payloads unspecified and
/// the compiler may commute operands (it does in vectorized lane loops), so
/// without this two NaN inputs could give either payload. The rule is the
/// one x86 SSE applies to scalar operands.
#[inline]
fn pin_nan(a: f32, b: f32, r: f32) -> f32 {
    const QUIET: u32 = 0x0040_0000;
    if !r.is_nan() {
        r
    } else if a.is_nan() {
        f32::from_bits(a.to_bits() | QUIET)
    } else if b.is_nan() {
        f32::from_bits(b.to_bits() | QUIET)
    } else {
        r
    }
}

#[inline]
fn eval_bin_f32(op: BinOp, a: f32, b: f32) -> f32 {
    match op {
        BinOp::Add => pin_nan(a, b, a + b),
        BinOp::Sub => pin_nan(a, b, a - b),
        BinOp::Mul => pin_nan(a, b, a * b),
        BinOp::Div => pin_nan(a, b, a / b),
        BinOp::Rem => a % b,
        BinOp::Min => a.min(b),
        BinOp::Max => a.max(b),
        // Validation rejects these; keep a defined result anyway.
        BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr => f32::NAN,
    }
}

/// Evaluates a comparison at type `ty`, returning 0 or 1.
#[inline]
pub fn eval_cmp(op: CmpOp, ty: Ty, a: u32, b: u32) -> u32 {
    let r = match ty {
        Ty::U32 => match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        },
        Ty::I32 => {
            let (a, b) = (a as i32, b as i32);
            match op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
            }
        }
        Ty::F32 => {
            let (a, b) = (f32::from_bits(a), f32::from_bits(b));
            match op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
            }
        }
    };
    r as u32
}

/// Evaluates a unary operator on a 32-bit pattern.
#[inline]
pub fn eval_un(op: UnOp, a: u32) -> u32 {
    match op {
        UnOp::Not => !a,
        UnOp::Neg => (f32::from_bits(a)).to_bits() ^ 0x8000_0000,
        UnOp::Abs => f32::from_bits(a).abs().to_bits(),
        UnOp::Exp => f32::from_bits(a).exp().to_bits(),
        UnOp::Log => f32::from_bits(a).ln().to_bits(),
        UnOp::Sqrt => f32::from_bits(a).sqrt().to_bits(),
        UnOp::Rsqrt => (1.0 / f32::from_bits(a).sqrt()).to_bits(),
        UnOp::Sin => f32::from_bits(a).sin().to_bits(),
        UnOp::Cos => f32::from_bits(a).cos().to_bits(),
        UnOp::Floor => f32::from_bits(a).floor().to_bits(),
        UnOp::F32ToI32 => {
            let f = f32::from_bits(a);
            if f.is_nan() {
                0
            } else {
                (f as i32) as u32 // `as` saturates in Rust
            }
        }
        UnOp::I32ToF32 => (a as i32 as f32).to_bits(),
        UnOp::U32ToF32 => (a as f32).to_bits(),
        UnOp::F32ToU32 => {
            let f = f32::from_bits(a);
            if f.is_nan() {
                0
            } else {
                f as u32
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f(x: f32) -> u32 {
        x.to_bits()
    }

    #[test]
    fn u32_arithmetic_wraps() {
        assert_eq!(eval_bin(BinOp::Add, Ty::U32, u32::MAX, 1), 0);
        assert_eq!(eval_bin(BinOp::Sub, Ty::U32, 0, 1), u32::MAX);
        assert_eq!(eval_bin(BinOp::Mul, Ty::U32, 1 << 31, 2), 0);
    }

    #[test]
    fn division_by_zero_is_zero_for_ints() {
        assert_eq!(eval_bin(BinOp::Div, Ty::U32, 5, 0), 0);
        assert_eq!(eval_bin(BinOp::Rem, Ty::U32, 5, 0), 0);
        assert_eq!(eval_bin(BinOp::Div, Ty::I32, -5i32 as u32, 0), 0);
        // i32::MIN / -1 must not trap.
        assert_eq!(
            eval_bin(BinOp::Div, Ty::I32, i32::MIN as u32, -1i32 as u32),
            i32::MIN as u32
        );
    }

    #[test]
    fn signed_vs_unsigned_compare() {
        let a = -1i32 as u32; // 0xFFFF_FFFF
        assert_eq!(eval_cmp(CmpOp::Lt, Ty::I32, a, 0), 1);
        assert_eq!(eval_cmp(CmpOp::Lt, Ty::U32, a, 0), 0);
        assert_eq!(eval_cmp(CmpOp::Gt, Ty::U32, a, 0), 1);
    }

    #[test]
    fn float_ops_roundtrip_bits() {
        assert_eq!(eval_bin(BinOp::Add, Ty::F32, f(1.5), f(2.5)), f(4.0));
        assert_eq!(
            eval_bin(BinOp::Div, Ty::F32, f(1.0), f(0.0)),
            f(f32::INFINITY)
        );
        assert_eq!(eval_bin(BinOp::Max, Ty::F32, f(-3.0), f(2.0)), f(2.0));
    }

    #[test]
    fn shift_masks_amount() {
        assert_eq!(eval_bin(BinOp::Shl, Ty::U32, 1, 33), 2);
        assert_eq!(
            eval_bin(BinOp::Shr, Ty::I32, (-8i32) as u32, 1),
            (-4i32) as u32
        );
        assert_eq!(eval_bin(BinOp::Shr, Ty::U32, 0x8000_0000, 31), 1);
    }

    #[test]
    fn unary_transcendentals() {
        assert_eq!(eval_un(UnOp::Sqrt, f(4.0)), f(2.0));
        assert_eq!(eval_un(UnOp::Exp, f(0.0)), f(1.0));
        assert_eq!(eval_un(UnOp::Floor, f(2.9)), f(2.0));
        assert_eq!(eval_un(UnOp::Abs, f(-7.0)), f(7.0));
        assert_eq!(eval_un(UnOp::Neg, f(3.0)), f(-3.0));
        let r = f32::from_bits(eval_un(UnOp::Rsqrt, f(4.0)));
        assert!((r - 0.5).abs() < 1e-6);
    }

    #[test]
    fn conversions_saturate() {
        assert_eq!(eval_un(UnOp::F32ToI32, f(1e20)), i32::MAX as u32);
        assert_eq!(eval_un(UnOp::F32ToU32, f(-5.0)), 0);
        assert_eq!(eval_un(UnOp::F32ToI32, f(f32::NAN)), 0);
        assert_eq!(eval_un(UnOp::I32ToF32, (-2i32) as u32), f(-2.0));
        assert_eq!(eval_un(UnOp::U32ToF32, 7), f(7.0));
    }

    #[test]
    fn cmp_nan_is_unordered() {
        assert_eq!(eval_cmp(CmpOp::Eq, Ty::F32, f(f32::NAN), f(f32::NAN)), 0);
        assert_eq!(eval_cmp(CmpOp::Lt, Ty::F32, f(f32::NAN), f(1.0)), 0);
        assert_eq!(eval_cmp(CmpOp::Ne, Ty::F32, f(f32::NAN), f(1.0)), 1);
    }
}
