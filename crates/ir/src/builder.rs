//! Ergonomic construction of [`Kernel`]s.

use crate::fxhash::FxHashMap;
use crate::inst::{
    AtomicOp, BinOp, Block, Builtin, CmpOp, Dim, Inst, MemSpace, Reg, SwizzleMode, UnOp,
};
use crate::kernel::{Kernel, Param, ParamKind};
use crate::types::Ty;

/// Builds a [`Kernel`] with structured control flow via closures.
///
/// The builder keeps a stack of open blocks; [`KernelBuilder::if_`],
/// [`KernelBuilder::if_else`] and [`KernelBuilder::while_`] push a nested
/// block, run the supplied closure, and pop it back into the containing
/// instruction. See the crate-level docs for a complete example.
#[derive(Debug)]
pub struct KernelBuilder {
    name: String,
    params: Vec<Param>,
    lds_bytes: u32,
    next_reg: u32,
    stack: Vec<Vec<Inst>>,
    const_cache: FxHashMap<u32, Reg>,
}

macro_rules! bin_helpers {
    ($( $(#[$doc:meta])* $fn_name:ident => ($op:ident, $ty:ident) ),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $fn_name(&mut self, a: Reg, b: Reg) -> Reg {
                self.binary(BinOp::$op, Ty::$ty, a, b)
            }
        )*
    };
}

macro_rules! cmp_helpers {
    ($( $(#[$doc:meta])* $fn_name:ident => ($op:ident, $ty:ident) ),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $fn_name(&mut self, a: Reg, b: Reg) -> Reg {
                self.cmp(CmpOp::$op, Ty::$ty, a, b)
            }
        )*
    };
}

macro_rules! un_helpers {
    ($( $(#[$doc:meta])* $fn_name:ident => $op:ident ),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $fn_name(&mut self, a: Reg) -> Reg {
                self.unary(UnOp::$op, a)
            }
        )*
    };
}

impl KernelBuilder {
    /// Starts building a kernel with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            params: Vec::new(),
            lds_bytes: 0,
            next_reg: 0,
            stack: vec![Vec::new()],
            const_cache: FxHashMap::default(),
        }
    }

    /// Declares the kernel's per-work-group LDS allocation, in bytes.
    pub fn set_lds_bytes(&mut self, bytes: u32) {
        self.lds_bytes = bytes;
    }

    /// Allocates a fresh virtual register without emitting anything.
    pub fn fresh(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Emits a raw instruction into the current block.
    pub fn emit(&mut self, inst: Inst) {
        self.stack
            .last_mut()
            .expect("builder block stack is never empty")
            .push(inst);
    }

    // ---- parameters ------------------------------------------------------

    /// Declares a buffer parameter and returns a register holding its base
    /// byte address in the global space.
    pub fn buffer_param(&mut self, name: impl Into<String>) -> Reg {
        self.param(name, ParamKind::Buffer)
    }

    /// Declares a 32-bit scalar parameter and returns a register holding it.
    pub fn scalar_param(&mut self, name: impl Into<String>, ty: Ty) -> Reg {
        self.param(name, ParamKind::Scalar(ty))
    }

    fn param(&mut self, name: impl Into<String>, kind: ParamKind) -> Reg {
        let index = self.params.len();
        self.params.push(Param {
            name: name.into(),
            kind,
        });
        let dst = self.fresh();
        self.emit(Inst::ReadParam { dst, index });
        dst
    }

    // ---- constants & builtins -------------------------------------------

    /// Materializes an unsigned 32-bit constant (cached at kernel top level).
    pub fn const_u32(&mut self, v: u32) -> Reg {
        // Only cache constants emitted in the outermost block: a register
        // first defined inside a branch must not be reused outside it.
        if self.stack.len() == 1 {
            if let Some(&r) = self.const_cache.get(&v) {
                return r;
            }
        }
        let dst = self.fresh();
        self.emit(Inst::Const {
            dst,
            ty: Ty::U32,
            bits: v,
        });
        if self.stack.len() == 1 {
            self.const_cache.insert(v, dst);
        }
        dst
    }

    /// Materializes a signed 32-bit constant.
    pub fn const_i32(&mut self, v: i32) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::Const {
            dst,
            ty: Ty::I32,
            bits: v as u32,
        });
        dst
    }

    /// Materializes a float constant.
    pub fn const_f32(&mut self, v: f32) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::Const {
            dst,
            ty: Ty::F32,
            bits: v.to_bits(),
        });
        dst
    }

    /// Reads a builtin into a fresh register.
    pub fn builtin(&mut self, builtin: Builtin) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::ReadBuiltin { dst, builtin });
        dst
    }

    /// `get_global_id(dim)`.
    pub fn global_id(&mut self, dim: u8) -> Reg {
        self.builtin(Builtin::GlobalId(Dim(dim)))
    }

    /// `get_local_id(dim)`.
    pub fn local_id(&mut self, dim: u8) -> Reg {
        self.builtin(Builtin::LocalId(Dim(dim)))
    }

    /// `get_group_id(dim)`.
    pub fn group_id(&mut self, dim: u8) -> Reg {
        self.builtin(Builtin::GroupId(Dim(dim)))
    }

    /// `get_global_size(dim)`.
    pub fn global_size(&mut self, dim: u8) -> Reg {
        self.builtin(Builtin::GlobalSize(Dim(dim)))
    }

    /// `get_local_size(dim)`.
    pub fn local_size(&mut self, dim: u8) -> Reg {
        self.builtin(Builtin::LocalSize(Dim(dim)))
    }

    /// `get_num_groups(dim)`.
    pub fn num_groups(&mut self, dim: u8) -> Reg {
        self.builtin(Builtin::NumGroups(Dim(dim)))
    }

    // ---- ALU --------------------------------------------------------------

    /// Emits a binary operation into a fresh register.
    pub fn binary(&mut self, op: BinOp, ty: Ty, a: Reg, b: Reg) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::Binary { dst, op, ty, a, b });
        dst
    }

    /// Emits a comparison into a fresh boolean register.
    pub fn cmp(&mut self, op: CmpOp, ty: Ty, a: Reg, b: Reg) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::Cmp { dst, op, ty, a, b });
        dst
    }

    /// Emits a unary operation into a fresh register.
    pub fn unary(&mut self, op: UnOp, a: Reg) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::Unary { dst, op, a });
        dst
    }

    /// `dst = cond ? t : f` without branching.
    pub fn select(&mut self, cond: Reg, t: Reg, f: Reg) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::Select {
            dst,
            cond,
            if_true: t,
            if_false: f,
        });
        dst
    }

    /// Copies `src` into `dst` (used for loop-carried variables).
    pub fn mov_to(&mut self, dst: Reg, src: Reg) {
        self.emit(Inst::Mov { dst, src });
    }

    bin_helpers! {
        /// `a + b` as u32 (wrapping).
        add_u32 => (Add, U32),
        /// `a - b` as u32 (wrapping).
        sub_u32 => (Sub, U32),
        /// `a * b` as u32 (wrapping).
        mul_u32 => (Mul, U32),
        /// `a / b` as u32 (0 on division by zero).
        div_u32 => (Div, U32),
        /// `a % b` as u32 (0 on division by zero).
        rem_u32 => (Rem, U32),
        /// Bitwise `a & b`.
        and_u32 => (And, U32),
        /// Bitwise `a | b`.
        or_u32 => (Or, U32),
        /// Bitwise `a ^ b`.
        xor_u32 => (Xor, U32),
        /// `a << b` (shift masked to 5 bits).
        shl_u32 => (Shl, U32),
        /// `a >> b` logical.
        shr_u32 => (Shr, U32),
        /// `min(a, b)` unsigned.
        min_u32 => (Min, U32),
        /// `max(a, b)` unsigned.
        max_u32 => (Max, U32),
        /// `a + b` as i32 (wrapping).
        add_i32 => (Add, I32),
        /// `a - b` as i32 (wrapping).
        sub_i32 => (Sub, I32),
        /// `a * b` as i32 (wrapping).
        mul_i32 => (Mul, I32),
        /// `min(a, b)` signed.
        min_i32 => (Min, I32),
        /// `max(a, b)` signed.
        max_i32 => (Max, I32),
        /// `a >> b` arithmetic.
        shr_i32 => (Shr, I32),
        /// `a + b` as f32.
        add_f32 => (Add, F32),
        /// `a - b` as f32.
        sub_f32 => (Sub, F32),
        /// `a * b` as f32.
        mul_f32 => (Mul, F32),
        /// `a / b` as f32.
        div_f32 => (Div, F32),
        /// `min(a, b)` as f32.
        min_f32 => (Min, F32),
        /// `max(a, b)` as f32.
        max_f32 => (Max, F32),
    }

    cmp_helpers! {
        /// `a == b` (u32).
        eq_u32 => (Eq, U32),
        /// `a != b` (u32).
        ne_u32 => (Ne, U32),
        /// `a < b` (u32).
        lt_u32 => (Lt, U32),
        /// `a <= b` (u32).
        le_u32 => (Le, U32),
        /// `a > b` (u32).
        gt_u32 => (Gt, U32),
        /// `a >= b` (u32).
        ge_u32 => (Ge, U32),
        /// `a < b` (i32).
        lt_i32 => (Lt, I32),
        /// `a > b` (i32).
        gt_i32 => (Gt, I32),
        /// `a == b` (f32).
        eq_f32 => (Eq, F32),
        /// `a < b` (f32).
        lt_f32 => (Lt, F32),
        /// `a > b` (f32).
        gt_f32 => (Gt, F32),
        /// `a <= b` (f32).
        le_f32 => (Le, F32),
        /// `a >= b` (f32).
        ge_f32 => (Ge, F32),
    }

    un_helpers! {
        /// Bitwise NOT.
        not => Not,
        /// `|a|` (type-directed via bit clear on f32 pattern).
        abs_f32 => Abs,
        /// `exp(a)`.
        exp_f32 => Exp,
        /// `ln(a)`.
        log_f32 => Log,
        /// `sqrt(a)`.
        sqrt_f32 => Sqrt,
        /// `1/sqrt(a)`.
        rsqrt_f32 => Rsqrt,
        /// `sin(a)`.
        sin_f32 => Sin,
        /// `cos(a)`.
        cos_f32 => Cos,
        /// `floor(a)`.
        floor_f32 => Floor,
        /// Truncate f32 to i32.
        f32_to_i32 => F32ToI32,
        /// Convert i32 to f32.
        i32_to_f32 => I32ToF32,
        /// Convert u32 to f32.
        u32_to_f32 => U32ToF32,
        /// Truncate f32 to u32.
        f32_to_u32 => F32ToU32,
    }

    // ---- memory ------------------------------------------------------------

    /// Byte address of the `idx`-th 32-bit element relative to `base`:
    /// `base + idx * 4`.
    pub fn elem_addr(&mut self, base: Reg, idx: Reg) -> Reg {
        let four = self.const_u32(4);
        let off = self.mul_u32(idx, four);
        self.add_u32(base, off)
    }

    /// Loads 32 bits from global memory.
    pub fn load_global(&mut self, addr: Reg) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::Load {
            dst,
            space: MemSpace::Global,
            addr,
        });
        dst
    }

    /// Stores 32 bits to global memory.
    pub fn store_global(&mut self, addr: Reg, value: Reg) {
        self.emit(Inst::Store {
            space: MemSpace::Global,
            addr,
            value,
        });
    }

    /// Loads 32 bits from the LDS.
    pub fn load_local(&mut self, addr: Reg) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::Load {
            dst,
            space: MemSpace::Local,
            addr,
        });
        dst
    }

    /// Stores 32 bits to the LDS.
    pub fn store_local(&mut self, addr: Reg, value: Reg) {
        self.emit(Inst::Store {
            space: MemSpace::Local,
            addr,
            value,
        });
    }

    /// Emits an atomic RMW, returning the old value.
    pub fn atomic(&mut self, space: MemSpace, op: AtomicOp, addr: Reg, value: Reg) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::Atomic {
            dst: Some(dst),
            space,
            op,
            addr,
            value,
        });
        dst
    }

    /// Emits an atomic RMW whose old value is discarded.
    pub fn atomic_noret(&mut self, space: MemSpace, op: AtomicOp, addr: Reg, value: Reg) {
        self.emit(Inst::Atomic {
            dst: None,
            space,
            op,
            addr,
            value,
        });
    }

    /// Work-group barrier.
    pub fn barrier(&mut self) {
        self.emit(Inst::Barrier);
    }

    /// Intra-wavefront lane exchange.
    pub fn swizzle(&mut self, src: Reg, mode: SwizzleMode) -> Reg {
        let dst = self.fresh();
        self.emit(Inst::Swizzle { dst, src, mode });
        dst
    }

    // ---- control flow ------------------------------------------------------

    /// `if (cond) { then }`.
    pub fn if_(&mut self, cond: Reg, then: impl FnOnce(&mut Self)) {
        self.if_else(cond, then, |_| {});
    }

    /// `if (cond) { then } else { els }`.
    pub fn if_else(
        &mut self,
        cond: Reg,
        then: impl FnOnce(&mut Self),
        els: impl FnOnce(&mut Self),
    ) {
        self.stack.push(Vec::new());
        then(self);
        let then_blk = Block(self.stack.pop().expect("then block"));
        self.stack.push(Vec::new());
        els(self);
        let else_blk = Block(self.stack.pop().expect("else block"));
        self.emit(Inst::If {
            cond,
            then_blk,
            else_blk,
        });
    }

    /// `while (cond()) { body }`. The `cond` closure runs each iteration and
    /// returns the register tested.
    pub fn while_(&mut self, cond: impl FnOnce(&mut Self) -> Reg, body: impl FnOnce(&mut Self)) {
        self.stack.push(Vec::new());
        let cond_reg = cond(self);
        let cond_blk = Block(self.stack.pop().expect("cond block"));
        self.stack.push(Vec::new());
        body(self);
        let body_blk = Block(self.stack.pop().expect("body block"));
        self.emit(Inst::While {
            cond: cond_blk,
            cond_reg,
            body: body_blk,
        });
    }

    /// Counted loop `for i in start..end { body(i) }` with a u32 counter.
    /// `start` and `end` are registers; the body receives the counter.
    pub fn for_range(&mut self, start: Reg, end: Reg, body: impl FnOnce(&mut Self, Reg)) {
        let i = self.fresh();
        self.mov_to(i, start);
        let one = self.const_u32(1);
        self.while_(
            |b| b.lt_u32(i, end),
            |b| {
                body(b, i);
                let next = b.add_u32(i, one);
                b.mov_to(i, next);
            },
        );
    }

    /// Finishes the kernel.
    ///
    /// # Panics
    ///
    /// Panics if called while a nested block is still open (programming
    /// error in the builder's user — impossible through the closure API).
    pub fn finish(mut self) -> Kernel {
        assert_eq!(
            self.stack.len(),
            1,
            "finish() called with unclosed nested blocks"
        );
        Kernel {
            name: self.name,
            params: self.params,
            lds_bytes: self.lds_bytes,
            body: Block(self.stack.pop().expect("kernel body")),
            next_reg: self.next_reg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_cached_at_top_level_only() {
        let mut b = KernelBuilder::new("k");
        let a = b.const_u32(7);
        let c = b.const_u32(7);
        assert_eq!(a, c, "top-level constants are cached");
        let mut inner = None;
        let cond = b.const_u32(1);
        b.if_(cond, |b| {
            inner = Some(b.const_u32(99));
        });
        let outer = b.const_u32(99);
        assert_ne!(inner.unwrap(), outer, "branch-local constants not cached");
    }

    #[test]
    fn structured_blocks_nest() {
        let mut b = KernelBuilder::new("k");
        let c = b.const_u32(1);
        b.if_else(
            c,
            |b| {
                let d = b.const_u32(2);
                b.if_(d, |b| {
                    b.barrier();
                });
            },
            |b| {
                b.barrier();
            },
        );
        let k = b.finish();
        assert_eq!(k.body.len(), 2); // const + if
        assert_eq!(k.total_insts(), 6);
    }

    #[test]
    fn while_produces_cond_and_body() {
        let mut b = KernelBuilder::new("k");
        let zero = b.const_u32(0);
        let ten = b.const_u32(10);
        b.for_range(zero, ten, |b, i| {
            let a = b.elem_addr(zero, i);
            let v = b.load_global(a);
            b.store_global(a, v);
        });
        let k = b.finish();
        let loops = k.count_insts(|i| matches!(i, Inst::While { .. }));
        assert_eq!(loops, 1);
        assert!(crate::validate(&k).is_ok());
    }

    #[test]
    fn params_are_positional() {
        let mut b = KernelBuilder::new("k");
        let _x = b.buffer_param("x");
        let _s = b.scalar_param("n", Ty::U32);
        let k = b.finish();
        assert_eq!(k.params.len(), 2);
        assert_eq!(k.params[0].kind, ParamKind::Buffer);
        assert_eq!(k.params[1].kind, ParamKind::Scalar(Ty::U32));
    }

    #[test]
    #[should_panic(expected = "unclosed")]
    fn finish_panics_on_open_block() {
        let mut b = KernelBuilder::new("k");
        b.stack.push(Vec::new()); // simulate corruption
        let _ = b.finish();
    }
}
