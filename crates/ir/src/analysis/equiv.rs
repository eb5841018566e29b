//! Symbolic translation validation for RMT transforms.
//!
//! The transform pipeline in `rmt-core` is trusted nowhere: every
//! original/transformed kernel pair can be re-proved equivalent after the
//! fact by the engine in this module. Both kernels are symbolically
//! executed over a shared hash-consed term domain — no external solver —
//! and two families of proof obligations are discharged:
//!
//! * **Observational equivalence** — every sphere-of-replication exit
//!   (global store/atomic, plus local stores when the LDS sits outside
//!   the sphere) in the transformed kernel writes, at the same exit
//!   index, the same kind/address/value terms under the same path
//!   condition as the original kernel.
//! * **Compare-dominance** — every detection compare inserted by the
//!   transform compares provably-equal replica values (so it can only
//!   fire on a real fault), and every covered exit is actually guarded
//!   by compares over *both* its address and its stored value, sourced
//!   cross-replica through the communication channel.
//!
//! The transformed kernel is walked with **two lock-step states** — the
//! producer (P) and consumer (C) replica — whose builtin reads are
//! related to the original's through per-flavor [`BuiltinView`]s (e.g.
//! Intra-Group RMT sees `local_id = 2·a + side` where the original sees
//! `a`). RMT machinery (role guards, channel traffic, the Inter-Group
//! ticket/full-empty protocol, detection counters) is abstracted through
//! the register sets in [`TvConfig`], normally derived from
//! `RmtKernel::provenance` by `rmt-core`.
//!
//! The term domain is deliberately small: affine polynomials over atoms
//! with wrapping `u32` coefficients, plus opaque interned operator
//! applications with a handful of sound rewrites (`(2a+1)>>1 = a`,
//! `(2a)&1 = 0`, equality via affine difference, …). Everything the
//! domain cannot prove becomes structured [`Residue`], never a panic —
//! the engine is total over validated kernels.
//!
//! What is **assumed**, not proved: the memory oracle is deterministic
//! (two loads of the same address at the same logical clock see the same
//! value — fault-free, data-race-free execution), replicated LDS halves
//! behave identically, the full/empty protocol is live, and `u32` shift
//! normalization treats values as ideal integers in `[0, 2^32)` with a
//! signed reading of affine coefficients. Timing and *fault-present*
//! behavior are out of scope — those are what the fault-injection
//! campaigns and the differential fuzz oracle measure dynamically.

use crate::analysis::uniformity::has_divergent_barrier;
use crate::fxhash::FxHashMap;
use crate::inst::{
    AtomicOp, BinOp, Block, Builtin, CmpOp, Dim, Inst, MemSpace, Reg, SwizzleMode, UnOp,
};
use crate::kernel::Kernel;
use crate::regset::{RegMap, RegSet};
use crate::types::Ty;
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Public configuration and report types
// ---------------------------------------------------------------------------

/// How a transformed kernel's raw builtin reads relate to the original's.
///
/// The lock-step walk models the *logical* work-item: the atom for
/// `LocalId(0)` always denotes the original kernel's local id. A view says
/// what the transformed (or, for Inter-Group, the original) kernel's
/// hardware builtin evaluates to in terms of those logical atoms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuiltinView {
    /// The builtin reads the logical atom unchanged.
    Identity,
    /// Doubled launch with adjacent-lane pairing: the raw value is
    /// `2·atom + side` (Intra-Group `local_id`/`global_id`).
    PairSplit,
    /// Doubled launch extent: the raw value is `2·atom` (Intra-Group
    /// `local_size`/`global_size`, Inter-Group `num_groups`).
    Doubled,
    /// Inter-Group original-side view: the logical group/global id is
    /// derived from the global work ticket `T` rather than the hardware
    /// group id (`group_id0 = T % num_groups0`, and so on).
    TicketDerived,
}

/// Register sets and walk parameters abstracting the RMT machinery.
///
/// `rmt-core` derives one of these per transformed kernel from its
/// provenance tags; [`Default`] (all sets empty, identity views) treats
/// the "transformed" kernel as plain user code, which is what
/// [`self_check`] uses.
#[derive(Debug, Clone, Default)]
pub struct TvConfig {
    /// Registers holding values received from the partner replica
    /// (channel loads, FAST swizzle results).
    pub channel_values: RegSet,
    /// Protocol registers: the ticket-counter atomic address, broadcast
    /// ticket loads, and full/empty wait-loop condition registers.
    pub protocol: RegSet,
    /// Destination registers of detection compares.
    pub detect_compares: RegSet,
    /// Guard condition registers whose `if`s are transform machinery
    /// (role guards and detect-compare guards) rather than user control
    /// flow — they contribute no path-condition entries.
    pub machinery_guards: RegSet,
    /// Address registers of communication-channel stores/loads/atomics.
    pub comm_addrs: RegSet,
    /// Address registers of detection-counter traffic (ignored by the
    /// walk: detection bumps are not observable outputs).
    pub detect_addrs: RegSet,
    /// Builtin views applied while walking the *original* kernel.
    pub orig_views: FxHashMap<Builtin, BuiltinView>,
    /// Builtin views applied while walking the *transformed* kernel.
    pub trans_views: FxHashMap<Builtin, BuiltinView>,
    /// Bytes subtracted from consumer-side local addresses (the
    /// duplicated-LDS offset under Intra+LDS), 0 when LDS is shared.
    pub lds_relocation: u32,
    /// Skip the first barrier of the transformed kernel when aligning
    /// memory clocks (the Inter-Group ticket-broadcast barrier has no
    /// counterpart in the original).
    pub skip_first_barrier: bool,
    /// Discharge the compare-dominance obligation (off for
    /// `RedundantNoComm`, which intentionally omits detection).
    pub check_coverage: bool,
    /// Treat local stores as sphere-of-replication exits needing compare
    /// coverage (Intra−LDS: the LDS is outside the sphere).
    pub cover_local_stores: bool,
    /// Selective hardening: exits whose enclosing block carries no
    /// detection compares at all are deliberately unprotected and exempt
    /// from the coverage obligation.
    pub selective: bool,
}

/// Classification of one unproved obligation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResidueKind {
    /// The two kernels record different numbers of sphere exits.
    ExitCount,
    /// Exit `index` differs in instruction kind or memory space.
    ExitKind {
        /// Index into the aligned exit sequence.
        index: usize,
    },
    /// Exit `index` writes an address not provably equal.
    ExitAddr {
        /// Index into the aligned exit sequence.
        index: usize,
    },
    /// Exit `index` writes a value (or atomic comparand) not provably
    /// equal.
    ExitValue {
        /// Index into the aligned exit sequence.
        index: usize,
    },
    /// Exit `index` executes under a different path condition.
    ExitPath {
        /// Index into the aligned exit sequence.
        index: usize,
    },
    /// Detection compare `index` compares values not provably equal in a
    /// fault-free run (it could fire spuriously — or was tampered with).
    CompareMismatch {
        /// Index into the transformed kernel's compare sequence.
        index: usize,
    },
    /// Exit `exit` lacks a channel-sourced detection compare over the
    /// given operand ("address" or "value").
    CompareUncovered {
        /// Index into the aligned exit sequence.
        exit: usize,
        /// Which operand is unguarded: `"address"` or `"value"`.
        operand: &'static str,
    },
    /// User-loop `ordinal`'s condition differs between the kernels (or
    /// between the two replicas).
    LoopCondMismatch {
        /// Zero-based ordinal of the user loop in walk order.
        ordinal: u32,
    },
    /// The kernels contain different numbers of user loops.
    LoopCount,
    /// The pair is outside the engine's supported fragment; see the
    /// residue detail for the reason.
    Unsupported,
}

/// One unproved obligation: a machine-readable kind plus a rendered
/// explanation with the symbolic terms involved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Residue {
    /// What kind of obligation failed.
    pub kind: ResidueKind,
    /// Human-readable detail, including rendered terms.
    pub detail: String,
}

/// Outcome of validating one kernel pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TvReport {
    /// Sphere exits whose equivalence (and, when requested, coverage)
    /// obligations all discharged.
    pub exits_proved: usize,
    /// Detection compares proved to compare equal fault-free values.
    pub compares_proved: usize,
    /// User loops whose conditions proved equal across kernels and
    /// replicas.
    pub loops_proved: usize,
    /// Every obligation that did not discharge, in walk order.
    pub residue: Vec<Residue>,
}

impl TvReport {
    /// `true` when every obligation discharged.
    #[must_use]
    pub fn proved(&self) -> bool {
        self.residue.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Term domain
// ---------------------------------------------------------------------------

/// Interned term handle; ids are creation-ordered, so equal construction
/// sequences yield equal ids (the determinism the `--jobs` test relies on).
type TermId = u32;

/// Leaf symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Atom {
    /// A *logical* builtin of the original kernel.
    Builtin(Builtin),
    /// Kernel parameter by index (shared prefix between the kernels).
    Param(usize),
    /// The Inter-Group logical work index (ticket pair number).
    Ticket,
    /// Loop-carried value of `reg` at an arbitrary iteration of user
    /// loop `ordinal` (the induction hypothesis: both replicas and the
    /// original agree on it).
    Havoc { ordinal: u32, reg: Reg },
    /// A value the engine deliberately does not model (e.g. a missed
    /// channel lookup); distinct opaques never compare equal.
    Opaque(u32),
}

/// Operator tag of an uninterpreted (or partially interpreted) node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum OpTag {
    Bin(BinOp, Ty),
    Un(UnOp),
    Cmp(CmpOp, Ty),
    /// `Ite(cond, then, else)` from branch merges and `Select`.
    Ite,
    /// `Load(addr, clock)`: the value a deterministic memory oracle
    /// returns for `addr` at logical time `clock`.
    Load(MemSpace),
    /// `AtomicOld(addr, value, clock[, cmp])`: the old value returned by
    /// the atomic with discriminant `u8` at logical time `clock`.
    AtomicOld(MemSpace, u8),
    /// Per-lane swizzle result outside the FAST channel abstraction.
    Swizzle(SwizzleMode),
}

/// A term: an affine polynomial, a leaf, or an operator application.
///
/// Affine parts are `(coefficient, term)` pairs sorted by term id with
/// wrapping-`u32` coefficients; parts never reference other `Affine`
/// nodes (construction flattens them), so structural equality of the
/// hash-consed nodes is canonical-form equality.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum TermKind {
    Affine { k: u32, parts: Vec<(u32, TermId)> },
    Atom(Atom),
    Op { tag: OpTag, args: Vec<TermId> },
}

/// Hash-consing arena. Interning gives O(1) congruence: two terms are
/// provably equal exactly when their ids coincide.
struct Arena {
    kinds: Vec<TermKind>,
    map: FxHashMap<TermKind, TermId>,
    next_opaque: u32,
}

/// Integer binary evaluation mirroring `gcn-sim`'s ALU bit-for-bit
/// (wrapping arithmetic, division by zero yields 0, shift counts masked
/// to 5 bits). Returns `None` for floats — float folding is unsound under
/// NaN payloads and needless for id-equality.
fn eval_bin_int(op: BinOp, ty: Ty, a: u32, b: u32) -> Option<u32> {
    if !ty.is_int() {
        return None;
    }
    let signed = ty == Ty::I32;
    Some(match op {
        BinOp::Add => a.wrapping_add(b),
        BinOp::Sub => a.wrapping_sub(b),
        BinOp::Mul => a.wrapping_mul(b),
        BinOp::Div => {
            if b == 0 {
                0
            } else if signed {
                (a as i32).wrapping_div(b as i32) as u32
            } else {
                a / b
            }
        }
        BinOp::Rem => {
            if b == 0 {
                0
            } else if signed {
                (a as i32).wrapping_rem(b as i32) as u32
            } else {
                a % b
            }
        }
        BinOp::Min => {
            if signed {
                (a as i32).min(b as i32) as u32
            } else {
                a.min(b)
            }
        }
        BinOp::Max => {
            if signed {
                (a as i32).max(b as i32) as u32
            } else {
                a.max(b)
            }
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => a.wrapping_shl(b & 31),
        BinOp::Shr => {
            if signed {
                ((a as i32).wrapping_shr(b & 31)) as u32
            } else {
                a.wrapping_shr(b & 31)
            }
        }
    })
}

/// Integer comparison evaluation mirroring the simulator (result 0/1).
fn eval_cmp_int(op: CmpOp, ty: Ty, a: u32, b: u32) -> Option<u32> {
    if !ty.is_int() {
        return None;
    }
    let r = if ty == Ty::I32 {
        let (a, b) = (a as i32, b as i32);
        match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    } else {
        match op {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    };
    Some(r as u32)
}

/// `true` for commutative integer operators whose opaque applications may
/// sort their arguments (floats are excluded: NaN payload propagation
/// makes even `Add` order-sensitive in principle, and order costs
/// nothing).
fn commutative_int(op: BinOp) -> bool {
    matches!(
        op,
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Min | BinOp::Max
    )
}

impl Arena {
    fn new() -> Self {
        Arena {
            kinds: Vec::new(),
            map: FxHashMap::default(),
            next_opaque: 0,
        }
    }

    fn intern(&mut self, kind: TermKind) -> TermId {
        if let Some(&id) = self.map.get(&kind) {
            return id;
        }
        let id = self.kinds.len() as TermId;
        self.kinds.push(kind.clone());
        self.map.insert(kind, id);
        id
    }

    fn cst(&mut self, k: u32) -> TermId {
        self.intern(TermKind::Affine {
            k,
            parts: Vec::new(),
        })
    }

    fn atom(&mut self, a: Atom) -> TermId {
        self.intern(TermKind::Atom(a))
    }

    fn fresh_opaque(&mut self) -> TermId {
        let n = self.next_opaque;
        self.next_opaque += 1;
        self.atom(Atom::Opaque(n))
    }

    fn as_const(&self, t: TermId) -> Option<u32> {
        match &self.kinds[t as usize] {
            TermKind::Affine { k, parts } if parts.is_empty() => Some(*k),
            _ => None,
        }
    }

    /// Views any term as an affine polynomial: `Affine` nodes decompose,
    /// everything else is `0 + 1·t`.
    fn parts_of(&self, t: TermId) -> (u32, Vec<(u32, TermId)>) {
        match &self.kinds[t as usize] {
            TermKind::Affine { k, parts } => (*k, parts.clone()),
            _ => (0, vec![(1, t)]),
        }
    }

    /// Canonicalizing affine constructor: merges duplicate parts with
    /// wrapping coefficient addition, drops zero coefficients, sorts by
    /// term id, and collapses `0 + 1·t` to `t`.
    fn mk_affine(&mut self, k: u32, raw: Vec<(u32, TermId)>) -> TermId {
        let mut merged: BTreeMap<TermId, u32> = BTreeMap::new();
        for (c, t) in raw {
            if c != 0 {
                let e = merged.entry(t).or_insert(0);
                *e = e.wrapping_add(c);
            }
        }
        let parts: Vec<(u32, TermId)> = merged
            .into_iter()
            .filter(|&(_, c)| c != 0)
            .map(|(t, c)| (c, t))
            .collect();
        if k == 0 && parts.len() == 1 && parts[0].0 == 1 {
            return parts[0].1;
        }
        self.intern(TermKind::Affine { k, parts })
    }

    fn add(&mut self, a: TermId, b: TermId) -> TermId {
        let (ka, mut pa) = self.parts_of(a);
        let (kb, pb) = self.parts_of(b);
        pa.extend(pb);
        self.mk_affine(ka.wrapping_add(kb), pa)
    }

    fn sub(&mut self, a: TermId, b: TermId) -> TermId {
        let (ka, mut pa) = self.parts_of(a);
        let (kb, pb) = self.parts_of(b);
        pa.extend(pb.into_iter().map(|(c, t)| (0u32.wrapping_sub(c), t)));
        self.mk_affine(ka.wrapping_sub(kb), pa)
    }

    fn scale(&mut self, a: TermId, c: u32) -> TermId {
        if c == 0 {
            return self.cst(0);
        }
        let (k, parts) = self.parts_of(a);
        let parts = parts
            .into_iter()
            .map(|(co, t)| (co.wrapping_mul(c), t))
            .collect();
        self.mk_affine(k.wrapping_mul(c), parts)
    }

    /// Normalizing operator constructor; every instruction result funnels
    /// through here so both walks see identical canonical forms.
    fn op(&mut self, tag: OpTag, mut args: Vec<TermId>) -> TermId {
        match &tag {
            OpTag::Bin(bop, ty) if ty.is_int() => {
                let (a, b) = (args[0], args[1]);
                if let (Some(x), Some(y)) = (self.as_const(a), self.as_const(b)) {
                    if let Some(v) = eval_bin_int(*bop, *ty, x, y) {
                        return self.cst(v);
                    }
                }
                match bop {
                    BinOp::Add => return self.add(a, b),
                    BinOp::Sub => return self.sub(a, b),
                    BinOp::Mul => {
                        if let Some(c) = self.as_const(a) {
                            return self.scale(b, c);
                        }
                        if let Some(c) = self.as_const(b) {
                            return self.scale(a, c);
                        }
                    }
                    BinOp::Shl => {
                        // Shift-left by a constant is multiplication by a
                        // power of two in wrapping arithmetic — exact for
                        // both u32 and the two's-complement i32 reading.
                        if let Some(c) = self.as_const(b) {
                            return self.scale(a, 1u32.wrapping_shl(c & 31));
                        }
                    }
                    BinOp::Shr if *ty == Ty::U32 => {
                        if let Some(c) = self.as_const(b) {
                            let c = c & 31;
                            if c == 0 {
                                return a;
                            }
                            // (Σ cᵢ·tᵢ + k) >> c folds when every
                            // coefficient is divisible by 2^c: then the
                            // low c bits come from k alone and flooring
                            // distributes. Coefficients and k are halved
                            // with an *arithmetic* shift so the wrapping
                            // encoding of negative offsets (e.g.
                            // 2a−1 = 2a + 0xFFFF_FFFF) divides correctly:
                            // (2a−1)>>1 = a−1. This is the ideal-integer
                            // reading (true value in range) the address
                            // lint already assumes.
                            let (k, parts) = self.parts_of(a);
                            let mask = (1u32 << c) - 1;
                            if !parts.is_empty() && parts.iter().all(|&(co, _)| co & mask == 0) {
                                let parts = parts
                                    .into_iter()
                                    .map(|(co, t)| (((co as i32) >> c) as u32, t))
                                    .collect();
                                return self.mk_affine(((k as i32) >> c) as u32, parts);
                            }
                        }
                    }
                    BinOp::And => {
                        if self.as_const(a) == Some(0) || self.as_const(b) == Some(0) {
                            return self.cst(0);
                        }
                        if a == b {
                            return a;
                        }
                        // Parity extraction: (Σ cᵢ·tᵢ + k) & 1 is k & 1
                        // when every coefficient is even — exact under
                        // wrapping, no range assumption needed.
                        for (x, y) in [(a, b), (b, a)] {
                            if self.as_const(y) == Some(1) {
                                let (k, parts) = self.parts_of(x);
                                if !parts.is_empty() && parts.iter().all(|&(co, _)| co & 1 == 0) {
                                    return self.cst(k & 1);
                                }
                            }
                        }
                    }
                    BinOp::Or => {
                        if self.as_const(a) == Some(0) {
                            return b;
                        }
                        if self.as_const(b) == Some(0) {
                            return a;
                        }
                        if a == b {
                            return a;
                        }
                    }
                    BinOp::Xor => {
                        if self.as_const(a) == Some(0) {
                            return b;
                        }
                        if self.as_const(b) == Some(0) {
                            return a;
                        }
                        if a == b {
                            return self.cst(0);
                        }
                    }
                    BinOp::Rem => {
                        // x % x = 0 for any x, including 0 (0 % 0 = 0 by
                        // the division-by-zero convention).
                        if a == b {
                            return self.cst(0);
                        }
                    }
                    BinOp::Min | BinOp::Max => {
                        if a == b {
                            return a;
                        }
                    }
                    BinOp::Div | BinOp::Shr => {}
                }
                if commutative_int(*bop) && args[0] > args[1] {
                    args.swap(0, 1);
                }
            }
            OpTag::Cmp(cop, ty) if ty.is_int() => match cop {
                CmpOp::Eq | CmpOp::Ne => {
                    // Equality through the affine difference: exact under
                    // wrapping, and it decides far more than literal
                    // const-const pairs (e.g. (2a+1) vs (2a) ⇒ Ne).
                    let d = self.sub(args[0], args[1]);
                    if let Some(v) = self.as_const(d) {
                        let eq = (v == 0) as u32;
                        return self.cst(if *cop == CmpOp::Eq { eq } else { 1 - eq });
                    }
                    if args[0] > args[1] {
                        args.swap(0, 1);
                    }
                }
                CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                    if let (Some(x), Some(y)) = (self.as_const(args[0]), self.as_const(args[1])) {
                        if let Some(v) = eval_cmp_int(*cop, *ty, x, y) {
                            return self.cst(v);
                        }
                    }
                    if args[0] == args[1] {
                        return self.cst(matches!(cop, CmpOp::Le | CmpOp::Ge) as u32);
                    }
                }
            },
            OpTag::Ite => {
                if let Some(v) = self.as_const(args[0]) {
                    return if v != 0 { args[1] } else { args[2] };
                }
                if args[1] == args[2] {
                    return args[1];
                }
            }
            OpTag::Un(UnOp::Not) => {
                // Bitwise complement on the raw pattern (the simulator's
                // `Not` is type-agnostic).
                if let Some(v) = self.as_const(args[0]) {
                    return self.cst(!v);
                }
            }
            _ => {}
        }
        self.intern(TermKind::Op { tag, args })
    }

    /// Renders a term for residue details; depth-capped so shared deep
    /// structure cannot explode the message.
    fn render(&self, t: TermId) -> String {
        self.render_depth(t, 6)
    }

    fn render_depth(&self, t: TermId, depth: u32) -> String {
        if depth == 0 {
            return format!("#{t}");
        }
        match &self.kinds[t as usize] {
            TermKind::Affine { k, parts } => {
                if parts.is_empty() {
                    return render_coeff(*k);
                }
                let mut s = String::new();
                for (i, (c, p)) in parts.iter().enumerate() {
                    if i > 0 {
                        s.push_str(" + ");
                    }
                    let r = self.render_depth(*p, depth - 1);
                    if *c == 1 {
                        s.push_str(&r);
                    } else {
                        s.push_str(&format!("{}*{r}", render_coeff(*c)));
                    }
                }
                if *k != 0 {
                    s.push_str(&format!(" + {}", render_coeff(*k)));
                }
                s
            }
            TermKind::Atom(a) => match a {
                Atom::Builtin(b) => format!("{b:?}"),
                Atom::Param(i) => format!("param{i}"),
                Atom::Ticket => "T".into(),
                Atom::Havoc { ordinal, reg } => format!("havoc{ordinal}({reg})"),
                Atom::Opaque(n) => format!("opaque{n}"),
            },
            TermKind::Op { tag, args } => {
                let inner: Vec<String> = args
                    .iter()
                    .map(|&a| self.render_depth(a, depth - 1))
                    .collect();
                format!("{tag:?}({})", inner.join(", "))
            }
        }
    }
}

/// Renders a wrapping-u32 coefficient with a signed reading for "large"
/// values, so `2a − 1` shows as `-1`, not `4294967295`.
fn render_coeff(c: u32) -> String {
    let s = c as i32;
    if s < 0 {
        format!("{s}")
    } else {
        format!("{c}")
    }
}

// ---------------------------------------------------------------------------
// Lock-step walker
// ---------------------------------------------------------------------------

/// One element of the dynamic path condition.
#[derive(Debug, Clone)]
enum PathElem {
    /// A user `if` guard with a symbolic condition on some replica:
    /// per-side condition terms plus which branch is being walked.
    Guard { terms: [TermId; 2], taken: bool },
    /// Inside user loop `ordinal` (its condition is compared separately
    /// through the loop obligations).
    Loop(u32),
}

/// Per-side projection of the path condition, recorded with each event.
#[derive(Debug, Clone, PartialEq, Eq)]
enum ProjElem {
    Guard(TermId, bool),
    Loop(u32),
}

/// Kind of a recorded memory event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EvKind {
    Store(MemSpace),
    /// Atomic with its operation discriminant.
    Atomic(MemSpace, u8),
}

impl EvKind {
    fn label(self) -> String {
        match self {
            EvKind::Store(sp) => format!("store.{sp:?}"),
            EvKind::Atomic(sp, d) => format!("atomic{d}.{sp:?}"),
        }
    }
}

/// Terms one replica recorded for an event.
#[derive(Debug, Clone)]
struct SideTerms {
    addr: TermId,
    value: TermId,
    /// CmpXchg comparand, when present.
    cmp: Option<TermId>,
    path: Vec<ProjElem>,
}

/// One memory event (store or atomic) that escapes the sphere-of-
/// replication machinery filter, with per-replica terms.
#[derive(Debug, Clone)]
struct Event {
    kind: EvKind,
    /// Per-side terms; index 1 is `None` on the original's walk and on
    /// branches where that replica is inactive.
    sides: [Option<SideTerms>; 2],
    /// Instance id of the innermost enclosing block (scopes the
    /// compare-dominance search).
    block: u32,
    /// Number of compares recorded before this event (dominance: only
    /// earlier compares can guard it).
    watermark: usize,
}

/// One detection compare, recorded from the replica that executed it.
#[derive(Debug, Clone)]
struct CompareRec {
    a: TermId,
    b: TermId,
    block: u32,
    /// Whether an operand register carries a channel-received value —
    /// the compare actually crosses the replica boundary.
    channel_sourced: bool,
}

/// One user-loop condition record.
#[derive(Debug, Clone)]
struct LoopRec {
    ordinal: u32,
    terms: [TermId; 2],
    act: [bool; 2],
}

/// Everything one walk produces.
#[derive(Debug, Default)]
struct WalkOut {
    events: Vec<Event>,
    compares: Vec<CompareRec>,
    loops: Vec<LoopRec>,
}

/// Parameters selecting which kernel, views and machinery a walk uses.
struct WalkParams<'a> {
    kernel: &'a Kernel,
    views: &'a FxHashMap<Builtin, BuiltinView>,
    /// `Some(cfg)` only on the transformed walk: enables the machinery
    /// abstraction (channel, protocol, detection filtering).
    mach: Option<&'a TvConfig>,
    /// 1 for the original, 2 (producer + consumer) for the transformed.
    sides: usize,
    reloc: u32,
    skip_first_barrier: bool,
}

struct Walker<'a> {
    arena: &'a mut Arena,
    views: &'a FxHashMap<Builtin, BuiltinView>,
    mach: Option<&'a TvConfig>,
    sides: usize,
    reloc: u32,
    skip_first_barrier: bool,
    seen_barrier: bool,
    /// Logical memory clock: bumps on user stores/atomics and barriers,
    /// in walk order, so matching loads on both walks read matching
    /// `(addr, clock)` oracle queries.
    clock: u32,
    loop_ordinal: u32,
    block_counter: u32,
    env: [RegMap<TermId>; 2],
    /// Per-publishing-side channel contents: raw address term → value.
    channel: [FxHashMap<TermId, TermId>; 2],
    path: Vec<PathElem>,
    out: WalkOut,
}

fn run_walk(arena: &mut Arena, p: WalkParams<'_>) -> WalkOut {
    let mut w = Walker {
        arena,
        views: p.views,
        mach: p.mach,
        sides: p.sides,
        reloc: p.reloc,
        skip_first_barrier: p.skip_first_barrier,
        seen_barrier: false,
        clock: 0,
        loop_ordinal: 0,
        block_counter: 0,
        env: [RegMap::for_kernel(p.kernel), RegMap::for_kernel(p.kernel)],
        channel: [FxHashMap::default(), FxHashMap::default()],
        path: Vec::new(),
        out: WalkOut::default(),
    };
    let act = [true, p.sides == 2];
    w.walk_block(&p.kernel.body.0, act);
    w.out
}

fn atomic_disc(op: &AtomicOp) -> u8 {
    match op {
        AtomicOp::Add => 0,
        AtomicOp::Exchange => 1,
        AtomicOp::CmpXchg { .. } => 2,
        AtomicOp::Max => 3,
        AtomicOp::Min => 4,
    }
}

impl Walker<'_> {
    /// Reads `r` on side `s`; an unset register is the zero-initialized
    /// register file (matching the simulator's semantics exactly).
    fn read(&mut self, s: usize, r: Reg) -> TermId {
        match self.env[s].get(r) {
            Some(&t) => t,
            None => self.arena.cst(0),
        }
    }

    fn write(&mut self, s: usize, act: [bool; 2], r: Reg, t: TermId) {
        if act[s] {
            self.env[s].insert(r, t);
        }
    }

    /// Recording side for single-record artifacts (detection compares):
    /// the consumer replica when it is active, else the producer.
    fn rec_side(&self, act: [bool; 2]) -> usize {
        if self.sides == 2 && act[1] {
            1
        } else {
            0
        }
    }

    /// Per-side projection of the current path condition.
    fn project(&self, s: usize) -> Vec<ProjElem> {
        self.path
            .iter()
            .map(|e| match e {
                PathElem::Guard { terms, taken } => ProjElem::Guard(terms[s], *taken),
                PathElem::Loop(n) => ProjElem::Loop(*n),
            })
            .collect()
    }

    /// The term a raw builtin read evaluates to on side `s`, through the
    /// walk's views.
    fn builtin_term(&mut self, s: usize, b: Builtin) -> TermId {
        match self.views.get(&b).copied().unwrap_or(BuiltinView::Identity) {
            BuiltinView::Identity => self.arena.atom(Atom::Builtin(b)),
            BuiltinView::PairSplit => {
                let a = self.arena.atom(Atom::Builtin(b));
                self.arena.mk_affine(s as u32, vec![(2, a)])
            }
            BuiltinView::Doubled => {
                let a = self.arena.atom(Atom::Builtin(b));
                self.arena.mk_affine(0, vec![(2, a)])
            }
            BuiltinView::TicketDerived => self.ticket_derived(b),
        }
    }

    /// Inter-Group original-side derivations: the logical 3-D group id
    /// decomposed from the linear work ticket `T`, and the global id
    /// rebuilt as `group·local_size + local_id`. Constructed with the
    /// same normalizing [`Arena::op`] calls the transformed prologue's
    /// instructions produce, so matching derivations share term ids.
    fn ticket_derived(&mut self, b: Builtin) -> TermId {
        let t = self.arena.atom(Atom::Ticket);
        let ng0 = self.arena.atom(Atom::Builtin(Builtin::NumGroups(Dim(0))));
        let ng1 = self.arena.atom(Atom::Builtin(Builtin::NumGroups(Dim(1))));
        let group = |w: &mut Self, d: u8| -> TermId {
            match d {
                0 => w.arena.op(OpTag::Bin(BinOp::Rem, Ty::U32), vec![t, ng0]),
                1 => {
                    let q = w.arena.op(OpTag::Bin(BinOp::Div, Ty::U32), vec![t, ng0]);
                    w.arena.op(OpTag::Bin(BinOp::Rem, Ty::U32), vec![q, ng1])
                }
                _ => {
                    let q = w.arena.op(OpTag::Bin(BinOp::Div, Ty::U32), vec![t, ng0]);
                    w.arena.op(OpTag::Bin(BinOp::Div, Ty::U32), vec![q, ng1])
                }
            }
        };
        match b {
            Builtin::GroupId(Dim(d)) => group(self, d),
            Builtin::GlobalId(Dim(d)) => {
                let g = group(self, d);
                let ls = self.arena.atom(Atom::Builtin(Builtin::LocalSize(Dim(d))));
                let lid = self.arena.atom(Atom::Builtin(Builtin::LocalId(Dim(d))));
                let scaled = self.arena.op(OpTag::Bin(BinOp::Mul, Ty::U32), vec![g, ls]);
                self.arena.add(scaled, lid)
            }
            _ => self.arena.atom(Atom::Builtin(b)),
        }
    }

    /// Consumer-side local addresses are relocated back into the
    /// original LDS window when the transform duplicated it.
    fn local_addr(&mut self, s: usize, space: MemSpace, t: TermId) -> TermId {
        if space == MemSpace::Local && s == 1 && self.reloc != 0 {
            let r = self.arena.cst(self.reloc);
            self.arena.sub(t, r)
        } else {
            t
        }
    }

    fn bump_barrier(&mut self) {
        if !self.seen_barrier {
            self.seen_barrier = true;
            if !self.skip_first_barrier {
                self.clock += 1;
            }
        } else {
            self.clock += 1;
        }
    }

    fn walk_block(&mut self, insts: &[Inst], act: [bool; 2]) {
        let block_id = self.block_counter;
        self.block_counter += 1;
        for inst in insts {
            self.exec(inst, act, block_id);
        }
    }

    fn exec(&mut self, inst: &Inst, act: [bool; 2], block_id: u32) {
        match inst {
            Inst::Const { dst, bits, .. } => {
                let t = self.arena.cst(*bits);
                for s in 0..self.sides {
                    self.write(s, act, *dst, t);
                }
            }
            Inst::ReadParam { dst, index } => {
                let t = self.arena.atom(Atom::Param(*index));
                for s in 0..self.sides {
                    self.write(s, act, *dst, t);
                }
            }
            Inst::ReadBuiltin { dst, builtin } => {
                for s in 0..self.sides {
                    let t = self.builtin_term(s, *builtin);
                    self.write(s, act, *dst, t);
                }
            }
            Inst::Mov { dst, src } => {
                for s in 0..self.sides {
                    let t = self.read(s, *src);
                    self.write(s, act, *dst, t);
                }
            }
            Inst::Unary { dst, op, a } => {
                for s in 0..self.sides {
                    let ta = self.read(s, *a);
                    let t = self.arena.op(OpTag::Un(*op), vec![ta]);
                    self.write(s, act, *dst, t);
                }
            }
            Inst::Binary { dst, op, ty, a, b } => {
                for s in 0..self.sides {
                    let ta = self.read(s, *a);
                    let tb = self.read(s, *b);
                    let t = self.arena.op(OpTag::Bin(*op, *ty), vec![ta, tb]);
                    self.write(s, act, *dst, t);
                }
            }
            Inst::Cmp { dst, op, ty, a, b } => {
                for s in 0..self.sides {
                    let ta = self.read(s, *a);
                    let tb = self.read(s, *b);
                    let t = self.arena.op(OpTag::Cmp(*op, *ty), vec![ta, tb]);
                    self.write(s, act, *dst, t);
                }
                if let Some(cfg) = self.mach {
                    if cfg.detect_compares.contains(*dst) {
                        let s = self.rec_side(act);
                        let ta = self.read(s, *a);
                        let tb = self.read(s, *b);
                        let channel_sourced =
                            cfg.channel_values.contains(*a) || cfg.channel_values.contains(*b);
                        self.out.compares.push(CompareRec {
                            a: ta,
                            b: tb,
                            block: block_id,
                            channel_sourced,
                        });
                    }
                }
            }
            Inst::Select {
                dst,
                cond,
                if_true,
                if_false,
            } => {
                for s in 0..self.sides {
                    let c = self.read(s, *cond);
                    let t = self.read(s, *if_true);
                    let f = self.read(s, *if_false);
                    let r = self.arena.op(OpTag::Ite, vec![c, t, f]);
                    self.write(s, act, *dst, r);
                }
            }
            Inst::Swizzle { dst, src, mode } => self.exec_swizzle(*dst, *src, *mode, act),
            Inst::Load { dst, space, addr } => self.exec_load(*dst, *space, *addr, act),
            Inst::Store { space, addr, value } => {
                self.exec_store(*space, *addr, *value, act, block_id)
            }
            Inst::Atomic {
                dst,
                space,
                op,
                addr,
                value,
            } => self.exec_atomic(*dst, *space, op, *addr, *value, act, block_id),
            Inst::Barrier => self.bump_barrier(),
            Inst::If {
                cond,
                then_blk,
                else_blk,
            } => self.exec_if(*cond, then_blk, else_blk, act),
            Inst::While {
                cond,
                cond_reg,
                body,
            } => self.exec_while(cond, *cond_reg, body, act),
        }
    }

    fn exec_swizzle(&mut self, dst: Reg, src: Reg, mode: SwizzleMode, act: [bool; 2]) {
        if let Some(cfg) = self.mach {
            if cfg.channel_values.contains(dst) {
                // FAST exchange: the swizzle reads the partner lane's
                // VGPR regardless of EXEC, so source terms are read
                // unconditionally and only the write is activity-gated.
                let s0 = self.read(0, src);
                let s1 = self.read(1, src);
                let (v0, v1) = match mode {
                    SwizzleMode::DupEven => (s0, s0),
                    SwizzleMode::DupOdd => (s1, s1),
                    SwizzleMode::SwapPairs => (s1, s0),
                };
                self.write(0, act, dst, v0);
                if self.sides == 2 {
                    self.write(1, act, dst, v1);
                }
                return;
            }
        }
        for s in 0..self.sides {
            let t = self.read(s, src);
            let r = self.arena.op(OpTag::Swizzle(mode), vec![t]);
            self.write(s, act, dst, r);
        }
    }

    fn exec_load(&mut self, dst: Reg, space: MemSpace, addr: Reg, act: [bool; 2]) {
        if let Some(cfg) = self.mach {
            if cfg.channel_values.contains(dst) {
                // Cross-replica channel read: the value the *partner*
                // published at this raw slot address. A missed lookup
                // yields a fresh opaque — honest residue downstream, not
                // a spurious proof.
                for (s, &on) in act.iter().enumerate().take(self.sides) {
                    if on {
                        let a = self.read(s, addr);
                        let v = match self.channel[1 - s].get(&a) {
                            Some(&v) => v,
                            None => self.arena.fresh_opaque(),
                        };
                        self.env[s].insert(dst, v);
                    }
                }
                return;
            }
            if cfg.protocol.contains(dst) {
                // Same-side protocol read (ticket broadcast through LDS:
                // each replica reads back the ticket its own group
                // published).
                for (s, &on) in act.iter().enumerate().take(self.sides) {
                    if on {
                        let a = self.read(s, addr);
                        let v = match self.channel[s].get(&a) {
                            Some(&v) => v,
                            None => self.arena.fresh_opaque(),
                        };
                        self.env[s].insert(dst, v);
                    }
                }
                return;
            }
        }
        let clock_t = self.arena.cst(self.clock);
        for (s, &on) in act.iter().enumerate().take(self.sides) {
            if on {
                let raw = self.read(s, addr);
                let a = self.local_addr(s, space, raw);
                let t = self.arena.op(OpTag::Load(space), vec![a, clock_t]);
                self.env[s].insert(dst, t);
            }
        }
    }

    fn exec_store(&mut self, space: MemSpace, addr: Reg, value: Reg, act: [bool; 2], block: u32) {
        if let Some(cfg) = self.mach {
            if cfg.comm_addrs.contains(addr) {
                // Channel publish, keyed by the raw (unrelocated) address
                // term so the partner's identical slot formula hits.
                for (s, &on) in act.iter().enumerate().take(self.sides) {
                    if on {
                        let a = self.read(s, addr);
                        let v = self.read(s, value);
                        self.channel[s].insert(a, v);
                    }
                }
                return;
            }
            if cfg.detect_addrs.contains(addr) {
                return;
            }
        }
        let mut sides: [Option<SideTerms>; 2] = [None, None];
        for s in 0..self.sides {
            if act[s] {
                let raw = self.read(s, addr);
                let a = self.local_addr(s, space, raw);
                let v = self.read(s, value);
                sides[s] = Some(SideTerms {
                    addr: a,
                    value: v,
                    cmp: None,
                    path: self.project(s),
                });
            }
        }
        self.out.events.push(Event {
            kind: EvKind::Store(space),
            sides,
            block,
            watermark: self.out.compares.len(),
        });
        self.clock += 1;
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_atomic(
        &mut self,
        dst: Option<Reg>,
        space: MemSpace,
        op: &AtomicOp,
        addr: Reg,
        value: Reg,
        act: [bool; 2],
        block: u32,
    ) {
        if let Some(cfg) = self.mach {
            if cfg.protocol.contains(addr) {
                // Ticket grab: logically the work index T, with the raw
                // counter handing 2T to the producer and 2T+1 to the
                // consumer group.
                for (s, &on) in act.iter().enumerate().take(self.sides) {
                    if on {
                        if let Some(d) = dst {
                            let t = self.arena.atom(Atom::Ticket);
                            let v = self.arena.mk_affine(s as u32, vec![(2, t)]);
                            self.env[s].insert(d, v);
                        }
                    }
                }
                return;
            }
            if cfg.comm_addrs.contains(addr) {
                // Full/empty state traffic: polls return unmodeled
                // values (protocol liveness is assumed, not proved).
                for (s, &on) in act.iter().enumerate().take(self.sides) {
                    if on {
                        if let Some(d) = dst {
                            let v = self.arena.fresh_opaque();
                            self.env[s].insert(d, v);
                        }
                    }
                }
                return;
            }
            if cfg.detect_addrs.contains(addr) {
                return;
            }
        }
        let disc = atomic_disc(op);
        let cmp_reg = match op {
            AtomicOp::CmpXchg { cmp } => Some(*cmp),
            _ => None,
        };
        let clock_t = self.arena.cst(self.clock);
        let mut sides: [Option<SideTerms>; 2] = [None, None];
        for s in 0..self.sides {
            if act[s] {
                let raw = self.read(s, addr);
                let a = self.local_addr(s, space, raw);
                let v = self.read(s, value);
                let c = cmp_reg.map(|r| self.read(s, r));
                let mut args = vec![a, v, clock_t];
                if let Some(ct) = c {
                    args.push(ct);
                }
                let old = self.arena.op(OpTag::AtomicOld(space, disc), args);
                if let Some(d) = dst {
                    self.env[s].insert(d, old);
                }
                sides[s] = Some(SideTerms {
                    addr: a,
                    value: v,
                    cmp: c,
                    path: self.project(s),
                });
            }
        }
        self.out.events.push(Event {
            kind: EvKind::Atomic(space, disc),
            sides,
            block,
            watermark: self.out.compares.len(),
        });
        self.clock += 1;
    }

    fn exec_if(&mut self, cond: Reg, then_blk: &Block, else_blk: &Block, act: [bool; 2]) {
        let g = [self.read(0, cond), self.read(1, cond)];
        let machinery = self.mach.is_some_and(|m| m.machinery_guards.contains(cond));
        let mut t_act = [false, false];
        let mut e_act = [false, false];
        let mut symbolic = [false, false];
        for s in 0..self.sides {
            if !act[s] {
                continue;
            }
            match self.arena.as_const(g[s]) {
                Some(0) => e_act[s] = true,
                Some(_) => t_act[s] = true,
                None => {
                    t_act[s] = true;
                    e_act[s] = true;
                    symbolic[s] = true;
                }
            }
        }
        let any_symbolic = symbolic[0] || symbolic[1];
        let push_path = any_symbolic && !machinery;
        // Replicas with a symbolic guard walk both branches from the
        // same pre-state; constant-guard replicas keep whatever the one
        // branch they take produced.
        let pre: [Option<RegMap<TermId>>; 2] =
            std::array::from_fn(|s| symbolic[s].then(|| self.env[s].clone()));
        if t_act[0] || t_act[1] {
            if push_path {
                self.path.push(PathElem::Guard {
                    terms: g,
                    taken: true,
                });
            }
            self.walk_block(&then_blk.0, t_act);
            if push_path {
                self.path.pop();
            }
        }
        let mut post_then: [RegMap<TermId>; 2] = Default::default();
        for (s, pre) in pre.into_iter().enumerate() {
            if let Some(pre) = pre {
                post_then[s] = std::mem::replace(&mut self.env[s], pre);
            }
        }
        if e_act[0] || e_act[1] {
            if push_path {
                self.path.push(PathElem::Guard {
                    terms: g,
                    taken: false,
                });
            }
            self.walk_block(&else_blk.0, e_act);
            if push_path {
                self.path.pop();
            }
        }
        if any_symbolic {
            let mut defs = Vec::new();
            let mut seen = RegSet::default();
            let mut def = |i: &Inst| defs.extend(i.dst().filter(|&d| seen.insert(d)));
            then_blk.visit_insts(&mut def);
            else_blk.visit_insts(&mut def);
            for s in 0..self.sides {
                if !symbolic[s] {
                    continue;
                }
                for &r in &defs {
                    let tv = match post_then[s].get(r) {
                        Some(&t) => t,
                        None => self.arena.cst(0),
                    };
                    let ev = match self.env[s].get(r) {
                        Some(&t) => t,
                        None => self.arena.cst(0),
                    };
                    let m = if tv == ev {
                        tv
                    } else {
                        self.arena.op(OpTag::Ite, vec![g[s], tv, ev])
                    };
                    self.env[s].insert(r, m);
                }
            }
        }
    }

    fn exec_while(&mut self, cond: &Block, cond_reg: Reg, body: &Block, act: [bool; 2]) {
        let machinery = self.mach.is_some_and(|m| m.protocol.contains(cond_reg));
        if machinery {
            // Full/empty wait loop: walked once, no induction — the
            // protocol's poll results are opaque and its liveness is an
            // assumption of the model.
            self.walk_block(&cond.0, act);
            self.walk_block(&body.0, act);
            return;
        }
        let n = self.loop_ordinal;
        self.loop_ordinal += 1;
        // Inductive per-iteration argument: havoc every register the
        // loop writes (the same atom on every side — the induction
        // hypothesis that replicas agree at iteration entry), then walk
        // the condition and body once.
        let mut defs = Vec::new();
        let mut seen = RegSet::default();
        let mut def = |i: &Inst| defs.extend(i.dst().filter(|&d| seen.insert(d)));
        cond.visit_insts(&mut def);
        body.visit_insts(&mut def);
        for &r in &defs {
            let h = self.arena.atom(Atom::Havoc { ordinal: n, reg: r });
            for (s, &on) in act.iter().enumerate().take(self.sides) {
                if on {
                    self.env[s].insert(r, h);
                }
            }
        }
        self.path.push(PathElem::Loop(n));
        self.walk_block(&cond.0, act);
        let terms = [self.read(0, cond_reg), self.read(1, cond_reg)];
        self.out.loops.push(LoopRec {
            ordinal: n,
            terms,
            act,
        });
        self.walk_block(&body.0, act);
        self.path.pop();
    }
}

// ---------------------------------------------------------------------------
// Obligation assembly
// ---------------------------------------------------------------------------

/// `true` when an event is a sphere-of-replication exit that the
/// compare-dominance obligation must cover.
fn needs_coverage(kind: EvKind, cfg: &TvConfig) -> bool {
    match kind {
        EvKind::Store(MemSpace::Global) | EvKind::Atomic(MemSpace::Global, _) => true,
        EvKind::Store(MemSpace::Local) | EvKind::Atomic(MemSpace::Local, _) => {
            cfg.cover_local_stores
        }
    }
}

/// Proves a transformed kernel fault-free-equivalent to its original.
///
/// Walks both kernels over one shared term arena — the original with one
/// replica state and `cfg.orig_views`, the transformed with lock-step
/// producer/consumer states, `cfg.trans_views`, and the machinery
/// abstraction — then discharges, in deterministic walk order:
///
/// 1. exit-sequence equivalence (count, kind, address, value, path);
/// 2. detection-compare validity (`a ≡ b` fault-free);
/// 3. compare-dominance coverage of each exit (when
///    `cfg.check_coverage`);
/// 4. user-loop condition equivalence.
///
/// Anything unprovable lands in [`TvReport::residue`]; the engine never
/// panics on [`crate::validate`]-clean kernels. Kernels with barriers
/// under divergent control are rejected up front as
/// [`ResidueKind::Unsupported`] — the lock-step memory clock assumes
/// group-uniform barrier reachability.
#[must_use]
pub fn validate_pair(original: &Kernel, transformed: &Kernel, cfg: &TvConfig) -> TvReport {
    for (k, which) in [(original, "original"), (transformed, "transformed")] {
        if has_divergent_barrier(k) {
            return TvReport {
                exits_proved: 0,
                compares_proved: 0,
                loops_proved: 0,
                residue: vec![Residue {
                    kind: ResidueKind::Unsupported,
                    detail: format!(
                        "{which} kernel `{}` has a barrier under divergent control; \
                         the lock-step memory clock requires group-uniform barriers",
                        k.name
                    ),
                }],
            };
        }
    }
    let mut arena = Arena::new();
    let orig = run_walk(
        &mut arena,
        WalkParams {
            kernel: original,
            views: &cfg.orig_views,
            mach: None,
            sides: 1,
            reloc: 0,
            skip_first_barrier: false,
        },
    );
    let trans = run_walk(
        &mut arena,
        WalkParams {
            kernel: transformed,
            views: &cfg.trans_views,
            mach: Some(cfg),
            sides: 2,
            reloc: cfg.lds_relocation,
            skip_first_barrier: cfg.skip_first_barrier,
        },
    );

    let mut residue = Vec::new();
    let mut exits_proved = 0;
    let mut compares_proved = 0;
    let mut loops_proved = 0;

    if orig.events.len() != trans.events.len() {
        residue.push(Residue {
            kind: ResidueKind::ExitCount,
            detail: format!(
                "original records {} sphere exits, transformed records {}",
                orig.events.len(),
                trans.events.len()
            ),
        });
    }
    for (i, (oe, te)) in orig.events.iter().zip(trans.events.iter()).enumerate() {
        let Some(ot) = &oe.sides[0] else { continue };
        let mut ok = true;
        if oe.kind != te.kind {
            residue.push(Residue {
                kind: ResidueKind::ExitKind { index: i },
                detail: format!(
                    "exit {i}: original is {}, transformed is {}",
                    oe.kind.label(),
                    te.kind.label()
                ),
            });
            continue;
        }
        for (s, st) in te.sides.iter().enumerate() {
            let Some(tt) = st else { continue };
            let side = ["producer", "consumer"][s];
            if tt.addr != ot.addr {
                ok = false;
                residue.push(Residue {
                    kind: ResidueKind::ExitAddr { index: i },
                    detail: format!(
                        "exit {i} ({side}): address `{}` vs original `{}`",
                        arena.render(tt.addr),
                        arena.render(ot.addr)
                    ),
                });
            } else if tt.value != ot.value || tt.cmp != ot.cmp {
                ok = false;
                residue.push(Residue {
                    kind: ResidueKind::ExitValue { index: i },
                    detail: format!(
                        "exit {i} ({side}): value `{}` vs original `{}`",
                        arena.render(tt.value),
                        arena.render(ot.value)
                    ),
                });
            } else if tt.path != ot.path {
                ok = false;
                residue.push(Residue {
                    kind: ResidueKind::ExitPath { index: i },
                    detail: format!("exit {i} ({side}): path condition differs from original"),
                });
            }
        }
        if cfg.check_coverage && needs_coverage(te.kind, cfg) {
            let in_scope: Vec<&CompareRec> = trans.compares[..te.watermark]
                .iter()
                .filter(|c| c.block == te.block)
                .collect();
            if !(cfg.selective && in_scope.is_empty()) {
                for st in te.sides.iter().flatten() {
                    for (operand, term) in [("address", st.addr), ("value", st.value)] {
                        let covered = in_scope
                            .iter()
                            .any(|c| c.channel_sourced && (c.a == term || c.b == term));
                        if !covered {
                            ok = false;
                            residue.push(Residue {
                                kind: ResidueKind::CompareUncovered { exit: i, operand },
                                detail: format!(
                                    "exit {i}: no channel-sourced compare guards its {operand} \
                                     `{}`",
                                    arena.render(term)
                                ),
                            });
                        }
                    }
                }
            }
        }
        if ok {
            exits_proved += 1;
        }
    }

    for (i, c) in trans.compares.iter().enumerate() {
        if c.a == c.b {
            compares_proved += 1;
        } else {
            residue.push(Residue {
                kind: ResidueKind::CompareMismatch { index: i },
                detail: format!(
                    "detect compare {i}: `{}` vs `{}` not provably equal fault-free",
                    arena.render(c.a),
                    arena.render(c.b)
                ),
            });
        }
    }

    if orig.loops.len() != trans.loops.len() {
        residue.push(Residue {
            kind: ResidueKind::LoopCount,
            detail: format!(
                "original has {} user loops, transformed has {}",
                orig.loops.len(),
                trans.loops.len()
            ),
        });
    }
    for (ol, tl) in orig.loops.iter().zip(trans.loops.iter()) {
        let mut ok = ol.ordinal == tl.ordinal;
        if ok {
            for s in 0..2 {
                if tl.act[s] && tl.terms[s] != ol.terms[0] {
                    ok = false;
                    residue.push(Residue {
                        kind: ResidueKind::LoopCondMismatch {
                            ordinal: tl.ordinal,
                        },
                        detail: format!(
                            "loop {} ({}): condition `{}` vs original `{}`",
                            tl.ordinal,
                            ["producer", "consumer"][s],
                            arena.render(tl.terms[s]),
                            arena.render(ol.terms[0])
                        ),
                    });
                }
            }
        } else {
            residue.push(Residue {
                kind: ResidueKind::LoopCondMismatch {
                    ordinal: tl.ordinal,
                },
                detail: format!(
                    "loop ordinals diverge: original {} vs transformed {}",
                    ol.ordinal, tl.ordinal
                ),
            });
        }
        if ok {
            loops_proved += 1;
        }
    }

    TvReport {
        exits_proved,
        compares_proved,
        loops_proved,
        residue,
    }
}

/// Validates a kernel against itself under the identity configuration.
///
/// A sanity harness for the engine: any kernel the IR validator accepts
/// must prove equal to itself with empty residue (exercised by the
/// property tests over the fuzz corpus).
#[must_use]
pub fn self_check(kernel: &Kernel) -> TvReport {
    validate_pair(kernel, kernel, &TvConfig::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelBuilder;

    fn lid_atom(ar: &mut Arena) -> TermId {
        ar.atom(Atom::Builtin(Builtin::LocalId(Dim(0))))
    }

    #[test]
    fn affine_parity_and_shift_folds() {
        let mut ar = Arena::new();
        let a = lid_atom(&mut ar);
        let one = ar.cst(1);
        let two = ar.cst(2);
        let doubled = ar.op(OpTag::Bin(BinOp::Mul, Ty::U32), vec![a, two]);
        let odd = ar.op(OpTag::Bin(BinOp::Add, Ty::U32), vec![doubled, one]);
        // (2a+1) >> 1 = a and (2a) >> 1 = a: the pair-split recovery.
        let h1 = ar.op(OpTag::Bin(BinOp::Shr, Ty::U32), vec![odd, one]);
        let h0 = ar.op(OpTag::Bin(BinOp::Shr, Ty::U32), vec![doubled, one]);
        assert_eq!(h1, a);
        assert_eq!(h0, a);
        // (2a+1) & 1 = 1 and (2a) & 1 = 0: the role-flag split.
        let p1 = ar.op(OpTag::Bin(BinOp::And, Ty::U32), vec![odd, one]);
        let p0 = ar.op(OpTag::Bin(BinOp::And, Ty::U32), vec![doubled, one]);
        assert_eq!(ar.as_const(p1), Some(1));
        assert_eq!(ar.as_const(p0), Some(0));
        // Shl by a constant scales.
        let shl = ar.op(OpTag::Bin(BinOp::Shl, Ty::U32), vec![a, one]);
        assert_eq!(shl, doubled);
    }

    #[test]
    fn equality_via_affine_difference() {
        let mut ar = Arena::new();
        let a = lid_atom(&mut ar);
        let one = ar.cst(1);
        let odd = ar.mk_affine(1, vec![(2, a)]);
        let even = ar.mk_affine(0, vec![(2, a)]);
        let eq = ar.op(OpTag::Cmp(CmpOp::Eq, Ty::U32), vec![odd, even]);
        assert_eq!(ar.as_const(eq), Some(0));
        let ne = ar.op(OpTag::Cmp(CmpOp::Ne, Ty::U32), vec![odd, even]);
        assert_eq!(ar.as_const(ne), Some(1));
        let refl = ar.op(OpTag::Cmp(CmpOp::Eq, Ty::U32), vec![odd, odd]);
        assert_eq!(ar.as_const(refl), Some(1));
        // Same id under Xor/Rem cancels; under Min/Max it collapses.
        let x = ar.op(OpTag::Bin(BinOp::Xor, Ty::U32), vec![odd, odd]);
        assert_eq!(ar.as_const(x), Some(0));
        let r = ar.op(OpTag::Bin(BinOp::Rem, Ty::U32), vec![odd, odd]);
        assert_eq!(ar.as_const(r), Some(0));
        let m = ar.op(OpTag::Bin(BinOp::Min, Ty::I32), vec![odd, one]);
        let m2 = ar.op(OpTag::Bin(BinOp::Min, Ty::I32), vec![one, odd]);
        assert_eq!(m, m2, "commutative int ops sort their operands");
    }

    #[test]
    fn negative_offsets_halve_arithmetically() {
        // 2a - 1 (wrapping-encoded) >> 1 = a - 1.
        let mut ar = Arena::new();
        let a = lid_atom(&mut ar);
        let one = ar.cst(1);
        let t = ar.mk_affine(u32::MAX, vec![(2, a)]);
        let sh = ar.op(OpTag::Bin(BinOp::Shr, Ty::U32), vec![t, one]);
        let expect = ar.mk_affine(u32::MAX, vec![(1, a)]);
        assert_eq!(sh, expect);
    }

    #[test]
    fn unsafe_folds_stay_opaque() {
        let mut ar = Arena::new();
        let a = lid_atom(&mut ar);
        let one = ar.cst(1);
        let odd = ar.mk_affine(1, vec![(2, a)]);
        // Odd coefficient: >> must not fold.
        let triple = ar.mk_affine(0, vec![(3, a)]);
        let sh = ar.op(OpTag::Bin(BinOp::Shr, Ty::U32), vec![triple, one]);
        assert!(matches!(ar.kinds[sh as usize], TermKind::Op { .. }));
        // Arithmetic i32 shift: no affine fold either.
        let shi = ar.op(OpTag::Bin(BinOp::Shr, Ty::I32), vec![odd, one]);
        assert!(matches!(ar.kinds[shi as usize], TermKind::Op { .. }));
        // Float equality never folds, even reflexively (NaN != NaN).
        let f = ar.op(OpTag::Cmp(CmpOp::Eq, Ty::F32), vec![a, a]);
        assert_eq!(ar.as_const(f), None);
        // Float binaries keep operand order (NaN payload asymmetry).
        let f1 = ar.op(OpTag::Bin(BinOp::Add, Ty::F32), vec![a, one]);
        let f2 = ar.op(OpTag::Bin(BinOp::Add, Ty::F32), vec![one, a]);
        assert_ne!(f1, f2);
    }

    fn structured_kernel() -> Kernel {
        let mut b = KernelBuilder::new("k");
        let buf = b.buffer_param("buf");
        let n = b.scalar_param("n", Ty::U32);
        let gid = b.global_id(0);
        let c = b.lt_u32(gid, n);
        b.if_(c, |b| {
            let a = b.elem_addr(buf, gid);
            let v = b.load_global(a);
            let two = b.const_u32(2);
            let v2 = b.mul_u32(v, two);
            b.store_global(a, v2);
        });
        let zero = b.const_u32(0);
        let four = b.const_u32(4);
        b.for_range(zero, four, |b, i| {
            let a = b.elem_addr(buf, i);
            let v = b.load_global(a);
            b.store_global(a, v);
        });
        b.finish()
    }

    #[test]
    fn self_check_proves_structured_kernel() {
        let r = self_check(&structured_kernel());
        assert!(r.proved(), "residue: {:?}", r.residue);
        assert_eq!(r.exits_proved, 2);
        assert_eq!(r.loops_proved, 1);
    }

    #[test]
    fn divergent_barrier_is_unsupported() {
        let mut b = KernelBuilder::new("bad");
        let lid = b.local_id(0);
        let n = b.const_u32(32);
        let c = b.lt_u32(lid, n);
        b.if_(c, |b| b.barrier());
        let k = b.finish();
        let r = self_check(&k);
        assert_eq!(r.residue.len(), 1);
        assert_eq!(r.residue[0].kind, ResidueKind::Unsupported);
    }

    /// Hand-built Intra-style pair: the original indexes by `global_id`,
    /// the "transformed" kernel recovers the logical id from the doubled
    /// launch (`raw >> 1`) and stores only on the consumer lane.
    fn intra_pair() -> (Kernel, Kernel, TvConfig, Reg) {
        let mut b = KernelBuilder::new("orig");
        let buf = b.buffer_param("buf");
        let gid = b.global_id(0);
        let a = b.elem_addr(buf, gid);
        let v = b.load_global(a);
        b.store_global(a, v);
        let orig = b.finish();

        let mut b = KernelBuilder::new("trans");
        let buf = b.buffer_param("buf");
        let raw = b.global_id(0);
        let one = b.const_u32(1);
        let gid = b.shr_u32(raw, one);
        let flag = b.and_u32(raw, one);
        let a = b.elem_addr(buf, gid);
        let v = b.load_global(a);
        b.if_(flag, |b| {
            b.store_global(a, v);
        });
        let trans = b.finish();

        let mut cfg = TvConfig {
            lds_relocation: 0,
            ..TvConfig::default()
        };
        cfg.trans_views
            .insert(Builtin::GlobalId(Dim(0)), BuiltinView::PairSplit);
        cfg.machinery_guards.insert(flag);
        (orig, trans, cfg, flag)
    }

    #[test]
    fn pair_split_view_recovers_logical_id() {
        let (orig, trans, cfg, _) = intra_pair();
        let r = validate_pair(&orig, &trans, &cfg);
        assert!(r.proved(), "residue: {:?}", r.residue);
        assert_eq!(r.exits_proved, 1);
    }

    #[test]
    fn wrong_remap_is_caught() {
        // Same pair, but the "transform" forgets the >> 1: addresses are
        // computed from the raw doubled id and cannot match.
        let (orig, _, cfg, _) = intra_pair();
        let mut b = KernelBuilder::new("bad");
        let buf = b.buffer_param("buf");
        let raw = b.global_id(0);
        let a = b.elem_addr(buf, raw);
        let v = b.load_global(a);
        b.store_global(a, v);
        let bad = b.finish();
        let r = validate_pair(&orig, &bad, &cfg);
        assert!(!r.proved());
        assert!(r
            .residue
            .iter()
            .any(|res| matches!(res.kind, ResidueKind::ExitAddr { index: 0 })));
    }

    /// Channel-equipped pair: the producer publishes address and value
    /// through comm slots, the consumer compares both against its own
    /// before storing.
    fn channel_pair(with_addr_cmp: bool, with_val_cmp: bool) -> (Kernel, Kernel, TvConfig) {
        let mut b = KernelBuilder::new("orig");
        let buf = b.buffer_param("buf");
        let gid = b.global_id(0);
        let a = b.elem_addr(buf, gid);
        let v = b.load_global(a);
        b.store_global(a, v);
        let orig = b.finish();

        let mut cfg = TvConfig {
            check_coverage: true,
            ..TvConfig::default()
        };
        cfg.trans_views
            .insert(Builtin::GlobalId(Dim(0)), BuiltinView::PairSplit);

        let mut b = KernelBuilder::new("trans");
        let buf = b.buffer_param("buf");
        let raw = b.global_id(0);
        let one = b.const_u32(1);
        let gid = b.shr_u32(raw, one);
        let flag = b.and_u32(raw, one);
        let a = b.elem_addr(buf, gid);
        let v = b.load_global(a);
        // Publish address and value into two comm slots.
        let slot_a = b.const_u32(1024);
        let slot_v = b.const_u32(1028);
        b.store_local(slot_a, a);
        b.store_local(slot_v, v);
        let shadow_a = b.load_local(slot_a);
        let shadow_v = b.load_local(slot_v);
        cfg.comm_addrs.insert(slot_a);
        cfg.comm_addrs.insert(slot_v);
        cfg.channel_values.insert(shadow_a);
        cfg.channel_values.insert(shadow_v);
        cfg.machinery_guards.insert(flag);
        b.if_(flag, |b| {
            if with_addr_cmp {
                let c = b.ne_u32(a, shadow_a);
                cfg.detect_compares.insert(c);
                cfg.machinery_guards.insert(c);
                b.if_(c, |_| {});
            }
            if with_val_cmp {
                let c = b.ne_u32(v, shadow_v);
                cfg.detect_compares.insert(c);
                cfg.machinery_guards.insert(c);
                b.if_(c, |_| {});
            }
            b.store_global(a, v);
        });
        let trans = b.finish();
        (orig, trans, cfg)
    }

    #[test]
    fn covered_exit_proves_both_obligations() {
        let (orig, trans, cfg) = channel_pair(true, true);
        let r = validate_pair(&orig, &trans, &cfg);
        assert!(r.proved(), "residue: {:?}", r.residue);
        assert_eq!(r.exits_proved, 1);
        assert_eq!(r.compares_proved, 2);
    }

    #[test]
    fn missing_compare_leaves_exit_uncovered() {
        let (orig, trans, cfg) = channel_pair(true, false);
        let r = validate_pair(&orig, &trans, &cfg);
        assert!(r.residue.iter().any(|res| matches!(
            res.kind,
            ResidueKind::CompareUncovered {
                exit: 0,
                operand: "value"
            }
        )));
        let (orig, trans, cfg) = channel_pair(false, true);
        let r = validate_pair(&orig, &trans, &cfg);
        assert!(r.residue.iter().any(|res| matches!(
            res.kind,
            ResidueKind::CompareUncovered {
                exit: 0,
                operand: "address"
            }
        )));
    }

    #[test]
    fn selective_exempts_unprotected_exits() {
        let (orig, trans, mut cfg) = channel_pair(false, false);
        let r = validate_pair(&orig, &trans, &cfg);
        assert!(!r.proved(), "unprotected exit must fail a full check");
        cfg.selective = true;
        let r = validate_pair(&orig, &trans, &cfg);
        assert!(r.proved(), "residue: {:?}", r.residue);
    }

    /// Replaces user reads of `b` with a `Mov` from `src` — the same
    /// rewrite the real transforms apply after emitting their prologue.
    fn replace_builtin_reads(insts: &mut [Inst], b: Builtin, src: Reg) {
        for inst in insts.iter_mut() {
            match inst {
                Inst::ReadBuiltin { dst, builtin } if *builtin == b => {
                    *inst = Inst::Mov { dst: *dst, src };
                }
                Inst::If {
                    then_blk, else_blk, ..
                } => {
                    replace_builtin_reads(&mut then_blk.0, b, src);
                    replace_builtin_reads(&mut else_blk.0, b, src);
                }
                Inst::While { cond, body, .. } => {
                    replace_builtin_reads(&mut cond.0, b, src);
                    replace_builtin_reads(&mut body.0, b, src);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn loop_conditions_prove_across_replicas() {
        // The transformed copy shares the original's user registers (as
        // the real transforms do), so loop havocs align; only the id
        // remap prologue is new.
        let mut b = KernelBuilder::new("orig");
        let buf = b.buffer_param("buf");
        let n = b.scalar_param("n", Ty::U32);
        let gid = b.global_id(0);
        let zero = b.const_u32(0);
        b.for_range(zero, n, |b, i| {
            let idx = b.add_u32(gid, i);
            let a = b.elem_addr(buf, idx);
            let v = b.load_global(a);
            b.store_global(a, v);
        });
        let orig = b.finish();

        let mut trans = orig.clone();
        trans.name = "trans".into();
        let raw = trans.fresh_reg();
        let one = trans.fresh_reg();
        let logical = trans.fresh_reg();
        replace_builtin_reads(&mut trans.body.0, Builtin::GlobalId(Dim(0)), logical);
        trans.body.0.splice(
            0..0,
            [
                Inst::ReadBuiltin {
                    dst: raw,
                    builtin: Builtin::GlobalId(Dim(0)),
                },
                Inst::Const {
                    dst: one,
                    ty: Ty::U32,
                    bits: 1,
                },
                Inst::Binary {
                    dst: logical,
                    op: BinOp::Shr,
                    ty: Ty::U32,
                    a: raw,
                    b: one,
                },
            ],
        );
        let mut cfg = TvConfig::default();
        cfg.trans_views
            .insert(Builtin::GlobalId(Dim(0)), BuiltinView::PairSplit);
        let r = validate_pair(&orig, &trans, &cfg);
        assert!(r.proved(), "residue: {:?}", r.residue);
        assert_eq!(r.loops_proved, 1);
        assert_eq!(r.exits_proved, 1);
    }

    #[test]
    fn reports_are_deterministic() {
        let (orig, trans, cfg) = channel_pair(true, false);
        let r1 = validate_pair(&orig, &trans, &cfg);
        let r2 = validate_pair(&orig, &trans, &cfg);
        assert_eq!(r1, r2);
        assert_eq!(format!("{:?}", r1.residue), format!("{:?}", r2.residue));
    }
}
