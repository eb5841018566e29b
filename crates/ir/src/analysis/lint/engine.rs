//! Abstract interpretation engine shared by the lint passes.
//!
//! One walk over a kernel body produces everything the passes consume:
//!
//! * **memory accesses**, each with a symbolic address polynomial and the
//!   guard constraints active when it executes, partitioned into
//!   barrier-delimited *intervals* (the race detector's unit of work);
//! * **divergence diagnostics**: barriers reachable under non-uniform
//!   control flow, and swizzles whose enclosing guards can split a
//!   producer/consumer lane pair (rules below);
//! * **bounds diagnostics**: LDS accesses whose address provably exceeds
//!   the kernel's declared `lds_bytes`.
//!
//! Loops are handled by a numeric range pre-analysis (interval fixpoint
//! with widening) plus *phase unrolling*: the body is walked twice with
//! re-versioned loop-carried values, which pairs an iteration's tail
//! accesses against the next iteration's head accesses across the
//! back-edge. Loop-carried registers whose values cycle through a small
//! constant sequence (ping-pong buffers) keep their exact constants in
//! each phase; everything else is havocked to fresh range-bounded atoms.
//!
//! Nested counted loops multiply: `d` levels of `t` trips unroll into
//! `t^d` walks of the innermost body, and the numeric pre-analysis
//! re-walks nested bodies once per fixpoint pass. So one kernel's walk
//! spends at most [`WALK_BUDGET`] loop-body walks over the unrolling, the
//! phase walks and the pre-analysis together. Once they are spent, a loop
//! skips the unrolling and the pre-analysis: its carried registers are
//! havocked over the whole range, lane-varying exactly when
//! [`group_divergent_regs`] says they may be, and the two phase walks
//! remain, so races across the back-edge are still paired.
//!
//! ### Divergence rules
//!
//! The walk classifies every guard (non-uniform vs. group-uniform,
//! pair-uniform vs. pair-splitting) from the symbolic condition
//! polynomials, which is strictly stronger than the syntactic register
//! taint in [`crate::validate`]: a condition on `local_id >> 1` is
//! recognized as pair-uniform, and a condition fed by an LDS load is
//! treated as divergent (the LDS has no scalar path, so nothing proves all
//! lanes read the same value). Two instruction classes are policed:
//!
//! * **`Barrier`** under any guard (`If` or `While`) whose condition can
//!   differ between work-items of one group — a hang or undefined
//!   behaviour on real hardware (OpenCL 1.x barrier divergence rule).
//!   This generalizes the validator's "no barrier inside any `If`" rule
//!   to arbitrarily nested, *uniformity-aware* regions: a barrier under
//!   `if (n > 512)` with uniform `n` is fine.
//! * **`Swizzle`** under a guard that is not uniform across even/odd lane
//!   pairs. All [`crate::SwizzleMode`]s exchange within a pair, and GCN
//!   `ds_swizzle` reads the source VGPR regardless of EXEC mask, so a
//!   *pair-uniform* divergent guard (e.g. the RMT transforms' remapped
//!   `lid' == 0`) is still safe: both lanes of a pair are enabled together
//!   and the producer lane's register holds the live value. A guard on the
//!   raw lane id can split a pair and read stale data.
//!
//!   The rule is *staleness-aware*: only swizzle sources **defined while a
//!   pair-splitting guard is active** are flagged (tracked with a
//!   definition clock against the guard's push time). A value computed
//!   before the `if` is live in the disabled lane's register, so
//!   exchanging it inside the guard is well-defined. Pair-uniformity
//!   itself is closed over data flow: values loaded from pair-uniform
//!   addresses, and values merged from both branches of a pair-uniform
//!   `if`, compare equal across the pair and keep downstream guards
//!   pair-uniform.
//!
//! Cost: the register environment is one dense table, edited in place. A
//! branch saves and merges only the registers its two sides define (plus
//! those they read before any definition), so an `If` costs what its
//! branches touch, not what the kernel holds. Each access is stored once;
//! intervals and their alternatives hold indices into that store.

use super::expr::{builtin_poly, rem_poly, shr_poly, Atoms, LintAssumptions, Poly, BIG};
use super::{Diagnostic, LintKind};
use crate::analysis::uniformity::group_divergent_regs;
use crate::fxhash::FxHashSet;
use crate::inst::{BinOp, Block, CmpOp, Inst, MemSpace, Reg, UnOp};
use crate::kernel::Kernel;
use crate::regset::{RegMap, RegSet};
use crate::types::Ty;

/// How an access touches memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// `Load`.
    Read,
    /// `Store`.
    Write,
    /// `Atomic` (any RMW op) — atomics never race with each other.
    Atomic,
}

/// Relation of a guard constraint polynomial to zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rel {
    /// `poly == 0`.
    EqZero,
    /// `poly != 0`.
    NeZero,
    /// `poly <= 0`.
    LeZero,
}

/// One guard fact active at an access: `poly REL 0`.
#[derive(Debug, Clone)]
pub struct Constraint {
    /// The polynomial.
    pub poly: Poly,
    /// Its relation to zero.
    pub rel: Rel,
}

/// A memory access recorded by the walk.
#[derive(Debug, Clone)]
pub struct Access {
    /// Address space.
    pub space: MemSpace,
    /// Read / write / atomic.
    pub kind: AccessKind,
    /// Symbolic byte address.
    pub addr: Poly,
    /// Guard facts active when the access executes (per-item).
    pub constraints: Vec<Constraint>,
    /// `true` if any enclosing guard depends on data the domain cannot
    /// model (loads, float compares) — such accesses are never treated as
    /// *definitely* racing in bug-finder postures.
    pub opaque_guard: bool,
}

impl Access {
    /// Short human-readable description, e.g. `store local@4*lid0`.
    pub fn describe(&self, atoms: &Atoms) -> String {
        describe(self.kind, self.space, &self.addr, atoms)
    }
}

fn describe(kind: AccessKind, space: MemSpace, addr: &Poly, atoms: &Atoms) -> String {
    let what = match kind {
        AccessKind::Read => "load",
        AccessKind::Write => "store",
        AccessKind::Atomic => "atomic",
    };
    format!("{what} {space}@{}", addr.render(atoms))
}

/// One barrier-delimited set of accesses that may execute concurrently,
/// as indices into [`WalkOutput::accesses`].
pub type Interval = Vec<usize>;

/// Everything a walk produces.
#[derive(Debug)]
pub struct WalkOutput {
    /// Interned atoms (shared by all access polynomials).
    pub atoms: Atoms,
    /// Every access, once; an access's index is its program-point id.
    pub accesses: Vec<Access>,
    /// Closed intervals; each is one *alternative* execution of a
    /// barrier-to-barrier region (uniform branches fork alternatives).
    pub intervals: Vec<Interval>,
    /// Divergence-family diagnostics found during the walk.
    pub divergence: Vec<Diagnostic>,
    /// LDS bounds diagnostics found during the walk.
    pub bounds: Vec<Diagnostic>,
}

/// Cached structure of a comparison, for guard refinement.
#[derive(Debug, Clone)]
struct CmpDef {
    op: CmpOp,
    ty: Ty,
    a: Poly,
    b: Poly,
}

/// What a guard tests, kept symbolic until a diagnostic renders it.
#[derive(Debug, Clone)]
enum GuardCond {
    /// A comparison, rendered as its two operands.
    Cmp(Poly, Poly),
    /// A non-comparison condition value.
    Value(Poly),
}

impl GuardCond {
    fn render(&self, atoms: &Atoms) -> String {
        match self {
            GuardCond::Cmp(a, b) => format!("{} vs {}", a.render(atoms), b.render(atoms)),
            GuardCond::Value(p) => p.render(atoms),
        }
    }
}

#[derive(Debug, Clone)]
struct Guard {
    divergent: bool,
    pair_uniform: bool,
    opaque: bool,
    n_constraints: usize,
    /// Value of the engine clock when this guard was pushed (definitions
    /// with a later clock happened under the guard).
    push_clock: usize,
    /// The condition, for diagnostics.
    cond: GuardCond,
    /// `true` for a loop condition.
    is_loop: bool,
}

impl Guard {
    fn describe(&self, atoms: &Atoms) -> String {
        let cond = self.cond.render(atoms);
        if self.is_loop {
            format!("loop condition {cond}")
        } else {
            cond
        }
    }
}

/// Cap on simultaneously-open interval alternatives.
const MAX_ALTS: usize = 8;

/// Numeric range and laneness of a register in the loop pre-analysis.
type Range = (i128, i128, bool);

/// What the loop pre-analysis assumes of a register it knows nothing of.
const UNKNOWN: Range = (0, BIG, true);

/// Loop-body walks one kernel's walk may spend (see the module docs).
/// With the widened range pre-analysis, the heaviest of the 2048
/// benchmark pool cases, as written or under any of the seven
/// `compile-suite` postures, spends 82 and the heaviest suite kernel 69;
/// the budget is there for deep constant-trip nests.
pub(super) const WALK_BUDGET: usize = 20_000;

/// Terms a register's polynomial may hold. A value summed over an
/// unrolled loop (an accumulator of loads) would otherwise gain a term
/// per iteration and make each later operation on it cost as much; past
/// this size it becomes one fresh atom over the same range. Suite kernels
/// and pool cases hold at most 11.
const MAX_TERMS: usize = 32;

pub(super) struct Engine<'a> {
    k: &'a Kernel,
    asm: LintAssumptions,
    atoms: Atoms,
    env: RegMap<Poly>,
    cmps: RegMap<CmpDef>,
    /// Registers read before any definition, in order; the walk gives
    /// each a fresh atom. Branch merges and scratch evaluations use this
    /// log to find (and undo) those inserts.
    undefined: Vec<Reg>,
    /// Every recorded access; the index is the program-point id.
    accesses: Vec<Access>,
    /// Open interval alternatives (accesses since the last barrier).
    open: Vec<Interval>,
    intervals: Vec<Interval>,
    guards: Vec<Guard>,
    constraints: Vec<Constraint>,
    divergence: Vec<Diagnostic>,
    bounds: Vec<Diagnostic>,
    /// Monotone instruction clock; `def_clock` records when a register was
    /// last defined, so the swizzle check can tell values produced inside
    /// a divergent region from values both pair lanes already hold.
    clock: usize,
    def_clock: RegMap<usize>,
    /// Opaque atoms proven *pair-uniform*: produced only from values that
    /// work-items `2k`/`2k+1` share (e.g. a load from a `lid0 >> 1`
    /// address). RMT-transformed kernels branch on such values, and both
    /// lanes of a pair take the same side.
    pair_atoms: FxHashSet<super::expr::AtomId>,
    /// Loop-body walks left of [`WALK_BUDGET`].
    walks_left: usize,
    /// [`group_divergent_regs`] of the kernel, computed when the budget
    /// first runs out.
    divergent: Option<RegSet>,
}

impl<'a> Engine<'a> {
    pub(super) fn new(k: &'a Kernel, asm: LintAssumptions) -> Self {
        let regs = k.next_reg;
        Engine {
            k,
            asm,
            atoms: Atoms::new(),
            env: RegMap::with_capacity(regs),
            cmps: RegMap::with_capacity(regs),
            undefined: Vec::new(),
            accesses: Vec::new(),
            open: vec![Vec::new()],
            intervals: Vec::new(),
            guards: Vec::new(),
            constraints: Vec::new(),
            divergence: Vec::new(),
            bounds: Vec::new(),
            clock: 0,
            def_clock: RegMap::with_capacity(regs),
            pair_atoms: FxHashSet::default(),
            walks_left: WALK_BUDGET,
            divergent: None,
        }
    }

    pub(super) fn run(mut self) -> WalkOutput {
        let k = self.k;
        self.walk_block(&k.body);
        // Close the trailing interval.
        let open = std::mem::take(&mut self.open);
        self.intervals
            .extend(open.into_iter().filter(|i| !i.is_empty()));
        WalkOutput {
            atoms: self.atoms,
            accesses: self.accesses,
            intervals: self.intervals,
            divergence: self.divergence,
            bounds: self.bounds,
        }
    }

    fn poly(&mut self, r: Reg) -> Poly {
        match self.env.get(r) {
            Some(p) => p.clone(),
            None => {
                // Use-before-def is `validate`'s job; stay total here.
                let a = self.atoms.fresh_opaque(true, 0, BIG);
                let p = Poly::atom(a);
                self.env.insert(r, p.clone());
                self.undefined.push(r);
                p
            }
        }
    }

    fn fresh(&mut self, lane: bool, lo: i128, hi: i128) -> Poly {
        Poly::atom(self.atoms.fresh_opaque(lane, lo, hi))
    }

    fn range(&self, p: &Poly) -> (i128, i128) {
        let (lo, hi) = p.eval_range(&self.atoms);
        (lo.max(-BIG), hi.min(BIG))
    }

    fn under_opaque_guard(&self) -> bool {
        self.guards.iter().any(|g| g.opaque)
    }

    /// A poly is *pair-uniform* if work-items `2k` and `2k+1` (adjacent in
    /// `local_id.0`) always observe the same value: no raw `local_id.0`,
    /// parity-bit, or unproven opaque lane dependence. `(lid0 + even) >> s`
    /// for `s ≥ 1` is pair-uniform (both lanes land in one block); lid1 and
    /// lid2 are too, because a pair never differs in those dims; opaque
    /// atoms are pair-uniform when they were derived only from pair-uniform
    /// values (tracked in `pair_atoms`).
    fn pair_uniform(&self, p: &Poly) -> bool {
        use super::expr::AtomKind;
        p.atom_ids().all(|a| {
            let info = self.atoms.info(a);
            if !info.lane {
                return true;
            }
            match &info.kind {
                AtomKind::LocalId(0) => false,
                AtomKind::LocalId(_) => true,
                AtomKind::Quot { arg, shift } => self.pair_uniform_quot(arg, *shift),
                AtomKind::Rem { arg, .. } => self.pair_uniform(arg),
                _ => self.pair_atoms.contains(&a),
            }
        })
    }

    /// `arg >> shift` pair-uniformity: true when `arg` itself is
    /// pair-uniform, or when `arg = lid0 + even-valued pair-uniform rest`
    /// and `shift ≥ 1` — lanes `2k`/`2k+1` then read consecutive values
    /// starting on an even number, which share every `≥2`-sized block.
    fn pair_uniform_quot(&self, arg: &Poly, shift: u8) -> bool {
        use super::expr::AtomKind;
        if self.pair_uniform(arg) {
            return true;
        }
        if shift == 0 {
            return false;
        }
        let mut rest = arg.clone();
        let lid0_key =
            arg.terms().iter().map(|&(m, _)| m).find(|m| {
                m.len() == 1 && matches!(self.atoms.info(m[0]).kind, AtomKind::LocalId(0))
            });
        let c0 = match &lid0_key {
            Some(k) => rest.remove_term(k).unwrap_or(0),
            None => 0,
        };
        let other_lid0 = rest
            .atom_ids()
            .any(|a| matches!(self.atoms.info(a).kind, AtomKind::LocalId(0)));
        c0 == 1
            && !other_lid0
            && rest.k % 2 == 0
            && rest.terms().iter().all(|(_, c)| c % 2 == 0)
            && self.pair_uniform(&rest)
    }

    /// Record that every opaque atom of `p` carries a pair-uniform value.
    fn mark_pair(&mut self, p: &Poly) {
        use super::expr::AtomKind;
        for a in p.atom_ids() {
            if matches!(self.atoms.info(a).kind, AtomKind::Opaque { .. }) {
                self.pair_atoms.insert(a);
            }
        }
    }

    fn record_access(&mut self, space: MemSpace, kind: AccessKind, addr: Poly) {
        if space == MemSpace::Local {
            self.check_lds_bounds(&addr, kind);
        }
        let mut constraints = self.constraints.clone();
        if space == MemSpace::Local && self.k.lds_bytes > 0 {
            // Race proofs may assume the access is in bounds (0 ≤ addr ≤
            // lds − 4): out-of-bounds traffic is undefined behaviour and
            // reported separately by the bounds pass. The assumption lets
            // the fact deriver tighten loop-carried strides (a Blelloch
            // `offset` cannot be 0 inside the sweep, or `offset·(2·lid+1)−1`
            // would go negative).
            constraints.push(Constraint {
                poly: addr.neg(),
                rel: Rel::LeZero,
            });
            constraints.push(Constraint {
                poly: addr.sub(&Poly::constant(self.k.lds_bytes as i64 - 4)),
                rel: Rel::LeZero,
            });
        }
        let idx = self.accesses.len();
        self.accesses.push(Access {
            space,
            kind,
            addr,
            constraints,
            opaque_guard: self.under_opaque_guard(),
        });
        for alt in &mut self.open {
            alt.push(idx);
        }
    }

    /// Flags LDS accesses whose address is *provably* outside the declared
    /// allocation (definite-only: an unknown address is not flagged, and
    /// an access under unsatisfiable guards is dead code, not a bug).
    fn check_lds_bounds(&mut self, addr: &Poly, kind: AccessKind) {
        let lds = self.k.lds_bytes as i128;
        let Some((lo, hi)) = super::races::refined_range(addr, &self.constraints, &self.atoms)
        else {
            return;
        };
        let definite_oob = lo >= lds || (lo == hi && lo + 3 >= lds) || hi < 0;
        if definite_oob && lo < BIG {
            let desc = describe(kind, MemSpace::Local, addr, &self.atoms);
            self.bounds.push(Diagnostic {
                kind: LintKind::LdsOutOfBounds,
                message: format!(
                    "{desc}: address range [{lo}, {hi}] exceeds the {lds}-byte LDS allocation"
                ),
            });
        }
    }

    fn walk_block(&mut self, b: &Block) {
        for inst in b.iter() {
            self.walk_inst(inst);
        }
    }

    fn walk_inst(&mut self, inst: &Inst) {
        self.clock += 1;
        if let Some(d) = inst.dst() {
            self.def_clock.insert(d, self.clock);
        }
        match inst {
            Inst::Const { dst, bits, .. } => {
                self.env.insert(*dst, Poly::constant(*bits as i64));
            }
            Inst::Mov { dst, src } => {
                let p = self.poly(*src);
                self.env.insert(*dst, p);
            }
            Inst::ReadBuiltin { dst, builtin } => {
                let p = builtin_poly(&mut self.atoms, *builtin, &self.asm);
                self.env.insert(*dst, p);
            }
            Inst::ReadParam { dst, index } => {
                use super::expr::AtomKind;
                let a = self.atoms.intern(AtomKind::Param(*index), false, 0, BIG);
                self.env.insert(*dst, Poly::atom(a));
            }
            Inst::Unary { dst, op, a } => {
                let pu = {
                    let pa = self.poly(*a);
                    self.pair_uniform(&pa)
                };
                let p = self.eval_unary(*op, *a);
                if pu {
                    self.mark_pair(&p);
                }
                self.env.insert(*dst, p);
            }
            Inst::Binary { dst, op, ty, a, b } => {
                let pu = {
                    let pa = self.poly(*a);
                    let pb = self.poly(*b);
                    self.pair_uniform(&pa) && self.pair_uniform(&pb)
                };
                let p = self.eval_binary(*op, *ty, *a, *b);
                let p = self.bounded(p);
                if pu {
                    self.mark_pair(&p);
                }
                self.env.insert(*dst, p);
            }
            Inst::Cmp { dst, op, ty, a, b } => {
                let pa = self.poly(*a);
                let pb = self.poly(*b);
                let pu = self.pair_uniform(&pa) && self.pair_uniform(&pb);
                let lane = pa.has_lane(&self.atoms) || pb.has_lane(&self.atoms);
                self.cmps.insert(
                    *dst,
                    CmpDef {
                        op: *op,
                        ty: *ty,
                        a: pa,
                        b: pb,
                    },
                );
                let p = self.fresh(lane, 0, 1);
                if pu {
                    self.mark_pair(&p);
                }
                self.env.insert(*dst, p);
            }
            Inst::Select {
                dst,
                cond,
                if_true,
                if_false,
            } => {
                let pt = self.poly(*if_true);
                let pf = self.poly(*if_false);
                if pt == pf {
                    self.env.insert(*dst, pt);
                } else {
                    let (tlo, thi) = self.range(&pt);
                    let (flo, fhi) = self.range(&pf);
                    let lane = true; // the selection itself is per-lane
                    let p = self.fresh(lane, tlo.min(flo), thi.max(fhi));
                    if self.pair_uniform(&pt) && self.pair_uniform(&pf) {
                        // Both arms pair-shared: the pick may differ, but
                        // the value observed by a pair cannot (a select's
                        // condition register is per-lane yet derived from
                        // the same operands; stay conservative only about
                        // the numeric range).
                        let pc = self.poly(*cond);
                        if self.pair_uniform(&pc) {
                            self.mark_pair(&p);
                        }
                    }
                    self.env.insert(*dst, p);
                }
            }
            Inst::Load { dst, space, addr } => {
                let pa = self.poly(*addr);
                self.record_access(*space, AccessKind::Read, pa.clone());
                // A global load from a lane-free address is treated as
                // group-uniform (the standard scalarization assumption);
                // LDS has no scalar port, so local loads stay per-lane.
                let lane = *space == MemSpace::Local || pa.has_lane(&self.atoms);
                let p = self.fresh(lane, 0, BIG);
                if self.pair_uniform(&pa) {
                    // Both lanes of a pair load the same location, so they
                    // observe the same value (within one barrier interval).
                    self.mark_pair(&p);
                }
                self.env.insert(*dst, p);
            }
            Inst::Store { space, addr, value } => {
                let _ = self.poly(*value);
                let pa = self.poly(*addr);
                self.record_access(*space, AccessKind::Write, pa);
            }
            Inst::Atomic {
                dst, space, addr, ..
            } => {
                let pa = self.poly(*addr);
                self.record_access(*space, AccessKind::Atomic, pa);
                if let Some(d) = dst {
                    let p = self.fresh(true, 0, BIG);
                    self.env.insert(*d, p);
                }
            }
            Inst::Barrier => {
                if let Some(g) = self.guards.iter().find(|g| g.divergent) {
                    let message = format!(
                        "barrier under potentially divergent control flow (guard on {}): \
                         work-items of one group may not all reach it",
                        g.describe(&self.atoms)
                    );
                    self.divergence.push(Diagnostic {
                        kind: LintKind::DivergentBarrier,
                        message,
                    });
                }
                let open = std::mem::take(&mut self.open);
                self.intervals
                    .extend(open.into_iter().filter(|i| !i.is_empty()));
                self.open = vec![Vec::new()];
            }
            Inst::Swizzle { dst, src, .. } => {
                // All swizzle modes exchange within an even/odd lane pair.
                // The exchange reads the source lane's register regardless
                // of its EXEC bit, so the hazard is *staleness*: a value
                // defined inside a guard that can split the pair may never
                // have been computed by the source lane. Values both lanes
                // defined before the guard are safe to exchange under it.
                let src_def = self.def_clock.get(*src).copied().unwrap_or(0);
                if let Some(g) = self
                    .guards
                    .iter()
                    .find(|g| g.divergent && !g.pair_uniform && src_def > g.push_clock)
                {
                    let message = format!(
                        "swizzle of a value defined under a guard (on {}) that is not \
                         uniform across even/odd lane pairs: the source lane may never \
                         have computed it",
                        g.describe(&self.atoms)
                    );
                    self.divergence.push(Diagnostic {
                        kind: LintKind::DivergentSwizzle,
                        message,
                    });
                }
                let ps = self.poly(*src);
                let (lo, hi) = self.range(&ps);
                let p = self.fresh(true, lo.min(0), hi);
                if self.pair_uniform(&ps) {
                    // Exchanging a pair-shared value yields the same value.
                    self.mark_pair(&p);
                }
                self.env.insert(*dst, p);
            }
            Inst::If {
                cond,
                then_blk,
                else_blk,
            } => self.walk_if(*cond, then_blk, else_blk),
            Inst::While {
                cond,
                cond_reg,
                body,
            } => self.walk_while(cond, *cond_reg, body),
        }
    }

    fn eval_unary(&mut self, op: UnOp, a: Reg) -> Poly {
        let pa = self.poly(a);
        let (lo, hi) = self.range(&pa);
        let lane = pa.has_lane(&self.atoms);
        match op {
            UnOp::Neg => pa.neg(),
            UnOp::Abs => {
                if lo >= 0 {
                    pa
                } else {
                    self.fresh(lane, 0, hi.saturating_abs().max(lo.saturating_abs()))
                }
            }
            _ => self.fresh(lane, -BIG, BIG),
        }
    }

    fn eval_binary(&mut self, op: BinOp, ty: Ty, a: Reg, b: Reg) -> Poly {
        let pa = self.poly(a);
        let pb = self.poly(b);
        if ty == Ty::F32 {
            let lane = pa.has_lane(&self.atoms) || pb.has_lane(&self.atoms);
            return self.fresh(lane, -BIG, BIG);
        }
        let (alo, ahi) = self.range(&pa);
        let (blo, bhi) = self.range(&pb);
        let lane = pa.has_lane(&self.atoms) || pb.has_lane(&self.atoms);
        match op {
            BinOp::Add => pa.add(&pb),
            BinOp::Sub => pa.sub(&pb),
            BinOp::Mul => match pa.mul(&pb) {
                Some(p) => p,
                None => {
                    let cands = [
                        alo.saturating_mul(blo),
                        alo.saturating_mul(bhi),
                        ahi.saturating_mul(blo),
                        ahi.saturating_mul(bhi),
                    ];
                    self.fresh(
                        lane,
                        *cands.iter().min().unwrap(),
                        *cands.iter().max().unwrap(),
                    )
                }
            },
            BinOp::Shl => match pb.as_const() {
                Some(s) if (0..32).contains(&s) => pa.scale(1i64 << s),
                _ => self.fresh(lane, 0, BIG),
            },
            BinOp::Shr => match pb.as_const() {
                Some(s) if (0..32).contains(&s) && alo >= 0 => {
                    shr_poly(&mut self.atoms, &pa, s as u8)
                }
                _ => self.fresh(lane, 0, ahi.max(0)),
            },
            BinOp::And => {
                if let Some(s) = low_mask_bits(&pb) {
                    if alo >= 0 {
                        return rem_poly(&mut self.atoms, &pa, s);
                    }
                }
                if let Some(s) = low_mask_bits(&pa) {
                    if blo >= 0 {
                        return rem_poly(&mut self.atoms, &pb, s);
                    }
                }
                if alo >= 0 && blo >= 0 {
                    self.fresh(lane, 0, ahi.min(bhi))
                } else {
                    self.fresh(lane, -BIG, BIG)
                }
            }
            BinOp::Or | BinOp::Xor => {
                if alo >= 0 && blo >= 0 {
                    self.fresh(lane, 0, ahi.saturating_add(bhi))
                } else {
                    self.fresh(lane, -BIG, BIG)
                }
            }
            BinOp::Div => match pb.as_const() {
                Some(d) if d > 0 && (d as u64).is_power_of_two() && alo >= 0 => {
                    shr_poly(&mut self.atoms, &pa, d.trailing_zeros() as u8)
                }
                Some(d) if d > 0 && alo >= 0 => self.fresh(lane, alo / d as i128, ahi / d as i128),
                _ => self.fresh(lane, 0, ahi.max(0)),
            },
            BinOp::Rem => match pb.as_const() {
                Some(d) if d > 0 && (d as u64).is_power_of_two() && alo >= 0 => {
                    rem_poly(&mut self.atoms, &pa, d.trailing_zeros() as u8)
                }
                Some(d) if d > 0 => self.fresh(lane, 0, d as i128 - 1),
                _ => {
                    if in_bounds_positive(blo, bhi) {
                        self.fresh(lane, 0, bhi - 1)
                    } else {
                        self.fresh(lane, 0, ahi.max(0))
                    }
                }
            },
            BinOp::Min => self.fresh(lane, alo.min(blo), ahi.min(bhi)),
            BinOp::Max => self.fresh(lane, alo.max(blo), ahi.max(bhi)),
        }
    }

    /// Builds the guard fact for `cond` being true (or false).
    fn guard_constraint(&mut self, cond: Reg, taken: bool) -> Option<Constraint> {
        let def = self.cmps.get(cond).cloned();
        if let Some(CmpDef { op, ty, a, b }) = def {
            if ty == Ty::F32 {
                return None;
            }
            let d = a.sub(&b);
            let one = Poly::constant(1);
            let (rel, poly) = match (op, taken) {
                (CmpOp::Eq, true) | (CmpOp::Ne, false) => (Rel::EqZero, d),
                (CmpOp::Ne, true) | (CmpOp::Eq, false) => (Rel::NeZero, d),
                (CmpOp::Lt, true) | (CmpOp::Ge, false) => (Rel::LeZero, d.add(&one)),
                (CmpOp::Le, true) | (CmpOp::Gt, false) => (Rel::LeZero, d),
                (CmpOp::Gt, true) | (CmpOp::Le, false) => (Rel::LeZero, d.neg().add(&one)),
                (CmpOp::Ge, true) | (CmpOp::Lt, false) => (Rel::LeZero, d.neg()),
            };
            return Some(Constraint { poly, rel });
        }
        // Non-comparison condition: constrain its value directly.
        let p = self.poly(cond);
        Some(Constraint {
            poly: p,
            rel: if taken { Rel::NeZero } else { Rel::EqZero },
        })
    }

    fn push_guard(&mut self, cond: Reg, taken: bool) {
        let (div, pair_u, opaque) = self.guard_shape(cond);
        let guard_cond = self.guard_cond(cond);
        let mut n = 0;
        if let Some(c) = self.guard_constraint(cond, taken) {
            self.constraints.push(c);
            n = 1;
        }
        self.guards.push(Guard {
            divergent: div,
            pair_uniform: pair_u,
            opaque,
            n_constraints: n,
            push_clock: self.clock,
            cond: guard_cond,
            is_loop: false,
        });
    }

    /// The condition's operands, for diagnostics.
    fn guard_cond(&mut self, cond: Reg) -> GuardCond {
        match self.cmps.get(cond) {
            Some(c) => GuardCond::Cmp(c.a.clone(), c.b.clone()),
            None => GuardCond::Value(self.poly(cond)),
        }
    }

    fn pop_guard(&mut self) {
        if let Some(g) = self.guards.pop() {
            for _ in 0..g.n_constraints {
                self.constraints.pop();
            }
        }
    }

    /// (divergent, pair_uniform, opaque) for a condition register.
    fn guard_shape(&mut self, cond: Reg) -> (bool, bool, bool) {
        use super::expr::AtomKind;
        let polys: Vec<Poly> = match self.cmps.get(cond) {
            Some(c) => vec![c.a.clone(), c.b.clone()],
            None => vec![self.poly(cond)],
        };
        let mut div = false;
        let mut pair_u = true;
        let mut opaque = false;
        for p in &polys {
            if p.has_lane(&self.atoms) {
                div = true;
            }
            if !self.pair_uniform(p) {
                pair_u = false;
            }
            for a in p.atom_ids() {
                let i = self.atoms.info(a);
                if i.lane && matches!(i.kind, AtomKind::Opaque { .. }) {
                    opaque = true;
                }
            }
        }
        (div, pair_u, opaque)
    }

    fn walk_if(&mut self, cond: Reg, then_blk: &Block, else_blk: &Block) {
        let (div, pair_u, _) = self.guard_shape(cond);
        // Only registers a branch defines, or reads before any definition,
        // can differ between the two sides. Save the defined ones; the
        // undefined-read log names the rest (they were absent on entry).
        let mut defs = Vec::new();
        then_blk.visit_insts(&mut |i| defs.extend(i.dst()));
        else_blk.visit_insts(&mut |i| defs.extend(i.dst()));
        defs.sort_unstable();
        defs.dedup();
        let pre: Vec<Option<Poly>> = defs.iter().map(|&r| self.env.get(r).cloned()).collect();
        let mark = self.undefined.len();
        let snapshot = self.open.clone();

        self.push_guard(cond, true);
        self.walk_block(then_blk);
        self.pop_guard();
        let open_t = std::mem::replace(&mut self.open, snapshot);
        let then_regs = sorted_union(&defs, &self.undefined[mark..]);
        let env_t: Vec<Option<Poly>> = then_regs.iter().map(|&r| self.env.set(r, None)).collect();
        for (&r, p) in defs.iter().zip(pre) {
            self.env.set(r, p);
        }

        self.push_guard(cond, false);
        self.walk_block(else_blk);
        self.pop_guard();
        let open_e = std::mem::take(&mut self.open);

        // Merge interval alternatives. A divergent branch interleaves both
        // sides in one schedule; a uniform branch forks alternatives.
        self.open = if div && open_t.len() == open_e.len() {
            open_t
                .into_iter()
                .zip(open_e)
                .map(|(mut t, e)| {
                    union_into(&mut t, e);
                    t
                })
                .collect()
        } else {
            let mut alts = open_t;
            alts.extend(open_e);
            cap_alternatives(alts)
        };

        // Merge environments: registers that agree keep their value,
        // anything else becomes a fresh range-hull atom.
        let mut env_t = then_regs.into_iter().zip(env_t).peekable();
        for r in sorted_union(&defs, &self.undefined[mark..]) {
            let vt = match env_t.peek() {
                Some(&(rt, _)) if rt == r => env_t.next().and_then(|(_, v)| v),
                // Read before any definition only on the else side: absent
                // on entry and untouched by the then side.
                _ => None,
            };
            let ve = self.env.set(r, None);
            let merged = self.merge_value(vt, ve, pair_u);
            self.env.set(r, merged);
        }
    }

    /// One register's value after a branch, from its value at the end of
    /// each side (`None`: never defined on that side).
    fn merge_value(&mut self, t: Option<Poly>, e: Option<Poly>, pair_u: bool) -> Option<Poly> {
        match (t, e) {
            (Some(a), Some(b)) if a == b => Some(a),
            (Some(a), Some(b)) => {
                let (alo, ahi) = self.range(&a);
                let (blo, bhi) = self.range(&b);
                let lane = true; // value now depends on the branch taken
                let p = self.fresh(lane, alo.min(blo), ahi.max(bhi));
                if pair_u && self.pair_uniform(&a) && self.pair_uniform(&b) {
                    // Both lanes of a pair took the same side and both
                    // sides' values are pair-shared.
                    self.mark_pair(&p);
                }
                Some(p)
            }
            (Some(a), None) | (None, Some(a)) => {
                let (lo, hi) = self.range(&a);
                let p = self.fresh(true, lo.min(0), hi);
                if pair_u && self.pair_uniform(&a) {
                    self.mark_pair(&p);
                }
                Some(p)
            }
            (None, None) => None,
        }
    }

    fn walk_while(&mut self, cond: &Block, cond_reg: Reg, body: &Block) {
        // Concrete unrolling: a loop whose condition folds to a constant
        // every time around (counted loops over literal bounds — scan
        // sweeps, butterfly stages) is walked iteration by iteration, so
        // loop-carried scalars stay exact. The interval hull below loses
        // relational invariants (a Blelloch sweep keeps `offset · active`
        // constant) and would manufacture collisions between iterations
        // that can never coexist. The exit is tested after the last
        // unrolled iteration too, so a loop of exactly `MAX_UNROLL` trips
        // still leaves by its exit edge.
        const MAX_UNROLL: usize = 64;
        let mut unrolled = 0;
        loop {
            match self.scratch(cond, |e| e.cond_const_value(cond_reg)) {
                Some(false) => {
                    // Exit edge: run the condition block once for real
                    // (its definitions stay visible after the loop).
                    self.walk_block(cond);
                    return;
                }
                Some(true) if unrolled < MAX_UNROLL && self.spend_walk() => {
                    self.walk_block(cond);
                    self.walk_block(body);
                    unrolled += 1;
                }
                _ => break,
            }
        }
        // The condition stopped folding (or the cap or the budget was
        // hit): analyse the remaining iterations with the hull/havoc
        // scheme.

        let carried = carried_regs(self.k, cond, body);

        // Numeric pre-analysis: iterate the loop on interval ranges to a
        // fixpoint (with widening), giving each carried register a hull.
        let hulls = self.loop_hulls(cond, cond_reg, body, &carried);

        // Constant-cycle detection: a carried register whose value cycles
        // through constants with period ≤ 2 (ping-pong buffer offsets)
        // keeps its exact constants per phase.
        let c0 = self.env.filter_map(Poly::as_const);
        let c1 = const_prop(cond, body, &c0);
        let c2 = const_prop(cond, body, &c1);
        let cyclic: Vec<Option<(i64, i64)>> = carried
            .iter()
            .map(|&r| match (c0.get(r), c1.get(r), c2.get(r)) {
                (Some(&a), Some(&b), Some(&a2)) if a == a2 => Some((a, b)),
                _ => None,
            })
            .collect();

        let is_barrier = |i: &Inst| matches!(i, Inst::Barrier);
        let had_barrier = cond.count_insts(is_barrier) + body.count_insts(is_barrier) > 0;
        let snapshot = if had_barrier {
            Some(self.open.clone())
        } else {
            None
        };

        let (div, _, _) = self.scratch(cond, |e| e.guard_shape(cond_reg));
        if div && had_barrier {
            self.divergence.push(Diagnostic {
                kind: LintKind::DivergentBarrier,
                message: "barrier inside a loop with a potentially non-uniform trip \
                          count: work-items may disagree on the iteration reaching it"
                    .into(),
            });
        }

        // Two phases: pairs tail-of-iteration-k against head-of-k+1. They
        // are needed for soundness, so they spend the budget but never
        // wait for it.
        for phase in 0..2u8 {
            self.walks_left = self.walks_left.saturating_sub(1);
            for (i, &r) in carried.iter().enumerate() {
                let p = match cyclic[i] {
                    Some((a, b)) => Poly::constant(if phase == 0 { a } else { b }),
                    None => {
                        let (lo, hi, lane) = hulls[i];
                        self.fresh(lane, lo, hi)
                    }
                };
                self.env.insert(r, p);
            }
            self.walk_block(cond);
            let guard_cond = self.guard_cond(cond_reg);
            let div_guard = Guard {
                divergent: div,
                pair_uniform: !div,
                opaque: false,
                n_constraints: match self.guard_constraint(cond_reg, true) {
                    Some(c) => {
                        self.constraints.push(c);
                        1
                    }
                    None => 0,
                },
                push_clock: self.clock,
                cond: guard_cond,
                is_loop: true,
            };
            self.guards.push(div_guard);
            self.walk_block(body);
            self.pop_guard();
        }

        // Post-loop state: carried registers are unknown within their hull
        // (except period-1 constants, which are genuinely stable).
        for (i, &r) in carried.iter().enumerate() {
            let p = match cyclic[i] {
                Some((a, b)) if a == b => Poly::constant(a),
                _ => {
                    let (lo, hi, lane) = hulls[i];
                    self.fresh(lane, lo, hi)
                }
            };
            self.env.insert(r, p);
        }

        // The zero-iteration path is an alternative schedule.
        if let Some(before) = snapshot {
            let mut alts = before;
            alts.extend(std::mem::take(&mut self.open));
            self.open = cap_alternatives(alts);
        }
    }

    /// Walks `cond` on scratch state, evaluates `f` on the result, and
    /// undoes the walk: registers, comparisons, accesses, intervals and
    /// diagnostics return to what they were (atoms and the clock keep
    /// advancing, as they do on any walk).
    fn scratch<T>(&mut self, cond: &Block, f: impl FnOnce(&mut Self) -> T) -> T {
        let mut defs = Vec::new();
        cond.visit_insts(&mut |i| defs.extend(i.dst()));
        defs.sort_unstable();
        defs.dedup();
        let saved: Vec<(Option<Poly>, Option<CmpDef>)> = defs
            .iter()
            .map(|&r| (self.env.get(r).cloned(), self.cmps.get(r).cloned()))
            .collect();
        let undef_save = self.undefined.len();
        let open_save = std::mem::replace(&mut self.open, vec![Vec::new()]);
        let acc_save = self.accesses.len();
        let ivl_save = self.intervals.len();
        let div_save = self.divergence.len();
        let bnd_save = self.bounds.len();
        self.walk_block(cond);
        let v = f(self);
        for r in self.undefined.drain(undef_save..) {
            self.env.set(r, None);
        }
        for (&r, (p, c)) in defs.iter().zip(saved) {
            self.env.set(r, p);
            self.cmps.set(r, c);
        }
        self.open = open_save;
        self.accesses.truncate(acc_save);
        self.intervals.truncate(ivl_save);
        self.divergence.truncate(div_save);
        self.bounds.truncate(bnd_save);
        v
    }

    fn cond_const_value(&mut self, cond_reg: Reg) -> Option<bool> {
        if let Some(c) = self.cmps.get(cond_reg) {
            let a = c.a.as_const()?;
            let b = c.b.as_const()?;
            let (a, b) = if c.ty == Ty::U32 {
                (((a as u32) as i64), ((b as u32) as i64))
            } else {
                (a, b)
            };
            Some(match c.op {
                CmpOp::Eq => a == b,
                CmpOp::Ne => a != b,
                CmpOp::Lt => a < b,
                CmpOp::Le => a <= b,
                CmpOp::Gt => a > b,
                CmpOp::Ge => a >= b,
            })
        } else {
            self.poly(cond_reg).as_const().map(|v| v != 0)
        }
    }

    /// Interval fixpoint over the loop: returns, for each of `carried`, the
    /// numeric hull (and laneness) that holds on entry to every iteration.
    /// Hulls grow by [`widen`], so a counter bounded by a parameter settles
    /// in four passes instead of climbing one step per pass.
    ///
    /// Each pass spends a walk, and so does each pass of a nested loop's
    /// fixpoint; when the budget runs out the loop gets
    /// [`Self::havoc_hulls`] instead.
    fn loop_hulls(
        &mut self,
        cond: &Block,
        cond_reg: Reg,
        body: &Block,
        carried: &[Reg],
    ) -> Vec<Range> {
        let mut num = self.env.filter_map(|p| {
            let (lo, hi) = p.eval_range(&self.atoms);
            Some((lo, hi, p.has_lane(&self.atoms)))
        });
        let mut hull: Vec<Option<Range>> = carried.iter().map(|&r| num.get(r).copied()).collect();
        let mut cmp_defs = RegMap::new();
        let mut env = RegMap::new();
        for pass in 0.. {
            if !self.spend_walk() {
                return self.havoc_hulls(carried);
            }
            env.clone_from(&num);
            walk_num(cond, &mut env, &mut cmp_defs, &mut self.walks_left);
            // Refine with the loop condition being true.
            if let Some(&(op, a, b)) = cmp_defs.get(cond_reg) {
                refine_num(&mut env, op, a, b);
            }
            walk_num(body, &mut env, &mut cmp_defs, &mut self.walks_left);
            if self.walks_left == 0 {
                // A nested fixpoint may have stopped short.
                return self.havoc_hulls(carried);
            }
            let mut changed = false;
            for (&r, h) in carried.iter().zip(hull.iter_mut()) {
                let cur = env.get(r).copied().unwrap_or(UNKNOWN);
                let h = h.get_or_insert(cur);
                let joined = widen(pass, *h, cur);
                if joined != *h {
                    *h = joined;
                    changed = true;
                }
                num.insert(r, *h);
            }
            if !changed {
                break;
            }
        }
        hull.into_iter().map(|h| h.unwrap_or(UNKNOWN)).collect()
    }

    /// `p`, or, past [`MAX_TERMS`] terms, a fresh atom over its range with
    /// its laneness.
    fn bounded(&mut self, p: Poly) -> Poly {
        if p.terms().len() <= MAX_TERMS {
            return p;
        }
        let (lo, hi) = self.range(&p);
        let lane = p.has_lane(&self.atoms);
        self.fresh(lane, lo, hi)
    }

    /// Spends one loop-body walk; `false` once the budget is spent.
    fn spend_walk(&mut self) -> bool {
        let left = self.walks_left.checked_sub(1);
        self.walks_left = left.unwrap_or(0);
        left.is_some()
    }

    /// The hulls of a loop walked without its pre-analysis: every
    /// carried register may hold anything, and is lane-varying where the
    /// kernel's divergence taint says it may be.
    fn havoc_hulls(&mut self, carried: &[Reg]) -> Vec<Range> {
        let k = self.k;
        let divergent = self
            .divergent
            .get_or_insert_with(|| group_divergent_regs(k));
        carried
            .iter()
            .map(|&r| (-BIG, BIG, divergent.contains(r)))
            .collect()
    }
}

/// Registers written anywhere in a loop, in first-definition order.
fn carried_regs(k: &Kernel, cond: &Block, body: &Block) -> Vec<Reg> {
    let mut carried: Vec<Reg> = Vec::new();
    let mut seen = RegSet::for_kernel(k);
    let mut carry = |i: &Inst| {
        if let Some(r) = i.dst().filter(|&r| seen.insert(r)) {
            carried.push(r);
        }
    };
    cond.visit_insts(&mut carry);
    body.visit_insts(&mut carry);
    carried
}

/// Passes of a range fixpoint that join exactly before [`widen`] widens.
const EXACT_PASSES: usize = 2;

/// The loop-head range `h` joined with `cur`, the range one more pass
/// produced. For the first [`EXACT_PASSES`] passes this is the plain hull;
/// after that a bound that still moves jumps to ±[`BIG`] (or stays where
/// it is if already past it), and a bound that held stays. Each bound can
/// then move at most once more, so the fixpoint ends within a few passes
/// of the last exact one.
fn widen(pass: usize, h: Range, cur: Range) -> Range {
    let exact = pass < EXACT_PASSES;
    let lo = match cur.0 < h.0 {
        false => h.0,
        true if exact => cur.0,
        true => h.0.min(-BIG),
    };
    let hi = match cur.1 > h.1 {
        false => h.1,
        true if exact => cur.1,
        true => h.1.max(BIG),
    };
    (lo, hi, h.2 || cur.2)
}

fn in_bounds_positive(_blo: i128, bhi: i128) -> bool {
    bhi > 0 && bhi < BIG
}

/// `Some(s)` when `p` is the constant low-bit mask `2^s − 1` with
/// `s ≤ 32`: `x & p` is then `x mod 2^s`. Wider masks do not occur in
/// 32-bit address arithmetic and are left to the generic case.
fn low_mask_bits(p: &Poly) -> Option<u8> {
    let m = p.as_const()?;
    let size = m.checked_add(1)?;
    if m < 0 || !(size as u64).is_power_of_two() || size > 1 << 32 {
        return None;
    }
    Some(size.trailing_zeros() as u8)
}

/// The sorted, duplicate-free union of a sorted set and more registers.
fn sorted_union(sorted: &[Reg], more: &[Reg]) -> Vec<Reg> {
    let mut out = sorted.to_vec();
    out.extend_from_slice(more);
    out.sort_unstable();
    out.dedup();
    out
}

/// Appends the accesses of `extra` that `alt` does not hold yet.
fn union_into(alt: &mut Interval, extra: Interval) {
    let known: FxHashSet<usize> = alt.iter().copied().collect();
    alt.extend(extra.into_iter().filter(|a| !known.contains(a)));
}

/// Folds the alternatives beyond [`MAX_ALTS`] into the last one kept.
fn cap_alternatives(mut alts: Vec<Interval>) -> Vec<Interval> {
    while alts.len() > MAX_ALTS {
        let extra = alts.pop().expect("more than MAX_ALTS alternatives");
        union_into(alts.last_mut().expect("MAX_ALTS is positive"), extra);
    }
    alts
}

/// Straight-line constant propagation through one loop iteration
/// (cond then body). Anything assigned under control flow, from memory,
/// or from non-constant arithmetic becomes unknown.
fn const_prop(cond: &Block, body: &Block, init: &RegMap<i64>) -> RegMap<i64> {
    let mut env = init.clone();
    const_prop_block(cond, &mut env);
    const_prop_block(body, &mut env);
    env
}

fn const_prop_block(b: &Block, env: &mut RegMap<i64>) {
    for inst in b.iter() {
        match inst {
            Inst::Const { dst, bits, .. } => {
                env.insert(*dst, *bits as i64);
            }
            Inst::Mov { dst, src } => {
                let v = env.get(*src).copied();
                env.set(*dst, v);
            }
            Inst::Binary { dst, op, ty, a, b } if *ty != Ty::F32 => {
                let v = match (env.get(*a), env.get(*b)) {
                    (Some(&x), Some(&y)) => eval_const_binop(*op, x, y),
                    _ => None,
                };
                env.set(*dst, v);
            }
            Inst::If {
                then_blk, else_blk, ..
            } => {
                // Branch-dependent values are not loop-phase constants.
                let mut forget = |i: &Inst| {
                    if let Some(r) = i.dst() {
                        env.set(r, None);
                    }
                };
                then_blk.visit_insts(&mut forget);
                else_blk.visit_insts(&mut forget);
            }
            Inst::While { cond, body, .. } => {
                let mut forget = |i: &Inst| {
                    if let Some(r) = i.dst() {
                        env.set(r, None);
                    }
                };
                cond.visit_insts(&mut forget);
                body.visit_insts(&mut forget);
            }
            other => {
                if let Some(d) = other.dst() {
                    env.set(d, None);
                }
            }
        }
    }
}

fn eval_const_binop(op: BinOp, x: i64, y: i64) -> Option<i64> {
    Some(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                0
            } else {
                x / y
            }
        }
        BinOp::Rem => {
            if y == 0 {
                0
            } else {
                x % y
            }
        }
        BinOp::Min => x.min(y),
        BinOp::Max => x.max(y),
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => ((x as u32) << ((y as u32) & 31)) as i64,
        BinOp::Shr => ((x as u32) >> ((y as u32) & 31)) as i64,
    })
}

/// Numeric interval transfer for one block (used by the loop pre-analysis).
/// A nested loop runs to its own fixpoint, widened by [`widen`]; each of
/// its passes spends one of `walks_left`, and with none left the fixpoint
/// stops short and the caller must discard `env`.
fn walk_num(
    b: &Block,
    env: &mut RegMap<Range>,
    cmps: &mut RegMap<(CmpOp, Reg, Reg)>,
    walks_left: &mut usize,
) {
    let get = |env: &RegMap<Range>, r: Reg| env.get(r).copied().unwrap_or(UNKNOWN);
    for inst in b.iter() {
        match inst {
            Inst::Const { dst, bits, .. } => {
                env.insert(*dst, (*bits as i128, *bits as i128, false));
            }
            Inst::Mov { dst, src } => {
                let v = get(env, *src);
                env.insert(*dst, v);
            }
            Inst::ReadBuiltin { dst, .. } => {
                env.insert(*dst, UNKNOWN);
            }
            Inst::ReadParam { dst, .. } => {
                env.insert(*dst, (0, BIG, false));
            }
            Inst::Cmp { dst, op, a, b, .. } => {
                let la = get(env, *a).2;
                let lb = get(env, *b).2;
                cmps.insert(*dst, (*op, *a, *b));
                env.insert(*dst, (0, 1, la || lb));
            }
            Inst::Binary { dst, op, ty, a, b } => {
                let (alo, ahi, la) = get(env, *a);
                let (blo, bhi, lb) = get(env, *b);
                let lane = la || lb;
                let v = if *ty == Ty::F32 {
                    (-BIG, BIG, lane)
                } else {
                    num_binop(*op, (alo, ahi), (blo, bhi), lane)
                };
                env.insert(*dst, v);
            }
            Inst::Unary { dst, op, a } => {
                let (alo, ahi, lane) = get(env, *a);
                let v = match op {
                    UnOp::Neg => (-ahi, -alo, lane),
                    UnOp::Abs if alo >= 0 => (alo, ahi, lane),
                    _ => (-BIG, BIG, lane),
                };
                env.insert(*dst, v);
            }
            Inst::Select {
                dst,
                if_true,
                if_false,
                ..
            } => {
                let t = get(env, *if_true);
                let f = get(env, *if_false);
                env.insert(*dst, (t.0.min(f.0), t.1.max(f.1), true));
            }
            Inst::Load { dst, space, addr } => {
                let lane = *space == MemSpace::Local || get(env, *addr).2;
                env.insert(*dst, (0, BIG, lane));
            }
            Inst::Atomic { dst: Some(d), .. } => {
                env.insert(*d, UNKNOWN);
            }
            Inst::Swizzle { dst, src, .. } => {
                let (lo, hi, _) = get(env, *src);
                env.insert(*dst, (lo.min(0), hi, true));
            }
            Inst::If {
                then_blk, else_blk, ..
            } => {
                // Join the two sides over every register either one holds.
                let mut ee = env.clone();
                walk_num(then_blk, env, cmps, walks_left);
                walk_num(else_blk, &mut ee, cmps, walks_left);
                let join = |t: Range, e: Range| (t.0.min(e.0), t.1.max(e.1), t.2 || e.2);
                for (r, t) in env.iter_mut() {
                    *t = join(*t, get(&ee, r));
                }
                for (r, &e) in ee.iter() {
                    if !env.contains(r) {
                        env.insert(r, join(UNKNOWN, e));
                    }
                }
            }
            Inst::While {
                cond,
                cond_reg,
                body,
            } => {
                for pass in 0.. {
                    let Some(left) = walks_left.checked_sub(1) else {
                        break;
                    };
                    *walks_left = left;
                    let before = env.clone();
                    walk_num(cond, env, cmps, walks_left);
                    if let Some(&(op, a, b)) = cmps.get(*cond_reg) {
                        refine_num(env, op, a, b);
                    }
                    walk_num(body, env, cmps, walks_left);
                    let mut changed = false;
                    for (r, v) in env.iter_mut() {
                        if let Some(&p) = before.get(r) {
                            *v = widen(pass, p, *v);
                            changed |= *v != p;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
            }
            other => {
                if let Some(d) = other.dst() {
                    env.insert(d, UNKNOWN);
                }
            }
        }
    }
}

fn num_binop(op: BinOp, a: (i128, i128), b: (i128, i128), lane: bool) -> Range {
    let (alo, ahi) = a;
    let (blo, bhi) = b;
    match op {
        BinOp::Add => (alo.saturating_add(blo), ahi.saturating_add(bhi), lane),
        BinOp::Sub => (alo.saturating_sub(bhi), ahi.saturating_sub(blo), lane),
        BinOp::Mul => {
            let c = [
                alo.saturating_mul(blo),
                alo.saturating_mul(bhi),
                ahi.saturating_mul(blo),
                ahi.saturating_mul(bhi),
            ];
            (*c.iter().min().unwrap(), *c.iter().max().unwrap(), lane)
        }
        BinOp::Shr if blo == bhi && (0..32).contains(&blo) && alo >= 0 => {
            (alo >> blo, ahi >> blo, lane)
        }
        BinOp::Shl if blo == bhi && (0..32).contains(&blo) && alo >= 0 => (
            alo.saturating_mul(1 << blo),
            ahi.saturating_mul(1 << blo),
            lane,
        ),
        BinOp::And if alo >= 0 && blo >= 0 => (0, ahi.min(bhi), lane),
        BinOp::Or | BinOp::Xor if alo >= 0 && blo >= 0 => (0, ahi.saturating_add(bhi), lane),
        BinOp::Div if blo == bhi && blo > 0 && alo >= 0 => (alo / blo, ahi / blo, lane),
        BinOp::Rem if blo > 0 && bhi < BIG => (0, bhi - 1, lane),
        BinOp::Min => (alo.min(blo), ahi.min(bhi), lane),
        BinOp::Max => (alo.max(blo), ahi.max(bhi), lane),
        _ => (-BIG, BIG, lane),
    }
}

/// Narrows `a` and `b`'s ranges assuming `a OP b` is true.
fn refine_num(env: &mut RegMap<Range>, op: CmpOp, a: Reg, b: Reg) {
    let ra = env.get(a).copied();
    let rb = env.get(b).copied();
    if let (Some((alo, ahi, la)), Some((blo, bhi, lb))) = (ra, rb) {
        let (na, nb) = match op {
            CmpOp::Lt => ((alo, ahi.min(bhi - 1)), (blo.max(alo + 1), bhi)),
            CmpOp::Le => ((alo, ahi.min(bhi)), (blo.max(alo), bhi)),
            CmpOp::Gt => ((alo.max(blo + 1), ahi), (blo, bhi.min(ahi - 1))),
            CmpOp::Ge => ((alo.max(blo), ahi), (blo, bhi.min(ahi))),
            CmpOp::Eq => ((alo.max(blo), ahi.min(bhi)), (blo.max(alo), bhi.min(ahi))),
            CmpOp::Ne => ((alo, ahi), (blo, bhi)),
        };
        env.insert(a, (na.0, na.1, la));
        env.insert(b, (nb.0, nb.1, lb));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::KernelBuilder;

    /// Walks `k` up to its first top-level loop and runs that loop's range
    /// pre-analysis: the carried registers, their hulls, and the walks the
    /// pre-analysis spent (one per pass, plus a nested loop's passes).
    fn first_loop_hulls(k: &Kernel) -> (Vec<Reg>, Vec<Range>, usize) {
        let mut e = Engine::new(k, LintAssumptions::one_dim(64));
        for inst in k.body.iter() {
            if let Inst::While {
                cond,
                cond_reg,
                body,
            } = inst
            {
                let carried = carried_regs(k, cond, body);
                let before = e.walks_left;
                let hulls = e.loop_hulls(cond, *cond_reg, body, &carried);
                return (carried, hulls, before - e.walks_left);
            }
            e.walk_inst(inst);
        }
        panic!("the kernel has no top-level loop");
    }

    fn hull_of(k: &Kernel, r: Reg) -> Range {
        let (carried, hulls, _) = first_loop_hulls(k);
        let i = carried.iter().position(|&c| c == r).expect("r is carried");
        hulls[i]
    }

    /// `for i in 0..n` with `n` a parameter, and in its body whatever
    /// `body` builds over a register carried from before the loop.
    fn counted(body: impl FnOnce(&mut KernelBuilder, Reg)) -> (Kernel, Reg) {
        let mut b = KernelBuilder::new("counted");
        let n = b.scalar_param("n", Ty::U32);
        let zero = b.const_u32(0);
        let x = b.fresh();
        b.mov_to(x, zero);
        b.for_range(zero, n, |b, _| body(b, x));
        (b.finish(), x)
    }

    #[test]
    fn a_falling_lower_bound_widens_to_minus_big() {
        let (k, x) = counted(|b, x| {
            let three = b.const_i32(3);
            let down = b.sub_i32(x, three);
            b.mov_to(x, down);
        });
        assert_eq!(hull_of(&k, x), (-BIG, 0, false));
    }

    #[test]
    fn a_converged_register_keeps_its_hull() {
        // `x = 1 - x` settles at [0, 1] while the counter beside it
        // still climbs; only the counter widens.
        let (k, x) = counted(|b, x| {
            let one = b.const_u32(1);
            let flip = b.sub_u32(one, x);
            b.mov_to(x, flip);
        });
        assert_eq!(hull_of(&k, x), (0, 1, false));
    }

    #[test]
    fn a_parameter_bounded_product_loop_settles_in_four_passes() {
        // The matrix-multiply inner loop: acc += a[row*n + i] * b[i*n + col].
        let mut b = KernelBuilder::new("mm_row");
        let a = b.buffer_param("a");
        let bb = b.buffer_param("b");
        let n = b.scalar_param("n", Ty::U32);
        let row = b.group_id(0);
        let col = b.local_id(0);
        let zero = b.const_u32(0);
        let acc = b.fresh();
        b.mov_to(acc, zero);
        b.for_range(zero, n, |b, i| {
            let rn = b.mul_u32(row, n);
            let ia = b.add_u32(rn, i);
            let pa = b.elem_addr(a, ia);
            let va = b.load_global(pa);
            let in_ = b.mul_u32(i, n);
            let ib = b.add_u32(in_, col);
            let pb = b.elem_addr(bb, ib);
            let vb = b.load_global(pb);
            let prod = b.mul_f32(va, vb);
            let sum = b.add_f32(acc, prod);
            b.mov_to(acc, sum);
        });
        let k = b.finish();
        let (carried, hulls, passes) = first_loop_hulls(&k);
        assert!(passes <= 4, "{passes} passes");
        let counter = hulls[carried.len() - 1];
        assert_eq!((counter.0, counter.1), (0, BIG));
    }

    #[test]
    fn a_nested_parameter_bounded_loop_widens_too() {
        // for i in 0..n { for j in 0..n { x = x + 1 } }: each level
        // settles in four passes, so the outer pre-analysis spends at
        // most 4 + 4·4 walks.
        let (k, x) = counted(|b, x| {
            let n = b.scalar_param("m", Ty::U32);
            let zero = b.const_u32(0);
            b.for_range(zero, n, |b, _| {
                let one = b.const_u32(1);
                let up = b.add_u32(x, one);
                b.mov_to(x, up);
            });
        });
        let (_, _, walks) = first_loop_hulls(&k);
        assert!(walks <= 20, "{walks} walks");
        // The inner fixpoint's exact passes may step past BIG once the
        // outer hull is already there; past BIG is unbounded all the same.
        let (lo, hi, _) = hull_of(&k, x);
        assert!(lo == 0 && hi >= BIG, "[{lo}, {hi}]");
    }
}
