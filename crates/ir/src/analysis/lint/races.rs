//! Barrier-interval data-race detection.
//!
//! Within one barrier-delimited interval, two accesses by *distinct*
//! work-items of the same work-group race if their byte ranges can
//! overlap and at least one is a non-atomic write. The prover tries, in
//! order:
//!
//! 1. **Range disjointness** — numeric and symbolic `[lo, hi]` bounds of
//!    the two address polynomials (guard constraints refine bounds; shared
//!    uniform atoms cancel exactly in the symbolic difference).
//! 2. **Difference analysis** — matched lane monomials become bounded
//!    `δ = m(x) − m(y)` variables; *radix forcing* zeroes any δ whose
//!    coefficient stride exceeds everything else's reach, and *content
//!    factoring* (common integer × uniform-monomial factor) proves
//!    non-representability of small differences.
//! 3. **Identity closure** — if every collision solution forces the two
//!    items' `local_id` coordinates equal, the "pair" is one work-item
//!    accessing program-ordered instructions: not a race. Quotient /
//!    remainder atoms over lid-linear arguments propagate (`δQ = 0` and
//!    `δR = 0` imply `δlid = 0`).
//! 4. **Wavefront lockstep** — colliding items confined to one aligned
//!    `2^s ≤ wavefront` block of `local_id.0` (and equal in higher dims)
//!    execute distinct instructions in program order: the paper's
//!    Section 6 argument for intra-group pair communication. Applies only
//!    across *different* program points; two lanes colliding in the same
//!    store instruction are still a race.
//!
//! Posture differs by space: **LDS is verified** (anything unproven is
//! flagged) because the suite's kernels index the LDS with analyzable
//! affine expressions; **global memory is bug-finding** (only definite
//! overlaps are flagged) because butterfly-style bit manipulation is
//! routinely unprovable, and cross-group global traffic is out of scope
//! (the inter-group RMT comm protocol synchronizes it by construction).

use super::engine::{Access, AccessKind, Constraint, Rel, WalkOutput};
use super::expr::{AtomId, AtomKind, Atoms, LintAssumptions, Monomial, Poly, BIG};
use super::{Diagnostic, LintKind};
use crate::fxhash::FxHashSet;
use crate::inst::MemSpace;

/// Entries an [`AtomMap`] holds in place before it spills to the heap.
const FACT_SLOTS: usize = 2;

/// A small map keyed by atom, searched linearly. A guard set pins or
/// bounds a handful of atoms, so the first [`FACT_SLOTS`] entries live in
/// place and deriving facts allocates nothing. Entries iterate in
/// insertion order; every reader is order-independent.
#[derive(Debug, Clone)]
struct AtomMap<V> {
    len: usize,
    slots: [(AtomId, V); FACT_SLOTS],
    spill: Vec<(AtomId, V)>,
}

impl<V: Default> Default for AtomMap<V> {
    fn default() -> Self {
        AtomMap {
            len: 0,
            slots: std::array::from_fn(|_| (AtomId(0), V::default())),
            spill: Vec::new(),
        }
    }
}

impl<V> AtomMap<V> {
    fn iter(&self) -> impl Iterator<Item = &(AtomId, V)> {
        self.slots[..self.len].iter().chain(&self.spill)
    }

    fn position(&self, a: AtomId) -> Option<usize> {
        self.iter().position(|e| e.0 == a)
    }

    fn get(&self, a: &AtomId) -> Option<&V> {
        self.iter().find(|e| e.0 == *a).map(|e| &e.1)
    }

    fn contains_key(&self, a: &AtomId) -> bool {
        self.get(a).is_some()
    }

    /// The value of `a`, inserting `v` first if `a` has none.
    fn get_or_insert(&mut self, a: AtomId, v: V) -> &mut V {
        let found = self.position(a);
        let i = match found {
            Some(i) => i,
            None => self.push(a, v),
        };
        self.value_mut(i)
    }

    /// Sets the value of `a`.
    fn insert(&mut self, a: AtomId, v: V) {
        let found = self.position(a);
        match found {
            Some(i) => *self.value_mut(i) = v,
            None => {
                self.push(a, v);
            }
        }
    }

    /// Appends an entry; returns its position.
    fn push(&mut self, a: AtomId, v: V) -> usize {
        if self.len < FACT_SLOTS {
            self.slots[self.len] = (a, v);
            self.len += 1;
            self.len - 1
        } else {
            self.spill.push((a, v));
            FACT_SLOTS + self.spill.len() - 1
        }
    }

    fn value_mut(&mut self, i: usize) -> &mut V {
        match i.checked_sub(FACT_SLOTS) {
            None => &mut self.slots[i].1,
            Some(j) => &mut self.spill[j].1,
        }
    }
}

/// Facts derived from one access's guard constraints.
#[derive(Debug, Default)]
struct Facts {
    /// Atom pinned to an exact value.
    pins: AtomMap<i128>,
    /// Symbolic upper bound: atom ≤ poly (uniform).
    sym_hi: AtomMap<Poly>,
    /// Symbolic lower bound: atom ≥ poly (uniform).
    sym_lo: AtomMap<Poly>,
    /// Numeric refinements (intersected with the atom's own range).
    num: AtomMap<(i128, i128)>,
    /// The constraint set is unsatisfiable: the access cannot execute
    /// (e.g. it sits on a pruned zero-iteration loop alternative).
    infeasible: bool,
}

impl Facts {
    fn range(&self, a: AtomId, atoms: &Atoms) -> (i128, i128) {
        if let Some(&v) = self.pins.get(&a) {
            return (v, v);
        }
        let i = atoms.info(a);
        let (mut lo, mut hi) = (i.lo, i.hi);
        if let Some(&(nlo, nhi)) = self.num.get(&a) {
            lo = lo.max(nlo);
            hi = hi.min(nhi);
        }
        (lo, hi)
    }
}

fn derive_facts(constraints: &[Constraint], atoms: &Atoms) -> Facts {
    let mut f = Facts::default();
    for c in constraints {
        let mut p = c.poly.clone();
        match c.rel {
            Rel::EqZero => {
                // Normalize so single-atom handling sees a positive coeff.
                if p.terms().iter().all(|&(_, v)| v < 0) && p.k <= 0 {
                    p = p.neg();
                }
                if let [(m, ca)] = p.terms()[..] {
                    if m.len() == 1 && ca != 0 && (-p.k) % ca == 0 {
                        f.pins.insert(m[0], (-p.k / ca) as i128);
                        continue;
                    }
                }
                // Split off a single lane atom: A + rest == 0 → A = −rest.
                if let Some((a, rest)) = isolate_atom(&p, atoms) {
                    let (rlo, rhi) = rest.eval_range(atoms);
                    if rlo == rhi {
                        f.pins.insert(a, -rlo);
                    } else {
                        f.sym_hi.insert(a, rest.neg());
                        f.sym_lo.insert(a, rest.neg());
                        refine(&mut f.num, a, -rhi, -rlo);
                    }
                    continue;
                }
                // Sum of nonneg monomials == 0 pins each single atom to 0
                // (the `local_linear_id == 0` idiom).
                let nonneg = p.k >= 0
                    && p.terms().iter().all(|&(_, v)| v > 0)
                    && p.atom_ids().all(|a| atoms.info(a).lo >= 0);
                if nonneg {
                    for (m, _) in p.terms() {
                        if m.len() == 1 {
                            f.pins.insert(m[0], 0);
                        }
                    }
                }
            }
            Rel::NeZero => {
                if let [(m, ca)] = p.terms()[..] {
                    if m.len() == 1 && (-p.k) % ca == 0 {
                        let excl = (-p.k / ca) as i128;
                        let a = m[0];
                        let (lo, hi) = f.range(a, atoms);
                        if hi - lo == 1 {
                            // Two-valued atom with one endpoint excluded.
                            if excl == lo {
                                f.pins.insert(a, hi);
                            } else if excl == hi {
                                f.pins.insert(a, lo);
                            }
                        }
                    }
                }
            }
            Rel::LeZero => {
                // c·A + rest ≤ 0 with |c| == 1 and uniform rest.
                if let Some((a, coeff, rest)) = isolate_signed_atom(&p, atoms) {
                    let (rlo, rhi) = rest.eval_range(atoms);
                    if coeff == 1 {
                        // A ≤ −rest.
                        f.sym_hi.insert(a, rest.neg());
                        if rlo > -BIG {
                            refine(&mut f.num, a, -BIG, -rlo);
                        }
                    } else if coeff == -1 {
                        // A ≥ rest.
                        f.sym_lo.insert(a, rest.clone());
                        if rhi < BIG {
                            refine(&mut f.num, a, rlo, BIG);
                        }
                    }
                }
            }
        }
    }
    // Endpoint tightening from inequality constraints over products:
    // `P ≤ 0` rules an atom value `v` out whenever min(P | A = v) > 0.
    // This is what turns `0 ≤ offset·(2·lid+1)·4 − 4` (an in-bounds fact)
    // into `offset ≥ 1`. A few rounds suffice for the shapes we meet.
    for _ in 0..3 {
        let mut changed = false;
        for c in constraints {
            if c.rel != Rel::LeZero {
                continue;
            }
            // The constraint's distinct atoms, in increasing order.
            let mut last = None;
            while let Some(a) = c.poly.atom_ids().filter(|&x| last < Some(x)).min() {
                last = Some(a);
                let (lo, hi) = f.range(a, atoms);
                if lo >= hi || lo <= -BIG || f.pins.contains_key(&a) {
                    continue;
                }
                if eval_with_pin(&c.poly, atoms, &f, a, lo).0 > 0 {
                    refine(&mut f.num, a, lo + 1, BIG);
                    changed = true;
                }
                if hi < BIG && eval_with_pin(&c.poly, atoms, &f, a, hi).0 > 0 {
                    refine(&mut f.num, a, -BIG, hi - 1);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    // A pin or numeric refinement that contradicts the atom's own range
    // (e.g. `if (lid == huge_const)` under a known local size) makes the
    // guarded region unreachable: pins short-circuit `Facts::range`, so
    // they must be checked against the intrinsic bounds explicitly.
    for &(a, v) in f.pins.iter() {
        let i = atoms.info(a);
        if v < i.lo || v > i.hi {
            f.infeasible = true;
        }
    }
    for &(a, (nlo, nhi)) in f.num.iter() {
        let i = atoms.info(a);
        if nlo.max(i.lo) > nhi.min(i.hi) {
            f.infeasible = true;
        }
    }
    // Unsatisfiable constraint set ⇒ the access never executes.
    for c in constraints {
        let (lo, hi) = eval_with(&c.poly, atoms, &f);
        let bad = match c.rel {
            Rel::EqZero => lo > 0 || hi < 0,
            Rel::NeZero => lo == 0 && hi == 0,
            Rel::LeZero => lo > 0,
        };
        if bad {
            f.infeasible = true;
        }
    }
    f
}

/// `eval_with`, with one atom overridden to an exact value.
fn eval_with_pin(p: &Poly, atoms: &Atoms, f: &Facts, a: AtomId, v: i128) -> (i128, i128) {
    let mut lo = p.k as i128;
    let mut hi = p.k as i128;
    for &(m, c) in p.terms() {
        let (mut mlo, mut mhi) = (1i128, 1i128);
        for &x in &m {
            let (xlo, xhi) = if x == a { (v, v) } else { f.range(x, atoms) };
            let cands = [
                mlo.saturating_mul(xlo),
                mlo.saturating_mul(xhi),
                mhi.saturating_mul(xlo),
                mhi.saturating_mul(xhi),
            ];
            mlo = *cands.iter().min().unwrap();
            mhi = *cands.iter().max().unwrap();
        }
        let c = c as i128;
        let cands = [mlo.saturating_mul(c), mhi.saturating_mul(c)];
        lo = lo.saturating_add(*cands.iter().min().unwrap());
        hi = hi.saturating_add(*cands.iter().max().unwrap());
    }
    (lo, hi)
}

fn refine(num: &mut AtomMap<(i128, i128)>, a: AtomId, lo: i128, hi: i128) {
    let e = num.get_or_insert(a, (-BIG, BIG));
    e.0 = e.0.max(lo);
    e.1 = e.1.min(hi);
}

/// If `p` contains exactly one lane-atom term, a single atom with coeff 1,
/// and the rest is uniform, returns `(atom, rest)` with `p = A + rest`.
fn isolate_atom(p: &Poly, atoms: &Atoms) -> Option<(AtomId, Poly)> {
    match isolate_signed_atom(p, atoms) {
        Some((a, 1, rest)) => Some((a, rest)),
        _ => None,
    }
}

fn isolate_signed_atom(p: &Poly, atoms: &Atoms) -> Option<(AtomId, i64, Poly)> {
    let mut found: Option<(AtomId, i64)> = None;
    let mut rest = Poly::constant(p.k);
    for &(m, c) in p.terms() {
        let lane = m.iter().any(|&a| atoms.info(a).lane);
        if lane {
            if found.is_some() || m.len() != 1 || (c != 1 && c != -1) {
                return None;
            }
            found = Some((m[0], c));
        } else {
            rest.add_term(m, c);
        }
    }
    found.map(|(a, c)| (a, c, rest))
}

/// Constraint-refined numeric range of a polynomial (also used by the
/// engine's LDS bounds check). `None` means the constraint set is
/// unsatisfiable — the access sits in dead code and never executes.
pub(super) fn refined_range(
    p: &Poly,
    constraints: &[Constraint],
    atoms: &Atoms,
) -> Option<(i128, i128)> {
    let f = derive_facts(constraints, atoms);
    if f.infeasible {
        return None;
    }
    Some(eval_with(p, atoms, &f))
}

fn eval_with(p: &Poly, atoms: &Atoms, f: &Facts) -> (i128, i128) {
    let mut lo = p.k as i128;
    let mut hi = p.k as i128;
    for (m, c) in p.terms() {
        let (mlo, mhi) = mono_range(m, atoms, f);
        let c = *c as i128;
        let cands = [mlo.saturating_mul(c), mhi.saturating_mul(c)];
        lo = lo.saturating_add(*cands.iter().min().unwrap());
        hi = hi.saturating_add(*cands.iter().max().unwrap());
    }
    (lo, hi)
}

fn mono_range(m: &Monomial, atoms: &Atoms, f: &Facts) -> (i128, i128) {
    let (mut lo, mut hi) = (1i128, 1i128);
    for &a in m {
        let (alo, ahi) = f.range(a, atoms);
        let cands = [
            lo.saturating_mul(alo),
            lo.saturating_mul(ahi),
            hi.saturating_mul(alo),
            hi.saturating_mul(ahi),
        ];
        lo = *cands.iter().min().unwrap();
        hi = *cands.iter().max().unwrap();
    }
    (lo, hi)
}

/// Symbolic `[lo, hi]` bounds as polynomials over uniform atoms:
/// substitutes each lane monomial by pin / guard-bound / numeric-range
/// polynomials. `None` if some lane monomial is unbounded.
fn sym_bounds(lane: &Poly, unif: &Poly, atoms: &Atoms, f: &Facts) -> Option<(Poly, Poly)> {
    let mut lo = unif.clone();
    let mut hi = unif.clone();
    for &(m, c) in lane.terms() {
        let (blo, bhi) = if m.len() == 1 {
            atom_bounds(m[0], atoms, f)?
        } else {
            let (nlo, nhi) = mono_range(&m, atoms, f);
            if nlo <= -BIG || nhi >= BIG {
                return None;
            }
            (Poly::constant(nlo as i64), Poly::constant(nhi as i64))
        };
        if c > 0 {
            lo = lo.add(&blo.scale(c));
            hi = hi.add(&bhi.scale(c));
        } else {
            lo = lo.add(&bhi.scale(c));
            hi = hi.add(&blo.scale(c));
        }
    }
    Some((lo, hi))
}

fn atom_bounds(a: AtomId, atoms: &Atoms, f: &Facts) -> Option<(Poly, Poly)> {
    if let Some(&v) = f.pins.get(&a) {
        let p = Poly::constant(v as i64);
        return Some((p.clone(), p));
    }
    let (nlo, nhi) = f.range(a, atoms);
    let lo = match f.sym_lo.get(&a) {
        Some(p) => p.clone(),
        None if nlo > -BIG => Poly::constant(nlo as i64),
        None => return None,
    };
    let hi = match f.sym_hi.get(&a) {
        Some(p) => p.clone(),
        None if nhi < BIG => Poly::constant(nhi as i64),
        None => return None,
    };
    Some((lo, hi))
}

/// Bounds of `addr1(x) − addr2(y)` with the atoms in `split` fixed to an
/// exact δ and the other matched singleton lane monomials replaced by
/// differences of their per-side symbolic bounds (so shared uniform terms
/// cancel). Unmatched or compound monomials fall back to independent
/// numeric ranges. `None` when a needed bound is unavailable.
fn sym_diff_range(
    p1: &Prepared,
    p2: &Prepared,
    atoms: &Atoms,
    fu: &Facts,
    split: &[(AtomId, i128)],
) -> Option<(i128, i128)> {
    let (lane1, lane2, f1, f2) = (&p1.lane, &p2.lane, &p1.facts, &p2.facts);
    let base = p1.unif.sub(&p2.unif);
    let mut lo = base.clone();
    let mut hi = base;
    let mut extra_lo = 0i128;
    let mut extra_hi = 0i128;
    for (m, c1, c2) in lane1.union_terms(lane2) {
        let (lm, um) = split_mono(&m, atoms);
        if c1 == c2 && lm.len() == 1 && um.is_empty() {
            let a = lm[0];
            if let Some(&(_, d)) = split.iter().find(|s| s.0 == a) {
                let folded = i64::try_from((c1 as i128).saturating_mul(d)).ok()?;
                lo.k = lo.k.saturating_add(folded);
                hi.k = hi.k.saturating_add(folded);
                continue;
            }
            let (b1lo, b1hi) = atom_bounds(a, atoms, f1)?;
            let (b2lo, b2hi) = atom_bounds(a, atoms, f2)?;
            let dlo = b1lo.sub(&b2hi);
            let dhi = b1hi.sub(&b2lo);
            if c1 > 0 {
                lo = lo.add(&dlo.scale(c1));
                hi = hi.add(&dhi.scale(c1));
            } else {
                lo = lo.add(&dhi.scale(c1));
                hi = hi.add(&dlo.scale(c1));
            }
        } else {
            // Independent per-side ranges; no cancellation.
            for (c, f) in [(c1, f1), (-c2, f2)] {
                if c == 0 {
                    continue;
                }
                let (mlo, mhi) = mono_range(&m, atoms, f);
                let cands = [mlo.saturating_mul(c as i128), mhi.saturating_mul(c as i128)];
                extra_lo = extra_lo.saturating_add(*cands.iter().min().unwrap());
                extra_hi = extra_hi.saturating_add(*cands.iter().max().unwrap());
            }
        }
    }
    let (plo, _) = eval_with(&lo, atoms, fu);
    let (_, phi) = eval_with(&hi, atoms, fu);
    Some((plo.saturating_add(extra_lo), phi.saturating_add(extra_hi)))
}

/// One bounded integer contribution to the address difference
/// `addr1(x) − addr2(y)`.
#[derive(Debug, Clone)]
struct Var {
    /// Integer coefficient.
    c: i64,
    /// Uniform monomial factor (same value for both items).
    umono: Monomial,
    /// Range of the lane-dependent factor (a δ for matched terms).
    lo: i128,
    hi: i128,
    /// Lane factor (single atom if trackable).
    lane_atom: Option<AtomId>,
    /// `true` for `m(x) − m(y)` terms (zero is always inside the range).
    matched: bool,
}

/// Result of comparing one access pair.
#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    /// Byte ranges proven disjoint (or collision infeasible).
    Disjoint,
    /// Every collision forces the two items to be the same work-item.
    SameItem,
    /// Colliding items share an aligned sub-wavefront block and the two
    /// program points are distinct: ordered by SIMT lockstep.
    SameWavefront,
    /// Overlap not excluded. `definite` = a collision is proven feasible
    /// (not merely unexcluded).
    Overlap { definite: bool },
}

fn split_mono(m: &Monomial, atoms: &Atoms) -> (Monomial, Monomial) {
    let mut lane = Monomial::ONE;
    let mut unif = Monomial::ONE;
    for &a in m {
        if atoms.info(a).lane {
            lane.push(a);
        } else {
            unif.push(a);
        }
    }
    (lane, unif)
}

/// What the prover needs of one access, derived once per lint call.
struct Prepared {
    /// Facts from the access's guard constraints.
    facts: Facts,
    /// Lane-dependent part of the address.
    lane: Poly,
    /// Uniform part of the address (constant included).
    unif: Poly,
    /// Constraint-refined numeric address range.
    range: (i128, i128),
    /// Symbolic address bounds over uniform atoms, if every lane monomial
    /// is bounded.
    sym: Option<(Poly, Poly)>,
}

impl Prepared {
    fn new(a: &Access, atoms: &Atoms) -> Self {
        let facts = derive_facts(&a.constraints, atoms);
        let (lane, unif) = a.addr.split_lane(atoms);
        let range = eval_with(&a.addr, atoms, &facts);
        let sym = sym_bounds(&lane, &unif, atoms, &facts);
        Prepared {
            facts,
            lane,
            unif,
            range,
            sym,
        }
    }
}

/// A `local_id.d` atom and, in atom order, the quotient (`true`) and
/// remainder atoms whose argument's lane part is exactly that id.
struct LidAtoms {
    lid: AtomId,
    parts: Vec<(AtomId, bool, u8)>,
}

impl LidAtoms {
    /// The index for dimension `d`; `None` when the walk never read a
    /// non-degenerate `local_id.d`.
    fn new(atoms: &Atoms, d: u8) -> Option<Self> {
        let ids = || (0..atoms.len() as u32).map(AtomId);
        let lid = ids().find(|&a| atoms.info(a).kind == AtomKind::LocalId(d))?;
        let parts = ids()
            .filter_map(|a| match &atoms.info(a).kind {
                AtomKind::Quot { arg, shift } if lane_part_is(arg, lid, atoms) => {
                    Some((a, true, *shift))
                }
                AtomKind::Rem { arg, shift } if lane_part_is(arg, lid, atoms) => {
                    Some((a, false, *shift))
                }
                _ => None,
            })
            .collect();
        Some(LidAtoms { lid, parts })
    }
}

/// Per-lint-call context of the pair checks.
struct Ctx<'a> {
    atoms: &'a Atoms,
    /// The `local_id` index of each dimension.
    lids: [Option<LidAtoms>; 3],
    /// Wavefront width.
    wave: i128,
}

/// Compares two accesses; `same_point` when they are one program point.
fn check_pair(
    a1: &Access,
    a2: &Access,
    p1: &Prepared,
    p2: &Prepared,
    same_point: bool,
    ctx: &Ctx,
    vars: &mut Vec<Var>,
) -> Verdict {
    let (atoms, lids, wave) = (ctx.atoms, &ctx.lids, ctx.wave);
    let (f1, f2) = (&p1.facts, &p2.facts);
    if f1.infeasible || f2.infeasible {
        // One side sits on an unreachable alternative (e.g. the skipped
        // path of a loop whose condition is constant-true on entry).
        return Verdict::Disjoint;
    }

    // --- 1. Range disjointness (numeric, then symbolic). ---
    let ((lo1, hi1), (lo2, hi2)) = (p1.range, p2.range);
    if lo2.saturating_sub(hi1) >= 4 || lo1.saturating_sub(hi2) >= 4 {
        return Verdict::Disjoint;
    }
    if let (Some((slo1, shi1)), Some((slo2, shi2))) = (&p1.sym, &p2.sym) {
        // Shared uniform atoms cancel exactly in the difference.
        let gap_a = slo2.sub(shi1).eval_range(atoms).0;
        let gap_b = slo1.sub(shi2).eval_range(atoms).0;
        if gap_a >= 4 || gap_b >= 4 {
            return Verdict::Disjoint;
        }
    }

    // --- 2. Difference analysis. ---
    let (lane1, lane2) = (&p1.lane, &p2.lane);
    let mut d0 = p1.unif.sub(&p2.unif);
    vars.clear();

    for (m, c1, c2) in lane1.union_terms(lane2) {
        let (lm, um) = split_mono(&m, atoms);
        let lane_atom = if lm.len() == 1 { Some(lm[0]) } else { None };
        if c1 == c2 {
            // Matched term: δ = lane(x) − lane(y).
            let (l1, h1) = mono_range(&lm, atoms, f1);
            let (l2, h2) = mono_range(&lm, atoms, f2);
            let (dlo, dhi) = (l1.saturating_sub(h2), h1.saturating_sub(l2));
            if dlo == dhi && lane_atom.is_none() {
                // Exact known δ of an untrackable (compound) lane monomial
                // folds into the constant part. Singleton atoms keep their
                // Var so the identity closure sees the exact δ.
                if let Ok(d) = i64::try_from(dlo) {
                    let folded = c1.saturating_mul(d);
                    if um.is_empty() {
                        d0.k = d0.k.saturating_add(folded);
                    } else if folded != 0 {
                        d0.add_term(um, folded);
                    }
                    continue;
                }
            }
            vars.push(Var {
                c: c1,
                umono: um,
                lo: dlo,
                hi: dhi,
                lane_atom,
                matched: true,
            });
        } else {
            for (c, f, side1) in [(c1, f1, true), (c2, f2, false)] {
                if c == 0 {
                    continue;
                }
                let (l, h) = mono_range(&lm, atoms, f);
                let c = if side1 { c } else { -c };
                vars.push(Var {
                    c,
                    umono: um,
                    lo: l,
                    hi: h,
                    lane_atom,
                    matched: false,
                });
            }
        }
    }

    // Uniform atoms hold one value for both items: intersect refinements.
    let mut fu = Facts::default();
    for f in [f1, f2] {
        for &(a, v) in f.pins.iter() {
            fu.pins.insert(a, v);
        }
        for &(a, (lo, hi)) in f.num.iter() {
            refine(&mut fu.num, a, lo, hi);
        }
    }
    let (d0lo, d0hi) = eval_with(&d0, atoms, &fu);

    // --- 1b. Case-split symbolic difference: enumerate the values of
    // small matched lane atoms (pair flags, parity bits) and prove every
    // case disjoint. This resolves transformed-kernel addresses of the
    // shape `replica·lds + f(lid')`, where the replica flag's ±lds stride
    // overlaps numerically but each fixed flag-δ leaves a symbolically
    // disjoint remainder. ---
    {
        let mut split_atoms = [(AtomId(0), 0i128, 0i128); 2];
        let mut n_split = 0;
        for v in vars.iter() {
            if n_split == split_atoms.len() {
                break;
            }
            if !v.matched || !v.umono.is_empty() || v.lo >= v.hi || v.hi - v.lo > 2 {
                continue;
            }
            if let Some(a) = v.lane_atom {
                // The atom must appear only as a singleton monomial, so a
                // fixed δ translates into an exact contribution.
                let singleton = [&a1.addr, &a2.addr].iter().all(|p| {
                    p.terms()
                        .iter()
                        .all(|(m, _)| !m.contains(&a) || m.len() == 1)
                });
                if singleton {
                    split_atoms[n_split] = (a, v.lo, v.hi);
                    n_split += 1;
                }
            }
        }
        let split_atoms = &split_atoms[..n_split];
        if !split_atoms.is_empty() {
            // Case `n` picks one δ per split atom, as the digits of `n`.
            let width = |&(_, lo, hi): &(AtomId, i128, i128)| (hi - lo + 1) as usize;
            let cases: usize = split_atoms.iter().map(width).product();
            let all_disjoint = (0..cases).all(|mut n| {
                let mut split = [(AtomId(0), 0i128); 2];
                for (s, t) in split.iter_mut().zip(split_atoms) {
                    *s = (t.0, t.1 + (n % width(t)) as i128);
                    n /= width(t);
                }
                matches!(
                    sym_diff_range(p1, p2, atoms, &fu, &split[..split_atoms.len()]),
                    Some((lo, hi)) if lo >= 4 || hi <= -4
                )
            });
            if all_disjoint {
                return Verdict::Disjoint;
            }
        }
    }

    // Interval feasibility of Σ c·U·v + d0 ∈ [−3, 3].
    let contrib = |v: &Var, atoms: &Atoms, fu: &Facts| -> (i128, i128) {
        let (ulo, uhi) = mono_range(&v.umono, atoms, fu);
        let mut lo = i128::MAX;
        let mut hi = i128::MIN;
        for u in [ulo, uhi] {
            for x in [v.lo, v.hi] {
                let val = (v.c as i128).saturating_mul(u).saturating_mul(x);
                lo = lo.min(val);
                hi = hi.max(val);
            }
        }
        (lo, hi)
    };
    let total = |vars: &[Var]| -> (i128, i128) {
        let mut lo = d0lo;
        let mut hi = d0hi;
        for v in vars {
            let (clo, chi) = contrib(v, atoms, &fu);
            lo = lo.saturating_add(clo);
            hi = hi.saturating_add(chi);
        }
        (lo, hi)
    };
    let (tlo, thi) = total(vars);
    if tlo > 3 || thi < -3 {
        return Verdict::Disjoint;
    }

    // Radix forcing: a matched δ whose minimum step exceeds everything
    // else's reach must be zero in any collision.
    loop {
        let mut forced = None;
        for (i, v) in vars.iter().enumerate() {
            if !v.matched || (v.lo == 0 && v.hi == 0) {
                continue;
            }
            let (ulo, _) = mono_range(&v.umono, atoms, &fu);
            let step = (v.c.unsigned_abs() as i128).saturating_mul(ulo.max(0));
            if step == 0 {
                continue;
            }
            let mut reach = d0lo.saturating_abs().max(d0hi.saturating_abs());
            for (j, w) in vars.iter().enumerate() {
                if i == j {
                    continue;
                }
                let (clo, chi) = contrib(w, atoms, &fu);
                reach = reach.saturating_add(clo.saturating_abs().max(chi.saturating_abs()));
            }
            if step > reach.saturating_add(3) {
                forced = Some(i);
                break;
            }
        }
        match forced {
            Some(i) => {
                vars[i].lo = 0;
                vars[i].hi = 0;
            }
            None => break,
        }
    }
    let (tlo, thi) = total(vars);
    if tlo > 3 || thi < -3 {
        return Verdict::Disjoint;
    }

    // Content factoring: factor the common integer gcd (with uniform-
    // monomial d0 support) and test representability of [−3, 3].
    {
        let mut g: i128 = 0;
        let mut live = false;
        for v in vars.iter() {
            if v.lo == 0 && v.hi == 0 {
                continue;
            }
            live = true;
            g = gcd(g, v.c.unsigned_abs() as i128);
        }
        // Fold d0's content in too: factoring still applies when the
        // uniform offset shares a (smaller) factor with the var strides,
        // e.g. `8·Q·δ + 4·Q` factors as `4Q·(2δ + 1)` — and `2δ + 1` is
        // never zero.
        g = gcd(g, d0.k.unsigned_abs() as i128);
        for &(_, c) in d0.terms() {
            g = gcd(g, c.unsigned_abs() as i128);
        }
        if live && g > 1 {
            // Common uniform-monomial factor of all live vars and d0.
            let mut common: Option<Monomial> = None;
            for v in vars.iter() {
                if v.lo == 0 && v.hi == 0 {
                    continue;
                }
                common = Some(match common {
                    None => v.umono,
                    Some(c) => mono_intersect(&c, &v.umono),
                });
            }
            let mut common = common.unwrap_or(Monomial::ONE);
            for (m, _) in d0.terms() {
                common = mono_intersect(&common, m);
            }
            if d0.k != 0 {
                common.clear();
            }
            if let Some(d0g) = divide_poly(&d0, g, &common) {
                // T = F · (Σ c'·v + d0'), F = g·common.
                let (flo, _) = mono_range(&common, atoms, &fu);
                let fmin = g.saturating_mul(flo.max(0));
                if fmin >= 4 {
                    // Need the reduced sum to be exactly zero.
                    let rg = vars
                        .iter()
                        .filter(|v| !(v.lo == 0 && v.hi == 0))
                        .fold(0i128, |acc, v| gcd(acc, (v.c.unsigned_abs() as i128) / g));
                    let (rdlo, rdhi) = eval_with(&d0g, atoms, &fu);
                    if rg > 1 && rdlo == rdhi && rdlo % rg != 0 {
                        return Verdict::Disjoint;
                    }
                }
            }
        }
    }

    // --- 3. Identity closure: are the colliding items the same item? ---
    let mut known: AtomMap<Option<i128>> = AtomMap::default(); // None = unknown δ
    for v in vars.iter() {
        // Only matched vars are true δ values; one-sided vars carry the
        // raw value range of a single item.
        if !v.matched {
            continue;
        }
        if let Some(a) = v.lane_atom {
            let (ulo, _) = mono_range(&v.umono, atoms, &fu);
            if v.lo == 0 && v.hi == 0 && ulo >= 1 {
                known.insert(a, Some(0));
            } else if v.lo == v.hi && ulo >= 1 {
                known.insert(a, Some(v.lo));
            }
        }
    }
    // Pins on lane atoms give exact δ even for atoms not in the address.
    for &(a, p1) in f1.pins.iter() {
        if atoms.info(a).lane {
            if let Some(&p2) = f2.pins.get(&a) {
                known.get_or_insert(a, Some(p1 - p2));
            }
        }
    }

    let mut all_identity_zero = true;
    let mut same_block = false;
    let mut higher_dims_ok = true;
    let mut identity_seen = false;
    for (d, lid) in lids.iter().enumerate() {
        let Some(lid) = lid else {
            continue; // degenerate or unread dimension
        };
        identity_seen = true;
        let (delta, block) = resolve_lid_delta(lid, &known, wave);
        match delta {
            Some(0) => {}
            _ => {
                all_identity_zero = false;
                if d == 0 {
                    same_block = block;
                } else {
                    higher_dims_ok = false;
                }
            }
        }
    }

    if identity_seen && all_identity_zero {
        return Verdict::SameItem;
    }
    if same_block && higher_dims_ok && !same_point {
        return Verdict::SameWavefront;
    }

    // --- 4. Definiteness for bug-finder postures. A *definite* race
    // needs a collision witness that (i) holds for every parameter
    // valuation — a δ scaled by a non-constant uniform monomial must be
    // zero in the witness — and (ii) names two DISTINCT work-items: a
    // witness forcing every local-id dimension equal describes one
    // work-item in program order, not a race. ---
    let free_onesided = vars.iter().any(|v| !v.matched && (v.lo != 0 || v.hi != 0));
    let d0_definite = d0lo == d0hi;
    let mut witness_sum = d0lo;
    let mut witness = known.clone();
    let mut robust = true;
    for v in vars.iter().filter(|v| v.matched) {
        let d = if v.lo == v.hi {
            v.lo
        } else if v.lo <= 0 && v.hi >= 0 {
            0
        } else {
            robust = false;
            break;
        };
        if d != 0 && (!v.umono.is_empty() || v.lane_atom.is_none()) {
            // A forced nonzero δ that scales with an unknown uniform
            // value (or hides in a compound monomial) has no
            // parameter-independent witness.
            robust = false;
            break;
        }
        if v.umono.is_empty() {
            witness_sum = witness_sum.saturating_add((v.c as i128).saturating_mul(d));
        }
        if let Some(a) = v.lane_atom {
            witness.insert(a, Some(d));
        }
    }
    let witness_hits = (-3..=3).contains(&witness_sum);
    let mut distinct_possible = false;
    for lid in lids.iter().flatten() {
        if resolve_lid_delta(lid, &witness, wave).0 != Some(0) {
            distinct_possible = true;
        }
    }
    let opaque_addr =
        has_opaque_lane_atom(&a1.addr, atoms) || has_opaque_lane_atom(&a2.addr, atoms);
    let definite = !opaque_addr
        && !free_onesided
        && robust
        && d0_definite
        && witness_hits
        && distinct_possible
        && !a1.opaque_guard
        && !a2.opaque_guard
        && identity_seen;
    Verdict::Overlap { definite }
}

/// δ bound for a `local_id.d` atom from the known-δ closure. Returns
/// `(exact δ if derivable, confined-to-aligned-block ≤ wavefront)`.
fn resolve_lid_delta(
    lid: &LidAtoms,
    known: &AtomMap<Option<i128>>,
    wave: i128,
) -> (Option<i128>, bool) {
    if let Some(Some(d)) = known.get(&lid.lid) {
        return (Some(*d), d.saturating_abs() < wave && *d == 0);
    }
    // Quotient/remainder reconstruction: δlid = 2^s·δQ + δR.
    let mut bound: Option<(u8, i128)> = None; // (shift, exact δQ)
    let mut congruence: Option<(u8, i128)> = None; // (shift, exact δR)
    for &(a, quot, shift) in &lid.parts {
        let Some(Some(delta)) = known.get(&a) else {
            continue;
        };
        if quot {
            if *delta == 0 {
                bound = Some(match bound {
                    Some((s, v)) if s <= shift => (s, v),
                    _ => (shift, 0),
                });
            }
        } else {
            congruence = Some(match congruence {
                Some((s, v)) if s >= shift => (s, v),
                _ => (shift, *delta),
            });
        }
    }
    match (bound, congruence) {
        (Some((s, _)), Some((sr, dr))) => {
            // |δlid| ≤ 2^s − 1 and δlid ≡ dr (mod 2^sr).
            let b = (1i128 << s) - 1;
            if dr == 0 && (1i128 << sr) > b {
                return (Some(0), true);
            }
            (None, (1i128 << s) <= wave)
        }
        (Some((s, _)), None) => (None, (1i128 << s) <= wave),
        _ => (None, false),
    }
}

/// `true` if some monomial of `p` holds a lane-dependent opaque atom.
fn has_opaque_lane_atom(p: &Poly, atoms: &Atoms) -> bool {
    p.atom_ids().any(|a| {
        let info = atoms.info(a);
        info.lane && matches!(info.kind, AtomKind::Opaque { .. })
    })
}

fn lane_part_is(p: &Poly, lid: AtomId, atoms: &Atoms) -> bool {
    let (lane, _) = p.split_lane(atoms);
    matches!(lane.terms(), [(m, 1)] if m.len() == 1 && m[0] == lid)
}

fn gcd(a: i128, b: i128) -> i128 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

fn mono_intersect(a: &Monomial, b: &Monomial) -> Monomial {
    let mut out = Monomial::ONE;
    let mut bb = *b;
    for &x in a {
        if let Some(pos) = bb.iter().position(|&y| y == x) {
            bb.remove(pos);
            out.push(x);
        }
    }
    out
}

/// Divides every coefficient of `p` by `g` and every monomial by the
/// common factor `common`; `None` if not exactly divisible.
fn divide_poly(p: &Poly, g: i128, common: &Monomial) -> Option<Poly> {
    let g64 = i64::try_from(g).ok()?;
    if g64 == 0 {
        return None;
    }
    let mut out = Poly::constant(0);
    if p.k != 0 {
        if !common.is_empty() || p.k % g64 != 0 {
            return None;
        }
        out.k = p.k / g64;
    }
    for (m, c) in p.terms() {
        if c % g64 != 0 {
            return None;
        }
        let stripped = strip_factor(m, common)?;
        out.add_term(stripped, c / g64);
    }
    Some(out)
}

fn strip_factor(m: &Monomial, f: &Monomial) -> Option<Monomial> {
    let mut rest = *m;
    for &x in f {
        let pos = rest.iter().position(|&y| y == x)?;
        rest.remove(pos);
    }
    Some(rest)
}

/// Checks every access pair of every interval; returns race diagnostics,
/// interval by interval.
///
/// Each access's facts are derived once, on its first pair, and dropped
/// after the last interval that holds the access. An ordered pair that an
/// earlier interval (or alternative) already checked is skipped: its
/// verdict, and so its diagnostic, would be the same.
pub(super) fn check_intervals(out: &WalkOutput, asm: &LintAssumptions) -> Vec<Diagnostic> {
    // A single-work-item group cannot race with itself.
    if let [Some(a), Some(b), Some(c)] = asm.local_size {
        if a as u64 * b as u64 * c as u64 <= 1 {
            return Vec::new();
        }
    }
    let atoms = &out.atoms;
    let ctx = Ctx {
        atoms,
        lids: [0, 1, 2].map(|d| LidAtoms::new(atoms, d)),
        wave: asm.wave() as i128,
    };
    // Intervals left that hold each access: its facts are dropped after
    // the last one. Only a pair of accesses that both sit in several
    // intervals can come round again.
    let mut uses = vec![0u32; out.accesses.len()];
    for &i in out.intervals.iter().flatten() {
        uses[i] += 1;
    }
    let shared: Vec<bool> = uses.iter().map(|&u| u > 1).collect();
    // Global pairs are reported only as definite races, which no access
    // under an opaque guard or at an opaque lane address can be part of
    // (nor any access of a kernel that never reads `local_id`): such
    // pairs are not checked at all.
    let no_identity = ctx.lids.iter().all(Option::is_none);
    let never_definite: Vec<bool> = out
        .accesses
        .iter()
        .map(|a| no_identity || a.opaque_guard || has_opaque_lane_atom(&a.addr, atoms))
        .collect();
    let mut prepared: Vec<Option<Prepared>> = Vec::new();
    prepared.resize_with(out.accesses.len(), || None);
    let mut checked: FxHashSet<(u32, u32)> = FxHashSet::default();
    let mut diags = Vec::new();
    let mut vars = Vec::new();
    for interval in &out.intervals {
        for (n, &i) in interval.iter().enumerate() {
            for &j in &interval[n..] {
                let (a1, a2) = (&out.accesses[i], &out.accesses[j]);
                if a1.space != a2.space {
                    continue;
                }
                if a1.kind == AccessKind::Read && a2.kind == AccessKind::Read {
                    continue;
                }
                if a1.kind == AccessKind::Atomic && a2.kind == AccessKind::Atomic {
                    continue;
                }
                if i == j && a1.kind == AccessKind::Atomic {
                    continue;
                }
                if a1.space == MemSpace::Global && (never_definite[i] || never_definite[j]) {
                    continue;
                }
                if shared[i] && shared[j] && !checked.insert((i as u32, j as u32)) {
                    continue;
                }
                for k in [i, j] {
                    if prepared[k].is_none() {
                        prepared[k] = Some(Prepared::new(&out.accesses[k], atoms));
                    }
                }
                let p1 = prepared[i].as_ref().expect("prepared above");
                let p2 = prepared[j].as_ref().expect("prepared above");
                match check_pair(a1, a2, p1, p2, i == j, &ctx, &mut vars) {
                    Verdict::Disjoint | Verdict::SameItem | Verdict::SameWavefront => {}
                    Verdict::Overlap { definite } => {
                        let (kind, emit) = match a1.space {
                            MemSpace::Local => (LintKind::LocalRace, true),
                            MemSpace::Global => (LintKind::GlobalRace, definite),
                        };
                        if emit {
                            let sev = if definite { "definite" } else { "possible" };
                            diags.push(Diagnostic {
                                kind,
                                message: format!(
                                    "{sev} {} data race between distinct work-items in one \
                                     barrier interval: [{}] and [{}]",
                                    a1.space,
                                    a1.describe(atoms),
                                    a2.describe(atoms)
                                ),
                            });
                        }
                    }
                }
            }
        }
        for &i in interval {
            uses[i] -= 1;
            if uses[i] == 0 {
                prepared[i] = None;
            }
        }
    }
    diags
}
